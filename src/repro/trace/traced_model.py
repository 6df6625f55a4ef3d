"""Traced inference: run a model on one input and produce its HPC footprint.

:class:`TracedInference` lays the model's tensors out in a virtual address
space, builds per-layer tracers once, and then for each classified sample
(1) computes the reference forward pass, (2) emits the corresponding
cache-line / instruction / branch trace, and (3) replays it through a
:class:`repro.uarch.CpuModel` to obtain the eight hardware events of one
``perf stat`` measurement.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, TraceError
from ..obs import runtime as obs
from ..nn.layers import Flatten
from ..nn.model import Sequential
from ..uarch.cpu import CpuModel
from ..uarch.events import EventCounts
from .address_map import AddressSpace
from .layer_tracers import LayerTracer, tracer_for
from .recorder import Trace, TraceConfig

#: Fixed framework overhead charged before the first layer (dispatcher,
#: input marshalling) — input-independent by construction.
_PREAMBLE_INSTRUCTIONS = 20_000
_PREAMBLE_BRANCHES = 2_500
#: Pseudo-PC of the final argmax loop's update branch.
_ARGMAX_PC = 8191


class TracedInference:
    """Binds a built model to an address space and per-layer tracers.

    Args:
        model: A built :class:`Sequential` classifier.
        config: Trace-generation knobs (sparsity policy, stride...).
        page_bytes: Address-space alignment granule.
        engine: Forward-pass implementation feeding the tracers —
            ``"compiled"`` (default) lazily freezes the model into a
            layer-preserving :class:`repro.nn.engine.InferencePlan`
            (bit-identical per-layer activations, no per-layer dispatch
            or allocation), ``"layers"`` calls each layer directly.  The
            emitted traces are identical either way; the plan snapshots
            the weights at first use, so retrain-then-trace flows should
            construct a fresh ``TracedInference``.
    """

    def __init__(self, model: Sequential, config: Optional[TraceConfig] = None,
                 page_bytes: int = 4096, engine: str = "compiled"):
        if not model.built:
            raise TraceError("model must be built before tracing")
        from ..nn.engine import ENGINES
        if engine not in ENGINES:
            raise ConfigError(
                f"engine must be one of {ENGINES}, got {engine!r}")
        self.model = model
        self.config = config or TraceConfig()
        self.engine = engine
        self._plan = None
        self.space = AddressSpace(page_bytes=page_bytes)
        itemsize = self.config.itemsize
        self.input_region = self.space.allocate("input", model.input_shape,
                                                itemsize)
        # Weight regions first (they are long-lived allocations in real
        # frameworks), then one activation buffer per layer.
        for layer in model.layers:
            for key, value in layer.state_arrays().items():
                self.space.allocate(f"{layer.name}.{key}", value.shape,
                                    itemsize)
        self.tracers: List[LayerTracer] = []
        in_region = self.input_region
        for index, layer in enumerate(model.layers):
            if isinstance(layer, Flatten):
                # Flatten is a view: the next layer reads the same buffer.
                out_region = in_region
            else:
                out_region = self.space.allocate(
                    f"act{index}.{layer.name}", layer.output_shape, itemsize)
            tracer = tracer_for(layer, index, in_region, out_region,
                                self.space, self.config)
            tracer.prepare()
            self.tracers.append(tracer)
            in_region = out_region
        self.output_region = in_region

    # ------------------------------------------------------------------
    # Trace construction
    # ------------------------------------------------------------------

    def _preserve_plan(self):
        """The lazily-compiled layer-preserving inference plan.

        Compiled in ``preserve_layers`` mode so each plan op reproduces
        its layer's activations bit for bit — the tracers' sparsity and
        value analyses see exactly what the reference path produces.
        """
        if self._plan is None:
            from ..nn.engine import compile_model
            self._plan = compile_model(self.model, batch_size=1,
                                       preserve_layers=True)
        return self._plan

    def _emit_preamble(self, trace: Trace) -> None:
        """Framework preamble + copy-in of the user's input."""
        trace.instr(_PREAMBLE_INSTRUCTIONS)
        trace.bulk_branch(_PREAMBLE_BRANCHES,
                          self.config.bulk_branch_miss_rate)
        trace.mem(self.input_region.all_lines(self.config.line_bytes),
                  write=True)

    def _emit_classifier_tail(self, logits: np.ndarray, trace: Trace) -> int:
        """Final argmax over the logits; returns the predicted class."""
        if self.config.branchless_compares:
            # Countermeasure: conditional-move argmax — fixed instruction and
            # branch counts regardless of the logit ordering.
            trace.instr(logits.size * 8)
            trace.bulk_branch(logits.size, self.config.bulk_branch_miss_rate)
        else:
            # Final argmax: running-max update branches are data dependent
            # but few — a deliberately weak branch signal (paper Tables 1-2).
            running = logits[0]
            outcomes = np.empty(logits.size - 1, dtype=bool)
            for i in range(1, logits.size):
                outcomes[i - 1] = logits[i] > running
                if outcomes[i - 1]:
                    running = logits[i]
            trace.dyn_branch(_ARGMAX_PC, outcomes)
            trace.instr(logits.size * 6)
            trace.bulk_branch(logits.size, self.config.bulk_branch_miss_rate)
        return int(np.argmax(logits))

    def trace_sample(self, sample: np.ndarray) -> Tuple[int, Trace]:
        """Classify ``sample`` and build its full execution trace.

        Args:
            sample: One input of shape ``model.input_shape`` (no batch axis).

        Returns:
            ``(predicted_class, trace)``.
        """
        sample = np.asarray(sample, dtype=np.float64)
        if sample.shape != self.model.input_shape:
            raise TraceError(
                f"sample shape {sample.shape} does not match model input "
                f"{self.model.input_shape}"
            )
        trace = Trace()
        self._emit_preamble(trace)
        x = sample
        if self.engine == "compiled":
            # Each op executes between iterator steps, so the
            # trace.layer_ns split below still charges forward +
            # trace-emission time to the right layer.
            steps = zip(self.tracers,
                        self._preserve_plan().iter_layers(sample[None, ...]))
            if obs.is_enabled():
                start = time.perf_counter_ns()
                for tracer, (_label, xin, yout) in steps:
                    tracer.trace(xin[0], yout[0], trace)
                    now = time.perf_counter_ns()
                    obs.observe("trace.layer_ns", now - start,
                                layer=tracer.layer.name)
                    start = now
                    x = yout[0]
            else:
                for tracer, (_label, xin, yout) in steps:
                    tracer.trace(xin[0], yout[0], trace)
                    x = yout[0]
        elif obs.is_enabled():
            # Per-layer profiling hook: forward + trace-emission nanoseconds
            # of every layer, labelled by layer name.
            for tracer in self.tracers:
                start = time.perf_counter_ns()
                y = tracer.layer.forward(x[None, ...], training=False)[0]
                tracer.trace(x, y, trace)
                obs.observe("trace.layer_ns",
                            time.perf_counter_ns() - start,
                            layer=tracer.layer.name)
                x = y
        else:
            for tracer in self.tracers:
                y = tracer.layer.forward(x[None, ...], training=False)[0]
                tracer.trace(x, y, trace)
                x = y
        logits = x.ravel()
        prediction = self._emit_classifier_tail(logits, trace)
        return prediction, trace

    def trace_batch(self, samples: np.ndarray) -> List[Tuple[int, Trace]]:
        """Classify a batch and build one execution trace per sample.

        The reference forward pass runs once over the whole batch (one
        layer dispatch per layer instead of one per sample), then each
        sample's trace is emitted from its slice of the batched
        activations.  This amortizes the per-sample Python overhead of
        :meth:`trace_sample` for warm-up and clean measurement paths.

        Note:
            Batched BLAS reductions are not guaranteed to round identically
            to the per-sample forward pass, so traces may differ from
            :meth:`trace_sample` in rare near-tie cases.  Use it where
            results are discarded (warm-up) or consumed as a batch.  For
            *measurement*, where traces must be bit-identical to the
            per-sample path, batch at the replay layer instead: trace via
            :meth:`trace_sample` and feed the traces to
            :meth:`repro.uarch.engine.MeasurementPlan.replay_batch`
            (what ``SimBackend.measure_batch`` does).

        Args:
            samples: Array of shape ``(batch,) + model.input_shape``.

        Returns:
            One ``(predicted_class, trace)`` pair per sample, in order.
        """
        batch = np.asarray(samples, dtype=np.float64)
        if batch.ndim != len(self.model.input_shape) + 1 or \
                batch.shape[1:] != self.model.input_shape:
            raise TraceError(
                f"batch shape {batch.shape} does not match "
                f"(batch,) + {self.model.input_shape}"
            )
        if self.engine == "compiled":
            triples = self._preserve_plan().run_layers(batch)
            activations = [batch] + [yout for _label, _xin, yout in triples]
        else:
            activations = [batch]
            x = batch
            for tracer in self.tracers:
                x = tracer.layer.forward(x, training=False)
                activations.append(x)
        obs.inc("trace.batched_samples", batch.shape[0])
        results: List[Tuple[int, Trace]] = []
        for index in range(batch.shape[0]):
            trace = Trace()
            self._emit_preamble(trace)
            for li, tracer in enumerate(self.tracers):
                tracer.trace(activations[li][index],
                             activations[li + 1][index], trace)
            logits = activations[-1][index].ravel()
            results.append((self._emit_classifier_tail(logits, trace), trace))
        return results

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def run(self, sample: np.ndarray,
            cpu: CpuModel) -> Tuple[int, EventCounts]:
        """Classify ``sample`` on the simulated CPU; returns its HPC readout.

        A fresh measured task is opened on ``cpu`` (mirroring one
        ``perf stat`` window around one classification).
        """
        prediction, trace = self.trace_sample(sample)
        cpu.begin_task()
        trace.replay(cpu)
        return prediction, cpu.read_counters()

    def run_batch(self, samples: np.ndarray,
                  cpu: CpuModel) -> List[Tuple[int, EventCounts]]:
        """Classify a batch on the simulated CPU, one readout per sample.

        Traces are built through :meth:`trace_batch` (single batched
        forward pass) and each is replayed in its own measured task, so
        the readouts mirror ``len(samples)`` separate ``perf stat``
        windows.

        Args:
            samples: Array of shape ``(batch,) + model.input_shape``.
            cpu: Simulated CPU to replay on.

        Returns:
            One ``(predicted_class, counts)`` pair per sample, in order.
        """
        results: List[Tuple[int, EventCounts]] = []
        for prediction, trace in self.trace_batch(samples):
            cpu.begin_task()
            trace.replay(cpu)
            results.append((prediction, cpu.read_counters()))
        return results

    def footprint_bytes(self) -> int:
        """Total bytes of all mapped tensors (working-set estimate)."""
        return sum(region.num_bytes for region in self.space.regions())

    def describe(self) -> str:
        """Human-readable layout + config summary."""
        sparse_from = self.config.sparse_from_layer
        mode = ("dense-only (constant footprint)" if sparse_from is None
                else f"sparsity-aware from layer {sparse_from}")
        return "\n".join([
            f"traced model: {self.model.name} ({mode}, "
            f"dense_stride={self.config.dense_stride})",
            self.space.describe(),
        ])


def reuse_tracer(traced: Optional[TracedInference], model: Sequential,
                 config: Optional[TraceConfig] = None,
                 engine: Optional[str] = None) -> TracedInference:
    """``traced`` if it traces ``model`` under ``config``, else a new tracer.

    Building a tracer lays out the address space and prepares every
    layer's line tables (tens of milliseconds for a conv net), so callers
    that trace one (model, config) pair through several backends or
    attackers build it once and hand it to each.  A handed-over tracer
    must be bound to the same model object and an equal config (and to
    ``engine``, when one is named); anything else raises
    :class:`~repro.errors.ConfigError` rather than silently tracing
    another victim.

    Args:
        traced: Prebuilt tracer, or None to build one.
        model: The model the caller means to trace.
        config: Its trace configuration (None means ``TraceConfig()``).
        engine: Required forward-pass engine; None accepts any engine
            (engines never change traces) and builds ``"compiled"``.
    """
    config = config or TraceConfig()
    if traced is None:
        return TracedInference(model, config, engine=engine or "compiled")
    if traced.model is not model:
        raise ConfigError("prebuilt tracer is bound to another model "
                          f"({traced.model.name!r})")
    if traced.config != config:
        raise ConfigError(f"prebuilt tracer has trace config "
                          f"{traced.config!r}, expected {config!r}")
    if engine is not None and traced.engine != engine:
        raise ConfigError(f"prebuilt tracer runs engine {traced.engine!r}, "
                          f"expected {engine!r}")
    return traced
