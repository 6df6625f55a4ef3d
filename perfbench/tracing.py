"""Span tracing of calls into the program's layers, for the traced run only.

A :class:`Tracer` replaces chosen public methods and functions on their
owner (a class or a module) with wrappers that record one :class:`Span`
per call: name, layer, start, end and the span that was open when the
call began.  The parent link follows ``contextvars``, so spans of
concurrent asyncio tasks never adopt each other.  Spans stay in memory and
are written out once, when the run ends.  :meth:`Tracer.restore` puts the
original attributes back, so an untraced phase in the same process runs
the program exactly as shipped.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    """One traced call.  ``awaits`` marks coroutine spans, whose interval
    includes time other tasks ran while the call was suspended."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "awaits",
                 "error")

    def __init__(self, span_id: int, name: str, layer: str,
                 parent: Optional[int], awaits: bool):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.awaits = awaits
        self.error = False
        self.start = time.perf_counter_ns()
        self.end = self.start

    @property
    def ns(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A public callable to trace.

    Attributes:
        owner: Class or module holding the attribute.
        attr: Attribute name on ``owner``.
        name: Span name.
        layer: The ``repro`` module the call belongs to.
        after: Optional ``(tracer, span, args, result)`` hook run after a
            successful call, for counts measured where the work happens.
    """

    owner: object
    attr: str
    name: str
    layer: str
    after: Optional[Callable] = None


class Tracer:
    """Records spans around the calls of a set of :class:`Target`\\ s."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, targets: Iterable[Target]) -> "Tracer":
        for target in targets:
            original = vars(target.owner)[target.attr]
            if not inspect.isfunction(original):
                raise TypeError(f"cannot trace {target.owner!r}."
                                f"{target.attr}: not a plain function")
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _open(self, target: Target, awaits: bool) -> Span:
        span = Span(len(self.spans), target.name, target.layer,
                    self._current.get(), awaits)
        self.spans.append(span)
        return span

    def _wrap(self, function: Callable, target: Target) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_coroutine(*args, **kwargs):
                span = tracer._open(target, awaits=True)
                token = tracer._current.set(span.id)
                try:
                    result = await function(*args, **kwargs)
                except BaseException:
                    span.error = True
                    raise
                finally:
                    span.end = time.perf_counter_ns()
                    tracer._current.reset(token)
                if target.after is not None:
                    target.after(tracer, span, args, result)
                return result
            return traced_coroutine

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer._open(target, awaits=False)
            token = tracer._current.set(span.id)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                tracer._current.reset(token)
            if target.after is not None:
                target.after(tracer, span, args, result)
            return result
        return traced

    # -- analysis -------------------------------------------------------

    def self_ns(self) -> List[int]:
        """Each span's duration minus the durations of its child spans."""
        own = [span.ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.ns
        return own

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def calls(self, name: str) -> int:
        return len(self.by_name(name))

    def total_s(self, name: str) -> float:
        return sum(span.ns for span in self.by_name(name)) / 1e9

    def mean_ms(self, name: str) -> float:
        spans = self.by_name(name)
        if not spans:
            return 0.0
        return sum(span.ns for span in spans) / len(spans) / 1e6

    def self_s(self, *names: str) -> float:
        """Summed self time of the spans named ``names``."""
        own = self.self_ns()
        return sum(own[span.id] for span in self.spans
                   if span.name in names) / 1e9

    def layers(self) -> Dict[str, Tuple[int, float]]:
        """``layer -> (calls, self seconds)`` over synchronous spans.

        Coroutine spans are left out of the self time: their interval
        holds other tasks' work, which those tasks' own spans count.
        """
        own = self.self_ns()
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            entry = out[span.layer]
            entry[0] += 1
            if not span.awaits:
                entry[1] += own[span.id] / 1e9
        return {layer: (int(calls), seconds)
                for layer, (calls, seconds) in out.items()}

    def root_s(self) -> float:
        """Seconds covered by spans that have no traced parent."""
        return sum(span.ns for span in self.spans
                   if span.parent is None and not span.awaits) / 1e9

    def dump(self, path: Path, phase: str, mode: str = "w") -> None:
        """Append this tracer's spans to ``path`` as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, mode, encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps({
                    "phase": phase, "id": span.id, "name": span.name,
                    "layer": span.layer, "start_ns": span.start,
                    "end_ns": span.end, "parent": span.parent,
                    "awaits": span.awaits, "error": span.error}) + "\n")


class _Probe:
    def call(self) -> None:
        return None


def span_cost_ns(calls: int = 20000) -> float:
    """Added cost of one traced call: a traced no-op minus a plain one.

    Each timing is the best of three loops of ``calls`` calls, which keeps
    the host's speed swings out of the estimate.
    """
    probe = _Probe()

    def loop_ns() -> int:
        start = time.perf_counter_ns()
        for _ in range(calls):
            probe.call()
        return time.perf_counter_ns() - start

    plain = min(loop_ns() for _ in range(3))
    with Tracer().install([Target(_Probe, "call", "probe", "probe")]):
        traced = min(loop_ns() for _ in range(3))
    return max(traced - plain, 0) / calls
