"""Measurement sessions: collect per-category HPC distributions.

Implements the paper's Evaluator data-collection phase: for each input
category, repeatedly submit inputs of that category to the classifier and
record one HPC readout per classification, yielding per-category
distributions of every event.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..atomicio import atomic_write_bytes
from ..datasets.base import LabeledDataset
from ..errors import BackendError, MeasurementError
from ..obs import runtime as obs
from ..uarch.events import EventCounts
from .backend import HpcBackend
from .distributions import EventDistributions


class MeasurementCache:
    """Disk cache of measured distributions, keyed by content fingerprints.

    Simulated measurements are deterministic given (backend fingerprint,
    dataset fingerprint, sample count), so benches and tests can share one
    measurement pass.

    Args:
        directory: Cache directory (created on demand).
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        safe = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.directory / f"measure-{safe}.npz"

    def get(self, key: str,
            kind: str = "measurement") -> Optional[EventDistributions]:
        """Load cached distributions, or None on miss/corruption.

        A corrupt or truncated ``.npz`` is treated as a miss: the bad file
        is evicted (so the re-measured result can be stored cleanly) and a
        ``cache.corrupt`` counter records the event for telemetry.

        Args:
            key: Cache key.
            kind: Telemetry label for the hit/miss counters — internal
                traffic (e.g. the session's per-category ``"checkpoint"``
                probes) is kept distinct from ordinary ``"measurement"``
                lookups so it never skews cache-effectiveness metrics.
        """
        path = self._path(key)
        if not path.exists():
            obs.inc("cache.miss", kind=kind)
            return None
        try:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
            distributions = EventDistributions.from_arrays(arrays)
        except Exception:
            # A corrupt cache entry must never poison an experiment.
            obs.inc("cache.corrupt", kind=kind)
            obs.inc("cache.miss", kind=kind)
            path.unlink(missing_ok=True)
            return None
        obs.inc("cache.hit", kind=kind)
        return distributions

    def put(self, key: str, distributions: EventDistributions,
            kind: str = "measurement") -> Path:
        """Store distributions under ``key``; returns the written path.

        Writes are atomic: the archive lands in a per-process temp file
        first and is renamed over the final name, so concurrent writers
        (parallel benches sharing one cache directory) can never leave a
        torn ``.npz`` behind — last writer wins, both payloads are valid.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        arrays = distributions.to_arrays()
        atomic_write_bytes(path, lambda stream: np.savez(stream, **arrays))
        obs.inc("cache.write", kind=kind)
        return path

    def get_arrays(self, key: str,
                   kind: str = "state") -> Optional[Dict[str, np.ndarray]]:
        """Load a raw array entry (e.g. streaming accumulator state).

        Same contract as :meth:`get` — corrupt entries are evicted and
        count as misses — but the payload is an arbitrary ``{name: array}``
        mapping rather than distributions, which is how streaming
        checkpoints persist O(k·e) accumulator state instead of samples.
        """
        path = self._path(key)
        if not path.exists():
            obs.inc("cache.miss", kind=kind)
            return None
        try:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except Exception:
            obs.inc("cache.corrupt", kind=kind)
            obs.inc("cache.miss", kind=kind)
            path.unlink(missing_ok=True)
            return None
        obs.inc("cache.hit", kind=kind)
        return arrays

    def put_arrays(self, key: str, arrays: Dict[str, np.ndarray],
                   kind: str = "state") -> Path:
        """Store a raw array entry under ``key`` (atomic, like :meth:`put`)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        atomic_write_bytes(path, lambda stream: np.savez(stream, **arrays))
        obs.inc("cache.write", kind=kind)
        return path

    def remove(self, key: str) -> None:
        """Drop the entry stored under ``key`` (missing entries are fine)."""
        self._path(key).unlink(missing_ok=True)


class MeasurementSession:
    """Collects per-category event distributions through a backend.

    Args:
        backend: HPC acquisition backend.
        warmup: Unrecorded classifications run before the measured ones
            (first-run effects: code paging, allocator warm-up).
        cache: Optional :class:`MeasurementCache`.
        retry: Optional :class:`repro.resilience.RetryPolicy`; each
            individual measurement is then retried on transient backend
            failures (``BackendError``) before the error propagates.
            Retries never change collected values — a measurement is a
            pure function of its ``(category, index)`` key.
        checkpoint: Persist each completed category's readouts through the
            cache as :meth:`collect` progresses, so an interrupted run
            resumes from the finished categories instead of restarting
            (requires ``cache``; checkpoints are promoted into the final
            entry and dropped once collection completes).
    """

    def __init__(self, backend: HpcBackend, warmup: int = 2,
                 cache: Optional[MeasurementCache] = None,
                 retry=None, checkpoint: bool = True):
        if warmup < 0:
            raise MeasurementError(f"warmup must be >= 0, got {warmup}")
        self.backend = backend
        self.warmup = warmup
        self.cache = cache
        self.retry = retry
        self.checkpoint = checkpoint

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (e.g. the perf scratch directory)."""
        cleanup = getattr(self.backend, "cleanup", None)
        if cleanup is not None:
            cleanup()

    def __enter__(self) -> "MeasurementSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def _measure_one(self, sample: np.ndarray,
                     noise_key=None) -> EventCounts:
        """One (optionally retried) measurement; returns its counts."""
        if noise_key is not None:
            operation = lambda: self.backend.measure(sample,
                                                     noise_key=noise_key)
        else:
            operation = lambda: self.backend.measure(sample)
        if self.retry is not None and self.retry.max_attempts > 1:
            return self.retry.call(operation, key=noise_key).counts
        return operation().counts

    def measure_category(self, samples: Sequence[np.ndarray],
                         max_samples: Optional[int] = None,
                         category: Optional[int] = None,
                         index_base: int = 0) -> List[EventCounts]:
        """Measure one classification per sample; returns the readouts.

        Args:
            samples: Inputs to classify (one measurement each).
            max_samples: Optional cap on the number of measurements.
            category: When given and the backend supports per-sample noise
                keys, measurement ``i`` is keyed ``(category, i)`` — the
                order-independent scheme that makes sequential and parallel
                collection bit-identical (see :mod:`repro.parallel`).
            index_base: Absolute index of ``samples[0]`` within the
                category's full stream.  Streaming rounds pass their offset
                so noise keys stay ``(category, absolute_index)`` and a
                streamed run measures bit-identical values to a one-shot
                pass; warm-up runs only on the round that owns index 0.
        """
        if index_base < 0:
            raise MeasurementError(
                f"index_base must be >= 0, got {index_base}")
        samples = list(samples)
        if max_samples is not None:
            samples = samples[:max_samples]
        if not samples:
            raise MeasurementError("no samples to measure")
        keyed = (category is not None
                 and getattr(self.backend, "supports_noise_keys", False))
        if keyed:
            warm = samples[:self.warmup] if index_base == 0 else []
            if warm:
                # Warm-up readouts are discarded and keyed noise has no
                # stream to advance, so the batched clean path (one
                # forward pass for the whole warm-up) is equivalent.
                batch_measure = getattr(self.backend, "measure_clean_batch",
                                        None)
                if batch_measure is not None:
                    batch_measure(warm)
                else:
                    for index, sample in enumerate(warm):
                        self._measure_one(sample,
                                          noise_key=(category, index))
            batch = getattr(self.backend, "measure_batch", None)
            if batch is not None:
                # Keyed noise is order independent, so the batched engine
                # path is bit-identical to the per-sample loop.  A retry
                # policy doesn't disqualify it: backends that expose
                # measure_batch are deterministic (fault injection wraps
                # them in FlakyBackend, which doesn't), so retries could
                # never trigger here anyway.  Should a batch fail against
                # a custom backend, fall back to the retried per-sample
                # loop — keyed draws make the re-measurement bit-identical.
                keys = [(category, index_base + index)
                        for index in range(len(samples))]
                try:
                    return [measurement.counts
                            for measurement in batch(samples,
                                                     noise_keys=keys)]
                except BackendError:
                    if self.retry is None or self.retry.max_attempts <= 1:
                        raise
            return [self._measure_one(sample,
                                      noise_key=(category, index_base + index))
                    for index, sample in enumerate(samples)]
        warm = samples[:self.warmup]
        batch = _chain_batch(self.backend)
        if batch is not None:
            # Unkeyed noise is a sequential stream, so the warm-up rides
            # in the same batch, ahead of the samples: every stream and
            # auto-index advances exactly as the per-sample loop would.
            return [measurement.counts
                    for measurement in batch(warm + samples)[len(warm):]]
        for sample in warm:
            self._measure_one(sample)
        return [self._measure_one(sample) for sample in samples]

    def collect(self, dataset: LabeledDataset, categories: Sequence[int],
                samples_per_category: int,
                cache_tag: str = "",
                workers: Optional[int] = None,
                on_batch=None) -> EventDistributions:
        """Measure ``samples_per_category`` classifications per category.

        Args:
            dataset: Labeled pool to draw inputs from; per-category subsets
                are measured one category at a time, like the paper's
                Evaluator.
            categories: Category indices to monitor.
            samples_per_category: Measurements per category.
            cache_tag: Extra cache-key component (e.g. the dataset seed).
            workers: Fan measurement out across this many worker processes
                (requires a backend with per-sample noise keys; see
                :mod:`repro.parallel`).  ``None`` or 1 measures in-process.
                Worker count never changes the measured distributions, so
                it is deliberately absent from the cache key.
            on_batch: Optional ``(category, readings)`` callback invoked as
                measurements land (once per category, in collection order —
                resumed checkpoint categories included), so an incremental
                consumer such as a :class:`~repro.core.streaming.
                StreamingEvaluator` can fold results in without waiting for
                the full pass.  Not invoked on a whole-run cache hit — the
                caller already has the complete distributions to feed.

        Returns:
            The per-category :class:`EventDistributions`.
        """
        if samples_per_category < 2:
            raise MeasurementError(
                "need at least 2 measurements per category for a t-test"
            )
        if workers is not None and workers < 1:
            raise MeasurementError(f"workers must be >= 1, got {workers}")
        workers = workers or 1
        key = "|".join([
            self.backend.fingerprint(),
            dataset.name,
            cache_tag,
            ",".join(str(c) for c in categories),
            str(samples_per_category),
            f"warmup={self.warmup}",
        ])
        with obs.span("measure.collect",
                      backend=getattr(self.backend, "name", "?"),
                      categories=len(categories),
                      samples_per_category=samples_per_category,
                      workers=workers) as span:
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    span.set_attribute("cache", "hit")
                    return cached
            span.set_attribute("cache",
                               "miss" if self.cache is not None else "off")
            # Resume from per-category checkpoints an interrupted run left
            # behind: those categories are already fully measured.
            checkpointing = self.cache is not None and self.checkpoint
            resumed: Dict[int, EventDistributions] = {}
            if checkpointing:
                for category in categories:
                    entry = self.cache.get(self._checkpoint_key(key, category),
                                           kind="checkpoint")
                    if entry is not None and category in entry.categories:
                        resumed[category] = entry
                        obs.inc("checkpoint.resume", category=category)
                if resumed:
                    span.set_attribute("resumed_categories", len(resumed))
            remaining = [c for c in categories if c not in resumed]
            subsets: Dict[int, Sequence[np.ndarray]] = {}
            for category in remaining:
                subset = dataset.category(category)
                if len(subset) < samples_per_category:
                    raise MeasurementError(
                        f"category {category} has only {len(subset)} samples, "
                        f"need {samples_per_category}"
                    )
                subsets[category] = subset.images[:samples_per_category]
            per_category: Dict[int, List[EventCounts]] = {}
            if workers > 1 and subsets:
                from ..parallel import measure_categories_parallel
                # What a worker records dies with it: a backend sharing a
                # recording traces and replays the pass here first.
                record = getattr(self.backend, "record", None)
                if record is not None:
                    record([image for images in subsets.values()
                            for image in images])
                # measurement.samples is counted inside the workers (one
                # inc per chunk, shipped back and merged) — counting here
                # too would double it in the merged snapshot.
                per_category = measure_categories_parallel(
                    self.backend, subsets, warmup=self.warmup,
                    workers=workers, retry=self.retry,
                    progress=self._progress_reporter(subsets, workers))
                for category in sorted(per_category):
                    readings = per_category[category]
                    self._write_checkpoint(checkpointing, key, category,
                                           readings)
                    if on_batch is not None:
                        on_batch(category, readings)
            else:
                for category in remaining:
                    with obs.span("measure.category", category=category):
                        per_category[category] = self.measure_category(
                            subsets[category], category=category)
                    obs.inc("measurement.samples",
                            len(per_category[category]), category=category)
                    # Checkpoint each finished category immediately, so a
                    # crash mid-collection loses at most one category.
                    self._write_checkpoint(checkpointing, key, category,
                                           per_category[category])
                    if on_batch is not None:
                        on_batch(category, per_category[category])
            data: Dict[int, Dict] = {}
            for category, entry in resumed.items():
                data[category] = {event: entry.values(category, event)
                                  for event in entry.events}
                if on_batch is not None:
                    on_batch(category, _entry_readings(entry, category))
            if per_category:
                fresh = EventDistributions.from_measurements(per_category)
                for category in fresh.categories:
                    data[category] = {event: fresh.values(category, event)
                                      for event in fresh.events}
            distributions = EventDistributions(data)
            if self.cache is not None:
                self.cache.put(key, distributions)
            if checkpointing:
                # The full entry now covers everything; drop the partials.
                for category in categories:
                    self.cache.remove(self._checkpoint_key(key, category))
            return distributions

    def stream(self, dataset: LabeledDataset, categories: Sequence[int],
               samples_per_category: int,
               batch_size: int = 25,
               confidence: float = 0.95,
               method: str = "welch",
               cache_tag: str = "",
               workers: Optional[int] = None,
               on_tick=None,
               drift=None,
               should_stop=None):
        """Measure and evaluate as you go — verdicts without retention.

        Rounds of ``batch_size`` measurements per category are folded into
        a :class:`~repro.core.streaming.StreamingEvaluator`; after every
        round the full pairwise verdict matrix is re-derived from the
        accumulator state (O(k²·e), independent of stream length) and
        newly distinguishable (pair, event) cells are recorded with their
        alarm latency.  Total evaluator memory is O(k·e): no sample is
        ever retained, and checkpoints persist the accumulator state —
        three O(e) arrays per category — instead of raw samples, so an
        interrupted stream resumes from its last completed round.

        Noise keys are absolute ``(category, sample_index)``, so a
        streamed run measures bit-identical values to a one-shot
        :meth:`collect` over the same samples.

        Args:
            dataset: Labeled input pool.
            categories: Category indices to monitor.
            samples_per_category: Total measurements per category.
            batch_size: Measurements per category per round (>= 1).
            confidence: Evaluator confidence level.
            method: ``"welch"`` or ``"student"``.
            cache_tag: Extra cache-key component (e.g. the dataset seed).
            workers: Fan each round out across worker processes; chunks
                ship O(e) accumulator states, merged in sorted chunk
                order.  ``None`` or 1 measures in-process.
            on_tick: Optional callback receiving each
                :class:`~repro.core.streaming.StreamTick`.
            drift: Optional :class:`~repro.core.drift.DriftMonitor` fed
                every measurement row and checked against the long-run
                accumulators after each tick.  Requires ``workers == 1``
                (the parallel path ships O(e) accumulator states, not the
                raw rows a trailing window needs).  On resume the windows
                restart empty and refill within ``drift.window`` rows.
            should_stop: Optional zero-argument probe polled at every
                round boundary; returning True ends the stream after the
                just-checkpointed round (resume later is exact).  Pass a
                :class:`~repro.resilience.shutdown.GracefulShutdown` to
                stop cleanly on SIGTERM/SIGINT.

        Returns:
            The :class:`~repro.core.streaming.StreamingEvaluator` after
            the full stream (query ``report()``, ``alarm_latency()``...).
        """
        from ..core.streaming import StreamingEvaluator
        from ..uarch.events import HpcEvent

        if samples_per_category < 2:
            raise MeasurementError(
                "need at least 2 measurements per category for a t-test"
            )
        if batch_size < 1:
            raise MeasurementError(
                f"batch_size must be >= 1, got {batch_size}")
        if workers is not None and workers < 1:
            raise MeasurementError(f"workers must be >= 1, got {workers}")
        workers = workers or 1
        if drift is not None and workers > 1:
            raise MeasurementError(
                "drift monitoring needs the raw measurement rows, which "
                "the parallel stream path never ships (workers send O(e) "
                "accumulator states); use workers=1 with drift")
        state_key = "|".join([
            self.backend.fingerprint(),
            dataset.name,
            cache_tag,
            ",".join(str(c) for c in categories),
            str(samples_per_category),
            f"warmup={self.warmup}",
            f"stream-batch={batch_size}",
            f"confidence={confidence}",
            f"method={method}",
        ])
        subsets: Dict[int, Sequence[np.ndarray]] = {}
        for category in categories:
            subset = dataset.category(category)
            if len(subset) < samples_per_category:
                raise MeasurementError(
                    f"category {category} has only {len(subset)} samples, "
                    f"need {samples_per_category}"
                )
            subsets[category] = subset.images[:samples_per_category]
        evaluator = StreamingEvaluator(confidence=confidence, method=method)
        checkpointing = self.cache is not None and self.checkpoint
        start = 0
        if checkpointing:
            # Resume from the accumulator state a previous (possibly
            # interrupted) identical run checkpointed — rounds are
            # deterministic, so skipping replayed ones is exact.
            arrays = self.cache.get_arrays(state_key, kind="stream-state")
            if arrays is not None:
                try:
                    resumed = StreamingEvaluator.from_state(
                        arrays, confidence=confidence, method=method)
                    seen = {resumed.samples_seen(c) for c in categories}
                except Exception:
                    obs.inc("cache.corrupt", kind="stream-state")
                else:
                    # Only a state covering every category equally (all
                    # rounds complete through some prefix) is resumable.
                    if len(seen) == 1 and (start := seen.pop()) > 0:
                        evaluator = resumed
                        obs.inc("stream.resume")
                    else:
                        start = 0
        with obs.span("measure.stream",
                      backend=getattr(self.backend, "name", "?"),
                      categories=len(categories),
                      samples_per_category=samples_per_category,
                      batch_size=batch_size, workers=workers,
                      resume_at=start) as span:
            rounds = 0
            stopped_early = False
            for offset in range(start, samples_per_category, batch_size):
                if should_stop is not None and should_stop():
                    # The previous round's checkpoint is already on disk;
                    # an identical stream() call resumes exactly here.
                    stopped_early = True
                    break
                stop = min(offset + batch_size, samples_per_category)
                round_samples = {category: subsets[category][offset:stop]
                                 for category in categories}
                if workers > 1:
                    from ..parallel import measure_categories_streaming
                    state = measure_categories_streaming(
                        self.backend, round_samples, warmup=self.warmup,
                        workers=workers, retry=self.retry,
                        index_base=offset)
                    events = tuple(
                        HpcEvent.from_name(str(name))
                        for name in np.asarray(state["events"]).tolist())
                    evaluator.merge_state(state, events=events)
                else:
                    for category in categories:
                        readings = self.measure_category(
                            round_samples[category], category=category,
                            index_base=offset)
                        obs.inc("measurement.samples", len(readings),
                                category=category)
                        evaluator.observe(category, readings)
                        if drift is not None:
                            events = evaluator.events
                            rows = np.empty((len(readings), len(events)),
                                            dtype=np.float64)
                            for i, counts in enumerate(readings):
                                for j, event in enumerate(events):
                                    rows[i, j] = counts[event]
                            drift.observe(category, rows)
                rounds += 1
                obs.inc("stream.rounds")
                if evaluator.ready:
                    tick = evaluator.tick()
                    if drift is not None:
                        drift.check(evaluator.moments, evaluator.events,
                                    tick.tick)
                    if on_tick is not None:
                        on_tick(tick)
                if checkpointing:
                    self.cache.put_arrays(state_key, evaluator.state(),
                                          kind="stream-state")
            span.set_attribute("rounds", rounds)
            span.set_attribute("detections", len(evaluator.alarm_latency()))
            if stopped_early:
                span.set_attribute("stopped_early", True)
                obs.inc("stream.stopped_early")
        return evaluator

    @staticmethod
    def _progress_reporter(subsets: Dict[int, Sequence[np.ndarray]],
                           workers: int):
        """A live progress reporter when the run asked for one, else None."""
        if not (obs.active().config.progress and subsets):
            return None
        from ..obs.progress import ProgressReporter
        from ..parallel import plan_chunks
        counts = {category: len(samples)
                  for category, samples in subsets.items()}
        return ProgressReporter(
            total_chunks=len(plan_chunks(counts, workers)),
            total_samples=sum(counts.values()))

    @staticmethod
    def _checkpoint_key(key: str, category: int) -> str:
        return f"{key}|checkpoint-cat={category}"

    def _write_checkpoint(self, enabled: bool, key: str, category: int,
                          readings: List[EventCounts]) -> None:
        if not enabled:
            return
        entry = EventDistributions.from_measurements({category: readings})
        self.cache.put(self._checkpoint_key(key, category), entry,
                       kind="checkpoint")
        obs.inc("checkpoint.write", category=category)

    def collect_with_limited_pmu(self, dataset: LabeledDataset,
                                 categories: Sequence[int],
                                 samples_per_category: int,
                                 programmable_counters: int = 4
                                 ) -> EventDistributions:
        """Collect the full event set under the PMU's counter limit.

        The paper notes ``perf`` observes "a maximum of 6 to 8 hardware
        events in parallel".  This method reproduces what an evaluator does
        on such hardware: split the programmable events into groups that fit
        the counters (the three fixed events ride along for free) and run
        one measurement pass per group.  Each event's distribution therefore
        comes from *different* classifications than other groups' — exactly
        the situation on real hardware without multiplexing.

        Args:
            dataset: Input pool.
            categories: Monitored categories.
            samples_per_category: Measurements per category *per pass*.
            programmable_counters: Simultaneously countable non-fixed events.
        """
        from ..uarch.pmu import FIXED_EVENTS

        if programmable_counters < 1:
            raise MeasurementError(
                f"need >= 1 programmable counter, got {programmable_counters}"
            )
        events = list(self.backend.events)
        fixed = [e for e in events if e in FIXED_EVENTS]
        programmable = [e for e in events if e not in FIXED_EVENTS]
        groups = [programmable[i:i + programmable_counters]
                  for i in range(0, len(programmable), programmable_counters)]
        if not groups:
            groups = [[]]
        merged: Optional[EventDistributions] = None
        for index, group in enumerate(groups):
            pass_events = (fixed if index == 0 else []) + group
            if not pass_events:
                continue
            per_category: Dict[int, List[EventCounts]] = {}
            for category in categories:
                subset = dataset.category(category)
                if len(subset) < samples_per_category:
                    raise MeasurementError(
                        f"category {category} has only {len(subset)} "
                        f"samples, need {samples_per_category}"
                    )
                readings = self.measure_category(
                    subset.images, max_samples=samples_per_category)
                per_category[category] = [counts.subset(pass_events)
                                          for counts in readings]
            pass_distributions = EventDistributions.from_measurements(
                per_category)
            merged = (pass_distributions if merged is None
                      else _merge_event_columns(merged, pass_distributions))
        if merged is None:
            raise MeasurementError("no events to measure")
        return merged


def _chain_batch(backend: HpcBackend):
    """``backend.measure_batch`` when the whole wrapper chain batches.

    A wrapper (any backend with an ``inner``) batches only as far as what
    it wraps: over a backend without ``measure_batch`` (``PerfBackend``,
    ``FlakyBackend``) the session keeps its retried per-sample loop.
    """
    link = backend
    while link is not None:
        if getattr(link, "measure_batch", None) is None:
            return None
        link = getattr(link, "inner", None)
    return backend.measure_batch


def _entry_readings(entry: EventDistributions,
                    category: int) -> List[EventCounts]:
    """Rebuild one category's per-measurement readouts from distributions."""
    events = entry.events
    columns = [entry.values(category, event) for event in events]
    return [EventCounts({event: column[i]
                         for event, column in zip(events, columns)})
            for i in range(entry.sample_count(category))]


def _merge_event_columns(first: EventDistributions,
                         second: EventDistributions) -> EventDistributions:
    """Combine two same-category distributions with disjoint event sets."""
    if set(first.categories) != set(second.categories):
        raise MeasurementError("passes measured different categories")
    overlap = set(first.events) & set(second.events)
    if overlap:
        raise MeasurementError(
            f"passes measured overlapping events: {sorted(overlap)}"
        )
    first_events = first.events
    second_events = second.events
    data = {
        category: {
            **{event: first.values(category, event)
               for event in first_events},
            **{event: second.values(category, event)
               for event in second_events},
        }
        for category in first.categories
    }
    return EventDistributions(data)
