"""Streaming moment accumulators: O(1)-memory statistics with exact merge.

Batch evaluation retains every sample of every (category, event) stream and
recomputes ``np.mean`` / ``np.var`` from scratch — O(n) memory and O(n) work
per verdict.  A monitoring service cannot afford either.  This module keeps
only the Welford sufficient statistics ``(count, mean, M2)`` per stream and
updates them incrementally:

* :class:`MomentAccumulator` — one scalar stream;
* :class:`MomentColumns` — one category's row of event columns, updated a
  batch at a time with vectorized NumPy arithmetic;
* :class:`StreamingMoments` — the full category × event matrix, convertible
  into a :class:`repro.stats.vectorized.SufficientStats` so the broadcast
  Welch/Student machinery runs unchanged on ``(mean, var, n)`` triples;
* :class:`SlidingWindowMoments` — a fixed-capacity ring buffer for drift
  detection over the trailing window.

Merging uses Chan et al.'s pairwise update, which combines two shards'
``(count, mean, M2)`` exactly (no loss of the variance information, no
catastrophic cancellation from subtracting large sums of squares).  The
merge is *deterministic*: a fixed sequence of shards merged in a fixed
order always yields bit-identical state, so the measurement path's
discipline of merging per-chunk states in sorted ``(category, start)``
order (the same rule PR 6 applies to telemetry payloads) makes results
independent of worker scheduling.  Different shard *partitions* (e.g.
different worker counts) agree to floating-point roundoff — at realistic
counter magnitudes the equivalence suite pins this at 1e-9 relative on
derived t statistics.  In the adversarial 1e12-mean/unit-variance regime
the accumulator stays within the ~1e-5 envelope every float64 two-pass
method shares (the rounded mean itself), where a naive sum-of-squares
accumulator loses every significant digit outright.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import StatisticsError

__all__ = [
    "MomentAccumulator",
    "MomentColumns",
    "SlidingWindowMoments",
    "StreamingMoments",
]


def _batch_moments(rows: np.ndarray) -> Tuple[int, np.ndarray, np.ndarray]:
    """``(count, mean, M2)`` of one batch of rows, reduced along axis 0."""
    count = rows.shape[0]
    mean = rows.mean(axis=0)
    centered = rows - mean
    m2 = np.einsum("ij,ij->j", centered, centered)
    return count, mean, m2


def _merge_moments(n_a: float, mean_a, m2_a, n_b: float, mean_b, m2_b):
    """Chan et al. pairwise combination of two ``(count, mean, M2)`` shards.

    Exact in the sense that no information is lost: the combined state is
    algebraically identical to accumulating both shards' samples into one
    stream, without ever forming a sum of squares (the quantity whose
    cancellation destroys naive accumulators at large magnitudes).
    """
    if n_a == 0:
        return n_b, mean_b, m2_b
    if n_b == 0:
        return n_a, mean_a, m2_a
    total = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / total)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / total)
    return total, mean, m2


class MomentAccumulator:
    """Welford accumulator for one scalar stream.

    Attributes:
        count: Observations folded in so far.
        mean: Running mean.
        m2: Running sum of squared deviations from the mean.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self, count: int = 0, mean: float = 0.0, m2: float = 0.0):
        if count < 0:
            raise StatisticsError(f"count must be >= 0, got {count}")
        if m2 < 0.0:
            raise StatisticsError(f"M2 must be >= 0, got {m2}")
        self.count = int(count)
        self.mean = float(mean)
        self.m2 = float(m2)

    def push(self, value: float) -> None:
        """Fold one observation in (classic Welford update)."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def extend(self, values: Iterable[float]) -> None:
        """Fold a batch of observations in (one vectorized Chan merge)."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray)
                         else values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        b_mean = arr.mean()
        centered = arr - b_mean
        b_m2 = float(centered @ centered)
        self.count, self.mean, self.m2 = _merge_moments(
            self.count, self.mean, self.m2, arr.size, float(b_mean), b_m2)
        self.count = int(self.count)

    def merge(self, other: "MomentAccumulator") -> None:
        """Combine another accumulator's state into this one (Chan merge)."""
        self.count, self.mean, self.m2 = _merge_moments(
            self.count, self.mean, self.m2,
            other.count, other.mean, other.m2)
        self.count = int(self.count)

    @property
    def variance(self) -> float:
        """Unbiased (ddof=1) sample variance of everything folded in."""
        if self.count < 2:
            raise StatisticsError(
                f"variance needs >= 2 observations, got {self.count}")
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return float(np.sqrt(self.variance))

    def state(self) -> Tuple[int, float, float]:
        """Transportable ``(count, mean, m2)`` triple."""
        return (self.count, self.mean, self.m2)

    @classmethod
    def from_state(cls, state: Tuple[int, float, float]) -> "MomentAccumulator":
        """Rebuild from a :meth:`state` triple."""
        return cls(*state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MomentAccumulator(count={self.count}, mean={self.mean!r}, "
                f"m2={self.m2!r})")


class MomentColumns:
    """Welford moments of one category's ``E`` parallel event columns.

    Batches arrive as ``(B, E)`` arrays (one row per measurement, one
    column per event) and are folded in with a single vectorized Chan
    merge, so the per-batch cost is O(B·E) array arithmetic with no
    Python-level per-sample loop.

    Args:
        columns: Number of parallel columns (monitored events).
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self, columns: int):
        if columns < 1:
            raise StatisticsError(f"need >= 1 column, got {columns}")
        self.count = 0
        self.mean = np.zeros(columns, dtype=np.float64)
        self.m2 = np.zeros(columns, dtype=np.float64)

    @property
    def columns(self) -> int:
        """Number of parallel columns."""
        return self.mean.shape[0]

    def observe(self, rows: np.ndarray) -> None:
        """Fold a ``(B, E)`` batch of rows in."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2 or rows.shape[1] != self.columns:
            raise StatisticsError(
                f"expected rows of {self.columns} columns, got array of "
                f"shape {rows.shape}")
        if rows.shape[0] == 0:
            return
        b_count, b_mean, b_m2 = _batch_moments(rows)
        if self.count == 0:
            # Bit-exact adoption: a shard's state is exactly its own batch
            # moments, which keeps same-partition merges bitwise
            # reproducible.
            self.count = b_count
            self.mean = b_mean
            self.m2 = b_m2
            return
        self.count, self.mean, self.m2 = _merge_moments(
            self.count, self.mean, self.m2, b_count, b_mean, b_m2)
        self.count = int(self.count)

    def merge(self, other: "MomentColumns") -> None:
        """Combine another shard's columns into this one (Chan merge)."""
        if other.columns != self.columns:
            raise StatisticsError(
                f"cannot merge {other.columns} columns into {self.columns}")
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean.copy()
            self.m2 = other.m2.copy()
            return
        self.count, self.mean, self.m2 = _merge_moments(
            self.count, self.mean, self.m2,
            other.count, other.mean, other.m2)
        self.count = int(self.count)

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Per-column sample variance of everything folded in."""
        if self.count <= ddof:
            raise StatisticsError(
                f"variance needs more than ddof={ddof} observations, "
                f"got {self.count}")
        return self.m2 / (self.count - ddof)


class StreamingMoments:
    """The full category × event accumulator matrix — O(k·e) memory total.

    Purely numeric: rows are keyed by integer category, columns are
    positional (the caller owns the event labels).  Feeding ``n`` samples
    costs O(n·e) arithmetic overall but the retained state never grows —
    exactly the evaluator-side memory contract the streaming engine gates.

    Args:
        columns: Number of event columns every category must provide.
    """

    def __init__(self, columns: int):
        if columns < 1:
            raise StatisticsError(f"need >= 1 column, got {columns}")
        self._columns = columns
        self._rows: Dict[int, MomentColumns] = {}

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------

    @property
    def columns(self) -> int:
        """Number of event columns."""
        return self._columns

    @property
    def categories(self) -> List[int]:
        """Categories observed so far, sorted."""
        return sorted(self._rows)

    def count(self, category: int) -> int:
        """Observations folded in for ``category`` (0 when unseen)."""
        row = self._rows.get(category)
        return row.count if row is not None else 0

    def observe(self, category: int, rows: np.ndarray) -> None:
        """Fold a ``(B, E)`` batch of one category's measurements in."""
        row = self._rows.get(int(category))
        if row is None:
            row = self._rows[int(category)] = MomentColumns(self._columns)
        row.observe(rows)

    def savepoint(self, categories: Iterable[int]) -> Dict[int, Optional[
            Tuple[int, np.ndarray, np.ndarray]]]:
        """Copies of ``categories``' rows (None when unseen), which
        :meth:`rollback` restores — O(e) per category."""
        saved = {}
        for category in categories:
            row = self._rows.get(int(category))
            saved[int(category)] = (None if row is None else
                                    (row.count, row.mean.copy(),
                                     row.m2.copy()))
        return saved

    def rollback(self, savepoint: Mapping[int, Optional[
            Tuple[int, np.ndarray, np.ndarray]]]) -> None:
        """Put the rows of a :meth:`savepoint` back as they were."""
        for category, saved in savepoint.items():
            if saved is None:
                self._rows.pop(category, None)
            else:
                row = self._rows[category]
                row.count, row.mean, row.m2 = saved

    def row(self, category: int) -> MomentColumns:
        """The long-run accumulator of one category (drift baseline).

        Raises:
            StatisticsError: When the category was never observed.
        """
        row = self._rows.get(int(category))
        if row is None:
            raise StatisticsError(f"category {category} was never observed")
        return row

    # ------------------------------------------------------------------
    # Merging / transport
    # ------------------------------------------------------------------

    def merge(self, other: "StreamingMoments") -> None:
        """Combine another shard's matrix into this one, category-wise.

        Deterministic given the merge sequence; the measurement path
        always merges shards in sorted chunk order, making the combined
        state independent of worker scheduling.
        """
        if other._columns != self._columns:
            raise StatisticsError(
                f"cannot merge {other._columns} columns into {self._columns}")
        for category in sorted(other._rows):
            mine = self._rows.get(category)
            if mine is None:
                mine = self._rows[category] = MomentColumns(self._columns)
            mine.merge(other._rows[category])

    def state(self) -> Dict[str, np.ndarray]:
        """Flatten into ``{"cat<k>/<field>": array}`` (npz-friendly).

        The layout mirrors ``EventDistributions.to_arrays`` so checkpoint
        files stay self-describing, but stores three O(e) arrays per
        category instead of O(n) raw samples.
        """
        out: Dict[str, np.ndarray] = {}
        for category in self.categories:
            row = self._rows[category]
            out[f"cat{category}/count"] = np.asarray([row.count],
                                                     dtype=np.int64)
            out[f"cat{category}/mean"] = row.mean.copy()
            out[f"cat{category}/m2"] = row.m2.copy()
        return out

    @classmethod
    def from_state(cls, arrays: Mapping[str, np.ndarray],
                   columns: Optional[int] = None) -> "StreamingMoments":
        """Inverse of :meth:`state` (bit-exact round trip)."""
        fields: Dict[int, Dict[str, np.ndarray]] = {}
        for key, values in arrays.items():
            if "/" not in key or not key.startswith("cat"):
                continue
            cat_part, field = key.split("/", 1)
            try:
                category = int(cat_part[3:])
            except ValueError:
                continue
            fields.setdefault(category, {})[field] = np.asarray(values)
        if not fields and columns is None:
            raise StatisticsError("no accumulator state arrays found")
        if columns is None:
            columns = next(iter(fields.values()))["mean"].size
        moments = cls(columns)
        for category, per_field in fields.items():
            missing = {"count", "mean", "m2"} - set(per_field)
            if missing:
                raise StatisticsError(
                    f"category {category} state is missing {sorted(missing)}")
            row = MomentColumns(columns)
            row.count = int(per_field["count"][0])
            row.mean = np.asarray(per_field["mean"],
                                  dtype=np.float64).reshape(columns)
            row.m2 = np.asarray(per_field["m2"],
                                dtype=np.float64).reshape(columns)
            if row.count < 0 or np.any(row.m2 < 0.0):
                raise StatisticsError(
                    f"category {category} state is not a valid accumulator")
            moments._rows[category] = row
        return moments

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def to_sufficient_stats(self, events: Sequence) -> "SufficientStats":
        """``(n, mean, var)`` arrays in the vectorized evaluator's format.

        Args:
            events: Column labels, in column order (the caller owns them).

        Returns:
            A :class:`repro.stats.vectorized.SufficientStats` ready for
            :func:`repro.stats.vectorized.batch_pairwise_tests` — the
            whole broadcast t/p machinery runs on the accumulator state
            with no retained samples.
        """
        from .vectorized import SufficientStats

        events = tuple(events)
        if len(events) != self._columns:
            raise StatisticsError(
                f"expected {self._columns} event labels, got {len(events)}")
        categories = self.categories
        if not categories:
            raise StatisticsError("no categories observed yet")
        n = np.empty(len(categories), dtype=np.float64)
        mean = np.empty((len(categories), self._columns), dtype=np.float64)
        var = np.empty_like(mean)
        for index, category in enumerate(categories):
            row = self._rows[category]
            if row.count < 2:
                raise StatisticsError(
                    f"category {category} needs at least 2 observations, "
                    f"got {row.count}")
            n[index] = row.count
            mean[index] = row.mean
            var[index] = row.variance()
        return SufficientStats(categories=tuple(categories), events=events,
                               n=n, mean=mean, var=var)

    def memory_bytes(self) -> int:
        """Bytes retained by the accumulator arrays (flat in sample count)."""
        total = 0
        for row in self._rows.values():
            total += row.mean.nbytes + row.m2.nbytes + 8  # + the count slot
        return total


class SlidingWindowMoments:
    """Trailing-window moments over a fixed-capacity ring buffer.

    Holds the last ``capacity`` rows of one category's event columns —
    O(W·e) memory regardless of stream length — for drift detection: the
    long-run accumulators answer "do these categories differ?", the
    window answers "has this stream recently moved away from its own
    long-run behaviour?".

    Args:
        capacity: Window length (rows retained).
        columns: Number of parallel event columns.
    """

    def __init__(self, capacity: int, columns: int):
        if capacity < 2:
            raise StatisticsError(f"capacity must be >= 2, got {capacity}")
        if columns < 1:
            raise StatisticsError(f"need >= 1 column, got {columns}")
        self._buffer = np.zeros((capacity, columns), dtype=np.float64)
        self._next = 0
        self._filled = 0
        self.total_seen = 0

    @property
    def capacity(self) -> int:
        """Maximum rows retained."""
        return self._buffer.shape[0]

    @property
    def columns(self) -> int:
        """Number of parallel columns."""
        return self._buffer.shape[1]

    @property
    def count(self) -> int:
        """Rows currently inside the window."""
        return self._filled

    def observe(self, rows: np.ndarray) -> None:
        """Append rows, evicting the oldest beyond :attr:`capacity`."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2 or rows.shape[1] != self.columns:
            raise StatisticsError(
                f"expected rows of {self.columns} columns, got array of "
                f"shape {rows.shape}")
        self.total_seen += rows.shape[0]
        capacity = self.capacity
        if rows.shape[0] >= capacity:
            # The batch alone overwrites the whole window.
            self._buffer[:] = rows[-capacity:]
            self._next = 0
            self._filled = capacity
            return
        first = min(rows.shape[0], capacity - self._next)
        self._buffer[self._next:self._next + first] = rows[:first]
        remainder = rows.shape[0] - first
        if remainder:
            self._buffer[:remainder] = rows[first:]
        self._next = (self._next + rows.shape[0]) % capacity
        self._filled = min(capacity, self._filled + rows.shape[0])

    def copy(self) -> "SlidingWindowMoments":
        """An independent copy: same rows, same write cursor."""
        clone = copy.copy(self)
        clone._buffer = self._buffer.copy()
        return clone

    def window(self) -> np.ndarray:
        """The retained rows, oldest first (copy)."""
        if self._filled < self.capacity:
            return self._buffer[:self._filled].copy()
        return np.concatenate([self._buffer[self._next:],
                               self._buffer[:self._next]])

    def mean(self) -> np.ndarray:
        """Per-column mean over the current window."""
        if self._filled == 0:
            raise StatisticsError("window is empty")
        return self._buffer[:self._filled].mean(axis=0)

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Per-column sample variance over the current window."""
        if self._filled <= ddof:
            raise StatisticsError(
                f"variance needs more than ddof={ddof} rows, "
                f"got {self._filled}")
        return self._buffer[:self._filled].var(axis=0, ddof=ddof)

    def state(self) -> Dict[str, np.ndarray]:
        """Npz-able window state (bit-exact round trip via :meth:`from_state`).

        The rows are stored oldest-first (the rotation is normalized away),
        so two windows holding the same trailing samples serialize
        identically regardless of their internal write cursor.
        """
        return {
            "window/rows": self.window(),
            "window/capacity": np.asarray([self.capacity], dtype=np.int64),
            "window/total_seen": np.asarray([self.total_seen],
                                            dtype=np.int64),
        }

    @classmethod
    def from_state(cls, arrays: Mapping[str, np.ndarray]
                   ) -> "SlidingWindowMoments":
        """Rebuild a window from persisted :meth:`state` arrays."""
        try:
            rows = np.asarray(arrays["window/rows"], dtype=np.float64)
            capacity = int(np.asarray(arrays["window/capacity"])[0])
            total_seen = int(np.asarray(arrays["window/total_seen"])[0])
        except KeyError as exc:
            raise StatisticsError(
                f"window state is missing {exc.args[0]!r}") from None
        if rows.ndim != 2 or rows.shape[0] > capacity:
            raise StatisticsError(
                f"window state rows of shape {rows.shape} do not fit "
                f"capacity {capacity}")
        window = cls(capacity, rows.shape[1])
        if rows.shape[0]:
            window.observe(rows)
        window.total_seen = total_seen
        return window

    def drift_z_scores(self, baseline: MomentColumns) -> np.ndarray:
        """Window-mean z-scores against a long-run baseline accumulator.

        Per column: ``(window_mean - baseline_mean) / sqrt(baseline_var / W)``
        — how many standard errors the trailing window has moved away from
        the stream's long-run behaviour.
        """
        if baseline.columns != self.columns:
            raise StatisticsError(
                f"baseline has {baseline.columns} columns, window has "
                f"{self.columns}")
        if self._filled == 0:
            raise StatisticsError("window is empty")
        scale = np.sqrt(baseline.variance() / self._filled)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (self.mean() - baseline.mean) / scale
        return np.where(scale == 0.0, 0.0, z)
