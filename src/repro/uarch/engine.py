"""Compiled batched measurement engine.

:class:`MeasurementPlan` replays a batch of classification traces through
the microarchitecture model the way :mod:`repro.nn.engine` runs inference:
decomposed, memoized and vectorized — while producing event counts that
are **bit-identical** to replaying each trace through
:class:`repro.uarch.CpuModel` one access at a time.

Three layers of structure are exploited:

* **Input-independent prefix memoization.**  The leading trace ops of a
  batch (framework preamble, dense early-layer streams, any op emitted
  before the first data-dependent divergence) are identical for every
  sample.  The plan simulates that segment once per batch through a
  reference :class:`CpuModel`, snapshots its event deltas and
  microarchitectural state (per-set LRU contents, TLB residency,
  predictor tables and history), and re-simulates only the residue per
  sample.  Cache and TLB state is re-injected exactly by *priming*: a
  cold LRU set accessed with its snapshot contents in least-recent-first
  order reproduces that state with no evictions, so the vectorized
  kernels need no warm-state special cases — primed positions are simply
  excluded from the counts.

* **Vectorized state machines** (see :mod:`repro.uarch.vectorized`): the
  per-set LRU streams of all samples are solved together by the backward
  chain kernel, the TLB by a recency-rank matrix, and the branch
  predictor tables by a segmented clamp-map scan.

* **Batching across the sample axis**: one kernel invocation per cache
  level per batch, not per sample.

The plan only supports the deterministic configuration space where exact
vectorization is proven (LRU replacement, no prefetcher, cold-start
tasks, the four stock predictors); :meth:`MeasurementPlan.supports` lets
callers fall back to the naive path otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..trace.recorder import (OP_BULK_BRANCH, OP_DYN_BRANCH, OP_INSTR,
                              OP_MEM, Trace)
from .cpu import CpuConfig, CpuModel
from .events import HpcEvent
from .vectorized import (counter_states_before, gshare_history,
                         lru_hits_grouped, lru_level_misses)

__all__ = ["MeasurementPlan"]

_SUPPORTED_PREDICTORS = ("static-taken", "bimodal", "gshare", "tournament")


def _ops_equal(a: Tuple, b: Tuple) -> bool:
    """Structural equality of two trace ops (identity fast path)."""
    if a is b:
        return True
    tag = a[0]
    if tag != b[0]:
        return False
    if tag == OP_MEM:
        return a[2] == b[2] and (a[1] is b[1] or (
            a[1].shape == b[1].shape and np.array_equal(a[1], b[1])))
    if tag == OP_INSTR:
        return a[1] == b[1]
    if tag == OP_BULK_BRANCH:
        return a[1] == b[1] and a[2] == b[2]
    if tag == OP_DYN_BRANCH:
        return a[1] == b[1] and (a[2] is b[2] or (
            a[2].shape == b[2].shape and np.array_equal(a[2], b[2])))
    return False


class _PrefixSnapshot:
    """Event deltas + microarchitectural state after the shared prefix."""

    __slots__ = (
        "ops", "instructions", "walk_cycles", "l1_misses", "l2_misses",
        "llc_misses", "stall_cycles", "branches", "mispredictions",
        "bulk_branches", "bulk_mispredictions", "cache_priming",
        "tlb_resident", "tables", "gshare_history",
    )

    def __init__(self) -> None:
        self.ops: List[Tuple] = []
        self.instructions = 0
        self.walk_cycles = 0
        self.l1_misses = 0
        self.l2_misses = 0
        self.llc_misses = 0
        self.stall_cycles = 0
        self.branches = 0
        self.mispredictions = 0
        self.bulk_branches = 0
        self.bulk_mispredictions = 0
        self.cache_priming: List[np.ndarray] = []
        self.tlb_resident = np.zeros(0, dtype=np.int64)
        self.tables: Dict[str, np.ndarray] = {}
        self.gshare_history = 0


class MeasurementPlan:
    """Batched, memoizing, vectorized replay of classification traces.

    Args:
        config: Microarchitecture parameters; must satisfy
            :meth:`supports` (LRU policy, no prefetcher, a stock
            predictor), otherwise a ``ValueError`` is raised.
    """

    def __init__(self, config: Optional[CpuConfig] = None):
        config = config or CpuConfig()
        if not self.supports(config):
            raise ValueError(
                "MeasurementPlan requires policy='lru', prefetcher='none' "
                f"and a stock predictor; got {config.hierarchy.policy!r}/"
                f"{config.prefetcher!r}/{config.predictor!r}"
            )
        self.config = config
        hierarchy = config.hierarchy
        self._geometries = [
            (hierarchy.l1.num_sets, hierarchy.l1.associativity),
            (hierarchy.l2.num_sets, hierarchy.l2.associativity),
            (hierarchy.llc.num_sets, hierarchy.llc.associativity),
        ]
        self._latency_steps = (
            hierarchy.l2_latency - hierarchy.l1_latency,
            hierarchy.llc_latency - hierarchy.l2_latency,
            hierarchy.memory_latency - hierarchy.llc_latency,
        )
        self._page_shift = (config.tlb.page_bytes
                            // hierarchy.line_bytes).bit_length() - 1
        self._snapshot: Optional[_PrefixSnapshot] = None

    @staticmethod
    def supports(config: CpuConfig, cold_start: bool = True) -> bool:
        """Whether the exact vectorized path covers this configuration.

        Anything else (non-LRU replacement with its own state carry-over,
        prefetchers, warm tasks, custom predictors) must take the naive
        per-sample path.
        """
        return (cold_start
                and config.hierarchy.policy == "lru"
                and config.prefetcher == "none"
                and config.predictor in _SUPPORTED_PREDICTORS)

    # ------------------------------------------------------------------
    # Prefix memoization
    # ------------------------------------------------------------------

    @staticmethod
    def common_prefix_length(traces: Sequence[Trace]) -> int:
        """Number of leading ops identical across every trace of a batch."""
        if not traces:
            return 0
        limit = min(len(trace.ops) for trace in traces)
        first = traces[0].ops
        for k in range(limit):
            op = first[k]
            for trace in traces[1:]:
                if not _ops_equal(op, trace.ops[k]):
                    return k
        return limit

    def _prefix_snapshot(self, ops: List[Tuple]) -> _PrefixSnapshot:
        cached = self._snapshot
        if (cached is not None and len(cached.ops) == len(ops)
                and all(_ops_equal(a, b)
                        for a, b in zip(cached.ops, ops))):
            return cached
        cpu = CpuModel(self.config, seed=0, cold_start=True)
        cpu.begin_task()
        trace = Trace()
        trace.ops = list(ops)
        # Internal bookkeeping replay: how often a snapshot is (re)built
        # depends on chunking and worker topology, so it must not emit
        # the per-measurement trace.* counters the deterministic
        # telemetry contract covers.
        trace._replay_ops(cpu)
        snap = _PrefixSnapshot()
        snap.ops = list(ops)
        snap.instructions = cpu.instructions
        snap.walk_cycles = cpu._tlb_walk_cycles
        totals = cpu.hierarchy.totals
        snap.l1_misses = totals.l1_misses
        snap.l2_misses = totals.l2_misses
        snap.llc_misses = totals.llc_misses
        snap.stall_cycles = totals.stall_cycles
        stats = cpu.predictor.stats
        snap.branches = stats.branches
        snap.mispredictions = stats.mispredictions
        snap.bulk_branches = stats.bulk_branches
        snap.bulk_mispredictions = stats.bulk_mispredictions
        # Per-level priming streams: every resident line in LRU-first
        # order — replaying them into a cold set recreates the exact
        # per-set LRU state (k <= associativity distinct fills, no
        # evictions possible).
        snap.cache_priming = []
        for level in cpu.hierarchy.levels:
            resident: List[int] = []
            for set_state in level._sets:
                resident.extend(set_state)
            snap.cache_priming.append(np.asarray(resident, dtype=np.int64))
        snap.tlb_resident = np.asarray(cpu.tlb.resident_pages(),
                                       dtype=np.int64)
        snap.tables = {}
        predictor = cpu.predictor
        kind = self.config.predictor
        if kind == "bimodal":
            snap.tables["bimodal"] = np.asarray(predictor._table,
                                                dtype=np.int64)
        elif kind == "gshare":
            snap.tables["gshare"] = np.asarray(predictor._table,
                                               dtype=np.int64)
            snap.gshare_history = predictor._history
        elif kind == "tournament":
            snap.tables["bimodal"] = np.asarray(predictor._bimodal._table,
                                                dtype=np.int64)
            snap.tables["gshare"] = np.asarray(predictor._gshare._table,
                                               dtype=np.int64)
            snap.tables["chooser"] = np.asarray(predictor._chooser,
                                                dtype=np.int64)
            snap.gshare_history = predictor._gshare._history
        self._snapshot = snap
        return snap

    # ------------------------------------------------------------------
    # Batched replay
    # ------------------------------------------------------------------

    #: Samples simulated per internal chunk.  Each sample is replayed
    #: independently against the memoized prefix snapshot, so chunking
    #: cannot change any count — it only bounds the working set of the
    #: vectorized kernels so their arrays stay cache-resident (large
    #: batches get strictly slower per sample once the concatenated
    #: streams fall out of the last-level cache).
    REPLAY_CHUNK = 8

    def replay_batch(self,
                     traces: Sequence[Trace]) -> List[Dict[HpcEvent, int]]:
        """Event counts of every trace, bit-identical to naive replay.

        Args:
            traces: One trace per sample (cold-start tasks).

        Returns:
            One ``{event: count}`` dict per trace, keyed in the same
            order as :meth:`repro.uarch.CpuModel.ground_truth`.
        """
        chunk = self.REPLAY_CHUNK
        if len(traces) > chunk:
            out: List[Dict[HpcEvent, int]] = []
            for start in range(0, len(traces), chunk):
                out.extend(self._replay_chunk(traces[start:start + chunk]))
            return out
        return self._replay_chunk(traces)

    def _replay_chunk(self,
                      traces: Sequence[Trace]) -> List[Dict[HpcEvent, int]]:
        batch = len(traces)
        if batch == 0:
            return []
        prefix_len = self.common_prefix_length(traces)
        snap = self._prefix_snapshot(traces[0].ops[:prefix_len])
        residues = [trace.ops[prefix_len:] for trace in traces]

        instr = np.full(batch, snap.instructions, dtype=np.int64)
        bulk_count = np.full(batch, snap.bulk_branches, dtype=np.int64)
        bulk_miss = np.full(batch, snap.bulk_mispredictions, dtype=np.int64)
        mem_chunks: List[List[np.ndarray]] = [[] for _ in range(batch)]
        pcs_chunks: List[List[np.ndarray]] = [[] for _ in range(batch)]
        out_chunks: List[List[np.ndarray]] = [[] for _ in range(batch)]
        for s, ops in enumerate(residues):
            for op in ops:
                tag = op[0]
                if tag == OP_MEM:
                    mem_chunks[s].append(op[1])
                elif tag == OP_INSTR:
                    instr[s] += op[1]
                elif tag == OP_BULK_BRANCH:
                    bulk_count[s] += op[1]
                    bulk_miss[s] += int(round(op[1] * op[2]))
                elif tag == OP_DYN_BRANCH:
                    pcs_chunks[s].append(
                        np.full(op[2].size, op[1], dtype=np.int32))
                    out_chunks[s].append(op[2])

        counts = np.array([sum(c.size for c in chunks)
                           for chunks in mem_chunks], dtype=np.int64)
        all_chunks = [c for chunks in mem_chunks for c in chunks]
        top_lines = [int(p.max()) for p in snap.cache_priming if p.size]
        top_lines.extend(int(c.max()) for c in all_chunks if c.size)
        # Halve the element width of every cache-level pass; line ids
        # overflow int32 only for pathological address spaces.
        line_dtype = (np.int32 if not top_lines
                      or max(top_lines) < 2**31 - 1 else np.int64)
        flat = (np.concatenate(all_chunks, dtype=line_dtype,
                               casting="unsafe")
                if all_chunks else np.zeros(0, dtype=line_dtype))

        # Cache hierarchy: each level sees its priming lines first, then
        # the counted residue misses of the level above.  The miss feed
        # between levels stays in (set, sample) sort order — set bits of
        # nested power-of-two geometries guarantee that is a valid
        # program order for the next level (see lru_level_misses).
        level_misses = np.zeros((3, batch), dtype=np.int64)
        lines = flat
        sofs = np.repeat(np.arange(batch, dtype=np.int32), counts)
        for level, (num_sets, assoc) in enumerate(self._geometries):
            prim = snap.cache_priming[level]
            p = int(prim.size)
            if p:
                feed = np.concatenate([
                    np.tile(prim.astype(lines.dtype, copy=False), batch),
                    lines])
                so_in = np.concatenate([
                    np.repeat(np.arange(batch, dtype=np.int32), p), sofs])
            else:
                feed, so_in = lines, sofs
            if feed.size == 0:
                break
            level_misses[level], lines, sofs = lru_level_misses(
                feed, so_in, num_sets, assoc, batch,
                counted_from=p * batch)

        walk_cycles = (np.full(batch, snap.walk_cycles, dtype=np.int64)
                       + self._tlb_misses(flat, counts, snap.tlb_resident)
                       * self.config.tlb.walk_latency)

        dyn_count, dyn_miss = self._dynamic_branches(
            pcs_chunks, out_chunks, snap, batch)

        l1 = snap.l1_misses + level_misses[0]
        l2 = snap.l2_misses + level_misses[1]
        llc = snap.llc_misses + level_misses[2]
        stall = (snap.stall_cycles
                 + level_misses[0] * self._latency_steps[0]
                 + level_misses[1] * self._latency_steps[1]
                 + level_misses[2] * self._latency_steps[2])
        branches = snap.branches + dyn_count + bulk_count
        mispredictions = (snap.mispredictions + dyn_miss + bulk_miss)
        cfg = self.config
        cycles = ((instr * cfg.base_cpi) // 1000 + stall
                  + mispredictions * cfg.branch_miss_penalty + walk_cycles)

        results: List[Dict[HpcEvent, int]] = []
        for s in range(batch):
            results.append({
                HpcEvent.CYCLES: int(cycles[s]),
                HpcEvent.INSTRUCTIONS: int(instr[s]),
                HpcEvent.REF_CYCLES: int(
                    (cycles[s] * cfg.ref_cycles_per_mille) // 1000),
                HpcEvent.BUS_CYCLES: int(cycles[s] // cfg.bus_divisor),
                HpcEvent.CACHE_REFERENCES: int(l2[s]),
                HpcEvent.CACHE_MISSES: int(llc[s]),
                HpcEvent.BRANCHES: int(branches[s]),
                HpcEvent.BRANCH_MISSES: int(mispredictions[s]),
            })
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _tlb_misses(self, lines: np.ndarray, counts: np.ndarray,
                    resident: np.ndarray) -> np.ndarray:
        shift = self._page_shift
        capacity = self.config.tlb.entries
        batch = counts.size
        misses = np.zeros(batch, dtype=np.int64)
        if lines.size == 0:
            return misses
        pages = lines >> shift
        bounds = np.zeros(batch + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        owners = np.flatnonzero(counts > 0)
        samp_starts = bounds[:-1][owners]
        # Consecutive same-page accesses are guaranteed hits and do not
        # disturb LRU order; the misses of the collapsed stream equal the
        # misses of the full one.  The compare runs across sample
        # boundaries, so re-pin each sample's first access as kept.
        keep = np.empty(pages.size, dtype=bool)
        keep[0] = True
        np.not_equal(pages[1:], pages[:-1], out=keep[1:])
        keep[samp_starts] = True
        r = int(resident.size)
        if r:
            resident = resident.astype(pages.dtype, copy=False)
            # Warm entries replay as a priming prefix; a leading run of
            # accesses to the most-recent resident page is a
            # state-neutral hit, so dropping it keeps the kernel's
            # no-consecutive-duplicates precondition without touching
            # the miss count.
            junction = samp_starts[pages[samp_starts] == resident[-1]]
            keep[junction] = False
        # Per-owner collapsed sizes in one segmented reduction: owners'
        # start offsets are strictly increasing and cover the stream.
        kc = np.add.reduceat(keep, samp_starts, dtype=np.int64)
        pg_all = pages[keep]
        nown = owners.size
        sizes = kc + r
        gstarts = np.zeros(nown, dtype=np.int64)
        np.cumsum(sizes[:-1], out=gstarts[1:])
        total = int(sizes.sum())
        if total == 0:
            return misses
        flat = np.empty(total, dtype=pages.dtype)
        if r:
            res_idx = (gstarts[:, None]
                       + np.arange(r, dtype=np.int64)).ravel()
            flat[res_idx] = np.tile(resident, nown)
        kc_starts = np.zeros(nown, dtype=np.int64)
        np.cumsum(kc[:-1], out=kc_starts[1:])
        pos = np.arange(pg_all.size, dtype=np.int64)
        pos += np.repeat(gstarts + r - kc_starts, kc)
        flat[pos] = pg_all
        gs = np.zeros(total, dtype=bool)
        gs[gstarts] = True
        # The TLB is one fully-associative LRU per sample — a grouped
        # LRU with each sample as its own group.
        miss_mask = ~lru_hits_grouped(flat, gs, capacity)
        if r:
            pig = np.arange(total, dtype=np.int64)
            pig -= np.repeat(gstarts, sizes)
            miss_mask &= pig >= r            # priming prefix doesn't count
        gid = np.cumsum(gs) - 1
        misses[owners] = np.bincount(gid[miss_mask], minlength=nown)
        return misses

    def _dynamic_branches(self, pcs_chunks, out_chunks,
                          snap: _PrefixSnapshot, batch: int):
        counts = np.array([sum(c.size for c in chunks)
                           for chunks in out_chunks], dtype=np.int64)
        total = int(counts.sum())
        if total == 0:
            return counts, np.zeros(batch, dtype=np.int64)
        pcs = np.concatenate([c for chunks in pcs_chunks for c in chunks])
        outcomes = np.concatenate(
            [c for chunks in out_chunks for c in chunks])
        sample_of = np.repeat(np.arange(batch, dtype=np.int32), counts)
        kind = self.config.predictor
        if kind == "static-taken":
            wrong = ~outcomes
        elif kind == "bimodal":
            pred = self._counter_predictions(
                pcs, outcomes, sample_of, snap.tables.get("bimodal"))
            wrong = pred != outcomes
        elif kind == "gshare":
            idx = self._gshare_indices(pcs, outcomes, counts,
                                       snap.gshare_history)
            pred = self._counter_predictions(
                idx, outcomes, sample_of, snap.tables.get("gshare"),
                premasked=True)
            wrong = pred != outcomes
        else:  # tournament
            bim = self._counter_predictions(
                pcs, outcomes, sample_of, snap.tables.get("bimodal"))
            idx = self._gshare_indices(pcs, outcomes, counts,
                                       snap.gshare_history)
            gsh = self._counter_predictions(
                idx, outcomes, sample_of, snap.tables.get("gshare"),
                premasked=True)
            bim_right = bim == outcomes
            gsh_right = gsh == outcomes
            direction = gsh_right.astype(np.int8) - bim_right.astype(
                np.int8)
            table_size = 1 << 12
            cidx = (pcs & (table_size - 1)).astype(np.uint16)
            chooser = snap.tables.get("chooser")
            init = (chooser.astype(np.int32)[cidx] if chooser is not None
                    else np.full(total, 2, dtype=np.int32))
            before = counter_states_before(cidx, direction, init,
                                           subkey=sample_of)
            pred = np.where(before >= 2, gsh, bim)
            wrong = pred != outcomes
        return counts, np.bincount(sample_of[wrong], minlength=batch)

    @staticmethod
    def _counter_predictions(indices, outcomes, sample_of, table,
                             premasked: bool = False):
        table_size = 1 << 12  # the stock predictors' table_bits=12
        idx = (indices if premasked
               else indices & (table_size - 1)).astype(np.uint16)
        direction = np.where(outcomes, np.int8(1), np.int8(-1))
        init = (table.astype(np.int32)[idx] if table is not None
                else np.full(idx.size, 2, dtype=np.int32))
        before = counter_states_before(idx, direction, init,
                                       subkey=sample_of)
        return before >= 2

    @staticmethod
    def _gshare_indices(pcs, outcomes, counts, initial_history):
        mask = (1 << 12) - 1
        hist = np.zeros(pcs.size, dtype=np.int32)
        start = 0
        for count in counts:
            stop = start + int(count)
            if count:
                hist[start:stop] = gshare_history(
                    outcomes[start:stop], 12, initial=initial_history)
            start = stop
        return (pcs ^ hist) & mask
