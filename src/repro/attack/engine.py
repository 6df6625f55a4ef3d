"""Batched attack-replay engine: vectorized cache-attack simulation.

The reference attackers in :mod:`repro.attack.prime_probe` and
:mod:`repro.attack.flush_reload` replay one victim trace at a time through
the per-access Python loops of :class:`repro.uarch.CacheHierarchy`.  This
module re-derives both observation vectors with grouped-LRU kernels — one
NumPy pass over the *whole batch* of victim traces — and is
**bit-identical** to the loops (asserted by the invariance suite in
``tests/attack/test_engine.py``).

Two structural facts make the reduction exact:

*Prime+Probe.*  The attacker touches only the LLC, so the victim's private
L1/L2 run uninterrupted across epochs and their filtering is a plain cold
per-(set, sample) LRU hit mask.  At the LLC, probing in reverse priming
order re-inserts every way and the following forward prime restores the
canonical oldest-first way order, so every epoch starts from the same
primed state; during an epoch attacker ways are never re-touched, hence
strictly older than every victim line and evicted first.  Victim residency
therefore evolves exactly as in a *cold* LRU set fed only the victim's
stream, and the probe's per-set miss count equals ``min(victim LLC misses
in that set and epoch, associativity)``.

*Flush+Reload.*  Flushes happen only at epoch boundaries, so within an
epoch no line is ever removed and the classic LRU stack property holds:
a level's set content at reload time is the ``min(assoc, distinct)`` most
recently used distinct lines, ordered by last access.  Epochs chain
sequentially: each level's end state (minus the flushed monitored lines)
is replayed as a warm priming prefix into the next epoch's kernel call,
and the reload bit is membership of a monitored line in *any* level's end
state.

Kernel notes.  Hit verdicts come from the same grouped-LRU front end and
dispatcher as the measurement plan
(:func:`repro.uarch.vectorized.lru_misses_by_key` /
:func:`~repro.uarch.vectorized.grouped_lru_misses`, then
:func:`~repro.uarch.vectorized.lru_hits_grouped`): the shifted-compare
kernel for the shallow L1 sets, the bitset kernel for the deep L2/LLC
sets.  End states are recovered from a short per-group suffix — the last
``min(assoc, distinct)`` lines by last occurrence — growing the suffix
only for the rare groups whose tail holds fewer than ``assoc`` distinct
lines.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..trace.recorder import Trace
from ..uarch.hierarchy import HierarchyConfig
from ..uarch.vectorized import (grouped_lru_misses, lru_group_key,
                                lru_misses_by_key)

__all__ = [
    "flush_reload_observations",
    "prime_probe_vectors",
    "replay_supported",
    "traces_compatible",
]


def replay_supported(config: HierarchyConfig) -> bool:
    """Whether the vectorized replay path models ``config`` exactly.

    The grouped-LRU kernels reproduce true-LRU sets only; other policies
    (tree-plru, random) must take the reference loop.
    """
    return getattr(config, "policy", "lru") == "lru"


def traces_compatible(traces: Sequence[Trace],
                      max_line: Optional[int] = None) -> bool:
    """Whether every trace's line ids are replayable by the kernels.

    The kernels reserve negative ids as empty markers, and Prime+Probe
    additionally needs victim lines to stay below the attacker's eviction
    buffer (``max_line``) so identities never collide.
    """
    for trace in traces:
        lines = trace.memory_lines()
        if lines.size == 0:
            continue
        if int(lines.min()) < 0:
            return False
        if max_line is not None and int(lines.max()) >= max_line:
            return False
    return True


def _batched_stream(traces: Sequence[Trace],
                    epochs: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-trace memory streams with sample and epoch labels.

    Epoch boundaries replicate the reference loops exactly: with
    ``budget = max(1, total // epochs)`` the k-th intermediate probe fires
    after global access ``(k+1) * budget``, so position ``j`` belongs to
    epoch ``min(j // budget, epochs - 1)`` (the final epoch drains the
    remainder).
    """
    streams = []
    for trace in traces:
        lines = trace.memory_lines()
        if lines.size == 0:
            raise SimulationError("victim trace contains no memory accesses")
        streams.append(lines)
    totals = np.array([part.size for part in streams], dtype=np.int64)
    stream = np.concatenate(streams)
    sample_of = np.repeat(np.arange(totals.size, dtype=np.int64), totals)
    # Per-(trace, epoch) position counts for epoch = min(pos // budget,
    # last): full budgets while positions last, remainder in the final
    # epoch — materialized with a single repeat over the whole batch.
    eidx = np.arange(epochs, dtype=np.int64)
    budgets = np.maximum(totals // epochs, 1)
    counts = np.clip(totals[:, None] - eidx[None, :] * budgets[:, None],
                     0, budgets[:, None])
    counts[:, -1] = np.maximum(totals - (epochs - 1) * budgets, 0)
    epoch_of = np.repeat(np.tile(eidx, totals.size), counts.ravel())
    return stream, sample_of, epoch_of


def _check_replayable(config: HierarchyConfig, epochs: int) -> None:
    if epochs < 1:
        raise SimulationError(f"epochs must be >= 1, got {epochs}")
    if not replay_supported(config):
        raise SimulationError(
            f"vectorized attack replay requires the 'lru' policy, "
            f"got {config.policy!r}"
        )


def prime_probe_vectors(traces: Sequence[Trace],
                        config: Optional[HierarchyConfig] = None,
                        epochs: int = 8) -> np.ndarray:
    """Batched :meth:`PrimeProbeAttacker.probe_vector` over many traces.

    Args:
        traces: Victim traces (memory ops are used).
        config: Shared hierarchy; must use the LRU policy.
        epochs: Temporal resolution of the attack.

    Returns:
        ``(len(traces), epochs * num_sets)`` int64 vectors, bit-identical
        to the per-trace loop.
    """
    config = config or HierarchyConfig()
    _check_replayable(config, epochs)
    n = len(traces)
    num_sets = config.llc.num_sets
    if n == 0:
        return np.zeros((0, epochs * num_sets), dtype=np.int64)
    stream, sample_of, epoch_of = _batched_stream(traces, epochs)
    # The victim's private L1/L2 are never primed, probed or flushed, so
    # they run uninterrupted across epoch boundaries: filter the full
    # per-sample streams level by level in program order.
    for geo in (config.l1, config.l2):
        order, _, sorted_miss = lru_misses_by_key(
            stream, lru_group_key(stream, sample_of, geo.num_sets, n),
            geo.associativity)
        # Restore stream order by scattering into a position mask — the
        # miss indices are distinct, so this beats re-sorting them.
        mask = np.zeros(stream.size, dtype=bool)
        mask[order[sorted_miss]] = True
        miss = np.flatnonzero(mask)
        stream = stream[miss]
        sample_of = sample_of[miss]
        epoch_of = epoch_of[miss]
    assoc = config.llc.associativity
    cells = n * epochs
    if stream.size == 0:
        return np.zeros((n, epochs * num_sets), dtype=np.int64)
    # Every (sample, epoch, set) cell is an independent cold-LRU run over
    # the victim's LLC feed (see module docstring); one combined key makes
    # all cells contiguous groups of a single stable sort.
    key = lru_group_key(stream, sample_of * epochs + epoch_of, num_sets,
                        cells)
    _, skey, miss = lru_misses_by_key(stream, key, assoc)
    miss_keys = skey[miss].astype(np.int64)
    counts = np.bincount(miss_keys, minlength=num_sets * cells)
    counts = np.minimum(counts, assoc)
    return np.ascontiguousarray(
        counts.reshape(num_sets, n, epochs).transpose(1, 2, 0)
    ).reshape(n, epochs * num_sets)


def _end_states(v: np.ndarray, new_group: np.ndarray,
                assoc: int) -> np.ndarray:
    """Indices (into ``v``) of each group's LRU end state, oldest first.

    The end state is the ``min(assoc, distinct)`` most recently used
    distinct values; their last occurrences almost always sit inside a
    short suffix of the group, so only a ``3 * assoc`` tail is examined
    and grown for the rare groups whose tail repeats too much.
    """
    m = int(v.size)
    starts = np.flatnonzero(new_group)
    ngroups = int(starts.size)
    lens = np.empty(ngroups, dtype=np.int64)
    lens[:-1] = starts[1:] - starts[:-1]
    lens[-1] = m - starts[-1]
    ends = starts + lens
    take = np.minimum(lens, 3 * assoc)
    vmax = np.int64(int(v.max()) + 1 if m else 1)
    active = np.arange(ngroups, dtype=np.int64)
    pos_parts: List[np.ndarray] = []
    gid_parts: List[np.ndarray] = []
    # Each round scans only the still-unresolved groups' suffixes — a
    # resolved group is never re-read — growing the window 8x for groups
    # whose tail held fewer than ``assoc`` distinct values.
    while active.size:
        at = take[active]
        total = int(at.sum())
        base = np.repeat(ends[active] - at, at)
        cum = np.cumsum(at) - at
        intra = np.arange(total, dtype=np.int64) - np.repeat(cum, at)
        idx = base + intra
        sgid = np.repeat(active, at)
        ck = sgid * vmax + v[idx]
        o = np.argsort(ck, kind="stable")
        sck = ck[o]
        run_last = np.empty(total, dtype=bool)
        run_last[-1] = True
        np.not_equal(sck[1:], sck[:-1], out=run_last[:-1])
        li = o[run_last]
        lg = sgid[li]
        distinct = np.bincount(lg, minlength=ngroups)[active]
        done = (distinct >= assoc) | (at >= lens[active])
        done_global = np.zeros(ngroups, dtype=bool)
        done_global[active[done]] = True
        sel = done_global[lg]
        pos_parts.append(idx[li[sel]])
        gid_parts.append(lg[sel])
        active = active[~done]
        take[active] = np.minimum(lens[active], take[active] * 8)
    if not pos_parts:
        return np.zeros(0, dtype=np.int64)
    pos = np.concatenate(pos_parts)
    gid = np.concatenate(gid_parts)
    # Order each group's distinct values by last occurrence; keep the
    # final `assoc`, emitted oldest-first (the priming-prefix order).
    # Groups occupy disjoint ascending position ranges, so sorting by
    # position alone restores (group, recency) order.
    o2 = np.argsort(pos, kind="stable")
    gid = gid[o2]
    pos = pos[o2]
    gstart = np.empty(gid.size, dtype=bool)
    gstart[0] = True
    np.not_equal(gid[1:], gid[:-1], out=gstart[1:])
    gs = np.flatnonzero(gstart)
    glen = np.empty(gs.size, dtype=np.int64)
    glen[:-1] = gs[1:] - gs[:-1]
    glen[-1] = gid.size - gs[-1]
    from_end = np.repeat(glen, glen) - (
        np.arange(gid.size, dtype=np.int64) - np.repeat(gs, glen))
    return pos[from_end <= assoc]


def _merge_states(carry_g: np.ndarray, carry_v: np.ndarray,
                  s_g: np.ndarray, s_v: np.ndarray,
                  assoc: int, cells: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merge a carried LRU state with an epoch's slice states.

    Both inputs are grouped by ascending set/sample key with values
    distinct and oldest-first within each group, and every slice entry is
    more recent than every carried one.  That makes the true merged state
    a three-step reduction — drop carried values that reappear in the
    slice (their recency moved there), interleave the two sorted halves
    carry-first, keep each group's last ``assoc`` entries — with no
    general recency sort needed.  ``cells`` bounds the group-key space,
    letting the interleave rank both halves with bincount histograms
    instead of per-needle binary searches.
    """
    if carry_g.size == 0:
        return s_g, s_v
    if s_g.size == 0:
        return carry_g, carry_v
    vmax = np.int64(max(int(carry_v.max()), int(s_v.max())) + 1)
    ks = s_g.astype(np.int64) * vmax + s_v
    so = np.argsort(ks, kind="stable")
    sks = ks[so]
    kc = carry_g.astype(np.int64) * vmax + carry_v
    j = np.minimum(np.searchsorted(sks, kc), sks.size - 1)
    fresh = sks[j] != kc
    carry_g = carry_g[fresh]
    carry_v = carry_v[fresh]
    total = carry_g.size + s_g.size
    counts_s = np.bincount(s_g, minlength=cells)
    counts_c = np.bincount(carry_g, minlength=cells)
    pc = ((np.cumsum(counts_s) - counts_s)[carry_g]
          + np.arange(carry_g.size, dtype=np.int64))
    ps = (np.cumsum(counts_c)[s_g]
          + np.arange(s_g.size, dtype=np.int64))
    mg = np.empty(total, dtype=s_g.dtype)
    mv = np.empty(total, dtype=s_v.dtype)
    mg[pc] = carry_g
    mv[pc] = carry_v
    mg[ps] = s_g
    mv[ps] = s_v
    starts = np.empty(total, dtype=bool)
    starts[0] = True
    np.not_equal(mg[1:], mg[:-1], out=starts[1:])
    gs = np.flatnonzero(starts)
    lens = np.diff(np.append(gs, total))
    from_end = np.repeat(lens, lens) - (
        np.arange(total, dtype=np.int64) - np.repeat(gs, lens))
    keep = from_end <= assoc
    return mg[keep], mv[keep]


# Largest line id for which monitored-membership uses a direct-address
# table (one byte per id); sparser id spaces binary-search instead.
_WATCH_TABLE_MAX = 1 << 26


def _level_pass(lines: np.ndarray, samp: np.ndarray, ep: np.ndarray,
                n: int, epochs: int, num_sets: int, assoc: int,
                mon_unique: np.ndarray, watch: Optional[np.ndarray],
                out_u: np.ndarray, want_feed: bool = True
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One cache level of the whole Flush+Reload attack, all epochs.

    The crucial decoupling: per-epoch end states depend only on the
    level's *feed* (the LRU stack property needs recency order, not hit
    verdicts), so the cheap state chain — slice suffix states merged with
    the carried pre-epoch state, flush-filtered against the monitored
    lines — runs sequentially over epochs first, marking reload bits into
    ``out_u`` along the way.  The expensive hit kernel then runs **once**
    over a single (epoch, set, sample)-grouped array with every epoch's
    carry spliced in as an uncounted priming prefix, instead of once per
    epoch.

    Returns the counted misses in stream order — the next level's feed
    (skipped for the last level, whose misses feed nothing).
    """
    empty = np.zeros(0, dtype=np.int64)
    if lines.size == 0:
        return empty, empty, empty
    cells = num_sets * n
    key = ep * cells + (lines & (num_sets - 1)) * n + samp
    kk = key.astype(np.uint16) if epochs * cells <= 1 << 16 else key
    order = np.argsort(kk, kind="stable")
    skey = kk[order]
    sv = lines[order]
    m = sv.size
    gb0 = np.empty(m, dtype=bool)
    gb0[0] = True
    np.not_equal(skey[1:], skey[:-1], out=gb0[1:])
    # Epoch boundaries, probed at the sort key's own width (a mixed-dtype
    # searchsorted would silently upcast-copy the whole key array).
    bounds = (np.arange(1, epochs, dtype=np.int64) * cells).astype(skey.dtype)
    seg = np.empty(epochs + 1, dtype=np.int64)
    seg[0], seg[epochs] = 0, m
    seg[1:epochs] = np.searchsorted(skey, bounds)
    # One suffix extraction covers every epoch's slice states at once: the
    # sorted runs are exactly the (epoch, set, sample) groups, so slicing
    # the result per epoch is bit-identical to per-segment calls without
    # their per-call overhead.
    si_all = _end_states(sv, gb0, assoc)
    ski = skey[si_all]
    sseg = np.empty(epochs + 1, dtype=np.int64)
    sseg[0], sseg[epochs] = 0, si_all.size
    sseg[1:epochs] = np.searchsorted(ski, bounds)
    carry_v = np.zeros(0, dtype=sv.dtype)
    carry_g = np.zeros(0, dtype=skey.dtype)
    pre_pos: List[np.ndarray] = []
    pre_key: List[np.ndarray] = []
    pre_val: List[np.ndarray] = []
    for e in range(epochs):
        if carry_v.size:
            # Each group's carry must sit directly in front of that
            # group's run inside the epoch — runs are delimited by key
            # changes, so a prefix parked anywhere else would never
            # connect with the accesses it primes.
            a, b = int(seg[e]), int(seg[e + 1])
            gk = (carry_g + e * cells).astype(skey.dtype)
            pre_pos.append(a + np.searchsorted(skey[a:b], gk))
            pre_key.append(gk)
            pre_val.append(carry_v)
        si = si_all[sseg[e]:sseg[e + 1]]
        s_v = sv[si]
        s_g = skey[si] - e * cells
        if carry_g.size + s_g.size == 0:
            continue
        # A carried line that was re-accessed but fell out of the slice's
        # top-``assoc`` is pushed out of the merge too — ``assoc`` newer
        # distinct entries follow it.
        st_g, st_v = _merge_states(carry_g, carry_v, s_g, s_v, assoc, cells)
        # Reload reads the state *before* the boundary flush: mark
        # monitored residents directly into the output.  Membership is a
        # table gather (binary search when the id space is too sparse
        # for a table); only the (few) watched residents still need
        # their monitor index resolved.
        if watch is not None:
            watched = watch[st_v]
        else:
            mp = np.minimum(np.searchsorted(mon_unique, st_v),
                            mon_unique.size - 1)
            watched = mon_unique[mp] == st_v
        wi = np.flatnonzero(watched)
        mpc = np.searchsorted(mon_unique, st_v[wi])
        out_u[st_g[wi] % n, e, mpc] = 1
        # The flush drops monitored lines from every level for the next
        # epoch (invalidation shrinks the set; replaying the survivors
        # oldest-first reproduces that state exactly).
        np.logical_not(watched, out=watched)
        carry_v = st_v[watched]
        carry_g = st_g[watched]
    if not want_feed:
        return empty, empty, empty
    # Splice every epoch's carry in front of its groups' runs as uncounted
    # priming prefixes (pure offset arithmetic — no O(m log m) re-sort).
    if pre_val:
        ins = np.concatenate(pre_pos)
        pk = np.concatenate(pre_key)
        pv = np.concatenate(pre_val)
    else:
        ins = np.zeros(0, dtype=np.int64)
        pk = np.zeros(0, dtype=skey.dtype)
        pv = np.zeros(0, dtype=sv.dtype)
    num_pre = pv.size
    total = m + num_pre
    fv = np.empty(total, dtype=sv.dtype)
    gb = np.empty(total, dtype=bool)
    # ``ins`` ascends (epochs are visited in order and positions ascend
    # within each), so prefix entry k lands at slot ``ins[k] + k`` and the
    # originals' displacement is the step function "prefixes inserted at
    # or before me" — no per-position bincount/cumsum needed.
    bnd = np.empty(num_pre + 2, dtype=np.int64)
    bnd[0] = 0
    bnd[1:num_pre + 1] = ins
    bnd[num_pre + 1] = m
    fo = np.arange(m, dtype=np.int64)
    fo += np.repeat(np.arange(num_pre + 1, dtype=np.int64), np.diff(bnd))
    fv[fo] = sv
    gb[fo] = gb0
    if num_pre:
        fp = ins + np.arange(num_pre, dtype=np.int64)
        fv[fp] = pv
        # Group boundaries without materializing a spliced key array:
        # a prefix entry opens a run exactly when its key changes (all
        # insertions land at run starts), and an original run start is
        # absorbed when a same-key prefix run directly precedes it.
        pb = np.empty(num_pre, dtype=bool)
        pb[0] = True
        np.not_equal(pk[1:], pk[:-1], out=pb[1:])
        gb[fp] = pb
        lastrun = np.empty(num_pre, dtype=bool)
        lastrun[-1] = True
        lastrun[:-1] = pb[1:]
        cont = lastrun & (ins < m)
        cont &= pk == skey[np.minimum(ins, m - 1)]
        gb[fp[cont] + 1] = False
    # Counted misses restored to stream order (priming prefixes are
    # uncounted): gathering a spliced-slot miss mask through ``fo`` reads
    # each original's verdict without carrying an index array through
    # the splice, and a position-mask scatter beats sorting the indices.
    missed = np.zeros(total, dtype=bool)
    missed[grouped_lru_misses(fv, gb, assoc)] = True
    mask = np.zeros(m, dtype=bool)
    mask[order[missed[fo]]] = True
    oi = np.flatnonzero(mask)
    return lines[oi], samp[oi], ep[oi]


def flush_reload_observations(traces: Sequence[Trace],
                              monitored_lines: Sequence[int],
                              config: Optional[HierarchyConfig] = None,
                              epochs: int = 8) -> np.ndarray:
    """Batched :meth:`FlushReloadAttacker.observe` over many traces.

    Args:
        traces: Victim traces (memory ops are used).
        monitored_lines: Shared line ids the attacker flushes and reloads.
        config: The victim's hierarchy; must use the LRU policy.
        epochs: Temporal resolution of the attack.

    Returns:
        ``(len(traces), epochs * len(monitored_lines))`` 0/1 int64
        vectors, bit-identical to the per-trace loop.
    """
    config = config or HierarchyConfig()
    _check_replayable(config, epochs)
    monitored = np.asarray([int(line) for line in monitored_lines],
                           dtype=np.int64)
    if monitored.size == 0:
        raise SimulationError("nothing to monitor")
    n = len(traces)
    if n == 0:
        return np.zeros((0, epochs * monitored.size), dtype=np.int64)
    stream, sample_of, epoch_of = _batched_stream(traces, epochs)
    levels = [(config.l1.num_sets, config.l1.associativity),
              (config.l2.num_sets, config.l2.associativity),
              (config.llc.num_sets, config.llc.associativity)]
    # Narrow to 32-bit when both line ids and every level's key span fit:
    # the sort keys, gathers and splices below run at half the width.
    span = epochs * max(sets for sets, _ in levels) * n
    if (stream.size and span <= np.iinfo(np.int32).max
            and int(stream.max()) <= np.iinfo(np.int32).max):
        stream = stream.astype(np.int32)
        sample_of = sample_of.astype(np.int32)
        epoch_of = epoch_of.astype(np.int32)
    mon_unique, mon_inv = np.unique(monitored, return_inverse=True)
    # Direct-address watch table over the line-id range actually seen:
    # monitored lines past the stream's maximum can never be resident.
    # Sparse id spaces fall back to binary-search membership.
    top = int(stream.max()) if stream.size else 0
    if top <= _WATCH_TABLE_MAX:
        watch = np.zeros(top + 1, dtype=bool)
        watch[mon_unique[mon_unique <= top]] = True
    else:
        watch = None
    out_u = np.zeros((n, epochs, mon_unique.size), dtype=np.int64)
    # Epoch 0 starts cold like the loop (the initial flush is a no-op);
    # each level's counted misses become the next level's feed.
    for index, (num_sets, assoc) in enumerate(levels):
        stream, sample_of, epoch_of = _level_pass(
            stream, sample_of, epoch_of, n, epochs, num_sets, assoc,
            mon_unique, watch, out_u, want_feed=index + 1 < len(levels))
    out = out_u[:, :, mon_inv]
    return np.ascontiguousarray(out).reshape(n, epochs * monitored.size)
