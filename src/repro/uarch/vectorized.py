"""Vectorized microarchitecture state machines.

NumPy re-implementations of the three sequential simulators that dominate
measurement time — set-associative LRU caches, the fully-associative LRU
TLB and the 2-bit-saturating-counter branch predictors.  Every kernel is
**exact**: it reproduces the per-access decisions of the reference classes
in :mod:`repro.uarch.cache`, :mod:`repro.uarch.tlb` and
:mod:`repro.uarch.branch` bit for bit (asserted by the invariance suite in
``tests/uarch``), it just arrives at them without a Python-level loop per
access.

Every LRU replay in the package — the measurement plan's cache levels
and TLB, and both batched cache attackers in :mod:`repro.attack.engine`
— resolves hits through one dispatcher, :func:`lru_hits_grouped`, over
concatenated per-group streams (one group per simulated set and sample).
It picks one of two exact kernels by associativity:

* shallow sets (fewer than 6 ways, the L1 point) take the
  *shifted-compare* kernel.  With consecutive duplicates collapsed, an
  access whose value recurs in the previous ``assoc`` positions is a
  certain hit, and one whose previous ``assoc`` positions hold ``assoc``
  distinct values without it is a certain miss.  The few windows that
  contain a repeat are finished by vectorized backward event walkers.
* deep sets (L2, LLC, TLB) take the *bitset* kernel.  An access hits iff
  fewer than ``assoc`` distinct other values were touched since its
  previous occurrence; with at most 64 distinct values per group that
  count is a popcount over a range-OR of per-value bit masks.  Groups
  with more values fall back to the shifted-compare kernel.

Groups are independent, so the dispatcher runs long feeds as
group-aligned slices, which bounds each kernel's full-length temporaries.

One front end feeds the dispatcher (:func:`lru_misses_by_key`,
:func:`grouped_lru_misses`): it stable-sorts a labelled stream into
groups, collapses consecutive repeats and, for deep sets, strips the
interiors of periodic runs (:func:`strip_periodic_middles`).  Every
position it drops is a guaranteed hit.

Counter-table predictors reduce to a segmented scan of clamp maps:
``k`` same-direction updates of a saturating counter compose into the map
``x -> min(hi, max(lo, x + k*d))``, and clamp maps are closed under
composition, so a run-length-encoded Hillis-Steele scan recovers every
per-branch "state before update" from which predictions follow.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "counter_states_before",
    "grouped_lru_misses",
    "gshare_history",
    "lru_group_key",
    "lru_hits_grouped",
    "lru_level_misses",
    "lru_misses_by_key",
    "strip_periodic_middles",
]


# ----------------------------------------------------------------------
# Grouped LRU (set-associative caches and the TLB)
# ----------------------------------------------------------------------

# Associativity from which the bitset kernel replaces the shifted-compare
# kernel and the front end strips periodic-run interiors.  The
# shifted-compare kernel's pairwise window scans cost O(assoc^2) vector
# ops, and shallow streams keep too little periodic structure per strip
# pass to repay its scans.
_DEEP_ASSOC = 6

# Positions per kernel call.  Every kernel builds several temporaries as
# long as its feed (the bitset kernel's sort and range-OR table, the
# walkers' gathers); slices of this size keep them cache-sized and cap
# their memory.  Recorded tournament attack feeds (up to 2.4 M
# positions per call) ran 1.4-1.8x faster and with 2-8x less transient
# memory in slices; measurement feeds were unchanged.
_CHUNK = 1 << 18


def _position_in_group(new_group: np.ndarray) -> np.ndarray:
    starts = np.flatnonzero(new_group)
    lens = np.empty(starts.size, dtype=np.int64)
    lens[:-1] = starts[1:] - starts[:-1]
    lens[-1] = new_group.size - starts[-1]
    return np.arange(new_group.size, dtype=np.int64) - np.repeat(starts, lens)


def strip_periodic_middles(values: np.ndarray, group_starts: np.ndarray,
                           assoc: int, max_period: int = 8,
                           min_frac: float = 0.04) -> np.ndarray:
    """Keep-mask that removes the interior of periodic runs.

    Per-set streams from convolution scatter loops are dominated by
    period-``p`` runs (``v[i] == v[i-p]`` over a long interval).  Inside
    such a run with ``p <= assoc``, every access past the first ``2p``
    positions is a guaranteed LRU hit (its previous occurrence is ``p``
    back, with at most ``p - 1 < assoc`` distinct lines in between), and
    the run's final MRU order is fully determined by its last ``p``
    accesses — one full period, touching every distinct run value.  So a
    maximal period-``p`` interval can be collapsed to its first ``2p``
    and last ``p`` positions without changing any kept position's
    hit/miss outcome or the set state at run exit.

    One period is stripped per pass (greedily, by coverage), then the
    shortened stream is re-examined: each single-period pass is exact on
    its input, so the composition is exact, and compound structure that
    only becomes periodic after an inner period collapses is still found.
    Each pass re-collapses the consecutive duplicates its splices create,
    so the kept stream satisfies :func:`lru_hits_grouped`'s precondition.

    Returns:
        Boolean keep mask aligned with ``values``; removed positions are
        unconditional hits.
    """
    keep = np.ones(values.size, dtype=bool)
    if values.size < 8 or assoc < 2:
        return keep
    idx = None  # lazily materialised map: current stream -> original
    kv, kg = values, group_starts
    max_p = min(assoc, max_period)
    while kv.size >= 8:
        pig = _position_in_group(kg)
        best_p, best_cnt, best_alt = 0, int(kv.size * min_frac), None
        alt = np.zeros(kv.size, dtype=bool)
        for p in range(2, max_p + 1):
            alt[:p] = False
            np.equal(kv[p:], kv[:-p], out=alt[p:])
            np.logical_and(alt[p:], pig[p:] >= p, out=alt[p:])
            cnt = int(np.count_nonzero(alt))
            if cnt > best_cnt:
                best_p, best_cnt, best_alt = p, cnt, alt.copy()
        if not best_p:
            break
        p, alt = best_p, best_alt
        # Removable = alt true across the whole window [i-p, i+p]: at
        # least 2p past the maximal run's start and p before its end.
        rm = alt.copy()
        for off in range(1, p + 1):
            rm[:-off] &= alt[off:]
            rm[-off:] = False
            rm[off:] &= alt[:-off]
            rm[:off] = False
        n_rm = int(np.count_nonzero(rm))
        if n_rm <= int(kv.size * min_frac):
            break
        sub = np.flatnonzero(~rm)
        kv = kv[sub]
        kg = kg[sub]
        # Splicing a run's prefix against its tail can create new
        # consecutive duplicates (and, once removed, further ones);
        # duplicate hits are state-neutral, so collapsing them again is
        # exact and restores the kernel's precondition.
        while kv.size > 1:
            dup = np.zeros(kv.size, dtype=bool)
            np.equal(kv[1:], kv[:-1], out=dup[1:])
            dup[1:] &= ~kg[1:]
            if not dup.any():
                break
            nodup = np.flatnonzero(~dup)
            sub = sub[nodup]
            kv = kv[nodup]
            kg = kg[nodup]
        if idx is None:
            idx = sub
        else:
            idx = idx[sub]
    if idx is not None:
        keep[:] = False
        keep[idx] = True
    return keep


def lru_hits_grouped(values: np.ndarray, group_starts: np.ndarray,
                     assoc: int) -> np.ndarray:
    """Hit mask of concatenated per-group streams under LRU.

    Args:
        values: Non-negative line ids (or page numbers), the
            concatenation of contiguous per-group streams with **no
            consecutive duplicates inside a group** (collapse them
            first; they are unconditional hits).
        group_starts: Boolean mask of group-start positions.  Each group
            replays through its own cold LRU set; a warm set is modelled
            by a priming prefix of its resident values, oldest first.
        assoc: Associativity (LRU depth) of every group.

    Returns:
        Boolean hit mask aligned with ``values``.

    Below 6 ways the shifted-compare kernel decides every position.  From
    6 ways up the bitset kernel does, and hands the groups that hold more
    than 64 distinct values to the shifted-compare kernel (see the module
    docstring for both).  Long feeds are cut at group starts into slices
    of about ``_CHUNK`` positions, one kernel call each.
    """
    if assoc < 1:
        raise ValueError(f"assoc must be >= 1, got {assoc}")
    n = int(values.size)
    if n == 0:
        return np.zeros(0, dtype=bool)
    # Groups are independent, so any group-aligned split is exact: cut at
    # the last group start at or before each multiple of _CHUNK.
    starts = np.flatnonzero(group_starts)
    cuts = np.unique(starts[np.searchsorted(
        starts, np.arange(_CHUNK, n, _CHUNK), side="right") - 1])
    edges = np.concatenate(([0], cuts[cuts > 0], [n]))
    hit = np.empty(n, dtype=bool)
    for a, b in zip(edges[:-1], edges[1:]):
        hit[a:b] = _hits_one_call(values[a:b], group_starts[a:b], assoc)
    return hit


def _hits_one_call(values: np.ndarray, group_starts: np.ndarray,
                   assoc: int) -> np.ndarray:
    if assoc < _DEEP_ASSOC:
        return _lean_hits(values, group_starts, assoc)
    hit, big = _lru_bitset_grouped(values, group_starts, assoc)
    if big is not None:
        bi = np.flatnonzero(big)
        hit[bi] = _lean_hits(values[bi], group_starts[bi], assoc)
    return hit


def _lru_bitset_grouped(values: np.ndarray, group_starts: np.ndarray,
                        capacity: int) -> Tuple[np.ndarray,
                                                Optional[np.ndarray]]:
    """Grouped LRU hits via per-group value bit masks.

    An access hits a ``capacity``-way LRU set iff fewer than ``capacity``
    distinct *other* values were touched since its previous occurrence.
    Mapping each group's values to dense ranks (at most 64 of them) turns
    that count into ``popcount(OR of bit masks strictly between the two
    occurrences)``, answered by a doubling range-OR table.

    Returns:
        ``(hit, big)`` where ``big`` is ``None`` or a boolean mask of
        positions in groups with more than 64 distinct values, whose
        ``hit`` entries are undefined and must come from the
        shifted-compare kernel.
    """
    t_idx, lo, bits, big = _reuse_queries(values, group_starts)
    inside = t_idx > lo                   # query range [lo, t-1]
    more_recent = np.zeros(t_idx.size, dtype=np.int64)
    if inside.any():
        li, ti = lo[inside], t_idx[inside]
        k = (np.frexp((ti - li).astype(np.float64))[1] - 1).astype(np.int64)
        # Doubling range-OR table, filled in place up to the deepest level
        # a query reads; spans never exceed one group because every query
        # stays between two occurrences within a single group.
        table = np.empty((int(k.max()) + 1, bits.size), dtype=np.uint64)
        table[0] = bits
        for level in range(1, table.shape[0]):
            step = 1 << (level - 1)
            below, row = table[level - 1], table[level]
            np.bitwise_or(below[:-step], below[step:], out=row[:-step])
            row[-step:] = below[-step:]
        more_recent[np.flatnonzero(inside)] = np.bitwise_count(
            table[k, li] | table[k, ti - (np.int64(1) << k)])
    hit = np.zeros(bits.size, dtype=bool)
    hit[t_idx] = more_recent < capacity
    return hit, big


def _reuse_queries(values: np.ndarray, group_starts: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              Optional[np.ndarray]]:
    """Reuse pairs and rank bits of a grouped stream for the bitset kernel.

    Returns ``(t_idx, lo, bits, big)``: the positions that re-access a
    value of their group, one past each one's previous occurrence, the
    ``1 << rank`` mask of every access's value among its group's distinct
    values, and ``big`` as :func:`_lru_bitset_grouped` returns it.  Kept
    apart so the sort's full-stream temporaries are freed before the
    range-OR table is built.
    """
    n = int(values.size)
    # Sort by (group, value), position-stable.  The stream arrives grouped,
    # so with a group-major key the sort only has to order the values
    # inside each group (timsort gallops across the already ordered
    # groups); id ranges too wide for one int64 key sort in two passes.
    gid = np.cumsum(group_starts)        # 1-based group id
    span = int(values.max()) + 1
    if int(gid[-1]) <= (1 << 62) // span:
        order = np.argsort(gid * span + values, kind="stable")
    else:
        order = np.lexsort((values, gid))
    sv = values[order]
    sg = gid[order]
    new_pair = np.empty(n, dtype=bool)
    new_pair[0] = True
    np.not_equal(sv[1:], sv[:-1], out=new_pair[1:])
    gchange = np.empty(n, dtype=bool)
    gchange[0] = True
    np.not_equal(sg[1:], sg[:-1], out=gchange[1:])
    new_pair |= gchange
    # Previous occurrence of each access's (group, value), original index
    # space: consecutive sorted entries of one pair are consecutive
    # occurrences.
    cont = np.flatnonzero(~new_pair)
    t_idx = order[cont]
    lo = order[cont - 1] + 1
    # Dense per-group rank of each value and per-group distinct counts.
    c = np.cumsum(new_pair)
    gs_sorted = np.flatnonzero(gchange)
    glen = np.empty(gs_sorted.size, dtype=np.int64)
    glen[:-1] = gs_sorted[1:] - gs_sorted[:-1]
    glen[-1] = n - gs_sorted[-1]
    rank_sorted = c - np.repeat(c[gs_sorted], glen)
    distinct = c[gs_sorted + glen - 1] - c[gs_sorted] + 1
    big = None
    if int(distinct.max()) > 64:
        big = np.zeros(n, dtype=bool)
        big[order] = np.repeat(distinct > 64, glen)
        rank_sorted = np.minimum(rank_sorted, 63)
    rank = np.empty(n, dtype=np.uint64)
    rank[order] = rank_sorted.astype(np.uint64)
    return t_idx, lo, np.uint64(1) << rank, big


def _lean_hits(v: np.ndarray, new_group: np.ndarray, assoc: int) -> np.ndarray:
    """Shifted-compare kernel (see :func:`lru_hits_grouped`)."""
    m = int(v.size)
    # Line ids almost always fit int32; halving the element width halves
    # every compare pass and gather below.
    if int(v.max()) < 2 ** 31 - 1:
        v = v.astype(np.int32, copy=False)
    hit = np.zeros(m, dtype=bool)
    pig = _position_in_group(new_group)
    if m < 2 ** 31:
        pig = pig.astype(np.int32)
    buf = np.empty(m, dtype=bool)
    # Keep the raw lag-k equality masks for 2 <= k < assoc: the window-dup
    # scan below reuses them as shifted views instead of re-comparing.
    eqs = {}
    for j in range(1, assoc + 1):
        if j >= m:
            break
        if 2 <= j < assoc:
            eq = np.empty(m, dtype=bool)
            np.equal(v[j:], v[:-j], out=eq[j:])
            eqs[j] = eq
            np.logical_and(eq[j:], pig[j:] >= j, out=buf[j:])
        else:
            np.equal(v[j:], v[:-j], out=buf[j:])
            np.logical_and(buf[j:], pig[j:] >= j, out=buf[j:])
        np.logical_or(hit[j:], buf[j:], out=hit[j:])
    if assoc < 3:
        # The window is the whole LRU state: consecutive duplicates are
        # collapsed, so positions t-1 and t-2 always hold distinct values.
        return hit
    # A window of `assoc` *distinct* values without v[t] is a certain
    # miss; only windows containing a repeat stay ambiguous.  Adjacent
    # window entries always differ, so check the non-adjacent pairs —
    # pair (t-a, t-b) duplicates exactly when the lag-(b-a) mask fires at
    # t-a, a pure shift of an already-computed compare.
    dup_w = np.zeros(m, dtype=bool)
    for a in range(1, assoc - 1):
        for b in range(a + 2, assoc + 1):
            if b >= m or (b - a) not in eqs:
                continue
            np.logical_or(dup_w[b:], eqs[b - a][b - a:m - a],
                          out=dup_w[b:])
    unresolved = np.flatnonzero(~hit & dup_w & (pig >= assoc))
    if unresolved.size:
        _walk_unresolved(v, pig, hit, unresolved, assoc)
    return hit


_SEGMENT = 8
_SEGMENT_MAX = 128


def _walk_unresolved(v: np.ndarray, pig: np.ndarray, hit: np.ndarray,
                     idx: np.ndarray, assoc: int) -> None:
    """Exact backward scans for the window-ambiguous positions.

    ``_lean_hits`` guarantees every ``idx`` has ``pig >= assoc``, no
    target in its lag window and at least one in-window duplicate — so
    the window's distinct values (at most ``assoc - 1`` of them) seed
    each walker's avoid set directly from pairwise lag compares.

    After seeding, a walker can change state at most ``assoc`` more
    times: its avoid set never evicts, so only a target match or a value
    outside the set matters.  Each round gathers a segment of ``L``
    positions, jumps every walker to its first such *event* (``argmax``
    over the segment), and applies it; stalled walkers — hot loops whose
    values the avoid set already covers — skip the whole segment.  ``L``
    doubles per round, so a walk of span ``S`` costs O(assoc + S / Lmax)
    rounds instead of O(S).
    """
    n = idx.size
    tgt = v[idx]
    lo = idx - pig[idx]
    out = idx
    # seen[k, i] = k-th distinct non-target value walker i met (-1 empty);
    # line ids are non-negative, so the sentinel never matches.
    seen = np.full((assoc - 1, n), -1, dtype=v.dtype)
    cnt = np.zeros(n, dtype=np.int64)
    window = []
    for lag in range(1, assoc + 1):
        wl = v[idx - lag]
        new = np.ones(n, dtype=bool)
        # Consecutive duplicates are collapsed, so the adjacent lag
        # always differs — compare only lags 1..lag-2.
        for k in range(len(window) - 1):
            new &= wl != window[k]
        store = np.flatnonzero(new & (cnt < assoc - 1))
        seen[cnt[store], store] = wl[store]
        cnt += new
        window.append(wl)
    gone = cnt >= assoc
    c = idx - assoc - 1
    gone |= c < lo
    c = np.maximum(c, 0)  # pin finished walkers' gathers in bounds
    L = _SEGMENT
    while True:
        ngone = int(np.count_nonzero(gone))
        if ngone == out.size:
            return
        if 4 * ngone >= out.size:
            keep = np.flatnonzero(~gone)
            out, tgt, lo, c, cnt = (out[keep], tgt[keep], lo[keep],
                                    c[keep], cnt[keep])
            seen = seen[:, keep]
            gone = np.zeros(out.size, dtype=bool)
        offs = np.arange(L, dtype=np.int64)
        pos = c[None, :] - offs[:, None]
        interesting = pos >= lo[None, :]
        w = v[np.maximum(pos, 0)]
        for k in range(assoc - 1):
            interesting &= w != seen[k][None, :]
        has = interesting.any(axis=0)
        hi = np.flatnonzero(has & ~gone)
        if hi.size:
            j = interesting.argmax(axis=0)[hi]
            ev = w[j, hi]
            ishit = ev == tgt[hi]
            if ishit.any():
                hw = hi[ishit]
                hit[out[hw]] = True
                gone[hw] = True
            rest = hi[~ishit]
            if rest.size:
                full = cnt[rest] == assoc - 1
                gone[rest[full]] = True
                gi = rest[~full]
                if gi.size:
                    seen[cnt[gi], gi] = ev[~ishit][~full]
                    cnt[gi] += 1
            c[hi] = c[hi] - j - 1
        nh = ~has
        if nh.any():
            c[nh] -= L
        gone |= c < lo
        c = np.maximum(c, 0)
        L = min(L * 2, _SEGMENT_MAX)


def lru_group_key(lines: np.ndarray, sample_of: np.ndarray, num_sets: int,
                  num_samples: int) -> np.ndarray:
    """(set, sample) group key of a labelled line stream.

    ``sample_of`` may be any per-position cell label below
    ``num_samples`` (a sample, or a (sample, epoch) pair).  One stable
    argsort by the key makes every (set, cell) stream a contiguous run in
    program order; for any realistic geometry x batch the key fits
    uint16, where NumPy's stable argsort is an O(n) radix sort.  Built
    in place to avoid extra full-stream temporaries.
    """
    key = lines & (num_sets - 1)
    np.multiply(key, num_samples, out=key)
    key += sample_of
    return key.astype(np.uint16 if num_sets * num_samples <= 1 << 16
                      else np.int64, copy=False)


def lru_misses_by_key(lines: np.ndarray, key: np.ndarray, assoc: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LRU misses of a labelled stream, one cold set per key.

    Args:
        lines: Non-negative line ids in program order.
        key: Group label per position (e.g. :func:`lru_group_key`).
        assoc: Associativity of every set.

    Returns:
        ``(order, skey, miss)``: the stable grouping permutation, the
        sorted keys and the ascending positions of the misses in that
        sorted order (``order[miss]`` maps them back to ``lines``).
    """
    order = np.argsort(key, kind="stable")
    skey = key[order]
    new_group = np.empty(skey.size, dtype=bool)
    new_group[:1] = True
    np.not_equal(skey[1:], skey[:-1], out=new_group[1:])
    return order, skey, grouped_lru_misses(lines[order], new_group, assoc)


def grouped_lru_misses(values: np.ndarray, group_starts: np.ndarray,
                       assoc: int) -> np.ndarray:
    """Miss positions of contiguous per-group streams under LRU.

    Unlike :func:`lru_hits_grouped`, ``values`` may repeat consecutively:
    repeats are collapsed here and, from 6 ways up, periodic-run
    interiors are stripped (both are guaranteed hits) before the
    dispatcher decides the rest.

    Returns:
        Ascending indices into ``values`` of the accesses that miss.
    """
    n = int(values.size)
    keep = np.empty(n, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    keep[1:] |= group_starts[1:]
    kept = np.flatnonzero(keep)
    kv = values[kept]
    kg = group_starts[kept]
    if assoc >= _DEEP_ASSOC:
        core = np.flatnonzero(strip_periodic_middles(kv, kg, assoc))
        if core.size < kv.size:
            kept, kv, kg = kept[core], kv[core], kg[core]
    return kept[~lru_hits_grouped(kv, kg, assoc)]


def lru_level_misses(stream: np.ndarray, sample_of: np.ndarray,
                     num_sets: int, assoc: int, num_samples: int,
                     counted_from: int = 0
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample miss counts of one level plus the miss feed for the next.

    The returned feed stays in this level's (set, sample) sort order —
    no scatter back to program order.  That order is a *valid* program
    order for the next level because power-of-two set bits nest: lines
    sharing a set of the larger level necessarily share a set of this
    one, so inside any next-level group the feed is still ordered by
    original position.

    Args:
        stream: Line ids; the first ``counted_from`` positions are warm
            priming lines (they update state but are not counted and
            never propagate), the rest residue accesses.  Priming must
            precede every residue position of the same sample, which a
            global priming block before all residues satisfies.
        sample_of: Sample index per position (any order, grouped per
            sample within each of the two blocks).
        num_sets: Power-of-two set count of the level.
        assoc: Associativity of the level.
        num_samples: Batch size (bounds the sample ids).
        counted_from: Index where counted residue positions begin.

    Returns:
        ``(miss_counts, miss_lines, miss_sample)``: per-sample counted
        miss totals and the counted misses' lines/sample ids in this
        level's sort order.
    """
    order, skey, miss = lru_misses_by_key(
        stream, lru_group_key(stream, sample_of, num_sets, num_samples),
        assoc)
    src = order[miss]
    if counted_from:
        counted = src >= counted_from
        miss, src = miss[counted], src[counted]
    miss_sample = (skey[miss] % num_samples).astype(np.int32)
    miss_counts = np.bincount(miss_sample, minlength=num_samples)
    return miss_counts, stream[src], miss_sample


# ----------------------------------------------------------------------
# Saturating-counter tables (branch predictors)
# ----------------------------------------------------------------------

def counter_states_before(group_ids: np.ndarray, directions: np.ndarray,
                          init: np.ndarray, lo: int = 0, hi: int = 3,
                          subkey: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-update "counter state before this update" for grouped counters.

    Args:
        group_ids: Counter identity per update (one group per simulated
            table entry); updates of one counter need **not** be
            contiguous — a stable sort groups them while preserving
            program order.  Pass a uint16 array (e.g. the table index)
            whenever identities fit: NumPy's stable argsort is then an
            O(n) radix sort.
        directions: Update direction per element: +1 (taken), -1 (not
            taken) or 0 (no update, e.g. a tournament chooser tie).
        init: Initial counter value per element (only the value at each
            group's first update is used, so passing a full gather like
            ``table[index]`` is fine).
        lo: Saturation floor.
        hi: Saturation ceiling.
        subkey: Optional secondary identity (e.g. the sample index); must
            be non-decreasing in program order, so it refines groups
            without entering the sort key.

    Returns:
        The counter value *before* each update, aligned with the input.
    """
    n = int(group_ids.size)
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    order = np.argsort(group_ids, kind="stable")
    g = group_ids[order]
    d = directions[order].astype(np.int32)
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(g[1:], g[:-1], out=new_group[1:])
    if subkey is not None:
        sk = subkey[order]
        new_group[1:] |= sk[1:] != sk[:-1]
    # RLE over same-direction runs inside a group: k same-sign saturating
    # updates compose into one clamp map x -> min(hi, max(lo, x + k*d)).
    new_run = new_group.copy()
    new_run[1:] |= d[1:] != d[:-1]
    run_starts = np.flatnonzero(new_run)
    nruns = run_starts.size
    run_len = np.empty(nruns, dtype=np.int32)
    run_len[:-1] = np.diff(run_starts)
    run_len[-1] = n - run_starts[-1]
    run_d = d[run_starts]
    run_group_start = new_group[run_starts]

    # Segmented inclusive Hillis-Steele scan composing clamp maps
    # (D, L, H): f(x) = min(H, max(L, x + D)).  A run of length >=
    # hi - lo pins the counter (its map is constant), so the run after
    # it starts a fresh scan segment with a known base value — segments
    # then span only the short stretches between saturating runs, which
    # cuts both the scan depth and each round's live set.
    D = run_len * run_d
    L = np.full(nruns, lo, dtype=np.int32)
    H = np.full(nruns, hi, dtype=np.int32)
    seg_start = run_group_start.copy()
    sat = np.abs(D) >= (hi - lo)
    seg_start[1:] |= sat[:-1]
    seg = np.cumsum(seg_start, dtype=np.int32)
    shift = 1
    while shift < nruns:
        valid = np.zeros(nruns, dtype=bool)
        valid[shift:] = seg[shift:] == seg[:-shift]
        idx = np.flatnonzero(valid)
        if idx.size == 0:
            break
        j = idx - shift
        d1, l1, h1 = D[j], L[j], H[j]
        d2, l2, h2 = D[idx], L[idx], H[idx]
        D[idx] = d1 + d2
        L[idx] = np.minimum(h2, np.maximum(l2, l1 + d2))
        H[idx] = np.minimum(h2, np.maximum(l2, h1 + d2))
        shift <<= 1

    init_arr = np.asarray(init)
    group_index = np.cumsum(run_group_start, dtype=np.int32) - 1
    init_group = init_arr[order[run_starts[np.flatnonzero(
        run_group_start)]]].astype(np.int32, copy=False)
    init_run = init_group[group_index]
    # Base value at each scan-segment start: the group's init for true
    # group starts, else the pinned value of the saturating run before.
    starts_seg = np.flatnonzero(seg_start)
    base_seg = init_run[starts_seg]
    anchored = ~run_group_start[starts_seg]
    if anchored.any():
        ai = starts_seg[anchored]
        base_seg[anchored] = np.where(run_d[ai - 1] > 0, hi, lo)
    base_run = base_seg[seg - 1]
    after_run = np.minimum(H, np.maximum(L, base_run + D))
    entry = base_run.copy()
    if nruns > 1:
        cont = ~seg_start[1:]
        entry[1:][cont] = after_run[:-1][cont]
    # State before element = clamp(run entry + offset * d): within a run
    # all updates share one sign, so saturation is monotone.
    run_of = np.cumsum(new_run, dtype=np.int32) - 1
    offset = np.arange(n, dtype=np.int32) - run_starts[run_of].astype(
        np.int32)
    before_sorted = np.minimum(
        hi, np.maximum(lo, entry[run_of] + offset * d))
    before = np.empty(n, dtype=np.int32)
    before[order] = before_sorted
    return before


def gshare_history(outcomes: np.ndarray, history_bits: int,
                   initial: int = 0) -> np.ndarray:
    """Global-history register value before each branch of one stream.

    Args:
        outcomes: Taken/not-taken stream of one task (bool).
        history_bits: Width of the history register.
        initial: History value at stream start (warm-start support).

    Returns:
        The history each branch's gshare index is built from (int32 while
        the register fits, which every stock predictor's does).
    """
    t = int(outcomes.size)
    dtype = np.int32 if history_bits < 31 else np.int64
    hist = np.zeros(t, dtype=dtype)
    if t == 0 or history_bits == 0:
        return hist
    mask = (1 << history_bits) - 1
    taken = outcomes.astype(dtype)
    for i in range(1, min(history_bits, t) + 1):
        hist[i:] |= taken[:-i] << (i - 1)
    if initial:
        for i in range(min(history_bits, t)):
            hist[i] |= (initial << i) & mask
    hist &= mask
    return hist
