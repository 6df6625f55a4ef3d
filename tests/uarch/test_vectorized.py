"""Tests for repro.uarch.vectorized — exactness of the batched kernels.

Every kernel here must be *bit-exact* against a straightforward
per-access reference simulation; closeness is not good enough, because
the measurement engine built on top of them advertises distributions
identical to the naive replay path.
"""

import numpy as np
import pytest

from repro.uarch import vectorized
from repro.uarch.vectorized import (
    counter_states_before,
    grouped_lru_misses,
    lru_hits_grouped,
    lru_level_misses,
    strip_periodic_middles,
)


def ref_lru_hits(values, group_ids, assoc):
    """Per-access dict-and-list LRU simulation (the obviously-correct one)."""
    hits = np.zeros(values.size, dtype=bool)
    state = {}
    for i, (value, group) in enumerate(zip(values.tolist(),
                                           group_ids.tolist())):
        lst = state.setdefault(group, [])
        if value in lst:
            lst.remove(value)
            lst.append(value)
            hits[i] = True
        else:
            lst.append(value)
            if len(lst) > assoc:
                lst.pop(0)
    return hits


def collapse_dups(values, groups):
    """Drop consecutive duplicates within a group (kernel precondition)."""
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = (values[1:] != values[:-1]) | (groups[1:] != groups[:-1])
    return values[keep], groups[keep]


def starts_of(groups):
    """Group-start mask of contiguous group ids."""
    starts = np.ones(groups.size, dtype=bool)
    starts[1:] = groups[1:] != groups[:-1]
    return starts


class TestLruHitsGrouped:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_streams(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(10):
            assoc = int(rng.integers(1, 17))
            ngroups = int(rng.integers(1, 5))
            n = int(rng.integers(1, 400))
            nvals = int(rng.integers(2, 8))
            if trial % 3 == 0:
                # Periodic tiling: the pattern real conv traces produce.
                period = int(rng.integers(2, 7))
                base = rng.integers(0, nvals, period)
                vals = np.tile(base, n // period + 1)[:n].astype(np.int64)
            else:
                vals = rng.integers(0, nvals, n).astype(np.int64)
            grp = np.sort(rng.integers(0, ngroups, n)).astype(np.int64)
            vals, grp = collapse_dups(vals, grp)
            got = lru_hits_grouped(vals, starts_of(grp), assoc)
            want = ref_lru_hits(vals, grp, assoc)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("period,assoc",
                             [(2, 4), (3, 8), (4, 8), (4, 16), (6, 16),
                              (5, 8)])
    def test_long_periodic_streams(self, period, assoc):
        # Long periodic runs with occasional splices exercise the
        # strip/kernel interplay that plain random streams never reach.
        base = np.arange(period, dtype=np.int64) * 16
        vals = np.tile(base, 3000)
        vals[::97] = 999
        keep = np.ones(vals.size, dtype=bool)
        keep[1:] = vals[1:] != vals[:-1]
        vals = vals[keep]
        groups = np.zeros(vals.size, dtype=np.int64)
        np.testing.assert_array_equal(
            lru_hits_grouped(vals, starts_of(groups), assoc),
            ref_lru_hits(vals, groups, assoc))

    def test_deep_sets_hit_bitset_kernel(self):
        # assoc >= 6 takes the bitset kernel; feed a group that overflows
        # 64 distinct values to force its shifted-compare fallback too.
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 200, 5000).astype(np.int64)
        groups = np.sort(rng.integers(0, 3, 5000)).astype(np.int64)
        vals, groups = collapse_dups(vals, groups)
        np.testing.assert_array_equal(
            lru_hits_grouped(vals, starts_of(groups), 8),
            ref_lru_hits(vals, groups, 8))


def _random_stream(rng, kind):
    """One grouped stream of the given shape, repeats not yet collapsed."""
    if kind == "wide":
        # More than 64 distinct values per group: the bitset kernel hands
        # these groups to the shifted-compare kernel.
        n = 3000
        vals = rng.integers(0, 150, n)
        groups = np.sort(rng.integers(0, 3, n))
    elif kind == "periodic":
        # Long periodic runs with splices, as convolution scatter loops
        # produce them; the periods straddle every tested associativity.
        parts = []
        for _ in range(6):
            period = int(rng.integers(2, 10))
            base = rng.integers(0, 40, period)
            parts.append(np.tile(base, int(rng.integers(20, 120))))
            parts.append(rng.integers(0, 40, int(rng.integers(1, 6))))
        vals = np.concatenate(parts)
        groups = np.sort(rng.integers(0, 4, vals.size))
    elif kind == "singletons":
        # Mostly single-position groups between a few longer ones.
        n = 600
        vals = rng.integers(0, 12, n)
        groups = np.arange(n)
        groups[n // 2:] = n // 2 + np.sort(rng.integers(0, 8, n - n // 2))
    else:
        n = 2000
        vals = rng.integers(0, 24, n)
        groups = np.sort(rng.integers(0, 5, n))
    vals = vals.astype(np.int64)
    if kind == "huge-ids":
        # Line ids past int32 whose low 32 bits collide: an int32 cast
        # would merge distinct lines, so the kernels must keep int64.
        # Ids this wide also overflow the bitset kernel's one-key
        # (group, value) sort and take its two-pass sort.
        vals = (vals % 8) + ((vals // 8) << 59)
    return vals, groups.astype(np.int64)


ASSOCS = [1, 2, 3, 4, 5, 6, 8, 16, 32, 64]
KINDS = ["random", "wide", "periodic", "singletons", "huge-ids"]


class TestDispatcherDifferential:
    """The one grouped-LRU dispatcher vs the Python reference.

    Covers both kernels and the associativity that switches between
    them, the >64-distinct fallback inside the bitset kernel, periodic
    runs (stripped by the front end from 6 ways up), single-position
    groups and line ids that do not fit the int32 fast path.
    """

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assoc", ASSOCS)
    def test_hits_match_reference(self, assoc, kind):
        rng = np.random.default_rng(1000 * assoc + KINDS.index(kind))
        vals, groups = collapse_dups(*_random_stream(rng, kind))
        np.testing.assert_array_equal(
            lru_hits_grouped(vals, starts_of(groups), assoc),
            ref_lru_hits(vals, groups, assoc))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assoc", ASSOCS)
    def test_front_end_misses_match_reference(self, assoc, kind):
        # The front end collapses repeats and strips periodic interiors
        # itself, so it takes the raw stream.
        rng = np.random.default_rng(2000 * assoc + KINDS.index(kind))
        vals, groups = _random_stream(rng, kind)
        np.testing.assert_array_equal(
            grouped_lru_misses(vals, starts_of(groups), assoc),
            np.flatnonzero(~ref_lru_hits(vals, groups, assoc)))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assoc", [2, 4, 8, 32])
    def test_group_aligned_slices(self, assoc, kind, monkeypatch):
        # Feeds longer than one slice are cut at group starts; a tiny
        # slice forces many cuts and groups longer than a whole slice.
        monkeypatch.setattr(vectorized, "_CHUNK", 50)
        rng = np.random.default_rng(3000 * assoc + KINDS.index(kind))
        vals, groups = collapse_dups(*_random_stream(rng, kind))
        np.testing.assert_array_equal(
            lru_hits_grouped(vals, starts_of(groups), assoc),
            ref_lru_hits(vals, groups, assoc))

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            lru_hits_grouped(np.arange(3), np.ones(3, dtype=bool), 0)


class TestStripPeriodicMiddles:
    def test_removed_positions_are_unconditional_hits(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assoc = int(rng.integers(6, 17))
            period = int(rng.integers(2, min(assoc, 8)))
            base = rng.integers(0, 50, period) * 64
            vals = np.tile(base, 400).astype(np.int64)
            vals[::53] = int(rng.integers(1000, 2000))
            groups = np.zeros(vals.size, dtype=np.int64)
            vals, groups = collapse_dups(vals, groups)
            starts = np.zeros(vals.size, dtype=bool)
            starts[0] = True
            core = strip_periodic_middles(vals, starts, assoc)
            want = ref_lru_hits(vals, groups, assoc)
            # Everything the strip removes must be a hit...
            assert want[~core].all()
            # ...and the surviving core must replay identically on its own.
            np.testing.assert_array_equal(
                lru_hits_grouped(vals[core], starts[core], assoc),
                ref_lru_hits(vals[core], groups[core], assoc))

    @pytest.mark.parametrize("seed", range(8))
    def test_leaves_no_consecutive_duplicate(self, seed):
        # The dispatcher's shifted-compare kernel needs collapsed feeds,
        # and the front end runs no second collapse after the strip.
        rng = np.random.default_rng(seed)
        for _ in range(20):
            vals, groups = collapse_dups(*_random_stream(rng, "periodic"))
            assoc = int(rng.integers(6, 33))
            starts = starts_of(groups)
            core = strip_periodic_middles(vals, starts, assoc)
            kv, kg = vals[core], starts[core]
            assert not ((kv[1:] == kv[:-1]) & ~kg[1:]).any()


class TestLevelKernels:
    def _reference_level(self, stream, sample_of, num_sets, assoc):
        hits = np.zeros(stream.size, dtype=bool)
        state = {}
        for i, (line, sample) in enumerate(zip(stream.tolist(),
                                               sample_of.tolist())):
            key = (sample, line & (num_sets - 1))
            lst = state.setdefault(key, [])
            if line in lst:
                lst.remove(line)
                lst.append(line)
                hits[i] = True
            else:
                lst.append(line)
                if len(lst) > assoc:
                    lst.pop(0)
        return hits

    def test_lru_level_hits_matches_reference(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 512, 4000).astype(np.int64)
        sample_of = np.sort(rng.integers(0, 5, 4000)).astype(np.int64)
        for num_sets, assoc in ((16, 4), (64, 8), (128, 16)):
            want_hits = self._reference_level(stream, sample_of, num_sets,
                                              assoc)
            misses, feed, feed_sample = lru_level_misses(
                stream, sample_of, num_sets, assoc, 5)
            np.testing.assert_array_equal(
                misses, np.bincount(sample_of[~want_hits], minlength=5))
            # Inside each (sample, set) stream the feed keeps program
            # order, so it must list exactly the reference's misses.
            for s in range(5):
                for k in range(num_sets):
                    got = feed[(feed_sample == s)
                               & ((feed & (num_sets - 1)) == k)]
                    want = stream[(sample_of == s)
                                  & ((stream & (num_sets - 1)) == k)
                                  & ~want_hits]
                    np.testing.assert_array_equal(got, want)

    def test_lru_level_misses_counts_and_feed(self):
        rng = np.random.default_rng(4)
        stream = rng.integers(0, 256, 3000).astype(np.int64)
        sample_of = np.sort(rng.integers(0, 4, 3000)).astype(np.int64)
        num_sets, assoc = 16, 4
        want_hits = self._reference_level(stream, sample_of, num_sets, assoc)
        misses, feed, feed_sample = lru_level_misses(
            stream, sample_of, num_sets, assoc, 4)
        want_misses = np.bincount(sample_of[~want_hits], minlength=4)
        np.testing.assert_array_equal(misses, want_misses)
        # The feed must contain exactly the missed lines; its order is a
        # level-specific (set, sample) order, so compare as multisets per
        # sample.
        for s in range(4):
            got = np.sort(feed[feed_sample == s])
            want = np.sort(stream[(sample_of == s) & ~want_hits])
            np.testing.assert_array_equal(got, want)


class TestTlbHits:
    """The TLB replay: one fully-associative LRU group per sample."""

    CAPACITIES = (1, 4, 32)

    def _reference(self, pages, capacity, resident=()):
        lst = list(resident)
        hits = np.zeros(pages.size, dtype=bool)
        for i, page in enumerate(pages.tolist()):
            if page in lst:
                lst.remove(page)
                hits[i] = True
            elif len(lst) >= capacity:
                lst.pop(0)
            lst.append(page)
        return hits

    def _grouped(self, samples, capacity, resident=()):
        """Each sample as one group behind the resident priming prefix.

        The shape the measurement plan's TLB pass builds; consecutive
        repeats (also across the prefix junction) collapse to hits.
        """
        resident = np.asarray(resident, dtype=np.int64)
        parts = [np.concatenate([resident, pages]) for pages in samples]
        flat = np.concatenate(parts)
        starts = np.zeros(flat.size, dtype=bool)
        counted = np.ones(flat.size, dtype=bool)
        offset = 0
        for part in parts:
            starts[offset] = True
            counted[offset:offset + resident.size] = False
            offset += part.size
        keep = np.ones(flat.size, dtype=bool)
        keep[1:] = (flat[1:] != flat[:-1]) | starts[1:]
        hits = np.ones(flat.size, dtype=bool)
        hits[keep] = lru_hits_grouped(flat[keep], starts[keep], capacity)
        return hits[counted]

    @pytest.mark.parametrize("npages", [8, 50, 200])
    def test_cold_stream(self, npages):
        rng = np.random.default_rng(5)
        samples = [rng.integers(0, npages, size).astype(np.int64)
                   for size in (3000, 1, 700)]
        for capacity in self.CAPACITIES:
            want = np.concatenate([self._reference(pages, capacity)
                                   for pages in samples])
            np.testing.assert_array_equal(
                self._grouped(samples, capacity), want)

    def test_warm_resident_prefix(self):
        rng = np.random.default_rng(6)
        resident = np.arange(100, 124, dtype=np.int64)  # LRU-first order
        samples = [rng.integers(0, 40, 1500).astype(np.int64),
                   np.array([123, 123, 5, 100], dtype=np.int64),
                   rng.integers(95, 130, 400).astype(np.int64)]
        for capacity in self.CAPACITIES:
            warm = resident[-capacity:]
            want = np.concatenate([
                self._reference(pages, capacity, warm.tolist())
                for pages in samples])
            np.testing.assert_array_equal(
                self._grouped(samples, capacity, warm), want)


class TestCounterStatesBefore:
    def _reference(self, group_ids, directions, init, lo, hi):
        states = np.empty(group_ids.size, dtype=np.int64)
        current = {}
        for i, (group, direction) in enumerate(zip(group_ids.tolist(),
                                                   directions.tolist())):
            state = current.get(group)
            if state is None:
                state = int(init[i])
            states[i] = state
            current[group] = min(hi, max(lo, state + direction))
        return states

    @pytest.mark.parametrize("seed", range(4))
    def test_two_bit_counters(self, seed):
        rng = np.random.default_rng(seed)
        n = 2000
        group_ids = rng.integers(0, 17, n).astype(np.uint16)
        directions = rng.choice(np.array([-1, 0, 1]), n)
        table = rng.integers(0, 4, 17)
        init = table[group_ids]
        got = counter_states_before(group_ids, directions, init)
        np.testing.assert_array_equal(
            got, self._reference(group_ids, directions, init, 0, 3))
