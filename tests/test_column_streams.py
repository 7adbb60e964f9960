"""Property tests of the lane-wise stream emulation against per-stream loops.

Every oracle here draws from numpy's own ``Generator``, one ``substream`` at a
time, the way the samplers and the RIP estimate did before they were
vectorized; the vectorized results must match it bit for bit.  The RIP
estimate's oracle is the loop of ``choice`` calls, or a scalar loop of
Floyd's algorithm on the shapes where ``choice`` shuffles instead.
``stream-demo`` is held in the same way to a fold of its block draws with one
column update per update, and the one-sparse OSE sweep to its samplers of
record, one trial at a time.
"""

import contextlib
import hashlib
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sketchbounds import (
    NotNormalized,
    SparseMatrix,
    TooLarge,
    apply,
    check_unit_columns,
    cli,
    column_norms,
    column_sparsity,
    constructions,
    measures,
    ose_failure_probability,
    rip_constant_lower_estimate,
    rng,
    sample_coordinate_subspace,
    sample_countsketch,
    sample_osnap_block,
    sample_sparse_sign_jl,
    witnesses,
)
from sketchbounds.rng import derive_seed, derived_states, lane_draws, spawn_states, substream
from sketchbounds.witnesses import TrialRecord

SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


def loop_matrix(m, n, s, seed, draw_rows):
    """Column j off substream(seed, j): sorted rows, then s signs."""
    rows = np.empty((n, s), dtype=np.int64)
    signs = np.empty((n, s), dtype=np.int64)
    for j in range(n):
        g = substream(seed, j)
        rows[j] = draw_rows(g)
        signs[j] = g.integers(0, 2, size=s)
    data = (signs * 2 - 1) * (1.0 / math.sqrt(s))
    return SparseMatrix.from_csc(m, n, np.arange(n + 1) * s, rows.ravel(), data.ravel())


def loop_sign_jl(m, n, s, seed):
    return loop_matrix(m, n, s, seed, lambda g: np.sort(g.choice(m, size=s, replace=False)))


def loop_osnap(m, n, s, seed):
    b = m // s
    return loop_matrix(m, n, s, seed, lambda g: np.arange(s) * b + g.integers(0, b, size=s))


def assert_same_bytes(A, B):
    assert (A.m, A.n) == (B.m, B.n)
    for a, b in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def substream_calls(monkeypatch):
    """Count the per-column streams a sampler opens."""
    calls = []

    def counted(seed, *path):
        calls.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(constructions, "substream", counted)
    return calls


class TestSeedingAndDraws:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
    def test_spawn_states_match_seed_sequence(self, seed, lanes):
        got = np.stack(spawn_states(seed, np.array(lanes)), axis=1)
        want = [np.random.SeedSequence(entropy=seed, spawn_key=(j,)).generate_state(4, np.uint64)
                for j in lanes]
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.array(want))

    @pytest.mark.parametrize("seed", [0, 7, 123, 2**32 - 1, 2**32 + 5, 2**63 + 5, 2**64 - 1])
    def test_spawn_states_at_fixed_seeds(self, seed):
        lanes = np.array([0, 1, 2, 1000, 2**32 - 1])
        want = [np.random.SeedSequence(entropy=seed, spawn_key=(int(j),)).generate_state(4, np.uint64)
                for j in lanes]
        assert np.array_equal(np.stack(spawn_states(seed, lanes), axis=1), np.array(want))

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.integers(0, 2**32 - 8), st.integers(0, 9))
    def test_lane_draws_are_the_streams_32_bit_halves(self, seed, first, count):
        lanes = np.arange(first, first + 3)
        got = lane_draws(seed, lanes, count)
        for row, j in zip(got, lanes.tolist()):
            raw = substream(seed, j).bit_generator.random_raw((count + 1) // 2)
            halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:count]
            assert np.array_equal(row, halves)


    @pytest.mark.parametrize("entropy", [[0], [1, 2**31, 2**32 - 1], [2**32, 2**32 + 1, 2**63, 2**64 - 1],
                                         [5, 2**32, 7, 2**64 - 1]])
    def test_spawn_states_with_per_lane_entropy(self, entropy):
        # a seed below 2^32 is one SeedSequence word, from 2^32 on two
        got = np.stack(spawn_states(np.array(entropy, dtype=np.uint64)), axis=1)
        want = [np.random.SeedSequence(entropy=e).generate_state(4, np.uint64) for e in entropy]
        assert np.array_equal(got, np.array(want))

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1])
    def test_a_two_word_key_is_derive_seed(self, seed):
        trials = np.array([0, 1, 2**32 - 1])
        for c in (0, 1, 2**32 - 1):
            got = spawn_states(seed, trials, c, words=1)[0]
            assert got.tolist() == [derive_seed(seed, int(t), c) for t in trials]

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3)), min_size=1, max_size=6))
    def test_derived_states_are_the_streams(self, seed, path):
        trials, cs = (np.array(words, dtype=np.uint64) for words in zip(*path))
        want = [substream(derive_seed(seed, t, c)).bit_generator.state for t, c in path]
        assert derived_states(seed, trials, cs) == want
        assert derived_states(seed, trials, int(cs[0])) == [
            substream(derive_seed(seed, t, path[0][1])).bit_generator.state for t, _ in path]

    def test_numpy_seeding_canary(self):
        # The lanes copy numpy's SeedSequence and PCG64 seeding, and the
        # samplers check the copy against numpy on two lanes only, falling
        # back to the real streams when it differs.  A numpy release that
        # seeds otherwise changes every seeded output; it fails here first.
        assert derive_seed(7, 5, 0) == 4874126660533621739
        assert substream(2**31).bit_generator.state["state"] == {
            "state": 81254196147989919254429920274932465425, "inc": 53357903200174359269881312138910803979}
        assert substream(derive_seed(7, 5, 1)).bit_generator.state["state"] == {
            "state": 234307084661355904902738601781916490193, "inc": 302652904035693633911447155534275943855}


def sign_jl_shape(data):
    """(m, n, s) for the sign JL sampler: small m, and m up to 2^40."""
    m = data.draw(st.one_of(st.integers(1, 300), st.integers(1, 2**40)), label="m")
    s = data.draw(st.integers(1, min(m, 12)), label="s")
    return m, data.draw(st.integers(1, 60), label="n"), s


def osnap_shape(data):
    """(m, n, s) for the block sampler: blocks of 1 to 40 rows, and up to 2^33."""
    s = data.draw(st.integers(1, 10), label="s")
    b = data.draw(st.one_of(st.integers(1, 40), st.integers(1, 2**33)), label="b")
    return s * b, data.draw(st.integers(1, 60), label="n"), s


LANE_STEPS = [1, 2, 3, "budget"]


@contextlib.contextmanager
def lanes_of(step):
    """A context in which the sign samplers take `step` lanes a call, or for
    "budget" the budget rule itself, its knobs made small enough to cut these
    shapes (3 lanes for up to 16 words, 2 up to 24, then 1)."""
    with pytest.MonkeyPatch.context() as mp:
        if step == "budget":
            mp.setattr(rng, "_LANES", 1)
            mp.setattr(rng, "_BUDGET", 8 * 16 * 3)
        else:
            mp.setattr(constructions, "lane_count", lambda words: step)
        yield


class TestSamplersMatchTheLoop:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), SEEDS)
    def test_sign_jl(self, data, seed):
        m, n, s = sign_jl_shape(data)
        assert_same_bytes(sample_sparse_sign_jl(m, n, s, seed), loop_sign_jl(m, n, s, seed))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), SEEDS)
    def test_osnap(self, data, seed):
        m, n, s = osnap_shape(data)
        assert_same_bytes(sample_osnap_block(m, n, s, seed), loop_osnap(m, n, s, seed))

    @pytest.mark.parametrize("step", LANE_STEPS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_any_lane_step_gives_the_same_bytes(self, step, data, seed):
        sign_jl, osnap = sign_jl_shape(data), osnap_shape(data)
        with lanes_of(step):
            got = sample_sparse_sign_jl(*sign_jl, seed), sample_osnap_block(*osnap, seed)
        assert_same_bytes(got[0], loop_sign_jl(*sign_jl, seed))
        assert_same_bytes(got[1], loop_osnap(*osnap, seed))

    @pytest.mark.parametrize("step", LANE_STEPS)
    def test_any_lane_step_gives_the_same_bytes_when_lanes_reject(self, step):
        # a range near 2^32: most lanes could reject and fall back
        m, n = 3_000_000_000, 600
        with lanes_of(step):
            got = sample_sparse_sign_jl(m, n, 1, 9), sample_osnap_block(m, n, 1, 9)
        assert_same_bytes(got[0], loop_sign_jl(m, n, 1, 9))
        assert_same_bytes(got[1], loop_osnap(m, n, 1, 9))

    @pytest.mark.parametrize("m, n, s", [
        (256, 300, 8), (64, 300, 4), (30, 200, 30), (1000, 250, 3), (5, 150, 1), (1, 5, 1),
        (12, 100, 12),        # s = m: the j = 0 step makes no draw
        (10001, 20, 200),     # Floyd's cut-off: s = m // 50 still runs Floyd
        (10000, 20, 400),     # and so does m = 10000 for any s
        (10001, 20, 201),     # the tail shuffle
        (20000, 10, 401),
        (2**32, 20, 2),       # a range of 2^32 takes numpy's raw 32-bit path
    ])
    def test_sign_jl_fixed_shapes(self, m, n, s):
        assert_same_bytes(sample_sparse_sign_jl(m, n, s, 7), loop_sign_jl(m, n, s, 7))

    @pytest.mark.parametrize("m, n, s", [(256, 300, 8), (30, 300, 3), (8, 50, 8), (2**33, 20, 2)])
    def test_osnap_fixed_shapes(self, m, n, s):
        # (8, 50, 8) has blocks of one row, which numpy fills without a draw
        assert_same_bytes(sample_osnap_block(m, n, s, 7), loop_osnap(m, n, s, 7))

    def test_n_not_a_multiple_of_the_chunk(self, monkeypatch):
        # two full chunks and part of a third, at the lanes the budget gives a
        # lane's 3s - 1 words (sign JL) and 2s words (blocks)
        calls = []
        monkeypatch.setattr(constructions, "lane_draws", lambda *args: calls.append(args) or lane_draws(*args))
        n = 2 * rng.lane_count(3 * 4 - 1) + 37
        assert_same_bytes(sample_sparse_sign_jl(64, n, 4, 2**63 + 5), loop_sign_jl(64, n, 4, 2**63 + 5))
        n = 2 * rng.lane_count(2 * 4) + 37
        assert_same_bytes(sample_osnap_block(64, n, 4, 3), loop_osnap(64, n, 4, 3))
        assert len(calls) == 6

    @pytest.mark.parametrize("sampler, m, n, s", [
        (sample_sparse_sign_jl, 256, 3000, 8),
        (sample_sparse_sign_jl, 12, 100, 12),       # s = m
        (sample_sparse_sign_jl, 10001, 30, 200),    # Floyd's cut-off
        (sample_sparse_sign_jl, 10000, 30, 400),
        (sample_osnap_block, 8, 50, 8),             # blocks of one row
        (sample_osnap_block, 16, 300, 16),
    ])
    def test_emulated_lanes_open_only_the_two_guard_streams(self, substream_calls, sampler, m, n, s):
        sampler(m, n, s, 7)
        assert substream_calls == [(0,), (n - 1,)]

    def test_lanes_that_could_reject_fall_back(self, substream_calls):
        # a range near 2^32 makes most draws possible rejections
        m, n = 3_000_000_000, 600
        A = sample_sparse_sign_jl(m, n, 1, 9)
        assert len(substream_calls) > n // 2
        assert_same_bytes(A, loop_sign_jl(m, n, 1, 9))
        B = sample_osnap_block(m, n, 1, 9)
        assert_same_bytes(B, loop_osnap(m, n, 1, 9))

    def test_shapes_numpy_samples_otherwise_loop_over_every_column(self, substream_calls):
        sample_sparse_sign_jl(10001, 20, 201, 7)
        assert substream_calls == [(j,) for j in range(20)]

    def test_a_guard_mismatch_runs_the_loop_with_the_same_bytes(self, monkeypatch, substream_calls):
        want = sample_sparse_sign_jl(64, 500, 4, 11)
        del substream_calls[:]
        monkeypatch.setattr(constructions, "_emulation_agrees", lambda *args: False)
        got = sample_sparse_sign_jl(64, 500, 4, 11)
        assert substream_calls == [(j,) for j in range(500)]
        assert_same_bytes(got, want)
        assert_same_bytes(sample_osnap_block(64, 500, 4, 11), loop_osnap(64, 500, 4, 11))


def loop_ose_records(m, d, n, trials, seed):
    """Each trial off its samplers of record, one map and one subspace at a
    time, with the loads counted by ``np.unique``."""
    records = []
    for trial in range(trials):
        a = sample_countsketch(m, n, derive_seed(seed, trial, 0)).a
        subset = sample_coordinate_subspace(n, d, derive_seed(seed, trial, 1))
        load = int(np.unique(a[list(subset)], return_counts=True)[1].max())
        heavy = int(np.count_nonzero(np.unique(a, return_counts=True)[1] >= n / (10.0 * m)))
        records.append(TrialRecord(failed=load > 1, sigma_min=0.0 if load > 1 else 1.0,
                                   sigma_max=math.sqrt(load), heavy_rows=heavy))
    return tuple(records)


@pytest.fixture
def seeding_calls(monkeypatch):
    """Count the ``substream`` and ``derive_seed`` calls made through any module."""
    calls = {"substream": 0, "derive_seed": 0}
    for name in calls:
        original = getattr(rng, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (rng, constructions, witnesses, measures, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestOseTrialsMatchTheLoop:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), SEEDS)
    def test_random_shapes(self, data, seed):
        m = data.draw(st.one_of(st.integers(1, 300), st.integers(2**32, 2**63)), label="m")
        n = data.draw(st.integers(1, 300), label="n")
        d = data.draw(st.integers(1, min(n, 12)), label="d")
        # up to 40 trials, so one block holds many trials with repeated rows
        trials = data.draw(st.integers(1, 40), label="trials")
        assert ose_failure_probability(m, d, n, trials, seed).records == loop_ose_records(m, d, n, trials, seed)

    @pytest.mark.parametrize("m, d, n, trials", [
        (1, 1, 1, 3), (2, 2, 5, 4), (64, 8, 256, 20), (3000, 8, 256, 5),
        (1000, 8, 10000, 20),     # the heavy cut n / (10 m) is 1: a row hit once is heavy
        (256, 300, 20000, 2),     # choice shuffles the tail of an arange here
        (2**40, 201, 10001, 2),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**63 + 5, 2**64 - 1])
    def test_fixed_shapes(self, m, d, n, trials, seed):
        assert ose_failure_probability(m, d, n, trials, seed).records == loop_ose_records(m, d, n, trials, seed)

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    def test_trial_states_are_the_real_streams(self, monkeypatch, lanes, seed):
        monkeypatch.setattr(witnesses, "_LANES", lanes)
        for trials in range(1, 8):
            want = [tuple(substream(derive_seed(seed, t, c)).bit_generator.state for c in (0, 1))
                    for t in range(trials)]
            assert list(witnesses._trial_states(seed, trials)) == want

    @pytest.mark.parametrize("trials", [1, 2, 3, 4, 5, 9, 10])
    def test_chunks_of_three_trials(self, monkeypatch, trials):
        monkeypatch.setattr(witnesses, "_LANES", 3)
        assert ose_failure_probability(32, 4, 64, trials, 9).records == loop_ose_records(32, 4, 64, trials, 9)

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    @pytest.mark.parametrize("m, d, n", [(1, 1, 1), (5, 3, 40), (64, 8, 256), (2**40, 4, 64)])
    def test_blocks_of_one_two_and_three_trials(self, monkeypatch, per_block, m, d, n):
        monkeypatch.setattr(witnesses, "_BUDGET", 8 * n * per_block)
        for trials in range(1, 3 * per_block + 2):
            assert ose_failure_probability(m, d, n, trials, 4).records == loop_ose_records(m, d, n, trials, 4)

    def test_memory_stays_near_the_block_budget(self):
        # all 300 trials' rows at once would be 48 MB; a block holds 6 trials
        tracemalloc.start()
        try:
            rep = ose_failure_probability(2**20, 8, 20000, 300, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * witnesses._BUDGET, peak
        assert rep.records == loop_ose_records(2**20, 8, 20000, 300, 3)

    def test_run_arrays_stay_small_when_every_row_is_hit_once(self):
        # at m = 2^40 nearly every map row of a 6-trial block is a run of its
        # own, 120,000 runs where m = 64 gives 384
        ose_failure_probability(64, 8, 256, 3, 3)  # first-call allocations
        peaks = {}
        for m in (64, 2**40):
            tracemalloc.start()
            try:
                ose_failure_probability(m, 8, 20000, 300, 3)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2**40] - peaks[64] < 3 * 2**20, peaks

    def test_more_than_2_32_trials_refused(self, seeding_calls):
        # a trial index of 2^32 would be two SeedSequence words
        with pytest.raises(TooLarge, match="2\\^32 trials"):
            ose_failure_probability(32, 4, 64, 2**32 + 1, 9)
        assert seeding_calls == {"substream": 0, "derive_seed": 0}

    def test_the_sweep_opens_only_the_guard_streams(self, seeding_calls):
        # trials 0 and 299 open both their streams; the rest are derived
        ose_failure_probability(64, 8, 256, 300, 7)
        assert seeding_calls == {"substream": 4, "derive_seed": 4}

    @pytest.mark.parametrize("trial, c", [(0, 0), (39, 1)])
    def test_a_wrong_derived_state_sends_every_trial_to_its_real_streams(self, monkeypatch, seeding_calls,
                                                                         trial, c):
        want = loop_ose_records(64, 8, 256, 40, 3)

        def wrong(seed, trials, cs):
            states = derived_states(seed, trials, cs)
            for lane in np.flatnonzero((trials == trial) & (cs == c)).tolist():
                state = states[lane]["state"]
                states[lane] = {**states[lane], "state": {**state, "inc": state["inc"] ^ 2}}
            return states

        monkeypatch.setattr(witnesses, "derived_states", wrong)
        seeding_calls.update(substream=0, derive_seed=0)
        assert ose_failure_probability(64, 8, 256, 40, 3).records == want
        # the two guard trials' 4 streams, then all 40 trials' 80 in the chunk,
        # the guard trials among them
        assert seeding_calls == {"substream": 84, "derive_seed": 84}

    def test_memory_does_not_grow_with_the_rows(self):
        # a count per row of m = 2^40 rows would take 8 TiB
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rep = ose_failure_probability(2**40, 4, 64, 3, 5)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.records == loop_ose_records(2**40, 4, 64, 3, 5)
        assert peak < 2**20 and elapsed < 1.0


def choice_takes_floyds_path(n, k):
    """Whether ``Generator.choice(n, k, replace=False)`` runs Floyd's
    algorithm; it shuffles the tail of an arange when n > 10000 and
    k > n // 50."""
    return not (n > 10000 and k > n // 50)


def choice_supports(n, k, trials, seed):
    g = substream(seed)
    return np.array([np.sort(g.choice(n, size=k, replace=False)) for _ in range(trials)])


def floyd_supports(n, k, trials, seed):
    """Floyd's algorithm one scalar draw at a time, each step's value or,
    when it is taken already, its j; then the k - 1 draws of the shuffle."""
    g = substream(seed)
    out = []
    for _ in range(trials):
        taken = set()
        for j in range(n - k, n):
            value = int(g.integers(0, j + 1))
            taken.add(j if value in taken else value)
        for i in range(k - 1, 0, -1):
            g.integers(0, i + 1)
        out.append(sorted(taken))
    return np.array(out)


def loop_supports(n, k, trials, seed):
    """The per-trial loop: ``choice`` where it runs Floyd's algorithm, the
    scalar Floyd loop on the shapes where it shuffles instead."""
    oracle = choice_supports if choice_takes_floyds_path(n, k) else floyd_supports
    return oracle(n, k, trials, seed)


def chunked_supports(n, k, trials, seed, size):
    g = substream(seed)
    return np.concatenate([measures._draw_supports(g, n, k, min(size, trials - start))
                           for start in range(0, trials, size)])


class TestEstimateSupports:
    @pytest.mark.parametrize("n, k, trials", [
        (60, 8, 5000), (60, 3, 7777), (10000, 5, 3000), (20, 19, 999),
        (20, 20, 60),          # k = n: the j = 0 step makes no draw
        (1, 1, 5),             # no draw at all
        (20000, 401, 4),       # choice shuffles the tail here; the estimate runs Floyd
        (3_000_000_000, 2, 300),  # bounds near 2^32, where draws reject
        (2**40, 3, 50),        # 64-bit bounded draws
    ])
    @pytest.mark.parametrize("size", [1, 7, 256])
    def test_chunks_match_the_per_trial_loop(self, n, k, trials, size):
        for seed in (3, 2**63 + 1):
            assert np.array_equal(chunked_supports(n, k, trials, seed, size), loop_supports(n, k, trials, seed))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), SEEDS)
    def test_random_shapes(self, data, seed):
        n = data.draw(st.integers(1, 200), label="n")
        k = data.draw(st.integers(1, min(n, 10)), label="k")
        trials = data.draw(st.integers(1, 120), label="trials")
        size = data.draw(st.integers(1, 50), label="size")
        want = choice_supports(n, k, trials, seed)
        assert np.array_equal(floyd_supports(n, k, trials, seed), want)
        assert np.array_equal(chunked_supports(n, k, trials, seed, size), want)

    @pytest.mark.parametrize("n, k", [(10001, 201), (12000, 12000), (50000, 1001)])
    def test_tail_shuffle_shapes_follow_the_scalar_floyd_loop(self, n, k):
        assert not choice_takes_floyds_path(n, k)
        for size in (1, 7, 256):
            assert np.array_equal(chunked_supports(n, k, 3, 5, size), floyd_supports(n, k, 3, 5))

    @pytest.mark.parametrize("n, k", [(60, 8), (20, 20), (20000, 401)])
    @pytest.mark.parametrize("size", [1, 7, 256])
    def test_a_longer_run_extends_a_shorter_one(self, n, k, size):
        longer = chunked_supports(n, k, 40, 9, 256)
        for trials in (1, 6, 7, 8, 39):
            assert np.array_equal(chunked_supports(n, k, trials, 9, size), longer[:trials])

    def test_numpy_bounded_draws_canary(self):
        # The estimate's supports are numpy's own Generator.integers draws
        # with an array of bounds, with no check against another stream.  A
        # numpy release that draws them otherwise changes every sampled
        # estimate; it fails here first.
        highs = np.array([58, 59, 60, 3, 2**40])
        assert substream(7).integers(0, highs, size=(2, 5)).tolist() == [
            [54, 36, 41, 2, 852875435924], [48, 13, 3, 0, 960482170696]]


def loop_norms(A):
    return np.sqrt([vals @ vals for vals in np.split(A.data, A.indptr[1:-1])])


class TestColumnNorms:
    @pytest.mark.parametrize("s", [*range(1, 10), 16, 17, 33, 64, 129, 1000])
    def test_stacked_norms_match_the_per_column_dot(self, s):
        rng = np.random.default_rng(s)
        n = 200
        data = rng.standard_normal(n * s) * rng.uniform(0.01, 100.0, size=n * s)
        A = SparseMatrix.from_csc(s, n, np.arange(n + 1) * s, np.tile(np.arange(s), n), data)
        assert column_norms(A).tobytes() == loop_norms(A).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_columns(self, data):
        m = data.draw(st.integers(1, 12), label="m")
        n = data.draw(st.integers(1, 12), label="n")
        ragged = data.draw(st.booleans(), label="ragged")
        counts = [data.draw(st.integers(0 if ragged else 1, m)) for _ in range(n)] if ragged else [m] * n
        values = st.floats(-1e3, 1e3, allow_nan=False).filter(bool)
        entries = data.draw(st.lists(values, min_size=sum(counts), max_size=sum(counts)), label="values")
        indices = np.concatenate([np.arange(c) for c in counts]).astype(np.int64)
        A = SparseMatrix.from_csc(m, n, np.concatenate([[0], np.cumsum(counts)]), indices, entries)
        assert column_norms(A).tobytes() == loop_norms(A).tobytes()

    def test_check_unit_columns_names_the_first_bad_column(self):
        A = SparseMatrix.from_csc(2, 4, [0, 1, 2, 3, 4], [0, 1, 0, 1], [1.0, 0.5, 2.0, 1.0])
        with pytest.raises(NotNormalized) as err:
            check_unit_columns(A)
        assert (err.value.column, err.value.norm) == (1, 0.5)


def loop_stream_demo(m, n, s, updates, seed, block):
    """stream-demo's summary from the same block draws, one column update at a time."""
    A = sample_sparse_sign_jl(m, n, s, derive_seed(seed, 0))
    g = substream(seed, 1)
    sketch, x = np.zeros(m), np.zeros(n)
    for start in range(0, updates, block):
        size = min(block, updates - start)
        draws = g.integers(0, n, size=size)
        for i, v in zip(draws.tolist(), g.uniform(-1.0, 1.0, size=size).tolist()):
            rows, vals = A.column(i)
            sketch[rows] += v * vals
            x[i] += v
    return {"updates": updates, "max_abs_deviation": float(np.max(np.abs(sketch - apply(A, x)))),
            "column_sparsity": column_sparsity(A)}


# stdout of the benchmark's stream-demo: m=256, n=10000, s=8, 20,000 updates,
# seed 12345
STREAM_DEMO_SHA256 = "c6190e7f0c98629ab4491c5409cf8c9b7b9b549b23f581fdca1c4a6cda41fcd6"


def stream_demo(tmp_path, capsys, m, n, s, updates, seed):
    path = tmp_path / "stream.json"
    path.write_text(json.dumps({"command": "stream-demo", "seed": seed,
                                "params": {"m": m, "n": n, "s": s, "updates": updates}}))
    assert cli.main(["stream-demo", "--config", str(path)]) == 0
    return capsys.readouterr().out


class TestStreamDemoMatchesTheLoop:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data(), SEEDS)
    def test_summary_bits(self, tmp_path_factory, capsys, monkeypatch, data, seed):
        # blocks of 7 and 64 updates: most runs draw and fold several blocks
        block = data.draw(st.sampled_from([7, 64, 1 << 16]), label="block")
        monkeypatch.setattr(cli, "_STREAM_BLOCK", block)
        m = data.draw(st.integers(1, 40), label="m")
        s = data.draw(st.integers(1, min(m, 6)), label="s")
        n = data.draw(st.integers(1, 300), label="n")
        updates = data.draw(st.integers(1, 200), label="updates")
        summary = json.loads(stream_demo(tmp_path_factory.mktemp("demo"), capsys, m, n, s, updates, seed))["summary"]
        assert summary == loop_stream_demo(m, n, s, updates, seed, block)

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("block", [7, 64])
    def test_counts_at_block_boundaries(self, tmp_path, capsys, monkeypatch, block, blocks, extra):
        # one update short of, at and one past a full block, and a short last block
        monkeypatch.setattr(cli, "_STREAM_BLOCK", block)
        updates = blocks * block + extra
        summary = json.loads(stream_demo(tmp_path, capsys, 10, 30, 3, updates, 11))["summary"]
        assert summary == loop_stream_demo(10, 30, 3, updates, 11, block)

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 10000])
    def test_ranges(self, tmp_path, capsys, monkeypatch, n):
        # n = 1 sends every update to column 0, so x and the sketch add up one column
        monkeypatch.setattr(cli, "_STREAM_BLOCK", 64)
        summary = json.loads(stream_demo(tmp_path, capsys, 12, n, 3, 1001, 11))["summary"]
        assert summary == loop_stream_demo(12, n, 3, 1001, 11, 64)

    @pytest.mark.parametrize("seed", [0, 7, 123, 2**32 - 1, 2**32 + 5, 2**63 + 5, 2**64 - 1])
    def test_fixed_seeds(self, tmp_path, capsys, seed):
        summary = json.loads(stream_demo(tmp_path, capsys, 16, 40, 4, 300, seed))["summary"]
        assert summary == loop_stream_demo(16, 40, 4, 300, seed, 1 << 16)

    def test_a_second_block_at_the_real_size(self, tmp_path, capsys):
        updates = cli._STREAM_BLOCK + 7
        summary = json.loads(stream_demo(tmp_path, capsys, 12, 50, 3, updates, 7))["summary"]
        assert summary == loop_stream_demo(12, 50, 3, updates, 7, 1 << 16)

    def test_perfbench_size(self, tmp_path, capsys):
        out = stream_demo(tmp_path, capsys, 256, 10000, 8, 20000, 12345)
        assert hashlib.sha256(out.encode()).hexdigest() == STREAM_DEMO_SHA256

    @pytest.mark.parametrize("block", [7, 1 << 16])
    def test_perfbench_size_matches_the_loop(self, tmp_path, capsys, monkeypatch, block):
        monkeypatch.setattr(cli, "_STREAM_BLOCK", block)
        summary = json.loads(stream_demo(tmp_path, capsys, 256, 10000, 8, 20000, 12345))["summary"]
        assert summary == loop_stream_demo(256, 10000, 8, 20000, 12345, block)
