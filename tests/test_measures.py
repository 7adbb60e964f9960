"""Coherence, restricted isometry constants, distortion, and profiles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sketchbounds import (
    Code,
    EmptyIndexSet,
    InvalidCount,
    InvalidDimension,
    InvalidSparsity,
    NonpositiveThreshold,
    NoScaleFound,
    NotNormalized,
    OneSparseMap,
    SparseMatrix,
    TooFewColumns,
    TooManySupports,
    apply,
    check_unit_columns,
    code_max_agreement,
    code_to_incoherent,
    coherence,
    column_norms,
    dyadic_scale_count,
    random_code,
    rip_constant_exact,
    rip_constant_lower_estimate,
    row_mass_profile,
    scale_profile,
    subspace_distortion,
)
from sketchbounds import measures
from sketchbounds.rng import substream

from conftest import dense, unit_random_sparse

R2 = 1.0 / math.sqrt(2.0)


class TestUnitCheck:
    def test_passes_on_unit_columns(self):
        check_unit_columns(dense(np.eye(3)))

    def test_reports_offending_column(self):
        A = dense([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(NotNormalized) as err:
            check_unit_columns(A)
        assert err.value.column == 1
        assert err.value.norm == 2.0


class TestCoherence:
    def test_identity_is_orthonormal(self):
        assert coherence(dense(np.eye(4))) == 0.0

    def test_duplicate_columns(self):
        A = dense([[1.0, 1.0], [0.0, 0.0]])
        assert abs(coherence(A) - 1.0) <= 1e-12

    def test_hand_value(self):
        A = dense([[1.0, R2], [0.0, R2]])
        assert abs(coherence(A) - R2) <= 1e-12

    def test_needs_two_columns(self):
        with pytest.raises(TooFewColumns):
            coherence(dense([[1.0], [0.0]]))

    def test_requires_unit_columns(self):
        with pytest.raises(NotNormalized):
            coherence(dense([[2.0, 0.0], [0.0, 1.0]]))

    def test_blockwise_matches_dense_gram(self):
        # more columns than the 512-wide block, so the tiled path is exercised
        rng = substream(77)
        A = unit_random_sparse(12, 1100, 4, rng)
        D = A.to_dense()
        G = np.abs(D.T @ D)
        np.fill_diagonal(G, 0.0)
        assert abs(coherence(A) - float(G.max())) <= 1e-12

    @staticmethod
    def per_block_coherence(A):
        """The earlier implementation, which densified one 1024-column block
        at a time through `submatrix_dense` and cached every block."""
        block = 1024
        best = 0.0
        dense_blocks = {}

        def get_block(a):
            if a not in dense_blocks:
                dense_blocks[a] = A.submatrix_dense(range(a, min(a + block, A.n)))
            return dense_blocks[a]

        for a in range(0, A.n, block):
            Da = get_block(a)
            for b in range(a, A.n, block):
                G = Da.T @ get_block(b)
                if a == b:
                    np.fill_diagonal(G, 0.0)
                best = max(best, float(np.abs(G).max()))
        return best

    @pytest.mark.parametrize("seed,m,n,nnz", [
        (1, 16, 1025, 3), (2, 24, 1500, 7), (3, 40, 2049, 12), (4, 9, 2100, 9), (5, 64, 3100, 5),
    ])
    def test_column_slices_match_per_block_copies_bit_for_bit(self, seed, m, n, nnz):
        # gaussian unit columns: the products are not dyadic, so a different
        # reduction order would show in the last bit
        A = unit_random_sparse(m, n, nnz, substream(seed))
        assert coherence(A) == self.per_block_coherence(A)

    @staticmethod
    def slices_1024_coherence(A):
        """The earlier implementation, with Gram products of 1024-column slices."""
        block = 1024
        best = 0.0
        D = A.to_dense()
        for a in range(0, A.n, block):
            Da = D[:, a:a + block]
            for b in range(a, A.n, block):
                G = Da.T @ D[:, b:b + block]
                if a == b:
                    np.fill_diagonal(G, 0.0)
                best = max(best, float(np.abs(G).max()))
        return best

    @pytest.mark.parametrize("m", [1, 2, 3, 17, 64, 256])
    @pytest.mark.parametrize("n", [2, 513, 514, 1025, 1026, 1537, 2049, 2050, 3073])
    def test_512_slices_match_1024_slices_bit_for_bit(self, m, n):
        # remainders of one and two columns on both block widths; half the
        # entries are gaussian, so no product is dyadic (except at m = 1)
        rng = np.random.default_rng([m, n])
        D = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
        D[0, ~D.any(axis=0)] = 1.0
        A = SparseMatrix.from_dense(D / np.sqrt((D * D).sum(axis=0)))
        assert coherence(A) == self.slices_1024_coherence(A)


def sign_matrix(m, n, s, seed, patterns, scale):
    """A +-c matrix with s entries per column and its int64 sign pattern.

    Columns repeat one of `patterns` row sets with random signs, so a few
    patterns give counts up to s.  c is fl(1/sqrt(s)) times `scale`, which
    stays within the unit-norm tolerance."""
    rng = np.random.default_rng(seed)
    rows = np.sort(np.array([rng.choice(m, size=s, replace=False) for _ in range(patterns)]), axis=1)
    indices = rows[rng.integers(patterns, size=n)].ravel()
    signs = np.where(rng.random(n * s) < 0.5, -1, 1)
    c = 1.0 / math.sqrt(s) * scale
    A = SparseMatrix.from_csc(m, n, np.arange(n + 1) * s, indices, signs * c)
    S = np.zeros((m, n), dtype=np.int64)
    S[indices, np.repeat(np.arange(n), s)] = signs
    return A, S, c


@st.composite
def sign_matrices(draw):
    m = draw(st.integers(1, 40))
    n = draw(st.one_of(st.integers(2, 40), st.sampled_from([511, 512, 513, 1023, 1024, 1025, 1537])))
    s = draw(st.integers(1, min(m, 9)))
    patterns = draw(st.integers(1, 2 * n))
    scale = draw(st.sampled_from([1.0, 1.0 + 2.0**-40, 1.0 - 3.0**-30]))
    return sign_matrix(m, n, s, draw(st.integers(0, 2**32)), patterns, scale)


class TestIntegerCoherence:
    """Constant-magnitude matrices: coherence is c^2 times the largest
    off-diagonal |count|, rounded once."""

    @staticmethod
    def exact(S, c):
        G = np.abs(S.T @ S)
        np.fill_diagonal(G, 0)
        return float(Fraction(c) ** 2 * int(G.max()))

    @settings(max_examples=60, deadline=None)
    @given(sign_matrices())
    @example(sign_matrix(1, 2, 1, 0, 1, 1.0))
    @example(sign_matrix(3, 513, 2, 1, 1026, 1.0))
    @example(sign_matrix(8, 1025, 8, 2, 1, 1.0))
    def test_equals_rounded_integer_gram(self, sample):
        A, S, c = sample
        assert coherence(A) == self.exact(S, c)

    def test_large_count_is_exact(self):
        # 2999 is odd and above 2^11, so a narrower float than float32 would round it
        m = 3001
        c = 1.0 / math.sqrt(m)
        D = np.full((m, 2), c)
        D[0, 1] = -c
        assert coherence(SparseMatrix.from_dense(D)) == float(Fraction(c) ** 2 * 2999)

    def test_code_matrix_value_is_rounded_once(self):
        # count 4 at c = fl(1/sqrt(8)); a float64 Gram gave 0.49999999999999994
        B = code_to_incoherent(random_code(16, 8, 400, 0.5, 4))
        assert coherence(B) == 0.4999999999999999 == float(Fraction(float(B.data[0])) ** 2 * 4)

    def test_past_float32_rows_takes_the_float64_gram(self, monkeypatch):
        # with OpenBLAS this is 0.49999999999999994, one ulp off the exact path's value
        B = code_to_incoherent(random_code(16, 8, 400, 0.5, 4))
        monkeypatch.setattr(measures, "_FLOAT32_EXACT_ROWS", B.m - 1)
        assert coherence(B) == TestCoherence.slices_1024_coherence(B)


class TestRipExact:
    def test_identity_has_zero_delta(self):
        A = dense(np.eye(6))
        for k in range(1, 5):
            est = rip_constant_exact(A, k)
            assert abs(est.delta) <= 1e-12
            assert est.mode == "exact"

    def test_duplicate_columns_delta_one(self):
        A = dense([[1.0, 1.0], [0.0, 0.0]])
        est = rip_constant_exact(A, 2)
        assert abs(est.delta - 1.0) <= 1e-12
        assert est.worst_support == (0, 1)

    def test_hand_value_two_by_three(self):
        A = dense([[1.0, 0.0, R2], [0.0, 1.0, R2]])
        est = rip_constant_exact(A, 2)
        assert abs(est.delta - R2) <= 1e-9
        # supports (0,2) and (1,2) tie; the scan keeps the first
        assert est.worst_support == (0, 2)

    def test_k_equals_one_measures_norms(self):
        A = dense(np.diag([1.0, 0.5, 2.0]))
        est = rip_constant_exact(A, 1)
        assert est.delta == 3.0
        assert est.worst_support == (2,)
        assert est.worst_direction.tolist() == [0.0, 0.0, 1.0]

    def test_direction_achieves_delta(self):
        rng = substream(5)
        A = unit_random_sparse(6, 12, 3, rng)
        est = rip_constant_exact(A, 3)
        v = est.worst_direction
        assert abs(float(v @ v) - 1.0) <= 1e-12
        assert np.count_nonzero(v) <= 3
        y = apply(A, v)
        assert abs(abs(float(y @ y) - 1.0) - est.delta) <= 1e-9
        # sign canonicalization: first nonzero entry is positive
        nz = np.nonzero(v)[0]
        assert v[nz[0]] > 0

    def test_monotone_in_k(self):
        rng = substream(6)
        A = unit_random_sparse(6, 12, 3, rng)
        deltas = [rip_constant_exact(A, k).delta for k in range(1, 5)]
        for a, b in zip(deltas, deltas[1:]):
            assert a <= b + 1e-12

    def test_gershgorin_cap_on_code_matrices(self):
        # delta_k <= (k-1) * coherence for unit columns
        for seed in range(3):
            c = random_code(5, 4, 10, 0.5, seed=seed)
            A = code_to_incoherent(c)
            mu = coherence(A)
            for k in (2, 3):
                assert rip_constant_exact(A, k).delta <= (k - 1) * mu + 1e-9

    def test_domain_and_guard(self):
        A = dense(np.eye(3))
        with pytest.raises(InvalidDimension):
            rip_constant_exact(A, 0)
        with pytest.raises(InvalidDimension):
            rip_constant_exact(A, 4)
        wide = dense(np.eye(50))
        with pytest.raises(TooManySupports):
            rip_constant_exact(wide, 5)  # C(50, 5) > 10^6

    def test_non_integer_k_is_refused(self):
        with pytest.raises(InvalidDimension, match="k must be an integer, got 2.0"):
            rip_constant_exact(dense(np.eye(3)), 2.0)


class TestRipLowerEstimate:
    def test_never_exceeds_exact(self):
        rng = substream(8)
        A = unit_random_sparse(6, 10, 3, rng)
        exact = rip_constant_exact(A, 2).delta
        est = rip_constant_lower_estimate(A, 2, trials=40, seed=0)
        assert est.mode == "lower_estimate"
        assert est.delta <= exact + 1e-12

    def test_monotone_in_trials(self):
        # a longer run with the same seed extends the shorter run's stream
        rng = substream(9)
        A = unit_random_sparse(8, 14, 3, rng)
        d10 = rip_constant_lower_estimate(A, 3, trials=10, seed=4).delta
        d50 = rip_constant_lower_estimate(A, 3, trials=50, seed=4).delta
        d200 = rip_constant_lower_estimate(A, 3, trials=200, seed=4).delta
        assert d10 <= d50 <= d200

    def test_deterministic(self):
        rng = substream(10)
        A = unit_random_sparse(8, 14, 3, rng)
        a = rip_constant_lower_estimate(A, 2, trials=25, seed=7)
        b = rip_constant_lower_estimate(A, 2, trials=25, seed=7)
        assert a.delta == b.delta
        assert a.worst_support == b.worst_support

    def test_reported_support_achieves_delta(self):
        rng = substream(11)
        A = unit_random_sparse(8, 14, 3, rng)
        est = rip_constant_lower_estimate(A, 3, trials=30, seed=2)
        assert len(est.worst_support) == 3
        v = est.worst_direction
        y = apply(A, v)
        assert abs(abs(float(y @ y)) / float(v @ v) - (1 + est.delta)) <= 1e-9 or \
            abs(abs(float(y @ y)) / float(v @ v) - (1 - est.delta)) <= 1e-9

    def test_domain(self):
        A = dense(np.eye(3))
        with pytest.raises(InvalidCount):
            rip_constant_lower_estimate(A, 2, trials=0, seed=0)
        with pytest.raises(InvalidDimension):
            rip_constant_lower_estimate(A, 9, trials=1, seed=0)

    def test_non_integer_k_is_refused(self):
        with pytest.raises(InvalidDimension, match="k must be an integer, got 2.0"):
            rip_constant_lower_estimate(dense(np.eye(3)), 2.0, trials=5, seed=0)

    def test_non_integer_trials_is_refused(self):
        with pytest.raises(InvalidDimension, match="trials must be an integer, got 2.5"):
            rip_constant_lower_estimate(dense(np.eye(3)), 2, trials=2.5, seed=0)


# --- the stacked RIP against the per-support loop ---------------------------------

def per_support_delta(A, support):
    """delta on one support, one eigensolve at a time: the earlier kernel."""
    B = A.submatrix_dense(support)
    w = np.linalg.eigvalsh(B.T @ B)
    lo, hi = float(w[0]), float(w[-1])
    return max(hi - 1.0, 1.0 - lo)


def loop_exact(A, k):
    """The earlier `rip_constant_exact`: one eigensolve per support in
    lexicographic order, replacing the best only on a strict >."""
    if k == 1:
        norms_sq = column_norms(A) ** 2
        deltas = np.maximum(norms_sq - 1.0, 1.0 - norms_sq)
        j = int(np.argmax(deltas))
        return measures._finish_estimate(A, k, "exact", (j,), float(deltas[j]))
    best_delta, best_support = -math.inf, ()
    for support in itertools.combinations(range(A.n), k):
        delta = per_support_delta(A, support)
        if delta > best_delta:
            best_delta, best_support = delta, support
    return measures._finish_estimate(A, k, "exact", best_support, best_delta)


def loop_estimate(A, k, trials, seed):
    """The earlier `rip_constant_lower_estimate`: one draw and one eigensolve
    per trial."""
    g = substream(seed)
    best_delta, best_support = -math.inf, ()
    for _ in range(trials):
        support = tuple(int(i) for i in np.sort(g.choice(A.n, size=k, replace=False)))
        delta = per_support_delta(A, support)
        if delta > best_delta:
            best_delta, best_support = delta, support
    return measures._finish_estimate(A, k, "lower_estimate", best_support, best_delta)


def same_estimate(a, b):
    return (a.delta == b.delta and a.worst_support == b.worst_support
            and a.worst_direction.tobytes() == b.worst_direction.tobytes())


@st.composite
def rip_inputs(draw):
    """(A, k): gaussian entries (not dyadic), some columns repeated so that
    supports tie, m from 1 up and often below k, and k from 1 to 4."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(4, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.7) / math.sqrt(m)
    repeat = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.6]))
    D[:, repeat] = D[:, rng.integers(0, n, size=int(repeat.sum()))]
    return SparseMatrix.from_dense(D), k


TIED = SparseMatrix.from_dense(np.array([[0.6, 0.6, 0.6, 0.3], [0.7, 0.7, 0.7, 0.1]]))


class TestStackedRipMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(rip_inputs(), st.integers(0, 2**16))
    @example((TIED, 2), 0)
    @example((TIED, 3), 1)
    def test_bit_for_bit_with_chunks_of_one_two_and_three(self, inp, seed):
        A, k = inp
        exact, estimate = loop_exact(A, k), loop_estimate(A, k, 12, seed)
        with pytest.MonkeyPatch.context() as mp:
            # the default budget, then chunks of 1, 2 and 3 supports: ties
            # fall on chunk boundaries
            for per_chunk in (None, 1, 2, 3):
                if per_chunk is not None:
                    mp.setattr(measures, "_CHUNK_BYTES", 8 * k * A.m * per_chunk)
                assert same_estimate(rip_constant_exact(A, k), exact)
                assert same_estimate(rip_constant_lower_estimate(A, k, 12, seed), estimate)

    @settings(max_examples=60, deadline=None)
    @given(rip_inputs(), st.integers(0, 2**16), st.integers(1, 3))
    def test_estimate_monotone_in_trials_across_chunks(self, inp, seed, per_chunk):
        A, k = inp
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_CHUNK_BYTES", 8 * k * A.m * per_chunk)
            runs = [rip_constant_lower_estimate(A, k, trials, seed) for trials in range(1, 9)]
        deltas = [r.delta for r in runs]
        assert deltas == sorted(deltas)
        assert all(same_estimate(r, loop_estimate(A, k, trials, seed)) for trials, r in enumerate(runs, 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_gram_never_wins(self):
        # the Gram of any support holding the huge column overflows, so its
        # eigenvalues and delta are NaN; as in the loop, the finite support wins
        A = dense([[1e200, 1.0, 0.5], [0.0, 1.0, 0.5]])
        for per_chunk in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measures, "_CHUNK_BYTES", 8 * 2 * A.m * per_chunk)
                assert same_estimate(rip_constant_exact(A, 2), loop_exact(A, 2))
                assert rip_constant_exact(A, 2).worst_support == (1, 2)
                assert same_estimate(rip_constant_lower_estimate(A, 2, 10, 1), loop_estimate(A, 2, 10, 1))


class TestSubspaceDistortion:
    def test_orthonormal_columns(self):
        lo, hi = subspace_distortion(dense(np.eye(4)), [0, 2])
        assert abs(lo - 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12

    def test_hand_value(self):
        A = dense([[1.0, R2], [0.0, R2]])
        lo, hi = subspace_distortion(A, [0, 1])
        assert abs(lo - 0.5411961001461969) <= 1e-12
        assert abs(hi - 1.3065629648763766) <= 1e-12

    def test_on_one_sparse_map_collision(self):
        S = OneSparseMap(2, 2, [0, 0], [1, 1])
        lo, hi = subspace_distortion(S, [0, 1])
        assert lo == 0.0
        assert abs(hi - math.sqrt(2.0)) <= 1e-12

    def test_empty_index_set(self):
        with pytest.raises(EmptyIndexSet):
            subspace_distortion(dense(np.eye(2)), [])


class TestRowMassProfile:
    def test_counts_by_sign(self):
        A = SparseMatrix(
            2,
            3,
            [
                [(0, 0.6), (1, -0.8)],
                [(0, 0.7), (1, 0.71414284285428498)],
                [(0, 0.3), (1, -0.95393920141694566)],
            ],
        )
        prof = row_mass_profile(A, 0.25)  # sqrt(x) = 0.5
        assert prof.per_row == ((2, 0), (1, 2))
        assert prof.limit == 20.0
        assert not prof.has_flag

    def test_flags_overloaded_row(self):
        # ten columns of e_1: at x = 1 the cap is 5 entries of one sign
        A = SparseMatrix(2, 10, [[(0, 1.0)]] * 10)
        prof = row_mass_profile(A, 0.99)
        assert prof.per_row[0] == (10, 0)
        assert prof.limit == 5.0 / 0.99
        assert prof.flagged_rows == (0,)
        assert prof.has_flag

    def test_threshold_is_strict(self):
        A = SparseMatrix(1, 1, [[(0, 0.5)]])
        prof = row_mass_profile(A, 0.25)  # entry equals sqrt(x) exactly
        assert prof.per_row == ((0, 0),)

    def test_positive_threshold_required(self):
        with pytest.raises(NonpositiveThreshold):
            row_mass_profile(dense([[1.0]]), 0.0)


class TestScaleProfile:
    @pytest.mark.parametrize(
        "s,count", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4)]
    )
    def test_dyadic_scale_count(self, s, count):
        assert dyadic_scale_count(s) == count

    def test_basis_column(self):
        prof = scale_profile(dense(np.eye(2)), 0)
        assert prof == type(prof)(column=0, t=1, threshold=0.5, required_count=0.25, actual_count=1)

    def test_flat_column(self):
        A = SparseMatrix.from_dense(np.full((4, 1), 0.5))
        prof = scale_profile(A, 0)
        assert prof.t == 1
        assert prof.threshold == 0.25  # sqrt(2^(-2) / 4)
        assert prof.required_count == 1.0
        assert prof.actual_count == 4

    def test_smallest_qualifying_scale_wins(self):
        # one dominant entry: scale 1 demands s/4 big entries and fails,
        # scale 2 only demands a fraction of one and succeeds
        col = [(0, 0.9)] + [(i, math.sqrt((1 - 0.81) / 8)) for i in range(1, 9)]
        A = SparseMatrix(9, 1, [col])
        prof = scale_profile(A, 0)
        assert prof.t == 2
        assert prof.actual_count == 1

    def test_unit_columns_always_have_a_scale(self):
        rng = substream(15)
        for nnz in (1, 2, 3, 5, 8, 13, 21):
            A = unit_random_sparse(32, 4, nnz, rng)
            for j in range(A.n):
                scale_profile(A, j)  # must not raise

    def test_spread_out_low_mass_column_fails(self):
        # norm ~0.47: 3 entries squared just below 1/32 plus 13 squared just
        # below 1/64, so every scale t in [1, 4] misses its required count
        col = [(i, 0.176) for i in range(3)] + [(3 + i, 0.098) for i in range(13)]
        A = SparseMatrix(16, 1, [col])
        with pytest.raises(NoScaleFound):
            scale_profile(A, 0)

    def test_empty_column_fails(self):
        A = SparseMatrix(2, 1, [[]])
        with pytest.raises(NoScaleFound):
            scale_profile(A, 0)


@pytest.mark.parametrize("s", [0, -3])
def test_dyadic_scale_count_needs_a_nonzero(s):
    with pytest.raises(InvalidSparsity):
        dyadic_scale_count(s)
