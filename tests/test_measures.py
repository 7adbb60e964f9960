"""Coherence, restricted isometry constants, distortion, and profiles."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    TooLarge,
    TooManySupports,
    apply,
    check_unit_columns,
    code_max_agreement,
    code_to_incoherent,
    coherence,
    dyadic_scale_count,
    random_code,
    rip_constant_exact,
    rip_constant_lower_estimate,
    row_mass_profile,
    sample_countsketch,
    sample_sparse_sign_jl,
    scale_profile,
    subspace_distortion,
)
from sketchbounds import measures
from sketchbounds.rng import derive_seed, substream

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
    def max_count(S):
        G = np.abs(S.T @ S)
        np.fill_diagonal(G, 0)
        return int(G.max())

    @staticmethod
    def exact(S, c):
        return float(Fraction(c) ** 2 * TestIntegerCoherence.max_count(S))

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


@st.composite
def probe_inputs(draw):
    """A sign matrix with some of its columns appended again, each copy
    either as it is or negated."""
    A, S, c = draw(sign_matrices())
    copies = draw(st.lists(st.integers(0, A.n - 1), max_size=6))
    flips = draw(st.lists(st.sampled_from([1, -1]), min_size=len(copies), max_size=len(copies)))
    S = np.hstack((S, S[:, copies] * np.array(flips, dtype=np.int64)))
    return SparseMatrix.from_dense(S * c), S, c


def signed_columns(m, *cols):
    """(A, S, c) for the m-row columns given as (rows, negated rows), each
    of s entries +-c, c = 1/sqrt(s)."""
    S = np.zeros((m, len(cols)), dtype=np.int64)
    for j, (plus, minus) in enumerate(cols):
        S[list(plus), j], S[list(minus), j] = 1, -1
    c = 1.0 / math.sqrt(int(np.count_nonzero(S[:, 0])))
    return SparseMatrix.from_dense(S * c), S, c


@st.composite
def split_inputs(draw):
    """Columns on independent random rows of a few, so pairs share rows in
    both row halves, then some columns copied whole or in part, each copy
    as it is or negated."""
    m = draw(st.integers(2, 24))
    s = draw(st.integers(1, min(m, 9)))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    S = np.zeros((m, n), dtype=np.int64)
    for j in range(n):
        S[rng.choice(m, size=s, replace=False), j] = rng.choice([-1, 1], size=s)
    for _ in range(draw(st.integers(0, 4))):
        # column j keeps its rows and takes column i's signs on the rows both hold
        i, j = rng.integers(n, size=2)
        both = (S[:, i] != 0) & (S[:, j] != 0)
        S[both, j] = S[both, i] * rng.choice([-1, 1])
    return SparseMatrix.from_dense(S / math.sqrt(s)), S, 1.0 / math.sqrt(s)


# Rows 0..7 form the lower half of m = 16.  Columns 0 and 1 agree on rows
# 0, 1, 8 and 9, two in each half, so K = 4 and at tau = 3 no pattern of one
# half joins them: phase 2 must find K.  Columns 2 and 3 share the lower
# rows 4, 5, 6, so phase 1 finds K1 = 3 = 2 * tau - 3, one short of vouching.
ACROSS = signed_columns(16, ((0, 1, 2, 8, 9), ()), ((0, 1, 3, 8, 9), ()),
                        ((4, 5, 12), (6, 13)), ((4, 5, 14), (6, 15)))
# the same, column 1 negated: K = 4 from a count of -4
NEGATED = signed_columns(16, ((0, 1, 2, 8, 9), ()), ((), (0, 1, 3, 8, 9)),
                         ((4, 5, 12), (6, 13)), ((4, 5, 14), (6, 15)))
# columns 2 and 3 of ACROSS alone: at tau = 3 phase 1 finds K = 3, too few to
# vouch, and phase 2 finds no pair
WITHIN = signed_columns(16, ((4, 5, 12), (6, 13)), ((4, 5, 14), (6, 15)))
# every entry in the lower half, and no two columns share two rows: at
# tau = 2 phase 1 finds K1 = 0, and phase 2 keys nothing
LOWER = signed_columns(16, ((0, 1, 2), ()), ((2, 3), (4,)), ((4, 5), (6,)), ((6, 7), (0,)))
# at tau = 2, s = 4: columns 0 and 1 agree on rows 0 and 1 only, K1 = K = 2 = 2 * tau - 2
EDGE = signed_columns(16, ((0, 1, 8, 12), ()), ((0, 1, 9, 13), ()), ((2, 10), (3, 11)), ((4, 14), (5, 15)))
# odd m: the halves are rows 0..2 and 3..6, and columns 0 and 1 agree on rows 2, 3 and 4
ODD = signed_columns(7, ((0, 2, 3, 4, 6), ()), ((1, 2, 3, 4, 5), ()), ((0, 1), (2, 5, 6)))


def key_spy(monkeypatch):
    """The number of keys each ``_subset_keys`` call builds, in order."""
    built = []
    keys = measures._subset_keys

    def spy(*args):
        out = keys(*args)
        built.append(out.size)
        return out

    monkeypatch.setattr(measures, "_subset_keys", spy)
    return built


def sign_oracle(A):
    """coherence by the float32 sign Gram alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_probe_level", lambda m, n, s: None)
        return coherence(A)


class TestPatternProbe:
    """The pattern probe returns the exact max |count| K when K >= tau and
    something below tau otherwise; coherence falls back to the sign Gram
    whenever the probe cannot vouch for K."""

    @pytest.fixture
    def no_gram(self, monkeypatch):
        def gram(A, values):
            raise AssertionError("the sign Gram ran")

        monkeypatch.setattr(measures, "_max_off_diagonal", gram)

    @settings(max_examples=210, deadline=None)
    @given(probe_inputs() | split_inputs())
    @example(sign_matrix(2, 2, 2, 0, 1, 1.0))
    @example(sign_matrix(8, 1025, 8, 2, 1, 1.0))
    @example(sign_matrix(40, 3, 1, 2, 3, 1.0))  # K = 0
    @example(ACROSS)
    @example(NEGATED)
    @example(WITHIN)
    @example(LOWER)
    @example(EDGE)
    @example(ODD)
    def test_contract_at_every_level(self, sample):
        A, S, c = sample
        s = A.nnz // A.n
        K = TestIntegerCoherence.max_count(S)
        for tau in range(1, s + 1):
            if measures._key_bits(A.m, A.n, tau) > 63:
                continue
            found = measures._pattern_max_count(A, s, tau, math.inf)
            # at tau = 1 every pair with a nonzero count shares a key, so a K of 0 is found too
            if K >= tau or tau == 1:
                assert found == K
                assert float(Fraction(c) ** 2 * found) == TestIntegerCoherence.exact(S, c)
            else:
                assert found < tau

    @pytest.mark.parametrize("sample, tau, K, phases", [
        pytest.param(*case, id=f"{name}-tau{case[1]}") for name, case in [
            ("across", (ACROSS, 3, 4, 2)), ("negated", (NEGATED, 3, 4, 2)), ("across", (ACROSS, 2, 4, 1)),
            ("within", (WITHIN, 3, 3, 2)), ("lower", (LOWER, 2, 1, 2)), ("edge", (EDGE, 2, 2, 1)),
            ("odd", (ODD, 2, 3, 1)), ("odd", (ODD, 3, 3, 2))]
    ])
    def test_phase_two_runs_only_where_phase_one_cannot_vouch(self, sample, tau, K, phases, monkeypatch):
        A, S, c = sample
        built = key_spy(monkeypatch)
        assert TestIntegerCoherence.max_count(S) == K
        found = measures._pattern_max_count(A, A.nnz // A.n, tau, math.inf)
        assert found == K if K >= tau else found < tau
        assert len(built) == phases

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_benchmark_shape_builds_no_phase_two_keys(self, seed, monkeypatch):
        # the matrix the benchmark's measure workload writes for each seed:
        # the patterns inside one row half vouch for K, about a quarter of the keys
        A = sample_sparse_sign_jl(256, 10000, 8, derive_seed(seed, 1))
        built = key_spy(monkeypatch)
        assert coherence(A) == sign_oracle(A)
        assert len(built) == 1 and built[0] < 10000 * math.comb(8, 3) // 3

    def test_a_key_past_63_bits_is_refused(self):
        A = sample_sparse_sign_jl(256, 10000, 8, 1)
        with pytest.raises(TooLarge):
            measures._pattern_max_count(A, 8, 6, math.inf)

    @pytest.mark.parametrize("sampler, m, n, s", [
        *((sample_sparse_sign_jl, *shape) for shape in [(32, 1500, 3), (48, 1200, 2), (64, 2000, 4),
                                                        (100, 2500, 5), (128, 3000, 6), (1024, 4000, 4)]),
        # one entry a column, as sign matrices and as one-sparse maps
        (sample_sparse_sign_jl, 64, 2000, 1), (sample_sparse_sign_jl, 1024, 3000, 1),
        (lambda m, n, s, seed: sample_countsketch(m, n, seed), 64, 2000, 1),
        (lambda m, n, s, seed: sample_countsketch(m, n, seed), 1024, 3000, 1),
        # tall, with K = 1 < s at these seeds: the Gram's sign copy would take 4 GiB
        (sample_sparse_sign_jl, 2**20, 1000, 2),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_routed_shapes_equal_the_gram(self, sampler, m, n, s, seed, no_gram):
        A = sampler(m, n, s, seed)
        # only the rows hit take part in a count
        rows = np.unique(A.indices, return_inverse=True)[1]
        S = np.zeros((rows.max() + 1, n))
        S[rows, np.repeat(np.arange(n), s)] = np.sign(A.data)
        # float64 holds every count exactly, and its BLAS Gram is quick
        expected = TestIntegerCoherence.exact(S, float(np.abs(A.data[0])))
        assert measures._probe_level(m, n, s) is not None
        assert coherence(A) == expected

    def test_the_witness_workloads_map_takes_the_probe(self, no_gram):
        # the one-sparse map the benchmark's witness workload writes for seed 1,
        # whose float32 sign Gram takes 20000^2 * 4096 multiply-adds
        A = sample_countsketch(4096, 20000, derive_seed(1, 5))
        assert np.unique(A.a).size < A.n
        assert measures._probe_level(A.m, A.n, 1)[0] == 1
        assert coherence(A) == 1.0

    def test_below_tau_falls_back_to_the_gram(self, monkeypatch):
        # K = 3 here, so a probe at tau = s = 4 finds no candidate pair
        A = sample_sparse_sign_jl(64, 2000, 4, 0)
        expected = coherence(A)
        assert expected == float(Fraction(float(A.data[0])) ** 2 * 3)
        assert measures._pattern_max_count(A, 4, 4, math.inf) < 4
        monkeypatch.setattr(measures, "_probe_level", lambda m, n, s: (4, math.inf))
        assert coherence(A) == expected

    def test_a_large_group_falls_back_without_counting_its_pairs(self, monkeypatch):
        # 400 copies of one column: C(4, 3) = 4 groups of 400 keys hold
        # 4 * C(400, 2) pairs, far past the budget
        A = sample_sparse_sign_jl(64, 2000, 4, 0)
        rows = A.indices.reshape(A.n, 4).copy()
        vals = A.data.reshape(A.n, 4).copy()
        rows[1600:], vals[1600:] = rows[0], vals[0]
        A = SparseMatrix.from_csc(A.m, A.n, A.indptr, rows.ravel(), vals.ravel())
        tau, budget = measures._probe_level(A.m, A.n, 4)
        assert 4 * math.comb(400, 2) > budget

        def no_pairs(codes, i, j):
            raise AssertionError("candidate pairs were counted")

        monkeypatch.setattr(measures, "_max_abs_count", no_pairs)
        assert measures._pattern_max_count(A, 4, tau, budget) is None
        assert coherence(A) == 1.0 == float(Fraction(float(A.data[0])) ** 2 * 4)

    @pytest.mark.parametrize("seed, value", [(1, 0.6249999999999999), (2, 0.6249999999999999),
                                             (3, 0.4999999999999999)])
    def test_benchmark_shape_equals_the_gram(self, seed, value):
        # the matrix the benchmark's measure workload writes for each seed
        A = sample_sparse_sign_jl(256, 10000, 8, derive_seed(seed, 1))
        assert measures._probe_level(A.m, A.n, 8) == (3, 256 * 10000 * 9999 // (2 * measures._MADDS_PER_KEY))
        assert coherence(A) == sign_oracle(A) == value


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
    lexicographic order, replacing the best only on a strict >; k = 1
    included, as in the sampled estimate."""
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
                    mp.setattr(measures, "_BUDGET", 8 * k * A.m * per_chunk)
                assert same_estimate(rip_constant_exact(A, k), exact)
                assert same_estimate(rip_constant_lower_estimate(A, k, 12, seed), estimate)

    @settings(max_examples=60, deadline=None)
    @given(rip_inputs(), st.integers(0, 2**16), st.integers(1, 3))
    def test_estimate_monotone_in_trials_across_chunks(self, inp, seed, per_chunk):
        A, k = inp
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_BUDGET", 8 * k * A.m * per_chunk)
            runs = [rip_constant_lower_estimate(A, k, trials, seed) for trials in range(1, 9)]
        deltas = [r.delta for r in runs]
        assert deltas == sorted(deltas)
        assert all(same_estimate(r, loop_estimate(A, k, trials, seed)) for trials, r in enumerate(runs, 1))

    def test_an_overflowed_gram_is_refused(self):
        # the Gram of any support holding the huge column overflows, so its
        # delta is NaN; the true delta_2 is huge, so the finite support (1, 2)
        # must not win, in any chunking
        A = dense([[1e200, 1.0, 0.5], [0.0, 1.0, 0.5]])
        for per_chunk in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measures, "_BUDGET", 8 * 2 * A.m * per_chunk)
                with pytest.raises(TooLarge, match="k=2"):
                    rip_constant_exact(A, 2)
                with pytest.raises(TooLarge, match="k=2"):
                    rip_constant_lower_estimate(A, 2, 10, 1)


@st.composite
def wide_rip_inputs(draw):
    """(A, k) with n up to 40, so that C(n, k) far exceeds the first chunk's
    64 seed solves: gaussian or +-1/sqrt(s) sign columns, each kept or
    scaled by 2^20, 2^-20 or 3.7e5, and some columns repeated as they are
    or negated."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(12, 40))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        D = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.7) / math.sqrt(m)
    else:
        s = draw(st.integers(1, m))
        D = sign_matrix(m, n, s, seed, draw(st.integers(1, n)), 1.0)[0].to_dense()
    scales = draw(st.sampled_from([[1.0], [1.0, 2.0**20], [1.0, 2.0**-20], [1.0, 3.7e5],
                                   [1.0, 2.0**20, 2.0**-20, 3.7e5]]))
    D *= rng.choice(scales, size=n)
    repeat = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    D[:, repeat] = D[:, rng.integers(0, n, size=int(repeat.sum()))] * rng.choice([1.0, -1.0], size=int(repeat.sum()))
    return SparseMatrix.from_dense(D), k


@st.composite
def bound_inputs(draw):
    """(A, None) with m up to 80 and n up to 24: gaussian columns, each
    kept or scaled by 2^20, 2^-20 or 3.7e5, some repeated or negated."""
    m = draw(st.integers(1, 80))
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.7) / math.sqrt(m)
    D *= rng.choice([1.0, 2.0**20, 2.0**-20, 3.7e5], size=n)
    repeat = rng.random(n) < 0.3
    D[:, repeat] = D[:, rng.integers(0, n, size=int(repeat.sum()))] * rng.choice([1.0, -1.0], size=int(repeat.sum()))
    return SparseMatrix.from_dense(D), None


def unpruned(mp):
    """Patch the Gershgorin bound to +inf, so every support is solved."""
    mp.setattr(measures, "_gershgorin", lambda A, k, count: lambda supports: np.full(len(supports), np.inf))


def chunked(mp, scan, stack):
    """Patch the scans to chunks of `scan` supports and their solves to
    stacks of at most `stack`, so that ties and pruning floors fall on both
    kinds of edge."""
    mp.setattr(measures, "_scan_length", lambda k: scan)
    mp.setattr(measures, "_chunk_length", lambda A, k: stack)


@pytest.fixture
def solved(monkeypatch):
    """The row counts of every chunk `_support_deltas` solves."""
    counts = []
    real = measures._support_deltas

    def spy(A, supports):
        counts.append(len(supports))
        return real(A, supports)

    monkeypatch.setattr(measures, "_support_deltas", spy)
    return counts


class TestGershgorinPruning:
    """The scans solve only the supports their Gershgorin bound cannot rule
    out, and report what solving every support reports, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(wide_rip_inputs(), st.integers(0, 2**16))
    def test_bit_for_bit_at_the_default_chunk(self, inp, seed):
        A, k = inp
        assert same_estimate(rip_constant_exact(A, k), loop_exact(A, k))
        assert same_estimate(rip_constant_lower_estimate(A, k, 300, seed), loop_estimate(A, k, 300, seed))

    @settings(max_examples=25, deadline=None)
    @given(wide_rip_inputs(), st.integers(0, 2**16), st.integers(1, 3), st.integers(1, 3))
    def test_bit_for_bit_at_chunks_of_one_two_and_three(self, inp, seed, per_chunk, per_stack):
        A, k = inp
        exact, estimate = loop_exact(A, k), loop_estimate(A, k, 60, seed)
        counts = []
        real = measures._support_deltas
        with pytest.MonkeyPatch.context() as mp:
            chunked(mp, per_chunk, per_stack)
            mp.setattr(measures, "_support_deltas", lambda A, s: counts.append(len(s)) or real(A, s))
            assert same_estimate(rip_constant_exact(A, k), exact)
            assert same_estimate(rip_constant_lower_estimate(A, k, 60, seed), estimate)
        assert max(counts) <= per_stack

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_benchmark_matrix_solves_fewer_supports_than_it_scans(self, solved, seed):
        A = sample_sparse_sign_jl(64, 60, 4, derive_seed(seed, 2))
        runs = [lambda: rip_constant_exact(A, 3),
                lambda: rip_constant_lower_estimate(A, 8, 5000, derive_seed(seed, 3))]
        for run, scanned, k in zip(runs, [math.comb(60, 3), 5000], [3, 8]):
            solved.clear()
            pruned = run()
            assert 0 < sum(solved) * 10 < scanned, sum(solved)
            # a scan chunk holds more supports than a solve stack, which is never exceeded
            assert measures._scan_length(k) > measures._chunk_length(A, k) >= max(solved)
            solved.clear()
            with pytest.MonkeyPatch.context() as mp:
                unpruned(mp)
                assert same_estimate(run(), pruned)
            assert sum(solved) == scanned

    def test_the_readme_matrix_past_the_chunk_budget_is_pruned(self, solved):
        # its 8 MB |G| exceeds _BUDGET but pays for itself; the unpruned
        # scan stands in for loop_exact, which takes about 10 s here
        A = sample_sparse_sign_jl(64, 1000, 8, 7)
        assert 8 * A.n * max(A.m, A.n) > measures._BUDGET
        pruned = rip_constant_exact(A, 2)
        assert 0 < sum(solved) * 100 < math.comb(1000, 2), sum(solved)
        assert max(solved) <= measures._chunk_length(A, 2)
        assert (pruned.delta, pruned.worst_support) == (0.625, (4, 18))
        with pytest.MonkeyPatch.context() as mp:
            unpruned(mp)
            assert same_estimate(rip_constant_exact(A, 2), pruned)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(rip_inputs(), wide_rip_inputs()), st.data())
    def test_a_support_has_the_same_delta_in_any_chunk(self, inp, data):
        A, k = inp
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chunk = np.sort(np.array([rng.choice(A.n, k, replace=False) for _ in range(40)]), axis=1)
        deltas = measures._support_deltas(A, chunk)
        part = np.array(data.draw(st.permutations(range(len(chunk)))))[:data.draw(st.integers(1, len(chunk)))]
        assert measures._support_deltas(A, chunk[part]).tobytes() == deltas[part].tobytes()
        for i in range(len(chunk)):
            assert measures._support_deltas(A, chunk[i:i + 1]).tobytes() == deltas[i:i + 1].tobytes()

    @pytest.mark.parametrize("width", [None, 1, 3])
    @pytest.mark.parametrize("scale", [2.0**-20, 1.0, 2.0**20, 3.7e5])
    @pytest.mark.parametrize("m", [1, 8, 16, 33, 64, 128])
    def test_the_bound_is_never_below_a_solved_delta(self, m, scale, width):
        # from m = 16 the Gram's diagonal from D.T @ D and from the stacked
        # matmul can differ in the last bit, up to about 1e-2 at 3.7e5; the
        # margin scales with max G_ii to cover that.  |G| is multiplied from
        # one slab of all 40 columns, or from slabs of 1 or 3 columns
        rng = np.random.default_rng(m)
        D = rng.standard_normal((m, 40)) * rng.choice([1.0, scale], size=40)
        A = SparseMatrix.from_dense(D)
        with pytest.MonkeyPatch.context() as mp:
            if width is not None:
                mp.setattr(measures, "_BUDGET", 8 * m * width)
            for k in (1, 2, 3):
                supports = np.array(list(itertools.combinations(range(40), k))[::7])
                bound = measures._gershgorin(A, k, 40 * 40)(supports)
                assert np.isfinite(bound).all()
                assert (bound >= measures._support_deltas(A, supports)).all()

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(bound_inputs(), wide_rip_inputs()), st.integers(1, 8), st.data())
    def test_the_pair_gather_bound_holds_and_matches_the_block_sum(self, inp, k, data):
        # the bound from pair gathers adds each row's terms in another order
        # than the (N, k, k) block sum it replaced; the margin covers both
        A = inp[0]
        assume(k <= A.n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        supports = np.sort(np.array([rng.choice(A.n, k, replace=False) for _ in range(30)]), axis=1)
        H, margin = measures._abs_gram(A, k)
        reference = H[supports[:, :, None], supports[:, None, :]].sum(axis=2).max(axis=1)
        assert (np.abs(measures._pair_bounds(H, supports) - reference) <= margin).all()
        bound = measures._gershgorin(A, k, A.n * A.n)(supports)
        assert (bound >= measures._support_deltas(A, supports)).all()

    def test_the_bound_is_built_only_where_it_can_pay(self):
        # |G| costs about m * n^2 multiply-adds against k^2 * m a support
        # solved, and the margin covers the rounding only up to m = 2^21
        A = SparseMatrix.from_dense(np.random.default_rng(0).standard_normal((3, 5)))
        for k in range(1, 6):
            supports = np.array(list(itertools.combinations(range(5), k)))
            for count in range(1, 30):
                built = np.isfinite(measures._gershgorin(A, k, count)(supports))
                assert built.all() if 25 <= k * k * count else not built.any()
        tall = SparseMatrix(2**21 + 1, 2, [[(0, 1.0)], [(2**21, 1.0)]])
        assert np.isinf(measures._gershgorin(tall, 2, 10**6)(np.array([[0, 1]]))).all()
        tall = SparseMatrix(2**21, 2, [[(0, 1.0)], [(2**21 - 1, 1.0)]])
        assert np.isfinite(measures._gershgorin(tall, 2, 10**6)(np.array([[0, 1]]))).all()

    @settings(max_examples=60, deadline=None)
    @given(rip_inputs(), st.integers(0, 2**16), st.sampled_from([None, 1, 2, 3]))
    def test_bit_for_bit_where_the_bound_is_not_built(self, inp, seed, per_chunk):
        # the most trials for which |G| would cost more than it saves, and the
        # exact scan at k = 1: every bound is +inf and every support is solved
        A, k = inp
        assume(A.n > k)
        trials = (A.n * A.n - 1) // (k * k)
        counts = []
        real = measures._support_deltas
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_support_deltas", lambda A, s: counts.append(len(s)) or real(A, s))
            if per_chunk is not None:
                chunked(mp, per_chunk, max(1, per_chunk - 1))
            assert same_estimate(rip_constant_lower_estimate(A, k, trials, seed), loop_estimate(A, k, trials, seed))
            assert sum(counts) == trials
            assert max(counts) <= measures._chunk_length(A, k)
            if k == 1:
                counts.clear()
                assert same_estimate(rip_constant_exact(A, 1), loop_exact(A, 1))
                assert sum(counts) == A.n

    def test_an_overflowed_gram_is_refused_where_the_bound_is_not_built(self, solved):
        # at k = 1 and at two sampled supports of 3 columns, no |G| is built;
        # every draw of seed 2 holds the huge column
        A = dense([[1e200, 1.0, 0.5], [0.0, 1.0, 0.5]])
        assert (measures._draw_supports(substream(2), A.n, 2, 2) == 0).any(axis=1).all()
        for per_chunk in (None, 1):
            with pytest.MonkeyPatch.context() as mp:
                if per_chunk is not None:
                    chunked(mp, per_chunk, per_chunk)
                solved.clear()
                with pytest.raises(TooLarge, match="k=1"):
                    rip_constant_exact(A, 1)
                assert sum(solved) == 3
                solved.clear()
                with pytest.raises(TooLarge, match="k=2"):
                    rip_constant_lower_estimate(A, 2, 2, 2)
                assert sum(solved) == 2

    def test_an_overflowed_gram_late_in_a_wide_scan_is_refused(self, solved):
        # column 39 holds 1e200, so the Gram of every support holding it
        # overflows; its bound is infinite, so pruning never skips it
        rng = np.random.default_rng(5)
        D = rng.standard_normal((2, 40))
        D /= np.sqrt((D * D).sum(axis=0))
        D[:, 39] = [1e200, 0.0]
        A = SparseMatrix.from_dense(D)
        draws = measures._draw_supports(substream(1), A.n, 2, 400)
        assert np.flatnonzero((draws == 39).any(axis=1))[0] > 3  # past a first chunk of up to 3
        for per_chunk in (None, 1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                if per_chunk is not None:
                    chunked(mp, per_chunk, max(1, per_chunk - 1))
                solved.clear()
                with pytest.raises(TooLarge, match="k=2"):
                    rip_constant_exact(A, 2)
                assert sum(solved) < math.comb(40, 2)
                assert max(solved) <= measures._chunk_length(A, 2)
                solved.clear()
                # 400 supports pay for the 40-column |G|; 399 would not
                with pytest.raises(TooLarge, match="k=2"):
                    rip_constant_lower_estimate(A, 2, 400, 1)
                assert sum(solved) < 400
                assert max(solved) <= measures._chunk_length(A, 2)


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

    @pytest.mark.parametrize("x", [math.inf, math.nan, "x", None, True, 10**400])
    def test_threshold_must_be_a_finite_real_number(self, x):
        # x = inf flagged every row (its limit 5/x is 0), NaN gave a NaN limit,
        # and 10**400 an OverflowError
        with pytest.raises(NonpositiveThreshold):
            row_mass_profile(sample_sparse_sign_jl(16, 40, 4, 1), x)

    @pytest.mark.parametrize("x", [1e-310, 5e-324, 2.7e-308, Fraction(1, 10**400)])
    def test_threshold_whose_limit_overflows_is_refused(self, x):
        # 5/x past the largest float gave limit = inf, which no JSON holds, and
        # a Fraction that rounds to 0.0 a ZeroDivisionError
        with pytest.raises(NonpositiveThreshold, match="threshold x"):
            row_mass_profile(sample_sparse_sign_jl(16, 40, 4, 1), x)

    def test_smallest_threshold_with_a_finite_limit(self):
        x = 5.0 / sys.float_info.max
        prof = row_mass_profile(sample_sparse_sign_jl(16, 40, 4, 1), x)
        assert prof.limit == 5.0 / x < math.inf and prof.x == x


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


@pytest.mark.parametrize("s", [2.5, 2.0, True, "2"])
def test_dyadic_scale_count_needs_an_integer(s):
    # 2.5 ended in an AttributeError, and True ran as s = 1
    with pytest.raises(InvalidDimension):
        dyadic_scale_count(s)
