"""Witness searches: certifiers, refuters, and their verification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchbounds import (
    Certificate,
    DegenerateColumn,
    DimensionMismatch,
    EmptyIndexSet,
    IndexOutOfRange,
    InvalidDimension,
    InvalidEntry,
    InvalidEps,
    InvalidSparsity,
    InvalidT,
    KernelWitness,
    NotNormalized,
    NotSignMatrix,
    OneSparseMap,
    PreconditionViolated,
    RipDistortion,
    SparseMatrix,
    TooLarge,
    TType,
    UnknownKind,
    TTYPE_GROUP_CONSTANT,
    apply,
    code_to_incoherent,
    derive_seed,
    ose_collision_witness,
    ose_failure_probability,
    pattern_at_scale,
    random_code,
    rip_constant_exact,
    rip_pattern_witness,
    row_mass_violation_search,
    sample_coordinate_subspace,
    sample_countsketch,
    sample_sparse_sign_jl,
    sign_pattern_certify,
    subspace_distortion,
    ttype_collision_certify,
    ttype_count_bound,
    ttype_of,
    verify_certificate,
)
from sketchbounds.rng import substream
from sketchbounds.witnesses import _max_dot_pair

from conftest import dense, unit_random_sparse


def ten_duplicate_basis_columns():
    return SparseMatrix(4, 10, [[(0, 1.0)]] * 10)


class TestRowMassSearch:
    def test_duplicate_columns_flagged(self):
        A = ten_duplicate_basis_columns()
        cert = row_mass_violation_search(A, 0.1)
        assert cert.kind == "incoherence_pair"
        assert (cert.i, cert.j) == (0, 1)
        assert cert.dot == 1.0
        assert verify_certificate(cert, A)

    def test_four_duplicates_are_below_the_cap(self):
        # at x = 1 the cap is 5 entries of one sign; 4 is not a violation
        A = SparseMatrix(4, 4, [[(0, 1.0)]] * 4)
        assert row_mass_violation_search(A, 0.1).kind == "none"

    def test_clean_code_matrix_passes(self):
        c = random_code(5, 4, 10, 0.5, seed=2)
        A = code_to_incoherent(c)
        cert = row_mass_violation_search(A, 0.49)
        assert cert.kind == "none"
        assert verify_certificate(cert, A)

    def test_eps_domain(self):
        A = ten_duplicate_basis_columns()
        with pytest.raises(InvalidEps):
            row_mass_violation_search(A, 0.0)
        with pytest.raises(InvalidEps):
            row_mass_violation_search(A, 0.5)

    def test_requires_unit_columns(self):
        with pytest.raises(NotNormalized):
            row_mass_violation_search(dense([[2.0, 0.0], [0.0, 1.0]]), 0.1)

    def test_threshold_grid_comes_from_entries(self):
        # entries of squared magnitude 0.5 with eps = 0.26: the grid starts
        # at 2 * eps = 0.52 > 0.5, so no threshold qualifies and none is found
        A = SparseMatrix(2, 12, [[(0, math.sqrt(0.5)), (1, math.sqrt(0.5))]] * 12)
        assert row_mass_violation_search(A, 0.26).kind == "none"
        # with eps = 0.25 the grid reaches 0.5 and the overload is caught
        cert = row_mass_violation_search(A, 0.25)
        assert cert.kind == "incoherence_pair"
        assert abs(cert.dot - 1.0) <= 1e-12


def max_dot_pair_loop(A, cols):
    """The double loop that `_max_dot_pair` replaced: the pair with the
    largest |dot|, scanning p < q in order; ties keep the first pair."""
    D = A.submatrix_dense(cols)
    G = D.T @ D
    best, best_abs = (-1, -1, 0.0), -1.0
    for p in range(len(cols)):
        for q in range(p + 1, len(cols)):
            d = float(G[p, q])
            if abs(d) > best_abs:
                best_abs, best = abs(d), (int(cols[p]), int(cols[q]), d)
    return best


@pytest.mark.parametrize("seed", range(40))
def test_max_dot_pair_matches_the_double_loop_on_ties(seed):
    # +-1/sqrt(2) entries in few rows: every |dot| is 0, 1/2 or 1, so ties abound
    rng = np.random.default_rng(seed)
    A = sample_sparse_sign_jl(4, 30, 2, seed)
    cols = np.sort(rng.choice(30, size=int(rng.integers(2, 31)), replace=False))
    assert _max_dot_pair(A, cols) == max_dot_pair_loop(A, cols)
    # a group whose dots all tie at 0 keeps the first pair
    assert _max_dot_pair(dense(np.eye(5)), [0, 2, 4]) == (0, 2, 0.0)


class TestTTypeOf:
    def test_worked_example_two_entries(self):
        got = ttype_of(np.array([0.8, -0.6, 0.0]), t=1, s=2)
        assert got == TType(s=2, locations=(0,), signs=(1,), rounded_squares=(3,))

    def test_worked_example_basis_vector(self):
        v = np.zeros(8)
        v[5] = 1.0
        got = ttype_of(v, t=1, s=1)
        assert got == TType(s=1, locations=(5,), signs=(1,), rounded_squares=(2,))

    def test_worked_example_flat_pair(self):
        v = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        got = ttype_of(v, t=2, s=2)
        assert got == TType(s=2, locations=(0, 1), signs=(1, 1), rounded_squares=(2, 2))

    def test_zero_coordinate_gets_plus_sign(self):
        got = ttype_of(np.array([0.8, -0.6, 0.0]), t=3, s=3)
        assert got.locations == (0, 1, 2)
        assert got.signs == (1, -1, 1)
        assert got.rounded_squares == (4, 2, 0)

    def test_halfway_squares_round_down(self):
        # v^2 * 2s = 0.5 exactly (dyadic, no fp noise) -> rounds to 0, not 1
        got = ttype_of(np.array([0.5]), t=1, s=1)
        assert got.rounded_squares == (0,)

    def test_magnitude_ties_take_lower_index(self):
        v = np.array([0.5, -0.5, 0.5, 0.5])
        got = ttype_of(v, t=2, s=4)
        assert got.locations == (0, 1)
        assert got.signs == (1, -1)

    def test_domain(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(InvalidT):
            ttype_of(v, t=0, s=1)
        with pytest.raises(InvalidT):
            ttype_of(v, t=2, s=1)
        with pytest.raises(InvalidT):
            ttype_of(np.array([1.0]), t=2, s=3)
        with pytest.raises(InvalidSparsity):
            ttype_of(np.array([0.6, 0.6, 0.52915026221291814]), t=1, s=2)

    def test_type_validation(self):
        with pytest.raises(InvalidEntry):
            TType(s=2, locations=(0,), signs=(2,), rounded_squares=(1,))
        with pytest.raises(InvalidEntry, match="must lie in"):
            TType(s=2, locations=(0,), signs=(1,), rounded_squares=(6,))
        with pytest.raises(InvalidEntry, match="sum to more than"):
            TType(s=2, locations=(0, 1), signs=(1, 1), rounded_squares=(5, 2))
        with pytest.raises(DimensionMismatch):
            TType(s=2, locations=(0, 1), signs=(1,), rounded_squares=(1, 1))

    def test_count_bound_value(self):
        assert ttype_count_bound(6, 3, 2) == 2700


class TestTTypeCollision:
    def test_duplicates_expose_a_pair(self):
        v = 1.0 / math.sqrt(3.0)
        col = [(0, v), (1, v), (2, v)]
        A = SparseMatrix(4, 10, [list(col)] * 10)
        cert = ttype_collision_certify(A, 0.01, 1)
        assert cert.kind == "incoherence_pair"
        assert (cert.i, cert.j) == (0, 1)
        assert abs(cert.dot - 1.0) <= 1e-12
        assert verify_certificate(cert, A)

    def test_collision_without_exposure_gives_bound(self):
        # two unit columns share the top coordinate with equal sign but have
        # strongly negative overall dot: same 1-type, no exposed pair
        a = math.sqrt(0.0105)
        c = math.sqrt((1 - 0.0105) / 95)
        col0 = [(0, a)] + [(i, c) for i in range(1, 96)]
        col1 = [(0, a)] + [(i, -c) for i in range(1, 96)]
        A = SparseMatrix(96, 2, [col0, col1])
        cert = ttype_collision_certify(A, 0.001, 1)
        assert cert.kind == "sparsity_lower_bound"
        assert cert.source == "ttype_collision_certify"
        assert (cert.t, cert.group_size) == (1, 2)
        assert abs(cert.bound_value - 1.0 / (2.0 * TTYPE_GROUP_CONSTANT)) <= 1e-15
        assert verify_certificate(cert, A)

    def test_all_types_distinct_gives_none(self):
        A = dense(np.eye(5))
        cert = ttype_collision_certify(A, 0.01, 1)
        assert cert.kind == "none"

    def test_precondition(self):
        A = dense(np.eye(4))
        with pytest.raises(PreconditionViolated):
            ttype_collision_certify(A, 0.2, 1)  # 1/1 < C * 0.2

    def test_t_domain(self):
        A = dense(np.eye(4))
        with pytest.raises(InvalidT):
            ttype_collision_certify(A, 0.001, 2)  # t > column sparsity 1

    def test_group_constant_value(self):
        assert abs(TTYPE_GROUP_CONSTANT - 2.0 / (1.0 - 1.0 / math.sqrt(2.0))) <= 1e-15


class TestSignPatternCertify:
    def test_duplicates_expose_a_pair(self):
        v = 1.0 / math.sqrt(2.0)
        A = SparseMatrix(4, 5, [[(0, v), (1, v)]] * 5)
        cert = sign_pattern_certify(A, 0.1, 2)
        assert cert.kind == "incoherence_pair"
        assert (cert.i, cert.j) == (0, 1)
        assert verify_certificate(cert, A)

    def test_shared_pattern_without_exposure_gives_bound(self):
        # both columns start +,+ on rows 0,1 but disagree on rows 2..7:
        # dot = (2 - 6) / 8 = -0.5 is no exposure, so the pigeonhole fires
        v = 1.0 / math.sqrt(8.0)
        col_a = [(i, v) for i in range(8)]
        col_b = [(0, v), (1, v)] + [(i, -v) for i in range(2, 8)]
        A = SparseMatrix(8, 2, [col_a, col_b])
        cert = sign_pattern_certify(A, 0.1, 2)
        assert cert.kind == "sparsity_lower_bound"
        assert cert.source == "sign_pattern_certify"
        assert (cert.t, cert.group_size) == (2, 2)
        assert cert.bound_value == 0.5  # t (N - 1) / 4
        assert verify_certificate(cert, A)

    def test_full_enumeration_finds_buried_patterns(self):
        # canonical keys differ (first-two rows 0,1 vs 2,3) but the supports
        # share the signed pair (2,+),(3,+); only full enumeration groups them
        v = 0.5
        col_a = [(i, v) for i in range(4)]
        col_b = [(i, v) for i in range(2, 6)]
        A = SparseMatrix(6, 2, [col_a, col_b])
        assert sign_pattern_certify(A, 0.1, 2).kind == "none"
        cert = sign_pattern_certify(A, 0.1, 2, full_enumeration=True)
        assert cert.kind == "incoherence_pair"
        assert (cert.i, cert.j) == (0, 1)
        assert abs(cert.dot - 0.5) <= 1e-12
        assert verify_certificate(cert, A)

    def test_full_enumeration_guard(self):
        v = 1.0 / math.sqrt(9.0)
        A = SparseMatrix(9, 2, [[(i, v) for i in range(9)]] * 2)
        with pytest.raises(TooLarge):
            sign_pattern_certify(A, 0.05, 2, full_enumeration=True)

    def test_rejects_non_sign_matrices(self):
        with pytest.raises(NotSignMatrix):
            sign_pattern_certify(dense([[1.0, 0.8], [0.0, 0.6]]), 0.1, 1)

    def test_precondition(self):
        v = 1.0 / math.sqrt(8.0)
        A = SparseMatrix(8, 2, [[(i, v) for i in range(8)]] * 2)
        with pytest.raises(PreconditionViolated):
            sign_pattern_certify(A, 0.2, 2)  # t = 2 < 2 * 0.2 * 8

    def test_short_columns_skipped_in_canonical_mode(self):
        # column sparsity is 2 but one column has a single entry; it cannot
        # contribute a 2-row pattern, leaving no group of size >= 2
        v = 1.0 / math.sqrt(2.0)
        A = SparseMatrix(4, 2, [[(0, v), (1, v)], [(2, v)]])
        cert = sign_pattern_certify(A, 0.1, 2)
        assert cert.kind == "none"


class TestRipPatternWitness:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_duplicate_columns_reach_ratio_k(self, k):
        A = SparseMatrix(4, 10, [[(0, 1.0)]] * 10)
        cert = rip_pattern_witness(A, k)
        assert cert.kind == "rip_distortion"
        assert cert.ratio == float(k)
        assert np.count_nonzero(cert.vector) == k
        assert verify_certificate(cert, A)

    def test_orthonormal_columns_give_none(self):
        cert = rip_pattern_witness(dense(np.eye(6)), 3)
        assert cert.kind == "none"

    def test_ratio_respects_exact_rip(self):
        rng = substream(21)
        A = unit_random_sparse(8, 12, 3, rng)
        cert = rip_pattern_witness(A, 3)
        if cert.kind == "rip_distortion":
            delta = rip_constant_exact(A, 3).delta
            assert cert.ratio <= 1.0 + delta + 1e-9

    def test_degenerate_column_raises(self):
        A = SparseMatrix(16, 2, [
            [(0, 1.0)],
            [(i, 0.176) for i in range(3)] + [(3 + i, 0.098) for i in range(13)],
        ])
        with pytest.raises(DegenerateColumn):
            rip_pattern_witness(A, 2)

    def test_k_domain(self):
        with pytest.raises(ValueError):
            rip_pattern_witness(dense(np.eye(3)), 1)

    def test_pattern_at_scale_shape(self):
        A = SparseMatrix(4, 10, [[(0, 1.0)]] * 10)
        pat = pattern_at_scale(A, 0, t=1, k=2, s=1)
        assert pat.u == 4  # ceil(2^3 * 1 / 2)
        assert pat.rows == (0,)
        assert pat.signs == (1,)

    def test_pattern_at_scale_none_when_below_threshold(self):
        A = SparseMatrix(16, 1, [[(i, 0.25) for i in range(16)]])
        # at scale 1 the squared threshold is 2^(-2)/16; 0.0625 passes, so
        # push the scale up until it cannot
        assert pattern_at_scale(A, 0, t=4, k=2, s=16) is None


class TestOseCollision:
    def test_frozen_hand_example(self):
        S = OneSparseMap(2, 3, [0, 0, 1], [1, -1, 1])
        cert = ose_collision_witness(S, range(3))
        assert cert.kind == "kernel_witness"
        assert cert.vector.tolist() == [-1, -1, 0]
        assert cert.vector.dtype == np.int64
        assert int(cert.vector @ cert.vector) == 2
        assert np.all(apply(S, cert.vector) == 0)
        assert verify_certificate(cert, S)

    def test_lexicographically_first_pair(self):
        # rows: 0 -> {0, 3}, 1 -> {1, 2}; pair (0,3) loses to (1,2)? no:
        # (0,3) < (1,2) lexicographically, so columns 0 and 3 are chosen
        S = OneSparseMap(4, 4, [0, 1, 1, 0], [1, 1, 1, 1])
        cert = ose_collision_witness(S, range(4))
        assert np.nonzero(cert.vector)[0].tolist() == [0, 3]

    def test_injective_selection_gives_none(self):
        S = OneSparseMap(4, 4, [0, 1, 2, 3], [1, -1, 1, -1])
        cert = ose_collision_witness(S, [0, 2])
        assert cert.kind == "none"

    def test_selection_restricts_the_search(self):
        S = OneSparseMap(4, 4, [0, 0, 1, 1], [1, 1, 1, 1])
        assert ose_collision_witness(S, [0, 2]).kind == "none"
        assert ose_collision_witness(S, [2, 3]).kind == "kernel_witness"

    def test_domain(self):
        S = OneSparseMap(2, 2, [0, 1], [1, 1])
        with pytest.raises(EmptyIndexSet):
            ose_collision_witness(S, [])
        with pytest.raises(IndexOutOfRange):
            ose_collision_witness(S, [5])

    @pytest.mark.parametrize("indices", [[0.5, 1], [True, 1], [0, 1.0]])
    def test_non_integer_indices_refused(self, indices):
        # int() would truncate 0.5 to column 0 and merge True with column 1
        S = OneSparseMap(2, 3, [0, 0, 1], [1, -1, 1])
        with pytest.raises(InvalidDimension):
            ose_collision_witness(S, indices)

    def test_any_one_sparse_sign_matrix(self):
        S = OneSparseMap(2, 3, [0, 0, 1], [1, -1, 1])
        A = dense(S.to_dense())
        assert ose_collision_witness(A, [1, 0]).to_jsonable() == ose_collision_witness(S, [0, 1]).to_jsonable()

    @pytest.mark.parametrize("rows", [[[1.0, 1.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]],
                             ids=["two_entries", "not_a_sign", "empty_column"])
    def test_needs_one_sign_entry_per_column(self, rows):
        with pytest.raises(PreconditionViolated):
            ose_collision_witness(dense(rows))

    def test_always_finds_pigeonhole_collision(self):
        for seed in range(20):
            S = sample_countsketch(4, 10, seed)
            cert = ose_collision_witness(S, range(10))
            assert cert.kind == "kernel_witness"
            assert verify_certificate(cert, S)

    def test_default_selects_every_column(self):
        S = OneSparseMap(4, 4, [0, 1, 1, 0], [1, 1, -1, 1])
        assert ose_collision_witness(S).to_jsonable() == ose_collision_witness(S, range(4)).to_jsonable()


class TestOseFailureProbability:
    def test_frozen_small_run(self):
        rep = ose_failure_probability(4, 2, 8, trials=20, seed=0)
        assert rep.failures == 6
        assert rep.rate == 0.3
        assert len(rep.records) == 20
        assert rep.failures == sum(r.failed for r in rep.records)

    def test_single_column_never_fails(self):
        rep = ose_failure_probability(16, 1, 1, trials=5, seed=0)
        assert rep.rate == 0.0
        for rec in rep.records:
            assert rec.sigma_min == 1.0 and rec.sigma_max == 1.0

    def test_deterministic(self):
        a = ose_failure_probability(8, 3, 32, trials=10, seed=5)
        b = ose_failure_probability(8, 3, 32, trials=10, seed=5)
        assert a.rate == b.rate
        assert [r.sigma_min for r in a.records] == [r.sigma_min for r in b.records]

    def test_failure_definition_matches_records(self):
        rep = ose_failure_probability(8, 4, 64, trials=30, seed=1)
        for rec in rep.records:
            assert rec.failed == (rec.sigma_min < 0.5 or rec.sigma_max > 2.0)
            assert rec.heavy_rows >= 0

    def test_trials_domain(self):
        with pytest.raises(ValueError):
            ose_failure_probability(4, 2, 8, trials=0, seed=0)

    @pytest.mark.parametrize("m,d,n,trials", [(4, 2, 8, 2.5), (4, 2, 8, True), (4.0, 2, 8, 2), (4, True, 8, 2),
                                              (4, 2, 8.5, 2)])
    def test_non_integer_arguments_refused(self, m, d, n, trials):
        with pytest.raises(InvalidDimension):
            ose_failure_probability(m, d, n, trials=trials, seed=0)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 64), n=st.integers(1, 128), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_trials_match_the_eigensolve(self, m, n, seed, data):
        # each trial rebuilt and measured by subspace_distortion, the dense oracle
        d = data.draw(st.integers(1, min(n, 12)), label="d")
        rep = ose_failure_probability(m, d, n, trials=3, seed=seed)
        for trial, rec in enumerate(rep.records):
            smap = sample_countsketch(m, n, derive_seed(seed, trial, 0))
            lo, hi = subspace_distortion(smap, sample_coordinate_subspace(n, d, derive_seed(seed, trial, 1)))
            assert rec.failed == (lo < 0.5 or hi > 2.0)
            assert rec.heavy_rows == int(np.count_nonzero(smap.row_loads() >= n / (10.0 * m)))
            assert abs(rec.sigma_min - lo) <= 1e-6 and abs(rec.sigma_max - hi) <= 1e-6
            assert rec.sigma_min == (0.0 if rec.failed else 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m,d", [(16, 8), (32, 8), (64, 8), (128, 8), (8, 3), (365, 23)])
    def test_rate_within_binomial_band_of_birthday_probability(self, m, d, seed):
        # a trial fails iff d uniform rows collide: p = 1 - prod_{i<d} (1 - i/m)
        p = float(1 - math.prod(1 - Fraction(i, m) for i in range(d)))
        rate = ose_failure_probability(m, d, 256, trials=400, seed=seed).rate
        assert abs(rate - p) <= 5 * math.sqrt(p * (1 - p) / 400) + 1 / 400


class TestVerifyCertificate:
    def test_none_verifies_trivially(self):
        A = dense(np.eye(2))
        assert verify_certificate(Certificate(kind="none", source="x"), A)

    def test_tampered_dot_fails(self):
        A = ten_duplicate_basis_columns()
        cert = row_mass_violation_search(A, 0.1)
        forged = Certificate(kind="incoherence_pair", source=cert.source, i=cert.i, j=cert.j, dot=0.5)
        assert not verify_certificate(forged, A)

    def test_tampered_bound_fails(self):
        forged = Certificate(
            kind="sparsity_lower_bound", source="sign_pattern_certify",
            t=2, group_size=2, bound_value=99.0,
        )
        assert not verify_certificate(forged, dense(np.eye(2)))

    def test_tampered_ratio_fails(self):
        A = SparseMatrix(4, 10, [[(0, 1.0)]] * 10)
        cert = rip_pattern_witness(A, 2)
        forged = Certificate(kind="rip_distortion", source=cert.source, vector=cert.vector, ratio=7.0)
        assert not verify_certificate(forged, A)

    def test_non_integer_kernel_vector_fails(self):
        S = OneSparseMap(2, 3, [0, 0, 1], [1, -1, 1])
        forged = Certificate(kind="kernel_witness", source="x", vector=np.array([0.5, 0.5, 0.0]))
        assert not verify_certificate(forged, S)

    def test_zero_kernel_vector_fails(self):
        S = OneSparseMap(2, 3, [0, 0, 1], [1, -1, 1])
        forged = Certificate(kind="kernel_witness", source="x", vector=np.zeros(3))
        assert not verify_certificate(forged, S)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 1e300, 2.0**63, -2.0**63])
    def test_kernel_vector_without_int64_fails(self, entry):
        # NaN, infinities and magnitudes of 2^63 or more are refused before
        # the int64 cast (the suite turns numpy's invalid-cast warning into an error)
        S = OneSparseMap(2, 3, [0, 0, 1], [1, -1, 1])
        forged = Certificate(kind="kernel_witness", source="x", vector=np.array([entry, entry, 0.0]))
        assert not verify_certificate(forged, S)

    @pytest.mark.parametrize("A,vector", [
        (OneSparseMap(1, 4, [0] * 4, [1] * 4), [2**62] * 4),  # the int64 image wraps 2^64 to 0
        (dense([[1.0, 1.0, -1.0]]), [2**53, 1, 2**53]),  # the float image rounds the 1 away
    ], ids=["int64_wrap", "float_rounding"])
    def test_kernel_vector_past_the_exact_image_fails(self, A, vector):
        forged = Certificate(kind="kernel_witness", source="x", vector=np.array(vector))
        assert not verify_certificate(forged, A)

    @pytest.mark.parametrize("vector,verifies", [([2**53, 1, 2**53], False), ([1, 0, 1], True)],
                             ids=["float_rounding", "kernel"])
    def test_kernel_vector_exact_on_non_integer_values(self, vector, verifies):
        # A x = 0.5 for the first vector, which float64 rounds to 0
        A = dense([[0.5, 0.5, -0.5]])
        cert = Certificate(kind="kernel_witness", source="x", vector=np.array(vector))
        assert verify_certificate(cert, A) is verifies

    def test_kernel_vector_of_wrong_length_raises(self):
        cert = Certificate(kind="kernel_witness", source="x", vector=np.array([1, 0, 1, 0]))
        with pytest.raises(DimensionMismatch):
            verify_certificate(cert, dense([[0.5, 0.5, -0.5]]))

    @pytest.mark.parametrize("A", [dense(np.eye(2)), OneSparseMap(2, 3, [0, 0, 1], [1, -1, 1])],
                             ids=["matrix", "map"])
    @pytest.mark.parametrize("head", [[math.inf, -math.inf], [1e300, 1e300]], ids=["inf", "huge"])
    def test_overflowing_rip_vector_fails(self, A, head):
        x = np.zeros(A.n)
        x[:2] = head
        forged = Certificate(kind="rip_distortion", source="x", vector=x, ratio=1.0)
        assert not verify_certificate(forged, A)

    def test_zero_rip_vector_fails(self):
        A = SparseMatrix(4, 10, [[(0, 1.0)]] * 10)
        forged = Certificate(kind="rip_distortion", source="x", vector=np.zeros(10), ratio=1.0)
        assert not verify_certificate(forged, A)

    @pytest.mark.parametrize("i", [0.7, True, "0"])
    def test_non_integer_pair_index_refused(self, i):
        A = ten_duplicate_basis_columns()
        forged = Certificate(kind="incoherence_pair", source="row_mass_violation_search", i=i, j=1, dot=1.0)
        with pytest.raises(InvalidDimension):
            verify_certificate(forged, A)

    @pytest.mark.parametrize("source", ["whatever", "row_mass_violation_search", ""])
    def test_bound_from_unknown_source_fails(self, source):
        # t(N-1)/(2C) would match the t-type constant; no divisor is known for this source
        bound = 2 * (3 - 1) / (2.0 * TTYPE_GROUP_CONSTANT)
        forged = Certificate(kind="sparsity_lower_bound", source=source, t=2, group_size=3, bound_value=bound)
        assert not verify_certificate(forged, dense(np.eye(2)))
        genuine = Certificate(kind="sparsity_lower_bound", source="ttype_collision_certify",
                              t=2, group_size=3, bound_value=bound)
        assert verify_certificate(genuine, dense(np.eye(2)))

    @pytest.mark.parametrize("t,group_size", [(2.5, 2), (True, 2), (2, 2.5), (2, True), ("2", 2)])
    def test_non_integer_bound_fields_refused(self, t, group_size):
        # bound_value is t(N-1)/4 for these fields, so only the type check can refuse them
        forged = Certificate(kind="sparsity_lower_bound", source="sign_pattern_certify", t=t,
                             group_size=group_size, bound_value=float(t) * (float(group_size) - 1) / 4)
        with pytest.raises(InvalidDimension):
            verify_certificate(forged, dense(np.eye(2)))

    def test_bound_from_non_string_source_fails(self):
        forged = Certificate(kind="sparsity_lower_bound", source=["sign_pattern_certify"],
                             t=2, group_size=2, bound_value=0.5)
        assert not verify_certificate(forged, dense(np.eye(2)))

    @pytest.mark.parametrize("dot", ["0.1", None])
    def test_non_numeric_dot_fails(self, dot):
        A = ten_duplicate_basis_columns()
        forged = Certificate(kind="incoherence_pair", source="row_mass_violation_search", i=0, j=1, dot=dot)
        assert not verify_certificate(forged, A)

    def test_non_numeric_bound_fails(self):
        forged = Certificate(kind="sparsity_lower_bound", source="sign_pattern_certify",
                             t=2, group_size=2, bound_value="0.5")
        assert not verify_certificate(forged, dense(np.eye(2)))

    @pytest.mark.parametrize("vector,ratio", [(np.ones(2), "1"), ("ab", 1.0)], ids=["ratio", "vector"])
    def test_non_numeric_rip_fields_fail(self, vector, ratio):
        forged = Certificate(kind="rip_distortion", source="x", vector=vector, ratio=ratio)
        assert not verify_certificate(forged, dense(np.eye(2)))

    @pytest.mark.parametrize("vector", ["ab", None, np.array(["1", "-1", "0"])])
    def test_non_numeric_kernel_vector_fails(self, vector):
        S = OneSparseMap(2, 3, [0, 0, 1], [1, -1, 1])
        forged = Certificate(kind="kernel_witness", source="x", vector=vector)
        assert not verify_certificate(forged, S)

    @pytest.mark.parametrize("kind", [["none"], {"none": 1}, None, 3])
    def test_non_string_kind_rejected(self, kind):
        with pytest.raises(UnknownKind):
            Certificate(kind=kind, source="x")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            verify_certificate(Certificate(kind="bogus"), dense(np.eye(2)))

    def test_jsonable_projects_by_kind(self):
        A = ten_duplicate_basis_columns()
        cert = row_mass_violation_search(A, 0.1)
        obj = cert.to_jsonable()
        assert obj == {
            "kind": "incoherence_pair",
            "source": "row_mass_violation_search",
            "i": 0,
            "j": 1,
            "dot": 1.0,
        }


KERNEL_MAP = OneSparseMap(2, 3, [0, 0, 1], [1, 1, 1])  # [1, -1, 0] is in its kernel


@pytest.mark.parametrize("cert, A", [
    (KernelWitness("s", [True, -1, 0]), KERNEL_MAP),
    (KernelWitness("s", (1, -1, False)), KERNEL_MAP),
    (KernelWitness("s", [np.True_, -1, 0]), KERNEL_MAP),
    (RipDistortion("s", [True, 1], 1.0), SparseMatrix.from_dense(np.eye(2))),
], ids=["kernel_bool", "kernel_tuple_bool", "kernel_numpy_bool", "rip_bool"])
def test_vector_holding_a_bool_does_not_verify(cert, A):
    assert cert.verify(A) is False


@pytest.mark.parametrize("cert, A", [
    (KernelWitness("s", [[1], [-1, 0], 0]), KERNEL_MAP),
    (RipDistortion("s", [[1], [1, 0]], 1.0), SparseMatrix.from_dense(np.eye(2))),
], ids=["kernel", "rip"])
def test_ragged_vector_does_not_verify(cert, A):
    assert cert.verify(A) is False


@pytest.mark.parametrize("search", [ttype_collision_certify, sign_pattern_certify])
@pytest.mark.parametrize("eps", [-1.0, -1e-300, math.nan])
def test_negative_or_nan_eps_refused(search, eps):
    with pytest.raises(InvalidEps):
        search(sample_sparse_sign_jl(16, 40, 4, 1), eps, 2)
