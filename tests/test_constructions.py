"""Codes, samplers, exact support-distribution checks, spread vectors."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sketchbounds import (
    BadArgs,
    Code,
    Exhausted,
    IndexOutOfRange,
    InvalidCount,
    InvalidDimension,
    InvalidEps,
    InvalidSparsity,
    NotDivisible,
    ShapeMismatch,
    SketchboundsError,
    TooFewWords,
    TooLarge,
    UnknownKind,
    code_from_json,
    code_max_agreement,
    code_to_incoherent,
    code_to_json,
    coherence,
    column_norms,
    load_code,
    random_code,
    sample_coordinate_subspace,
    sample_countsketch,
    sample_osnap_block,
    sample_sparse_sign_jl,
    save_code,
    spread_vectors,
    verify_osnap_properties,
)
from sketchbounds.rng import check_seed

ROOT2 = 1.0 / math.sqrt(2.0)


class TestCode:
    def test_basic_properties(self):
        c = Code(3, 2, [(0, 1), (0, 2), (2, 1)])
        assert c.q == 3 and c.t == 2 and c.size == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Code(1, 2, [(0, 0)])
        with pytest.raises(ValueError):
            Code(3, 0, [()])
        with pytest.raises(ValueError):
            Code(3, 2, [(0, 3)])
        with pytest.raises(ValueError):
            Code(3, 2, [(0, 1), (0, 1)])

    def test_immutability_and_equality(self):
        c = Code(3, 2, [(0, 1)])
        with pytest.raises(AttributeError):
            c.q = 4
        assert c == Code(3, 2, [(0, 1)])
        assert c != Code(3, 2, [(0, 2)])

    def test_json_round_trip(self, tmp_path):
        c = Code(4, 3, [(0, 1, 2), (3, 0, 0)])
        assert code_from_json(code_to_json(c)) == c
        p = tmp_path / "code.json"
        save_code(c, p)
        assert load_code(p) == c

    def test_loader_rejections(self):
        with pytest.raises(ValueError):
            code_from_json("nope")
        with pytest.raises(ValueError):
            code_from_json('{"q":3,"t":2}')
        for text in ('{"q":3,"t":1,"words":[[1.5]]}', '{"q":3,"t":1,"words":[[0],[true]]}',
                     '{"q":3.5,"t":1,"words":[[1]]}', '{"q":3,"t":1,"words":[[1],[1]]}'):
            with pytest.raises(SketchboundsError):
                code_from_json(text)

    def test_max_agreement(self):
        c = Code(4, 3, [(0, 1, 2), (0, 1, 3), (3, 2, 1)])
        assert code_max_agreement(c) == 2
        with pytest.raises(TooFewWords):
            code_max_agreement(Code(4, 3, [(0, 1, 2)]))


class TestRandomCode:
    def test_frozen_sample(self):
        c = random_code(4, 3, 5, 0.5, seed=1)
        assert c.words.tolist() == [[1, 2, 3], [3, 0, 0], [1, 3, 1], [0, 0, 3], [3, 3, 2]]
        assert code_max_agreement(c) == 1  # cap = floor(0.5 * 3) = 1

    def test_deterministic(self):
        assert random_code(5, 4, 8, 0.5, seed=9) == random_code(5, 4, 8, 0.5, seed=9)
        assert random_code(5, 4, 8, 0.5, seed=9) != random_code(5, 4, 8, 0.5, seed=10)

    def test_respects_agreement_cap(self):
        for seed in range(5):
            c = random_code(6, 5, 12, 0.4, seed=seed)
            assert code_max_agreement(c) <= math.floor(0.4 * 5)

    def test_duplicates_rejected_even_with_vacuous_cap(self):
        c = random_code(2, 2, 4, 1.0, seed=0)  # all 4 distinct words needed
        assert c.size == 4
        assert len({tuple(w) for w in c.words.tolist()}) == 4

    def test_exhausted_when_impossible(self):
        # agreement cap 0 over a binary alphabet admits at most 2 words
        with pytest.raises(Exhausted):
            random_code(2, 1, 3, 0.99, seed=0, max_attempts=50)

    def test_domain_checks(self):
        with pytest.raises(InvalidEps):
            random_code(4, 3, 5, 0.0, seed=0)
        with pytest.raises(InvalidCount):
            random_code(4, 3, 0, 0.5, seed=0)
        with pytest.raises(InvalidCount):
            random_code(4, 3, 5, 0.5, seed=0, max_attempts=0)

    @pytest.mark.parametrize("eps", ["x", None, True, [0.5]])
    def test_non_numeric_eps_is_refused(self, eps):
        with pytest.raises(InvalidEps, match="eps must be a number"):
            random_code(4, 3, 5, eps, seed=0)

    def test_alphabet_and_block_length_checked_before_sampling(self):
        # these used to spin through max_attempts and report Exhausted
        with pytest.raises(InvalidDimension, match="alphabet size must be >= 2"):
            random_code(1, 3, 2, 0.5, seed=0)
        with pytest.raises(InvalidDimension, match="block length must be >= 1"):
            random_code(2, 0, 2, 0.5, seed=0)
        with pytest.raises(InvalidDimension, match="word count must be an integer"):
            random_code(4, 3, 2.0, 0.5, seed=0)
        with pytest.raises(TooLarge):
            random_code(2**64, 3, 2, 0.5, seed=0)


class TestCodeToIncoherent:
    def test_structure(self):
        c = Code(3, 2, [(0, 1), (0, 2), (2, 1)])
        A = code_to_incoherent(c)
        assert (A.m, A.n) == (6, 3)
        val = 1.0 / math.sqrt(2.0)
        # word (0, 1): chunk 0 offset 0 -> row 0, chunk 1 offset 1 -> row 3 + 1
        rows, vals = A.column(0)
        assert rows.tolist() == [0, 4]
        assert vals.tolist() == [val, val]
        assert np.max(np.abs(column_norms(A) - 1.0)) <= 1e-12

    def test_coherence_equals_agreement_over_t(self):
        c = Code(3, 2, [(0, 1), (0, 2), (2, 1)])
        A = code_to_incoherent(c)
        assert abs(coherence(A) - code_max_agreement(c) / c.t) <= 1e-12

    def test_dot_products_count_agreements(self):
        c = Code(4, 3, [(0, 1, 2), (0, 1, 3), (3, 2, 1)])
        A = code_to_incoherent(c)
        D = A.to_dense()
        G = D.T @ D
        words = c.words
        for i in range(3):
            for j in range(i + 1, 3):
                agree = int((words[i] == words[j]).sum())
                assert abs(G[i, j] - agree / 3) <= 1e-12


@pytest.mark.parametrize("seed", [True, False, 1.0, -1, 2**64])
def test_seed_must_be_a_64_bit_integer(seed):
    with pytest.raises(BadArgs):
        check_seed(seed)


class TestSignJlSampler:
    def test_frozen_sample(self):
        A = sample_sparse_sign_jl(8, 3, 2, seed=42)
        assert A.column(0)[0].tolist() == [3, 7]
        assert A.column(0)[1].tolist() == [ROOT2, -ROOT2]
        assert A.column(1)[0].tolist() == [0, 3]
        assert A.column(1)[1].tolist() == [-ROOT2, ROOT2]
        assert A.column(2)[0].tolist() == [0, 4]
        assert A.column(2)[1].tolist() == [ROOT2, -ROOT2]

    def test_structure(self):
        A = sample_sparse_sign_jl(32, 20, 5, seed=0)
        scale = 1.0 / math.sqrt(5)
        for j in range(A.n):
            rows, vals = A.column(j)
            assert rows.size == 5
            assert np.all(np.diff(rows) > 0)
            assert np.all(np.isin(vals, (scale, -scale)))

    def test_unit_columns(self):
        A = sample_sparse_sign_jl(64, 10, 7, seed=3)
        assert np.max(np.abs(column_norms(A) - 1.0)) <= 1e-12

    def test_per_column_streams_extend(self):
        # widening the matrix must not disturb earlier columns
        A8 = sample_sparse_sign_jl(16, 8, 3, seed=9)
        A16 = sample_sparse_sign_jl(16, 16, 3, seed=9)
        for j in range(8):
            assert np.array_equal(A8.column(j)[0], A16.column(j)[0])
            assert np.array_equal(A8.column(j)[1], A16.column(j)[1])

    def test_deterministic(self):
        assert sample_sparse_sign_jl(16, 6, 4, 5) == sample_sparse_sign_jl(16, 6, 4, 5)
        assert sample_sparse_sign_jl(16, 6, 4, 5) != sample_sparse_sign_jl(16, 6, 4, 6)

    def test_sparsity_domain(self):
        with pytest.raises(InvalidSparsity):
            sample_sparse_sign_jl(4, 2, 0, 0)
        with pytest.raises(InvalidSparsity):
            sample_sparse_sign_jl(4, 2, 5, 0)

    def test_mean_squared_norm_preserved(self):
        # sketching a fixed unit vector: E |Ax|^2 = 1, so the average over
        # many independent matrices concentrates tightly around 1
        from sketchbounds import apply

        m, n, s = 256, 200, 16
        rng = np.random.default_rng(34)
        x = rng.standard_normal(n)
        x /= math.sqrt(float(x @ x))
        total = 0.0
        reps = 100
        for seed in range(reps):
            y = apply(sample_sparse_sign_jl(m, n, s, seed), x)
            total += float(y @ y)
        assert 0.97 <= total / reps <= 1.03


class TestOsnapBlockSampler:
    def test_frozen_sample(self):
        B = sample_osnap_block(8, 2, 2, seed=7)
        assert B.column(0)[0].tolist() == [1, 7]
        assert B.column(0)[1].tolist() == [-ROOT2, -ROOT2]
        assert B.column(1)[0].tolist() == [2, 5]
        assert B.column(1)[1].tolist() == [-ROOT2, -ROOT2]

    def test_one_entry_per_block(self):
        m, s = 24, 4
        b = m // s
        A = sample_osnap_block(m, 30, s, seed=2)
        for j in range(A.n):
            rows, vals = A.column(j)
            assert rows.size == s
            assert [int(r) // b for r in rows] == list(range(s))
            assert np.all(np.abs(vals) == 1.0 / math.sqrt(s))

    def test_divisibility_required(self):
        with pytest.raises(NotDivisible):
            sample_osnap_block(10, 2, 3, seed=0)

    def test_deterministic(self):
        assert sample_osnap_block(12, 5, 3, 8) == sample_osnap_block(12, 5, 3, 8)


@pytest.mark.parametrize("call, error, message", [
    (lambda: sample_sparse_sign_jl(16, 10, 2.0, 7), InvalidDimension, "sparsity must be an integer"),
    (lambda: sample_sparse_sign_jl(16, 10.0, 2, 7), InvalidDimension, "column count must be an integer"),
    (lambda: sample_sparse_sign_jl(16.0, 10, 2, 7), InvalidDimension, "row count must be an integer"),
    (lambda: sample_osnap_block(16, 10, 2.0, 7), InvalidDimension, "sparsity must be an integer"),
    (lambda: sample_countsketch(16, 2.0, 7), InvalidDimension, "column count must be an integer"),
    (lambda: sample_coordinate_subspace(10, 2.0, 7), InvalidDimension, "subspace dimension must be an integer"),
    (lambda: sample_sparse_sign_jl(2**63, 2, 1, 7), TooLarge, "row count must be at most"),
    (lambda: sample_osnap_block(2**64, 2, 2, 7), TooLarge, "row count must be at most"),
    (lambda: sample_sparse_sign_jl(4, 2**62, 1, 7), TooLarge, "sampled entries are supported"),
    (lambda: sample_countsketch(2**63 + 1, 2, 7), TooLarge, "row count must be at most"),
    (lambda: sample_countsketch(4, 2**40, 7), TooLarge, "sampled entries are supported"),
    (lambda: sample_coordinate_subspace(2**64, 2, 7), TooLarge, "coordinate count must be at most"),
])
def test_sampler_sizes_stay_inside_the_error_surface(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_largest_drawable_ranges_still_sample():
    assert sample_countsketch(2**63, 3, 1).a.size == 3
    assert sample_sparse_sign_jl(2**63 - 1, 2, 2, 3).nnz == 4
    assert len(sample_coordinate_subspace(2**63 - 1, 2, 3)) == 2


class TestCountSketchSampler:
    def test_frozen_sample(self):
        S = sample_countsketch(6, 8, seed=3)
        assert S.a.tolist() == [4, 0, 1, 1, 1, 4, 5, 3]
        assert S.sigma.tolist() == [-1, -1, -1, -1, 1, -1, -1, -1]

    def test_ranges(self):
        S = sample_countsketch(16, 500, seed=1)
        assert int(S.a.min()) >= 0 and int(S.a.max()) < 16
        assert set(np.unique(S.sigma)) <= {-1, 1}

    def test_row_loads_roughly_uniform(self):
        n, m = 10_000, 8
        S = sample_countsketch(m, n, seed=6)
        loads = S.row_loads()
        assert int(loads.sum()) == n
        assert np.all(np.abs(loads - n / m) < 200)  # ~5.7 sigma

    def test_deterministic(self):
        assert sample_countsketch(8, 20, 4) == sample_countsketch(8, 20, 4)
        assert sample_countsketch(8, 20, 4) != sample_countsketch(8, 20, 5)


class TestCoordinateSubspace:
    def test_frozen_sample(self):
        assert sample_coordinate_subspace(10, 4, seed=5) == (0, 4, 6, 8)

    def test_sorted_distinct_in_range(self):
        idx = sample_coordinate_subspace(100, 30, seed=8)
        assert list(idx) == sorted(set(idx))
        assert 0 <= min(idx) and max(idx) < 100

    def test_domain(self):
        with pytest.raises(InvalidDimension):
            sample_coordinate_subspace(5, 6, seed=0)
        with pytest.raises(InvalidDimension):
            sample_coordinate_subspace(5, 0, seed=0)


class TestOsnapProperties:
    def test_same_column_pair_sign_jl(self):
        rep = verify_osnap_properties(4, 2, 2, "sign_jl", [(0, 0), (2, 0)])
        assert rep.exact_expectation == Fraction(1, 6)
        assert rep.exact_bound == Fraction(1, 4)
        assert rep.holds

    def test_same_column_pair_block_hits_bound(self):
        # rows 0 and 2 sit in different blocks: probability is exactly (s/m)^2
        rep = verify_osnap_properties(4, 2, 2, "block", [(0, 0), (2, 0)])
        assert rep.exact_expectation == Fraction(1, 4)
        assert rep.exact_bound == Fraction(1, 4)
        assert rep.holds

    def test_same_block_pair_block_is_impossible(self):
        # rows 0 and 1 share a block: a block column never holds both
        rep = verify_osnap_properties(4, 2, 2, "block", [(0, 0), (1, 0)])
        assert rep.exact_expectation == Fraction(0)
        assert rep.holds

    def test_cross_column_independence(self):
        for sampler in ("sign_jl", "block"):
            rep = verify_osnap_properties(4, 2, 2, sampler, [(0, 0), (0, 1)])
            assert rep.exact_expectation == Fraction(1, 4)
            assert rep.exact_bound == Fraction(1, 4)
            assert rep.holds

    def test_too_many_nonzeros_in_one_column(self):
        rep = verify_osnap_properties(4, 1, 2, "sign_jl", [(0, 0), (1, 0), (2, 0)])
        assert rep.exact_expectation == Fraction(0)

    def test_guards(self):
        with pytest.raises(TooLarge):
            verify_osnap_properties(4, 8, 2, "sign_jl", [(0, j) for j in range(7)])
        with pytest.raises(TooLarge):
            verify_osnap_properties(32, 2, 2, "sign_jl", [(0, 0)])
        with pytest.raises(UnknownKind):
            verify_osnap_properties(4, 2, 2, "bogus", [(0, 0)])
        with pytest.raises(NotDivisible):
            verify_osnap_properties(10, 2, 3, "block", [(0, 0)])

    @pytest.mark.parametrize("m,s,cells", [(4, 2, []), (4, 2, [(9, 0)]), (4, 9, [(0, 0)])])
    def test_unknown_sampler_refused_first(self, m, s, cells):
        # with no cells at all, and before any cell or sparsity check
        with pytest.raises(UnknownKind):
            verify_osnap_properties(m, 2, s, "bogus", cells)

    def test_duplicate_cells_collapse(self):
        rep = verify_osnap_properties(4, 2, 2, "block", [(0, 0), (0, 0)])
        assert rep.exact_expectation == Fraction(1, 2)
        assert rep.exact_bound == Fraction(1, 2)


class TestSpreadVectors:
    def test_hand_example(self):
        # k = 4: two chunks of q = 4 positions inside n = 8
        c = Code(4, 2, [(0, 1), (0, 3), (2, 1)])
        vecs = spread_vectors(c, 8, 4)
        val = math.sqrt(0.5)
        want0 = np.zeros(8)
        want0[0] = val  # chunk 0, symbol 0
        want0[4 + 1] = val  # chunk 1, symbol 1
        assert np.array_equal(vecs[0], want0)
        for y in vecs:
            assert abs(float(y @ y) - 1.0) <= 1e-12

    def test_dots_count_agreements(self):
        c = Code(4, 2, [(0, 1), (0, 3), (2, 1)])
        vecs = spread_vectors(c, 8, 4)
        words = c.words
        for i in range(3):
            for j in range(i + 1, 3):
                agree = int((words[i] == words[j]).sum())
                assert abs(float(vecs[i] @ vecs[j]) - 2.0 * agree / 4.0) <= 1e-12

    @pytest.mark.parametrize(
        "q,t,n,k",
        [
            (4, 2, 8, 3),   # odd k
            (4, 2, 9, 4),   # k does not divide 2n
            (4, 3, 8, 4),   # t != k/2
            (3, 2, 8, 4),   # q != 2n/k
        ],
    )
    def test_shape_mismatches(self, q, t, n, k):
        words = [[0] * t]
        with pytest.raises(ShapeMismatch):
            spread_vectors(Code(q, t, words), n, k)


@pytest.mark.parametrize("call, expected", [
    (lambda: Code(2, 2, [[0, 1, 1]]), ShapeMismatch),
    (lambda: Code(2, 2, [0, 1]), ShapeMismatch),
    (lambda: Code(2, 2, np.empty((0, 2), dtype=np.int64)), InvalidDimension),
    (lambda: Code(3, 2, [(0, 1)]) == "code", False),
    (lambda: hash(Code(3, 2, [(0, 1)])) == hash(Code(3, 2, [(0, 1)])), True),
    (lambda: repr(Code(3, 2, [(0, 1)])), "Code(q=3, t=2, size=1)"),
    (lambda: sample_sparse_sign_jl(4, 0, 1, 0), InvalidDimension),
    (lambda: sample_osnap_block(4, 0, 2, 0), InvalidDimension),
    (lambda: sample_osnap_block(4, 3, 0, 0), InvalidSparsity),
    (lambda: sample_osnap_block(4, 3, 5, 0), InvalidSparsity),
    (lambda: sample_countsketch(0, 3, 0), InvalidDimension),
    (lambda: sample_countsketch(4, 0, 0), InvalidDimension),
    (lambda: verify_osnap_properties(4, 2, 5, "sign_jl", []), InvalidSparsity),
    (lambda: verify_osnap_properties(4, 2, 2, "sign_jl", [(4, 0)]), IndexOutOfRange),
    (lambda: verify_osnap_properties(4, 2, 2, "block", [(0, 2)]), IndexOutOfRange),
], ids=["word_length", "flat_words", "no_words", "code_eq_other_type", "code_hash", "code_repr",
        "sign_jl_no_columns", "osnap_no_columns", "osnap_s_zero", "osnap_s_above_m", "countsketch_no_rows",
        "countsketch_no_columns", "osnap_check_s_above_m", "osnap_check_row", "osnap_check_column"])
def test_edge_arguments(call, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected
