"""Sparse matrix core: construction, application, streaming, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchbounds import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimension,
    OneSparseMap,
    SketchboundsError,
    SparseMatrix,
    ZeroColumn,
    apply,
    column_norms,
    column_sparsity,
    load_matrix,
    load_one_sparse_map,
    matrix_from_json,
    matrix_to_json,
    normalize_columns,
    one_sparse_map_from_json,
    one_sparse_map_to_json,
    ose_collision_witness,
    save_matrix,
    save_one_sparse_map,
    stream_updates,
    subspace_distortion,
)
from sketchbounds.errors import InvalidEntry, MalformedArtifact, TooLarge
from sketchbounds.matrices import _constant_magnitude, canonical_json

from conftest import dense

DENSE_4X3 = np.array(
    [
        [1.5, 0.0, -2.0],
        [0.0, 0.0, 0.25],
        [-0.5, 3.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)


class TestConstruction:
    def test_from_dense_round_trip(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        assert A.m == 4 and A.n == 3
        assert np.array_equal(A.to_dense(), DENSE_4X3)
        assert A.nnz == 6
        assert A.column_nnz(0) == 2
        assert A.column_nnz(1) == 1
        assert column_sparsity(A) == 3

    def test_columns_store_increasing_rows(self):
        A = SparseMatrix(4, 1, [[(1, 2.0), (3, -1.0)]])
        rows, vals = A.column(0)
        assert rows.tolist() == [1, 3]
        assert vals.tolist() == [2.0, -1.0]

    def test_explicit_zeros_are_dropped(self):
        A = SparseMatrix(3, 1, [[(0, 0.0), (2, 1.0)]])
        assert A.column_nnz(0) == 1
        assert A.column(0)[0].tolist() == [2]

    def test_rejects_decreasing_rows(self):
        with pytest.raises(ValueError):
            SparseMatrix(4, 1, [[(2, 1.0), (1, 1.0)]])

    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError):
            SparseMatrix(4, 1, [[(1, 1.0), (1, 2.0)]])

    def test_rejects_out_of_range_row(self):
        with pytest.raises(IndexOutOfRange):
            SparseMatrix(4, 1, [[(4, 1.0)]])
        with pytest.raises(IndexOutOfRange):
            SparseMatrix(4, 1, [[(-1, 1.0)]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 1, [[(0, math.nan)]])
        with pytest.raises(ValueError):
            SparseMatrix(2, 1, [[(0, math.inf)]])

    def test_rejects_wrong_column_count(self):
        with pytest.raises(DimensionMismatch):
            SparseMatrix(2, 3, [[(0, 1.0)]])

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            SparseMatrix(0, 1, [[]])

    def test_immutable(self):
        A = dense([[1.0]])
        with pytest.raises(AttributeError):
            A.m = 5
        rows, vals = A.column(0)
        with pytest.raises(ValueError):
            vals[0] = 2.0

    def test_structural_equality(self):
        A = dense([[1.0, 0.0], [0.0, 2.0]])
        B = dense([[1.0, 0.0], [0.0, 2.0]])
        C = dense([[1.0, 0.0], [0.0, 2.5]])
        assert A == B
        assert A != C

    def test_column_index_checked(self):
        A = dense([[1.0]])
        with pytest.raises(IndexOutOfRange):
            A.column(1)

    def test_submatrix_dense_selects_in_order(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        got = A.submatrix_dense([2, 0])
        assert np.array_equal(got, DENSE_4X3[:, [2, 0]])


class TestApply:
    def test_matches_dense_on_basis_vectors(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert np.array_equal(apply(A, e), DENSE_4X3[:, i])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((7, 5))
        D[rng.random((7, 5)) < 0.5] = 0.0
        D[0, :] = 1.0  # no zero columns
        A = SparseMatrix.from_dense(D)
        x = rng.standard_normal(5)
        assert np.max(np.abs(apply(A, x) - D @ x)) <= 1e-12

    def test_linearity(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        lhs = apply(A, 2.0 * x + 3.0 * y)
        rhs = 2.0 * apply(A, x) + 3.0 * apply(A, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_checked(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        with pytest.raises(DimensionMismatch):
            apply(A, np.ones(4))

    def test_integer_vector_on_integer_matrix_is_exact(self):
        A = SparseMatrix.from_dense([[1.0, 1.0, -1.0], [0.0, 3.0, 0.0]])
        y = apply(A, np.array([2**53, 1, 2**53]))
        assert y.dtype == np.int64 and y.tolist() == [1, 3]
        # a float vector keeps the float path, which rounds the 1 away
        assert apply(A, np.array([2.0**53, 1.0, 2.0**53])).tolist() == [0.0, 3.0]
        # so does an integer vector on a matrix with a non-integer value
        assert apply(SparseMatrix.from_dense([[0.5, 1.0]]), np.array([1, 1])).tolist() == [1.5]

    def test_exact_image_past_the_bound_raises(self):
        A = SparseMatrix.from_dense([[1.0, 1.0], [0.0, -2.0]])
        assert apply(A, np.array([2**59, 2**59])).tolist() == [2**60, -(2**60)]
        with pytest.raises(TooLarge):
            apply(A, np.array([2**60, 2**60]))  # 2 * 2^61 = 2^62
        with pytest.raises(TooLarge):
            apply(SparseMatrix.from_dense([[2.0**62]]), np.array([0]))

    @pytest.mark.parametrize("x", [
        [True, False, True],
        np.array([True, False, True]),
        [1, True, 0],
        [1, None, 1],
        ["1", "2", "3"],
        np.array([1, 1j, 0]),
    ], ids=["bools", "bool_array", "int_and_bool", "none", "strings", "complex"])
    def test_non_real_entries_refused(self, x):
        with pytest.raises(InvalidEntry):
            apply(SparseMatrix.from_dense(DENSE_4X3), x)

    def test_non_finite_floats_pass_through(self):
        y = apply(SparseMatrix.from_dense(DENSE_4X3), np.array([math.inf, 0.0, 0.0]))
        assert y.tolist() == [math.inf, 0.0, -math.inf, 0.0]


class TestStreamUpdate:
    def test_accumulates_like_apply(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        sketch = np.zeros(4)
        x = np.zeros(3)
        updates = [(0, 1.5), (2, -0.5), (0, 0.25), (1, 2.0), (2, 0.125)]
        for i, v in updates:
            out = stream_updates(sketch, A, [i], [v])
            assert out is sketch  # in-place contract
            x[i] += v
        assert np.max(np.abs(sketch - apply(A, x))) <= 1e-12

    def test_touches_only_the_columns_rows(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        sketch = np.zeros(4)
        stream_updates(sketch, A, [2], [1.0])
        assert np.nonzero(sketch)[0].tolist() == A.column(2)[0].tolist()

    def test_shape_checked(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        with pytest.raises(DimensionMismatch):
            stream_updates(np.zeros(3), A, [0], [1.0])

    @pytest.mark.parametrize("sketch", [
        np.zeros(4, dtype=np.int64),
        np.zeros(4, dtype=bool),
        np.zeros(4, dtype=np.float32),
        np.zeros(4, dtype=complex),
        [0.0] * 4,
        np.frombuffer(bytes(32)),  # four read-only float64 zeros
    ], ids=["int", "bool", "float32", "complex", "list", "read_only"])
    def test_a_sketch_that_is_not_float64_is_refused_unwritten(self, sketch):
        # an int sketch would round the update 1.5 down to 1, and np.add.at
        # writes into a read-only array
        before = list(sketch)
        with pytest.raises(InvalidEntry):
            stream_updates(sketch, SparseMatrix.from_dense(DENSE_4X3), [0], [1.5])
        assert list(sketch) == before


class TestStreamUpdates:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bits_of_one_update_at_a_time(self, data):
        # ragged columns of values of many magnitudes, and few columns, so
        # that a batch updates some column more than once
        m = data.draw(st.integers(1, 12), label="m")
        n = data.draw(st.integers(1, 6), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
        values = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 9, size=(m, n))
        A = SparseMatrix.from_dense(values * (rng.random((m, n)) < 0.6))
        count = data.draw(st.integers(0, 40), label="count")
        i = rng.integers(0, n, size=count)
        v = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 9, size=count)
        start = rng.standard_normal(m)
        # one update at a time is the scalar fold over its column
        want = start.copy()
        for j, value in zip(i.tolist(), v.tolist()):
            rows, vals = A.column(j)
            want[rows] += value * vals
        got = start.copy()
        assert stream_updates(got, A, i, v) is got
        assert got.tobytes() == want.tobytes()

    def test_integer_and_list_inputs(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        got = stream_updates(np.zeros(4), A, [2, 0, 2], [1, -3, 2])
        assert got.tolist() == apply(A, np.array([-3.0, 0.0, 3.0])).tolist()
        assert stream_updates(np.ones(4), A, [], []).tolist() == [1.0] * 4

    @pytest.mark.parametrize("i, v, error", [
        ([1], [float("nan")], InvalidEntry),
        ([0, 1], [1.0, float("inf")], InvalidEntry),
        ([1], ["x"], InvalidEntry),
        ([1], [True], InvalidEntry),
        ([1], [None], InvalidEntry),
        ([True], [1.0], InvalidDimension),
        ([np.True_], [1.0], InvalidDimension),
        ([1.5], [1.0], InvalidDimension),
        (["1"], [1.0], InvalidDimension),
        ([0, 3], [1.0, 1.0], IndexOutOfRange),
        ([-1], [1.0], IndexOutOfRange),
        ([2**64 - 1], [1.0], IndexOutOfRange),
        ([0, 1], [1.0], DimensionMismatch),
        ([[0]], [[1.0]], DimensionMismatch),
        (0, 1.0, DimensionMismatch),
    ])
    def test_a_refused_batch_writes_nothing(self, i, v, error):
        A = SparseMatrix.from_dense(DENSE_4X3)
        sketch = np.arange(4.0)
        # the valid updates of a refused batch are not applied either
        with pytest.raises(error):
            stream_updates(sketch, A, i, v)
        assert sketch.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_one_update_refuses_nan(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        sketch = np.zeros(4)
        with pytest.raises(InvalidEntry):
            stream_updates(sketch, A, [1], [float("nan")])
        assert not sketch.any()


@pytest.mark.parametrize("call", [
    lambda S: subspace_distortion(S, [0, 1.5]),
    lambda S: subspace_distortion(S, [0, True]),
    lambda S: S.submatrix_dense([1.9]),
    lambda S: S.column(1.5),
    lambda S: stream_updates(np.zeros(S.m), S, [1.5], [1.0]),
], ids=["distortion_float", "distortion_bool", "submatrix_float", "column_float", "stream_update_float"])
def test_non_integer_column_index_refused(call):
    # int(j) would truncate each of these to column 1
    S = OneSparseMap(4, 6, [0, 1, 2, 3, 0, 1], [1, -1, 1, 1, -1, 1])
    with pytest.raises(InvalidDimension):
        call(S)


NOT_A_FLAT_LIST = {"int": 3, "none": None, "2d": np.array([[0, 1], [2, 3]])}


@pytest.mark.parametrize("call, indices", [
    pytest.param(call, indices, id=f"{name}-{kind}")
    for name, call in [
        ("submatrix", lambda S, indices: S.submatrix_dense(indices)),
        ("distortion", lambda S, indices: subspace_distortion(S, indices)),
        ("ose_collision", lambda S, indices: ose_collision_witness(S, indices)),
    ]
    for kind, indices in NOT_A_FLAT_LIST.items()
    if (name, kind) != ("ose_collision", "none")  # None selects every column there
])
def test_column_indices_that_are_no_flat_list_refused(call, indices):
    S = OneSparseMap(4, 6, [0, 1, 2, 3, 0, 1], [1, -1, 1, 1, -1, 1])
    with pytest.raises(DimensionMismatch):
        call(S, indices)


class TestNormalize:
    def test_unit_norms_after(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        B = normalize_columns(A)
        assert np.max(np.abs(column_norms(B) - 1.0)) <= 1e-15

    def test_idempotent(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        once = normalize_columns(A)
        twice = normalize_columns(once)
        assert np.max(np.abs(once.to_dense() - twice.to_dense())) <= 1e-15

    def test_zero_column_rejected(self):
        A = SparseMatrix(2, 2, [[(0, 1.0)], []])
        with pytest.raises(ZeroColumn):
            normalize_columns(A)

    def test_pattern_preserved(self):
        A = SparseMatrix.from_dense(DENSE_4X3)
        B = normalize_columns(A)
        for j in range(A.n):
            assert np.array_equal(A.column(j)[0], B.column(j)[0])


class TestOneSparseMap:
    def test_construction_and_validation(self):
        S = OneSparseMap(3, 4, [0, 2, 2, 1], [1, -1, 1, 1])
        assert S.m == 3 and S.n == 4
        assert S.row_loads().tolist() == [1, 1, 2]
        with pytest.raises(IndexOutOfRange):
            OneSparseMap(3, 2, [0, 3], [1, 1])
        with pytest.raises(ValueError):
            OneSparseMap(3, 2, [0, 1], [1, 2])
        with pytest.raises(DimensionMismatch):
            OneSparseMap(3, 2, [0], [1, 1])

    def test_apply_matches_dense(self):
        S = OneSparseMap(3, 4, [0, 2, 2, 1], [1, -1, 1, 1])
        D = S.to_dense()
        x = np.array([1.0, 2.0, -3.0, 0.5])
        assert np.max(np.abs(apply(S, x) - D @ x)) <= 1e-12

    def test_integer_apply_stays_integer(self):
        S = OneSparseMap(2, 3, [0, 0, 1], [1, -1, 1])
        y = apply(S, np.array([1, 1, 0], dtype=np.int64))
        assert y.dtype == np.int64
        assert y.tolist() == [0, 0]  # exact cancellation

    def test_apply_on_basis(self):
        S = OneSparseMap(4, 3, [2, 0, 2], [-1, 1, 1])
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            y = apply(S, e)
            assert y[S.a[i]] == S.sigma[i]
            assert np.count_nonzero(y) == 1

    def test_immutable(self):
        S = OneSparseMap(2, 1, [0], [1])
        with pytest.raises(AttributeError):
            S.m = 3
        with pytest.raises(ValueError):
            S.a[0] = 1

    def test_equality(self):
        S = OneSparseMap(2, 2, [0, 1], [1, -1])
        assert S == OneSparseMap(2, 2, [0, 1], [1, -1])
        assert S != OneSparseMap(2, 2, [0, 1], [1, 1])

    def test_is_the_same_sparse_matrix(self):
        S = OneSparseMap(3, 4, [0, 2, 2, 1], [1, -1, 1, 1])
        A = SparseMatrix.from_dense(S.to_dense())
        assert S == A and A == S and hash(S) == hash(A)
        assert S.sigma.dtype == np.int64 and not S.sigma.flags.writeable
        assert repr(S) == "OneSparseMap(m=3, n=4, nnz=4)"


class TestConstantMagnitude:
    @pytest.mark.parametrize("rows,c", [
        ([[0.5, -0.5], [0.0, 0.5]], 0.5),
        ([[-3.0]], 3.0),
        ([[0.1, 0.0], [0.0, -0.1]], 0.1),
    ])
    def test_one_magnitude(self, rows, c):
        assert _constant_magnitude(dense(rows)) == c

    @pytest.mark.parametrize("rows", [
        [[0.5, 0.25], [0.0, 0.5]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[0.5, 0.5 + 2.0**-53]],
    ])
    def test_mixed_or_empty(self, rows):
        assert _constant_magnitude(dense(rows)) is None


class TestJson:
    def test_canonical_form(self):
        text = canonical_json({"b": 1, "a": [1.5, 2]})
        assert text == '{"a":[1.5,2],"b":1}\n'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_canonical_form_refuses_non_finite_numbers(self, value):
        with pytest.raises(InvalidEntry):
            canonical_json({"a": [1.0, value]})

    def test_path_with_nul_byte(self, tmp_path):
        with pytest.raises(MalformedArtifact):
            load_matrix(f"{tmp_path}/A\0.json")

    def test_matrix_round_trip_is_exact(self):
        A = SparseMatrix.from_dense(DENSE_4X3 / 3.0)  # non-dyadic values
        B = matrix_from_json(matrix_to_json(A))
        assert A == B  # bitwise: repr-style float serialization round-trips

    def test_matrix_json_shape(self):
        A = dense([[1.0, 0.0], [0.0, -2.0]])
        obj = json.loads(matrix_to_json(A))
        assert obj == {"m": 2, "n": 2, "cols": [[[0, 1.0]], [[1, -2.0]]]}

    def test_map_round_trip(self):
        S = OneSparseMap(3, 4, [0, 2, 2, 1], [1, -1, 1, 1])
        assert one_sparse_map_from_json(one_sparse_map_to_json(S)) == S

    def test_matrix_loaders_read_a_map(self, tmp_path):
        S = OneSparseMap(3, 4, [0, 2, 2, 1], [1, -1, 1, 1])
        save_one_sparse_map(S, tmp_path / "S.json")
        for loaded in (matrix_from_json(one_sparse_map_to_json(S)), load_matrix(tmp_path / "S.json")):
            assert type(loaded) is OneSparseMap and loaded == S

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '{"m":2,"n":1}',
            '{"m":2,"n":1,"cols":[[[0]]]}',
            '{"m":2,"n":1,"cols":[[[0,NaN]]]}',
            '{"m":2,"n":1,"cols":[[[0,1.0],[0,2.0]]]}',
            '{"m":2,"n":1,"cols":[[[5,1.0]]]}',
            '{"m":2,"n":2,"cols":[[[0,1.0]]]}',
            '{"m":4.9,"n":1,"cols":[[[1.7,0.5]]]}',
            '{"m":4,"n":1,"cols":[[[1.7,0.5]]]}',
            '{"m":true,"n":1,"cols":[[[0,0.5]]]}',
            '{"m":4,"n":1,"cols":[[[0,0.5],[true,0.5]]]}',
            '{"m":4,"n":1,"cols":[[[0,"0.5"]]]}',
            '{"m":4,"n":1,"cols":[[[null,0.5]]]}',
            '{"m":4,"n":1,"cols":[5]}',
            '{"m":4,"n":1,"cols":[[[0,0.5,1]]]}',
            '[1, 2]',
        ],
    )
    def test_matrix_loader_rejections(self, text):
        with pytest.raises(SketchboundsError):
            matrix_from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"m":2,"n":2,"a":[0,1]}',
            '{"m":2,"n":2,"a":[0,5],"sigma":[1,1]}',
            '{"m":2,"n":2,"a":[0,1],"sigma":[1,0]}',
            '{"m":2,"n":2,"a":[1.9,0.2],"sigma":[1,1]}',
            '{"m":2,"n":2,"a":[0,true],"sigma":[1,1]}',
            '{"m":2.0,"n":2,"a":[0,1],"sigma":[1,1]}',
            '{"m":2,"n":2,"a":[[0],[1,1]],"sigma":[1,1]}',
        ],
    )
    def test_map_loader_rejections(self, text):
        with pytest.raises(SketchboundsError):
            one_sparse_map_from_json(text)

    def test_save_and_load(self, tmp_path):
        A = SparseMatrix.from_dense(DENSE_4X3)
        pa = tmp_path / "A.json"
        save_matrix(A, pa)
        assert load_matrix(pa) == A
        S = OneSparseMap(3, 2, [1, 1], [-1, 1])
        ps = tmp_path / "S.json"
        save_one_sparse_map(S, ps)
        assert load_one_sparse_map(ps) == S


@pytest.mark.parametrize("call, expected", [
    (lambda: SparseMatrix.from_dense([1.0, 2.0]), InvalidDimension),
    (lambda: SparseMatrix.from_csc(2, 1, [0, 2], [np.False_, 1], [1.0, 1.0]), InvalidEntry),
    (lambda: SparseMatrix.from_csc(2, 1, [0, 2], [0, 1], [np.True_, 1.0]), InvalidEntry),
    (lambda: SparseMatrix.from_dense(np.eye(2)).__eq__("eye"), NotImplemented),
    (lambda: SparseMatrix.from_dense(np.eye(2)) == "eye", False),
], ids=["from_dense_1d", "numpy_bool_row", "numpy_bool_value", "eq_other_type", "equals_other_type"])
def test_edge_inputs(call, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            call()
    else:
        assert call() is expected
