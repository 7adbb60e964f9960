"""Property tests of the CSC storage layout against per-column reference loops."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchbounds import (
    IndexOutOfRange,
    InvalidEntry,
    SparseMatrix,
    apply,
    column_norms,
    matrix_from_json,
    matrix_to_json,
)

# Explicit zeros (both signs), small exact values and arbitrary finite doubles.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def dense_matrices(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(VALUES, min_size=m * n, max_size=m * n))
    return np.array(entries, dtype=np.float64).reshape(m, n)


def column_pairs(D):
    """Every entry of every column, explicit zeros included."""
    return [[(r, float(D[r, j])) for r in range(D.shape[0])] for j in range(D.shape[1])]


def full_csc(D):
    """CSC arrays holding every entry of D, explicit zeros included."""
    m, n = D.shape
    return np.arange(n + 1) * m, np.tile(np.arange(m), n), D.T.ravel()


@settings(max_examples=200, deadline=None)
@given(dense_matrices())
def test_three_constructors_agree(D):
    A = SparseMatrix.from_dense(D)
    assert A == SparseMatrix(*D.shape, column_pairs(D))
    assert A == SparseMatrix.from_csc(*D.shape, *full_csc(D))
    assert np.array_equal(A.to_dense(), D)
    assert A.nnz == np.count_nonzero(D)


@settings(max_examples=200, deadline=None)
@given(dense_matrices())
def test_json_round_trip_reproduces_the_bytes(D):
    text = matrix_to_json(SparseMatrix.from_dense(D))
    assert matrix_to_json(matrix_from_json(text)) == text


@settings(max_examples=200, deadline=None)
@given(dense_matrices(), st.data())
def test_kernels_match_per_column_loops(D, data):
    A = SparseMatrix.from_dense(D)
    x = np.array(data.draw(st.lists(VALUES, min_size=A.n, max_size=A.n)), dtype=np.float64)
    y = np.zeros(A.m)
    norms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(A.n):
            rows, vals = (np.array(a) for a in A.column(j))  # fresh copies, as columns once were
            if x[j] != 0:
                y[rows] += x[j] * vals
            norms.append(math.sqrt(float(vals @ vals)))
        assert np.array_equal(apply(A, x), y, equal_nan=True)
        assert np.array_equal(column_norms(A), np.array(norms), equal_nan=True)


def column_loop(A, indices):
    """The dense columns `indices` of A, one column at a time: the reference
    for the one gather behind ``submatrix_dense``, ``to_dense`` and
    ``column_dense``."""
    out = np.zeros((A.m, len(indices)))
    for p, j in enumerate(indices):
        rows, vals = A.column(j)
        out[rows, p] = vals
    return out


@st.composite
def column_lists(draw, n):
    """Columns of [0, n) as a list, tuple, range or int32/int64/uint64 array:
    with repeats, in any order, or empty."""
    form = draw(st.sampled_from(["list", "tuple", "range", "int32", "int64", "uint64"]))
    if form == "range":
        lo, hi = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        cols = range(lo, hi, draw(st.integers(1, 3)))
        return cols[::-1] if draw(st.booleans()) else cols
    cols = draw(st.lists(st.integers(0, n - 1), max_size=2 * n + 2))
    return {"list": list, "tuple": tuple}.get(form, lambda c: np.array(c, dtype=form))(cols)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(dense_matrices(), st.data())
def test_dense_columns_match_the_per_column_loop(D, data):
    A = SparseMatrix.from_dense(D)
    indices = data.draw(column_lists(A.n), label="indices")
    assert same_bits(A.submatrix_dense(indices), column_loop(A, indices))
    assert same_bits(A.to_dense(), column_loop(A, range(A.n)))
    for j in range(A.n):
        assert same_bits(A.column_dense(j), column_loop(A, [j])[:, 0])


@pytest.mark.parametrize("defect,error", [
    ("non_finite", InvalidEntry),
    ("out_of_range", IndexOutOfRange),
    ("duplicate", InvalidEntry),
    ("decreasing", InvalidEntry),
])
@settings(max_examples=50, deadline=None)
@given(D=dense_matrices(), data=st.data())
def test_pairs_and_csc_constructors_raise_the_same_error(defect, error, D, data):
    m, n = D.shape
    cols = column_pairs(D)
    j = data.draw(st.integers(0, n - 1))
    col = cols[j]
    if defect == "non_finite":
        r = data.draw(st.integers(0, m - 1))
        col[r] = (r, data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    elif defect == "out_of_range":
        col.append((data.draw(st.sampled_from([m, m + 5])), 1.0))
    elif defect == "duplicate":
        r = data.draw(st.integers(0, m - 1))
        col.insert(r, (r, 1.0))
        col[r + 1] = (r, 1.0)
    else:  # row m - 1 ahead of row 0 (a duplicate when m == 1)
        col.insert(0, (m - 1, 1.0))
        col[1] = (0, 1.0)
    indptr = np.cumsum([0] + [len(c) for c in cols])
    rows = [r for c in cols for r, _ in c]
    vals = [v for c in cols for _, v in c]
    with pytest.raises(error):
        SparseMatrix(m, n, cols)
    with pytest.raises(error):
        SparseMatrix.from_csc(m, n, indptr, rows, vals)
