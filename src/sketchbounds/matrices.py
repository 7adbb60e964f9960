"""Column-sparse matrices, one-sparse maps, and their JSON formats.

The one storage type is :class:`SparseMatrix`, in compressed sparse column
(CSC) form as three read-only arrays ``indptr``, ``indices`` and ``data``:
column j's rows are ``indices[indptr[j]:indptr[j + 1]]``, strictly
increasing, and its values the same slice of ``data``, none of them zero, so
``np.diff(indptr)`` is each column's sparsity.  Every constructor, from
(row, value) pairs, a dense array or CSC arrays (:meth:`SparseMatrix.from_csc`),
goes through one vectorized validator, and every selection of columns through
one reader, ``_entries``, which checks the index list and finds the columns'
entries; ``_dense`` scatters them into a dense block.  All values are double
precision and all indices are 0-based.  A one-sparse map (:class:`OneSparseMap`)
is a SparseMatrix with one +-1 entry per column, so every function here and
every measure and search takes one; it adds only the views ``a`` and ``sigma``
and ``row_loads``.  :func:`apply` of an integer vector to a matrix of integer
values is exact in int64.  Instances are immutable after construction; every
operation returns fresh data.  The lone deliberate exception is
:func:`stream_updates`, which accumulates into a caller-owned sketch buffer so
that a turnstile update costs O(nonzeros of its column) instead of O(m).

Matrices serialize to JSON as ``{"m": int, "n": int, "cols": [[[row, value],
...], ...]}`` with one entry list per column.  One-sparse maps serialize as
``{"m": int, "n": int, "a": [...], "sigma": [...]}``.  :func:`matrix_from_json`
and :func:`load_matrix` read either kind, told apart by its keys: text
holding ``a`` loads as a :class:`OneSparseMap`.  Loaders reject
non-finite values, non-integer, duplicate, decreasing or out-of-range
indices, and malformed JSON with a ``SketchboundsError``.  When all of a
matrix's entries have one magnitude c, as in every sampled family, one
codec writes and reads its canonical bytes without the json module: the
writer formats each distinct ``[row, +-c]`` string once, and the loader
decodes the text in fixed windows whatever the columns, and proves it by
its token grammar there, byte for byte.  :func:`load_matrix` decodes and
proves a regular file's bytes a window at a time, so its peak is the
decoder's own, with no whole text held (1.8 MiB for the 2.1 MB 256 x
10000, s = 8 sign matrix, where reading the text whole first took
4.1 MiB).  A map's canonical text is read without the json module too,
its two integer lists by digit stepping, and proved by its token grammar.
Any other text, valid or not, loads through ``json.loads``, with the same
checks and messages.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimension,
    InvalidEntry,
    MalformedArtifact,
    TooLarge,
    ZeroColumn,
)


# The package's one memory budget, in bytes.  Every kernel derives its
# working chunks from it, and each states its peak as a multiple of it plus
# its input and output.
_BUDGET = 2**20


def _spans(ptr: np.ndarray, limit: int):
    """Yield ``(lo, hi)`` for consecutive spans of whole columns that cover
    all ``len(ptr) - 1`` of them, column j holding the items
    ``ptr[j]:ptr[j + 1]``: each span holds at most `limit` items, or is one
    column that alone holds more."""
    n, lo = len(ptr) - 1, 0
    while lo < n:
        hi = max(int(np.searchsorted(ptr, ptr[lo] + limit, side="right")) - 1, lo + 1)
        yield lo, hi
        lo = hi


def _check_addressable(shape: tuple[int, ...]) -> None:
    """Refuse with :class:`TooLarge` an array of that shape and 8-byte
    entries whose byte count overflows intp, which numpy refuses with a
    ValueError before it tries to allocate."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise TooLarge(f"an array of shape {shape} with 8-byte entries is larger than any address space")


def _integer(value, what: str) -> int:
    """`value` as an int; bools and non-integral numbers are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidDimension(f"{what} must be an integer, got {value!r}")
    return int(value)


def _holds_bool(values) -> bool:
    """Whether a list or tuple, or one nested in it, holds a Python or NumPy bool."""
    if not isinstance(values, (list, tuple)):
        return False
    types = set(map(type, values))
    return bool(types & {bool, np.bool_}) or bool(types & {list, tuple}) and any(map(_holds_bool, values))


def _array(values, kinds: str, message: str, error=InvalidEntry) -> np.ndarray:
    """`values` as an array of dtype kind in `kinds` ("iu" integers, "iuf"
    numbers), or `error` raised with `message`.  Bools are refused even
    among ints, where NumPy converts them."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise error(message) from exc
    if (arr.size and arr.dtype.kind not in kinds) or _holds_bool(values):
        raise error(message)
    return arr


def _locate(indptr: np.ndarray, indices: np.ndarray, p: int) -> str:
    """Where stored entry number p sits, for error messages."""
    return f"column {int(np.searchsorted(indptr, p, side='right')) - 1}, row {int(indices[p])}"


def _entries(A: "SparseMatrix", indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns `indices` of A as int64, the positions of their entries in
    ``A.indices`` and ``A.data``, column after column, and each column's
    entry count.  The one check of a column-index list: anything but a flat
    iterable raises :class:`DimensionMismatch`, a bool, float or string
    :class:`InvalidDimension`, a column outside [0, n) :class:`IndexOutOfRange`."""
    try:
        cols = indices if isinstance(indices, np.ndarray) else list(indices)
    except TypeError as exc:
        raise DimensionMismatch(f"column indices must be a flat list, got {type(indices).__name__}") from exc
    cols = _array(cols, "iu", "column indices must be integers", InvalidDimension)
    if cols.ndim != 1:
        raise DimensionMismatch(f"column indices must be a flat list, got shape {cols.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= A.n):
        bad = int(cols[(cols < 0) | (cols >= A.n)][0])
        raise IndexOutOfRange(f"column index {bad} outside [0, {A.n})")
    cols = cols.astype(np.int64, copy=False)  # an empty list is a float array
    starts = A.indptr[cols]
    counts = A.indptr[cols + 1] - starts
    return cols, np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts), counts


def _dense(A: "SparseMatrix", indices, values: np.ndarray) -> np.ndarray:
    """The dense m-by-|I| block of the columns `indices` of A, in that order
    (checked by :func:`_entries`), with `values`, one per stored entry, in
    place of ``A.data``; the block takes their dtype."""
    cols, entries, counts = _entries(A, indices)
    _check_addressable((A.m, cols.size))
    out = np.zeros((A.m, cols.size), dtype=values.dtype)
    out[A.indices[entries], np.repeat(np.arange(cols.size), counts)] = values[entries]
    return out


class SparseMatrix:
    """An m-by-n real matrix as CSC arrays ``indptr`` (length n + 1),
    ``indices`` and ``data`` (length nnz); see the module docstring.  The
    constructor takes per-column (row, value) pairs and drops explicit zeros,
    as :meth:`from_dense` and :meth:`from_csc` do."""

    __slots__ = ("m", "n", "indptr", "indices", "data")

    def __init__(self, m: int, n: int, columns: Sequence[Iterable[tuple[int, float]]]):
        columns = [list(col) for col in columns]
        indptr = np.cumsum([0] + [len(col) for col in columns])
        rows = [r for col in columns for r, _ in col]
        vals = [v for col in columns for _, v in col]
        self._freeze(m, n, indptr, rows, vals)

    @classmethod
    def from_csc(cls, m: int, n: int, indptr, indices, data) -> "SparseMatrix":
        """Build from CSC arrays: column j's rows are ``indices[indptr[j]:indptr[j+1]]``
        and its values the same slice of ``data``, checked exactly as the pairs
        constructor checks its input.

        Arrays that already have the stored dtype (int64 indices, float64
        values) and need no explicit zeros dropped become the matrix's own
        storage, not copies, and are made read-only; pass copies to keep
        writing to your own.
        """
        A = cls.__new__(cls)
        A._freeze(m, n, indptr, indices, data)
        return A

    def _freeze(self, m, n, indptr, indices, data) -> None:
        """Validate the CSC arrays, drop explicit zeros, and store them read-only."""
        m, n = _integer(m, "row count"), _integer(n, "column count")
        if m < 1 or n < 1:
            raise InvalidDimension(f"matrix shape must be positive, got {m}x{n}")
        indptr = _array(indptr, "iu", "indptr must hold integers").astype(np.int64, copy=False)
        indices = _array(indices, "iu", "row indices must be integers").astype(np.int64, copy=False)
        data = _array(data, "iuf", "values must be numbers").astype(np.float64, copy=False)
        if indptr.shape != (n + 1,):
            raise DimensionMismatch(f"expected {n} columns, got {indptr.size - 1}")
        nnz = indices.size
        if indices.shape != (nnz,) or data.shape != (nnz,) or indptr[0] != 0 or indptr[-1] != nnz \
                or (indptr[1:] < indptr[:-1]).any():
            raise DimensionMismatch("indptr must rise from 0 to the number of indices and values")
        # Each check runs one cheap reduction; flatnonzero only locates a failure.
        finite = np.isfinite(data)
        if not finite.all():
            bad = np.flatnonzero(~finite)[0]
            raise InvalidEntry(f"non-finite value {float(data[bad])!r} at {_locate(indptr, indices, bad)}")
        if nnz and (indices.min() < 0 or indices.max() >= m):
            bad = np.flatnonzero((indices < 0) | (indices >= m))[0]
            raise IndexOutOfRange(f"row index outside [0, {m}) at {_locate(indptr, indices, bad)}")
        keep = data != 0.0  # constructors drop explicit zeros
        if not keep.all():
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
            indices, data = indices[keep], data[keep]
        # Entry p must rise above entry p - 1, unless p starts a column.
        rises = np.empty(indices.size + 1, dtype=bool)
        np.greater(indices[1:], indices[:-1], out=rises[1:-1])
        rises[indptr] = True
        if not rises.all():
            bad = np.flatnonzero(~rises)[0]
            raise InvalidEntry(f"rows must be strictly increasing, with no duplicates, at {_locate(indptr, indices, bad)}")
        for arr in (indptr, indices, data):
            arr.flags.writeable = False
        # SparseMatrix's slots, not self's: a subclass declares none of its own
        for name, value in zip(SparseMatrix.__slots__, (m, n, indptr, indices, data)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidDimension("expected a 2-d array")
        m, n = arr.shape
        cols, rows = np.nonzero(arr.T)  # column-major order
        indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
        return cls.from_csc(m, n, indptr, rows, arr[rows, cols])

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return read-only views (row indices, values) of column j."""
        j = _integer(j, "column index")
        if not 0 <= j < self.n:
            raise IndexOutOfRange(f"column index {j} outside [0, {self.n})")
        a, b = self.indptr[j], self.indptr[j + 1]
        return self.indices[a:b], self.data[a:b]

    def column_nnz(self, j: int) -> int:
        return int(self.column(j)[0].size)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def column_dense(self, j: int) -> np.ndarray:
        return _dense(self, [j], self.data)[:, 0]

    def to_dense(self) -> np.ndarray:
        return _dense(self, np.arange(self.n), self.data)

    def submatrix_dense(self, indices: Iterable[int]) -> np.ndarray:
        """Dense m-by-|I| matrix of the selected columns, in the given order."""
        return _dense(self, indices, self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("indptr", "indices", "data")
        )

    def __hash__(self):
        return hash((self.m, self.n, self.nnz))

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, n={self.n}, nnz={self.nnz})"


class OneSparseMap(SparseMatrix):
    """A map with exactly one nonzero per column: column i is sigma(i) * e_a(i).

    It is a :class:`SparseMatrix` with ``indptr = arange(n + 1)``, row
    choices ``a`` (the ``indices``) in [0, m) and signs ``sigma`` in
    {-1, +1} (the ``data``), so everything a matrix does, a map does.
    """

    __slots__ = ()

    def __init__(self, m: int, n: int, a: Sequence[int], sigma: Sequence[int]):
        # checked here, before _freeze drops zeros; a wrong length is left to
        # _freeze, so indptr follows sigma and never an unchecked n
        sigma = _array(sigma, "iu", "signs must be integers")
        if not (np.abs(sigma) == 1).all():
            raise InvalidEntry("signs must be +1 or -1")
        self._freeze(m, n, np.arange(sigma.size + 1), a, sigma)

    @property
    def a(self) -> np.ndarray:
        """Each column's row, a read-only view of ``indices``."""
        return self.indices

    @property
    def sigma(self) -> np.ndarray:
        """Each column's sign as a read-only int64 array."""
        signs = self.data.astype(np.int64)
        signs.flags.writeable = False
        return signs

    def row_loads(self) -> np.ndarray:
        """Number of columns hashed to each row (length-m histogram)."""
        return np.bincount(self.indices, minlength=self.m)


# --- linear operations -------------------------------------------------------

def column_norms(A: SparseMatrix) -> np.ndarray:
    """Euclidean norm of every column, as a length-n array."""
    # Each squared norm is the dot product vals @ vals: a segmented
    # np.add.reduceat, einsum or a row sum adds in another order and can
    # differ in the last bit.  When every column has s entries, one stacked
    # (1, s) @ (s, 1) matmul makes the same dot products without a loop.
    s = int(A.indptr[1])
    if np.array_equal(A.indptr, np.arange(A.n + 1) * s):
        D = A.data.reshape(A.n, s)
        return np.sqrt(np.matmul(D[:, None, :], D[:, :, None]).ravel())
    return np.sqrt([vals @ vals for vals in np.split(A.data, A.indptr[1:-1])])


def normalize_columns(A: SparseMatrix) -> SparseMatrix:
    """Scale every column to unit norm; sparsity patterns are unchanged."""
    norms = column_norms(A)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroColumn(f"column {zero[0]} has zero norm")
    return SparseMatrix.from_csc(A.m, A.n, A.indptr, A.indices, A.data / np.repeat(norms, np.diff(A.indptr)))


def apply(A: SparseMatrix, x) -> np.ndarray:
    """Compute A @ x.

    An integer x on a matrix whose values are all integers gives the exact
    int64 image, so kernel identities hold exactly; it raises
    :class:`TooLarge` when max|value| * sum|x| reaches 2^62, where int64
    could wrap.  Any other real input is taken as float64; a bool, complex
    or non-numeric entry raises :class:`InvalidEntry`.
    """
    x, values = _array(x, "iuf", "vector entries must be real numbers"), A.data
    if x.dtype.kind in "iu" and (values == np.rint(values)).all():
        # Summed in float64, the bound still keeps every partial sum below
        # 2^63; a value of 2^62 or more is no int64 term even for x = 0.
        top = float(np.abs(values).max(initial=0.0))
        if top * max(float(np.abs(x, dtype=np.float64).sum()), 1.0) >= 2.0**62:
            raise TooLarge("an exact integer image needs max|value| * sum|x| < 2^62")
        x, values = x.astype(np.int64), values.astype(np.int64)
    else:
        x = x.astype(np.float64, copy=False)
    if x.shape != (A.n,):
        raise DimensionMismatch(f"expected vector of length {A.n}, got shape {x.shape}")
    terms = np.repeat(x, np.diff(A.indptr))
    terms *= values
    y = np.zeros(A.m, dtype=terms.dtype)
    # np.add.at adds the terms one at a time in storage order, so each y[r]
    # rounds as a loop adding x[j] * column j for ascending j does.  Columns
    # with x[j] == 0 add signed zeros, which leave every y[r] unchanged: y
    # starts at +0.0 and a sum never turns into -0.0 from there.
    np.add.at(y, A.indices, terms)
    return y


def stream_updates(sketch: np.ndarray, A: SparseMatrix, i, v) -> np.ndarray:
    """Fold the turnstile updates (i[k], v[k]), in order, into the sketch:
    sketch += sum over k of v[k] * A e_i[k].

    Mutates and returns ``sketch``; only the entries of the updated columns
    are touched, so the cost is their nonzero count, not m per update.  Each
    sketch entry rounds as it would if the updates were folded one at a
    time, ``sketch[rows] += v * vals`` over each update's column.  Every
    input is checked before anything is written.
    """
    if not (isinstance(sketch, np.ndarray) and sketch.dtype == np.float64 and sketch.flags.writeable):
        raise InvalidEntry("sketch must be a writeable float64 numpy array")
    if sketch.shape != (A.m,):
        raise DimensionMismatch(f"sketch must have length {A.m}, got shape {sketch.shape}")
    i, entries, counts = _entries(A, i)
    v = _array(v, "iuf", "update values must be numbers").astype(np.float64)
    if i.shape != v.shape:
        raise DimensionMismatch(f"need one value per column index, got shapes {i.shape} and {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidEntry(f"non-finite update value {float(v[~np.isfinite(v)][0])!r}")
    # np.add.at adds the entries one at a time in update order, as a loop of
    # single updates would
    np.add.at(sketch, A.indices[entries], np.repeat(v, counts) * A.data[entries])
    return sketch


def column_sparsity(A: SparseMatrix) -> int:
    """Maximum number of nonzeros in any single column."""
    return int(np.diff(A.indptr).max())


def to_csr(A: SparseMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's entries row by row, as CSR arrays ``(row_ptr, columns, values)``.

    Row r's entries are the slice ``row_ptr[r]:row_ptr[r + 1]`` of the other
    two arrays, in ascending column order (one stable sort of ``indices``).
    """
    _check_addressable((A.m,))
    order = np.argsort(A.indices, kind="stable")
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(A.indices, minlength=A.m))))
    return row_ptr, np.repeat(np.arange(A.n), np.diff(A.indptr))[order], A.data[order]


# --- JSON formats -------------------------------------------------------------

# The canonical text of a constant-magnitude matrix, written by _signed_text
# and read back by _canonical_csc.
_HEAD = '{"cols":['
_TAIL = re.compile(rb'\],"m":([0-9]+),"n":([0-9]+)\}\n')
_MAX_ROW_DIGITS = 18  # a row token of at most this many digits is below 2^63
# The least row of each digit count that has no leading zero
_LOWEST_ROW = np.array([0, 0] + [10**k for k in range(1, _MAX_ROW_DIGITS)])
# Where the "[" after a token falls, by the byte after the token, plus 256
# when the token is an entry, not a column's "[": coded 2 * its distance
# past that byte + whether it opens an entry.  A column's "[" then "[" (its
# first entry) or "]," (it is empty: the next column); an entry then ","
# (the next entry) or "]," (the next column).  Any other byte predicts no
# place.
_NEXT = np.full(512, -2**40, np.int64)
_NEXT[ord("[")], _NEXT[ord("]")], _NEXT[256 + ord(",")], _NEXT[256 + ord("]")] = 1, 4, 3, 4
# What one_sparse_map_to_json writes around the lists a and sigma, whose
# every number is 0 or 1 to 18 digits with no leading zero, after an
# optional "-", as in m and n here
_MAP_MIDDLE = re.compile(r'\],"m":(0|-?[1-9][0-9]{0,17}),"n":(0|-?[1-9][0-9]{0,17}),"sigma":\[')


def canonical_json(obj) -> str:
    """Serialize with sorted keys and no whitespace: stable bytes for reruns.
    A NaN or infinity, which JSON cannot hold, raises :class:`InvalidEntry`."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvalidEntry(f"cannot write JSON: {exc}") from exc


def _read_text(path) -> str:
    """The contents of the file at `path`, which must be UTF-8 text, with
    universal newlines.  Peak memory: the file's bytes and the str decoded
    from them, twice the file's size for ASCII text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedArtifact(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # a NUL byte in the path
        raise MalformedArtifact(f"cannot open {path!r}: {exc}") from exc


def _parse(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also json's digit limit on integers
        raise MalformedArtifact(f"invalid {what} JSON: {exc}") from exc


def _matrix_from_object(obj) -> SparseMatrix:
    if not isinstance(obj, dict) or not {"m", "n", "cols"} <= set(obj):
        raise MalformedArtifact("matrix JSON must be an object with keys m, n, cols")
    cols = obj["cols"]
    if not isinstance(cols, list) or not all(isinstance(col, list) for col in cols):
        raise MalformedArtifact("cols must be a list of per-column entry lists")
    if not all(isinstance(pair, list) and len(pair) == 2 for col in cols for pair in col):
        raise MalformedArtifact("each entry must be a [row, value] pair")
    return SparseMatrix(obj["m"], obj["n"], cols)


def _map_from_object(obj) -> OneSparseMap:
    if not isinstance(obj, dict) or not {"m", "n", "a", "sigma"} <= set(obj):
        raise MalformedArtifact("map JSON must be an object with keys m, n, a, sigma")
    return OneSparseMap(obj["m"], obj["n"], obj["a"], obj["sigma"])


def _constant_magnitude(A: SparseMatrix) -> float | None:
    """c when every stored entry of A is +c or -c, else None (also for no entries)."""
    c = abs(float(A.data[0])) if A.nnz else 0.0
    return c if c and np.all(np.abs(A.data) == c) else None


def _runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat start and the length of each run of equal items in a
    nonempty array whose rows are each sorted, in order; a run never spans
    two rows."""
    flat = x.ravel()
    new = np.empty(flat.size, dtype=bool)
    new[1:] = flat[1:] != flat[:-1]
    new[::x.shape[-1]] = True
    starts = np.flatnonzero(new)
    return starts, np.diff(starts, append=flat.size)


def _signed_text(m: int, n: int, indptr, indices, negative, c: float):
    """Yield, in pieces, what :func:`canonical_json` writes for the m-by-n
    matrix whose entry p is ``[indices[p], -c if negative[p] else c]``.

    The arrays must be CSC arrays (`indptr` rising from 0 to the entry
    count, one column per step), with rows in [0, 2^63) and c finite;
    `n` is only written, so it may differ from the column count.  Each
    column is a run of items joined by commas: its entries, the first
    opening the column with ``[`` and the last closing it with ``]``, or
    the one item ``[]``.  An item's string depends only on its code:
    4 * the rank of ``2 * row + negative`` among the ones present, plus 2
    when it opens a column and 1 when it closes one.  The ranks come from
    one in-place sort of ``code << 32 | position`` wherever rows are below
    2^31 and there are at most 2^32 entries, else from an argsort.  So each
    string is formatted once, and the columns are joined from lookups, one
    block of whole columns at a time: at most ``_BUDGET // 128`` items, or
    one column that alone has more.  Peak memory: at most 4 * max(_BUDGET,
    128 bytes an item of the largest column) for a block, plus 20 bytes an
    entry and 40 a column, plus 128 bytes for each distinct item string.
    """
    counts = np.diff(indptr)
    full = counts > 0
    # What np.unique(codes, return_inverse=True) gives, with at most two
    # 8-byte and two 4-byte entry-sized arrays alive at once: this sets the
    # writer's peak memory.
    codes = indices.astype(np.uint64)
    codes *= 2
    codes += negative
    if codes.size <= 2**32 and indices.max(initial=0) < 2**31:
        codes <<= 32  # each code with its position below it, sorted once
        codes |= np.arange(codes.size, dtype=np.uint64)
        codes.sort()
        order = (codes & (2**32 - 1)).view(np.int64)
        codes >>= 32
    else:  # codes too wide to pack
        order = np.argsort(codes)
        codes.sort()
    firsts, lengths = _runs(codes)
    keys = codes[firsts].tolist()  # the distinct codes, ascending
    del codes, firsts
    code_type = np.int32 if 4 * len(keys) < 2**31 else np.int64
    items = np.empty(order.size, code_type)
    items[order] = np.repeat(np.arange(0, 4 * len(keys), 4, dtype=code_type), lengths)
    del order
    items[indptr[:-1][full]] += 2
    items[indptr[1:][full] - 1] += 1
    starts = np.concatenate(([0], np.cumsum(np.maximum(counts, 1))))  # each column's first item
    empty = 4 * len(keys)  # the code of "[]"
    if not full.all():
        spaced = np.full(starts[-1], empty, dtype=items.dtype)
        spaced[np.arange(items.size) + np.repeat(starts[:-1] - indptr[:-1], counts)] = items
        items = spaced
    used = np.flatnonzero(np.bincount(items, minlength=empty + 1)[:empty])
    value, opening, closing = (repr(c), repr(-c)), ("", "["), ("", "]")
    table = np.empty(empty + 1, object)
    table[empty] = "[]"
    table[used] = np.fromiter((f"{opening[x >> 1 & 1]}[{keys[x >> 2] >> 1},{value[keys[x >> 2] & 1]}]"
                               f"{closing[x & 1]}" for x in used.tolist()), object, used.size)
    yield _HEAD
    for lo, hi in _spans(starts, _BUDGET // 128):
        if lo:
            yield ","
        yield ",".join(table[items[starts[lo]:starts[hi]]].tolist())
    yield f'],"m":{m},"n":{n}}}\n'


def _json_pieces(A: SparseMatrix):
    """Yield the pieces of ``matrix_to_json(A)``: a block of columns at a
    time for a +-c matrix, else the whole text at once."""
    c = _constant_magnitude(A)
    if c is None:
        ptr = A.indptr.tolist()
        cols = [
            [[r, v] for r, v in zip(A.indices[a:b].tolist(), A.data[a:b].tolist())]
            for a, b in zip(ptr, ptr[1:])
        ]
        yield canonical_json({"m": A.m, "n": A.n, "cols": cols})
    else:
        yield from _signed_text(A.m, A.n, A.indptr, A.indices, A.data < 0, c)


def matrix_to_json(A: SparseMatrix) -> str:
    return "".join(_json_pieces(A))


def _digit_run(chunk: np.ndarray, at: np.ndarray, value: np.ndarray) -> None:
    """Accumulate into `value`, zeroed int64, the run of decimal digits that
    starts at each position `at` of the ASCII bytes `chunk`, and advance
    `at` in place past each run; `chunk` must hold a run's first 18 digits
    and the byte after a shorter run.  A run longer than
    ``_MAX_ROW_DIGITS`` stops at its 19th digit, for the caller's proof of
    the text to decline."""
    for _ in range(_MAX_ROW_DIGITS):
        digit = chunk[at] - ord("0")
        more = digit < 10
        if not more.any():
            return
        value *= 1 + 9 * more  # 10 * value + digit where a digit follows
        value += digit * more
        at += more


def _canonical_csc(read, size: int) -> SparseMatrix | None:
    """The matrix in a text of `size` bytes, read a slice ``[lo, hi)`` at a
    time by ``read(lo, hi)``, when the text is exactly what
    :func:`matrix_to_json` writes for a matrix whose entries are all +-c,
    else None.

    The tail ``],"m":M,"n":N}`` and a newline is matched in the last 64
    bytes (a longer one declines) and must be the writer's, with no leading
    zero.  The columns between head and tail are decoded and proved by
    their token grammar in fixed windows of ``_BUDGET // 4`` bytes, each
    read with the 64 bytes after it, so that a token that opens near a
    window's end finishes there: an entry's ``[``, row, comma and sign take
    at most 21 bytes, and its value one float's repr.  A ``[`` before a
    digit opens an entry and any other ``[`` a column.  An entry's row is
    its run of 1 to 18 digits (:func:`_digit_run`), with no leading zero
    and a comma after it; an optional ``-`` follows, then the bytes of
    ``repr(c)`` and ``]``, where c is the first value's magnitude, compared
    a word at a time for all the window's entries at once.  Each token
    then predicts where the next ``[`` falls and what it opens
    (:data:`_NEXT`): the body's first ``[``, right after the head, opens a
    column, every other column follows a ``,``, and the last token
    predicts the place after the tail's ``]``.  So every byte is the
    writer's, the arrays are the ones ``json.loads`` would give, and any
    other text, valid or not, is left to it; a text with no entries is
    declined too.  A flaw declines the text in the window that holds it,
    so non-+-c text costs one window.  The matrix is built by
    :meth:`SparseMatrix.from_csc`, whose checks and messages are those of
    the json route.  Peak memory, with no whole text held: at most
    2 * _BUDGET for a window's bytes and arrays, plus 48 bytes an entry
    and 80 a column (1.8 MiB for the 2.1 MB 256 x 10000, s = 8 sign
    matrix, and 3.1 MiB for one column of 2^17 entries, where the proof
    by re-encoding took 2.2 and 27.9 MiB).
    """
    try:
        last = read(max(size - 64, 0), size)
        at = max(last.rfind(b'],"m":'), 0)
        tail = _TAIL.fullmatch(last, at)
        if tail is None or read(0, len(_HEAD)) != _HEAD.encode():
            return None
        m, n = map(int, tail.groups())
        if last[at:] != f'],"m":{m},"n":{n}}}\n'.encode():  # no leading zero
            return None
        end, block = size - len(last) + at, _BUDGET // 4
        c, done, columns, rows, negatives = None, 0, [], [], []
        for lo in range(len(_HEAD), end, block):
            window = read(lo, min(lo + block + 64, end))
            chunk = np.frombuffer(window, np.uint8)
            opens = np.flatnonzero(chunk == ord("["))
            own = int(np.searchsorted(opens, block))  # the block's "[" bytes, then the one after them
            entry = chunk[opens[:own + 1] + 1] - ord("0") < 10  # a digit follows: it opens an entry
            seen = 2 * opens[1:own + 1] + entry[1:]  # the "[" after each of the block's, coded as in _NEXT
            final = seen.size < own  # the body's last "[": the end's place, end + 1, follows it as a column's
            if final:
                if lo + len(window) != end:
                    return None
                seen = np.append(seen, 2 * (end + 1 - lo))
            opens, entry = opens[:own], entry[:own]
            if lo == len(_HEAD) and not (own and opens[0] == 0 and not entry[0]):
                return None  # the body opens with a column
            firsts = opens[entry]
            ends = opens + 1  # the byte after each token: a column's "[", an entry's "[...]"
            if firsts.size:
                row, commas = np.zeros(firsts.size, np.int64), firsts + 1  # commas: the byte after each row's digits
                _digit_run(chunk, commas, row)
                if c is None:  # c comes from the first value token
                    first = int(commas[0]) + 1
                    c = abs(float(window[first:window.index(b"]", first)]))
                    if not 0 < c < math.inf:
                        return None
                    token = repr(c).encode() + b"]"
                    words = np.frombuffer(token, f"<u{math.gcd(len(token), 8)}")  # compared a word at a time
                negative = chunk[commas + 1] == ord("-")
                starts = commas + 1 + negative
                if (chunk[commas] != ord(",")).any() or (row < _LOWEST_ROW[commas - firsts - 1]).any() \
                        or not (np.ndarray((len(window) - len(token) + 1,), f"S{len(token)}", window, strides=(1,))
                                [starts].view(words.dtype).reshape(-1, words.size) == words).all():
                    return None  # a row or value token not as the writer's
                ends[entry] = starts + len(token)
                rows.append(row)
                negatives.append(negative)
            if not np.array_equal(2 * ends + _NEXT[chunk[ends] + 256 * entry], seen):
                return None
            later = seen[seen & 1 == 0] // 2  # the columns that follow, each after a "]," _NEXT read to the ","
            if (chunk[later[:later.size - final] - 1] != ord(",")).any():
                return None
            columns.append(np.searchsorted(firsts, opens[~entry]) + done)  # each column's first entry
            done += firsts.size
        if c is None:
            return None
        indptr = np.concatenate([*columns, [done]])
        indices, negative = np.concatenate(rows), np.concatenate(negatives)
        del columns, rows, negatives
    except (IndexError, ValueError):
        return None
    return SparseMatrix.from_csc(m, n, indptr, indices, np.where(negative, -c, c))


def _integers(text: str, lo: int, hi: int) -> np.ndarray | None:
    """The numbers ``text[lo:hi]`` holds, as int64, when it is numbers of
    :data:`_MAP_MIDDLE`'s grammar joined by single commas, else None.

    The numbers are decoded by :func:`_digit_run` in chunks of whole numbers
    that end at the first comma past ``_BUDGET // 32`` characters, each
    straight into one preallocated output: a chunk's own arrays take at
    most 32 bytes a number and 3 a character, so less than ``_BUDGET``.
    Each number's digits must run from its start, after an optional ``-``,
    to the comma after it, so every byte of the text is accounted for.
    """
    out = np.zeros(text.count(",", lo, hi) + 1 if hi > lo else 0, np.int64)
    done = 0
    while lo < hi:
        cut = text.find(",", lo + _BUDGET // 32, hi)
        cut = hi if cut < 0 else cut
        chunk = np.frombuffer((text[lo:cut] + ",").encode("ascii"), np.uint8)
        at = np.flatnonzero(chunk == ord(","))  # each number's end
        at = np.concatenate(([0], at[:-1] + 1))  # its start
        negative = chunk[at] == ord("-")
        at += negative  # its first digit
        digit = chunk[at] - ord("0")
        zero = digit == 0
        if (digit > 9).any() or negative[zero].any() or (chunk[at[zero] + 1] != ord(",")).any():
            return None  # no digit, -0 or a leading 0
        value = out[done:done + at.size]
        _digit_run(chunk, at, value)
        if (chunk[at] != ord(",")).any():
            return None  # 19 digits, or a stray byte
        value *= 1 - 2 * negative
        done += at.size
        lo = cut + 1
    return out if done == out.size else None


def _canonical_map(text: str) -> OneSparseMap | None:
    """The map `text` holds when it is exactly what
    :func:`one_sparse_map_to_json` writes, ``{"a":[...],"m":M,"n":N,
    "sigma":[...]}`` and a newline in ASCII, every number 0 or 1 to 18
    digits with no leading zero after an optional ``-``, else None.  That
    grammar is canonical JSON's, so the values are those ``json.loads``
    gives, and the map is built from them with the same checks and messages."""
    if not (text.isascii() and text.startswith('{"a":[') and text.endswith("]}\n")):
        return None
    middle = _MAP_MIDDLE.match(text, text.find("]"))
    if middle is None:
        return None
    m, n, (lo, hi) = int(middle[1]), int(middle[2]), middle.span()
    a = _integers(text, len('{"a":['), lo)
    sigma = _integers(text, hi, len(text) - len("]}\n"))
    if a is None or sigma is None:
        return None
    return OneSparseMap(m, n, a, sigma)


def _from_json(text: str) -> SparseMatrix:
    """The matrix or map `text` holds, once the +-c decoder has declined it:
    a map's canonical text by :func:`_canonical_map`, anything else by
    ``json.loads``."""
    S = _canonical_map(text)
    if S is not None:
        return S
    obj = _parse(text, "matrix")
    del text  # the tree holds everything from here on; free the text before building
    if isinstance(obj, dict) and "a" in obj:
        return _map_from_object(obj)
    return _matrix_from_object(obj)


def matrix_from_json(text: str) -> SparseMatrix:
    """The matrix `text` holds, or the :class:`OneSparseMap` when it holds ``a``.

    A +-c matrix's canonical text is decoded and proved by its token
    grammar in fixed windows, and peaks, beyond the text, as
    :func:`_canonical_csc` states.  A map's canonical text
    (:func:`_canonical_map`) peaks, beyond the text, at ``_BUDGET`` plus
    40 bytes a column, and at or below the json route, which holds lists
    of 16 bytes a column, plus 32 for each row above 256, besides the same
    arrays; only at a few columns can numpy's own working memory, under
    1 KB, put it above.  ``load_matrix``
    of a 4096 x 2^20 map peaks at 42.2 MiB, the text included, against
    77.4 MiB.
    """
    # A slice with a non-ASCII character raises UnicodeEncodeError, a
    # ValueError, so the decoder declines the text, as its grammar would.
    A = _canonical_csc(lambda lo, hi: text[lo:hi].encode("ascii"), len(text))
    return _from_json(text) if A is None else A


def one_sparse_map_to_json(S: OneSparseMap) -> str:
    return canonical_json({"m": S.m, "n": S.n, "a": S.a.tolist(), "sigma": S.sigma.tolist()})


def one_sparse_map_from_json(text: str) -> OneSparseMap:
    S = _canonical_map(text)
    return _map_from_object(_parse(text, "map")) if S is None else S


def save_matrix(A: SparseMatrix, path) -> None:
    """Write ``matrix_to_json(A)`` to `path`, a piece at a time, so a +-c
    matrix never holds its whole text (see :func:`_signed_text` for the
    peak memory)."""
    with open(path, "w") as fh:
        fh.writelines(_json_pieces(A))


def load_matrix(path) -> SparseMatrix:
    """The matrix or map in the file at `path`, as :func:`matrix_from_json`
    reads its text.  A regular file is first tried by the +-c decoder
    straight from the file, by positioned reads of one window at a time, so
    a +-c matrix's text is never held whole.  A declined file, and any path
    that is not a regular file (a FIFO, ``/dev/stdin`` on a pipe), is read
    once by :func:`_read_text`; a path that cannot be read raises what
    :func:`_read_text` raises."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except (OSError, ValueError):  # missing, or a NUL in the path: _read_text raises
        regular = False
    if regular:
        with open(path, "rb", buffering=0) as fh:
            def read(lo, hi):
                fh.seek(lo)
                return fh.read(hi - lo)

            A = _canonical_csc(read, os.fstat(fh.fileno()).st_size)
        if A is not None:
            return A
    return _from_json(_read_text(path))


def save_one_sparse_map(S: OneSparseMap, path) -> None:
    with open(path, "w") as fh:
        fh.write(one_sparse_map_to_json(S))


def load_one_sparse_map(path) -> OneSparseMap:
    return one_sparse_map_from_json(_read_text(path))
