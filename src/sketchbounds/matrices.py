"""Column-sparse matrices, one-sparse maps, and their JSON formats.

The one storage type is :class:`SparseMatrix`, in compressed sparse column
(CSC) form as three read-only arrays ``indptr``, ``indices`` and ``data``:
column j's rows are ``indices[indptr[j]:indptr[j + 1]]``, strictly
increasing, and its values the same slice of ``data``, none of them zero, so
``np.diff(indptr)`` is each column's sparsity.  Every constructor, from
(row, value) pairs, a dense array or CSC arrays (:meth:`SparseMatrix.from_csc`),
goes through one vectorized validator.  All values are double precision and
all indices are 0-based.  A one-sparse map (:class:`OneSparseMap`) is a
SparseMatrix with one +-1 entry per column, so every function here and
every measure and search takes one; it adds only the views ``a`` and
``sigma`` and ``row_loads``.  :func:`apply` of an integer vector to a
matrix of integer values is exact in int64.  Instances are immutable after
construction; every operation returns fresh data.  The lone deliberate
exception is :func:`stream_update`, which accumulates into a caller-owned
sketch buffer so that one turnstile update costs O(nonzeros of that column)
instead of O(m).

Matrices serialize to JSON as ``{"m": int, "n": int, "cols": [[[row, value],
...], ...]}`` with one entry list per column.  One-sparse maps serialize as
``{"m": int, "n": int, "a": [...], "sigma": [...]}``.  :func:`matrix_from_json`
and :func:`load_matrix` read either kind, told apart by its keys: text
holding ``a`` loads as a :class:`OneSparseMap`.  Loaders reject
non-finite values, non-integer, duplicate, decreasing or out-of-range
indices, and malformed JSON with a ``SketchboundsError``.  When all of a
matrix's entries have one magnitude, as in every sampled family, its
canonical bytes are written and read without the json module; any other
valid JSON still loads through ``json.loads``, with the same checks and
messages.
"""

from __future__ import annotations

import json
import re
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


def _array(values, kinds: str, message: str) -> np.ndarray:
    """`values` as an array of dtype kind in `kinds` ("iu" integers, "iuf"
    numbers).  Bools are refused even among ints, where NumPy converts them."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise InvalidEntry(message) from exc
    if (arr.size and arr.dtype.kind not in kinds) or _holds_bool(values):
        raise InvalidEntry(message)
    return arr


def _locate(indptr: np.ndarray, indices: np.ndarray, p: int) -> str:
    """Where stored entry number p sits, for error messages."""
    return f"column {int(np.searchsorted(indptr, p, side='right')) - 1}, row {int(indices[p])}"


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
        rows, vals = self.column(j)
        out = np.zeros(self.m)
        out[rows] = vals
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.n))
        out[self.indices, np.repeat(np.arange(self.n), np.diff(self.indptr))] = self.data
        return out

    def submatrix_dense(self, indices: Sequence[int]) -> np.ndarray:
        """Dense m-by-|I| matrix of the selected columns, in the given order."""
        out = np.zeros((self.m, len(indices)))
        for p, j in enumerate(indices):
            rows, vals = self.column(j)
            out[rows, p] = vals
        return out

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
    could wrap.  Any other input is taken as float64.
    """
    x, values = np.asarray(x), A.data
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


def stream_update(sketch: np.ndarray, A: SparseMatrix, i: int, v: float) -> np.ndarray:
    """Fold the turnstile update (i, v) into the sketch: sketch += v * A e_i.

    Mutates and returns ``sketch``; only the entries of column i are touched,
    so the cost is the column's nonzero count, not m.
    """
    if sketch.shape != (A.m,):
        raise DimensionMismatch(f"sketch must have length {A.m}, got shape {sketch.shape}")
    rows, vals = A.column(i)
    sketch[rows] += v * vals
    return sketch


def column_sparsity(A: SparseMatrix) -> int:
    """Maximum number of nonzeros in any single column."""
    return int(np.diff(A.indptr).max())


def to_csr(A: SparseMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's entries row by row, as CSR arrays ``(row_ptr, columns, values)``.

    Row r's entries are the slice ``row_ptr[r]:row_ptr[r + 1]`` of the other
    two arrays, in ascending column order (one stable sort of ``indices``).
    """
    order = np.argsort(A.indices, kind="stable")
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(A.indices, minlength=A.m))))
    return row_ptr, np.repeat(np.arange(A.n), np.diff(A.indptr))[order], A.data[order]


# --- JSON formats -------------------------------------------------------------

# The canonical text of a constant-magnitude matrix, written and read without
# json by matrix_to_json and _canonical_csc.
_HEAD = '{"cols":['
_TAIL = re.compile(r'\],"m":([0-9]+),"n":([0-9]+)\}\n')
_DELETE_NUMBERS = str.maketrans("", "", "0123456789+-.e")
_SPACE_BRACKETS = str.maketrans("[],", "   ")
_CHUNK_CHARS = 1 << 16  # the loader's chunks: whole columns, about 64 KB of text
_BLOCK_COLUMNS = 1024  # the writer's blocks


def canonical_json(obj) -> str:
    """Serialize with sorted keys and no whitespace: stable bytes for reruns.
    A NaN or infinity, which JSON cannot hold, raises :class:`InvalidEntry`."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvalidEntry(f"cannot write JSON: {exc}") from exc


def _read_text(path) -> str:
    """The contents of the file at `path`, which must be UTF-8 text."""
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


def matrix_to_json(A: SparseMatrix) -> str:
    ptr = A.indptr.tolist()
    c = _constant_magnitude(A)
    if c is None:
        cols = [
            [[r, v] for r, v in zip(A.indices[a:b].tolist(), A.data[a:b].tolist())]
            for a, b in zip(ptr, ptr[1:])
        ]
        return canonical_json({"m": A.m, "n": A.n, "cols": cols})
    # Every entry is +-c: format both once, as json.dumps formats a finite
    # float (float.__repr__), and join the entries one block of columns at a
    # time, so only one block's strings are alive besides the text.
    value = (repr(c), repr(-c))
    blocks = []
    for lo in range(0, A.n, _BLOCK_COLUMNS):
        hi = min(lo + _BLOCK_COLUMNS, A.n)
        a, b = ptr[lo], ptr[hi]
        entries = [f"[{r},{value[neg]}]" for r, neg in zip(A.indices[a:b].tolist(), (A.data[a:b] < 0).tolist())]
        blocks.append(",".join(["[" + ",".join(entries[p - a:q - a]) + "]"
                                for p, q in zip(ptr[lo:hi], ptr[lo + 1:hi + 1])]))
    return _HEAD + ",".join(blocks) + f'],"m":{A.m},"n":{A.n}}}\n'


def _canonical_csc(text: str):
    """``(m, n, indptr, indices, data)`` of `text` when it is exactly what
    :func:`matrix_to_json` writes for a matrix whose entries are all +-c,
    else None.

    The text is taken in chunks of whole columns.  With its number
    characters deleted, a chunk must equal the skeleton rebuilt from its
    column counts, with no slot left empty and two number tokens per entry;
    each row token must be ``str(int(token))`` and each value token
    ``repr(c)`` or ``repr(-c)``.  So the arrays are the ones ``json.loads``
    would give, and any other text, valid or not, is left to it.
    """
    try:
        tail = _TAIL.fullmatch(text, max(text.rfind('],"m":'), 0)) if text.startswith(_HEAD) else None
        if tail is None or any(str(int(t)) != t for t in tail.groups()):
            return None
        start, end = len(_HEAD), tail.start()
        value, skeletons, counts, rows, vals = None, {}, [], [], []
        while start < end:
            cut = text.find("]],[", start + _CHUNK_CHARS, end)
            cut = end if cut < 0 else cut + 2
            chunk, start = text[start:cut], cut + 1
            tokens = chunk.translate(_SPACE_BRACKETS).split()
            if value is None:  # c comes from the first value token
                c = abs(float(tokens[1]))
                value = {repr(c): c, repr(-c): -c}
            # a value token that is not +-c raises KeyError here, before the
            # rest of the chunk is checked
            vals.append(np.fromiter(map(value.__getitem__, tokens[1::2]), np.float64, len(tokens) // 2))
            skeleton = chunk.translate(_DELETE_NUMBERS)
            k = [(len(col) + 1) // 2 for col in skeleton[1:-1].replace("[,]", "x").split("],[")]
            for size in set(k).difference(skeletons):
                skeletons[size] = "[" + ",".join(["[,]"] * size) + "]"
            if ",".join(map(skeletons.__getitem__, k)) != skeleton or "[," in chunk or ",]" in chunk \
                    or len(tokens) != 2 * sum(k):
                return None
            row_tokens = tokens[0::2]
            row = {t: int(t) for t in set(row_tokens)}
            if any(str(r) != t for t, r in row.items()):
                return None
            rows.append(np.fromiter(map(row.__getitem__, row_tokens), np.int64, len(row_tokens)))
            counts += k
    except (IndexError, KeyError, OverflowError, ValueError):
        return None
    if value is None:
        return None
    m, n = map(int, tail.groups())
    return m, n, np.cumsum([0] + counts), np.concatenate(rows), np.concatenate(vals)


def matrix_from_json(text: str) -> SparseMatrix:
    """The matrix `text` holds, or the :class:`OneSparseMap` when it holds ``a``."""
    csc = _canonical_csc(text)
    if csc:
        return SparseMatrix.from_csc(*csc)
    obj = _parse(text, "matrix")
    del text  # the tree holds everything from here on; free the text before building
    if isinstance(obj, dict) and "a" in obj:
        return _map_from_object(obj)
    return _matrix_from_object(obj)


def one_sparse_map_to_json(S: OneSparseMap) -> str:
    return canonical_json({"m": S.m, "n": S.n, "a": S.a.tolist(), "sigma": S.sigma.tolist()})


def one_sparse_map_from_json(text: str) -> OneSparseMap:
    return _map_from_object(_parse(text, "map"))


def save_matrix(A: SparseMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(matrix_to_json(A))


def load_matrix(path) -> SparseMatrix:
    return matrix_from_json(_read_text(path))


def save_one_sparse_map(S: OneSparseMap, path) -> None:
    with open(path, "w") as fh:
        fh.write(one_sparse_map_to_json(S))


def load_one_sparse_map(path) -> OneSparseMap:
    return one_sparse_map_from_json(_read_text(path))
