"""Witness searches: executable certifiers and refuters.

Each search returns a certificate, one frozen class per kind, holding the
``source`` search and its own fields; ``cert.verify(A)`` rechecks it:

* ``none`` — :class:`NoFinding`: the search found nothing;
* ``incoherence_pair`` — :class:`IncoherencePair`: two columns whose inner
  product exceeds the claimed coherence level (refuting incoherence);
* ``sparsity_lower_bound`` — :class:`SparsityLowerBound`: a pigeonhole group
  of near-identical columns forcing a floor on per-column sparsity;
* ``rip_distortion`` — :class:`RipDistortion`: a k-sparse vector whose image
  has norm ratio bounded away from 1 (refuting a small RIP constant);
* ``kernel_witness`` — :class:`KernelWitness`: an exactly-null vector for a
  one-sparse map, built from a row collision in integer arithmetic.

:data:`CERTIFICATES` maps kinds to classes; ``Certificate(kind, **fields)``
builds one.  The searches are deterministic: scans run in ascending index
order and every tie breaks toward the lexicographically smallest choice, so
reruns on equal inputs emit identical certificates.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    EmptyIndexSet,
    IndexOutOfRange,
    InvalidCount,
    InvalidDimension,
    InvalidEntry,
    InvalidEps,
    InvalidSparsity,
    InvalidT,
    NotSignMatrix,
    PreconditionViolated,
    TooLarge,
    UnknownKind,
)
from .matrices import SparseMatrix, _array, _integer, apply, column_sparsity, to_csr
from .measures import check_unit_columns, dyadic_scale_count
from .rng import derive_seed
from .constructions import sample_countsketch, sample_coordinate_subspace

# Group constant for the t-type certifier: C = 2 / (1 - 1/sqrt(2)).
TTYPE_GROUP_CONSTANT = 2.0 / (1.0 - 1.0 / math.sqrt(2.0))
# The divisor d of each pigeonhole certifier's bound s >= t(N-1)/d.
PIGEONHOLE_DIVISORS = {"ttype_collision_certify": 2.0 * TTYPE_GROUP_CONSTANT, "sign_pattern_certify": 4.0}


# --- certificates --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Certificate:
    """Base of the kinds: ``kind`` is each class's JSON tag, ``source`` the search that produced it."""

    kind: ClassVar[str]
    source: str

    def to_jsonable(self) -> dict:
        out: dict = {"kind": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            out[field.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


def _real(value, ndim: int) -> np.ndarray | None:
    """`value` as an array of real numbers with `ndim` axes, or None when it
    is not one (a string, None, bools, objects, ragged lists): a forged
    field fails verification instead of breaking the arithmetic."""
    try:
        x = _array(value, "iuf", "not a real array")
    except InvalidEntry:
        return None
    # _array lets an empty array of any dtype through
    return x if x.dtype.kind in "iuf" and x.ndim == ndim else None


@dataclass(frozen=True, eq=False)
class NoFinding(_Certificate):
    kind = "none"

    def verify(self, A: SparseMatrix) -> bool:
        return True


@dataclass(frozen=True, eq=False)
class IncoherencePair(_Certificate):
    """Verifies when columns i and j of A re-derive the number ``dot`` within 1e-12."""

    kind = "incoherence_pair"
    i: int
    j: int
    dot: float

    def verify(self, A: SparseMatrix) -> bool:
        ci, cj = (A.column_dense(c) for c in (self.i, self.j))
        dot = _real(self.dot, 0)
        return dot is not None and abs(float(ci @ cj) - float(dot)) <= 1e-12


@dataclass(frozen=True, eq=False)
class SparsityLowerBound(_Certificate):
    """Verifies when the number ``bound_value`` is t(N-1)/d within 1e-12, with
    N = ``group_size`` and d the source's divisor in :data:`PIGEONHOLE_DIVISORS`;
    a t or N that is not an integer raises :class:`InvalidDimension`."""

    kind = "sparsity_lower_bound"
    t: int
    group_size: int
    bound_value: float

    def verify(self, A: SparseMatrix) -> bool:
        divisor = PIGEONHOLE_DIVISORS.get(self.source) if isinstance(self.source, str) else None
        if divisor is None:
            return False
        t, N = _integer(self.t, "t"), _integer(self.group_size, "group size")
        bound = _real(self.bound_value, 0)
        return bound is not None and abs(float(bound) - t * (N - 1) / divisor) <= 1e-12


@dataclass(frozen=True, eq=False)
class RipDistortion(_Certificate):
    """Verifies when the nonzero real x = ``vector`` has |Ax|^2 / |x|^2 = ``ratio``
    within 1e-9, in float64; a vector whose squared norms overflow does not."""

    kind = "rip_distortion"
    vector: np.ndarray
    ratio: float

    def verify(self, A: SparseMatrix) -> bool:
        x, ratio = _real(self.vector, 1), _real(self.ratio, 0)
        if x is None or ratio is None:
            return False
        x = x.astype(np.float64)
        # an infinite or huge forged vector overflows to inf or NaN, which the
        # test below refuses, instead of warning
        with np.errstate(over="ignore", invalid="ignore"):
            y = apply(A, x)
            norm, image = float(x @ x), float(y @ y)
        return 0 < norm < math.inf and abs(image / norm - float(ratio)) <= 1e-9


@dataclass(frozen=True, eq=False)
class KernelWitness(_Certificate):
    """Verifies when ``vector`` is a nonzero integer vector, each entry below
    2^63 in magnitude, that A maps to zero exactly: every row's sum of
    ``Fraction(value) * x_j`` is 0, whatever A's values."""

    kind = "kernel_witness"
    vector: np.ndarray

    def verify(self, A: SparseMatrix) -> bool:
        x = _real(self.vector, 1)
        # refuse NaN, infinities and magnitudes of 2^63 or more before the int64 cast
        if x is None or x.dtype.kind != "i" and not np.all(np.abs(x) < 2.0**63):
            return False
        xi = np.rint(x).astype(np.int64)
        if not (np.any(x) and np.array_equal(xi, x)):
            return False
        if xi.shape != (A.n,):
            raise DimensionMismatch(f"expected vector of length {A.n}, got shape {xi.shape}")
        # every float64 is a dyadic rational, so these sums are exact
        image: dict[int, Fraction] = {}
        for j in np.flatnonzero(xi).tolist():
            rows, vals = A.column(j)
            for r, v in zip(rows.tolist(), vals.tolist()):
                image[r] = image.get(r, 0) + Fraction(v) * int(xi[j])
        return not any(image.values())


CERTIFICATES = {c.kind: c for c in (NoFinding, IncoherencePair, SparsityLowerBound, RipDistortion, KernelWitness)}


def Certificate(kind: str, **fields) -> _Certificate:
    """The certificate of `kind` with `fields`; :class:`UnknownKind` for a kind not in CERTIFICATES."""
    if not isinstance(kind, str) or kind not in CERTIFICATES:
        raise UnknownKind(f"unknown certificate kind {kind!r}")
    return CERTIFICATES[kind](**fields)


def verify_certificate(cert: _Certificate, A: SparseMatrix) -> bool:
    """Recompute a certificate's claim from A."""
    return cert.verify(A)


# --- row-mass overload search ---------------------------------------------------

def _max_dot_pair(A: SparseMatrix, cols: Sequence[int]) -> tuple[int, int, float]:
    """The pair among `cols` with the largest |dot|; ties keep the first pair."""
    D = A.submatrix_dense(cols)
    G = D.T @ D
    # row-major pairs p < q, the scan order of a double loop; argmax keeps the first
    p, q = np.triu_indices(len(cols), 1)
    best = int(np.argmax(np.abs(G[p, q])))
    p, q = p[best], q[best]
    return int(cols[p]), int(cols[q]), float(G[p, q])


def row_mass_violation_search(A: SparseMatrix, eps: float) -> _Certificate:
    """Scan rows for overloaded same-signed mass and certify the coherence
    violation it forces.

    For each row, the thresholds x are the squared magnitudes of the row's own
    entries, restricted to x >= 2 * eps.  If some row carries at least 5/x
    entries of one sign with squared magnitude >= x, then two of the columns
    meeting that threshold must have inner product above eps; the returned
    certificate is the maximum-|dot| pair among them.  On a matrix whose
    coherence really is <= eps no such overload can exist, so the search
    returns the ``none`` certificate.
    """
    if not 0 < eps < 0.5:
        raise InvalidEps(f"eps must lie in (0, 1/2), got {eps}")
    check_unit_columns(A)
    source = "row_mass_violation_search"
    row_ptr, columns, values = to_csr(A)
    for r in range(A.m):
        cols = columns[row_ptr[r]:row_ptr[r + 1]]
        vals = values[row_ptr[r]:row_ptr[r + 1]]
        if cols.size < 2:
            continue
        squares = vals * vals
        for x in np.unique(squares[squares >= 2.0 * eps]):
            limit = 5.0 / x
            for group in (cols[(vals > 0) & (squares >= x)], cols[(vals < 0) & (squares >= x)]):
                if group.size >= limit:
                    return IncoherencePair(source, *_max_dot_pair(A, group))
    return NoFinding(source)


# --- grouping columns by key ------------------------------------------------------
#
# The three pigeonhole searches give each column an integer key row, built
# straight from the CSC arrays a chunk of columns at a time, and take the
# largest group of equal rows.

_KEY_CHUNK = 2048


def group_columns(keys: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Ascending members of the largest group of equal rows of `keys`.

    `keys` is an n-by-w integer block with one row per member; only rows
    where the boolean mask `valid` holds take part.  Ties go to the group
    with the smallest first member.  The result is empty when no row takes
    part.
    """
    members = np.arange(keys.shape[0]) if valid is None else np.flatnonzero(valid)
    if members.size == 0:
        return members
    block = np.ascontiguousarray(keys if valid is None else keys[members])
    rows = block.view(np.dtype((np.void, block.dtype.itemsize * block.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(rows, return_index=True, return_inverse=True, return_counts=True)
    tied = np.flatnonzero(counts == counts.max())
    return members[inverse == tied[np.argmin(first[tied])]]


def _signed_rows(A: SparseMatrix) -> np.ndarray:
    """Every stored entry as the integer (row + 1) * sign, which is never 0,
    so 0 can pad a key; int32 unless the rows need more."""
    dtype = np.int32 if A.m < np.iinfo(np.int32).max else np.int64
    codes = (A.indices + 1).astype(dtype)
    codes[A.data < 0] *= -1
    return codes


def _ranks(col: np.ndarray) -> np.ndarray:
    """Each entry's index within its run of equal values of the sorted `col`."""
    return np.arange(col.size) - np.searchsorted(col, col)


def _top_entries(A: SparseMatrix, lo: int, hi: int, width: int, keep: np.ndarray | None = None):
    """The `width` largest-magnitude stored entries of each column in
    [lo, hi), ties to the lower row, as (column, position in ``A.data``)
    arrays in storage order.  Only the chunk's entries where the mask `keep`
    holds take part."""
    col = np.repeat(np.arange(lo, hi), np.diff(A.indptr[lo:hi + 1]))
    pos = np.arange(A.indptr[lo], A.indptr[hi])
    if keep is not None:
        col, pos = col[keep], pos[keep]
    order = np.lexsort((pos, -np.abs(A.data[pos]), col))
    chosen = np.sort(order[_ranks(col[order]) < width])
    return col[chosen], pos[chosen]


# --- t-types ---------------------------------------------------------------------

@dataclass(frozen=True)
class TType:
    """Discretization of a vector by its top-t coordinates.

    ``locations`` are the t largest-magnitude indices (ties to the lower
    index), in ascending order; ``signs`` are the matching coordinate signs;
    ``rounded_squares`` hold each squared coordinate rounded to the nearest
    multiple of 1/(2s), stored as the integer numerator, halfway rounding
    down.
    """

    s: int
    locations: tuple[int, ...]
    signs: tuple[int, ...]
    rounded_squares: tuple[int, ...]

    def __post_init__(self):
        t = len(self.locations)
        if not (len(self.signs) == len(self.rounded_squares) == t):
            raise DimensionMismatch("locations, signs, rounded_squares must have equal length")
        if any(sg not in (-1, 1) for sg in self.signs):
            raise InvalidEntry("signs must be +1 or -1")
        if any(not 0 <= r <= 2 * self.s + 1 for r in self.rounded_squares):
            raise InvalidEntry(f"each rounded square must lie in [0, {2 * self.s + 1}]")
        if sum(self.rounded_squares) > 2 * self.s + t:
            raise InvalidEntry(f"rounded squares sum to more than {2 * self.s + t}")


def _round_half_down(x: float) -> int:
    return math.ceil(x - 0.5)


def ttype_of(v: np.ndarray, t: int, s: int) -> TType:
    """The t-type of a unit-norm vector with at most s nonzeros."""
    v = np.asarray(v, dtype=np.float64)
    if not 1 <= t <= s:
        raise InvalidT(f"t={t} must lie in [1, s={s}]")
    nnz = int(np.count_nonzero(v))
    if nnz > s:
        raise InvalidSparsity(f"vector has {nnz} nonzeros, more than s={s}")
    if t > v.size:
        raise InvalidT(f"t={t} exceeds the vector dimension {v.size}")
    order = sorted(range(v.size), key=lambda i: (-abs(v[i]), i))
    locs = tuple(sorted(order[:t]))
    signs = tuple(1 if v[i] >= 0 else -1 for i in locs)
    # v * v, not v ** 2: the libm power can differ from the rounded product in
    # the last bit, and the batched keys square by multiplication
    rounded = tuple(_round_half_down(float(v[i] * v[i]) * 2 * s) for i in locs)
    return TType(s=s, locations=locs, signs=signs, rounded_squares=rounded)


def ttype_count_bound(m: int, s: int, t: int) -> int:
    """Cap on the number of distinct t-types of s-sparse vectors in R^m."""
    return 2**t * math.comb(m, t) * math.comb(2 * (s + t), t)


def _ttype_keys(A: SparseMatrix, t: int, s: int) -> np.ndarray:
    """Every column's t-type (see :func:`ttype_of`) as one key row: the
    signed rows (row + 1) * sign of its top t coordinates in row order, then
    their rounded squares."""
    codes = _signed_rows(A)
    keys = np.empty((A.n, 2 * t), dtype=codes.dtype)
    nnz = np.diff(A.indptr)
    for lo in range(0, A.n, _KEY_CHUNK):
        hi = min(lo + _KEY_CHUNK, A.n)
        col, pos = _top_entries(A, lo, hi, t)
        rows, vals = A.indices[pos], A.data[pos]
        # A column with fewer than t nonzeros takes zero coordinates at its
        # lowest free rows, all of which lie below t.
        short = np.flatnonzero(nnz[lo:hi] < t) + lo
        taken = np.zeros((short.size, t), dtype=bool)
        low = (nnz[col] < t) & (rows < t)
        taken[np.searchsorted(short, col[low]), rows[low]] = True
        free = ~taken
        fill = free & (np.cumsum(free, axis=1) <= (t - nnz[short])[:, None])
        fill_at, fill_rows = np.nonzero(fill)
        col = np.concatenate((col, short[fill_at]))
        rows = np.concatenate((rows, fill_rows))
        order = np.lexsort((rows, col))
        signed = np.concatenate((codes[pos], fill_rows + 1))[order]
        vals = np.concatenate((vals, np.zeros(fill_rows.size)))[order]
        keys[lo:hi, :t] = signed.reshape(-1, t)
        keys[lo:hi, t:] = np.ceil(vals * vals * 2 * s - 0.5).reshape(-1, t)
    return keys


def _expose_incoherent_pair(A: SparseMatrix, cols: Sequence[int], eps: float) -> tuple[int, int, float] | None:
    """First pair (ascending) in `cols` with signed dot above eps, or None."""
    D = A.submatrix_dense(cols)
    for p in range(len(cols)):
        dots = D[:, p + 1 :].T @ D[:, p]
        over = np.nonzero(dots > eps)[0]
        if over.size:
            q = p + 1 + int(over[0])
            return int(cols[p]), int(cols[q]), float(dots[over[0]])
    return None


def _pigeonhole_tail(A: SparseMatrix, source: str, eps: float, t: int, group: np.ndarray) -> _Certificate:
    """What the largest group of N columns forces: nothing when N < 2, else its
    first pair with inner product above eps, else s >= t(N-1)/d (d by source)."""
    N = len(group)
    if N < 2:
        return NoFinding(source)
    exposed = _expose_incoherent_pair(A, group, eps)
    if exposed is not None:
        return IncoherencePair(source, *exposed)
    return SparsityLowerBound(source, t, N, t * (N - 1) / PIGEONHOLE_DIVISORS[source])


def ttype_collision_certify(A: SparseMatrix, eps: float, t: int) -> _Certificate:
    """Group unit columns by t-type and certify what a large group forces.

    Requires t/s > C * eps with C = 2/(1 - 1/sqrt(2)).  If the largest group
    has N >= 2 members, either some pair inside it has inner product above
    eps (returned as an incoherence pair) or the group pigeonhole forces
    s >= t(N-1)/(2C), returned as a sparsity lower bound.  A negative or
    NaN eps raises :class:`InvalidEps`.
    """
    if not eps >= 0:
        raise InvalidEps(f"eps must be >= 0, got {eps}")
    check_unit_columns(A)
    s = column_sparsity(A)
    if not 1 <= t <= s:
        raise InvalidT(f"t={t} must lie in [1, s={s}]")
    if not t / s > TTYPE_GROUP_CONSTANT * eps:
        raise PreconditionViolated(
            f"need t/s > C*eps: {t}/{s} = {t / s:.6g} vs C*eps = {TTYPE_GROUP_CONSTANT * eps:.6g}"
        )
    return _pigeonhole_tail(A, "ttype_collision_certify", eps, t, group_columns(_ttype_keys(A, t, s)))


# --- sign-pattern certifier -------------------------------------------------------

_FULL_ENUM_MAX_S = 8


def sign_pattern_certify(
    A: SparseMatrix, eps: float, t: int, full_enumeration: bool = False
) -> _Certificate:
    """Group sign-matrix columns by a shared t-row sign pattern.

    Every entry must have magnitude 1/sqrt(s) with s = column_sparsity(A).
    In canonical mode each column contributes one pattern: its t smallest
    support rows with their signs.  With ``full_enumeration=True`` (guarded
    by s <= 8) every t-subset of every column's support is a pattern, which
    matches the pigeonhole argument exactly but costs C(s, t) per column.
    The largest group either exposes an incoherence pair (some inner product
    above eps) or certifies the sparsity bound s >= t(N-1)/4.  A negative or
    NaN eps raises :class:`InvalidEps`.
    """
    if not eps >= 0:
        raise InvalidEps(f"eps must be >= 0, got {eps}")
    s = column_sparsity(A)
    if not 1 <= t <= s:
        raise InvalidT(f"t={t} must lie in [1, s={s}]")
    scale = 1.0 / math.sqrt(s)
    bad = np.flatnonzero(np.abs(np.abs(A.data) - scale) > 1e-12)
    if bad.size:
        j = int(np.searchsorted(A.indptr, bad[0], side="right")) - 1
        raise NotSignMatrix(f"column {j} entry {float(A.data[bad[0]])!r} is not +-1/sqrt({s}) within 1e-12")
    if t < 2 * eps * s:
        raise PreconditionViolated(f"need t >= 2*eps*s: t={t} vs 2*eps*s={2 * eps * s:.6g}")

    codes = _signed_rows(A)
    nnz = np.diff(A.indptr)
    if full_enumeration:
        if s > _FULL_ENUM_MAX_S:
            raise TooLarge(f"full enumeration allows s <= {_FULL_ENUM_MAX_S}, got s={s}")
        # one key row per (column, t-subset of its support), in column order
        counts = np.array([math.comb(size, t) for size in range(s + 1)])[nnz]
        start = np.cumsum(counts) - counts
        keys = np.empty((int(counts.sum()), t), dtype=codes.dtype)
        for size in range(t, s + 1):
            combos = np.array(list(itertools.combinations(range(size), t)))
            cols = np.flatnonzero(nnz == size)
            for c in range(0, cols.size, _KEY_CHUNK):
                chunk = cols[c:c + _KEY_CHUNK]
                keys[start[chunk, None] + np.arange(len(combos))] = codes[A.indptr[chunk, None, None] + combos]
        group = np.repeat(np.arange(A.n), counts)[group_columns(keys)]
    else:
        valid = nnz >= t
        first = np.where(valid, A.indptr[:-1], 0)
        group = group_columns(codes[first[:, None] + np.arange(t)], valid)
    return _pigeonhole_tail(A, "sign_pattern_certify", eps, t, group)


# --- restricted-isometry pattern witness -------------------------------------------

@dataclass(frozen=True)
class PatternAtScale:
    """A column's heavy-row pattern at dyadic scale t.

    ``u`` is the target pattern size max(ceil(2^(4-t) * s / k), 1); ``rows``
    holds the u largest-magnitude rows meeting the scale threshold (all
    qualifying rows when fewer than u exist), ascending, with their signs.
    """

    t: int
    u: int
    rows: tuple[int, ...]
    signs: tuple[int, ...]


def _pattern_size(t: int, k: int, s: int) -> int:
    """u = max(ceil(2^(4-t) * s / k), 1), in exact arithmetic."""
    return max(int(math.ceil(Fraction(2, 1) ** (4 - t) * s / k)), 1)


def pattern_at_scale(A: SparseMatrix, column: int, t: int, k: int, s: int) -> PatternAtScale | None:
    """The canonical pattern of one column at scale t, or None if no entry
    reaches the threshold 2^((t-3)/2)/sqrt(s)."""
    u = _pattern_size(t, k, s)
    rows, vals = A.column(column)
    rows, vals = rows.tolist(), vals.tolist()
    threshold_sq = 2.0 ** (t - 3) / s
    qual = [p for p, v in enumerate(vals) if v * v >= threshold_sq]
    if not qual:
        return None
    # the u largest magnitudes, ties to the lower row (rows ascend, and the
    # sort is stable), then back in row order
    chosen = sorted(sorted(qual, key=lambda p: -abs(vals[p]))[:u])
    return PatternAtScale(
        t=t,
        u=u,
        rows=tuple(rows[p] for p in chosen),
        signs=tuple(1 if vals[p] >= 0 else -1 for p in chosen),
    )


def _pattern_keys(A: SparseMatrix, t: int, k: int, s: int, codes: np.ndarray) -> np.ndarray:
    """Every column's pattern at scale t (see :func:`pattern_at_scale`) as one
    key row: the signed rows (row + 1) * sign in row order, padded with 0s.
    A column whose key row starts with 0 has no pattern."""
    width = min(_pattern_size(t, k, s), s)
    threshold_sq = 2.0 ** (t - 3) / s
    keys = np.zeros((A.n, width), dtype=codes.dtype)
    for lo in range(0, A.n, _KEY_CHUNK):
        hi = min(lo + _KEY_CHUNK, A.n)
        vals = A.data[A.indptr[lo]:A.indptr[hi]]
        col, pos = _top_entries(A, lo, hi, width, keep=vals * vals >= threshold_sq)
        keys[col, _ranks(col)] = codes[pos]
    return keys


def _check_scales(A: SparseMatrix) -> None:
    """Raise :class:`DegenerateColumn` for the first column with no scale
    profile (see :func:`~sketchbounds.measures.scale_profile`), counting
    every column's large entries once per scale."""
    nnz = np.diff(A.indptr)
    col = np.repeat(np.arange(A.n), nnz)
    sparsity = np.repeat(nnz, nnz)  # each entry's column sparsity
    squares = A.data * A.data
    found = np.zeros(A.n, dtype=bool)
    for t in range(1, dyadic_scale_count(max(column_sparsity(A), 1)) + 1):
        # t <= dyadic_scale_count(nnz) for a nonempty column
        in_range = (nnz > 2 ** (t - 1)) if t > 1 else (nnz > 0)
        actual = np.bincount(col[squares >= 2.0 ** (t - 3) / sparsity], minlength=A.n)
        found |= in_range & (actual >= 2.0 ** (-t - 1) * nnz / (t * t))
    bad = np.flatnonzero(~found)
    if bad.size:
        raise DegenerateColumn(f"column {bad[0]} has no qualifying scale")


def rip_pattern_witness(A: SparseMatrix, k: int) -> _Certificate:
    """Search for a k-sparse flat vector that the matrix stretches.

    Every column must first admit a scale profile (else
    :class:`DegenerateColumn`).  At each scale the columns are grouped by
    their canonical pattern; the largest group of size z >= 2 proposes the
    indicator vector of its first min(z, k) members, and the best ratio
    |Av|^2 / |v|^2 over all scales is returned as a ``rip_distortion``
    certificate when it exceeds 1 + 1e-9.
    """
    source = "rip_pattern_witness"
    if k < 2:
        raise InvalidDimension(f"need k >= 2, got {k}")
    _check_scales(A)
    s = column_sparsity(A)
    codes = _signed_rows(A)
    best_vector: np.ndarray | None = None
    best_ratio = -math.inf
    for t in range(1, dyadic_scale_count(s) + 1):
        keys = _pattern_keys(A, t, k, s, codes)
        group = group_columns(keys, keys[:, 0] != 0)
        if len(group) < 2:
            continue
        support = group[: min(len(group), k)]
        v = np.zeros(A.n)
        v[support] = 1.0
        y = apply(A, v)
        ratio = float(y @ y) / float(v @ v)
        if ratio > best_ratio:
            best_ratio = ratio
            best_vector = v
    if best_vector is not None and best_ratio >= 1.0 + 1e-9:
        return RipDistortion(source, best_vector, best_ratio)
    return NoFinding(source)


# --- one-sparse map witnesses --------------------------------------------------------

def ose_collision_witness(S: SparseMatrix, indices: Iterable[int] | None = None) -> _Certificate:
    """Exact kernel vector from a row collision among the selected columns
    (all of them when `indices` is None) of a matrix whose columns each hold
    one +-1 entry, as a one-sparse map's do (else :class:`PreconditionViolated`).

    Takes the lexicographically first pair i < j with a(i) == a(j) and emits
    x with x_i = sigma(j), x_j = -sigma(i): then S x = 0 exactly in integer
    arithmetic and |x| = sqrt(2).  Returns ``none`` when the selected columns
    hash to distinct rows.
    """
    source = "ose_collision_witness"
    if not (np.array_equal(S.indptr, np.arange(S.n + 1)) and (np.abs(S.data) == 1).all()):
        raise PreconditionViolated("ose_collision_witness needs exactly one +-1 entry in every column")
    if indices is None:
        cols = np.arange(S.n)
    else:
        chosen = sorted({_integer(i, "column index") for i in indices})
        if not chosen:
            raise EmptyIndexSet("need at least one column index")
        if chosen[0] < 0 or chosen[-1] >= S.n:
            bad = next(i for i in chosen if not 0 <= i < S.n)
            raise IndexOutOfRange(f"column index {bad} outside [0, {S.n})")
        cols = np.array(chosen, dtype=np.int64)
    # A stable sort by row keeps each row's columns ascending.  The first
    # pair is a repeated row's first column with its second; taking the
    # smallest first column over every neighbouring repeat finds it, since a
    # later column of a row is never smaller than that row's first.
    rows = S.indices[cols]
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    repeats = np.flatnonzero(ranked[1:] == ranked[:-1])
    if not repeats.size:
        return NoFinding(source)
    p = repeats[np.argmin(order[repeats])]
    i, j = int(cols[order[p]]), int(cols[order[p + 1]])
    x = np.zeros(S.n, dtype=np.int64)
    x[i] = int(S.data[j])
    x[j] = -int(S.data[i])
    return KernelWitness(source, x)


@dataclass(frozen=True)
class TrialRecord:
    """One embedding trial: singular extremes, failure flag, heavy-row count."""

    failed: bool
    sigma_min: float
    sigma_max: float
    heavy_rows: int


@dataclass(frozen=True)
class OseFailureReport:
    m: int
    d: int
    n: int
    trials: int
    failures: int
    rate: float
    records: tuple[TrialRecord, ...]


def ose_failure_probability(m: int, d: int, n: int, trials: int, seed: int) -> OseFailureReport:
    """Monte Carlo failure rate of one-sparse maps on coordinate subspaces.

    Each trial samples a fresh map and a uniform d-coordinate subspace, and
    fails iff the subspace distortion leaves [1/2, 2].  The selected columns'
    Gram is block diagonal, one rank-one block per hit row with the row's
    load L as eigenvalue, so sigma_min is 0 or 1, sigma_max = sqrt(max L),
    and a trial fails iff two coordinates share a row.  Trials derive
    independent streams from (seed, trial index).  The per-trial heavy-row
    count (rows receiving at least n/(10m) columns) is a diagnostic only.
    """
    m, d, n = _integer(m, "row count"), _integer(d, "subspace dimension"), _integer(n, "column count")
    trials = _integer(trials, "trials")
    if trials < 1:
        raise InvalidCount(f"need trials >= 1, got {trials}")
    if m < 1 or not 1 <= d <= n:
        raise InvalidDimension(f"need m >= 1 and 1 <= d <= n, got m={m}, d={d}, n={n}")
    heavy_cut = n / (10.0 * m)
    records = []
    for trial in range(trials):
        smap = sample_countsketch(m, n, derive_seed(seed, trial, 0))
        subset = sample_coordinate_subspace(n, d, derive_seed(seed, trial, 1))
        load = int(np.bincount(smap.a[list(subset)]).max())
        heavy = int(np.count_nonzero(smap.row_loads() >= heavy_cut))
        records.append(TrialRecord(failed=load > 1, sigma_min=0.0 if load > 1 else 1.0,
                                   sigma_max=math.sqrt(load), heavy_rows=heavy))
    failures = sum(r.failed for r in records)
    return OseFailureReport(
        m=m, d=d, n=n, trials=trials, failures=failures, rate=failures / trials,
        records=tuple(records),
    )
