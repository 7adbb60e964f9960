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
    InvalidCount,
    InvalidDimension,
    InvalidEntry,
    InvalidEps,
    InvalidSparsity,
    InvalidT,
    MalformedArtifact,
    NotSignMatrix,
    PreconditionViolated,
    TooLarge,
    UnknownKind,
)
from .matrices import _BUDGET, SparseMatrix, _array, _entries, _integer, _runs, _spans, apply, column_sparsity
from .measures import check_unit_columns, dyadic_scale_count
from .rng import _LANES, check_seed, derive_seed, derived_states, substream
from .constructions import _check_size

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
    """Verifies when distinct columns i and j of A re-derive the number ``dot``
    within 1e-12."""

    kind = "incoherence_pair"
    i: int
    j: int
    dot: float

    def verify(self, A: SparseMatrix) -> bool:
        # the two columns' stored entries: the dot needs only the rows they share
        ei, ej = (_entries(A, [c])[1] for c in (self.i, self.j))
        if self.i == self.j:
            return False
        dot = _real(self.dot, 0)
        _, pi, pj = np.intersect1d(A.indices[ei], A.indices[ej], assume_unique=True, return_indices=True)
        return dot is not None and abs(float(A.data[ei][pi] @ A.data[ej][pj]) - float(dot)) <= 1e-12


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
    """The certificate of `kind` with `fields`; :class:`UnknownKind` for a
    kind not in CERTIFICATES, :class:`MalformedArtifact` unless `fields`
    names exactly the kind's fields."""
    if not isinstance(kind, str) or kind not in CERTIFICATES:
        raise UnknownKind(f"unknown certificate kind {kind!r}")
    cls = CERTIFICATES[kind]
    expected = [field.name for field in dataclasses.fields(cls)]
    if set(fields) != set(expected):
        raise MalformedArtifact(f"a {kind} certificate has the fields {', '.join(expected)}, "
                                f"got {', '.join(sorted(fields)) or 'none'}")
    return cls(**fields)


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
    returns the ``none`` certificate.  Only stored rows with two or more
    entries are visited, in ascending order, from one stable sort of
    ``A.indices``, so the scan takes no memory or time in m; a hit's pair is
    still found from its group's dense columns.
    """
    value = _real(eps, 0)
    if value is None or not 0 < value < 0.5:
        raise InvalidEps(f"eps must lie in (0, 1/2), got {eps!r}")
    eps = float(value)
    check_unit_columns(A)
    source = "row_mass_violation_search"
    order = np.argsort(A.indices, kind="stable")  # row by row, each row's columns ascending
    columns = np.repeat(np.arange(A.n), np.diff(A.indptr))[order]
    values = A.data[order]
    rows = A.indices[order]
    starts, lengths = _runs(rows) if rows.size else (rows, rows)
    shared = lengths >= 2
    for lo, hi in zip(starts[shared].tolist(), (starts + lengths)[shared].tolist()):
        cols, vals = columns[lo:hi], values[lo:hi]
        squares = vals * vals
        for x in np.unique(squares[squares >= 2.0 * eps]):
            limit = 5.0 / x
            for group in (cols[(vals > 0) & (squares >= x)], cols[(vals < 0) & (squares >= x)]):
                if group.size >= limit:
                    return IncoherencePair(source, *_max_dot_pair(A, group))
    return NoFinding(source)


# --- grouping columns by key ------------------------------------------------------
#
# The three pigeonhole searches give each column an integer key row (or one
# per t-subset of its support), built straight from the CSC arrays a span of
# whole columns at a time (at most _BUDGET // 64 entries, or one column),
# leave out the columns with no key, give each key row one integer id
# (_row_ids), sort the ids and take the longest run of equal ones
# (matrices._runs).  A search's peak memory is at most 4 * max(_BUDGET, 64
# bytes an entry of the largest column) for a span, plus 20 bytes an entry
# and 40 a column, plus, for grouping, three times the block of key rows
# and 48 bytes a row.


def group_columns(keys: np.ndarray) -> np.ndarray:
    """Ascending members of the largest group of equal rows of `keys`.

    `keys` is an n-by-w integer block with one row per member.  Ties go to
    the group with the smallest first member.  The result is empty when
    `keys` has no rows.
    """
    n = keys.shape[0]
    if n == 0:
        return np.arange(0)
    # n * id + member is distinct for every member, so a plain sort lists
    # each group's members in ascending order
    rows, order = np.divmod(np.sort(_row_ids(keys) * n + np.arange(n)), n)
    starts, lengths = _runs(rows)
    tied = starts[lengths == lengths.max()]
    start = tied[np.argmin(order[tied])]
    return order[start:start + lengths.max()]


def _row_ids(keys: np.ndarray) -> np.ndarray:
    """One int64 per row of the nonempty n-by-w integer block `keys`, equal
    exactly when the rows are equal, each below 2^62 // n.

    The columns are folded in mixed radix, each shifted to start at 0, or
    ranked when its range exceeds the row count.  The fold is ranked
    whenever it passes 2^62 // n.  Then a row with an id of its own is told
    apart from every other row, and the columns before the first one where
    a row differs from another with its id tell no two rows apart, so the
    fold skips them: it goes on from that column, or stops when there is
    none.
    """
    n, w = keys.shape
    limit = 2**62 // n
    ids = np.zeros(n, np.int64)
    size = 1  # every id lies in [0, size), and size <= limit
    j = 0
    while j < w:
        column = keys[:, j]
        lo, hi = int(column.min()), int(column.max())
        if hi - lo < n:
            digits, width = column - lo, hi - lo + 1
        else:
            values, digits = np.unique(column, return_inverse=True)
            width = values.size
        ids *= width  # below limit * n <= 2^62
        ids += digits
        size *= width
        j += 1
        if size > limit:
            values, ids = np.unique(ids, return_inverse=True)
            size = values.size
            some = np.empty(size, np.int64)
            some[ids] = np.arange(n)  # a row with each id
            twins = np.flatnonzero(some[ids] != np.arange(n))
            differ = np.flatnonzero((keys[twins, j:] != keys[some[ids[twins]], j:]).any(axis=0))
            if differ.size == 0:
                break
            j += int(differ[0])
    return ids


def _signed_rows(A: SparseMatrix) -> np.ndarray:
    """Every stored entry as the integer (row + 1) * sign, which is never 0,
    so 0 can pad a key; int32 unless the rows need more."""
    dtype = np.int32 if A.m < np.iinfo(np.int32).max else np.int64
    codes = A.indices.astype(dtype)
    codes += 1
    flip = (A.data < 0).view(np.int8)
    codes ^= -flip  # ~code, which is -code - 1, where the entry is negative
    codes += flip
    return codes


def _ranks(col: np.ndarray) -> np.ndarray:
    """Each entry's index within its run of equal values of the sorted `col`."""
    if col.size == 0:
        return np.arange(0)
    starts, lengths = _runs(col)
    return np.arange(col.size) - np.repeat(starts, lengths)


def _top_entries(A: SparseMatrix, lo: int, hi: int, width: int, keep: np.ndarray | None = None):
    """The `width` largest-magnitude stored entries of each column in
    [lo, hi), ties to the lower row, as (column, position in ``A.data``)
    arrays in storage order.  Only the chunk's entries where the mask `keep`
    holds take part."""
    col = np.repeat(np.arange(lo, hi), np.diff(A.indptr[lo:hi + 1]))
    pos = np.arange(A.indptr[lo], A.indptr[hi])
    if keep is not None:
        col, pos = col[keep], pos[keep]
    # the sort is stable and the entries are in storage order, so ties
    # keep the lower row
    order = np.lexsort((-np.abs(A.data[pos]), col))
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
    t, s = _integer(t, "t"), _integer(s, "s")
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
    m, s, t = _integer(m, "m"), _integer(s, "s"), _integer(t, "t")
    return 2**t * math.comb(m, t) * math.comb(2 * (s + t), t)


def _ttype_keys(A: SparseMatrix, t: int, s: int) -> np.ndarray:
    """Every column's t-type (see :func:`ttype_of`) as one key row: the
    signed rows (row + 1) * sign of its top t coordinates in row order, then
    their rounded squares."""
    codes = _signed_rows(A)
    keys = np.empty((A.n, 2 * t), dtype=codes.dtype)
    nnz = np.diff(A.indptr)
    for lo, hi in _spans(A.indptr, _BUDGET // 64):
        col, pos = _top_entries(A, lo, hi, t)
        signed, vals = codes[pos], A.data[pos]
        # A column with fewer than t nonzeros takes zero coordinates at its
        # lowest free rows, all of which lie below t; without one, the
        # entries are already in (column, row) order.
        short = np.flatnonzero(nnz[lo:hi] < t) + lo
        if short.size:
            rows = A.indices[pos]
            taken = np.zeros((short.size, t), dtype=bool)
            low = (nnz[col] < t) & (rows < t)
            taken[np.searchsorted(short, col[low]), rows[low]] = True
            free = ~taken
            fill = free & (np.cumsum(free, axis=1) <= (t - nnz[short])[:, None])
            fill_at, fill_rows = np.nonzero(fill)
            order = np.lexsort((np.concatenate((rows, fill_rows)), np.concatenate((col, short[fill_at]))))
            signed = np.concatenate((signed, fill_rows + 1))[order]
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


def _nonnegative_eps(eps) -> float:
    """`eps` as a float; a negative, NaN or non-real eps raises :class:`InvalidEps`."""
    value = _real(eps, 0)
    if value is None or not value >= 0:
        raise InvalidEps(f"eps must be >= 0, a real number, got {eps!r}")
    return float(value)


def ttype_collision_certify(A: SparseMatrix, eps: float, t: int) -> _Certificate:
    """Group unit columns by t-type and certify what a large group forces.

    Requires t/s > C * eps with C = 2/(1 - 1/sqrt(2)).  If the largest group
    has N >= 2 members, either some pair inside it has inner product above
    eps (returned as an incoherence pair) or the group pigeonhole forces
    s >= t(N-1)/(2C), returned as a sparsity lower bound.  A negative, NaN
    or non-real eps raises :class:`InvalidEps`, a bool or non-integer t
    :class:`InvalidDimension`.  Peak memory: that of the key searches (see
    "grouping columns by key"), with n key rows of 2t codes.
    """
    eps, t = _nonnegative_eps(eps), _integer(t, "t")
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
    above eps) or certifies the sparsity bound s >= t(N-1)/4.  A negative,
    NaN or non-real eps raises :class:`InvalidEps`, a bool or non-integer t
    :class:`InvalidDimension`.  Peak memory: that of the key searches (see
    "grouping columns by key"), with n key rows of t codes, or with full
    enumeration a row for each t-subset of each support.  Both modes build
    the positions of a span's columns that have a pattern as one (columns,
    C(s, t) or 1, t) fancy index.
    """
    eps, t = _nonnegative_eps(eps), _integer(t, "t")
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

    if full_enumeration and s > _FULL_ENUM_MAX_S:
        raise TooLarge(f"full enumeration allows s <= {_FULL_ENUM_MAX_S}, got s={s}")
    codes = _signed_rows(A)
    nnz = np.diff(A.indptr)
    # one key row per (column, combo inside its support), in column order:
    # the t-subsets of range(s) that lie in range(nnz) are those of
    # range(nnz), in the same lexicographic order, and the first is range(t)
    combos = np.array(list(itertools.combinations(range(s), t)) if full_enumeration else [range(t)])
    counts = np.searchsorted(np.sort(combos[:, -1]), nnz)  # the combos inside each column
    start = np.concatenate(([0], np.cumsum(counts)))
    keys = np.empty((int(start[-1]), t), dtype=codes.dtype)
    # only columns with a key take part, so that empty ones cost nothing;
    # a span's (columns, combos, t) positions hold at most _BUDGET // 64
    cols = np.flatnonzero(nnz >= t)
    for lo, hi in _spans(np.arange(cols.size + 1) * combos.size, _BUDGET // 64):
        span = cols[lo:hi]
        inside = combos[:, -1] < nnz[span, None]
        keys[start[span[0]]:start[span[-1] + 1]] = codes[(A.indptr[span, None, None] + combos)[inside]]
    group = np.repeat(np.arange(A.n), counts)[group_columns(keys)]
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
    key row: the signed rows (row + 1) * sign in row order, padded with 0s
    to the longest pattern.  A column whose key row starts with 0 has no
    pattern."""
    width = min(_pattern_size(t, k, s), s)
    threshold_sq = 2.0 ** (t - 3) / s
    keys = np.zeros((A.n, width), dtype=codes.dtype)
    longest = 1
    for lo, hi in _spans(A.indptr, _BUDGET // 64):
        vals = A.data[A.indptr[lo]:A.indptr[hi]]
        col, pos = _top_entries(A, lo, hi, width, keep=vals * vals >= threshold_sq)
        ranks = _ranks(col)
        keys[col, ranks] = codes[pos]
        longest = max(longest, int(ranks.max(initial=0)) + 1)
    return keys[:, :longest]


def _admitted(A: SparseMatrix, s: int, scales: int) -> list[int]:
    """How many stored entries each scale t = 1, ..., `scales` admits: those
    whose square reaches the threshold 2^(t-3)/s.  The thresholds rise with
    t, so each scale admits a subset of the scale before's entries."""
    thresholds = [2.0 ** (t - 3) / s for t in range(1, scales + 1)]
    reached = np.zeros(scales + 1, np.int64)  # entries whose last scale is t, at index t
    for lo in range(0, A.nnz, _BUDGET // 64):
        vals = A.data[lo:lo + _BUDGET // 64]
        reached += np.bincount(np.searchsorted(thresholds, vals * vals, side="right"), minlength=scales + 1)
    return np.cumsum(reached[::-1])[::-1][1:].tolist()


def _check_scales(A: SparseMatrix) -> None:
    """Raise :class:`DegenerateColumn` for the first column with no scale
    profile (see :func:`~sketchbounds.measures.scale_profile`), counting
    every column's large entries once per scale."""
    nnz = np.diff(A.indptr)
    found = np.zeros(A.n, dtype=bool)
    scales = dyadic_scale_count(max(column_sparsity(A), 1))
    for lo, hi in _spans(A.indptr, _BUDGET // 64):
        size = nnz[lo:hi]
        col = np.repeat(np.arange(hi - lo), size)
        sparsity = np.repeat(size, size)  # each entry's column sparsity
        squares = np.square(A.data[A.indptr[lo]:A.indptr[hi]])
        for t in range(1, scales + 1):
            # t <= dyadic_scale_count(nnz) for a nonempty column
            in_range = (size > 2 ** (t - 1)) if t > 1 else (size > 0)
            actual = np.bincount(col[squares >= 2.0 ** (t - 3) / sparsity], minlength=hi - lo)
            found[lo:hi] |= in_range & (actual >= 2.0 ** (-t - 1) * size / (t * t))
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
    certificate when it exceeds 1 + 1e-9.  A column with no entry at a
    scale's threshold takes no part at that scale.  A scale that admits the
    scale before's entries at the same pattern width builds no keys, nor
    does one that admits no entry, and a scale whose keys equal the scale
    before's is grouped once.  Peak memory: that of
    the key searches (see "grouping columns by key"), with n key rows of the
    widest pattern, min(u, s) codes; the scale check runs a span at a time.
    """
    source = "rip_pattern_witness"
    k = _integer(k, "k")
    if k < 2:
        raise InvalidDimension(f"need k >= 2, got {k}")
    _check_scales(A)
    s = column_sparsity(A)
    codes = _signed_rows(A)
    best_vector: np.ndarray | None = None
    best_ratio = -math.inf
    keys = None
    admitted = _admitted(A, s, dyadic_scale_count(s))
    for t in range(1, len(admitted) + 1):
        if not admitted[t - 1]:
            break  # no entry reaches this scale's threshold, nor a later one's
        if t > 1 and admitted[t - 1] == admitted[t - 2] \
                and min(_pattern_size(t, k, s), s) == min(_pattern_size(t - 1, k, s), s):
            continue  # the scale before's entries at its width: its keys again
        previous, keys = keys, _pattern_keys(A, t, k, s, codes)
        if np.array_equal(keys, previous):
            continue  # the same group, support and ratio, which would not win
        has = np.flatnonzero(keys[:, 0])  # the columns with a pattern
        group = has[group_columns(keys[has])]
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
        cols = np.unique(_entries(S, indices)[0])
        if not cols.size:
            raise EmptyIndexSet("need at least one column index")
    size = cols.size
    if size < 2:  # _row_ids needs a nonempty block
        return NoFinding(source)
    # As in group_columns, size * id + position sorts each row's columns
    # ascending, so the first pair is the first two columns of the repeated
    # row whose first column is smallest.
    rows, order = np.divmod(np.sort(_row_ids(S.indices[cols][:, None]) * size + np.arange(size)), size)
    starts, lengths = _runs(rows)
    repeats = starts[lengths > 1]
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


def _trial_states(seed: int, trials: int):
    """Yield each trial's two PCG64 state dicts, those of
    ``substream(derive_seed(seed, trial, c))`` for c = 0 (the map's) and
    c = 1 (the subset's).

    States are derived ``_LANES`` trials at a time by
    :func:`sketchbounds.rng.derived_states`.  Each chunk's call also derives
    the first and last trials' states, and when these differ from their real
    streams' the chunk's states are read off the real streams instead.  A
    trial index must be below 2^32, one ``SeedSequence`` word.
    """
    def real(trial):
        return tuple(substream(derive_seed(seed, trial, c)).bit_generator.state for c in (0, 1))

    ends = [real(0), real(trials - 1)]
    for start in range(0, trials, _LANES):
        chunk = range(start, min(start + _LANES, trials))
        # the guard lanes ride in the chunk's call: each call has a fixed
        # cost of about 0.5 ms, as much as a sweep of a few trials
        lanes = np.r_[0, trials - 1, chunk.start:chunk.stop]
        flat = derived_states(seed, np.repeat(lanes, 2), np.tile([0, 1], lanes.size))
        pairs = list(zip(flat[::2], flat[1::2]))
        yield from pairs[2:] if pairs[:2] == ends else map(real, chunk)


def _block_records(a: np.ndarray, subsets: np.ndarray, heavy_cut: float) -> list[TrialRecord]:
    """The records of a block of trials, one map's rows and one subset per
    row of ``a`` and ``subsets``; sorts ``a`` in place."""
    hit = np.take_along_axis(a, subsets, 1)
    hit.sort(axis=1)
    a.sort(axis=1)
    load = np.zeros(len(a), dtype=np.int64)
    starts, lengths = _runs(hit)
    np.maximum.at(load, starts // hit.shape[1], lengths)
    # only the rows hit are counted: a row of load 0 is never heavy, as the
    # cut is positive
    starts, lengths = _runs(a)
    heavy = np.bincount(starts[lengths >= heavy_cut] // a.shape[1], minlength=len(a))
    return [TrialRecord(failed=L > 1, sigma_min=0.0 if L > 1 else 1.0, sigma_max=math.sqrt(L), heavy_rows=h)
            for L, h in zip(load.tolist(), heavy.tolist())]


def ose_failure_probability(m: int, d: int, n: int, trials: int, seed: int) -> OseFailureReport:
    """Monte Carlo failure rate of one-sparse maps on coordinate subspaces.

    Each trial samples a fresh map and a uniform d-coordinate subspace, and
    fails iff the subspace distortion leaves [1/2, 2].  The selected columns'
    Gram is block diagonal, one rank-one block per hit row with the row's
    load L as eigenvalue, so sigma_min is 0 or 1, sigma_max = sqrt(max L),
    and a trial fails iff two coordinates share a row.  The per-trial
    heavy-row count (rows receiving at least n/(10m) columns) is a
    diagnostic only.

    Trial t's map is ``sample_countsketch(m, n, derive_seed(seed, t, 0))``
    and its subspace ``sample_coordinate_subspace(n, d, derive_seed(seed, t,
    1))``, but only what a trial reads is drawn: the map's rows ``a``, the
    first draw of its stream, and the subspace.  One pair of generators
    draws every trial, set to the trial's states from :func:`_trial_states`,
    so no trial makes a ``SeedSequence``.  The loads are counted a block of
    trials at a time: the block's rows ``a`` and those of its subsets are
    sorted row-wise, and each run of equal values is one row hit, its length
    the row's load.  A block holds at most ``_BUDGET`` (1 MiB) of rows, or
    one trial when a single one is larger, so a trial takes O(n) memory at
    any m: the peak is at most 5 * max(_BUDGET, 8 * n) bytes plus the
    records.  At most 2^32 trials are supported.
    """
    m, d, n = _integer(m, "row count"), _integer(d, "subspace dimension"), _integer(n, "column count")
    trials = _integer(trials, "trials")
    if trials < 1:
        raise InvalidCount(f"need trials >= 1, got {trials}")
    if trials > 2**32:
        raise TooLarge(f"at most 2^32 trials are supported, got {trials}")
    if m < 1 or not 1 <= d <= n:
        raise InvalidDimension(f"need m >= 1 and 1 <= d <= n, got m={m}, d={d}, n={n}")
    seed = check_seed(seed)
    _check_size("row count", m, 2**63, n)
    heavy_cut = n / (10.0 * m)
    block = min(trials, max(1, _BUDGET // (8 * n)))
    a, subsets = np.empty((block, n), dtype=np.int64), np.empty((block, d), dtype=np.int64)
    records = []
    rows, coords = (np.random.Generator(np.random.PCG64(0)) for _ in range(2))
    for trial, states in enumerate(_trial_states(seed, trials)):
        t = trial % block
        rows.bit_generator.state, coords.bit_generator.state = states
        a[t] = rows.integers(0, m, size=n)
        subsets[t] = coords.choice(n, size=d, replace=False)
        if t == block - 1 or trial == trials - 1:
            records += _block_records(a[:t + 1], subsets[:t + 1], heavy_cut)
    failures = sum(r.failed for r in records)
    return OseFailureReport(
        m=m, d=d, n=n, trials=trials, failures=failures, rate=failures / trials,
        records=tuple(records),
    )
