"""Exact quality measures for sparse matrices.

Everything here is deterministic given its inputs: coherence comes from the
Gram matrix of the columns, restricted isometry constants from exact
Gram-matrix eigensolves over enumerated or sampled column supports, and the
two profile measures read entry magnitudes directly off the columns.
Randomized estimation (``rip_constant_lower_estimate``) draws its supports
from one sequential seeded stream, so a longer run with the same seed extends
a shorter one and the estimate can only grow.
The supports of a chunk come from one block of the stream's 32-bit draws,
emulating ``choice`` for all of them at once (see :mod:`sketchbounds.rng`);
a chunk where a draw could have rejected is drawn again, one ``choice`` per
support, from the same place in the stream, so the supports are the ones a
per-trial loop draws.

``coherence`` multiplies 512-column slices of a dense copy.  When every
stored entry is +-c, as in every sampled family, each dot is c^2 times an
integer count (agreements minus disagreements), so the copy holds the +-1
sign pattern in float32, whose Gram is exact while m <= 2^24, and the result
is the correctly rounded float of c^2 * max |count|, independent of the BLAS.
Other matrices, and taller ones, use the float64 Gram of the values.

The restricted isometry constants stack their eigensolves: a chunk of supports
becomes one (N, k, m) array of their columns, one batched ``np.matmul`` gives
the N k-by-k Gram matrices and one ``np.linalg.eigvalsh`` their eigenvalues.
A chunk holds at most ``_CHUNK_BYTES`` (1 MiB) of stacked columns, or one
support when a single one is larger.  Its other arrays, the distinct columns
and the N Gram matrices, are no larger than the stack unless k > m, so the
memory stays bounded however many supports are scanned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyIndexSet,
    InvalidCount,
    InvalidDimension,
    InvalidSparsity,
    NonpositiveThreshold,
    NoScaleFound,
    NotNormalized,
    TooFewColumns,
    TooManySupports,
)
from .matrices import SparseMatrix, OneSparseMap, _constant_magnitude, _integer, column_norms
from .rng import choice_draws, choice_lanes, next_uint32s, substream

UNIT_NORM_TOL = 1e-9
MAX_EXACT_SUPPORTS = 10**6
# bytes of stacked support columns per eigensolve chunk
_CHUNK_BYTES = 2**20
# float32 holds every integer up to 2^24, so a +-1 Gram over at most this
# many rows is exact
_FLOAT32_EXACT_ROWS = 2**24


def check_unit_columns(A: SparseMatrix) -> None:
    """Raise :class:`NotNormalized` for the first column whose norm is off by more than UNIT_NORM_TOL."""
    norms = column_norms(A)
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
    if bad.size:
        raise NotNormalized(int(bad[0]), float(norms[bad[0]]))


def _max_off_diagonal(D: np.ndarray) -> float:
    """Largest |<d_i, d_j>| over distinct columns i, j of D, from Gram
    products of 512-column slices, so each product is O(block^2) however
    wide D is."""
    block = 512
    best = 0.0
    n = D.shape[1]
    for a in range(0, n, block):
        Da = D[:, a:a + block]
        for b in range(a, n, block):
            G = Da.T @ D[:, b:b + block]
            if a == b:
                np.fill_diagonal(G, 0.0)
            best = max(best, float(np.abs(G, out=G).max()))
    return best


def coherence(A: SparseMatrix) -> float:
    """Largest |<v_i, v_j>| over distinct unit columns of A.

    When every stored entry is +-c (every sampled family), each dot is c^2
    times an integer count, agreements minus disagreements on shared rows,
    and the result is the correctly rounded float of c^2 * max |count|,
    computed once in exact arithmetic.  The counts come from a float32 Gram
    of the +-1 sign pattern, exact while m <= 2^24 (no partial sum exceeds
    m).  Any other matrix, or m > 2^24, takes the float64 Gram of the
    values, whose last bit follows the BLAS summation order.  Either way
    the dense copy takes O(m*n) memory (4 or 8 bytes an entry).
    """
    if A.n < 2:
        raise TooFewColumns("coherence needs at least two columns")
    check_unit_columns(A)
    c = _constant_magnitude(A)
    if c is None or A.m > _FLOAT32_EXACT_ROWS:
        return _max_off_diagonal(A.to_dense())
    signs = np.zeros((A.m, A.n), dtype=np.float32)
    signs[A.indices, np.repeat(np.arange(A.n), np.diff(A.indptr))] = np.sign(A.data)
    return float(Fraction(c) ** 2 * int(_max_off_diagonal(signs)))


@dataclass(frozen=True, eq=False)
class RipEstimate:
    """Restricted isometry report for one sparsity level k.

    ``worst_direction`` is a full-length vector supported on ``worst_support``
    satisfying |A x|^2 / |x|^2 = 1 + delta or 1 - delta (whichever side
    achieved the extreme).
    """

    k: int
    delta: float
    mode: str  # "exact" or "lower_estimate"
    worst_support: tuple[int, ...]
    worst_direction: np.ndarray


def _chunk_length(A: SparseMatrix, k: int) -> int:
    """Supports per chunk: their (N, k, m) column stack fits ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // (8 * k * A.m))


def _support_deltas(A: SparseMatrix, supports: np.ndarray) -> np.ndarray:
    """delta of the Gram matrix on each row of an (N, k) array of supports,
    from one stacked matmul and one stacked eigensolve."""
    cols, inv = np.unique(supports, return_inverse=True)
    Bt = A.submatrix_dense(cols).T[inv.reshape(supports.shape)]
    w = np.linalg.eigvalsh(np.matmul(Bt, Bt.transpose(0, 2, 1)))
    return np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])


def _worst_support(A: SparseMatrix, chunks: Iterable[np.ndarray]) -> tuple[tuple[int, ...], float]:
    """The support with the largest delta over a sequence of (N, k) chunks,
    and that delta; ties keep the first support in scan order."""
    best_delta = -math.inf
    best_support: tuple[int, ...] = ()
    for supports in chunks:
        deltas = _support_deltas(A, supports)
        # a NaN delta (from a Gram that overflowed) never wins, as in a scan with >
        deltas[np.isnan(deltas)] = -math.inf
        i = int(np.argmax(deltas))  # argmax takes the first on ties
        if deltas[i] > best_delta:
            best_delta = float(deltas[i])
            best_support = tuple(int(j) for j in supports[i])
    return best_support, best_delta


def _finish_estimate(A: SparseMatrix, k: int, mode: str, support: tuple[int, ...], delta: float) -> RipEstimate:
    """Recover the achieving direction for the winning support."""
    B = A.submatrix_dense(support)
    w, V = np.linalg.eigh(B.T @ B)
    lo, hi = float(w[0]), float(w[-1])
    vec = V[:, -1] if hi - 1.0 >= 1.0 - lo else V[:, 0]
    nz = np.nonzero(vec)[0]
    if nz.size and vec[nz[0]] < 0:
        vec = -vec
    direction = np.zeros(A.n)
    direction[list(support)] = vec
    return RipEstimate(k=k, delta=delta, mode=mode, worst_support=support, worst_direction=direction)


def rip_constant_exact(A: SparseMatrix, k: int) -> RipEstimate:
    """delta_k by exhaustive enumeration of all C(n, k) column supports.

    Guarded by C(n, k) <= 10^6; the worst support is the lexicographically
    first achiever of the maximum.  The supports are solved in stacked
    chunks of at most 1 MiB of columns each (see the module docstring).
    """
    k = _integer(k, "k")
    if not 1 <= k <= A.n:
        raise InvalidDimension(f"k={k} must lie in [1, n={A.n}]")
    count = math.comb(A.n, k)
    if count > MAX_EXACT_SUPPORTS:
        raise TooManySupports(f"C({A.n}, {k}) = {count} exceeds {MAX_EXACT_SUPPORTS}")
    if k == 1:
        norms_sq = column_norms(A) ** 2
        deltas = np.maximum(norms_sq - 1.0, 1.0 - norms_sq)
        j = int(np.argmax(deltas))  # argmax takes the first on ties
        return _finish_estimate(A, k, "exact", (j,), float(deltas[j]))
    combos = itertools.combinations(range(A.n), k)
    size = _chunk_length(A, k)
    chunks = (np.fromiter(itertools.islice(combos, size), dtype=(np.intp, k))
              for _ in range(0, count, size))
    return _finish_estimate(A, k, "exact", *_worst_support(A, chunks))


def rip_constant_lower_estimate(A: SparseMatrix, k: int, trials: int, seed: int) -> RipEstimate:
    """Lower bound on delta_k from `trials` uniformly sampled supports.

    Supports come off a single sequential stream, so with a fixed seed the
    first supports of a longer run replicate a shorter run exactly and the
    estimate is monotone nondecreasing in `trials`.  They are drawn and
    solved in stacked chunks of at most 1 MiB of columns each (see the
    module docstring).  Unless the first support emulated off the stream is
    the one ``choice`` draws, every support is drawn by ``choice``.
    """
    k, trials = _integer(k, "k"), _integer(trials, "trials")
    if not 1 <= k <= A.n:
        raise InvalidDimension(f"k={k} must lie in [1, n={A.n}]")
    if trials < 1:
        raise InvalidCount(f"need trials >= 1, got {trials}")
    g = substream(seed)
    draws = choice_draws(A.n, k)
    if draws is not None and not _emulation_agrees(g, A.n, k, draws):
        draws = None
    size = _chunk_length(A, k)
    chunks = (_draw_supports(g, A.n, k, min(size, trials - start), draws) for start in range(0, trials, size))
    return _finish_estimate(A, k, "lower_estimate", *_worst_support(A, chunks))


def _draw_supports(g: np.random.Generator, n: int, k: int, count: int, draws: int | None) -> np.ndarray:
    """The next ``count`` supports off ``g``, each ``np.sort(g.choice(n, k,
    replace=False))`` in turn, as a (count, k) array.

    Each support takes ``draws`` 32-bit draws when none rejects, so the chunk
    is emulated as ``count`` lanes of one block of draws
    (:func:`sketchbounds.rng.choice_lanes`).  When a draw could have rejected,
    or ``draws`` is None, ``g`` is rewound and the supports are drawn one by
    one.
    """
    if draws is not None:
        start = g.bit_generator.state
        supports, flagged = choice_lanes(next_uint32s(g, count * draws).reshape(count, draws), n, k)
        if not flagged.any():
            return supports
        g.bit_generator.state = start
    return np.array([np.sort(g.choice(n, size=k, replace=False)) for _ in range(count)])


def _emulation_agrees(g: np.random.Generator, n: int, k: int, draws: int) -> bool:
    """Whether the next support emulated off ``g`` is the one ``g.choice``
    draws, or may have rejected and so cannot be compared; ``g`` is left
    where it was."""
    start = g.bit_generator.state
    emulated, flagged = choice_lanes(next_uint32s(g, draws).reshape(1, draws), n, k)
    g.bit_generator.state = start
    drawn = np.sort(g.choice(n, size=k, replace=False))
    g.bit_generator.state = start
    return bool(flagged[0]) or np.array_equal(emulated[0], drawn)


def subspace_distortion(A: SparseMatrix | OneSparseMap, indices: Sequence[int]) -> tuple[float, float]:
    """(smallest, largest) singular value of the selected-column submatrix."""
    indices = list(indices)
    if not indices:
        raise EmptyIndexSet("need at least one column index")
    B = A.submatrix_dense(indices)
    w = np.linalg.eigvalsh(B.T @ B)
    return math.sqrt(max(float(w[0]), 0.0)), math.sqrt(max(float(w[-1]), 0.0))


@dataclass(frozen=True)
class RowMassProfile:
    """Per-row counts of entries beyond +-sqrt(x), against the cap 5/x."""

    x: float
    per_row: tuple[tuple[int, int], ...]  # (count above sqrt(x), count below -sqrt(x))
    limit: float

    @property
    def flagged_rows(self) -> tuple[int, ...]:
        return tuple(
            r for r, (pos, neg) in enumerate(self.per_row) if pos >= self.limit or neg >= self.limit
        )

    @property
    def has_flag(self) -> bool:
        return bool(self.flagged_rows)


def row_mass_profile(A: SparseMatrix, x: float) -> RowMassProfile:
    """Count, per row, entries strictly above sqrt(x) and strictly below
    -sqrt(x); a row is flagged when either count reaches 5/x."""
    if x <= 0:
        raise NonpositiveThreshold(f"threshold x must be positive, got {x}")
    thr = math.sqrt(x)
    pos = np.bincount(A.indices[A.data > thr], minlength=A.m)
    neg = np.bincount(A.indices[A.data < -thr], minlength=A.m)
    per_row = tuple((int(p), int(q)) for p, q in zip(pos.tolist(), neg.tolist()))
    return RowMassProfile(x=float(x), per_row=per_row, limit=5.0 / x)


@dataclass(frozen=True)
class ScaleProfile:
    """The smallest dyadic scale at which a column carries enough large entries."""

    column: int
    t: int
    threshold: float
    required_count: float
    actual_count: int


def dyadic_scale_count(s: int) -> int:
    """Number of candidate scales for a column with s nonzeros: max(1, ceil(log2 s))."""
    if s < 1:
        raise InvalidSparsity(f"need s >= 1, got {s}")
    return max(1, (s - 1).bit_length())


def scale_profile(A: SparseMatrix, column: int) -> ScaleProfile:
    """Find the smallest scale t with at least 2^(-t-1) * s / t^2 entries of
    magnitude >= 2^((t-3)/2) / sqrt(s), where s is the column's nonzero count.

    Raises :class:`NoScaleFound` when no scale qualifies, which signals that
    the column-mass precondition (norm not far below 1) was violated.
    """
    rows, vals = A.column(column)
    s = int(vals.size)
    if s < 1:
        raise NoScaleFound(f"column {column} is empty")
    sq = vals * vals
    for t in range(1, dyadic_scale_count(s) + 1):
        threshold_sq = 2.0 ** (t - 3) / s
        required = 2.0 ** (-t - 1) * s / (t * t)
        actual = int(np.count_nonzero(sq >= threshold_sq))
        if actual >= required:
            return ScaleProfile(
                column=int(column),
                t=t,
                threshold=math.sqrt(threshold_sq),
                required_count=required,
                actual_count=actual,
            )
    raise NoScaleFound(
        f"column {column}: no scale in [1, {dyadic_scale_count(s)}] qualifies; "
        "column mass is too spread out"
    )
