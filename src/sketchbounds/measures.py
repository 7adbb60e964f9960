"""Exact quality measures for sparse matrices.

Everything here is deterministic given its inputs: coherence and restricted
isometry constants come from exact Gram-matrix eigensolves over enumerated or
sampled column supports, and the two profile measures read entry magnitudes
directly off the columns.  Randomized estimation (``rip_constant_lower_
estimate``) draws its supports from one sequential seeded stream, so a longer
run with the same seed extends a shorter one and the estimate can only grow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

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
from .matrices import SparseMatrix, OneSparseMap, column_norms
from .rng import substream

UNIT_NORM_TOL = 1e-9
MAX_EXACT_SUPPORTS = 10**6


def check_unit_columns(A: SparseMatrix, tol: float = UNIT_NORM_TOL) -> None:
    """Raise :class:`NotNormalized` for the first column whose norm is off."""
    norms = column_norms(A)
    for j, norm in enumerate(norms):
        if abs(norm - 1.0) > tol:
            raise NotNormalized(j, float(norm))


def coherence(A: SparseMatrix) -> float:
    """Largest |<v_i, v_j>| over distinct unit columns of A."""
    if A.n < 2:
        raise TooFewColumns("coherence needs at least two columns")
    check_unit_columns(A)
    # The dense copy takes O(m*n) memory; Gram products of 1024-column
    # slices keep each product at O(block^2) for wide matrices.
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


def _support_delta(A: SparseMatrix, support: Sequence[int]) -> tuple[float, float, float]:
    """(delta, lambda_min, lambda_max) of the Gram matrix on one support."""
    B = A.submatrix_dense(support)
    w = np.linalg.eigvalsh(B.T @ B)
    lo, hi = float(w[0]), float(w[-1])
    return max(hi - 1.0, 1.0 - lo), lo, hi


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
    first achiever of the maximum.
    """
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
    best_delta = -math.inf
    best_support: tuple[int, ...] = ()
    for support in itertools.combinations(range(A.n), k):
        delta, _, _ = _support_delta(A, support)
        if delta > best_delta:
            best_delta = delta
            best_support = support
    return _finish_estimate(A, k, "exact", best_support, best_delta)


def rip_constant_lower_estimate(A: SparseMatrix, k: int, trials: int, seed: int) -> RipEstimate:
    """Lower bound on delta_k from `trials` uniformly sampled supports.

    Supports come off a single sequential stream, so with a fixed seed the
    first supports of a longer run replicate a shorter run exactly and the
    estimate is monotone nondecreasing in `trials`.
    """
    if not 1 <= k <= A.n:
        raise InvalidDimension(f"k={k} must lie in [1, n={A.n}]")
    if trials < 1:
        raise InvalidCount(f"need trials >= 1, got {trials}")
    g = substream(seed)
    best_delta = -math.inf
    best_support: tuple[int, ...] = ()
    for _ in range(trials):
        support = tuple(int(i) for i in np.sort(g.choice(A.n, size=k, replace=False)))
        delta, _, _ = _support_delta(A, support)
        if delta > best_delta:
            best_delta = delta
            best_support = support
    return _finish_estimate(A, k, "lower_estimate", best_support, best_delta)


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
