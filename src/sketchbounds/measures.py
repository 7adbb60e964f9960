"""Exact quality measures for sparse matrices.

Everything here is deterministic given its inputs: coherence comes from the
Gram matrix of the columns, restricted isometry constants from exact
Gram-matrix eigensolves over enumerated or sampled column supports, and the
two profile measures read entry magnitudes directly off the columns.
Randomized estimation (``rip_constant_lower_estimate``) draws its supports
from one sequential seeded stream, so a longer run with the same seed extends
a shorter one and the estimate can only grow.  A chunk of N supports is one
``Generator.integers`` call with an array of bounds: the bounded draws of N
Floyd samples, each followed by the draws of the shuffle ``choice`` makes,
resolved for all N at once by :func:`sketchbounds.rng.floyd_picks`.

When every stored entry is +-c, as in every sampled family, each dot is c^2
times an integer count (agreements minus disagreements), and ``coherence``
is the correctly rounded float of c^2 * max |count| K, independent of the
BLAS.  Unit columns of +-c entries each hold the same number s of them.  Two
columns with |count| >= tau agree, or disagree, on tau shared rows, so they
share a sign pattern on tau rows, up to one global flip: the paper's
pigeonhole.  The pattern probe keys every column by its C(s, tau) such
patterns, one int64 each, sorts the keys, and counts exactly only the pairs
whose keys match, so it finds K whenever K >= tau, in O(n * C(s, tau))
memory.  It applies the pigeonhole once more, over the two row halves: a
pair with K >= 2 * tau - 1 shares tau rows inside one half, so the patterns
inside one half come first, and the rest only when those cannot vouch for K.
A level is taken only while 2 * C(s, tau) <= m, so its keys never exceed
the 4 * m * n bytes a whole float32 sign copy would take.  The sign Gram
makes no such copy, only 512-column slabs, so the probe can hold more than
the Gram it replaces (stated peaks at 256 x 10000, s = 8, tau = 3: 14.5 MiB
for the probe at most, 8.0 MiB when the patterns inside one half vouch for K
as at every benchmark seed, with about 139,000 of the 560,000 keys; 4.9 MiB
for the sign Gram).  tau is picked from
(m, n, s) alone by the predicted work.  The float32 Gram of the +-1 sign
pattern, exact while m <= 2^24, gives K instead when no level's key fits
63 bits or the probe is predicted to cost more, when the matched pairs
exceed that prediction's budget (many duplicate columns, say), or when the
probe finds K < tau at a tau >= 2; at tau = 1 its K is exact even when 0,
as every pair with a nonzero count shares a row.  Other matrices, and
taller ones, take the float64 Gram of the values.  Both Grams are
multiplied from 512-column slabs, each scattered from the CSC arrays, so
neither holds a dense copy.

The restricted isometry constants scan their supports in chunks and stack
their eigensolves.  A scan chunk holds ``_BUDGET // (64 * k)`` supports
(:func:`_scan_length`): their indices, their bounds' k accumulators and, in
the estimate, their draws take at most 64 * k bytes a support, so a chunk
stays within the memory budget (``matrices._BUDGET``, 1 MiB) however
the supports it holds are solved.  The exact scan unranks its chunks of
supports in lexicographic order, so it never holds more than a chunk of
them.  The supports a chunk solves go in solve stacks: a stack becomes one
(N, k, m) array of their columns, one batched ``np.matmul`` gives the N
k-by-k Gram matrices and one ``np.linalg.eigvalsh`` their eigenvalues.  A
stack holds at most the budget of stacked columns, or one support when a
single one is larger.  Its other arrays, the distinct columns and the N
Gram matrices, are no larger than the stack unless k > m, where the Grams
are k/m times larger (see :func:`_chunk_length`), so the memory stays
bounded however many supports are scanned.

Most supports are never solved.  By Gershgorin's theorem every eigenvalue of
a support's Gram G_S lies in some disc [G_ii - R_i, G_ii + R_i], with
R_i = sum over j in S, j != i, of |G_ij|, so delta(S) <= b(S) =
max over i in S of |G_ii - 1| + R_i, read off one n-by-n |G| of the whole
matrix by pair gathers (:func:`_pair_bounds`): each member's sum starts at
its diagonal entry and takes each pair's |G_ij| once for both members, so
a chunk gathers k(k + 1)/2 entries a support and never an (N, k, k) block.
The first chunk solves its 64 supports of largest b; from then on a support
is solved only when b(S) + margin reaches the largest delta solved so far.
The margin, 2^-30 * (1 + k * max_i G_ii) over the finite G_ii, exceeds the
rounding of both b, a k-term sum of nonnegative terms in any order, and the
stacked eigensolve wherever |G| is built (there m <= 2^21, and each error
stays below 2^-31 * k * max_i G_ii).  A support is skipped only when its
delta is strictly below one already solved, so the maximum and its first
achiever in scan order are those of the unpruned scan, bit for bit: a
support's delta does not depend on the stack it is solved in, nor the
estimate's draws on how they are chunked.  A b that is infinite or NaN (an
overflowing Gram) is never below anything, so such a support is always
solved.  |G| costs about m * n^2 multiply-adds and can save about k^2 * m
for each support scanned, so it is built only when n^2 <= k^2 * (supports
scanned): never at k = 1, nor for a few sampled supports of a wide matrix.
It is then no larger than 8 * k^2 bytes a support, and it is multiplied
from column slabs of at most ``_BUDGET`` bytes each, so no dense copy of A
is held.  Otherwise, or past m = 2^21, every b is +inf and every support is
solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .bounds import finite_real
from .errors import (
    EmptyIndexSet,
    InvalidCount,
    InvalidDimension,
    InvalidSparsity,
    NonpositiveThreshold,
    NoScaleFound,
    NotNormalized,
    TooFewColumns,
    TooLarge,
    TooManySupports,
)
from .matrices import _BUDGET, SparseMatrix, _check_addressable, _constant_magnitude, _dense, _integer, _runs, column_norms
from .rng import choice_bounds, floyd_picks, substream

UNIT_NORM_TOL = 1e-9
MAX_EXACT_SUPPORTS = 10**6
# supports the first chunk solves before any is pruned, those of largest bound
_SEED_SOLVES = 64
# float32 holds every integer up to 2^24, so a +-1 Gram over at most this
# many rows is exact
_FLOAT32_EXACT_ROWS = 2**24
# the sign Gram's multiply-adds that take about as long as one pattern-probe
# key: on a 2-core x86 VM at 256 x 10000, about 37 ns a key against 0.017 ns
# a multiply-add of the float32 BLAS Gram
_MADDS_PER_KEY = 2000


def check_unit_columns(A: SparseMatrix) -> None:
    """Raise :class:`NotNormalized` for the first column whose norm is off by more than UNIT_NORM_TOL."""
    norms = column_norms(A)
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
    if bad.size:
        raise NotNormalized(int(bad[0]), float(norms[bad[0]]))


def _max_off_diagonal(A: SparseMatrix, values: np.ndarray) -> float:
    """Largest |<d_i, d_j>| over distinct columns i, j of the dense matrix D
    that holds `values` in place of ``A.data``, from Gram products of
    512-column slabs of D, each scattered by :func:`matrices._dense`, so each
    product is O(block^2) and no dense copy of D is held however wide it is."""
    block = 512
    best = 0.0
    n = A.n

    def slab(lo):  # the dense columns [lo, lo + block) of D
        return _dense(A, np.arange(lo, min(lo + block, n)), values)

    for a in range(0, n, block):
        Da = slab(a)
        for b in range(a, n, block):
            G = Da.T @ (Da if a == b else slab(b))
            if a == b:
                np.fill_diagonal(G, 0.0)
            best = max(best, float(np.abs(G, out=G).max()))
    return best


def _key_bits(m: int, n: int, tau: int) -> int:
    """Bits of a pattern-probe key: tau rows, tau - 1 relative signs, a column."""
    return tau * (m - 1).bit_length() + tau - 1 + (n - 1).bit_length()


def _probe_level(m: int, n: int, s: int) -> tuple[int, int] | None:
    """(tau, budget) for the pattern probe on m-by-n columns of s entries
    +-c, or None when the sign Gram is predicted to be cheaper.

    The budget is the Gram's m * n * (n - 1) / 2 multiply-adds in keys'
    worth of work.  tau in [1, s] minimizes the predicted work for
    independent uniform columns: n * C(s, tau) keys, plus the expected
    candidate pairs E = C(n, 2) * C(s, tau)^2 / (2^(tau-1) * C(m, tau)),
    plus, when tau >= 2, the budget times exp(-E), about the chance that no
    pair reaches |count| >= tau and the Gram runs after all.  A level whose
    key needs more than 63 bits, or whose keys would take more than the
    4 * m * n bytes of a whole float32 sign copy (8 * C(s, tau) > 4 * m),
    is passed over.  The cap bounds the keys, not the Gram, which holds
    only 512-column slabs; it decides which path runs.
    """
    budget = m * n * (n - 1) // (2 * _MADDS_PER_KEY)
    best = None
    # every row takes at least one bit, so no key of 63 bits has tau > 32
    for tau in range(1, min(s, 32) + 1):
        subsets = math.comb(s, tau)
        if _key_bits(m, n, tau) > 63 or 2 * subsets > m:
            continue
        pairs = math.comb(n, 2) * subsets**2 / (2 ** (tau - 1) * math.comb(m, tau))
        # at tau = 1 the probe is exact whatever it finds
        work = n * subsets + pairs + (budget * math.exp(-pairs) if tau > 1 else 0)
        if work <= budget and (best is None or work < best[0]):
            best = (work, tau)
    return None if best is None else (best[1], budget)


def _max_abs_count(codes: np.ndarray, i: np.ndarray, j: np.ndarray) -> int:
    """max |count| over the column pairs (i[p], j[p]), from rows of `codes`
    that hold each column's 2 * row + (1 if negative) in ascending order."""
    both = codes[np.stack((i, j), axis=1)].reshape(i.size, -1)
    both.sort(axis=1)
    agree = both[:, 1:] == both[:, :-1]
    both >>= 1
    # each row appears at most once per column, so equal neighbours are shared rows
    shared = both[:, 1:] == both[:, :-1]
    return int(np.abs(2 * agree.sum(axis=1) - shared.sum(axis=1)).max())


def _subset_keys(codes, subsets, groups, row_bits, col_bits):
    """The int64 keys of row subsets of columns of +-c entries, whose (n, s)
    `codes` hold 2 * row + (1 if negative): for each (lo, hi, mask) of
    `groups`, the columns [lo, hi) key the rows of `subsets` (tau entry
    positions each) where the mask holds.  A key holds the rows, each later
    sign relative to the first, and the column in the low bits; a chunk of
    at most ``_BUDGET // 8`` keys (or one column's) is built at a time."""
    keys = np.empty(sum((hi - lo) * np.count_nonzero(mask) for lo, hi, mask in groups), dtype=np.int64)
    done = 0
    for lo, hi, mask in groups:
        sub = subsets[mask]
        if not sub.size:
            continue
        step = max(1, _BUDGET // 8 // len(sub))
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            key = codes[a:b, sub[:, 0]]
            first = key & 1
            key >>= 1
            for t in range(1, sub.shape[1]):
                code = codes[a:b, sub[:, t]]
                code ^= first
                key <<= row_bits + 1
                key |= code
            key <<= col_bits
            key |= np.arange(a, b)[:, None]
            keys[done:done + key.size] = key.ravel()
            done += key.size
    return keys


def _matched_max_count(keys, codes, col_bits, budget):
    """(max |count| over the column pairs whose keys share a pattern, the
    keys and pairs that took), with None in place of the count when they
    exceed `budget`.  The keys are sorted in place; links join neighbouring
    keys of one pattern, and each run of consecutive links (:func:`_runs`)
    is a group, whose pairs' counts are taken exactly a chunk at a time."""
    chunk = _BUDGET // 8  # entries
    keys.sort()
    # key p and key p + 1 share a pattern for each p in linked
    linked = [np.empty(0, dtype=np.int64)]
    for a in range(0, keys.size - 1, chunk):
        b = min(a + chunk, keys.size - 1)
        diff = keys[a + 1:b + 1] ^ keys[a:b]
        diff >>= col_bits
        linked.append(np.flatnonzero(diff == 0) + a)
    linked = np.concatenate(linked)
    if not linked.size:
        return 0, keys.size
    # g - 1 consecutive links, one run of linked - position, join g keys
    firsts, sizes = _runs(linked - np.arange(linked.size))
    starts, sizes = linked[firsts], sizes + 1
    work = keys.size + int((sizes * (sizes - 1) // 2).sum())
    if work > budget:
        return None, work
    keys &= (1 << col_bits) - 1
    step = max(1, chunk // (2 * codes.shape[1]))
    best = 0
    # each group member pairs with the member d places later, for d = 1, 2, ...
    members = np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    left = np.repeat(starts + sizes - 1, sizes) - members
    for d in itertools.count(1):
        keep = left >= d
        members, left = members[keep], left[keep]
        if not members.size:
            break
        for a in range(0, members.size, step):
            at = members[a:a + step]
            best = max(best, _max_abs_count(codes, keys[at], keys[at + d]))
    return best, work


def _pattern_max_count(A: SparseMatrix, s: int, tau: int, budget: float) -> int | None:
    """Largest |count| over the column pairs of A that share a sign pattern
    on tau rows, or None when those pairs and the keys exceed `budget`.

    Every column of A holds s entries +-c.  A pair with |count| >= tau agrees
    (or disagrees) on tau shared rows, so it shares the pattern of those
    rows: the result is the exact max |count| when it reaches tau, and below
    tau exactly when the max |count| is.  Each of a column's C(s, tau) row
    subsets becomes an int64 key (:func:`_subset_keys`), and the pairs whose
    keys match are counted exactly (:func:`_matched_max_count`).

    The pigeonhole again, over the row halves [0, m // 2) and [m // 2, m):
    a pair with |count| >= 2 * tau - 1 has that many shared rows of one kind,
    so one half holds tau of them.  Phase 1 keys only the subsets that lie
    inside one half; its max K1 <= K, and K >= 2 * tau - 1 forces K1 = K, so
    K1 is K whenever K1 >= 2 * tau - 2.  Otherwise phase 2 keys the subsets
    that cross the halves, and the result is the larger of the two: the two
    phases key every subset once, and their keys and pairs are charged to
    the one budget.  The split runs only where tau >= 2 and 2 * tau - 2 < s:
    at tau = 1 every subset lies in one half, and at 2 * tau - 2 >= s only a
    duplicate column could vouch.  Elsewhere one phase keys every subset.

    A phase's keys take 8 bytes each, its links and groups at most as many,
    and every other array at most ``_BUDGET // 8`` entries (or one column's
    C(s, tau) keys); phase 2 builds its keys after phase 1's are freed.
    Peak memory: at most 4 * _BUDGET plus twice the keys of the phase with
    more, plus 20 bytes an entry and 40 a column.
    """
    n = A.n
    row_bits, col_bits = (A.m - 1).bit_length(), (n - 1).bit_length()
    if _key_bits(A.m, n, tau) > 63:
        raise TooLarge(f"a tau={tau} key of {A.m}-by-{n} columns needs more than 63 bits")
    codes = A.indices.reshape(n, s) * 2 + (A.data < 0).reshape(n, s)
    subsets = np.array(list(itertools.combinations(range(s), tau)))
    phases = [[(0, n, np.ones(len(subsets), dtype=bool))]]
    if tau > 1 and 2 * tau - 2 < s:
        # the columns, radix sorted by their v entries below m // 2 (no count
        # depends on their order): their subsets of positions that end below
        # v or start at v lie in one half.  (A sum down s contiguous rows of
        # n is several times faster than one along each short row.)
        below = np.ascontiguousarray((codes < 2 * (A.m // 2)).T).sum(axis=0)
        codes = codes[np.argsort(below.astype(np.min_scalar_type(s)), kind="stable")]
        sizes = np.bincount(below, minlength=s + 1)
        groups = [(hi - size, hi, (subsets[:, -1] < v) | (subsets[:, 0] >= v))
                  for v, (size, hi) in enumerate(zip(sizes, np.cumsum(sizes))) if size]
        phases = [groups, [(lo, hi, ~inside) for lo, hi, inside in groups]]
    spent, best = 0, 0
    for phase in phases:
        found, work = _matched_max_count(_subset_keys(codes, subsets, phase, row_bits, col_bits),
                                         codes, col_bits, budget - spent)
        if found is None:
            return None
        spent, best = spent + work, max(best, found)
        if best >= 2 * tau - 2:  # phase 1 vouches for K
            break
    return best


def coherence(A: SparseMatrix) -> float:
    """Largest |<v_i, v_j>| over distinct unit columns of A.

    When every stored entry is +-c (every sampled family), each dot is c^2
    times an integer count, agreements minus disagreements on shared rows,
    and the result is the correctly rounded float of c^2 * max |count|,
    computed once in exact arithmetic.  Unit columns of +-c entries all hold
    the same number s of them.  The max |count| K comes from the pattern
    probe (:func:`_pattern_max_count`) at the level tau that
    :func:`_probe_level` picks from (m, n, s): only column pairs sharing a
    sign pattern on tau rows are counted, in O(n * C(s, tau)) memory: keys
    of at most the 4 * m * n bytes a whole float32 sign copy would take,
    which can be more than the Gram of slabs holds.  The float32 Gram of the
    +-1 sign pattern, exact while m <= 2^24 (no partial sum exceeds m),
    gives K instead when no level's key fits 63 bits, when the probe is
    predicted to cost more than the Gram, when the candidate pairs turn out
    to (duplicate columns, say), or when the probe finds K < tau at a
    tau >= 2.  At tau = 1 every pair with a
    nonzero count shares a row, so the probe is exact even when it finds 0.
    Any other matrix, or m > 2^24, takes the float64 Gram of the values,
    whose last bit follows the BLAS summation order.  Both Grams are
    multiplied from 512-column slabs (:func:`_max_off_diagonal`), so they
    hold two slabs and two 512 x 512 products, never a dense copy of A.
    """
    if A.n < 2:
        raise TooFewColumns("coherence needs at least two columns")
    check_unit_columns(A)
    c = _constant_magnitude(A)
    if c is None or A.m > _FLOAT32_EXACT_ROWS:
        return _max_off_diagonal(A, A.data)
    # a column of s1 < s2 <= 2^24 entries +-c would put a norm ratio of at
    # least 1 + 2^-25 between them, past UNIT_NORM_TOL: every column has s
    s = A.nnz // A.n
    level = _probe_level(A.m, A.n, s)
    K = None if level is None else _pattern_max_count(A, s, *level)
    if K is None or (level[0] > 1 and K < level[0]):
        K = int(_max_off_diagonal(A, np.sign(A.data).astype(np.float32)))
    return float(Fraction(c) ** 2 * K)


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
    """Supports per solve stack: their (N, k, m) column stack fits
    ``_BUDGET``, or N = 1 when one support's 8 * k * m bytes do not.

    The N k-by-k Grams take k/m times the stack, so a scan peaks at about
    2 * max(_BUDGET, 8 * k * m) * max(1, k/m), its scan chunk's arrays
    (:func:`_scan_length`) included, plus |G| where it is built (8 * n^2
    bytes) and 20 bytes an entry and 40 a column of A.  A stack never holds
    more supports than its scan chunk, which bounds the Grams where k > m:
    a 2 x 400 matrix at k = 128 scans 128 supports at a time, whose Grams
    take 16 MiB, and its estimate peaks at 18 MiB.
    """
    return max(1, _BUDGET // (8 * k * A.m))


def _scan_length(k: int) -> int:
    """Supports per scan chunk, whatever the stacks it is solved in: a
    support's k indices, its bound's k accumulators and the bound's pair
    gathers, or in the estimate its 2k - 1 draws and their picks, take at
    most 64 * k bytes, so a chunk's own arrays stay within ``_BUDGET``."""
    return max(1, _BUDGET // (64 * k))


def _support_deltas(A: SparseMatrix, supports: np.ndarray) -> np.ndarray:
    """delta of the Gram matrix on each row of an (N, k) array of supports,
    from one stacked matmul and one stacked eigensolve; a support's delta
    has the same bits whatever chunk it is solved in."""
    cols, inv = np.unique(supports, return_inverse=True)
    Bt = A.submatrix_dense(cols).T[inv.reshape(supports.shape)]
    # a Gram that overflows gives an infinite or NaN delta, which the
    # callers refuse, so it need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.linalg.eigvalsh(np.matmul(Bt, Bt.transpose(0, 2, 1)))
        deltas = np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])
    # a NaN delta comes from a Gram that overflowed, so its true delta is huge
    deltas[np.isnan(deltas)] = math.inf
    return deltas


def _abs_gram(A: SparseMatrix, k: int) -> tuple[np.ndarray, float]:
    """(H, margin): the n-by-n H holds |G_ij| off the diagonal and
    |G_ii - 1| on it, for the Gram G of A multiplied from column slabs of at
    most ``_BUDGET`` bytes, and the margin is 2^-30 * (1 + k * max_i G_ii)
    over the finite G_ii (see the module docstring)."""
    m, n = A.m, A.n
    width = max(1, _BUDGET // (8 * m))

    def slab(lo):  # the dense columns [lo, lo + width) of A
        return _dense(A, np.arange(lo, min(lo + width, n)), A.data)

    G = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, n, width):
            Da = slab(a)
            np.matmul(Da.T, Da, out=G[a:a + width, a:a + width])
            for b in range(a + width, n, width):
                block = np.matmul(Da.T, slab(b), out=G[a:a + width, b:b + width])
                G[b:b + width, a:a + width] = block.T
    diagonal = G.diagonal().copy()
    H = np.abs(G, out=G)
    np.fill_diagonal(H, np.abs(diagonal - 1.0))
    return H, 2.0**-30 * (1.0 + k * diagonal[np.isfinite(diagonal)].max(initial=0.0))


def _pair_bounds(H: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """b(S), the largest row sum of H on S, for each row of an (N, k) array
    of supports, from pair gathers: each member's sum starts at its diagonal
    entry, and each pair's entry H[S_i, S_j], i < j, is gathered once and
    added to both members' sums, member i's pairs in one (k - 1 - i, N)
    gather, so no (N, k, k) block is built."""
    cols = np.ascontiguousarray(supports.T)
    sums = H.diagonal()[cols]
    flat = H.reshape(-1)
    for i in range(len(cols) - 1):
        pairs = flat[cols[i] * len(H) + cols[i + 1:]]
        sums[i] += pairs.sum(axis=0)
        sums[i + 1:] += pairs
    return np.maximum.reduce(sums)


def _gershgorin(A: SparseMatrix, k: int, count: int):
    """A function from an (N, k) array of supports to their Gershgorin bounds
    plus the rounding margin (see the module docstring), each at least the
    support's delta; every bound is +inf when m > 2^21 or when |G| would cost
    more than solving the ``count`` supports scanned saves."""
    if A.m > 2**21 or A.n * A.n > k * k * count:
        return lambda supports: np.full(len(supports), math.inf)
    H, margin = _abs_gram(A, k)
    return lambda supports: _pair_bounds(H, supports) + margin


def _worst_support(A: SparseMatrix, k: int, count: int,
                   chunks: Iterable[np.ndarray]) -> tuple[tuple[int, ...], float]:
    """The support with the largest delta over a sequence of (N, k) scan
    chunks holding ``count`` supports, and that delta; ties keep the first
    support in scan order.  A NaN delta counts as +inf.  Only the supports
    whose Gershgorin bound reaches the largest delta solved so far are
    solved, in stacks of at most :func:`_chunk_length` supports (see the
    module docstring)."""
    bound = _gershgorin(A, k, count)
    step = _chunk_length(A, k)

    def solve(supports, at, deltas):  # deltas[at], a solve stack at a time
        for lo in range(0, at.size, step):
            part = at[lo:lo + step]
            deltas[part] = _support_deltas(A, supports[part])

    best_delta = -math.inf
    best_support: tuple[int, ...] = ()
    for supports in chunks:
        b = bound(supports)
        deltas = np.full(len(supports), -math.inf)
        todo = np.ones(len(supports), dtype=bool)
        if best_delta == -math.inf:
            # the first chunk's largest bounds set the floor the rest is held to
            first = np.argsort(-b)[:_SEED_SOLVES]
            solve(supports, first, deltas)
            todo[first] = False
        # b < floor is False for a NaN b, so such a support is solved
        todo &= ~(b < max(best_delta, deltas.max()))
        solve(supports, np.flatnonzero(todo), deltas)
        i = int(np.argmax(deltas))  # argmax takes the first on ties
        if deltas[i] > best_delta:
            best_delta = float(deltas[i])
            best_support = tuple(int(j) for j in supports[i])
    return best_support, best_delta


def _finish_estimate(A: SparseMatrix, k: int, mode: str, support: tuple[int, ...], delta: float) -> RipEstimate:
    """Recover the achieving direction for the winning support; refuse an
    infinite delta, which some support's overflowing Gram gives."""
    if not math.isfinite(delta):
        raise TooLarge(f"the Gram matrices of the k={k} supports overflow float64")
    B = A.submatrix_dense(support)
    with np.errstate(over="ignore", invalid="ignore"):
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
    first achiever of the maximum.  The supports are unranked in
    lexicographic order and scanned in chunks of :func:`_scan_length`
    supports, and solved in stacks of at most 1 MiB (the memory budget) of
    stacked columns each; :func:`_chunk_length` states the peak.
    A support is solved only when its Gershgorin bound b(S)
    = max_i |G_ii - 1| + sum_{j != i} |G_ij|, plus the margin
    2^-30 * (1 + k * max_i G_ii), reaches the largest delta already solved
    (the first chunk solves its 64 largest b first), so every achiever of
    the maximum is solved and the result is that of solving every support,
    bit for bit.  Where n^2 > k^2 * C(n, k), as at k = 1 for n > 1, or past
    m = 2^21, no bound is built and every support is solved (see the module
    docstring).  k = 1 solves its 1-by-1 Grams like every other k, so the
    sampled estimate at the same k never exceeds it.
    """
    k = _integer(k, "k")
    if not 1 <= k <= A.n:
        raise InvalidDimension(f"k={k} must lie in [1, n={A.n}]")
    count = math.comb(A.n, k)
    if count > MAX_EXACT_SUPPORTS:
        raise TooManySupports(f"C({A.n}, {k}) = {count} exceeds {MAX_EXACT_SUPPORTS}")
    supports = _lex_supports(A.n, k, _scan_length(k))
    return _finish_estimate(A, k, "exact", *_worst_support(A, k, count, supports))


def rip_constant_lower_estimate(A: SparseMatrix, k: int, trials: int, seed: int) -> RipEstimate:
    """Lower bound on delta_k from `trials` uniformly sampled supports.

    Supports come off a single sequential stream, so with a fixed seed the
    first supports of a longer run replicate a shorter run exactly and the
    estimate is monotone nondecreasing in `trials`.  They are drawn and
    scanned in chunks of :func:`_scan_length` supports, solved in stacks of
    at most 1 MiB (the memory budget) of stacked columns each
    (:func:`_chunk_length` states the peak), and pruned as in
    :func:`rip_constant_exact`: a support is solved only when its
    Gershgorin bound plus the margin reaches the largest delta already
    solved, so the result is the first drawn achiever, as if every support
    were solved (see the module docstring).  Each support is the one
    ``np.sort(g.choice(A.n, k, replace=False))`` draws wherever ``choice``
    runs Floyd's algorithm, which is every shape but n > 10000 with
    k > n // 50; there it is still a uniform k-subset, by Floyd's algorithm
    over the same stream.
    """
    k, trials = _integer(k, "k"), _integer(trials, "trials")
    if not 1 <= k <= A.n:
        raise InvalidDimension(f"k={k} must lie in [1, n={A.n}]")
    if trials < 1:
        raise InvalidCount(f"need trials >= 1, got {trials}")
    g = substream(seed)
    size = _scan_length(k)
    chunks = (_draw_supports(g, A.n, k, min(size, trials - start)) for start in range(0, trials, size))
    return _finish_estimate(A, k, "lower_estimate", *_worst_support(A, k, trials, chunks))


def _lex_supports(n: int, k: int, size: int) -> Iterator[np.ndarray]:
    """The k-subsets of [0, n) in lexicographic order, as (size, k) arrays
    (the last one shorter).

    The support c of lexicographic rank r has combinatorial number
    sum_i C(n - 1 - c_i, k - i) = C(n, k) - 1 - r, so each chunk is
    unranked at once: position i takes the largest x with C(x, k - i) at
    most what is left of the number, and c_i = n - 1 - x.  The tables hold
    C(x, j) from x = j - 1 (where it is 0) up to the last x at which it
    stays below C(n, k); C(x, 1) = x needs none.
    """
    count = math.comb(n, k)
    tables = {}
    for j in range(2, k + 1):
        table, x, value = [0], j, 1
        while value < count:
            table.append(value)
            x += 1
            value = value * x // (x - j)
        tables[j] = np.array(table, dtype=np.int64)
    for start in range(0, count, size):
        left = np.arange(count - 1 - start, max(count - 1 - start - size, -1), -1, dtype=np.int64)
        supports = np.empty((left.size, k), dtype=np.intp)
        for i in range(k - 1):
            table = tables[k - i]
            at = np.searchsorted(table, left, side="right") - 1  # x = at + k - i - 1
            supports[:, i] = n - (k - i) - at
            left -= table[at]
        supports[:, -1] = n - 1 - left
        yield supports


def _draw_supports(g: np.random.Generator, n: int, k: int, count: int) -> np.ndarray:
    """The next ``count`` sorted k-subsets of [0, n) off ``g``, as a
    (count, k) array.

    Each support takes the 2k - 1 draws ``choice`` makes on Floyd's path, below
    :func:`sketchbounds.rng.choice_bounds`.  Only the first k, Floyd's steps,
    pick; the shuffle draws are taken so that each support uses the stretch
    of the stream that ``choice`` would.
    """
    return floyd_picks(g.integers(0, choice_bounds(n, k), size=(count, 2 * k - 1))[:, :k], n)


def subspace_distortion(A: SparseMatrix, indices: Iterable[int]) -> tuple[float, float]:
    """(smallest, largest) singular value of the selected-column submatrix."""
    B = A.submatrix_dense(indices)
    if not B.shape[1]:
        raise EmptyIndexSet("need at least one column index")
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
    -sqrt(x); a row is flagged when either count reaches 5/x.  An x that is
    not a positive real number with a finite 5/x is refused."""
    limit = 5.0 / float(x) if finite_real(x) and float(x) > 0 else math.inf
    if limit == math.inf:
        raise NonpositiveThreshold(f"threshold x must be a positive number with 5/x finite, got {x!r}")
    thr = math.sqrt(x)
    _check_addressable((A.m,))
    pos = np.bincount(A.indices[A.data > thr], minlength=A.m)
    neg = np.bincount(A.indices[A.data < -thr], minlength=A.m)
    per_row = tuple((int(p), int(q)) for p, q in zip(pos.tolist(), neg.tolist()))
    return RowMassProfile(x=float(x), per_row=per_row, limit=limit)


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
    s = _integer(s, "s")
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
