"""Constructions: q-ary codes and the sparse matrix families built from them.

Three sampler families produce sketching matrices:

* ``sample_sparse_sign_jl`` — s nonzeros per column, values +-1/sqrt(s), rows
  drawn uniformly without replacement;
* ``sample_osnap_block`` — s nonzeros per column, one per contiguous block of
  m/s rows;
* ``sample_countsketch`` — exactly one +-1 per column, as a
  :class:`~sketchbounds.matrices.OneSparseMap`.

Deterministic constructions turn a low-agreement code into a matrix with
low pairwise column coherence (``code_to_incoherent``) and into a family of
flat k/2-sparse unit vectors (``spread_vectors``): one embedding, two values.

Every sampler is a pure function of its parameters plus a 64-bit seed.  In
the two sign samplers column j is what its own stream ``substream(seed, j)``
gives (see :mod:`sketchbounds.rng`), but the columns are computed as lanes,
as many at a time as the memory budget holds and at least ``rng._LANES``
(``rng.lane_count``), from an emulation of those streams in numpy array
operations, not one ``Generator`` per column.  Each sampler names its row
draws once, as the bounds numpy draws below (``choice``'s Floyd draws, or one
draw per block), plus a pick that turns the drawn values into rows.  A lane
falls back to its real stream when one of its draws could have rejected;
every column does when numpy samples the shape another way, or when a guard
finds the first or last emulated column different from its stream.  So the
output is the same bytes either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    Exhausted,
    IndexOutOfRange,
    InvalidCount,
    InvalidDimension,
    InvalidEntry,
    InvalidEps,
    InvalidSparsity,
    MalformedArtifact,
    NotDivisible,
    ShapeMismatch,
    TooFewWords,
    TooLarge,
    UnknownKind,
)
from .matrices import _BUDGET, SparseMatrix, OneSparseMap, _array, _dense, _integer, _parse, _read_text, canonical_json
from .rng import bounded, check_seed, choice_bounds, choice_is_floyd, floyd_picks, lane_count, lane_draws, substream


class Code:
    """A q-ary block code: N distinct words of length t over alphabet {0..q-1}."""

    __slots__ = ("q", "t", "words")

    def __init__(self, q: int, t: int, words: Sequence[Sequence[int]]):
        q, t = _integer(q, "alphabet size"), _integer(t, "block length")
        if q < 2:
            raise InvalidDimension(f"alphabet size must be >= 2, got {q}")
        if t < 1:
            raise InvalidDimension(f"block length must be >= 1, got {t}")
        arr = _array(words, "iu", "codeword symbols must be integers").astype(np.int64)
        if arr.ndim != 2 or arr.shape[1] != t:
            raise ShapeMismatch(f"words must form an N x {t} array")
        if arr.shape[0] < 1:
            raise InvalidDimension("a code needs at least one word")
        if arr.size and (arr.min() < 0 or arr.max() >= q):
            raise InvalidEntry(f"symbols must lie in [0, {q})")
        seen = set(map(tuple, arr.tolist()))
        if len(seen) != arr.shape[0]:
            raise InvalidEntry("codewords must be distinct")
        arr.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "words", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Code is immutable")

    @property
    def size(self) -> int:
        return int(self.words.shape[0])

    def __eq__(self, other):
        if not isinstance(other, Code):
            return NotImplemented
        return (self.q, self.t) == (other.q, other.t) and np.array_equal(self.words, other.words)

    def __hash__(self):
        return hash((self.q, self.t, self.size))

    def __repr__(self):
        return f"Code(q={self.q}, t={self.t}, size={self.size})"


def code_to_json(c: Code) -> str:
    return canonical_json({"q": c.q, "t": c.t, "words": c.words.tolist()})


def code_from_json(text: str) -> Code:
    obj = _parse(text, "code")
    if not isinstance(obj, dict) or not {"q", "t", "words"} <= set(obj):
        raise MalformedArtifact("code JSON must be an object with keys q, t, words")
    return Code(obj["q"], obj["t"], obj["words"])


def save_code(c: Code, path) -> None:
    with open(path, "w") as fh:
        fh.write(code_to_json(c))


def load_code(path) -> Code:
    return code_from_json(_read_text(path))


def random_code(q: int, t: int, N: int, eps: float, seed: int, max_attempts: int = 1000) -> Code:
    """Sample N words i.i.d. uniform, rejecting whole words that agree with an
    accepted word in more than floor(eps * t) positions.

    Duplicates are always rejected, keeping codewords distinct even when
    eps = 1 makes the agreement cap vacuous.  Raises :class:`Exhausted` if
    some word cannot be placed within ``max_attempts`` candidate draws.
    """
    q, t, N = _integer(q, "alphabet size"), _integer(t, "block length"), _integer(N, "word count")
    max_attempts = _integer(max_attempts, "max_attempts")
    if isinstance(eps, bool) or not isinstance(eps, (int, float, np.integer, np.floating)):
        raise InvalidEps(f"eps must be a number, got {eps!r}")
    if not 0 < eps <= 1:
        raise InvalidEps(f"eps must lie in (0, 1], got {eps}")
    if N < 1:
        raise InvalidCount(f"need at least one word, got N={N}")
    if max_attempts < 1:
        raise InvalidCount("max_attempts must be positive")
    if q < 2:
        raise InvalidDimension(f"alphabet size must be >= 2, got {q}")
    if t < 1:
        raise InvalidDimension(f"block length must be >= 1, got {t}")
    _check_size("alphabet size", q, 2**63, N * t)
    cap = math.floor(eps * t)
    g = substream(seed)
    accepted = np.empty((N, t), dtype=np.int64)
    count = 0
    while count < N:
        for attempt in range(max_attempts):
            candidate = g.integers(0, q, size=t)
            if count:
                agreements = (accepted[:count] == candidate).sum(axis=1)
                if agreements.max() > cap or agreements.max() == t:
                    continue
            accepted[count] = candidate
            break
        else:
            raise Exhausted(
                f"could not place word {count} within {max_attempts} attempts "
                f"(q={q}, t={t}, eps={eps})"
            )
        count += 1
    return Code(q, t, accepted)


def code_max_agreement(c: Code) -> int:
    """Largest number of agreeing positions over all pairs of codewords."""
    if c.size < 2:
        raise TooFewWords("pairwise agreement needs at least two words")
    words = c.words
    best = 0
    for i in range(c.size - 1):
        agree = (words[i + 1 :] == words[i]).sum(axis=1)
        best = max(best, int(agree.max()))
    return best


def code_to_incoherent(c: Code) -> SparseMatrix:
    """Embed each word as a unit column: chunk j of q rows carries 1/sqrt(t)
    at offset equal to the word's j-th symbol.

    The result has q*t rows, one column per word, and pairwise column dot
    products equal to (number of agreeing positions) / t.
    """
    indices = (np.arange(c.t) * c.q + c.words).ravel()
    data = np.full(indices.size, 1.0 / math.sqrt(c.t))
    return SparseMatrix.from_csc(c.q * c.t, c.size, np.arange(c.size + 1) * c.t, indices, data)


# --- random matrix samplers ---------------------------------------------------

# Generator.integers draws int64 below at most 2^63, and Generator.choice
# needs its population to fit an int64.  Sampled entries, and so column
# indices (one 32-bit spawn-key word each), are capped at 2^32.
_MAX_ENTRIES = 2**32


def _check_size(what: str, value: int, limit: int, entries: int) -> None:
    """Refuse a range numpy cannot draw from, or more entries than the cap."""
    if value > limit:
        raise TooLarge(f"{what} must be at most {limit}, got {value}")
    if entries > _MAX_ENTRIES:
        raise TooLarge(f"at most 2^32 sampled entries are supported, got {entries}")


def _check_columns(m: int, n: int, s: int) -> None:
    if n < 1:
        raise InvalidDimension(f"need n >= 1 columns, got {n}")
    _check_size("row count", m, 2**63 - 1, n * s)


def _column(seed: int, j: int, s: int, draw_rows) -> tuple[np.ndarray, np.ndarray]:
    """Column j off its own stream: its sorted rows, then its s signs as 0/1."""
    g = substream(seed, j)
    return draw_rows(g), g.integers(0, 2, size=s)


def _emulation_agrees(seed: int, j: int, s: int, draw_rows, rows: np.ndarray, signs: np.ndarray) -> bool:
    """Whether lane j's rows and signs are what substream(seed, j) gives."""
    want_rows, want_signs = _column(seed, j, s, draw_rows)
    return np.array_equal(rows[j], want_rows) and np.array_equal(signs[j], want_signs)


def _sample_sign_columns(m: int, n: int, s: int, seed: int, draw_rows, highs, pick) -> SparseMatrix:
    """s entries of +-1/sqrt(s) per column.  Column j is what its own stream
    substream(seed, j) gives: first its sorted rows, ``draw_rows(g)``, then
    its s signs, ``g.integers(0, 2, size=s)``.

    ``draw_rows`` makes one draw below each bound of ``highs`` in turn, a
    bound of 1 drawing nothing and giving 0, and ``pick`` turns the
    (lanes, len(highs)) array of those values into sorted rows: for sign JL
    :func:`sketchbounds.rng.floyd_picks`, one row-wise sort of packed
    (value, step) keys and one pass over the s steps.  The columns
    are lanes, computed from their first 32-bit draws
    (:func:`sketchbounds.rng.lane_draws`): Lemire's draws below the bounds,
    with a flag for lanes where one could have rejected, and then the signs,
    ``u >> 31``, which never reject.  Flagged lanes are drawn from
    ``substream`` in a loop; so is every column when ``highs`` is None
    (numpy samples that shape another way) or reaches 2^32 (numpy's other
    draws), or when the first or last emulated column differs from its
    stream.

    A call takes ``rng.lane_count(words)`` lanes, where a lane draws words
    = (bounds above 1) + s: as many lanes as ``matrices._BUDGET`` holds,
    and ``rng._LANES`` from s = 43 on for sign JL (3s - 1 words) and from
    s = 64 for blocks (2s).  A lane's draws depend only on its column, so
    the chunks change no byte.  Peak memory: at most 4 * max(_BUDGET, 8 *
    _LANES * words) bytes for a call's lanes, plus 20 bytes an entry and 40
    a column for the output and its checks; 5.0 MiB all told for sign JL at
    256 x 10000, s = 8, where 1,024 lanes a call took 2.0 MiB.
    """
    seed = check_seed(seed)
    rows = np.empty((n, s), dtype=np.int64)
    data = np.empty((n, s))
    loop = np.ones(n, dtype=bool)
    if highs is not None and highs.max() < 2**32:
        drawn = highs > 1
        count = int(drawn.sum())
        step = lane_count(count + s)
        for start in range(0, n, step):
            lanes = slice(start, min(start + step, n))
            words = lane_draws(seed, np.arange(lanes.start, lanes.stop), count + s)
            vals = np.zeros((words.shape[0], highs.size), dtype=np.int64)
            vals[:, drawn], reject = bounded(words[:, :count], highs[drawn])
            rows[lanes], loop[lanes] = pick(vals), reject.any(axis=1)
            data[lanes] = words[:, count:] >> np.uint64(31)
        emulated = np.flatnonzero(~loop)
        if emulated.size and not all(_emulation_agrees(seed, int(j), s, draw_rows, rows, data)
                                     for j in emulated[[0, -1]]):
            loop[:] = True
    for j in np.flatnonzero(loop).tolist():
        rows[j], data[j] = _column(seed, j, s, draw_rows)
    # in place, so the matrix keeps these two arrays and no others are made
    data *= 2.0
    data -= 1.0
    data *= 1.0 / math.sqrt(s)
    return SparseMatrix.from_csc(m, n, np.arange(n + 1) * s, rows.ravel(), data.ravel())


def sample_sparse_sign_jl(m: int, n: int, s: int, seed: int) -> SparseMatrix:
    """Sign matrix with s nonzeros per column: rows are a uniform s-subset of
    [m], values independent +-1/sqrt(s)."""
    m, n, s = _integer(m, "row count"), _integer(n, "column count"), _integer(s, "sparsity")
    if not 1 <= s <= m:
        raise InvalidSparsity(f"sparsity s={s} must lie in [1, m={m}]")
    _check_columns(m, n, s)
    return _sample_sign_columns(
        m, n, s, seed,
        lambda g: np.sort(g.choice(m, size=s, replace=False)),
        choice_bounds(m, s) if choice_is_floyd(m, s) else None,
        lambda vals: floyd_picks(vals[:, :s], m),
    )


def sample_osnap_block(m: int, n: int, s: int, seed: int) -> SparseMatrix:
    """Block sign matrix: s must divide m; each column places one +-1/sqrt(s)
    uniformly inside each of the s contiguous blocks of m/s rows."""
    m, n, s = _integer(m, "row count"), _integer(n, "column count"), _integer(s, "sparsity")
    if not 1 <= s <= m:
        raise InvalidSparsity(f"sparsity s={s} must lie in [1, m={m}]")
    if m % s != 0:
        raise NotDivisible(f"s={s} must divide m={m} for block sampling")
    _check_columns(m, n, s)
    b = m // s
    block_starts = np.arange(s, dtype=np.int64) * b
    return _sample_sign_columns(
        m, n, s, seed,
        lambda g: block_starts + g.integers(0, b, size=s),
        np.full(s, b),
        lambda vals: block_starts + vals,
    )


def sample_countsketch(m: int, n: int, seed: int) -> OneSparseMap:
    """One-sparse map: each column independently picks a uniform row and sign."""
    m, n = _integer(m, "row count"), _integer(n, "column count")
    if m < 1:
        raise InvalidDimension(f"need m >= 1 rows, got {m}")
    if n < 1:
        raise InvalidDimension(f"need n >= 1 columns, got {n}")
    _check_size("row count", m, 2**63, n)
    g = substream(seed)
    a = g.integers(0, m, size=n)
    sigma = g.integers(0, 2, size=n) * 2 - 1
    return OneSparseMap(m, n, a, sigma)


def sample_coordinate_subspace(n: int, d: int, seed: int) -> tuple[int, ...]:
    """Uniform d-subset of the n coordinates, returned sorted ascending."""
    n, d = _integer(n, "coordinate count"), _integer(d, "subspace dimension")
    if not 1 <= d <= n:
        raise InvalidDimension(f"subspace dimension d={d} must lie in [1, n={n}]")
    _check_size("coordinate count", n, 2**63 - 1, d)
    g = substream(seed)
    return tuple(int(i) for i in np.sort(g.choice(n, size=d, replace=False)))


# --- exact support-distribution checks, by counting ---------------------------

@dataclass(frozen=True)
class OsnapReport:
    """Exact expectation of a product of support indicators vs its cap."""

    expectation: float
    bound: float
    holds: bool
    exact_expectation: Fraction
    exact_bound: Fraction


# sampler -> P(one column's support holds the rows R), see verify_osnap_properties
_SUPPORT_PROBABILITY = {
    "sign_jl": lambda m, s, R: Fraction(math.perm(s, len(R)), math.perm(m, len(R))),
    "block": lambda m, s, R: Fraction(s, m) ** len(R) * (len({i * s // m for i in R}) == len(R)),
}


def verify_osnap_properties(
    m: int, n: int, s: int, sampler: str, cells: Iterable[tuple[int, int]]
) -> OsnapReport:
    """Check E[prod of delta_{(i,j)} over cells] <= (s/m)^{|cells|} exactly.

    Columns are independent, so the expectation is a product over columns of
    P(the column's support holds its r distinct rows R), in closed form:
    C(m-r, s-r)/C(m, s), 0 when r > s, for ``sign_jl``; (s/m)^r for ``block``
    when R's rows lie in r distinct blocks of m/s rows, else 0.  An unknown
    sampler raises :class:`UnknownKind` before any other check.
    """
    probability = _SUPPORT_PROBABILITY.get(sampler) if isinstance(sampler, str) else None
    if probability is None:
        raise UnknownKind(f"unknown sampler {sampler!r}; expected 'sign_jl' or 'block'")
    m, n, s = _integer(m, "row count"), _integer(n, "column count"), _integer(s, "sparsity")
    if not 1 <= s <= m:
        raise InvalidSparsity(f"sparsity s={s} must lie in [1, m={m}]")
    if sampler == "block" and m % s != 0:
        raise NotDivisible(f"s={s} must divide m={m} for block sampling")
    cell_set = set()
    for i, j in cells:
        i, j = _integer(i, "row index"), _integer(j, "column index")
        if not 0 <= i < m:
            raise IndexOutOfRange(f"row {i} outside [0, {m})")
        if not 0 <= j < n:
            raise IndexOutOfRange(f"column {j} outside [0, {n})")
        cell_set.add((i, j))

    by_column: dict[int, set[int]] = {}
    for i, j in cell_set:
        by_column.setdefault(j, set()).add(i)
    expectation = Fraction(1)
    for rows_needed in by_column.values():
        expectation *= probability(m, s, rows_needed)
    bound = Fraction(s, m) ** len(cell_set)
    return OsnapReport(
        expectation=float(expectation),
        bound=float(bound),
        holds=expectation <= bound,
        exact_expectation=expectation,
        exact_bound=bound,
    )


# --- flat vectors from codes ---------------------------------------------------

def _spread_matrix(c: Code, n: int, k: int) -> SparseMatrix:
    """:func:`spread_vectors` as the columns of a matrix: ``code_to_incoherent(c)``
    with every value sqrt(2/k), which can differ from 1/sqrt(t) in the last bit."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if k < 2 or k % 2 != 0:
        raise ShapeMismatch(f"k must be even and >= 2, got {k}")
    if (2 * n) % k != 0:
        raise ShapeMismatch(f"k={k} must divide 2n={2 * n}")
    if c.t != k // 2:
        raise ShapeMismatch(f"code block length {c.t} must equal k/2={k // 2}")
    if c.q != (2 * n) // k:
        raise ShapeMismatch(f"code alphabet {c.q} must equal 2n/k={(2 * n) // k}")
    A = code_to_incoherent(c)
    return SparseMatrix.from_csc(n, A.n, A.indptr, A.indices, np.full(A.nnz, math.sqrt(2.0 / k)))


def spread_vectors(c: Code, n: int, k: int) -> list[np.ndarray]:
    """Turn each codeword into a k/2-sparse unit vector in R^n.

    Requires k even with c.t == k/2 and c.q == 2n/k.  Word i yields the vector
    with value sqrt(2/k) at position 2*j*n/k + (word_i)_j for each j; blocks
    are disjoint, every vector has unit norm, and two vectors' dot product is
    (2/k) times their words' agreement count.  The vectors are the rows of
    one (N, n) array, filled from dense blocks of ``_BUDGET`` bytes of columns.
    """
    A = _spread_matrix(c, n, k)
    out = np.empty((A.n, A.m))
    width = max(1, _BUDGET // (8 * A.m))
    for lo in range(0, A.n, width):
        hi = min(lo + width, A.n)
        out[lo:hi] = _dense(A, np.arange(lo, hi), A.data).T
    return list(out)
