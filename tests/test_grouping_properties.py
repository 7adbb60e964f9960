"""Property tests of the batched pigeonhole searches against per-column oracles.

Each oracle below groups columns one at a time through the public
single-column functions (``ttype_of``, ``pattern_at_scale``,
``scale_profile``) and a dict, as the searches did before they built their
keys from the CSC arrays; the batched searches must return the same
certificate or raise the same exception class.  Every certificate a search
returns must verify against its matrix, also once rebuilt from its JSON.
"""

import itertools
import json
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sketchbounds import (
    DegenerateColumn,
    InvalidT,
    NoScaleFound,
    NotSignMatrix,
    PreconditionViolated,
    SketchboundsError,
    SparseMatrix,
    TooLarge,
    apply,
    check_unit_columns,
    column_sparsity,
    derive_seed,
    dyadic_scale_count,
    pattern_at_scale,
    rip_pattern_witness,
    sample_sparse_sign_jl,
    scale_profile,
    sign_pattern_certify,
    ttype_collision_certify,
    ttype_of,
)
from sketchbounds import witnesses
from sketchbounds.cli import WITNESSES
from sketchbounds.constructions import sample_countsketch
from sketchbounds.matrices import OneSparseMap, _runs
from sketchbounds.witnesses import (
    TTYPE_GROUP_CONSTANT,
    Certificate,
    NoFinding,
    _expose_incoherent_pair,
    group_columns,
    verify_certificate,
)


# --- oracles -----------------------------------------------------------------------

def largest_group(members: dict) -> list[int]:
    """Largest group of column indices; ties keep the smallest first member."""
    best: list[int] = []
    for cols in members.values():
        if len(cols) > len(best) or (len(cols) == len(best) and best and cols[0] < best[0]):
            best = cols
    return best


def pigeonhole_certificate(A, source, eps, t, group, scale):
    N = len(group)
    if N < 2:
        return NoFinding(source)
    exposed = _expose_incoherent_pair(A, group, eps)
    if exposed is not None:
        i, j, dot = exposed
        return Certificate(kind="incoherence_pair", source=source, i=i, j=j, dot=dot)
    return Certificate(kind="sparsity_lower_bound", source=source, t=t, group_size=N,
                       bound_value=t * (N - 1) * scale)


def ttype_oracle(A, eps, t):
    check_unit_columns(A)
    s = column_sparsity(A)
    if not 1 <= t <= s:
        raise InvalidT("t")
    if not t / s > TTYPE_GROUP_CONSTANT * eps:
        raise PreconditionViolated("t/s")
    members: dict = {}
    for j in range(A.n):
        members.setdefault(ttype_of(A.column_dense(j), t, s), []).append(j)
    return pigeonhole_certificate(A, "ttype_collision_certify", eps, t, largest_group(members),
                                  1.0 / (2.0 * TTYPE_GROUP_CONSTANT))


def sign_oracle(A, eps, t, full_enumeration):
    s = column_sparsity(A)
    if not 1 <= t <= s:
        raise InvalidT("t")
    if np.any(np.abs(np.abs(A.data) - 1.0 / math.sqrt(s)) > 1e-12):
        raise NotSignMatrix("entries")
    if t < 2 * eps * s:
        raise PreconditionViolated("t >= 2 eps s")
    members: dict = {}
    for j in range(A.n):
        rows, vals = A.column(j)
        if full_enumeration:
            if s > 8:
                raise TooLarge("s")
            for combo in itertools.combinations(range(rows.size), t):
                key = (tuple(int(rows[c]) for c in combo), tuple(int(np.sign(vals[c])) for c in combo))
                members.setdefault(key, []).append(j)
        elif rows.size >= t:
            key = (tuple(rows[:t].tolist()), tuple(int(np.sign(v)) for v in vals[:t]))
            members.setdefault(key, []).append(j)
    return pigeonhole_certificate(A, "sign_pattern_certify", eps, t, largest_group(members), 0.25)


def rip_oracle(A, k):
    for j in range(A.n):
        try:
            scale_profile(A, j)
        except NoScaleFound:
            raise DegenerateColumn(f"column {j}")
    s = column_sparsity(A)
    best_vector, best_ratio = None, -math.inf
    for t in range(1, dyadic_scale_count(s) + 1):
        members: dict = {}
        for j in range(A.n):
            pat = pattern_at_scale(A, j, t, k, s)
            if pat is not None:
                members.setdefault((pat.rows, pat.signs), []).append(j)
        group = largest_group(members)
        if len(group) < 2:
            continue
        v = np.zeros(A.n)
        v[group[:k]] = 1.0
        y = apply(A, v)
        ratio = float(y @ y) / float(v @ v)
        if ratio > best_ratio:
            best_ratio, best_vector = ratio, v
    if best_vector is not None and best_ratio >= 1.0 + 1e-9:
        return Certificate(kind="rip_distortion", source="rip_pattern_witness",
                           vector=best_vector, ratio=best_ratio)
    return NoFinding("rip_pattern_witness")


def ose_collision_oracle(S, indices):
    # the dict loop the search ran before its stable sort
    cols = range(S.n) if indices is None else sorted(set(indices))
    first_for_row, best = {}, None
    for j in cols:
        row = int(S.indices[j])
        if row in first_for_row:
            pair = (first_for_row[row], j)
            if best is None or pair < best:
                best = pair
        else:
            first_for_row[row] = j
    if best is None:
        return NoFinding("ose_collision_witness")
    i, j = best
    x = np.zeros(S.n, dtype=np.int64)
    x[i], x[j] = int(S.data[j]), -int(S.data[i])
    return Certificate(kind="kernel_witness", source="ose_collision_witness", vector=x)


def outcome(search, *args):
    """A search's certificate as JSON, or the class of the error it raised."""
    try:
        return search(*args).to_jsonable()
    except SketchboundsError as exc:
        return type(exc)


# --- matrices ----------------------------------------------------------------------

FAMILIES = ("gauss", "unit_gauss", "tied", "dyadic", "sign", "unit_sign")


@st.composite
def matrices(draw, families=FAMILIES):
    """Small random CSC matrices: column sparsities that vary (some columns
    empty or below t), repeated columns so that groups form, and values that
    are Gaussian, tied in magnitude, dyadic, or signs +-1/sqrt(s), where s
    is the largest column sparsity ("sign") or the column's own ("unit_sign";
    "unit_" and the tied and dyadic families have unit columns)."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 24))
    family = draw(st.sampled_from(families))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(0, m))
    sizes = rng.integers(low, m + 1, size=n)
    s = max(int(sizes.max()), 1)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    rows = np.concatenate([np.sort(rng.choice(m, size=z, replace=False)) for z in sizes])
    signs = rng.choice([-1.0, 1.0], size=rows.size)
    if family in ("gauss", "unit_gauss"):
        vals = rng.standard_normal(rows.size)
    elif family == "tied":
        vals = signs * rng.choice([1.0, 2.0], size=rows.size)
    elif family == "dyadic":
        vals = signs * 2.0 ** -rng.integers(0, 3, size=rows.size)
    elif family == "sign":
        vals = signs / math.sqrt(s)
    else:
        vals = signs / np.sqrt(np.repeat(sizes, sizes).astype(float))
    if family in ("unit_gauss", "tied", "dyadic"):
        vals = vals / np.repeat([math.sqrt(c @ c) for c in np.split(vals, indptr[1:-1])], sizes)
    # repeat a few columns so the largest group is not a singleton
    A = SparseMatrix.from_csc(m, n, indptr, rows, vals)
    picks = rng.integers(0, n, size=draw(st.integers(0, 2 * n)))
    order = np.sort(np.concatenate((np.arange(n), picks)))
    cols = [list(zip(*map(np.ndarray.tolist, A.column(int(j))))) for j in order]
    return SparseMatrix(m, len(cols), cols)


T_VALUES = st.sampled_from([1, 2, 3, 5])

# Groups whose pairwise dots cancel to 0, so the searches certify a bound:
# two flat 16-sparse columns with one t-type, and three 4-sparse sign
# columns that share row 0 with sign +.
FLAT_PAIR = SparseMatrix.from_csc(32, 2, [0, 16, 32], np.tile(np.arange(16), 2),
                                  np.r_[np.full(16, 0.25), np.full(8, 0.25), np.full(8, -0.25)])
SIGN_GROUP = SparseMatrix.from_csc(8, 3, [0, 4, 8, 12], [0, 1, 2, 3, 0, 1, 4, 5, 0, 2, 4, 6],
                                   0.5 * np.array([1, 1, 1, 1, 1, -1, 1, 1, 1, -1, -1, 1]))


@settings(max_examples=300, deadline=None)
@given(matrices(), T_VALUES, st.sampled_from([0.001, 0.01, 0.03, 0.1]))
@example(FLAT_PAIR, 1, 0.005)
def test_ttype_collision_matches_oracle(A, t, eps):
    assert outcome(ttype_collision_certify, A, eps, t) == outcome(ttype_oracle, A, eps, t)


@settings(max_examples=300, deadline=None)
@given(matrices(("sign", "sign", "sign", "unit_sign", "dyadic")), T_VALUES,
       st.sampled_from([0.0, 0.05, 0.1, 0.3]), st.booleans())
@example(SIGN_GROUP, 1, 0.1, False)
@example(SIGN_GROUP, 1, 0.1, True)
def test_sign_pattern_matches_oracle(A, t, eps, full):
    assert outcome(sign_pattern_certify, A, eps, t, full) == outcome(sign_oracle, A, eps, t, full)


# Eight-sparse +-1/2 columns: at k = 4 scales 1 and 2 give equal keys, every
# entry of each column, and scale 3 differs only in pattern width, the first
# four rows, which columns 0 and 1 share.  (With +-1/sqrt(8) no entry would
# reach scale 3: the square of 1/sqrt(8) rounds below 1/8.)
SIGN_SCALES = SparseMatrix.from_csc(
    16, 3, [0, 8, 16, 24], [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 8, 9, 10, 11, 0, 2, 4, 6, 8, 10, 12, 14],
    np.r_[1, -1, 1, 1, 1, 1, 1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, 1, -1, 1, 1, 1, 1, 1] / 2)
# Scales 1 and 2 give key blocks of one shape, four codes wide (column 2 is
# flat), that differ: the 0.3 entries fall below scale 2's threshold, so
# only there do columns 0 and 1 share a key.
SAME_SHAPE_SCALES = SparseMatrix.from_csc(10, 3, [0, 4, 8, 12], [0, 1, 2, 3, 0, 1, 2, 4, 5, 6, 7, 8],
                                          [0.5, 0.5, 0.5, 0.3, 0.5, 0.5, 0.5, 0.3, 0.5, 0.5, 0.5, 0.5])


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from([2, 3, 5]))
@example(SIGN_SCALES, 4)
@example(SAME_SHAPE_SCALES, 2)
def test_rip_pattern_matches_oracle(A, k):
    assert outcome(rip_pattern_witness, A, k) == outcome(rip_oracle, A, k)


@settings(max_examples=200, deadline=None)
@given(matrices(), T_VALUES, st.sampled_from([2, 3, 5]), st.sampled_from([1, 2, 3, 5, 8, 13, 40, 100, 300]))
def test_searches_match_oracles_in_spans_of_a_few_entries(A, t, k, entries):
    # key spans of at most `entries` entries, or one column, cut the
    # matrices above into many spans; full enumeration counts C(s, t) * t
    # positions a column
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witnesses, "_BUDGET", 64 * entries)
        assert outcome(ttype_collision_certify, A, 0.01, t) == outcome(ttype_oracle, A, 0.01, t)
        for full in (False, True):
            assert outcome(sign_pattern_certify, A, 0.0, t, full) == outcome(sign_oracle, A, 0.0, t, full)
        assert outcome(rip_pattern_witness, A, k) == outcome(rip_oracle, A, k)


def unskipped_rip_pattern(A, k):
    """rip_pattern_witness with no scale skipped: keys built and grouped at
    every scale, from the same key builder and grouping."""
    witnesses._check_scales(A)
    s = column_sparsity(A)
    codes = witnesses._signed_rows(A)
    best_vector, best_ratio = None, -math.inf
    for t in range(1, dyadic_scale_count(s) + 1):
        keys = witnesses._pattern_keys(A, t, k, s, codes)
        has = np.flatnonzero(keys[:, 0])
        group = has[group_columns(keys[has])]
        if len(group) < 2:
            continue
        v = np.zeros(A.n)
        v[group[:k]] = 1.0
        y = apply(A, v)
        ratio = float(y @ y) / float(v @ v)
        if ratio > best_ratio:
            best_ratio, best_vector = ratio, v
    if best_vector is not None and best_ratio >= 1.0 + 1e-9:
        return Certificate(kind="rip_distortion", source="rip_pattern_witness",
                           vector=best_vector, ratio=best_ratio)
    return NoFinding("rip_pattern_witness")


@st.composite
def mixed_magnitude_matrices(draw):
    """Small matrices whose entries take one to three magnitudes, each
    squaring to a scale's threshold 2^(t-3)/s or near it, so that a scale
    admits the scale before's entries, fewer of them, or none; columns
    repeated so that groups form."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(1, m + 1, size=n)
    s = int(sizes.max())
    levels = draw(st.lists(st.tuples(st.integers(-2, 5), st.sampled_from([1.0, 0.99, 1.01])), min_size=1, max_size=3))
    mags = np.array([math.sqrt(2.0 ** (t - 3) / s) * f for t, f in levels])
    rows = np.concatenate([np.sort(rng.choice(m, size=z, replace=False)) for z in sizes])
    vals = rng.choice([-1.0, 1.0], size=rows.size) * rng.choice(mags, size=rows.size)
    A = SparseMatrix.from_csc(m, n, np.concatenate(([0], np.cumsum(sizes))), rows, vals)
    order = np.sort(np.concatenate((np.arange(n), rng.integers(0, n, size=draw(st.integers(0, 2 * n))))))
    return SparseMatrix(m, len(order), [list(zip(*map(np.ndarray.tolist, A.column(int(j))))) for j in order])


@settings(max_examples=300, deadline=None)
@given(st.one_of(mixed_magnitude_matrices(), matrices()), st.sampled_from([2, 3, 4, 5]))
@example(SIGN_SCALES, 4)
@example(SAME_SHAPE_SCALES, 2)
def test_rip_pattern_skips_no_scale_that_would_change_its_result(A, k):
    got, want = outcome(rip_pattern_witness, A, k), outcome(unskipped_rip_pattern, A, k)
    assert json.dumps(got, sort_keys=True, default=str) == json.dumps(want, sort_keys=True, default=str)


def test_rip_pattern_builds_keys_once_on_the_benchmark_matrix(monkeypatch):
    """The witness workload's 256 x 10000, s = 8 sign matrix at k = 4: scale
    2 admits scale 1's entries at the same width, 8 codes, and no entry
    reaches scale 3 (the square of 1/sqrt(8) rounds below 1/8), so only
    scale 1 builds keys."""
    A = sample_sparse_sign_jl(256, 10000, 8, derive_seed(1, 1))
    builds = []
    real = witnesses._pattern_keys
    monkeypatch.setattr(witnesses, "_pattern_keys", lambda B, t, *rest: builds.append(t) or real(B, t, *rest))
    got = outcome(rip_pattern_witness, A, 4)
    assert builds == [1]
    builds.clear()
    assert got == outcome(unskipped_rip_pattern, A, 4)
    assert builds == [1, 2, 3]


# --- key builders ------------------------------------------------------------------

@pytest.mark.parametrize("m, dtype", [(2**31 - 2, np.int32), (2**31 - 1, np.int64), (2**31, np.int64)])
def test_signed_rows_are_row_plus_one_times_sign(m, dtype):
    # rows 0 and m - 1 under both signs, and a column of mixed signs
    A = SparseMatrix.from_csc(m, 3, [0, 2, 4, 7], [0, m - 1, 0, m - 1, 0, 5, m - 1],
                              [0.5, 2.0, -0.5, -2.0, -1.0, 3.0, -0.25])
    codes = witnesses._signed_rows(A)
    assert codes.dtype == dtype
    assert codes.tolist() == ((A.indices + 1) * np.sign(A.data)).astype(np.int64).tolist()


def test_ttype_keys_in_spans_with_and_without_short_columns():
    # spans of at most 4 entries (or one column), as in the spans test above;
    # columns with fewer than t = 2 nonzeros take fill rows in some spans only
    sizes = [3, 3, 2, 3, 1, 0, 3, 2, 1, 3, 3, 3, 2, 0, 2, 3]
    rng = np.random.default_rng(7)
    rows = np.concatenate([np.sort(rng.choice(8, size=z, replace=False)) for z in sizes])
    # unit columns whose entries tie in magnitude
    vals = np.concatenate([rng.choice([-1.0, -0.5, 0.5, 1.0], size=z) for z in sizes])
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    vals /= np.repeat([math.sqrt(c @ c) if c.size else 1.0 for c in np.split(vals, indptr[1:-1])], sizes)
    A = SparseMatrix.from_csc(8, len(sizes), indptr, rows, vals)
    t, s = 2, column_sparsity(A)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witnesses, "_BUDGET", 64 * 4)
        spans = list(witnesses._spans(A.indptr, 4))
        keys = witnesses._ttype_keys(A, t, s)
    short = [any(size < t for size in sizes[lo:hi]) for lo, hi in spans]
    assert any(short) and not all(short)
    for j in range(A.n):
        tt = ttype_of(A.column_dense(j), t, s)
        assert keys[j].tolist() == [(r + 1) * g for r, g in zip(tt.locations, tt.signs)] + list(tt.rounded_squares)


# --- group_columns -----------------------------------------------------------------

def dict_group(keys, valid):
    members: dict = {}
    for j, row in enumerate(keys.tolist()):
        if valid[j]:
            members.setdefault(tuple(row), []).append(j)
    return largest_group(members)


# Each column of a key block steps from an edge of its dtype toward 0 by
# offsets of up to its reach: a few, n - 1 (the widest column _row_ids
# shifts), n (the narrowest it ranks) or most of the dtype.
EDGES = {np.int32: [-(2**31), -1, 0, 1, 2**31 - 1], np.int64: [-(2**63 - 1), -(2**62), -1, 0, 1, 2**62, 2**63 - 1]}
REACHES = ("few", "rows", "past rows", "whole")


def key_block(n, dtype, reaches, groups, tied, seed):
    """An n-row block of `dtype` keys, one column per entry of `reaches`,
    its edges taken in turn from EDGES, so that int64 values reach
    +-(2^63 - 1).  The first and last rows hold each column's two ends;
    when groups > 0 every row between copies its first `tied` columns from
    one of the first `groups` rows, for many ties and rows that part late."""
    rng = np.random.default_rng(seed)
    edges = EDGES[dtype]
    block = np.empty((n, len(reaches)), dtype=dtype)
    for j, reach in enumerate(reaches):
        top = {"few": 3, "rows": n - 1, "past rows": n, "whole": int(np.iinfo(dtype).max) // 2}[reach]
        offsets = rng.integers(0, top + 1, size=n)
        offsets[0], offsets[-1] = 0, top
        edge = edges[(seed + j) % len(edges)]
        block[:, j] = edge - offsets if edge > 0 else edge + offsets
    if groups and n > 2:
        block[1:-1, :tied] = block[rng.integers(0, min(groups, n), size=n - 2), :tied]
    return block


@st.composite
def key_blocks(draw):
    """Key blocks of 1-40 rows, or of 256 or 300, where 8 columns of reach
    n - 1 fold past 2^62 // n, with 1-8 int32 or int64 columns."""
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from([256, 300])))
    reaches = draw(st.lists(st.sampled_from(REACHES), min_size=1, max_size=8))
    return key_block(n, draw(st.sampled_from([np.int32, np.int64])), reaches,
                     draw(st.integers(0, 6)), draw(st.integers(0, len(reaches))), draw(st.integers(0, 2**32 - 1)))


# Blocks that take each branch of _row_ids: every column ranked; a fold
# ranked with every row then on its own, with equal rows, and with rows
# that part after the fold (at 2^16 rows the fold is ranked after 3 columns
# of reach n - 1, and rows tied on 6 columns skip the next 3); and the
# dtypes' edges with many ties.
KEY_EXAMPLES = [
    key_block(40, np.int64, ["whole"] * 8, 3, 8, 0),
    key_block(40, np.int32, ["past rows", "few", "whole"], 2, 1, 1),
    key_block(256, np.int64, ["rows"] * 8, 0, 8, 2),
    key_block(256, np.int32, ["rows"] * 8, 3, 8, 3),
    key_block(300, np.int64, ["rows"] * 7 + ["few"], 4, 7, 4),
    key_block(2**16, np.int64, ["rows"] * 8, 5, 6, 5),
    key_block(40, np.int64, ["few"] * 8, 2, 8, 6),
    key_block(40, np.int64, ["few"] * 8, 3, 8, 1),
]


def with_key_examples(*rest):
    """@example for each of KEY_EXAMPLES, followed by the arguments `rest`."""
    def add(test):
        for keys in KEY_EXAMPLES:
            test = example(keys, *rest)(test)
        return test
    return add


@settings(max_examples=300, deadline=None)
@given(key_blocks())
@with_key_examples()
def test_row_ids_are_equal_exactly_when_rows_are(keys):
    n = keys.shape[0]
    ids = witnesses._row_ids(keys)
    assert ids.dtype == np.int64 and ids.shape == (n,)
    assert 0 <= ids.min() and ids.max() < 2**62 // n
    rows = [tuple(row) for row in keys.tolist()]
    # each id names one row value and each row value one id
    assert len(set(zip(ids.tolist(), rows))) == len(set(ids.tolist())) == len(set(rows))


@settings(max_examples=300, deadline=None)
@given(key_blocks(), st.integers(0, 2**32 - 1))
@with_key_examples(0)
def test_group_columns_matches_dict_grouping(keys, seed):
    # a mask of the rows, as a search leaves its keyless columns out
    valid = np.random.default_rng(seed).random(keys.shape[0]) < 0.8
    assert np.flatnonzero(valid)[group_columns(keys[valid])].tolist() == dict_group(keys, valid)
    assert group_columns(keys).tolist() == dict_group(keys, np.ones(keys.shape[0], dtype=bool))


def test_group_columns_edge_cases():
    keys = np.array([[3, 1], [2, 2], [3, 1], [2, 2], [0, 5]], dtype=np.int32)
    none = np.zeros(5, dtype=bool)
    assert np.flatnonzero(none)[group_columns(keys[none])].tolist() == []
    # equal-size groups: the one whose first member is smallest wins
    assert group_columns(keys).tolist() == [0, 2]
    valid = np.array([False, True, True, True, True])
    assert np.flatnonzero(valid)[group_columns(keys[valid])].tolist() == [1, 3]
    # all keys distinct: every group is a singleton, the first one wins
    assert group_columns(np.arange(12, dtype=np.int32).reshape(6, 2)).tolist() == [0]


# --- the run kernel ----------------------------------------------------------------

def groupby_runs(x):
    """(flat start, length) of each run of equal items, a row at a time, by
    ``itertools.groupby``."""
    lengths = [len(list(run)) for row in x.reshape(-1, x.shape[-1]).tolist() for _, run in itertools.groupby(row)]
    return np.cumsum([0] + lengths[:-1]).tolist(), lengths


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(1, 30), st.integers(1, 8), st.integers(1, 6),
       st.sampled_from(["int64", "int32 rows", "int64 rows"]), st.integers(0, 2**32 - 1))
@example(0, 1, 1, 1, "int64", 0)
@example(1, 1, 3, 1, "int32 rows", 0)
@example(1, 30, 8, 2, "int64 rows", 0)
@example(4, 1, 2, 1, "int64", 0)
def test_runs_match_groupby(rows, width, w, distinct, kind, seed):
    # rows == 0 draws a 1-D array; each item is one of `distinct` draws, for
    # many ties.  An item is one int64 value or the void view of a row of w
    # int32 or int64 values, drawn from the dtype's edges.
    rng = np.random.default_rng(seed)
    dtype = np.int32 if kind == "int32 rows" else np.int64
    shape = (width,) if rows == 0 else (rows, width)
    pool = rng.choice(np.array(EDGES[dtype], dtype=dtype), size=(distinct, w))
    keys = pool[rng.integers(0, distinct, size=shape)]
    x = keys[..., 0] if kind == "int64" else keys.view(np.dtype((np.void, keys.itemsize * w)))[..., 0]
    x = np.sort(x, axis=-1)
    starts, lengths = _runs(x)
    assert (starts.tolist(), lengths.tolist()) == groupby_runs(x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=60), st.sampled_from(["int32", "int64"]))
@example([], "int64")
@example([7] * 50, "int64")  # one long run
@example(list(range(40)), "int32")  # all distinct
@example([0] * 30 + [1] + [2] * 29, "int64")
def test_ranks_match_enumerate(values, dtype):
    col = np.sort(np.array(values, dtype=dtype))
    ranks = [rank for _, run in itertools.groupby(col.tolist()) for rank, _ in enumerate(run)]
    assert witnesses._ranks(col).tolist() == ranks


def top_entries_oracle(A, lo, hi, width, keep=None):
    """``witnesses._top_entries`` one column at a time: the kept entries
    ranked by magnitude, ties to the lower row, the first `width` returned
    in storage order."""
    pos = np.arange(A.indptr[lo], A.indptr[hi])
    kept = set(pos[keep].tolist() if keep is not None else pos.tolist())
    cols, chosen = [], []
    for j in range(lo, hi):
        column = [p for p in range(A.indptr[j], A.indptr[j + 1]) if p in kept]
        top = sorted(sorted(column, key=lambda p: (-abs(A.data[p]), A.indices[p]))[:width])
        cols += [j] * len(top)
        chosen += top
    return np.array(cols, dtype=np.int64), np.array(chosen, dtype=np.int64)


def falling(A):
    """A with each column's magnitudes sorted to fall along storage order,
    each entry keeping its sign."""
    data = A.data.copy()
    for lo, hi in zip(A.indptr[:-1], A.indptr[1:]):
        data[lo:hi] = np.sign(data[lo:hi]) * -np.sort(-np.abs(data[lo:hi]))
    return SparseMatrix.from_csc(A.m, A.n, A.indptr, A.indices, data)


# Column 0 has tied magnitudes that fall, column 1 is empty, column 2 rises
# and column 3 falls; spans start past column 0.
TOP_ENTRIES = SparseMatrix.from_csc(6, 4, [0, 3, 3, 7, 10], [0, 2, 5, 0, 1, 3, 4, 1, 2, 5],
                                    [2.0, -2.0, 1.0, 0.5, 1.0, -3.0, 3.0, -4.0, 2.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(matrices(), st.booleans(), st.integers(1, 11), st.data())
@example(TOP_ENTRIES, False, 1, None)
@example(TOP_ENTRIES, False, 2, (1, 4, [True, True, False, True, True, True, True]))
@example(TOP_ENTRIES, False, 3, (2, 4, None))
@example(TOP_ENTRIES, False, 2, (3, 4, None))
@example(TOP_ENTRIES, True, 2, (1, 4, [True, False, True, True, False, True, True]))
# every column fits the width: all kept entries, the mask still applied
@example(TOP_ENTRIES, False, 4, (0, 4, [True, False, True, True, True, False, True, True, False, True]))
def test_top_entries_match_the_column_oracle(A, sort_columns, width, data):
    # a span [lo, hi) with an optional mask over its entries; an example
    # gives (lo, hi, keep) or None for the whole matrix
    if sort_columns:
        A = falling(A)
    if data is None:
        lo, hi, keep = 0, A.n, None
    elif isinstance(data, tuple):
        lo, hi, keep = data
    else:
        lo = data.draw(st.integers(0, A.n))
        hi = data.draw(st.integers(lo, A.n))
        size = int(A.indptr[hi] - A.indptr[lo])
        keep = data.draw(st.none() | st.lists(st.booleans(), min_size=size, max_size=size))
    keep = None if keep is None else np.array(keep, dtype=bool)
    got = witnesses._top_entries(A, lo, hi, width, keep)
    want = top_entries_oracle(A, lo, hi, width, keep)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


# --- every certificate verifies -----------------------------------------------------

# the number each kind claims, which must be exact to verify
CLAIMED_NUMBER = {"incoherence_pair": "dot", "sparsity_lower_bound": "bound_value", "rip_distortion": "ratio"}


def assert_rebuilds_and_verifies(cert, A):
    """`cert` verifies against A, and so does its rebuild from JSON through
    ``Certificate(**obj)`` with the vector as an array; moving its number (or
    a kernel vector entry) by 1e-6 makes it fail."""
    assert verify_certificate(cert, A), cert.source
    obj = json.loads(json.dumps(cert.to_jsonable()))
    if "vector" in obj:
        obj["vector"] = np.asarray(obj["vector"])
    rebuilt = Certificate(**obj)
    assert json.dumps(rebuilt.to_jsonable()) == json.dumps(cert.to_jsonable())
    assert verify_certificate(rebuilt, A), cert.source
    if cert.kind in CLAIMED_NUMBER:
        name = CLAIMED_NUMBER[cert.kind]
        assert not verify_certificate(Certificate(**{**obj, name: obj[name] + 1e-6}), A), cert.source
    elif cert.kind == "kernel_witness":
        assert not verify_certificate(Certificate(**{**obj, "vector": obj["vector"] + 1e-6}), A)


# each certificate search of the CLI, as a call on a matrix and the drawn eps, t, k
MATRIX_SEARCHES = {
    "row_mass": lambda A, eps, t, k, full: WITNESSES["row_mass"].fn(A, eps),
    "ttype_collision": lambda A, eps, t, k, full: WITNESSES["ttype_collision"].fn(A, eps, t),
    "sign_pattern": lambda A, eps, t, k, full: WITNESSES["sign_pattern"].fn(A, eps, t, full),
    "rip_pattern": lambda A, eps, t, k, full: WITNESSES["rip_pattern"].fn(A, k),
}


def test_every_certificate_search_is_covered():
    searches = {name for name, entry in WITNESSES.items() if entry.load}
    assert searches == set(MATRIX_SEARCHES) | {"ose_collision"}


@settings(max_examples=200, deadline=None)
@given(matrices(), st.sampled_from([0.001, 0.01, 0.03, 0.1, 0.3]), T_VALUES, st.sampled_from([2, 3, 5]),
       st.booleans())
@example(FLAT_PAIR, 0.005, 1, 2, False)
@example(SIGN_GROUP, 0.1, 1, 2, True)
def test_every_matrix_certificate_verifies(A, eps, t, k, full):
    for name, search in MATRIX_SEARCHES.items():
        try:
            cert = search(A, eps, t, k, full)
        except SketchboundsError:
            continue
        assert_rebuilds_and_verifies(cert, A)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**32 - 1), st.data())
def test_every_collision_certificate_verifies(m, n, seed, data):
    S = sample_countsketch(m, n, seed)
    indices = data.draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    cert = WITNESSES["ose_collision"].fn(S, indices)
    assert_rebuilds_and_verifies(cert, S)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
def test_ose_collision_matches_oracle(m, n, seed, data):
    S = sample_countsketch(m, n, seed)
    indices = data.draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    expected = outcome(ose_collision_oracle, S, indices)
    assert outcome(WITNESSES["ose_collision"].fn, S, indices) == expected
    # the same columns stored as a plain matrix
    A = SparseMatrix.from_csc(S.m, S.n, S.indptr, S.indices, S.data)
    assert outcome(WITNESSES["ose_collision"].fn, A, indices) == expected


def first_collision(S, indices):
    """The brute-force oracle: the first pair i < j of the selected columns
    with a(i) == a(j), and the kernel vector it gives."""
    cols = sorted(set(range(S.n) if indices is None else indices))
    for p, i in enumerate(cols):
        for j in cols[p + 1:]:
            if S.indices[i] == S.indices[j]:
                x = np.zeros(S.n, dtype=np.int64)
                x[i], x[j] = int(S.data[j]), -int(S.data[i])
                return Certificate(kind="kernel_witness", source="ose_collision_witness", vector=x)
    return NoFinding("ose_collision_witness")


@st.composite
def collision_maps(draw):
    """Maps with m < n, whose rows the scan folds as digits, and with m > n,
    up to 2^63 - 1, whose rows it ranks; rows come from a small pool, near 0
    and near m, so that collisions are common."""
    n = draw(st.integers(1, 40))
    m = draw(st.one_of(st.integers(1, n), st.integers(n + 1, 10**6),
                       st.sampled_from([2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1])))
    rows = st.one_of(st.integers(0, min(m, 50) - 1), st.integers(max(0, m - 3), m - 1))
    pool = draw(st.lists(rows, min_size=1, max_size=n))
    a = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return OneSparseMap(m, n, a, draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(collision_maps(), st.data())
def test_ose_collision_is_the_first_colliding_pair(S, data):
    indices = data.draw(st.none() | st.lists(st.integers(0, S.n - 1), min_size=1, max_size=2 * S.n))
    cert = WITNESSES["ose_collision"].fn(S, indices)
    assert cert.to_jsonable() == first_collision(S, indices).to_jsonable()


def test_ose_collision_on_no_columns_finds_none():
    """A zero-column CSC, which no constructor makes, selects no columns: the
    scan returns none before it ranks an empty block."""
    S = types.SimpleNamespace(m=1, n=0, indptr=np.zeros(1, np.int64), indices=np.zeros(0, np.int64),
                              data=np.zeros(0))
    assert WITNESSES["ose_collision"].fn(S, None).kind == "none"
