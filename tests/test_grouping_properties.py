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

import numpy as np
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
    dyadic_scale_count,
    pattern_at_scale,
    rip_pattern_witness,
    scale_profile,
    sign_pattern_certify,
    ttype_collision_certify,
    ttype_of,
)
from sketchbounds.cli import WITNESSES
from sketchbounds.constructions import sample_countsketch
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


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from([2, 3, 5]))
def test_rip_pattern_matches_oracle(A, k):
    assert outcome(rip_pattern_witness, A, k) == outcome(rip_oracle, A, k)


# --- group_columns -----------------------------------------------------------------

def dict_group(keys, valid):
    members: dict = {}
    for j, row in enumerate(keys.tolist()):
        if valid[j]:
            members.setdefault(tuple(row), []).append(j)
    return largest_group(members)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_group_columns_matches_dict_grouping(n, w, spread, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-spread, spread + 1, size=(n, w)).astype(np.int32)
    valid = rng.random(n) < 0.8
    assert group_columns(keys, valid).tolist() == dict_group(keys, valid)
    assert group_columns(keys).tolist() == dict_group(keys, np.ones(n, dtype=bool))


def test_group_columns_edge_cases():
    keys = np.array([[3, 1], [2, 2], [3, 1], [2, 2], [0, 5]], dtype=np.int32)
    assert group_columns(keys, np.zeros(5, dtype=bool)).tolist() == []
    # equal-size groups: the one whose first member is smallest wins
    assert group_columns(keys).tolist() == [0, 2]
    assert group_columns(keys, np.array([False, True, True, True, True])).tolist() == [1, 3]
    # all keys distinct: every group is a singleton, the first one wins
    assert group_columns(np.arange(12, dtype=np.int32).reshape(6, 2)).tolist() == [0]


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
    searches = {name for name, entry in WITNESSES.items() if entry.load is not None}
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
