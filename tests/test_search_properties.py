"""Searches never claim more than the exact measures.

Each certificate or estimate bounds, from below, a quantity the library
computes exactly: a sampled delta_k is at most the enumerated one, a
pigeonhole sparsity bound is at most the matrix's column sparsity, and an
exposed pair's dot is at most the coherence.  The pigeonhole itself holds: the
largest t-type group is at least n over the count of t-types.  Tier-1 sized: n <= 40, k <= 3.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from sketchbounds import (
    SparseMatrix,
    coherence,
    column_sparsity,
    rip_constant_exact,
    rip_constant_lower_estimate,
    row_mass_violation_search,
    sample_osnap_block,
    sample_sparse_sign_jl,
    sign_pattern_certify,
    ttype_collision_certify,
    ttype_count_bound,
    TTYPE_GROUP_CONSTANT,
)
from sketchbounds.matrices import to_csr
from sketchbounds.witnesses import IncoherencePair, NoFinding, _max_dot_pair, _ttype_keys, group_columns

SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def sign_matrices(draw):
    """A sampled sign_jl or osnap_block matrix, small enough to enumerate."""
    s = draw(st.integers(1, 4), label="s")
    m = s * draw(st.integers(1, 6), label="m / s")
    n = draw(st.integers(2, 40), label="n")
    sampler = draw(st.sampled_from([sample_sparse_sign_jl, sample_osnap_block]), label="sampler")
    return sampler(m, n, s, draw(SEEDS, label="seed"))


def hadamard(order):
    H = np.ones((1, 1))
    while H.shape[0] < order:
        H = np.block([[H, H], [H, -H]])
    return H


def planted_group(order, r, N, spare_rows=0):
    """N <= order sign columns that share t = 2r - 1 signed rows, the rows
    0..t-1 with sign +, and then carry r blocks of a simplex code: rows of a
    Hadamard matrix of the given order with its first column dropped,
    pairwise dot -1.  Every dot inside the group is (t - r)/s = (r - 1)/s,
    with s = t + r(order - 1), so an eps a little above it leaves no pair to
    expose.  Returns the dense m-by-N columns, t and that eps."""
    t = 2 * r - 1
    s = t + r * (order - 1)
    group = np.hstack([np.ones((N, t))] + [hadamard(order)[:N, 1:]] * r)
    columns = np.zeros((s + spare_rows, N))
    columns[:s] = group.T / math.sqrt(s)
    return columns, t, (r - 1) / s + 0.01


@st.composite
def planted_groups(draw):
    """A planted group, then sampled sign_jl columns of its sparsity."""
    order = draw(st.sampled_from([4, 8]), label="order")
    columns, t, eps = planted_group(order, draw(st.integers(1, 3), label="r"),
                                    draw(st.integers(2, order), label="N"),
                                    draw(st.integers(0, 8), label="spare rows"))
    m, s = columns.shape[0], int(np.count_nonzero(columns[:, 0]))
    extra = draw(st.integers(0, 40 - columns.shape[1]), label="extra")
    B = sample_sparse_sign_jl(m, max(extra, 1), s, draw(SEEDS, label="seed")).to_dense()[:, :extra]
    return columns, B, t, eps


@settings(max_examples=60, deadline=None)
@given(sign_matrices(), st.data())
def test_sampled_rip_is_at_most_exact_rip(A, data):
    k = data.draw(st.integers(1, min(3, A.n)), label="k")
    trials = data.draw(st.integers(1, 300), label="trials")
    seed = data.draw(SEEDS, label="estimate seed")
    assert rip_constant_lower_estimate(A, k, trials, seed).delta <= rip_constant_exact(A, k).delta


def check_certificate(A, cert):
    if cert.kind == "sparsity_lower_bound":
        assert cert.bound_value <= column_sparsity(A)
    elif cert.kind == "incoherence_pair":
        assert abs(cert.dot) <= coherence(A)
    else:
        assert cert.kind == "none"
    return cert.kind


@settings(max_examples=60, deadline=None)
@given(sign_matrices(), st.data())
def test_pigeonhole_searches_on_sampled_matrices(A, data):
    s = column_sparsity(A)
    t = data.draw(st.integers(1, s), label="t")
    # a little inside each search's precondition, so that rounding keeps it
    eps = data.draw(st.floats(0.0, 0.999 * t / (2 * s)), label="sign eps")
    check_certificate(A, sign_pattern_certify(A, eps, t, full_enumeration=data.draw(st.booleans())))
    eps = data.draw(st.floats(0.0, 0.999 * t / s / TTYPE_GROUP_CONSTANT), label="ttype eps")
    check_certificate(A, ttype_collision_certify(A, eps, t))
    check_certificate(A, row_mass_violation_search(A, data.draw(st.floats(0.01, 0.49), label="row eps")))


@settings(max_examples=40, deadline=None)
@given(planted_groups())
def test_pigeonhole_searches_on_planted_groups(planted):
    columns, B, t, eps = planted
    # alone, the group's pattern is the largest group and no pair exposes
    group = SparseMatrix.from_dense(columns)
    assert check_certificate(group, sign_pattern_certify(group, eps, t)) == "sparsity_lower_bound"
    # next to sampled columns the largest group may be another one
    A = SparseMatrix.from_dense(np.hstack([columns, B]))
    check_certificate(A, sign_pattern_certify(A, eps, t))
    # the t-type precondition t/s > C eps needs an eps below the group's dots
    check_certificate(A, ttype_collision_certify(A, t / column_sparsity(A) / TTYPE_GROUP_CONSTANT / 2, t))


def test_the_planted_group_of_eight():
    # Hadamard order 8, t = 3, r = 2: s = 17, and eps = 1/17 + 0.01
    columns, t, eps = planted_group(8, 2, 8)
    A = SparseMatrix.from_dense(columns)
    cert = sign_pattern_certify(A, eps, t)
    assert (cert.kind, cert.group_size, cert.bound_value) == ("sparsity_lower_bound", 8, 5.25)
    assert cert.bound_value <= column_sparsity(A) == 17


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_largest_ttype_group_has_its_pigeonhole_share(data):
    # small m, so that n columns outnumber the t-types and the bound bites
    s = data.draw(st.integers(1, 3), label="s")
    m = s * data.draw(st.integers(1, 2), label="m / s")
    n = data.draw(st.integers(2, 200), label="n")
    sampler = data.draw(st.sampled_from([sample_sparse_sign_jl, sample_osnap_block]), label="sampler")
    A = sampler(m, n, s, data.draw(SEEDS, label="seed"))
    t = data.draw(st.integers(1, s), label="t")
    share = -(-n // ttype_count_bound(m, s, t))
    assert group_columns(_ttype_keys(A, t, s)).size >= share


def row_mass_oracle(A, eps):
    """row_mass_violation_search as a loop over all m rows of A's CSR form,
    stored or not, for unit columns and eps in (0, 1/2)."""
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


@st.composite
def unit_column_matrices(draw):
    """Columns of 1 to 4 entries on few rows, so rows overload: +-1/sqrt(s)
    entries, or Gaussian ones normalized, whose squares differ in a row."""
    m = draw(st.integers(1, 6), label="m")
    n = draw(st.integers(1, 40), label="n")
    rng = np.random.default_rng(draw(SEEDS, label="seed"))
    counts = rng.integers(1, min(m, 4) + 1, n)
    indices = np.concatenate([np.sort(rng.choice(m, k, replace=False)) for k in counts])
    if draw(st.booleans(), label="signs"):
        data = rng.choice([-1.0, 1.0], indices.size) / np.sqrt(np.repeat(counts, counts))
    else:
        data = rng.standard_normal(indices.size)
        data /= np.sqrt(np.repeat(np.add.reduceat(data * data, np.cumsum(counts) - counts), counts))
    return SparseMatrix.from_csc(m, n, np.concatenate(([0], np.cumsum(counts))), indices, data)


@settings(max_examples=150, deadline=None)
@given(unit_column_matrices(), st.floats(0.01, 0.49))
@example(SparseMatrix.from_csc(3, 5, range(6), [1] * 5, [1.0] * 5), 0.3)  # the fewest entries a hit takes
def test_row_mass_search_matches_the_all_rows_oracle(A, eps):
    got, want = row_mass_violation_search(A, eps), row_mass_oracle(A, eps)
    assert got.to_jsonable() == want.to_jsonable()


def test_row_mass_search_visits_stored_rows_only():
    """2^40 rows, two entries on row 5: nothing is allocated per row."""
    A = SparseMatrix.from_csc(2**40, 3, [0, 1, 2, 3], [5, 5, 7], [1.0, 1.0, 1.0])
    assert row_mass_violation_search(A, 0.3).kind == "none"
