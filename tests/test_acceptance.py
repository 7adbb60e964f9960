"""Acceptance suite: eleven end-to-end checks of the library's guarantees.

Each test prints a one-line verdict so a full run doubles as a report.
"""

import json
import math
import time

import numpy as np

from sketchbounds import (
    Code,
    SparseMatrix,
    apply,
    code_max_agreement,
    code_to_incoherent,
    coherence,
    column_sparsity,
    min_sparsity_from_inequality,
    ose_collision_witness,
    ose_failure_probability,
    random_code,
    rip_constant_exact,
    rip_pattern_witness,
    row_mass_profile,
    row_mass_violation_search,
    sample_countsketch,
    sample_osnap_block,
    sample_sparse_sign_jl,
    stream_updates,
    ttype_count_bound,
    ttype_of,
    verify_certificate,
    verify_osnap_properties,
)
from sketchbounds.cli import main as cli_main
from sketchbounds.rng import derive_seed, substream
from sketchbounds.witnesses import TType

from conftest import dense

SEED = 20260816


def report(criterion: int, label: str, ok: bool) -> None:
    print(f"[criterion {criterion}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {label}"


def test_criterion_01_ose_failure_rate_matches_birthday_bound():
    exact_failure = 1.0 - math.prod(1.0 - i / 256.0 for i in range(32))
    start = time.perf_counter()
    rep = ose_failure_probability(m=256, d=32, n=2048, trials=2000, seed=SEED)
    elapsed = time.perf_counter() - start
    report(1, f"rate {rep.rate} vs exact {exact_failure:.6f}",
           abs(rep.rate - exact_failure) <= 0.03)
    report(1, f"runtime {elapsed:.2f}s", elapsed < 10.0)
    rates = [
        ose_failure_probability(m, 32, 2048, trials=400, seed=derive_seed(SEED, idx)).rate
        for idx, m in enumerate((64, 128, 256, 512, 1024))
    ]
    report(1, f"m-sweep rates {rates} nonincreasing",
           all(a >= b for a, b in zip(rates, rates[1:])))


def test_criterion_02_kernel_witnesses_are_exact():
    # 32 columns into 8 rows: every map has a collision by pigeonhole
    checked = 0
    for seed in range(1000):
        S = sample_countsketch(8, 32, seed)
        cert = ose_collision_witness(S, range(32))
        assert cert.kind == "kernel_witness"
        x = cert.vector
        assert np.issubdtype(x.dtype, np.integer)
        image = apply(S, x)
        assert not image.any()  # exactly zero, integer arithmetic
        assert int(x @ x) == 2
        assert verify_certificate(cert, S)
        checked += 1
    report(2, f"{checked} kernel witnesses, all exactly in the kernel", checked == 1000)


def _hundred_codes() -> list[Code]:
    g = substream(34)
    codes = []
    while len(codes) < 100:
        q = int(g.integers(2, 9))
        t = int(g.integers(1, 7))
        n_max = min(32, q**t)
        if n_max < 2:
            continue
        N = int(g.integers(2, n_max + 1))
        eps = float(g.choice([0.25, 0.5, 0.75, 1.0]))
        try:
            codes.append(random_code(q, t, N, eps, int(g.integers(0, 2**32))))
        except Exception:
            continue  # infeasible draw; try another
    return codes


def test_criterion_03_and_04_code_matrices_pass_row_mass_and_coherence():
    codes = _hundred_codes()
    flags = 0
    grids_checked = 0
    worst_gap = 0.0
    searches = 0
    for c in codes:
        A = code_to_incoherent(c)
        eps_hat = coherence(A)
        worst_gap = max(worst_gap, abs(eps_hat - code_max_agreement(c) / c.t))
        x = 2.0 * eps_hat
        while 0.0 < x <= 1.0:
            prof = row_mass_profile(A, x)
            flags += len(prof.flagged_rows)
            grids_checked += 1
            x *= 2.0
        if 0.0 < eps_hat < 0.5:
            assert row_mass_violation_search(A, eps_hat).kind == "none"
            searches += 1
    report(3, f"0 row-mass flags over {grids_checked} thresholds "
              f"({searches} clean searches)", flags == 0 and grids_checked > 0)
    report(4, f"coherence == max_agreement/t on 100 codes (worst gap {worst_gap:.2e})",
           worst_gap <= 1e-12)


def test_criterion_05_exact_rip_oracle_values():
    eye = dense(np.eye(5))
    deltas = [rip_constant_exact(eye, k).delta for k in (1, 2, 3, 4)]
    report(5, f"identity deltas {deltas}", all(abs(d) <= 1e-12 for d in deltas))

    dup = dense([[1.0, 1.0], [0.0, 0.0]])
    d2 = rip_constant_exact(dup, 2).delta
    report(5, f"duplicate columns delta_2 = {d2}", abs(d2 - 1.0) <= 1e-12)

    r = 1.0 / math.sqrt(2.0)
    wide = dense([[1.0, 0.0, r], [0.0, 1.0, r]])
    d2 = rip_constant_exact(wide, 2).delta
    report(5, f"2x3 example delta_2 = {d2} vs 1/sqrt(2)", abs(d2 - r) <= 1e-9)


def _random_instance(g: np.random.Generator, duplicate: bool) -> tuple[SparseMatrix, int]:
    m = int(g.integers(4, 11))
    n = int(g.integers(3, 13))
    nnz = int(g.integers(1, min(m, 4) + 1))
    cols = []
    for _ in range(n):
        rows = np.sort(g.choice(m, size=nnz, replace=False))
        vals = g.standard_normal(nnz)
        vals /= math.sqrt(float(vals @ vals))
        cols.append(list(zip(rows.tolist(), vals.tolist())))
    if duplicate:
        cols[-1] = list(cols[0])
    return SparseMatrix(m, n, cols), int(g.integers(2, 4))


def test_criterion_06_rip_witness_never_beats_the_oracle():
    g = substream(66)
    found = 0
    for trial in range(50):
        A, k = _random_instance(g, duplicate=trial % 2 == 1)
        cert = rip_pattern_witness(A, k)
        if cert.kind == "none":
            continue
        found += 1
        delta = rip_constant_exact(A, k).delta
        assert cert.ratio <= 1.0 + delta + 1e-9
        assert verify_certificate(cert, A)
    report(6, f"{found}/50 witnesses found, none exceeded 1 + exact delta", found >= 10)

    dup10 = SparseMatrix(4, 10, [[(0, 1.0)]] * 10)
    for k in (2, 4, 8):
        cert = rip_pattern_witness(dup10, k)
        assert cert.kind != "none" and cert.ratio == float(k)
        assert int(np.count_nonzero(cert.vector)) == k
    report(6, "duplicate family ratios equal k exactly for k in {2,4,8}", True)


def test_criterion_07_ttype_count_stays_under_bound():
    bound = ttype_count_bound(6, 3, 2)
    assert bound == 2700
    g = substream(7)
    seen = set()
    root3 = math.sqrt(3.0)
    for _ in range(10**4):
        v = np.zeros(6)
        sup = g.choice(6, size=3, replace=False)
        sg = g.integers(0, 2, size=3) * 2 - 1
        v[sup] = sg / root3
        seen.add(ttype_of(v, t=2, s=3))
    report(7, f"{len(seen)} distinct 2-types over 10^4 sign vectors (bound {bound})",
           len(seen) <= bound)

    hand = [
        (np.array([0.8, -0.6, 0.0]), 1, 2,
         TType(s=2, locations=(0,), signs=(1,), rounded_squares=(3,))),
        (np.eye(8)[5], 1, 1,
         TType(s=1, locations=(5,), signs=(1,), rounded_squares=(2,))),
        (np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), 2, 2,
         TType(s=2, locations=(0, 1), signs=(1, 1), rounded_squares=(2, 2))),
    ]
    for v, t, s, want in hand:
        assert ttype_of(v, t, s) == want
    report(7, "hand-computed t-types match bit-exactly", True)


def test_criterion_08_osnap_support_products_bounded():
    cells = [(i, j) for i in range(4) for j in range(2)]
    subsets = []
    for size in (1, 2, 3):
        import itertools

        subsets.extend(itertools.combinations(cells, size))
    assert len(subsets) == 92
    for sampler in ("sign_jl", "block"):
        for S in subsets:
            rep = verify_osnap_properties(4, 2, 2, sampler, list(S))
            assert rep.exact_expectation <= rep.exact_bound
    report(8, "92 cell subsets x 2 samplers all satisfy E[prod] <= (s/m)^|S|", True)

    rep = verify_osnap_properties(4, 2, 2, "block", [(0, 0), (2, 0)])
    report(8, f"cross-block same-column equality: {rep.exact_expectation}",
           rep.exact_expectation == rep.exact_bound
           and rep.exact_expectation == __import__("fractions").Fraction(1, 4))

    A = sample_sparse_sign_jl(16, 10**4, 5, 81)
    B = sample_osnap_block(16, 10**4, 4, 82)
    ok = (all(A.column_nnz(j) == 5 for j in range(A.n))
          and all(B.column_nnz(j) == 4 for j in range(B.n)))
    report(8, "10^4 sampled columns have exactly s nonzeros for both samplers", ok)


def test_criterion_09_min_sparsity_matches_exhaustive_scan():
    points = 0
    for q in (10, 10**2, 10**3, 10**4, 10**5, 10**6):
        hi = max(1, math.floor(q / math.e))
        cand = np.arange(1, hi + 1, dtype=np.float64)
        vals = cand * np.log(q / cand)
        for r in (1.0, q / 10.0, q / 4.0):
            if q / r < 2:
                continue
            s = min_sparsity_from_inequality(q, r).value
            assert s * math.log(q / s) >= r
            if s > 1:
                assert (s - 1) * math.log(q / (s - 1)) < r
            assert s == int(cand[np.nonzero(vals >= r)[0][0]])
            points += 1
    report(9, f"solver matches exhaustive scan on {points} grid points", points == 18)


def test_criterion_10_streaming_updates_reproduce_apply():
    A = sample_sparse_sign_jl(256, 512, 8, 42)
    g = substream(10)
    sketch = np.zeros(256)
    x = np.zeros(512)
    for _ in range(10**4):
        i = int(g.integers(0, 512))
        v = float(g.uniform(-1.0, 1.0))
        before = sketch.copy()
        stream_updates(sketch, A, [i], [v])
        x[i] += v
        changed = np.nonzero(sketch != before)[0]
        rows, _ = A.column(i)
        assert A.column_nnz(i) == 8
        assert changed.size == 8 and np.array_equal(changed, rows)
    deviation = float(np.max(np.abs(sketch - apply(A, x))))
    report(10, f"10^4 updates, max deviation {deviation:.2e}, "
               "8 entries touched per update", deviation <= 1e-9)
    assert column_sparsity(A) == 8


def test_criterion_11_cli_runs_are_byte_identical(tmp_path, capsys):
    mat_path = tmp_path / "A.json"
    code = cli_main(["construct", "--config", _cfg(tmp_path, "c1", {
        "command": "construct", "seed": 7,
        "params": {"family": "sign_jl", "m": 8, "n": 5, "s": 3}})])
    mat_path.write_text(capsys.readouterr().out)
    assert code == 0
    map_path = tmp_path / "S.json"
    cli_main(["construct", "--config", _cfg(tmp_path, "c2", {
        "command": "construct", "seed": 3,
        "params": {"family": "countsketch", "m": 4, "n": 16}})])
    map_path.write_text(capsys.readouterr().out)

    commands = {
        "construct": ["construct", "--config", _cfg(tmp_path, "a", {
            "command": "construct", "seed": 7,
            "params": {"family": "sign_jl", "m": 8, "n": 5, "s": 3}})],
        "measure": ["measure", "--config", _cfg(tmp_path, "b", {
            "command": "measure",
            "params": {"measure": "coherence", "input": str(mat_path)}})],
        "witness": ["witness", "--config", _cfg(tmp_path, "w", {
            "command": "witness",
            "params": {"witness": "ose_collision", "input": str(map_path)}})],
        "bounds": ["bounds", "--config", _cfg(tmp_path, "d", {
            "command": "bounds",
            "params": {"formula": "min_sparsity", "q": 100, "r": 10}})],
        "sweep": ["sweep", "--config", _cfg(tmp_path, "e", {
            "command": "sweep", "seed": 5, "trials": 40, "output_format": "csv",
            "params": {"experiment": "ose_failure", "d": 8, "n": 256,
                       "grid": {"param": "m", "values": [32, 64, 128]}}})],
        "stream-demo": ["stream-demo", "--config", _cfg(tmp_path, "f", {
            "command": "stream-demo", "seed": 9, "output_format": "csv",
            "params": {"m": 32, "n": 100, "s": 4, "updates": 500}})],
    }
    for name, argv in commands.items():
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1 == out2 and out1, f"{name} rerun differs"
    report(11, f"{len(commands)} CLI commands rerun byte-identically", True)


def _cfg(tmp_path, name, obj) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)
