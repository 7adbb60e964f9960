"""Time one suite of library calls at shapes the benchmark never runs, for
one checkout or for two against each other.

    python scripts/time_calls.py rip                               # this checkout's src/
    python scripts/time_calls.py samplers --against ../parent/src  # parent against change
    python scripts/time_calls.py loads
    python scripts/time_calls.py witness --against ../parent/src
    python scripts/time_calls.py coherence --against ../parent/src

Suites:

- ``rip``: the two RIP scans, ``rip_constant_exact`` and
  ``rip_constant_lower_estimate``, on three sign-JL matrices: 64 x 60 at
  s = 4 (the benchmark's ``measure`` matrix), 64 x 1000 at s = 8 (the README
  tour's) and 256 x 2000 at s = 8; k in 1, 2, 3, 8, 32 and 64, where k <= n.
  The exact scan runs only where C(n, k) is at most ``MAX_EXACT_SUPPORTS``;
  the estimate draws ``TRIALS`` supports at seed 1.  Digest: the result's
  (delta, worst support).
- ``loads``: ``load_matrix`` of the benchmark's 4096 x 20000 CountSketch
  map, of its 256 x 10000, s = 8 sign-JL matrix, of a 4096 x 2^20 map, of
  a 256 x 2000, s = 8 sign-JL pattern with Gaussian values, which the
  +-c decoder declines and ``json.loads`` reads, and of a 2^17 x 1 unit
  column of 2^17 random signs (``long``: 3.9 MB of one column's text),
  each written to a temporary file first; ``matrix_to_json`` of the
  benchmark's sign-JL matrix; and ``ose_collision_witness`` on the benchmark's map and on a
  2^40 x 20000 one.  Digest: the CSC arrays, the text, or the
  certificate's JSON.
- ``witness``: ``ttype_collision_certify`` (eps = 0.03, t = 2),
  ``sign_pattern_certify`` (eps = 0.1, t = 2) and ``rip_pattern_witness``
  (k = 4) on the benchmark's 256 x 10000, s = 8 sign-JL matrix, as its
  ``witness`` jobs call them; then ``ttype_collision_certify`` and
  ``rip_pattern_witness`` on the same pattern with normalized Gaussian
  values, whose magnitudes vary within each column.
  Digest: the certificate's canonical JSON.
- ``coherence``: ``coherence`` of sign-JL matrices: 256 x 10000 at s = 8
  (the benchmark's ``measure`` matrix at seeds 1 and 3, K = 5 and 4), then
  at seed 11 512 x 10000 at s = 8, 2048 x 4000 at s = 16 and 1024 x 4000 at
  s = 4 (patterns inside one row half first), 128 x 3000 at s = 6 and
  64 x 2000 at s = 4 (one phase: 2 * tau - 2 >= s), 4096 x 2000 at s = 32
  (tau = 1) and 256 x 4000 at s = 16 (the sign Gram).  Digest: the repr of
  the coherence.
- ``samplers``: the two sign samplers, ``sample_sparse_sign_jl`` and
  ``sample_osnap_block``, on 256 x 10000 (the benchmark's ``construct``
  shape), 1024 x 20000 and 4096 x 2048; s in 4, 8, 16, 32 and 512, where
  s <= m; seed 1.  Then the one-sparse OSE sweep,
  ``ose_failure_probability`` at seed 1: the benchmark's three points
  (m in 32, 64 and 128, d = 8, n = 256, 300 trials), m = n = 4096 at
  d = 64 with 300 trials, 2 trials at d = 300 and n = 20,000 (m = 90,000),
  and 20 trials at d = 500, n = 20,000 (m = 250,000), where ``choice``
  shuffles instead of running Floyd's algorithm.  Digest: the sampled
  matrix's CSC arrays, or the sweep's records.

Each side runs in its own fresh process, alternating which side goes first
from one round to the next, so a slow stretch of the host falls on both
sides alike.  A process calls each cell once to warm it and to digest its
result, frees that result, then times the call ``CALLS`` times with
``time.perf_counter`` and reports the median.  The table gives, per cell,
the median over the ``ROUNDS`` rounds of those medians in ms and the digest
both sides agree on, or DIFFER when they do not, or when only one side
timed the cell.  With two sides it also gives the rounds the change won,
pairing round r of one side with round r of the other (a tie counts for
neither), and the parent's quartile spread, q3 - q1 of its rounds' medians
in ms: a speed claim wants the change to win nearly every round by more
than that spread.  There is no gate: the script prints its table and exits
0, or exits 1 with a worker's stderr when a worker fails.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROUNDS, CALLS, TRIALS = 10, 3, 5000  # fresh processes a side, timed calls a cell, estimate draws
HERE = pathlib.Path(__file__).resolve()


def _rip():
    """(cell, call) for every RIP scan timed."""
    from sketchbounds import rip_constant_exact, rip_constant_lower_estimate, sample_sparse_sign_jl
    from sketchbounds.measures import MAX_EXACT_SUPPORTS

    for m, n, s, seed in [(64, 60, 4, 1), (64, 1000, 8, 7), (256, 2000, 8, 1)]:
        A = sample_sparse_sign_jl(m, n, s, seed)
        for k in (k for k in (1, 2, 3, 8, 32, 64) if k <= n):
            if math.comb(n, k) <= MAX_EXACT_SUPPORTS:
                yield [m, n, k, "exact"], functools.partial(rip_constant_exact, A, k)
            yield [m, n, k, "estimate"], functools.partial(rip_constant_lower_estimate, A, k, TRIALS, 1)


def _loads():
    """(cell, call) for every artifact load timed, and the collision search."""
    import tempfile

    import numpy as np

    import sketchbounds as sb

    seed = 1  # the benchmark's seed-1 artifacts
    S = sb.sample_countsketch(4096, 20000, sb.derive_seed(seed, 5))
    J = sb.sample_sparse_sign_jl(256, 10000, 8, sb.derive_seed(seed, 1))
    G = sb.sample_sparse_sign_jl(256, 2000, 8, seed)
    G = sb.SparseMatrix.from_csc(G.m, G.n, G.indptr, G.indices, np.random.default_rng(seed).standard_normal(G.nnz))
    L = sb.SparseMatrix.from_csc(2**17, 1, [0, 2**17], np.arange(2**17),
                                 np.random.default_rng(seed).choice([-1.0, 1.0], 2**17) / 2**8.5)
    with tempfile.TemporaryDirectory() as work:
        for name, A in [("map", S), ("sign_jl", J), ("map", sb.sample_countsketch(4096, 2**20, seed)),
                        ("gaussian", G), ("long", L)]:
            path = os.path.join(work, f"{name}-{A.n}.json")
            (sb.save_one_sparse_map if name == "map" else sb.save_matrix)(A, path)
            yield ["load_matrix", name, A.m, A.n], functools.partial(sb.load_matrix, path)
    yield ["matrix_to_json", "sign_jl", J.m, J.n], functools.partial(sb.matrix_to_json, J)
    for M in (S, sb.sample_countsketch(2**40, 20000, seed)):  # at m > n the rows are ranked, not folded
        yield ["ose_collision_witness", "map", M.m, M.n], functools.partial(sb.ose_collision_witness, M)


def _witness():
    """(cell, call) for every certificate search timed."""
    import numpy as np

    import sketchbounds as sb

    seed = 1  # the benchmark's seed-1 sign-JL matrix
    J = sb.sample_sparse_sign_jl(256, 10000, 8, sb.derive_seed(seed, 1))
    values = np.random.default_rng(seed).standard_normal(J.nnz)
    values /= np.sqrt(np.repeat(np.add.reduceat(values * values, J.indptr[:-1]), np.diff(J.indptr)))
    G = sb.SparseMatrix.from_csc(J.m, J.n, J.indptr, J.indices, values)
    for name, A in [("sign_jl", J), ("gaussian", G)]:
        yield ["ttype_collision_certify", name, "t = 2"], functools.partial(sb.ttype_collision_certify, A, 0.03, 2)
        if name == "sign_jl":
            yield ["sign_pattern_certify", name, "t = 2"], functools.partial(sb.sign_pattern_certify, A, 0.1, 2)
        yield ["rip_pattern_witness", name, "k = 4"], functools.partial(sb.rip_pattern_witness, A, 4)


def _coherence():
    """(cell, call) for every coherence timed."""
    from sketchbounds import coherence, derive_seed, sample_sparse_sign_jl

    # the matrices the benchmark's measure workload writes at seeds 1 and 3
    measure = {"measure 1": derive_seed(1, 1), "measure 3": derive_seed(3, 1)}
    for m, n, s, seed in [(256, 10000, 8, "measure 1"), (256, 10000, 8, "measure 3"), (512, 10000, 8, 11),
                          (2048, 4000, 16, 11), (1024, 4000, 4, 11), (128, 3000, 6, 11), (64, 2000, 4, 11),
                          (4096, 2000, 32, 11), (256, 4000, 16, 11)]:
        yield [m, n, s, seed], functools.partial(coherence, sample_sparse_sign_jl(m, n, s, measure.get(seed, seed)))


def _certificate_json(cert) -> bytes:
    from sketchbounds import canonical_json

    return canonical_json(cert.to_jsonable()).encode()


def _samplers():
    """(cell, call) for every sampler draw and sweep timed."""
    from sketchbounds import ose_failure_probability, sample_osnap_block, sample_sparse_sign_jl

    for name, sample in [("sign_jl", sample_sparse_sign_jl), ("osnap_block", sample_osnap_block)]:
        for m, n in [(256, 10000), (1024, 20000), (4096, 2048)]:
            for s in (s for s in (4, 8, 16, 32, 512) if s <= m):
                yield [name, m, n, s, "-"], functools.partial(sample, m, n, s, 1)
    # the benchmark's sweep points, a larger d, few trials at a large d, and
    # a d at which choice shuffles instead of running Floyd's algorithm
    for m, n, d, trials in [(32, 256, 8, 300), (64, 256, 8, 300), (128, 256, 8, 300), (4096, 4096, 64, 300),
                            (90000, 20000, 300, 2), (250000, 20000, 500, 20)]:
        yield ["ose_failure", m, n, d, trials], functools.partial(ose_failure_probability, m, d, n, trials, 1)


# suite: (the table's cell columns, its cells and calls, the buffers digested from a call's result)
SUITES = {
    "rip": (("m", "n", "k", "scan"), _rip, lambda r: [repr((r.delta, r.worst_support)).encode()]),
    "samplers": (("sampler", "m", "n", "s or d", "trials"), _samplers,
                 lambda r: [repr(r.records).encode()] if hasattr(r, "records") else [r.indptr, r.indices, r.data]),
    "witness": (("search", "matrix", "parameter"), _witness, lambda cert: [_certificate_json(cert)]),
    "coherence": (("m", "n", "s", "seed"), _coherence, lambda r: [repr(r).encode()]),
    "loads": (("call", "artifact", "m", "n"), _loads,
              lambda r: [r.encode()] if isinstance(r, str) else [json.dumps(r.to_jsonable()).encode()]
              if hasattr(r, "to_jsonable") else [r.indptr, r.indices, r.data]),
}


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()[:12]


def _worker(suite: str) -> None:
    """Time every cell of `suite` in this process and print one JSON object per cell."""
    _, cells, parts = SUITES[suite]
    for cell, call in cells():
        # warm: lazy imports and first-call allocations; the result is freed
        # before timing (164 MB for a sampler at 1024 x 20000, s = 512)
        digest = _digest(*parts(call()))
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        print(json.dumps({"cell": cell, "ms": 1e3 * statistics.median(times), "digest": digest}),
              flush=True)


def _run_side(name: str, src: str, suite: str) -> dict:
    """One fresh process timing every cell of `suite` against the package in `src`."""
    proc = subprocess.run([sys.executable, str(HERE), suite, "--worker"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{name} worker on {src} exited {proc.returncode}:\n{proc.stderr}")
    return {tuple(row["cell"]): row for row in map(json.loads, proc.stdout.splitlines())}


def _paired(cell, parent: list, change: list) -> list[str]:
    """The rounds the change won at `cell` out of the rounds both sides timed
    it, and the parent's quartile spread in ms, or "-" where there is none."""
    pairs = [(p[cell]["ms"], c[cell]["ms"]) for p, c in zip(parent, change) if cell in p and cell in c]
    ms = [run[cell]["ms"] for run in parent if cell in run]
    won = f"{sum(c < p for p, c in pairs)}/{len(pairs)}" if pairs else "-"
    if len(ms) < 2:
        return [won, "-"]
    q1, _, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return [won, f"{q3 - q1:.2f}"]


def table(columns, runs: dict) -> list[str]:
    """Markdown rows for `runs`, which maps each side's name, in column order,
    to its processes' {cell: row} dicts; `columns` name a cell's fields.  Two
    sides are the parent, then the change, and get :func:`_paired`'s columns."""
    paired = ["change won", "parent IQR ms"] if len(runs) == 2 else []
    head = "| " + " | ".join([*columns, *(f"{name} ms" for name in runs), "digest", *paired]) + " |"
    lines = [head, "|" + " --- |" * (head.count("|") - 1)]
    for cell in dict.fromkeys(cell for side in runs.values() for run in side for cell in run):
        timed = [[run[cell] for run in side if cell in run] for side in runs.values()]
        ms = [f"{statistics.median(row['ms'] for row in rows):.2f}" if rows else "-" for rows in timed]
        digests = {row["digest"] for rows in timed for row in rows}
        same = next(iter(digests)) if len(digests) == 1 and all(timed) else "DIFFER"
        extra = _paired(cell, *runs.values()) if paired else []
        lines.append("| " + " | ".join([*map(str, cell), *ms, same, *extra]) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", choices=SUITES, help="the calls to time")
    parser.add_argument("--src", default=str(HERE.parent.parent / "src"), help="the package's source tree to time")
    parser.add_argument("--against", help="a second source tree, timed in alternation with --src")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.suite)
        return 0
    sides = {"change": args.src} if args.against is None else {"parent": args.against, "change": args.src}
    runs = {name: [] for name in sides}
    for r in range(ROUNDS):
        for name in list(sides) if r % 2 == 0 else list(sides)[::-1]:
            runs[name].append(_run_side(name, sides[name], args.suite))
    print("\n".join(table(SUITES[args.suite][0], runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
