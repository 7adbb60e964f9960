"""Time the two RIP scans, ``rip_constant_exact`` and
``rip_constant_lower_estimate``, at several k on three sign-JL shapes, for
one checkout or for two against each other.

    python scripts/time_rip_scan.py                          # this checkout's src/
    python scripts/time_rip_scan.py --against ../parent/src  # parent against change

Each side runs in its own fresh process, alternating which side goes first
from one round to the next, so a slow stretch of the host falls on both
sides alike.  A process builds every matrix, warms each call once, then
times it ``CALLS`` times with ``time.perf_counter`` and reports the median;
the table gives, per cell, the median over the ``ROUNDS`` rounds of those
medians in ms and the digest of the result (delta, worst support), so two
sides that report different results show it, as does a cell that only one
side timed.  There is no gate: the script prints its table and exits 0.

Shapes: 64 x 60 at s = 4 (the benchmark's ``measure`` matrix), 64 x 1000 at
s = 8 (the README tour's) and 256 x 2000 at s = 8; k in 1, 2, 3, 8, 32 and
64, where k <= n.  The exact scan runs only where C(n, k) is at most
``MAX_EXACT_SUPPORTS``; the estimate draws ``TRIALS`` supports at seed 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

SHAPES = [(64, 60, 4, 1), (64, 1000, 8, 7), (256, 2000, 8, 1)]  # (m, n, s, seed)
KS = [1, 2, 3, 8, 32, 64]
ROUNDS, CALLS, TRIALS = 4, 3, 5000  # fresh processes a side, timed calls a cell, estimate draws
HERE = pathlib.Path(__file__).resolve()


def _cells(max_exact: int):
    """(m, n, s, seed, k, scan) for every timed call."""
    for m, n, s, seed in SHAPES:
        for k in KS:
            if k > n:
                continue
            if math.comb(n, k) <= max_exact:
                yield m, n, s, seed, k, "exact"
            yield m, n, s, seed, k, "estimate"


def _worker() -> None:
    """Time every cell in this process and print one JSON object per cell."""
    from sketchbounds import rip_constant_exact, rip_constant_lower_estimate, sample_sparse_sign_jl
    from sketchbounds.measures import MAX_EXACT_SUPPORTS

    matrices = {}
    for m, n, s, seed, k, scan in _cells(MAX_EXACT_SUPPORTS):
        if (m, n) not in matrices:
            matrices[m, n] = sample_sparse_sign_jl(m, n, s, seed)
        A = matrices[m, n]
        if scan == "exact":
            def run():
                return rip_constant_exact(A, k)
        else:
            def run():
                return rip_constant_lower_estimate(A, k, TRIALS, 1)
        result = run()  # warm: lazy imports and first-call allocations
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        digest = hashlib.sha256(repr((result.delta, result.worst_support)).encode()).hexdigest()[:12]
        print(json.dumps({"cell": [m, n, k, scan], "ms": 1e3 * statistics.median(times), "digest": digest}),
              flush=True)


def _run_side(src: str) -> dict:
    """One fresh process timing every cell against the package in `src`."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, str(HERE), "--worker"],
                         env=env, check=True, capture_output=True, text=True).stdout
    return {tuple(row["cell"]): row for row in map(json.loads, out.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(HERE.parent.parent / "src"), help="the package's source tree to time")
    parser.add_argument("--against", help="a second source tree, timed in alternation with --src")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker()
        return 0
    sides = {"change": args.src} if args.against is None else {"parent": args.against, "change": args.src}
    runs = {name: [] for name in sides}
    for r in range(ROUNDS):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for name in order:
            runs[name].append(_run_side(sides[name]))
    cells = list(dict.fromkeys(cell for name in sides for run in runs[name] for cell in run))
    head = "| m x n | k | scan | " + " | ".join(f"{name} ms" for name in sides) + " | results |"
    print(head)
    print("|" + " --- |" * (head.count("|") - 1))
    for cell in cells:
        m, n, k, scan = cell
        timed = [[run[cell] for run in runs[name] if cell in run] for name in sides]
        ms = [f"{statistics.median(row['ms'] for row in rows):.2f}" if rows else "-" for rows in timed]
        digests = {row["digest"] for rows in timed for row in rows}
        same = "equal" if len(digests) == 1 and all(timed) else "DIFFER"
        print(f"| {m} x {n} | {k} | {scan} | " + " | ".join(ms) + f" | {same} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
