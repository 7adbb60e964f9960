"""Time the two sign samplers, ``sample_sparse_sign_jl`` and
``sample_osnap_block``, at several s on three shapes, for one checkout or
for two against each other.

    python scripts/time_samplers.py                          # this checkout's src/
    python scripts/time_samplers.py --against ../parent/src  # parent against change

Each side runs in its own fresh process, alternating which side goes first
from one round to the next, so a slow stretch of the host falls on both
sides alike.  A process warms each call once, then times it ``CALLS`` times
with ``time.perf_counter`` and reports the median; the table gives, per
cell, the median over the ``ROUNDS`` rounds of those medians in ms and the
digest of the sampled matrix's arrays, so two sides that sample different
bytes show it, as does a cell that only one side timed.  There is no gate:
the script prints its table and exits 0.

Shapes: 256 x 10000 (the benchmark's ``construct`` shape), 1024 x 20000 and
4096 x 2048; s in 4, 8, 16, 32 and 512, where s <= m; seed 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

SHAPES = [(256, 10000), (1024, 20000), (4096, 2048)]  # (m, n)
SPARSITIES = [4, 8, 16, 32, 512]
ROUNDS, CALLS = 4, 3  # fresh processes a side, timed calls a cell
HERE = pathlib.Path(__file__).resolve()


def _cells():
    """(sampler, m, n, s) for every timed call."""
    for sampler in ("sign_jl", "osnap_block"):
        for m, n in SHAPES:
            for s in SPARSITIES:
                if s <= m:
                    yield sampler, m, n, s


def _worker() -> None:
    """Time every cell in this process and print one JSON object per cell."""
    from sketchbounds import sample_osnap_block, sample_sparse_sign_jl

    samplers = {"sign_jl": sample_sparse_sign_jl, "osnap_block": sample_osnap_block}
    for sampler, m, n, s in _cells():
        def run():
            return samplers[sampler](m, n, s, 1)
        A = run()  # warm: lazy imports and first-call allocations
        digest = hashlib.sha256()
        for arr in (A.indptr, A.indices, A.data):
            digest.update(arr)
        del A  # 164 MB at 1024 x 20000, s = 512
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        print(json.dumps({"cell": [sampler, m, n, s], "ms": 1e3 * statistics.median(times),
                          "digest": digest.hexdigest()[:12]}), flush=True)


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
    head = "| sampler | m x n | s | " + " | ".join(f"{name} ms" for name in sides) + " | output |"
    print(head)
    print("|" + " --- |" * (head.count("|") - 1))
    for cell in cells:
        sampler, m, n, s = cell
        timed = [[run[cell] for run in runs[name] if cell in run] for name in sides]
        ms = [f"{statistics.median(row['ms'] for row in rows):.2f}" if rows else "-" for rows in timed]
        digests = {row["digest"] for rows in timed for row in rows}
        same = next(iter(digests)) if len(digests) == 1 and all(timed) else "DIFFER"
        print(f"| {sampler} | {m} x {n} | {s} | " + " | ".join(ms) + f" | {same} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
