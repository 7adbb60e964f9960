"""The benchmark's three job mixes, their inputs, and their output checks.

A workload is a fixed list of CLI jobs.  A *pass* runs the list once, in
order, through ``sketchbounds.cli.main``.  Setup writes the inputs the jobs
read (matrix artifacts and one config file per job) from the workload seed,
using the library's own samplers; the program sees only those files.

Why these three, and which ROADMAP items each is there to exercise:

``sample`` -- ``construct sign_jl`` and ``construct osnap_block`` at m=256,
    n=10000, s=8; ``stream-demo`` at the same size with 20000 updates; and
    ``sweep ose_failure`` with d=8, n=256, m in {32, 64, 128}, 300 trials.
    Time goes to ``rng.substream`` (one call per column), the sampler loops,
    ``SparseMatrix`` validation and ``matrix_to_json``.  Nothing is loaded and
    no exact kernel runs.  It is the only workload on the ``OneSparseMap`` /
    ``derive_seed`` Monte Carlo path.  Exercises item 2 (CSC storage) through
    its sampler and validation paths; bypasses item 3.
``measure`` -- four ``measure`` jobs on stored artifacts: ``coherence`` on
    the 256x10000 sign-JL matrix, ``rip_exact`` with k=3 on a 64x60, s=4
    matrix (34,220 supports), ``rip_lower_estimate`` with k=8 and 5000 trials
    on the same matrix, and ``row_mass_profile`` with x=0.1 on the large one.
    Time goes to ``matrix_from_json`` plus validation (the read side of what
    ``sample`` writes), the blocked BLAS Gram, and one eigensolve per
    support.  No sampling or witness code runs.  Exercises item 3's batched
    RIP; bypasses the pigeonhole grouping.
``witness`` -- ``ttype_collision`` (eps=0.03, t=2), ``sign_pattern`` (eps=0.1,
    t=2) and ``rip_pattern`` (k=4) on the sign-JL matrix, ``row_mass``
    (eps=0.3) on ``code_to_incoherent(random_code(q=16, t=8, N=400,
    eps=0.5))``, and ``ose_collision`` on a 4096x20000 CountSketch.  Time
    goes to the grouping (``ttype_of`` 10k calls per job, ``pattern_at_scale``
    30k) and to loads; no eigensolve runs.  Searches that find a certificate
    (exit 2) mix with searches that find none (exit 0).  Exercises item 3's
    ``group_columns``; bypasses RIP.

Every job's preconditions hold for any seed (t/s = 0.25 > C * 0.03 for the
t-type search, t = 2 >= 2 * 0.1 * 8 for the sign patterns, every sign column
has a scale profile), so no job is expected to fail.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

M, N, S = 256, 10000, 8


@dataclass(frozen=True)
class Job:
    command: str
    config: str  # path of the job's config file, relative to the checkout
    params: dict


def _write_config(workdir: str, index: int, command: str, body: dict) -> Job:
    path = os.path.join(workdir, f"job{index}-{command}.json")
    with open(path, "w") as fh:
        json.dump({"command": command, **body}, fh, sort_keys=True)
    return Job(command=command, config=path, params=body["params"])


def _jl(sb, seed, workdir):
    path = os.path.join(workdir, "sign_jl.json")
    sb.save_matrix(sb.sample_sparse_sign_jl(M, N, S, sb.derive_seed(seed, 1)), path)
    return path


def setup_sample(sb, seed, workdir):
    size = {"m": M, "n": N, "s": S}
    specs = [
        ("construct", {"params": {"family": "sign_jl", **size}, "seed": sb.derive_seed(seed, 0, 0)}),
        ("construct", {"params": {"family": "osnap_block", **size}, "seed": sb.derive_seed(seed, 0, 1)}),
        ("stream-demo", {"params": {**size, "updates": 20000}, "seed": sb.derive_seed(seed, 0, 2)}),
        ("sweep", {"params": {"experiment": "ose_failure", "d": 8, "n": 256,
                              "grid": {"param": "m", "values": [32, 64, 128]}},
                   "trials": 300, "seed": sb.derive_seed(seed, 0, 3)}),
    ]
    return [_write_config(workdir, i, cmd, body) for i, (cmd, body) in enumerate(specs)]


def setup_measure(sb, seed, workdir):
    jl = _jl(sb, seed, workdir)
    small = os.path.join(workdir, "small.json")
    sb.save_matrix(sb.sample_sparse_sign_jl(64, 60, 4, sb.derive_seed(seed, 2)), small)
    specs = [
        {"params": {"measure": "coherence", "input": jl}},
        {"params": {"measure": "rip_exact", "input": small, "k": 3}},
        {"params": {"measure": "rip_lower_estimate", "input": small, "k": 8},
         "trials": 5000, "seed": sb.derive_seed(seed, 3)},
        {"params": {"measure": "row_mass_profile", "input": jl, "x": 0.1}},
    ]
    return [_write_config(workdir, i, "measure", body) for i, body in enumerate(specs)]


def setup_witness(sb, seed, workdir):
    jl = _jl(sb, seed, workdir)
    code = os.path.join(workdir, "code_matrix.json")
    words = sb.random_code(16, 8, 400, 0.5, sb.derive_seed(seed, 4))
    sb.save_matrix(sb.code_to_incoherent(words), code)
    cs = os.path.join(workdir, "countsketch.json")
    sb.save_one_sparse_map(sb.sample_countsketch(4096, 20000, sb.derive_seed(seed, 5)), cs)
    specs = [
        {"witness": "ttype_collision", "input": jl, "eps": 0.03, "t": 2},
        {"witness": "sign_pattern", "input": jl, "eps": 0.1, "t": 2},
        {"witness": "rip_pattern", "input": jl, "k": 4},
        {"witness": "row_mass", "input": code, "eps": 0.3},
        {"witness": "ose_collision", "input": cs},
    ]
    return [_write_config(workdir, i, "witness", {"params": p}) for i, p in enumerate(specs)]


SETUPS = {"sample": setup_sample, "measure": setup_measure, "witness": setup_witness}


# --- output checks ---------------------------------------------------------------
#
# Each check gets the package, the job, its exit code and its stdout, and
# returns a description of what is wrong, or None.  They run outside the
# timed region, once per job on the warm pass; later passes must repeat the
# warm pass's bytes exactly.

class Loaded:
    """Loads each artifact once for the checks of one run."""

    def __init__(self, sb):
        self.sb = sb
        self._cache = {}

    def __call__(self, path):
        if path not in self._cache:
            with open(path) as fh:
                text = fh.read()
            obj = json.loads(text)
            load = self.sb.one_sparse_map_from_json if "a" in obj else self.sb.matrix_from_json
            self._cache[path] = load(text)
        return self._cache[path]


def _check_construct(sb, load, job, code, out):
    A = sb.matrix_from_json(out)
    if sb.matrix_to_json(A) != out:
        return "artifact does not round-trip through load and save byte-for-byte"
    p = job.params
    if (A.m, A.n, A.nnz, sb.column_sparsity(A)) != (p["m"], p["n"], p["n"] * p["s"], p["s"]):
        return f"artifact has shape {A.m}x{A.n} and {A.nnz} nonzeros"
    return None


def _check_stream_demo(sb, load, job, code, out):
    summary = json.loads(out)["summary"]
    if summary["updates"] != job.params["updates"] or summary["column_sparsity"] != job.params["s"]:
        return f"summary does not echo the config: {summary}"
    if not summary["max_abs_deviation"] <= 1e-9:
        return f"streamed sketch deviates from A @ x by {summary['max_abs_deviation']}"
    return None


def _check_sweep(sb, load, job, code, out):
    rows = json.loads(out)["rows"]
    values = job.params["grid"]["values"]
    if [r["param"] for r in rows] != values or not all(0.0 <= r["value"] <= 1.0 for r in rows):
        return f"sweep rows are not one failure rate per grid point: {rows}"
    return None


def _support_delta(A, support):
    B = A.submatrix_dense(support)
    w = np.linalg.eigvalsh(B.T @ B)
    return max(float(w[-1]) - 1.0, 1.0 - float(w[0]))


def _check_measure(sb, load, job, code, out):
    p = job.params
    value = json.loads(out)["value"]
    A = load(p["input"])
    name = p["measure"]
    if name == "coherence":
        return None if 0.0 < value <= 1.0 + 1e-12 else f"coherence {value} outside (0, 1]"
    if name in ("rip_exact", "rip_lower_estimate"):
        support = value["worst_support"]
        if len(support) != p["k"] or not math.isclose(value["delta"], _support_delta(A, support),
                                                       rel_tol=1e-9, abs_tol=1e-12):
            return f"delta {value['delta']} does not recompute on support {support}"
        return None
    if name == "row_mass_profile":
        thr = math.sqrt(p["x"])
        big = sum(int(np.count_nonzero(np.abs(A.column(j)[1]) > thr)) for j in range(A.n))
        counted = sum(pos + neg for pos, neg in value["per_row"])
        if len(value["per_row"]) != A.m or counted != big:
            return f"row mass counts {counted} entries above sqrt(x), the matrix has {big}"
        return None
    return f"no check for measure {name!r}"


def _check_witness(sb, load, job, code, out):
    obj = json.loads(out)
    if code != (0 if obj["kind"] == "none" else 2):
        return f"exit code {code} disagrees with certificate kind {obj['kind']!r}"
    if code == 0:
        return None
    fields = {k: v for k, v in obj.items() if k != "vector"}
    if "vector" in obj:
        fields["vector"] = np.asarray(obj["vector"])
    cert = sb.Certificate(**fields)
    if not sb.verify_certificate(cert, load(job.params["input"])):
        return f"{obj['kind']} certificate does not verify against the artifact"
    return None


CHECKS = {
    "construct": _check_construct,
    "stream-demo": _check_stream_demo,
    "sweep": _check_sweep,
    "measure": _check_measure,
    "witness": _check_witness,
}


def check_job(sb, load, job, code, out, err):
    """Return what is wrong with one job's result, or None."""
    allowed = (0, 2) if job.command == "witness" else (0,)
    if code not in allowed:
        return f"exit code {code!r}, expected one of {allowed}: {err.strip()[-300:]}"
    try:
        return CHECKS[job.command](sb, load, job, code, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"output does not parse as expected: {exc!r}"
