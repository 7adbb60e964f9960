"""Time sketchbounds CLI job mixes end to end, or layer by layer when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sample --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each pass runs the workload's job list
(see ``workloads.py``) through ``sketchbounds.cli.main(argv)`` in order, with
stdout captured in memory.  After a warm pass, passes repeat until
``--seconds`` have elapsed.

Between jobs and around each setup the run also times a fixed reference loop
of its own, and reports the end-to-end times in reference seconds (see
``REF_S``), so that a slow stretch of a shared host, which slows the loop
too, does not read as a slower program.

``--trace 0`` patches nothing and reports the end-to-end metrics.
``--trace 1`` first runs untraced passes for half the time, then installs
the span tracer (``tracer.py``), repeats setup and runs traced passes for the
other half, and reports the per-layer metrics.  Every metric is printed as
one line with its unit; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine facts, reference-loop times at the start and the end, raw times
with quartiles, one sha256 per job output, the whole per-layer table) goes
to ``.perfbench-out/``, and a traced run also writes its spans there.  The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench-work")
OUT = Path(".perfbench-out")
# Setup is repeated at least this many times, and until this much time has
# been spent on it, and setup_s is the median.
SETUP_REPEATS, SETUP_SECONDS = 5, 2.0
# Reference loops (see `reference`) run before each job of a pass and after
# its last, before and after each setup, and at the start and the end of the
# run.
REFS_PER_JOB, REFS_PER_SETUP, REFS_AT_ENDS = 3, 5, 20

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The per-layer metrics reported in the result line.  Layer times that are
# exactly zero on a workload that never calls the layer (the samplers, the
# kernels, the searches, per-command CLI time) are left to the full table in
# the result file; their exact work counters are here instead.
PER_LAYER = {
    "rng.substream.calls": "count",
    "rng.derive_seed.calls": "count",
    "constructions.columns_sampled": "count",
    "matrices.SparseMatrix.calls": "count",
    "matrices.SparseMatrix.self_s": "s",
    "matrices.canonical_json.self_s": "s",
    "matrices.json_bytes_in": "bytes",
    "matrices.json_bytes_out": "bytes",
    "matrices.self_s": "s",
    "measures.coherence.gram_flops": "flop",
    "measures.rip.supports": "count",
    "measures.self_s": "s",
    "witnesses.ttype_of.calls": "count",
    "witnesses.pattern_at_scale.calls": "count",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}

# Counters that must repeat bit-for-bit for a given workload and seed.
EXACT_COUNTERS = (
    "rng.substream.calls",
    "rng.derive_seed.calls",
    "constructions.columns_sampled",
    "matrices.SparseMatrix.calls",
    "matrices.json_bytes_in",
    "matrices.json_bytes_out",
    "measures.coherence.gram_flops",
    "measures.rip.supports",
    "witnesses.ttype_of.calls",
    "witnesses.pattern_at_scale.calls",
    "witnesses.searches",
    "witnesses.certificates",
)


# --- the reference loop and machine facts -------------------------------------------

# Time on a shared host swings with other tenants' load: a pure-Python loop
# on a shared 2-core Xeon VM ran at 1.0x to 1.9x its best time, in stretches
# from under a second to several minutes, and a pass slowed with it.  So the
# run also times a fixed reference loop of its own (below) before and after
# each job and each setup, and every end-to-end time is reported in
# "reference seconds": each job's or setup's time divided by the median time
# of the reference loops right before and after it, times REF_S.  A change to
# the program moves the measured time and not the reference, so it shows in
# full; a slow stretch of the host moves both.  REF_S is about the loop's
# median time on that VM under its usual load (it took 1.4 ms when the host
# was quiet), so a reference second is about a second there.  The raw
# medians are printed and recorded next to each metric.
REF_S = 2.0e-3
REF_MATRIX = (np.arange(64 * 64, dtype=np.float64) % 7.0).reshape(64, 64)


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of one pass of the reference loop.

    The loop mixes the kinds of work the workloads do (Python dicts and
    lists, many small numpy calls with a Generator each, a small BLAS
    product) and calls nothing from sketchbounds, so no change to the
    program can move it.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    table = {}
    for i in range(1500):
        table[(i, i % 13)] = [float(i)]
    acc = 0
    for i in range(40):
        acc += int(np.sort(np.random.default_rng(i).integers(0, 100, size=8))[0])
    float((REF_MATRIX @ REF_MATRIX).sum())
    return time.perf_counter() - wall, time.process_time() - cpu


def references(count: int) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of `count` passes of the reference loop."""
    runs = [reference() for _ in range(count)]
    return [w for w, _ in runs], [c for _, c in runs]


def bracketed(times: list[float], groups: list[list[float]]) -> list[float]:
    """Each of `times` in reference seconds.

    groups[i] and groups[i + 1] hold the reference-loop times taken right
    before and right after times[i]; the time is divided by their median, so
    it is compared with the loop in the same stretch of host load.
    """
    return [t / statistics.median(groups[i] + groups[i + 1]) * REF_S for i, t in enumerate(times)]


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# --- setup and passes ----------------------------------------------------------------

def import_package():
    """Import sketchbounds and its CLI afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "sketchbounds" or n.startswith("sketchbounds.")]:
        del sys.modules[name]
    sb = importlib.import_module("sketchbounds")
    cli = importlib.import_module("sketchbounds.cli")
    if Path(sb.__file__).resolve().parent != ROOT / "src" / "sketchbounds":
        raise SystemExit(f"perfbench: imported sketchbounds from {sb.__file__}, not from src/")
    return sb, cli


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def setup(workload: str, seed: int, reimport: bool, sb=None):
    """Generate the workload's inputs into a fresh work directory."""
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gc.collect()
    start = time.perf_counter()
    cli = None
    if reimport:
        sb, cli = import_package()
    jobs = workloads.SETUPS[workload](sb, seed, str(workdir))
    return time.perf_counter() - start, sb, cli, jobs, tree_digest(workdir)


def run_pass(cli, jobs, trace=None):
    """Run the job list once, with REFS_PER_JOB reference loops before each
    job and after the last.

    Returns [(exit code, stdout, stderr, wall s, cpu s)], one per job, and
    one (wall s list, CPU s list) of reference loops before each job and
    after the last.
    """
    results, refs = [], []
    gc.collect()
    for index, job in enumerate(jobs):
        refs.append(references(REFS_PER_JOB))
        if trace is not None:
            trace.job = index
        out, err = io.StringIO(), io.StringIO()
        start, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([job.command, "--config", job.config])
            except Exception:  # a crash is a failed job, not a failed benchmark
                code = None
                traceback.print_exc()
        results.append((code, out.getvalue(), err.getvalue(),
                        time.perf_counter() - start, time.process_time() - cpu))
    refs.append(references(REFS_PER_JOB))
    return results, refs


class Gate:
    """Counts attempted and failed jobs and remembers why each failure failed."""

    def __init__(self, sb, jobs):
        self.sb, self.jobs = sb, jobs
        self.load = workloads.Loaded(sb)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, problem):
        self.failed += 1
        self.problems.append(problem)

    def warm(self, results):
        """Full checks on the warm pass, which becomes the reference."""
        self.reference = [(code, hashlib.sha256(out.encode()).hexdigest()) for code, out, *_ in results]
        for index, (job, (code, out, err, *_)) in enumerate(zip(self.jobs, results)):
            self.attempted += 1
            problem = workloads.check_job(self.sb, self.load, job, code, out, err)
            if problem:
                self._fail(f"job {index} ({job.command}): {problem}")

    def repeat(self, results, label):
        """Later passes must repeat the warm pass's exit codes and stdout bytes."""
        for index, (code, out, *_) in enumerate(results):
            self.attempted += 1
            if (code, hashlib.sha256(out.encode()).hexdigest()) != self.reference[index]:
                self._fail(f"job {index}: {label} output differs from the warm pass")


def timed_passes(cli, jobs, gate, seconds, label, trace=None) -> list[dict]:
    """Run passes until `seconds` have elapsed (at least one); one dict per pass.

    A pass's wall and CPU time are the sums of its jobs' times, so the
    reference loops between the jobs are not counted in them; `ref_wall_s`
    and `ref_cpu_s` hold the loops' times before each job and after the last.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        lo = len(trace.spans) if trace else 0
        results, refs = run_pass(cli, jobs, trace)
        gate.repeat(results, f"{label} pass {len(passes) + 1}")
        record = {"job_wall_s": [r[3] for r in results], "job_cpu_s": [r[4] for r in results],
                  "ref_wall_s": [w for w, _ in refs], "ref_cpu_s": [c for _, c in refs]}
        record["wall_s"], record["cpu_s"] = sum(record["job_wall_s"]), sum(record["job_cpu_s"])
        if trace:
            record["spans"] = [lo, len(trace.spans)]
            record["layers"] = layer_table(trace, lo, len(trace.spans), record["job_wall_s"], jobs)
        passes.append(record)
    return passes


def pass_metric(passes: list[dict], key: str) -> float:
    """Median pass `key` ("wall_s" or "cpu_s") in reference seconds: each
    job's time is bracketed by its own reference loops, then summed."""
    return statistics.median(sum(bracketed(p[f"job_{key}"], p[f"ref_{key}"])) for p in passes)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# --- per-layer metrics ---------------------------------------------------------------

def layer_table(trace, lo, hi, job_walls, jobs) -> dict:
    """Per-layer numbers of one traced pass whose spans are spans[lo:hi].

    `job_walls` are the benchmark's own timings of each job.  Since self time
    is a span's duration minus its children's, the spans' self times add up
    to the root `cli.main` spans' durations, and `trace.unattributed_s` (job
    time minus that sum) is only the stdout redirect and wrapper overhead
    around each root span.  `trace.misnested_spans` counts spans that do not
    sit inside their parent span and job, or whose children outlast them;
    any such span makes the self times wrong.
    """
    spans = trace.spans
    own = tracing.self_times(spans, lo, hi)
    table: dict = defaultdict(float, dict.fromkeys(EXACT_COUNTERS, 0))
    for (name_id, start, end, parent, job), self_s in zip(spans[lo:hi], own):
        name = trace.names[name_id]
        layer = name.split(".", 1)[0]
        table[f"{name}.calls"] += 1
        table[f"{name}.self_s"] += self_s
        table[f"{layer}.self_s"] += self_s
        if layer == "cli":
            table[f"cli.{jobs[job].command}.self_s"] += self_s
        if name.startswith("measures.rip_constant_"):
            table["measures.rip.inclusive_s"] += end - start
    table.update(trace.take_counters())
    table["trace.unattributed_s"] = sum(job_walls) - sum(own)
    table["trace.misnested_spans"] = tracing.misnested(spans, lo, hi, own)
    rip_s = table.pop("measures.rip.inclusive_s", 0.0)
    table["measures.rip.supports_per_s"] = table["measures.rip.supports"] / rip_s if rip_s else 0.0
    searches = table["witnesses.searches"]
    table["witnesses.hit_ratio"] = table["witnesses.certificates"] / searches if searches else 0.0
    return dict(table)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "json_bytes" in name:
        return "bytes"
    if name.endswith("gram_flops"):
        return "flop"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def traced_run(args, sb, cli, jobs, gate, digests, seconds, problems):
    """Repeat setup and run passes under the tracer; write the spans.

    Returns the per-layer table (medians over the traced passes for times,
    exact values for counts) and the traced passes.
    """
    trace = tracing.Tracer()
    trace.install()
    try:
        trace.job = "setup"
        *_, digest = setup(args.workload, args.seed, reimport=False, sb=sb)
        if digest not in digests:
            problems.append("traced setup wrote different input bytes")
        trace.take_counters()
        n_setup = len(trace.spans)
        traced = timed_passes(cli, jobs, gate, seconds, "traced", trace)
    finally:
        trace.uninstall()
    tables = [p.pop("layers") for p in traced]
    layers = {}
    for name in sorted(set().union(*tables)):
        values = [t.get(name, 0) for t in tables]
        if unit_of(name) in ("s", "1/s", "ratio"):
            layers[name] = statistics.median(values)
        else:
            layers[name] = int(values[0])
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
    bad = max(t["trace.misnested_spans"] for t in tables)
    if bad:
        problems.append(f"{bad} spans of a traced pass do not nest in their parents")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}.spans.jsonl", "w") as fh:
        header = {"fields": ["name", "start", "end", "parent", "job"], "names": trace.names,
                  "setup_spans": [0, n_setup], "pass_spans": [p["spans"] for p in traced]}
        fh.write(json.dumps(header) + "\n")
        for span in trace.spans:
            fh.write(json.dumps(span) + "\n")
    return layers, traced


# --- the run -------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sketchbounds" / "__init__.py").is_file():
        print(f"perfbench: no sketchbounds package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("perfbench: --seed must lie in [0, 2^64) and --seconds must be positive", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "machine": machine_facts(),
                    "reference_s": {"start": statistics.median(references(REFS_AT_ENDS)[0])}}
    problems = []

    setups, setup_refs, digests = [], [], set()
    while not setups or not args.trace and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS):
        setup_refs.append(references(REFS_PER_SETUP)[0])
        setup_s, sb, cli, jobs, digest = setup(args.workload, args.seed, reimport=True)
        setups.append(setup_s)
        digests.add(digest)
    setup_refs.append(references(REFS_PER_SETUP)[0])
    if len(digests) != 1:
        problems.append("setup wrote different input bytes on repeated runs")

    gate = Gate(sb, jobs)
    results, _ = run_pass(cli, jobs)
    gate.warm(results)
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(cli, jobs, gate, seconds, "untraced")
    record["jobs"] = [
        {"command": job.command, "params": job.params, "exit": code, "sha256": sha,
         "best_s": min(p["job_wall_s"][index] for p in passes),
         "median_s": statistics.median(p["job_wall_s"][index] for p in passes)}
        for index, (job, (code, sha)) in enumerate(zip(jobs, gate.reference))
    ]
    record["passes"] = passes
    record["pass_wall_s"] = summary([p["wall_s"] for p in passes])
    record["pass_cpu_s"] = summary([p["cpu_s"] for p in passes])
    record["setup_s"] = summary(setups)
    record["reference_s"]["passes"] = summary([r for p in passes for g in p["ref_wall_s"] for r in g])
    record["reference_s"]["setup"] = summary([r for g in setup_refs for r in g])
    metrics = {
        "wall_s": pass_metric(passes, "wall_s"),
        "cpu_s": pass_metric(passes, "cpu_s"),
        "setup_s": statistics.median(bracketed(setups, setup_refs)),
    }

    if args.trace:
        layers, traced = traced_run(args, sb, cli, jobs, gate, digests, seconds, problems)
        record["traced_passes"] = traced
        record["traced_pass_wall_s"] = summary([p["wall_s"] for p in traced])
        record["untraced_wall_s"] = metrics["wall_s"]
        layers["trace_overhead_s"] = pass_metric(traced, "wall_s") - metrics["wall_s"]
        record["layers"] = layers
        metrics = {name: layers.get(name, 0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END

    record["reference_s"]["end"] = statistics.median(references(REFS_AT_ENDS)[0])
    problems.extend(gate.problems)
    failed = gate.failed
    record.update(attempted=gate.attempted, failed=failed, problems=problems, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    raw = {"pass_wall_s": record["pass_wall_s"], "pass_cpu_s": record["pass_cpu_s"],
           "setup_s (raw)": record["setup_s"], "reference_loop_s": record["reference_s"]["passes"]}
    for key, s in raw.items():
        print(f"{key:<34} median {s['median']:.6f} s  (q1 {s['q1']:.6f}, q3 {s['q3']:.6f}, n {s['n']})")
    table = record["layers"] if args.trace else metrics
    for name, value in table.items():
        unit = units.get(name) or unit_of(name)
        if name in ("wall_s", "cpu_s", "setup_s", "trace_overhead_s"):
            unit += " (reference seconds)"
        print(f"{name:<34} {value:.6g} {unit}")
    print(f"{'fail_ratio':<34} {failed / gate.attempted:.6g} ({failed} of {gate.attempted} jobs)")
    probe = record["reference_s"]
    print(f"{'reference_loop_s at the ends':<34} start {probe['start']:.6f} s, end {probe['end']:.6f} s")
    for problem in problems:
        print(f"FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": gate.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
