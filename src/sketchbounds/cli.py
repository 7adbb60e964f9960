"""Seeded experiment runner.

Subcommands mirror the library: ``construct`` emits matrix/map/code JSON,
``measure`` evaluates one quality measure on a stored matrix, ``witness``
runs a certificate search (exit code 2 when it finds one), ``bounds``
evaluates a closed-form formula, ``sweep`` runs a sub-experiment over a
parameter grid, and ``stream-demo`` exercises turnstile updates against a
direct matrix application.

Every command is a pure function of its config file plus seed: outputs carry
no timestamps or environment data, JSON is emitted with sorted keys, and CSV
uses '.' decimals, a header row, and newline line endings, so reruns are
byte-identical.  Exit codes: 0 success, 2 witness violation found, 1 any
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import FORMULAS
from .constructions import (
    code_to_incoherent,
    code_to_json,
    load_code,
    random_code,
    sample_countsketch,
    sample_osnap_block,
    sample_sparse_sign_jl,
    spread_vectors,
)
from .errors import BadConfig, SketchboundsError
from .matrices import (
    OneSparseMap,
    SparseMatrix,
    _read_text,
    apply,
    artifact_from_json,
    canonical_json,
    column_sparsity,
    matrix_to_json,
    one_sparse_map_to_json,
    stream_update,
)
from .measures import (
    coherence,
    rip_constant_exact,
    rip_constant_lower_estimate,
    row_mass_profile,
    scale_profile,
    subspace_distortion,
)
from .rng import check_seed, derive_seed, substream
from .witnesses import (
    ose_collision_witness,
    ose_failure_probability,
    rip_pattern_witness,
    row_mass_violation_search,
    sign_pattern_certify,
    ttype_collision_certify,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a command name, its parameters, and run settings."""

    command: str
    params: dict
    seed: int
    trials: int | None
    output_path: str | None
    output_format: str

    def echo(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "trials": self.trials,
            "output_format": self.output_format,
        }


def load_config(path: str, command: str, seed=None, out=None, fmt=None) -> ExperimentConfig:
    """Read a config file and fold in command-line overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise BadConfig(f"config file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BadConfig(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise BadConfig("config must be a JSON object")
    if "command" in raw and raw["command"] != command:
        raise BadConfig(f"config names command {raw['command']!r} but {command!r} was invoked")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise BadConfig("config key 'params' must be an object")
    seed = raw.get("seed", 0) if seed is None else seed
    trials = raw.get("trials")
    if trials is not None and (isinstance(trials, bool) or not isinstance(trials, int) or trials < 1):
        raise BadConfig(f"config key 'trials' must be a positive integer, got {trials!r}")
    out = raw.get("output_path") if out is None else out
    fmt = (raw.get("output_format", "json") if fmt is None else fmt).lower()
    if fmt not in ("json", "csv"):
        raise BadConfig(f"output_format must be 'json' or 'csv', got {fmt!r}")
    return ExperimentConfig(
        command=command, params=params, seed=check_seed(seed), trials=trials,
        output_path=out, output_format=fmt,
    )


def _finite(value) -> bool:
    """Whether `value` is a number a float holds: no bool, NaN, infinity or huge int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _need(params: dict, key: str, kind=None):
    if key not in params:
        raise BadConfig(f"missing required param {key!r}")
    value = params[key]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise BadConfig(f"param {key!r} must be an integer, got {value!r}")
    if kind is float and not _finite(value):
        raise BadConfig(f"param {key!r} must be a finite number, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise BadConfig(f"param {key!r} must be a string, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise BadConfig(f"param {key!r} must be a list, got {value!r}")
    return value


def _fmt_csv(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(rows: list[tuple], header: str = "param,value") -> str:
    lines = [header]
    lines.extend(",".join(_fmt_csv(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# --- construct -----------------------------------------------------------------

def _run_construct(cfg: ExperimentConfig) -> tuple[str, int]:
    params = cfg.params
    family = _need(params, "family", str)
    if cfg.output_format != "json":
        raise BadConfig("construct emits JSON artifacts; use output_format 'json'")
    if family == "sign_jl":
        A = sample_sparse_sign_jl(_need(params, "m", int), _need(params, "n", int),
                                  _need(params, "s", int), cfg.seed)
        return matrix_to_json(A), 0
    if family == "osnap_block":
        A = sample_osnap_block(_need(params, "m", int), _need(params, "n", int),
                               _need(params, "s", int), cfg.seed)
        return matrix_to_json(A), 0
    if family == "countsketch":
        S = sample_countsketch(_need(params, "m", int), _need(params, "n", int), cfg.seed)
        return one_sparse_map_to_json(S), 0
    if family == "random_code":
        attempts = _need(params, "max_attempts", int) if "max_attempts" in params else 1000
        c = random_code(_need(params, "q", int), _need(params, "t", int),
                        _need(params, "N", int), _need(params, "eps", float), cfg.seed,
                        max_attempts=attempts)
        return code_to_json(c), 0
    if family == "code_matrix":
        c = load_code(_need(params, "code", str))
        return matrix_to_json(code_to_incoherent(c)), 0
    if family == "spread_vectors":
        c = load_code(_need(params, "code", str))
        vecs = spread_vectors(c, _need(params, "n", int), _need(params, "k", int))
        A = SparseMatrix.from_dense(np.column_stack(vecs))
        return matrix_to_json(A), 0
    raise BadConfig(f"unknown construct family {family!r}")


# --- measure -------------------------------------------------------------------

def _run_measure(cfg: ExperimentConfig) -> tuple[str, int]:
    params = cfg.params
    name = _need(params, "measure", str)
    record: dict = {"measure": name, "params": params}
    witness = None
    if name == "coherence":
        A = _load_artifact(_need(params, "input", str))
        value = coherence(A)
    elif name == "rip_exact":
        A = _load_artifact(_need(params, "input", str))
        est = rip_constant_exact(A, _need(params, "k", int))
        value = {"delta": est.delta, "k": est.k, "mode": est.mode,
                 "worst_support": list(est.worst_support)}
        witness = est.worst_direction.tolist()
    elif name == "rip_lower_estimate":
        A = _load_artifact(_need(params, "input", str))
        if cfg.trials is None:
            raise BadConfig("rip_lower_estimate needs config key 'trials'")
        est = rip_constant_lower_estimate(A, _need(params, "k", int), cfg.trials, cfg.seed)
        value = {"delta": est.delta, "k": est.k, "mode": est.mode,
                 "worst_support": list(est.worst_support)}
        witness = est.worst_direction.tolist()
    elif name == "subspace_distortion":
        A = _load_artifact(_need(params, "input", str), (SparseMatrix, OneSparseMap))
        lo, hi = subspace_distortion(A, _need(params, "indices", list))
        value = {"sigma_min": lo, "sigma_max": hi}
    elif name == "row_mass_profile":
        A = _load_artifact(_need(params, "input", str))
        prof = row_mass_profile(A, _need(params, "x", float))
        value = {"x": prof.x, "limit": prof.limit,
                 "per_row": [list(pq) for pq in prof.per_row],
                 "flagged_rows": list(prof.flagged_rows)}
    elif name == "scale_profile":
        A = _load_artifact(_need(params, "input", str))
        prof = scale_profile(A, _need(params, "column", int))
        value = {"column": prof.column, "t": prof.t, "threshold": prof.threshold,
                 "required_count": prof.required_count, "actual_count": prof.actual_count}
    elif name == "column_sparsity":
        A = _load_artifact(_need(params, "input", str))
        value = column_sparsity(A)
    else:
        raise BadConfig(f"unknown measure {name!r}")
    record["value"] = value
    if witness is not None:
        record["witness"] = witness
    return canonical_json(record), 0


def _load_artifact(path: str, kind=SparseMatrix):
    """The matrix or one-sparse map stored at `path` (its JSON keys say
    which), which must be an instance of `kind`."""
    artifact = artifact_from_json(_read_text(path))
    if not isinstance(artifact, kind):
        raise BadConfig(f"input {path} holds a {type(artifact).__name__}, which this command cannot use")
    return artifact


# --- witness --------------------------------------------------------------------

def _run_witness(cfg: ExperimentConfig) -> tuple[str, int]:
    params = cfg.params
    name = _need(params, "witness", str)
    if name == "ose_failure":
        if cfg.trials is None:
            raise BadConfig("ose_failure needs config key 'trials'")
        report = ose_failure_probability(
            _need(params, "m", int), _need(params, "d", int), _need(params, "n", int),
            cfg.trials, cfg.seed,
        )
        payload = {
            "witness": name, "m": report.m, "d": report.d, "n": report.n,
            "trials": report.trials, "failures": report.failures, "rate": report.rate,
            "heavy_rows": [r.heavy_rows for r in report.records],
        }
        return canonical_json(payload), 0
    if name == "row_mass":
        A = _load_artifact(_need(params, "input", str))
        cert = row_mass_violation_search(A, _need(params, "eps", float))
    elif name == "ttype_collision":
        A = _load_artifact(_need(params, "input", str))
        cert = ttype_collision_certify(A, _need(params, "eps", float), _need(params, "t", int))
    elif name == "sign_pattern":
        A = _load_artifact(_need(params, "input", str))
        cert = sign_pattern_certify(A, _need(params, "eps", float), _need(params, "t", int),
                                    full_enumeration=bool(params.get("full_enumeration", False)))
    elif name == "rip_pattern":
        A = _load_artifact(_need(params, "input", str))
        cert = rip_pattern_witness(A, _need(params, "k", int))
    elif name == "ose_collision":
        S = _load_artifact(_need(params, "input", str), OneSparseMap)
        indices = params.get("indices")
        cert = ose_collision_witness(S, range(S.n) if indices is None else indices)
    else:
        raise BadConfig(f"unknown witness {name!r}")
    code = 0 if cert.kind == "none" else 2
    return canonical_json(cert.to_jsonable()), code


# --- bounds ---------------------------------------------------------------------

def _evaluate_formula(formula: str, args: dict) -> dict:
    if formula not in FORMULAS:
        raise BadConfig(f"unknown formula {formula!r}; known: {', '.join(sorted(FORMULAS))}")
    fn, names = FORMULAS[formula]
    missing = [p for p in names if p not in args]
    if missing:
        raise BadConfig(f"formula {formula!r} needs params {', '.join(names)}; missing {missing}")
    bad = [p for p in names if not _finite(args[p])]
    if bad:
        raise BadConfig(f"formula {formula!r} needs finite numbers; got {', '.join(f'{p}={args[p]!r}' for p in bad)}")
    bv = fn(**{p: args[p] for p in names})
    value = list(bv.value) if isinstance(bv.value, tuple) else bv.value
    return {
        "formula": bv.formula_id,
        "params": {p: args[p] for p in names},
        "value": value,
        "normalized_constant": bv.normalized_constant,
    }


def _parse_params_flag(text: str) -> dict:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise BadConfig(f"--params items must look like key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            parsed = int(val)
        except ValueError:
            try:
                parsed = float(val)
            except ValueError:
                raise BadConfig(f"param {key!r} has non-numeric value {val!r}")
        out[key.strip()] = parsed
    return out


def _run_bounds(cfg: ExperimentConfig) -> tuple[str, int]:
    params = cfg.params
    formula = _need(params, "formula", str)
    args = params.get("args", {k: v for k, v in params.items() if k != "formula"})
    return canonical_json(_evaluate_formula(formula, args)), 0


# --- sweep ----------------------------------------------------------------------

def _scalar_bound_value(result: dict) -> float:
    value = result["value"]
    # pairs of exponents collapse to the binding (smaller) one for tabulation
    return min(value) if isinstance(value, list) else value


def _run_sweep(cfg: ExperimentConfig) -> tuple[str, int]:
    params = cfg.params
    experiment = _need(params, "experiment", str)
    grid = _need(params, "grid")
    if not isinstance(grid, dict) or "param" not in grid or "values" not in grid:
        raise BadConfig("sweep needs grid = {param: name, values: [...]}")
    axis = grid["param"]
    values = grid["values"]
    if not isinstance(values, list) or not values:
        raise BadConfig("grid.values must be a nonempty list")
    fixed = {k: v for k, v in params.items() if k not in ("experiment", "grid")}
    rows = []
    if experiment == "ose_failure":
        if cfg.trials is None:
            raise BadConfig("ose_failure sweep needs config key 'trials'")
        for idx, v in enumerate(values):
            point = dict(fixed)
            point[axis] = v
            report = ose_failure_probability(
                _need(point, "m", int), _need(point, "d", int), _need(point, "n", int),
                cfg.trials, derive_seed(cfg.seed, idx),
            )
            rows.append((v, report.rate))
    elif experiment == "bounds":
        formula = fixed.pop("formula", None)
        if not isinstance(formula, str):
            raise BadConfig("bounds sweep needs a 'formula' param")
        for v in values:
            point = dict(fixed)
            point[axis] = v
            rows.append((v, _scalar_bound_value(_evaluate_formula(formula, point))))
    else:
        raise BadConfig(f"unknown sweep experiment {experiment!r}")
    if cfg.output_format == "csv":
        return _csv(rows), 0
    record = {
        "config": cfg.echo(),
        "rows": [{"param": p, "value": v} for p, v in rows],
        "summary": {"points": len(rows)},
    }
    return canonical_json(record), 0


# --- stream demo -----------------------------------------------------------------

def _run_stream_demo(cfg: ExperimentConfig) -> tuple[str, int]:
    params = cfg.params
    m = _need(params, "m", int)
    n = _need(params, "n", int)
    s = _need(params, "s", int)
    updates = _need(params, "updates", int)
    if updates < 1:
        raise BadConfig("need at least one update")
    A = sample_sparse_sign_jl(m, n, s, derive_seed(cfg.seed, 0))
    g = substream(cfg.seed, 1)
    sketch = np.zeros(m)
    x = np.zeros(n)
    touched = []
    for _ in range(updates):
        i = int(g.integers(0, n))
        v = float(g.uniform(-1.0, 1.0))
        stream_update(sketch, A, i, v)
        x[i] += v
        touched.append(A.column_nnz(i))
    deviation = float(np.max(np.abs(sketch - apply(A, x))))
    summary = [
        ("updates", updates),
        ("max_abs_deviation", deviation),
        ("touched_min", min(touched)),
        ("touched_max", max(touched)),
        ("column_sparsity", column_sparsity(A)),
    ]
    if cfg.output_format == "csv":
        return _csv(summary), 0
    record = {
        "config": cfg.echo(),
        "rows": [{"param": k, "value": v} for k, v in summary],
        "summary": dict(summary),
    }
    return canonical_json(record), 0


# --- entry point -------------------------------------------------------------------

_HANDLERS = {
    "construct": _run_construct,
    "measure": _run_measure,
    "witness": _run_witness,
    "bounds": _run_bounds,
    "sweep": _run_sweep,
    "stream-demo": _run_stream_demo,
}


class _Parser(argparse.ArgumentParser):
    # usage problems are ordinary errors: exit 1, reserve 2 for witness hits
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sketchbounds", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} command")
        if name == "bounds":
            p.add_argument("--formula", help="formula id (alternative to --config)")
            p.add_argument("--params", help="comma-separated key=value arguments")
            p.add_argument("--config", help="JSON config file")
        else:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None,
                       help="override the config output format")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if ns.command == "bounds" and ns.formula:
            args = _parse_params_flag(ns.params or "")
            payload = canonical_json(_evaluate_formula(ns.formula, args))
            code = 0
            out_path = ns.out
        else:
            if getattr(ns, "config", None) is None:
                raise BadConfig("bounds needs either --formula or --config")
            cfg = load_config(ns.config, ns.command, seed=ns.seed, out=ns.out, fmt=ns.fmt)
            payload, code = _HANDLERS[ns.command](cfg)
            out_path = cfg.output_path
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return code
    except SketchboundsError as exc:
        print(f"sketchbounds: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sketchbounds: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
