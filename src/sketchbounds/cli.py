"""Seeded experiment runner.

Subcommands mirror the library: ``construct`` emits matrix/map/code JSON,
``measure`` evaluates one quality measure on a stored matrix, ``witness``
runs a certificate search (exit code 2 when it finds one), ``bounds``
evaluates a closed-form formula, ``sweep`` runs a sub-experiment over a
parameter grid, and ``stream-demo`` exercises turnstile updates against a
direct matrix application.

Every command is a pure function of its config file plus seed: outputs carry
no timestamps or environment data, JSON is emitted with sorted keys, and CSV
(``sweep`` and ``stream-demo`` only) uses '.' decimals, a header row, and
newline line endings, so reruns are byte-identical.  Exit codes: 0 success, 2 witness violation found, 1 any
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

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
    SparseMatrix,
    apply,
    canonical_json,
    column_sparsity,
    load_matrix,
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
        """The config as a table payload repeats it: every field but ``output_path``."""
        return {k: v for k, v in asdict(self).items() if k != "output_path"}


def load_config(path: str, command: str, seed=None, out=None, fmt=None) -> ExperimentConfig:
    """Read a config file and fold in command-line overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise BadConfig(f"config file not found: {path}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits or too deep
        raise BadConfig(f"config file {path} is not valid JSON: {exc}")
    return _config(raw, command, seed, out, fmt)


def _config(raw, command: str, seed, out, fmt) -> ExperimentConfig:
    """The config the JSON value `raw` holds for `command`, with the overrides
    that are not None folded in."""
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
    if out is not None and (not isinstance(out, str) or "\0" in out):
        raise BadConfig(f"config key 'output_path' must be a file path, got {out!r}")
    fmt = raw.get("output_format", "json") if fmt is None else fmt
    fmt = fmt.lower() if isinstance(fmt, str) else fmt
    if fmt not in ("json", "csv"):
        raise BadConfig(f"output_format must be 'json' or 'csv', got {fmt!r}")
    if fmt == "csv" and command not in ("sweep", "stream-demo"):  # the two (param, value) tables
        raise BadConfig(f"{command} writes output_format 'json' only; 'csv' is for sweep and stream-demo")
    return ExperimentConfig(
        command=command, params=params, seed=check_seed(seed), trials=trials,
        output_path=out, output_format=fmt,
    )


def _finite(value) -> bool:
    """Whether `value` is a number a float holds: no bool, NaN, infinity or huge int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# param kind -> (what the error says a value must be, the check)
_KINDS = {
    int: ("an integer", _is_int),
    float: ("a finite number", _finite),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    list[int]: ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}
_REQUIRED = object()


def _need(params: dict, key: str, kind, default=_REQUIRED):
    """params[key], which must be of `kind` (a key of ``_KINDS``); `default`
    when the key is absent, which is an error when no default is given."""
    if key not in params:
        if default is _REQUIRED:
            raise BadConfig(f"missing required param {key!r}")
        return default
    value = params[key]
    what, ok = _KINDS[kind]
    if not ok(value):
        raise BadConfig(f"param {key!r} must be {what}, got {value!r}")
    return value


def _fmt_csv(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table(cfg: ExperimentConfig, rows: list[tuple], summary: dict) -> tuple[str, int]:
    """`rows` of (param, value) as CSV, or as JSON with the config and `summary`."""
    if cfg.output_format == "csv":
        return "".join(f"{_fmt_csv(p)},{_fmt_csv(v)}\n" for p, v in [("param", "value"), *rows]), 0
    return canonical_json({"config": cfg.echo(), "rows": [{"param": p, "value": v} for p, v in rows],
                           "summary": summary}), 0


# --- dispatch tables ------------------------------------------------------------

class Entry(NamedTuple):
    """One name in a subcommand's table: ``fn`` gets the matrix or map at
    param 'input' when ``load`` is set, then each param ``(key, kind[,
    default])`` as a keyword, then ``trials`` and ``seed`` when flagged;
    ``payload`` turns its result into the output."""

    fn: Callable
    payload: Callable
    params: tuple = ()
    load: bool = False
    trials: bool = False
    seed: bool = False


def _lookup(table: dict, what: str, name: str):
    if name not in table:
        raise BadConfig(f"unknown {what} {name!r}; known: {', '.join(sorted(table))}")
    return table[name]


def _current(fn: Callable) -> Callable:
    """`fn` as this module's attribute of that name holds it now: a wrapper
    installed there (perfbench's tracer installs one) sees the call."""
    return globals().get(fn.__name__, fn)


def _run(table: dict, what: str, name: str, cfg: ExperimentConfig):
    """The payload of the entry `name` of `table`, run on `cfg`: every param is
    read and checked before the input artifact is loaded."""
    entry = _lookup(table, what, name)
    kwargs = {spec[0]: _need(cfg.params, *spec) for spec in entry.params}
    if entry.trials:
        if cfg.trials is None:
            raise BadConfig(f"{name} needs config key 'trials'")
        kwargs["trials"] = cfg.trials
    if entry.seed:
        kwargs["seed"] = cfg.seed
    # the matrix or one-sparse map at param 'input': its JSON keys say which
    inputs = [load_matrix(_need(cfg.params, "input", str))] if entry.load else []
    return _current(entry.payload)(_current(entry.fn)(*inputs, **kwargs))


_MNS = (("m", int), ("n", int), ("s", int))

FAMILIES = {
    "sign_jl": Entry(sample_sparse_sign_jl, matrix_to_json, _MNS, seed=True),
    "osnap_block": Entry(sample_osnap_block, matrix_to_json, _MNS, seed=True),
    "countsketch": Entry(sample_countsketch, one_sparse_map_to_json, _MNS[:2], seed=True),
    "random_code": Entry(random_code, code_to_json, (("q", int), ("t", int), ("N", int), ("eps", float),
                                                     ("max_attempts", int, 1000)), seed=True),
    "code_matrix": Entry(lambda code: code_to_incoherent(load_code(code)), matrix_to_json, (("code", str),)),
    "spread_vectors": Entry(
        lambda code, n, k: SparseMatrix.from_dense(np.column_stack(spread_vectors(load_code(code), n, k))),
        matrix_to_json, (("code", str), ("n", int), ("k", int))),
}


def _value(value) -> dict:
    return {"value": value}


def _rip(est) -> dict:
    return {"value": {"delta": est.delta, "k": est.k, "mode": est.mode, "worst_support": est.worst_support},
            "witness": est.worst_direction.tolist()}


MEASURES = {
    "coherence": Entry(coherence, _value, load=True),
    "rip_exact": Entry(rip_constant_exact, _rip, (("k", int),), load=True),
    "rip_lower_estimate": Entry(rip_constant_lower_estimate, _rip, (("k", int),), load=True,
                                trials=True, seed=True),
    "subspace_distortion": Entry(subspace_distortion, lambda lh: _value({"sigma_min": lh[0], "sigma_max": lh[1]}),
                                 (("indices", list[int]),), load=True),
    "row_mass_profile": Entry(row_mass_profile, lambda p: _value({**asdict(p), "flagged_rows": p.flagged_rows}),
                              (("x", float),), load=True),
    "scale_profile": Entry(scale_profile, lambda p: _value(asdict(p)), (("column", int),), load=True),
    "column_sparsity": Entry(column_sparsity, _value, load=True),
}


def _certificate(cert) -> tuple[dict, int]:
    return cert.to_jsonable(), 0 if cert.kind == "none" else 2


def _ose_failure(report) -> tuple[dict, int]:
    return {
        "witness": "ose_failure", "m": report.m, "d": report.d, "n": report.n,
        "trials": report.trials, "failures": report.failures, "rate": report.rate,
        "heavy_rows": [r.heavy_rows for r in report.records],
    }, 0


WITNESSES = {
    "ose_failure": Entry(ose_failure_probability, _ose_failure, (("m", int), ("d", int), ("n", int)),
                         trials=True, seed=True),
    "row_mass": Entry(row_mass_violation_search, _certificate, (("eps", float),), load=True),
    "ttype_collision": Entry(ttype_collision_certify, _certificate, (("eps", float), ("t", int)), load=True),
    "sign_pattern": Entry(sign_pattern_certify, _certificate,
                          (("eps", float), ("t", int), ("full_enumeration", bool, False)), load=True),
    "rip_pattern": Entry(rip_pattern_witness, _certificate, (("k", int),), load=True),
    "ose_collision": Entry(ose_collision_witness, _certificate, (("indices", list[int], None),), load=True),
}


# --- construct, measure, witness --------------------------------------------------

def _run_construct(cfg: ExperimentConfig) -> tuple[str, int]:
    return _run(FAMILIES, "construct family", _need(cfg.params, "family", str), cfg), 0


def _run_measure(cfg: ExperimentConfig) -> tuple[str, int]:
    name = _need(cfg.params, "measure", str)
    return canonical_json({"measure": name, "params": cfg.params, **_run(MEASURES, "measure", name, cfg)}), 0


def _run_witness(cfg: ExperimentConfig) -> tuple[str, int]:
    payload, code = _run(WITNESSES, "witness", _need(cfg.params, "witness", str), cfg)
    return canonical_json(payload), code


# --- bounds ---------------------------------------------------------------------

def _evaluate_formula(formula: str, args: dict) -> dict:
    fn, names = _lookup(FORMULAS, "formula", formula)
    missing = [p for p in names if p not in args]
    if missing:
        raise BadConfig(f"formula {formula!r} needs params {', '.join(names)}; missing {missing}")
    bad = [p for p in names if not _finite(args[p])]
    if bad:
        raise BadConfig(f"formula {formula!r} needs finite numbers; got {', '.join(f'{p}={args[p]!r}' for p in bad)}")
    args = {p: args[p] for p in names}
    bv = fn(**args)
    value = list(bv.value) if isinstance(bv.value, tuple) else bv.value
    return {
        "formula": bv.formula_id,
        "params": args,
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
    args = _need(params, "args", dict, {k: v for k, v in params.items() if k != "formula"})
    return canonical_json(_evaluate_formula(formula, args)), 0


# --- sweep ----------------------------------------------------------------------

def _sweep_ose_failure(point: ExperimentConfig, idx: int) -> float:
    payload, _ = _run(WITNESSES, "witness", "ose_failure", replace(point, seed=derive_seed(point.seed, idx)))
    return payload["rate"]


def _sweep_bounds(point: ExperimentConfig, idx: int) -> float:
    value = _evaluate_formula(_need(point.params, "formula", str), point.params)["value"]
    # pairs of exponents collapse to the binding (smaller) one for tabulation
    return min(value) if isinstance(value, list) else value


class Sweep(NamedTuple):
    """One sub-experiment: ``point`` is the number one grid point (its params
    and index) yields; ``axes`` names the params it reads, given the fixed ones."""

    point: Callable
    axes: Callable


SWEEPS = {
    "ose_failure": Sweep(_sweep_ose_failure, lambda fixed: [spec[0] for spec in WITNESSES["ose_failure"].params]),
    "bounds": Sweep(_sweep_bounds, lambda fixed: _lookup(FORMULAS, "formula", _need(fixed, "formula", str))[1]),
}


def _run_sweep(cfg: ExperimentConfig) -> tuple[str, int]:
    params = cfg.params
    name = _need(params, "experiment", str)
    sweep = _lookup(SWEEPS, "sweep experiment", name)
    grid = _need(params, "grid", dict)
    axis, values = grid.get("param"), grid.get("values")
    if not isinstance(axis, str) or not isinstance(values, list) or not values:
        raise BadConfig("sweep needs grid = {param: name, values: [...]} with a nonempty list of values")
    fixed = {k: v for k, v in params.items() if k not in ("experiment", "grid")}
    axes = sweep.axes(fixed)
    if axis not in axes:
        raise BadConfig(f"sweep {name} cannot vary {axis!r}; its grid param must be one of {', '.join(axes)}")
    rows = [(v, sweep.point(replace(cfg, params={**fixed, axis: v}), idx)) for idx, v in enumerate(values)]
    return _table(cfg, rows, {"points": len(rows)})


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
    return _table(cfg, summary, dict(summary))


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
            raw = {"params": {"formula": ns.formula, "args": _parse_params_flag(ns.params or "")}}
            cfg = _config(raw, "bounds", ns.seed, ns.out, ns.fmt)
        elif ns.config is None:
            raise BadConfig("bounds needs either --formula or --config")
        else:
            cfg = load_config(ns.config, ns.command, seed=ns.seed, out=ns.out, fmt=ns.fmt)
        payload, code = _HANDLERS[cfg.command](cfg)
        if cfg.output_path:
            with open(cfg.output_path, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return code
    except (SketchboundsError, OSError) as exc:
        print(f"sketchbounds: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
