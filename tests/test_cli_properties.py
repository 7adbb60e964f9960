"""Property test of the command-line interface: whatever JSON a config holds,
every table entry ends with exit code 0, 1 or 2 and never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sketchbounds import (
    code_to_json,
    matrix_to_json,
    one_sparse_map_to_json,
    random_code,
    sample_countsketch,
    sample_sparse_sign_jl,
)
from sketchbounds.bounds import FORMULAS
from sketchbounds.cli import FAMILIES, MEASURES, SWEEPS, WITNESSES, main

# Integers stay small so that no generated size can ask for much memory or time.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
MISSING = object()

# a value of each param that a run can get past, so deeper checks are reached too
GOOD = {"m": 6, "n": 6, "s": 2, "q": 4, "t": 2, "N": 3, "eps": 0.3, "max_attempts": 50, "k": 2,
        "x": 0.3, "column": 1, "indices": [0, 1], "d": 2, "full_enumeration": False, "r": 1,
        "delta": 0.5}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_properties")
    paths = {name: root / name for name in ("A.json", "S.json", "code.json", "config.json")}
    paths["A.json"].write_text(matrix_to_json(sample_sparse_sign_jl(8, 6, 3, 7)))
    paths["S.json"].write_text(one_sparse_map_to_json(sample_countsketch(3, 6, 11)))
    paths["code.json"].write_text(code_to_json(random_code(4, 2, 3, 0.5, 2)))
    return {name: str(path) for name, path in paths.items()}


def params_for(keys, good):
    """A params object over `keys`, each one good, random JSON or missing,
    and maybe a key that no entry reads."""
    drawn = st.fixed_dictionaries({k: st.one_of(st.just(good[k]), JSON, st.just(MISSING)) for k in keys},
                                  optional={"note": JSON})
    return drawn.map(lambda d: {k: v for k, v in d.items() if v is not MISSING})


def configs(command, name, files):
    inputs = st.sampled_from([files["A.json"], files["S.json"], files["code.json"]])
    good = {**GOOD, "code": files["code.json"]}
    if command == "bounds":
        body = params_for(FORMULAS[name][1], good).flatmap(
            lambda args: st.sampled_from([{"formula": name, **args}, {"formula": name, "args": args}]))
    elif command == "sweep":
        keys = {k for entry in FORMULAS.values() for k in entry[1]} | {"d"}
        grid = st.fixed_dictionaries({"param": st.sampled_from(sorted(keys)) | JSON,
                                      "values": st.lists(st.integers(1, 40) | JSON, max_size=3)})
        body = st.builds(lambda p, g, f: {**p, "experiment": name, "grid": g, "formula": f},
                         params_for(sorted(keys), good), grid | JSON, st.sampled_from(sorted(FORMULAS)) | JSON)
    else:
        table, key = {"construct": (FAMILIES, "family"), "measure": (MEASURES, "measure"),
                      "witness": (WITNESSES, "witness")}[command]
        entry = table[name]
        body = st.builds(lambda p, i: {**p, key: name, "input": i},
                         params_for([spec[0] for spec in entry.params], good), inputs | JSON)
    return st.fixed_dictionaries({
        "command": st.just(command),
        "params": body,
        "seed": st.integers(0, 5) | JSON,
        "trials": st.none() | st.integers(1, 5) | JSON,
    })


ENTRIES = [
    *(("construct", name) for name in FAMILIES),
    *(("measure", name) for name in MEASURES),
    *(("witness", name) for name in WITNESSES),
    *(("sweep", name) for name in SWEEPS),
    *(("bounds", name) for name in FORMULAS),
]


@pytest.mark.parametrize("command,name", ENTRIES, ids=[f"{c}-{n}" for c, n in ENTRIES])
def test_any_config_exits_cleanly(command, name, files):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(configs(command, name, files))
    def run(config):
        with open(files["config.json"], "w") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", files["config.json"]])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("sketchbounds: error: ")

    run()
