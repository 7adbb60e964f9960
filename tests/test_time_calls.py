"""scripts/time_calls.py's table and worker-failure report, fed fake runs:
no worker process starts."""

import importlib.util
import pathlib
import subprocess

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "time_calls.py"


@pytest.fixture(scope="module")
def time_calls():
    spec = importlib.util.spec_from_file_location("time_calls", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*rows):
    """One process's {cell: row} dict from (cell, ms, digest) triples."""
    return {cell: {"cell": list(cell), "ms": ms, "digest": digest} for cell, ms, digest in rows}


A, B = ("sign_jl", 256, 10000, 8), ("osnap_block", 256, 10000, 8)


def test_a_cell_one_side_lacks_prints_a_dash_and_differ(time_calls):
    runs = {"parent": [_run((A, 2.0, "aaa"))] * 2,
            "change": [_run((A, 1.0, "aaa"), (B, 3.0, "bbb")), _run((A, 3.0, "aaa"), (B, 5.0, "bbb"))]}
    assert time_calls.table(("sampler", "m", "n", "s"), runs) == [
        "| sampler | m | n | s | parent ms | change ms | digest | change won | parent IQR ms |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
        "| sign_jl | 256 | 10000 | 8 | 2.00 | 2.00 | aaa | 1/2 | 0.00 |",
        "| osnap_block | 256 | 10000 | 8 | - | 4.00 | DIFFER | - | - |",
    ]


def test_digests_that_differ_print_differ(time_calls):
    runs = {"parent": [_run((A, 1.0, "aaa"))], "change": [_run((A, 1.0, "aaa")), _run((A, 1.0, "ccc"))]}
    # one parent round: a tie, which the change does not win, and no spread
    assert time_calls.table(("sampler", "m", "n", "s"), runs)[2:] == [
        "| sign_jl | 256 | 10000 | 8 | 1.00 | 1.00 | DIFFER | 0/1 | - |"]


def test_digests_that_agree_print_the_digest(time_calls):
    cell = (64, 60, 3, "exact")
    runs = {"change": [_run((cell, ms, "0c71809207ad")) for ms in (0.4, 0.2, 0.6, 1.0)]}
    assert time_calls.table(("m", "n", "k", "scan"), runs) == [
        "| m | n | k | scan | change ms | digest |",
        "| --- | --- | --- | --- | --- | --- |",
        "| 64 | 60 | 3 | exact | 0.50 | 0c71809207ad |",
    ]


def test_two_sides_print_the_rounds_the_change_won_and_the_parents_spread(time_calls):
    # ten rounds paired by index: the change wins 7, ties 1 and loses 2; the
    # parent's 1..10 ms have inclusive quartiles 3.25 and 7.75
    parent = [float(ms) for ms in range(1, 11)]
    change = [ms - 0.5 for ms in parent[:7]] + [parent[7]] + [ms + 1 for ms in parent[8:]]
    runs = {"parent": [_run((A, ms, "aaa")) for ms in parent],
            "change": [_run((A, ms, "aaa")) for ms in change]}
    assert len(parent) == time_calls.ROUNDS
    assert time_calls.table(("sampler", "m", "n", "s"), runs)[2:] == [
        "| sign_jl | 256 | 10000 | 8 | 5.50 | 5.00 | aaa | 7/10 | 4.50 |"]


def test_a_failed_worker_reports_its_side_exit_code_and_stderr(time_calls, monkeypatch):
    def failed(args, **kwargs):
        return subprocess.CompletedProcess(args, 1, "", "ImportError: cannot import name 'sample_osnap_block'\n")

    monkeypatch.setattr(time_calls.subprocess, "run", failed)
    with pytest.raises(SystemExit) as exit:
        time_calls.main(["samplers", "--against", "old/src"])
    assert str(exit.value) == "parent worker on old/src exited 1:\nImportError: cannot import name 'sample_osnap_block'\n"
