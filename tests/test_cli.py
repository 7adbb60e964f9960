"""End-to-end checks of the command-line interface, run in-process."""

import hashlib
import json

import pytest

from sketchbounds import (
    code_to_json,
    matrix_from_json,
    matrix_to_json,
    one_sparse_map_from_json,
    one_sparse_map_to_json,
    random_code,
    sample_countsketch,
    sample_sparse_sign_jl,
)
from sketchbounds.cli import MEASURES, WITNESSES, load_config, main

from conftest import dense


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_sign_jl_artifact_round_trips(self, write_config, capsys):
        cfg = write_config({"command": "construct", "seed": 7,
                            "params": {"family": "sign_jl", "m": 8, "n": 5, "s": 3}})
        code, out, err = run_cli(["construct", "--config", cfg], capsys)
        assert code == 0 and err == ""
        A = matrix_from_json(out)
        assert (A.m, A.n) == (8, 5)
        assert all(A.column_nnz(j) == 3 for j in range(5))

    def test_countsketch_emits_map(self, write_config, capsys):
        cfg = write_config({"command": "construct", "seed": 3,
                            "params": {"family": "countsketch", "m": 6, "n": 9}})
        code, out, _ = run_cli(["construct", "--config", cfg], capsys)
        assert code == 0
        S = one_sparse_map_from_json(out)
        assert (S.m, S.n) == (6, 9)

    def test_random_code_has_small_agreement(self, write_config, capsys):
        cfg = write_config({"command": "construct", "seed": 1,
                            "params": {"family": "random_code", "q": 8, "t": 6,
                                       "N": 16, "eps": 0.5}})
        code, out, _ = run_cli(["construct", "--config", cfg], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["q"] == 8 and len(obj["words"]) == 16

    def test_code_matrix_from_file(self, write_config, tmp_path, capsys):
        code_path = tmp_path / "code.json"
        code_path.write_text(json.dumps({"q": 3, "t": 2, "words": [[0, 1], [2, 0]]}))
        cfg = write_config({"command": "construct",
                            "params": {"family": "code_matrix", "code": str(code_path)}})
        code, out, _ = run_cli(["construct", "--config", cfg], capsys)
        assert code == 0
        A = matrix_from_json(out)
        assert (A.m, A.n) == (6, 2)

    def test_csv_format_rejected(self, write_config, capsys):
        cfg = write_config({"command": "construct", "output_format": "csv",
                            "params": {"family": "sign_jl", "m": 4, "n": 2, "s": 1}})
        code, _, err = run_cli(["construct", "--config", cfg], capsys)
        assert code == 1 and "json" in err

    def test_unknown_family(self, write_config, capsys):
        cfg = write_config({"command": "construct", "params": {"family": "bogus"}})
        code, _, err = run_cli(["construct", "--config", cfg], capsys)
        assert code == 1 and "bogus" in err


class TestMeasure:
    @pytest.fixture
    def matrix_path(self, tmp_path):
        A = sample_sparse_sign_jl(8, 5, 3, 7)
        path = tmp_path / "A.json"
        path.write_text(matrix_to_json(A))
        return str(path)

    def test_coherence(self, matrix_path, write_config, capsys):
        cfg = write_config({"command": "measure",
                            "params": {"measure": "coherence", "input": matrix_path}})
        code, out, _ = run_cli(["measure", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 0.6666666666666669

    def test_rip_exact_reports_witness(self, matrix_path, write_config, capsys):
        cfg = write_config({"command": "measure",
                            "params": {"measure": "rip_exact", "input": matrix_path, "k": 2}})
        code, out, _ = run_cli(["measure", "--config", cfg], capsys)
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["value"]["delta"] - 0.666666666666667) <= 1e-12
        assert obj["value"]["mode"] == "exact"
        assert obj["value"]["worst_support"] == [2, 4]
        assert len(obj["witness"]) == 5

    def test_rip_estimate_needs_trials(self, matrix_path, write_config, capsys):
        cfg = write_config({"command": "measure",
                            "params": {"measure": "rip_lower_estimate",
                                       "input": matrix_path, "k": 2}})
        code, _, err = run_cli(["measure", "--config", cfg], capsys)
        assert code == 1 and "trials" in err

    def test_subspace_distortion_on_map(self, tmp_path, write_config, capsys):
        S = sample_countsketch(16, 8, 5)
        path = tmp_path / "S.json"
        path.write_text(one_sparse_map_to_json(S))
        cfg = write_config({"command": "measure",
                            "params": {"measure": "subspace_distortion",
                                       "input": str(path), "indices": [0, 1, 2]}})
        code, out, _ = run_cli(["measure", "--config", cfg], capsys)
        assert code == 0
        value = json.loads(out)["value"]
        assert 0.0 <= value["sigma_min"] <= value["sigma_max"]

    def test_scale_profile(self, tmp_path, write_config, capsys):
        path = tmp_path / "B.json"
        path.write_text(matrix_to_json(dense([[1.0], [0.0]])))
        cfg = write_config({"command": "measure",
                            "params": {"measure": "scale_profile", "input": str(path),
                                       "column": 0}})
        code, out, _ = run_cli(["measure", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["value"]["t"] == 1

    def test_unknown_measure(self, matrix_path, write_config, capsys):
        cfg = write_config({"command": "measure",
                            "params": {"measure": "nope", "input": matrix_path}})
        code, _, err = run_cli(["measure", "--config", cfg], capsys)
        assert code == 1 and "nope" in err


class TestWitness:
    def test_violation_exits_two(self, tmp_path, write_config, capsys):
        # ten duplicated basis columns overload the threshold search
        A = dense([[1.0] * 10, [0.0] * 10, [0.0] * 10, [0.0] * 10])
        path = tmp_path / "dup.json"
        path.write_text(matrix_to_json(A))
        cfg = write_config({"command": "witness",
                            "params": {"witness": "row_mass", "input": str(path),
                                       "eps": 0.25}})
        code, out, _ = run_cli(["witness", "--config", cfg], capsys)
        assert code == 2
        obj = json.loads(out)
        assert obj["kind"] == "incoherence_pair" and obj["dot"] == 1.0

    def test_clean_matrix_exits_zero(self, tmp_path, write_config, capsys):
        path = tmp_path / "eye.json"
        path.write_text(matrix_to_json(dense([[1.0, 0.0], [0.0, 1.0]])))
        cfg = write_config({"command": "witness",
                            "params": {"witness": "row_mass", "input": str(path),
                                       "eps": 0.25}})
        code, out, _ = run_cli(["witness", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["kind"] == "none"

    def test_ose_collision_kernel_vector(self, tmp_path, write_config, capsys):
        S = sample_countsketch(2, 6, 11)  # 6 columns into 2 rows must collide
        path = tmp_path / "S.json"
        path.write_text(one_sparse_map_to_json(S))
        cfg = write_config({"command": "witness",
                            "params": {"witness": "ose_collision", "input": str(path)}})
        code, out, _ = run_cli(["witness", "--config", cfg], capsys)
        assert code == 2
        assert json.loads(out)["kind"] == "kernel_witness"

    def test_ose_failure_report_always_zero(self, write_config, capsys):
        cfg = write_config({"command": "witness", "seed": 0, "trials": 20,
                            "params": {"witness": "ose_failure", "m": 4, "d": 2, "n": 8}})
        code, out, _ = run_cli(["witness", "--config", cfg], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["trials"] == 20 and obj["failures"] == 6
        assert obj["rate"] == 0.3

    def test_rip_pattern_on_duplicates(self, tmp_path, write_config, capsys):
        A = dense([[1.0, 1.0], [0.0, 0.0]])
        path = tmp_path / "two.json"
        path.write_text(matrix_to_json(A))
        cfg = write_config({"command": "witness",
                            "params": {"witness": "rip_pattern", "input": str(path),
                                       "k": 2}})
        code, out, _ = run_cli(["witness", "--config", cfg], capsys)
        assert code == 2
        assert json.loads(out)["ratio"] == 2.0


class TestBounds:
    def test_formula_flag(self, capsys):
        code, out, err = run_cli(
            ["bounds", "--formula", "min_sparsity", "--params", "q=100,r=10"], capsys)
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["value"] == 3 and obj["normalized_constant"] is True

    def test_pair_valued_formula(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--formula", "code_size", "--params", "eps=0.25,k=4,n=1024"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == [64.0, 3.4657359027997265]

    def test_config_with_inline_args(self, write_config, capsys):
        cfg = write_config({"command": "bounds",
                            "params": {"formula": "min_sparsity", "q": 100, "r": 10}})
        code, out, _ = run_cli(["bounds", "--config", cfg], capsys)
        assert code == 0 and json.loads(out)["value"] == 3

    def test_config_with_args_object(self, write_config, capsys):
        cfg = write_config({"command": "bounds",
                            "params": {"formula": "rip_rows",
                                       "args": {"delta": 0.5, "k": 2, "n": 1e4}}})
        code, out, _ = run_cli(["bounds", "--config", cfg], capsys)
        assert code == 0
        assert abs(json.loads(out)["value"] - 60.69240984530951) <= 1e-12

    def test_unknown_formula(self, capsys):
        code, _, err = run_cli(["bounds", "--formula", "nonsense"], capsys)
        assert code == 1 and "nonsense" in err

    def test_missing_param_named_in_error(self, capsys):
        code, _, err = run_cli(["bounds", "--formula", "min_sparsity",
                                "--params", "q=100"], capsys)
        assert code == 1 and "'r'" in err

    def test_bad_params_syntax(self, capsys):
        code, _, err = run_cli(["bounds", "--formula", "min_sparsity",
                                "--params", "q:100"], capsys)
        assert code == 1 and "key=value" in err

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(["bounds", "--formula", "incoherent_rows",
                                "--params", "eps=0.1,N=100"], capsys)
        assert code == 1 and "error" in err

    def test_formula_flag_refuses_csv(self, capsys):
        code, out, err = run_cli(["bounds", "--formula", "min_sparsity", "--params", "q=100,r=10",
                                  "--format", "csv"], capsys)
        assert_one_error_line(code, err)
        assert out == "" and "csv" in err

    def test_needs_formula_or_config(self, capsys):
        code, _, err = run_cli(["bounds"], capsys)
        assert code == 1


SWEEP_CSV = "param,value\n32,0.6\n64,0.375\n128,0.175\n"


class TestSweep:
    def test_ose_failure_rates_csv(self, write_config, capsys):
        cfg = write_config({"command": "sweep", "seed": 5, "trials": 40,
                            "output_format": "csv",
                            "params": {"experiment": "ose_failure", "d": 8, "n": 256,
                                       "grid": {"param": "m", "values": [32, 64, 128]}}})
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        assert out == SWEEP_CSV

    def test_json_record_echoes_config(self, write_config, capsys):
        cfg = write_config({"command": "sweep", "seed": 5, "trials": 40,
                            "params": {"experiment": "ose_failure", "d": 8, "n": 256,
                                       "grid": {"param": "m", "values": [32, 64]}}})
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["config"]["seed"] == 5
        assert obj["rows"] == [{"param": 32, "value": 0.6}, {"param": 64, "value": 0.375}]
        assert obj["summary"]["points"] == 2

    def test_bounds_sweep(self, write_config, capsys):
        cfg = write_config({"command": "sweep", "output_format": "csv",
                            "params": {"experiment": "bounds", "formula": "incoherent_rows",
                                       "eps": 0.1,
                                       "grid": {"param": "N", "values": [200, 1000, 10000]}}})
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)

    def test_grid_must_be_complete(self, write_config, capsys):
        cfg = write_config({"command": "sweep", "trials": 5,
                            "params": {"experiment": "ose_failure", "d": 2, "n": 8,
                                       "grid": {"param": "m"}}})
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 1 and "grid" in err


class TestStreamDemo:
    def test_summary_values(self, write_config, capsys):
        cfg = write_config({"command": "stream-demo", "seed": 9,
                            "params": {"m": 32, "n": 100, "s": 4, "updates": 500}})
        code, out, _ = run_cli(["stream-demo", "--config", cfg], capsys)
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["updates"] == 500
        assert summary["max_abs_deviation"] <= 1e-9
        assert summary["touched_min"] == 4 and summary["touched_max"] == 4
        assert summary["column_sparsity"] == 4

    def test_csv_output(self, write_config, capsys):
        cfg = write_config({"command": "stream-demo", "seed": 9, "output_format": "csv",
                            "params": {"m": 16, "n": 20, "s": 2, "updates": 50}})
        code, out, _ = run_cli(["stream-demo", "--config", cfg], capsys)
        assert code == 0
        assert out.startswith("param,value\nupdates,50\n")

    def test_zero_updates_rejected(self, write_config, capsys):
        cfg = write_config({"command": "stream-demo",
                            "params": {"m": 16, "n": 20, "s": 2, "updates": 0}})
        code, _, err = run_cli(["stream-demo", "--config", cfg], capsys)
        assert code == 1


class TestConfigHandling:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(["measure", "--config", "/no/such/file.json"], capsys)
        assert code == 1 and "not found" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["measure", "--config", str(path)], capsys)
        assert code == 1 and "JSON" in err

    def test_command_mismatch(self, write_config, capsys):
        cfg = write_config({"command": "sweep", "params": {}})
        code, _, err = run_cli(["measure", "--config", cfg], capsys)
        assert code == 1 and "sweep" in err

    def test_bad_output_format(self, write_config, capsys):
        cfg = write_config({"command": "stream-demo", "output_format": "xml",
                            "params": {"m": 4, "n": 4, "s": 1, "updates": 1}})
        code, _, err = run_cli(["stream-demo", "--config", cfg], capsys)
        assert code == 1 and "xml" in err

    def test_bad_seed(self, write_config, capsys):
        cfg = write_config({"command": "stream-demo", "seed": -1,
                            "params": {"m": 4, "n": 4, "s": 1, "updates": 1}})
        code, _, err = run_cli(["stream-demo", "--config", cfg], capsys)
        assert code == 1

    def test_bad_trials(self, write_config, capsys):
        cfg = write_config({"command": "sweep", "trials": 0,
                            "params": {"experiment": "ose_failure", "d": 2, "n": 8,
                                       "grid": {"param": "m", "values": [4]}}})
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 1 and "trials" in err

    def test_seed_override_changes_output(self, write_config, capsys):
        cfg = write_config({"command": "construct", "seed": 7,
                            "params": {"family": "sign_jl", "m": 8, "n": 5, "s": 3}})
        _, base, _ = run_cli(["construct", "--config", cfg], capsys)
        _, overridden, _ = run_cli(["construct", "--config", cfg, "--seed", "8"], capsys)
        _, same, _ = run_cli(["construct", "--config", cfg, "--seed", "7"], capsys)
        assert overridden != base
        assert same == base

    def test_format_override(self, write_config, capsys):
        cfg = write_config({"command": "stream-demo", "seed": 9,
                            "params": {"m": 16, "n": 20, "s": 2, "updates": 50}})
        code, out, _ = run_cli(
            ["stream-demo", "--config", cfg, "--format", "csv"], capsys)
        assert code == 0 and out.startswith("param,value\n")

    def test_out_writes_file_and_silences_stdout(self, write_config, tmp_path, capsys):
        cfg = write_config({"command": "bounds",
                            "params": {"formula": "min_sparsity", "q": 100, "r": 10}})
        dest = tmp_path / "result.json"
        code, out, _ = run_cli(["bounds", "--config", cfg, "--out", str(dest)], capsys)
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["value"] == 3

    def test_output_path_in_config(self, write_config, tmp_path, capsys):
        dest = tmp_path / "result.json"
        cfg = write_config({"command": "bounds", "output_path": str(dest),
                            "params": {"formula": "min_sparsity", "q": 100, "r": 10}})
        code, out, _ = run_cli(["bounds", "--config", cfg], capsys)
        assert code == 0 and out == ""
        assert dest.exists()

    def test_load_config_defaults(self, write_config):
        cfg = load_config(write_config({"params": {"x": 1}}), "measure")
        assert cfg.seed == 0 and cfg.trials is None
        assert cfg.output_format == "json" and cfg.output_path is None

    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        capsys.readouterr()


class TestDeterminism:
    @pytest.mark.parametrize("argv_builder", [
        lambda w: ["construct", "--config",
                   w({"command": "construct", "seed": 7,
                      "params": {"family": "sign_jl", "m": 8, "n": 5, "s": 3}})],
        lambda w: ["sweep", "--config",
                   w({"command": "sweep", "seed": 5, "trials": 40,
                      "output_format": "csv",
                      "params": {"experiment": "ose_failure", "d": 8, "n": 256,
                                 "grid": {"param": "m", "values": [32, 64, 128]}}})],
        lambda w: ["stream-demo", "--config",
                   w({"command": "stream-demo", "seed": 9,
                      "params": {"m": 32, "n": 100, "s": 4, "updates": 500}})],
        lambda w: ["bounds", "--formula", "rip_rows",
                   "--params", "delta=0.5,k=2,n=10000"],
    ])
    def test_reruns_are_byte_identical(self, argv_builder, write_config, capsys):
        argv = argv_builder(write_config)
        first_code, first_out, _ = run_cli(argv, capsys)
        second_code, second_out, _ = run_cli(argv, capsys)
        assert first_code == second_code == 0
        assert first_out == second_out
        assert first_out.endswith("\n")


@pytest.fixture
def fixture_dir(tmp_path, monkeypatch):
    """A working directory holding tiny artifacts under relative names, so
    payloads that echo an input path are the same bytes in every run."""
    (tmp_path / "A.json").write_text(matrix_to_json(sample_sparse_sign_jl(8, 6, 3, 7)))
    (tmp_path / "S.json").write_text(one_sparse_map_to_json(sample_countsketch(3, 6, 11)))
    (tmp_path / "code.json").write_text(code_to_json(random_code(4, 2, 3, 0.5, 2)))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _frozen(name, command, params, code, sha256, **settings):
    return pytest.param([command, "--config", {"command": command, "params": params, **settings}],
                        code, sha256, id=name)


def _frozen_bound(formula, args, code, sha256):
    return pytest.param(["bounds", "--formula", formula, "--params", args], code, sha256, id=formula)


# one run per construct family, measure, witness, sweep experiment and bound
# formula, with the exit code and the sha256 of the stdout the if-chain
# dispatch produced (and the stream demo in both formats, hashed before it
# shared its table writer with sweep): a change to any payload shows here
FROZEN_RUNS = [
    _frozen("sign_jl", "construct", {"family": "sign_jl", "m": 8, "n": 5, "s": 3},
            0, "c4d1f3bb863091a4fa994e633825f7e17fd8ef97e094eac5f3326be5cd48e389", seed=7),
    _frozen("osnap_block", "construct", {"family": "osnap_block", "m": 8, "n": 5, "s": 2},
            0, "b909103f0e9e705c34e0b2bcc84021d08b2c22b68de0b38dee6a141eb2e660f9", seed=7),
    _frozen("countsketch", "construct", {"family": "countsketch", "m": 6, "n": 9},
            0, "f179ca197aa64113a5f7ab1b7ee223492a0fd73f8ae249bfc03d68c39778b36d", seed=3),
    _frozen("random_code", "construct",
            {"family": "random_code", "q": 8, "t": 6, "N": 16, "eps": 0.5},
            0, "905ecc243c13554f08e2fa5f035bdbca758e09f28f022ad643209a8f42aa399a", seed=1),
    _frozen("code_matrix", "construct", {"family": "code_matrix", "code": "code.json"},
            0, "72d0efa8cd6552ed5d61084cc673ca714dd6a4c4a2ea70113f703b9b4255980b"),
    _frozen("spread_vectors", "construct",
            {"family": "spread_vectors", "code": "code.json", "n": 8, "k": 4},
            0, "da190746fbd44f95bdca1e6efd6d80638811d7c4afb1d1777b8937badba7df68"),
    _frozen("coherence", "measure", {"measure": "coherence", "input": "A.json"},
            0, "bfca91034e883b2904851a38d2a1f13259ba804a1cf439e02be0ee8cfb97661c"),
    _frozen("rip_exact", "measure", {"measure": "rip_exact", "input": "A.json", "k": 2},
            0, "d8027ab465ae57ef0b384c2f99d1691fcfa4677513775a9143fb70cb98f3a854"),
    _frozen("rip_lower_estimate", "measure",
            {"measure": "rip_lower_estimate", "input": "A.json", "k": 3},
            0, "62ab46a2cdcd2fd04112930570c27962daebd8a31bd5e3913232fd3445f33f87", seed=3, trials=5),
    _frozen("subspace_distortion", "measure",
            {"measure": "subspace_distortion", "input": "S.json", "indices": [0, 2, 4]},
            0, "b1206729e712be1caf6e0e6ea8f16c8e7f39c63be01fff57d20d9165806d5c46"),
    _frozen("row_mass_profile", "measure", {"measure": "row_mass_profile", "input": "A.json", "x": 0.3},
            0, "4cfe66af3ece6364b079938468d2839d8db3e7c9ba3ea546741fb5704ce9a279"),
    _frozen("scale_profile", "measure", {"measure": "scale_profile", "input": "A.json", "column": 1},
            0, "794829efc88f50cf618ae275b1b7b83de46090f0c6ee8d84eec12b4fab062f8d"),
    _frozen("column_sparsity", "measure", {"measure": "column_sparsity", "input": "A.json"},
            0, "f0b7e03c214bd50f0a6b4adde59cad5a5e487840d98f4743d63478191515781d"),
    _frozen("ose_failure", "witness", {"witness": "ose_failure", "m": 4, "d": 2, "n": 8},
            0, "fcf4ff1cd9f1a9dde880459f0b2047f05b6bdf663c40998a41cc2911f316f131", trials=20),
    _frozen("row_mass", "witness", {"witness": "row_mass", "input": "A.json", "eps": 0.25},
            0, "45d9b2cc3b58bc9ba975f05fc5303f163331bbae8364a0b47ad4a167068a6f6a"),
    _frozen("ttype_collision", "witness",
            {"witness": "ttype_collision", "input": "A.json", "eps": 0.05, "t": 2},
            0, "356d31b92f6692d2feb12950e1dec502be3bfe4e4332f45ea61f96efa32142b6"),
    _frozen("sign_pattern", "witness",
            {"witness": "sign_pattern", "input": "A.json", "eps": 0.3, "t": 2},
            0, "7b67f3b320d93069c4e2225f25434db9ce3b9c21fa14217fe797d7d5ec795cb9"),
    _frozen("sign_pattern_full", "witness",
            {"witness": "sign_pattern", "input": "A.json", "eps": 0.3, "t": 2, "full_enumeration": True},
            2, "f4c3f1ee731c93f59977d52d34e80bc1cf01ea6d38b14c8cffecbdcfa0148cc3"),
    _frozen("rip_pattern", "witness", {"witness": "rip_pattern", "input": "A.json", "k": 2},
            0, "6edc0e917dfc1e77b1644d949756ad29fd8d8be98ec9d9d83a09947286036f3f"),
    _frozen("ose_collision", "witness", {"witness": "ose_collision", "input": "S.json"},
            2, "de2a9b12b361250653c1614c311214a1b2464c2139288716fb22674150ff3867"),
    _frozen("ose_collision_indices", "witness",
            {"witness": "ose_collision", "input": "S.json", "indices": [2, 3, 5]},
            2, "0841c8c968eb28b68127bb4c55a5820813a818b84d0e71adaa0cdf2a335fb407"),
    _frozen("sweep_ose_failure", "sweep",
            {"experiment": "ose_failure", "d": 2, "n": 8, "grid": {"param": "m", "values": [4, 8]}},
            0, "b83825255e19b8127068843e3956b3f420a8e78614a651fce429514641931edf", seed=5, trials=10),
    _frozen("sweep_bounds", "sweep",
            {"experiment": "bounds", "formula": "code_size", "eps": 0.25, "k": 4,
             "grid": {"param": "n", "values": [256, 1024]}},
            0, "895b9808d2c695b7ab063f85002676e8ea8e6c5964ab27eb2af05b22c7409fbe", output_format="csv"),
    _frozen("stream_demo", "stream-demo", {"m": 16, "n": 20, "s": 2, "updates": 50},
            0, "3bd386c364dbdfdd1b9525f8058f81a00348db071f74ec64d78f917c06846af2", seed=9),
    _frozen("stream_demo_csv", "stream-demo", {"m": 16, "n": 20, "s": 2, "updates": 50},
            0, "23c02c336fb64d0f1764165a5f322ec9d73b69e2dfb54278ae66edf4a7022313", seed=9, output_format="csv"),
    _frozen_bound("min_sparsity", "q=100,r=10",
            0, "4707d8c3263785d795746f4bea696f84b9af8c1a585ad9c6d98f2ce8fbe64469"),
    _frozen_bound("incoherent_rows", "eps=0.1,N=1000",
            0, "092d57fafade5257902d1bdd1beb4afae6d4b8b7defe9b996307460b16a59cc0"),
    _frozen_bound("jl_sparsity", "eps=0.1,n=10000,m=500",
            0, "ae9f2ccea90aa191318d65fbd342f2e1b07fa0bb4908c27842e1a5632ab7e9fb"),
    _frozen_bound("rip_sparsity", "k=10,n=1e12,m=1000",
            0, "1d1ebed743125888d4bbaa3e287f89d1f64a9b4cfbbeb77f1c69788345c75128"),
    _frozen_bound("rip_rows", "delta=0.5,k=2,n=10000",
            0, "84274e6eec03df22799bedc6164289aa528a01327da7b7181d2e167591675b51"),
    _frozen_bound("code_size", "eps=0.25,k=4,n=1024",
            0, "99f835ffd2c23fda0da355739f1a5601e58ae8d6ec0473be5cad2f1c3818b983"),
]


class TestFrozenStdout:
    @pytest.mark.parametrize("argv,code,sha256", FROZEN_RUNS)
    def test_stdout_bytes(self, argv, code, sha256, fixture_dir, write_config, capsys):
        argv = [write_config(a) if isinstance(a, dict) else a for a in argv]
        got_code, out, err = run_cli(argv, capsys)
        assert (got_code, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


# params for every table entry that loads an input, on a 6-column map into 4 rows
MAP_PARAMS = {
    ("measure", "coherence"): {},
    ("measure", "rip_exact"): {"k": 2},
    ("measure", "rip_lower_estimate"): {"k": 3},
    ("measure", "subspace_distortion"): {"indices": [0, 2, 5]},
    ("measure", "row_mass_profile"): {"x": 0.5},
    ("measure", "scale_profile"): {"column": 1},
    ("measure", "column_sparsity"): {},
    ("witness", "row_mass"): {"eps": 0.3},
    ("witness", "ttype_collision"): {"eps": 0.1, "t": 1},
    ("witness", "sign_pattern"): {"eps": 0.1, "t": 1},
    ("witness", "rip_pattern"): {"k": 2},
    ("witness", "ose_collision"): {},
    ("witness", "ose_collision", "indices"): {"indices": [5, 1, 3]},
}


def test_every_input_entry_is_run_on_a_map():
    loading = {(command, name) for command, table in (("measure", MEASURES), ("witness", WITNESSES))
               for name, entry in table.items() if entry.load}
    assert loading == {key[:2] for key in MAP_PARAMS}


@pytest.mark.parametrize("key", MAP_PARAMS, ids=["-".join(key) for key in MAP_PARAMS])
def test_map_file_and_its_matrix_json_print_the_same(key, tmp_path, write_config, capsys):
    command, name = key[:2]
    S = sample_countsketch(4, 6, 2)
    path = tmp_path / "input.json"
    cfg = write_config({"command": command, "seed": 5, "trials": 4,
                        "params": {command: name, "input": str(path), **MAP_PARAMS[key]}})
    runs = []
    for text in (one_sparse_map_to_json(S), matrix_to_json(S)):
        path.write_text(text)
        runs.append(run_cli([command, "--config", cfg], capsys))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 2)


def assert_one_error_line(code, err):
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sketchbounds: error: ")


class TestBadInputsExitOne:
    @pytest.fixture
    def artifacts(self, tmp_path):
        text = matrix_to_json(sample_sparse_sign_jl(8, 5, 3, 7))
        paths = {"truncated": tmp_path / "truncated.json", "map": tmp_path / "map.json",
                 "matrix": tmp_path / "matrix.json", "empty": tmp_path / "empty.json",
                 "not_utf8": tmp_path / "not_utf8.json", "huge_int": tmp_path / "huge_int.json"}
        paths["truncated"].write_text(text[: len(text) // 2])
        paths["matrix"].write_text(text)
        paths["empty"].write_text('{"cols": [[]], "m": 2, "n": 1}')
        paths["not_utf8"].write_bytes(b"\xff\xfe" + text.encode())
        # m has 5001 digits, past json's 4300-digit limit for integers
        paths["huge_int"].write_text('{"cols":[[[0,0.5]]],"m":1' + "0" * 5000 + ',"n":1}\n')
        paths["map"].write_text(one_sparse_map_to_json(sample_countsketch(4, 5, 1)))
        return {"nul": f"{paths['matrix']}\0", **{k: str(v) for k, v in paths.items()}}

    @pytest.mark.parametrize("command,params", [
        ("measure", {"measure": "coherence", "input": "truncated"}),
        ("measure", {"measure": "subspace_distortion", "input": "truncated", "indices": [0, 1]}),
        ("measure", {"measure": "scale_profile", "input": "map", "column": 9}),
        ("witness", {"witness": "ose_collision", "input": "matrix"}),
        ("measure", {"measure": "coherence", "input": "not_utf8"}),
        ("measure", {"measure": "rip_exact", "input": "matrix", "k": 0}),
        ("witness", {"witness": "sign_pattern", "input": "empty", "eps": 0.1, "t": 1}),
        ("measure", {"measure": "coherence", "input": "nul"}),
        ("measure", {"measure": "coherence", "input": "huge_int"}),
    ])
    def test_unusable_artifact(self, command, params, artifacts, write_config, capsys):
        cfg = write_config({"command": command,
                            "params": {**params, "input": artifacts[params["input"]]}})
        code, _, err = run_cli([command, "--config", cfg], capsys)
        assert_one_error_line(code, err)

    @pytest.mark.parametrize("config", [
        {"command": "witness", "trials": 5, "params": {"witness": "ose_failure", "m": 0, "d": 2, "n": 8}},
        {"command": "bounds", "params": {"formula": "incoherent_rows", "eps": 0.1, "N": float("inf")}},
        {"command": "bounds", "params": {"formula": "incoherent_rows", "eps": 0.1, "N": True}},
        {"command": "bounds", "params": {"formula": "incoherent_rows", "eps": "0.1", "N": 100}},
        {"command": "sweep", "trials": True,
         "params": {"experiment": "ose_failure", "d": 2, "n": 8, "grid": {"param": "m", "values": [4]}}},
        {"command": "sweep", "trials": 5,
         "params": {"experiment": "ose_failure", "d": 2, "n": 8, "grid": {"param": "m", "values": [4.9]}}},
        {"command": "stream-demo", "seed": True, "params": {"m": 4, "n": 4, "s": 1, "updates": 1}},
        {"command": "stream-demo", "params": {"m": True, "n": 4, "s": 1, "updates": 1}},
        {"command": "construct", "params": {"family": "random_code", "q": 4, "t": 2, "N": 2, "eps": float("nan")}},
        {"command": "construct", "params": {"family": "random_code", "q": 4, "t": 2, "N": 2, "eps": 2}},
        {"command": "construct",
         "params": {"family": "random_code", "q": 4, "t": 2, "N": 2, "eps": 0.5, "max_attempts": 2.5}},
        *({"command": "measure", "params": {"measure": "subspace_distortion", "input": "matrix", "indices": bad}}
          for bad in (["x"], [None], [[0]], [1.7, 2], [True, 2])),
        *({"command": "witness", "params": {"witness": "ose_collision", "input": "map", "indices": bad}}
          for bad in (5, "ab", "01")),
        {"command": "witness", "params": {"witness": "sign_pattern", "input": "matrix", "eps": 0.1, "t": 1,
                                          "full_enumeration": "false"}},
        *({"command": "sweep", "params": {"experiment": "bounds", "formula": "incoherent_rows", "eps": 0.1,
                                          "grid": {"param": bad, "values": [100]}}}
          for bad in (["N"], {"N": 1})),
        {"command": "bounds", "params": {"formula": "incoherent_rows", "args": "epsN"}},
        # a grid axis the experiment never reads
        {"command": "sweep", "output_format": "csv",
         "params": {"experiment": "bounds", "formula": "jl_sparsity", "eps": 0.1, "n": 10000, "m": 500,
                    "grid": {"param": "zzz", "values": [[1, 2], "a,b"]}}},
        {"command": "sweep", "params": {"experiment": "bounds", "formula": "jl_sparsity", "eps": 0.1, "n": 10000,
                                        "m": 500, "grid": {"param": "formula", "values": ["jl_sparsity"]}}},
        {"command": "sweep", "trials": 5,
         "params": {"experiment": "ose_failure", "m": 4, "d": 2, "n": 8, "grid": {"param": "mm", "values": [4, 8]}}},
        {"command": "measure", "params": {"measure": "row_mass_profile", "input": "matrix", "x": 5e-324}},
        {"command": "measure", "params": {"measure": "coherence", "input": "matrix", "note": float("nan")}},
        {"command": "bounds", "output_path": ["x"], "params": {"formula": "min_sparsity", "q": 100, "r": 10}},
    ])
    def test_bad_config_value(self, config, artifacts, write_config, capsys):
        params = config["params"]
        if "input" in params:
            config = {**config, "params": {**params, "input": artifacts[params["input"]]}}
        code, _, err = run_cli([config["command"], "--config", write_config(config)], capsys)
        assert_one_error_line(code, err)

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe" + json.dumps({"params": {"measure": "coherence"}}).encode())
        code, _, err = run_cli(["measure", "--config", str(cfg)], capsys)
        assert_one_error_line(code, err)

    @pytest.mark.parametrize("text", [
        '{"seed": 1' + "0" * 5000 + ', "params": {"measure": "coherence"}}',  # past json's digit limit
        "[" * 100_000 + "]" * 100_000,  # past the recursion limit
    ], ids=["huge_seed", "deep_nesting"])
    def test_config_past_json_limits(self, text, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        code, _, err = run_cli(["measure", "--config", str(cfg)], capsys)
        assert_one_error_line(code, err)

    @pytest.mark.parametrize("params", ["eps=0.1,N=inf", "eps=0.1,N=nan", "eps=0.1,N=1e400"])
    def test_non_finite_bound_argument(self, params, capsys):
        code, _, err = run_cli(["bounds", "--formula", "incoherent_rows", "--params", params], capsys)
        assert_one_error_line(code, err)


@pytest.mark.parametrize("witness", ["ttype_collision", "sign_pattern"])
@pytest.mark.parametrize("eps", [-1.0, -1e-300])
def test_negative_eps_exits_one(witness, eps, tmp_path, write_config, capsys):
    path = tmp_path / "A.json"
    path.write_text(matrix_to_json(sample_sparse_sign_jl(16, 40, 4, 1)))
    cfg = write_config({"command": "witness",
                        "params": {"witness": witness, "input": str(path), "eps": eps, "t": 2}})
    code, out, err = run_cli(["witness", "--config", cfg], capsys)
    assert_one_error_line(code, err)
    assert out == "" and "eps must be >= 0" in err


@pytest.mark.parametrize("config, argv, message", [
    ("[1, 2]", ["measure"], "config must be a JSON object"),
    ('{"params": [1]}', ["measure"], "'params' must be an object"),
    (None, ["bounds", "--formula", "incoherent_rows", "--params", "eps=0.1,N=many"], "non-numeric value 'many'"),
], ids=["config_not_object", "params_not_object", "non_numeric_params_flag"])
def test_malformed_config_or_params_flag(config, argv, message, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    code, _, err = run_cli(argv, capsys)
    assert_one_error_line(code, err)
    assert message in err
