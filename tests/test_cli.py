"""Config validation, report determinism, fixture dumps, and CLI exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from virloop.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_UNSATISFIABLE,
    load_config_data,
    main,
)
from virloop.config import (
    ConfigError,
    belem_field,
    build_modules,
    fixture_dump,
    load_config,
    report_json,
    run_config,
)
from virloop.coeff_algebra import split_algebra
from virloop.scalars import scalar


def minimal_config(**overrides):
    data = {"algebra": "trivial", "phi": {"d0": ["1"]}}
    data.update(overrides)
    return data


def tensor_config(**overrides):
    data = {
        "algebra": "split 2",
        "phi": {"d0": ["0", "1"], "c": ["0", "0"]},
        "psi": ["1", "0"],
        "alpha": "1/2",
        "beta": "1/3",
        "depth": 1,
        "window": [-4, 4],
    }
    data.update(overrides)
    return data


# -- config validation ---------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config(minimal_config())
    assert cfg.depth == 2
    assert cfg.window == (-6, 6)
    assert cfg.seed == 0
    assert cfg.probes == []
    assert cfg.psi is None and cfg.alpha is None and cfg.beta is None


def test_load_config_missing_algebra_path():
    with pytest.raises(ConfigError) as err:
        load_config({"phi": {"d0": ["1"]}})
    assert err.value.path == "algebra"


def test_load_config_noncommutative_pair_named():
    table = [[[1, 0], [0, 1]], [[1, 0], [0, 0]]]
    with pytest.raises(ConfigError) as err:
        load_config(minimal_config(algebra={"table": table, "unit": [1, 0]}))
    assert err.value.path == "algebra"
    assert "commutativity" in err.value.message
    assert "e0*e1" in err.value.message


def test_load_config_phi_length_path():
    with pytest.raises(ConfigError) as err:
        load_config({"algebra": "split 2", "phi": {"d0": ["1"]}})
    assert err.value.path == "phi.d0"
    assert "expected 2 values" in err.value.message


def test_load_config_rejects_unknown_top_field():
    with pytest.raises(ConfigError) as err:
        load_config(minimal_config(depht=3))
    assert err.value.path == "depht"


def test_load_config_rejects_threads_field(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(minimal_config(threads=2))
    assert err.value.path == "threads"
    path = tmp_path / "threads.json"
    path.write_text(json.dumps(minimal_config(threads=2)))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert main(["verma", "--phi-d0", "1", "--depth", "1", "--threads", "2"]) == EXIT_CONFIG


def test_load_config_rejects_unknown_phi2_field(tmp_path):
    probe = {"kind": "psi-separation", "psi2": ["0", "1"], "phi2": {"d0": ["2", "3"], "cc": ["5", "5"]}}
    data = tensor_config(probes=[probe])
    with pytest.raises(ConfigError) as err:
        load_config(data)
    assert err.value.path == "probes[0].phi2.cc"
    assert err.value.message == "unknown field"
    path = tmp_path / "phi2.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG


def test_load_config_rejects_float_scalar():
    with pytest.raises(ConfigError) as err:
        load_config({"algebra": "trivial", "phi": {"d0": [0.5]}})
    assert err.value.path == "phi.d0[0]"


def test_load_config_alpha_without_psi():
    with pytest.raises(ConfigError) as err:
        load_config(minimal_config(alpha="1/2"))
    assert err.value.path == "alpha"


def test_load_config_probe_needs_psi():
    with pytest.raises(ConfigError) as err:
        load_config(minimal_config(probes=[{"kind": "endo", "m": 0, "k": 1}]))
    assert err.value.path == "probes[0]"


def test_load_config_unknown_probe_kind_path():
    with pytest.raises(ConfigError) as err:
        load_config(tensor_config(probes=[{"kind": "mystery"}]))
    assert err.value.path == "probes[0].kind"


def test_load_config_window_order():
    with pytest.raises(ConfigError) as err:
        load_config(minimal_config(window=[3, -3]))
    assert err.value.path == "window"


def test_load_config_bad_psi_not_character():
    with pytest.raises(ConfigError) as err:
        load_config(tensor_config(psi=["2", "0"]))
    assert err.value.path == "psi"


def test_belem_field_label_and_coords():
    algebra = split_algebra(2)
    assert belem_field(algebra, "e1", "b") == algebra.basis_elem(1)
    assert belem_field(algebra, ["1", "1"], "b") == algebra.unit
    with pytest.raises(ConfigError):
        belem_field(algebra, "e7", "b")


# -- report execution ------------------------------------------------------------


def test_run_config_empty_probes_dimension_tables():
    report = run_config(load_config(minimal_config(depth=2)))
    assert report["status"] == "pass"
    assert report["results"]["probes"] == []
    levels = report["results"]["verma"]["levels"]
    assert levels["2"]["dim"] == 2
    assert "timing" not in report


def test_run_config_timing_opt_in():
    report = run_config(load_config(minimal_config(depth=0)), with_timing=True)
    assert "timing" in report and report["timing"]["seconds"] >= 0


def test_run_config_deterministic_bytes():
    data = tensor_config(
        depth=2,
        seed=11,
        probes=[
            {"kind": "ladder", "b": "e0"},
            {"kind": "endo", "m": 0, "k": 2},
            {"kind": "iso-identity", "samples": 5},
        ],
    )
    first = report_json(run_config(load_config(data)))
    second = report_json(run_config(load_config(data)))
    assert first == second
    parsed = json.loads(first)
    assert parsed["status"] == "pass"


def test_run_config_aggregates_unsatisfiable():
    data = tensor_config(alpha="0", beta="0", probes=[{"kind": "endo", "m": 0, "k": 1}])
    report = run_config(load_config(data))
    assert report["status"] == "hypothesis-unsatisfiable"


def test_run_config_psi_separation_probe():
    data = tensor_config(
        phi={"d0": ["1", "2"], "c": ["0", "0"]},
        window=[-2, 2],
        probes=[{"kind": "psi-separation", "psi2": ["0", "1"]}],
    )
    report = run_config(load_config(data))
    cert = report["results"]["probes"][0]
    assert cert["status"] == "pass"
    assert cert["facts"]["witness"] == ["0", "1"]


def test_run_config_depth_reduction_with_explicit_vector():
    data = tensor_config(
        algebra="trivial",
        phi={"d0": ["1"], "c": ["0"]},
        psi=["1"],
        beta="2",
        probes=[
            {
                "kind": "depth-reduction",
                "case": "I",
                "b": "e0",
                "m": 0,
                "n": 1,
                "vector": [[1, [[1, 0]], 1, "1"]],
            }
        ],
    )
    report = run_config(load_config(data))
    cert = report["results"]["probes"][0]
    assert cert["status"] == "pass"
    assert cert["facts"]["l"] == 3


def test_run_config_iso_coeffs_probe():
    data = minimal_config(
        probes=[{"kind": "iso-coeffs", "A": "1", "b1": "2", "Q": "1", "b2": "3"}]
    )
    report = run_config(load_config(data))
    cert = report["results"]["probes"][0]
    assert cert["status"] == "pass"
    assert cert["facts"]["coefficients"]["mn_times_sum"] == "-6"
    assert cert["facts"]["perturbation_detected"] is True


# -- fixtures ---------------------------------------------------------------------


def test_fixture_dump_contents_and_determinism(tmp_path):
    cfg = load_config(
        {"algebra": "trivial", "phi": {"d0": ["1"], "c": ["0"]}, "depth": 2}
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    files = fixture_dump(cfg, str(out1))
    fixture_dump(cfg, str(out2))
    names = sorted(os.path.basename(p) for p in files)
    assert names == [
        "actions.csv",
        "gram_level_1.csv",
        "gram_level_2.csv",
        "manifest.json",
        "radical_level_1.csv",
        "radical_level_2.csv",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    gram2 = (out1 / "gram_level_2.csv").read_text().splitlines()
    assert gram2[1].endswith(",4,6")
    assert gram2[2].endswith(",6,-4")


def test_fixture_dump_depth_zero_header_only(tmp_path):
    cfg = load_config({"algebra": "trivial", "phi": {"d0": ["1"]}, "depth": 0})
    fixture_dump(cfg, str(tmp_path))
    lines = (tmp_path / "actions.csv").read_text().splitlines()
    assert lines == ["level,degree,bindex,source,target,coefficient"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["files"] == ["actions.csv"]


# -- CLI ----------------------------------------------------------------------------


def test_cli_demo_config_passes_and_is_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "cor31-split", "--output", str(out1)]) == EXIT_PASS
    assert main(["run", "cor31-split", "--output", str(out2)]) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["status"] == "pass"
    kinds = [p["kind"] for p in report["results"]["probes"]]
    assert kinds == ["ladder", "endo", "iso-identity"]


def test_cli_run_stdout_report(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_config()))
    assert main(["run", str(path)]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["verma"]["algebra"] == "trivial"


def test_cli_run_missing_file_is_config_error(capsys):
    assert main(["run", "/nonexistent/nowhere.json"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_run_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_CONFIG


def test_cli_bad_flag_value_is_config_error(capsys):
    assert main(["verma", "--phi-d0", "1", "--depth", "x"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_internal_error_exits_4_with_traceback(monkeypatch, capsys):
    import virloop.config as config

    def broken_engine(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(config, "VermaModule", broken_engine)
    code = main(["verma", "--phi-d0", "1", "--phi-c", "0", "--depth", "2"])
    assert code == EXIT_INTERNAL
    assert code not in (EXIT_PASS, EXIT_FAIL, EXIT_UNSATISFIABLE, EXIT_CONFIG)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error" in captured.err
    assert "Traceback (most recent call last)" in captured.err
    assert "RuntimeError: engine fault" in captured.err


def test_cli_verma_levels(capsys):
    code = main(["verma", "--phi-d0", "1", "--phi-c", "0", "--depth", "2", "--irreducibility"])
    assert code == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["levels"]["2"] == {"dim": 2, "gram_rank": 2, "radical_dim": 0, "quotient_dim": 2}
    assert out["quotient_generates_top"] is True


def test_cli_int_module_reducible_pair_consistent(capsys):
    code = main(["int-module", "--alpha", "0", "--beta", "1", "--window", "-6", "6", "--degree", "3"])
    assert code == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["irreducible"] is False
    assert out["closure_full"] is False
    assert out["normalized"]["closure_full"] is True
    assert out["consistent"] is True


def test_cli_tensor_generation(capsys):
    code = main(
        [
            "tensor",
            "--phi-d0", "1",
            "--psi", "1",
            "--alpha", "1/2",
            "--beta", "1/3",
            "--depth", "1",
            "--window", "-2", "2",
        ]
    )
    assert code == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["generated_by_pure_tensors"] is True
    assert out["weight_space_dims"]["0"] == 2


def test_cli_tensor_generation_budget_layers_regression(capsys):
    # an image already in the span may still carry budget to expand; the
    # span of every negative word of depth <= 2 fills this truncation
    code = main(
        [
            "tensor",
            "--algebra", "split 2",
            "--phi-d0", "0", "1",
            "--psi", "1", "0",
            "--alpha", "1/2",
            "--beta", "1/3",
            "--depth", "2",
            "--window", "-3", "3",
        ]
    )
    assert code == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["generated_by_pure_tensors"] is True


WINDOW_COMMANDS = {
    "int-module": ["int-module", "--alpha", "1/2", "--beta", "1/3"],
    "tensor": ["tensor", "--phi-d0", "1", "--psi", "1", "--alpha", "1/2", "--beta", "1/3"],
    "cor31": ["cor31", "--phi-d0", "1", "--psi", "1", "--alpha", "1/2", "--beta", "1/3", "--b", "e0"],
    "psi-sep": [
        "psi-sep", "--algebra", "split 2", "--phi-d0", "0", "1",
        "--psi1", "1", "0", "--psi2", "0", "1", "--alpha", "1/2", "--beta", "1/3",
    ],
    "iso-check": [
        "iso-check", "--algebra", "split 2",
        "--phi1-d0", "0", "1", "--psi1", "1", "0", "--alpha1", "1/2", "--beta1", "1/3",
        "--phi2-d0", "0", "1", "--psi2", "0", "1", "--alpha2", "1/2", "--beta2", "1/3",
        "--refute",
    ],
}


@pytest.mark.parametrize("command", sorted(WINDOW_COMMANDS))
def test_cli_reversed_window_is_config_error(command, capsys):
    assert main(WINDOW_COMMANDS[command] + ["--window", "8", "-8"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kmin 8 exceeds kmax -8" in captured.err


_PHI = ["--phi-d0", "1", "--psi", "1", "--alpha", "1/2", "--beta", "1/3"]

# every subcommand that builds a Verma factor, with a negative truncation depth
NEGATIVE_DEPTH_COMMANDS = {
    "verma": ["verma", "--phi-d0", "1", "--depth", "-1"],
    "tensor": ["tensor", *_PHI, "--depth", "-1"],
    "endo-probe": ["endo-probe", *_PHI, "--k", "0", "--depth", "-1"],
    "x-probe": ["x-probe", *_PHI, "--case", "I", "--b", "e0", "--n", "1", "--depth", "-1"],
    "cor31": ["cor31", *_PHI, "--b", "e0", "--depth", "-1"],
    "psi-sep": ["psi-sep", "--algebra", "split 2", "--phi-d0", "0", "1", "--psi1", "1", "0",
                "--psi2", "0", "1", "--alpha", "1/2", "--beta", "1/3", "--depth", "-1"],
    # isomorphic modules: nothing is built, yet the depth is still checked
    "iso-check": ["iso-check", "--phi1-d0", "1", "--psi1", "1", "--alpha1", "1/2", "--beta1", "1/3",
                  "--phi2-d0", "1", "--psi2", "1", "--alpha2", "3/2", "--beta2", "1/3", "--depth", "-1"],
    "iso-check-refute": WINDOW_COMMANDS["iso-check"] + ["--depth", "-1"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_DEPTH_COMMANDS))
def test_cli_negative_depth_is_config_error(command, capsys):
    # the flag goes through config._int_field (minimum 0), as a config's depth does
    assert main(NEGATIVE_DEPTH_COMMANDS[command]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: --depth: must be >= 0" in captured.err


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_cli_int_module_degree_below_one_is_config_error(degree, capsys):
    code = main(["int-module", "--alpha", "1/2", "--beta", "1/3", "--degree", degree])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: --degree: must be >= 1" in captured.err


@pytest.mark.parametrize(
    "alpha, beta, kmin, kmax",
    [("0", "0", "0", "0"), ("0", "0", "0", "1"), ("1/2", "1/3", "3", "3")],
)
def test_cli_int_module_window_below_two_indices_is_config_error(alpha, beta, kmin, kmax, capsys):
    # at (0,0) the normalized module has index set Z-0, so [0, 0] is empty
    code = main(["int-module", "--alpha", alpha, "--beta", beta, "--window", kmin, kmax])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fewer than 2 allowed indices" in captured.err


def test_cli_endo_probe_pass(capsys):
    code = main(
        [
            "endo-probe",
            "--algebra", "split 2",
            "--phi-d0", "0", "1",
            "--psi", "1", "0",
            "--alpha", "1/2",
            "--beta", "1/3",
            "--depth", "2",
            "--m", "0",
            "--k", "2",
        ]
    )
    assert code == EXIT_PASS
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "pass"
    assert cert["facts"]["independence_rank"] == cert["facts"]["expected_rank"]


def test_cli_endo_probe_degenerate_exit(capsys):
    code = main(
        [
            "endo-probe",
            "--phi-d0", "1",
            "--psi", "1",
            "--alpha", "0",
            "--beta", "0",
            "--depth", "1",
            "--m", "0",
            "--k", "1",
        ]
    )
    assert code == EXIT_UNSATISFIABLE


def test_cli_x_probe_case_two(capsys):
    code = main(
        [
            "x-probe",
            "--case", "II",
            "--phi-d0", "1",
            "--psi", "1",
            "--alpha", "1/2",
            "--beta", "0",
            "--depth", "1",
            "--b", "e0",
            "--m", "1",
            "--n", "1",
        ]
    )
    assert code == EXIT_PASS
    cert = json.loads(capsys.readouterr().out)
    assert cert["facts"]["top_depth_out"] < cert["facts"]["top_depth_in"]


def test_cli_cor31_pass(capsys):
    code = main(
        [
            "cor31",
            "--algebra", "split 2",
            "--phi-d0", "0", "1",
            "--psi", "1", "0",
            "--alpha", "1/2",
            "--beta", "1/3",
            "--depth", "1",
            "--window", "-4", "4",
            "--b", "e0",
        ]
    )
    assert code == EXIT_PASS
    cert = json.loads(capsys.readouterr().out)
    assert cert["facts"]["stage_c"]["spans_coincide"] is True


def test_cli_psi_sep_witness(capsys):
    code = main(
        [
            "psi-sep",
            "--algebra", "split 2",
            "--phi-d0", "1", "2",
            "--psi1", "1", "0",
            "--psi2", "0", "1",
            "--alpha", "1/2",
            "--beta", "1/3",
            "--depth", "1",
            "--window", "-2", "2",
        ]
    )
    assert code == EXIT_PASS
    cert = json.loads(capsys.readouterr().out)
    assert cert["facts"]["witness"] == ["0", "1"]


def test_cli_iso_coeffs_frozen_sample(capsys):
    code = main(["iso-coeffs", "--A", "1", "--b1", "2", "--Q", "1", "--b2", "3"])
    assert code == EXIT_PASS
    cert = json.loads(capsys.readouterr().out)
    assert cert["facts"]["coefficients"]["mn_times_sum"] == "-6"
    assert cert["facts"]["identity_on_grid"] is True


def test_cli_iso_check_normalized_equal(capsys):
    code = main(
        [
            "iso-check",
            "--algebra", "split 2",
            "--phi1-d0", "0", "1",
            "--psi1", "1", "0",
            "--alpha1", "1/2",
            "--beta1", "1/3",
            "--phi2-d0", "0", "1",
            "--psi2", "1", "0",
            "--alpha2", "3/2",
            "--beta2", "1/3",
        ]
    )
    assert code == EXIT_PASS
    cert = json.loads(capsys.readouterr().out)
    assert cert["facts"]["isomorphic"] is True


def test_cli_iso_check_refute_attaches_separation(capsys):
    code = main(
        [
            "iso-check",
            "--algebra", "split 2",
            "--phi1-d0", "1", "2",
            "--psi1", "1", "0",
            "--alpha1", "1/2",
            "--beta1", "1/3",
            "--phi2-d0", "1", "2",
            "--psi2", "0", "1",
            "--alpha2", "1/2",
            "--beta2", "1/3",
            "--refute",
            "--depth", "1",
            "--window", "-2", "2",
        ]
    )
    assert code == EXIT_FAIL
    cert = json.loads(capsys.readouterr().out)
    assert cert["facts"]["differences"] == ["psi"]
    assert cert["facts"]["separation"]["status"] == "pass"
    assert "weight_space_dims" in cert["facts"]


def test_cli_fixtures_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"algebra": "trivial", "phi": {"d0": ["1"]}, "depth": 1}))
    code = main(["fixtures", str(cfg_path), "--out", str(tmp_path / "fx")])
    assert code == EXIT_PASS
    listed = capsys.readouterr().out.splitlines()
    assert all(os.path.exists(p) for p in listed)


def test_load_config_data_builtin_and_unknown():
    data = load_config_data("cor31-split")
    assert data["algebra"] == "split 2"
    with pytest.raises(ConfigError):
        load_config_data("no-such-builtin")


def test_cli_k_beyond_depth_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tensor_config(probes=[{"kind": "endo", "m": 0, "k": 4}])))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "probes[0].k" in capsys.readouterr().err


# -- golden outputs -------------------------------------------------------------------

# SHA-256 of stdout and the exit code of each README command-line example, of
# the bundled demo run, and of three hypothesis-unsatisfiable certificates
# (about 150 KB of output in all, so digests rather than files).  A change
# that only makes the engine faster must leave every byte alone; a
# deliberate change of output updates the digest here.
GOLDEN_CLI = [
    (
        ["int-module", "--alpha", "0", "--beta", "1", "--window", "-8", "8", "--degree", "4"],
        EXIT_PASS,
        "2c1994b97a77f23aa9b1a0d66dbfb199c5b504abf2f56378087dc21dad85f13c",
    ),
    (
        ["verma", "--algebra", "split 2", "--phi-d0", "0", "1", "--phi-c", "0", "0",
         "--depth", "3", "--irreducibility"],
        EXIT_PASS,
        "309b9a9ce2a34be2a6ed12faa09c81829a81000a580dc05b609cb1551d3fdbfb",
    ),
    (
        ["tensor", "--phi-d0", "1", "--psi", "1", "--alpha", "1/2", "--beta", "1/3",
         "--depth", "2", "--window", "-4", "4"],
        EXIT_PASS,
        "91b2fdc1f75da0c28dfc1886d96dbbfa24bf01f9f7ad00ffe3030ead87927be3",
    ),
    (
        ["endo-probe", "--algebra", "split 2", "--phi-d0", "0", "1", "--psi", "1", "0",
         "--alpha", "1/2", "--beta", "1/3", "--depth", "2", "--m", "0", "--k", "2"],
        EXIT_PASS,
        "24014851d8f4d8d9ab0ade8f7b1d9f10ff035e2de5aa4a6ec9f4464fa2dc602f",
    ),
    (
        ["x-probe", "--case", "I", "--phi-d0", "1", "--psi", "1", "--alpha", "1/2",
         "--beta", "2", "--depth", "1", "--b", "e0", "--m", "1", "--n", "1"],
        EXIT_PASS,
        "79ae6a741d9f12a4b56088589643dc09894a5c12111b14f73e01aabc1b0eb10b",
    ),
    (
        ["cor31", "--algebra", "split 2", "--phi-d0", "0", "1", "--psi", "1", "0",
         "--alpha", "1/2", "--beta", "1/3", "--depth", "1", "--window", "-8", "8", "--b", "e0"],
        EXIT_PASS,
        "eabe27c8372490a25e8c04962dd1d3f4d08647dfafc37349855d77cc15629aad",
    ),
    (
        ["psi-sep", "--algebra", "split 2", "--phi-d0", "1", "2", "--psi1", "1", "0",
         "--psi2", "0", "1", "--alpha", "1/2", "--beta", "1/3", "--depth", "1",
         "--window", "-2", "2"],
        EXIT_PASS,
        "9682533692ef5d53e87c22da2f84790e9f0293f0e4741eaf8d35ce7503c68f4b",
    ),
    (
        ["iso-coeffs", "--A", "1", "--b1", "2", "--Q", "1", "--b2", "3"],
        EXIT_PASS,
        "e58dcd79d81fe69376e8a70197eea2fedc6b96e423734ccfa030f15844ed6a65",
    ),
    (
        ["iso-check", "--algebra", "split 2",
         "--phi1-d0", "0", "1", "--psi1", "1", "0", "--alpha1", "1/2", "--beta1", "1/3",
         "--phi2-d0", "0", "1", "--psi2", "0", "1", "--alpha2", "1/2", "--beta2", "1/3",
         "--refute"],
        EXIT_FAIL,
        "480ba548f0bc6d427766346f58a32d99d54ec455526b587d0fcbd1de667e0641",
    ),
    (
        ["run", "cor31-split"],
        EXIT_PASS,
        "ec73fcc7600ae212c3d8132656018bcacd83413c9d2e6b08aa942642cd07999e",
    ),
    # at (0, 0) the intermediate module is built on Z - {0}, so m = 0 is excluded
    (
        ["endo-probe", "--phi-d0", "1", "--psi", "1", "--alpha", "0", "--beta", "0",
         "--depth", "1", "--m", "0", "--k", "1"],
        EXIT_UNSATISFIABLE,
        "c7e0acefff1b5612226a6544e780dc54383d3121aa2e85ab9cea162398ef7485",
    ),
    (
        ["x-probe", "--case", "II", "--phi-d0", "1", "--psi", "1", "--alpha", "1/2",
         "--beta", "2", "--depth", "1", "--b", "e0", "--m", "1", "--n", "1"],
        EXIT_UNSATISFIABLE,
        "1517c30c996d6a709e186922d2682643f1e376ca027ea1df4f4d9b732a8e635b",
    ),
    # psi(e1) = 0 while the highest weight kills d_0 (x) e1: the only excluded hypothesis
    (
        ["cor31", "--algebra", "split 2", "--phi-d0", "1", "0", "--psi", "1", "0",
         "--alpha", "1/2", "--beta", "1/3", "--depth", "1", "--window", "-4", "4", "--b", "e1"],
        EXIT_UNSATISFIABLE,
        "6d895df2367c4690d6f66a67f5f78c56ede9f4b8c87a9de2fd21216467ddaef2",
    ),
]

# SHA-256 of each file `virloop fixtures cor31-split --out DIR` writes.
GOLDEN_FIXTURES = {
    "actions.csv": "ef11a5f8c87a42c1e214661ceb3298bb37d2f1a997ab9711ec6a45e165acd55b",
    "gram_level_1.csv": "e28cd81d264485a88433fd0f4e94d49db0d8e0b2b6785f07878e3088cc1eb5ef",
    "gram_level_2.csv": "29fddeca4300bdee442bbc488dc52f737f102969ccd5b943a28a5923e54ba719",
    "radical_level_1.csv": "9d991cf4e01b5303c13baf4f6e5dac8233785f854c18ab1018e5da4988662211",
    "radical_level_2.csv": "582f8667ca71a40b68dbe9929c0b0254e3e11d88f91c089f5c35c56ca904eeac",
    "manifest.json": "e77665581372220d164b15bcca66d350a539aba978485989b0634a4b0206b4b2",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv, code, digest",
    GOLDEN_CLI,
    ids=[
        argv[0] + ("-unsatisfiable" if code == EXIT_UNSATISFIABLE else "")
        for argv, code, _ in GOLDEN_CLI
    ],
)
def test_cli_golden_stdout(argv, code, digest, capsys):
    assert main(argv) == code
    assert _sha256(capsys.readouterr().out.encode()) == digest


def test_cli_golden_fixture_files(tmp_path, capsys):
    assert main(["fixtures", "cor31-split", "--out", str(tmp_path)]) == EXIT_PASS
    capsys.readouterr()
    digests = {p.name: _sha256(p.read_bytes()) for p in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN_FIXTURES


# -- one path from flags or a config ----------------------------------------------------

_STATUS_CODE = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "hypothesis-unsatisfiable": EXIT_UNSATISFIABLE}

_SPLIT_FLAGS = ["--algebra", "split 2", "--alpha", "1/2", "--beta", "1/3"]
_SPLIT_CONFIG = {"algebra": "split 2", "alpha": "1/2", "beta": "1/3"}

# (subcommand argv, the one-probe config that declares the same modules and probe)
CLI_CONFIG_PAIRS = [
    (
        ["endo-probe", *_SPLIT_FLAGS, "--phi-d0", "0", "1", "--psi", "1", "0",
         "--depth", "2", "--m", "0", "--k", "2"],
        dict(_SPLIT_CONFIG, phi={"d0": ["0", "1"]}, psi=["1", "0"], depth=2,
             probes=[{"kind": "endo", "m": 0, "k": 2}]),
    ),
    (
        ["endo-probe", "--phi-d0", "1", "--psi", "1", "--alpha", "1", "--beta", "0",
         "--depth", "2", "--m", "2", "--k", "1"],
        {"algebra": "trivial", "phi": {"d0": ["1"]}, "psi": ["1"], "alpha": "1", "beta": "0",
         "depth": 2, "probes": [{"kind": "endo", "m": 2, "k": 1}]},
    ),
    (
        ["x-probe", "--case", "I", "--phi-d0", "1", "--phi-c", "1/3", "--psi", "1",
         "--alpha", "1/2", "--beta", "2", "--depth", "2", "--b", "e0", "--m", "1", "--n", "2"],
        {"algebra": "trivial", "phi": {"d0": ["1"], "c": ["1/3"]}, "psi": ["1"],
         "alpha": "1/2", "beta": "2", "depth": 2,
         "probes": [{"kind": "depth-reduction", "case": "I", "b": "e0", "m": 1, "n": 2}]},
    ),
    (
        ["x-probe", "--case", "II", "--phi-d0", "1", "--psi", "1", "--alpha", "2",
         "--beta", "0", "--depth", "1", "--b", "1", "--m", "1", "--n", "1", "--l-max", "9"],
        {"algebra": "trivial", "phi": {"d0": ["1"]}, "psi": ["1"], "alpha": "2", "beta": "0",
         "depth": 1, "probes": [{"kind": "depth-reduction", "case": "II", "b": [1], "m": 1,
                                 "n": 1, "l_max": 9}]},
    ),
    (
        ["cor31", *_SPLIT_FLAGS, "--phi-d0", "0", "1", "--psi", "1", "0", "--depth", "1",
         "--window", "-8", "8", "--b", "e0"],
        dict(_SPLIT_CONFIG, phi={"d0": ["0", "1"]}, psi=["1", "0"], depth=1, window=[-8, 8],
             probes=[{"kind": "ladder", "b": "e0"}]),
    ),
    (
        ["psi-sep", *_SPLIT_FLAGS, "--phi-d0", "1", "2", "--psi1", "1", "0", "--psi2", "0", "1",
         "--depth", "1", "--window", "-2", "2"],
        dict(_SPLIT_CONFIG, phi={"d0": ["1", "2"]}, psi=["1", "0"], depth=1, window=[-2, 2],
             probes=[{"kind": "psi-separation", "psi2": ["0", "1"]}]),
    ),
    (
        ["psi-sep", "--algebra", "split 2", "--phi-d0", "1", "2", "--psi1", "1", "0",
         "--psi2", "0", "1", "--alpha", "0", "--beta", "0", "--alpha2", "1/3", "--beta2", "2",
         "--phi2-d0", "3", "4", "--phi2-c", "1", "0", "--depth2", "2", "--window", "-2", "2",
         "--k", "1", "--degrees", "3"],
        {"algebra": "split 2", "phi": {"d0": ["1", "2"]}, "psi": ["1", "0"], "alpha": "0",
         "beta": "0", "depth": 1, "window": [-2, 2],
         "probes": [{"kind": "psi-separation", "psi2": ["0", "1"], "alpha2": "1/3",
                     "beta2": "2", "phi2": {"d0": ["3", "4"], "c": ["1", "0"]}, "depth2": 2,
                     "k": 1, "degrees": 3}]},
    ),
    (
        ["iso-coeffs", "--A", "1", "--b1", "2", "--Q", "1/2", "--b2", "3"],
        {"algebra": "trivial", "phi": {"d0": ["0"]},
         "probes": [{"kind": "iso-coeffs", "A": "1", "b1": "2", "Q": "1/2", "b2": "3"}]},
    ),
    # l_max below n + 2 leaves no degree to scan: hypothesis-unsatisfiable from both paths
    (
        ["x-probe", "--case", "I", "--phi-d0", "1", "--psi", "1", "--alpha", "1/2", "--beta", "2",
         "--depth", "1", "--b", "e0", "--m", "1", "--n", "1", "--l-max", "2"],
        {"algebra": "trivial", "phi": {"d0": ["1"]}, "psi": ["1"], "alpha": "1/2", "beta": "2",
         "depth": 1, "probes": [{"kind": "depth-reduction", "case": "I", "b": "e0", "m": 1,
                                 "n": 1, "l_max": 2}]},
    ),
]


@pytest.mark.parametrize(
    "argv, config", CLI_CONFIG_PAIRS, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(CLI_CONFIG_PAIRS)]
)
def test_cli_probe_prints_the_run_report_certificate(argv, config, capsys):
    from virloop.probes import ProbeCertificate

    code = main(argv)
    out = capsys.readouterr().out
    report = run_config(load_config(config))
    (entry,) = report["results"]["probes"]
    assert out == ProbeCertificate(**entry).to_json() + "\n"
    assert code == _STATUS_CODE[report["status"]] == _STATUS_CODE[entry["status"]]


_REDUCIBLE = "intermediate factor is reducible"


@pytest.mark.parametrize(
    "argv",
    [
        ["endo-probe", "--alpha", "1", "--beta", "0", "--phi-d0", "1", "--psi", "1",
         "--depth", "2", "--m", "2", "--k", "1"],
        ["x-probe", "--case", "I", "--alpha", "2", "--beta", "1", "--phi-d0", "1", "--psi", "1",
         "--depth", "1", "--b", "e0", "--m", "1", "--n", "1"],
    ],
    ids=["endo-probe", "x-probe"],
)
def test_cli_reducible_intermediate_factor_is_unsatisfiable(argv, capsys):
    assert main(argv) == EXIT_UNSATISFIABLE
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "hypothesis-unsatisfiable"
    assert any(_REDUCIBLE in r for r in cert["reasons"])
    assert cert["applications"] == []


def test_run_reducible_intermediate_factor_is_unsatisfiable(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tensor_config(alpha="1", beta="0", probes=[{"kind": "endo", "k": 1}])))
    assert main(["run", str(path)]) == EXIT_UNSATISFIABLE
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "hypothesis-unsatisfiable"
    assert report["results"]["intermediate"]["irreducible"] is False
    assert _REDUCIBLE in report["results"]["probes"][0]["reasons"][0]


def test_run_reports_the_origin_module_as_built_irreducible(tmp_path, capsys):
    # at (0,0) the module on Z is reducible, but the one built is on Z - {0}
    data = minimal_config(psi=["1"], alpha="0", beta="0", probes=[{"kind": "endo", "m": 1, "k": 2}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_PASS
    intermediate = json.loads(capsys.readouterr().out)["results"]["intermediate"]
    assert intermediate["index_set"] == "Z-0" and intermediate["irreducible"] is True


def test_cli_endo_probe_at_the_origin_runs_on_the_quotient(capsys):
    # (0,0) is on the reducible locus, but the module is built on Z - {0},
    # which is the irreducible quotient, so the probe runs and passes
    argv = ["endo-probe", "--phi-d0", "1", "--psi", "1", "--alpha", "0", "--beta", "0",
            "--m", "1", "--k", "1", "--depth", "1"]
    assert main(argv) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


# -- gap 6: an empty degree scan ---------------------------------------------------------

_GAP6_FLAGS = ["--phi-d0", "1", "--psi", "1", "--alpha", "1/2", "--beta", "2", "--depth", "1",
               "--b", "e0", "--m", "1", "--n", "1"]


def test_cli_x_probe_l_max_below_n_plus_2_is_unsatisfiable(capsys):
    # degrees are scanned from n + 2, so l_max = 2 with n = 1 leaves nothing to try
    assert main(["x-probe", "--case", "I", *_GAP6_FLAGS, "--l-max", "2"]) == EXIT_UNSATISFIABLE
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "hypothesis-unsatisfiable"
    assert any("l_max = 2" in r for r in cert["reasons"])
    assert cert["facts"] == {} and cert["applications"] == []
    assert main(["x-probe", "--case", "I", *_GAP6_FLAGS, "--l-max", "3"]) == EXIT_PASS


# -- a wrong action must fail, and say why ------------------------------------------------


def _doubled(act_words):
    return lambda self, words, vec: {key: c + c for key, c in act_words(self, words, vec).items()}


def _stray_when_zero(act_words):
    return lambda self, words, vec: act_words(self, words, vec) or {(0, (), 999): scalar(1)}


_SPLIT_PAIR = ["--algebra", "split 2", "--alpha", "1/2", "--beta", "1/3"]


_PSI_SEP_ARGV = ["psi-sep", *_SPLIT_PAIR, "--phi-d0", "1", "2", "--psi1", "1", "0",
                 "--psi2", "0", "1", "--depth", "1", "--window", "-2", "2"]

# (argv, a broken TensorModule.act_words, the start of the reason it must give)
BROKEN_ACTION_CASES = [
    (["endo-probe", *_SPLIT_PAIR, "--phi-d0", "0", "1", "--psi", "1", "0", "--depth", "2",
      "--m", "0", "--k", "2"], _stray_when_zero, "w does not annihilate the seed"),
    (["x-probe", "--case", "I", *_GAP6_FLAGS, "--l-max", "8"], _stray_when_zero, "no degree l <= 8"),
    (["cor31", *_SPLIT_PAIR, "--phi-d0", "0", "1", "--psi", "1", "0", "--depth", "1",
      "--window", "-4", "4", "--b", "e0"], _doubled, "stage b:"),
    (_PSI_SEP_ARGV, _doubled, "nonannihilation:"),
    (_PSI_SEP_ARGV, _stray_when_zero, "annihilation:"),
]


@pytest.mark.parametrize(
    "argv, broken, reason",
    BROKEN_ACTION_CASES,
    ids=[f"{argv[0]}-{broken.__name__.strip('_')}" for argv, broken, _ in BROKEN_ACTION_CASES],
)
def test_cli_probe_fails_with_reasons_on_a_broken_action(argv, broken, reason, monkeypatch, capsys):
    from virloop.tensor_product import TensorModule

    monkeypatch.setattr(TensorModule, "act_words", broken(TensorModule.act_words))
    assert main(argv) == EXIT_FAIL
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "fail"
    assert any(r.startswith(reason) for r in cert["reasons"])


def test_generation_check_fails_without_the_degree_minus_one_images(monkeypatch, capsys):
    # no valid input makes generation_check false, so drop the images of d_{-1} (x) e_j:
    # level-1 vectors can then only come from d_{-2} words, which cannot isolate them
    from virloop.tensor_product import TensorModule

    act = TensorModule.act
    monkeypatch.setattr(
        TensorModule, "act", lambda self, gen, x: {} if gen.degree == -1 else act(self, gen, x)
    )
    argv = ["tensor", "--phi-d0", "1", "--psi", "1", "--alpha", "1/2", "--beta", "1/3",
            "--depth", "2", "--window", "-3", "3"]
    _, tensor = build_modules(load_config({"algebra": "trivial", "phi": {"d0": ["1"]},
                                           "psi": ["1"], "alpha": "1/2", "beta": "1/3", "depth": 2}))
    assert tensor.generation_check(-3, 3) is False
    assert main(argv) == EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["generated_by_pure_tensors"] is False


# -- one validator for probe flags and probe descriptors ----------------------------------

# (subcommand argv, the one-probe config that declares the same input, the shared message tail)
INVALID_PROBE_PAIRS = [
    (
        ["x-probe", "--case", "I", *_GAP6_FLAGS[:-2], "--n", "0"],
        {"algebra": "trivial", "phi": {"d0": ["1"]}, "psi": ["1"], "alpha": "1/2", "beta": "2",
         "depth": 1, "probes": [{"kind": "depth-reduction", "case": "I", "b": "e0", "m": 1, "n": 0}]},
        "n: must be >= 1",
    ),
    (
        ["endo-probe", *_PHI, "--k", "3", "--depth", "1"],
        {"algebra": "trivial", "phi": {"d0": ["1"]}, "psi": ["1"], "alpha": "1/2", "beta": "1/3",
         "depth": 1, "probes": [{"kind": "endo", "k": 3}]},
        "k: exceeds the configured depth 1",
    ),
    (
        ["cor31", *_SPLIT_FLAGS, "--phi-d0", "1", "0", "--psi", "0", "1", "--depth", "0",
         "--window", "-2", "2", "--b", "e1"],
        dict(_SPLIT_CONFIG, phi={"d0": ["1", "0"]}, psi=["0", "1"], depth=0, window=[-2, 2],
             probes=[{"kind": "ladder", "b": "e1"}]),
        "probe kind 'ladder' needs depth >= 1",
    ),
    (
        ["psi-sep", *_SPLIT_FLAGS, "--phi-d0", "0", "1", "--psi1", "1", "0", "--psi2", "0", "1",
         "--phi2-c", "1", "1", "--window", "-2", "2"],
        dict(_SPLIT_CONFIG, phi={"d0": ["0", "1"]}, psi=["1", "0"], window=[-2, 2],
             probes=[{"kind": "psi-separation", "psi2": ["0", "1"], "phi2": {"c": ["1", "1"]}}]),
        "phi2.d0: required field is missing",
    ),
    (
        ["x-probe", "--case", "I", *_GAP6_FLAGS, "--l-max", "0"],
        {"algebra": "trivial", "phi": {"d0": ["1"]}, "psi": ["1"], "alpha": "1/2", "beta": "2",
         "depth": 1, "probes": [{"kind": "depth-reduction", "case": "I", "b": "e0", "m": 1, "n": 1,
                                 "l_max": 0}]},
        "l_max: must be >= 1",
    ),
    (
        ["x-probe", "--case", "III", *_GAP6_FLAGS],
        {"algebra": "trivial", "phi": {"d0": ["1"]}, "psi": ["1"], "alpha": "1/2", "beta": "2",
         "depth": 1, "probes": [{"kind": "depth-reduction", "case": "III", "b": "e0", "m": 1, "n": 1}]},
        "case: expected 'I' or 'II'",
    ),
    (
        ["psi-sep", *_SPLIT_FLAGS, "--phi-d0", "0", "1", "--psi1", "1", "0", "--psi2", "0", "1",
         "--degrees", "0"],
        dict(_SPLIT_CONFIG, phi={"d0": ["0", "1"]}, psi=["1", "0"],
             probes=[{"kind": "psi-separation", "psi2": ["0", "1"], "degrees": 0}]),
        "degrees: must be >= 1",
    ),
    (
        ["psi-sep", *_SPLIT_FLAGS, "--phi-d0", "0", "1", "--psi1", "1", "0", "--psi2", "0", "1",
         "--depth2", "-2"],
        dict(_SPLIT_CONFIG, phi={"d0": ["0", "1"]}, psi=["1", "0"],
             probes=[{"kind": "psi-separation", "psi2": ["0", "1"], "depth2": -2}]),
        "depth2: must be >= 0",
    ),
]


# inputs that only the built modules can refuse, so execute_probe checks them before the engine runs
MODULE_REFUSED_PAIRS = [
    (
        ["cor31", *_SPLIT_FLAGS, "--phi-d0", "1", "0", "--psi", "0", "1", "--depth", "1",
         "--window", "2", "2", "--b", "e1"],
        dict(_SPLIT_CONFIG, phi={"d0": ["1", "0"]}, psi=["0", "1"], depth=1, window=[2, 2],
             probes=[{"kind": "ladder", "b": "e1"}]),
        "window: probe kind 'ladder' needs at least two indices",
    ),
    (
        # alpha = beta = 0 realizes both modules on Z - {0}, so the live one has no v_0
        ["psi-sep", "--algebra", "split 2", "--phi-d0", "1", "0", "--psi1", "1", "0",
         "--psi2", "0", "1", "--alpha", "0", "--beta", "0", "--k", "0"],
        {"algebra": "split 2", "phi": {"d0": ["1", "0"]}, "psi": ["1", "0"], "alpha": "0",
         "beta": "0", "depth": 1, "probes": [{"kind": "psi-separation", "psi2": ["0", "1"], "k": 0}]},
        "k: index 0 lies outside the live module's basis",
    ),
]


@pytest.mark.parametrize(
    "argv, config, message",
    INVALID_PROBE_PAIRS + MODULE_REFUSED_PAIRS,
    ids=["x-probe", "endo-probe", "cor31", "psi-sep", "x-probe-l-max", "x-probe-case",
         "psi-sep-degrees", "psi-sep-depth2", "cor31-single-index", "psi-sep-k-off-basis"],
)
def test_cli_and_run_refuse_the_same_probe_input(argv, config, message, tmp_path, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def _cli_in_subprocess(argv, timeout=20):
    """Run the CLI in a fresh interpreter, so a hang fails the test instead of stalling it."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "virloop.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_psi_sep_with_a_dead_seed_is_unsatisfiable(tmp_path):
    # beta = 0 and alpha + k = 0: d_l (x) b kills the live seed v_phi (x) v_k at every l,
    # so no degree can show non-annihilation (the degree scan never ended before)
    argv = ["psi-sep", "--algebra", "split 2", "--phi-d0", "1", "0", "--psi1", "1", "0",
            "--psi2", "0", "1", "--alpha", "2", "--beta", "0", "--k", "-2"]
    config = {"algebra": "split 2", "phi": {"d0": ["1", "0"]}, "psi": ["1", "0"], "alpha": "2",
              "beta": "0", "probes": [{"kind": "psi-separation", "psi2": ["0", "1"], "k": -2}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    cli = _cli_in_subprocess(argv)
    assert cli.returncode == EXIT_UNSATISFIABLE, cli.stderr
    cert = json.loads(cli.stdout)
    assert cert["status"] == "hypothesis-unsatisfiable" and cert["applications"] == []
    assert any("kills v_phi (x) v_k there for every l" in r for r in cert["reasons"])
    run = _cli_in_subprocess(["run", str(path)])
    assert run.returncode == EXIT_UNSATISFIABLE, run.stderr
    assert json.loads(run.stdout)["results"]["probes"][0]["reasons"] == cert["reasons"]


def test_cli_engine_value_error_exits_4(monkeypatch, capsys):
    # exit 3 is reserved for invalid input, so a ValueError raised inside the engine is internal
    import virloop.config as config

    def broken_engine(*args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(config, "VermaModule", broken_engine)
    assert main(["verma", "--phi-d0", "1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback (most recent call last)" in captured.err
    assert "ValueError: engine fault" in captured.err


def test_cli_engine_depth_fault_exits_4(monkeypatch, capsys):
    # the engine builds a shallower Verma factor than the flags ask for, so the ladder's
    # stage a reads a missing level: a fault of the engine, not of the input
    import virloop.config as config
    from virloop.verma import VermaModule

    monkeypatch.setattr(config, "VermaModule", lambda algebra, hw, depth: VermaModule(algebra, hw, 0))
    argv = ["cor31", *_SPLIT_FLAGS, "--phi-d0", "1", "0", "--psi", "0", "1", "--depth", "1",
            "--window", "-2", "2", "--b", "e1"]
    assert main(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback (most recent call last)" in captured.err
    assert "ValueError: level 1 lies beyond depth 0" in captured.err


def test_run_vector_beyond_depth_is_config_error(tmp_path, capsys):
    data = tensor_config(algebra="trivial", phi={"d0": ["1"]}, psi=["1"], beta="2", depth=1,
                         probes=[{"kind": "depth-reduction", "case": "I", "b": "e0", "m": 0,
                                  "n": 1, "vector": [[3, [[3, 0]], 3, "1"]]}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: probes[0].vector: level 3 lies beyond depth 1" in captured.err


def test_ladder_probe_leaves_the_shared_module_unchanged():
    # a ladder probe at depth 0 used to deepen the Verma factor, so a later probe of
    # the same run checked more degrees than its report's depth allows
    from virloop.config import execute_probe

    data = dict(_SPLIT_CONFIG, phi={"d0": ["1", "0"]}, psi=["0", "1"], depth=0, window=[-2, 2],
                probes=[{"kind": "psi-separation", "psi2": ["1", "0"]}])
    cfg = load_config(data)
    alone = run_config(cfg)["results"]["probes"][0]
    vm, tensor = build_modules(cfg)
    with pytest.raises(ValueError, match="beyond depth"):
        execute_probe(cfg, tensor, 0, {"kind": "ladder", "b": split_algebra(2).basis_elem(1)})
    assert vm.depth == 0
    assert execute_probe(cfg, tensor, 1, cfg.probes[0]).to_dict() == alone
