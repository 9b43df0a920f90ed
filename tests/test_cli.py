import json

import numpy as np
import pytest

from ptqgt import cli, verify
from ptqgt.cli import (
    EXIT_DEGENERATE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--not-a-flag"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


def test_parser_is_built_once_and_dispatch_is_late(monkeypatch, capsys):
    assert run(["critical"], capsys)[0] == EXIT_OK
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()  # still a fresh parser per call
    seen = []

    def fake_critical(args):
        seen.append(args.command)
        return EXIT_DEGENERATE

    # the parser above was built with the original cmd_critical bound
    monkeypatch.setattr(cli, "cmd_critical", fake_critical)
    assert run(["critical", "--json"], capsys)[0] == EXIT_DEGENERATE
    assert seen == ["critical"]


def test_critical_text(capsys):
    code, out, _ = run(["critical"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "case:  anisotropic"
    assert abs(float(lines[1].split()[1]) - np.sqrt(35.0) / 3.0) < 1e-12
    assert abs(float(lines[2].split()[1]) - np.sqrt(5.0) / 3.0) < 1e-12
    assert lines[3] == "eta_c: 1.0"
    assert lines[4].startswith("QPT points on the circles")


def test_critical_json(capsys):
    code, out, _ = run(["critical", "--json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["case"] == "anisotropic"
    assert abs(payload["r_c1"] - np.sqrt(35.0) / 3.0) < 1e-12
    assert abs(payload["r_c2"] - np.sqrt(5.0) / 3.0) < 1e-12
    assert payload["eta_c"] == 1.0


def test_critical_pseudo_isotropic(capsys):
    code, out, _ = run(
        ["critical", "--json", "--J", "1", "--Js", "0.5",
         "--Gamma", "0.25", "--Gammas", "0.5"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["case"] == "pseudo_isotropic"
    assert abs(payload["r_c1"] - np.sqrt(3.0)) < 1e-12


def test_qgt_report_spin_half(capsys):
    code, out, _ = run(
        ["qgt", "spin_half", "--lam", "0,0,1", "--level", "0"], capsys
    )
    assert code == EXIT_OK
    assert "unbroken" in out
    assert "spacelike" in out or "lightlike" in out


def test_qgt_wrong_dimension_exits_1(capsys):
    code, _, err = run(["qgt", "spin_half", "--lam", "0,1"], capsys)
    assert code == EXIT_USAGE


def test_qgt_invalid_point_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qgt", "spin_half", "--lam", "0.1,abc"])
    assert exc.value.code == EXIT_USAGE
    assert "invalid point" in capsys.readouterr().err


def test_qgt_at_exceptional_point_exits_2(capsys):
    # pt_two_level spectrum +-sqrt(s^2 - a^2 - 0.09): (a, s) = (0.4, 0.5)
    # sits exactly on the exceptional circle
    code, _, err = run(["qgt", "pt_two_level", "--lam", "0.4,0.5"], capsys)
    assert code == EXIT_DEGENERATE
    assert "degenerate" in err


def test_qgt_model_file(tmp_path, capsys):
    model = tmp_path / "zeeman.model"
    model.write_text(
        "dim 2\nparams 1\nH[1,1] = l1\nH[2,2] = -l1\n", encoding="utf-8"
    )
    code, out, _ = run(["qgt", str(model), "--lam", "1.0"], capsys)
    assert code == EXIT_OK


def test_bad_model_file_exits_1(tmp_path, capsys):
    model = tmp_path / "bad.model"
    model.write_text("dim 2\nparams 1\nH[1,1] = l9\n", encoding="utf-8")
    code, _, err = run(["qgt", str(model), "--lam", "1.0"], capsys)
    assert code == EXIT_USAGE
    assert "parse error" in err
    code, _, err = run(["qgt", str(tmp_path / "missing.model"), "--lam", "1"],
                       capsys)
    assert code == EXIT_USAGE
    model.write_text("dim 0\nparams 1\n", encoding="utf-8")  # used to end in a traceback
    code, _, err = run(["qgt", str(model), "--lam", "0.5"], capsys)
    assert code == EXIT_USAGE
    assert "parse error: line 1" in err


def test_berry_command_in_the_broken_phase(capsys):
    # every vertex of the loop is PT-broken: level 0 must be the -i|E| level
    # at each of them, or the links join different levels
    code, out, _ = run(["berry", "pt_two_level", "--center", "0.1,0.1", "--radius", "0.05"],
                       capsys)
    assert code == EXIT_OK
    assert "gamma_line" in out


def test_berry_command(capsys):
    code, out, _ = run(
        ["berry", "pt_two_level", "--center", "0.15,0.85",
         "--radius", "0.05", "--vertices", "64"],
        capsys,
    )
    assert code == EXIT_OK
    assert "gamma_line" in out


@pytest.mark.parametrize("command", ["berry", "evolve"])
def test_circle_on_one_parameter_model_exits_1(tmp_path, capsys, command):
    model = tmp_path / "zeeman.model"
    model.write_text(
        "dim 2\nparams 1\nH[1,1] = l1\nH[2,2] = -l1\n", encoding="utf-8"
    )
    code, _, err = run([command, str(model), "--center", "1.0"], capsys)
    assert code == EXIT_USAGE
    assert "at least 2 parameters" in err


def test_evolve_command(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    code, out, _ = run(
        ["evolve", "pt_two_level", "--center", "0.15,0.85",
         "--radius", "0.05", "--tau", "20", "--steps", "1200",
         "--out", str(traj)],
        capsys,
    )
    assert code == EXIT_OK
    assert "gamma_sim" in out
    lines = traj.read_text().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 1 + 1201


@pytest.mark.parametrize("steps", ["0", "-5", "ten"])
def test_evolve_rejects_non_positive_steps(capsys, steps):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "pt_two_level", "--center", "0.15,0.85", "--steps", steps])
    assert exc.value.code == EXIT_USAGE
    assert "--steps: expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["qgt", "pt_two_level", "--lam", "0.15,0.85", "--step", "1e-5"],  # no such flag
    ["qgt", "pt_two_level", "--lam", "0.15,0.85", "--level", "5"],
    ["qgt", "pt_two_level", "--lam", "0.15,0.85", "--level", "-1"],
    ["berry", "pt_two_level", "--center", "0.15,0.85", "--vertices", "2"],
    ["berry", "pt_two_level", "--center", "0.15"],
    ["berry", "pt_two_level", "--center", "0.15,0.85", "--level", "2"],
    ["evolve", "pt_two_level", "--center", "0.15,0.85", "--tau", "-1"],
    ["evolve", "pt_two_level", "--center", "0.15,0.85,0.3", "--steps", "10"],
    ["qgt", "pt_two_level", "--lam", "nan,0.9"],
    ["qgt", "spin_half", "--lam", "0.1,-inf,0.3"],
    ["berry", "pt_two_level", "--center", "0.15,nan"],
    ["berry", "pt_two_level", "--center", "0.15,0.85", "--radius", "nan"],
    ["evolve", "pt_two_level", "--center", "0.15,0.85", "--radius", "inf", "--steps", "10"],
    ["critical", "--J", "nan"],
    ["critical", "--J", "inf"],
    ["critical", "--Gamma", "0"],
    ["critical", "--Gammas", "-0.5"],
    ["scan", "--Js", "nan", "--h-count", "2", "--eta-count", "2"],
])
def test_out_of_range_arguments_exit_1(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_USAGE
    assert capsys.readouterr().err


def test_scan_command_with_flags(tmp_path, capsys):
    out_csv = tmp_path / "mini.csv"
    code, out, _ = run(
        ["scan", "--h-min", "0.2", "--h-max", "0.8", "--h-count", "3",
         "--eta-min", "-0.4", "--eta-max", "0.4", "--eta-count", "3",
         "--n-quad", "24", "--out", str(out_csv)],
        capsys,
    )
    assert code == EXIT_OK
    assert out_csv.exists()
    assert (tmp_path / "mini.csv.gp").exists()
    assert "9 ok" in out


def test_scan_command_with_config(tmp_path, capsys):
    cfg = {
        "params": {"J": 1.0, "Js": 0.5, "Gamma": 1.0 / 3.0, "Gammas": 1.0 / 6.0},
        "h_range": [0.2, 0.8, 2],
        "eta_range": [-0.4, 0.4, 2],
        "n_quad": 24,
        "out_path": str(tmp_path / "cfg.csv"),
    }
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = run(["scan", "--config", str(cfg_path)], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "cfg.csv").exists()


def test_scan_bad_config_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"h_range": [0, 1, 2]}), encoding="utf-8")
    code, _, err = run(["scan", "--config", str(cfg_path)], capsys)
    assert code == EXIT_USAGE
    assert "config error" in err
    cfg_path.write_text(json.dumps([["h_range", [0, 1, 2]]]), encoding="utf-8")
    code, _, err = run(["scan", "--config", str(cfg_path)], capsys)
    assert code == EXIT_USAGE
    assert "must be a JSON object" in err


@pytest.mark.parametrize("change", [
    {"method": "bogus"},
    {"h_range": [0, 1, 3.5]},
    {"n_qaud": 129},  # misspelt keys would otherwise fall back to defaults
    {"wokers": 4},
    {"params": {"J": float("nan"), "Js": 0.5, "Gamma": 0.25, "Gammas": 0.5}},
    {"params": {"J": 1.0, "Js": 0.5, "Gamma": float("inf"), "Gammas": 0.5}},
    {"n_quad": 16.9},  # not rounded down to 16
    {"workers": "1"},  # not converted to 1
    {"workers": True},  # not taken as 1
    {"workers": 0},
    {"workers": -4},  # not run serially
])
def test_scan_invalid_config_values_exit_1(tmp_path, capsys, change):
    cfg = {"params": {"J": 1.0, "Js": 0.5, "Gamma": 0.25, "Gammas": 0.5},
           "h_range": [0.2, 0.8, 3], "eta_range": [-0.4, 0.4, 3], "n_quad": 24,
           "out_path": str(tmp_path / "out.csv")} | change
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code, _, err = run(["scan", "--config", str(cfg_path)], capsys)
    assert code == EXIT_USAGE
    assert "config error" in err
    assert not (tmp_path / "out.csv").exists()


def test_verify_subset_runs(capsys):
    # exercise the command path with the cheapest deterministic outcome:
    # the fast suite is the acceptance-gate run; here only check wiring
    code, out, _ = run(["verify", "--suite", "fast", "--seed", "7"], capsys)
    assert code in (EXIT_OK, EXIT_NUMERICAL)
    assert "PASS" in out or "FAIL" in out
    assert code == EXIT_OK  # the suite is expected green at any seed


@pytest.mark.parametrize("check", [verify.check_stokes, verify.check_adiabatic])
def test_full_suite_only_checks_pass(check):
    result = check()
    assert result.passed, result


def test_run_suite_dispatch(monkeypatch):
    calls = []

    def fast(seed):
        calls.append(("fast", seed))
        return verify.CheckResult("fast", 0.0, 1.0)

    def full_only():
        calls.append(("full_only",))
        return verify.CheckResult("full_only", 0.0, 1.0)

    monkeypatch.setattr(verify, "FAST_CHECKS", (fast,))
    monkeypatch.setattr(verify, "_FULL_ONLY_CHECKS", (full_only,))
    assert [r.name for r in verify.run_suite("fast", seed=3)] == ["fast"]
    assert [r.name for r in verify.run_suite("full", seed=5)] == ["fast", "full_only"]
    assert calls == [("fast", 3), ("fast", 5), ("full_only",)]
    with pytest.raises(ValueError):
        verify.run_suite("everything")

    def buggy(seed=None):
        if seed is not None:
            raise TypeError("bug inside a check")
        return verify.CheckResult("buggy", 0.0, 1.0)

    # a TypeError inside a check propagates; the check is not re-run unseeded
    monkeypatch.setattr(verify, "FAST_CHECKS", (buggy,))
    with pytest.raises(TypeError):
        verify.run_suite("fast")
