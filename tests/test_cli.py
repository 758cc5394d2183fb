"""CLI behavior: formatting, config handling, exit codes, determinism."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squint
from squint import InterferometerConfig
from squint.cli import RunConfig, fmt, main


def run_json(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_parser_reuse_carries_no_state(capsys, monkeypatch):
    runs = [["resolve", "-G", "2", "--refine-phi"], ["resolve", "-G", "2"],
            ["signal", "--degrees", "--phi-max", "90", "--points", "3"],
            ["signal", "--points", "3"]]

    def help_text():
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    help_before = help_text()
    shared = []
    for argv in runs:
        assert main(argv) == 0
        shared.append(capsys.readouterr().out)
    help_after = help_text()

    monkeypatch.setattr(squint.cli, "_build_parser", squint.cli._build_parser.__wrapped__)
    for argv, out in zip(runs, shared):
        assert main(argv) == 0
        assert out == capsys.readouterr().out
    assert help_before == help_after == help_text()
    assert "refined_working_point" in shared[0]
    assert "refined_working_point" not in shared[1]
    assert [line.split(",")[0] for line in shared[3].splitlines()[1:]] == [
        fmt(0.0), fmt(2 * math.pi / 3), fmt(4 * math.pi / 3)]


def test_cell_formatting():
    assert fmt(True) == "true"
    assert fmt(False) == "false"
    assert fmt(7) == "7.0"
    assert fmt(1.0) == "1.0"
    assert fmt(0.0) == "0.0"
    assert fmt(math.pi) == "3.14159265359"
    assert fmt(2.5e-16) == "2.5e-16"
    assert fmt(float("inf")) == "inf"
    assert fmt(float("-inf")) == "-inf"
    assert fmt(float("nan")) == "nan"


def reference_fmt(value) -> str:
    """fmt as it was before its float fast path."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return f"{int(value)}.0"
    x = float(value)
    if not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    s = f"{x:.12g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def test_cell_formatting_matches_reference():
    values = [0.0, -0.0, 1.0, -2.5, 1e16, 1e-300, 5e-324, math.pi, -1 / 3, 123456789012.5,
              math.nan, math.inf, -math.inf, np.float64(-0.0), np.float64(2.0),
              np.float64(math.pi), np.float64("nan"), np.float64("-inf"),
              0, 7, -3, 10 ** 20, np.int64(-4), np.int64(0), True, False,
              np.bool_(True), np.bool_(False)]
    for value in values:
        assert fmt(value) == reference_fmt(value), value


def test_runconfig_round_trips_through_json():
    cfg = RunConfig(
        interferometer=InterferometerConfig(G=2.5, xi=0.3, alpha1=0.04, beta1=0.02,
                                            alpha2=0.11, beta2=0.07, delta1=-0.05,
                                            delta2=0.2),
        criterion="standard", working_point=1.4, phi_min=0.1, phi_max=5.9,
        phi_points=77, param="delta2", param_min=0.01, param_max=0.7,
        param_points=13, log_grid=False, out="table.csv", format="json")
    again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="unknown interferometer keys"):
        RunConfig.from_dict({"interferometer": {"gamma": 1.0}})
    with pytest.raises(ValueError, match="unknown phi_grid keys"):
        RunConfig.from_dict({"phi_grid": {"mni": 1.0}})
    with pytest.raises(ValueError, match="unknown param_grid keys"):
        RunConfig.from_dict({"param_grid": {"name": "G", "logarithmic": False}})


def test_runconfig_rejects_non_object_sections():
    for key in ("phi_grid", "param_grid", "interferometer"):
        with pytest.raises(ValueError, match=f"{key} must be a JSON object"):
            RunConfig.from_dict({key: 3})
    with pytest.raises(ValueError, match="config must be a JSON object"):
        RunConfig.from_dict([])


def test_runconfig_validation():
    dev = InterferometerConfig(G=1.0)
    for bad in ("tight", ["modified"]):
        with pytest.raises(ValueError, match="unknown criterion"):
            RunConfig(dev, criterion=bad)
    with pytest.raises(ValueError):
        RunConfig(dev, format="yaml")
    with pytest.raises(ValueError):
        RunConfig(dev, param="loss")
    with pytest.raises(ValueError):
        RunConfig(dev, phi_min=1.0, phi_max=0.5)
    with pytest.raises(ValueError):
        RunConfig(dev, phi_points=1)
    with pytest.raises(ValueError, match="positive minimum"):
        RunConfig(dev, param="delta2", param_min=-0.3, param_max=0.3, log_grid=True)
    for name in ("working_point", "phi_min", "phi_max", "param_min", "param_max"):
        for bad in (math.nan, math.inf, -math.inf, 10**400, -10**400):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                RunConfig(dev, **{name: bad})
        for bad in ("1.0", None, True):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                RunConfig(dev, **{name: bad})
    for name in ("phi_points", "param_points"):
        for bad in (2.9, 5.0, "5", True):
            with pytest.raises(ValueError, match="must be an integer"):
                RunConfig(dev, **{name: bad})
    for bad in ("false", 0, None):
        with pytest.raises(ValueError, match="log_grid"):
            RunConfig(dev, log_grid=bad)
    for bad in (3, b"out.csv"):
        with pytest.raises(ValueError, match="out must be"):
            RunConfig(dev, out=bad)
    with pytest.raises(ValueError, match="working_point must be finite"):
        RunConfig.from_dict({"working_point": 10**400})


def test_signal_csv_values(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["signal", "-G", "1.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,mean_P,sqrt_second_moment,sigma,mean_N"
    assert len(lines) == 1001  # header + half-open 1000-point grid

    # row 125 sits exactly at phi = 2*pi * 125/1000 = pi/4
    cells = lines[1 + 125].split(",")
    assert float(cells[0]) == pytest.approx(math.pi / 4, abs=1e-12)
    assert float(cells[1]) == pytest.approx(math.sinh(1) * math.cosh(1), abs=1e-9)
    # phase-insensitive photon number renders identically on every row
    assert len({line.split(",")[4] for line in lines[1:]}) == 1

    sigma_at_half_pi = float(lines[1 + 250].split(",")[3])
    assert sigma_at_half_pi == pytest.approx(1.0, abs=1e-9)


def test_signal_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["signal", "-G", "1.3", "--delta1", "0.02", "--points", "200"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point_runs_without_warnings(capsys):
    argv = ["signal", "-G", "1", "--points", "3"]
    src = os.path.dirname(os.path.dirname(squint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "squint", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert main(argv) == 0
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == capsys.readouterr().out


def test_signal_json_structure(capsys):
    code, payload = run_json(
        ["signal", "-G", "0.5", "--points", "16", "--format", "json"], capsys)
    assert code == 0
    assert payload["config"]["interferometer"]["G"] == 0.5
    assert len(payload["rows"]) == 16
    assert set(payload["rows"][0]) == {"phi", "mean_P", "sqrt_second_moment",
                                       "sigma", "mean_N"}


def test_points_flag_sets_phase_grid_for_signal(capsys):
    code, payload = run_json(
        ["signal", "--points", "8", "--format", "json"], capsys)
    assert code == 0
    assert payload["config"]["phi_grid"]["points"] == 8
    assert payload["config"]["param_grid"]["points"] == 60  # untouched default


def test_resolve_reports_modified_limit(capsys):
    code, payload = run_json(["resolve", "-G", "3"], capsys)
    assert code == 0
    res = payload["result"]
    assert res["criterion"] == "modified"
    assert res["converged"] is True
    assert res["delta_phi"] == pytest.approx(0.0198068, rel=1e-3)
    assert res["kappa"] == pytest.approx(3.9755, rel=1e-3)
    assert res["mean_N"] == pytest.approx(2 * math.sinh(3.0) ** 2, rel=1e-6)


def test_readme_examples_match_the_cli(capsys):
    # the README's signal CSV and resolve report, rerun from the commands it names
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    argv, block = re.search(r"`squint (signal [^`]*)` CSV starts like\n\n```\n(.*?)```",
                            text, re.S).groups()
    assert main(argv.split()) == 0
    lines = block.splitlines()
    assert capsys.readouterr().out.splitlines()[:len(lines)] == lines
    argv, block = re.search(r"`squint (resolve [^`]*)` reports\n\n```json\n(.*?)```",
                            text, re.S).groups()
    code, payload = run_json(argv.split(), capsys)
    assert code == 0
    assert payload["result"] == json.loads("{" + block + "}")["result"]


def test_resolve_nonconvergence_exits_2(capsys):
    code, payload = run_json(["resolve", "-G", "0", "--criterion", "standard"], capsys)
    assert code == 2
    res = payload["result"]
    assert res["converged"] is False
    assert res["delta_phi"] is None  # non-finite values become null in JSON
    assert "slope" in res["message"]


def test_resolve_refine_phi(capsys):
    code, payload = run_json(["resolve", "-G", "1.5", "--refine-phi"], capsys)
    assert code == 0
    assert payload["refined_working_point"] == pytest.approx(math.pi / 2, abs=1e-5)


def test_degrees_converts_command_line_angles(capsys):
    code, a = run_json(["resolve", "-G", "2", "--phi", "90", "--degrees"], capsys)
    assert code == 0
    code, b = run_json(["resolve", "-G", "2", "--phi", "1.5707963267948966"], capsys)
    assert code == 0
    # reported values carry 12 significant digits
    assert a["result"]["working_point"] == pytest.approx(math.pi / 2, rel=1e-9)
    assert a["result"]["delta_phi"] == pytest.approx(b["result"]["delta_phi"], rel=1e-9)


def test_flags_override_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({
        "interferometer": {"G": 2.0, "delta1": 0.05},
        "criterion": "standard",
    }))
    code, payload = run_json(["resolve", "--config", str(cfg_file), "-G", "3"], capsys)
    assert code == 0
    echo = payload["config"]
    assert echo["interferometer"]["G"] == 3.0       # flag wins
    assert echo["interferometer"]["delta1"] == 0.05  # file value kept
    assert payload["result"]["criterion"] == "standard"


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["resolve", "--config", str(tmp_path / "absent.json")]) == 1
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["resolve", "--config", str(bad)]) == 1

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"wavelength": 1550}))
    assert main(["resolve", "--config", str(unknown)]) == 1

    # JSON integers beyond float range are refused as not finite
    for doc in ({"working_point": 10**400}, {"interferometer": {"G": 10**400}}):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        assert main(["resolve", "--config", str(huge)]) == 1
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["signal", "--xi", "nan"],
    ["resolve", "-G", "nan"],
    ["resolve", "-G", "inf"],
    ["signal", "--phi-max", "inf", "--points", "3"],
])
def test_non_finite_device_values_exit_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resolve", "--criterion", "bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    capsys.readouterr()


def test_log_grid_with_negative_min_exits_1(capsys):
    code = main(["sweep", "--param", "delta2", "--min", "-0.3", "--max", "0.3",
                 "--points", "5", "--log"])
    assert code == 1
    assert "positive minimum" in capsys.readouterr().err


def test_unwritable_output_exits_1(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.csv"
    code = main(["signal", "--points", "8", "--out", str(target)])
    assert code == 1
    assert "squint:" in capsys.readouterr().err


def test_sweep_csv_grid_and_param_column(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--param", "G", "--min", "1", "--max", "2",
                 "--points", "3", "--log", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,G,mean_N,delta_phi,kappa,converged,four_over_N"
    assert len(lines) == 4
    grid = np.geomspace(1.0, 2.0, 3)
    for line, g in zip(lines[1:], grid):
        cells = line.split(",")
        assert cells[0] == cells[1]  # swept parameter is the gain itself
        assert float(cells[0]) == pytest.approx(g, rel=1e-10)
        assert cells[5] == "true"
        assert float(cells[6]) == pytest.approx(4.0 / float(cells[2]), rel=1e-9)


def test_sweep_nonconverged_row_exits_2_but_writes(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "-G", "5", "--param", "delta2", "--min", "-0.3",
                 "--max", "0.78", "--points", "4", "--linear", "--out", str(out)])
    assert code == 2
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    last = lines[-1].split(",")
    assert last[5] == "false"
    assert last[3] == "inf"


def test_optimize_imbalance_cli(tmp_path):
    out = tmp_path / "opt.json"
    assert main(["optimize-imbalance", "-G", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    res = payload["result"]
    assert res["converged"] is True and res["unimodal"] is True
    assert -0.245 <= res["delta2_opt"] <= -0.230
    assert 2.70 <= res["kappa_opt"] <= 2.85
    assert len(payload["profile"]) == 33


def test_optimize_imbalance_uses_every_device_flag(capsys):
    code, payload = run_json(["optimize-imbalance", "-G", "3", "--alpha2=0.1"], capsys)
    assert code == 0
    want = squint.optimize_delta2(InterferometerConfig(G=3.0, alpha2=0.1))
    assert payload["result"]["kappa_opt"] == float(f"{want.kappa:.12g}")
    assert payload["result"]["delta2_opt"] == float(f"{want.delta2:.12g}")
    # the lossless optimum at this gain is kappa = 2.7489
    assert payload["result"]["kappa_opt"] == pytest.approx(3.821, abs=1e-3)


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_oracle_check_rejects_bad_tolerance(tolerance, capsys):
    # refused before the grid runs: exit 1, nothing on stdout
    with pytest.raises(ValueError, match="tolerance"):
        squint.equivalence_grid(tolerance=float(tolerance))
    for bad in ("1e-8", True):  # a real number, not a str or a bool
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            squint.equivalence_grid(tolerance=bad)
    assert main(["oracle-check", f"--tolerance={tolerance}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be finite and non-negative" in captured.err


def test_oracle_check_rejects_bad_n_max(capsys):
    # refused before the grid runs: exit 1, nothing on stdout
    for bad in (-1, True, 2.5, "3"):
        with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
            squint.equivalence_grid(n_max=bad)
    assert main(["oracle-check", "--n-max=-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_max must be a non-negative integer, got -5" in captured.err


def test_oracle_check_cutoff_failure_exits_2(capsys):
    code, payload = run_json(["oracle-check", "--n-max", "3"], capsys)
    assert code == 2
    assert payload["passed"] is False
    assert len(payload["cutoff_errors"]) == 3
    for entry in payload["cutoff_errors"]:
        assert "n_max" in entry["error"]
