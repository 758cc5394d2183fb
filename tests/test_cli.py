"""CLI behavior: formatting, config handling, exit codes, determinism."""
import dataclasses
import importlib.util
import json
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import squint
from squint import InterferometerConfig
from squint.cli import _DEFAULT_RUN, RunConfig, _build_parser, _parse, fmt, main
from squint.resolution import SWEEP_PARAMETERS
from reference import reference_signal_document
from test_entry import run_module


def run_json(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def stub_oracle_grid(monkeypatch, deviation, phi=0.0):
    """Replace the CLI's oracle grid with a one-case report of the given
    deviation and phase, for tests of the request around it rather than the grid."""
    case = squint.GridCase(G=0.2, prep_loss=0.0, delta1=0.0, phi=phi, delta2=0.0,
                           deviation=deviation)
    report = squint.GridReport(tolerance=1e-8, n_cases=1, max_deviation=deviation,
                               worst=case, failures=(case,) if deviation > 1e-8 else ())
    monkeypatch.setattr("squint.cli.equivalence_grid", lambda: report)


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


def reference_to_dict(cfg: RunConfig) -> dict:
    """RunConfig.to_dict as it was: the layout nested from dataclasses.asdict."""
    flat = dataclasses.asdict(cfg)
    flat.update(flat.pop("interferometer"))

    def nest(layout):
        return {key: nest(f) if isinstance(f, dict) else flat[f]
                for key, f in layout.items()}
    return nest(squint.cli._LAYOUT)


def test_runconfig_round_trips_through_json():
    configs = [RunConfig(
        interferometer=InterferometerConfig(G=2.5, xi=0.3, alpha1=0.04, beta1=0.02,
                                            alpha2=0.11, beta2=0.07, delta1=-0.05,
                                            delta2=0.2),
        criterion="standard", working_point=1.4, phi_min=0.1, phi_max=5.9,
        phi_points=77, param="delta2", param_min=0.01, param_max=0.7,
        param_points=13, log_grid=False, format="json")]
    rng = np.random.default_rng(1818)
    angles = ("xi", "alpha1", "beta1", "alpha2", "beta2", "delta1", "delta2",
              "working_point", "phi_min", "param_min")
    for k, param in enumerate(SWEEP_PARAMETERS):
        device = {"xi": rng.uniform(-3.0, 3.0)}
        device.update((name, rng.uniform(0.0, math.pi / 2))
                      for name in ("alpha1", "beta1", "alpha2", "beta2"))
        device.update((name, rng.uniform(-0.7, 0.7)) for name in ("delta1", "delta2"))
        run = {"working_point": rng.uniform(0.5, 2.5), "phi_min": rng.uniform(0.0, 1.0),
               "param_min": rng.uniform(0.01, 0.3), "log_grid": k % 3 == 1}
        for name in (angles[k], angles[-1 - k]):  # every angle is a signed zero once
            (device if name in device else run)[name] = -0.0
        configs.append(RunConfig(
            InterferometerConfig(G=rng.uniform(0.1, 9.0), **device),
            criterion=("modified", "standard")[k % 2], phi_max=rng.uniform(3.0, 6.0),
            phi_points=int(rng.integers(2, 2000)), param=param,
            param_max=rng.uniform(0.4, 1.5), param_points=int(rng.integers(2, 100)),
            format=("json", "csv")[k % 2], **run))
    for cfg in configs:
        echo = cfg.to_dict()
        assert echo == reference_to_dict(cfg)
        text = json.dumps(echo, indent=2)
        assert text == json.dumps(reference_to_dict(cfg), indent=2)
        again = RunConfig.from_dict(json.loads(text))
        assert again == cfg
        assert json.dumps(again.to_dict(), indent=2) == text  # signed zeros kept


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


def test_runconfig_validation(tmp_path, capsys):
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
    for bad in ({"G": 1.0}, None, dataclasses.asdict(dev)):
        with pytest.raises(ValueError, match="interferometer must be an InterferometerConfig"):
            RunConfig(bad)
    with pytest.raises(ValueError, match="working_point must be finite"):
        RunConfig.from_dict({"working_point": 10**400})
    # the output path is not part of a run: a config file may not set it
    with pytest.raises(ValueError, match=re.escape("unknown config keys: ['out']")):
        RunConfig.from_dict({"out": "x.json"})
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": str(tmp_path / "x.json")}))
    assert main(["resolve", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config keys: ['out']" in captured.err
    assert not (tmp_path / "x.json").exists()


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
    assert main(argv) == 0
    assert run_module(*argv) == (0, capsys.readouterr().out.encode(), b"")


def test_signal_json_structure(capsys):
    code, payload = run_json(
        ["signal", "-G", "0.5", "--points", "16", "--format", "json"], capsys)
    assert code == 0
    assert payload["config"]["interferometer"]["G"] == 0.5
    assert len(payload["rows"]) == 16
    assert set(payload["rows"][0]) == {"phi", "mean_P", "sqrt_second_moment",
                                       "sigma", "mean_N"}


@pytest.mark.parametrize("argv", [
    ["signal", "-G", "1"],
    ["signal", "-G", "0.9", "--xi=-0.0", "--alpha1=0.1", "--beta1=0.2",
     "--alpha2=1.5707963267948966", "--beta2=0.05", "--delta1=0.05", "--delta2=-0.1"],
    ["signal", "-G", "0", "--points", "3"],
    ["signal", "-G", "177.17", "--alpha2=0.3", "--points", "16"],
    ["signal", "-G", "2.5", "--beta1=0.3", "--delta2=0.78", "--points", "2"],
    ["signal", "-G", "1.2", "--xi=40", "--alpha2=10", "--degrees", "--phi-min=-90",
     "--phi-max=270", "--points", "37"],
    ["signal", "-G", "0.7", "--alpha1=0.2", "--beta2=0.4", "--points", "50",
     "--format", "json"],
    # no gain, so the constant mean_N is 0.0: `%.12g` writes 0, fmt writes 0.0
    ["signal", "-G", "0", "--xi=0.4", "--alpha1=0.3", "--beta2=0.1", "--delta1=0.2",
     "--phi-min=-2", "--phi-max=2", "--points", "41"],
    ["signal", "-G", "0", "--beta1=0.5", "--delta2=0.2", "--points", "6", "--format", "json"],
    ["signal", "-G", "0.8", "--xi=-60", "--beta1=20", "--alpha2=35", "--delta1=-12",
     "--delta2=30", "--degrees", "--phi-min=-180", "--phi-max=180", "--points", "72"],
])
def test_signal_matches_the_per_phase_document(argv, capsys):
    # one batched engine call and one format per row, with the constant mean_N
    # formatted once, write the same bytes as one evaluate per phase and one
    # fmt per cell
    cfg = squint.cli._build_runconfig(squint.cli._build_parser().parse_args(argv))
    assert main(argv) == 0
    assert capsys.readouterr().out == reference_signal_document(cfg)


# Integral, signed-zero, exponent, non-finite, bool and numpy cells
_CRAFTED_CELLS = [0.0, -0.0, 1.0, 7, 123456789012.4, 0.9999999999999, 1e-05, 2e-18,
                  math.inf, -math.inf, math.nan, True, np.bool_(False), np.float64(2.5),
                  np.float64(3.0), math.pi]


def test_csv_rows_match_per_cell_fmt():
    # the row-at-a-time writer against fmt cell by cell, on every ordered pair
    # of crafted cells
    cells = _CRAFTED_CELLS
    rows = [(a, b, math.e) for a in cells for b in cells]
    csv = squint.cli._table(RunConfig(InterferometerConfig(G=1.0)), ("a", "b", "c"), rows)
    assert csv.splitlines() == ["a,b,c", *(",".join(map(fmt, row)) for row in rows)]


def test_csv_bool_columns_match_per_cell_fmt():
    # a first row of bools, which `%.12g` writes as a dotless 1 or 0, reads
    # true/false, and every crafted cell in those columns after it, ints and
    # the dotless repr of 5e-324 included, reads as fmt writes it
    cells = [*_CRAFTED_CELLS, 5e-324]
    rows = [(True, np.bool_(False), math.e), *((a, b, math.e) for a in cells for b in cells)]
    csv = squint.cli._table(RunConfig(InterferometerConfig(G=1.0)), ("a", "b", "c"), rows)
    assert csv.splitlines() == ["a,b,c", *(",".join(map(fmt, row)) for row in rows)]


def test_spliced_constant_column_matches_per_cell_fmt():
    # each crafted cell as the constant last column, formatted once and spliced
    # into every row, next to each crafted cell: the CSV is fmt cell by cell,
    # and the JSON rows are those of a table that repeats the constant per row,
    # which json.dumps writes with every bool cell, np.bool_ too, as true/false
    cfg = RunConfig(InterferometerConfig(G=1.0))
    json_cfg = dataclasses.replace(cfg, format="json")
    columns = ("a", "b", "c")
    rows = [(a, math.e) for a in _CRAFTED_CELLS]
    for constant in _CRAFTED_CELLS:
        full = [(*row, constant) for row in rows]
        csv = squint.cli._table(cfg, columns, rows, (constant,))
        assert csv.splitlines() == ["a,b,c", *(",".join(map(fmt, row)) for row in full)]
        body = squint.cli._table(json_cfg, columns, rows, (constant,))
        assert body == squint.cli._table(json_cfg, columns, full)
        assert [list(row) for row in body["rows"]] == [list(columns)] * len(rows)
        for row, got in zip(full, json.loads(json.dumps(body))["rows"]):
            for column, cell in zip(columns, row):
                if isinstance(cell, (bool, np.bool_)):
                    assert got[column] is bool(cell), (row, got)


def test_points_flag_sets_phase_grid_for_signal(capsys):
    code, payload = run_json(
        ["signal", "--points", "8", "--format", "json"], capsys)
    assert code == 0
    assert payload["config"]["phi_grid"]["points"] == 8
    assert payload["config"]["param_grid"]["points"] == 60  # untouched default


def test_signal_refuses_a_phase_grid_with_repeated_phases(capsys):
    # 6 points in a span of 5 floats: linspace repeats a phase, so the scan
    # exits 1 as sweep does for its grid, with nothing on stdout
    argv = ["signal", "--gain=1", "--phi-min=1", "--phi-max=1.000000000000001", "--points", "6"]
    cfg = squint.cli._build_runconfig(_build_parser().parse_args(argv))
    assert len(set(cfg.phi_grid().tolist())) < 6
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("squint: invalid configuration: phase grid values must "
                                   "be strictly increasing")
    assert captured.err.count("\n") == 1


def test_default_signal_scan_writes_1000_distinct_phases(capsys):
    # the repeated-phase check leaves the default scan's bytes as they were
    assert main(["signal"]) == 0
    out = capsys.readouterr().out
    assert out == reference_signal_document(_DEFAULT_RUN)
    phis = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert len(set(phis)) == len(phis) == 1000


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


def test_resolve_refuses_a_root_bracket_wider_than_the_phase_spacing_allows(capsys):
    # at phi = 2^52 the float spacing is 1: the root's bracket closes at [1, 2]
    code, payload = run_json(["resolve", "-G", "1", "--phi=4503599627370496"], capsys)
    assert code == 2
    res = payload["result"]
    assert res["converged"] is False and res["delta_phi"] == 1.5
    assert "float spacing" in res["message"]


def test_resolve_refine_phi(capsys):
    code, payload = run_json(["resolve", "-G", "1.5", "--refine-phi"], capsys)
    assert code == 0
    assert payload["refined_working_point"] == pytest.approx(math.pi / 2, abs=1e-5)


def test_refine_phi_prints_pi_over_2_on_the_ideal_device(capsys):
    # the minimum is pi/2, where f' vanishes to roundoff; Brent's method on
    # sigma, which is flat there, printed 1.57079636115
    argv = ["resolve", "-G", "0.05", "--refine-phi", "--criterion", "standard"]
    code, payload = run_json(argv, capsys)
    assert code == 0 and payload["refined_working_point"] == float(f"{math.pi / 2:.12g}")
    assert payload["result"]["working_point"] == payload["refined_working_point"]


@pytest.mark.parametrize("xi, edge", [(1.2, True), (0.9, False)])
def test_refine_phi_notes_a_minimum_at_the_bracket_edge(xi, edge, capsys):
    # the ideal device's noise minimum sits at pi/2 - xi/3, outside the
    # refinement's pi/2 +/- 0.35 for xi = 1.2
    assert main(["resolve", "-G", "2", f"--xi={xi}", "--refine-phi"]) == 0
    captured = capsys.readouterr()
    phi = json.loads(captured.out)["refined_working_point"]
    if edge:
        assert phi == pytest.approx(math.pi / 2 - 0.35, abs=1e-9)
        assert captured.err.count("\n") == 1
        assert "edge of its search bracket" in captured.err
        cfg = InterferometerConfig(G=2.0, xi=xi)
        assert squint.evaluate(cfg, math.pi / 2 - 0.4).sigma < squint.evaluate(cfg, phi).sigma
    else:
        assert phi == pytest.approx(math.pi / 2 - xi / 3, abs=1e-7)
        assert captured.err == ""


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

    # the file is checked on its own before the flags override it
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"interferometer": {"G": -1}}))
    assert main(["resolve", "--config", str(negative), "-G", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "gain G" in captured.err


@pytest.mark.parametrize("argv, devices, runs", [
    (["resolve", "-G", "2"], 1, 1),
    (["resolve", "--config", "FILE", "-G", "3"], 2, 2),
    (["sweep", "--points", "3"], 0, 1),
    (["signal", "--points", "3"], 0, 1),
    (["oracle-check"], 0, 0),
])
def test_each_request_builds_its_configs_once(argv, devices, runs, tmp_path, capsys,
                                              monkeypatch):
    # the defaults are built at import; a config file is built and checked
    # once before the flags apply, a request that sets no device field keeps
    # the default device, and one that sets no field keeps the default run;
    # a sweep builds no device for its rows, only their phase models, and
    # oracle-check, whose grid is stubbed here, builds none around it
    stub_oracle_grid(monkeypatch, 0.0)
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"interferometer": {"G": 2.0, "delta1": 0.05}}))
    argv = [str(cfg_file) if arg == "FILE" else arg for arg in argv]
    built = {InterferometerConfig: 0, RunConfig: 0}
    for cls in built:
        def counted(self, cls=cls, post_init=cls.__post_init__):
            built[cls] += 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert (built[InterferometerConfig], built[RunConfig]) == (devices, runs)


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


def test_overflowing_grid_span_is_refused_at_the_boundary(capsys):
    # finite bounds whose span max - min overflows would fill the grid with
    # inf and nan; the config refuses them before any grid is built
    device = InterferometerConfig(G=1.0)
    for lo, hi in ((-1e308, 1e308), (-10**308, 10**308), (np.float64(-1e308), np.float64(1e308))):
        with pytest.raises(ValueError, match="phi grid span"):
            RunConfig(device, phi_min=lo, phi_max=hi)
        with pytest.raises(ValueError, match="param grid span"):
            RunConfig(device, param_min=lo, param_max=hi, log_grid=False)
    for argv in (["signal", "--phi-min=-1e308", "--phi-max=1e308", "--points", "3"],
                 ["sweep", "--linear", "--min=-1e308", "--max=1e308", "--points", "3"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("squint: config error: ") and "span" in captured.err


@pytest.mark.parametrize("argv", [
    ["signal", "-G", "1", "--points", "1000000000000000"],
    ["sweep", "--points", "1000000000000000"],
])
def test_unallocatable_grid_exits_1(argv, capsys):
    # 10**15 points need 8 PB, beyond any 64-bit address space, so the grid's
    # allocation fails at once: one line on stderr, nothing on stdout
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("squint: ") and captured.err.count("\n") == 1


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resolve", "--criterion", "bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    capsys.readouterr()


def perfbench_argvs(seeds):
    """The argv of every CLI request the benchmark's workloads send for the seeds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [req["argv"] for seed in seeds for make in workloads.REQUESTS.values()
            for req in make(seed) if req["argv"] is not None]


def read_by_table(argv):
    """The namespace argv's subcommand's flag table reads, or None."""
    return _build_parser().commands[argv[0]].read_flags(argv[1:])


def test_one_pass_parses_as_the_full_parser():
    # every benchmark request is read by its subcommand's flag table: a
    # request that fell back to argparse would still parse, only slower
    argvs = perfbench_argvs(range(1, 9))
    assert len(argvs) > 600
    for argv in argvs:
        args = read_by_table(argv)
        assert args is not None, argv
        assert repr(args) == repr(_parse(argv)) == repr(_build_parser().parse_args(argv))
    for argv in (["resolve", "--ga=2"], ["sweep", "--lin"]):
        assert read_by_table(argv) is None
        assert vars(_parse(argv)) == vars(_build_parser().parse_args(argv)), argv


def parse_outcome(parse, argv, capsys):
    """A parse's namespace repr (so nan values compare), or what it raised."""
    try:
        return repr(parse(argv))
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())
    except Exception as exc:
        return (type(exc), str(exc))


_FUZZ_OPTIONS = {  # each subcommand's own option strings
    "signal": ["--phi-min", "--phi-max", "--points", "--format"],
    "resolve": ["--criterion", "--phi", "--refine-phi"],
    "sweep": ["--criterion", "--phi", "--param", "--min", "--max", "--points", "--log",
              "--linear", "--format"],
    "optimize-imbalance": ["--criterion", "--phi"],
    "oracle-check": [],
}
_FUZZ_DEVICE = ["-G", "--gain", "--xi", "--alpha1", "--beta1", "--alpha2", "--beta2",
                "--delta1", "--delta2"]
_FUZZ_COMMON = ["--config", "--out", "--degrees"]
_FUZZ_FLAGS = {"--refine-phi", "--log", "--linear", "--degrees"}
# abbreviations, unique and ambiguous, unknown options, help, "--" and "-",
# and attached short values
_FUZZ_STRAY = ["--phi-m", "--phi", "--crit", "--ref", "--lin", "--lo", "--m", "--ga", "--al",
               "--de", "--deg", "-g", "--bogus", "-h", "--help", "--", "-", "-G3", "-Gx"]
_FUZZ_NUMBERS = ["1.5", "2", "0", "-2", "-0.5", "-5e-05", "5e-05", "1e3", "-1E+2", "nan",
                 "-nan", "inf", "-inf", "1_0", " 3", "2.5"]
_FUZZ_FITTING = {"--criterion": ["modified", "standard"], "--param": ["G", "alpha2"],
                 "--format": ["csv", "json"], "--points": ["2", "3", "40", "-3"],
                 "--config": ["doc.json", "--"], "--out": ["doc.json", "-", "--"]}
_FUZZ_VALUES = [*_FUZZ_NUMBERS, *dict.fromkeys(v for vs in _FUZZ_FITTING.values() for v in vs),
                "x", "", "-", "--", "=", "bogus", "JSON", "symmetric_alpha2", "a=b"]
_FUZZ_ODD = [3, 0, 1.5, None, b"-G", ["x"]]


def fuzz_argv(rng):
    """A random request: a subcommand (rarely none, or an option first), then
    options, mostly its own, each with a value, mostly a fitting one, in the
    `=` form, the separate form or bare; rarely a non-str token."""
    command = rng.choice([*_FUZZ_OPTIONS, *_FUZZ_OPTIONS, "bogus", "-G"])
    options = _FUZZ_OPTIONS.get(command, []) + _FUZZ_COMMON
    if command != "oracle-check":
        options += _FUZZ_DEVICE
    argv = [command]
    for _ in range(rng.randrange(1, 7)):
        option = rng.choice(options if rng.random() < 0.85 else _FUZZ_STRAY)
        value = rng.choice(_FUZZ_FITTING.get(option, _FUZZ_NUMBERS)
                           if rng.random() < 0.75 else _FUZZ_VALUES)
        form = rng.random()
        if option in _FUZZ_FLAGS and form < 0.8 or form < 0.1:
            argv.append(option)
        elif form < 0.55:
            argv.append(f"{option}={value}")
        else:
            argv += [option, value]
    if rng.random() < 0.03:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(_FUZZ_ODD))
    return argv


def test_the_flag_table_reads_only_what_argparse_reads_alike(capsys):
    # whenever a table reads a request, argparse accepts it and gives an equal
    # namespace; any other request, non-str tokens included, meets argparse
    rng, read = random.Random(39), 0
    for _ in range(3000):
        argv = fuzz_argv(rng)
        want = parse_outcome(_build_parser().parse_args, argv, capsys)
        table = all(type(t) is str for t in argv) and argv[0] in _build_parser().commands
        if table and read_by_table(argv) is not None:
            read += 1
            assert isinstance(want, str), argv
        assert parse_outcome(_parse, argv, capsys) == want, argv
    assert 300 < read < 2700


def exit_of(call, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        call(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--gain=1", "resolve"], ["resolve", "--bogus"],
    ["resolve", "-G", "1", "extra"], ["resolve", "--criterion", "bogus"], ["resolve", "--gain"],
    ["sweep", "--log", "--linear"], ["oracle-check", "--n-max", "40"],
    ["resolve", "--", "-G", "1"], ["resolve", "-G", "1", "--"], ["resolve", "-h"], ["-h"],
    # exact flags that the tables decline: an empty value, a value given to a
    # bare flag, a failed conversion, and a separate value led by "-"
    ["resolve", "--gain="], ["resolve", "--refine-phi=1"], ["sweep", "--points", "2.5"],
    ["resolve", "-G", "1", "--xi", "-5e-05"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_errors_and_help_read_as_the_full_parser_writes_them(argv, capsys):
    if argv and argv[0] in _build_parser().commands:
        assert read_by_table(argv) is None
    want = exit_of(_build_parser().parse_args, argv, capsys)
    assert exit_of(main, argv, capsys) == want
    assert want[0] == (0 if "-h" in argv else 1)


@pytest.mark.parametrize("argv", [["resolve", "-G", "2", "--alpha2=0.05"],
                                  ["resolve", "--bogus"]])
def test_main_reads_any_argv_sequence(argv, capsys, monkeypatch):
    def outcome(*args):
        try:
            code = main(*args)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    want = outcome(argv)
    monkeypatch.setattr(sys, "argv", ["squint", *argv])
    assert outcome() == want
    assert outcome(tuple(argv)) == want
    assert outcome(arg for arg in argv) == want


_FULL_PARSER_REQUESTS = [["resolve", "--ga=2"], ["sweep", "--lin"], ["resolve", "-G3"]]


@pytest.mark.parametrize("argv", [["signal", "--points", "3"], ["resolve", "-G", "2"],
                                  ["sweep", "--points", "3"], ["optimize-imbalance", "-G", "5"],
                                  ["oracle-check"], *_FULL_PARSER_REQUESTS])
def test_a_request_is_parsed_once_by_its_subcommand(argv, capsys, monkeypatch):
    # every parser, the top-level one and each subcommand's, is a _Parser: a
    # request of exact flags is read by its subcommand's flag table, with no
    # argparse parse; an abbreviation or an attached short value is parsed
    # once by the full parser, which hands it to the subparser
    stub_oracle_grid(monkeypatch, 0.0)
    calls = []

    def counted(self, *args, parse=squint.cli._Parser.parse_known_args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)
    monkeypatch.setattr(squint.cli._Parser, "parse_known_args", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == (["squint", f"squint {argv[0]}"] if argv in _FULL_PARSER_REQUESTS else [])


def test_log_grid_with_negative_min_exits_1(capsys):
    code = main(["sweep", "--param", "delta2", "--min", "-0.3", "--max", "0.3",
                 "--points", "5", "--log"])
    assert code == 1
    assert "positive minimum" in capsys.readouterr().err


def test_unwritable_output_exits_1(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.out"
    for argv in (["signal", "--points", "8"],
                 ["signal", "--points", "3", "--format", "json"],
                 ["resolve", "-G", "2"],
                 ["sweep", "--points", "3", "--format", "json"],
                 ["optimize-imbalance", "-G", "3"]):
        assert main(argv + ["--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "squint:" in captured.err and "no-such-dir" in captured.err


@pytest.mark.parametrize("argv, code", [
    (["signal", "--points", "4"], 0),
    (["signal", "--points", "4", "--format", "json"], 0),
    (["resolve", "-G", "2"], 0),
    (["resolve", "-G", "2", "--xi=1.2", "--refine-phi"], 0),  # a note on stderr
    (["sweep", "--points", "3"], 0),
    (["sweep", "--points", "3", "--format", "json"], 0),
    (["sweep", "-G", "5", "--param", "delta2", "--min", "-0.3", "--max", "0.78",
      "--points", "4", "--linear", "--format", "json"], 2),
    (["optimize-imbalance", "-G", "5"], 0),
    (["oracle-check"], 2),  # a stubbed grid with one failing case
    (["resolve", "-G", "3"], 0),
])
def test_out_file_holds_the_stdout_bytes(argv, code, tmp_path, capsys, monkeypatch):
    # one document per request: --out gets exactly the bytes stdout would,
    # the diagnostics on stderr and the exit code do not depend on where it
    # goes, and a JSON document's echo names no file
    stub_oracle_grid(monkeypatch, 1e-3)
    assert main(argv) == code
    printed = capsys.readouterr()
    target = tmp_path / "doc.out"
    assert main(argv + ["--out", str(target)]) == code
    written = capsys.readouterr()
    assert written.out == ""
    assert written.err == printed.err
    assert target.read_bytes() == printed.out.encode()
    if printed.out.startswith("{"):
        assert "out" not in _keys(printed.out)


def test_echo_fed_back_as_config_reproduces_the_document(tmp_path, capsys):
    # the echo holds only what the run computes: fed back through --config,
    # it gives the same document on stdout and leaves the first file alone
    for argv in (["resolve", "-G", "2", "--alpha2=0.05", "--beta1=0.02"],
                 ["sweep", "--points", "3", "--format", "json"]):
        first = tmp_path / "first.json"
        assert main(argv + ["--out", str(first)]) == 0
        written = first.read_bytes()
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(json.loads(written)["config"]))
        assert main([argv[0], "--config", str(echo)]) == 0
        assert capsys.readouterr().out.encode() == written
        assert first.read_bytes() == written


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
    assert {line.split(",")[1] for line in lines[1:]} == {"5.0"}  # the device's gain
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


def test_oracle_check_runs_one_fixed_grid(tmp_path, capsys):
    # the grid has no options: its document is the echo and one fixed report,
    # bound 1e-8, with every number outside the echo, worst case included, at
    # 12 significant digits and no key naming a file; a fresh process, its
    # caches cold, writes the same bytes to --out; and a flag that would set a
    # cutoff or a bound is refused before the grid runs
    assert main(["oracle-check"]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert list(payload) == ["config", "tolerance", "n_cases", "max_deviation",
                             "worst_case", "n_failures", "passed"]
    assert payload["tolerance"] == 1e-8
    assert (payload["n_cases"], payload["n_failures"], payload["passed"]) == (270, 0, True)
    assert list(payload["worst_case"]) == [f.name for f in dataclasses.fields(squint.GridCase)]
    values = _floats({k: v for k, v in payload.items() if k != "config"})
    assert values and all(x == float(f"{x:.12g}") for x in values), values
    assert "out" not in _keys(text)
    target = tmp_path / "report.json"
    assert run_module("oracle-check", "--out", str(target)) == (0, b"", b"")
    assert target.read_bytes() == text.encode()
    for flag in (["--n-max", "40"], ["--tolerance", "1e-3"]):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", *flag])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


def _floats(node):
    """Every float in a parsed JSON document, at any depth."""
    if isinstance(node, dict):
        return [x for v in node.values() for x in _floats(v)]
    if isinstance(node, list):
        return [x for v in node for x in _floats(v)]
    return [node] if isinstance(node, float) else []


def _keys(text):
    """Every key of a JSON document, at any depth."""
    keys = set()
    json.loads(text, object_pairs_hook=lambda pairs: keys.update(k for k, _ in pairs))
    return keys


def test_json_documents_hold_12_significant_digits(capsys, monkeypatch):
    # every data value is rounded alike; the echoed config keeps the input's
    # digits.  The stubbed grid's worst case carries full-precision values
    phi, deviation = math.pi / 4, 8.411760177295946e-11
    assert phi != float(f"{phi:.12g}") and deviation != float(f"{deviation:.12g}")
    stub_oracle_grid(monkeypatch, deviation, phi=phi)
    for argv in (["signal", "-G", "0.7", "--alpha1=0.1", "--points", "5", "--format", "json"],
                 ["resolve", "-G", "2", "--alpha2=0.05", "--refine-phi"],
                 ["sweep", "--points", "3", "--format", "json"],
                 ["optimize-imbalance", "-G", "3"],
                 ["oracle-check"]):
        _, payload = run_json(argv, capsys)
        del payload["config"]
        values = _floats(payload)
        assert values, argv
        for x in values:
            assert x == float(f"{x:.12g}"), (argv, x)
        if argv == ["oracle-check"]:
            assert payload["worst_case"]["phi"] == float(f"{phi:.12g}")
            assert payload["worst_case"]["deviation"] == payload["max_deviation"]


def test_oracle_check_refuses_device_fields_in_config(tmp_path, capsys, monkeypatch):
    # oracle-check takes no device flags and its grid reads no device, so a
    # config file may not set one either; other fields still apply
    stub_oracle_grid(monkeypatch, 0.0)
    device = tmp_path / "device.json"
    for block in ({"G": 2.0, "alpha2": 0.1}, {"xi": -0.0}):
        device.write_text(json.dumps({"interferometer": block, "criterion": "standard"}))
        assert main(["oracle-check", "--config", str(device)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("squint: config error: ")
        assert str(sorted(block)) in captured.err
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"criterion": "standard"}))
    code, payload = run_json(["oracle-check", "--config", str(plain)], capsys)
    assert code == 0
    assert payload["config"]["criterion"] == "standard"

