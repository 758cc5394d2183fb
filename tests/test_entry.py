"""End-to-end checks of the command line: its documents' bytes, digits and
exit codes.  A check about a fresh process runs `python -W error -m squint`
through `run_module`; every other check calls `cli.main` in process through
`run`, with every warning an error, as `-W error` makes it."""
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import squint
from squint import InterferometerConfig, modified_resolution, sweep
from squint.cli import main


def run_module(*argv):
    """(exit code, stdout, stderr) of `python -W error -m squint *argv` in a
    fresh process, with the package's source first on PYTHONPATH, output as
    bytes; at most 120 s."""
    src = os.path.dirname(os.path.dirname(squint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "squint", *argv],
                          capture_output=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run(argv, capsys):
    """(exit code, stdout, stderr) of `cli.main(argv)` with every warning an
    error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return (code, *capsys.readouterr())


# a 1000-point scan through both loss stations, with a signed-zero pump phase
# and a full arm loss
LOSSY_SCAN = ("signal -G 0.9 --xi=-0.0 --alpha1=0.1 --beta1=0.2 --alpha2=1.5707963267948966"
              " --beta2=0.05 --delta1=0.05 --delta2=-0.1")
SWEEP = "sweep --param symmetric_alpha2 --min 0.01 --max 0.1 --points 5"
# lossless and lossy rows in one stack: alpha1 from 0 beside a lossy beta2
MIXED_SWEEP = ("sweep -G 2 --param alpha1 --min 0 --max 0.3 --points 7 --linear"
               " --beta2=0.1 --delta1=0.05")


# the covariance toolkit lives in the tests' reference chain, not in the library
MOVED_TO_REFERENCE = ("vacuum_state", "two_mode_squeezer", "phase_shifter", "beam_splitter",
                      "apply_symplectic", "apply_loss", "product_mean", "product_second_moment",
                      "product_sigma", "mean_photon_number")


def test_public_surface_is_the_pipeline():
    for module in (squint, squint.gaussian, squint.moments):
        assert [name for name in MOVED_TO_REFERENCE if hasattr(module, name)] == []
    assert len(squint.__all__) == len(set(squint.__all__)) == 29
    for name in squint.__all__:
        getattr(squint, name)


@pytest.mark.parametrize("argv", [LOSSY_SCAN, SWEEP, MIXED_SWEEP],
                         ids=["lossy-scan", "sweep", "mixed-width-sweep"])
def test_two_fresh_processes_write_the_same_bytes(argv):
    # caches cold in each, and a sweep's bool rows written by fmt
    code, out, err = run_module(*argv.split())
    assert (code, err) == (0, b"") and run_module(*argv.split()) == (code, out, err)


def test_module_exits_1_on_invalid_input():
    code, out, err = run_module("resolve", "--gain=-1")
    assert (code, out) == (1, b"") and b"Traceback" not in err


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["resolve", "--bogus"], 1)],
                         ids=["help", "leftover-token"])
def test_top_level_parser_writes_the_in_process_bytes(argv, code, capsys, monkeypatch):
    # the two paths that still reach the top-level parser; help wraps at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    fresh = run_module(*argv)
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        warnings.simplefilter("error")
        main(argv)
    out, err = capsys.readouterr()
    assert fresh == (exc.value.code, out.encode(), err.encode())
    assert exc.value.code == code and (code == 0 or out == "") and "usage: squint" in out + err


@pytest.mark.parametrize("argv", [
    # both loss stations, one-sided and imbalanced
    "signal -G 0.7 --xi=0.3 --alpha1=0.1 --beta2=0.2 --delta1=0.05 --points 5",
    "resolve -G 2 --alpha2=0.05 --beta1=0.02 --refine-phi",
    # the gain column of a sweep over another parameter
    "sweep --param symmetric_alpha2 --min 0.01 --max 0.1 --points 3",
])
def test_request_runs_warning_free(argv, capsys):
    code, _, err = run(argv.split(), capsys)
    assert (code, err) == (0, "")


def test_standard_kappa_is_tanh_G(capsys):
    # the ideal standard kappa is tanh G: noise 1 over the analytic slope sinh 2G
    code, out, _ = run(["resolve", "-G", "3", "--criterion", "standard"], capsys)
    assert code == 0 and json.loads(out)["result"]["kappa"] == float(f"{math.tanh(3):.12g}")


def test_small_gain_standard_kappa_is_tanh_G(capsys):
    # N = 2 sinh^2 G = 2e-16 is not lost to the trace's roundoff: kappa is
    # tanh G to the slope's own roundoff, not 0.0
    code, out, _ = run(["resolve", "-G", "1e-8", "--criterion", "standard"], capsys)
    result = json.loads(out)["result"]
    assert code == 0 and result["converged"] and result["mean_N"] == 2e-16
    assert abs(result["kappa"] - math.tanh(1e-8)) <= 1e-7 * math.tanh(1e-8), result


def test_small_gain_sweep_prints_no_zero_kappa(capsys):
    # each row's kappa and four_over_N are finite and nonzero at G down to 1e-9
    argv = "sweep -G 1 --param G --min 1e-9 --max 1e-6 --points 4 --criterion standard"
    code, out, _ = run(argv.split(), capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and len(rows) == 4
    for row in rows:
        assert float(row["kappa"]) > 0.0 and math.isfinite(float(row["four_over_N"])), row


def test_refused_sweep_rows_print_kappa_inf(capsys):
    # a vanishing slope leaves delta_phi unbounded, and kappa with it, also
    # where N underflows to 0.0 (below G ~ 1e-154, where inf * N read nan);
    # the refused rows exit 2, the numerics code
    argv = "sweep -G 1 --param G --min 1e-300 --max 1e-100 --points 5 --criterion standard"
    code, out, _ = run(argv.split(), capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 2 and [row["mean_N"] for row in rows][:3] == ["0.0"] * 3
    assert [(row["delta_phi"], row["kappa"], row["converged"]) for row in rows] == \
        [("inf", "inf", "false")] * 5


@pytest.mark.parametrize("argv, want", [
    (LOSSY_SCAN, None),
    ("signal -G 0 --points 3", {"0.0"}),  # no gain: fmt's fallback for 0.0
    ("signal -G 0 --alpha2=0.5 --points 2", {"0.0"}),  # and no roundoff below it
], ids=["lossy-scan", "zero-gain", "lossy-zero-gain"])
def test_a_scan_writes_one_mean_N(argv, want, capsys):
    # the device's photon number is read once: one mean_N over every phase
    code, out, _ = run(argv.split(), capsys)
    values = {row["mean_N"] for row in csv.DictReader(io.StringIO(out))}
    assert code == 0 and len(values) == 1, sorted(values)
    assert want is None or values == want


def test_signed_zero_losses_write_the_lossless_bytes(capsys):
    # four loss angles of -0.0 are four lossless modes: the same scan, byte for byte
    argv = "signal -G 0.9 --xi=0.3 --delta1=0.05 --delta2=-0.1".split()
    lossless = run(argv, capsys)
    signed = run(argv + "--alpha1=-0.0 --beta1=-0.0 --alpha2=-0.0 --beta2=-0.0".split(), capsys)
    assert lossless[0] == 0 and signed == lossless


@pytest.mark.parametrize("argv, n", [
    ("signal -G 0.7 --xi=0.3 --alpha1=0.1 --beta2=0.2 --delta1=0.05 --delta2=-0.1 --points 200",
     200),
    ("signal -G 0 --points 3", 3),  # a constant mean_N of 0.0
    (SWEEP, 5),  # a converged column
], ids=["lossy-scan", "zero-gain", "sweep"])
def test_table_json_values_are_its_csv_cells(argv, n, capsys):
    # read back as floats, or as true/false where JSON holds a bool
    code, text, _ = run(argv.split(), capsys)
    json_code, doc, _ = run(argv.split() + ["--format", "json"], capsys)
    assert code == json_code == 0
    table, rows = list(csv.DictReader(io.StringIO(text))), json.loads(doc)["rows"]
    assert len(rows) == len(table) == n, (len(rows), len(table))
    for cells, row in zip(table, rows):
        assert list(cells) == list(row), (list(cells), list(row))
        for k, v in row.items():
            if isinstance(v, bool):
                assert cells[k] == ("true" if v else "false"), (k, cells, row)
            else:
                assert v == float(cells[k]), (k, cells, row)


@pytest.mark.parametrize("argv", [
    "resolve --gain=-1",
    "resolve -G 1 --alpha2=2",
    "resolve -G 1 --delta1=1",
    "signal -G 400 --points 2",
    "sweep --param G --min 100 --max 200 --points 3 --linear",
    # a path argparse before Python 3.13 reads as [] or a path left empty
    "resolve --config=--",
    "resolve --config=",
    "resolve --out=--",
])
def test_invalid_request_exits_1_with_empty_stdout(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    assert (code, out) == (1, "") and err.startswith("squint: ") and "Traceback" not in err
    assert err.count("\n") == 1, err


def test_mixed_width_sweep_rows_equal_the_solver_bit_for_bit():
    # MIXED_SWEEP mixes lossless and lossy rows, and each of them is the
    # device's own modified solve, every float by its repr, which round-trips
    base = InterferometerConfig(G=2.0, beta2=0.1, delta1=0.05)
    grid = np.linspace(0.0, 0.3, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid[0] == 0.0 and np.all(grid[1:] > 0.0), grid
        for a, row in zip(grid, sweep(base, "alpha1", grid)):
            want = modified_resolution(dataclasses.replace(base, alpha1=float(a)))
            assert repr(row) == repr(want), a
