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
# rows of two model widths: alpha1 from 0 beside a lossy beta2
MIXED_SWEEP = ("sweep -G 2 --param alpha1 --min 0 --max 0.3 --points 7 --linear"
               " --beta2=0.1 --delta1=0.05")


@pytest.mark.parametrize("argv", [LOSSY_SCAN, SWEEP, MIXED_SWEEP],
                         ids=["lossy-scan", "sweep", "mixed-width-sweep"])
def test_two_fresh_processes_write_the_same_bytes(argv):
    # caches cold in each, and a sweep's bool rows written by fmt
    code, out, err = run_module(*argv.split())
    assert (code, err) == (0, b"") and run_module(*argv.split()) == (code, out, err)


def test_module_exits_1_on_invalid_input():
    code, out, err = run_module("resolve", "--gain=-1")
    assert (code, out) == (1, b"") and b"Traceback" not in err


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


@pytest.mark.parametrize("argv, want", [
    (LOSSY_SCAN, None),
    ("signal -G 0 --points 3", {"0.0"}),  # no gain: fmt's fallback for 0.0
], ids=["lossy-scan", "zero-gain"])
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
])
def test_invalid_request_exits_1_with_empty_stdout(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    assert (code, out) == (1, "") and err.startswith("squint: ") and "Traceback" not in err


def test_mixed_width_sweep_rows_equal_the_solver_bit_for_bit():
    # MIXED_SWEEP's rows have two model widths, and each of them is the
    # device's own modified solve, every float by its repr, which round-trips
    base = InterferometerConfig(G=2.0, beta2=0.1, delta1=0.05)
    grid = np.linspace(0.0, 0.3, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        widths = {dataclasses.replace(base, alpha1=float(a))._model[0].shape[1] for a in grid}
        assert len(widths) == 2, widths
        for a, row in zip(grid, sweep(base, "alpha1", grid)):
            want = modified_resolution(dataclasses.replace(base, alpha1=float(a)))
            assert repr(row) == repr(want), a
