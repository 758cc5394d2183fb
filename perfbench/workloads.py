"""Seeded request lists for the three workloads, and the check of each output.

A request is a dict:

    label         what kind of op it is (reported with failures)
    argv          CLI arguments for ``squint.cli.main``, or
    oracle        (config fields, phi) for a ``squint.fock.oracle_pipeline`` call
    check         name of the reference the output is compared with
    known_defect  why the op fails at the parent commit, or None

Every float that reaches the program is written with ``repr``, joined to its
option by ``=``, so that the CLI parses back exactly the value the checks use.  The mix of op kinds and
each slot's cost-setting parameters (loss pattern, gain band) are fixed;
the seed moves the values inside them, so run-to-run spread reflects the
program and not a different amount of work.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random

import numpy as np

SIGNAL_COLUMNS = ["phi", "mean_P", "sqrt_second_moment", "sigma", "mean_N"]
SCAN_TOL = 1e-10          # ideal rows vs closed form, relative to max(1, |ref|)
ORACLE_TOL = 1e-8         # engine vs Fock oracle, absolute (gate 2's tolerance)
KAPPA_RTOL = 1e-6         # ideal resolution vs the closed-form root
OPTIMUM = (-0.2375, 2.763, 5e-4)   # delta2, kappa at G = 5 and their tolerance
ORDER_SLACK = 1e-12       # modified >= standard * (1 - slack)

HIGH_GAIN_DEFECT = ("phi + d loses d to rounding at high gain: the solver reports "
                    "converged with a kappa far from the closed-form 4")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng, n, lo, hi, log=False):
    """One value per equal-width stratum of [lo, hi], in stratum order."""
    if log:
        return [lo * (hi / lo) ** ((i + rng.random()) / n) for i in range(n)]
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _device_argv(cfg: dict) -> list:
    """One ``--name=value`` token per field: argparse reads a separate value
    such as ``-5e-05`` (a negative float in exponent form) as an option."""
    return [f"--{'gain' if name == 'G' else name}={value!r}" for name, value in cfg.items()]


def _request(label, argv=None, oracle=None, check=None, known_defect=None, **ref):
    return {"label": label, "argv": argv, "oracle": oracle, "check": check,
            "known_defect": known_defect, "ref": ref}


# ---------------------------------------------------------------------------
# Request lists

SCAN_IDEAL, SCAN_LOSSY, SCAN_ORACLE_SAMPLES = 8, 8, 3
SCAN_LOSS_PAIRS = (("alpha1", "alpha2"), ("beta1", "beta2"), ("alpha2", "beta2"),
                   ("alpha1", "beta1"), ("alpha1", "beta2"), ("beta1", "alpha2"))


def scan_requests(seed: int) -> list:
    """1000-point ``squint signal`` scans: ideal gains, then lossy devices."""
    rng = _rng("scan", seed)
    reqs = []
    for G in _strata(rng, SCAN_IDEAL, 0.25, 3.0):
        reqs.append(_request("signal/ideal", ["signal"] + _device_argv({"G": G}),
                             check="closed_form", G=G))
    sampled = set(rng.sample(range(SCAN_LOSSY), SCAN_ORACLE_SAMPLES))
    for i, G in enumerate(_strata(rng, SCAN_LOSSY, 0.2, 0.8)):
        cfg = {"G": G, "xi": rng.uniform(-math.pi, math.pi),
               "delta1": rng.uniform(-0.15, 0.15), "delta2": rng.uniform(-0.15, 0.15)}
        for name in SCAN_LOSS_PAIRS[i % len(SCAN_LOSS_PAIRS)]:
            cfg[name] = rng.uniform(0.02, 0.35)
        row = rng.randrange(1000) if i in sampled else None
        reqs.append(_request("signal/lossy", ["signal"] + _device_argv(cfg),
                             check="oracle_row" if row is not None else "table",
                             config=cfg, row=row))
    return reqs


SOLVE_REPEATS = 8
# (criterion, --refine-phi, losses).  Without refinement only arm loss is
# used: one-sided preparation loss moves the noise minimum off pi/2, where
# the modified criterion can then fall below the standard one.
SOLVE_KINDS = (
    ("modified", False, None), ("modified", True, None),
    ("standard", False, None), ("standard", True, None),
    ("modified", False, "arm"), ("standard", False, "arm"),
    ("modified", True, "any"), ("standard", True, "any"),
)
PROBE_GAINS = (14.0, 16.0, 20.0)
ALPHA2_SWEEP = (0.005, 0.3, 30)   # symmetric arm-loss grid: min, max, points (log)


def solve_requests(seed: int) -> list:
    """Resolutions over gain, ideal and lossy, then probes and the paper's runs."""
    rng = _rng("solve", seed)
    reqs = []
    gains = {k: _strata(rng, SOLVE_REPEATS, 0.5, 8.0, log=True) for k in SOLVE_KINDS}
    for r in range(SOLVE_REPEATS):
        for kind in SOLVE_KINDS:
            criterion, refine, losses = kind
            cfg = {"G": gains[kind][r]}
            if losses:
                pool = ("alpha2", "beta2") if losses == "arm" else \
                       ("alpha1", "beta1", "alpha2", "beta2")
                for name in rng.sample(pool, 1 + r % 2):
                    cfg[name] = rng.uniform(0.01, 0.3)
                cfg["delta1"] = rng.uniform(-0.1, 0.1)
                cfg["delta2"] = rng.uniform(-0.1, 0.1)
            argv = ["resolve"] + _device_argv(cfg) + ["--criterion", criterion]
            if refine:
                argv.append("--refine-phi")
            label = f"resolve/{'lossy' if losses else 'ideal'}"
            reqs.append(_request(label, argv, check="lossy_order" if losses else "root",
                                 config=cfg, criterion=criterion, refine=refine))
    for G in PROBE_GAINS:
        reqs.append(_request("resolve/high-gain", ["resolve"] + _device_argv({"G": G}),
                             check="root", known_defect=HIGH_GAIN_DEFECT,
                             config={"G": G}, criterion="modified", refine=False))
    reqs.append(_request("sweep/G", ["sweep", "--param", "G", "--min", "0.5",
                                     "--max", "8", "--log"], check="sweep_root"))
    G = rng.uniform(1.5, 3.0)
    reqs.append(_request("sweep/symmetric_alpha2",
                         ["sweep"] + _device_argv({"G": G}) +
                         ["--param", "symmetric_alpha2", "--min", repr(ALPHA2_SWEEP[0]),
                          "--max", repr(ALPHA2_SWEEP[1]), "--points", str(ALPHA2_SWEEP[2])],
                         check="sweep_order", config={"G": G}))
    reqs.append(_request("optimize-imbalance", ["optimize-imbalance", "-G", "5"],
                         check="optimum"))
    return reqs


# Arm loss and one-sided preparation loss, which the equivalence grid never
# builds; two ancillas at one gain keep the states alike in size, so the
# median request is a median over several of them.
ORACLE_G = 0.6
ORACLE_CALLS = 8
ORACLE_LOSS_PAIRS = (("alpha1", "alpha2"), ("beta1", "beta2"), ("alpha2", "beta2"),
                     ("alpha1", "beta2"), ("beta1", "alpha2"))


def oracle_requests(seed: int) -> list:
    """The default oracle-check grid, then fresh oracle_pipeline states."""
    rng = _rng("oracle", seed)
    reqs = [_request("oracle-check", ["oracle-check"], check="grid")]
    for i in range(ORACLE_CALLS):
        cfg = {"G": ORACLE_G, "xi": rng.uniform(-math.pi, math.pi),
               "delta1": rng.uniform(-0.15, 0.15), "delta2": rng.uniform(-0.15, 0.15)}
        for name in ORACLE_LOSS_PAIRS[i % len(ORACLE_LOSS_PAIRS)]:
            cfg[name] = rng.uniform(0.02, 0.3)
        reqs.append(_request("oracle_pipeline", oracle=(cfg, rng.uniform(0, 2 * math.pi)),
                             check="engine", config=cfg))
    return reqs


REQUESTS = {"scan": scan_requests, "solve": solve_requests, "oracle": oracle_requests}


def warmup_argv(workload: str):
    """A small op run during set-up; the oracle stays cold, as for a CLI user."""
    return {"scan": ["signal", "-G", "1", "--points", "50"],
            "solve": ["resolve", "-G", "1"]}.get(workload)


# ---------------------------------------------------------------------------
# References

def modified_root_kappa(G: float, phi: float = math.pi / 2) -> float:
    """kappa of the ideal modified criterion, from the closed form.

    With N = 2 sinh^2 G and e = phi - pi/2 the ideal device has slope
    sqrt(N^2 + 2N) cos(2e) and variance 1 + (2 sin^2 e + sin^2 2e)(N^2/2 + N),
    which keeps full precision where <P^2> - <P>^2 would cancel.  Solves
    2 |slope| d = sigma(phi) + sigma(phi + d) by bisection.
    """
    n = 2.0 * math.sinh(G) ** 2
    h = n * n / 2.0 + n
    e0 = phi - math.pi / 2
    slope = math.sqrt(n * n + 2.0 * n) * abs(math.cos(2.0 * e0))

    def sigma(e):
        return math.sqrt(1.0 + (2.0 * math.sin(e) ** 2 + math.sin(2.0 * e) ** 2) * h)

    s0 = sigma(e0)

    def excess(d):
        return 2.0 * slope * d - s0 - sigma(e0 + d)

    lo, hi = 0.0, min(math.pi / 2, 8.0 / slope)
    while excess(hi) <= 0.0 and hi < math.pi / 2:
        hi = min(2.0 * hi, math.pi / 2)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi) * n


def standard_kappa(G: float, phi: float = math.pi / 2) -> float:
    """kappa of the ideal standard criterion, sigma / |slope| * N."""
    n = 2.0 * math.sinh(G) ** 2
    e0 = phi - math.pi / 2
    sigma = math.sqrt(1.0 + (2.0 * math.sin(e0) ** 2 + math.sin(2.0 * e0) ** 2)
                      * (n * n / 2.0 + n))
    return sigma / (math.sqrt(n * n + 2.0 * n) * abs(math.cos(2.0 * e0))) * n


def _close(got, ref, rtol):
    return abs(got - ref) <= rtol * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# Checks.  Each returns an error message, or "" when the output is right.

def _signal_rows(text):
    lines = text.splitlines()
    if not lines or lines[0].split(",") != SIGNAL_COLUMNS:
        raise ValueError("bad CSV header")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    if rows.shape != (1000, 5) or not np.all(np.isfinite(rows)):
        raise ValueError(f"expected 1000 finite rows, got shape {rows.shape}")
    phis = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False)
    if not np.allclose(rows[:, 0], phis, rtol=1e-11, atol=1e-11):
        raise ValueError("phase column is not the default grid")
    return phis, rows


def _stats_row(stats):
    return (stats.mean, math.sqrt(stats.second_moment), stats.sigma, stats.mean_photons)


def check_closed_form(squint, req, text):
    phis, rows = _signal_rows(text)
    G = req["ref"]["G"]
    for phi, row in zip(phis, rows):
        ref = _stats_row(squint.closed_form_reference(G, float(phi)))
        for got, want, col in zip(row[1:], ref, SIGNAL_COLUMNS[1:]):
            if not _close(got, want, SCAN_TOL):
                return f"{col} at phi={phi:.6f}: {got!r} vs closed form {want!r}"
    return ""


def _table_error(rows):
    if np.any(rows[:, 3] < 0) or np.ptp(rows[:, 4]) > 1e-9 * max(1.0, rows[0, 4]):
        return "negative sigma or phase-dependent mean_N"
    return ""


def check_table(squint, req, text):
    return _table_error(_signal_rows(text)[1])


def check_oracle_row(squint, req, text):
    phis, rows = _signal_rows(text)
    err = _table_error(rows)
    if err:
        return err
    i = req["ref"]["row"]
    cfg = squint.InterferometerConfig(**req["ref"]["config"])
    ref = _stats_row(squint.oracle_pipeline(cfg, float(phis[i])))
    for got, want, col in zip(rows[i, 1:], ref, SIGNAL_COLUMNS[1:]):
        if not abs(got - want) <= ORACLE_TOL:
            return f"{col} at row {i}: {got!r} vs Fock oracle {want!r}"
    return ""


def check_root(squint, req, text):
    res = json.loads(text)["result"]
    if not res["converged"]:
        return f"not converged: {res['message']}"
    G = req["ref"]["config"]["G"]
    # The printed working point has 12 digits, too few near d ~ 1/N at high
    # gain; the refinement is deterministic, so redo it for the exact phase.
    phi = (squint.refine_working_point(squint.InterferometerConfig(G=G))
           if req["ref"]["refine"] else math.pi / 2)
    want = (modified_root_kappa(G, phi) if req["ref"]["criterion"] == "modified"
            else standard_kappa(G, phi))
    if abs(res["kappa"] - want) > KAPPA_RTOL * want:
        return f"kappa {res['kappa']!r} vs closed-form root {want!r} at G={G!r}"
    return ""


def _library_pair(squint, cfg, phi):
    return (squint.modified_resolution(cfg, phi=phi),
            squint.standard_resolution(cfg, phi=phi))


def _order_error(mod, std):
    if not (mod.converged and std.converged):
        return "library solve did not converge"
    if not mod.delta_phi >= std.delta_phi * (1.0 - ORDER_SLACK):
        return f"modified {mod.kappa!r} < standard {std.kappa!r}"
    return ""


def check_lossy_order(squint, req, text):
    res = json.loads(text)["result"]
    if not res["converged"]:
        return f"not converged: {res['message']}"
    cfg = squint.InterferometerConfig(**req["ref"]["config"])
    phi = squint.refine_working_point(cfg) if req["ref"]["refine"] else math.pi / 2
    mod, std = _library_pair(squint, cfg, phi)
    err = _order_error(mod, std)
    if err:
        return err
    mine = mod if req["ref"]["criterion"] == "modified" else std
    if not _close(res["kappa"], mine.kappa, 1e-10):
        return f"kappa {res['kappa']!r} differs from the library's {mine.kappa!r}"
    return ""


def _sweep_rows(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty sweep table")
    return rows


def check_sweep_root(squint, req, text):
    rows = _sweep_rows(text)
    if len(rows) != 60:
        return f"expected 60 rows, got {len(rows)}"
    for row in rows:
        G, kappa = float(row["G"]), float(row["kappa"])
        want = modified_root_kappa(G)
        if row["converged"] != "true" or abs(kappa - want) > KAPPA_RTOL * want:
            return f"row G={G!r}: kappa {kappa!r} vs closed-form root {want!r}"
    return ""


def check_sweep_order(squint, req, text):
    rows = _sweep_rows(text)
    G = req["ref"]["config"]["G"]
    grid = np.geomspace(*ALPHA2_SWEEP)
    if len(rows) != len(grid):
        return f"expected {len(grid)} rows, got {len(rows)}"
    for row, a in zip(rows, grid):
        if row["converged"] != "true":
            return f"row {row['param']} not converged"
        cfg = squint.InterferometerConfig.with_symmetric_loss(G, arm=float(a))
        mod, std = _library_pair(squint, cfg, math.pi / 2)
        err = _order_error(mod, std)
        if err:
            return f"row {row['param']}: {err}"
        if not _close(float(row["kappa"]), mod.kappa, 1e-10):
            return f"row {row['param']}: kappa {row['kappa']} vs library {mod.kappa!r}"
    return ""


def check_optimum(squint, req, text):
    res = json.loads(text)["result"]
    d2, kappa, tol = OPTIMUM
    if not (res["converged"] and res["unimodal"]):
        return "optimizer not converged or profile not unimodal"
    if abs(res["delta2_opt"] - d2) > tol or abs(res["kappa_opt"] - kappa) > tol:
        return (f"optimum delta2={res['delta2_opt']!r}, kappa={res['kappa_opt']!r} "
                f"vs the published {d2}, {kappa}")
    return ""


def check_grid(squint, req, text):
    data = json.loads(text)
    if not data["passed"] or data["n_cases"] != 270:
        return f"grid: passed={data['passed']}, {data['n_cases']} cases"
    return ""


def check_engine(squint, req, stats):
    cfg_fields, phi = req["oracle"]
    ref = squint.evaluate(squint.InterferometerConfig(**cfg_fields), phi)
    for got, want, name in zip(_stats_row(stats), _stats_row(ref), SIGNAL_COLUMNS[1:]):
        if not abs(got - want) <= ORACLE_TOL:
            return f"{name}: Fock oracle {got!r} vs engine {want!r}"
    return ""


CHECKS = {
    "closed_form": check_closed_form, "table": check_table,
    "oracle_row": check_oracle_row, "root": check_root,
    "lossy_order": check_lossy_order, "sweep_root": check_sweep_root,
    "sweep_order": check_sweep_order, "optimum": check_optimum,
    "grid": check_grid, "engine": check_engine,
}


def check(squint, req, output) -> str:
    """Error message for one op's output, or "" when it matches its reference."""
    try:
        return CHECKS[req["check"]](squint, req, output)
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
