"""Phase-resolution estimators built on the product signal.

Two resolution criteria are implemented.  The standard one divides the
signal noise at the working point by the slope there,

    delta_phi = sigma(phi) / |dP/dphi|,

and the modified one asks for the phase step at which the signal moves by
the *average* of the noise at the two comparison points,

    2 |dP/dphi| delta_phi = sigma(phi) + sigma(phi + delta_phi),

which penalises the rapid noise growth away from the dark fringe and is the
honest figure when sigma varies strongly over one resolution step.  The
modified equation has one bracketed solver, Illinois regula falsi.  Both
criteria report diagnostics instead of raising, and neither marks a result
converged where the engine's roundoff swamps the dark-fringe noise.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import _check_choice, _check_finite
from .interferometer import InterferometerConfig, evaluate, signal_slope

__all__ = [
    "ResolutionResult",
    "SweepRow",
    "SweepTable",
    "OptimizeResult",
    "standard_resolution",
    "modified_resolution",
    "sweep",
    "SWEEP_PARAMETERS",
    "optimize_delta2",
    "refine_working_point",
    "small_angle_root",
]

SWEEP_PARAMETERS = (
    "G", "alpha1", "beta1", "alpha2", "beta2", "delta1", "delta2",
    "symmetric_alpha1", "symmetric_alpha2",
)

_EPS = float(np.finfo(float).eps)
# Largest eps (1 + N) / sigma0 of a converged result.  The ratio bounds the
# relative roundoff of the engine's noise at the working point (measured at
# up to 0.83 of it against a 60-digit reference); the ideal device passes up
# to G ~ 10.3.
_PRECISION_LIMIT = 1e-7
_X_RTOL = 1e-14  # relative width that closes the modified root's bracket


def _slope_floor(mean_photons: float) -> float:
    """Smallest slope distinguishable from roundoff.

    `signal_slope` combines four means with weights summing to 2.4; each is
    a covariance entry bounded by 2 (1 + N) and good to a few ulps of that.
    A tenfold margin on top separates real slopes from noise.
    """
    return 50.0 * _EPS * (1.0 + mean_photons)


@dataclass(frozen=True)
class ResolutionResult:
    """Outcome of one resolution computation.

    kappa is the photon-normalised resolution delta_phi * mean_N, the
    figure of merit that settles to a constant in the high-gain limit.
    mean_N is the mean photon number of the state reaching the detectors
    (phase independent, so quoted once per configuration).
    """

    delta_phi: float
    criterion: str
    working_point: float
    kappa: float
    iterations: int
    converged: bool
    mean_N: float
    message: str = ""


@dataclass(frozen=True)
class SweepRow:
    param: float
    G: float
    mean_N: float
    delta_phi: float
    kappa: float
    converged: bool


@dataclass(frozen=True)
class SweepTable:
    parameter: str
    criterion: str
    rows: tuple


@dataclass(frozen=True)
class OptimizeResult:
    """Best recombiner imbalance found for one device."""

    delta2: float
    kappa: float
    delta_phi: float
    mean_N: float
    converged: bool
    unimodal: bool
    profile: tuple  # (delta2, kappa) samples from the coarse scan
    message: str = ""


def _result(criterion, phi, d, n, iters, converged, message=""):
    return ResolutionResult(
        delta_phi=d, criterion=criterion, working_point=phi,
        kappa=d * n, iterations=iters, converged=converged,
        mean_N=n, message=message)


def _working_point(config: InterferometerConfig, phi: float, criterion: str):
    """(sigma0, |slope|, mean_N, None) at phi, or a non-converged result last.

    A vanishing slope (e.g. G = 0, or a working point on a fringe extremum)
    leaves the resolution unbounded; noise below the engine's roundoff
    leaves it unresolved.  Both are reported, not raised; a non-finite phi
    raises ValueError.
    """
    _check_finite("working point phi", phi)
    stats = evaluate(config, phi)
    slope = abs(signal_slope(config, phi))
    n, sigma0 = stats.mean_photons, stats.sigma
    if not slope > _slope_floor(n):
        return None, None, n, _result(criterion, phi, math.inf, n, 0, False,
                                      "signal slope vanishes at the working point")
    if _EPS * (1.0 + n) > _PRECISION_LIMIT * sigma0:
        return None, None, n, _result(
            criterion, phi, math.nan, n, 0, False,
            f"noise sigma0 = {sigma0:.3g} at N = {n:.3g} is below the engine's "
            f"roundoff: eps*(1+N)/sigma0 exceeds {_PRECISION_LIMIT:g}")
    return sigma0, slope, n, None


def standard_resolution(config: InterferometerConfig,
                        phi: float = np.pi / 2) -> ResolutionResult:
    """Noise-over-slope resolution sigma(phi) / |slope| at the working point."""
    sigma0, slope, n, failed = _working_point(config, phi, "standard")
    if failed:
        return failed
    return _result("standard", phi, sigma0 / slope, n, 1, True)


def modified_resolution(config: InterferometerConfig,
                        phi: float = np.pi / 2) -> ResolutionResult:
    """Solve 2 |slope| d = sigma(phi) + sigma(phi + d) for d in (0, pi/2].

    In the scaled offset x = d |slope| the criterion is g(x) = 0 with
    g(x) = 2 x - sigma0 - sigma(phi + x / |slope|), and g(0) = -2 sigma0.
    The bracket [0, 2 sigma0] doubles until g > 0 at its top, capped at
    d = pi/2, and then closes to a relative width of 1e-14 by Illinois
    regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)).  Every d is the
    offset the engine receives, (phi + d) - phi, so rounding the phase
    cannot move the root, and the bracket is also closed once no phase lies
    strictly inside it.  `iterations` counts the evaluations of g.
    """
    sigma0, slope, n, failed = _working_point(config, phi, "modified")
    if failed:
        return failed

    def offset(d):
        return (phi + d) - phi

    def excess(d):
        return 2.0 * slope * d - sigma0 - evaluate(config, phi + d).sigma

    lo, g_lo, step = 0.0, -2.0 * sigma0, 2.0 * sigma0 / slope
    iters = 0
    while True:
        hi = offset(min(step, math.pi / 2))
        g_hi = excess(hi)
        iters += 1
        if g_hi > 0.0:
            break
        if step >= math.pi / 2:
            return _result("modified", phi, math.inf, n, iters, False,
                           "no root of the modified criterion in (0, pi/2]")
        lo, g_lo, step = hi, g_hi, 2.0 * step

    side = 0  # end moved by the last step: +1 top, -1 bottom
    while hi - lo > _X_RTOL * hi:
        d = offset((lo * g_hi - hi * g_lo) / (g_hi - g_lo))
        if not lo < d < hi:
            # the step rounds onto an end, so the root lies within rounding
            # of it: step one tolerance, and at least one phase, inward
            nudge = max(_X_RTOL * hi, math.ulp(phi + hi))
            d = offset(lo + nudge if d <= lo else hi - nudge)
            if not lo < d < hi:
                break
        g = excess(d)
        iters += 1
        if g > 0.0:
            hi, g_hi = d, g
            if side > 0:
                g_lo *= 0.5
            side = 1
        elif g < 0.0:
            lo, g_lo = d, g
            if side < 0:
                g_hi *= 0.5
            side = -1
        else:
            lo = hi = d
    return _result("modified", phi, 0.5 * (lo + hi), n, iters, True)


_CRITERIA = {"standard": standard_resolution, "modified": modified_resolution}


def _apply_parameter(config: InterferometerConfig, parameter: str,
                     value: float) -> InterferometerConfig:
    if parameter == "symmetric_alpha1":
        return dataclasses.replace(config, alpha1=value, beta1=value)
    if parameter == "symmetric_alpha2":
        return dataclasses.replace(config, alpha2=value, beta2=value)
    return dataclasses.replace(config, **{parameter: value})


def sweep(config: InterferometerConfig, parameter: str, grid,
          criterion: str = "modified", phi: float = np.pi / 2) -> SweepTable:
    """Resolution along a one-parameter family of configurations.

    `parameter` names a config field, or one of the symmetric shorthands
    symmetric_alpha1 / symmetric_alpha2 that set both modes' loss at a
    station together.  Non-convergence on a row is recorded in that row and
    the sweep keeps going.
    """
    _check_choice("sweep parameter", parameter, SWEEP_PARAMETERS)
    _check_choice("criterion", criterion, _CRITERIA)
    if np.ndim(grid) != 1 or len(grid) < 1:
        raise ValueError("grid must be a one-dimensional sequence of values")
    for value in grid:
        _check_finite("grid value", value)
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid values must be strictly increasing")
    solver = _CRITERIA[criterion]
    rows = []
    for value in grid:
        cfg = _apply_parameter(config, parameter, float(value))
        res = solver(cfg, phi=phi)
        rows.append(SweepRow(
            param=float(value), G=cfg.G, mean_N=res.mean_N,
            delta_phi=res.delta_phi, kappa=res.kappa, converged=res.converged))
    return SweepTable(parameter=parameter, criterion=criterion, rows=tuple(rows))


def _golden_min(f, lo: float, hi: float, tol: float):
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def optimize_delta2(config: InterferometerConfig, criterion: str = "modified",
                    phi: float = np.pi / 2) -> OptimizeResult:
    """Recombiner imbalance minimising kappa for the device `config`.

    `config.delta2` is the variable being optimised, so its given value is
    ignored; every other field holds.  A coarse 33-point scan over delta2 in [-0.78, 0.78] locates the basin
    (and checks that the sampled profile has a single interior minimum);
    golden-section search then refines delta2 to 1e-6.  A multi-basin profile is reported
    with unimodal=False and the scan samples attached, refining the deepest
    basin found.
    """
    _check_choice("criterion", criterion, _CRITERIA)
    solver = _CRITERIA[criterion]
    cache = {}

    def kappa_at(d2):
        if d2 not in cache:
            cache[d2] = solver(dataclasses.replace(config, delta2=d2), phi=phi)
        return cache[d2]

    xs = np.linspace(-0.78, 0.78, 33)
    raw = [kappa_at(float(x)) for x in xs]
    profile = tuple((float(x), r.kappa) for x, r in zip(xs, raw))
    # Non-converged scan points (the splitter degenerates toward |delta2| =
    # pi/4) rank as infinitely bad but do not abort the scan.
    ks = [r.kappa if r.converged and math.isfinite(r.kappa) else math.inf
          for r in raw]
    if not any(map(math.isfinite, ks)):
        return OptimizeResult(
            delta2=math.nan, kappa=math.nan, delta_phi=math.nan,
            mean_N=math.nan, converged=False, unimodal=False, profile=profile,
            message="resolution solver failed at every scan point")

    minima = [i for i in range(1, len(xs) - 1)
              if ks[i] < ks[i - 1] and ks[i] < ks[i + 1]]
    unimodal = len(minima) == 1 and ks[0] > ks[minima[0]] and ks[-1] > ks[minima[0]]
    i = int(np.argmin(ks))
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, len(xs) - 1)])
    best_d2, _ = _golden_min(lambda x: kappa_at(x).kappa, lo, hi, 1e-6)
    res = kappa_at(best_d2)
    message = "" if unimodal else "scanned profile is not unimodal; refined the deepest basin"
    return OptimizeResult(
        delta2=best_d2, kappa=res.kappa, delta_phi=res.delta_phi,
        mean_N=res.mean_N, converged=res.converged, unimodal=unimodal,
        profile=profile, message=message)


def refine_working_point(config: InterferometerConfig,
                         phi: float = np.pi / 2) -> float:
    """Locate the noise minimum of sigma(phi) near the nominal working point.

    The default working point pi/2 sits exactly on the dark-fringe noise
    minimum for the ideal device; imperfections shift the minimum slightly,
    and this golden-section refinement over [phi - 0.35, phi + 0.35], to
    1e-9, finds it.  Returns the refined phase; a non-finite phi raises
    ValueError.
    """
    _check_finite("working point phi", phi)
    best, _ = _golden_min(lambda p: evaluate(config, p).sigma,
                          phi - 0.35, phi + 0.35, 1e-9)
    return best


def small_angle_root() -> float:
    """Scaled high-gain limit of the modified resolution for the ideal device.

    At the dark fringe the noise is sigma(pi/2) = 1 and grows as
    sigma(pi/2 + delta)^2 = 1 + 3 delta^2 (N^2 + 2N) to leading order, while
    the slope magnitude is sqrt(N^2 + 2N).  Writing the modified criterion
    in the scaled variable d = delta_phi * sqrt(N^2 + 2N),

        2 d = 1 + sqrt(1 + 3 d^2)   =>   d^2 - 4 d = 0,

    whose nonzero root is exactly 4: the modified resolution costs a factor
    of four over 1/sqrt(N^2 + 2N), independent of gain.
    """
    return 4.0
