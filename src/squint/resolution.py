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

Both criteria run as one coroutine per phase model, `_resolve`: given
sigma0, N and the slope at the working point it makes its checks, and then
yields each phase whose sigma the root needs.  No solver reads a config:
a single resolve builds its device's model, reads sigma0 and the slope
with one jet, and serves the coroutine one scalar moment read per step.  A
sweep builds no device: `_models` builds every row's model with the same
chain on arrays, lossless and lossy rows in one stack, and the rows'
coroutines run in lockstep, with one batched jet at the working point,
then one batched moment read per round of every unfinished row's phase,
since one batched read of 60 (model, phase) pairs costs about what 12
scalar reads do (25 us against 123 us for 60).  Each row equals the
device's own solve bit for bit.  A 60-row G sweep takes about 0.92 ms,
against 3.3 ms with each row's device built and solved on its own (2-core
VM, in-process, best of 15 rounds).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import _check_choice, _check_finite
from .interferometer import (  # noqa: F401  perfbench's tracer patches evaluate here
    _FIELD_CHECKS,
    InterferometerConfig,
    _batched_jet,
    _batched_moments,
    _jet,
    _models,
    _moments,
    evaluate,
)

__all__ = [
    "ResolutionResult",
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
# Safety factor on eps (1 + N) / sigma0 in a result's error_bound.  On the
# ideal device, for G in [0.5, 10.3], kappa errs against its closed-form root
# by at most 1.1 times that ratio, beyond the modified root's bracket.
_ROUNDOFF_SAFETY = 10.0
# N's share of kappa's relative error: nine roundings in `_photons` and one in
# kappa = delta_phi * N, each at most eps / 2.
_PHOTON_ROUNDOFF = 10 * _EPS / 2
_X_RTOL = 1e-14  # relative width that closes the modified root's bracket
# Model reads before any solve: one jet at the working point, for sigma0 and the slope.
_PROBE_EVALUATIONS = 1
# refine_working_point searches phi +/- _REFINE_HALF_WIDTH to _REFINE_TOL.
_REFINE_HALF_WIDTH = 0.35
_REFINE_TOL = 1e-9


def _slope_floor(mean_photons: float) -> float:
    """Smallest slope distinguishable from roundoff.

    The slope, `_jet`'s and so `signal_slope`'s, is the sum of two Gram
    entries, r0' . r1 + r0 . r1', each a k-term dot product of the phase
    model's rows, whose squared norms are quadrature variances bounded
    through 2 (1 + N); each is good to a few ulps of that.  Against a
    50-digit slope of the same element entries it erred by at most
    1.8 eps (1 + N) over 400 edge devices at three phases each, and by 6.6
    once the rounding of the entries themselves is counted: a margin of over
    seven.  Those figures were measured on the sum of the two vector dots
    r0' . r1 and r0 . r1'; the jet's Gram gives that sum's bits on every
    device tried, edges included, so they apply to the jet's slope.
    """
    return 50.0 * _EPS * (1.0 + mean_photons)


@dataclass(frozen=True)
class ResolutionResult:
    """Outcome of one resolution computation.

    kappa is the photon-normalised resolution delta_phi * mean_N, the
    figure of merit that settles to a constant in the high-gain limit; where
    delta_phi is inf or nan, a refusal, kappa is delta_phi.
    mean_N is the mean photon number of the state reaching the detectors
    (phase independent, so quoted once per configuration).

    evaluations counts the phase-model reads the solve used: one at the
    working point (a jet, for sigma0 and the slope), then one per iteration
    of the modified criterion.  error_bound bounds the relative error of
    delta_phi and kappa: ten times the engine's roundoff ratio
    eps (1 + N) / sigma0 at the working point, plus 5 eps for N, which
    kappa = delta_phi * N multiplies in (N's closed form rounds at most nine
    times and the product once, each by at most eps / 2), plus, for the
    modified criterion, half the 1e-14 relative width that closes its
    bracket.  The tenfold margin is over the worst ratio measured on the
    ideal device against the closed-form roots, for G in [0.5, 10.3] under
    both criteria; the standard kappa stays within the bound down to
    G = 0.05.  Below that the slope's own roundoff, which the bound does
    not count, can exceed it.  The bound is computed for every result but
    only holds for a converged one.
    """

    delta_phi: float
    criterion: str
    working_point: float
    kappa: float
    iterations: int
    converged: bool
    mean_N: float
    message: str = ""
    evaluations: int = 0
    error_bound: float = math.nan


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


def _result(criterion, phi, d, n, iters, converged, evaluations, bound, message=""):
    # inf * N would read nan where N underflows to 0.0
    return ResolutionResult(
        delta_phi=d, criterion=criterion, working_point=phi,
        kappa=d * n if math.isfinite(d) else d, iterations=iters, converged=converged,
        mean_N=n, message=message, evaluations=evaluations, error_bound=bound)


def _resolve(phi: float, criterion: str, sigma0: float, n: float, slope: float):
    """Coroutine of one solve at a checked working point phi, from a phase
    model's three reads there: sigma0, the photon number N and the slope.
    It yields each phase whose sigma it needs, is sent that sigma, and
    returns the `ResolutionResult`.

    A vanishing slope (e.g. G = 0, or a working point on a fringe extremum)
    leaves the resolution unbounded; noise below the engine's roundoff
    leaves it unresolved.  Both are reported, not raised, before any phase
    is asked for, as is the standard criterion's sigma0 / |slope|; the
    modified criterion then runs the Illinois loop `modified_resolution`
    describes.  sigma0 and the slope come from one jet, scalar or batched;
    the root's steps read sigma from the moment kernel, whose Gram may sum
    in another order, so sigma0 can differ from the moment kernel's sigma
    at phi in its last bits (at most 60 ulp, as a test derives).
    """
    slope = abs(slope)
    bound = _ROUNDOFF_SAFETY * _EPS * (1.0 + n) / sigma0 + _PHOTON_ROUNDOFF if sigma0 else math.inf
    if not slope > _slope_floor(n):
        return _result(criterion, phi, math.inf, n, 0, False, _PROBE_EVALUATIONS, bound,
                       "signal slope vanishes at the working point")
    if _EPS * (1.0 + n) > _PRECISION_LIMIT * sigma0:
        return _result(criterion, phi, math.nan, n, 0, False, _PROBE_EVALUATIONS, bound,
                       f"noise sigma0 = {sigma0:.3g} at N = {n:.3g} is below the engine's "
                       f"roundoff: eps*(1+N)/sigma0 exceeds {_PRECISION_LIMIT:g}")
    if criterion == "standard":
        return _result("standard", phi, sigma0 / slope, n, 1, True,
                       _PROBE_EVALUATIONS, bound)
    bound += 0.5 * _X_RTOL

    def offset(d):
        return (phi + d) - phi

    lo, g_lo, step = 0.0, -2.0 * sigma0, 2.0 * sigma0 / slope
    iters = 0
    while True:
        hi = offset(min(step, math.pi / 2))
        sigma = yield phi + hi
        g_hi = 2.0 * slope * hi - sigma0 - sigma
        iters += 1
        if g_hi > 0.0:
            break
        if step >= math.pi / 2:
            return _result("modified", phi, math.inf, n, iters, False,
                           _PROBE_EVALUATIONS + iters, bound,
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
        sigma = yield phi + d
        g = 2.0 * slope * d - sigma0 - sigma
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
    return _result("modified", phi, 0.5 * (lo + hi), n, iters, True,
                   _PROBE_EVALUATIONS + iters, bound)


def _solve(model: tuple, phi: float, criterion: str) -> ResolutionResult:
    """The result of one phase model, (rows, photons): one `_jet` read at
    the working point for sigma0 and the slope, then one `_moments` read per
    phase the coroutine asks for; phi is checked and every step finite, so
    no read checks its phase.  A non-finite phi raises ValueError."""
    _check_finite("working point phi", phi)
    rows, photons = model
    sigma0, slope = _jet(rows, phi)[:2]
    solve = _resolve(phi, criterion, sigma0, photons, slope)
    try:
        phase = next(solve)
        while True:
            phase = solve.send(_moments(rows, phase)[2])
    except StopIteration as done:
        return done.value


def standard_resolution(config: InterferometerConfig,
                        phi: float = np.pi / 2) -> ResolutionResult:
    """Noise-over-slope resolution sigma(phi) / |slope| at the working point."""
    return _solve(config._model, phi, "standard")


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

    The working point is the noise minimum and the step goes to one side of
    it, as the paper's 4/<N> and 2.76/<N> assume; no solver moves phi.  Off
    the minimum kappa falls with no better device: the ideal fringe at the
    interval's centre gives 2N/sqrt(N^2 + 2N), about 2.
    """
    return _solve(config._model, phi, "modified")


def _lockstep(stack: np.ndarray, photons: np.ndarray, phi: float, criterion: str) -> tuple:
    """Every model's result at phi, equal to `_solve`'s bit for bit, from
    `_models`' stack of rows and photon numbers, with the reads batched: one
    `_batched_jet` call at the working point for every row's sigma0 and
    slope, then one `_batched_moments` call per round for the phase each
    unfinished coroutine asks for.  Results come back in the models'
    order.  A non-finite phi raises ValueError."""
    _check_finite("working point phi", phi)
    n = len(stack)
    sigma0, slope = _batched_jet(stack, phi)
    solves = [_resolve(phi, criterion, *reads) for reads in zip(
        sigma0.tolist(), photons.tolist(), slope.tolist())]
    results, live, sigmas = [None] * n, range(n), [None] * n
    while True:
        asked, phases = [], []
        for j, sigma in zip(live, sigmas):
            try:
                phases.append(solves[j].send(sigma))
                asked.append(j)
            except StopIteration as done:
                results[j] = done.value
        if not asked:
            return tuple(results)
        live, sigmas = asked, _batched_moments(stack[asked], phases)[2].tolist()


_CRITERIA = {"standard": standard_resolution, "modified": modified_resolution}


# The device fields a symmetric sweep parameter sets; any other sets its own.
_SYMMETRIC = {"symmetric_alpha1": ("alpha1", "beta1"), "symmetric_alpha2": ("alpha2", "beta2")}


def _apply_parameter(config: InterferometerConfig, parameter: str,
                     value: float) -> InterferometerConfig:
    """The device of `config` with the sweep parameter set to value."""
    fields = _SYMMETRIC.get(parameter, (parameter,))
    return dataclasses.replace(config, **dict.fromkeys(fields, value))


def sweep(config: InterferometerConfig, parameter: str, grid,
          criterion: str = "modified", phi: float = np.pi / 2) -> tuple:
    """Resolution along a one-parameter family of configurations.

    `parameter` names a config field, or one of the symmetric shorthands
    symmetric_alpha1 / symmetric_alpha2 that set both modes' loss at a
    station together.  Returns, for each grid value in order, the
    `ResolutionResult` the criterion's solver gives on that row's device,
    equal to it bit for bit (a field of another float type, np.float32 say,
    enters as its float64 value); a non-converged row keeps the solver's
    message and the sweep keeps going.  Each grid value is checked, by the
    swept field's own check, before any model is built; a bad one raises the
    ValueError its row's device would.  No row builds a device: `_models`
    builds every row's phase model in one stack, by the chain a lone device
    runs, and the rows solve in lockstep, their reads batched across the
    rows' models, one call per round.
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
    values, fields = grid.tolist(), _SYMMETRIC.get(parameter, (parameter,))
    for value in values:
        _FIELD_CHECKS[fields[0]](value)
    columns = {name: values if name in fields else [getattr(config, name)] * len(values)
               for name in _FIELD_CHECKS}
    return _lockstep(*_models(**columns), phi, criterion)


def _brent_min(f, lo: float, hi: float, tol: float):
    """Minimum of a unimodal f on [lo, hi] by Brent's method, as (x, f(x)).

    Each step fits a parabola through the three best points found so far
    and moves to its vertex; a golden-section step replaces any parabola
    that would leave the bracket or shrink it too slowly (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5).  No two
    evaluations lie closer than tol1 = 2 eps |x| + tol / 3, and the search
    stops once the best point x is within 2 tol1 of both ends of the
    bracket.  So tol is the final uncertainty in x, as the final bracket
    width is for golden section: the bracketed minimum lies within
    2 tol / 3 + 4 eps |x| of x.  At a flat minimum f's roundoff limits the
    location further, whatever the tolerance.
    """
    c = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    x = w = v = a + c * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = 2.0 * _EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            # accept the vertex only inside the bracket and only if the step
            # is under half the step before last, so the bracket must shrink
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
        if not parabolic:
            e = (b if x < m else a) - x
            d = c * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def optimize_delta2(config: InterferometerConfig, criterion: str = "modified",
                    phi: float = np.pi / 2) -> OptimizeResult:
    """Recombiner imbalance minimising kappa for the device `config`.

    `config.delta2` is the variable being optimised, so its given value is
    ignored; every other field holds.  A coarse 33-point sweep of delta2 over
    [-0.78, 0.78] locates the basin (and checks that the sampled profile has
    a single interior minimum); its rows build their models in one batched
    chain and solve in lockstep, as `sweep`'s do.  Brent's method then
    refines delta2 between the neighbours of the best scan point to a
    tolerance of 1e-6, the final uncertainty in delta2, one lone solve per
    step.  At G = 5 the whole search takes about 1.4 ms, against 2.0 ms with
    a device built for each scan row (2-core VM, in-process, best of 15
    rounds).  The minimum of kappa is flat, so its location is
    limited by kappa's roundoff as well: at G = 3 with alpha2 = 0.1,
    golden-section search to the same tolerance lands 2.2e-7 away, at a
    kappa equal within 6e-15 relative.  A multi-basin profile is reported
    with unimodal=False and the scan samples attached, refining the deepest
    basin found.
    """
    xs = np.linspace(-0.78, 0.78, 33)
    raw = sweep(config, "delta2", xs, criterion=criterion, phi=phi)
    solver = _CRITERIA[criterion]
    cache = {}

    def kappa_at(d2):
        if d2 not in cache:
            cache[d2] = solver(_apply_parameter(config, "delta2", d2), phi=phi)
        return cache[d2]

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
    best_d2, _ = _brent_min(lambda x: kappa_at(x).kappa, lo, hi, 1e-6)
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
    minimum for the ideal device; imperfections shift the minimum (to
    pi/2 - xi/3 for the ideal device with pump phase xi).  The search is a
    safeguarded Newton iteration on f' = d sigma^2 / dphi over the bracket
    [phi - 0.35, phi + 0.35], each read one `_jet`, which gives f' and f''
    in closed form from the model's rows.  Each read moves an end of the
    bracket to it by the sign of f'.  The next point is the Newton step
    -f'/f'' when f'' > 0 and it stays inside the bracket, and the bracket's
    midpoint otherwise; where f'' <= 0 the step counts as running past the
    bracket downhill.  A step past an end of the original bracket reads the
    jet at that end instead, and if f' keeps its sign there the minimum lies
    beyond it and that end comes back exactly, so the CLI's edge note fires.
    The search stops once a step is at most 1e-9, the final uncertainty in
    phase, and returns the point it steps to; it also stops after a Newton
    step once the next one, about step^3 / last^2 as Newton's steps shrink
    quadratically, could not move that point by half an ulp.

    On 100 seeded lossy, pumped, imbalanced devices this takes 3.8 reads on
    average and 5 at most, where Brent's method on sigma took 14.8, and ends
    where f' is zero within a few eps (1 + N)^2, its roundoff.  On the ideal
    and arm-loss-only devices it lands within 1e-13 of pi/2, where sigma's
    flat minimum left Brent up to 6e-7 away.  Returns the refined phase; a
    non-finite phi raises ValueError.
    """
    _check_finite("working point phi", phi)
    rows = config._model[0]
    lo, hi = phi - _REFINE_HALF_WIDTH, phi + _REFINE_HALF_WIDTH
    # the unread ends of the bracket, each with the sign f' keeps there when
    # the minimum lies beyond it; last is the previous Newton step, 0 if none
    ends, x, last = {lo: 1.0, hi: -1.0}, phi, 0.0
    while True:
        d1, d2 = _jet(rows, x)[2:]
        if d1 == 0.0 or d1 * ends.pop(x, 0.0) > 0.0:
            return x
        if d1 > 0.0:
            hi = x
        else:
            lo = x
        # the Newton step, or past the bracket downhill where f'' <= 0
        step = -d1 / d2 if d2 > 0.0 else -math.copysign(math.inf, d1)
        if abs(step) <= _REFINE_TOL:
            return x + step
        nxt = x + step
        if lo < nxt < hi:
            # Newton steps shrink quadratically, the next about step^3 / last^2:
            # once that cannot move nxt, a further read would only confirm it
            if abs(step) ** 3 <= 0.5 * math.ulp(nxt) * last * last:
                return nxt
            last = abs(step)
        else:
            end = lo if nxt <= lo else hi
            nxt, last = end if end in ends else 0.5 * (lo + hi), 0.0
            if abs(nxt - x) <= _REFINE_TOL:
                return nxt
        x = nxt


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
