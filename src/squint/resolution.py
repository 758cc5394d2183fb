"""Phase-resolution estimators built on the product signal.

Two resolution criteria are implemented.  The standard one divides the
signal noise at the working point by the slope there,

    delta_phi = sigma(phi) / |dP/dphi|,

and the modified one asks for the phase step at which the signal moves by
the *average* of the noise at the two comparison points,

    2 |dP/dphi| delta_phi = sigma(phi) + sigma(phi + delta_phi),

which penalises the rapid noise growth away from the dark fringe and is the
honest figure when sigma varies strongly over one resolution step.  One
bracketed root solver, the Illinois regula falsi of `_illinois`, closes
both the modified equation's root and `optimize_delta2`'s zero of the
exact dkappa/ddelta2.  Both criteria report diagnostics instead of
raising, and neither marks a result converged where the engine's roundoff
swamps the dark-fringe noise, or where the phase's float spacing leaves the
modified root's bracket wider than the precision limit.

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

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import _check_choice, _check_finite, _quarter_turn
from .interferometer import (  # noqa: F401  perfbench's tracer patches evaluate here
    _FIELD_CHECKS,
    InterferometerConfig,
    _batched_jet,
    _batched_moments,
    _chain,
    _field_jet,
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
_X_RTOL = 1e-14  # relative width that closes a bracket of `_illinois`
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
    modified criterion, the closed bracket's half-width relative to its
    midpoint, at least half the 1e-14 relative width that closes it.  The
    tenfold margin is over the worst ratio measured on the
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
    modified criterion then doubles its bracket and closes it with
    `_illinois`, as `modified_resolution` describes, and refuses a closed
    bracket wider than the precision limit.  sigma0 and the slope come
    from one jet, scalar or batched; the root's steps read sigma from the
    moment kernel, whose Gram may sum in another order, so sigma0 can
    differ from the moment kernel's sigma at phi in its last bits (at most
    60 ulp, as a test derives).
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
    lo, g_lo, step = 0.0, -2.0 * sigma0, 2.0 * sigma0 / slope
    iters = 0
    while True:
        hi = (phi + min(step, math.pi / 2)) - phi
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
    lo, hi, steps = yield from _illinois(phi, lo, g_lo, hi, g_hi, 2.0 * slope, sigma0)
    iters += steps
    # the closed bracket's half-width relative to its midpoint, in place of
    # half the closing width where the phase's float spacing kept it wider
    width = (hi - lo) / (hi + lo)
    bound += max(0.0, width - 0.5 * _X_RTOL)
    if width > _PRECISION_LIMIT:
        return _result("modified", phi, 0.5 * (lo + hi), n, iters, False,
                       _PROBE_EVALUATIONS + iters, bound,
                       f"root bracket [{lo:.3g}, {hi:.3g}] is {width:.3g} of its midpoint "
                       f"wide, beyond {_PRECISION_LIMIT:g}: the float spacing at phi = "
                       f"{phi!r} is {math.ulp(phi):.3g}")
    return _result("modified", phi, 0.5 * (lo + hi), n, iters, True,
                   _PROBE_EVALUATIONS + iters, bound)


def _illinois(origin: float, lo: float, g_lo: float, hi: float, g_hi: float,
              a: float, b: float):
    """Coroutine closing a bracket 0 <= lo < hi of a root of
    g(x) = a x - b - read(x), g_lo < 0 < g_hi, where the read meets the line
    a x - b, by Illinois regula falsi (Dowell & Jarratt, BIT 11, 168
    (1971)): the one root solver of the modified criterion's step, whose
    read is sigma at the step, and of `optimize_delta2`, whose line is zero.

    Each x is an offset from origin, taken as (origin + x) - origin, the
    offset its point origin + x represents, so rounding the point cannot
    move the root: the working point for the modified criterion's step d,
    and -pi/4 for B2's angle pi/4 + delta2.  The coroutine yields each
    point origin + x and is sent the read there; a g of zero closes the
    bracket on x.  A step that rounds onto an end moves one tolerance, and
    at least one point, inward.  The loop stops once the bracket is at most
    _X_RTOL of hi wide, or no point lies strictly inside it, and returns
    (lo, hi, steps).
    """
    side = steps = 0  # side: the end moved by the last step, +1 top, -1 bottom
    while hi - lo > _X_RTOL * hi:
        x = (origin + (lo * g_hi - hi * g_lo) / (g_hi - g_lo)) - origin
        if not lo < x < hi:
            # the step rounds onto an end, so the root lies within rounding
            # of it: step one tolerance, and at least one point, inward
            nudge = max(_X_RTOL * hi, math.ulp(origin + hi))
            x = (origin + (lo + nudge if x <= lo else hi - nudge)) - origin
            if not lo < x < hi:
                break
        g = a * x - b - (yield origin + x)
        steps += 1
        if g > 0.0:
            hi, g_hi = x, g
            if side > 0:
                g_lo *= 0.5
            side = 1
        elif g < 0.0:
            lo, g_lo = x, g
            if side < 0:
                g_hi *= 0.5
            side = -1
        else:
            lo = hi = x
    return lo, hi, steps


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
    strictly inside it.  The loop is `_illinois`, which `optimize_delta2`
    shares.  `iterations` counts the evaluations of g.  error_bound counts
    the closed bracket's half-width relative to its midpoint where that
    exceeds half of 1e-14, and the result is refused where it exceeds the
    precision limit 1e-7: at phi = 2^52 the float spacing is 1, every offset
    a whole number, and the bracket closes at [1, 2].

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


def optimize_delta2(config: InterferometerConfig, criterion: str = "modified",
                    phi: float = np.pi / 2) -> OptimizeResult:
    """Recombiner imbalance minimising kappa for the device `config`.

    `config.delta2` is the variable being optimised, so its given value is
    ignored; every other field holds.  A coarse 33-point sweep of delta2 over
    [-0.78, 0.78] locates the basin (and checks that the sampled profile has
    a single interior minimum); its rows build their models in one batched
    chain and solve in lockstep, as `sweep`'s do.  The search then closes
    on the zero of the exact dkappa/ddelta2 with `_illinois`, the loop that
    closes the modified criterion's root, between the best scan row and its
    neighbour on the side where that derivative says kappa falls; both ends
    are scan rows, whose results equal lone solves bit for bit, and each
    step is one lone solve.  The loop runs on B2's angle pi/4 + delta2, in
    (0, pi/2), and closes to its relative width of 1e-14, or until no float
    lies inside the bracket.

    The rows are linear in B2's (c2, s2), so `_chain` with (c2, s2) ->
    (-s2, c2) gives their derivative along delta2, and `_field_jet` sigma's
    and the slope's.  N does not depend on delta2.  The standard kappa
    falls at the rate dslope / slope - dsigma0 / sigma0, minus its
    log-derivative.  The modified root d of 2 |slope| d = sigma0 + sigma1,
    sigma1 at phi + d, moves with delta2 as dsigma0 + dsigma1 - 2 d d|slope|
    does, since g rises through its bracketed root; divided by
    sigma0 + sigma1 = 2 |slope| d, kappa falls as
    dslope / slope - (dsigma0 + dsigma1) / (sigma0 + sigma1).  The search
    closes where the fall meets the line zero.  Each step takes the
    device's entries, read once per call, and swaps only B2's pair.

    The result is the lowest-kappa converged read, from the best scan row
    on, ties going to the later read, so it is never worse than that row,
    and it equals the lone solve of its delta2's device bit for bit.  A
    refused read ranks as infinitely bad: it moves the end of the bracket on
    its side of the best read, as if kappa rose toward it at the best row's
    rate, so the search closes on the edge of a refused region where kappa
    falls into one.  The best row is the result where the derivative points
    off the scan's end, or keeps its sign at the neighbour.  kappa's minimum
    is flat to its roundoff, which a search on kappa cannot see past: for
    the ideal device at G = 8 and 10, the high-gain optimum delta2* =
    asin((3 - sqrt 33) / 6) / 2 is found within 1.4e-10 and 8.6e-9, where
    Brent's method on kappa stopped 7.8e-7 and 2.2e-5 away.  At G = 3, 5, 8
    and 10 the search takes 6, 6, 6 and 5 lone solves after the scan, where
    Brent took 8, 8, 18 and 13; at G = 5 it takes about 1.7 ms in all, 3%
    more than Brent's (2-core VM, in-process, best of 15 rounds, six
    alternating runs).  A multi-basin profile is reported with unimodal=False
    and the scan samples attached, refining the deepest basin found.
    """
    xs = np.linspace(-0.78, 0.78, 33).tolist()
    raw = sweep(config, "delta2", xs, criterion=criterion, phi=phi)
    profile = tuple((x, r.kappa) for x, r in zip(xs, raw))
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
    *head, _, _ = config._entries()

    def read(step, res=None):
        """The result at delta2 = step, solved unless given, and kappa's
        fall there as above, -dkappa/ddelta2 times a positive factor; at a
        refused result, the best row's rate, falling toward the best read."""
        c2, s2 = _quarter_turn(step)
        rows, n = _chain(*head, c2, s2)
        rows = rows.reshape(3, -1)
        if res is None:
            res = _solve((rows, n), phi, criterion)
        if not res.converged:
            return res, math.copysign(rate, x - step)
        drows = _chain(*head, -s2, c2)[0].reshape(3, -1)
        sigma, slope, dsigma, dslope = _field_jet(rows, drows, phi)
        if criterion == "modified":
            sigma1, _, dsigma1, _ = _field_jet(rows, drows, phi + res.delta_phi)
            sigma, dsigma = sigma + sigma1, dsigma + dsigma1
        return res, dslope / slope - dsigma / sigma

    i = int(np.argmin(ks))
    x, best = xs[i], raw[i]
    fall = read(x, best)[1]
    rate, j = abs(fall), i + 1 if fall > 0.0 else i - 1
    if fall and 0 <= j < len(xs):
        (lo, f_lo), (hi, f_hi) = sorted(((x, fall), (xs[j], read(xs[j], raw[j])[1])))
        if f_lo > 0.0 > f_hi:
            # the fall meets the line zero; on B2's angle pi/4 + delta2, in
            # (0, pi/2), so the bracket's relative width does not shrink
            # toward an optimum at delta2 = 0
            search = _illinois(-math.pi / 4, lo + math.pi / 4, -f_lo, hi + math.pi / 4, -f_hi,
                               0.0, 0.0)
            try:
                step = next(search)
                while True:
                    res, fall = read(step)
                    # ties go to the later read, nearer the root
                    if res.converged and res.kappa <= best.kappa:
                        x, best = step, res
                    step = search.send(fall)
            except StopIteration:
                pass
    message = "" if unimodal else "scanned profile is not unimodal; refined the deepest basin"
    return OptimizeResult(
        delta2=x, kappa=best.kappa, delta_phi=best.delta_phi,
        mean_N=best.mean_N, converged=best.converged, unimodal=unimodal,
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
    average and 5 at most, against 14.8 sigma reads for Brent's
    derivative-free minimiser (R. P. Brent, 1973), and ends where f' is
    zero within a few eps (1 + N)^2, its roundoff.  On the ideal and
    arm-loss-only devices it lands within 1e-13 of pi/2, where a search on
    sigma alone, blind below sigma's roundoff at the flat minimum, stopped
    up to 6e-7 away.  Returns the refined phase; a non-finite phi raises
    ValueError.
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
