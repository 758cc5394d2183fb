"""Test-side references: helpers that only the tests call.

The reference chain is the device as a 4x4 covariance, element by element,
with the library's input checks: the builders `vacuum_state`,
`two_mode_squeezer`, `phase_shifter` and `beam_splitter`, the steps
`apply_symplectic` and `apply_loss`, and the product statistics
`product_mean`, `product_second_moment`, `product_sigma` and
`mean_photon_number`, each read from a covariance.  The engine builds no
covariance; its one element chain, `interferometer._chain`, is held against
this one.

The symplectic form and the physicality test check the Gaussian layer's
invariants, the block embedding rebuilds each element's real 4x4 matrix
slice by slice, independently of the builders' literals, and the saturation
test reads the tail of a sweep for the acceptance gates.  Plain bisection
solves the modified criterion from the public `evaluate` and `signal_slope`
alone, independent of the library solver's bracket and end handling, and
golden-section search on kappa or sigma is the reference minimum that the
library's derivative searches, `optimize_delta2` and
`refine_working_point`, must reach.  `apply_parameter` builds the device of
a sweep row, the one a row's result must equal.
The four-point slope, a harmonic identity over four `evaluate` means, is the
reference for the analytic `signal_slope`, which shifts no phase.  The
reference loss applies the generic pair map of `loss_unitary` onto an
ancilla deep enough that no sector is cut, and then truncates it: the
oracle's binomial split must match it amplitude by amplitude, and the
reference seed builds the squeezed pair from its amplitude formula, which
`tmsv_fock` and a lossless preparation must equal bit for bit.
The two-pass product applies one quadrature after the other over the whole
tensor, the composition the oracle's slice-wise X_a X_b must equal bit for
bit.  The per-mode loss chain rebuilds the device's output covariance with `@`
products and one loss step per mode: each of the engine's loss steps must
equal it bit for bit, and the phase model must match its output to roundoff.
The reference model is the device's phase model as this file's builders, a
concatenating loss step and a slice-filled B2 operator first built it, with
the photon number read from its output covariance's trace: the engine's
unchecked builders must keep its rows bit for bit, and the engine's
closed-form photon number must match that trace to roundoff.  The decimal
photon number evaluates the same closed form at 60 digits from the device's
float fields, exactly converted, with stdlib `decimal` alone: the engine's
count must match it to a few eps relative at every gain.
The reference signal document is `squint signal` as the per-phase engine wrote
it, one `evaluate` per phase and one `fmt` per CSV cell: the batched scan and
its row-at-a-time CSV writer must equal it byte for byte.
"""
import dataclasses
import decimal
import json
import math
from decimal import Decimal

import numpy as np

from squint import fock
from squint import (BsSpec, FockState, ancilla_cutoff, apply_unitary_fock, evaluate,
                    loss_unitary, signal_slope, tail_cutoff)
from squint.cli import _json_num, fmt
from squint.gaussian import (_check_finite, _check_gain, _check_integer, _check_loss_angle,
                             _quarter_turn)
from squint.moments import _second_moment, _sigma
from squint.resolution import _SYMMETRIC

SIGNAL_COLUMNS = ("phi", "mean_P", "sqrt_second_moment", "sigma", "mean_N")


def vacuum_state() -> np.ndarray:
    """Vacuum covariance of the pair: the 4x4 identity."""
    return np.eye(4)


def two_mode_squeezer(G: float, xi: float = 0.0) -> np.ndarray:
    """Nondegenerate parametric amplifier acting on the pair.

    Implements the Bogoliubov pair a' = U a + V b^dag, b' = U b + V a^dag
    with U = cosh G and V = -i e^{i xi} sinh G, converted to the real
    quadrature representation.  On vacuum it produces sinh^2 G photons per
    mode.

    Args:
        G: dimensionless gain in [0, 177.17].
        xi: pump phase in radians.
    """
    _check_gain(G)
    _check_finite("pump phase xi", xi)
    c, s = np.cosh(G), np.sinh(G)
    re, im = s * math.sin(xi), -s * math.cos(xi)
    # Quadrature image of V = Re V + i Im V = s sin(xi) - i s cos(xi):
    #   x' = c x + Re(V) x_other + Im(V) p_other
    #   p' = c p - Re(V) p_other + Im(V) x_other
    return np.array((c, 0.0, re, im,
                     0.0, c, im, -re,
                     re, im, c, 0.0,
                     im, -re, 0.0, c)).reshape(4, 4)


def phase_shifter(phi: float) -> np.ndarray:
    """Phase shift a -> e^{i phi} a on mode 0: an (x, p) rotation."""
    _check_finite("phase phi", phi)
    # + 0.0 turns sin(-0.0) into the +0.0 that Im exp(1j * -0.0) carries
    c, s = math.cos(phi), math.sin(phi) + 0.0
    return np.array((c, -s, 0.0, 0.0,
                     s, c, 0.0, 0.0,
                     0.0, 0.0, 1.0, 0.0,
                     0.0, 0.0, 0.0, 1.0)).reshape(4, 4)


def beam_splitter(spec: BsSpec) -> np.ndarray:
    """Beam splitter on the pair: the real image of `spec.unitary()`, each
    complex entry z the block [[Re z, -Im z], [Im z, Re z]], written out
    entry by entry, signed zeros included (Re(-1j * s) is +0.0, -Im(c + 0j)
    is -0.0)."""
    c, s = _quarter_turn(spec.imbalance)
    if spec.variant == "B1":
        return np.array((c, -0.0, 0.0, s,
                         0.0, c, -s, 0.0,
                         0.0, s, c, -0.0,
                         -s, 0.0, 0.0, c)).reshape(4, 4)
    return np.array((-c, -0.0, 0.0, -s,
                     0.0, -c, s, 0.0,
                     0.0, s, c, -0.0,
                     -s, 0.0, 0.0, c)).reshape(4, 4)


def apply_symplectic(cov: np.ndarray, s: np.ndarray) -> np.ndarray:
    """cov -> S cov S^T."""
    if s.shape != cov.shape:
        raise ValueError(f"operation size {s.shape} does not match state size {cov.shape}")
    return s @ cov @ s.T


def apply_loss(cov: np.ndarray, mode: int, alpha: float) -> np.ndarray:
    """Pure loss of angle alpha on one mode (intensity transmission cos^2).

    The mode's own 2x2 covariance block contracts toward vacuum,
    cov_block -> cos^2(alpha) cov_block + sin^2(alpha) I, and every
    cross-correlation row/column scales by cos(alpha).

    Args:
        cov: input covariance.
        mode: target mode index.
        alpha: loss angle in [0, pi/2]; pi/2 replaces the mode by vacuum.
    """
    _check_loss_angle("loss angle", alpha)
    _check_integer("mode", mode, bound=cov.shape[0] // 2)
    c = np.cos(alpha)
    idx = [2 * mode, 2 * mode + 1]
    cov = cov.copy()
    cov[idx, :] *= c
    cov[:, idx] *= c
    cov[np.ix_(idx, idx)] += np.sin(alpha) ** 2 * np.eye(2)
    return cov


def product_mean(cov: np.ndarray) -> float:
    """Mean of the product signal; for zero-mean states this is the
    covariance <X_a X_b> of the two x quadratures, entry (0, 2)."""
    return cov.item(0, 2)


def product_second_moment(cov: np.ndarray) -> float:
    """Second moment <(X_a X_b)^2> by Isserlis factoring of the quartic."""
    return _second_moment(cov.item(0, 0), cov.item(0, 2), cov.item(2, 2))


def product_sigma(cov: np.ndarray) -> float:
    """Standard deviation of the product signal.

    The variance <P^2> - <P>^2 is mathematically non-negative; a value below
    -1e-12 (relative to the second moment's scale) signals a bug upstream and
    raises, while sub-roundoff negatives are clamped to zero.
    """
    return _sigma(product_mean(cov), product_second_moment(cov))


def mean_photon_number(cov: np.ndarray) -> float:
    """Total mean photon number of the pair, (trace(cov) - 4) / 4.

    Follows from <x^2> + <p^2> = 4<n> + 2 per mode in this scaling.  The
    diagonal is summed left to right, the order np.trace adds four entries in.
    The subtraction cancels to roundoff at small gain, so the engine takes
    its photon number from the closed form instead.
    """
    trace = cov.item(0, 0) + cov.item(1, 1) + cov.item(2, 2) + cov.item(3, 3)
    return (trace - 4.0) / 4.0


def symplectic_form() -> np.ndarray:
    """The pair's symplectic form Omega in the (x1, p1, x2, p2) ordering."""
    return np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def physicality_defect(cov: np.ndarray) -> float:
    """Most negative eigenvalue of cov + i Omega (0 for physical states).

    A covariance matrix is physical iff cov + i Omega >= 0; numerical noise
    keeps the smallest eigenvalue a hair below zero, so callers compare the
    returned value against -1e-10 rather than 0.
    """
    eigs = np.linalg.eigvalsh(cov + 1j * symplectic_form())
    return float(min(eigs.min(), 0.0))


def embed_blocks(blocks, modes):
    """Reference 4x4 matrix: blocks[a][b] is the 2x2 quadrature block from mode
    modes[b] into mode modes[a], written one slice at a time into the identity."""
    s = np.eye(4)
    for a, i in enumerate(modes):
        for b, j in enumerate(modes):
            s[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blocks[a][b]
    return s


def reference_passive(u, modes=(0, 1)):
    """Real symplectic matrix of the complex mode map u on `modes` (Heisenberg
    convention a_i -> sum_j u[i, j] a_j): each entry z becomes the block
    [[Re z, -Im z], [Im z, Re z]]."""
    return embed_blocks([[[[z.real, -z.imag], [z.imag, z.real]] for z in row] for row in u],
                        modes)


def lose_one_mode(f, mode, angle):
    """Reference loss step: one mode at a time, two noise columns per call."""
    if angle == 0.0:
        return f
    rows = slice(2 * mode, 2 * mode + 2)
    noise = np.zeros((4, 2))
    noise[rows] = math.sin(angle) * np.eye(2)
    f = np.hstack([f, noise])
    f[rows, :-2] *= math.cos(angle)
    return f


def reference_output_state(config, phi):
    """Output covariance of the device at phase phi from the element chain:
    each builder's matrix applied with `@`, each loss one mode at a time."""
    f = two_mode_squeezer(config.G, config.xi)
    f = lose_one_mode(lose_one_mode(f, 0, config.alpha1), 1, config.beta1)
    f = beam_splitter(BsSpec("B1", config.delta1)) @ f
    f = phase_shifter(phi) @ f
    f = lose_one_mode(lose_one_mode(f, 0, config.alpha2), 1, config.beta2)
    f = beam_splitter(BsSpec("B2", config.delta2)) @ f
    return f @ f.T


def reference_station(f, a0, a1):
    """Loss station as a broadcast row scaling with the lossy modes' columns of
    diag(sin a0, sin a0, sin a1, sin a1) concatenated after it; f if lossless."""
    if a0 == 0.0 and a1 == 0.0:
        return f
    c0, c1 = math.cos(a0), math.cos(a1)
    noise = np.diag((math.sin(a0),) * 2 + (math.sin(a1),) * 2)
    lossy = [k for k, a in enumerate((a0, a0, a1, a1)) if a != 0.0]
    return np.concatenate((f * [[c0], [c0], [c1], [c1]], noise[:, lossy]), axis=1)


def reference_model(config, station=reference_station, element=lambda matrix: matrix):
    """The device's phase model, (rows, photons), from this file's builders:
    the detected rows of B2 times P0, Pc and Ps, each written slice by slice
    into zeros, times the factor after both loss stations.  `station` is the
    loss step, and `element` maps each builder's matrix before use: with
    `np.abs`, each row entry is, up to its sign, the sum of its terms'
    magnitudes, the scale of its roundoff."""
    f = station(element(two_mode_squeezer(config.G, config.xi)), config.alpha1, config.beta1)
    f = station(element(beam_splitter(BsSpec("B1", config.delta1))).dot(f),
                config.alpha2, config.beta2)
    b2 = element(beam_splitter(BsSpec("B2", config.delta2)))
    d, w = b2[::2], np.zeros((3, 2, 4))
    w[0, :, 2:], w[1, :, :2] = d[:, 2:], d[:, :2]
    w[2, :, 0], w[2, :, 1] = d[:, 1], -d[:, 0]
    out = b2.dot(f)
    return w.reshape(6, 4).dot(f).reshape(3, -1), mean_photon_number(out.dot(out.T))


def _series(x, term, k, step):
    """Sum of a power series in stdlib `decimal` to the context's precision:
    from the first term, each next term is the last times step(x, k), with k
    rising by 2 from its start k each time."""
    total = term
    while True:
        k += 2
        term *= step(x, k)
        if total + term == total:
            return total
        total += term


def _cos(x):
    """cos x by its Taylor series, for |x| up to a few."""
    return _series(-x * x, Decimal(1), 0, lambda y, k: y / (k * (k - 1)))


def _sinh(x):
    """sinh x for x >= 0: its Taylor series below 1, exp above."""
    if x >= 1:
        e = x.exp()
        return (e - 1 / e) / 2
    return _series(x * x, x, 1, lambda y, k: y / (k * (k - 1)))


def _atan_inverse(n):
    """atan(1 / n) by its Taylor series, n > 1."""
    x = Decimal(1) / n
    return _series(-x * x, x, 1, lambda y, k: y * (k - 2) / k)


def decimal_photons(config):
    """The device's photon number from its closed form,

        sinh^2 G [cos^2 alpha2 (c1^2 cos^2 alpha1 + s1^2 cos^2 beta1)
                  + cos^2 beta2 (s1^2 cos^2 alpha1 + c1^2 cos^2 beta1)],

    c1, s1 = cos, sin(pi/4 + delta1), evaluated at 60 digits from the float
    fields converted exactly, as a Decimal.  pi/4 comes from Machin's
    formula, 4 atan(1/5) - atan(1/239), and sin(pi/4 + delta1) as
    cos(pi/4 - delta1).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        quarter = 4 * _atan_inverse(5) - _atan_inverse(239)
        delta1 = Decimal(config.delta1)
        c1, s1 = _cos(quarter + delta1) ** 2, _cos(quarter - delta1) ** 2
        a1, b1, a2, b2 = (_cos(Decimal(angle)) ** 2 for angle in
                          (config.alpha1, config.beta1, config.alpha2, config.beta2))
        return _sinh(Decimal(config.G)) ** 2 * (a2 * (c1 * a1 + s1 * b1)
                                                + b2 * (s1 * a1 + c1 * b1))


def detect_saturation(values):
    """Whether the tail of a sweep has flattened out.

    Returns (saturated, tail_value): saturated is True when the last three
    values agree pairwise to within 1% of the final value, and tail_value is
    that final value.
    """
    vals = [float(v) for v in values]
    if len(vals) < 3:
        return False, vals[-1] if vals else math.nan
    tail = vals[-3:]
    ref = abs(tail[-1])
    if not math.isfinite(ref) or ref == 0.0:
        return False, tail[-1]
    spread = max(tail) - min(tail)
    return bool(spread <= 0.01 * ref), tail[-1]


def bisection_resolution(config, phi=math.pi / 2):
    """Modified-criterion root by plain bisection, as (delta_phi, evaluations).

    Halves g(d) = 2 |s| d - sigma(phi) - sigma(phi + d), s the slope at phi,
    on (0, pi/2] to a relative width of 1e-14; `evaluations` counts the
    evaluations of g.  delta_phi is None when g(pi/2) <= 0 leaves no root.
    """
    slope = abs(signal_slope(config, phi))
    sigma0 = evaluate(config, phi).sigma

    def g(d):
        return 2.0 * slope * d - sigma0 - evaluate(config, phi + d).sigma

    lo, hi, evaluations = 0.0, math.pi / 2, 1
    if not g(hi) > 0.0:
        return None, evaluations
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), evaluations


def four_point_slope(config, phi):
    """d<P>/dphi from four `evaluate` means, exact up to roundoff.

    The factor is linear in cos(phi) and sin(phi), so <P> is a degree-2
    trigonometric polynomial in phi.  With D(t) = <P>(phi + t) - <P>(phi - t)
    and u1, u2 the derivatives of its first and second harmonics,
    D(t) = 2 sin(t) u1 + sin(2t) u2, hence

        d<P>/dphi = u1 + u2 = D(pi/4) - (sqrt2 - 1)/2 D(pi/2).

    The shifted phases phi +/- t round, which costs an error of about
    eps |phi| times the fringe's curvature: the analytic slope has no such term.
    """
    def diff(t):
        return evaluate(config, phi + t).mean - evaluate(config, phi - t).mean

    return diff(math.pi / 4) - (math.sqrt(2.0) - 1.0) / 2.0 * diff(math.pi / 2)


def apply_parameter(config, parameter, value):
    """The device of `config` with the sweep parameter set to value: both
    modes' loss at a station for a symmetric shorthand, else the field."""
    fields = _SYMMETRIC.get(parameter, (parameter,))
    return dataclasses.replace(config, **dict.fromkeys(fields, value))


def golden_min(f, lo, hi, tol):
    """Golden-section minimum of a unimodal f on [lo, hi], as (x, f(x)).

    Shrinks the bracket by the golden ratio per evaluation until it is at
    most tol wide and returns the better of its two interior points.
    """
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


def reference_lose(state, losses):
    """Each (mode, angle, levels) loss as `apply_unitary_fock` of `loss_unitary`
    onto a vacuum ancilla with as many levels as its mode, appended as the last
    mode, so that no sector of the pair is cut; the ancilla then keeps its
    first `levels` levels.  Returns the state and the probability dropped."""
    dropped = 0.0
    for mode, angle, levels in losses:
        amps = np.zeros(state.dims + (state.dims[mode],), dtype=complex)
        amps[..., 0] = state.amplitudes
        full = apply_unitary_fock(FockState(amps, state.norm_deficit), loss_unitary(angle),
                                  (mode, state.n_modes)).amplitudes
        dropped += float(np.sum(np.abs(full[..., levels:]) ** 2))
        state = FockState(full[..., :levels], state.norm_deficit)
    return state, dropped


def reference_losses(config):
    """The device's nonzero losses in pipeline order, (mode, angle, levels) each,
    with `ancilla_cutoff` levels."""
    return [(mode, angle, ancilla_cutoff(config.G, angle))
            for mode, angle in ((0, config.alpha1), (1, config.beta1),
                                (0, config.alpha2), (1, config.beta2))
            if angle != 0.0]


def reference_seed(config):
    """Squeezed pair c_n = (-i e^{i xi} tanh G)^n / cosh G, n = 0..tail_cutoff(G),
    on signal modes of 2 n + 3 levels, with its omitted mass tanh^{2(n+1)} G."""
    G, cut = config.G, tail_cutoff(config.G)
    n = np.arange(cut + 1)
    amps = np.zeros((2 * cut + 3,) * 2, dtype=complex)
    amps[n, n] = (-1j * np.exp(1j * config.xi) * np.tanh(G)) ** n / np.cosh(G)
    return FockState(amps, float(np.tanh(G) ** (2 * (cut + 1))))


def reference_xx(amps, a, b):
    """X_a X_b psi as two whole-tensor passes: X_b first, then X_a on its result."""
    return fock._x_apply(fock._x_apply(amps, b), a)


def reference_signal_document(cfg) -> str:
    """`squint signal`'s document for the RunConfig cfg from one `evaluate` per
    phase: CSV with one `fmt` per cell, or JSON rows after the config echo."""
    rows = []
    for phi in cfg.phi_grid().tolist():
        st = evaluate(cfg.interferometer, phi)
        rows.append((phi, st.mean, math.sqrt(st.second_moment), st.sigma, st.mean_photons))
    if cfg.format == "csv":
        lines = [",".join(SIGNAL_COLUMNS), *(",".join(map(fmt, row)) for row in rows)]
        return "\n".join(lines) + "\n"
    body = {"config": cfg.to_dict(),
            "rows": [{c: _json_num(v) for c, v in zip(SIGNAL_COLUMNS, row)} for row in rows]}
    return json.dumps(body, indent=2) + "\n"
