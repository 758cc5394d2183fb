"""The two-mode squeezed-vacuum interferometer pipeline.

Element order, fixed by the physical layout:

    vacuum -> pair squeezer (G, xi)
           -> preparation loss (alpha1 on mode 0, beta1 on mode 1)
           -> splitter B1 (imbalance delta1)
           -> phase phi on mode 0
           -> arm loss (alpha2 on mode 0, beta2 on mode 1)
           -> recombiner B2 (imbalance delta2)
           -> product-signal statistics on the two outputs.

The engine carries a factor F of the covariance, C = F F^T, starting from
the squeezer's matrix (the vacuum is the identity).  Each symplectic element
multiplies F from the left, by `ndarray.dot`, which skips the dispatch cost
that `@` pays at these sizes.  Each loss station (preparation, arm) is one
step, `_lose`: it scales the rows of every mode by cos(angle) and appends each
lossy mode's two noise columns of sin(angle), and a lossless station leaves F
as it is.  C is read only at the outputs, as products of rows, so
no step subtracts the large entries of an earlier covariance: the dark-fringe
noise keeps a relative roundoff of about eps (1 + N) / sigma.

Only output rows 0 and 2, the x quadratures, are detected.  The phase turns
mode 0 alone, P(phi) = P0 + cos(phi) Pc + sin(phi) Ps, and commutes with the
arm loss, which scales mode 0's two rows alike.  So the detected rows of the
output factor are R(phi) = A + cos(phi) U + sin(phi) V, with A, U and V each
2 x k.  No phase, pump phase or recombiner moves a photon, so the photon
number N is a closed form in G, the four loss angles and delta1, `_photons`,
which no output covariance enters: it is products and sums of non-negative
terms, good to a few eps relative at every gain, while (trace(C) - 4) / 4
cancels to roundoff at small G.  A device builds its model, A, U, V and N,
once, on its first evaluation, from fields its construction has checked, so
it calls the builders' unchecked twins, `_squeezer` and `_splitter`, and
writes B2's detected rows times P0, Pc and Ps as one literal.  Per phase,
the kernel `_moments`, which `evaluate` wraps with the phase check and
`SignalStats` and a lone solve's steps call directly, forms R with one dot
over (1, cos phi, sin phi), reads C00, C02 and C22 from R R^T and takes
sigma as the square root of C00 C22 + C02^2, a variance no rounding makes
negative, so neither the kernel nor its batched copy has a floor or clamp.
The slope kernel `_slope`, which `signal_slope` wraps with the phase check
and a lone solve calls directly, forms R' = -sin(phi) U + cos(phi) V in the
same dot and differentiates <P> = C02 in closed form, in about 4 us against
3.5 us for `evaluate`.  The phase-jet kernel `_phase_jet`, which
`refine_working_point` reads at each Newton step, adds R'' = A - R as a
third row of the dot, and from four rows of the Gram of R, R' and R''
gives f' and f'' of f = sigma^2 = C00 C22 + C02^2 in closed form, in about
3.8 us against 2.3 us for `_moments`.  The kernels each form their (1, cos,
sin) operand as an array first, and `_moments` and `_phase_jet` each unpack
their Gram with one `tolist`.  The batched kernel, `_batched_moments`, forms
the kernel's two products with `np.matmul` and takes each angle with one
libm call, as `_moments` does, so its rows equal the kernel bit for bit.
It runs over phases or over devices: `np.matmul` broadcasts one model over
many phases, as a phase scan (`squint signal`, through `_evaluate_grid`) reads it, or
pairs a stack of same-width models with one phase each, as a sweep's rows
read it in lockstep.  1000 phases of one model cost about 0.27 ms against 3.4 ms for
1000 `evaluate` calls; 60 (model, phase) pairs cost 30 us against 142 us
for 60 `_moments` calls; a single phase costs more in a batch of one (8 us
against 3.5 us), so a lone solve reads one phase at a time (2-core VM,
in-process, best of 15 or more repeats in one session).

A sweep's rows never build a device.  `_models` runs `_model`'s chain over
a stack of devices that share a loss pattern, each product an `np.matmul`,
and `_batched_slope` reads every stacked model's slope with three; both
give the scalar chain's bits, and a test pins them together.  60 models
cost about 0.11 ms against 0.89 ms to construct 60 devices and build
theirs, and 60 slopes 10 us against 0.23 ms for 60 `signal_slope` calls;
a stack of one costs about 130 us against 25-40 us, so a lone device keeps
`_model` (in-process, best of 401).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    _check_finite,
    _check_gain,
    _check_imbalance,
    _check_loss_angle,
    _quarter_turn,
    _splitter,
    _squeezer,
)
from .moments import SignalStats, _second_moment

__all__ = [
    "InterferometerConfig",
    "evaluate",
    "signal_slope",
    "closed_form_reference",
]

# Each device field's check, in field order: construction runs every one,
# and a sweep runs the swept field's own on each grid value.  `_fields`
# reads a device's fields in that order.
_FIELD_CHECKS = {
    "G": _check_gain,
    "xi": functools.partial(_check_finite, "pump phase xi"),
    **{name: functools.partial(_check_loss_angle, f"loss angle {name}")
       for name in ("alpha1", "beta1", "alpha2", "beta2")},
    **{name: functools.partial(_check_imbalance, f"imbalance {name}")
       for name in ("delta1", "delta2")},
}
_fields = operator.attrgetter(*_FIELD_CHECKS)


@dataclass(frozen=True)
class InterferometerConfig:
    """All device parameters except the interferometric phase itself.

    Loss angles alpha1/beta1 act right after the squeezer (source and
    injection imperfections); alpha2/beta2 act inside the arms.  delta1 and
    delta2 are the splitting-ratio imbalances of the two beam splitters.
    Construction raises ValueError unless every field is a finite real number
    (not a bool), 0 <= G <= 177.17, each loss angle lies in [0, pi/2] and each
    |delta| < pi/4.
    """

    G: float
    xi: float = 0.0
    alpha1: float = 0.0
    beta1: float = 0.0
    alpha2: float = 0.0
    beta2: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        for name, check in _FIELD_CHECKS.items():
            check(getattr(self, name))

    @classmethod
    def with_symmetric_loss(cls, G: float, prep: float = 0.0, arm: float = 0.0,
                            **kwargs) -> "InterferometerConfig":
        """Config with equal loss on both modes at each of the two stations."""
        return cls(G=G, alpha1=prep, beta1=prep, alpha2=arm, beta2=arm, **kwargs)

    @functools.cached_property
    def _model(self) -> tuple:
        """The device's phase model, built on first use, as (rows, photons):
        A, U and V as the rows of one read-only (3, 2k) array, k the factor's
        columns after both loss steps, and the photon number from `_photons`
        as a Python float, of B1's entries and the loss angles' cosines.
        The cache is per instance, so a device built by `dataclasses.replace`
        builds its own, and not a field: equality, hashing and repr ignore it.
        Each field is read as a Python float, as `_models` reads it, so a field
        of another float type (np.float32, say) builds the float64 model."""
        G, xi, alpha1, beta1, alpha2, beta2, delta1, delta2 = map(float, _fields(self))
        f = _lose(_squeezer(G, xi), alpha1, beta1)
        b1 = _splitter("B1", delta1)
        f = _lose(b1.dot(f), alpha2, beta2)
        b2 = _splitter("B2", delta2)
        c, s = b2.item(2, 2), b2.item(2, 1)
        # B2's detected rows, (-c, 0, 0, -s) and (0, s, c, 0), times P0, Pc and Ps
        w = np.array(((0.0, 0.0, 0.0, -s), (0.0, 0.0, c, 0.0), (-c, 0.0, 0.0, 0.0),
                      (0.0, s, 0.0, 0.0), (0.0, c, 0.0, 0.0), (s, 0.0, 0.0, 0.0)))
        rows = w.dot(f).reshape(3, -1)  # A, U and V, one row each
        rows.flags.writeable = False
        cos = map(math.cos, (alpha1, beta1, alpha2, beta2))
        return rows, _photons(float(np.sinh(G)), *cos, b1.item(0, 0), b1.item(0, 3))


def _lose(f: np.ndarray, a0: float, a1: float) -> np.ndarray:
    """The factor f after one loss station, angles a0 on mode 0 and a1 on
    mode 1; f itself when neither mode loses.

    Each mode's two rows scale by cos(angle), exactly 1.0 for a lossless
    mode, and each lossy mode appends its two columns of diag(sin a0, sin a0,
    sin a1, sin a1), so F F^T picks up sin^2(angle) on the mode's diagonal
    block: the `apply_loss` channel without forming the covariance.  Both
    parts are written into one zeroed array: the scaled rows by one
    `np.multiply`, and each noise entry by one store.
    """
    if a0 == 0.0 and a1 == 0.0:
        return f
    angles, k = (a0, a0, a1, a1), f.shape[1]
    noise = [(i, math.sin(a)) for i, a in enumerate(angles) if a != 0.0]
    out = np.zeros((4, k + len(noise)))
    np.multiply(f, np.array([math.cos(a) for a in angles]).reshape(4, 1), out=out[:, :k])
    for j, (i, sin) in enumerate(noise, k):
        out[i, j] = sin
    return out


def _photons(sh, ca1, cb1, ca2, cb2, c1, s1):
    """The mean photon number at the detectors, in closed form,

        N = sinh^2 G [cos^2 alpha2 (c1^2 cos^2 alpha1 + s1^2 cos^2 beta1)
                      + cos^2 beta2 (s1^2 cos^2 alpha1 + c1^2 cos^2 beta1)],

    from sh = sinh G, the four loss angles' cosines and B1's c1, s1 = cos,
    sin(pi/4 + delta1): each mode carries sinh^2 G photons after the
    squeezer, each loss keeps cos^2 of them, B1 mixes them and B2 conserves
    them, and the pump phase moves none.  It takes only `*` and `+` of
    non-negative terms, so Python floats and float64 arrays give the same
    bits and no term cancels.  Each rounding adds one unit u = eps/2 to the
    relative error of its result, over the larger of its operands' for a
    sum and over their total for a product: 1 for a square, 3 for a product
    of two, 4 for the inner sum, 6 with cos^2 alpha2 or cos^2 beta2, 7 for
    the outer sum and 9 with sinh^2 G.  So N errs by at most 9 u = 4.5 eps
    relative against its inputs while sinh^2 G stays normal, G above about
    1.5e-154.
    """
    a, b, c1, s1 = ca1 * ca1, cb1 * cb1, c1 * c1, s1 * s1
    return sh * sh * (ca2 * ca2 * (c1 * a + s1 * b) + cb2 * cb2 * (s1 * a + c1 * b))


def _models(G, xi, alpha1, beta1, alpha2, beta2, delta1, delta2) -> list:
    """Phase models of n devices, each field an n-long sequence of checked
    values, read as float64: one (where, rows, photons) per loss pattern (the
    lossy ones of the four angles, -0.0 lossless as in `_lose`), in order of
    first appearance, with `where` the devices' indices, `rows` their models'
    rows as an (m, 3, 2k) stack and `photons` their photon numbers.

    Each is `_model`'s chain run on all m devices at once, the same operations
    in the same order: `np.cosh`/`np.sinh` on the gains, `math.cos`/`math.sin`
    through `map` for the angles, each element's literal with its signed
    zeros, `np.matmul` for B1 and for B2's detected rows, and `_photons` on
    arrays.  So row i equals `_model`'s bit for bit; a test pins the two
    chains together.  A pattern fixes the width and where the noise columns
    sit, and no stack mixes two.
    """
    fields = np.array((G, xi, alpha1, beta1, alpha2, beta2, delta1, delta2), dtype=float)
    patterns = {}
    for i, lossy in enumerate((fields[2:6] != 0.0).T.tolist()):
        patterns.setdefault(tuple(lossy), []).append(i)
    return [(where, *_stack_models(fields[:, where], lossy))
            for lossy, where in patterns.items()]


def _cos_sin(angles: np.ndarray) -> tuple:
    """`math.cos` and `math.sin` of each angle, as two arrays."""
    angles, n = angles.tolist(), len(angles)
    return (np.fromiter(map(math.cos, angles), float, n),
            np.fromiter(map(math.sin, angles), float, n))


def _quarter_turns(imbalances: np.ndarray) -> np.ndarray:
    """`_quarter_turn` of each imbalance, as two arrays (cos, sin)."""
    return np.array([*map(_quarter_turn, imbalances.tolist())]).reshape(-1, 2).T


def _matrices(*entries) -> np.ndarray:
    """A C-contiguous stack of m matrices with four columns, from their
    entries in row-major order, each an m-long array: contiguous, so that
    `np.matmul` hands each product to the BLAS, as `ndarray.dot` does."""
    return np.array(entries).T.copy().reshape(len(entries[0]), -1, 4)


def _stack_models(fields: np.ndarray, lossy: tuple) -> tuple:
    """`_models`' chain for the columns of an (8, m) field array that share
    one loss pattern, as (rows, photons)."""
    G, xi, alpha1, beta1, alpha2, beta2, delta1, delta2 = fields
    z = np.zeros(len(G))
    ch, sh = np.cosh(G), np.sinh(G)
    cos, sin = _cos_sin(xi)
    re, im = sh * sin, -sh * cos
    f = _matrices(ch, z, re, im, z, ch, im, -re, re, im, ch, z, im, -re, z, ch)
    f, ca1, cb1 = _stack_lose(f, alpha1, beta1, *lossy[:2])
    c1, s1 = _quarter_turns(delta1)
    b1 = _matrices(c1, -z, z, s1, z, c1, -s1, z, z, s1, c1, -z, -s1, z, z, c1)
    f, ca2, cb2 = _stack_lose(np.matmul(b1, f), alpha2, beta2, *lossy[2:])
    c, s = _quarter_turns(delta2)
    # B2's detected rows times P0, Pc and Ps, and the rows A, U and V
    w = _matrices(z, z, z, -s, z, z, c, z, -c, z, z, z, z, s, z, z, z, c, z, z, s, z, z, z)
    rows = np.matmul(w, f).reshape(len(G), 3, -1)
    return rows, _photons(sh, ca1, cb1, ca2, cb2, c1, s1)


def _stack_lose(f: np.ndarray, a0: np.ndarray, a1: np.ndarray, lossy0: bool,
                lossy1: bool) -> tuple:
    """`_lose` on an (m, 4, k) stack of factors, the angles a0 and a1 as
    m-long arrays, every factor's modes lossy or not as lossy0 and lossy1
    say, as (factors, cos a0, cos a1): each cosine an array, or 1.0, which
    `math.cos` gives exactly, when the station loses nothing."""
    if not (lossy0 or lossy1):
        return f, 1.0, 1.0
    n, _, k = f.shape
    (c0, s0), (c1, s1) = _cos_sin(a0), _cos_sin(a1)
    lossy = (lossy0, lossy0, lossy1, lossy1)
    noise = [(i, sin) for i, sin in enumerate((s0, s0, s1, s1)) if lossy[i]]
    out = np.zeros((n, 4, k + len(noise)))
    np.multiply(f, np.array((c0, c0, c1, c1)).T.reshape(n, 4, 1), out=out[:, :, :k])
    for j, (i, sin) in enumerate(noise, k):
        out[:, i, j] = sin
    return out, c0, c1


def _moments(rows: np.ndarray, phi: float) -> tuple:
    """(mean, second moment, sigma) of the product signal at a finite phase
    phi, from a phase model's rows: `evaluate`'s arithmetic without its phase
    check or its `SignalStats`, for the steps of a lone solve.

    The variance needs no floor.  Of c = R R^T, c00 and c11 are sums of
    squares, so their rounded product p is >= 0, and the second moment is
    m2 = fl(p + fl(2 c01 c01)).  Rounding is monotone, so m2 >= fl(2 c01^2)
    >= fl(c01 c01) = fl(m1 m1), and fl(m2 - m1 m1) >= 0, subnormals
    included; the gain bound rules out overflow.
    """
    r = np.array((1.0, math.cos(phi), math.sin(phi))).dot(rows).reshape(2, -1)
    (c00, m1), (_, c11) = r.dot(r.T).tolist()
    m2 = _second_moment(c00, m1, c11)
    return m1, m2, math.sqrt(m2 - m1 * m1)


def evaluate(config: InterferometerConfig, phi: float) -> SignalStats:
    """Product-signal statistics at phase phi, from the device's phase model."""
    _check_finite("phase phi", phi)
    rows, photons = config._model
    m1, m2, sigma = _moments(rows, phi)
    return SignalStats(mean=m1, second_moment=m2, sigma=sigma, mean_photons=photons)


def _evaluate_grid(config: InterferometerConfig, phis) -> tuple:
    """`evaluate` over a list of finite phases in one pass, as (mean, second
    moment, sigma, photons): three arrays with row i equal to
    `evaluate(config, phis[i])` bit for bit, and the device's photon number.
    """
    rows, photons = config._model
    return (*_batched_moments(rows, phis), photons)


def _batched_moments(rows: np.ndarray, phis) -> tuple:
    """`_moments` over a batch, as three arrays (mean, second moment, sigma):
    row i is `_moments` of one (3, 2k) model at phis[i], or of rows[i] at
    phis[i] when `rows` stacks n models of one width as an (n, 3, 2k) array.

    The angles come from `math.cos`/`math.sin`, one `map` each, not from
    numpy's own loops, whose rounding may differ from libm's; each product
    is the one `_moments` makes, batched: `np.matmul` of (1, cos, sin) rows
    for the `np.dot`, and of R with its transpose for `r.dot(r.T)`.  Models
    of different widths are not zero-padded into one stack: the padded sums
    hold terms the kernel's do not, and nothing holds a BLAS to the same
    blocking or order for them, so nothing would keep the bits.
    """
    n = len(phis)
    t = np.empty((n, 1, 3))
    t[:, 0, 0] = 1.0
    t[:, 0, 1] = np.fromiter(map(math.cos, phis), float, n)
    t[:, 0, 2] = np.fromiter(map(math.sin, phis), float, n)
    r = np.matmul(t, rows).reshape(n, 2, -1)
    c = np.matmul(r, r.transpose(0, 2, 1))
    m1 = c[:, 0, 1]
    m2 = _second_moment(c[:, 0, 0], m1, c[:, 1, 1])
    return m1, m2, np.sqrt(m2 - m1 * m1)


def signal_slope(config: InterferometerConfig, phi: float) -> float:
    """d<P>/dphi at phase phi, from one read of the device's phase model.

    The detected rows are R(phi) = A + cos(phi) U + sin(phi) V, with r0 and
    r1 the rows of mode a and mode b, and <P> = r0 . r1.  So

        dR/dphi = -sin(phi) U + cos(phi) V,
        d<P>/dphi = r0' . r1 + r0 . r1',

    with R and R' formed by one dot of ((1, cos, sin), (0, -sin, cos)) with
    the model's rows.  No phase is shifted, so the slope is exact up to the
    roundoff of two dot products, whatever the size of phi.  A non-finite
    phi raises ValueError.
    """
    _check_finite("phase phi", phi)
    return _slope(config._model[0], phi)


def _slope(rows: np.ndarray, phi: float) -> float:
    """`signal_slope` at a finite phase phi, from a phase model's rows,
    without its phase check: for a lone solve."""
    c, s = math.cos(phi), math.sin(phi)
    r, dr = np.array(((1.0, c, s), (0.0, -s, c))).dot(rows).reshape(2, 2, -1)
    return float(dr[0].dot(r[1]) + r[0].dot(dr[1]))


def _phase_jet(rows: np.ndarray, phi: float) -> tuple:
    """(f', f'') at a finite phase phi, from a phase model's rows, where
    f = sigma^2 = C00 C22 + C02^2 is the product signal's variance: its first
    two phase derivatives in closed form, for `refine_working_point`.

    R'' = -cos(phi) U - sin(phi) V, so one dot of ((1, c, s), (0, -s, c),
    (0, -c, -s)) with the model's rows gives the six rows r0, r1, r0', r1',
    r0'' and r1'', and the first four rows of their 6 x 6 Gram every product
    the derivatives need, with C22's derivatives C00's with r1 for r0:

        C00' = 2 r0 . r0',   C00'' = 2 (r0' . r0' + r0 . r0''),
        C02' = r0' . r1 + r0 . r1',
        C02'' = r0'' . r1 + 2 r0' . r1' + r0 . r1'',
        f'  = C00' C22 + C00 C22' + 2 C02 C02',
        f'' = C00'' C22 + 2 C00' C22' + C00 C22'' + 2 (C02'^2 + C02 C02'').

    No phase is shifted and nothing is differenced, so both are exact up to
    the roundoff of the dot, the Gram and the sums, whatever the size of phi.
    """
    c, s = math.cos(phi), math.sin(phi)
    r = np.array(((1.0, c, s), (0.0, -s, c), (0.0, -c, -s))).dot(rows).reshape(6, -1)
    # h_ij = r_i . r_j', k_ij = r_i . r_j'', p_ij = r_i' . r_j', 0 for r0, 2 for r1
    (c00, c02, h00, h02, k00, k02), (_, c22, h20, h22, k20, k22), \
        (_, _, p00, p02, _, _), (_, _, _, p22, _, _) = r[:4].dot(r.T).tolist()
    d00, d02, d22 = 2.0 * h00, h20 + h02, 2.0 * h22
    e00, e02, e22 = 2.0 * (p00 + k00), k20 + 2.0 * p02 + k02, 2.0 * (p22 + k22)
    return (d00 * c22 + c00 * d22 + 2.0 * c02 * d02,
            e00 * c22 + 2.0 * d00 * d22 + c00 * e22 + 2.0 * (d02 * d02 + c02 * e02))


def _batched_slope(rows: np.ndarray, phi: float) -> np.ndarray:
    """`_slope` of n same-width models, an (n, 3, 2k) stack, at one finite
    phase phi, as an array equal to `_slope`'s row by row, bit for bit: one
    `np.matmul` forms every model's R and R', as `_slope`'s dot does, and
    two more its r0' . r1 and r0 . r1', as its two vector dots do."""
    c, s = math.cos(phi), math.sin(phi)
    r = np.matmul(np.array(((1.0, c, s), (0.0, -s, c))), rows).reshape(len(rows), 4, 1, -1)
    return (np.matmul(r[:, 2], r[:, 1].transpose(0, 2, 1))
            + np.matmul(r[:, 0], r[:, 3].transpose(0, 2, 1))).ravel()


def closed_form_reference(G: float, phi: float) -> SignalStats:
    """Ideal-device statistics in closed form.

    For the lossless balanced interferometer with N = 2 sinh^2 G total input
    photons:

        <P>    = sinh(G) cosh(G) sin(2 phi)
        <P^2>  = 1 + (7/4 + cos(2 phi) - (3/4) cos(4 phi)) (N^2/2 + N)
        sigma  = sqrt(1 + (3/2 + cos(2 phi) - (1/2) cos(4 phi)) (N^2/2 + N))

    Used as an independent oracle against the matrix pipeline.  ValueError
    unless G is a number in [0, 177.17] and phi a finite number; both are
    read as Python floats, so the moments are float64 whatever their type.
    """
    _check_gain(G)
    _check_finite("phase phi", phi)
    G, phi = float(G), float(phi)
    n = 2.0 * np.sinh(G) ** 2
    half = n * n / 2.0 + n
    mean = np.sinh(G) * np.cosh(G) * np.sin(2.0 * phi)
    m2 = 1.0 + (7.0 / 4.0 + np.cos(2.0 * phi) - 0.75 * np.cos(4.0 * phi)) * half
    var = 1.0 + (1.5 + np.cos(2.0 * phi) - 0.5 * np.cos(4.0 * phi)) * half
    return SignalStats(mean=float(mean), second_moment=float(m2),
                       sigma=float(np.sqrt(var)), mean_photons=float(n))
