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
the squeezer's matrix (the vacuum is the identity), with 12 columns on
every device: the squeezer's 4, then 4 noise columns per loss station.  One
function, `_chain`, builds every model, a lone device's and a sweep's stack
alike, from the element entries, by row operations in elementwise `*`, `+`
and `-`: each loss station scales each mode's two rows by cos(angle) and
writes sin(angle) into the mode's two noise columns (a lossless mode's
cos 0 = 1.0 and sin 0 = 0.0 leave its rows and fill nothing), B1 mixes the
rows of the two modes, and B2's detected rows pick and scale them.  So IEEE
arithmetic, not a BLAS, fixes each bit, on Python floats and on arrays
alike.  C is read only at the outputs, as products of rows, so
no step subtracts the large entries of an earlier covariance: the dark-fringe
noise keeps a relative roundoff of about eps (1 + N) / sigma.

Only output rows 0 and 2, the x quadratures, are detected.  The phase turns
mode 0 alone, P(phi) = P0 + cos(phi) Pc + sin(phi) Ps, and commutes with the
arm loss, which scales mode 0's two rows alike.  So the detected rows of the
output factor are R(phi) = A + cos(phi) U + sin(phi) V, with A, U and V each
2 x 12.  No phase, pump phase or recombiner moves a photon, so the photon
number N is a closed form in G, the four loss angles and delta1, `_photons`,
which no output covariance enters: it is products and sums of non-negative
terms, good to a few eps relative at every gain, while (trace(C) - 4) / 4
cancels to roundoff at small G.  A device builds its model, A, U, V and N,
once, on its first evaluation, by `_chain` on its entries as Python floats,
in about 14 us, ideal or lossy.  Per phase,
the kernel `_moments`, which `evaluate` wraps with the phase check and
`SignalStats` and a lone solve's root steps call directly, forms R with one
dot over (1, cos phi, sin phi), reads C00, C02 and C22 from R R^T and takes
sigma as the square root of C00 C22 + C02^2, a variance no rounding makes
negative, so neither the kernel nor its batched copy has a floor or clamp.
The jet kernel `_jet` reads everything else at a phase: it adds
R' = -sin(phi) U + cos(phi) V and R'' = A - R as rows of the same dot, and
from four rows of the Gram of R, R' and R'' gives sigma, the slope
d<P>/dphi = C02', and f' and f'' of f = sigma^2 in closed form.  A lone
solve reads it once at its working point, `signal_slope` wraps it with the
phase check, and `refine_working_point` reads it at each Newton step.  One
jet costs about 4.6 us, against 2.7 us for `_moments`.  The rows are linear
in B2's (c2, s2), so `_chain` on a device's entries,
`InterferometerConfig._entries`, with that pair turned a quarter turn,
(c2, s2) -> (-s2, c2), gives the rows' derivative along delta2, and
`_field_jet` reads sigma's and the slope's derivatives from one more dot
and Gram, for `optimize_delta2`.  The kernels each form their (1, cos, sin) operand as an array first and unpack their Gram
with one `tolist`.  The batched kernel, `_batched_moments`, forms
`_moments`' two products with `np.matmul` and takes each angle with one
libm call, as `_moments` does, so its rows equal the kernel bit for bit.
It runs over phases or over devices: `np.matmul` broadcasts one model over
many phases, as a phase scan (`squint signal`, through `_evaluate_grid`) reads it, or
pairs a stack of models with one phase each, as a sweep's rows read it in
lockstep.  1000 phases of one model cost about 0.26 ms against 3.4 ms for
1000 `evaluate` calls; 60 (model, phase) pairs cost 25 us against 123 us
for 60 `_moments` calls; a single phase costs more in a batch of one (8 us
against 3.5 us), so a lone solve reads one phase at a time (2-core VM,
in-process, best of 15 or more repeats in one session).

A sweep's rows never build a device.  `_models` runs `_chain` on arrays of
every row's entries, lossless and lossy rows in one stack, and
`_batched_jet` reads every stacked model's sigma and slope at one phase
with two `np.matmul` calls, `_jet`'s dot and Gram; each row equals its
device's model and `_jet` bit for bit, and a test pins them together.
60 models cost about 0.15 ms against 1.1 ms to construct 60 devices and
build theirs, and 60 jets about 27 us; a stack of one costs about 46 us
against 14 us, so a lone device calls the chain itself (in-process, best
of 9 to 15).
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
        A, U and V as the rows of one read-only (3, 24) array and the photon
        number as a Python float, both from `_chain` of the device's element
        entries as Python floats.  A sweep's stack runs the same chain on
        arrays, so this model equals the device's row of any stack bit for
        bit.  The cache is per instance, so a device built by
        `dataclasses.replace` builds its own, and not a field: equality,
        hashing and repr ignore it.  Each field is read as a Python float, as
        `_models` reads it, so a field of another float type (np.float32, say)
        builds the float64 model."""
        rows, photons = _chain(*self._entries())
        rows = rows.reshape(3, -1)
        rows.flags.writeable = False
        return rows, photons

    def _entries(self) -> tuple:
        """`_chain`'s element entries of the device, as Python floats, in
        its argument order; B2's (c2, s2) come last."""
        G, xi, *angles, delta1, delta2 = map(float, _fields(self))
        return (float(np.cosh(G)), float(np.sinh(G)),
                *[f(a) for a in (xi, *angles) for f in (math.cos, math.sin)],
                *_quarter_turn(delta1), *_quarter_turn(delta2))


# B2's detected rows times P0, Pc and Ps read the rows h3, h2 (A), h0, h1 (U), h1, h0 (V)
_B2_ROWS = np.array((3, 2, 0, 1, 1, 0))


def _chain(ch, sh, cx, sx, ca1, sa1, cb1, sb1, ca2, sa2, cb2, sb2, c1, s1, c2, s2) -> tuple:
    """The phase model of one device or of a stack, as (rows, photons), from
    the element entries: ch, sh = cosh G, sinh G, the cos and sin of xi and
    of the four loss angles, and B1's and B2's (c, s) from `_quarter_turn`.
    Every entry is a Python float, for one device, or every one an m-long
    float64 array, for a stack; rows is (6, 12) or (6, 12, m), the rows of
    A, U and V, and photons is `_photons` of the same entries.

    The factor has 12 columns on every device: the squeezer's 4, then each
    loss station's 4 noise columns, diag(sin a, sin a, sin b, sin b).  A
    lossless mode scales its rows by cos 0 = 1.0, exactly, and its noise
    entries are sin 0 = 0.0, so no device has a width of its own.  Each step
    is a row operation in elementwise `*`, `+` and `-`, the same on floats
    and on arrays, so IEEE arithmetic, not a BLAS, fixes every bit, and a
    device's rows equal its row of any stack.  A negative product of a zero
    gives -0.0, so the rows end with + 0, which turns -0.0 into +0.0 and
    leaves every other value as it is.  The zeros are the int 0, which
    Python floats, float64 arrays and `decimal.Decimal` entries each take as
    their own zero, so the same body runs on Decimal entries too, as object
    arrays.
    """
    re, im = sh * sx, -sh * cx
    z = 0 * ch
    # the squeezer's rows times the preparation loss's cosines, its noise
    # columns 4-7, and the arm's columns 8-11, zero until the arm loss
    f = np.array((ca1 * ch, z, ca1 * re, ca1 * im, sa1, z, z, z, z, z, z, z,
                  z, ca1 * ch, ca1 * im, -(ca1 * re), z, sa1, z, z, z, z, z, z,
                  cb1 * re, cb1 * im, cb1 * ch, z, z, z, sb1, z, z, z, z, z,
                  cb1 * im, -(cb1 * re), z, cb1 * ch, z, z, z, sb1, z, z, z, z))
    f = f.reshape(4, 12, *f.shape[1:])
    # per-row factors: s1 with B1's signs for the rows in reverse order, the
    # arm loss's cosines, and B2's weights of the six detected rows
    k = np.array((s1, -s1, s1, -s1, ca2, ca2, cb2, cb2,
                  -s2, c2, -c2, s2, c2, s2))
    k = k.reshape(14, 1, *k.shape[1:])
    # B1: g0 = c1 f0 + s1 f3, g1 = c1 f1 - s1 f2, g2 = s1 f1 + c1 f2, g3 = c1 f3 - s1 f0
    g = c1 * f + k[:4] * f[::-1]
    # the arm loss: each mode's rows times its cosine, then its noise columns
    g *= k[4:8]
    g[0, 8], g[1, 9], g[2, 10], g[3, 11] = sa2, sa2, sb2, sb2
    # A = (-s2 h3, c2 h2), U = (-c2 h0, s2 h1) and V = (c2 h1, s2 h0)
    rows = k[8:] * g.take(_B2_ROWS, 0)
    rows += 0
    return rows, _photons(sh, ca1, cb1, ca2, cb2, c1, s1)


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


def _models(G, xi, alpha1, beta1, alpha2, beta2, delta1, delta2) -> tuple:
    """Phase models of n devices, each field an n-long sequence of checked
    values, read as float64, as (rows, photons): the models' rows as one
    (n, 3, 24) stack and their photon numbers as an array, in the devices'
    order.  It is `_model`'s `_chain` run on arrays, its entries taken by the
    same functions (`np.cosh`/`np.sinh` on the gains, `math.cos`/`math.sin`
    through `map` for the angles, `_quarter_turn` for each imbalance), so
    row i equals device i's `_model` bit for bit.
    """
    fields = np.array((G, xi, alpha1, beta1, alpha2, beta2, delta1, delta2), dtype=float)
    n = fields.shape[1]
    _, xi, *angles, delta1, delta2 = fields.tolist()
    c1, c2, s1, s2 = np.array([*map(_quarter_turn, delta1 + delta2)]).T.reshape(4, n)
    rows, photons = _chain(np.cosh(fields[0]), np.sinh(fields[0]),
                           *[np.fromiter(map(f, a), float, n)
                             for a in (xi, *angles) for f in (math.cos, math.sin)],
                           c1, s1, c2, s2)
    return np.ascontiguousarray(rows.reshape(3, -1, n).transpose(2, 0, 1)), photons


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
    row i is `_moments` of one (3, 24) model at phis[i], or of rows[i] at
    phis[i] when `rows` stacks n models as an (n, 3, 24) array.

    The angles come from `math.cos`/`math.sin`, one `map` each, not from
    numpy's own loops, whose rounding may differ from libm's; each product
    is the one `_moments` makes, batched: `np.matmul` of (1, cos, sin) rows
    for the `np.dot`, and of R with its transpose for `r.dot(r.T)`.  Every
    model has the same 24 columns, so any models stack, and each sum has the
    terms of the kernel's, in a stack or alone.
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

    the slope of `_jet`, which forms R and R' in one dot with the model's
    rows and both products in one Gram.  No phase is shifted, so the slope
    is exact up to the roundoff of two dot products, whatever the size of
    phi.  A non-finite phi raises ValueError.
    """
    _check_finite("phase phi", phi)
    return _jet(config._model[0], phi)[1]


def _jet(rows: np.ndarray, phi: float) -> tuple:
    """(sigma, slope, f', f'') at a finite phase phi, from a phase model's
    rows, without a phase check: the product signal's noise, d<P>/dphi, and
    the first two phase derivatives of f = sigma^2 = C00 C22 + C02^2, for a
    solve's working point, `signal_slope` and `refine_working_point`.

    R'' = -cos(phi) U - sin(phi) V, so one dot of ((1, c, s), (0, -s, c),
    (0, -c, -s)) with the model's rows gives the six rows r0, r1, r0', r1',
    r0'' and r1'', and the first four rows of their 6 x 6 Gram every product
    the jet needs, with C22's derivatives C00's with r1 for r0:

        C00' = 2 r0 . r0',   C00'' = 2 (r0' . r0' + r0 . r0''),
        slope = C02' = r0' . r1 + r0 . r1',
        C02'' = r0'' . r1 + 2 r0' . r1' + r0 . r1'',
        f'  = C00' C22 + C00 C22' + 2 C02 C02',
        f'' = C00'' C22 + 2 C00' C22' + C00 C22'' + 2 (C02'^2 + C02 C02'').

    sigma is sqrt(m2 - C02^2) with m2 = C00 C22 + 2 C02^2, as in `_moments`,
    and needs no floor for the same reason: C00 and C22 are sums of squares,
    so their rounded product is >= 0, and the one Gram entry C02 enters m2
    and the subtracted square alike, so rounding, being monotone, keeps
    m2 >= fl(C02 C02).  Its Gram may sum each product in another order than
    `_moments`' R R^T, so the two sigmas can differ in their last bits, by
    at most 60 ulp as a test derives (8 measured).  No phase is shifted and
    nothing is differenced, so every value is exact up to the roundoff of
    the dot, the Gram and the sums, whatever the size of phi.
    """
    c, s = math.cos(phi), math.sin(phi)
    r = np.array(((1.0, c, s), (0.0, -s, c), (0.0, -c, -s))).dot(rows).reshape(6, -1)
    # h_ij = r_i . r_j', k_ij = r_i . r_j'', p_ij = r_i' . r_j', 0 for r0, 2 for r1
    (c00, c02, h00, h02, k00, k02), (_, c22, h20, h22, k20, k22), \
        (_, _, p00, p02, _, _), (_, _, _, p22, _, _) = r[:4].dot(r.T).tolist()
    d00, d02, d22 = 2.0 * h00, h20 + h02, 2.0 * h22
    e00, e02, e22 = 2.0 * (p00 + k00), k20 + 2.0 * p02 + k02, 2.0 * (p22 + k22)
    return (math.sqrt(_second_moment(c00, c02, c22) - c02 * c02), d02,
            d00 * c22 + c00 * d22 + 2.0 * c02 * d02,
            e00 * c22 + 2.0 * d00 * d22 + c00 * e22 + 2.0 * (d02 * d02 + c02 * e02))


def _field_jet(rows: np.ndarray, drows: np.ndarray, phi: float) -> tuple:
    """(sigma, slope, dsigma, dslope) at a finite phase phi: the product
    signal's noise and d<P>/dphi, as `_jet` gives them, and their
    derivatives along a device field theta, from a phase model's rows and
    drows = d rows / d theta; for delta2 that is `_chain` with B2's
    (c2, s2) -> (-s2, c2), since the rows are linear in that pair.

    One dot of ((1, c, s), (0, -s, c)) with the rows and drows side by side
    gives r0, r1, their field derivatives q0, q1 and the phase derivatives
    r0', r1', q0', q1', and the first four rows of their Gram every product:

        dC00 = 2 r0 . q0,   dC22 = 2 r1 . q1,   dC02 = q0 . r1 + r0 . q1,
        d sigma^2 = dC00 C22 + C00 dC22 + 2 C02 dC02,
        dslope = q0' . r1 + r0' . q1 + q0 . r1' + r0 . q1',

    and dsigma = d sigma^2 / (2 sigma).  sigma and the slope are `_jet`'s up
    to the order of the Gram's sums.
    """
    c, s = math.cos(phi), math.sin(phi)
    r = np.array(((1.0, c, s), (0.0, -s, c))).dot(np.hstack((rows, drows))).reshape(8, -1)
    # h_ij = r_i . q_j, p_ij = r_i . r_j', k_ij = r_i . q_j', m_ij = q_i . r_j',
    # 0 for r0 and q0, 2 for r1 and q1
    (c00, c02, h00, h02, _, p02, _, k02), (_, c22, h20, h22, p20, _, k20, _), \
        (*_, m02, _, _), (*_, m20, _, _, _) = r[:4].dot(r.T).tolist()
    sigma = math.sqrt(_second_moment(c00, c02, c22) - c02 * c02)
    return (sigma, p20 + p02, (h00 * c22 + c00 * h22 + c02 * (h20 + h02)) / sigma,
            k20 + m20 + m02 + k02)


def _batched_jet(stack: np.ndarray, phi: float) -> tuple:
    """(sigma, slope) of n models, an (n, 3, 24) stack, at one finite phase
    phi, as two arrays equal to `_jet`'s row by row, bit for bit: one
    `np.matmul` forms every model's six rows, as `_jet`'s dot does, and one
    more their first four Gram rows, as its Gram does, and sigma and the
    slope come from the same entries by the same elementwise steps."""
    c, s = math.cos(phi), math.sin(phi)
    r = np.matmul(np.array(((1.0, c, s), (0.0, -s, c), (0.0, -c, -s))), stack)
    r = r.reshape(len(stack), 6, -1)
    g = np.matmul(r[:, :4], r.transpose(0, 2, 1))
    c02 = g[:, 0, 1]
    sigma = np.sqrt(_second_moment(g[:, 0, 0], c02, g[:, 1, 1]) - c02 * c02)
    return sigma, g[:, 1, 2] + g[:, 0, 3]


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
