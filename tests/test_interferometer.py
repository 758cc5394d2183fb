"""Full pipeline against the closed-form reference and its symmetries."""
import copy
import dataclasses
import math
import pickle
from decimal import Decimal, localcontext

import numpy as np
import pytest

from squint import interferometer
from squint import (
    BsSpec,
    InterferometerConfig,
    SignalStats,
    ancilla_cutoff,
    closed_form_reference,
    evaluate,
    modified_resolution,
    refine_working_point,
    signal_slope,
    standard_resolution,
    tail_cutoff,
)
from squint.gaussian import _G_MAX
from squint.interferometer import (
    _batched_jet,
    _batched_moments,
    _chain,
    _evaluate_grid,
    _field_jet,
    _jet,
    _models,
    _moments,
)
from squint.resolution import SWEEP_PARAMETERS
from reference import (apply_loss, apply_parameter, apply_symplectic, beam_splitter,
                       decimal_photons, four_point_slope, lose_one_mode, mean_photon_number,
                       phase_shifter, product_mean, product_second_moment, product_sigma,
                       reference_model, reference_output_state, reference_station,
                       two_mode_squeezer, vacuum_state)

GAINS = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
_EPS = float(np.finfo(float).eps)


def test_ideal_device_matches_closed_form():
    phis = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    for G in GAINS:
        cfg = InterferometerConfig(G=G)
        for phi in phis:
            got = evaluate(cfg, float(phi))
            ref = closed_form_reference(G, float(phi))
            assert abs(got.mean - ref.mean) <= 1e-10
            assert abs(got.second_moment - ref.second_moment) <= 1e-10
            assert abs(got.sigma - ref.sigma) <= 1e-10
            assert abs(got.mean_photons - ref.mean_photons) <= 1e-10


def test_closed_form_reference_applies_the_gain_and_phase_rules():
    for bad in (-1.0, -1e-300):
        with pytest.raises(ValueError, match="gain G must be non-negative"):
            closed_form_reference(bad, 0.3)
    for bad in (math.nan, math.inf, "1", None, True):
        with pytest.raises(ValueError, match="gain G must be"):
            closed_form_reference(bad, 0.3)
    for bad in (math.nan, -math.inf, "0.3", None, False):
        with pytest.raises(ValueError, match="phase phi must be"):
            closed_form_reference(1.0, bad)
    assert closed_form_reference(0.0, 0.3).mean_photons == 0.0
    # a number of another float type is read as a Python float
    G, phi = np.float32(1.5), np.float32(math.pi / 4)
    assert closed_form_reference(G, phi) == closed_form_reference(float(G), float(phi))


def test_mean_signal_example():
    stats = evaluate(InterferometerConfig(G=1.0), np.pi / 4)
    assert stats.mean == pytest.approx(np.sinh(1) * np.cosh(1), abs=1e-12)


def test_noise_floor_at_working_point():
    # the dark-fringe noise valley bottoms out at the vacuum level
    for G in (0.5, 1.0, 2.0):
        assert evaluate(InterferometerConfig(G=G), np.pi / 2).sigma == pytest.approx(
            1.0, abs=1e-10)


# The mean signal repeats with period pi as long as the device keeps one
# reflection symmetry: equal losses on the two modes ahead of the first
# splitter, and at most one splitter away from 50:50.  One-sided
# preparation loss, or imbalance on both splitters at once, reintroduces
# the full 2*pi fringe (confirmed against the number-basis oracle).  The
# second moment is stricter still: the first splitter's imbalance feeds
# odd harmonics into the individual output variances, so it repeats only
# with delta1 = 0.
MEAN_PI_PERIODIC = (
    InterferometerConfig(G=0.5),
    InterferometerConfig(G=1.5, xi=0.7),
    InterferometerConfig(G=1.0, delta1=0.1),
    InterferometerConfig(G=1.0, delta2=-0.1),
    InterferometerConfig(G=1.0, alpha1=0.05, beta1=0.05),
    InterferometerConfig(G=1.0, alpha2=0.1, beta2=0.03),
    InterferometerConfig(G=1.0, delta1=0.07, alpha2=0.1),
)
FULLY_PI_PERIODIC = tuple(c for c in MEAN_PI_PERIODIC if c.delta1 == 0.0)


def test_signal_has_double_period():
    phis = np.linspace(0, np.pi, 37)
    for cfg in MEAN_PI_PERIODIC:
        strict = cfg in FULLY_PI_PERIODIC
        for phi in phis:
            a = evaluate(cfg, float(phi))
            b = evaluate(cfg, float(phi) + np.pi)
            assert a.mean == pytest.approx(b.mean, abs=1e-12 * max(1, abs(a.mean)))
            if strict:
                assert a.second_moment == pytest.approx(
                    b.second_moment, abs=1e-12 * max(1, a.second_moment))


def test_double_period_needs_device_symmetry():
    for cfg in (InterferometerConfig(G=1.0, alpha1=0.05),
                InterferometerConfig(G=1.0, delta1=0.07, delta2=-0.1)):
        gap = max(abs(evaluate(cfg, float(p)).mean
                      - evaluate(cfg, float(p) + np.pi).mean)
                  for p in np.linspace(0, np.pi, 25))
        assert gap > 1e-3


def test_noise_symmetric_about_working_point():
    for eps in (1e-3, 0.05, 0.3):
        for G in (1.0, 2.5):
            lo = evaluate(InterferometerConfig(G=G), np.pi / 2 - eps).sigma
            hi = evaluate(InterferometerConfig(G=G), np.pi / 2 + eps).sigma
            assert lo == pytest.approx(hi, abs=1e-10 * max(1, hi))


def test_loss_degrades_noise_floor_monotonically():
    # sigma at the working point grows with symmetric arm loss
    sigmas = []
    for a in (0.0, 0.02, 0.05, 0.1, 0.2):
        cfg = InterferometerConfig.with_symmetric_loss(G=2.0, arm=a)
        sigmas.append(evaluate(cfg, np.pi / 2).sigma)
    assert all(b > a for a, b in zip(sigmas, sigmas[1:]))


def _drawn_devices(count):
    rng = np.random.default_rng(1616)
    for i in range(count):
        # each loss is absent a third of the time, so both station shapes occur
        losses = {name: float(rng.uniform(0, np.pi / 2)) if rng.uniform() > 1 / 3 else 0.0
                  for name in ("alpha1", "beta1", "alpha2", "beta2")}
        yield pytest.param(dict(G=float(rng.uniform(0, 6)), xi=float(rng.uniform(-4, 4)),
                                delta1=float(rng.uniform(-0.78, 0.78)),
                                delta2=float(rng.uniform(-0.78, 0.78)), **losses),
                           id=f"drawn{i}")


def _bits(stats):
    return np.array(dataclasses.astuple(stats)).tobytes()


# Each case sets fields over the base device: losses, and at the edges also
# the gain, the pump phase's signed zero or the imbalances.
@pytest.mark.parametrize("losses", [
    dict(alpha1=0.13), dict(beta2=0.21), dict(beta1=0.04, alpha2=0.09),
    dict(alpha1=0.05, beta1=0.05, alpha2=0.08, beta2=0.08),
    dict(alpha1=0.02, beta1=0.11, alpha2=np.pi / 2, beta2=0.3),
    dict(alpha1=np.pi / 2), dict(beta1=np.pi / 2),
    dict(alpha2=np.pi / 2), dict(beta2=np.pi / 2),
    dict(G=0.0, xi=0.0, alpha1=0.1, beta2=0.2), dict(G=0.0, xi=-0.0, alpha1=0.1, beta2=0.2),
    dict(G=0.0, xi=-0.0), dict(delta1=0.78, delta2=-0.78, beta1=0.3),
    dict(delta1=-0.78, delta2=0.78, alpha2=0.3), *_drawn_devices(6),
])
def test_output_state_matches_per_mode_loss_chain(losses):
    # the chain's loss steps agree with the per-mode chain, one mode at a
    # time, within the rows' roundoff, and the phase model reads the chain's
    # output to roundoff
    cfg = InterferometerConfig(**{**dict(G=1.7, xi=0.6, delta1=0.04, delta2=-0.23), **losses})
    _assert_rows_within_roundoff(
        cfg, lambda f, a0, a1: lose_one_mode(lose_one_mode(f, 0, a0), 1, a1))
    for phi in (0.0, -0.0, 1.1, np.pi / 2, 4.0):
        _assert_reads_within_roundoff(evaluate(cfg, phi), reference_output_state(cfg, phi))


def _assert_rows_within_roundoff(cfg, station):
    """The device's rows against the public builders' chain with the loss
    step `station`, which gives each lossy mode two noise columns and a
    lossless one none.  The model's columns that chain lacks are +0.0, and
    each of the others is within 10 u (u = eps / 2) of it, relative to the
    entry's scale: the same chain of the element matrices' magnitudes.  Both
    chains form each term from the same rounded squeezer entries by one
    product per step (preparation loss, B1, arm loss, B2) and one sum (B1's
    two terms), 5 roundings of at most u each, so each is within 5 u of the
    exact entry and the two within 10 u of each other."""
    rows, kept = cfg._model[0].reshape(3, 2, 12), _kept_columns(cfg)
    dropped = np.delete(rows, kept, axis=2)
    assert not np.any(dropped) and not np.any(np.signbit(dropped)), cfg
    want = reference_model(cfg, station)[0].reshape(3, 2, -1)
    assert np.all(np.abs(rows[:, :, kept] - want) <= 10 * (_EPS / 2) * _row_scale(cfg)), cfg


def _kept_columns(cfg):
    """The model's factor columns that the public builders' chain keeps: the
    squeezer's 4, then each lossy mode's two noise columns."""
    lossy = [a != 0.0 for a in (cfg.alpha1, cfg.beta1, cfg.alpha2, cfg.beta2)]
    return [*range(4), *(4 + 2 * m + j for m in range(4) if lossy[m] for j in (0, 1))]


def _row_scale(cfg):
    """Each kept row entry's scale, (3, 2, k): the sum of its terms'
    magnitudes, from the public builders' chain of the elements' |entries|."""
    return np.abs(reference_model(cfg, reference_station, np.abs)[0].reshape(3, 2, -1))


@pytest.mark.parametrize("losses", [
    {}, dict(alpha1=0.13), dict(beta1=0.21), dict(alpha2=0.3), dict(beta2=np.pi / 2),
    dict(alpha1=0.1, beta1=0.2), dict(alpha2=0.05, beta2=np.pi / 2),
    dict(alpha1=0.1, beta1=0.2, alpha2=0.05, beta2=0.3), dict(alpha1=0.1, beta2=0.3),
    dict(beta1=0.2, alpha2=0.05, beta2=0.3), dict(alpha1=-0.0, beta1=-0.0, alpha2=-0.0),
    dict(alpha1=-0.0, beta1=0.2, alpha2=0.05, beta2=-0.0),
])
def test_station_shapes_follow_the_lossy_modes(losses):
    # every model has the same 12 factor columns; each lossy mode fills its
    # two noise columns, and a lossless one, signed zeros included, leaves
    # them +0.0 in every row
    cfg = InterferometerConfig(G=1.3, **losses)
    rows = cfg._model[0]
    assert rows.shape == (3, 24)
    noise = rows.reshape(6, 12)[:, 4:].reshape(6, 4, 2)
    for m, angle in enumerate((cfg.alpha1, cfg.beta1, cfg.alpha2, cfg.beta2)):
        assert np.any(noise[:, m]) == (angle != 0.0), (cfg, m)
    assert not np.any(np.signbit(noise[noise == 0.0]))


def test_stations_follow_the_device():
    # each device builds its own phase model: a changed device never reuses
    # the model its parent filled, and copies evaluate like the original
    base = InterferometerConfig(G=1.3, xi=0.4, alpha1=0.1, beta2=0.2,
                                delta1=0.05, delta2=-0.1)
    twin = InterferometerConfig(**dataclasses.asdict(base))
    faces = (base == twin, hash(base), repr(base), dataclasses.asdict(base))
    phis = (0.0, 1.1, np.pi / 2, 4.0)
    seen = [_bits(evaluate(base, phi)) for phi in phis]
    assert "_model" in vars(base) and "_model" not in vars(twin)
    rows, photons = base._model
    assert rows.shape == (3, 24) and photons == evaluate(base, 0.3).mean_photons
    with pytest.raises(ValueError):
        rows[0, 0] = 2.0
    assert (base == twin, hash(base), repr(base), dataclasses.asdict(base)) == faces
    for change in (dict(alpha2=0.3), dict(delta2=0.2), dict(beta1=0.07), dict(xi=-0.9),
                   dict(delta1=-0.3, alpha1=0.0, beta2=0.0)):
        moved = dataclasses.replace(base, **change)
        fresh = InterferometerConfig(**{**dataclasses.asdict(base), **change})
        for phi, old in zip(phis, seen):
            got = _bits(evaluate(moved, phi))
            assert got == _bits(evaluate(fresh, phi)), (change, phi)
            assert got != old, (change, phi)
    for other in (copy.copy(base), pickle.loads(pickle.dumps(base)),
                  copy.copy(twin), pickle.loads(pickle.dumps(twin))):
        assert other == base
        assert [_bits(evaluate(other, phi)) for phi in phis] == seen


def _assert_reads_within_roundoff(got, cov):
    """The phase model's statistics against the public moment readers of a
    reference covariance, each within 1e-12 (1 + N)."""
    n = mean_photon_number(cov)
    want = SignalStats(mean=product_mean(cov), second_moment=product_second_moment(cov),
                       sigma=product_sigma(cov), mean_photons=n)
    for field in ("mean", "sigma", "mean_photons"):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12 * (1 + n), field
    assert abs(got.second_moment - want.second_moment) <= 1e-12 * (1 + n) ** 2


def _model_devices(count, max_loss=np.pi / 2):
    """Seeded devices, lossy, imbalanced and pumped, plus the edges: no gain,
    full losses, imbalances near pi/4 and both signed zeros of the pump phase."""
    rng = np.random.default_rng(2626)
    edges = [dict(G=0.0), dict(G=0.0, xi=-0.0, alpha1=0.2, beta2=0.4),
             dict(G=1.1, xi=-0.0), dict(G=1.1, xi=0.0), dict(G=2.3, xi=2.9, beta1=np.pi / 2),
             dict(G=1.7, alpha1=np.pi / 2, alpha2=np.pi / 2),
             dict(G=0.8, xi=-1.3, delta1=0.785, delta2=-0.785, beta2=np.pi / 2),
             dict(G=3.5, delta1=-0.785, delta2=0.785, alpha2=0.3, beta1=0.1)]
    drawn = [dict(G=rng.uniform(0, 6), xi=rng.uniform(-4, 4),
                  delta1=rng.uniform(-0.785, 0.785), delta2=rng.uniform(-0.785, 0.785),
                  **{name: rng.uniform(0, max_loss) if rng.uniform() > 1 / 3 else 0.0
                     for name in ("alpha1", "beta1", "alpha2", "beta2")})
             for _ in range(count)]
    return [InterferometerConfig(**{k: float(v) for k, v in d.items()}) for d in edges + drawn]


def test_evaluate_matches_the_reference_chain_within_roundoff():
    phis = [*np.linspace(-np.pi, 3 * np.pi, 17), 0.0, -0.0, np.pi / 2, 1e-9]
    for cfg in _model_devices(100):
        for phi in phis:
            _assert_reads_within_roundoff(evaluate(cfg, float(phi)),
                                          reference_output_state(cfg, float(phi)))


def test_modified_never_below_standard_at_the_quietest_point():
    # at the lowest noise on the circle sigma(phi + d) >= sigma(phi), so the
    # modified root 2 |s| d = sigma(phi) + sigma(phi + d) is at least sigma / |s|
    grid = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    solved = 0
    for cfg in _model_devices(40, max_loss=0.3):
        start = min(grid, key=lambda p: evaluate(cfg, float(p)).sigma)
        phi = refine_working_point(cfg, float(start))
        mod, std = modified_resolution(cfg, phi), standard_resolution(cfg, phi)
        if mod.converged and std.converged:
            solved += 1
            assert mod.delta_phi >= std.delta_phi * (1 - 1e-12), cfg
    assert solved >= 20


def test_ideal_dark_fringe_noise_holds_the_vacuum_level_to_roundoff():
    eps = np.finfo(float).eps
    for G in np.linspace(0.5, 10.3, 50):
        stats = evaluate(InterferometerConfig(G=float(G)), np.pi / 2)
        assert abs(stats.sigma - 1.0) <= eps * (1 + stats.mean_photons), G


def test_arm_loss_commutes_with_phase():
    # applying the arm loss before or after the phase shifter is identical
    cfg = InterferometerConfig(G=1.2, alpha2=0.1, beta2=0.07, delta1=0.05)
    phi = 0.9
    state = vacuum_state()
    state = apply_symplectic(state, two_mode_squeezer(cfg.G, cfg.xi))
    state = apply_symplectic(state, beam_splitter(BsSpec("B1", cfg.delta1)))
    a = apply_symplectic(state, phase_shifter(phi))
    a = apply_loss(apply_loss(a, 0, cfg.alpha2), 1, cfg.beta2)
    b = apply_loss(apply_loss(state, 0, cfg.alpha2), 1, cfg.beta2)
    b = apply_symplectic(b, phase_shifter(phi))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    a = apply_symplectic(a, beam_splitter(BsSpec("B2", 0.0)))
    pipeline = reference_output_state(cfg, phi)
    np.testing.assert_allclose(pipeline, a, rtol=0, atol=1e-12)


def test_symmetric_prep_loss_equals_symmetric_arm_loss():
    # equal loss on both modes, C -> cos^2 C + sin^2 I, commutes with every
    # passive map, so it may sit before B1 or in the arms; one-sided loss
    # does not commute and must give a different device
    base = dict(G=1.3, xi=0.4, delta1=0.03, delta2=-0.1)
    phis = np.linspace(0, 2 * np.pi, 50, endpoint=False)
    for loss in (0.02, 0.1, 0.4):
        prep = InterferometerConfig.with_symmetric_loss(prep=loss, **base)
        arm = InterferometerConfig.with_symmetric_loss(arm=loss, **base)
        for phi in phis:
            a, b = evaluate(prep, float(phi)), evaluate(arm, float(phi))
            for field in ("mean", "second_moment", "sigma", "mean_photons"):
                got, want = getattr(a, field), getattr(b, field)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (loss, phi, field)
    # balanced device at high gain, dark fringe included: the engine's noise
    # keeps its relative precision (the mean, near its zero crossing, is only
    # good to eps * N absolute)
    for G in (8.0, 12.0):
        prep = InterferometerConfig.with_symmetric_loss(G, prep=np.pi / 300)
        arm = InterferometerConfig.with_symmetric_loss(G, arm=np.pi / 300)
        for phi in [*phis, np.pi / 2]:
            a, b = evaluate(prep, float(phi)), evaluate(arm, float(phi))
            for field in ("second_moment", "sigma"):
                got, want = getattr(a, field), getattr(b, field)
                assert got == pytest.approx(want, rel=1e-12), (G, phi, field)
    prep = InterferometerConfig(alpha1=0.1, **base)
    arm = InterferometerConfig(alpha2=0.1, **base)
    gap = max(abs(evaluate(prep, float(p)).sigma - evaluate(arm, float(p)).sigma)
              for p in phis)
    assert gap > 1e-2


def test_slope_matches_analytic_derivative():
    # d<P>/dphi = 2 sinh G cosh G cos(2 phi) for the ideal device
    for G in (0.25, 1.0, 2.5, 3.0):
        for phi in (0.0, 0.4, np.pi / 2, 2.0):
            got = signal_slope(InterferometerConfig(G=G), phi)
            want = 2 * np.sinh(G) * np.cosh(G) * np.cos(2 * phi)
            assert got == pytest.approx(want, abs=1e-8 * max(1.0, abs(want)))
    # one-sided preparation loss adds a first harmonic, <P> = D sin(phi)
    # + kappa sin(2 phi) (derived in the tests/test_acceptance.py docstring)
    alpha = 0.3
    for G in (0.25, 1.0, 2.5, 3.0):
        d = -np.sin(alpha) ** 2 * np.sinh(G) ** 2
        kappa = np.cos(alpha) * np.sinh(G) * np.cosh(G)
        for phi in (0.0, 0.4, np.pi / 2, 2.0):
            got = signal_slope(InterferometerConfig(G=G, alpha1=alpha), phi)
            want = d * np.cos(phi) + 2 * kappa * np.cos(2 * phi)
            assert got == pytest.approx(want, abs=1e-13 * max(1.0, abs(want)))


def test_slope_exact_at_large_phases():
    # the slope reads R' at phi itself: no shifted phase rounds, so it keeps
    # roundoff of eps (1 + N) at any phase (the four-point identity erred by
    # up to 78,000 times that at phi = 1e6)
    for G in (0.25, 1.0, 3.0, 8.0):
        cfg = InterferometerConfig(G=G)
        n = evaluate(cfg, 0.0).mean_photons
        for phi in (1e6, -12345.678, 100.0, np.pi / 2, 0.4):
            want = 2 * math.sinh(G) * math.cosh(G) * math.cos(2 * phi)
            assert abs(signal_slope(cfg, phi) - want) <= 2 * _EPS * (1 + n), (G, phi)


def _slope_devices(count):
    """Seeded devices with G = 0 a tenth of the time and up to 12 otherwise,
    each station's loss 0, -0.0, pi/2 or drawn, |delta| up to 0.785."""
    rng = np.random.default_rng(2929)

    def loss():
        return (0.0, -0.0, np.pi / 2, float(rng.uniform(0, np.pi / 2)))[rng.integers(0, 4)]

    return [InterferometerConfig(
        G=0.0 if rng.uniform() < 0.1 else float(rng.uniform(0, 12)),
        xi=float(rng.uniform(-4, 4)), delta1=float(rng.uniform(-0.785, 0.785)),
        delta2=float(rng.uniform(-0.785, 0.785)),
        alpha1=loss(), beta1=loss(), alpha2=loss(), beta2=loss()) for _ in range(count)]


def test_slope_matches_four_point_identity():
    # the analytic slope against the harmonic identity over four evaluate
    # means, for |phi| <= 2 pi (measured worst 3.9 eps (1 + N))
    rng = np.random.default_rng(3030)
    for cfg in _slope_devices(1000):
        n = evaluate(cfg, 0.0).mean_photons
        for phi in (np.pi / 2, -0.0, float(rng.uniform(-2 * np.pi, 2 * np.pi))):
            got, want = signal_slope(cfg, phi), four_point_slope(cfg, phi)
            assert type(got) is float
            assert abs(got - want) <= 8 * _EPS * (1 + n), (cfg, phi)


def test_phase_jet_matches_the_ideal_closed_forms():
    # sigma^2 = 1 + (3/2 + cos 2phi - cos(4phi)/2) h, h = N^2/2 + N, so
    # f' = (2 sin 4phi - 2 sin 2phi) h and f'' = (8 cos 4phi - 4 cos 2phi) h,
    # each within its roundoff, 64 eps (1 + N)^2 (measured worst 6.9 for f'
    # and 24.5 for f'', at G = 0.01, where terms of order 1 cancel)
    rng = np.random.default_rng(4141)
    for G in 10.0 ** rng.uniform(-2.0, math.log10(8.0), 40):
        cfg = InterferometerConfig(G=float(G))
        rows, n = cfg._model
        h = n * n / 2 + n
        for phi in (np.pi / 2, -0.0, *rng.uniform(-2 * np.pi, 2 * np.pi, 4).tolist()):
            d1, d2 = _jet(rows, phi)[2:]
            assert type(d1) is float and type(d2) is float
            tol = 64 * _EPS * (1 + n) ** 2
            assert abs(d1 - (2 * math.sin(4 * phi) - 2 * math.sin(2 * phi)) * h) <= tol, (G, phi)
            assert abs(d2 - (8 * math.cos(4 * phi) - 4 * math.cos(2 * phi)) * h) <= tol, (G, phi)


def test_phase_jet_matches_central_differences_of_evaluate():
    # on lossy, pumped, imbalanced devices the jet's f' and f'' against
    # central differences of evaluate's sigma^2 at step 1e-4, within 1e-6
    # (1 + N)^2: the differences' truncation, h^2 f'''/6 and h^2 f''''/12,
    # reaches 7.7e-8 and 3.2e-7 of it, while a wrong term in either
    # derivative moves it by order (1 + N)^2
    rng = np.random.default_rng(4242)
    for cfg in _model_devices(100):
        rows, n = cfg._model

        def f(p):
            return evaluate(cfg, p).sigma ** 2

        for phi in rng.uniform(-2 * np.pi, 2 * np.pi, 3).tolist():
            d1, d2 = _jet(rows, phi)[2:]
            h, f0 = 1e-4, f(phi)
            up, down = f(phi + h), f(phi - h)
            tol = 1e-6 * (1 + n) ** 2
            assert abs(d1 - (up - down) / (2 * h)) <= tol, (cfg, phi)
            assert abs(d2 - (up - 2 * f0 + down) / (h * h)) <= tol, (cfg, phi)


def test_field_jet_matches_central_differences_along_delta2():
    # the rows are linear in B2's (c2, s2) = (cos t, sin t), t = pi/4 + delta2,
    # so `_chain` with (c2, s2) -> (-s2, c2) gives d rows / d delta2, and
    # `_field_jet` d sigma^2 / d delta2 and d slope / d delta2 from it: held
    # against central differences of `_jet` at delta2 +/- h, with delta2 on
    # both sides of `_quarter_turn`'s pi/8 branch.  With S = 3 (|rows|^2 +
    # |drows|^2) in Frobenius norms, each detected row pair at any t and
    # phase, R or R', has |r0|^2 + |r1|^2 <= S (three terms of the phase sum,
    # and r(t') = cos(t' - t) r + sin(t' - t) q), so |sigma^2| <= S^2 / 2 and
    # |slope| <= S.  Both are trigonometric polynomials in t, of degree 4 and
    # 2, so by Bernstein's inequality the quotient's truncation,
    # h^2 |f'''| / 6, is at most 16/3 h^2 S^2 and 4/3 h^2 S.  Each Gram entry
    # errs by at most about 16 eps S (its 12-term dot, the 3-term phase sum
    # and the rows' own roundings), so sigma^2, the slope and the kernel's
    # derivatives err by at most 60 eps S^2 and 70 eps S, and each step
    # delta2 +/- h by an ulp of t: the quotient's roundoff stays below
    # 120 eps S^2 / h and 80 eps S / h.  At h = 1e-5 the two bounds are about
    # 3.2e-9 S^2 and 1.9e-9 S, while a wrong term moves either by order S^2
    # or S at a phase off the dark fringe
    rng = np.random.default_rng(5353)
    h, branch = 1e-5, np.pi / 8
    for base in _model_devices(40, max_loss=0.3):
        for delta2 in (rng.uniform(-branch + h, branch - h),
                       rng.choice((-1.0, 1.0)) * rng.uniform(branch + h, 0.78 - h)):
            cfg = dataclasses.replace(base, delta2=float(delta2))
            *head, c2, s2 = cfg._entries()
            rows = cfg._model[0]
            drows = _chain(*head, -s2, c2)[0].reshape(3, -1)
            scale = 3.0 * float(np.sum(rows * rows) + np.sum(drows * drows))
            tol_f = (16 / 3 * h * h + 120 * _EPS / h) * scale * scale
            tol_s = (4 / 3 * h * h + 80 * _EPS / h) * scale
            up, down = (dataclasses.replace(cfg, delta2=cfg.delta2 + step)._model[0]
                        for step in (h, -h))
            for phi in (np.pi / 2, *rng.uniform(-np.pi, np.pi, 2).tolist()):
                sigma, _, dsigma, dslope = _field_jet(rows, drows, phi)
                (s_up, slope_up), (s_down, slope_down) = _jet(up, phi)[:2], _jet(down, phi)[:2]
                df = (s_up * s_up - s_down * s_down) / (2 * h)
                assert abs(2 * sigma * dsigma - df) <= tol_f, (cfg, phi)
                assert abs(dslope - (slope_up - slope_down) / (2 * h)) <= tol_s, (cfg, phi)


def test_mean_photons_independent_of_phase():
    # the device reads its photon number once, so every phase returns its bits
    for cfg in (InterferometerConfig(G=1.5, alpha1=0.1, beta1=0.05, alpha2=0.2,
                                     beta2=0.15, delta1=0.1, delta2=-0.2),
                *_model_devices(40)):
        values = {evaluate(cfg, float(phi)).mean_photons.hex()
                  for phi in (*np.linspace(0, 2 * np.pi, 25), 0.7, 2.2)}
        assert len(values) == 1, cfg
        # and phi = -0.0 evaluates as phi = 0.0, signed zeros included
        assert _bits(evaluate(cfg, -0.0)) == _bits(evaluate(cfg, 0.0)), cfg


def test_lossless_pipeline_conserves_photons():
    for G in (0.5, 2.0):
        cfg = InterferometerConfig(G=G, delta1=0.2, delta2=-0.1)
        n = evaluate(cfg, 1.3).mean_photons
        assert n == pytest.approx(2 * np.sinh(G) ** 2, abs=1e-12 * max(1, n))


def test_symmetric_loss_constructor():
    cfg = InterferometerConfig.with_symmetric_loss(G=1.0, prep=0.02, arm=0.03, delta2=0.1)
    assert (cfg.alpha1, cfg.beta1, cfg.alpha2, cfg.beta2) == (0.02, 0.02, 0.03, 0.03)
    assert cfg.delta2 == 0.1


@pytest.mark.parametrize("field, bad", [
    ("G", np.nan), ("G", np.inf), ("G", -0.1),
    ("xi", np.nan), ("xi", -np.inf),
    ("alpha1", -0.01), ("beta1", np.pi / 2 + 0.01), ("alpha2", np.nan), ("beta2", np.inf),
    ("delta1", np.pi / 4), ("delta2", -0.8), ("delta2", np.nan),
    ("G", "1"), ("G", None), ("G", 1 + 0j), ("G", True), ("xi", False), ("beta2", [0.1]),
    pytest.param("G", 10**400, id="G-int-beyond-float"),
    pytest.param("xi", -10**400, id="xi-int-beyond-float"),
])
def test_config_rejects_invalid_fields(field, bad):
    fields = {"G": 1.0, field: bad}
    with pytest.raises(ValueError, match=field):
        InterferometerConfig(**fields)
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(InterferometerConfig(G=1.0), **{field: bad})


def test_evaluate_refuses_non_finite_phase():
    cfg = InterferometerConfig(G=1.0, alpha2=0.1)
    for phi in (math.nan, math.inf, -math.inf):
        for read in (evaluate, signal_slope):
            with pytest.raises(ValueError, match="phase phi must be finite"):
                read(cfg, phi)


def test_grid_rows_equal_evaluate_bit_for_bit():
    # row i of the batched grid is evaluate at phis[i], every bit, on the
    # edge devices (no gain, full and signed-zero losses, |delta| at 0.785,
    # both zeros of xi) and seeded ones, at the signed zeros, pi/2 and 1e6
    grid = np.linspace(0.0, 2 * np.pi, 1000, endpoint=False).tolist()
    phis = [-0.0, 0.0, np.pi / 2, 1e6, -2.5, *grid]
    signed_zero_losses = InterferometerConfig(G=1.4, xi=0.3, alpha1=-0.0, beta1=0.2,
                                              alpha2=-0.0, beta2=-0.0, delta1=0.1)
    for cfg in (signed_zero_losses, *_model_devices(30)):
        mean, m2, sigma, photons = _evaluate_grid(cfg, phis)
        got = [_bits(SignalStats(*row, photons))
               for row in zip(mean.tolist(), m2.tolist(), sigma.tolist())]
        assert got == [_bits(evaluate(cfg, phi)) for phi in phis], cfg
    # the stacked form, as a sweep's lockstep reads it: every model stacked,
    # lossless and lossy alike, one phase each, and row i the scalar kernel
    # on model i
    rng = np.random.default_rng(3535)
    devices = [signed_zero_losses, *_model_devices(30), *_edge_devices(200)]
    assert {cfg.alpha1 != 0.0 for cfg in devices} == {False, True}
    models = [cfg._model[0] for cfg in devices]
    picks = [phis[i] for i in rng.integers(len(phis), size=len(models))]
    got = zip(*(column.tolist() for column in _batched_moments(np.array(models), picks)))
    want = [_moments(rows, phi) for rows, phi in zip(models, picks)]
    assert [tuple(map(float.hex, row)) for row in got] == \
        [tuple(map(float.hex, row)) for row in want]


def _edge_devices(count):
    """Seeded devices at the edges of every field: gain 0, the gain bound or
    drawn up to 177; each loss 0, -0.0, pi/2 or drawn; each |delta| 0.785 or
    drawn; a pump phase of either signed zero or drawn."""
    rng = np.random.default_rng(3030)

    def pick(edges, draw):
        k = rng.integers(len(edges) + 1)
        return edges[k] if k < len(edges) else draw

    for _ in range(count):
        yield InterferometerConfig(
            G=pick((0.0, _G_MAX), rng.uniform(0.0, 177.0)),
            xi=pick((0.0, -0.0), rng.uniform(-4.0, 4.0)),
            **{name: pick((0.0, -0.0, np.pi / 2), rng.uniform(0.0, np.pi / 2))
               for name in ("alpha1", "beta1", "alpha2", "beta2")},
            **{name: pick((0.785, -0.785), rng.uniform(-0.785, 0.785))
               for name in ("delta1", "delta2")})


def test_model_stays_within_roundoff_of_the_public_builder_chain():
    # on 1000 edge devices the rows are within 10 u of the public builders'
    # chain, each against its entry's scale, as `_assert_rows_within_roundoff`
    # derives (measured worst 3.9 u; 669 of the devices agree bit for bit),
    # and every zero in them is +0.0; the photon number is a closed
    # form, checked below against the chain's trace and against a 60-digit
    # evaluation
    devices = list(_edge_devices(1000))
    seen = {(k, float(v).hex()) for cfg in devices for k, v in dataclasses.asdict(cfg).items()}
    for name, edge in (("G", 0.0), ("G", _G_MAX), ("xi", -0.0), ("alpha1", -0.0),
                       ("beta2", np.pi / 2), ("delta1", 0.785), ("delta2", -0.785)):
        assert (name, edge.hex()) in seen, (name, edge)
    for cfg in devices:
        _assert_rows_within_roundoff(cfg, reference_station)
        rows = cfg._model[0]
        assert not np.any(np.signbit(rows[rows == 0.0])), cfg


def test_the_chain_runs_on_decimal_entries(monkeypatch):
    # the one chain runs as is on `decimal.Decimal` entries, the exact values
    # of a device's float entries, at 40 digits: within roundoff of the exact
    # rows, which the float rows are within 6 u of, against each entry's
    # scale (5 roundings per term as in `_assert_rows_within_roundoff`, and
    # one more for the squeezer's sinh G sin xi or cos xi), and N within
    # `_photons`' 9 u (measured worst 2.3 u and 3.6 u)
    chain, calls = interferometer._chain, []
    monkeypatch.setattr(interferometer, "_chain", lambda *e: calls.append(e) or chain(*e))
    with localcontext() as ctx:
        ctx.prec = 40
        for cfg in _edge_devices(60):
            rows, photons = cfg._model
            exact_rows, exact_photons = chain(*map(Decimal, calls.pop()))
            exact_rows = exact_rows.reshape(3, 2, 12)
            kept = _kept_columns(cfg)
            assert not np.any(np.delete(exact_rows, kept, axis=2)), cfg
            rows = np.frompyfunc(Decimal, 1, 1)(rows).reshape(3, 2, 12)
            error = np.abs(rows[:, :, kept] - exact_rows[:, :, kept])
            assert np.all(error.astype(float) <= 6 * (_EPS / 2) * _row_scale(cfg)), cfg
            assert abs(Decimal(photons) - exact_photons) <= Decimal(9 * _EPS / 2) * exact_photons


def _seeded_devices(rng, count, gain):
    """count seeded devices, each gain from gain() and every other field drawn
    over its whole range or set at its edge: each loss 0, pi/2 or drawn,
    each |delta| up to 0.785."""
    for _ in range(count):
        losses = [a if rng.uniform() < 0.8 else float(rng.choice((0.0, np.pi / 2)))
                  for a in rng.uniform(0.0, np.pi / 2, 4).tolist()]
        yield InterferometerConfig(gain(), rng.uniform(-4.0, 4.0), *losses,
                                   *rng.uniform(-0.785, 0.785, 2).tolist())


def test_photons_match_the_decimal_closed_form():
    # N is `_photons` of rounded inputs: within its nine roundings, 9 u
    # (u = eps/2), of the closed form at those inputs.  Each input rounds
    # once, by u (correctly rounded sinh and cos), which a square doubles:
    # 8 u over the four factors of a term.  For |delta1| <= pi/8, c1, s1 are
    # cos, sin of theta = fl(pi/4 + delta1), within (theta + 0.28) u of the
    # exact sum (math.pi/4 is 0.28 u off), which c1^2 or s1^2 amplifies by
    # 2 tan or 2 cot theta, at most 7.1 u; beyond it they are read from the
    # complement pi/4 - |delta1|, formed exactly and rounded once, which adds
    # at most 2 u.  So N is within 17 u and that term of the closed form at
    # 60 digits from the exact fields (measured worst 0.28 of it), at every
    # gain down to 1e-300, plus, below G ~ 1.5e-154, the subnormal rounding
    # of sinh^2 G (at most 2 ulp(0) once the bracket, at most 2, scales it).
    rng = np.random.default_rng(4040)
    devices = [*_seeded_devices(rng, 3000, lambda: 10.0 ** rng.uniform(-300.0, math.log10(8.0))),
               InterferometerConfig(G=0.0, alpha2=0.5), InterferometerConfig(G=1e-300)]
    for cfg in devices:
        n, want = cfg._model[1], decimal_photons(cfg)
        theta = math.pi / 4 + cfg.delta1
        units = 17.0 + (2.0 * max(math.tan(theta), 1.0 / math.tan(theta)) * (theta + 0.28)
                        if abs(cfg.delta1) <= math.pi / 8 else 2.0)
        assert type(n) is float and n >= 0.0, cfg
        assert abs(Decimal(n) - want) <= Decimal(units * _EPS / 2) * want + 2 * Decimal(5e-324), cfg


def test_photons_keep_their_digits_next_to_pi_over_4():
    # one ulp inside |delta1| = pi/4, B1's small entry is about 1e-16, and on
    # a device whose N is that entry squared, fl(pi/4 + delta1) put N 59% low;
    # the complement pi/4 - |delta1|, formed exactly, keeps it within 4 eps
    # (measured worst 1.6 eps over gains 1e-3 to 5 and |delta1| down to 0.39)
    inside = math.nextafter(math.pi / 4, 0.0)
    for magnitude in (inside, math.pi / 4 - 1e-12, 0.785, 0.6, math.nextafter(math.pi / 8, 1.0)):
        for sign, losses in ((1.0, {"beta1": np.pi / 2, "beta2": np.pi / 2}),
                             (-1.0, {"alpha1": np.pi / 2, "beta2": np.pi / 2})):
            for G in (1e-3, 1.0, 5.0):
                cfg = InterferometerConfig(G=G, delta1=sign * magnitude, **losses)
                n, want = cfg._model[1], decimal_photons(cfg)
                assert abs(Decimal(n) - want) <= Decimal(4 * _EPS) * want, cfg
    cfg = InterferometerConfig(G=1.0, delta1=inside, beta1=np.pi / 2, beta2=np.pi / 2)
    assert cfg._model[1] == pytest.approx(3.80634098924733e-32, rel=1e-14)


def test_photons_match_the_output_covariance_trace():
    # the trace rule, (trace C - 4) / 4 of the public chain's output
    # covariance, agrees with the closed form to its absolute roundoff
    rng = np.random.default_rng(4141)
    for cfg in _seeded_devices(rng, 3000, lambda: rng.uniform(0.0, 8.0)):
        n, trace_n = cfg._model[1], reference_model(cfg)[1]
        assert abs(n - trace_n) <= 4.5 * _EPS * (1.0 + n), cfg


def _sweep_families():
    """Seeded devices in sweep families: each sweep parameter over a grid
    from its lower edge to its upper one, G to the gain bound, each loss from
    0 through -0.0 to pi/2 and each imbalance one ulp inside pi/4 at both
    ends, on lossless and lossy bases."""
    inside = math.nextafter(math.pi / 4, 0.0)
    grids = {"G": [0.0, 0.3, 2.0, 40.0, _G_MAX], "delta1": [-inside, -0.3, 0.0, 0.5, inside]}
    grids["delta2"] = grids["delta1"]
    rng = np.random.default_rng(3636)
    bases = [InterferometerConfig(G=2.0), InterferometerConfig(G=0.0, xi=-0.0)]
    for _ in range(4):
        losses = [x if rng.uniform() < 0.5 else 0.0 for x in rng.uniform(0.0, 0.3, 4).tolist()]
        bases.append(InterferometerConfig(
            G=rng.uniform(0.0, 12.0), xi=rng.uniform(-4.0, 4.0), alpha1=losses[0],
            beta1=losses[1], alpha2=losses[2], beta2=losses[3],
            delta1=rng.uniform(-0.7, 0.7), delta2=rng.uniform(-0.7, 0.7)))
    for base in bases:
        for parameter in SWEEP_PARAMETERS:
            for value in grids.get(parameter, [0.0, -0.0, 0.1, 1.0, np.pi / 2]):
                yield apply_parameter(base, parameter, value)


def test_one_chain_gives_floats_and_arrays_the_same_bits():
    # `_models` runs `_model`'s one chain on arrays: in one call over edge
    # fields (gain 0 and the bound, losses of -0.0 and pi/2, |delta| one ulp
    # inside pi/4) and every sweep parameter's family, lossless and lossy
    # devices mixed, each device's rows equal its own model's byte for byte,
    # every zero +0.0, and its photon number by hex
    devices = [*_sweep_families(), *_edge_devices(400)]
    fields = {f.name: [getattr(cfg, f.name) for cfg in devices]
              for f in dataclasses.fields(InterferometerConfig)}
    assert {cfg.alpha2 != 0.0 for cfg in devices} == {False, True}
    rows, photons = _models(**fields)
    assert rows.shape == (len(devices), 3, 24) and photons.shape == (len(devices),)
    assert not np.any(np.signbit(rows[rows == 0.0]))
    for cfg, model, n in zip(devices, rows, photons.tolist()):
        want_rows, want_photons = cfg._model
        assert model.tobytes() == want_rows.tobytes(), cfg
        assert n.hex() == want_photons.hex(), cfg
    # the batched jet, of the whole stack and of each row as a stack of one,
    # gives each device's own `_jet` sigma and slope by hex, at the signed
    # zeros, pi/2, pi/4 and off the fringes
    rng = np.random.default_rng(3737)
    for phi in [-0.0, 0.0, np.pi / 2, np.pi / 4, 1e6, *rng.uniform(-7.0, 7.0, 3).tolist()]:
        want = [tuple(map(float.hex, _jet(cfg._model[0], phi)[:2])) for cfg in devices]
        stack = zip(*(column.tolist() for column in _batched_jet(rows, phi)))
        assert [tuple(map(float.hex, row)) for row in stack] == want, phi
        ones = [_batched_jet(rows[i:i + 1], phi) for i in range(len(devices))]
        assert [(sigma[0].hex(), slope[0].hex()) for sigma, slope in ones] == want, phi


def test_kernel_variance_is_never_negative():
    # C00 C11 >= 0, and rounding is monotone, so m2 = C00 C11 + 2 C01^2 rounds
    # to no less than m1 * m1 does: the variance is >= 0 with no floor, and
    # sigma is its plain square root, exactly, with no tolerance
    phis = [-0.0, 0.0, np.pi / 2, 1e6, -2.5,
            *np.linspace(0.0, 2 * np.pi, 200, endpoint=False).tolist()]
    devices = [InterferometerConfig(G=_G_MAX), InterferometerConfig(G=_G_MAX, alpha2=np.pi / 2),
               *_edge_devices(200)]
    for cfg in devices:
        rows = cfg._model[0]
        for phi in phis:
            m1, m2, sigma = _moments(rows, phi)
            var = m2 - m1 * m1
            assert var >= 0.0 and sigma.hex() == math.sqrt(var).hex(), (cfg, phi)
        m1, m2, sigma, _ = _evaluate_grid(cfg, phis)
        var = m2 - m1 * m1
        assert (var >= 0.0).all() and sigma.tobytes() == np.sqrt(var).tobytes(), cfg


def test_jet_sigma_is_the_moment_kernels_within_summation_roundoff():
    # the jet and the moment kernel form the same R, each entry by the same
    # three-term sum a + cos(phi) u + sin(phi) v, and differ only in their
    # Grams: `_moments`' R R^T and the jet's first four rows of the 6 x 6 Gram
    # may sum each 12-term product of two rows in another order.  In any
    # order a k-term dot errs by at most gamma_k = k u / (1 - k u), u = eps / 2,
    # of the sum of its terms' magnitudes (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., sec. 3.1): C00 and C22 by 12 u relative,
    # and C02 by 12 u sqrt(C00 C22), by Cauchy-Schwarz.  With P = C00 C22 >=
    # C02^2, the variance is V = P + C02^2 >= P, and to first order in u the
    # kernels' shared steps fl(fl(P + fl(2 C02 C02)) - fl(C02 C02)) put the
    # rounded variance within 26 u P (C00, C22 and two roundings), 24 u P
    # (C02^2 from C02's error) and 5 u P (the squares, the sum) of V, plus one
    # more rounding: 56 u relative.  So each sigma is within 28 u + u = 29 u of
    # the exact one, the two within 58 u = 29 eps sigma of each other, and
    # sigma < 2 ulp(sigma) / eps makes that under 58 ulp; 60 covers the terms
    # of order u^2 (measured worst 8 ulp).  The jet's sigma is also finite and
    # >= 0 on every device, G = 0 and the gain bound included
    phis = [-0.0, 0.0, np.pi / 2, np.pi / 4, 1e6, -2.5,
            *np.linspace(0.0, 2 * np.pi, 20, endpoint=False).tolist()]
    devices = [*_model_devices(100), *_edge_devices(200), *_sweep_families()]
    seen = {(k, float(v).hex()) for cfg in devices for k, v in dataclasses.asdict(cfg).items()}
    inside = math.nextafter(math.pi / 4, 0.0)
    for name, edge in (("G", 0.0), ("G", _G_MAX), ("alpha2", np.pi / 2), ("delta1", inside),
                       ("delta2", -inside)):
        assert (name, edge.hex()) in seen, (name, edge)
    for cfg in devices:
        rows = cfg._model[0]
        for phi in phis:
            sigma, want = _jet(rows, phi)[0], _moments(rows, phi)[2]
            assert math.isfinite(sigma) and sigma >= 0.0, (cfg, phi)
            assert abs(sigma - want) <= 60 * math.ulp(want), (cfg, phi, sigma, want)


def _symmetry_devices(count):
    """Seeded lossy, imbalanced, pumped devices at any gain, each with five
    phases: G in [0.05, 12), |xi| <= 1, losses <= 0.3, |delta| <= 0.3."""
    rng = np.random.default_rng(3131)
    for _ in range(count):
        losses = rng.uniform(0.0, 0.3, size=4).tolist()
        delta1, delta2 = rng.uniform(-0.3, 0.3, size=2).tolist()
        cfg = InterferometerConfig(G=rng.uniform(0.05, 12.0), xi=rng.uniform(-1.0, 1.0),
                                   alpha1=losses[0], beta1=losses[1], alpha2=losses[2],
                                   beta2=losses[3], delta1=delta1, delta2=delta2)
        yield cfg, rng.uniform(-3.0, 3.0, size=5).tolist()


def test_model_symmetries_hold_at_any_gain():
    # exact symmetries of the device, cheap at gains the Fock oracle cannot
    # reach: mirroring the pump phase and the phase negates the mean, bit for
    # bit; B2 mirrored with the pump phase and the phase moved by pi negates
    # it; B1 mirrored with the preparation losses swapped and the phase moved
    # by pi keeps it.  The last two round differently, so they hold to a few eps
    for cfg, phis in _symmetry_devices(100):
        mirror = dataclasses.replace(cfg, xi=-cfg.xi)
        b2 = dataclasses.replace(cfg, delta2=-cfg.delta2, xi=cfg.xi + np.pi)
        b1 = dataclasses.replace(cfg, delta1=-cfg.delta1, alpha1=cfg.beta1, beta1=cfg.alpha1)
        for phi in phis:
            want = evaluate(cfg, phi)
            got = evaluate(mirror, -phi)
            assert _bits(got) == _bits(dataclasses.replace(want, mean=-want.mean)), (cfg, phi)
            n = want.mean_photons
            for other, sign in ((b2, -1.0), (b1, 1.0)):
                got = evaluate(other, phi + np.pi)
                for a, b in ((sign * got.mean, want.mean), (got.sigma, want.sigma),
                             (got.mean_photons, n)):
                    assert abs(a - b) <= 16 * _EPS * (1 + n), (other, phi)
                assert (abs(got.second_moment - want.second_moment)
                        <= 64 * _EPS * (1 + n) ** 2), (other, phi)


def test_config_accepts_range_edges():
    InterferometerConfig(G=0.0, alpha1=np.pi / 2, beta2=0.0, delta1=0.785, delta2=-0.785)
    InterferometerConfig(G=np.float64(1.5), xi=2, alpha2=np.float64(0.1), delta1=0)


def test_statistics_stay_finite_at_the_gain_bound():
    # the bound is derived from the float range, ln(DBL_MAX / 3) / 4, not measured
    assert _G_MAX == pytest.approx(177.171, abs=1e-3)
    for cfg in (InterferometerConfig(G=_G_MAX),
                InterferometerConfig(G=_G_MAX, alpha1=0.3, beta2=0.2, delta1=0.1,
                                     delta2=-0.2)):
        for phi in np.linspace(0, 2 * np.pi, 1000, endpoint=False):
            stats = evaluate(cfg, float(phi))
            assert all(map(math.isfinite, dataclasses.astuple(stats))), (cfg, phi)


def test_gain_entry_points_refuse_gains_above_the_bound():
    above = math.nextafter(_G_MAX, math.inf)
    for call in (lambda: InterferometerConfig(G=above),
                 lambda: two_mode_squeezer(above, 0.0),
                 lambda: closed_form_reference(above, 0.3),
                 lambda: tail_cutoff(above),
                 lambda: ancilla_cutoff(above, 0.1)):
        with pytest.raises(ValueError, match="gain G must be at most 177.171"):
            call()
