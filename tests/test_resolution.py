"""Resolution criteria, sweeps, and the imbalance optimizer."""
import math

import numpy as np
import pytest

from squint import (
    InterferometerConfig,
    modified_resolution,
    optimize_delta2,
    refine_working_point,
    small_angle_root,
    standard_resolution,
    sweep,
)
from reference import bisection_resolution, detect_saturation


def photons(G):
    return 2 * np.sinh(G) ** 2


def test_standard_resolution_closed_form():
    # noise 1 over slope sqrt(N^2 + 2N) = 1/sinh(2G) at the working point
    for G in (0.5, 1.0, 2.5, 3.0):
        res = standard_resolution(InterferometerConfig(G=G))
        n = photons(G)
        assert res.converged
        assert res.delta_phi == pytest.approx(1 / np.sqrt(n * n + 2 * n), rel=1e-9)
        assert res.delta_phi == pytest.approx(1 / np.sinh(2 * G), rel=1e-9)


def test_standard_resolution_quoted_value():
    res = standard_resolution(InterferometerConfig(G=2.5))
    assert res.delta_phi == pytest.approx(0.013475, abs=2e-6)


def test_kappa_consistency():
    for G in (1.0, 3.0):
        for solver in (standard_resolution, modified_resolution):
            res = solver(InterferometerConfig(G=G, alpha2=0.01, beta2=0.01))
            assert res.kappa == pytest.approx(res.delta_phi * res.mean_N,
                                              abs=1e-12 * max(1, res.kappa))


def test_modified_residual_bound():
    from squint.interferometer import evaluate, signal_slope
    cfg = InterferometerConfig(G=3.0)
    res = modified_resolution(cfg)
    assert res.converged
    phi, d = res.working_point, res.delta_phi
    slope = abs(signal_slope(cfg, phi))
    rhs = (evaluate(cfg, phi).sigma + evaluate(cfg, phi + d).sigma) / (2 * slope)
    assert abs(d - rhs) <= 1e-12 * max(1.0, d)


def test_modified_never_below_standard():
    for cfg in (InterferometerConfig(G=1.0),
                InterferometerConfig(G=3.0),
                InterferometerConfig(G=2.0, alpha1=0.05, beta1=0.05),
                InterferometerConfig(G=2.0, alpha2=0.1, beta2=0.1),
                InterferometerConfig(G=4.0, delta1=0.001),
                InterferometerConfig(G=4.0, delta2=-0.2)):
        std = standard_resolution(cfg)
        mod = modified_resolution(cfg)
        assert std.converged and mod.converged
        assert mod.delta_phi >= std.delta_phi * (1 - 1e-12)


def test_fixed_point_and_bisection_agree():
    # the Illinois solver against plain bisection, the reference
    for cfg in (InterferometerConfig(G=1.0),
                InterferometerConfig(G=3.0),
                InterferometerConfig(G=5.0),
                InterferometerConfig(G=3.0, alpha2=0.05, beta2=0.05),
                InterferometerConfig(G=4.0, delta2=-0.25)):
        got = modified_resolution(cfg)
        ref, evaluations = bisection_resolution(cfg)
        assert got.converged and ref is not None
        assert got.delta_phi == pytest.approx(ref, rel=1e-10)
        assert got.iterations < evaluations / 3  # superlinear, not halving
    # no root in (0, pi/2]: both must say so rather than report one
    cfg = InterferometerConfig(G=5.0, delta2=0.5)
    res = modified_resolution(cfg)
    assert not res.converged and res.message
    assert bisection_resolution(cfg)[0] is None


def _ideal_modified_kappa(G):
    """Closed-form root of the ideal modified criterion at pi/2, as kappa.

    sigma(e)^2 = 1 + (2 sin^2 e + sin^2 2e)(N^2/2 + N) at offset e from the
    working point and slope sqrt(N^2 + 2N): no cancellation at any gain.
    """
    n = photons(G)
    half = n * n / 2 + n
    slope = math.sqrt(n * n + 2 * n)

    def excess(e):
        return 2 * slope * e - 1 - math.sqrt(
            1 + (2 * math.sin(e) ** 2 + math.sin(2 * e) ** 2) * half)

    lo, hi = 0.0, 8.0 / slope
    while excess(hi) <= 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) * n


def test_high_gain_converged_only_when_correct():
    for G in np.geomspace(0.5, 20, 40):
        res = modified_resolution(InterferometerConfig(G=float(G)))
        if res.converged:
            want = _ideal_modified_kappa(G)
            assert abs(res.kappa - want) <= 1e-6 * want, (G, res.kappa, want)
        else:
            assert G > 10 and res.message, G
    for G in (14.0, 16.0, 20.0):
        res = modified_resolution(InterferometerConfig(G=G))
        assert not res.converged and res.message, G


def test_scaled_resolution_asymptote():
    for G in (4.0, 5.0, 6.0):
        res = modified_resolution(InterferometerConfig(G=G))
        n = res.mean_N
        d = res.delta_phi * np.sqrt(n * n + 2 * n)
        assert abs(d - 4.0) <= 1e-3


def test_small_angle_root_is_exactly_four():
    d = small_angle_root()
    assert d == 4.0
    # the root satisfies the expanded criterion identically
    assert 2 * d - 1 - math.sqrt(1 + 3 * d * d) == 0.0


def test_one_sided_prep_loss_floors():
    # high-gain levels derived in the tests/test_acceptance.py docstring:
    # the modified criterion gives 2(sqrt2 + 1) sin^2(alpha) for loss on
    # mode 0 and 2(sqrt2 - 1) sin^2(alpha) on mode 1, the standard one
    # sin^2(alpha)/sqrt2 on either
    alpha = np.pi / 300
    r2 = np.sin(alpha) ** 2
    for mode, sign in (("alpha1", +1), ("beta1", -1)):
        cfg = InterferometerConfig(G=10.0, **{mode: alpha})
        mod, std = modified_resolution(cfg), standard_resolution(cfg)
        assert mod.converged and std.converged
        assert mod.delta_phi == pytest.approx(2 * (np.sqrt(2) + sign) * r2, rel=0.01)
        assert std.delta_phi == pytest.approx(r2 / np.sqrt(2), rel=0.01)


def test_zero_slope_reports_diagnostic():
    for solver in (standard_resolution, modified_resolution):
        res = solver(InterferometerConfig(G=0.0))
        assert not res.converged
        assert math.isinf(res.delta_phi)
        assert "slope" in res.message
    res = standard_resolution(InterferometerConfig(G=1.0), phi=np.pi / 4)
    assert not res.converged


def test_non_finite_working_point_raises():
    cfg = InterferometerConfig(G=1.0)
    for phi in (math.nan, math.inf, 10**400):
        for call in (lambda: standard_resolution(cfg, phi=phi),
                     lambda: modified_resolution(cfg, phi=phi),
                     lambda: sweep(cfg, "G", [1.0, 2.0], phi=phi),
                     lambda: optimize_delta2(InterferometerConfig(G=1.0), phi=phi),
                     lambda: refine_working_point(cfg, phi=phi)):
            with pytest.raises(ValueError, match="must be finite"):
                call()


def test_working_point_recorded():
    res = modified_resolution(InterferometerConfig(G=2.0), phi=np.pi / 2 + 0.01)
    assert res.working_point == pytest.approx(np.pi / 2 + 0.01)
    assert res.criterion == "modified"


def test_sweep_rows_ordered_and_complete():
    grid = np.linspace(1.0, 3.0, 7)
    table = sweep(InterferometerConfig(G=1.0), "G", grid)
    assert table.parameter == "G"
    assert len(table.rows) == 7
    params = [r.param for r in table.rows]
    assert params == sorted(params)
    assert len(set(params)) == len(params)
    assert all(r.converged for r in table.rows)
    assert all(r.G == r.param for r in table.rows)


def test_sweep_records_nonconvergence_and_continues():
    # delta2 near +pi/4 drives the solver past its bracket; the sweep must
    # keep that row with converged=False and still finish the grid
    table = sweep(InterferometerConfig(G=5.0), "delta2",
                  [-0.3, 0.0, 0.78])
    assert len(table.rows) == 3
    assert table.rows[0].converged and table.rows[1].converged
    assert not table.rows[2].converged
    assert math.isinf(table.rows[2].delta_phi)


def test_sweep_symmetric_shorthand_sets_both_modes():
    table = sweep(InterferometerConfig(G=2.0), "symmetric_alpha2", [0.0, 0.1],
                  criterion="standard")
    # loss on both arms costs more than the same loss on one arm
    one_sided = standard_resolution(InterferometerConfig(G=2.0, alpha2=0.1))
    assert table.rows[1].delta_phi > one_sided.delta_phi
    assert table.rows[1].mean_N < table.rows[0].mean_N


def test_sweep_symmetric_alpha1_sets_both_prep_losses():
    table = sweep(InterferometerConfig(G=2.0), "symmetric_alpha1", [0.0, 0.1],
                  criterion="standard")
    both = standard_resolution(InterferometerConfig(G=2.0, alpha1=0.1, beta1=0.1))
    one_sided = standard_resolution(InterferometerConfig(G=2.0, alpha1=0.1))
    assert (table.rows[1].delta_phi, table.rows[1].mean_N) == (both.delta_phi, both.mean_N)
    assert table.rows[1].mean_N < one_sided.mean_N


def test_sweep_validation():
    cfg = InterferometerConfig(G=1.0)
    with pytest.raises(ValueError):
        sweep(cfg, "nonsense", [1.0, 2.0])
    with pytest.raises(ValueError):
        sweep(cfg, "G", [2.0, 1.0])
    with pytest.raises(ValueError):
        sweep(cfg, "G", [1.0, 1.0])
    for bad in ("best", ["modified"]):
        with pytest.raises(ValueError, match="unknown criterion"):
            sweep(cfg, "G", [1.0, 2.0], criterion=bad)
    # each grid value must be a real number: no parsed strings, no bools
    with pytest.raises(ValueError, match="grid value must be a number"):
        sweep(cfg, "G", ["0.5", "1.0"])
    with pytest.raises(ValueError, match="grid value must be a number"):
        sweep(cfg, "G", [True, 2.0])


def test_detect_saturation():
    assert detect_saturation([5.0, 3.0, 1.0, 0.999, 1.001])[0]
    sat, tail = detect_saturation([5.0, 3.0, 2.0, 1.5, 1.0])
    assert not sat and tail == 1.0
    assert not detect_saturation([1.0, 1.0])[0]  # too short to call


def test_kappa_continuous_in_recombiner_imbalance():
    grid = np.linspace(-0.4, 0.2, 25)
    table = sweep(InterferometerConfig(G=4.0), "delta2", grid)
    kappas = np.array([r.kappa for r in table.rows])
    assert all(r.converged for r in table.rows)
    jumps = np.abs(np.diff(kappas))
    # no step jumps an order of magnitude beyond its neighbors' local scale
    local = np.minimum(jumps[:-1], jumps[1:])
    assert np.all(jumps[1:-1] <= 10 * np.maximum(local[:-1], local[1:]) + 1e-9)


def test_optimize_delta2_headline():
    opt = optimize_delta2(InterferometerConfig(G=5.0))
    assert opt.converged and opt.unimodal
    assert -0.245 <= opt.delta2 <= -0.230
    assert 2.70 <= opt.kappa <= 2.85
    # profile covers the scan and includes the balanced point's kappa ~ 4
    d2s = [d for d, _ in opt.profile]
    assert min(d2s) == pytest.approx(-0.78) and max(d2s) == pytest.approx(0.78)
    balanced = min(opt.profile, key=lambda t: abs(t[0]))
    assert balanced[1] == pytest.approx(4.0, abs=0.01)


def test_optimize_delta2_keeps_every_other_device_field():
    # arm loss moves the optimum; the given delta2 is the variable, not a start
    lossy = optimize_delta2(InterferometerConfig(G=3.0, alpha2=0.1))
    lossless = optimize_delta2(InterferometerConfig(G=3.0))
    assert lossy.converged and lossy.unimodal
    assert lossy.delta2 == pytest.approx(-0.3345, abs=1e-3)
    assert lossy.kappa == pytest.approx(3.821, abs=1e-3)
    assert lossy.kappa > lossless.kappa + 1.0
    assert optimize_delta2(InterferometerConfig(G=3.0, alpha2=0.1, delta2=0.3)) == lossy


def test_optimize_delta2_reports_failure_at_every_point():
    opt = optimize_delta2(InterferometerConfig(G=0.0))
    assert not opt.converged and not opt.unimodal
    assert opt.message == "resolution solver failed at every scan point"
    assert math.isnan(opt.delta2) and math.isnan(opt.kappa)
    assert len(opt.profile) == 33
    for bad in ("best", ["modified"]):
        with pytest.raises(ValueError, match="unknown criterion"):
            optimize_delta2(InterferometerConfig(G=0.0), criterion=bad)


def test_negative_third_imbalance_beats_balanced():
    res = modified_resolution(InterferometerConfig(G=5.0, delta2=-1 / 3))
    assert res.converged
    assert res.kappa < 4.0


def test_refine_working_point_ideal_stays_put():
    phi = refine_working_point(InterferometerConfig(G=2.0))
    assert phi == pytest.approx(np.pi / 2, abs=1e-6)


def test_refined_point_tracks_noise_minimum_under_imbalance():
    cfg = InterferometerConfig(G=2.0, delta1=0.05)
    from squint.interferometer import evaluate
    phi = refine_working_point(cfg)
    base = evaluate(cfg, phi).sigma
    for eps in (1e-3, 1e-2):
        assert evaluate(cfg, phi + eps).sigma >= base - 1e-12
        assert evaluate(cfg, phi - eps).sigma >= base - 1e-12
