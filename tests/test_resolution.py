"""Resolution criteria, sweeps, and the imbalance optimizer."""
import collections
import dataclasses
import math

import numpy as np
import pytest

from squint import (
    SWEEP_PARAMETERS,
    InterferometerConfig,
    evaluate,
    modified_resolution,
    optimize_delta2,
    refine_working_point,
    small_angle_root,
    standard_resolution,
    sweep,
)
from reference import bisection_resolution, detect_saturation, golden_min


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


def test_evaluations_count_every_engine_call(monkeypatch):
    # every model read a solve makes: the moment kernel and the slope kernel
    # at the working point, and the moment kernel at each root step
    import squint.resolution as solvers
    calls = []

    def counted(fn):
        def read(source, phi):
            calls.append(phi)
            return fn(source, phi)
        return read

    for name in ("evaluate", "_slope", "_moments"):
        monkeypatch.setattr(solvers, name, counted(getattr(solvers, name)))
    cases = [(solver, cfg) for solver in (standard_resolution, modified_resolution)
             for cfg in (InterferometerConfig(G=2.0),  # converges
                         InterferometerConfig(G=0.0),  # slope refusal
                         InterferometerConfig(G=20.0))]  # roundoff refusal
    cases.append((modified_resolution, InterferometerConfig(G=5.0, delta2=0.5)))  # no root
    for solver, cfg in cases:
        calls.clear()
        res = solver(cfg)
        assert res.evaluations == len(calls), (solver.__name__, cfg, res)
        # standard's one iteration is a division, modified's a root step
        steps = res.iterations if solver is modified_resolution else 0
        assert res.evaluations == 2 + steps, (solver.__name__, cfg, res)
    assert res.iterations and not res.converged
    # a sweep reads no row through evaluate or the scalar kernels: each row's
    # sigma comes from the batched kernel, one phase per row per call, and
    # its slope from the batched slope kernel; count both per row's model
    from squint.interferometer import _batched_moments, _batched_slope
    reads = collections.Counter()

    def counted_batch(rows, phis):
        assert rows.ndim == 3 and len(rows) == len(phis)
        reads.update(model.tobytes() for model in rows)
        return _batched_moments(rows, phis)

    def counted_slope(rows, phi):
        assert rows.ndim == 3
        reads.update(model.tobytes() for model in rows)
        return _batched_slope(rows, phi)

    monkeypatch.setattr(solvers, "_batched_moments", counted_batch)
    monkeypatch.setattr(solvers, "_batched_slope", counted_slope)
    for base, parameter, grid in (
            (InterferometerConfig(G=1.0), "G", [0.0, 0.7, 2.0, 20.0]),  # refusals
            (InterferometerConfig(G=5.0), "delta2", [-0.3, 0.5, 0.78]),  # no root
            (InterferometerConfig(G=2.0, beta2=0.1), "alpha1", [0.0, 0.1, 0.3])):  # two widths
        for criterion in ("standard", "modified"):
            calls.clear()
            reads.clear()
            results = sweep(base, parameter, grid, criterion=criterion)
            assert not calls
            for value, res in zip(grid, results):
                rows = solvers._apply_parameter(base, parameter, value)._model[0]
                assert res.evaluations == reads[rows.tobytes()], (parameter, value, res)
                steps = res.iterations if criterion == "modified" else 0
                assert res.evaluations == 2 + steps, (parameter, value, res)


@pytest.mark.parametrize("criterion", ["standard", "modified"])
def test_error_bound_holds_against_closed_roots(criterion):
    # standard: sigma0 = 1 over slope sinh(2G) with N = 2 sinh^2 G, so kappa
    # is tanh G; modified: the cancellation-free bisection above
    solver = {"standard": standard_resolution, "modified": modified_resolution}[criterion]
    for G in np.linspace(0.5, 10.3, 50):
        res = solver(InterferometerConfig(G=float(G)))
        want = math.tanh(G) if criterion == "standard" else _ideal_modified_kappa(G)
        assert res.converged, (G, res.message)
        assert 0 < res.error_bound < 1e-5, (G, res.error_bound)
        assert abs(res.kappa - want) <= res.error_bound * res.kappa, (G, res.kappa, want)


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
    results = sweep(InterferometerConfig(G=1.0), "G", grid)
    assert isinstance(results, tuple) and len(results) == 7
    assert all(r.converged for r in results)
    # row i is the ideal device at the i-th gain of the grid
    assert [r.mean_N for r in results] == pytest.approx(photons(grid), rel=1e-12)


@pytest.mark.parametrize("criterion", ["standard", "modified"])
def test_sweep_returns_the_solvers_results(criterion):
    solver = {"standard": standard_resolution, "modified": modified_resolution}[criterion]
    base = InterferometerConfig(G=2.0, alpha1=0.05, delta2=-0.1)
    for parameter, grid, device in (
            ("G", [0.5, 1.5, 4.0], lambda v: dataclasses.replace(base, G=v)),
            ("symmetric_alpha2", [0.0, 0.05, 0.2],
             lambda v: dataclasses.replace(base, alpha2=v, beta2=v))):
        results = sweep(base, parameter, grid, criterion=criterion)
        assert results == tuple(solver(device(v)) for v in grid)


def _fields(result):
    """A result's fields, each float as its type and hex, so that nan and
    the signed zeros compare as themselves."""
    return [(type(v).__name__, v.hex()) if isinstance(v, float) else v
            for v in dataclasses.astuple(result)]


# The gain grid holds a slope refusal (0) and a roundoff refusal (20); the
# delta2 grid rows without a root at G = 5 (0.7, 0.78); each loss grid starts
# lossless, so its rows have two model widths.
_LOCKSTEP_GRIDS = {"G": [0.0, 0.4, 1.5, 4.0, 20.0], "delta1": [-0.5, 0.0, 0.3],
                   "delta2": [-0.5, -0.2, 0.0, 0.7, 0.78]}
_LOSS_GRID = [0.0, 0.05, 0.3]


def _lockstep_devices():
    """Seeded devices, G in [0.5, 6], each loss zero or drawn, plus the
    lossless G = 5 device whose delta2 sweep meets no root."""
    rng = np.random.default_rng(3636)
    yield InterferometerConfig(G=5.0)
    for _ in range(4):
        losses = [x if rng.uniform() < 0.5 else 0.0 for x in rng.uniform(0.0, 0.2, 4).tolist()]
        yield InterferometerConfig(
            G=rng.uniform(0.5, 6.0), xi=rng.uniform(-0.5, 0.5), alpha1=losses[0],
            beta1=losses[1], alpha2=losses[2], beta2=losses[3],
            delta1=rng.uniform(-0.1, 0.1), delta2=rng.uniform(-0.1, 0.1))


def test_sweep_rows_equal_the_solver_bit_for_bit():
    # the lockstep batches every row's reads, grouped by model width, and
    # must give each row the solver's result on that row's device, every field
    import squint.resolution as solvers
    messages, widths = set(), set()
    for cfg in _lockstep_devices():
        for parameter in SWEEP_PARAMETERS:
            grid = _LOCKSTEP_GRIDS.get(parameter, _LOSS_GRID)
            devices = [solvers._apply_parameter(cfg, parameter, v) for v in grid]
            widths.add(len({d._model[0].shape[1] for d in devices}))
            for criterion, solver in (("standard", standard_resolution),
                                      ("modified", modified_resolution)):
                for phi in (np.pi / 2, 1.3, 2.0):
                    results = sweep(cfg, parameter, grid, criterion=criterion, phi=phi)
                    assert len(results) == len(grid)
                    for device, res in zip(devices, results):
                        assert _fields(res) == _fields(solver(device, phi=phi)), \
                            (parameter, device, criterion, phi)
                        messages.add(res.message.split(" ")[0])
    # every refusal was met, and sweeps whose rows have two widths
    assert {"signal", "noise", "no"} <= messages and 2 in widths


def test_a_float32_field_builds_the_float64_device():
    # each field is read as a Python float: a device with one np.float32 field
    # solves as its float64 twin does, and as its sweep row, every field by hex
    base = InterferometerConfig(G=1.5, xi=0.1, alpha1=0.05, beta1=0.02, alpha2=0.1,
                                beta2=0.05, delta1=0.05, delta2=-0.1)
    for name, field in dataclasses.asdict(base).items():
        value = np.float32(field)
        device, twin = (dataclasses.replace(base, **{name: v}) for v in (value, float(value)))
        rows = sweep(base, name, [value]) if name in SWEEP_PARAMETERS else ()
        for got in (modified_resolution(device), *rows):
            assert _fields(got) == _fields(modified_resolution(twin)), name


def test_sweep_records_nonconvergence_and_continues():
    # delta2 near +pi/4 drives the solver past its bracket; the sweep keeps
    # those rows as the solver returned them and still finishes the grid
    grid = [-0.3, 0.0, 0.7, 0.78]
    results = sweep(InterferometerConfig(G=5.0), "delta2", grid)
    assert len(results) == 4
    assert results[0].converged and results[1].converged
    for d2, res in zip(grid[2:], results[2:]):
        assert res == modified_resolution(InterferometerConfig(G=5.0, delta2=d2))
        assert not res.converged and math.isinf(res.delta_phi)
        assert res.message == "no root of the modified criterion in (0, pi/2]"
    assert results[2].iterations == 12


def test_sweep_symmetric_shorthand_sets_both_modes():
    results = sweep(InterferometerConfig(G=2.0), "symmetric_alpha2", [0.0, 0.1],
                    criterion="standard")
    # loss on both arms costs more than the same loss on one arm
    one_sided = standard_resolution(InterferometerConfig(G=2.0, alpha2=0.1))
    assert results[1].delta_phi > one_sided.delta_phi
    assert results[1].mean_N < results[0].mean_N


def test_sweep_symmetric_alpha1_sets_both_prep_losses():
    results = sweep(InterferometerConfig(G=2.0), "symmetric_alpha1", [0.0, 0.1],
                    criterion="standard")
    both = standard_resolution(InterferometerConfig(G=2.0, alpha1=0.1, beta1=0.1))
    one_sided = standard_resolution(InterferometerConfig(G=2.0, alpha1=0.1))
    assert results[1] == both
    assert results[1].mean_N < one_sided.mean_N


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
    # each row's device meets the device rules
    with pytest.raises(ValueError, match="gain G must be at most"):
        sweep(cfg, "G", [1.0, 200.0])


def test_sweep_checks_each_grid_value_with_its_device_rule(monkeypatch):
    # every parameter's out-of-range value, last in its grid, raises the exact
    # ValueError that building that row's device raises (symmetric_alpha1
    # names alpha1), and it does so before any model is built or read
    import squint.resolution as solvers
    reads = []
    for name in ("_models", "_moments", "_slope", "_batched_moments", "_batched_slope"):
        monkeypatch.setattr(solvers, name, lambda *args, name=name: reads.append(name))
    base = InterferometerConfig(G=2.0, alpha1=0.1, delta2=-0.2)
    grids = {"G": [0.5, 1.0, 200.0], "delta1": [-0.3, 0.0, 1.0], "delta2": [-0.3, 0.0, 1.0]}
    for parameter in SWEEP_PARAMETERS:
        grid = grids.get(parameter, [0.0, 0.1, 2.0])
        with pytest.raises(ValueError) as device:
            solvers._apply_parameter(base, parameter, grid[-1])
        for criterion in ("standard", "modified"):
            with pytest.raises(ValueError) as raised:
                sweep(base, parameter, grid, criterion=criterion)
            assert str(raised.value) == str(device.value), parameter
    assert str(device.value) == "loss angle alpha2 must lie in [0, pi/2]"
    with pytest.raises(ValueError, match="^loss angle alpha1 must lie in"):
        sweep(base, "symmetric_alpha1", [0.0, 2.0])
    assert not reads


def test_sweep_rejects_grids_that_are_not_one_dimensional():
    cfg = InterferometerConfig(G=1.0)
    for bad in ([], 3.0, [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="grid must be a one-dimensional sequence"):
            sweep(cfg, "G", bad)


def test_detect_saturation():
    assert detect_saturation([5.0, 3.0, 1.0, 0.999, 1.001])[0]
    sat, tail = detect_saturation([5.0, 3.0, 2.0, 1.5, 1.0])
    assert not sat and tail == 1.0
    assert not detect_saturation([1.0, 1.0])[0]  # too short to call


def test_kappa_continuous_in_recombiner_imbalance():
    grid = np.linspace(-0.4, 0.2, 25)
    results = sweep(InterferometerConfig(G=4.0), "delta2", grid)
    kappas = np.array([r.kappa for r in results])
    assert all(r.converged for r in results)
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


def test_modified_criterion_keeps_the_working_point_on_the_noise_minimum():
    # ideal device, G = 4: a test-side search over phi finds the modified
    # kappa at the centred-interval value 2N/sqrt(N^2 + 2N), about half the
    # 4 of the noise minimum; refine stays on the minimum, so no solver
    # reports the lower figure
    cfg = InterferometerConfig(G=4.0)
    n = photons(4.0)
    phi, kappa = golden_min(lambda p: modified_resolution(cfg, p).kappa,
                            np.pi / 2 - 2e-3, np.pi / 2 + 2e-3, 1e-8)
    assert kappa == pytest.approx(2 * n / np.sqrt(n * n + 2 * n), abs=1e-5)
    assert kappa == pytest.approx(1.99866, abs=1e-5)
    assert phi - np.pi / 2 == pytest.approx(-6.7e-4, abs=2e-5)
    assert modified_resolution(cfg).kappa == pytest.approx(3.99723, abs=1e-5)
    assert refine_working_point(cfg) == pytest.approx(np.pi / 2, abs=1e-6)


def test_refined_point_minimises_sigma_not_kappa():
    cfg = InterferometerConfig(G=3.0, xi=0.05, alpha1=0.05, beta1=0.02, alpha2=0.1,
                               beta2=0.05, delta1=0.01, delta2=-0.2375)
    phi = refine_working_point(cfg)
    assert phi == pytest.approx(1.56928, abs=1e-5)
    assert evaluate(cfg, phi).sigma == pytest.approx(7.0848, abs=1e-4)
    assert modified_resolution(cfg, phi).kappa == pytest.approx(19.09, abs=5e-3)
    # off the minimum the noise is higher and the modified kappa lower
    assert evaluate(cfg, 1.5384).sigma == pytest.approx(11.02, abs=5e-3)
    assert modified_resolution(cfg, 1.5384).kappa == pytest.approx(12.46, abs=5e-3)


@pytest.mark.parametrize("f, lo, hi, want", [
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 0.3),  # one parabolic step lands on it
    (lambda x: abs(x - 0.7) ** 1.5, 0.0, 1.0, 0.7),  # parabolas fit badly
    (lambda x: (x - 1.2) ** 2 * (2.0 + math.sin(3.0 * x)), 0.0, 2.0, 1.2),  # f(min) = 0: no roundoff floor
    (lambda x: -x, -0.35, 0.35, 0.35),  # monotone: the nearer end of the bracket
    (lambda x: (x - 0.5) ** 2, -0.35, 0.35, 0.35),  # every parabola's vertex is outside
])
def test_brent_min_locates_minima_to_tolerance(f, lo, hi, want):
    import squint.resolution as solvers
    for tol in (1e-6, 1e-9):
        points, reference = [], []
        x, fx = solvers._brent_min(lambda p: points.append(p) or f(p), lo, hi, tol)
        golden_min(lambda p: reference.append(p) or f(p), lo, hi, tol)
        assert fx == f(x) and abs(x - want) <= tol
        assert lo <= min(points) and max(points) <= hi
        assert len(points) <= len(reference)


def _drawn_devices(count):
    """Seeded lossy, imbalanced devices: |xi| <= 0.6, G in [0.3, 9]."""
    rng = np.random.default_rng(1717)
    for _ in range(count):
        G, xi = rng.uniform(0.3, 9.0), rng.uniform(-0.6, 0.6)
        losses = rng.uniform(0.0, 0.3, size=4)
        delta1, delta2 = rng.uniform(-0.1, 0.1, size=2)
        yield InterferometerConfig(G=G, xi=xi, alpha1=losses[0], beta1=losses[1],
                                   alpha2=losses[2], beta2=losses[3],
                                   delta1=delta1, delta2=delta2)


def test_refine_matches_golden_section_reference(monkeypatch):
    # the library's Brent minimiser against golden section on refine's own
    # bracket and tolerance, counting the moment kernel's reads, not timing them
    import squint.resolution as solvers
    from squint.interferometer import _moments
    calls = []

    def counted(rows, phi):
        calls.append(phi)
        return _moments(rows, phi)

    monkeypatch.setattr(solvers, "_moments", counted)
    brent_calls = []
    for cfg in _drawn_devices(100):
        calls.clear()
        phi = refine_working_point(cfg)
        brent_calls.append(len(calls))
        with monkeypatch.context() as m:
            m.setattr(solvers, "_brent_min", golden_min)
            calls.clear()
            ref = refine_working_point(cfg)
            assert len(calls) == 45
        # at the flat minimum both are limited by sigma's roundoff
        assert evaluate(cfg, phi).sigma <= evaluate(cfg, ref).sigma * (1.0 + 1e-12), cfg
        assert abs(phi - ref) <= 5e-8, cfg
    assert np.mean(brent_calls) <= 20.0


def test_solver_reads_keep_evaluate_bits():
    # the root and refine steps read sigma from the moment kernel, without
    # evaluate's check and boxing: the same bits, so the same search path
    import squint.resolution as solvers
    from squint.interferometer import _moments
    rng = np.random.default_rng(1919)
    for cfg in _drawn_devices(100):
        rows = cfg._model[0]
        for phi in (np.pi / 2, -0.0, *rng.uniform(-2 * np.pi, 2 * np.pi, size=4)):
            phi = float(phi)
            assert _moments(rows, phi)[2].hex() == evaluate(cfg, phi).sigma.hex(), (cfg, phi)
        want, _ = solvers._brent_min(lambda p: evaluate(cfg, p).sigma,
                                     np.pi / 2 - solvers._REFINE_HALF_WIDTH,
                                     np.pi / 2 + solvers._REFINE_HALF_WIDTH, solvers._REFINE_TOL)
        assert refine_working_point(cfg).hex() == want.hex(), cfg


@pytest.mark.parametrize("cfg", [InterferometerConfig(G=5.0),
                                 InterferometerConfig(G=3.0, alpha2=0.1)],
                         ids=["G5", "G3-alpha2"])
def test_optimize_delta2_matches_golden_section_reference(cfg, monkeypatch):
    import squint.resolution as solvers
    solver = solvers._CRITERIA["modified"]
    calls = []

    def counted(config, phi):
        calls.append(config.delta2)
        return solver(config, phi=phi)

    monkeypatch.setitem(solvers._CRITERIA, "modified", counted)
    opt = optimize_delta2(cfg)
    brent_calls = len(calls)
    monkeypatch.setattr(solvers, "_brent_min", golden_min)
    calls.clear()
    ref = optimize_delta2(cfg)
    assert opt.converged and ref.converged
    assert opt.kappa == pytest.approx(ref.kappa, rel=1e-10)
    assert opt.delta2 == pytest.approx(ref.delta2, abs=1e-4)
    assert opt.profile == ref.profile
    assert brent_calls < len(calls)
