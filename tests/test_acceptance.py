"""Acceptance gates for the whole package.

Each test prints exactly one line

    ACCEPTANCE <n>: PASS|FAIL - <measured detail>

so a log scan shows the state of every gate at a glance.  Gates 1-4 also
enforce wall-clock budgets.

Gate 5 quantifies preparation loss, and its reference levels are derived
here rather than read off the engine.  Take xi = 0, balanced splitters,
t0 = cos(alpha1), t1 = cos(beta1) and p = sinh^2 G.  With the mode maps of
`squint.gaussian`, everything after the preparation loss is the passive map

    B2 . phase(phi) . B1 = -i e^{i phi/2} [[s, -c], [c, s]],
    s = sin(phi/2),  c = cos(phi/2),

fed by n0 = t0^2 p and n1 = t1^2 p photons with pair amplitude
<a0 a1> = -i kappa, kappa = t0 t1 sinh G cosh G.  With S = 1 + n0 + n1
and D = n0 - n1 the output x-quadrature covariances are

    Vaa = S - D cos(phi) + 2 kappa sin^2(phi)
    Vbb = S + D cos(phi) - 2 kappa sin^2(phi)
    P   = Vab = D sin(phi) + kappa sin(2 phi)

and, by Isserlis factoring, sigma^2 = Vaa Vbb + Vab^2, i.e.

    sigma^2 = S^2 - D^2 cos(2 phi) + 8 D kappa sin^2(phi) cos(phi)
              + 4 kappa^2 sin^2(phi) cos(2 phi).

With D = 0 and t0 = t1 = 1 this is `closed_form_reference`.  At the
working point phi = pi/2 the slope is |dP/dphi| = 2 kappa whatever D is.

Symmetric loss (alpha1 = beta1 = alpha) contracts the covariance as
C -> cos^2(alpha) C + sin^2(alpha) I, which commutes with every passive
(orthogonal symplectic) map.  So it is the same channel as the same loss
in the arms, the device of gate 6: sigma0^2 = 1 + 2 N sin^2(alpha) with N
photons at the detectors, and the resolution keeps falling as
6 alpha / sqrt(N) with no floor.

One-sided loss (r = sin(alpha1), beta1 = 0, so D = -p r^2) gives

    sigma0^2 = 1 + 2 p r^2 + 2 p^2 r^4,

so sigma0 / |dP/dphi| -> r^2 / sqrt(2) once N r^2 >> 1: the standard
criterion levels off at sin^2(alpha1) / sqrt(2).  At phi = pi/2 + d, to
leading order in d and r, sigma^2 = sigma0^2 - 8 D kappa d + 12 kappa^2 d^2.
In the scaled offset x = 2 kappa d = d |dP/dphi|,

    sigma^2 = sigma0^2 + 2 sqrt(2) sigma0 x + 3 x^2,

and the modified criterion 2 x = sigma0 + sigma(x) squares to
x^2 = (4 + 2 sqrt(2)) sigma0 x.  Hence

    delta_phi = x / (2 kappa) = 2 (1 + sqrt(2)) sin^2(alpha1) ~ 4.83 alpha1^2.

The same loss on mode 1 flips the sign of D and of the linear term and
gives 2 (sqrt(2) - 1) sin^2(beta1), a level not reached within the gate's
gain grid.  Corrections are of order 1 / (N r^2), about 0.4% at the top of
the grid, and of order r^2.  No preparation-loss setting of this device
gives the level 9 alpha1^2 that has been quoted for it; that value is not
traced to the paper text held in this repository.
"""
import math
import time

import numpy as np
import pytest

from conftest import random_two_mode_state
from squint import (
    BsSpec,
    InterferometerConfig,
    closed_form_reference,
    equivalence_grid,
    evaluate,
    loss_unitary,
    modified_resolution,
    optimize_delta2,
    small_angle_root,
    standard_resolution,
    sweep,
)
from reference import (apply_symplectic, beam_splitter, detect_saturation, mean_photon_number,
                       phase_shifter, physicality_defect, reference_passive, symplectic_form,
                       two_mode_squeezer, vacuum_state)

GAIN_GRID = np.geomspace(0.5, 8.0, 60)
LOSS = math.pi / 300


def _gate(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_gate_01_closed_form_match():
    t0 = time.perf_counter()
    phis = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False)
    worst = 0.0
    for G in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        cfg = InterferometerConfig(G=G)
        for phi in phis:
            got = evaluate(cfg, float(phi))
            ref = closed_form_reference(G, float(phi))
            worst = max(worst,
                        abs(got.mean - ref.mean),
                        abs(got.second_moment - ref.second_moment),
                        abs(got.sigma - ref.sigma),
                        abs(got.mean_photons - ref.mean_photons))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    _gate(1, ok, f"engine vs closed form: max deviation {worst:.2e} "
                 f"(tol 1e-10) over 7 gains x 1000 phases in {dt:.2f}s (< 5s)")


def test_gate_02_fock_oracle_agreement():
    t0 = time.perf_counter()
    report = equivalence_grid()
    dt = time.perf_counter() - t0
    worst = report.worst
    # 3 gains x 2 prep losses x 3 imbalances x 5 phases x 3 recombiner settings
    ok = (report.passed and report.max_deviation <= 1e-8 and dt < 60.0
          and report.n_cases == 270
          and worst.deviation == report.max_deviation)
    where = (f"G={worst.G:g}, loss={worst.prep_loss:g}, d1={worst.delta1:g}, "
             f"phi={worst.phi:.3f}, d2={worst.delta2:g}") if worst else "n/a"
    _gate(2, ok, f"{report.n_cases} cases, max deviation {report.max_deviation:.2e} "
                 f"(tol 1e-8) at [{where}] in {dt:.1f}s (< 60s)")


def test_gate_03_ideal_resolution_scaling():
    t0 = time.perf_counter()
    ds = []
    for G in np.linspace(2.5, 6.0, 15):
        res = modified_resolution(InterferometerConfig(G=float(G)))
        assert res.converged, f"solver failed at G={G}"
        n = res.mean_N
        ds.append(res.delta_phi * math.sqrt(n * n + 2 * n))
    dt = time.perf_counter() - t0
    ok = all(3.9 <= d <= 4.1 for d in ds) and dt < 10.0
    _gate(3, ok, f"scaled resolution d in [{min(ds):.4f}, {max(ds):.4f}] "
                 f"(need [3.9, 4.1]) for 15 gains in [2.5, 6] in {dt:.1f}s (< 10s)")


def test_gate_04_recombiner_optimum():
    t0 = time.perf_counter()
    opt = optimize_delta2(InterferometerConfig(G=5.0))
    dt = time.perf_counter() - t0
    ok = (opt.converged and opt.unimodal
          and -0.245 <= opt.delta2 <= -0.230
          and 2.70 <= opt.kappa <= 2.85
          and dt < 60.0)
    _gate(4, ok, f"delta2_opt={opt.delta2:.6f} (need [-0.245, -0.230]), "
                 f"kappa={opt.kappa:.4f} (need [2.70, 2.85]) in {dt:.1f}s (< 60s)")


def test_gate_05_prep_loss_floor():
    prep = sweep(InterferometerConfig.with_symmetric_loss(G=1.0, prep=LOSS),
                 "G", GAIN_GRID)
    arm = sweep(InterferometerConfig.with_symmetric_loss(G=1.0, arm=LOSS),
                "G", GAIN_GRID)
    converged = all(r.converged for r in prep + arm)
    dev_n = max(abs(p.mean_N - a.mean_N) / a.mean_N for p, a in zip(prep, arm))
    dev_d = max(abs(p.delta_phi - a.delta_phi) / a.delta_phi for p, a in zip(prep, arm))
    sym_saturated, _ = detect_saturation([r.delta_phi for r in prep])
    last = prep[-1]
    scaled = last.delta_phi * math.sqrt(last.mean_N)
    same_as_arm = converged and dev_n <= 1e-12 and dev_d <= 1e-10 and not sym_saturated

    one_sided = sweep(InterferometerConfig(G=1.0, alpha1=LOSS), "G", GAIN_GRID)
    deltas = [r.delta_phi for r in one_sided if r.converged]
    saturated, tail = detect_saturation(deltas)
    target = 2 * (1 + math.sqrt(2)) * math.sin(LOSS) ** 2
    floor_ok = saturated and abs(tail - target) <= 0.05 * target

    _gate(5, same_as_arm and floor_ok,
          f"alpha1=beta1: equals arm loss over {len(prep)} rows (mean_N rel dev "
          f"{dev_n:.1e}, tol 1e-12; delta_phi rel dev {dev_d:.1e}, tol 1e-10), "
          f"saturated={sym_saturated}, delta_phi*sqrt(N)={scaled:.4f} vs "
          f"6*alpha={6 * LOSS:.4f}; alpha1 only: saturated={saturated}, "
          f"tail {tail:.4e} vs 2(1+sqrt2)*sin^2(alpha1) = {target:.4e} "
          f"(dev {abs(tail - target) / target:.2%}, tol 5%)")


def test_gate_06_arm_loss_crossover():
    cfg = InterferometerConfig.with_symmetric_loss(G=1.0, arm=LOSS)
    threshold = 4.0 / (9.0 * LOSS ** 2)
    rows = [r for r in sweep(cfg, "G", GAIN_GRID)
            if r.converged and r.mean_N >= 3.0 * threshold]
    assert len(rows) >= 5, f"only {len(rows)} rows above 3x threshold {3 * threshold:.0f}"
    target = 6.0 * LOSS
    scaled = [r.delta_phi * math.sqrt(r.mean_N) for r in rows]
    devs = [abs(s - target) / target for s in scaled]
    ok = max(devs) <= 0.25
    _gate(6, ok, f"{len(rows)} rows with mean_N >= {3 * threshold:.0f}: "
                 f"delta_phi*sqrt(N) in [{min(scaled):.4f}, {max(scaled):.4f}] "
                 f"vs 6*alpha2 = {target:.4f} (max rel dev {max(devs):.1%}, tol 25%)")


def test_gate_07_splitter_imbalance_floors():
    tails = {}
    for d1, target in ((+0.001, 0.004), (-0.001, 0.012)):
        cfg = InterferometerConfig(G=1.0, delta1=d1)
        deltas = [r.delta_phi for r in sweep(cfg, "G", GAIN_GRID) if r.converged]
        saturated, tail = detect_saturation(deltas)
        tails[d1] = (saturated, tail, target)
    ok = all(sat and abs(tail - tgt) <= 0.25 * tgt
             for sat, tail, tgt in tails.values())
    _gate(7, ok,
          f"delta1=+0.001 -> {tails[0.001][1]:.4e} (target 4*|d1| = 4.0e-03), "
          f"delta1=-0.001 -> {tails[-0.001][1]:.4e} (target 12*|d1| = 1.2e-02), "
          f"tol 25%; signs match the stated levels directly, no convention swap")


def test_gate_08_recombiner_third_improves():
    cfg = InterferometerConfig(G=1.0, delta2=-1.0 / 3.0)
    kappas = [r.kappa for r in sweep(cfg, "G", GAIN_GRID) if r.converged]
    saturated, tail = detect_saturation(kappas)
    ok = saturated and tail < 4.0
    _gate(8, ok, f"delta2 = -1/3: asymptotic kappa = {tail:.4f} "
                 f"(saturated={saturated}), beats the balanced value 4")


def test_gate_09_structural_properties():
    rng = np.random.default_rng(4057)
    checks = []

    # symplectic preservation
    omega = symplectic_form()
    ops = [two_mode_squeezer(1.2, xi=0.7),
           phase_shifter(0.3) @ beam_splitter(BsSpec("B1", 0.1)),
           beam_splitter(BsSpec("B2", -0.08)),
           reference_passive(loss_unitary(0.3))]
    worst_sym = max(np.max(np.abs(op.T @ omega @ op - omega))
                    for op in ops)
    checks.append(("symplectic", worst_sym <= 1e-12, f"{worst_sym:.1e}"))

    # physicality of random lossy pipelines
    worst_phys = min(physicality_defect(random_two_mode_state(rng))
                     for _ in range(30))
    checks.append(("physicality", worst_phys >= -1e-10, f"{worst_phys:.1e}"))

    # passive operations conserve photon number
    state = apply_symplectic(vacuum_state(), two_mode_squeezer(1.3, xi=0.4))
    n0 = mean_photon_number(state)
    for op in (phase_shifter(1.1) @ beam_splitter(BsSpec("B1", 0.07)),
               phase_shifter(0.5), beam_splitter(BsSpec("B2", -0.1))):
        state = apply_symplectic(state, op)
    drift = abs(mean_photon_number(state) - n0) / n0
    checks.append(("passive conservation", drift <= 1e-12, f"{drift:.1e}"))

    # mean signal repeats with period pi (needs symmetric prep, single imbalance)
    cfg = InterferometerConfig(G=1.1, alpha2=0.1, beta2=0.03, delta1=0.04)
    worst_period = max(abs(evaluate(cfg, phi + math.pi).mean - evaluate(cfg, phi).mean)
                       for phi in np.linspace(0, math.pi, 40))
    checks.append(("double period", worst_period <= 1e-10, f"{worst_period:.1e}"))

    # the averaged-noise criterion can only be more demanding
    configs = [InterferometerConfig(G=1.0),
               InterferometerConfig(G=2.0, delta1=0.05),
               InterferometerConfig(G=1.5, alpha2=0.2),
               InterferometerConfig(G=3.0, delta2=-0.2)]
    ordered = all(modified_resolution(c).delta_phi
                  >= standard_resolution(c).delta_phi * (1 - 1e-12)
                  for c in configs)
    checks.append(("modified >= standard", ordered, "4 configs"))

    # variance identity between first and second moments
    worst_var = 0.0
    for phi in np.linspace(0, 2 * math.pi, 100, endpoint=False):
        for st in (evaluate(InterferometerConfig(G=1.5), float(phi)),
                   closed_form_reference(1.5, float(phi))):
            lhs = st.sigma ** 2 + st.mean ** 2
            worst_var = max(worst_var,
                            abs(lhs - st.second_moment) / max(1.0, st.second_moment))
    checks.append(("variance identity", worst_var <= 1e-10, f"{worst_var:.1e}"))

    ok = all(good for _, good, _ in checks)
    detail = "; ".join(f"{name} {'ok' if good else 'BAD'} ({note})"
                       for name, good, note in checks)
    _gate(9, ok, detail)


def test_gate_10_small_angle_root():
    exact = small_angle_root()
    res = modified_resolution(InterferometerConfig(G=4.0))
    n = res.mean_N
    d = res.delta_phi * math.sqrt(n * n + 2 * n)
    ok = exact == 4.0 and res.converged and abs(d - 4.0) <= 1e-3
    _gate(10, ok, f"algebraic root = {exact} (exact), numerical d at G=4 "
                  f"is {d:.6f} (|d-4| = {abs(d - 4):.1e}, tol 1e-3)")
