"""Truncated number-basis machinery: construction, unitaries, guards."""
import dataclasses
import inspect
import math
import time
import tracemalloc

import numpy as np
import pytest

from squint import fock, interferometer
from squint import (
    BsSpec,
    CutoffError,
    FockState,
    InterferometerConfig,
    ancilla_cutoff,
    apply_unitary_fock,
    evaluate,
    fock_moments,
    loss_unitary,
    oracle_pipeline,
    photon_number_expectation,
    tail_cutoff,
    tmsv_fock,
)
from reference import reference_lose, reference_losses, reference_seed, reference_xx


def test_tail_cutoff_reference_points():
    assert tail_cutoff(0.2) == 9
    assert tail_cutoff(0.5) == 20
    assert tail_cutoff(0.8) == 38
    assert tail_cutoff(1.0) == 57
    assert tail_cutoff(0.0) == 0


def counted_tail_cutoff(G):
    """Reference: count pair levels up until the first omitted weight
    tanh^{2(n+1)} G / cosh^2 G is within 1e-14."""
    t2, c2 = np.tanh(G) ** 2, np.cosh(G) ** 2
    n = 0
    while t2 ** (n + 1) / c2 > 1e-14:
        n += 1
    return n


def test_tail_cutoff_matches_level_count():
    for G in np.concatenate([np.geomspace(1e-4, 3.0, 150), [1e-8, 1e-300, 3.7]]):
        assert tail_cutoff(G) == counted_tail_cutoff(G), G
    # tanh^2 G rounds to 1 here, and 1 / cosh^2 G is already below the bound
    assert np.tanh(20.0) ** 2 == 1.0
    assert tail_cutoff(20.0) == counted_tail_cutoff(20.0) == 0


def test_tail_cutoff_settles_its_log_estimate_both_ways():
    # the logarithms' estimate is 24447330968196 at the first gain, one
    # short, and 1123224673850 at the second, one over: each settle loop runs
    for G in (15.714706446364627, 16.805631196991953):
        t2, c2 = np.tanh(G) ** 2, np.cosh(G) ** 2
        n = tail_cutoff(G)
        assert t2 ** (n + 1) / c2 <= 1e-14 < t2 ** n / c2, G


def test_high_gain_pipeline_is_refused_quickly():
    # the pair cutoff at G = 10 is about 1.65e9 levels; sizing it takes no loop
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="amplitudes"):
        oracle_pipeline(InterferometerConfig(G=10.0), 0.3)
    assert time.perf_counter() - t0 < 1.0


def test_the_deficit_cap_keeps_the_pair_within_the_size_cap():
    # why tmsv_fock has no size check: wherever the deficit cap admits a pair,
    # its two signal ladders of 2n + 3 levels fit under the tensor cap.  The
    # deficit is at least 1e-14 sinh^2 G, so nothing above asinh(10) ~ 2.998
    # is admitted; the dense window covers the last pairs it admits
    gains = np.concatenate([np.linspace(0.0, 3.0, 3001), np.linspace(2.99, 3.0, 10001),
                            [2.996]])
    largest = 0
    for G in gains:
        n = tail_cutoff(G)
        if np.tanh(G) ** (2 * (n + 1)) <= fock._DEFICIT_CAP:
            assert (2 * n + 3) ** 2 <= fock._MAX_ELEMENTS, G
            largest = max(largest, n)
    assert largest == 2775


def test_ancilla_cutoff_reference_points():
    assert [ancilla_cutoff(0.8, a) for a in (0.02, 0.1, 0.2, 0.3)] == [5, 9, 13, 19]
    assert ancilla_cutoff(0.2, 0.1) == 6
    # a tiny loss still keeps the two levels the guard inspects above the tail
    assert ancilla_cutoff(0.8, 1e-3) == 4
    # near full loss the bound is void: every photon of the pair cut off at
    # n = tail_cutoff(G) (2n + 1 levels) plus the guard's two-level pad
    n = tail_cutoff(0.8)
    assert ancilla_cutoff(0.8, np.pi / 2 - 1e-3) == 2 * n + 3 == tmsv_fock(0.8).dims[0]
    assert ancilla_cutoff(0.0, 0.1) == 3


def test_cutoffs_reject_bad_input():
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="gain"):
            tail_cutoff(bad)
        with pytest.raises(ValueError, match="gain"):
            ancilla_cutoff(bad, 0.1)
    for bad in (-0.1, np.pi / 2 + 0.1, np.nan):
        with pytest.raises(ValueError, match="loss angle"):
            ancilla_cutoff(0.5, bad)


def test_cutoffs_refuse_non_numbers_and_bad_level_counts():
    with pytest.raises(ValueError, match="loss angle must be a number"):
        ancilla_cutoff(0.5, "0.1")
    for bad in ("1", None, True):
        with pytest.raises(ValueError, match="gain G must be a number"):
            ancilla_cutoff(bad, 0.1)
        with pytest.raises(ValueError, match="gain G must be a number"):
            tail_cutoff(bad)


def test_fock_angles_refuse_non_numbers_and_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="pump phase xi must be finite"):
            tmsv_fock(0.5, xi=bad)
    # a bool is not a phase angle, as everywhere else a number is checked
    with pytest.raises(ValueError, match="phase angle must be a number"):
        apply_unitary_fock(tmsv_fock(0.3), True, 0)


def test_tmsv_zero_gain_is_vacuum():
    state = tmsv_fock(0.0)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(state.amplitudes, expected)
    assert state.norm_deficit == 0.0


def test_tmsv_pairwise_support():
    state = tmsv_fock(0.5, xi=0.7)
    off = state.amplitudes.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) <= 1e-15


def test_tmsv_photon_numbers():
    state = tmsv_fock(0.5)
    per_mode = np.sinh(0.5) ** 2
    assert photon_number_expectation(state, (0,)) == pytest.approx(per_mode, abs=1e-12)
    assert photon_number_expectation(state, (1,)) == pytest.approx(per_mode, abs=1e-12)

    # the pair is cut off at tail_cutoff(G), on signal ladders of 2n + 3
    # levels, and resolves the tail well enough for 1e-10 totals
    assert tmsv_fock(0.2).dims == (2 * tail_cutoff(0.2) + 3,) * 2
    state = tmsv_fock(1.0)
    assert state.dims == (117, 117)
    assert photon_number_expectation(state) == pytest.approx(
        2 * np.sinh(1.0) ** 2, abs=1e-10)


def test_tmsv_norm_deficit_bounded():
    for G in (0.2, 0.5, 1.0):
        state = tmsv_fock(G)
        assert 0.0 <= state.norm_deficit <= 1e-12
        assert state.norm() ** 2 + state.norm_deficit == pytest.approx(1.0, abs=1e-12)


def test_tmsv_refuses_a_default_cutoff_that_discards_too_much():
    # at G = 3 the tail cutoff (2785) still drops more than 1e-12 of the
    # probability; the refusal comes before the 2786^2 amplitudes exist
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match=r"n_max=2785 discards 1\.008e-12 probability"):
            tmsv_fock(3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_oracle_refusal_names_its_reach():
    # no caller sets a cutoff, so the refusal states the gains the oracle takes
    with pytest.raises(CutoffError) as refused:
        oracle_pipeline(InterferometerConfig(G=3.0), 0.3)
    assert str(refused.value) == (
        "G=3 is beyond the oracle's reach: its pair cutoff n_max=2785 discards "
        "1.008e-12 probability, above the 1e-12 cap; every gain up to about 2.993 "
        "passes, and none above about 2.998")
    # a state with shorter ladders than the oracle derives is refused the same way
    ceiling = np.zeros((5, 5), dtype=complex)
    ceiling[4, 4] = 1.0
    for call in (lambda: fock_moments(FockState(ceiling), 0, 1),
                 lambda: apply_unitary_fock(FockState(ceiling), BsSpec("B1"), (0, 1))):
        with pytest.raises(CutoffError, match="beyond the oracle's reach"):
            call()


def test_fock_state_holds_complex_amplitudes():
    state = FockState(np.eye(2))
    assert state.amplitudes.dtype == np.complex128
    assert np.array_equal(state.amplitudes, np.eye(2))
    # a list converts whether its entries are real or complex
    for entries in ([[1.0, 0.0], [0.0, 0.0]], [[1 + 0j, 0], [0, 0]]):
        state = FockState(entries)
        assert state.amplitudes.dtype == np.complex128
        assert photon_number_expectation(state) == 0.0
    # a complex128 array is kept as it is, with no copy
    amps = np.zeros((2, 2), dtype=complex)
    assert FockState(amps).amplitudes is amps


def test_fock_state_validates_deficit():
    amps = np.zeros((3, 3), dtype=complex)
    amps[0, 0] = 1.0
    with pytest.raises(ValueError):
        FockState(amps, norm_deficit=1e-6)
    with pytest.raises(ValueError):
        FockState(amps, norm_deficit=-1e-15)


def test_phase_full_turn_is_identity():
    state = tmsv_fock(0.5)
    turned = apply_unitary_fock(state, 2 * np.pi, 0)
    assert np.max(np.abs(turned.amplitudes - state.amplitudes)) <= 1e-12


def test_single_photon_balanced_split():
    amps = np.zeros((3, 3), dtype=complex)
    amps[1, 0] = 1.0
    out = apply_unitary_fock(FockState(amps), BsSpec("B1"), (0, 1))
    assert abs(out.amplitudes[1, 0]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert abs(out.amplitudes[0, 1]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def _chain(state):
    for op, modes in ((BsSpec("B1", 0.1), (0, 1)),
                      (BsSpec("B2", -0.1), (0, 1)),
                      (1.3, 0)):
        state = apply_unitary_fock(state, op, modes)
    return state


def test_unitaries_preserve_norm_and_photon_total():
    seed = tmsv_fock(0.8, xi=0.4)
    n = tail_cutoff(0.8)
    # on the pair's own n + 1 = 39 levels the splitters meet the even totals up
    # to 76, and a ceiling cuts those from 40 on: refused rather than approximated
    with pytest.raises(CutoffError, match="pair total 40"):
        _chain(FockState(seed.amplitudes[:n + 1, :n + 1], seed.norm_deficit))
    # on the signal ladders of 2n + 3 levels every total is whole
    state = _chain(seed)
    n0 = photon_number_expectation(seed)
    assert state.norm() == pytest.approx(np.sqrt(1 - state.norm_deficit), abs=1e-12)
    assert photon_number_expectation(state) == pytest.approx(n0, abs=1e-10)


def test_rejects_non_passive_map():
    state = tmsv_fock(0.3)
    boost = np.array([[np.cosh(0.5), np.sinh(0.5)],
                      [np.sinh(0.5), np.cosh(0.5)]], dtype=complex)
    with pytest.raises(ValueError, match="passive|unitary"):
        apply_unitary_fock(state, boost, (0, 1))


def test_apply_unitary_input_validation():
    state = tmsv_fock(0.3)
    with pytest.raises(ValueError):
        apply_unitary_fock(state, BsSpec("B1"), (0, 0))
    with pytest.raises(ValueError):
        apply_unitary_fock(state, BsSpec("B1"), (0, 5))
    with pytest.raises(ValueError):
        apply_unitary_fock(state, 0.5, (0, 1))
    with pytest.raises(ValueError):
        apply_unitary_fock(state, np.eye(3, dtype=complex), (0, 1))
    with pytest.raises(ValueError, match="two distinct modes"):
        apply_unitary_fock(state, np.eye(2, dtype=complex), 0)
    # any real scalar is a phase angle, numpy scalars included
    for phase in (np.float32(0.5), np.float64(0.5), np.int64(1), 1):
        got = apply_unitary_fock(state, phase, 0)
        want = apply_unitary_fock(state, float(phase), 0)
        np.testing.assert_array_equal(got.amplitudes, want.amplitudes)
    with pytest.raises(ValueError, match="one mode"):
        apply_unitary_fock(state, np.int64(1), (0, 1))
    # non-finite phases and maps are refused, not carried into NaN moments
    for phase in (math.inf, -math.inf, math.nan, np.float32("nan")):
        with pytest.raises(ValueError, match="finite"):
            apply_unitary_fock(state, phase, 0)
    for entry in (math.nan, math.inf):
        u = BsSpec("B1").unitary()
        u[1, 0] = entry
        with pytest.raises(ValueError, match="finite"):
            apply_unitary_fock(state, u, (0, 1))


def test_modes_are_checked_alike_everywhere():
    state = tmsv_fock(0.3)
    for bad in (-1, 2, 0.5, None, True):
        with pytest.raises(ValueError, match="modes"):
            fock_moments(state, bad, 0)
        with pytest.raises(ValueError, match="modes"):
            fock_moments(state, 0, bad)
        with pytest.raises(ValueError, match="modes"):
            photon_number_expectation(state, (bad,))
        with pytest.raises(ValueError, match="modes"):
            apply_unitary_fock(state, 0.3, bad)
        with pytest.raises(ValueError, match="modes"):
            apply_unitary_fock(state, BsSpec("B1"), (0, bad))
    # a repeated mode is refused alike: no entry point counts a mode twice
    for m in (0, 1, np.int64(1)):
        with pytest.raises(ValueError, match="distinct"):
            fock_moments(state, m, m)
        with pytest.raises(ValueError, match="distinct"):
            photon_number_expectation(state, (m, m))
        with pytest.raises(ValueError, match="distinct"):
            apply_unitary_fock(state, BsSpec("B1"), (m, m))
    with pytest.raises(ValueError, match="distinct"):
        photon_number_expectation(state, (0, 1, 0))
    # numpy integers are valid indices
    assert (photon_number_expectation(state, (np.int64(1),))
            == photon_number_expectation(state, (1,)))


def _ladder(d):
    """Truncated annihilation operator on d levels."""
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _mode_op(op, mode, dims):
    """`op` on one mode of a product space, identity on the others."""
    out = np.eye(1)
    for k, d in enumerate(dims):
        out = np.kron(out, op if k == mode else np.eye(d))
    return out


def _random_state(rng, dims):
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return amps / np.linalg.norm(amps)


def _dense_pair_map(h, pair):
    """exp(-i H) with H = sum_ab h_ab a_a^dag a_b on the truncated two-mode
    space of `pair` levels, from Kronecker ladder matrices; exact on the pair
    totals below both ceilings, which H never leaves."""
    a = [_mode_op(_ladder(d), k, pair) for k, d in enumerate(pair)]
    ham = sum(h[p, q] * a[p].conj().T @ a[q] for p in range(2) for q in range(2))
    w, v = np.linalg.eigh(ham)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _random_map(rng):
    """A random 2x2 unitary u = exp(-i h) with its Hermitian generator h, so the
    dense reference is built from h rather than from a decomposition of u."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.6 * (g + g.conj().T)
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(-1j * lam)) @ vec.conj().T, h


def _below_ceilings(amps, i, j):
    """Copy of `amps` without the pair totals of modes (i, j) that reach
    min(di, dj), the ones a ladder ceiling cuts."""
    out = np.moveaxis(amps.copy(), (i, j), (0, 1))
    out[np.add.outer(*map(np.arange, out.shape[:2])) >= min(out.shape[:2])] = 0.0
    return np.moveaxis(out, (0, 1), (i, j))


def _check_pair_maps(dims, seed, zeroed_total=None):
    """Every ordered pair of a random state on `dims`: the full state, which
    occupies cut totals, raises CutoffError; restricted to whole totals it
    matches the dense reference within 1e-12, and so does a sparser copy
    without `zeroed_total` and without level 1 of the third mode, whose
    zeroed slices must stay exactly zero."""
    rng = np.random.default_rng(seed)
    full = _random_state(rng, dims)
    u, h = _random_map(rng)
    for i, j in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
        other = 3 - i - j
        pair = (dims[i], dims[j])
        # the lowest cut total is min(di, dj), and it is refused
        with pytest.raises(CutoffError, match=f"pair total {min(pair)} holds .* ceiling"):
            apply_unitary_fock(FockState(full), u, (i, j))
        dense = _dense_pair_map(h, pair)
        whole = _below_ceilings(full, i, j)
        totals = np.add.outer(np.arange(pair[0]), np.arange(pair[1]))
        sparse = np.moveaxis(whole.copy(), (i, j), (0, 1))
        if zeroed_total is not None:
            sparse[totals == zeroed_total] = 0.0
        if dims[other] > 1:
            sparse[:, :, 1] = 0.0
        sparse = np.moveaxis(sparse, (0, 1), (i, j))
        for amps in (whole, sparse):
            got = apply_unitary_fock(FockState(amps), u, (i, j)).amplitudes
            flat = np.moveaxis(amps, (i, j), (0, 1)).reshape(pair[0] * pair[1], -1)
            want = np.moveaxis((dense @ flat).reshape(pair + (dims[other],)), (0, 1), (i, j))
            assert np.max(np.abs(got - want)) <= 1e-12, (i, j)
        out = np.moveaxis(apply_unitary_fock(FockState(sparse), u, (i, j)).amplitudes,
                          (i, j), (0, 1))
        assert np.all(out[totals >= min(pair)] == 0.0)
        if zeroed_total is not None:
            assert np.all(out[totals == zeroed_total] == 0.0)
        if dims[other] > 1:
            assert np.all(out[:, :, 1] == 0.0)


def test_pair_maps_match_dense_reference():
    # total 1 lies below every pair's ceilings, so zeroing it leaves a gap
    # between live totals in each pair
    _check_pair_maps((5, 4, 3), seed=5, zeroed_total=1)


def test_moments_match_dense_operators():
    # support below the top two levels of each mode, so the truncated
    # quadratures act exactly and the ceiling guard passes
    rng = np.random.default_rng(9)
    dims = (6, 5, 5)
    amps = np.zeros(dims, dtype=complex)
    amps[:4, :3, :3] = _random_state(rng, (4, 3, 3))
    psi = amps.reshape(-1)
    for ma, mb in ((2, 0), (1, 2)):
        xa, xb = (_mode_op(_ladder(dims[m]) + _ladder(dims[m]).T, m, dims) for m in (ma, mb))
        xx = xa @ xb @ psi
        m1, m2 = fock_moments(FockState(amps), ma, mb)
        assert m1 == pytest.approx(np.vdot(psi, xx).real, abs=1e-12)
        assert m2 == pytest.approx(np.vdot(xx, xx).real, abs=1e-12)


def _grid_state(G):
    """State of the grid's lossy preparation (0.1 on both modes) at gain G,
    behind an imbalanced B1 and a phase."""
    state, _ = fock._prepare(InterferometerConfig(G=G, alpha1=0.1, beta1=0.1))
    state = apply_unitary_fock(state, BsSpec("B1", 0.1), (0, 1))
    return apply_unitary_fock(state, 0.7, 0)


@pytest.mark.filterwarnings("error")
def test_slice_wise_product_is_the_two_pass_composition_bit_for_bit():
    rng = np.random.default_rng(23)
    for dims in ((6, 5), (5, 1, 4), (4, 3, 5, 2)):
        amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        for a in range(len(dims)):
            for b in range(len(dims)):
                if a != b:
                    assert np.array_equal(fock._xx_apply(amps, a, b),
                                          reference_xx(amps, a, b)), (dims, a, b)
    # a transposed, non-contiguous input
    amps = (rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))).transpose(2, 0, 1)
    assert not amps.flags.c_contiguous
    for a, b in ((0, 1), (2, 0), (1, 2)):
        assert np.array_equal(fock._xx_apply(amps, a, b), reference_xx(amps, a, b))
    # the grid's largest state, and its moments through the public entry point
    state = _grid_state(0.8)
    assert state.dims == (79, 79, 9, 9)
    amps = state.amplitudes
    for a, b in ((0, 1), (1, 0), (2, 0)):
        assert np.array_equal(fock._xx_apply(amps, a, b), reference_xx(amps, a, b))
    xx = reference_xx(amps, 0, 1)
    assert fock_moments(state, 0, 1) == (float(np.vdot(amps, xx).real),
                                         float(np.real(np.vdot(xx, xx))))
    # the oracle's final states on the deepest ancillas, with and without a
    # full arm loss, where a warning from the loss split's weights fails: its
    # moments are the two-pass composition's
    for cfg in (InterferometerConfig(**fields) for fields in ENGINE_DEVICES[1:3]):
        for phi in ENGINE_PHASES:
            state, arm = fock._prepare(cfg)
            state = apply_unitary_fock(state, BsSpec("B1", cfg.delta1), (0, 1))
            state = fock._lose(apply_unitary_fock(state, phi, 0), arm)
            state = apply_unitary_fock(state, BsSpec("B2", cfg.delta2), (0, 1))
            amps, got = state.amplitudes, oracle_pipeline(cfg, phi)
            xx = reference_xx(amps, 0, 1)
            two_pass = (float(np.vdot(amps, xx).real), float(np.real(np.vdot(xx, xx))))
            assert fock_moments(state, 0, 1) == two_pass == (got.mean, got.second_moment), \
                (cfg, phi)


def test_moments_hold_one_full_size_array():
    # the slice-wise X_a X_b keeps the result and a few slices; the two-pass
    # composition peaked at about 3 times the state
    state = _grid_state(0.5)
    assert state.dims == (43, 43, 7, 7)
    tracemalloc.start()
    try:
        fock_moments(state, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * state.amplitudes.nbytes


def test_reference_seed_is_the_pair_bit_for_bit():
    # the pair from its amplitude formula on test-side ladders, against
    # tmsv_fock and against the prepared state of a lossless device
    for G in (0.0, 0.2, 0.8):
        for xi in (-0.0, 1.1):
            cfg = InterferometerConfig(G=G, xi=xi)
            want = reference_seed(cfg)
            state, arm = fock._prepare(cfg)
            assert arm == []
            for got in (tmsv_fock(G, xi), state):
                assert got.dims == want.dims == (2 * tail_cutoff(G) + 3,) * 2
                assert got.amplitudes.tobytes() == want.amplitudes.tobytes(), (G, xi)
                assert got.norm_deficit == want.norm_deficit


def test_moments_guard_against_ceiling_occupation():
    amps = np.zeros((5, 5), dtype=complex)
    amps[4, 4] = 1.0
    with pytest.raises(CutoffError, match="top two levels"):
        fock_moments(FockState(amps), 0, 1)


def test_moments_guard_covers_loss_ancillas():
    # G = 0.8 pair behind a 0.1 loss on each mode, each onto a 4-level
    # ancilla: lost photons reach the ancillas' ceilings while the signal
    # modes' own levels look fine
    state = fock._lose(reference_seed(InterferometerConfig(G=0.8)), ((0, 0.1, 4), (1, 0.1, 4)))
    assert state.dims[2:] == (4, 4)
    with pytest.raises(CutoffError, match="mode 2 holds .* top two levels"):
        fock_moments(state, 0, 1)


def test_moments_refuse_an_imaginary_first_moment(monkeypatch):
    # a product operator that is not Hermitian leaves an imaginary residue
    # in the first moment; the oracle raises instead of dropping it
    xx_apply = fock._xx_apply
    monkeypatch.setattr(fock, "_xx_apply", lambda *args: 1j * xx_apply(*args))
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        oracle_pipeline(InterferometerConfig(G=0.3), math.pi / 4)


def test_ideal_pipeline_mean_signal():
    for phi in (0.0, 0.6, np.pi / 4, np.pi / 2):
        stats = oracle_pipeline(InterferometerConfig(G=0.8), phi)
        want = np.sinh(0.8) * np.cosh(0.8) * np.sin(2 * phi)
        assert stats.mean == pytest.approx(want, abs=1e-10)


def test_pipeline_refuses_oversized_tensors():
    cfg = InterferometerConfig(G=0.8, alpha1=0.1, beta1=0.1, alpha2=0.1, beta2=0.1)
    with pytest.raises(ValueError, match="amplitudes"):
        oracle_pipeline(cfg, 0.3)


# Engine devices checked against the oracle: arm loss on both modes; the
# largest losses the benchmark's oracle states use, one-sided at preparation,
# so the ancillas are at their deepest, and that device with a full arm loss;
# and loss on mode 1 alone.
ENGINE_DEVICES = (
    dict(G=0.5, xi=0.7, alpha2=0.1, beta2=0.08, delta1=0.05, delta2=-0.1),
    dict(G=0.6, xi=-1.1, alpha1=0.3, alpha2=0.3, delta1=-0.12, delta2=0.08),
    dict(G=0.6, xi=-1.1, alpha1=0.3, alpha2=np.pi / 2, delta1=-0.12, delta2=0.08),
    dict(G=0.55, xi=0.4, beta1=0.2, beta2=0.15, delta1=0.07, delta2=-0.06),
)
ENGINE_PHASES = (0.3, np.pi / 2)


@pytest.fixture(scope="module")
def oracle_values():
    """The oracle's statistics on each engine device at each phase."""
    return [[dataclasses.astuple(oracle_pipeline(InterferometerConfig(**fields), phi))
             for phi in ENGINE_PHASES] for fields in ENGINE_DEVICES]


def engine_deviation(oracle_values):
    """The engine's largest deviation from the oracle values, each device built
    fresh, since the phase model is cached per device."""
    worst = 0.0
    for fields, wants in zip(ENGINE_DEVICES, oracle_values):
        cfg = InterferometerConfig(**fields)
        for phi, want in zip(ENGINE_PHASES, wants):
            got = dataclasses.astuple(evaluate(cfg, phi))
            worst = max(worst, *(abs(a - b) for a, b in zip(got, want)))
    return worst


def test_pipeline_arm_loss_matches_engine(oracle_values):
    assert engine_deviation(oracle_values) <= 1e-8


def faulty_chain(fault):
    """`_chain` with faulty element entries: fault takes the entries by name
    and returns the ones it replaces."""
    chain = interferometer._chain
    names = inspect.signature(chain).parameters

    def faulty(*entries):
        entries = dict(zip(names, entries))
        return chain(**{**entries, **fault(entries)})
    return faulty


# Each fault changes the element entries that the phase model's one chain reads.
_MODES = ("a1", "b1", "a2", "b2")
ENGINE_FAULTS = {
    "pump_phase_sign": lambda e: {"sx": -e["sx"]},
    "loss_modes_swapped": lambda e: {f"{t}{m}{k}": e[f"{t}{o}{k}"] for t in "cs"
                                     for m, o in (("a", "b"), ("b", "a")) for k in "12"},
    "noise_cos_for_sin": lambda e: {f"s{m}": e[f"c{m}"] for m in _MODES},
    "rows_cos_squared": lambda e: {f"c{m}": e[f"c{m}"] ** 2 for m in _MODES},
    # cos and sin of pi/4 - delta are sin and cos of pi/4 + delta
    "b1_imbalance_sign": lambda e: {"c1": e["s1"], "s1": e["c1"]},
    "b2_imbalance_sign": lambda e: {"c2": e["s2"], "s2": e["c2"]},
}


@pytest.mark.parametrize("fault", ENGINE_FAULTS.values(), ids=ENGINE_FAULTS.keys())
def test_engine_faults_fail_the_oracle_comparison(monkeypatch, oracle_values, fault):
    monkeypatch.setattr(interferometer, "_chain", faulty_chain(fault))
    assert engine_deviation(oracle_values) > 1e-8


def test_pair_maps_with_a_one_level_mode_match_dense_reference():
    # a one-level mode makes every pair total a single row of the pair matrix,
    # and leaves it only total 0 below its ceiling
    _check_pair_maps((4, 1, 3), seed=8)


def _pair_maps():
    """Splitters, losses, diagonal and anti-diagonal maps, 20 random unitaries."""
    maps = [BsSpec(v, d).unitary() for v in ("B1", "B2")
            for d in (0.0, 0.1, -0.1, 0.7, -0.7)]
    maps += [loss_unitary(a) for a in (0.0, 0.3, np.pi / 2)]
    maps += [np.diag([np.exp(0.3j), np.exp(-1.1j)]),
             np.array([[0.0, np.exp(0.4j)], [np.exp(2.0j), 0.0]])]
    rng = np.random.default_rng(12)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        maps.append(q)
    return [np.ascontiguousarray(u, dtype=complex) for u in maps]


def _generator_block(u, n):
    """Sector block of pair total n as exp(-i H) of the generator h = i log u
    restricted to the sector, a construction independent of the spin basis."""
    lam, w = np.linalg.eig(u)
    h = w @ np.diag(1j * np.log(lam)) @ np.conj(w.T)
    h = 0.5 * (h + np.conj(h.T))
    ks = np.arange(n + 1)
    size = n + 1
    ham = np.diag((h[0, 0].real * ks + h[1, 1].real * (n - ks)).astype(complex))
    if size > 1:
        kk = ks[:-1]
        off = h[0, 1] * np.sqrt((kk + 1.0) * (n - kk))
        ham[np.arange(1, size), np.arange(size - 1)] = off
        ham[np.arange(size - 1), np.arange(1, size)] = np.conj(off)
    lam, vec = np.linalg.eigh(ham)
    return (vec * np.exp(-1j * lam)) @ np.conj(vec.T)


def test_spin_basis_is_orthogonal_with_the_spin_spectrum():
    for n in (0, 1, 2, 7, 40, 100, 160):
        lam, vec = fock._spin_basis(n)
        assert np.isrealobj(vec) and vec.shape == (n + 1, n + 1)
        assert np.max(np.abs(vec.T @ vec - np.eye(n + 1))) <= 1e-13, n
        assert np.max(np.abs(lam - np.arange(-n, n + 1, 2))) <= 1e-12 * (n + 1), n


def test_rotation_factors_rebuild_the_map():
    for u in _pair_maps():
        (l0, l1), t, (r0, r1) = fock._rotation_factors(u.tobytes())
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        rebuilt = np.diag([l0, l1]) @ rot @ np.diag([r0, r1])
        assert np.max(np.abs(rebuilt - u)) <= 1e-15, u
        assert all(abs(abs(p) - 1.0) <= 1e-15 for p in (l0, l1, r0, r1))
        assert 0.0 <= t <= np.pi / 2
    # the phases a zero entry leaves free are 1
    diag = np.diag([np.exp(0.3j), np.exp(-1.1j)])
    assert fock._rotation_factors(diag.tobytes())[:2] == ((np.exp(0.3j), 1.0), 0.0)
    anti = np.array([[0.0, np.exp(0.4j)], [np.exp(2.0j), 0.0]])
    (l0, _), t, _ = fock._rotation_factors(anti.tobytes())
    assert (l0, t) == (1.0, np.pi / 2)


def test_full_sector_blocks_match_the_generator_construction():
    for u in _pair_maps():
        for n in (0, 1, 2, 5, 31, 104):
            got = fock._sector_block.__wrapped__(u.tobytes(), n)
            assert np.max(np.abs(got - _generator_block(u, n))) <= 1e-12, n


def test_pipeline_is_identical_with_cold_and_warm_caches():
    cfg = InterferometerConfig(G=0.5, xi=0.4, alpha1=0.1, beta2=0.2,
                               delta1=0.05, delta2=-0.1)
    for cache in (fock._spin_basis, fock._sector_block):
        cache.cache_clear()
    cold = oracle_pipeline(cfg, 0.7)
    assert oracle_pipeline(cfg, 0.7) == cold


def test_losses_match_the_generic_map_on_full_depth_ancillas():
    # each binomial split against `loss_unitary` applied by the sector blocks
    # onto an ancilla as deep as its mode, cut to the same levels afterwards
    rng = np.random.default_rng(13)
    layouts = (("alpha1", "beta1"), ("alpha2",), ("beta1", "alpha2"), ("alpha2", "beta2"))
    configs = [InterferometerConfig(
        G=rng.uniform(0.2, 0.6), xi=rng.uniform(-np.pi, np.pi),
        delta1=rng.uniform(-0.12, 0.12), delta2=rng.uniform(-0.12, 0.12),
        **{name: rng.uniform(0.02, 0.3) for name in names}) for names in layouts]
    # the deepest ancillas of test_pipeline_arm_loss_matches_engine
    configs.append(InterferometerConfig(G=0.6, xi=-1.1, alpha1=0.3, alpha2=0.3,
                                        delta1=-0.12, delta2=0.08))
    for cfg in configs:
        phi = rng.uniform(0, 2 * np.pi)
        losses = reference_losses(cfg)
        n_prep = (cfg.alpha1 != 0.0) + (cfg.beta1 != 0.0)
        state, arm = fock._prepare(cfg)
        assert arm == losses[n_prep:], cfg
        seed = reference_seed(cfg)
        want, dropped = reference_lose(seed, losses[:n_prep])
        assert state.dims == want.dims == seed.dims + tuple(k for _, _, k in losses[:n_prep])
        assert np.max(np.abs(state.amplitudes - want.amplitudes)) <= 1e-14, cfg
        state = apply_unitary_fock(want, BsSpec("B1", cfg.delta1), (0, 1))
        state = apply_unitary_fock(state, phi, 0)
        got = fock._lose(state, arm)
        want, dropped_arm = reference_lose(state, arm)
        assert got.dims == want.dims == state.dims + tuple(k for _, _, k in arm)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-14, cfg
        assert dropped + dropped_arm <= 1e-14, cfg
        stats = oracle_pipeline(cfg, phi)
        ref = fock._measure(apply_unitary_fock(want, BsSpec("B2", cfg.delta2), (0, 1)))
        for name in ("mean", "second_moment", "sigma", "mean_photons"):
            assert getattr(stats, name) == pytest.approx(getattr(ref, name), rel=1e-13), name


def test_pipeline_pair_maps_act_on_the_leading_axes(monkeypatch):
    # losses split onto their ancillas without a pair map, so every splitter
    # of the grid and of the benchmark's five loss layouts (gain 0.6, losses
    # up to 0.3) acts on the two signal modes, the tensor's leading axes
    calls = []
    apply_pair = fock._apply_pair

    def recording(amps, mode_i, mode_j, u):
        calls.append((mode_i, mode_j))
        return apply_pair(amps, mode_i, mode_j, u)

    monkeypatch.setattr(fock, "_apply_pair", recording)
    for cache in (fock._spin_basis, fock._sector_block):
        cache.cache_clear()
    assert fock.equivalence_grid().passed
    grid_calls = len(calls)
    for names in (("alpha1", "alpha2"), ("beta1", "beta2"), ("alpha2", "beta2"),
                  ("alpha1", "beta2"), ("beta1", "alpha2")):
        oracle_pipeline(InterferometerConfig(G=0.6, xi=0.4, delta1=0.1, delta2=-0.1,
                                             **dict.fromkeys(names, 0.3)), 1.2)
    assert grid_calls > 0 and len(calls) == grid_calls + 10
    assert set(calls) == {(0, 1)}
