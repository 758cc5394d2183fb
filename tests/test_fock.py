"""Truncated number-basis machinery: construction, unitaries, guards."""
import math
import time

import numpy as np
import pytest

from squint import fock
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
from reference import eager_pipeline_state, eager_prepare


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


def test_high_gain_pipeline_is_refused_quickly():
    # the pair cutoff at G = 10 is about 1.65e9 levels; sizing it takes no loop
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="amplitudes"):
        oracle_pipeline(InterferometerConfig(G=10.0), 0.3)
    assert time.perf_counter() - t0 < 1.0


def test_ancilla_cutoff_reference_points():
    n_sup = tail_cutoff(0.8)
    assert [ancilla_cutoff(0.8, a, n_sup) for a in (0.02, 0.1, 0.2, 0.3)] == [5, 9, 13, 19]
    assert ancilla_cutoff(0.2, 0.1, tail_cutoff(0.2)) == 6
    # a tiny loss still keeps the two levels the guard inspects above the tail
    assert ancilla_cutoff(0.8, 1e-3, n_sup) == 4
    # near full loss the bound is void: every photon of the truncated pair
    # (2 n_sup + 1 levels) plus the guard's two-level pad
    assert ancilla_cutoff(0.8, np.pi / 2 - 1e-3, n_sup) == 2 * n_sup + 3
    assert ancilla_cutoff(0.0, 0.1, tail_cutoff(0.0)) == 3


def test_cutoffs_reject_bad_input():
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="gain"):
            tail_cutoff(bad)
        with pytest.raises(ValueError, match="gain"):
            ancilla_cutoff(bad, 0.1, 10)
    for bad in (-0.1, np.pi / 2 + 0.1, np.nan):
        with pytest.raises(ValueError, match="loss angle"):
            ancilla_cutoff(0.5, bad, 10)


def test_cutoffs_refuse_non_numbers_and_bad_level_counts():
    with pytest.raises(ValueError, match="loss angle must be a number"):
        ancilla_cutoff(0.5, "0.1", 10)
    for bad in ("1", None, True):
        with pytest.raises(ValueError, match="gain G must be a number"):
            ancilla_cutoff(bad, 0.1, 10)
        with pytest.raises(ValueError, match="gain G must be a number"):
            tail_cutoff(bad)
    for bad in (-3, 2.5, True, "4", None):
        with pytest.raises(ValueError, match="n_sup must be a non-negative integer"):
            ancilla_cutoff(0.5, 0.1, bad)
    assert ancilla_cutoff(0.8, 0.1, np.int64(tail_cutoff(0.8))) == 9


def test_tmsv_rejects_a_cutoff_that_is_not_a_count():
    for bad in (2.5, True, False, -1, "5", np.float64(5.0)):
        with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
            tmsv_fock(0.0, n_max=bad)
    assert tmsv_fock(0.0, n_max=np.int64(3)).dims == (4, 4)


def test_fock_angles_refuse_non_numbers_and_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="pump phase xi must be finite"):
            tmsv_fock(0.5, xi=bad)
    # a bool is not a phase angle, as everywhere else a number is checked
    with pytest.raises(ValueError, match="phase angle must be a number"):
        apply_unitary_fock(tmsv_fock(0.3, n_max=16), True, 0)


def test_tmsv_zero_gain_is_vacuum():
    state = tmsv_fock(0.0, n_max=5)
    expected = np.zeros((6, 6))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(state.amplitudes, expected)
    assert state.norm_deficit == 0.0


def test_tmsv_pairwise_support():
    state = tmsv_fock(0.5, xi=0.7, n_max=20)
    off = state.amplitudes.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) <= 1e-15


def test_tmsv_photon_numbers():
    state = tmsv_fock(0.5, n_max=20)
    per_mode = np.sinh(0.5) ** 2
    assert photon_number_expectation(state, (0,)) == pytest.approx(per_mode, abs=1e-12)
    assert photon_number_expectation(state, (1,)) == pytest.approx(per_mode, abs=1e-12)

    # the automatic cutoff is tail_cutoff(G), and resolves the tail well
    # enough for 1e-10 totals
    assert tmsv_fock(0.2).dims == (tail_cutoff(0.2) + 1,) * 2
    state = tmsv_fock(1.0)
    assert state.dims == (58, 58)
    assert photon_number_expectation(state) == pytest.approx(
        2 * np.sinh(1.0) ** 2, abs=1e-10)


def test_tmsv_norm_deficit_bounded():
    for G in (0.2, 0.5, 1.0):
        state = tmsv_fock(G)
        assert 0.0 <= state.norm_deficit <= 1e-12
        assert state.norm() ** 2 + state.norm_deficit == pytest.approx(1.0, abs=1e-12)


def test_tmsv_rejects_undersized_cutoff():
    # G = 1 genuinely needs 57 terms for the 1e-14 tail bound; 40 is not enough
    with pytest.raises(CutoffError):
        tmsv_fock(1.0, n_max=40)
    with pytest.raises(CutoffError):
        tmsv_fock(0.8, n_max=3)


def test_fock_state_validates_deficit():
    amps = np.zeros((3, 3), dtype=complex)
    amps[0, 0] = 1.0
    with pytest.raises(ValueError):
        FockState(amps, norm_deficit=1e-6)
    with pytest.raises(ValueError):
        FockState(amps, norm_deficit=-1e-15)


def test_phase_full_turn_is_identity():
    state = tmsv_fock(0.5, n_max=20)
    turned = apply_unitary_fock(state, 2 * np.pi, 0)
    assert np.max(np.abs(turned.amplitudes - state.amplitudes)) <= 1e-12


def test_single_photon_balanced_split():
    amps = np.zeros((3, 3), dtype=complex)
    amps[1, 0] = 1.0
    out = apply_unitary_fock(FockState(amps), BsSpec("B1"), (0, 1))
    assert abs(out.amplitudes[1, 0]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert abs(out.amplitudes[0, 1]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_unitaries_preserve_norm_and_photon_total():
    state = tmsv_fock(0.8, xi=0.4, n_max=40)
    n0 = photon_number_expectation(state)
    for op, modes in ((BsSpec("B1", 0.1), (0, 1)),
                      (BsSpec("B2", -0.1), (0, 1)),
                      (1.3, 0)):
        state = apply_unitary_fock(state, op, modes)
    assert state.norm() == pytest.approx(np.sqrt(1 - state.norm_deficit), abs=1e-12)
    assert photon_number_expectation(state) == pytest.approx(n0, abs=1e-10)


def test_rejects_non_passive_map():
    state = tmsv_fock(0.3, n_max=16)
    boost = np.array([[np.cosh(0.5), np.sinh(0.5)],
                      [np.sinh(0.5), np.cosh(0.5)]], dtype=complex)
    with pytest.raises(ValueError, match="passive|unitary"):
        apply_unitary_fock(state, boost, (0, 1))


def test_apply_unitary_input_validation():
    state = tmsv_fock(0.3, n_max=16)
    with pytest.raises(ValueError):
        apply_unitary_fock(state, BsSpec("B1"), (0, 0))
    with pytest.raises(ValueError):
        apply_unitary_fock(state, BsSpec("B1"), (0, 5))
    with pytest.raises(ValueError):
        apply_unitary_fock(state, 0.5, (0, 1))
    with pytest.raises(ValueError):
        apply_unitary_fock(state, np.eye(3, dtype=complex), (0, 1))
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
    state = tmsv_fock(0.3, n_max=16)
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


def test_pair_maps_match_dense_reference():
    # exp(-i H) with H = sum_ab h_ab a_a^dag a_b on the truncated two-mode
    # space, from Kronecker ladder matrices; u comes from the same h, so the
    # module's logarithm of u is checked rather than reused
    rng = np.random.default_rng(5)
    dims = (5, 4, 3)
    full = _random_state(rng, dims)  # every sector occupied, truncated ones too
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.6 * (g + g.conj().T)
    lam, vec = np.linalg.eigh(h)
    u = (vec * np.exp(-1j * lam)) @ vec.conj().T
    for i, j in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
        other = 3 - i - j
        pair = (dims[i], dims[j])
        a = [_mode_op(_ladder(d), k, pair) for k, d in enumerate(pair)]
        ham = sum(h[p, q] * a[p].conj().T @ a[q] for p in range(2) for q in range(2))
        w, v = np.linalg.eigh(ham)
        dense = (v * np.exp(-1j * w)) @ v.conj().T
        totals = np.add.outer(np.arange(dims[i]), np.arange(dims[j]))
        sparse = np.moveaxis(full.copy(), (i, j), (0, 1))
        sparse[totals == 3] = 0.0
        sparse[:, :, 1] = 0.0
        sparse = np.moveaxis(sparse, (0, 1), (i, j))
        for amps in (full, sparse):
            got = apply_unitary_fock(FockState(amps), u, (i, j)).amplitudes
            flat = np.moveaxis(amps, (i, j), (0, 1)).reshape(pair[0] * pair[1], -1)
            want = np.moveaxis((dense @ flat).reshape(pair + (dims[other],)), (0, 1), (i, j))
            assert np.max(np.abs(got - want)) <= 1e-12, (i, j)
        out = np.moveaxis(apply_unitary_fock(FockState(sparse), u, (i, j)).amplitudes,
                          (i, j), (0, 1))
        assert np.all(out[totals == 3] == 0.0)
        assert np.all(out[:, :, 1] == 0.0)


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


def test_moments_guard_against_ceiling_occupation():
    amps = np.zeros((5, 5), dtype=complex)
    amps[4, 4] = 1.0
    with pytest.raises(CutoffError, match="top two levels"):
        fock_moments(FockState(amps), 0, 1)


def test_moments_guard_covers_loss_ancillas():
    # G = 0.8 pair behind a 0.1 loss on each mode, each onto a 4-level
    # ancilla: lost photons reach the ancillas' ceilings, which shifts the
    # second moment by 8e-8 while the signal modes' own levels look fine
    n_sup = tail_cutoff(0.8)
    dim = 2 * n_sup + 3
    seed = tmsv_fock(0.8, n_max=n_sup)
    amps = np.zeros((dim, dim, 4, 4), dtype=complex)
    amps[:n_sup + 1, :n_sup + 1, 0, 0] = seed.amplitudes
    state = FockState(amps, seed.norm_deficit)
    for mode, ancilla in ((0, 2), (1, 3)):
        state = apply_unitary_fock(state, loss_unitary(0.1), (mode, ancilla))
    with pytest.raises(CutoffError, match="mode 2 holds .* top two levels"):
        fock_moments(state, 0, 1)


def test_ideal_pipeline_mean_signal():
    for phi in (0.0, 0.6, np.pi / 4, np.pi / 2):
        stats = oracle_pipeline(InterferometerConfig(G=0.8), phi)
        want = np.sinh(0.8) * np.cosh(0.8) * np.sin(2 * phi)
        assert stats.mean == pytest.approx(want, abs=1e-10)


def test_pipeline_refuses_oversized_tensors():
    cfg = InterferometerConfig(G=0.8, alpha1=0.1, beta1=0.1, alpha2=0.1, beta2=0.1)
    with pytest.raises(ValueError, match="amplitudes"):
        oracle_pipeline(cfg, 0.3)


def test_pipeline_arm_loss_matches_engine():
    configs = (
        InterferometerConfig(G=0.5, xi=0.7, alpha2=0.1, beta2=0.08,
                             delta1=0.05, delta2=-0.1),
        # the largest losses the benchmark's oracle states use, one-sided at
        # preparation, so the ancillas are at their deepest
        InterferometerConfig(G=0.6, xi=-1.1, alpha1=0.3, alpha2=0.3,
                             delta1=-0.12, delta2=0.08),
    )
    for cfg in configs:
        for phi in (0.3, np.pi / 2):
            got = oracle_pipeline(cfg, phi)
            ref = evaluate(cfg, phi)
            assert got.mean == pytest.approx(ref.mean, abs=1e-8)
            assert got.second_moment == pytest.approx(ref.second_moment, abs=1e-8)
            assert got.sigma == pytest.approx(ref.sigma, abs=1e-8)
            assert got.mean_photons == pytest.approx(ref.mean_photons, abs=1e-8)


def test_pair_maps_with_a_one_level_mode_match_dense_reference():
    # a one-level mode makes every pair total a single row of the pair matrix
    rng = np.random.default_rng(8)
    dims = (4, 1, 3)
    amps = _random_state(rng, dims)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.6 * (g + g.conj().T)
    lam, vec = np.linalg.eigh(h)
    u = (vec * np.exp(-1j * lam)) @ vec.conj().T
    for i, j in ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)):
        other = 3 - i - j
        pair = (dims[i], dims[j])
        a = [_mode_op(_ladder(d), k, pair) for k, d in enumerate(pair)]
        ham = sum(h[p, q] * a[p].conj().T @ a[q] for p in range(2) for q in range(2))
        w, v = np.linalg.eigh(ham)
        dense = (v * np.exp(-1j * w)) @ v.conj().T
        got = apply_unitary_fock(FockState(amps), u, (i, j)).amplitudes
        flat = np.moveaxis(amps, (i, j), (0, 1)).reshape(pair[0] * pair[1], -1)
        want = np.moveaxis((dense @ flat).reshape(pair + (dims[other],)), (0, 1), (i, j))
        assert np.max(np.abs(got - want)) <= 1e-12, (i, j)


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


def _generator_block(u, n, di, dj):
    """Sector block as exp(-i H) of the generator h = i log u restricted to
    the sector, the construction truncated sectors keep."""
    lam, w = np.linalg.eig(u)
    h = w @ np.diag(1j * np.log(lam)) @ np.conj(w.T)
    h = 0.5 * (h + np.conj(h.T))
    ks = np.arange(max(0, n - (dj - 1)), min(n, di - 1) + 1)
    size = len(ks)
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
            assert np.max(np.abs(got - _generator_block(u, n, n + 1, n + 3))) <= 1e-12, n


def test_truncated_sector_blocks_keep_the_generator_construction():
    # every cut total of each ladder pair at once ((19, 6) mixes block sizes 6
    # down to 1), and one non-contiguous set of totals
    cases = [(di, dj, range(min(di, dj), di + dj - 1))
             for di, dj in ((5, 3), (3, 5), (4, 1), (1, 4), (19, 6))]
    cases.append((19, 6, (7, 12, 19, 21, 23)))
    for u in _pair_maps():
        for di, dj, totals in cases:
            got = fock._cut_blocks(u.tobytes(), list(totals), di, dj)
            assert sorted(got) == sorted(totals), (di, dj)
            for n in totals:
                assert np.array_equal(got[n], _generator_block(u, n, di, dj)), (n, di, dj)


def test_pipeline_is_identical_with_cold_and_warm_caches():
    cfg = InterferometerConfig(G=0.5, xi=0.4, alpha1=0.1, beta2=0.2,
                               delta1=0.05, delta2=-0.1)
    for cache in (fock._spin_basis, fock._rotation_factors, fock._sector_block):
        cache.cache_clear()
    cold = oracle_pipeline(cfg, 0.7)
    assert oracle_pipeline(cfg, 0.7) == cold


def test_pipeline_is_bit_identical_to_eager_ancillas():
    # ancillas appended as their losses act give the same bits as ancillas
    # allocated up front, at the prepared state and at the outputs
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
        (state, arm), (want, want_arm) = fock._prepare(cfg, None), eager_prepare(cfg)
        assert [loss[:2] for loss in arm] == want_arm
        assert np.array_equal(state.amplitudes,
                              want.amplitudes[(Ellipsis,) + (0,) * len(arm)]), cfg
        assert oracle_pipeline(cfg, phi) == fock._measure(eager_pipeline_state(cfg, phi)), cfg
