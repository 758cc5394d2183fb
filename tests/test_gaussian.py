"""Elementary state and transformation layer."""
import numpy as np
import pytest

from squint import (
    BsSpec,
    apply_loss,
    apply_symplectic,
    beam_splitter,
    mean_photon_number,
    phase_shifter,
    physicality_defect,
    symplectic_form,
    two_mode_squeezer,
    vacuum_state,
)
from conftest import random_two_mode_state


def test_vacuum_is_identity_covariance():
    for n in (1, 2, 5):
        state = vacuum_state(n)
        assert state.n_modes == n
        np.testing.assert_array_equal(state.cov, np.eye(2 * n))


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum_state(0)


@pytest.mark.parametrize("op", [
    two_mode_squeezer(0.7, 0.0),
    two_mode_squeezer(1.5, 2.1),
    two_mode_squeezer(3.0, -0.4),
    phase_shifter(0.9, mode=0),
    phase_shifter(-2.3, mode=1),
    beam_splitter(BsSpec("B1", 0.0)),
    beam_splitter(BsSpec("B1", 0.3, phase=1.1)),
    beam_splitter(BsSpec("B2", -0.25)),
])
def test_operations_are_symplectic(op):
    omega = symplectic_form(2)
    defect = op.matrix @ omega @ op.matrix.T - omega
    assert np.max(np.abs(defect)) <= 1e-12


def test_random_pipeline_states_stay_physical(rng):
    for _ in range(50):
        state = random_two_mode_state(rng)
        assert physicality_defect(state) >= -1e-10


def test_squeezer_photon_number():
    # vacuum in -> 2 sinh^2 G photons out, split evenly over the pair
    for G in (0.0, 0.3, 1.0, 2.5):
        state = apply_symplectic(vacuum_state(2), two_mode_squeezer(G, 0.7))
        assert mean_photon_number(state) == pytest.approx(2 * np.sinh(G) ** 2, abs=1e-12)


def test_passive_operations_conserve_energy(rng):
    for _ in range(20):
        state = random_two_mode_state(rng)
        before = mean_photon_number(state)
        for op in (beam_splitter(BsSpec("B1", rng.uniform(-0.5, 0.5), phase=1.3)),
                   beam_splitter(BsSpec("B2", rng.uniform(-0.5, 0.5))),
                   phase_shifter(rng.uniform(0, 2 * np.pi), mode=1)):
            state = apply_symplectic(state, op)
        assert mean_photon_number(state) == pytest.approx(before, abs=1e-12 * max(1, before))


def test_loss_composition():
    # two sequential losses equal one of angle arccos(cos a1 * cos a2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = random_two_mode_state(rng)
        a1, a2 = rng.uniform(0.05, 1.2, size=2)
        twice = apply_loss(apply_loss(state, 0, a1), 0, a2)
        once = apply_loss(state, 0, np.arccos(np.cos(a1) * np.cos(a2)))
        np.testing.assert_allclose(twice.cov, once.cov, rtol=0, atol=1e-12)


def test_full_loss_restores_vacuum_block():
    state = apply_symplectic(vacuum_state(2), two_mode_squeezer(1.0, 0.0))
    lost = apply_loss(state, 0, np.pi / 2)
    np.testing.assert_allclose(lost.cov[:2, :2], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(lost.cov[:2, 2:], 0.0, atol=1e-14)


def test_zero_loss_is_identity(rng):
    state = random_two_mode_state(rng)
    np.testing.assert_array_equal(apply_loss(state, 1, 0.0).cov, state.cov)


def test_loss_validation():
    state = vacuum_state(2)
    with pytest.raises(ValueError):
        apply_loss(state, 0, -0.1)
    with pytest.raises(ValueError):
        apply_loss(state, 0, np.pi / 2 + 0.1)
    with pytest.raises(ValueError):
        apply_loss(state, 2, 0.1)


def test_squeezer_validation():
    with pytest.raises(ValueError):
        two_mode_squeezer(1.0, 0.0, mode_i=1, mode_j=1)
    with pytest.raises(ValueError):
        two_mode_squeezer(-0.5, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            two_mode_squeezer(bad, 0.0)


def test_beam_splitter_validation():
    with pytest.raises(ValueError):
        BsSpec("B3")
    with pytest.raises(ValueError):
        BsSpec("B1", imbalance=np.pi / 4)
    with pytest.raises(ValueError):
        BsSpec("B1", imbalance=-np.pi / 3)
    with pytest.raises(ValueError):
        beam_splitter(BsSpec("B1"), mode_i=0, mode_j=0)


def test_apply_symplectic_size_mismatch():
    with pytest.raises(ValueError):
        apply_symplectic(vacuum_state(3), two_mode_squeezer(1.0, 0.0))


def test_bs_unitaries_are_unitary():
    for spec in (BsSpec("B1", 0.1, phase=0.7), BsSpec("B2", -0.2)):
        u = spec.unitary()
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)


def test_balanced_splitter_moduli():
    # both variants split 50:50 at zero imbalance
    for spec in (BsSpec("B1"), BsSpec("B2")):
        np.testing.assert_allclose(np.abs(spec.unitary()), np.sqrt(0.5), atol=1e-15)
