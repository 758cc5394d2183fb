"""Elementary state and transformation layer."""
import numpy as np
import pytest

from squint import BsSpec, loss_unitary
from conftest import random_two_mode_state
from reference import (apply_loss, apply_symplectic, beam_splitter, embed_blocks,
                       mean_photon_number, phase_shifter, physicality_defect, reference_passive,
                       symplectic_form, two_mode_squeezer, vacuum_state)


def test_vacuum_is_identity_covariance():
    np.testing.assert_array_equal(vacuum_state(), np.eye(4))


@pytest.mark.parametrize("op", [
    two_mode_squeezer(0.7, 0.0),
    two_mode_squeezer(1.5, 2.1),
    two_mode_squeezer(3.0, -0.4),
    phase_shifter(0.9),
    beam_splitter(BsSpec("B1", 0.0)),
    phase_shifter(1.1) @ beam_splitter(BsSpec("B1", 0.3)),
    beam_splitter(BsSpec("B2", -0.25)),
])
def test_operations_are_symplectic(op):
    omega = symplectic_form()
    defect = op @ omega @ op.T - omega
    assert np.max(np.abs(defect)) <= 1e-12


def test_random_pipeline_states_stay_physical(rng):
    for _ in range(50):
        state = random_two_mode_state(rng)
        assert physicality_defect(state) >= -1e-10


def test_squeezer_photon_number():
    # vacuum in -> 2 sinh^2 G photons out, split evenly over the pair
    for G in (0.0, 0.3, 1.0, 2.5):
        state = apply_symplectic(vacuum_state(), two_mode_squeezer(G, 0.7))
        assert mean_photon_number(state) == pytest.approx(2 * np.sinh(G) ** 2, abs=1e-12)


def test_passive_operations_conserve_energy(rng):
    for _ in range(20):
        state = random_two_mode_state(rng)
        before = mean_photon_number(state)
        for op in (phase_shifter(1.3) @ beam_splitter(BsSpec("B1", rng.uniform(-0.5, 0.5))),
                   beam_splitter(BsSpec("B2", rng.uniform(-0.5, 0.5))),
                   phase_shifter(rng.uniform(0, 2 * np.pi))):
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
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)


def test_full_loss_restores_vacuum_block():
    state = apply_symplectic(vacuum_state(), two_mode_squeezer(1.0, 0.0))
    lost = apply_loss(state, 0, np.pi / 2)
    np.testing.assert_allclose(lost[:2, :2], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(lost[:2, 2:], 0.0, atol=1e-14)


def test_zero_loss_is_identity(rng):
    state = random_two_mode_state(rng)
    np.testing.assert_array_equal(apply_loss(state, 1, 0.0), state)


def test_loss_validation():
    state = vacuum_state()
    with pytest.raises(ValueError):
        apply_loss(state, 0, -0.1)
    with pytest.raises(ValueError):
        apply_loss(state, 0, np.pi / 2 + 0.1)
    with pytest.raises(ValueError):
        apply_loss(state, 2, 0.1)


def test_loss_unitary_applies_the_loss_angle_rule():
    for bad in (5.0, -0.1, np.pi / 2 + 1e-9):
        with pytest.raises(ValueError, match="loss angle must lie in"):
            loss_unitary(bad)
    for bad in ("0.1", None, True, 1j, np.nan, np.inf):
        with pytest.raises(ValueError, match="loss angle must be"):
            loss_unitary(bad)
    # the range edges are accepted: no loss, and full loss onto the ancilla
    np.testing.assert_array_equal(loss_unitary(0.0), np.eye(2))
    np.testing.assert_array_equal(loss_unitary(np.pi / 2),
                                  [[np.cos(np.pi / 2), 1.0], [-1.0, np.cos(np.pi / 2)]])


def test_squeezer_validation():
    with pytest.raises(ValueError):
        two_mode_squeezer(-0.5, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            two_mode_squeezer(bad, 0.0)


def test_squeezer_and_loss_refuse_non_numbers():
    for bad in ("1", None, True, 1j):
        with pytest.raises(ValueError, match="gain G must be a number"):
            two_mode_squeezer(bad, 0.0)
        with pytest.raises(ValueError, match="loss angle must be a number"):
            apply_loss(vacuum_state(), 0, bad)
    for bad in (True, False, 1.0, "0", None, np.float64(0.0)):
        with pytest.raises(ValueError, match="mode must be an integer"):
            apply_loss(vacuum_state(), bad, 0.1)
    with pytest.raises(ValueError, match="loss angle must be finite"):
        apply_loss(vacuum_state(), 0, np.nan)
    # numpy integers are valid mode indices
    np.testing.assert_array_equal(apply_loss(vacuum_state(), np.int64(1), 0.3),
                                  apply_loss(vacuum_state(), 1, 0.3))


def test_builders_refuse_non_finite_angles():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="pump phase xi must be finite"):
            two_mode_squeezer(1.0, bad)
        with pytest.raises(ValueError, match="phase phi must be finite"):
            phase_shifter(bad)


def test_beam_splitter_validation():
    with pytest.raises(ValueError):
        BsSpec("B3")
    with pytest.raises(ValueError):
        BsSpec("B1", imbalance=np.pi / 4)
    with pytest.raises(ValueError):
        BsSpec("B1", imbalance=-np.pi / 3)


def test_splitter_imbalance_must_be_a_real_number():
    for bad in ("0.1", None, True, 0.5 + 0j):
        with pytest.raises(ValueError, match="imbalance must be a number"):
            BsSpec("B1", imbalance=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="imbalance must be finite"):
            BsSpec("B2", imbalance=bad)
    assert np.array_equal(beam_splitter(BsSpec("B1", 0)), beam_splitter(BsSpec("B1", 0.0)))


def test_apply_symplectic_size_mismatch():
    with pytest.raises(ValueError):
        apply_symplectic(np.eye(6), two_mode_squeezer(1.0, 0.0))


def test_bs_unitaries_are_unitary():
    for spec in (BsSpec("B1", 0.1), BsSpec("B2", -0.2)):
        u = spec.unitary()
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)


def test_balanced_splitter_moduli():
    # both variants split 50:50 at zero imbalance
    for spec in (BsSpec("B1"), BsSpec("B2")):
        np.testing.assert_allclose(np.abs(spec.unitary()), np.sqrt(0.5), atol=1e-15)


def reference_squeezer(G, xi):
    c, s = np.cosh(G), np.sinh(G)
    sx, cx = np.sin(xi), np.cos(xi)
    diag = c * np.eye(2)
    off = np.array([[s * sx, -s * cx], [-s * cx, -s * sx]])
    return embed_blocks([[diag, off], [off, diag]], (0, 1))


def assert_bit_equal(got, ref):
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


def test_builders_match_block_reference(rng):
    draws = [(rng.uniform(0.0, 3.0), *rng.uniform(-2 * np.pi, 2 * np.pi, size=3))
             for _ in range(25)]
    edges = [(0.0, np.pi, -0.0, -0.0), (0.0, -0.4, -0.0, 1.1)]  # G = 0, signed zeros
    for k, (G, xi, phi, phase) in enumerate(draws + edges):
        spec = BsSpec(("B1", "B2")[k % 2], 0.7 * np.sin(phase))
        assert_bit_equal(two_mode_squeezer(G, xi), reference_squeezer(G, xi))
        assert_bit_equal(beam_splitter(spec), reference_passive(spec.unitary()))
        assert_bit_equal(phase_shifter(phi),
                         reference_passive(np.array([[np.exp(1j * phi)]]), [0]))
