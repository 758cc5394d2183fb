"""Shared fixtures: random physical states and an integration-based oracle."""
import numpy as np
import pytest

from squint import BsSpec
from reference import (apply_loss, apply_symplectic, beam_splitter, phase_shifter,
                       reference_passive, two_mode_squeezer, vacuum_state)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def random_two_mode_state(rng, max_gain=1.2):
    """Physical two-mode state from a random squeezer + linear-optics pipeline.

    Physicality holds by construction, so these states exercise the moment
    code on generic covariances without hand-tuning matrices.
    """
    state = vacuum_state()
    state = apply_symplectic(
        state, two_mode_squeezer(rng.uniform(0.1, max_gain), rng.uniform(0, 2 * np.pi)))
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            spec = BsSpec("B1", rng.uniform(-0.6, 0.6))
            op = phase_shifter(rng.uniform(0, 2 * np.pi)) @ beam_splitter(spec)
        elif kind == 1:
            op = beam_splitter(BsSpec("B2", rng.uniform(-0.6, 0.6)))
        elif kind == 2:
            phi, mode = rng.uniform(0, 2 * np.pi), int(rng.integers(0, 2))
            op = (phase_shifter(phi) if mode == 0 else
                  reference_passive(np.array([[np.exp(1j * phi)]]), [1]))
        else:
            state = apply_loss(state, int(rng.integers(0, 2)), rng.uniform(0, 0.5))
            continue
        state = apply_symplectic(state, op)
    return state


def quadrature_product_moments(cov):
    """<X_a X_b> and <(X_a X_b)^2> by direct Gauss-Hermite integration.

    Diagonalises the (x_a, x_b) marginal covariance and integrates the
    degree-4 polynomial exactly with an 8-node probabilists' rule; shares no
    code path with the moment-factoring implementation under test.
    """
    marg = cov[np.ix_([0, 2], [0, 2])]
    evals, q = np.linalg.eigh(marg)
    nodes, weights = np.polynomial.hermite_e.hermegauss(8)
    weights = weights / np.sqrt(2 * np.pi)
    za, zb = np.meshgrid(nodes, nodes, indexing="ij")
    xa = q[0, 0] * np.sqrt(evals[0]) * za + q[0, 1] * np.sqrt(evals[1]) * zb
    xb = q[1, 0] * np.sqrt(evals[0]) * za + q[1, 1] * np.sqrt(evals[1]) * zb
    ww = np.outer(weights, weights)
    prod = xa * xb
    return float(np.sum(ww * prod)), float(np.sum(ww * prod * prod))
