"""Test-side references: helpers that only the tests call.

The symplectic form and the physicality test check the Gaussian layer's
invariants, the block embedding rebuilds each element's real 4x4 matrix
slice by slice, independently of the builders' literals, and the saturation
test reads the tail of a sweep for the acceptance gates.  The eager Fock
pipeline allocates every loss ancilla before the first element acts, the
layout the oracle's lazily appended ancillas must reproduce bit for bit.
"""
import math

import numpy as np

from squint import (BsSpec, FockState, ancilla_cutoff, apply_unitary_fock, loss_unitary,
                    tail_cutoff, tmsv_fock)


def symplectic_form() -> np.ndarray:
    """The pair's symplectic form Omega in the (x1, p1, x2, p2) ordering."""
    return np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def physicality_defect(cov: np.ndarray) -> float:
    """Most negative eigenvalue of cov + i Omega (0 for physical states).

    A covariance matrix is physical iff cov + i Omega >= 0; numerical noise
    keeps the smallest eigenvalue a hair below zero, so callers compare the
    returned value against -1e-10 rather than 0.
    """
    eigs = np.linalg.eigvalsh(cov + 1j * symplectic_form())
    return float(min(eigs.min(), 0.0))


def embed_blocks(blocks, modes):
    """Reference 4x4 matrix: blocks[a][b] is the 2x2 quadrature block from mode
    modes[b] into mode modes[a], written one slice at a time into the identity."""
    s = np.eye(4)
    for a, i in enumerate(modes):
        for b, j in enumerate(modes):
            s[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blocks[a][b]
    return s


def reference_passive(u, modes=(0, 1)):
    """Real symplectic matrix of the complex mode map u on `modes` (Heisenberg
    convention a_i -> sum_j u[i, j] a_j): each entry z becomes the block
    [[Re z, -Im z], [Im z, Re z]]."""
    return embed_blocks([[[[z.real, -z.imag], [z.imag, z.real]] for z in row] for row in u],
                        modes)


def detect_saturation(values):
    """Whether the tail of a sweep has flattened out.

    Returns (saturated, tail_value): saturated is True when the last three
    values agree pairwise to within 1% of the final value, and tail_value is
    that final value.
    """
    vals = [float(v) for v in values]
    if len(vals) < 3:
        return False, vals[-1] if vals else math.nan
    tail = vals[-3:]
    ref = abs(tail[-1])
    if not math.isfinite(ref) or ref == 0.0:
        return False, tail[-1]
    spread = max(tail) - min(tail)
    return bool(spread <= 0.01 * ref), tail[-1]


def eager_lose(state, losses, first_ancilla):
    """Each (mode, angle) loss as `loss_unitary` onto the next vacuum ancilla,
    already present in the tensor from `first_ancilla` on."""
    for k, (mode, angle) in enumerate(losses):
        state = apply_unitary_fock(state, loss_unitary(angle), (mode, first_ancilla + k))
    return state


def eager_prepare(config, n_max=None):
    """Squeezed pair cut off at n_max (default `tail_cutoff(G)`) after the
    preparation losses, with one vacuum ancilla of `ancilla_cutoff` levels
    per nonzero loss allocated up front, in pipeline order after the two
    signal modes; returns the state and the arm losses still to apply."""
    losses = [(mode, angle) for mode, angle in ((0, config.alpha1), (1, config.beta1),
                                                (0, config.alpha2), (1, config.beta2))
              if angle != 0.0]
    n_prep = (config.alpha1 != 0.0) + (config.beta1 != 0.0)
    n_sup = tail_cutoff(config.G) if n_max is None else n_max
    dim = 2 * n_sup + 3
    dims = [dim, dim] + [ancilla_cutoff(config.G, angle, n_sup) for _, angle in losses]
    seed = tmsv_fock(config.G, config.xi, n_max=n_sup)
    amps = np.zeros(dims, dtype=complex)
    idx = np.arange(n_sup + 1)
    amps[(idx, idx) + (0,) * len(losses)] = seed.amplitudes[idx, idx]
    return (eager_lose(FockState(amps, seed.norm_deficit), losses[:n_prep], 2),
            losses[n_prep:])


def eager_pipeline_state(config, phi):
    """The oracle pipeline's state before measurement, ancillas allocated up front."""
    state, arm = eager_prepare(config)
    state = apply_unitary_fock(state, BsSpec("B1", config.delta1), (0, 1))
    state = apply_unitary_fock(state, phi, 0)
    state = eager_lose(state, arm, state.n_modes - len(arm))
    return apply_unitary_fock(state, BsSpec("B2", config.delta2), (0, 1))
