"""Zero-mean Gaussian states and the elementary optical transformations.

A state is a real covariance matrix in quadrature ordering
(x1, p1, x2, p2, ...) with the convention

    x = a^dag + a,    p = i(a^dag - a),

so the vacuum covariance is the identity and the homodyne observable is
exactly x with no rescaling.  Every state in scope is zero mean (vacuum
inputs, linear transformations), so the covariance is the whole state.

Lossless transformations are real symplectic matrices acting as
cov -> S cov S^T.  Pure loss is applied directly as a covariance
contraction; its ancilla-dilation twin lives in the Fock oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianState",
    "SymplecticOp",
    "BsSpec",
    "vacuum_state",
    "symplectic_form",
    "physicality_defect",
    "two_mode_squeezer",
    "phase_shifter",
    "beam_splitter",
    "loss_unitary",
    "passive_symplectic",
    "apply_symplectic",
    "apply_loss",
]


@dataclass
class GaussianState:
    """Zero-mean Gaussian state of `n_modes` modes.

    Attributes
    ----------
    n_modes : int
        Number of bosonic modes.
    cov : ndarray
        Real symmetric (2 n_modes, 2 n_modes) covariance matrix in
        (x1, p1, x2, p2, ...) ordering.  Vacuum is the identity.
    """

    n_modes: int
    cov: np.ndarray

    def copy(self) -> "GaussianState":
        return GaussianState(self.n_modes, self.cov.copy())


@dataclass
class SymplecticOp:
    """Real symplectic matrix acting on a state's covariance."""

    matrix: np.ndarray


@dataclass(frozen=True)
class BsSpec:
    """Beam-splitter specification.

    variant "B1" mixes with the -i cross phase and optionally embeds the
    interferometric phase on its first output arm; variant "B2" carries the
    recombining sign pattern.  `imbalance` shifts the mixing angle away from
    45 degrees: amplitude pairs become cos(pi/4 + imbalance),
    sin(pi/4 + imbalance).
    """

    variant: str
    imbalance: float = 0.0
    phase: float = 0.0  # used by B1 only

    def __post_init__(self):
        if self.variant not in ("B1", "B2"):
            raise ValueError(f"unknown beam-splitter variant {self.variant!r}")
        if not abs(self.imbalance) < np.pi / 4:
            raise ValueError("imbalance must satisfy |delta| < pi/4")

    def unitary(self) -> np.ndarray:
        """Complex 2x2 mode map of this beam splitter."""
        th = np.pi / 4 + self.imbalance
        c, s = np.cos(th), np.sin(th)
        if self.variant == "B1":
            # a' = e^{i phase} (cos a - i sin b), b' = -i sin a + cos b
            ph = np.exp(1j * self.phase)
            return np.array([[ph * c, -1j * ph * s], [-1j * s, c]])
        # B2: a' = -cos a + i sin b, b' = -i sin a + cos b
        return np.array([[-c, 1j * s], [-1j * s, c]])


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega in the (x, p) interleaved ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


def vacuum_state(n_modes: int) -> GaussianState:
    """Vacuum of `n_modes` modes: identity covariance."""
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    return GaussianState(n_modes, np.eye(2 * n_modes))


def physicality_defect(state: GaussianState) -> float:
    """Most negative eigenvalue of cov + i Omega (0 for physical states).

    A covariance matrix is physical iff cov + i Omega >= 0; numerical noise
    keeps the smallest eigenvalue a hair below zero, so callers compare the
    returned value against -1e-10 rather than 0.
    """
    omega = symplectic_form(state.n_modes)
    eigs = np.linalg.eigvalsh(state.cov + 1j * omega)
    return float(min(eigs.min(), 0.0))


def passive_symplectic(u: np.ndarray, modes, n_modes: int) -> SymplecticOp:
    """Embed a complex unitary mode map as a real symplectic matrix.

    Heisenberg convention: the op maps a_i -> sum_j u[i, j] a_j on the listed
    modes.  Each complex entry becomes the 2x2 block
    [[Re u, -Im u], [Im u, Re u]] on the corresponding (x, p) pair.
    """
    s = np.eye(2 * n_modes)
    for a, i in enumerate(modes):
        for b, j in enumerate(modes):
            re, im = u[a, b].real, u[a, b].imag
            s[2 * i:2 * i + 2, 2 * j:2 * j + 2] = [[re, -im], [im, re]]
    return SymplecticOp(s)


def two_mode_squeezer(G: float, xi: float = 0.0, mode_i: int = 0, mode_j: int = 1,
                      n_modes: int = 2) -> SymplecticOp:
    """Nondegenerate parametric amplifier acting on a mode pair.

    Implements the Bogoliubov pair a' = U a + V b^dag, b' = U b + V a^dag
    with U = cosh G and V = -i e^{i xi} sinh G, converted to the real
    quadrature representation.  On vacuum it produces sinh^2 G photons per
    mode.

    Args:
        G: dimensionless gain, >= 0.
        xi: pump phase in radians.
        mode_i, mode_j: distinct target modes.
        n_modes: total mode count of the embedding matrix.
    """
    if mode_i == mode_j:
        raise ValueError("squeezer requires two distinct modes")
    if not 0 <= G < np.inf:
        raise ValueError("gain G must be finite and non-negative")
    c, s = np.cosh(G), np.sinh(G)
    sx, cx = np.sin(xi), np.cos(xi)
    # Quadrature image of V = Re V + i Im V = s sin(xi) - i s cos(xi):
    #   x' = c x + Re(V) x_other + Im(V) p_other
    #   p' = c p - Re(V) p_other + Im(V) x_other
    blk_o = np.array([[s * sx, -s * cx], [-s * cx, -s * sx]])
    m = np.eye(2 * n_modes)
    for i in (mode_i, mode_j):
        m[2 * i:2 * i + 2, 2 * i:2 * i + 2] = c * np.eye(2)
    for i, j in ((mode_i, mode_j), (mode_j, mode_i)):
        m[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk_o
    return SymplecticOp(m)


def phase_shifter(phi: float, mode: int = 0, n_modes: int = 2) -> SymplecticOp:
    """Phase shift a -> e^{i phi} a on one mode: an (x, p) rotation."""
    u = np.array([[np.exp(1j * phi)]])
    return passive_symplectic(u, [mode], n_modes)


def beam_splitter(spec: BsSpec, mode_i: int = 0, mode_j: int = 1,
                  n_modes: int = 2) -> SymplecticOp:
    """Beam splitter on a mode pair, built from its complex mode map."""
    if mode_i == mode_j:
        raise ValueError("beam splitter requires two distinct modes")
    return passive_symplectic(spec.unitary(), [mode_i, mode_j], n_modes)


def loss_unitary(alpha: float) -> np.ndarray:
    """Two-mode dilation of the loss channel: a -> cos(a)a + sin(a)u.

    Real orthogonal map on (system, ancilla); used by the Fock oracle.  The
    covariance-level channel in `apply_loss` is this unitary with the vacuum
    ancilla traced out.
    """
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, s], [-s, c]], dtype=complex)


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """cov -> S cov S^T."""
    if op.matrix.shape != state.cov.shape:
        raise ValueError(
            f"operation size {op.matrix.shape} does not match state size {state.cov.shape}")
    return GaussianState(state.n_modes, op.matrix @ state.cov @ op.matrix.T)


def apply_loss(state: GaussianState, mode: int, alpha: float) -> GaussianState:
    """Pure loss of angle alpha on one mode (intensity transmission cos^2).

    The mode's own 2x2 covariance block contracts toward vacuum,
    cov_block -> cos^2(alpha) cov_block + sin^2(alpha) I, and every
    cross-correlation row/column scales by cos(alpha).

    Args:
        state: input state.
        mode: target mode index.
        alpha: loss angle in [0, pi/2]; pi/2 replaces the mode by vacuum.
    """
    if not 0 <= alpha <= np.pi / 2:
        raise ValueError("loss angle must lie in [0, pi/2]")
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range")
    c = np.cos(alpha)
    idx = [2 * mode, 2 * mode + 1]
    cov = state.cov.copy()
    cov[idx, :] *= c
    cov[:, idx] *= c
    cov[np.ix_(idx, idx)] += np.sin(alpha) ** 2 * np.eye(2)
    return GaussianState(state.n_modes, cov)
