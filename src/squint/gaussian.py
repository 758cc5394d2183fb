"""Zero-mean Gaussian states and the elementary optical transformations.

A state is its real covariance matrix, an ndarray in quadrature ordering
(x1, p1, x2, p2, ...) with the convention

    x = a^dag + a,    p = i(a^dag - a),

so the vacuum covariance is the identity and the homodyne observable is
exactly x with no rescaling.  Every state in scope is zero mean (vacuum
inputs, linear transformations), so the covariance is the whole state.

Each element of the device acts on the squeezed pair, modes 0 and 1, and is
its real 4x4 symplectic matrix S, acting as cov -> S cov S^T.  Pure loss is
applied directly as a covariance contraction; its ancilla-dilation twin
lives in the Fock oracle.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
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


def _check_finite(name: str, value) -> None:
    """ValueError unless value is a real number (not a bool) within float
    range: nan, +-inf and an int too large for a float are not finite."""
    # a float (np.float64 too) skips the slow abstract-class checks: hot path
    if not isinstance(value, float) and (isinstance(value, bool)
                                         or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BsSpec:
    """Beam-splitter specification.

    variant "B1" mixes with the -i cross phase; variant "B2" carries the
    recombining sign pattern.  `imbalance` shifts the mixing angle away from
    45 degrees: amplitude pairs become cos(pi/4 + imbalance),
    sin(pi/4 + imbalance).
    """

    variant: str
    imbalance: float = 0.0

    def __post_init__(self):
        if self.variant not in ("B1", "B2"):
            raise ValueError(f"unknown beam-splitter variant {self.variant!r}")
        _check_finite("imbalance", self.imbalance)
        if not abs(self.imbalance) < math.pi / 4:
            raise ValueError("imbalance must satisfy |delta| < pi/4")

    def unitary(self) -> np.ndarray:
        """Complex 2x2 mode map of this beam splitter."""
        th = np.pi / 4 + self.imbalance
        c, s = np.cos(th), np.sin(th)
        if self.variant == "B1":
            # a' = cos a - i sin b, b' = -i sin a + cos b
            return np.array([[c, -1j * s], [-1j * s, c]])
        # B2: a' = -cos a + i sin b, b' = -i sin a + cos b
        return np.array([[-c, 1j * s], [-1j * s, c]])


def symplectic_form() -> np.ndarray:
    """The pair's symplectic form Omega in the (x1, p1, x2, p2) ordering."""
    return np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def vacuum_state() -> np.ndarray:
    """Vacuum covariance of the pair: the 4x4 identity."""
    return np.eye(4)


def physicality_defect(cov: np.ndarray) -> float:
    """Most negative eigenvalue of cov + i Omega (0 for physical states).

    A covariance matrix is physical iff cov + i Omega >= 0; numerical noise
    keeps the smallest eigenvalue a hair below zero, so callers compare the
    returned value against -1e-10 rather than 0.
    """
    eigs = np.linalg.eigvalsh(cov + 1j * symplectic_form())
    return float(min(eigs.min(), 0.0))


def passive_symplectic(u: np.ndarray) -> np.ndarray:
    """Real symplectic matrix of a complex 2x2 mode map on the pair.

    Heisenberg convention: the map is a_i -> sum_j u[i, j] a_j.  Each complex
    entry becomes the 2x2 block [[Re u, -Im u], [Im u, Re u]] on the
    corresponding (x, p) pair.
    """
    rows = []
    for row in u.tolist():
        rows.append([v for z in row for v in (z.real, -z.imag)])
        rows.append([v for z in row for v in (z.imag, z.real)])
    return np.array(rows)


def two_mode_squeezer(G: float, xi: float = 0.0) -> np.ndarray:
    """Nondegenerate parametric amplifier acting on the pair.

    Implements the Bogoliubov pair a' = U a + V b^dag, b' = U b + V a^dag
    with U = cosh G and V = -i e^{i xi} sinh G, converted to the real
    quadrature representation.  On vacuum it produces sinh^2 G photons per
    mode.

    Args:
        G: dimensionless gain, >= 0.
        xi: pump phase in radians.
    """
    _check_finite("gain G", G)
    if G < 0:
        raise ValueError("gain G must be finite and non-negative")
    _check_finite("pump phase xi", xi)
    c, s = np.cosh(G), np.sinh(G)
    re, im = s * math.sin(xi), -s * math.cos(xi)
    # Quadrature image of V = Re V + i Im V = s sin(xi) - i s cos(xi):
    #   x' = c x + Re(V) x_other + Im(V) p_other
    #   p' = c p - Re(V) p_other + Im(V) x_other
    return np.array([[c, 0.0, re, im],
                     [0.0, c, im, -re],
                     [re, im, c, 0.0],
                     [im, -re, 0.0, c]])


def phase_shifter(phi: float, mode: int = 0) -> np.ndarray:
    """Phase shift a -> e^{i phi} a on mode 0 or 1: an (x, p) rotation."""
    if mode not in (0, 1):
        raise ValueError(f"mode {mode} out of range for the pair (0 or 1)")
    _check_finite("phase phi", phi)
    # + 0.0 turns sin(-0.0) into the +0.0 that Im exp(1j * -0.0) carries
    c, s = math.cos(phi), math.sin(phi) + 0.0
    if mode == 0:
        return np.array([[c, -s, 0.0, 0.0],
                         [s, c, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0],
                     [0.0, 0.0, c, -s],
                     [0.0, 0.0, s, c]])


def beam_splitter(spec: BsSpec) -> np.ndarray:
    """Beam splitter on the pair: `passive_symplectic(spec.unitary())`,
    written out entry by entry, signed zeros included (Re(-1j * s) is +0.0,
    -Im(c + 0j) is -0.0)."""
    th = math.pi / 4 + spec.imbalance
    c, s = math.cos(th), math.sin(th)
    if spec.variant == "B1":
        return np.array([[c, -0.0, 0.0, s],
                         [0.0, c, -s, 0.0],
                         [0.0, s, c, -0.0],
                         [-s, 0.0, 0.0, c]])
    return np.array([[-c, -0.0, 0.0, -s],
                     [0.0, -c, s, 0.0],
                     [0.0, s, c, -0.0],
                     [-s, 0.0, 0.0, c]])


def loss_unitary(alpha: float) -> np.ndarray:
    """Two-mode dilation of the loss channel: a -> cos(a)a + sin(a)u.

    Real orthogonal map on (system, ancilla); used by the Fock oracle.  The
    covariance-level channel in `apply_loss` is this unitary with the vacuum
    ancilla traced out.
    """
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, s], [-s, c]], dtype=complex)


def apply_symplectic(cov: np.ndarray, s: np.ndarray) -> np.ndarray:
    """cov -> S cov S^T."""
    if s.shape != cov.shape:
        raise ValueError(f"operation size {s.shape} does not match state size {cov.shape}")
    return s @ cov @ s.T


def apply_loss(cov: np.ndarray, mode: int, alpha: float) -> np.ndarray:
    """Pure loss of angle alpha on one mode (intensity transmission cos^2).

    The mode's own 2x2 covariance block contracts toward vacuum,
    cov_block -> cos^2(alpha) cov_block + sin^2(alpha) I, and every
    cross-correlation row/column scales by cos(alpha).

    Args:
        cov: input covariance.
        mode: target mode index.
        alpha: loss angle in [0, pi/2]; pi/2 replaces the mode by vacuum.
    """
    _check_finite("loss angle", alpha)
    if not 0 <= alpha <= np.pi / 2:
        raise ValueError("loss angle must lie in [0, pi/2]")
    n_modes = cov.shape[0] // 2
    if isinstance(mode, bool) or not isinstance(mode, numbers.Integral) \
            or not 0 <= mode < n_modes:
        raise ValueError(f"mode must be an integer in [0, {n_modes}), got {mode!r}")
    c = np.cos(alpha)
    idx = [2 * mode, 2 * mode + 1]
    cov = cov.copy()
    cov[idx, :] *= c
    cov[:, idx] *= c
    cov[np.ix_(idx, idx)] += np.sin(alpha) ** 2 * np.eye(2)
    return cov
