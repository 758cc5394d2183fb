"""Element specs and the input checks that every layer shares.

States follow the quadrature ordering (x1, p1, x2, p2) with the convention

    x = a^dag + a,    p = i(a^dag - a),

so the vacuum covariance is the identity and the homodyne observable is
exactly x with no rescaling.

This module holds what the engine's element chain (`interferometer._chain`),
the Fock oracle and the CLI share: the beam-splitter spec `BsSpec` and its
complex mode map, `_quarter_turn`'s splitter angles, the loss dilation
`loss_unitary`, and the `_check_*` input checks, the one home of the library's
validation.  The library builds no 4x4 covariance matrix; the covariance
chain, element by element, that the engine's rows are checked against is
the test suite's reference, in tests/reference.py.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BsSpec",
    "loss_unitary",
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


# Largest gain whose statistics fit in a float: each covariance entry is at
# most 2 (1 + N) ~ e^{2G}, so the product's second moment is at most 3 e^{4G}.
_G_MAX = (math.log(sys.float_info.max) - math.log(3.0)) / 4.0  # ~ 177.17


def _check_gain(value) -> None:
    """ValueError unless value passes `_check_finite`, is >= 0 and is at most
    `_G_MAX`, above which the statistics overflow."""
    _check_finite("gain G", value)
    if value < 0:
        raise ValueError(f"gain G must be non-negative, got {value!r}")
    if value > _G_MAX:
        raise ValueError(f"gain G must be at most {_G_MAX:.6g}, got {value!r}")


def _check_loss_angle(name: str, value) -> None:
    """ValueError unless value passes `_check_finite` and lies in [0, pi/2]."""
    _check_finite(name, value)
    if not 0 <= value <= math.pi / 2:
        raise ValueError(f"{name} must lie in [0, pi/2]")


def _check_imbalance(name: str, value) -> None:
    """ValueError unless value passes `_check_finite` and |value| < pi/4."""
    _check_finite(name, value)
    if not abs(value) < math.pi / 4:
        raise ValueError(f"{name} must satisfy |delta| < pi/4")


def _check_integer(name: str, value, least: int = 0, bound: int | None = None) -> None:
    """ValueError unless value is an int or np.integer (not a bool) >= least
    and, given a bound, below it: a mode index, a level count or a grid size."""
    integer = not isinstance(value, bool) and isinstance(value, numbers.Integral)
    if not (integer and least <= value and (bound is None or value < bound)):
        want = (f"an integer in [{least}, {bound})" if bound is not None else
                f"an integer >= {least}" if least else "a non-negative integer")
        raise ValueError(f"{name} must be {want}, got {value!r}")


def _check_choice(name: str, value, choices) -> None:
    """ValueError unless value is a str equal to one of `choices`; any other
    type is refused before a lookup could hash it."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"unknown {name} {value!r}; choose from {tuple(choices)}")


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
        _check_choice("beam-splitter variant", self.variant, ("B1", "B2"))
        _check_imbalance("imbalance", self.imbalance)

    def unitary(self) -> np.ndarray:
        """Complex 2x2 mode map of this beam splitter."""
        c, s = _quarter_turn(self.imbalance)
        if self.variant == "B1":
            # a' = cos a - i sin b, b' = -i sin a + cos b
            return np.array([[c, -1j * s], [-1j * s, c]])
        # B2: a' = -cos a + i sin b, b' = -i sin a + cos b
        return np.array([[-c, 1j * s], [-1j * s, c]])


# pi/4 as an unevaluated sum: the float nearest it and the remainder
_PI4_HI = math.pi / 4
_PI4_LO = 3.061616997868383e-17


def _quarter_turn(imbalance: float) -> tuple:
    """(cos, sin) of pi/4 + imbalance, for |imbalance| < pi/4.

    Near |imbalance| = pi/4 one of the pair is small, and the rounding of the
    sum fl(pi/4 + imbalance), amplified by tan or cot of it, would swamp it.
    So beyond |imbalance| = pi/8 the pair is read from the complement
    e = pi/4 - |imbalance|, formed as (_PI4_HI - |imbalance|) + _PI4_LO: the
    difference is exact (Sterbenz, since pi/8 < |imbalance| < pi/4), so e
    rounds once, and each of the pair errs by about an ulp.  Within pi/8 the
    rounded sum's error is amplified at most 2.4 times, and the sum is kept,
    so those imbalances keep their bits.
    """
    if imbalance > _PI4_HI / 2:
        e = (_PI4_HI - imbalance) + _PI4_LO
        return math.sin(e), math.cos(e)
    if imbalance < -_PI4_HI / 2:
        e = (_PI4_HI + imbalance) + _PI4_LO
        return math.cos(e), math.sin(e)
    th = _PI4_HI + imbalance
    return math.cos(th), math.sin(th)


def loss_unitary(alpha: float) -> np.ndarray:
    """Two-mode dilation of the loss channel: a -> cos(a)a + sin(a)u.

    Real orthogonal map on (system, ancilla), the Fock oracle's loss.  With
    the vacuum ancilla traced out it is the engine's loss step: the mode's
    rows scale by cos(alpha) and gain sin(alpha) noise columns.  ValueError
    unless alpha is a number in [0, pi/2].
    """
    _check_loss_angle("loss angle", alpha)
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, s], [-s, c]], dtype=complex)
