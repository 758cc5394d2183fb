"""Statistics of the homodyne quadrature product X_a * X_b.

For zero-mean Gaussian states every moment reduces to covariance entries by
Wick/Isserlis factoring; the fourth moment of the product needs only

    <(X_a X_b)^2> = <X_a^2><X_b^2> + 2 <X_a X_b>^2.

X_a and X_b are the x quadratures (x = a^dag + a) of the squeezed pair.
The engine reads their two variances and their covariance from its output
rows, and the Fock oracle reads the product's mean and second moment from
its amplitudes; the helpers here turn those numbers into the product's
second moment and standard deviation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SignalStats",
]


@dataclass(frozen=True)
class SignalStats:
    """First and second moments of the product signal at one phase point."""

    mean: float            # <X_a X_b>
    second_moment: float   # <(X_a X_b)^2>
    sigma: float           # sqrt(second_moment - mean^2)
    mean_photons: float    # <N> over all modes of the evaluated state


def _second_moment(vaa: float, vab: float, vbb: float) -> float:
    """Second moment <(X_a X_b)^2> by Isserlis factoring of the quartic, from
    the variances vaa, vbb and the covariance vab."""
    return vaa * vbb + 2.0 * vab * vab


def _sigma(m1: float, m2: float) -> float:
    """Standard deviation of the product from its mean m1 and second moment m2.

    The variance m2 - m1^2 is mathematically non-negative; a value below
    -1e-12 (relative to the second moment's scale) signals a bug upstream and
    raises, while sub-roundoff negatives are clamped to zero.
    """
    var = m2 - m1 * m1
    floor = -1e-12 * max(1.0, abs(m2))
    if var < floor:
        raise ArithmeticError(
            f"product variance {var} is negative beyond roundoff; state is inconsistent")
    return math.sqrt(max(var, 0.0))
