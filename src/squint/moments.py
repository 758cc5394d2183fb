"""Statistics of the homodyne quadrature product X_a * X_b.

For zero-mean Gaussian states every moment reduces to covariance entries by
Wick/Isserlis factoring; the fourth moment of the product needs only

    <(X_a X_b)^2> = <X_a^2><X_b^2> + 2 <X_a X_b>^2.

All observables here use the x quadrature of each mode (x = a^dag + a), and
each function takes the state as its covariance matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalStats",
    "product_mean",
    "product_second_moment",
    "product_sigma",
    "mean_photon_number",
]


@dataclass(frozen=True)
class SignalStats:
    """First and second moments of the product signal at one phase point."""

    mean: float            # <X_a X_b>
    second_moment: float   # <(X_a X_b)^2>
    sigma: float           # sqrt(second_moment - mean^2)
    mean_photons: float    # <N> over all modes of the evaluated state


def product_mean(cov: np.ndarray, mode_a: int, mode_b: int) -> float:
    """Mean of the product signal; for zero-mean states this is the
    covariance <X_a X_b> of the two x quadratures."""
    return float(cov[2 * mode_a, 2 * mode_b])


def product_second_moment(cov: np.ndarray, mode_a: int, mode_b: int) -> float:
    """Second moment <(X_a X_b)^2> by Isserlis factoring of the quartic."""
    vaa = cov[2 * mode_a, 2 * mode_a]
    vbb = cov[2 * mode_b, 2 * mode_b]
    vab = cov[2 * mode_a, 2 * mode_b]
    return float(vaa * vbb + 2.0 * vab * vab)


def product_sigma(cov: np.ndarray, mode_a: int, mode_b: int) -> float:
    """Standard deviation of the product signal.

    The variance <P^2> - <P>^2 is mathematically non-negative; a value below
    -1e-12 (relative to the second moment's scale) signals a bug upstream and
    raises, while sub-roundoff negatives are clamped to zero.
    """
    m1 = product_mean(cov, mode_a, mode_b)
    m2 = product_second_moment(cov, mode_a, mode_b)
    var = m2 - m1 * m1
    floor = -1e-12 * max(1.0, abs(m2))
    if var < floor:
        raise ArithmeticError(
            f"product variance {var} is negative beyond roundoff; state is inconsistent")
    return float(np.sqrt(max(var, 0.0)))


def mean_photon_number(cov: np.ndarray) -> float:
    """Total mean photon number, (trace(cov) - 2 n_modes) / 4.

    Follows from <x^2> + <p^2> = 4<n> + 2 per mode in this scaling.
    """
    return float((np.trace(cov) - cov.shape[0]) / 4.0)
