"""Statistics of the homodyne quadrature product X_a * X_b.

For zero-mean Gaussian states every moment reduces to covariance entries by
Wick/Isserlis factoring; the fourth moment of the product needs only

    <(X_a X_b)^2> = <X_a^2><X_b^2> + 2 <X_a X_b>^2.

X_a and X_b are the x quadratures (x = a^dag + a) of the squeezed pair, and
each function reads them from the pair's 4x4 covariance matrix.
"""
from __future__ import annotations

import math
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


def product_mean(cov: np.ndarray) -> float:
    """Mean of the product signal; for zero-mean states this is the
    covariance <X_a X_b> of the two x quadratures, entry (0, 2)."""
    return cov.item(0, 2)


def product_second_moment(cov: np.ndarray) -> float:
    """Second moment <(X_a X_b)^2> by Isserlis factoring of the quartic."""
    return _second_moment(cov.item(0, 0), cov.item(0, 2), cov.item(2, 2))


def _second_moment(vaa: float, vab: float, vbb: float) -> float:
    """`product_second_moment` from the variances vaa, vbb and covariance vab."""
    return vaa * vbb + 2.0 * vab * vab


def product_sigma(cov: np.ndarray) -> float:
    """Standard deviation of the product signal.

    The variance <P^2> - <P>^2 is mathematically non-negative; a value below
    -1e-12 (relative to the second moment's scale) signals a bug upstream and
    raises, while sub-roundoff negatives are clamped to zero.
    """
    return _sigma(product_mean(cov), product_second_moment(cov))


def _sigma(m1: float, m2: float) -> float:
    """`product_sigma` from the mean m1 and second moment m2 already read."""
    var = m2 - m1 * m1
    floor = -1e-12 * max(1.0, abs(m2))
    if var < floor:
        raise ArithmeticError(
            f"product variance {var} is negative beyond roundoff; state is inconsistent")
    return math.sqrt(max(var, 0.0))


def mean_photon_number(cov: np.ndarray) -> float:
    """Total mean photon number of the pair, (trace(cov) - 4) / 4.

    Follows from <x^2> + <p^2> = 4<n> + 2 per mode in this scaling.  The
    diagonal is summed left to right, the order np.trace adds four entries in.
    The subtraction cancels to roundoff at small gain, so the engine takes
    its photon number from the closed form instead.
    """
    trace = cov.item(0, 0) + cov.item(1, 1) + cov.item(2, 2) + cov.item(3, 3)
    return (trace - 4.0) / 4.0
