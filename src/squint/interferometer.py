"""The two-mode squeezed-vacuum interferometer pipeline.

Element order, fixed by the physical layout:

    vacuum -> pair squeezer (G, xi)
           -> preparation loss (alpha1 on mode 0, beta1 on mode 1)
           -> splitter B1 (imbalance delta1)
           -> phase phi on mode 0
           -> arm loss (alpha2 on mode 0, beta2 on mode 1)
           -> recombiner B2 (imbalance delta2)
           -> product-signal statistics on the two outputs.

Adjacent symplectic factors are folded into a single matrix; losses are the
only non-symplectic elements and cut the pipeline into segments.  Losses of
angle zero are skipped entirely, so the ideal device is one matrix product
and stays bit-stable across the full gain range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .gaussian import (
    BsSpec,
    GaussianState,
    apply_loss,
    apply_symplectic,
    beam_splitter,
    phase_shifter,
    two_mode_squeezer,
    vacuum_state,
)
from .moments import (
    SignalStats,
    mean_photon_number,
    product_mean,
    product_second_moment,
    product_sigma,
)

__all__ = [
    "InterferometerConfig",
    "evaluate",
    "output_state",
    "signal_slope",
    "closed_form_reference",
    "FD_STEP",
]

# Default step of the finite-difference slope; also sets the roundoff floor
# eps/FD_STEP below which a measured slope is indistinguishable from zero.
FD_STEP = 1e-6


@dataclass(frozen=True)
class InterferometerConfig:
    """All device parameters except the interferometric phase itself.

    Loss angles alpha1/beta1 act right after the squeezer (source and
    injection imperfections); alpha2/beta2 act inside the arms.  delta1 and
    delta2 are the splitting-ratio imbalances of the two beam splitters.
    Construction raises ValueError unless every field is finite, G >= 0, each
    loss angle lies in [0, pi/2] and each |delta| < pi/4.
    """

    G: float
    xi: float = 0.0
    alpha1: float = 0.0
    beta1: float = 0.0
    alpha2: float = 0.0
    beta2: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.G < 0:
            raise ValueError(f"gain G must be non-negative, got {self.G!r}")
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            if not 0 <= getattr(self, name) <= math.pi / 2:
                raise ValueError(f"loss angle {name} must lie in [0, pi/2]")
        for name in ("delta1", "delta2"):
            if not abs(getattr(self, name)) < math.pi / 4:
                raise ValueError(f"imbalance {name} must satisfy |delta| < pi/4")

    @classmethod
    def with_symmetric_loss(cls, G: float, prep: float = 0.0, arm: float = 0.0,
                            **kwargs) -> "InterferometerConfig":
        """Config with equal loss on both modes at each of the two stations."""
        return cls(G=G, alpha1=prep, beta1=prep, alpha2=arm, beta2=arm, **kwargs)


def _segments(config: InterferometerConfig, phi: float):
    """Pipeline as (folded symplectic | loss) steps, zero losses dropped."""
    steps = [
        two_mode_squeezer(config.G, config.xi),
        ("loss", 0, config.alpha1),
        ("loss", 1, config.beta1),
        beam_splitter(BsSpec("B1", config.delta1)),
        phase_shifter(phi, mode=0),
        ("loss", 0, config.alpha2),
        ("loss", 1, config.beta2),
        beam_splitter(BsSpec("B2", config.delta2)),
    ]
    folded = []
    pend = None
    for step in steps:
        if isinstance(step, tuple):
            if step[2] == 0.0:
                continue
            if pend is not None:
                folded.append(pend)
                pend = None
            folded.append(step)
        else:
            pend = step.matrix if pend is None else step.matrix @ pend
    if pend is not None:
        folded.append(pend)
    return folded


def output_state(config: InterferometerConfig, phi: float) -> GaussianState:
    """State at the recombiner outputs for phase phi."""
    state = vacuum_state(2)
    for step in _segments(config, phi):
        if isinstance(step, tuple):
            _, mode, angle = step
            state = apply_loss(state, mode, angle)
        else:
            state = GaussianState(2, step @ state.cov @ step.T)
    return state


def evaluate(config: InterferometerConfig, phi: float) -> SignalStats:
    """Product-signal statistics at phase phi."""
    out = output_state(config, phi)
    return SignalStats(
        mean=product_mean(out, 0, 1),
        second_moment=product_second_moment(out, 0, 1),
        sigma=product_sigma(out, 0, 1),
        mean_photons=mean_photon_number(out),
    )


def signal_slope(config: InterferometerConfig, phi: float, h: float = FD_STEP) -> float:
    """d<P>/dphi by central differences with one Richardson refinement.

    Combines D(h) and D(2h) as (4 D(h) - D(2h)) / 3, which cancels the h^2
    truncation term without shrinking the step, so the roundoff floor stays
    at the D(h) level.  With h = 1e-6 the result is accurate to ~1e-8
    relative across the supported gain range.
    """
    def central(step: float) -> float:
        up = evaluate(config, phi + step).mean
        dn = evaluate(config, phi - step).mean
        return (up - dn) / (2.0 * step)

    return (4.0 * central(h) - central(2.0 * h)) / 3.0


def closed_form_reference(G: float, phi: float) -> SignalStats:
    """Ideal-device statistics in closed form.

    For the lossless balanced interferometer with N = 2 sinh^2 G total input
    photons:

        <P>    = sinh(G) cosh(G) sin(2 phi)
        <P^2>  = 1 + (7/4 + cos(2 phi) - (3/4) cos(4 phi)) (N^2/2 + N)
        sigma  = sqrt(1 + (3/2 + cos(2 phi) - (1/2) cos(4 phi)) (N^2/2 + N))

    Used as an independent oracle against the matrix pipeline.
    """
    n = 2.0 * np.sinh(G) ** 2
    half = n * n / 2.0 + n
    mean = np.sinh(G) * np.cosh(G) * np.sin(2.0 * phi)
    m2 = 1.0 + (7.0 / 4.0 + np.cos(2.0 * phi) - 0.75 * np.cos(4.0 * phi)) * half
    var = 1.0 + (1.5 + np.cos(2.0 * phi) - 0.5 * np.cos(4.0 * phi)) * half
    return SignalStats(mean=float(mean), second_moment=float(m2),
                       sigma=float(np.sqrt(var)), mean_photons=float(n))
