"""Squeezed-vacuum interferometry numerics.

Covariance-matrix simulation of a two-mode squeezed-vacuum interferometer,
statistics of the homodyne product signal, phase-resolution criteria and
parameter sweeps, and a truncated Fock-basis oracle for validation.
"""
from .gaussian import (
    BsSpec,
    GaussianState,
    SymplecticOp,
    apply_loss,
    apply_symplectic,
    beam_splitter,
    loss_unitary,
    passive_symplectic,
    phase_shifter,
    physicality_defect,
    symplectic_form,
    two_mode_squeezer,
    vacuum_state,
)
from .moments import (
    SignalStats,
    mean_photon_number,
    product_mean,
    product_second_moment,
    product_sigma,
    quadrature_covariance,
)
from .interferometer import (
    InterferometerConfig,
    closed_form_reference,
    evaluate,
    output_state,
    signal_slope,
)
from .resolution import (
    OptimizeResult,
    ResolutionResult,
    SweepRow,
    SweepTable,
    SWEEP_PARAMETERS,
    detect_saturation,
    modified_resolution,
    optimize_delta2,
    refine_working_point,
    small_angle_root,
    standard_resolution,
    sweep,
)
from .fock import (
    CutoffError,
    FockState,
    GridCase,
    GridReport,
    ancilla_cutoff,
    apply_unitary_fock,
    equivalence_grid,
    fock_moments,
    oracle_pipeline,
    photon_number_expectation,
    tail_cutoff,
    tmsv_fock,
)
from .cli import RunConfig

__version__ = "0.1.0"

__all__ = [
    "BsSpec", "GaussianState", "SymplecticOp", "apply_loss", "apply_symplectic",
    "beam_splitter", "loss_unitary", "passive_symplectic", "phase_shifter",
    "physicality_defect", "symplectic_form", "two_mode_squeezer", "vacuum_state",
    "SignalStats", "mean_photon_number", "product_mean", "product_second_moment",
    "product_sigma", "quadrature_covariance",
    "InterferometerConfig", "closed_form_reference", "evaluate", "output_state",
    "signal_slope",
    "OptimizeResult", "ResolutionResult", "SweepRow", "SweepTable",
    "SWEEP_PARAMETERS", "detect_saturation", "modified_resolution",
    "optimize_delta2", "refine_working_point", "small_angle_root",
    "standard_resolution", "sweep",
    "CutoffError", "FockState", "GridCase", "GridReport", "ancilla_cutoff",
    "apply_unitary_fock",
    "equivalence_grid", "fock_moments", "oracle_pipeline",
    "photon_number_expectation", "tail_cutoff", "tmsv_fock",
    "RunConfig",
]
