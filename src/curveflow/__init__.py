"""Stochastic curvature flows of planar curves in the curvature-length frame.

A closed planar curve is evolved through the pair (f, L): its curvature
as a function of normalized arclength, plus its total length.  Open curves
are not supported.
The package provides the spatial discretization (``grid``), the drift and
noise assembly for Willmore and curve diffusion flow (``flows``, ``noise``),
time stepping with blow-up detection (``integrator``), curve reconstruction
and diagnostics (``geometry``), and a CLI (``harness``).
"""

from .flows import (
    CURVE_DIFFUSION,
    WILLMORE,
    FlowSpec,
    State,
)
from .geometry import (
    CurveSample,
    area_advisory,
    closure_defect,
    enclosed_area,
    reconstruct,
)
from .grid import Grid, cumulative_quadrature
from .integrator import (
    HEUN_STRATONOVICH,
    IMEX_EM,
    EnsembleResult,
    Snapshot,
    StepperConfig,
    StopCriteria,
    TerminalStatus,
    Trajectory,
    dt_stability,
    run,
    run_ensemble,
)
from .noise import BasisFunction, BrownianDriver, NoiseModel, basis_eval, substream_seed

__version__ = "0.1.0"

__all__ = [
    "BasisFunction",
    "BrownianDriver",
    "CURVE_DIFFUSION",
    "CurveSample",
    "EnsembleResult",
    "FlowSpec",
    "Grid",
    "HEUN_STRATONOVICH",
    "IMEX_EM",
    "NoiseModel",
    "Snapshot",
    "State",
    "StepperConfig",
    "StopCriteria",
    "TerminalStatus",
    "Trajectory",
    "WILLMORE",
    "area_advisory",
    "basis_eval",
    "closure_defect",
    "cumulative_quadrature",
    "dt_stability",
    "enclosed_area",
    "reconstruct",
    "run",
    "run_ensemble",
    "substream_seed",
    "__version__",
]
