"""Stochastic curvature flows of planar curves in the curvature-length frame.

A closed or open planar curve is evolved through the pair (f, L): its
curvature as a function of normalized arclength, plus its total length.
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
    closure_defect,
    enclosed_area,
    functionals,
    polyline_arclength,
    reconstruct,
)
from .grid import CLOSED, OPEN, Grid, cumulative_quadrature
from .integrator import (
    EXPLICIT_EM,
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
    "CLOSED",
    "CURVE_DIFFUSION",
    "CurveSample",
    "EXPLICIT_EM",
    "EnsembleResult",
    "FlowSpec",
    "Grid",
    "HEUN_STRATONOVICH",
    "IMEX_EM",
    "NoiseModel",
    "OPEN",
    "Snapshot",
    "State",
    "StepperConfig",
    "StopCriteria",
    "TerminalStatus",
    "Trajectory",
    "WILLMORE",
    "basis_eval",
    "closure_defect",
    "cumulative_quadrature",
    "dt_stability",
    "enclosed_area",
    "functionals",
    "polyline_arclength",
    "reconstruct",
    "run",
    "run_ensemble",
    "substream_seed",
    "__version__",
]
