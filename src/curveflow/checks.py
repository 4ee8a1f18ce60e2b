"""The acceptance checks: what each invariant computes, and at what bound.

Each check returns a list of records ``{name, value, bound, passed}``, one
per bounded quantity; a few carry extra fields.  ``tests/test_acceptance.py``
gates releases on these records and ``curveflow invariants`` reports them, so
both compute every check the same way, with fixed generators and settings.
The four deterministic runs behind c01-c05 are made once per process.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from . import geometry
from .flows import CURVE_DIFFUSION, WILLMORE, FlowSpec, State, assemble
from .grid import Grid
from .integrator import (
    HEUN_STRATONOVICH,
    IMEX_EM,
    StepperConfig,
    StopCriteria,
    TerminalStatus,
    run,
)
from .noise import BasisFunction, BrownianDriver, NoiseModel

TWO_PI = 2.0 * math.pi
NO_NOISE = NoiseModel()


def _record(name, value, bound, inclusive=False, requires=True, **extra):
    """A bounded quantity: passes below bound (or at it, if inclusive) where requires holds."""
    passed = (value <= bound if inclusive else value < bound) and requires
    return {"name": name, "value": value, "bound": bound, **extra, "passed": bool(passed)}


def _worst_increase(values):
    return max((b - a for a, b in zip(values, values[1:])), default=0.0)


def _circle(grid):
    return State(np.ones(grid.n), TWO_PI)


def _perturbed(grid):
    """Curvature 1 + 0.1 cos(2s) along a length-2*pi curve."""
    return State(1.0 + 0.1 * np.cos(2.0 * TWO_PI * grid.nodes), TWO_PI)


# label -> (flow, n, initial state, stepper) of the deterministic closed runs
_RUNS = {
    "circle/bending": (WILLMORE, 64, _circle, (1e-4, 0.5, 100)),
    "circle/diffusion": (CURVE_DIFFUSION, 64, _circle, (1e-4, 0.5, 100)),
    "perturbed/diffusion": (CURVE_DIFFUSION, 128, _perturbed, (1e-5, 0.2, 200)),
    "perturbed/bending": (WILLMORE, 128, _perturbed, (1e-5, 0.2, 200)),
}


@functools.cache
def _deterministic_run(label):
    kind, n, initial, (dt, t_end, every) = _RUNS[label]
    grid = Grid(n)
    stepper = StepperConfig(IMEX_EM, dt, t_end, every)
    return run(FlowSpec(kind, NO_NOISE), grid, initial(grid), stepper)


@functools.cache
def _explicit_energies(stiff_sign):
    """Snapshot energies of Heun on the perturbed bending run at n=64, dt 5e-7,
    below the scheme's stability bound (9.54e-7 at the start).
    There the correct sign dissipates, so only a flipped fourth-order sign,
    whose high modes grow out of round-off, can trip the energy check."""
    grid = Grid(64)
    spec = FlowSpec(WILLMORE, NO_NOISE, stiff_sign=stiff_sign)
    stepper = StepperConfig(HEUN_STRATONOVICH, 5e-7, 6e-4, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = run(spec, grid, _perturbed(grid), stepper)
    return tuple(snap.energy for snap in traj.snapshots)


def circle_law():
    """c01: a unit circle under the bending flow has radius (1 + 2t)^(1/4)."""
    traj = _deterministic_run("circle/bending")
    length_ref = TWO_PI * 2.0**0.25  # at t = 1/2
    length_err = abs(traj.final_state.length - length_ref) / length_ref
    f_err = float(np.abs(traj.final_state.f - 2.0**-0.25).max())
    status = traj.terminal_status
    return [
        _record(
            "circle_law_length", length_err, 1e-3,
            requires=status is TerminalStatus.REACHED_T, status=status.value,
        ),
        _record("circle_law_curvature", f_err, 1e-3),
    ]


def circle_stationary():
    """c02: a circle is an exact steady state of curve diffusion."""
    traj = _deterministic_run("circle/diffusion")
    return [
        _record("circle_stationary_curvature", float(np.abs(traj.final_state.f - 1.0).max()), 1e-8),
        _record("circle_stationary_length", abs(traj.final_state.length - TWO_PI), 1e-8),
    ]


def area_conservation():
    """c03: curve diffusion keeps the enclosed area and never grows the length."""
    traj = _deterministic_run("perturbed/diffusion")
    grid = Grid(128)
    area0, area1 = (
        geometry.enclosed_area(geometry.reconstruct(grid, state))
        for state in (_perturbed(grid), traj.final_state)
    )
    growth = _worst_increase([snap.length for snap in traj.snapshots])
    return [
        _record("area_conservation", abs(area1 - area0) / abs(area0), 1e-3),
        _record("length_monotonicity", growth, 1e-8, inclusive=True),
    ]


def _energy_record(energies):
    """The c04 record of a run's snapshot energies: none may rise on the last."""
    decrease = energies[0] - energies[-1]
    return _record(
        "energy_dissipation", _worst_increase(energies), 1e-8, inclusive=True,
        requires=decrease > 0, total_decrease=decrease,
    )


def energy_dissipation():
    """c04: the bending energy never rises under the bending flow."""
    energies = [snap.energy for snap in _deterministic_run("perturbed/bending").snapshots]
    return [_energy_record(energies)]


def turning_number():
    """c05: every deterministic closed run keeps its turning within 1e-5 of 2*pi."""
    return [
        _record(
            f"turning_number[{label}]",
            max(abs(snap.turning - TWO_PI) for snap in _deterministic_run(label).snapshots),
            1e-5,
            run=label,
        )
        for label in _RUNS
    ]


def diffusion_coefficient():
    """c06: closed scalar noise couples to the length with weight exactly -2*pi."""
    grid = Grid(64)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.05))
    rng = np.random.Generator(np.random.PCG64(321))
    worst = 0.0
    for _ in range(100):
        f, length = rng.standard_normal(64), 0.3 + 3.0 * rng.random()
        lam = assemble(spec, grid, f, length).rows_lam[0]
        worst = max(worst, abs(float(lam) + TWO_PI))
    return [_record("diffusion_coefficient", worst, 0.0, inclusive=True)]


def spectral_degeneracy():
    """c08: a flat first mode plus zero modes reproduces scalar noise exactly.

    The states are band-limited closed curves, curvature 2*pi/L times one
    plus modes 1 and 2 of size about 0.1, so their total turning is 2*pi and
    the scalar length row -2*pi equals the integral the spectral row takes.
    Rough random states miss that identity by O(1).
    """
    amplitude = 0.3
    scalar = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=amplitude))
    basis = (BasisFunction("const", 0, 1.0),) + tuple(BasisFunction("zero") for _ in range(7))
    degenerate = FlowSpec(
        WILLMORE,
        NoiseModel(mode="spectral", amplitude=amplitude, n_modes=8, basis=basis),
    )
    grid = Grid(32)
    r = grid.nodes
    rng = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    for _ in range(100):
        length = 0.3 + 3.0 * rng.random()
        f = np.ones(grid.n)
        for k in (1, 2):
            a, b = rng.standard_normal(2)
            f = f + 0.1 * (a * np.cos(TWO_PI * k * r) + b * np.sin(TWO_PI * k * r))
        f = TWO_PI / length * f
        a_s = assemble(scalar, grid, f, length)
        a_d = assemble(degenerate, grid, f, length)
        worst = max(
            worst,
            float(np.abs(a_s.stiff - a_d.stiff).max()),
            float(np.abs((a_s.det_f + a_s.corr_f) - (a_d.det_f + a_d.corr_f)).max()),
            abs(float(a_s.det_L + a_s.corr_L) - float(a_d.det_L + a_d.corr_L)),
            float(np.abs(a_s.rows_beta[0] - a_d.rows_beta[0]).max()),
            abs(float(a_s.rows_lam[0]) - float(a_d.rows_lam[0])),
        )
        for b_f, b_L in zip(a_d.rows_beta[1:], a_d.rows_lam[1:]):
            worst = max(worst, float(np.abs(b_f).max()), abs(float(b_L)))
    return [_record("spectral_degeneracy", worst, 1e-12, modes=a_d.rows_beta.shape[0])]


def reconstruction():
    """c09: the unit circle closes, encloses pi, and moves rigidly with its anchor."""
    grid = Grid(128)
    state = _circle(grid)
    sample = geometry.reconstruct(grid, state)
    rng = np.random.Generator(np.random.PCG64(17))
    equivariance = 0.0
    for _ in range(5):
        anchor = tuple(rng.standard_normal(2))
        angle = float(TWO_PI * rng.random())
        moved = geometry.reconstruct(grid, state, anchor=anchor, theta0=angle)
        c, s = math.cos(angle), math.sin(angle)
        rotation = np.array([[c, -s], [s, c]])
        mapped = (sample.points - sample.points[0]) @ rotation.T + np.asarray(anchor)
        equivariance = max(equivariance, float(np.max(np.abs(mapped - moved.points))))
    area_err = abs(geometry.enclosed_area(sample) - math.pi)
    return [
        _record("closure_defect", geometry.closure_defect(sample), 1e-6),
        _record("circle_area", area_err, 1e-4),
        _record("reconstruction_equivariance", equivariance, 1e-10),
    ]


def stop_statuses():
    """c11: stops report the matching status with finite snapshots, and the
    energy check fails on the flipped fourth-order sign.

    The last record passes when the energy check fails on the flipped sign
    and passes on the correct sign (the control) at the same scheme and dt;
    its value is the flipped run's, and ``control`` the correct sign's.
    """
    grid, small = Grid(64), Grid(16)
    noisy = FlowSpec(CURVE_DIFFUSION, NoiseModel(mode="scalar", amplitude=1.0))
    noisy_stepper = StepperConfig(IMEX_EM, 1e-3, 1.0, 10)
    # expected status -> (spec, grid, stepper, stop window, driver)
    cases = {
        TerminalStatus.BLOWUP_LENGTH_INFINITE: (
            FlowSpec(WILLMORE, NO_NOISE),
            grid,
            StepperConfig(IMEX_EM, 1e-4, 0.5, 10),
            (1e-6, 1.01 * TWO_PI, 1e6),
            None,
        ),
        TerminalStatus.BLOWUP_LENGTH_ZERO: (
            noisy, small, noisy_stepper, (0.9 * TWO_PI, 10.0 * TWO_PI, 1e6), BrownianDriver(0, 0)
        ),
        TerminalStatus.BLOWUP_CURVATURE: (
            noisy, small, noisy_stepper, (1e-6, 1e6, 1.05), BrownianDriver(0, 0)
        ),
        TerminalStatus.NUMERICAL_FAILURE: (
            FlowSpec(CURVE_DIFFUSION, NoiseModel(mode="scalar", amplitude=0.8)),
            small,
            StepperConfig(HEUN_STRATONOVICH, 2e-4, 2.0, 1000),
            (1e-6 * TWO_PI, 1e6 * TWO_PI, 1e300),
            BrownianDriver(3, 0),
        ),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trajs = {
            want: run(spec, g, _circle(g), stepper, stop=StopCriteria(*window), driver=driver)
            for want, (spec, g, stepper, window, driver) in cases.items()
        }
    mismatches = sum(traj.terminal_status is not want for want, traj in trajs.items())
    nonfinite = sum(
        not all(np.isfinite(snap.f).all() and math.isfinite(snap.length) for snap in traj.snapshots)
        for traj in trajs.values()
    )
    flipped = _energy_record(_explicit_energies(1.0))
    control = _energy_record(_explicit_energies(-1.0))
    return [
        _record(
            "stop_statuses", mismatches, 0, inclusive=True,
            statuses=[traj.terminal_status.value for traj in trajs.values()],
            stability_warning=trajs[TerminalStatus.NUMERICAL_FAILURE].stability_warning,
        ),
        _record("nonfinite_snapshots", nonfinite, 0, inclusive=True),
        {
            **flipped,
            "name": "flipped_sign_energy_dissipation",
            "control": control["value"],
            "passed": control["passed"] and not flipped["passed"],
        },
    ]


def catalog():
    """Every check's records in criterion order."""
    return [
        *circle_law(),
        *circle_stationary(),
        *area_conservation(),
        *energy_dissipation(),
        *turning_number(),
        *diffusion_coefficient(),
        *spectral_degeneracy(),
        *reconstruction(),
        *stop_statuses(),
    ]
