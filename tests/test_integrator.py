"""Stepping, stopping, and ensemble batching.

The deterministic benchmark throughout is the shrinking-radius law of the
free elastic flow on a circle: a circle of radius R stays a circle and its
length obeys L(t) = 2 pi (R^4 + 2 t)^(1/4), which pins both the accuracy of
every scheme and the fact that snapshots/invariants are computed honestly.
Stochastic runs use pre-drawn increment arrays so outcomes are exact
arithmetic facts rather than statistics.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from curveflow import integrator
from curveflow.flows import CURVE_DIFFUSION, WILLMORE, FlowSpec, State
from curveflow.grid import CLOSED, OPEN, Grid
from curveflow.integrator import (
    EXPLICIT_EM,
    HEUN_STRATONOVICH,
    IMEX_EM,
    StepperConfig,
    StopCriteria,
    TerminalStatus,
    dt_stability,
    run,
    run_ensemble,
)
from curveflow.noise import BrownianDriver, NoiseModel

TWO_PI = 2.0 * np.pi

NO_NOISE = NoiseModel(mode="scalar", amplitude=0.0)
UNIT_NOISE = NoiseModel(mode="scalar", amplitude=1.0)
WIDE_STOP = StopCriteria(l_min=1e-6, l_max=1e6, f_max=1e6)
SCHEMES = (IMEX_EM, HEUN_STRATONOVICH, EXPLICIT_EM)


def circle(n=32, radius=1.0):
    return State(np.full(n, 1.0 / radius), TWO_PI * radius)


def non_circle(grid):
    """Curvature 1 + 0.1 cos(4 pi r) on length 2 pi: total turning 2 pi."""
    return State(1.0 + 0.1 * np.cos(2.0 * TWO_PI * grid.nodes), TWO_PI)


def circle_length(radius, t):
    return TWO_PI * (radius**4 + 2.0 * t) ** 0.25


# ---------------------------------------------------------------------------
# stability bounds


def test_dt_stability_closed_formulas():
    grid = Grid(CLOSED, 64)
    length, sup = TWO_PI, 1.0
    advective = 0.5 * length**2 / (sup**2 * 64**2)
    assert dt_stability(IMEX_EM, grid, length, sup) == advective
    fourth = length**4 / (math.pi * 64) ** 4
    assert dt_stability(EXPLICIT_EM, grid, length, sup) == min(advective, fourth)
    assert dt_stability(HEUN_STRATONOVICH, grid, length, sup) == min(advective, fourth)
    # flat states do not constrain the semi-implicit scheme at all
    assert dt_stability(IMEX_EM, grid, length, 0.0) == math.inf
    assert dt_stability(EXPLICIT_EM, grid, length, 0.0) == fourth


def test_dt_stability_open_uses_operator_norm():
    grid = Grid(OPEN, 33)
    length, sup = 2.0, 1.5
    lam = float(np.abs(grid.stiff_symbol(length)).sum(axis=1).max())
    expected = min(0.5 * length**2 / (sup**2 * 33**2), 1.0 / lam)
    assert dt_stability(EXPLICIT_EM, grid, length, sup) == expected
    with pytest.raises(ValueError):
        dt_stability("leapfrog", grid, length, sup)


def test_stability_enforcement_at_start():
    grid = Grid(CLOSED, 64)
    spec = FlowSpec(WILLMORE, CLOSED, NO_NOISE)
    state = circle(64)
    # semi-implicit: the advective bound (~4.8e-3 here) is a hard error
    with pytest.raises(ValueError, match="stability"):
        run(spec, grid, state, StepperConfig(IMEX_EM, 1e-2, 0.1))
    # predictor-corrector treats the fourth-order term explicitly (~9.5e-7)
    with pytest.raises(ValueError, match="stability"):
        run(spec, grid, state, StepperConfig(HEUN_STRATONOVICH, 1e-4, 0.1))
    # the explicit reference scheme only warns, so divergence stays observable
    with pytest.warns(UserWarning, match="stability"):
        traj = run(
            spec,
            grid,
            State(1.0 + 0.01 * np.cos(TWO_PI * 16 * grid.nodes), TWO_PI),
            StepperConfig(EXPLICIT_EM, 1e-4, 0.02),
            stop=StopCriteria(1e-8, 1e9, np.inf),
        )
    assert traj.terminal_status is not TerminalStatus.REACHED_T
    for snap in traj.snapshots:
        assert np.all(np.isfinite(snap.f)) and math.isfinite(snap.length)


# ---------------------------------------------------------------------------
# single steps


def step(scheme, spec, grid, state, dt, dw=None):
    """One step of the scheme's kernel on a single state: (new_f, new_length)."""
    return integrator._STEPPERS[scheme](spec, grid, state.f, state.length, dt, dw)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_and_ensemble_share_one_kernel(scheme):
    assert integrator._STEPPERS[scheme] is integrator._BATCH_STEPPERS[scheme]


def test_imex_step_exact_on_circle():
    # constant f: every derivative vanishes, so one step is pure arithmetic:
    # L -> L (1 + dt f^4 / 2), and the turning projection (the implicit solve
    # is the identity on constants) makes f the constant 2 pi / L_new, the
    # exact curvature of the new circle
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(WILLMORE, CLOSED, NO_NOISE)
    state = circle()
    dt = 1e-4
    new_f, new_length = step(IMEX_EM, spec, grid, state, dt)
    assert new_length == pytest.approx(TWO_PI * (1.0 + 0.5 * dt), rel=1e-15)
    assert np.ptp(new_f) == 0.0
    assert new_f[0] == pytest.approx(TWO_PI / new_length, rel=1e-15)
    assert new_length * grid.integrate(new_f) == pytest.approx(TWO_PI, rel=1e-15)


def test_flat_curve_diffusion_step_is_identity():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, NO_NOISE)
    state = State(np.full(32, 0.5), 4.0 * np.pi, time=0.25)
    new_f, new_length = step(IMEX_EM, spec, grid, state, 1e-3)
    assert np.array_equal(new_f, state.f)
    assert new_length == state.length


@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_refuses_nonpositive_length(scheme):
    # a scalar increment of +5 removes 10 pi from a length of 2 pi; the
    # kernel reports the collapse as a non-positive length, which run
    # retries and run_ensemble classifies
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, new_length = step(scheme, spec, grid, circle(), 1e-4, np.array([5.0]))
    assert new_length <= 0.0


def test_heun_hands_divergence_to_caller():
    # a violent increment leaves the predictor finite but the corrector's
    # drift evaluation overflows; the step must return the non-finite state
    # rather than swallow it, so the caller can classify the failure
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    with np.errstate(over="ignore", invalid="ignore"):
        new_f, new_length = step(
            HEUN_STRATONOVICH, spec, grid, circle(), 1e-4, np.array([-1e150])
        )
    assert not (np.all(np.isfinite(new_f)) and math.isfinite(new_length))


# ---------------------------------------------------------------------------
# full runs: accuracy and recording


def test_run_matches_circle_law():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(WILLMORE, CLOSED, NO_NOISE)
    traj = run(spec, grid, circle(), StepperConfig(IMEX_EM, 1e-4, 0.1, snapshot_every=100))
    assert traj.terminal_status is TerminalStatus.REACHED_T
    assert traj.steps == 1000
    exact = circle_length(1.0, 0.1)
    assert abs(traj.final_state.length - exact) / exact < 1e-5
    # the circle stays exactly round and consistent with its length
    assert np.ptp(traj.final_state.f) == 0.0
    assert abs(traj.final_state.f[0] - TWO_PI / traj.final_state.length) < 1e-5
    # the turning projection keeps the total turning up to round-off
    turning = traj.final_state.length * grid.integrate(traj.final_state.f)
    assert abs(turning - TWO_PI) < 1e-12
    assert not traj.stability_warning


def test_run_snapshot_cadence():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(WILLMORE, CLOSED, NO_NOISE)
    traj = run(spec, grid, circle(), StepperConfig(IMEX_EM, 1e-4, 0.1, snapshot_every=100))
    assert [s.step for s in traj.snapshots] == list(range(0, 1001, 100))
    for i, snap in enumerate(traj.snapshots):
        assert snap.time == pytest.approx(0.01 * i, abs=1e-12)
        assert snap.full_resolution  # 32 values fit under the storage cap
    first = traj.snapshots[0]
    assert first.turning == pytest.approx(TWO_PI, rel=1e-14)
    assert first.energy == pytest.approx(np.pi, rel=1e-14)
    assert first.sup_f == 1.0
    # free elastic flow dissipates energy monotonically on a circle
    energies = [s.energy for s in traj.snapshots]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_snapshot_decimation_and_full_final():
    grid = Grid(CLOSED, 512)
    spec = FlowSpec(WILLMORE, CLOSED, NO_NOISE)
    traj = run(spec, grid, circle(512), StepperConfig(IMEX_EM, 1e-5, 1e-3, snapshot_every=10))
    assert traj.terminal_status is TerminalStatus.REACHED_T
    mids = traj.snapshots[:-1]
    assert all(len(s.f) == 256 and not s.full_resolution for s in mids)
    final = traj.snapshots[-1]
    assert final.full_resolution and len(final.f) == 512
    assert final.step == traj.steps == 100
    # the penultimate snapshot is the decimated cadence record of the same step
    assert traj.snapshots[-2].step == 100 and not traj.snapshots[-2].full_resolution


def test_heun_is_higher_order_on_circle():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(WILLMORE, CLOSED, NO_NOISE)
    exact = circle_length(1.0, 2e-3)
    heun = run(spec, grid, circle(), StepperConfig(HEUN_STRATONOVICH, 1e-5, 2e-3))
    imex = run(spec, grid, circle(), StepperConfig(IMEX_EM, 1e-5, 2e-3))
    err_heun = abs(heun.final_state.length - exact) / exact
    err_imex = abs(imex.final_state.length - exact) / exact
    assert err_heun < 1e-12
    assert 1e-10 < err_imex < 1e-7
    assert err_heun < 1e-3 * err_imex


def test_run_is_deterministic_given_seed():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=0.2))
    cfg = StepperConfig(IMEX_EM, 1e-3, 0.02, snapshot_every=5)
    stop = StopCriteria(1e-3, 1e3, 1e3)
    a = run(spec, grid, circle(), cfg, stop=stop, driver=BrownianDriver(4, 0))
    b = run(spec, grid, circle(), cfg, stop=stop, driver=BrownianDriver(4, 0))
    assert np.array_equal(a.final_state.f, b.final_state.f)
    assert a.final_state.length == b.final_state.length


# ---------------------------------------------------------------------------
# retries and terminal classification


def test_step_halving_rescues_a_survivable_increment():
    # row 0 kills the length at full dt (1.05 * 2 pi > 2 pi) but survives one
    # halving (1.05/sqrt(2) < 1); the run then finishes on schedule with the
    # partial step plus full steps plus a remainder step
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    inc = np.zeros((8, 1))
    inc[0, 0] = 1.05
    traj = run(
        spec,
        grid,
        circle(),
        StepperConfig(IMEX_EM, 1e-4, 3e-4, snapshot_every=100),
        increments=inc,
        stop=WIDE_STOP,
    )
    assert traj.terminal_status is TerminalStatus.REACHED_T
    assert traj.steps == 4  # half, full, full, remainder-half
    assert traj.final_state.time == pytest.approx(3e-4, rel=1e-12)
    expected_length = TWO_PI * (1.0 - 1.05 / math.sqrt(2.0))
    assert traj.final_state.length == pytest.approx(expected_length, rel=1e-12)


def test_exhausted_halvings_mean_vanishing_length():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    inc = np.full((8, 1), 50.0)  # still fatal after 10 halvings (50/32 > 1)
    traj = run(
        spec,
        grid,
        circle(),
        StepperConfig(IMEX_EM, 1e-4, 3e-4),
        increments=inc,
        stop=WIDE_STOP,
    )
    assert traj.terminal_status is TerminalStatus.BLOWUP_LENGTH_ZERO
    assert traj.steps == 0
    assert len(traj.snapshots) == 1  # only the initial record


def test_curvature_window_stops_run():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(WILLMORE, CLOSED, NO_NOISE)
    traj = run(
        spec,
        grid,
        circle(),
        StepperConfig(IMEX_EM, 1e-4, 0.1),
        stop=StopCriteria(1e-6, 1e6, 0.9),  # sup|f| starts at 1.0
    )
    assert traj.terminal_status is TerminalStatus.BLOWUP_CURVATURE
    assert traj.steps == 1
    assert traj.snapshots[-1].full_resolution
    assert traj.snapshots[-1].step == 1


def test_growing_length_stops_run():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(WILLMORE, CLOSED, NO_NOISE)
    cap = TWO_PI * 1.01
    traj = run(
        spec,
        grid,
        circle(),
        StepperConfig(IMEX_EM, 1e-4, 0.5),
        stop=StopCriteria(1e-6, cap, 1e6),
    )
    assert traj.terminal_status is TerminalStatus.BLOWUP_LENGTH_INFINITE
    assert traj.final_state.length > cap
    assert 0 < traj.steps < 5000


def test_shrinking_length_stops_run():
    # constant positive increments walk the length down by 2 pi a dw each step
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    inc = np.full((60, 1), 0.05)
    traj = run(
        spec,
        grid,
        circle(),
        StepperConfig(IMEX_EM, 1e-4, 6e-3, snapshot_every=10),
        increments=inc,
        stop=StopCriteria(TWO_PI - 0.5, 1e6, 1e6),
    )
    assert traj.terminal_status is TerminalStatus.BLOWUP_LENGTH_ZERO
    assert traj.steps == 2
    assert traj.final_state.length == pytest.approx(TWO_PI - 2 * TWO_PI * 0.05, rel=1e-12)


def test_numerical_failure_keeps_last_finite_state():
    # one violent negative increment knocks f to about -2e149 while the
    # length grows to about 6e150; on a circle that moves only the zero mode,
    # which the turning projection restores, so the run starts off-circle.
    # The next drift evaluation overflows and the run must stop as a
    # numerical failure without recording any non-finite value
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    inc = np.zeros((10, 1))
    inc[0, 0] = -1e150
    traj = run(
        spec,
        grid,
        non_circle(grid),
        StepperConfig(IMEX_EM, 1e-4, 1e-3),
        increments=inc,
        stop=StopCriteria(1e-300, np.inf, np.inf),
    )
    assert traj.terminal_status is TerminalStatus.NUMERICAL_FAILURE
    assert traj.steps == 2
    assert np.all(np.isfinite(traj.final_state.f)) and math.isfinite(traj.final_state.length)
    for snap in traj.snapshots:
        assert np.all(np.isfinite(snap.f)) and math.isfinite(snap.length)


def test_turning_precondition():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(WILLMORE, CLOSED, NO_NOISE)
    # total turning 2 pi + 0.02 is not a closed curve
    bad = State(np.full(32, 1.0 + 0.02 / TWO_PI), TWO_PI)
    with pytest.raises(ValueError, match="turning"):
        run(spec, grid, bad, StepperConfig(IMEX_EM, 1e-4, 1e-3))
    traj = run(spec, grid, bad, StepperConfig(IMEX_EM, 1e-4, 1e-3), check_turning=False)
    assert traj.terminal_status is TerminalStatus.REACHED_T


def test_noisy_run_requires_increment_source():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    with pytest.raises(ValueError, match="BrownianDriver"):
        run(spec, grid, circle(), StepperConfig(IMEX_EM, 1e-4, 1e-3))


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_rows_match_single_runs_bitwise():
    grid = Grid(CLOSED, 16)
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=0.2))
    stop = StopCriteria(1e-3, 1e3, 1e3)
    # 16 accumulated steps of 1e-4 fall an ulp short of t_end, so a single
    # run must still take 16 full steps rather than end on a shortened one
    cases = (
        (StepperConfig(IMEX_EM, 1e-3, 0.02, snapshot_every=5), 3, 20),
        (StepperConfig(IMEX_EM, 1e-4, 16e-4, snapshot_every=4), 8, 16),
    )
    for cfg, n_paths, n_steps in cases:
        ens = run_ensemble(spec, grid, np.ones(16), TWO_PI, cfg, n_paths, seed=99, stop=stop)
        assert ens.steps == n_steps
        assert np.array_equal(ens.times, np.arange(5) * cfg.snapshot_every * cfg.dt)
        for i in range(n_paths):
            traj = run(spec, grid, circle(16), cfg, stop=stop, driver=BrownianDriver(99, i))
            assert traj.steps == n_steps
            assert np.array_equal([s.length for s in traj.snapshots], ens.lengths[:, i])
            assert np.array_equal([s.energy for s in traj.snapshots], ens.energies[:, i])
            assert np.array_equal(traj.final_state.f, ens.final_f[i])
            assert traj.final_state.length == ens.final_lengths[i]
            assert ens.statuses[i] is TerminalStatus.REACHED_T
        assert np.all(ens.active)


@pytest.mark.parametrize(
    "topology,scheme,dt",
    [
        pytest.param(CLOSED, IMEX_EM, 1e-4, id="imex_em-0.0001"),
        pytest.param(CLOSED, HEUN_STRATONOVICH, 2e-7, id="heun_stratonovich-2e-07"),
        pytest.param(CLOSED, EXPLICIT_EM, 2e-7, id="explicit_em-2e-07"),
        # the open grid's one-sided stencils bound explicit steps near 1e-7
        pytest.param(OPEN, IMEX_EM, 1e-4, id="open-imex_em-0.0001"),
        pytest.param(OPEN, HEUN_STRATONOVICH, 5e-8, id="open-heun_stratonovich-5e-08"),
        pytest.param(OPEN, EXPLICIT_EM, 5e-8, id="open-explicit_em-5e-08"),
    ],
)
@pytest.mark.parametrize("kind", [WILLMORE, CURVE_DIFFUSION])
@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(mode="scalar", amplitude=1.0),
        NoiseModel(mode="spectral", amplitude=1.0, n_modes=8, decay_exponent=6.0),
    ],
    ids=["scalar", "spectral8"],
)
def test_ensemble_rows_match_single_runs_every_scheme(topology, scheme, dt, kind, noise):
    """Batch rows equal single runs bit for bit for every scheme, flow, noise
    model and topology, from a state that is not a circle.  Unit amplitude
    keeps the noise terms large enough that a change in the order of the
    per-mode sums shows in the final values."""
    grid = Grid(topology, 32 if topology == CLOSED else 33)
    spec = FlowSpec(kind, topology, noise)
    state = non_circle(grid)
    cfg = StepperConfig(scheme, dt, 16 * dt, snapshot_every=4)
    stop = StopCriteria.from_initial(state)
    ens = run_ensemble(spec, grid, state.f, state.length, cfg, 5, seed=77, stop=stop)
    assert ens.steps == 16
    for i in range(5):
        traj = run(spec, grid, state, cfg, stop=stop, driver=BrownianDriver(77, i))
        assert traj.steps == 16
        assert traj.terminal_status is ens.statuses[i] is TerminalStatus.REACHED_T
        assert np.array_equal([s.length for s in traj.snapshots], ens.lengths[:, i])
        assert np.array_equal([s.energy for s in traj.snapshots], ens.energies[:, i])
        assert np.array_equal(traj.final_state.f, ens.final_f[i])
        assert traj.final_state.length == ens.final_lengths[i]


def test_ensemble_slicing_by_first_path():
    """A worker owning paths [1, 3) reproduces those rows bit for bit."""
    grid = Grid(CLOSED, 16)
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=0.2))
    cfg = StepperConfig(IMEX_EM, 1e-3, 0.02, snapshot_every=5)
    stop = StopCriteria(1e-3, 1e3, 1e3)
    whole = run_ensemble(spec, grid, np.ones(16), TWO_PI, cfg, n_paths=3, seed=99, stop=stop)
    part = run_ensemble(
        spec, grid, np.ones(16), TWO_PI, cfg, n_paths=2, seed=99, stop=stop, first_path=1
    )
    assert np.array_equal(whole.lengths[:, 1:], part.lengths)
    assert np.array_equal(whole.energies[:, 1:], part.energies)
    assert np.array_equal(whole.final_f[1:], part.final_f)


def test_ensemble_predrawn_increments_match_single_runs():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, NoiseModel(mode="scalar", amplitude=0.3))
    cfg = StepperConfig(IMEX_EM, 1e-4, 1e-3, snapshot_every=2)
    rng = np.random.default_rng(5)
    inc = rng.standard_normal((10, 2, 1)) * math.sqrt(1e-4)
    ens = run_ensemble(
        spec, grid, np.ones(32), TWO_PI, cfg, 2, seed=1, increments=inc, stop=WIDE_STOP
    )
    for i in range(2):
        traj = run(spec, grid, circle(), cfg, increments=inc[:, i, :], stop=WIDE_STOP)
        assert np.array_equal(traj.final_state.f, ens.final_f[i])
        assert traj.final_state.length == ens.final_lengths[i]


def test_ensemble_freezes_failed_paths_and_keeps_going():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-4, 1e-3, snapshot_every=2)
    inc = np.zeros((10, 2, 1))
    inc[3, 0, 0] = 5.0  # kills path 0's length at step 4
    ens = run_ensemble(
        spec, grid, np.ones(32), TWO_PI, cfg, 2, seed=1, increments=inc, stop=WIDE_STOP
    )
    assert [s.value for s in ens.statuses] == ["blowup_length_zero", "reached_t"]
    assert ens.stop_times[0] == pytest.approx(4e-4)
    assert np.isnan(ens.stop_times[1])
    # recording continues on the full cadence with the frozen value repeated
    assert np.array_equal(ens.times, np.arange(6) * 2e-4)
    assert np.ptp(ens.lengths[:, 0]) == 0.0  # frozen at the initial length
    assert ens.active[1, 0] and not ens.active[2, 0]
    assert np.all(ens.active[:, 1])


def test_ensemble_rows_full_even_when_all_paths_stop():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-4, 1e-3, snapshot_every=2)
    inc = np.zeros((10, 2, 1))
    inc[1, :, 0] = 5.0
    ens = run_ensemble(
        spec, grid, np.ones(32), TWO_PI, cfg, 2, seed=1, increments=inc, stop=WIDE_STOP
    )
    assert all(s is TerminalStatus.BLOWUP_LENGTH_ZERO for s in ens.statuses)
    assert np.array_equal(ens.times, np.arange(6) * 2e-4)
    assert np.all(np.ptp(ens.lengths, axis=0) == 0.0)
    assert not ens.active[-1].any()


def test_ensemble_exact_zero_length_is_a_collapse():
    # b_L = -2 pi on a circle, so a unit increment takes the length to
    # exactly 0 (through the predictor for Heun); neither the turning
    # projection's division by the new length nor the corrector may turn
    # that collapse into a numerical failure
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    inc = np.zeros((10, 1, 1))
    inc[1, 0, 0] = 1.0
    for scheme, dt in ((IMEX_EM, 1e-4), (HEUN_STRATONOVICH, 2e-7), (EXPLICIT_EM, 2e-7)):
        cfg = StepperConfig(scheme, dt, 10 * dt, snapshot_every=2)
        ens = run_ensemble(
            spec, grid, np.ones(32), TWO_PI, cfg, 1, seed=1, increments=inc, stop=WIDE_STOP
        )
        assert ens.statuses == [TerminalStatus.BLOWUP_LENGTH_ZERO], scheme
        assert ens.final_lengths[0] == TWO_PI


def test_infinite_initial_length_is_rejected():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-4, 1e-3)
    with pytest.raises(ValueError, match="positive and finite"):
        run(spec, grid, State(np.ones(32), np.inf), cfg, stop=WIDE_STOP, driver=BrownianDriver(1))
    with pytest.raises(ValueError, match="positive and finite"):
        run_ensemble(spec, grid, np.ones(32), np.inf, cfg, 2, seed=1, stop=WIDE_STOP)


def test_ensemble_classifies_per_path_numerical_failure():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-4, 1e-3, snapshot_every=2)
    inc = np.zeros((10, 2, 1))
    inc[0, 0, 0] = -1e150  # see test_numerical_failure_keeps_last_finite_state
    ens = run_ensemble(
        spec,
        grid,
        non_circle(grid).f,
        TWO_PI,
        cfg,
        2,
        seed=7,
        increments=inc,
        stop=StopCriteria(1e-300, np.inf, np.inf),
    )
    assert [s.value for s in ens.statuses] == ["numerical_failure", "reached_t"]
    assert np.all(np.isfinite(ens.final_f)) and np.all(np.isfinite(ens.final_lengths))


def test_ensemble_validation():
    grid = Grid(CLOSED, 32)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-4, 1e-3)
    inc = np.zeros((10, 2, 1))
    with pytest.raises(ValueError, match="n_paths"):
        run_ensemble(spec, grid, np.ones(32), TWO_PI, cfg, 0, seed=1, increments=inc)
    with pytest.raises(ValueError, match="batch"):
        run_ensemble(spec, grid, np.ones((3, 32)), TWO_PI, cfg, 2, seed=1, increments=inc)
    with pytest.raises(ValueError, match="positive"):
        run_ensemble(spec, grid, np.ones(32), -1.0, cfg, 2, seed=1, increments=inc)
    with pytest.raises(ValueError, match="integer number of steps"):
        run_ensemble(
            spec,
            grid,
            np.ones(32),
            TWO_PI,
            StepperConfig(IMEX_EM, 1e-4, 1.05e-3),
            2,
            seed=1,
            increments=inc,
            stop=WIDE_STOP,
        )
    # per-path turning precondition
    with pytest.raises(ValueError, match="turning"):
        run_ensemble(
            spec, grid, np.full(32, 1.01), TWO_PI, cfg, 2, seed=1, increments=inc
        )
    # every row is checked, and the first offending one is reported
    f0 = np.ones((2, 32))
    f0[1] = 1.01
    with pytest.raises(ValueError, match="turning 6.346"):
        run_ensemble(spec, grid, f0, TWO_PI, cfg, 2, seed=1, increments=inc)


# ---------------------------------------------------------------------------
# configuration objects


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig("rk4", 1e-4, 0.1)
    with pytest.raises(ValueError):
        StepperConfig(IMEX_EM, -1e-4, 0.1)
    with pytest.raises(ValueError):
        StepperConfig(IMEX_EM, 1e-4, 0.0)
    with pytest.raises(ValueError):
        StepperConfig(IMEX_EM, 1e-4, 0.1, snapshot_every=0)
    cfg = StepperConfig(IMEX_EM, 1e-4, 0.1, snapshot_every=7.0)
    assert cfg.snapshot_every == 7


def test_stop_criteria_validation_and_defaults():
    with pytest.raises(ValueError):
        StopCriteria(l_min=-1.0, l_max=1.0, f_max=1.0)
    with pytest.raises(ValueError):
        StopCriteria(l_min=2.0, l_max=1.0, f_max=1.0)
    with pytest.raises(ValueError):
        StopCriteria(l_min=0.1, l_max=1.0, f_max=0.0)
    stop = StopCriteria.from_initial(State(np.full(8, 0.25), 4.0))
    assert stop.l_min == 4e-3
    assert stop.l_max == 4e3
    assert stop.f_max == 1e3  # sup below one clamps to the absolute floor
    stop = StopCriteria.from_initial(State(np.full(8, 2.5), 4.0))
    assert stop.f_max == 2.5e3
