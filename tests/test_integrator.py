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
import re
import warnings

import numpy as np
import pytest

from curveflow import grid as grid_module
from curveflow import flows, integrator
from curveflow.flows import CURVE_DIFFUSION, WILLMORE, FlowSpec, State
from curveflow.grid import Grid
from curveflow.harness import _poisson_state
from curveflow.integrator import (
    HEUN_STRATONOVICH,
    IMEX_EM,
    StepperConfig,
    StopCriteria,
    TerminalStatus,
    dt_stability,
    run,
    run_ensemble,
)
from curveflow.noise import BrownianDriver, NoiseModel, _generators, increment_blocks

TWO_PI = 2.0 * np.pi

NO_NOISE = NoiseModel(mode="scalar", amplitude=0.0)
UNIT_NOISE = NoiseModel(mode="scalar", amplitude=1.0)
WIDE_STOP = StopCriteria(l_min=1e-6, l_max=1e6, f_max=1e6)
SCHEMES = (IMEX_EM, HEUN_STRATONOVICH)


def circle(n=32, radius=1.0):
    return State(np.full(n, 1.0 / radius), TWO_PI * radius)


def non_circle(grid):
    """Curvature 1 + 0.1 cos(4 pi r) on length 2 pi: total turning 2 pi."""
    return State(1.0 + 0.1 * np.cos(2.0 * TWO_PI * grid.nodes), TWO_PI)


def circle_length(radius, t):
    return TWO_PI * (radius**4 + 2.0 * t) ** 0.25


def _block(driver, n_steps, n_modes, dt):
    """(n_steps, n_modes) N(0, dt) samples from the driver's stream."""
    return increment_blocks([driver.generator], n_steps, n_modes, dt)[:, 0]


# ---------------------------------------------------------------------------
# stability bounds


def test_dt_stability_closed_formulas():
    grid = Grid(64)
    length, sup = TWO_PI, 1.0
    advective = 0.5 * length**2 / (sup**2 * 64**2)
    assert dt_stability(IMEX_EM, grid, length, sup) == advective
    fourth = length**4 / (math.pi * 64) ** 4
    assert dt_stability(HEUN_STRATONOVICH, grid, length, sup) == min(advective, fourth)
    # flat states do not constrain the semi-implicit scheme at all
    assert dt_stability(IMEX_EM, grid, length, 0.0) == math.inf
    assert dt_stability(HEUN_STRATONOVICH, grid, length, 0.0) == fourth


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dt_stability_on_arrays_matches_scalar_calls(scheme):
    # one length and one sup per row: a flat row (sup 0) leaves ImexEM
    # unbounded, and a long row lets the fourth-order cap bind Heun where
    # the advective bound alone would be looser
    grid = Grid(64)
    lengths = np.array([TWO_PI, 0.5, 3.0, 40.0])
    sups = np.array([1.0, 0.0, 7.5, 0.1])
    bounds = dt_stability(scheme, grid, lengths, sups)
    assert bounds.shape == (4,)
    for length, sup, bound in zip(lengths, sups, bounds):
        assert bound == dt_stability(scheme, grid, float(length), float(sup))
    fourth = 1.0 / ((math.pi * 64) ** 4 / lengths**4)
    if scheme == IMEX_EM:
        assert bounds[1] == math.inf
    else:
        assert np.array_equal(bounds[[1, 3]], fourth[[1, 3]])
        assert bounds[3] < 0.5 * 40.0**2 / (0.1**2 * 64**2)


def test_dt_stability_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        dt_stability("leapfrog", Grid(64), TWO_PI, 1.0)


def test_stability_enforcement_at_start():
    # every scheme refuses a dt above its bound at the start, in run and
    # run_ensemble alike: the semi-implicit scheme's advective bound is about
    # 4.8e-3 here, and Heun's explicit fourth-order term caps it near 9.5e-7
    grid = Grid(64)
    spec = FlowSpec(WILLMORE, NO_NOISE)
    state = circle(64)
    above = {IMEX_EM: 1e-2, HEUN_STRATONOVICH: 1e-4}
    assert set(above) == set(integrator._SCHEMES)
    for scheme, dt in above.items():
        cfg = StepperConfig(scheme, dt, 0.1)
        with pytest.raises(ValueError, match="stability"):
            run(spec, grid, state, cfg)
        with pytest.raises(ValueError, match="stability"):
            run_ensemble(spec, grid, state.f, state.length, cfg, 2, seed=1)


@pytest.mark.parametrize("n", (16, 128))
def test_run_and_ensemble_check_fields_once_at_entry(monkeypatch, n):
    # states are validated where they enter and nowhere else: a whole noisy
    # run or ensemble calls check_field once, on the dense route (n = 16)
    # and on the FFT route (n = 128) alike
    assert (n <= grid_module._DENSE_MAX_N) == (n == 16)
    calls = []
    check_field = Grid.check_field

    def counting(self, values):
        calls.append(np.shape(values))
        return check_field(self, values)

    monkeypatch.setattr(Grid, "check_field", counting)
    grid = Grid(n)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.5))
    state = non_circle(grid)
    cfg = StepperConfig(IMEX_EM, 1e-4, 1e-3, snapshot_every=2)
    run(spec, grid, state, cfg, driver=BrownianDriver(3, 0))
    assert calls == [(1, n)]
    calls.clear()
    run_ensemble(spec, grid, state.f, state.length, cfg, 4, seed=3)
    assert calls == [(4, n)]


# ---------------------------------------------------------------------------
# single steps


def step(scheme, spec, grid, state, dt, dw=None):
    """One step of the scheme's kernel on a single state: (new_f, new_length)."""
    return integrator._STEPPERS[scheme](spec, grid, state.f, state.length, dt, dw)[:2]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_and_ensemble_share_one_kernel(scheme):
    assert integrator._STEPPERS[scheme] is integrator._BATCH_STEPPERS[scheme]


def test_noise_length_sums_add_in_mode_order():
    # the noise field psi = sum_l w_l phi_l (and psi'') is the in-mode-order
    # loop from -0.0, bit for bit, signed zeros included, where a pairwise
    # sum would round differently; a single path and a batch row then give
    # bitwise equal psi, noise increment and length increment
    # Lambda = -L integral(f psi)
    rng = np.random.default_rng(59)
    grid = Grid(64)
    f = np.stack([non_circle(grid).f, bumpy(grid).f, -non_circle(grid).f])
    lengths = np.array([TWO_PI, 1.7, 0.4])
    for n_modes in (1, 8, 17):
        noise = NoiseModel(mode="spectral", amplitude=0.3, n_modes=n_modes)
        spec = FlowSpec(WILLMORE, noise)
        dw = rng.standard_normal((3, n_modes)) * 10.0 ** rng.integers(-8, 8, (3, n_modes))
        dw[2] = -0.0
        psi = flows.noise_field(spec, grid, dw)
        table = flows._basis_table(noise, grid)
        loop = np.full((2, 3, grid.n), -0.0)
        for l, w in enumerate(0.3 * dw.T):
            loop = loop + w[:, None] * table[:2, l, None]
        assert psi.tobytes() == loop.tobytes()
        batch = flows.assemble(spec, grid, f, lengths, include_ito=False, psi=psi)
        for i in range(3):
            single_psi = flows.noise_field(spec, grid, dw[i])
            assert single_psi.tobytes() == psi[:, i].tobytes()
            single = flows.assemble(spec, grid, f[i], lengths[i], include_ito=False, psi=single_psi)
            assert single.rows_beta.tobytes() == batch.rows_beta[i].tobytes()
            assert np.float64(single.rows_lam).tobytes() == batch.rows_lam[i].tobytes()


def test_imex_step_exact_on_circle():
    # constant f: every derivative vanishes, so one step is pure arithmetic:
    # L -> L (1 + dt f^4 / 2), and the turning projection (the implicit solve
    # is the identity on constants) makes f the constant 2 pi / L_new, the
    # exact curvature of the new circle
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NO_NOISE)
    state = circle()
    dt = 1e-4
    new_f, new_length = step(IMEX_EM, spec, grid, state, dt)
    assert new_length == pytest.approx(TWO_PI * (1.0 + 0.5 * dt), rel=1e-15)
    assert np.ptp(new_f) == 0.0
    assert new_f[0] == pytest.approx(TWO_PI / new_length, rel=1e-15)
    assert new_length * grid.integrate(new_f) == pytest.approx(TWO_PI, rel=1e-15)


@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(mode="scalar", amplitude=0.3),
        NoiseModel(mode="spectral", amplitude=0.3, n_modes=8, decay_exponent=6.0),
    ],
    ids=["scalar", "spectral8"],
)
def test_imex_step_carries_the_derivatives_of_its_result(monkeypatch, noise):
    """The IMEX kernel returns (f', f'') of its new f, from the solve's
    modes: on both routes, for a lone path and a batch, they match
    ``derivs`` of the new f to round-off, the turning L * mean(f) keeps its
    start-of-step value, and a batch row is bitwise the lone path.  A step
    given the carried pair matches them likewise."""
    spec = FlowSpec(WILLMORE, noise)
    rng = np.random.default_rng(67)
    dw = rng.standard_normal((3, noise.n_modes)) * 1e-3
    for dense_max in (64, 0):
        monkeypatch.setattr(grid_module, "_DENSE_MAX_N", dense_max)
        grid = Grid(64)
        f = np.stack([non_circle(grid).f, bumpy(grid).f, 1.0 + 0.2 * np.sin(TWO_PI * grid.nodes)])
        lengths = np.full(3, TWO_PI)
        batch = integrator._imex_em(spec, grid, f, lengths, 1e-4, dw)
        again = integrator._imex_em(spec, grid, *batch[:2], 1e-4, dw, batch[2])
        for new_f, new_l, d in (batch, again):
            assert d.shape == (2, 3, 64)
            derivs = grid.derivs(new_f, (1, 2))
            assert np.max(np.abs(d - derivs)) < 1e-10, dense_max
            turning = new_l * grid.integrate(new_f)
            assert np.max(np.abs(turning - TWO_PI)) < 1e-13
        for i in range(3):
            new_f, new_l, d = integrator._imex_em(spec, grid, f[i], lengths[i], 1e-4, dw[i])
            assert new_f.tobytes() == batch[0][i].tobytes() and new_l == batch[1][i]
            assert d.tobytes() == batch[2][:, i].tobytes()
            carried = integrator._imex_em(spec, grid, new_f, new_l, 1e-4, dw[i], d)
            assert carried[0].tobytes() == again[0][i].tobytes()
            assert carried[2].tobytes() == again[2][:, i].tobytes()


def test_flat_curve_diffusion_step_is_identity():
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, NO_NOISE)
    state = State(np.full(32, 0.5), 4.0 * np.pi, time=0.25)
    new_f, new_length = step(IMEX_EM, spec, grid, state, 1e-3)
    assert np.array_equal(new_f, state.f)
    assert new_length == state.length


@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_refuses_nonpositive_length(scheme):
    # a scalar increment of +5 removes 10 pi from a length of 2 pi; the
    # kernel reports the collapse as a non-positive length, which run
    # retries and run_ensemble classifies
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, new_length = step(scheme, spec, grid, circle(), 1e-4, np.array([5.0]))
    assert new_length <= 0.0


def test_heun_hands_divergence_to_caller():
    # a violent increment leaves the predictor finite but the corrector's
    # drift evaluation overflows; the step must return the non-finite state
    # rather than swallow it, so the caller can classify the failure
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    with np.errstate(over="ignore", invalid="ignore"):
        new_f, new_length = step(
            HEUN_STRATONOVICH, spec, grid, circle(), 1e-4, np.array([-1e150])
        )
    assert not (np.all(np.isfinite(new_f)) and math.isfinite(new_length))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bad_rows_stay_in_their_rows(scheme):
    # a kernel steps a batch without checking it: a row driven non-finite
    # or to a non-positive length comes back so, and a clean row beside
    # them comes back bitwise as stepped alone.  The non-finite row is a
    # circle of radius 1e-80, whose noise row f^2 = 1e160 times an increment
    # of -1e150 overflows; the collapsing one is the unit circle under +5
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    f = np.stack([non_circle(grid).f, np.full(32, 1e80), np.ones(32)])
    length = np.array([TWO_PI, TWO_PI * 1e-80, TWO_PI])
    dw = np.array([[0.01], [-1e150], [5.0]])
    kernel = integrator._STEPPERS[scheme]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        new_f, new_length, _ = kernel(spec, grid, f, length, 1e-4, dw)
    alone_f, alone_length, _ = kernel(spec, grid, f[0], length[0], 1e-4, dw[0])
    assert np.array_equal(new_f[0], alone_f) and new_length[0] == alone_length
    assert not (np.all(np.isfinite(new_f[1])) and math.isfinite(new_length[1]))
    assert new_length[2] <= 0.0


# ---------------------------------------------------------------------------
# full runs: accuracy and recording


def test_run_matches_circle_law():
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NO_NOISE)
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
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NO_NOISE)
    traj = run(spec, grid, circle(), StepperConfig(IMEX_EM, 1e-4, 0.1, snapshot_every=100))
    assert [s.step for s in traj.snapshots] == list(range(0, 1001, 100))
    for i, snap in enumerate(traj.snapshots):
        assert snap.time == snap.step * 1e-4  # k * dt exactly, not a running sum
        assert snap.full_resolution  # 32 values fit under the storage cap
    first = traj.snapshots[0]
    assert first.turning == pytest.approx(TWO_PI, rel=1e-14)
    assert first.energy == pytest.approx(np.pi, rel=1e-14)
    assert first.sup_f == 1.0
    # free elastic flow dissipates energy monotonically on a circle
    energies = [s.energy for s in traj.snapshots]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_snapshot_decimation_and_full_final():
    grid = Grid(512)
    spec = FlowSpec(WILLMORE, NO_NOISE)
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
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NO_NOISE)
    exact = circle_length(1.0, 2e-3)
    heun = run(spec, grid, circle(), StepperConfig(HEUN_STRATONOVICH, 1e-5, 2e-3))
    imex = run(spec, grid, circle(), StepperConfig(IMEX_EM, 1e-5, 2e-3))
    err_heun = abs(heun.final_state.length - exact) / exact
    err_imex = abs(imex.final_state.length - exact) / exact
    assert err_heun < 1e-12
    assert 1e-10 < err_imex < 1e-7
    assert err_heun < 1e-3 * err_imex


def test_run_is_deterministic_given_seed():
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.2))
    cfg = StepperConfig(IMEX_EM, 1e-3, 0.02, snapshot_every=5)
    stop = StopCriteria(1e-3, 1e3, 1e3)
    a = run(spec, grid, circle(), cfg, stop=stop, driver=BrownianDriver(4, 0))
    b = run(spec, grid, circle(), cfg, stop=stop, driver=BrownianDriver(4, 0))
    assert np.array_equal(a.final_state.f, b.final_state.f)
    assert a.final_state.length == b.final_state.length


# ---------------------------------------------------------------------------
# terminal classification


def bumpy(grid):
    """Curvature 1 + cos(4 pi r) on length 2 pi: total turning 2 pi, sup|f| 2."""
    return State(1.0 + np.cos(2.0 * TWO_PI * grid.nodes), TWO_PI)


# the ids name how each step ended when a collapsing step was still re-run
# as Brownian-bridge sub-steps; every such step ended a collapse
@pytest.mark.parametrize(
    "n,dw",
    [
        pytest.param(32, 1.0051, id="depth-runs-out"),  # Euler length -6.3e-4
        pytest.param(16, 1.01, id="end-state-stiff"),  # -0.031
        pytest.param(16, 1.3, id="sub-step-stiff"),  # -1.85
    ],
)
def test_step_to_a_negative_length_is_a_collapse(n, dw):
    """A step whose length update is non-positive stops its row at once.
    On a Willmore circle at dt = 1e-2 each of these increments takes the
    Euler length negative; run and run_ensemble alike end after that one
    step with blowup_length_zero, the row kept at its start-of-step state
    (only the initial snapshot), with the default stop window and no
    stability warning."""
    grid = Grid(n)
    spec = FlowSpec(WILLMORE, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-2, 2e-2, snapshot_every=1)
    inc = np.array([[dw], [0.0]])
    assert step(IMEX_EM, spec, grid, circle(n), 1e-2, inc[0])[1] < 0.0
    traj = run(spec, grid, circle(n), cfg, increments=inc)
    ens = run_ensemble(spec, grid, np.ones(n), TWO_PI, cfg, 1, seed=0, increments=inc[:, None])
    assert traj.terminal_status is ens.statuses[0] is TerminalStatus.BLOWUP_LENGTH_ZERO
    assert traj.steps == 1 and ens.stop_times[0] == 1e-2
    assert traj.final_state.length == ens.final_lengths[0] == TWO_PI
    assert np.array_equal(traj.final_state.f, ens.final_f[0])
    assert [s.length for s in traj.snapshots] == [TWO_PI]
    assert not (traj.stability_warning or ens.stability_warning)


def test_first_step_collapse_keeps_the_start_state():
    """A first step that takes the length to a non-positive value ends the
    run as blowup_length_zero after that full-size step, with the
    start-of-step state kept and only the initial snapshot recorded.  On a
    curve-diffusion circle L = 2 pi (1 - W) exactly, so dW = 50 takes the
    length to 2 pi (1 - 50): the curve has shrunk to a point."""
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    traj = run(
        spec,
        grid,
        circle(),
        StepperConfig(IMEX_EM, 1e-4, 3e-4),
        increments=np.full((3, 1), 50.0),
        stop=WIDE_STOP,
    )
    assert traj.terminal_status is TerminalStatus.BLOWUP_LENGTH_ZERO
    assert traj.steps == 1  # the step that collapsed
    assert traj.min_h == 1e-4
    # the start-of-step state is kept
    assert traj.final_state.length == TWO_PI and traj.final_state.time == 0.0
    assert np.array_equal(traj.final_state.f, np.ones(32))
    assert len(traj.snapshots) == 1  # only the initial record


def test_exact_size_increments_collapse_alike_in_run_and_ensemble():
    # one pre-drawn row per step: the fatal first step is a collapse, and the
    # single run and the one-path batch end identically
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-4, 3e-4, snapshot_every=100)
    inc = np.zeros((3, 1))
    inc[0, 0] = 1.05
    traj = run(spec, grid, circle(), cfg, increments=inc, stop=WIDE_STOP)
    ens = run_ensemble(
        spec, grid, np.ones(32), TWO_PI, cfg, 1, seed=0, increments=inc[:, None, :], stop=WIDE_STOP
    )
    assert traj.terminal_status is ens.statuses[0] is TerminalStatus.BLOWUP_LENGTH_ZERO
    assert np.array_equal(traj.final_state.f, ens.final_f[0])
    assert traj.final_state.length == ens.final_lengths[0] == TWO_PI
    assert traj.min_h == ens.min_h[0]
    assert ens.stop_times[0] == 1e-4


def _assert_rows_match(ens, i, traj):
    assert traj.terminal_status is ens.statuses[i]
    assert np.array_equal(traj.final_state.f, ens.final_f[i])
    assert traj.final_state.length == ens.final_lengths[i]
    assert traj.min_h == ens.min_h[i]


def veto_kernel(monkeypatch, scheme, vetoed):
    """Wrap the scheme's kernel, in run and run_ensemble, so that a row whose
    increment is in vetoed reports a non-positive length.  Returns the
    (h, dw) of every call."""
    kernel, calls = integrator._STEPPERS[scheme], []

    def vetoing(spec, grid, f, length, h, dw, d):
        calls.append((h, np.array(dw)))
        new_f, new_l, d = kernel(spec, grid, f, length, h, dw, d)
        return new_f, np.where(np.isin(dw[..., 0], vetoed), -1.0, new_l), d

    monkeypatch.setitem(integrator._STEPPERS, scheme, vetoing)
    monkeypatch.setitem(integrator._BATCH_STEPPERS, scheme, vetoing)
    return calls


# amplitude 6 also drives running paths past the stability bound mid-run,
# which only warns and is not what the test is about
@pytest.mark.filterwarnings("ignore:dt exceeded the stability bound")
def test_collapsing_batch_rows_match_single_runs(monkeypatch):
    """Rows that collapse leave every batch row bitwise equal to its single
    run: under scalar noise of amplitude 6, where collapsing steps are
    common, and with collapses forced at chosen steps of two paths.  A
    stopped row never shifts the increment stream: every step a row takes
    draws what it would in a single run, and each row stops at its own
    step and time."""
    grid = Grid(16)
    dt = 5e-3
    # amplitude 6 makes collapsing Euler steps common
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=6.0))
    cfg = StepperConfig(IMEX_EM, dt, 8 * dt, snapshot_every=2)
    stop = StopCriteria(1e-6, 1e6, 1e6)
    ens = run_ensemble(spec, grid, np.ones(16), TWO_PI, cfg, 8, seed=5, stop=stop)
    assert sum(s is TerminalStatus.BLOWUP_LENGTH_ZERO for s in ens.statuses) >= 2
    for i in range(8):
        traj = run(spec, grid, circle(16), cfg, stop=stop, driver=BrownianDriver(5, i))
        _assert_rows_match(ens, i, traj)

    # steps 3 of path 1 and 5 of path 2 made to report a collapse: each row
    # stops there at its start-of-step state, and path 2's veto, matched on
    # its own draw, lands only if the gathered rows after path 1 stopped
    # still take their own streams
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.5))
    streams = [_block(BrownianDriver(5, i), 8, 1, dt) for i in range(3)]
    calls = veto_kernel(monkeypatch, IMEX_EM, [streams[1][2, 0], streams[2][4, 0]])
    ens = run_ensemble(spec, grid, np.ones(16), TWO_PI, cfg, 3, seed=5, stop=stop)
    assert [s.value for s in ens.statuses] == [
        "reached_t", "blowup_length_zero", "blowup_length_zero"
    ]
    assert np.array_equal(ens.stop_times, [np.nan, 3 * dt, 5 * dt], equal_nan=True)
    for i, steps in enumerate((8, 3, 5)):
        del calls[:]
        traj = run(spec, grid, circle(16), cfg, stop=stop, driver=BrownianDriver(5, i))
        _assert_rows_match(ens, i, traj)
        assert traj.steps == steps
        k = len(traj.snapshots)
        assert np.array_equal([s.length for s in traj.snapshots], ens.lengths[:k, i])
        assert np.array_equal([s.energy for s in traj.snapshots], ens.energies[:k, i])
        assert np.all(ens.lengths[k:, i] == traj.final_state.length)
        assert np.array_equal(np.stack([dw for h, dw in calls]), streams[i][:steps])
    monkeypatch.undo()

    # pre-drawn increments: two rows whose step 3 takes the Euler length
    # negative collapse in the same step, and a row untouched runs on
    grid = Grid(8)
    spec = FlowSpec(WILLMORE, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-2, 3e-2, snapshot_every=1)
    inc = np.zeros((3, 3, 1))
    inc[2, :2, 0] = (1.02, 1.06)
    state = bumpy(grid)
    ens = run_ensemble(
        spec, grid, state.f, state.length, cfg, 3, seed=0, increments=inc, stop=stop
    )
    assert [s.value for s in ens.statuses] == [
        "blowup_length_zero", "blowup_length_zero", "reached_t"
    ]
    for i in range(3):
        traj = run(spec, grid, state, cfg, stop=stop, increments=inc[:, i])
        _assert_rows_match(ens, i, traj)


def test_ensemble_start_bound_is_per_row():
    # a short circle (L = 1, sup 2 pi) and a bumpy unit-turning curve
    # (L = 2 pi, sup 21) each start under dt = 1e-5, alone and in one batch;
    # the short length with the other row's sup would put the bound at 1.1e-6
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NO_NOISE)
    f0 = np.stack([np.full(32, TWO_PI), 1.0 + 20.0 * np.cos(2.0 * TWO_PI * grid.nodes)])
    lengths = np.array([1.0, TWO_PI])
    assert np.all(dt_stability(IMEX_EM, grid, lengths, np.abs(f0).max(axis=-1)) > 1e-5)
    cfg = StepperConfig(IMEX_EM, 1e-5, 2e-5, snapshot_every=1)
    ens = run_ensemble(spec, grid, f0, lengths, cfg, 2, seed=0, stop=WIDE_STOP)
    for i in range(2):
        traj = run(spec, grid, State(f0[i], lengths[i]), cfg, stop=WIDE_STOP)
        _assert_rows_match(ens, i, traj)
    assert not ens.stability_warning


def test_stability_bound_crossed_mid_run_warns_for_batches_too():
    # constant increments shrink a curve-diffusion circle, and with it the
    # advective bound 0.5 L^4 / (4 pi^2 n^2), below a dt that started under it
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    dt = 0.9 * dt_stability(IMEX_EM, grid, TWO_PI, 1.0)
    cfg = StepperConfig(IMEX_EM, dt, 4 * dt, snapshot_every=2)
    inc = np.full((4, 2, 1), 0.05)
    with pytest.warns(UserWarning, match="stability bound mid-run"):
        traj = run(spec, grid, circle(), cfg, increments=inc[:, 0], stop=WIDE_STOP)
    with pytest.warns(UserWarning, match="stability bound mid-run"):
        ens = run_ensemble(
            spec, grid, np.ones(32), TWO_PI, cfg, 2, seed=1, increments=inc, stop=WIDE_STOP
        )
    assert traj.stability_warning and ens.stability_warning


def test_curvature_window_stops_run():
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NO_NOISE)
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
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NO_NOISE)
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
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
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


def test_shrinking_below_l_min_is_a_length_stop_not_a_curvature_one():
    # a curve-diffusion circle has L = 2 pi (1 - W): one step lands
    # at L = pi * 1e-3 = l_min / 2, where sup|f| = 2 pi / L = 2000 also
    # exceeds f_max = 1000.  The curve shrinks to a point, and the verdict
    # must say so in run and run_ensemble alike
    grid = Grid(16)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-2, 2e-2)
    traj = run(spec, grid, circle(16), cfg, increments=[[0.9995], [0.0]])
    assert traj.terminal_status is TerminalStatus.BLOWUP_LENGTH_ZERO
    assert traj.steps == 1
    assert traj.final_state.length == pytest.approx(math.pi * 1e-3, rel=1e-9)
    inc = [[[0.9995], [0.0]], [[0.0], [0.0]]]
    ens = run_ensemble(spec, grid, np.ones(16), TWO_PI, cfg, 2, seed=1, increments=inc)
    assert ens.statuses == [TerminalStatus.BLOWUP_LENGTH_ZERO, TerminalStatus.REACHED_T]
    assert ens.final_lengths[0] == traj.final_state.length


def test_flipped_stiff_sign_needs_an_explicit_scheme():
    # the implicit solve of imex_em only damps; the flipped, anti-dissipative
    # operator runs under the explicit Heun scheme alone, and below its bound
    # it starts without a warning
    grid = Grid(64)
    spec = FlowSpec(WILLMORE, NO_NOISE, stiff_sign=+1.0)
    with pytest.raises(ValueError, match="stiff_sign"):
        run(spec, grid, circle(64), StepperConfig(IMEX_EM, 1e-5, 1e-4))
    with pytest.raises(ValueError, match="stiff_sign"):
        run_ensemble(spec, grid, np.ones(64), TWO_PI, StepperConfig(IMEX_EM, 1e-5, 1e-4), 2, 1)
    cfg = StepperConfig(HEUN_STRATONOVICH, 5e-7, 5e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(spec, grid, circle(64), cfg)
        ens = run_ensemble(spec, grid, np.ones(64), TWO_PI, cfg, 2, 1)
    assert traj.steps == 10 and traj.terminal_status is TerminalStatus.REACHED_T
    assert ens.steps == 10 and ens.statuses == [TerminalStatus.REACHED_T] * 2


def test_predrawn_rows_scale_to_a_shortened_last_step():
    # rows are N(0, dt) samples: the last step, shortened to dt/2, takes its
    # row times sqrt(1/2); on a curve-diffusion circle L = 2 pi (1 - W)
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    inc = np.full((3, 1), 0.01)
    cfg = StepperConfig(IMEX_EM, 1e-4, 2.5e-4)
    traj = run(spec, grid, circle(), cfg, increments=inc, stop=WIDE_STOP)
    assert traj.steps == 3 and traj.min_h == pytest.approx(0.5e-4, rel=1e-9)
    expected = TWO_PI * (1.0 - 0.02 - 0.01 * math.sqrt(0.5))
    assert traj.final_state.length == pytest.approx(expected, rel=1e-12)


def test_numerical_failure_keeps_last_finite_state():
    # one violent negative increment knocks f to about -2e149 while the
    # length grows to about 6e150; on a circle that moves only the zero mode,
    # which the turning projection restores, so the run starts off-circle.
    # The next drift evaluation overflows and the run must stop as a
    # numerical failure without recording any non-finite value
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
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


@pytest.mark.parametrize("kind", (WILLMORE, CURVE_DIFFUSION))
@pytest.mark.parametrize("amplitude", (0.1, 0.5))
def test_spectral_noise_converges_pathwise_in_n(kind, amplitude):
    # one Brownian path drives every grid; the start is a smooth state with
    # all modes and a turning of 2*pi on every grid, so f at the shared nodes
    # converges spectrally to the n = 256 path
    spec = FlowSpec(kind, NoiseModel(mode="spectral", amplitude=amplitude, n_modes=8))
    stepper = StepperConfig(IMEX_EM, 1e-5, 2e-4)
    inc = _block(BrownianDriver(7, 0), 20, 8, 1e-5)

    def final_f(n):
        grid = Grid(n)
        return run(spec, grid, _poisson_state(grid), stepper, increments=inc).final_state.f

    f_ref = final_f(256)
    errors = {n: np.abs(final_f(n) - f_ref[:: 256 // n]).max() for n in (32, 64, 128)}
    assert errors[32] < 1e-4
    assert errors[64] < 1e-10
    assert errors[128] < 1e-13


def test_turning_precondition():
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NO_NOISE)
    # total turning 2 pi + 0.02 is not a closed curve
    bad = State(np.full(32, 1.0 + 0.02 / TWO_PI), TWO_PI)
    with pytest.raises(ValueError, match="turning"):
        run(spec, grid, bad, StepperConfig(IMEX_EM, 1e-4, 1e-3))


def test_scalar_noise_requires_turning_two_pi():
    # the scalar length row is the constant -2*pi, minus the total turning
    # only of states that turn by exactly 2*pi; other multiples of 2*pi are
    # closed curves, but the row would be wrong for them
    grid = Grid(32)
    stepper = StepperConfig(IMEX_EM, 1e-4, 1e-3)
    scalar = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.3))
    for value in (2.0, -1.0, 0.0, 1.0 + 2e-6 / TWO_PI):
        state = State(np.full(32, value), TWO_PI)
        with pytest.raises(ValueError, match="scalar noise requires"):
            run(scalar, grid, state, stepper, driver=BrownianDriver(1, 0))
        with pytest.raises(ValueError, match="scalar noise requires"):
            run_ensemble(scalar, grid, np.stack([circle().f, state.f]), TWO_PI, stepper, 2, 1)
    # without noise, or under spectral noise, a turning of 4*pi runs
    state = State(np.full(32, 2.0), TWO_PI)
    spectral = FlowSpec(WILLMORE, NoiseModel(mode="spectral", amplitude=0.3))
    quiet = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.0))
    for spec in (spectral, quiet):
        traj = run(spec, grid, state, stepper, driver=BrownianDriver(1, 0))
        assert traj.terminal_status is TerminalStatus.REACHED_T


def test_noisy_run_requires_increment_source():
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    with pytest.raises(ValueError, match="BrownianDriver"):
        run(spec, grid, circle(), StepperConfig(IMEX_EM, 1e-4, 1e-3))


def test_noise_basis_the_grid_aliases_is_refused():
    # at n = 16 a basis wavenumber of 8 or more samples as a lower mode (cos at
    # wavenumber 17 as mode 1) or as zero (sin at wavenumber 8)
    grid, stepper = Grid(16), StepperConfig(IMEX_EM, 1e-4, 1e-3)
    state = circle(16)
    for n_modes, wave in ((40, 20), (16, 8)):
        spec = FlowSpec(WILLMORE, NoiseModel(mode="spectral", amplitude=0.01, n_modes=n_modes))
        message = f"wavenumber {wave} is not below n/2 = 8"
        with pytest.raises(ValueError, match=message):
            run(spec, grid, state, stepper, driver=BrownianDriver(1, 0))
        with pytest.raises(ValueError, match=message):
            run_ensemble(spec, grid, state.f, state.length, stepper, 2, 1)
    # wavenumber 7 is resolved, and without noise the basis is never sampled
    for amplitude, n_modes in ((0.01, 14), (0.0, 40)):
        spec = FlowSpec(WILLMORE, NoiseModel("spectral", amplitude, n_modes))
        traj = run(spec, grid, state, stepper, driver=BrownianDriver(1, 0))
        assert traj.terminal_status is TerminalStatus.REACHED_T


def test_tiny_dt_schedule_ends_at_t_end():
    # the full-step tolerance is relative to the times, never an absolute
    # 1e-12 that could exceed dt and add phantom steps past t_end
    traj = run(
        FlowSpec(WILLMORE, NO_NOISE), Grid(16), circle(16), StepperConfig(IMEX_EM, 1e-13, 1e-12)
    )
    assert traj.steps == 10
    assert traj.final_state.time == 1e-12
    n_steps, step = integrator._schedule(0.0, 1e-300, 1e-299)
    assert n_steps == 10
    assert step(n_steps - 1)[1] == 1e-299


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_rows_match_single_runs_bitwise():
    grid = Grid(16)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.2))
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
    # a batch just over one row block at n = 64: the rows on either side of
    # the block edge and the last row equal single runs too
    grid = Grid(64)
    rows = integrator._BLOCK_VALUES // grid.n
    n_paths = rows + 3
    cfg = StepperConfig(IMEX_EM, 1e-4, 3e-4, snapshot_every=1)
    ens = run_ensemble(spec, grid, np.ones(64), TWO_PI, cfg, n_paths, seed=99, stop=stop)
    assert ens.steps == 3
    for i in (0, rows - 1, rows, n_paths - 1):
        traj = run(spec, grid, circle(64), cfg, stop=stop, driver=BrownianDriver(99, i))
        assert np.array_equal([s.length for s in traj.snapshots], ens.lengths[:, i])
        assert np.array_equal([s.energy for s in traj.snapshots], ens.energies[:, i])
        _assert_rows_match(ens, i, traj)


@pytest.mark.parametrize("scheme,dt", [(IMEX_EM, 1e-4), (HEUN_STRATONOVICH, 2e-7)])
@pytest.mark.parametrize("kind", [WILLMORE, CURVE_DIFFUSION])
@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(mode="scalar", amplitude=1.0),
        NoiseModel(mode="spectral", amplitude=1.0, n_modes=8, decay_exponent=6.0),
    ],
    ids=["scalar", "spectral8"],
)
def test_ensemble_rows_match_single_runs_every_scheme(scheme, dt, kind, noise):
    """Batch rows equal single runs bit for bit for every scheme, flow and
    noise model, from a state that is not a circle.  Unit amplitude keeps the
    noise terms large enough that a change in the order of the per-mode sums
    shows in the final values."""
    grid = Grid(32)
    spec = FlowSpec(kind, noise)
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


def test_ensemble_shortened_last_step_matches_single_runs():
    """t_end = 2.5 dt: batch and single runs take the same shortened third
    step, its N(0, dt) row scaled to the half step, and rows stay bitwise
    equal to single runs through it."""
    grid = Grid(16)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.2))
    cfg = StepperConfig(IMEX_EM, 1e-4, 2.5e-4, snapshot_every=1)
    stop = StopCriteria(1e-3, 1e3, 1e3)
    ens = run_ensemble(spec, grid, np.ones(16), TWO_PI, cfg, 3, seed=99, stop=stop)
    assert ens.steps == 3
    assert list(ens.times) == [0.0, 1e-4, 2e-4, 2.5e-4]
    assert np.all(ens.min_h == 2.5e-4 - 2 * 1e-4)
    for i in range(3):
        traj = run(spec, grid, circle(16), cfg, stop=stop, driver=BrownianDriver(99, i))
        assert traj.steps == 3 and traj.final_state.time == 2.5e-4
        assert [s.time for s in traj.snapshots] == list(ens.times)
        assert np.array_equal([s.length for s in traj.snapshots], ens.lengths[:, i])
        assert np.array_equal([s.energy for s in traj.snapshots], ens.energies[:, i])
        _assert_rows_match(ens, i, traj)


def test_ensemble_slicing_by_first_path():
    """A worker owning paths [1, 3) reproduces those rows bit for bit."""
    grid = Grid(16)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.2))
    cfg = StepperConfig(IMEX_EM, 1e-3, 0.02, snapshot_every=5)
    stop = StopCriteria(1e-3, 1e3, 1e3)
    whole = run_ensemble(spec, grid, np.ones(16), TWO_PI, cfg, n_paths=3, seed=99, stop=stop)
    part = run_ensemble(
        spec, grid, np.ones(16), TWO_PI, cfg, n_paths=2, seed=99, stop=stop, first_path=1
    )
    assert np.array_equal(whole.lengths[:, 1:], part.lengths)
    assert np.array_equal(whole.energies[:, 1:], part.energies)
    assert np.array_equal(whole.final_f[1:], part.final_f)


def test_ensemble_rows_match_single_runs_across_the_draw_chunk():
    """70 steps cross the 64-step draw chunk: with first_path > 0 every row
    still equals a single run with BrownianDriver(seed, first_path + i)."""
    grid = Grid(16)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.2))
    n_steps = integrator._DRAW_CHUNK + 6
    cfg = StepperConfig(IMEX_EM, 1e-4, n_steps * 1e-4, snapshot_every=10)
    stop = StopCriteria(1e-3, 1e3, 1e3)
    ens = run_ensemble(
        spec, grid, np.ones(16), TWO_PI, cfg, n_paths=3, seed=99, stop=stop, first_path=5
    )
    assert ens.steps == n_steps
    for i in range(3):
        traj = run(spec, grid, circle(16), cfg, stop=stop, driver=BrownianDriver(99, 5 + i))
        assert traj.steps == n_steps
        assert np.array_equal([s.length for s in traj.snapshots], ens.lengths[:, i])
        assert np.array_equal([s.energy for s in traj.snapshots], ens.energies[:, i])
        _assert_rows_match(ens, i, traj)


def test_spectral_batch_rows_match_single_runs_across_a_block_edge():
    """An 8-mode spectral batch steps in blocks shortened by its mode stacks
    (scalar blocks keep _BLOCK_VALUES // n rows); the rows on either side of
    the block edge and the last row equal single runs bitwise."""
    grid = Grid(64)
    scalar = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.2))
    spec = FlowSpec(WILLMORE, NoiseModel(mode="spectral", amplitude=0.5, n_modes=8))
    assert integrator._block_rows(scalar, grid.n) == integrator._BLOCK_VALUES // grid.n
    rows = integrator._block_rows(spec, grid.n)
    assert rows == integrator._BLOCK_VALUES // (grid.n * 4)
    state = non_circle(grid)
    cfg = StepperConfig(IMEX_EM, 1e-5, 3e-5, snapshot_every=1)
    stop = StopCriteria.from_initial(state)
    n_paths = rows + 3
    ens = run_ensemble(spec, grid, state.f, state.length, cfg, n_paths, seed=41, stop=stop)
    assert ens.steps == 3
    for i in (0, rows - 1, rows, n_paths - 1):
        traj = run(spec, grid, state, cfg, stop=stop, driver=BrownianDriver(41, i))
        assert np.array_equal([s.length for s in traj.snapshots], ens.lengths[:, i])
        assert np.array_equal([s.energy for s in traj.snapshots], ens.energies[:, i])
        _assert_rows_match(ens, i, traj)


def test_survivors_match_single_runs_as_rows_stop_across_a_block_edge(monkeypatch):
    """Rows of a batch one block and two rows long stop at different steps,
    and every row still equals its single run bitwise.  The batch steps
    whole (in two blocks, the carried pair made in the first), then its
    active rows gathered with their pairs: one block and a row (still two
    blocks, the gathered pair written in place), one block (one kernel
    call), and a lone row, which the grid's one-row rule carries as two."""
    grid = Grid(64)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="spectral", amplitude=0.3, n_modes=8))
    rows = integrator._block_rows(spec, grid.n)
    n_paths = rows + 2
    cfg = StepperConfig(IMEX_EM, 1e-5, 6e-5, snapshot_every=1)
    rng = np.random.default_rng(71)
    inc = rng.standard_normal((6, n_paths, 8)) * math.sqrt(1e-5)
    # row 0 stops at step 2, row 1 at step 3, every row but the last at step 4
    vetoed = [inc[1, 0, 0], inc[2, 1, 0], *inc[3, 2:-1, 0]]
    calls = veto_kernel(monkeypatch, IMEX_EM, vetoed)
    state = non_circle(grid)
    ens = run_ensemble(
        spec, grid, state.f, state.length, cfg, n_paths, seed=0, increments=inc, stop=WIDE_STOP
    )
    assert [len(dw) for h, dw in calls] == [n_paths, n_paths, rows + 1, rows, 1, 1]
    assert ens.statuses[-1] is TerminalStatus.REACHED_T
    assert sum(s is TerminalStatus.BLOWUP_LENGTH_ZERO for s in ens.statuses) == n_paths - 1
    for i in (0, 1, 2, rows - 1, rows, n_paths - 1):
        traj = run(spec, grid, state, cfg, stop=WIDE_STOP, increments=inc[:, i])
        _assert_rows_match(ens, i, traj)
        k = len(traj.snapshots)
        assert np.array_equal([s.length for s in traj.snapshots], ens.lengths[:k, i])


def test_ensemble_predrawn_increments_match_single_runs():
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, NoiseModel(mode="scalar", amplitude=0.3))
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
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
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


def test_stopped_rows_are_not_stepped(monkeypatch):
    """Once rows have stopped, the kernel steps only the active ones, and
    every row, stopped or not, still equals its single run bit for bit.
    Odd rows start at f = 2 (a circle of radius 1/2) past an f_max of 1.5
    and stop at step 1."""
    grid = Grid(64)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.1))
    cfg = StepperConfig(IMEX_EM, 1e-5, 4e-5, snapshot_every=2)
    stop = StopCriteria(1e-3, 1e3, 1.5)
    n_paths = 512
    f0 = np.ones((n_paths, grid.n))
    f0[1::2] = 2.0
    length0 = np.where(np.arange(n_paths) % 2, np.pi, TWO_PI)
    kernel, seen = integrator._BATCH_STEPPERS[IMEX_EM], []

    def counting(spec, grid, f, length, dt, dw, d):
        seen.append(len(f))
        return kernel(spec, grid, f, length, dt, dw, d)

    monkeypatch.setitem(integrator._BATCH_STEPPERS, IMEX_EM, counting)
    ens = run_ensemble(spec, grid, f0, length0, cfg, n_paths, seed=83, stop=stop)
    assert seen == [512, 256, 256, 256]
    assert ens.statuses[1] is TerminalStatus.BLOWUP_CURVATURE
    assert ens.statuses[0] is TerminalStatus.REACHED_T
    for i in (0, 1, 254, 255, 510, 511):
        state = State(f0[i], float(length0[i]))
        traj = run(spec, grid, state, cfg, stop=stop, driver=BrownianDriver(83, i))
        _assert_rows_match(ens, i, traj)
        lengths = [s.length for s in traj.snapshots]
        assert np.array_equal(lengths, ens.lengths[: len(lengths), i])


@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(mode="scalar", amplitude=0.3),
        NoiseModel(mode="spectral", amplitude=0.3, n_modes=8, decay_exponent=6.0),
    ],
    ids=["scalar", "spectral8"],
)
def test_only_explicit_kernels_form_the_stiff_term(monkeypatch, noise):
    """An IMEX step transforms back two derivative rows (f', f''), not three,
    and assembles no stiff term; the explicit Heun kernel still receives it.  The
    rows are counted on both routes of the grid's transforms."""
    spec = FlowSpec(WILLMORE, noise)
    state = non_circle(Grid(64))
    dw = np.full(noise.n_modes, 1e-3)
    derivs, from_modes, assemble = Grid.derivs, Grid._from_modes, integrator.flows.assemble
    inside, rows, stiff = [False], [], []

    def counting_derivs(self, values, orders):
        inside[0] = True
        try:
            return derivs(self, values, orders)
        finally:
            inside[0] = False

    def counting_from_modes(self, vh, operator, shape):
        if inside[0]:
            rows.append(vh.shape[0])
        return from_modes(self, vh, operator, shape)

    def recording_assemble(*args, **kwargs):
        a = assemble(*args, **kwargs)
        stiff.append(a.stiff is not None)
        return a

    monkeypatch.setattr(Grid, "derivs", counting_derivs)
    monkeypatch.setattr(Grid, "_from_modes", counting_from_modes)
    monkeypatch.setattr(integrator.flows, "assemble", recording_assemble)
    expected = {
        IMEX_EM: ([2], [False]),
        HEUN_STRATONOVICH: ([3, 3], [True, True]),
    }
    for dense_max in (64, 0):
        monkeypatch.setattr(grid_module, "_DENSE_MAX_N", dense_max)
        grid = Grid(64)
        for scheme, (want_rows, want_stiff) in expected.items():
            rows.clear()
            stiff.clear()
            integrator._STEPPERS[scheme](spec, grid, state.f, state.length, 1e-7, dw)
            assert (rows, stiff) == (want_rows, want_stiff), (scheme, dense_max)


def test_ensemble_rows_full_even_when_all_paths_stop():
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
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


def test_ensemble_records_only_cadence_steps_after_every_path_stops(monkeypatch):
    """Once every path has stopped, the rows left on the cadence are written
    without walking the steps between them: the recorder and the step
    schedule each run once per recorded row."""
    grid = Grid(16)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    every, n_steps, dt = 10**4, 10**5 + 5, 1e-4
    cfg = StepperConfig(IMEX_EM, dt, n_steps * dt, snapshot_every=every)
    inc = np.zeros((n_steps, 2, 1))
    inc[1, :, 0] = 5.0  # collapses both paths at the second step
    counts = {"integrate": 0, "step": 0}
    integrate, schedule, advance = grid.integrate, integrator._schedule, integrator._advance

    def counted_integrate(values):
        counts["integrate"] += 1
        return integrate(values)

    def counted_schedule(*args):
        n, step = schedule(*args)

        def counted_step(k):
            counts["step"] += 1
            return step(k)

        return n, counted_step

    def advance_then_count(*args):
        out = advance(*args)
        counts.update(integrate=0, step=0)
        return out

    monkeypatch.setattr(grid, "integrate", counted_integrate)
    monkeypatch.setattr(integrator, "_schedule", counted_schedule)
    monkeypatch.setattr(integrator, "_advance", advance_then_count)
    ens = run_ensemble(
        spec, grid, np.ones(16), TWO_PI, cfg, 2, seed=1, increments=inc, stop=WIDE_STOP
    )
    assert all(s is TerminalStatus.BLOWUP_LENGTH_ZERO for s in ens.statuses)
    assert list(ens.stop_times) == [2 * dt, 2 * dt]
    # the initial row, then every cadence step and the shortened-cadence last one
    ends = [*range(every, n_steps, every), n_steps]
    assert counts == {"integrate": len(ends), "step": len(ends)}
    assert list(ens.times) == [0.0] + [k * dt for k in ends]
    assert np.array_equal(ens.lengths[0], [TWO_PI, TWO_PI])
    assert np.all(ens.lengths[1:] == ens.final_lengths)
    energy = 0.5 * ens.final_lengths * integrate(ens.final_f * ens.final_f)
    assert np.all(ens.energies[1:] == energy)
    assert ens.active[0].all() and not ens.active[1:].any()


def test_ensemble_exact_zero_length_is_a_collapse():
    # b_L = -2 pi on a circle, so a unit increment takes the length to
    # exactly 0 (through the predictor for Heun); neither the turning
    # projection's division by the new length nor the corrector may turn
    # that collapse into a numerical failure
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    inc = np.zeros((10, 1, 1))
    inc[1, 0, 0] = 1.0
    for scheme, dt in ((IMEX_EM, 1e-4), (HEUN_STRATONOVICH, 2e-7)):
        cfg = StepperConfig(scheme, dt, 10 * dt, snapshot_every=2)
        ens = run_ensemble(
            spec, grid, np.ones(32), TWO_PI, cfg, 1, seed=1, increments=inc, stop=WIDE_STOP
        )
        assert ens.statuses == [TerminalStatus.BLOWUP_LENGTH_ZERO], scheme
        assert ens.final_lengths[0] == TWO_PI


def test_infinite_initial_length_is_rejected():
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-4, 1e-3)
    with pytest.raises(ValueError, match="positive and finite"):
        run(spec, grid, State(np.ones(32), np.inf), cfg, stop=WIDE_STOP, driver=BrownianDriver(1))
    with pytest.raises(ValueError, match="positive and finite"):
        run_ensemble(spec, grid, np.ones(32), np.inf, cfg, 2, seed=1, stop=WIDE_STOP)


def test_ensemble_classifies_per_path_numerical_failure():
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
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
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, UNIT_NOISE)
    cfg = StepperConfig(IMEX_EM, 1e-4, 1e-3)
    inc = np.zeros((10, 2, 1))
    with pytest.raises(ValueError, match="n_paths"):
        run_ensemble(spec, grid, np.ones(32), TWO_PI, cfg, 0, seed=1, increments=inc)
    with pytest.raises(ValueError, match="batch"):
        run_ensemble(spec, grid, np.ones((3, 32)), TWO_PI, cfg, 2, seed=1, increments=inc)
    with pytest.raises(ValueError, match="positive"):
        run_ensemble(spec, grid, np.ones(32), -1.0, cfg, 2, seed=1, increments=inc)
    # t_end = 10.5 dt ends on a shortened eleventh step, which takes a row too
    with pytest.raises(ValueError, match=re.escape("n_steps >= 11, got (10, 2, 1)")):
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


@pytest.mark.parametrize("batched", [False, True], ids=["run", "run_ensemble"])
@pytest.mark.parametrize(
    "noise,n_rows",
    [
        # two rows for a three-step grid used to fail mid-run with IndexError
        pytest.param(UNIT_NOISE, 2, id="too-few-rows"),
        # one increment per row used to drive all eight modes, ending reached_t
        pytest.param(NoiseModel(mode="spectral", amplitude=0.1, n_modes=8), 3, id="one-of-8-modes"),
    ],
)
def test_pre_drawn_increments_are_checked_up_front(batched, noise, n_rows):
    grid = Grid(32)
    spec = FlowSpec(CURVE_DIFFUSION, noise)
    cfg = StepperConfig(IMEX_EM, 1e-4, 3e-4)
    row = (1, noise.n_modes) if batched else (noise.n_modes,)
    inc = np.zeros((n_rows,) + row[:-1] + (1,))
    expected = f"({', '.join(map(str, ('n_steps',) + row))}) with n_steps >= 3, got {inc.shape}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        if batched:
            run_ensemble(spec, grid, np.ones(32), TWO_PI, cfg, 1, seed=0, increments=inc)
        else:
            run(spec, grid, circle(), cfg, increments=inc)


# ---------------------------------------------------------------------------
# spectral noise: strong order and the Ito correction off the circle


def _spectral_strong_slopes(scheme, dt, factors):
    """Strong-order slopes in dt of f (sup norm, root mean square) and of L
    (mean), for the n = 32 Willmore circle under 6 spectral modes of
    amplitude 0.5 over 512 fine steps of dt on 64 paths.  Coarse paths step
    on summed fine increments, so each follows the fine path's Brownian
    motion; the noise is multiplicative, unlike the scalar noise of the
    strong convergence study, where a circle stays a circle."""
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="spectral", amplitude=0.5, n_modes=6))
    m, n_fine = 64, 512
    fine = increment_blocks(_generators(7, range(m)), n_fine, 6, dt)

    def final(factor):
        inc = fine.reshape(n_fine // factor, factor, m, 6).sum(axis=1)
        cfg = StepperConfig(scheme, factor * dt, n_fine * dt, snapshot_every=10**9)
        ens = run_ensemble(spec, grid, np.ones(32), TWO_PI, cfg, m, seed=7, increments=inc)
        assert all(s is TerminalStatus.REACHED_T for s in ens.statuses)
        return ens.final_f, ens.final_lengths

    f_fine, l_fine = final(1)
    factors = np.array(factors)
    f_errors, l_errors = [], []
    for factor in factors:
        f, length = final(factor)
        f_errors.append(math.sqrt(np.mean(np.abs(f - f_fine).max(axis=-1) ** 2)))
        l_errors.append(np.mean(np.abs(length - l_fine)))
    log_dt = np.log(factors * dt)
    return np.polyfit(log_dt, np.log(f_errors), 1)[0], np.polyfit(log_dt, np.log(l_errors), 1)[0]


def test_strong_order_under_spectral_noise():
    f_slope, l_slope = _spectral_strong_slopes(IMEX_EM, 1e-5, (16, 8, 4, 2))
    assert f_slope >= 0.4
    assert l_slope >= 0.4


def test_heun_strong_order_under_spectral_noise():
    # Heun's explicit fourth-order term bounds dt by 1.5e-5 at this setup, so
    # the fine steps are 1.5e-6 and the coarsest, 8 of them summed, 1.2e-5
    f_slope, l_slope = _spectral_strong_slopes(HEUN_STRATONOVICH, 1.5e-6, (8, 4, 2))
    assert f_slope >= 0.4
    assert l_slope >= 0.4


def test_ito_and_stratonovich_agree_under_spectral_noise():
    # the two schemes share each path's increments, so their final-length gap
    # has a paired standard error far below that of two independent
    # ensembles.  The gap is O(dt), and it tends to 0 with dt only if the
    # spectral Ito correction converts the Stratonovich drift right: then its
    # Richardson value 2 gap(dt/2) - gap(dt) is 0 to within noise
    grid = Grid(16)
    spec = FlowSpec(CURVE_DIFFUSION, NoiseModel(mode="spectral", amplitude=0.3, n_modes=6))
    f0 = 1.0 + 0.3 * np.cos(2.0 * TWO_PI * grid.nodes)
    f0 += 1.0 - grid.integrate(f0)
    m = 200
    gaps = []
    for dt in (2e-4, 1e-4, 5e-5):
        lengths = []
        for scheme in (IMEX_EM, HEUN_STRATONOVICH):
            cfg = StepperConfig(scheme, dt, 0.02, snapshot_every=10**9)
            ens = run_ensemble(spec, grid, f0, TWO_PI, cfg, m, seed=2024)
            assert all(s is TerminalStatus.REACHED_T for s in ens.statuses)
            lengths.append(ens.final_lengths)
        gaps.append(lengths[0] - lengths[1])
    gap, se = np.mean(gaps[0]), np.std(gaps[0], ddof=1) / math.sqrt(m)
    assert se <= 0.1 * abs(gap)
    for coarse, half in zip(gaps, gaps[1:]):
        richardson = 2.0 * half - coarse  # per path
        se = np.std(richardson, ddof=1) / math.sqrt(m)
        assert abs(np.mean(richardson)) <= 4.0 * se


def test_willmore_ito_and_stratonovich_agree_under_spectral_noise():
    # the Willmore counterpart of the test above, on 12 nodes: Heun's
    # fourth-order bound grows as n^-4, so its legs step at dt 6e-4 and 3e-4
    # over T = 0.4, where the O(dt) gap is some 26 paired se.  A correction
    # 10% off leaves a Richardson value of about 24 se
    grid = Grid(12)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="spectral", amplitude=0.3, n_modes=6))
    f0 = 1.0 + 0.3 * np.cos(2.0 * TWO_PI * grid.nodes)
    f0 += 1.0 - grid.integrate(f0)
    m = 100
    gaps = []
    for dt in (6e-4, 3e-4):
        lengths = []
        for scheme in (IMEX_EM, HEUN_STRATONOVICH):
            cfg = StepperConfig(scheme, dt, 0.4, snapshot_every=10**9)
            ens = run_ensemble(spec, grid, f0, TWO_PI, cfg, m, seed=2024)
            assert all(s is TerminalStatus.REACHED_T for s in ens.statuses)
            lengths.append(ens.final_lengths)
        gaps.append(lengths[0] - lengths[1])
    gap, se = np.mean(gaps[0]), np.std(gaps[0], ddof=1) / math.sqrt(m)
    assert se <= 0.1 * abs(gap)
    richardson = 2.0 * gaps[1] - gaps[0]  # per path
    se = np.std(richardson, ddof=1) / math.sqrt(m)
    assert abs(np.mean(richardson)) <= 4.0 * se


# ---------------------------------------------------------------------------
# configuration objects


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig("rk4", 1e-4, 0.1)
    with pytest.raises(ValueError):
        StepperConfig("explicit_em", 1e-4, 1e-3)
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
