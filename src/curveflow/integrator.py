"""Time stepping, blow-up detection, and trajectory recording.

Three schemes advance the curvature-length system:

* ImexEM - semi-implicit Euler-Maruyama on the Ito form.  Only the
  constant-coefficient fourth-order term is implicit (a per-mode division on
  closed grids, a dense solve on open ones, with the length frozen at its
  start-of-step value); every other drift term and the noise are explicit.
  On closed grids the step ends by shifting the zero mode of f so that the
  total turning L * mean(f), a pathwise invariant of the flow, keeps its
  start-of-step value; the unprojected update drifts it by the O(dt)
  product of the length and mean updates (a projection method: Hairer,
  Lubich & Wanner, Geometric Numerical Integration, IV.4).
* HeunStratonovich - explicit predictor-corrector on the Stratonovich form
  (drift without the Ito correction, noise averaged between the endpoint
  evaluations).  Its pathwise limit is the Stratonovich solution, so
  agreement with ImexEM validates the Ito conversion terms.
* ExplicitEM - fully explicit Euler-Maruyama on the Ito form; mainly a
  divergence-detection reference, since the explicit fourth-order term
  demands a very small dt.

Stability: the explicitly treated variable-coefficient second-order term
requires dt <= 0.5 * L^2 / (sup|f|^2 n^2); fully explicit schemes
additionally require dt below the reciprocal of the fourth-order operator's
largest eigenvalue.  ImexEM and HeunStratonovich refuse to start above their
bound; ExplicitEM only warns, so that divergence detection itself can be
exercised.

A step that would drive the length non-positive is retried with a halved dt
(and fresh Brownian increments) up to a bounded number of times before the
run is declared to have shrunk to a point.  Runs stop early when the sup of
|f| or the length leaves the configured window, mirroring the continuous
flow's blow-up alternative; the terminal status records which predicate
tripped.  Non-finite values terminate the run without ever being written to
a snapshot.

``run_ensemble`` advances many independent trajectories as one stacked
batch.  Per-trajectory substreams make row i of a batch bit-identical to a
single ``run`` with the same (seed, i), with one documented divergence: a
batched path whose length update turns non-positive is frozen and marked
immediately instead of retried with smaller steps.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import flows
from .flows import FlowSpec, State
from .grid import Grid
from .noise import BrownianDriver, substream_seed

IMEX_EM = "imex_em"
HEUN_STRATONOVICH = "heun_stratonovich"
EXPLICIT_EM = "explicit_em"

_SCHEMES = (IMEX_EM, HEUN_STRATONOVICH, EXPLICIT_EM)

_MAX_HALVINGS = 10
_SNAPSHOT_VALUE_CAP = 256
_TURNING_TOL = 1e-6


class TerminalStatus(enum.Enum):
    REACHED_T = "reached_t"
    BLOWUP_CURVATURE = "blowup_curvature"
    BLOWUP_LENGTH_ZERO = "blowup_length_zero"
    BLOWUP_LENGTH_INFINITE = "blowup_length_infinite"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class StepperConfig:
    scheme: str
    dt: float
    t_end: float
    snapshot_every: int = 50

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive real, got {self.dt}")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be a positive real, got {self.t_end}")
        if int(self.snapshot_every) < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        self.snapshot_every = int(self.snapshot_every)


@dataclass
class StopCriteria:
    """Windows whose violation ends a run: length below/above, curvature sup."""

    l_min: float
    l_max: float
    f_max: float

    def __post_init__(self):
        if not (0 < self.l_min < self.l_max):
            raise ValueError(f"need 0 < l_min < l_max, got {self.l_min}, {self.l_max}")
        if not self.f_max > 0:
            raise ValueError(f"f_max must be positive, got {self.f_max}")

    @classmethod
    def from_initial(cls, state, l_min_factor=1e-3, l_max_factor=1e3, f_max_factor=1e3):
        sup = float(np.max(np.abs(state.f)))
        return cls(
            l_min=l_min_factor * state.length,
            l_max=l_max_factor * state.length,
            f_max=f_max_factor * max(1.0, sup),
        )


@dataclass
class Snapshot:
    time: float
    length: float
    turning: float
    energy: float
    sup_f: float
    f: np.ndarray
    step: int
    full_resolution: bool


@dataclass
class Trajectory:
    snapshots: list
    terminal_status: TerminalStatus
    final_state: State
    steps: int
    stability_warning: bool = False


@dataclass
class EnsembleResult:
    """Batched trajectories: per-snapshot lengths and per-path terminal data."""

    times: np.ndarray          # (K,)
    lengths: np.ndarray        # (K, M)
    energies: np.ndarray       # (K, M)
    active: np.ndarray         # (K, M) bool: path still running at that time
    statuses: list             # M TerminalStatus values
    stop_times: np.ndarray     # (M,)
    final_f: np.ndarray        # (M, n)
    final_lengths: np.ndarray  # (M,)
    steps: int


def dt_stability(scheme, grid, length, f_sup):
    """Largest stable dt for the explicitly treated terms, with safety 0.5.

    The variable-coefficient second-order term bounds every scheme by
    0.5 * L^2 / (sup|f|^2 n^2).  Fully explicit schemes are additionally
    bounded by the fourth-order operator: 1 / lambda_max with
    lambda_max = (pi n)^4 / L^4 on closed grids and the max row sum of the
    difference matrix on open ones.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    length = float(length)
    f_sup = float(f_sup)
    if f_sup > 0:
        bound = 0.5 * length**2 / (f_sup**2 * grid.n**2)
    else:
        bound = math.inf
    if scheme == IMEX_EM:
        return bound
    if grid.closed:
        lam = (math.pi * grid.n) ** 4 / length**4
    else:
        lam = float(np.abs(grid.stiff_symbol(length)).sum(axis=1).max())
    return min(bound, 1.0 / lam)


def _noise_sums(rows_beta, rows_lam, dw, amplitude):
    """amplitude * sum_l dw_l * (beta_l, lam_l): the noise increment of f and L.

    The rows are stacked with the modes leading, (n_modes, n) and (n_modes,)
    for one path, (n_modes, M, n) and (n_modes, M) for a batch; dw has shape
    (n_modes,) or (M, n_modes).  The mode terms are added in mode order, so a
    single path and a batch row take identical arithmetic.
    """
    w = amplitude * np.asarray(dw, dtype=float).T
    terms_f = w[..., None] * rows_beta
    terms_l = w * rows_lam
    g_f, g_l = terms_f[0], terms_l[0]
    for term_f, term_l in zip(terms_f[1:], terms_l[1:]):
        g_f += term_f
        g_l = g_l + term_l
    return g_f, g_l


def _project_turning(new_f, f, length, new_length):
    """Shift the zero mode of new_f so that new_length * mean(new_f) equals
    length * mean(f).

    Works row-wise on batches.  Means are taken directly rather than through
    ``grid.integrate`` because a batch may carry NaN placeholder rows here.
    """
    shift = length * f.mean(axis=-1) / new_length - new_f.mean(axis=-1)
    return new_f + shift[..., None]


def step_imex_em(spec, grid, state, dt, dw=None):
    """One semi-implicit Euler-Maruyama step; None if the length update fails.

    dw holds raw N(0, dt) increments, one per noise mode, not yet scaled by
    the noise amplitude; None means no noise term (deterministic step).
    """
    a = flows.assemble(spec, grid, state.f, state.length)
    rhs = state.f + dt * (a.det_f + a.corr_f)
    new_length = state.length + dt * (a.det_L + a.corr_L)
    if dw is not None:
        g_f, g_l = _noise_sums(a.rows_beta, a.rows_lam, dw, spec.noise.amplitude)
        rhs = rhs + g_f
        new_length += g_l
    if new_length <= 0.0:  # NaN falls through to the caller's failure detection
        return None
    if not np.all(np.isfinite(rhs)):
        return State(np.full_like(rhs, np.nan), new_length, state.time + dt)
    new_f = grid.solve_stiff(rhs, state.length, dt * (-spec.stiff_sign))
    if grid.closed:
        new_f = _project_turning(new_f, state.f, state.length, new_length)
    return State(new_f, new_length, state.time + dt)


def step_explicit_em(spec, grid, state, dt, dw=None):
    """One fully explicit Euler-Maruyama step on the Ito form."""
    a = flows.assemble(spec, grid, state.f, state.length)
    new_f = state.f + dt * (a.stiff + a.det_f + a.corr_f)
    new_length = state.length + dt * (a.det_L + a.corr_L)
    if dw is not None:
        g_f, g_l = _noise_sums(a.rows_beta, a.rows_lam, dw, spec.noise.amplitude)
        new_f = new_f + g_f
        new_length += g_l
    if new_length <= 0.0:
        return None
    return State(new_f, new_length, state.time + dt)


def step_heun_strat(spec, grid, state, dt, dw=None):
    """One Heun predictor-corrector step on the Stratonovich form.

    Drift excludes the Ito correction; drift and noise are both averaged
    between the start point and an Euler predictor, which is what makes the
    noise integral Stratonovich-consistent.
    """
    amplitude = spec.noise.amplitude
    a0 = flows.assemble(spec, grid, state.f, state.length, include_ito=False)
    a_f0 = a0.stiff + a0.det_f
    a_l0 = a0.det_L
    g_f0, g_l0 = (0.0, 0.0)
    if dw is not None:
        g_f0, g_l0 = _noise_sums(a0.rows_beta, a0.rows_lam, dw, amplitude)
    pred_f = state.f + dt * a_f0 + g_f0
    pred_length = state.length + dt * a_l0 + g_l0
    if pred_length <= 0.0:
        return None
    if not (np.all(np.isfinite(pred_f)) and math.isfinite(pred_length)):
        # hand the divergence back to the caller's failure detection
        return State(pred_f, pred_length, state.time + dt)
    a1 = flows.assemble(spec, grid, pred_f, pred_length, include_ito=False)
    a_f1 = a1.stiff + a1.det_f
    a_l1 = a1.det_L
    new_f = state.f + 0.5 * dt * (a_f0 + a_f1)
    new_length = state.length + 0.5 * dt * (a_l0 + a_l1)
    if dw is not None:
        g_f1, g_l1 = _noise_sums(a1.rows_beta, a1.rows_lam, dw, amplitude)
        new_f = new_f + 0.5 * (g_f0 + g_f1)
        new_length += 0.5 * (g_l0 + g_l1)
    if new_length <= 0.0:
        return None
    return State(new_f, new_length, state.time + dt)


_STEPPERS = {
    IMEX_EM: step_imex_em,
    HEUN_STRATONOVICH: step_heun_strat,
    EXPLICIT_EM: step_explicit_em,
}


def _decimate(values, cap=_SNAPSHOT_VALUE_CAP):
    n = values.shape[-1]
    if n <= cap:
        return np.array(values, copy=True), True
    stride = -(-n // cap)
    return np.array(values[..., ::stride], copy=True), False


def _snapshot(grid, state, step, full=False):
    f = state.f
    if full:
        stored, is_full = np.array(f, copy=True), True
    else:
        stored, is_full = _decimate(f)
    return Snapshot(
        time=state.time,
        length=state.length,
        turning=float(state.length * grid.integrate(f)),
        energy=float(0.5 * state.length * grid.integrate(f * f)),
        sup_f=float(np.max(np.abs(f))),
        f=stored,
        step=step,
        full_resolution=is_full,
    )


def check_turning_consistency(grid, state, tol=_TURNING_TOL):
    """Closed states must carry a total turning near a multiple of 2*pi."""
    turning = float(state.length * grid.integrate(state.f))
    winding = round(turning / (2.0 * math.pi))
    defect = abs(turning - 2.0 * math.pi * winding)
    if defect > tol:
        raise ValueError(
            f"closed-curve total turning {turning:.8g} is {defect:.3g} away from "
            f"the nearest multiple of 2*pi (tolerance {tol:g})"
        )


def _classify(state, stop):
    if not (np.all(np.isfinite(state.f)) and math.isfinite(state.length)):
        return TerminalStatus.NUMERICAL_FAILURE
    if float(np.max(np.abs(state.f))) > stop.f_max:
        return TerminalStatus.BLOWUP_CURVATURE
    if state.length < stop.l_min:
        return TerminalStatus.BLOWUP_LENGTH_ZERO
    if state.length > stop.l_max:
        return TerminalStatus.BLOWUP_LENGTH_INFINITE
    return None


def run(
    spec,
    grid,
    state0,
    stepper,
    stop=None,
    driver=None,
    increments=None,
    check_turning=True,
):
    """Advance one trajectory to t_end or to a stopping event.

    driver supplies Brownian increments when the noise amplitude is positive;
    increments may instead be a pre-drawn (n_steps, n_modes) array of N(0, dt)
    samples (used by coupled-path studies; a retried, halved step scales the
    pre-drawn increment by sqrt(h/dt) since a fresh draw would break the
    coupling).  With amplitude 0 neither is touched.
    """
    state = state0.copy()
    f0 = grid.check_field(state.f)
    if not (state.length > 0 and math.isfinite(state.length)):
        raise ValueError(f"initial length must be positive and finite, got {state0.length}")
    if grid.closed and check_turning:
        check_turning_consistency(grid, state)
    if stop is None:
        stop = StopCriteria.from_initial(state)
    noisy = spec.noise.amplitude > 0.0
    if noisy and driver is None and increments is None:
        raise ValueError("noisy run needs a BrownianDriver or a pre-drawn increments array")

    bound = dt_stability(stepper.scheme, grid, state.length, float(np.max(np.abs(f0))))
    if stepper.dt > bound:
        msg = (
            f"dt={stepper.dt:g} exceeds the stability bound {bound:.3g} for "
            f"{stepper.scheme} at the initial state"
        )
        if stepper.scheme == EXPLICIT_EM:
            warnings.warn(msg, stacklevel=2)
        else:
            raise ValueError(msg)

    step_fn = _STEPPERS[stepper.scheme]
    n_modes = spec.noise.n_modes
    snapshots = [_snapshot(grid, state, 0)]
    status = TerminalStatus.REACHED_T
    steps = 0
    stability_flag = False
    t_end = stepper.t_end
    eps = 1e-12 * max(1.0, abs(t_end))

    # non-finite values are the divergence detector, so IEEE overflow inside
    # a failing step is expected and must not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while state.time < t_end - eps:
            # a remainder within eps of dt is a full step: accumulated times
            # fall an ulp short of k * dt, and run_ensemble steps exactly dt
            remaining = t_end - state.time
            h_base = stepper.dt if remaining > stepper.dt - eps else remaining
            new_state = None
            h = h_base
            for attempt in range(_MAX_HALVINGS + 1):
                if not noisy:
                    dw = None
                elif increments is not None:
                    base = increments[steps]
                    dw = base * math.sqrt(h / stepper.dt)
                else:
                    dw = driver.increments(n_modes, h)
                new_state = step_fn(spec, grid, state, h, dw)
                if new_state is not None:
                    break
                h *= 0.5
            if new_state is None:
                status = TerminalStatus.BLOWUP_LENGTH_ZERO
                break
            steps += 1
            tripped = _classify(new_state, stop)
            if tripped is TerminalStatus.NUMERICAL_FAILURE:
                status = tripped
                break  # keep the last finite state; never snapshot this one
            state = new_state
            if tripped is not None:
                status = tripped
                snapshots.append(_snapshot(grid, state, steps, full=True))
                break
            if steps % stepper.snapshot_every == 0:
                snapshots.append(_snapshot(grid, state, steps))
                if stepper.dt > dt_stability(
                    stepper.scheme, grid, state.length, float(np.max(np.abs(state.f)))
                ):
                    stability_flag = True

    if status is TerminalStatus.REACHED_T:
        last = snapshots[-1]
        if last.step != steps or not last.full_resolution:
            snapshots.append(_snapshot(grid, state, steps, full=True))
    if stability_flag:
        warnings.warn(
            "dt exceeded the stability bound mid-run; results may be inaccurate",
            stacklevel=2,
        )
    return Trajectory(
        snapshots=snapshots,
        terminal_status=status,
        final_state=state,
        steps=steps,
        stability_warning=stability_flag,
    )


# ---------------------------------------------------------------------------
# Batched ensembles
# ---------------------------------------------------------------------------


def _batch_drift_imex(spec, grid, f, lengths, dt, dw):
    a = flows.assemble(spec, grid, f, lengths)
    rhs = f + dt * (a.det_f + a.corr_f)
    new_l = lengths + dt * (a.det_L + a.corr_L)
    if dw is not None:
        g_f, g_l = _noise_sums(a.rows_beta, a.rows_lam, dw, spec.noise.amplitude)
        rhs = rhs + g_f
        new_l = new_l + g_l
    # diverged rows would poison the implicit solve; mark them and solve a
    # clean placeholder instead (the caller freezes them as failures)
    bad = ~np.isfinite(rhs).all(axis=-1)
    if bad.any():
        rhs = np.where(bad[:, None], 0.0, rhs)
    new_f = grid.solve_stiff(rhs, lengths, dt * (-spec.stiff_sign))
    if bad.any():
        new_f = np.where(bad[:, None], np.nan, new_f)
    if grid.closed:
        # a row whose length update is non-positive is rejected by the caller
        # as shrunk; dividing by its length could make it look non-finite
        new_f = _project_turning(new_f, f, lengths, np.where(new_l > 0, new_l, lengths))
    return new_f, new_l


def _batch_drift_explicit(spec, grid, f, lengths, dt, dw):
    a = flows.assemble(spec, grid, f, lengths)
    new_f = f + dt * (a.stiff + a.det_f + a.corr_f)
    new_l = lengths + dt * (a.det_L + a.corr_L)
    if dw is not None:
        g_f, g_l = _noise_sums(a.rows_beta, a.rows_lam, dw, spec.noise.amplitude)
        new_f = new_f + g_f
        new_l = new_l + g_l
    return new_f, new_l


def _batch_drift_heun(spec, grid, f, lengths, dt, dw):
    amplitude = spec.noise.amplitude
    a0 = flows.assemble(spec, grid, f, lengths, include_ito=False)
    af0 = a0.stiff + a0.det_f
    al0 = a0.det_L
    if dw is not None:
        gf0, gl0 = _noise_sums(a0.rows_beta, a0.rows_lam, dw, amplitude)
    else:
        gf0, gl0 = 0.0, 0.0
    pred_f = f + dt * af0 + gf0
    pred_l = lengths + dt * al0 + gl0
    # paths whose predictor left the valid region are evaluated at the old
    # state instead (their result is discarded by the caller's freeze logic)
    bad = ~(np.isfinite(pred_f).all(axis=-1) & (pred_l > 0) & np.isfinite(pred_l))
    if bad.any():
        pred_f = np.where(bad[:, None], f, pred_f)
        pred_l = np.where(bad, lengths, pred_l)
    a1 = flows.assemble(spec, grid, pred_f, pred_l, include_ito=False)
    af1 = a1.stiff + a1.det_f
    al1 = a1.det_L
    new_f = f + 0.5 * dt * (af0 + af1)
    new_l = lengths + 0.5 * dt * (al0 + al1)
    if dw is not None:
        gf1, gl1 = _noise_sums(a1.rows_beta, a1.rows_lam, dw, amplitude)
        new_f = new_f + 0.5 * (gf0 + gf1)
        new_l = new_l + 0.5 * (gl0 + gl1)
    if bad.any():
        new_f = np.where(bad[:, None], np.nan, new_f)
        new_l = np.where(bad, np.nan, new_l)
    return new_f, new_l


_BATCH_STEPPERS = {
    IMEX_EM: _batch_drift_imex,
    HEUN_STRATONOVICH: _batch_drift_heun,
    EXPLICIT_EM: _batch_drift_explicit,
}

_DRAW_CHUNK = 64


def run_ensemble(
    spec,
    grid,
    f0,
    length0,
    stepper,
    n_paths,
    seed,
    stop=None,
    increments=None,
    check_turning=True,
    first_path=0,
):
    """Advance n_paths independent trajectories as one stacked batch.

    f0 is one shared initial field (n,) or per-path fields (n_paths, n);
    length0 likewise a scalar or (n_paths,).  Path i draws its increments
    from the (seed, first_path + i) substream, identically to a single
    ``run`` with BrownianDriver(seed, first_path + i); the offset lets a
    worker advance a contiguous slice of a larger ensemble with exactly the
    draws that slice would see in one process.  increments may pre-draw
    everything as an (n_steps, n_paths, n_modes) array of N(0, dt) samples.

    Paths stop individually on blow-up or numerical failure and are frozen
    at their last valid state (no dt-halving retries in the batch); the rest
    continue.  Lengths and energies are recorded every snapshot_every steps.
    """
    m = int(n_paths)
    if m < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    f0 = np.asarray(f0, dtype=float)
    if f0.ndim == 1:
        f = np.tile(f0, (m, 1))
    else:
        if f0.shape[0] != m:
            raise ValueError(f"f0 batch {f0.shape[0]} does not match n_paths {m}")
        f = np.array(f0, copy=True)
    f = grid.check_field(f)
    lengths = np.broadcast_to(np.asarray(length0, dtype=float), (m,)).copy()
    if not np.all(lengths > 0):
        raise ValueError("initial lengths must be positive")
    if grid.closed and check_turning:
        for i in range(m):
            check_turning_consistency(grid, State(f[i], lengths[i]))

    if stop is None:
        stop = StopCriteria.from_initial(State(f[0], float(lengths[0])))
    bound = dt_stability(
        stepper.scheme, grid, float(lengths.min()), float(np.max(np.abs(f)))
    )
    if stepper.dt > bound:
        msg = (
            f"dt={stepper.dt:g} exceeds the stability bound {bound:.3g} for "
            f"{stepper.scheme} at the initial states"
        )
        if stepper.scheme == EXPLICIT_EM:
            warnings.warn(msg, stacklevel=2)
        else:
            raise ValueError(msg)

    noisy = spec.noise.amplitude > 0.0
    n_modes = spec.noise.n_modes
    dt = stepper.dt
    n_steps = int(round(stepper.t_end / dt))
    if abs(n_steps * dt - stepper.t_end) > 1e-9 * max(1.0, stepper.t_end):
        raise ValueError(
            f"t_end={stepper.t_end:g} is not an integer number of steps of dt={dt:g}"
        )
    gens = None
    if noisy and increments is None:
        gens = [
            np.random.Generator(np.random.PCG64(substream_seed(seed, first_path + i)))
            for i in range(m)
        ]

    step_fn = _BATCH_STEPPERS[stepper.scheme]
    active = np.ones(m, dtype=bool)
    statuses = [TerminalStatus.REACHED_T] * m
    stop_times = np.full(m, np.nan)
    times = [0.0]
    length_rows = [lengths.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        energy_rows = [0.5 * lengths * grid.integrate(f * f)]
    active_rows = [active.copy()]
    sqrt_dt = math.sqrt(dt)
    chunk = None
    chunk_base = 0

    for k in range(n_steps):
        # frozen-only batches keep looping so the snapshot cadence (and hence
        # any cross-worker row alignment) never depends on when paths stopped
        if active.any():
            if noisy:
                if increments is not None:
                    dw = np.asarray(increments[k], dtype=float)
                else:
                    if chunk is None or k - chunk_base >= chunk.shape[0]:
                        chunk_base = k
                        size = min(_DRAW_CHUNK, n_steps - k)
                        chunk = (
                            np.stack(
                                [g.standard_normal((size, n_modes)) for g in gens], axis=1
                            )
                            * sqrt_dt
                        )
                    dw = chunk[k - chunk_base]
            else:
                dw = None
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                new_f, new_l = step_fn(spec, grid, f, lengths, dt, dw)
            finite = np.isfinite(new_f).all(axis=-1) & np.isfinite(new_l)
            positive = finite & (new_l > 0)
            sup = np.where(
                finite, np.abs(np.where(finite[:, None], new_f, 0.0)).max(axis=-1), np.inf
            )
            fail = active & ~finite
            shrunk = active & finite & ~positive
            curv = active & positive & (sup > stop.f_max)
            lzero = active & positive & ~curv & (new_l < stop.l_min)
            linf = active & positive & ~curv & (new_l > stop.l_max)

            accept = active & positive
            f = np.where(accept[:, None], new_f, f)
            lengths = np.where(accept, new_l, lengths)

            for mask, verdict in (
                (fail, TerminalStatus.NUMERICAL_FAILURE),
                (shrunk, TerminalStatus.BLOWUP_LENGTH_ZERO),
                (curv, TerminalStatus.BLOWUP_CURVATURE),
                (lzero, TerminalStatus.BLOWUP_LENGTH_ZERO),
                (linf, TerminalStatus.BLOWUP_LENGTH_INFINITE),
            ):
                if mask.any():
                    for i in np.nonzero(mask)[0]:
                        statuses[i] = verdict
                        stop_times[i] = (k + 1) * dt
                    active &= ~mask

        if (k + 1) % stepper.snapshot_every == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            length_rows.append(lengths.copy())
            with np.errstate(over="ignore", invalid="ignore"):
                energy_rows.append(0.5 * lengths * grid.integrate(f * f))
            active_rows.append(active.copy())

    return EnsembleResult(
        times=np.asarray(times),
        lengths=np.stack(length_rows),
        energies=np.stack(energy_rows),
        active=np.stack(active_rows),
        statuses=statuses,
        stop_times=stop_times,
        final_f=f,
        final_lengths=lengths,
        steps=n_steps,
    )
