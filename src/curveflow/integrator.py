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

Each scheme is written once, as a kernel on stacked arrays,
``(spec, grid, f, length, dt, dw) -> (new_f, new_length)`` with f of shape
(*B, n) and length of shape B.  ``run`` calls it with B = () and
``run_ensemble`` with B = (M,), so a batch row and a single path take
identical arithmetic.  A kernel never raises on a bad row: a diverged row
comes back non-finite and a collapsed one with a non-positive length.

Stability: the explicitly treated variable-coefficient second-order term
requires dt <= 0.5 * L^2 / (sup|f|^2 n^2); fully explicit schemes
additionally require dt below the reciprocal of the fourth-order operator's
largest eigenvalue.  ImexEM and HeunStratonovich refuse to start above their
bound; ExplicitEM only warns, so that divergence detection itself can be
exercised.

In ``run``, a step whose length update is non-positive is retried with a
halved dt (and fresh Brownian increments) up to a bounded number of times
before the run is declared to have shrunk to a point.  Runs stop early when
the sup of |f| or the length leaves the configured window, mirroring the
continuous flow's blow-up alternative; the terminal status records which
predicate tripped.  Non-finite values terminate the run at once, without
ever being written to a snapshot.

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
from dataclasses import dataclass

import numpy as np

from . import flows
from .flows import State
from .noise import BrownianDriver

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


def _imex_em(spec, grid, f, length, dt, dw):
    """Semi-implicit Euler-Maruyama on the Ito form.

    dw holds raw N(0, dt) increments, one per noise mode, not yet scaled by
    the noise amplitude; None means no noise term (deterministic step).
    """
    a = flows.assemble(spec, grid, f, length)
    rhs = f + dt * (a.det_f + a.corr_f)
    new_l = length + dt * (a.det_L + a.corr_L)
    if dw is not None:
        g_f, g_l = _noise_sums(a.rows_beta, a.rows_lam, dw, spec.noise.amplitude)
        rhs = rhs + g_f
        new_l = new_l + g_l
    # diverged rows would poison the implicit solve; solve a clean
    # placeholder instead and hand them back as non-finite
    bad = ~np.isfinite(rhs).all(axis=-1)
    any_bad = bad.any()
    if any_bad:
        rhs = np.where(bad[..., None], 0.0, rhs)
    new_f = grid.solve_stiff(rhs, length, dt * (-spec.stiff_sign))
    if any_bad:
        new_f = np.where(bad[..., None], np.nan, new_f)
    if grid.closed:
        # a row whose length update is non-positive has shrunk; dividing by
        # its length could make it look non-finite instead
        new_f = _project_turning(new_f, f, length, np.where(new_l > 0, new_l, length))
    return new_f, new_l


def _explicit_em(spec, grid, f, length, dt, dw):
    """Fully explicit Euler-Maruyama on the Ito form."""
    a = flows.assemble(spec, grid, f, length)
    new_f = f + dt * (a.stiff + a.det_f + a.corr_f)
    new_l = length + dt * (a.det_L + a.corr_L)
    if dw is not None:
        g_f, g_l = _noise_sums(a.rows_beta, a.rows_lam, dw, spec.noise.amplitude)
        new_f = new_f + g_f
        new_l = new_l + g_l
    return new_f, new_l


def _heun_stratonovich(spec, grid, f, length, dt, dw):
    """Heun predictor-corrector on the Stratonovich form.

    Drift excludes the Ito correction; drift and noise are both averaged
    between the start point and an Euler predictor, which is what makes the
    noise integral Stratonovich-consistent.  A row whose predictor is
    non-finite or has a non-positive length returns the predictor itself, so
    the caller sees the divergence or the collapse.
    """
    amplitude = spec.noise.amplitude
    a0 = flows.assemble(spec, grid, f, length, include_ito=False)
    a_f0 = a0.stiff + a0.det_f
    a_l0 = a0.det_L
    g_f0, g_l0 = 0.0, 0.0
    if dw is not None:
        g_f0, g_l0 = _noise_sums(a0.rows_beta, a0.rows_lam, dw, amplitude)
    pred_f = f + dt * a_f0 + g_f0
    pred_l = length + dt * a_l0 + g_l0
    # the corrector evaluates such rows at the start point instead; their
    # result is replaced by the predictor below
    bad = ~(np.isfinite(pred_f).all(axis=-1) & np.isfinite(pred_l) & (pred_l > 0))
    any_bad = bad.any()
    eval_f, eval_l = pred_f, pred_l
    if any_bad:
        eval_f = np.where(bad[..., None], f, pred_f)
        eval_l = np.where(bad, length, pred_l)
    a1 = flows.assemble(spec, grid, eval_f, eval_l, include_ito=False)
    new_f = f + 0.5 * dt * (a_f0 + (a1.stiff + a1.det_f))
    new_l = length + 0.5 * dt * (a_l0 + a1.det_L)
    if dw is not None:
        g_f1, g_l1 = _noise_sums(a1.rows_beta, a1.rows_lam, dw, amplitude)
        new_f = new_f + 0.5 * (g_f0 + g_f1)
        new_l = new_l + 0.5 * (g_l0 + g_l1)
    if any_bad:
        new_f = np.where(bad[..., None], pred_f, new_f)
        new_l = np.where(bad, pred_l, new_l)
    return new_f, new_l


# run looks its kernel up in _STEPPERS and run_ensemble in _BATCH_STEPPERS.
# Both map a scheme to the same kernel, but they are kept as two dicts so
# that a wrapper installed on one table entry (a benchmark's step counter)
# is never installed twice on a shared one.
_STEPPERS = {
    IMEX_EM: _imex_em,
    HEUN_STRATONOVICH: _heun_stratonovich,
    EXPLICIT_EM: _explicit_em,
}
_BATCH_STEPPERS = dict(_STEPPERS)


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


def check_turning_consistency(grid, f, length, tol=_TURNING_TOL):
    """Closed states must carry a total turning near a multiple of 2*pi.

    f has shape (*B, n) and length B; every row is checked at once and the
    first offending row is reported.
    """
    turning = np.reshape(length * grid.integrate(f), -1)
    defect = np.abs(turning - 2.0 * math.pi * np.round(turning / (2.0 * math.pi)))
    bad = np.flatnonzero(defect > tol)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"closed-curve total turning {turning[i]:.8g} is {defect[i]:.3g} away from "
            f"the nearest multiple of 2*pi (tolerance {tol:g})"
        )


# Stop verdicts in priority order, one per mask that _classify returns.
_VERDICTS = (
    TerminalStatus.NUMERICAL_FAILURE,
    TerminalStatus.BLOWUP_LENGTH_ZERO,  # shrunk: the length update was non-positive
    TerminalStatus.BLOWUP_CURVATURE,
    TerminalStatus.BLOWUP_LENGTH_ZERO,
    TerminalStatus.BLOWUP_LENGTH_INFINITE,
)


def _classify(f, length, stop):
    """Disjoint stop masks over the rows of a step's result, one per verdict.

    f has shape (*B, n) and length B.  The masks flag, in _VERDICTS order:
    non-finite rows, a non-positive length, sup|f| above f_max, a length
    below l_min and a length above l_max.  A row in none of them runs on;
    a row in either of the first two is rejected and never recorded.
    """
    finite = np.isfinite(f).all(axis=-1) & np.isfinite(length)
    positive = finite & (length > 0)
    curv = positive & (np.abs(f).max(axis=-1) > stop.f_max)
    window = positive & ~curv
    return (
        ~finite,
        finite & ~positive,
        curv,
        window & (length < stop.l_min),
        window & (length > stop.l_max),
    )


def _start(grid, stepper, f, lengths, stop, check_turning):
    """Validate initial fields f (*B, n) and lengths B and check the start.

    Closed states must pass the turning check unless check_turning is off,
    and dt must lie below the stability bound of the worst initial state
    (ExplicitEM only warns).  Returns the stop window, by default the one
    StopCriteria.from_initial derives from the first state.
    """
    grid.check_field(f)
    if not np.all(np.isfinite(lengths) & (lengths > 0)):
        raise ValueError(f"initial length must be positive and finite, got {lengths}")
    if grid.closed and check_turning:
        check_turning_consistency(grid, f, lengths)
    if stop is None:
        first = State(f.reshape(-1, grid.n)[0], float(lengths.reshape(-1)[0]))
        stop = StopCriteria.from_initial(first)
    bound = dt_stability(stepper.scheme, grid, float(lengths.min()), float(np.max(np.abs(f))))
    if stepper.dt > bound:
        msg = (
            f"dt={stepper.dt:g} exceeds the stability bound {bound:.3g} for "
            f"{stepper.scheme} at the initial state"
        )
        if stepper.scheme == EXPLICIT_EM:
            warnings.warn(msg, stacklevel=3)
        else:
            raise ValueError(msg)
    return stop


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
    noisy = spec.noise.amplitude > 0.0
    if noisy and driver is None and increments is None:
        raise ValueError("noisy run needs a BrownianDriver or a pre-drawn increments array")
    state = state0.copy()
    stop = _start(grid, stepper, state.f, np.asarray(state.length), stop, check_turning)

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
            h = stepper.dt if remaining > stepper.dt - eps else remaining
            for _ in range(_MAX_HALVINGS + 1):
                if not noisy:
                    dw = None
                elif increments is not None:
                    dw = increments[steps] * math.sqrt(h / stepper.dt)
                else:
                    dw = driver.increments(n_modes, h)
                new_f, new_length = step_fn(spec, grid, state.f, state.length, h, dw)
                if not new_length <= 0.0:  # NaN is left to the stop classifier
                    break
                h *= 0.5
            else:
                status = TerminalStatus.BLOWUP_LENGTH_ZERO
                break
            steps += 1
            masks = _classify(new_f, new_length, stop)
            tripped = next((v for mask, v in zip(masks, _VERDICTS) if mask), None)
            if tripped is TerminalStatus.NUMERICAL_FAILURE:
                status = tripped
                break  # keep the last finite state; never snapshot this one
            state = State(new_f, float(new_length), state.time + h)
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
    lengths = np.broadcast_to(np.asarray(length0, dtype=float), (m,)).copy()
    stop = _start(grid, stepper, f, lengths, stop, check_turning)

    noisy = spec.noise.amplitude > 0.0
    n_modes = spec.noise.n_modes
    dt = stepper.dt
    n_steps = int(round(stepper.t_end / dt))
    if abs(n_steps * dt - stepper.t_end) > 1e-9 * max(1.0, stepper.t_end):
        raise ValueError(
            f"t_end={stepper.t_end:g} is not an integer number of steps of dt={dt:g}"
        )
    drivers = None
    if noisy and increments is None:
        drivers = [BrownianDriver(seed, first_path + i) for i in range(m)]

    step_fn = _BATCH_STEPPERS[stepper.scheme]
    active = np.ones(m, dtype=bool)
    statuses = [TerminalStatus.REACHED_T] * m
    stop_times = np.full(m, np.nan)
    times = [0.0]
    length_rows = [lengths.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        energy_rows = [0.5 * lengths * grid.integrate(f * f)]
    active_rows = [active.copy()]
    chunk = None

    for k in range(n_steps):
        # frozen-only batches keep looping so the snapshot cadence (and hence
        # any cross-worker row alignment) never depends on when paths stopped
        if active.any():
            if not noisy:
                dw = None
            elif increments is not None:
                dw = np.asarray(increments[k], dtype=float)
            else:
                # every step with a live path draws, so chunks start at
                # multiples of _DRAW_CHUNK
                if k % _DRAW_CHUNK == 0:
                    size = min(_DRAW_CHUNK, n_steps - k)
                    chunk = np.stack(
                        [d.increment_block(size, n_modes, dt) for d in drivers], axis=1
                    )
                dw = chunk[k % _DRAW_CHUNK]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                new_f, new_l = step_fn(spec, grid, f, lengths, dt, dw)
                masks = [mask & active for mask in _classify(new_f, new_l, stop)]
            accept = active & ~masks[0] & ~masks[1]
            f = np.where(accept[:, None], new_f, f)
            lengths = np.where(accept, new_l, lengths)
            for mask, verdict in zip(masks, _VERDICTS):
                for i in np.flatnonzero(mask):
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
