"""Time stepping, blow-up detection, and trajectory recording.

Two schemes advance the curvature-length system:

* ImexEM - semi-implicit Euler-Maruyama on the Ito form.  Only the
  constant-coefficient fourth-order term is implicit (a per-mode division,
  with the length frozen at its start-of-step value); every other drift
  term and the noise are explicit.  The new length is known before the
  solve, so the solve sets the zero mode of f such that the total turning
  L * mean(f), a pathwise invariant of the flow, keeps its start-of-step
  value; the unprojected update drifts it by the O(dt) product of the
  length and mean updates (a projection method: Hairer, Lubich & Wanner,
  Geometric Numerical Integration, IV.4).  The same inverse transform gives
  f' and f'' of the new state, which the next step's assembly takes instead
  of transforming f again: four dense products per step, not six.
* HeunStratonovich - explicit predictor-corrector on the Stratonovich form
  (drift without the Ito correction, noise averaged between the endpoint
  evaluations).  Its pathwise limit is the Stratonovich solution, so
  agreement with ImexEM validates the Ito conversion terms.  Its
  fourth-order term is explicit too, so it demands a very small dt.

Each scheme is written once, as a kernel on stacked arrays,
``(spec, grid, f, length, dt, dw, d) -> (new_f, new_length, new_d)`` with f
of shape (*B, n), length of shape B and d the carried pair (f', f''), shape
(2, *B, n): None on a first step, where ImexEM takes the pair from f, and
always None under HeunStratonovich, which carries nothing.  A kernel never
raises on a bad row: a diverged row comes back non-finite and a collapsed
one with a non-positive length.

A batch steps in row blocks.  Each entry of the kernel tables advances an
(M, n) batch in blocks of _BLOCK_VALUES // n rows, 128 KiB per block array,
and writes them into preallocated outputs, the carried pair into d in
place; the stepping loop and anything wrapping a table entry still see one
kernel call per step.  An assembly keeps about sixteen arrays of the
batch's size alive, so whole-batch temporaries of a MiB each (M = 2048,
n = 64) stream through main memory, while a block's working set stays near
a 2 MiB L2 cache; the block length follows n so that its arrays keep that
size at every grid.  Across steps the batch keeps f and the carried pair,
three (M, n) arrays.  A spectral assembly also keeps about seven
(n_modes, rows, n) mode stacks alive (six contraction products and the
running integrals of every f*phi_l), so its blocks are max(2, n_modes // 2)
times shorter (64 rows for 8 modes at n = 64).  Rows are independent, so
blocked rows are bitwise the whole-batch ones.

Stability: the explicitly treated variable-coefficient second-order term
requires dt <= 0.5 * L^2 / (sup|f|^2 n^2); HeunStratonovich additionally
requires dt below the reciprocal of the fourth-order operator's largest
eigenvalue.  Both schemes refuse to start above their bound; crossing it
mid-run warns.

``run`` (one trajectory, recorded as snapshots) and ``run_ensemble`` (a
batch, recorded as length and energy rows) share one step schedule, one
increment source and one stepping loop, so with per-trajectory substreams
row i of a batch is bit-identical to a single ``run`` with the same (seed, i).
Rows stop one by one when the sup of |f| or the length leaves the configured
window, mirroring the continuous flow's blow-up alternative (a length below
l_min first: a curve shrinking to a point trips both), or at once on a
non-finite value; the terminal status records which predicate tripped, and
records hold only finite states.  Both admit a start by one rule, ``_start``:
closed curves, turning by 2*pi under scalar noise, stiff_sign = +1 only
under HeunStratonovich, and dt below the stability bound.

A step whose length update is non-positive is a collapse: the row is kept
at its start-of-step state and declared to have shrunk to a point.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import flows
from .flows import State
from .noise import _generators, increment_blocks

IMEX_EM = "imex_em"
HEUN_STRATONOVICH = "heun_stratonovich"

_SCHEMES = (IMEX_EM, HEUN_STRATONOVICH)

_BLOCK_VALUES = 2**14  # values per (rows, n) array of a batch's row block: 128 KiB
_DRAW_CHUNK = 64  # generators draw increments this many steps at a time
_SNAPSHOT_VALUE_CAP = 256
_TURNING_TOL = 1e-6


class StartRefused(ValueError):
    """A run refused before its first step, by ``_start``: an initial state,
    scheme, noise basis or dt that the run cannot start from.  Every other
    ValueError out of a run is a fault of the caller or of the program."""


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
    steps: int  # steps taken, the one that stopped the run included
    stability_warning: bool = False
    min_h: float = math.inf  # smallest step size used


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
    min_h: np.ndarray          # (M,) smallest step size used
    stability_warning: bool = False


def dt_stability(scheme, grid, length, f_sup):
    """Largest stable dt for the explicitly treated terms, with safety 0.5.

    The variable-coefficient second-order term bounds every scheme by
    0.5 * L^2 / (sup|f|^2 n^2), no bound at all where sup|f| is 0.
    HeunStratonovich, explicit in the fourth-order term too, is additionally
    bounded by 1 / lambda_max with lambda_max = (pi n)^4 / L^4, that
    operator's largest Fourier multiplier.  length and f_sup are scalars or
    arrays of one value per row, and the bound has their shape.  Powers of
    extreme values overflow without a warning; the bound then reads 0, which
    refuses every dt, or inf.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    length, f_sup = np.asarray(length, dtype=float), np.asarray(f_sup, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return _dt_bound(scheme, grid, length, f_sup)


def _dt_bound(scheme, grid, length, f_sup):
    """dt_stability's bound for a known scheme on float arrays, under the
    caller's errstate; the stepping loop, which holds one, calls it
    directly."""
    bound = 0.5 * length**2 / (f_sup**2 * grid.n**2)
    if scheme == IMEX_EM:
        return bound
    lam = (math.pi * grid.n) ** 4 / length**4
    return np.minimum(bound, 1.0 / lam)


def _imex_em(spec, grid, f, length, dt, dw, d=None):
    """Semi-implicit Euler-Maruyama on the Ito form.

    dw holds raw N(0, dt) increments, one per noise mode, not yet scaled by
    the noise amplitude; None means no noise term (deterministic step).  d
    is (f', f''), shape (2, *B, n), as the step before left it, or None to
    take it from f.  Returns the new state and its (f', f''), which the
    solve forms from its modes.
    """
    psi = None if dw is None else flows.noise_field(spec, grid, dw)
    a = flows.assemble(spec, grid, f, length, include_stiff=False, psi=psi, derivs=d)
    rhs = a.det_f  # f + dt * (det_f + corr_f), in det_f's slot
    rhs += a.corr_f
    rhs *= dt
    rhs += f
    new_l = length + dt * (a.det_L + a.corr_L)
    if dw is not None:  # the step's noise increment
        rhs += a.rows_beta
        new_l = new_l + a.rows_lam
    del a  # frees its other arrays before the solve makes its own
    # a row whose length update is non-positive has shrunk; dividing by its
    # length could make it look non-finite instead
    if f.ndim == 1:  # B = (): one NumPy scalar
        kept_l = new_l if new_l > 0 else length
    else:
        kept_l = np.where(new_l > 0, new_l, length)
    # the turning projection: the solve sets mean(new_f) so that
    # kept_l * mean(new_f) is length * mean(f).  It transforms row by row: a
    # diverged row comes back non-finite and leaves the others as they are
    out = grid.solve_stiff(rhs, length, dt, mean=length * grid.integrate(f) / kept_l)
    return out[0], new_l, out[1:]


def _heun_stratonovich(spec, grid, f, length, dt, dw, d=None):
    """Heun predictor-corrector on the Stratonovich form.

    Drift excludes the Ito correction; drift and noise are both averaged
    between the start point and an Euler predictor, which is what makes the
    noise integral Stratonovich-consistent.  The corrector evaluates every
    row at its predictor; a row whose predictor is non-finite or has a
    non-positive length returns the predictor itself, so the caller sees the
    divergence or the collapse rather than what the corrector made of it.
    Both evaluations take the step's one noise field.  It carries no
    derivatives: d is ignored and comes back None.
    """
    psi = None if dw is None else flows.noise_field(spec, grid, dw)
    a0 = flows.assemble(spec, grid, f, length, include_ito=False, psi=psi)
    a_f0 = a0.stiff + a0.det_f
    a_l0 = a0.det_L
    g_f0, g_l0 = (0.0, 0.0) if dw is None else (a0.rows_beta, a0.rows_lam)
    pred_f = f + dt * a_f0 + g_f0
    pred_l = length + dt * a_l0 + g_l0
    a1 = flows.assemble(spec, grid, pred_f, pred_l, include_ito=False, psi=psi)
    new_f = f + 0.5 * dt * (a_f0 + (a1.stiff + a1.det_f))
    new_l = length + 0.5 * dt * (a_l0 + a1.det_L)
    if dw is not None:
        new_f = new_f + 0.5 * (g_f0 + a1.rows_beta)
        new_l = new_l + 0.5 * (g_l0 + a1.rows_lam)
    bad = ~(np.isfinite(pred_f).all(axis=-1) & np.isfinite(pred_l) & (pred_l > 0))
    if bad.any():
        new_f = np.where(bad[..., None], pred_f, new_f)
        new_l = np.where(bad, pred_l, new_l)
    return new_f, new_l, None


def _block_rows(spec, n):
    """Rows per block: _BLOCK_VALUES // n, divided by max(2, n_modes // 2)
    under spectral noise, whose seven or so (n_modes, rows, n) stacks weigh
    about n_modes / 2 times the (rows, n) arrays of the rest.  Timed at
    M = 2048, n = 64 on a 2-core Xeon, that divisor beat 1 + n_modes // 2
    by 5% at 8 modes (64 rows against 51) and 7% at 4 (128 against 85),
    and 2 beat 1 by 18% at one mode."""
    stacks = 1 if spec.uses_turning_shortcut else max(2, spec.noise.n_modes // 2)
    return max(1, _BLOCK_VALUES // (n * stacks))


def _in_row_blocks(kernel):
    """The kernel advancing an (M, n) batch in blocks of _block_rows rows.

    Every row's arithmetic is independent of the others, so each block's
    rows come out bitwise as from one call on the whole batch; they are
    written into preallocated outputs, and a carried (f', f'') into d in
    place (into one made on the first step).  A single state, or a batch of
    at most one block, goes to the kernel as it is.
    """

    @functools.wraps(kernel)
    def step(spec, grid, f, length, dt, dw, d=None):
        if f.ndim == 1:
            return kernel(spec, grid, f, length, dt, dw, d)
        rows = _block_rows(spec, grid.n)
        if len(f) <= rows:
            return kernel(spec, grid, f, length, dt, dw, d)
        new_f, new_l, new_d = np.empty_like(f), np.empty_like(length), d
        for i in range(0, len(f), rows):
            block = slice(i, i + rows)
            new_f[block], new_l[block], block_d = kernel(
                spec, grid, f[block], length[block], dt, _take(dw, block),
                None if d is None else d[:, block],
            )
            if block_d is not None:
                if new_d is None:
                    new_d = np.empty((2,) + f.shape)
                new_d[:, block] = block_d
            del block_d  # it holds the block's solve output, whose rows are copied
        return new_f, new_l, new_d

    return step


# run looks its kernel up in _STEPPERS and run_ensemble in _BATCH_STEPPERS.
# Both map a scheme to the same kernel, but they are kept as two dicts so
# that a wrapper installed on one table entry (a benchmark's step counter)
# is never installed twice on a shared one.
_STEPPERS = {
    IMEX_EM: _in_row_blocks(_imex_em),
    HEUN_STRATONOVICH: _in_row_blocks(_heun_stratonovich),
}
_BATCH_STEPPERS = dict(_STEPPERS)


def _snapshot(grid, f, length, time, step, sup, full=False):
    """The snapshot of state (f, length) at time after step steps; sup is
    sup|f|, which the stepping loop has already taken (see _advance)."""
    stride = 1 if full else -(-f.shape[-1] // _SNAPSHOT_VALUE_CAP)
    return Snapshot(
        time=time,
        length=length,
        turning=float(length * grid.integrate(f)),
        energy=float(0.5 * length * grid.integrate(f * f)),
        sup_f=float(sup),
        f=np.array(f[::stride]),
        step=step,
        full_resolution=stride == 1,
    )


# Stop verdicts in priority order, one per mask that _stop_masks returns.
_VERDICTS = (
    TerminalStatus.NUMERICAL_FAILURE,
    TerminalStatus.BLOWUP_LENGTH_ZERO,  # shrunk: the length update was non-positive
    TerminalStatus.BLOWUP_LENGTH_ZERO,
    TerminalStatus.BLOWUP_CURVATURE,
    TerminalStatus.BLOWUP_LENGTH_INFINITE,
)


def _classify(f, length, stop):
    """sup|f| per row of a step's result, and the rows that run on: finite,
    of positive length and inside every window.

    f has shape (*B, n) and length B; for B = () sup and runs are NumPy
    scalars.  Comparisons with NaN are false, and the upper bounds are
    capped at the largest double, so that infinities fail them too: three
    comparisons decide every row, and _stop_masks says why the others
    stopped.
    """
    sup = np.maximum.reduce(np.abs(f), axis=-1)  # NaN if any value is
    f_max, l_max = min(stop.f_max, sys.float_info.max), min(stop.l_max, sys.float_info.max)
    runs = sup <= f_max
    runs &= length >= stop.l_min  # l_min > 0
    runs &= length <= l_max
    return sup, runs


def _stop_masks(sup, length, stop):
    """Disjoint masks over the rows that do not run, one per verdict.

    In _VERDICTS order they flag non-finite rows, a non-positive length, a
    length below l_min, sup|f| above f_max and a length above l_max.  A row
    in either of the first two is rejected and never recorded.  The length
    comes first: a turning of 2*pi gives sup|f| >= 2*pi / L.
    """
    finite = np.isfinite(sup) & np.isfinite(length)
    positive = finite & (length > 0)
    low = positive & (length < stop.l_min)
    curv = positive & ~low & (sup > stop.f_max)
    high = positive & ~curv & (length > stop.l_max)
    return ~finite, finite & ~positive, low, curv, high


def _start(spec, grid, stepper, f, lengths, stop):
    """The one entry rule of run and run_ensemble, for initial fields f (M, n)
    and lengths (M,).  Every state passes ``flows.check_state``, the only
    check it gets (the stepping loop keeps only finite rows of positive
    length, see _classify), and has the turning of a closed curve: L * mean(f)
    lies within _TURNING_TOL of a multiple of 2*pi, or of 2*pi itself under
    scalar noise of amplitude > 0, whose length row is the constant -2*pi,
    minus the turning of exactly those states.  stiff_sign = +1 runs only
    under HeunStratonovich, since the implicit solve only damps; noise of
    amplitude > 0 only on a basis whose wavenumbers lie below n/2, which the
    grid resolves; and dt must lie below the stability bound of every
    initial state, under every scheme.  Returns the stop window, by default
    StopCriteria.from_initial of the first state; a refusal raises
    StartRefused.
    """
    if spec.stiff_sign > 0 and stepper.scheme == IMEX_EM:
        raise StartRefused(f"stiff_sign = +1 needs an explicit scheme, not {IMEX_EM}")
    if spec.noise.amplitude > 0.0:
        top = max(b.wavenumber if b.kind in ("cos", "sin") else 0 for b in spec.noise.basis)
        if 2 * top >= grid.n:
            raise StartRefused(
                f"noise basis wavenumber {top} is not below n/2 = {grid.n // 2}: "
                f"the {grid.n}-node grid aliases it"
            )
    try:
        flows.check_state(grid, f, lengths)
    except ValueError as exc:
        raise StartRefused(str(exc)) from None
    turning = lengths * grid.integrate(f)
    exact = spec.uses_turning_shortcut and spec.noise.amplitude > 0.0
    target = 2.0 * math.pi * (1.0 if exact else np.round(turning / (2.0 * math.pi)))
    defect = np.abs(turning - target)
    bad = np.flatnonzero(defect > _TURNING_TOL)
    if bad.size:
        i = bad[0]
        goal = "2*pi, which scalar noise requires" if exact else "the nearest multiple of 2*pi"
        raise StartRefused(
            f"closed-curve total turning {turning[i]:.8g} is {defect[i]:.3g} away from "
            f"{goal} (tolerance {_TURNING_TOL:g})"
        )
    if stop is None:
        stop = StopCriteria.from_initial(State(f[0], float(lengths[0])))
    bound = dt_stability(stepper.scheme, grid, lengths, np.abs(f).max(axis=-1)).min()
    if stepper.dt > bound:
        raise StartRefused(
            f"dt={stepper.dt:g} exceeds the stability bound {bound:.3g} for "
            f"{stepper.scheme} at the initial state"
        )
    return stop


def _take(dw, rows):
    return None if dw is None else dw[rows]


def _advance(spec, grid, stepper, stop, step_fn, f, lengths, schedule, rows, record):
    """The stepping loop of run and run_ensemble over rows f (M, n), lengths (M,).

    schedule is _schedule's (n_steps, step) pair; rows yields each step's
    (M, n_modes) N(0, dt) increments (rows is None without noise), scaled by
    sqrt(h/dt) for a step of size h.  A row stops on the first step that
    leaves the window (see _classify); one that ends non-finite or with a
    non-positive length is rejected, kept at its start-of-step state, the
    latter as a collapse.  After each step record(k, t, f, lengths, active,
    halted, sup) sees the rows, halted flagging those that stopped on the
    state they hold, and sup their sup|f| as _classify took it: right for
    every active or halted row (a rejected one holds an older state), and a
    NumPy scalar when a single row steps.  Once a row has stopped, only the
    active rows are stepped, their carried pairs gathered and scattered
    with them.
    Returns the steps taken, the final f and lengths; per row the status
    and stop time (NaN if none); and whether dt crossed the stability bound.
    """
    (n_steps, step), m, k, unstable = schedule, len(lengths), -1, False
    statuses = [TerminalStatus.REACHED_T] * m
    stop_times = np.full(m, np.nan)
    active, no_rows = np.ones(m, dtype=bool), np.zeros(m, dtype=bool)
    every = True  # every row is active: the batch steps whole, with no gather
    d = None  # the rows' (f', f''), once an IMEX step has carried them

    # non-finite values are the divergence detector, so IEEE overflow inside
    # a failing step is expected and must not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            h, t = step(k)
            dw = None if rows is None else next(rows)
            if h != stepper.dt and dw is not None:  # a shortened last step
                dw = dw * math.sqrt(h / stepper.dt)
            if m == 1:
                # a single row steps and is classified on B = (): the same
                # arithmetic, on NumPy scalars where it reduces to one value.
                # A batch of one takes longer for kernel plus _classify: 1.10x
                # at n=64 with 8 spectral modes, 1.06x at n=256 without noise
                # (IMEX, medians of 15 paired runs on a 2-core host)
                new_f, new_l, d = step_fn(spec, grid, f[0], lengths[0], h, _take(dw, 0), d)
                sup, runs = _classify(new_f, new_l, stop)
                all_run = bool(runs)
                new_f, new_l = new_f[None], new_l[None]
            else:
                if every:
                    new_f, new_l, d = step_fn(spec, grid, f, lengths, h, dw, d)
                else:
                    # stopped rows are not stepped; their increments were
                    # drawn all the same, so every row's stream stays aligned
                    on = np.flatnonzero(active)
                    new_f, new_l = f.copy(), lengths.copy()
                    new_f[on], new_l[on], d_on = step_fn(
                        spec, grid, f[on], lengths[on], h, _take(dw, on),
                        None if d is None else d[:, on],
                    )
                    if d is not None:
                        d[:, on] = d_on
                    del d_on  # it holds the kernel's output until the next gather
                sup, runs = _classify(new_f, new_l, stop)
                all_run = (runs if every else runs[active]).all()
            halted = no_rows
            if not all_run:
                masks = _stop_masks(sup, new_l, stop)
                stopped = active & ~runs
                for mask, verdict in zip(masks, _VERDICTS):
                    for i in np.flatnonzero(mask & stopped):
                        statuses[i] = verdict
                stop_times[stopped] = t
                # a rejected row keeps its start-of-step state
                rejected = stopped & (masks[0] | masks[1])
                new_f[rejected], new_l[rejected] = f[rejected], lengths[rejected]
                halted, active = stopped & ~rejected, active & ~stopped
                every = bool(active.all())
            f, lengths = new_f, new_l
            if (k + 1) % stepper.snapshot_every == 0 and not unstable and active.any():
                active_sup = np.reshape(sup, m)[active]
                bound = _dt_bound(stepper.scheme, grid, lengths[active], active_sup)
                if stepper.dt > bound.min():
                    unstable = True
                    msg = "dt exceeded the stability bound mid-run; results may be inaccurate"
                    warnings.warn(msg, stacklevel=3)
            record(k, t, f, lengths, active, halted, sup)
            if halted is not no_rows and not active.any():  # the last row stopped
                break
    return k + 1, f, lengths, statuses, stop_times, unstable


def _schedule(t0, dt, t_end):
    """(n_steps, step), step(k) the size and end time of step k: t0 + (k + 1) * dt,
    a product rather than a running sum, or t_end for a last, shortened step.
    A remainder within 1e-12 * max(|t0|, |t_end|) of dt counts as a full step;
    the tolerance is relative, so that it stays far below a tiny dt."""
    eps = 1e-12 * max(abs(t0), abs(t_end))
    full = max(0, int((t_end - t0 + eps) // dt))
    last = t0 + full * dt

    def step(k):
        return (dt, t0 + (k + 1) * dt) if k < full else (t_end - last, t_end)

    return full + int(t_end - last > eps), step


def _min_h(last_step, dt, stop_times):
    """Each row's smallest step size, last the schedule's last step (h, end
    time): a shortened h for the rows that attempted that step, those whose
    stop time is NaN or its end time, and dt for every other row."""
    h, t_last = last_step
    attempted = np.isnan(stop_times) | (stop_times == t_last)
    return np.where(attempted, min(h, dt), dt)


def _draw_blocks(generators, n_steps, n_modes, dt):
    """Each step's (M, n_modes) increments, one row per generator, drawn
    _DRAW_CHUNK steps at a time."""
    for k in range(0, n_steps, _DRAW_CHUNK):
        yield from increment_blocks(generators, min(_DRAW_CHUNK, n_steps - k), n_modes, dt)


def _increment_rows(spec, dt, n_steps, make_generators, increments, row_shape):
    """Each step's (M, n_modes) N(0, dt) increments from make_generators(), one
    generator per row and made only when they draw, or pre-drawn as increments,
    at least n_steps rows of row_shape (extra rows are ignored, any other
    shape raises ValueError); None without noise."""
    if spec.noise.amplitude == 0.0:
        return None
    if increments is None:
        return _draw_blocks(make_generators(), n_steps, spec.noise.n_modes, dt)
    rows = np.asarray(increments, dtype=float)
    if rows.shape[1:] != row_shape or rows.shape[0] < n_steps:
        raise ValueError(
            f"increments must have shape (n_steps, {', '.join(map(str, row_shape))}) "
            f"with n_steps >= {n_steps}, got {rows.shape}"
        )
    return iter(rows if rows.ndim == 3 else rows[:, None])


def run(
    spec,
    grid,
    state0,
    stepper,
    stop=None,
    driver=None,
    increments=None,
):
    """Advance one trajectory from state0.time to t_end or to a stopping event.

    Step k ends at exactly state0.time + (k + 1) * dt, and a last step is
    shortened to end at t_end (see ``_schedule``).  Under noise, driver
    supplies N(0, dt) increments in blocks of _DRAW_CHUNK steps, so a run
    that stops early leaves it up to _DRAW_CHUNK - 1 rows further along;
    increments may instead pre-draw them as an (n_steps, n_modes) array, one
    row per step (``run_ensemble`` takes them likewise; the strong
    convergence study couples its paths that way).  A shortened last step
    scales its row by sqrt(h/dt).  With amplitude 0 neither is touched.
    """
    if spec.noise.amplitude > 0.0 and driver is None and increments is None:
        raise ValueError("noisy run needs a BrownianDriver or a pre-drawn increments array")
    f, lengths = np.array(state0.f, dtype=float)[None], np.array([float(state0.length)])
    stop = _start(spec, grid, stepper, f, lengths, stop)
    n_steps, step = schedule = _schedule(float(state0.time), stepper.dt, stepper.t_end)
    n_modes = spec.noise.n_modes
    rows = _increment_rows(
        spec, stepper.dt, n_steps, lambda: [driver.generator], increments, (n_modes,)
    )

    t_last = float(state0.time)  # the time of the state the row holds
    snapshots = [_snapshot(grid, f[0], float(lengths[0]), t_last, 0, np.max(np.abs(f)))]

    def record(k, t, f, lengths, active, halted, sup):
        nonlocal t_last
        if active[0] or halted[0]:
            t_last = t
            if halted[0] or (k + 1) % stepper.snapshot_every == 0:
                snap = _snapshot(grid, f[0], float(lengths[0]), t, k + 1, sup, halted[0])
                snapshots.append(snap)

    last_step = step(n_steps - 1)
    steps, f, lengths, statuses, stop_times, unstable = _advance(
        spec, grid, stepper, stop, _STEPPERS[stepper.scheme], f, lengths, schedule, rows, record
    )
    state = State(f[0], float(lengths[0]), t_last)
    last = snapshots[-1]
    if statuses[0] is TerminalStatus.REACHED_T and (last.step != steps or not last.full_resolution):
        sup = np.max(np.abs(state.f))
        snapshots.append(_snapshot(grid, state.f, state.length, t_last, steps, sup, full=True))
    return Trajectory(
        snapshots=snapshots,
        terminal_status=statuses[0],
        final_state=state,
        steps=steps,
        stability_warning=unstable,
        min_h=float(_min_h(last_step, stepper.dt, stop_times)[0]),
    )


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
    first_path=0,
):
    """Advance n_paths independent trajectories as one stacked batch.

    f0 is one shared initial field (n,) or per-path fields (n_paths, n);
    length0 likewise a scalar or (n_paths,).  Path i is the trajectory
    (seed, first_path + i), bit for bit a single ``run`` from time 0 with
    BrownianDriver(seed, first_path + i); the offset lets a worker advance a
    contiguous slice of a larger ensemble exactly as one process would.  The
    paths' generators are seeded together in one vectorised pass
    (``noise._generators``), each stream still bitwise
    PCG64(SeedSequence(substream_seed(seed, first_path + i))), and draw
    through ``noise.increment_blocks`` with no driver object per path.  The
    steps are those of ``run``, a shortened last step included, so any t_end
    is accepted.  increments may pre-draw everything as an
    (n_steps, n_paths, n_modes) array of N(0, dt) samples, checked as in
    ``run``.  Paths stop on the rules of ``run`` and stay frozen at their
    last valid state; lengths and energies are recorded every snapshot_every
    steps and at the last, at the steps' exact end times.
    """
    m = int(n_paths)
    if m < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    f0 = np.asarray(f0, dtype=float)
    if f0.ndim > 1 and f0.shape[0] != m:
        raise ValueError(f"f0 batch {f0.shape[0]} does not match n_paths {m}")
    # a read-only view: _advance steps a copy that no name here keeps, so
    # the initial rows are freed after the first step, not held to the end
    f = np.broadcast_to(f0, (m, f0.shape[-1]))
    lengths = np.array(np.broadcast_to(np.asarray(length0, dtype=float), (m,)))
    stop = _start(spec, grid, stepper, f, lengths, stop)
    n_steps, step = schedule = _schedule(0.0, stepper.dt, stepper.t_end)
    rows = _increment_rows(
        spec, stepper.dt, n_steps,
        lambda: _generators(seed, range(first_path, first_path + m)),
        increments, (m, spec.noise.n_modes),
    )
    records, last_step = [], step(n_steps - 1)

    def record(k, t, f, lengths, active, halted, sup):
        if (k + 1) % stepper.snapshot_every == 0 or k + 1 == n_steps:
            energy = 0.5 * lengths * grid.integrate(f * f)
            records.append((t, lengths.copy(), energy, active.copy()))

    with np.errstate(over="ignore", invalid="ignore"):
        record(-1, 0.0, f, lengths, np.ones(m, dtype=bool), None, None)
        steps, f, lengths, statuses, stop_times, unstable = _advance(
            spec, grid, stepper, stop, _BATCH_STEPPERS[stepper.scheme],
            np.array(f, order="C"), lengths, schedule, rows, record,
        )
        # rows stay on the cadence after every path has stopped, so their
        # times (and any cross-worker alignment) never depend on the stops;
        # only the steps that record are visited
        every, idle = stepper.snapshot_every, np.zeros(m, dtype=bool)
        first = -(-(steps + 1) // every) * every - 1  # the first cadence step >= steps
        tail = range(first, n_steps, every)
        if n_steps % every and n_steps > steps:
            tail = [*tail, n_steps - 1]
        for k in tail:
            record(k, step(k)[1], f, lengths, idle, None, None)
    times, length_rows, energy_rows, active_rows = zip(*records)
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
        min_h=_min_h(last_step, stepper.dt, stop_times),
        stability_warning=unstable,
    )
