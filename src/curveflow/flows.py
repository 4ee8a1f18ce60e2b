"""Drift and diffusion assembly for the curvature-length system.

State is the pair (f, L): the rescaled curvature f(r) = k(rL) on the unit
parameter interval together with the curve length L.  Both flows evolve

    df = dss V + f^2 V        (per unit time, s = arclength, dss = (1/L^2) drr)
    dL = -L * integral(f V dr)

where the normal velocity is V = -(dss f + f^3/2) + noise for the Willmore
(free elastic) flow and V = -dss f + noise for curve diffusion, plus the
arclength transport induced by evolving on the fixed parameter interval:
points of fixed r correspond to material points s = rL whose arclength
coordinate drifts as the curve moves, contributing

    ( cumint(f V)(r) + r * Ldot / L ) * df/dr

to the f-equation.  With this transport term the total turning L*mean(f) is
conserved along every noise mode exactly (each mode's f-row integrates to
-b_L/L), which is what makes the closed-curve invariants hold pathwise and
not just in expectation.

Noise rows have unit amplitude, one per basis mode: b_L is exactly -2*pi
under scalar noise (the total turning of a simple closed curve), and
-L*integral(f*phi_l) under spectral noise.  The scalar row is right only
for states that turn by exactly 2*pi, so ``run`` and ``run_ensemble``
refuse to start a scalar-noise run anywhere else; the flow conserves the
turning, so the row stays right along the run.  The global amplitude
multiplies the Brownian increments (``noise_field``), and enters the
Stratonovich-to-Ito correction quadratically.  The correction is the exact
directional derivative of each diffusion row along itself,

    C = (a^2/2) * sum_l  D(b_l)[(b_f,l, b_L,l)],

so the Ito drift equals the Stratonovich drift plus C by construction.

One pass assembles everything (Trefethen, Spectral Methods in MATLAB,
ch. 3): one transform of f gives f', f'' and, for the explicit Heun scheme,
f''''; the semi-implicit step passes f' and f'' in instead, from the solve
of the step before.  The noise and the correction are linear in the modes,
so they are formed after summing over them.  The noise field is one contraction,
psi = sum_l w_l phi_l of the increments w = a dW (``noise_field``), and the
step's noise increment is the row formula with psi for phi_l.  The
correction is mode sums (fixed tables of sum phi phi'' and sum phi^2, and
contractions of the transport coefficients) plus one running integral, of
sum_l b_f,l phi_l.  f*V, f*psi and the per-mode f*phi_l share one
running-integral pass.  Per-mode rows, the formula at unit increments, are
formed only when no noise field is given.  Every mode sum adds in mode
order, so a single path and a batch row take identical arithmetic.

Under scalar noise (phi = 1, lam = -2*pi) the pass does no basis
arithmetic and forms no mode sums; the noise increment is w times the one
row.  Every field is bitwise the per-mode formulas at phi = 1, at every
length whose square is a normal double: each remaining operation keeps its
operand order, and the one vanishing term kept, -2 phi'' lam / L^3 = +0.0,
turns -0.0 partial sums into +0.0 as those formulas' zero terms do.

At amplitude 0 the pass forms no noise rows (they come back empty), and
every other field is bitwise that of a non-zero amplitude without the Ito
correction.  The fourth-order term -(1/L^4) drrrr f is returned separately
(stiff), and only for the explicit Heun scheme; the semi-implicit scheme
solves for it instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import SCALAR, NoiseModel, basis_eval

WILLMORE = "willmore"
CURVE_DIFFUSION = "curve_diffusion"

_KINDS = (WILLMORE, CURVE_DIFFUSION)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FlowSpec:
    """Which flow of a closed curve, driven by which noise.

    stiff_sign is a diagnostic knob: -1.0 is the dissipative fourth-order
    operator, +1.0 flips it so regression tests can confirm that the
    energy-dissipation check catches the backward-parabolic variant.  The
    flipped sign runs only under the explicit Heun scheme.
    """

    kind: str
    noise: NoiseModel
    stiff_sign: float = -1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"flow kind must be one of {_KINDS}, got {self.kind!r}")
        if self.stiff_sign not in (-1.0, 1.0):
            raise ValueError(f"stiff_sign must be -1.0 or +1.0, got {self.stiff_sign!r}")

    @property
    def uses_turning_shortcut(self):
        """Scalar noise: integral(f phi) dr * L is the total turning, which is
        2*pi for a simple closed curve; the length row is the constant -2*pi
        rather than a state-dependent integral."""
        return self.noise.mode == SCALAR


@dataclass
class State:
    """Rescaled curvature field, curve length, and time."""

    f: np.ndarray
    length: float
    time: float = 0.0

    def copy(self):
        return State(np.array(self.f, dtype=float, copy=True), float(self.length), float(self.time))


@dataclass
class _Assembly:
    """One assembly pass for a batch shape B: drift pieces of shape (*B, n)
    on f and B on L (stiff only for the Heun scheme, else None); rows_beta
    and rows_lam are the step's noise increment, (*B, n) and B, given a noise
    field, or else the rows at unit increments, (n_modes, *B, n) and
    (n_modes, *B), with no modes at amplitude 0."""

    stiff: np.ndarray | None
    det_f: np.ndarray
    det_L: np.ndarray
    corr_f: np.ndarray
    corr_L: np.ndarray
    rows_beta: np.ndarray
    rows_lam: np.ndarray


def _basis(noise, grid):
    """The noise model's basis at the grid's nodes, (table, sums): table is
    [phi_l'', phi_l, phi_l', phi_l'''], (4, n_modes, n), so that the noise
    field and the transport contractions each take one slice, and sums is
    the pair (sum_l phi_l phi_l'', sum_l phi_l^2), each (n,), added in mode
    order from +0.0.

    Sampled by basis_eval, bitwise the closed form, on the model's first use
    on a grid of that many nodes (the nodes are j/n), and kept read-only in
    the model's ``samples``: a model's basis is fixed once it is made."""
    basis = noise.samples.get(grid.n)
    if basis is None:
        modes = range(1, noise.n_modes + 1)
        table = np.array([[basis_eval(noise, grid, l, order) for l in modes] for order in (2, 0, 1, 3)])
        sums = mode_sum(table[1] * table[:2], 0.0, axis=1)
        table.setflags(write=False)
        sums.setflags(write=False)
        basis = noise.samples[grid.n] = table, tuple(sums)
    return basis


def mode_sum(terms, start, axis=0):
    """start + terms[0] + terms[1] + ..., the modes on axis 0 (axis 1 for
    several sums at once), adding whole rows in mode order, so that a single
    path and a batch row take identical arithmetic (a 1-D reduction would add
    pairwise).  A start of -0.0 gives the sum started from the first term;
    +0.0 turns an all -0.0 sum into +0.0."""
    return np.add.reduce(terms, axis=axis, initial=start)


def noise_field(spec, grid, dw):
    """The noise field ``assemble`` takes for a step's N(0, dt) increments
    dw, (n_modes,) or (M, n_modes): with w = amplitude * dw, [psi'', psi] for
    psi = sum_l w_l phi_l, shape (2, *B, n), by ``mode_sum`` from -0.0, or
    under scalar noise w itself, shape B."""
    w = spec.noise.amplitude * np.asarray(dw, dtype=float).T
    if spec.uses_turning_shortcut:
        return w[0]
    pair = _basis(spec.noise, grid)[0][:2]
    if w.ndim > 1:  # the batch rows meet the nodes as columns
        pair = pair[:, :, None]
    return mode_sum(w[..., None] * pair, -0.0, axis=1)


def check_state(grid, f, length):
    """The state rule, checked where states enter: f of shape (*B, n) with n
    finite values per row and length of shape B, finite and positive.

    Returns f and length as float arrays; raises ValueError otherwise.
    """
    f = grid.check_field(f)
    batch = f.shape[:-1]
    lc = np.asarray(length, dtype=float)
    if lc.shape != batch:
        raise ValueError(f"length batch shape {lc.shape} does not match field batch {batch}")
    if not np.all(np.isfinite(lc) & (lc > 0.0)):
        raise ValueError(f"length must be positive and finite, got {length}")
    return f, lc


def _column(x):
    """Per-row values as a column against the nodes; a 0-d one as it is."""
    return x[..., None] if x.ndim else x


def assemble(spec, grid, f, length, include_ito=True, include_stiff=True, psi=None, derivs=None):
    """Assemble drift pieces and diffusion rows for (possibly stacked) states.

    f has shape (*B, n) for a batch shape B (empty for a single state) and
    length has shape B; psi is the step's ``noise_field``, if any, and
    derivs (f', f''), if known, else ``grid.derivs`` takes them from f.
    Nothing is validated: states pass ``check_state`` where they enter, and
    a bad row spoils only its own row.  Without include_stiff the
    fourth-order term is not formed.  Returns an _Assembly.
    """
    batch = f.shape[:-1]
    # a batch's lengths meet the nodes as a column; one state's length is a
    # NumPy scalar: 0-d arithmetic, bit for bit, but faster
    if batch:
        lc = np.asarray(length, dtype=float)
        lcol = lc[..., None]
    else:
        lc = lcol = np.float64(length)
    r = grid.nodes
    noise = spec.noise
    n_modes = noise.n_modes
    amp = noise.amplitude
    scalar = spec.uses_turning_shortcut

    # Full-size temporaries are updated in place and freed as soon as they
    # are used: at M ~ 2000 paths every (M, n) array is a MiB.  Each in-place
    # form keeps the operand order of the formula it computes.
    l2 = lcol * lcol
    if include_stiff:
        f1, f2, stiff = grid.derivs(f, (1, 2, 4))
        stiff *= spec.stiff_sign  # in f4's slot: stiff_sign * f4 / L^4
        stiff /= l2 * l2
    else:
        if derivs is None:
            derivs = grid.derivs(f, (1, 2))
        # rows by index: unpacking an array iterates it, which costs more
        f1, f2 = derivs[0], derivs[1]
        stiff = None
    ff = f * f
    tmp = np.empty_like(f)

    # one running-integral pass takes f*V, f*psi (per mode at unit
    # increments) and the per-mode f*phi_l of the Ito correction; V is
    # -(f''/L^2 + f^3/2) for Willmore and -f''/L^2 for curve diffusion
    noisy = amp != 0.0
    ito = include_ito and noisy
    spectral = noisy and not scalar
    unit = psi is None
    per_mode = spectral and (ito or unit)
    rows = 1 + (noisy and not (spectral and unit)) + (n_modes if per_mode else 0)
    stack = np.empty((rows,) + f.shape)
    fv = stack[0]
    np.divide(f2, l2, out=fv)
    if spec.kind == WILLMORE:
        f3 = ff * f  # shared with det_f's f^5 term
        np.multiply(f3, 0.5, out=tmp)
        fv += tmp
    np.negative(fv, out=fv)
    fv *= f
    if noisy and scalar:
        stack[1] = f  # f * phi with phi = 1
    elif spectral:
        table, (phi_phi2, phi_phi) = _basis(noise, grid)
        if batch:
            table = table.reshape((4, n_modes) + (1,) * len(batch) + (grid.n,))
        if unit:
            psi2, psi = table[0], table[1]
        else:
            psi2, psi = psi[0], psi[1]
            np.multiply(f, psi, out=stack[1])
        if per_mode:
            np.multiply(f, table[1], out=stack[rows - n_modes :])
    ints = grid.integrate(stack)
    cums = grid.cumint(stack)
    del stack, fv

    # deterministic drift: the flow's own terms plus the transport
    # (cumint(f V) + r Ldot/L) f'
    det_l = -lc * ints[0]
    transport = cums[0]
    np.multiply(r, _column(det_l / lc), out=tmp)
    transport += tmp
    transport *= f1
    det_f = np.multiply(ff, f2)
    if spec.kind == WILLMORE:
        det_f *= -2.5
        det_f /= l2
        np.multiply(f, f1, out=tmp)
        tmp *= f1
        tmp *= 3.0
        tmp /= l2
        det_f -= tmp
        np.multiply(f3, f, out=tmp)
        del f3
        tmp *= f
        tmp *= 0.5
        det_f -= tmp
    else:
        np.negative(det_f, out=det_f)
        det_f /= l2
    det_f += transport
    del transport

    # noise rows: beta = psi''/L^2 + f^2 psi + coef f' with the transport
    # coefficient coef = cumint(f psi) + r lam / L and lam = -L integral(f psi)
    if not noisy:
        lam, beta = np.empty((0,) + batch), np.empty((0,) + f.shape)
    elif scalar:
        lam = np.full((1,) + batch, -TWO_PI)
        lam_l = _column(lam[0] / lc)
        coef = cums[1]
        np.multiply(r, lam_l, out=tmp)
        coef += tmp
        # phi''/L^2 + f^2 is exactly f^2, never -0.0
        beta = np.multiply(coef, f1)
        beta += ff
    else:
        # the rows after f*V: per mode, or the noise field's and then those
        lam_all = -lc * ints[1:]
        lam_l = (lam_all / lc)[..., None]
        coef_all = cums[1:]
        coef_all += r * lam_l
        lam, coef = (lam_all, coef_all) if unit else (lam_all[0], coef_all[0])
        beta = psi2 / l2
        beta += ff * psi
        beta += coef * f1

    if not ito:
        corr_f, corr_L = np.zeros_like(f), np.zeros(batch)
    elif scalar:
        # D(beta)[(beta, lam)] = -2 phi'' lam / L^3 + 2 f phi beta + rate * f'
        # + coef * beta' with phi = 1 and dlam = 0: bphi is beta, and the
        # phi', phi'', phi''' and r * dlam / L terms are zeros, which can only
        # set the sign of a zero result.  One is kept: -2 phi'' lam / L^3,
        # +0.0 per row (NaN where L^3 underflows), which keeps every partial
        # sum of dbeta from -0.0, as the per-mode formulas' zero terms and
        # zero-started mode sum do
        rate = grid.cumint(beta)
        np.multiply(r, _column(lam[0] * lam[0] / (lc * lc)), out=tmp)
        rate -= tmp
        rate *= f1
        two_f = 2.0 * f
        dbeta = np.multiply(two_f, beta)
        dbeta += 0.0 / (l2 * lcol)
        dbeta += rate
        del rate
        beta1 = np.multiply(two_f, f1)
        del two_f
        np.add(f, lam_l, out=tmp)
        tmp *= f1
        beta1 += tmp
        np.multiply(coef, f2, out=tmp)
        beta1 += tmp
        beta1 *= coef
        dbeta += beta1
        del beta1
        corr_f, corr_L = dbeta, np.zeros(batch)
    else:
        # sum_l D(beta_l)[(beta_l, lam_l)] by the chain rule, as mode sums:
        # dlam_l = lam_l^2 / L - L integral(beta_l phi_l), so with
        # bphi = sum beta phi = sum phi phi'' / L^2 + f^2 sum phi^2 + f' sum coef phi
        #   C_L = sum lam^2 / L - L integral(bphi),
        #   C_f = (sum coef phi''' - 2 sum (lam/L) phi'') / L^2 + f^2 sum coef phi'
        #       + f'' sum coef^2 + f (2 bphi + 3 f' sum coef phi)
        #       + f' (cumint(bphi - integral(bphi)) + sum coef lam / L)
        m = slice(0 if unit else 1, None)
        coef_m, lam_lm = coef_all[m], lam_l[m]
        prod = np.empty((6,) + coef_m.shape)
        np.multiply(coef_m, table[1:], out=prod[:3])
        np.multiply(coef_m, coef_m, out=prod[3])
        np.multiply(coef_m, lam_lm, out=prod[4])
        np.multiply(lam_lm, table[0], out=prod[5])
        c_phi, c_phi1, c_phi3, c_c, c_lam, lam_phi2 = mode_sum(prod, 0.0, axis=1)
        del prod
        s_ll = np.add.accumulate(lam_all[m] * lam_all[m])[-1]  # in mode order
        bphi = phi_phi2 / l2
        bphi += ff * phi_phi
        c_phi *= f1
        bphi += c_phi
        mean = grid.integrate(bphi)
        corr_L = s_ll / lc - lc * mean
        rate = grid.cumint(bphi - _column(mean))
        rate += c_lam
        rate *= f1
        corr_f = lam_phi2 * -2.0
        corr_f += c_phi3
        corr_f /= l2
        corr_f += ff * c_phi1
        corr_f += f2 * c_c
        bphi *= 2.0
        c_phi *= 3.0
        bphi += c_phi
        bphi *= f
        corr_f += bphi
        corr_f += rate
    if ito:
        half_var = 0.5 * amp * amp
        corr_f *= half_var
        corr_L = half_var * corr_L

    if noisy and scalar:
        beta, lam = (beta[None], lam) if unit else (_column(psi) * beta, psi * lam[0])
    return _Assembly(stiff, det_f, det_l, corr_f, corr_L, beta, lam)
