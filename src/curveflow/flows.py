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
multiplies the Brownian increments in the stepper, and enters the
Stratonovich-to-Ito correction quadratically.  The correction is the exact
directional derivative of each diffusion row along itself,

    C = (a^2/2) * sum_l  D(b_l)[(b_f,l, b_L,l)],

so the Ito drift equals the Stratonovich drift plus C by construction.

One pass assembles everything, with the noise modes on a leading array axis
(Trefethen, Spectral Methods in MATLAB, ch. 3): one transform of f gives
its first and second derivatives, and for the explicit Heun scheme its
fourth, through stacked multipliers; f*V and every f*phi_l share one
running-integral pass, and every b_f,l*phi_l of the correction one more.
The basis samples and their derivatives are tabulated once per grid.

Under scalar noise the pass does no basis arithmetic.  With phi = 1, f*phi
is f, phi', phi'' and phi''' vanish, and lam is the constant -2*pi with
derivative 0, so those products and the (n_modes, ...) stacks of the noise
row and the correction are never formed.  The deterministic drift and the
transport are one code path for both noise kinds.  Every field is bitwise
the general formulas evaluated with phi = 1, at every length whose square is
a normal double: each remaining operation keeps its operand order, and the
one vanishing term kept, -2 phi'' lam / L^3 = +0.0 per row, turns -0.0
partial sums into +0.0 as the general code's zero terms do.

At amplitude 0 the pass forms no noise rows, as the Ito rule already forms
no correction: the steppers add no noise term, so nothing would read them.
f*V goes through the running-integral pass alone, and the row stacks come
back empty, (0, *B, n) and (0, *B).  Every other field is bitwise what the
same state gives under a non-zero amplitude without the Ito correction.

The fourth-order term -(1/L^4) drrrr f is returned separately (stiff), and
is formed only for the explicit Heun scheme, which adds it to the drift.  The
semi-implicit scheme solves for it instead and never reads it, so its
assembly transforms back only f' and f''.  Everything else, corrections
included, is in the explicit part.
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
    """Everything one assembly pass produces, for a batch shape B.

    The drift pieces have shape (*B, n) on f and B on L; stiff is formed only
    for the explicit Heun scheme and is None otherwise.  The noise rows are
    stacked with the modes on the leading axis: rows_beta has shape
    (n_modes, *B, n) and rows_lam (n_modes, *B), or no modes at amplitude 0.
    """

    stiff: np.ndarray | None
    det_f: np.ndarray
    det_L: np.ndarray
    corr_f: np.ndarray
    corr_L: np.ndarray
    rows_beta: np.ndarray
    rows_lam: np.ndarray


def _basis_table(noise, grid):
    """phi_l, its first three derivatives and -2 phi_l'' at the nodes, shape
    (5, n_modes, n).

    Sampled once per (grid, noise model) through basis_eval, so every value
    is bitwise the closed form; later assemblies read the cached table.  The
    key is the model itself, hashed by identity: the cache holds it, so its
    identity never passes to another model, and a model's basis is fixed at
    construction.
    """

    def build():
        modes = range(1, noise.n_modes + 1)
        table = np.array([[basis_eval(noise, grid, l, order) for l in modes] for order in range(4)])
        return np.concatenate((table, -2.0 * table[2:3]))

    return grid.cached(("noise_basis", noise), build)


def mode_sum(terms, start):
    """start + terms[0] + terms[1] + ..., added in mode order.

    terms has the modes on its leading axis, (n_modes, *B, n).  One reduction
    over that axis adds whole rows in order, so a single path and a batch row
    take identical arithmetic.  (A 1-D reduction would add pairwise, which
    is why the per-mode length terms are summed by ``np.add.accumulate``,
    which adds in order, instead.)  A start of -0.0, the exact identity of
    IEEE addition, gives the sum started from the first term; +0.0 turns an
    all -0.0 sum into +0.0.
    """
    return np.add.reduce(terms, axis=0, initial=start)


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


def assemble(spec, grid, f, length, include_ito=True, include_stiff=True):
    """Assemble drift pieces and diffusion rows for (possibly stacked) states.

    f has shape (*B, n) for a batch shape B (empty for a single state) and
    length has shape B.  All noise modes are assembled together on a leading
    axis: one transform pair gives the running integrals of f*V and of every
    f*phi_l, and one more those of every beta_l*phi_l for the Ito
    correction.  Under scalar noise the same values come from the scalar
    pass (see the module docstring).  Nothing is validated: the states pass
    ``check_state`` where they enter, and a bad row spoils only its own row.
    Without include_stiff the fourth-order term is not formed (stiff is
    None), and the inverse transform of f's derivatives has no f'''' row.

    Returns an _Assembly whose fields broadcast over the batch shape.
    """
    batch = f.shape[:-1]
    lc = np.asarray(length, dtype=float)
    r = grid.nodes
    noise = spec.noise
    n_modes = noise.n_modes
    amp = noise.amplitude
    scalar = spec.uses_turning_shortcut

    # Full-size temporaries are updated in place and freed as soon as they
    # are used: at M ~ 2000 paths every (M, n) array is a MiB.  Each in-place
    # form keeps the operand order of the formula it computes.
    # per-row values meet the n nodes as columns, or for B = () as 0-d
    # values, which broadcast faster than (1,) arrays
    column = (lambda x: x[..., None]) if batch else (lambda x: x)
    lcol = column(lc)
    l2 = lcol * lcol
    if include_stiff:
        f1, f2, stiff = grid.derivs(f, (1, 2, 4))
        stiff *= spec.stiff_sign  # in f4's slot: stiff_sign * f4 / L^4
        stiff /= l2 * l2
    else:
        f1, f2 = grid.derivs(f, (1, 2))
        stiff = None
    ff = f * f
    tmp = np.empty_like(f)

    # f*V and every f*phi_l share one running-integral pass; V is
    # -(f''/L^2 + f^3/2) for Willmore and -f''/L^2 for curve diffusion
    # (at amplitude 0 nothing reads the noise rows, so f*V goes alone)
    noisy = amp != 0.0
    fv_fphi = np.empty((n_modes + 1 if noisy else 1,) + f.shape)
    fv = fv_fphi[0]
    np.divide(f2, l2, out=fv)
    if spec.kind == WILLMORE:
        f3 = ff * f  # shared with det_f's f^5 term
        np.multiply(f3, 0.5, out=tmp)
        fv += tmp
    np.negative(fv, out=fv)
    fv *= f
    if noisy and scalar:
        fv_fphi[1] = f  # f * phi with phi = 1
    elif noisy:
        table = _basis_table(noise, grid)
        if batch:
            table = table.reshape((5, n_modes) + (1,) * len(batch) + (grid.n,))
        phi, phi1, phi2, _, m2phi2 = table
        fphi = fv_fphi[1:]
        np.multiply(f, phi, out=fphi)
    ints = grid.integrate(fv_fphi)
    cums = grid.cumint(fv_fphi)
    del fv_fphi, fv

    # deterministic drift: the flow's own terms plus the transport
    # (cumint(f V) + r Ldot/L) f'
    det_l = -lc * ints[0]
    transport = cums[0]
    np.multiply(r, column(det_l / lc), out=tmp)
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

    # noise rows: beta_l = phi_l''/L^2 + f^2 phi_l + coef_l f' with the
    # transport coefficient coef_l = cumint(f phi_l) + r lam_l / L
    ito = include_ito and noisy
    if not noisy:
        lam, beta = np.empty((0,) + batch), np.empty((0,) + f.shape)
    elif scalar:
        lam = np.full((1,) + batch, -TWO_PI)
        lam_l = column(lam[0] / lc)
        coef = cums[1]
        np.multiply(r, lam_l, out=tmp)
        coef += tmp
        # phi''/L^2 + f^2 is exactly f^2, never -0.0
        beta = np.multiply(coef, f1)
        beta += ff
    else:
        lam = -lc * ints[1:]
        lam_l = (lam / lc)[..., None]
        coef = cums[1:]
        coef += r * lam_l
        if ito:  # [phi''; phi'''] / L^2 in one division
            beta, beta1 = table[2:4] / l2
        else:
            beta = phi2 / l2
        beta += ff * phi
        beta += coef * f1

    if not ito:
        corr_f, corr_L = np.zeros_like(f), np.zeros(batch)
    else:
        # D(beta_l)[(beta_l, lam_l)] for every mode at once:
        #   dbeta = -2 phi'' lam / L^3 + 2 f phi beta + rate * f' + coef * beta'
        # with beta' by the chain rule, since the basis derivatives are
        # analytic and the r-linear transport coefficient differentiates
        # exactly
        if scalar:
            # phi = 1 and dlam = 0: bphi is beta, and the phi', phi'',
            # phi''' and r * dlam / L terms are zeros, which can only set the
            # sign of a zero result.  One is kept: -2 phi'' lam / L^3, +0.0
            # per row (NaN where L^3 underflows), which keeps every partial
            # sum of dbeta from -0.0, as the general code's zero terms and
            # zero-started mode sum do
            rate = grid.cumint(beta)
            np.multiply(r, column(lam[0] * lam[0] / (lc * lc)), out=tmp)
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
            bphi = beta * phi
            dlam = -lam * ints[1:] - lc * grid.integrate(bphi)
            rate = grid.cumint(bphi)
            del bphi
            rate += r * (dlam / lc)[..., None]
            rate -= r * (lam * lam / (lc * lc))[..., None]
            rate *= f1
            dbeta = m2phi2 * lam[..., None] / (l2 * lcol)
            two_f = 2.0 * f
            dbeta += two_f * phi * beta
            dbeta += rate
            del rate
            beta1 += (two_f * f1) * phi
            del two_f
            beta1 += ff * phi1
            beta1 += (fphi + lam_l) * f1
            beta1 += coef * f2
            beta1 *= coef
            dbeta += beta1
            del beta1
            # sum over modes in mode order from +0.0, then scale once; the
            # length terms are summed from the first, and the final +0.0
            # gives the zero-started sum's +0.0 where it is zero
            corr_f = mode_sum(dbeta, 0.0)
            corr_L = np.add.accumulate(dlam, axis=0)[-1] + 0.0
        half_var = 0.5 * amp * amp
        corr_f *= half_var
        corr_L = half_var * corr_L

    return _Assembly(
        stiff=stiff,
        det_f=det_f,
        det_L=det_l,
        corr_f=corr_f,
        corr_L=corr_L,
        rows_beta=beta[None] if scalar and noisy else beta,
        rows_lam=lam,
    )
