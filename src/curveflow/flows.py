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
-L*integral(f*phi_l) under spectral noise.  The global amplitude
multiplies the Brownian increments in the stepper, and enters the
Stratonovich-to-Ito correction quadratically.  The correction is the exact
directional derivative of each diffusion row along itself,

    C = (a^2/2) * sum_l  D(b_l)[(b_f,l, b_L,l)],

so the Ito drift equals the Stratonovich drift plus C by construction.

One pass assembles everything, with the noise modes on a leading array axis
(Trefethen, Spectral Methods in MATLAB, ch. 3): one transform of f gives
its first, second and fourth derivatives through stacked multipliers; f*V
and every f*phi_l share one running-integral pass, and every b_f,l*phi_l of
the correction one more.  The basis samples and their derivatives are
tabulated once per grid.

The fourth-order term -(1/L^4) drrrr f is returned separately (stiff) so the
stepper can treat it implicitly; everything else, corrections included, is
in the explicit part.
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
    energy-dissipation check catches the backward-parabolic variant.
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

    The drift pieces have shape (*B, n) on f and B on L.  The noise rows are
    stacked with the modes on the leading axis: rows_beta has shape
    (n_modes, *B, n) and rows_lam (n_modes, *B).
    """

    stiff: np.ndarray
    det_f: np.ndarray
    det_L: np.ndarray
    corr_f: np.ndarray
    corr_L: np.ndarray
    rows_beta: np.ndarray
    rows_lam: np.ndarray


def _basis_table(noise, grid):
    """phi_l and its first three derivatives at the nodes, shape (4, n_modes, n).

    Sampled once per (grid, noise basis) through basis_eval, so every value
    is bitwise the closed form; later assemblies read the cached table.
    """

    def build():
        modes = range(1, noise.n_modes + 1)
        return np.array([[basis_eval(noise, grid, l, order) for l in modes] for order in range(4)])

    return grid.cached(("noise_basis", noise.basis), build)


def assemble(spec, grid, f, length, include_ito=True):
    """Assemble drift pieces and diffusion rows for (possibly stacked) states.

    f has shape (*B, n) for a batch shape B (empty for a single state) and
    length has shape B.  All noise modes are assembled together on a leading
    axis: one transform pair gives the running integrals of f*V and of every
    f*phi_l, and one more those of every beta_l*phi_l for the Ito
    correction.  The inputs are validated here; nothing below re-checks them.

    Returns an _Assembly whose fields broadcast over the batch shape.
    """
    f = grid.check_field(f)
    batch = f.shape[:-1]
    lc = np.asarray(length, dtype=float)
    if lc.shape != batch:
        raise ValueError(f"length batch shape {lc.shape} does not match field batch {batch}")
    if not np.all(np.isfinite(lc) & (lc > 0.0)):
        raise ValueError(f"length must be positive and finite, got {length}")

    r = grid.nodes
    noise = spec.noise
    n_modes = noise.n_modes
    amp = noise.amplitude
    # basis samples broadcast against the (n_modes, *B, n) stacks
    phi, phi1, phi2, phi3 = _basis_table(noise, grid).reshape(
        (4, n_modes) + (1,) * len(batch) + (grid.n,)
    )

    # Full-size temporaries are freed as soon as they are used and updated in
    # place where possible: at M ~ 2000 paths every (M, n) array is a MiB.
    f1, f2, f4 = grid.derivs(f, (1, 2, 4))
    lcol = lc[..., None]
    l2 = lcol * lcol
    l4 = l2 * l2
    stiff = f4  # in f4's slot: stiff_sign * f4 / l4
    stiff *= spec.stiff_sign
    stiff /= l4
    ff = f * f

    if spec.kind == WILLMORE:
        v = -(f2 / l2 + 0.5 * (ff * f))
    else:
        v = -(f2 / l2)
    # f*V and every f*phi_l share one running-integral pass
    fv_fphi = np.empty((n_modes + 1,) + f.shape)
    np.multiply(f, v, out=fv_fphi[0])
    del v
    np.multiply(f, phi, out=fv_fphi[1:])
    ints = grid.integrate(fv_fphi)
    cums = grid.cumint(fv_fphi)
    del fv_fphi

    det_l = -lc * ints[0]
    transport = cums[0] + r * (det_l / lc)[..., None]
    if spec.kind == WILLMORE:
        det_f = (
            -2.5 * (ff * f2) / l2
            - 3.0 * (f * f1 * f1) / l2
            - 0.5 * (ff * f * f * f)
            + transport * f1
        )
    else:
        det_f = -(ff * f2) / l2 + transport * f1
    del transport

    shortcut = spec.uses_turning_shortcut
    if shortcut:
        lam = np.full((n_modes,) + batch, -TWO_PI)
    else:
        lam = -lc * ints[1:]
    lam_l = (lam / lc)[..., None]
    coef = cums[1:]
    coef += r * lam_l
    beta = phi2 / l2
    beta += ff * phi
    beta += coef * f1

    corr_f = np.zeros_like(f)
    corr_L = np.zeros_like(det_l)
    if include_ito and amp > 0.0:
        # D(beta_l)[(beta_l, lam_l)] for every mode at once:
        #   dbeta = -2 phi'' lam / L^3 + 2 f phi beta + rate * f' + coef * beta'
        # with beta' by the chain rule, since the basis derivatives are
        # analytic and the r-linear transport coefficient differentiates
        # exactly
        bphi = beta * phi
        if shortcut:
            dlam = np.zeros_like(lam)
        else:
            dlam = -lam * ints[1:] - lc * grid.integrate(bphi)
        rate = grid.cumint(bphi)
        del bphi
        rate += r * (dlam / lc)[..., None]
        rate -= r * (lam * lam / (lc * lc))[..., None]
        rate *= f1
        dbeta = -2.0 * phi2 * lam[..., None] / (l2 * lcol)
        dbeta += (2.0 * f) * phi * beta
        dbeta += rate
        del rate
        beta1 = phi3 / l2
        beta1 += (2.0 * f * f1) * phi
        beta1 += ff * phi1
        beta1 += (f * phi + lam_l) * f1
        beta1 += coef * f2
        beta1 *= coef
        dbeta += beta1
        del beta1
        # sum over modes in mode order, then scale once
        for d, dl in zip(dbeta, dlam):
            corr_f += d
            corr_L = corr_L + dl
        half_var = 0.5 * amp * amp
        corr_f *= half_var
        corr_L = half_var * corr_L

    return _Assembly(
        stiff=stiff,
        det_f=det_f,
        det_L=det_l,
        corr_f=corr_f,
        corr_L=corr_L,
        rows_beta=beta,
        rows_lam=lam,
    )
