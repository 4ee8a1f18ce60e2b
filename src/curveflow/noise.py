"""Brownian drivers and the smooth spatial noise basis.

The stochastic forcing is either a single scalar Brownian motion acting
uniformly along the curve, or a truncated series over a smooth trigonometric
basis of the normalized arclength.  Basis functions carry closed-form
derivatives up to fourth order (they are differentiated analytically, never
numerically) and a summed C^4 bound that is checked at construction time:
fourth-order parabolic drift terms involve the basis's fourth derivatives,
so the series must remain summable at that order.

Reproducibility contract: a (seed, trajectory_index) pair determines the
increment stream bit-for-bit.  Sub-seeds are derived with a splitmix64-style
mix so that ensembles parallelize without any stream coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

SCALAR = "scalar"
SPECTRAL = "spectral"

# largest summed C^4 norm accepted for a noise basis
C4_BOUND = 1e6


def _mix64(x):
    """One splitmix64 finalization round: full avalanche of a 64-bit word."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def substream_seed(seed, trajectory_index):
    """Deterministic 64-bit sub-seed for one trajectory of an ensemble.

    The base seed is avalanched once, then the trajectory index advances it
    along the splitmix64 sequence; distinct indices land on uncorrelated
    words, so trajectory streams are independent for practical purposes.
    """
    base = _mix64(int(seed) & _MASK64)
    return _mix64((base + _GAMMA * (int(trajectory_index) + 1)) & _MASK64)


@dataclass(frozen=True)
class BasisFunction:
    """One closed-form basis function c * trig(2 pi m r), with derivatives.

    kind is "const" (the function c, independent of r), "cos", "sin", or
    "zero".  Derivatives cycle through the trigonometric phase analytically.
    """

    kind: str
    wavenumber: int = 0
    coefficient: float = 1.0

    def __post_init__(self):
        if self.kind not in ("const", "cos", "sin", "zero"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind in ("cos", "sin") and self.wavenumber < 1:
            raise ValueError("trigonometric basis functions need wavenumber >= 1")

    def eval(self, r, order=0):
        if order not in (0, 1, 2, 3, 4):
            raise ValueError(f"derivative order must be in 0..4, got {order}")
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "const":
            return np.full_like(r, self.coefficient) if order == 0 else np.zeros_like(r)
        w = 2.0 * np.pi * self.wavenumber
        phase = w * r + order * (np.pi / 2.0)
        wave = np.cos(phase) if self.kind == "cos" else np.sin(phase)
        return self.coefficient * w**order * wave

    def c4_norm(self):
        """max over orders 0..4 of the sup norm."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "const":
            return abs(self.coefficient)
        w = 2.0 * np.pi * self.wavenumber
        return abs(self.coefficient) * max(1.0, w**4)


def default_spectral_basis(n_modes, decay_exponent):
    """Paired cosine/sine modes with amplitudes m^(-decay).

    Mode 2m-1 is cos(2 pi m r) and mode 2m is sin(2 pi m r), both scaled by
    m**(-decay_exponent).  The C^4 norm of wavenumber m grows like m^4, so
    the summed C^4 bound converges exactly when the decay exponent exceeds 5.
    """
    if decay_exponent <= 5.0:
        raise ValueError(
            "spectral basis needs decay_exponent > 5 so the series of "
            f"fourth-derivative sup norms converges; got {decay_exponent}"
        )
    basis = []
    for l in range(1, n_modes + 1):
        m = (l + 1) // 2
        kind = "cos" if l % 2 == 1 else "sin"
        basis.append(BasisFunction(kind, m, m ** (-float(decay_exponent))))
    return tuple(basis)


class NoiseModel:
    """Scalar or truncated spectral noise along the curve.

    Parameters
    ----------
    mode : "scalar" or "spectral"
    amplitude : float >= 0
        Global scale multiplying every mode.  Zero recovers the
        deterministic flow exactly (no random numbers are drawn).
    n_modes : int
        Number of retained modes (spectral only; scalar always has one).
    decay_exponent : float
        Amplitude decay of the default spectral basis; must exceed 5.
    basis : optional sequence of BasisFunction
        Explicit basis override; length must equal n_modes.
    """

    def __init__(
        self,
        mode=SCALAR,
        amplitude=0.0,
        n_modes=8,
        decay_exponent=6.0,
        basis=None,
    ):
        if mode not in (SCALAR, SPECTRAL):
            raise ValueError(f"noise mode must be '{SCALAR}' or '{SPECTRAL}', got {mode!r}")
        amplitude = float(amplitude)
        if not (amplitude >= 0.0 and math.isfinite(amplitude)):
            raise ValueError(f"noise amplitude must be a finite non-negative real, got {amplitude}")
        self.mode = mode
        self.amplitude = amplitude
        self.decay_exponent = float(decay_exponent)
        if mode == SCALAR:
            if basis is not None:
                raise ValueError("scalar noise does not take a basis override")
            self.n_modes = 1
            self.basis = (BasisFunction("const", 0, 1.0),)
        else:
            self.n_modes = int(n_modes)
            if self.n_modes < 1:
                raise ValueError(f"spectral noise needs n_modes >= 1, got {n_modes}")
            if basis is None:
                self.basis = default_spectral_basis(self.n_modes, self.decay_exponent)
            else:
                basis = tuple(basis)
                if len(basis) != self.n_modes:
                    raise ValueError(
                        f"basis override has {len(basis)} functions, n_modes is {self.n_modes}"
                    )
                self.basis = basis
        self.c4_sum = float(sum(b.c4_norm() for b in self.basis))
        if not math.isfinite(self.c4_sum) or self.c4_sum > C4_BOUND:
            raise ValueError(
                f"summed C^4 norm of the noise basis is {self.c4_sum}, "
                f"exceeding the bound {C4_BOUND:g}"
            )

    def __repr__(self):
        return (
            f"NoiseModel(mode={self.mode!r}, amplitude={self.amplitude}, "
            f"n_modes={self.n_modes}, c4_sum={self.c4_sum:.6g})"
        )


def basis_eval(model, grid, l, order=0):
    """Sample the l-th basis function (1-based) or one of its derivatives.

    Derivatives come from the closed forms carried by the basis; nothing is
    differentiated numerically.
    """
    if not 1 <= l <= model.n_modes:
        raise ValueError(f"basis index {l} out of range 1..{model.n_modes}")
    return model.basis[l - 1].eval(grid.nodes, order)


class BrownianDriver:
    """Seeded source of Brownian increments for one trajectory."""

    def __init__(self, seed, trajectory_index=0):
        self.seed = int(seed)
        self.trajectory_index = int(trajectory_index)
        self.reset()

    def reset(self):
        self._gen = np.random.Generator(
            np.random.PCG64(substream_seed(self.seed, self.trajectory_index))
        )

    def increments(self, n_modes, dt):
        """n_modes independent N(0, dt) samples; advances the stream."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {n_modes}")
        return self._gen.standard_normal(int(n_modes)) * math.sqrt(dt)

    def increment_block(self, n_steps, n_modes, dt):
        """(n_steps, n_modes) block of N(0, dt) samples.

        Drawn in one call but consuming the generator in the same order as
        n_steps successive ``increments`` calls, so blocked and stepwise
        drawing produce identical streams.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        return self._gen.standard_normal((int(n_steps), int(n_modes))) * math.sqrt(dt)
