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
mix so that ensembles parallelize without any stream coordination, and
trajectory i draws from Generator(PCG64(SeedSequence(substream_seed(seed, i)))).

A batch seeds its generators in one vectorised pass (``_generators``): the
splitmix64 mix runs over all trajectory indices as uint64 words, NumPy's
SeedSequence hash (a fixed sequence of uint32 operations over a pool of four
words) runs over all sub-seeds as uint32 words, and each PCG64 takes its four
hashed words as they are.  The streams are bitwise those of seeding each
PCG64 from its integer sub-seed; only the Python-level work per path shrinks.
A single driver takes the same route with one index, and every increment,
a driver's or a batch's, is drawn by ``increment_blocks``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence's hash constants (pool size 4, 16-bit xorshift)
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

SCALAR = "scalar"
SPECTRAL = "spectral"

# largest summed C^4 norm accepted for a noise basis
C4_BOUND = 1e6


def _mix64(x):
    """One splitmix64 finalization round: full avalanche of a 64-bit word.

    x is a Python int or a uint64 array, whose arithmetic wraps mod 2^64.
    """
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


def substream_seeds(seed, trajectory_indices):
    """substream_seed(seed, i) for every index of an integer array, as uint64.

    Indices are taken mod 2^64 (int64 indices wrap as two's complement), as
    the scalar form's Python arithmetic does, so negative indices work too.
    """
    steps = np.asarray(trajectory_indices).astype(np.uint64) + np.uint64(1)
    return _mix64(_mix64(int(seed) & _MASK64) + _GAMMA * steps)


def _hasher(init, mult):
    """SeedSequence's multiply-xorshift hash of uint32 words, whose multiplier
    advances by mult on every call, as NumPy's runs over a fixed call order."""
    const = init

    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    return hash_words


def _seed_words(seeds):
    """SeedSequence(s).generate_state(4, np.uint64) for every uint64 seed s.

    Returns an (M, 4) uint64 array.  The entropy of s is its low and high
    uint32 words; a seed below 2^32 is one word, which hashes alike because
    the pool pads its entropy with zero words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst]
                mixed -= np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                mixed ^= mixed >> np.uint32(16)
                pool[dst] = mixed
    out = _hasher(_INIT_B, _MULT_B)
    state = [out(pool[j % _POOL]).astype(np.uint64) for j in range(8)]
    # eight uint32 words read as four little-endian uint64 words
    return np.stack([state[j] | state[j + 1] << np.uint64(32) for j in range(0, 8, 2)], axis=-1)


@functools.cache
def _hashed_rows_type():
    """The seed sequence that hands each PCG64 made from it the next row of
    words already hashed by _seed_words.

    One object serves a whole batch, so no per-path seed object outlives the
    seeding.  The type is made on first use, so that importing this module
    does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class HashedRows(ISeedSequence):
        def __init__(self, words):
            self._rows = iter(words)

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("hashed seed words serve only PCG64's four uint64 words")
            return next(self._rows)

    return HashedRows


def _generators(seed, trajectory_indices):
    """One np.random.Generator per trajectory index, seeded in one vectorised
    pass; generator i is bitwise Generator(PCG64(substream_seed(seed, i)))."""
    words = _seed_words(substream_seeds(seed, trajectory_indices))
    rows = _hashed_rows_type()(words)
    return [np.random.Generator(np.random.PCG64(rows)) for _ in range(len(words))]


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

    A model is fixed once made, so ``samples`` keeps its basis sampled on
    the nodes of each grid size it has met (``flows._basis`` fills it).
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
        self.samples = {}
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


def increment_blocks(generators, n_steps, n_modes, dt):
    """(n_steps, M, n_modes) N(0, dt) samples, column i drawn from generators[i]:
    a transposed view of an (M, n_steps, n_modes) buffer whose rows each
    generator fills in stream order, as n_steps draws of n_modes would."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    out = np.empty((len(generators), int(n_steps), int(n_modes)))
    for gen, rows in zip(generators, out):
        gen.standard_normal(out=rows)
    out *= math.sqrt(dt)
    return out.transpose(1, 0, 2)


class BrownianDriver:
    """Seeded source of Brownian increments for one trajectory.

    Its generator is the one ``_generators`` makes for (seed, trajectory_index);
    a batch needs no drivers, it draws from its paths' generators directly.
    """

    def __init__(self, seed, trajectory_index=0):
        self.seed = int(seed)
        self.trajectory_index = int(trajectory_index)
        self.reset()

    def reset(self):
        """Rewind the stream to its start."""
        (self.generator,) = _generators(self.seed, [self.trajectory_index & _MASK64])

    def increments(self, n_modes, dt):
        """n_modes independent N(0, dt) samples; advances the stream."""
        if n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {n_modes}")
        return increment_blocks([self.generator], 1, n_modes, dt)[0, 0]
