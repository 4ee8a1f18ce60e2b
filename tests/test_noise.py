"""Noise basis, model validation, and Brownian increment streams."""

from __future__ import annotations

import math

import numpy as np
import pytest

from curveflow import noise
from curveflow.grid import Grid
from curveflow.noise import (
    BasisFunction,
    BrownianDriver,
    NoiseModel,
    basis_eval,
    default_spectral_basis,
    substream_seed,
    substream_seeds,
)

TWO_PI = 2.0 * math.pi


def _block(driver, n_steps, n_modes, dt):
    """(n_steps, n_modes) N(0, dt) samples from the driver's stream, the draws
    of n_steps successive ``increments`` calls."""
    return noise.increment_blocks([driver.generator], n_steps, n_modes, dt)[:, 0]


def test_substream_seed_deterministic_and_distinct():
    seeds = [substream_seed(42, i) for i in range(64)]
    assert seeds == [substream_seed(42, i) for i in range(64)]
    assert len(set(seeds)) == 64
    assert substream_seed(42, 0) != substream_seed(43, 0)


def test_vectorised_substream_seeds_match_the_scalar_form():
    indices = np.arange(-2048, 2048)
    for seed in (0, 201, 2**64 - 1, -7):
        words = substream_seeds(seed, indices)
        assert words.dtype == np.uint64
        assert words.tolist() == [substream_seed(seed, int(i)) for i in indices]
    # negative indices, and indices beyond int64, wrap mod 2^64
    beyond = np.array([2**64 - 1], dtype=np.uint64)
    assert substream_seeds(3, beyond)[0] == substream_seed(3, -1)


def test_seed_words_match_numpy_seed_sequence():
    """The vectorised hash pins NumPy's SeedSequence: a NumPy release that
    changed it fails here instead of silently changing every stream."""

    def reference(seeds):
        return np.stack([np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                         for s in seeds])

    edges = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    assert np.array_equal(noise._seed_words(edges), reference(edges))
    for seed in (201, 7, 2**63 + 5):
        seeds = substream_seeds(seed, np.arange(2048))
        assert np.array_equal(noise._seed_words(seeds), reference(seeds))
    seeds = substream_seeds(201, -1 - np.arange(64))
    assert np.array_equal(noise._seed_words(seeds), reference(seeds))


def test_batched_generators_and_drivers_draw_the_single_streams():
    indices = [0, 1, 63, -1, -64]
    for index, gen in zip(indices, noise._generators(201, indices)):
        ref = np.random.Generator(np.random.PCG64(substream_seed(201, index)))
        assert np.array_equal(gen.standard_normal(200), ref.standard_normal(200))
    # 70 steps, longer than the 64-step chunks that run draws in
    blocks = noise.increment_blocks(noise._generators(201, range(3, 7)), 70, 2, 1e-3)
    assert blocks.shape == (70, 4, 2)
    for column, index in enumerate(range(3, 7)):
        driver = BrownianDriver(201, index)
        block = _block(driver, 70, 2, 1e-3)
        assert np.array_equal(blocks[:, column], block)
        driver.reset()
        assert np.array_equal(_block(driver, 70, 2, 1e-3), block)


def test_basis_function_derivatives():
    r = np.linspace(0.0, 1.0, 17)
    w = TWO_PI * 3  # eval applies 2*pi to the integer mode number itself
    phi = BasisFunction("cos", wavenumber=3, coefficient=0.5)
    assert np.max(np.abs(phi.eval(r, 0) - 0.5 * np.cos(w * r))) < 1e-14
    assert np.max(np.abs(phi.eval(r, 1) + 0.5 * w * np.sin(w * r))) < 1e-11
    assert np.max(np.abs(phi.eval(r, 2) + 0.5 * w**2 * np.cos(w * r))) < 1e-9
    psi = BasisFunction("sin", wavenumber=3)
    assert np.max(np.abs(psi.eval(r, 1) - w * np.cos(w * r))) < 1e-11
    assert np.max(np.abs(BasisFunction("const").eval(r, 0) - 1.0)) == 0.0
    assert np.max(np.abs(BasisFunction("const").eval(r, 1))) == 0.0
    assert np.max(np.abs(BasisFunction("zero").eval(r, 0))) == 0.0


def test_default_spectral_basis_layout():
    basis = default_spectral_basis(6, 6.0)
    assert len(basis) == 6
    # pairs (cos, sin) of mode m with coefficient m^-decay
    assert basis[0].kind == "cos" and basis[1].kind == "sin"
    assert basis[0].wavenumber == 1
    assert abs(basis[2].coefficient - 2.0**-6) < 1e-18
    assert basis[4].wavenumber == 3 and basis[5].kind == "sin"


def test_default_spectral_basis_rejects_slow_decay():
    with pytest.raises(ValueError):
        default_spectral_basis(4, 5.0)
    with pytest.raises(ValueError):
        default_spectral_basis(4, 4.0)


def test_scalar_model_is_single_flat_mode():
    model = NoiseModel(mode="scalar", amplitude=0.3)
    assert model.n_modes == 1
    assert model.basis[0].kind == "const"
    g = Grid(16)
    assert np.max(np.abs(basis_eval(model, g, 1) - 1.0)) == 0.0


def test_scalar_model_rejects_basis_override():
    with pytest.raises(ValueError):
        NoiseModel(mode="scalar", basis=(BasisFunction("const"),))


def test_model_rejects_negative_amplitude_and_unknown_mode():
    with pytest.raises(ValueError):
        NoiseModel(mode="scalar", amplitude=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(mode="white")


def test_smoothness_budget_enforced():
    rough = (BasisFunction("cos", wavenumber=50, coefficient=1.0),)  # (100*pi)^4 >> budget
    with pytest.raises(ValueError):
        NoiseModel(mode="spectral", n_modes=1, basis=rough)


def test_custom_basis_needs_matching_mode_count():
    with pytest.raises(ValueError):
        NoiseModel(mode="spectral", basis=(BasisFunction("const"),), n_modes=3)


def test_spectral_smoothness_sum():
    model = NoiseModel(mode="spectral", n_modes=4, decay_exponent=6.0)
    expected = sum(
        max(1.0, (TWO_PI * b.wavenumber) ** 4) * abs(b.coefficient) for b in model.basis
    )
    assert abs(model.c4_sum - expected) < 1e-9


def test_driver_reproducible_and_distinct_per_trajectory():
    a = BrownianDriver(7, 0).increments(4, 1e-3)
    b = BrownianDriver(7, 0).increments(4, 1e-3)
    c = BrownianDriver(7, 1).increments(4, 1e-3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_driver_block_matches_stepwise():
    block = _block(BrownianDriver(99, 2), 50, 3, 2e-4)
    driver = BrownianDriver(99, 2)
    stepwise = np.stack([driver.increments(3, 2e-4) for _ in range(50)])
    assert np.array_equal(block, stepwise)


def test_driver_variance_scale():
    dt = 4e-3
    draws = _block(BrownianDriver(3, 0), 4000, 2, dt)
    assert abs(draws.var() - dt) < 0.12 * dt
    assert abs(draws.mean()) < 3.0 * math.sqrt(dt / 8000)


def test_driver_rejects_bad_dt():
    driver = BrownianDriver(1, 0)
    with pytest.raises(ValueError):
        driver.increments(2, 0.0)
    with pytest.raises(ValueError):
        driver.increments(2, -1e-3)


def test_driver_reset():
    driver = BrownianDriver(5, 0)
    first = driver.increments(4, 1e-3)
    driver.reset()
    assert np.array_equal(driver.increments(4, 1e-3), first)
