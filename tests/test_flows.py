"""Drift/diffusion assembly: closed-form oracles and conservation identities.

Constant and zero states make every term of the assembly computable by hand,
so those cases pin exact values.  The conservation tests exercise the
property the transport term exists for: the total turning L*mean(f) has zero
derivative along the deterministic drift, along every noise row, and (in the
Ito sense) along the corrected drift.  Band-limited states keep products
below the Nyquist mode so the discrete identities hold at roundoff level.
"""

from __future__ import annotations

import numpy as np
import pytest

from curveflow import flows
from curveflow.flows import (
    CURVE_DIFFUSION,
    WILLMORE,
    FlowSpec,
    State,
    assemble,
)
from curveflow.grid import CLOSED, OPEN, Grid
from curveflow.noise import NoiseModel, basis_eval

TWO_PI = 2.0 * np.pi


def _band_limited(rng, grid, n_low=6, scale=0.3):
    """Positive-mean field with spectral content confined to modes <= n_low."""
    r = grid.nodes
    f = np.full(grid.n, 1.0 + rng.random())
    for m in range(1, n_low + 1):
        f = f + scale * rng.standard_normal() / m**2 * np.cos(TWO_PI * m * r)
        f = f + scale * rng.standard_normal() / m**2 * np.sin(TWO_PI * m * r)
    return f


# ---------------------------------------------------------------------------
# constant / zero state oracles


def test_willmore_constant_state_drift():
    # f == c: all derivatives vanish, V = -c^3/2, so the length drifts by
    # L * c^4 / 2 and f by -c^5/2 plus the correction c^3 (amplitude 1).
    grid = Grid(CLOSED, 64)
    c, length = 0.7, 3.1
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=1.0))
    a = assemble(spec, grid, np.full(64, c), length)
    assert np.all(a.stiff == 0.0)
    assert np.all(a.det_f + a.corr_f == -0.5 * c**5 + c**3)
    assert a.det_L + a.corr_L == 0.5 * length * c**4


def test_willmore_constant_state_noise_row():
    grid = Grid(CLOSED, 64)
    c = 0.7
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=1.0))
    a = assemble(spec, grid, np.full(64, c), 3.1)
    assert a.rows_beta.shape == (1, 64) and a.rows_lam.shape == (1,)
    assert np.all(a.rows_beta[0] == c * c)
    assert a.rows_lam[0] == -TWO_PI


def test_curve_diffusion_constant_state():
    # No fourth or second derivative: the deterministic drift vanishes and
    # only the Ito correction (a^2 c^3 on f, zero on L) survives.
    grid = Grid(CLOSED, 64)
    c, amp = 1.3, 0.5
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, NoiseModel(mode="scalar", amplitude=amp))
    a = assemble(spec, grid, np.full(64, c), 2.0)
    assert np.all(a.stiff == 0.0)
    assert np.abs(a.corr_f - amp * amp * c**3).max() < 1e-15
    assert a.corr_L == 0.0
    assert np.all(a.det_f + a.corr_f == a.corr_f)
    assert a.det_L + a.corr_L == 0.0


def test_curve_diffusion_constant_state_open():
    grid = Grid(OPEN, 65)
    c, amp = 1.3, 0.5
    spec = FlowSpec(CURVE_DIFFUSION, OPEN, NoiseModel(mode="scalar", amplitude=amp))
    a = assemble(spec, grid, np.full(65, c), 2.0)
    assert np.abs(a.corr_f - amp * amp * c**3).max() < 1e-12
    assert abs(a.corr_L) < 1e-12


def test_flat_state_is_stationary():
    """A straight segment (f == 0) produces no drift and no noise response."""
    grid = Grid(OPEN, 65)
    spec = FlowSpec(WILLMORE, OPEN, NoiseModel(mode="scalar", amplitude=1.0))
    a = assemble(spec, grid, np.zeros(65), 2.0)
    assert np.all(a.stiff == 0.0)
    assert np.all(a.det_f + a.corr_f == 0.0)
    assert a.det_L + a.corr_L == 0.0
    assert np.all(a.rows_beta[0] == 0.0)
    assert a.rows_lam[0] == 0.0


def test_spectral_rows_at_zero_curvature():
    # f == 0, L == 1: each row reduces to the bare second derivative of its
    # basis function, the length rows vanish, and the L correction takes the
    # closed form a^2 * sum c_l^2 (2 pi m_l)^2 / 4.
    grid = Grid(CLOSED, 64)
    noise = NoiseModel(mode="spectral", amplitude=0.3, n_modes=4, decay_exponent=6.0)
    spec = FlowSpec(WILLMORE, CLOSED, noise)
    a = assemble(spec, grid, np.zeros(64), 1.0)
    for l, (b_f, b_L) in enumerate(zip(a.rows_beta, a.rows_lam), start=1):
        assert np.array_equal(b_f, basis_eval(noise, grid, l, 2))
        assert b_L == 0.0
    expected = noise.amplitude**2 * sum(
        b.coefficient**2 * (TWO_PI * b.wavenumber) ** 2 / 4.0 for b in noise.basis
    )
    assert np.all(a.corr_f == 0.0)
    assert a.corr_L == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# Ito correction structure


def test_ito_correction_scales_quadratically():
    rng = np.random.default_rng(11)
    grid = Grid(CLOSED, 64)
    f = _band_limited(rng, grid)
    low = NoiseModel(mode="spectral", amplitude=0.3, n_modes=4, decay_exponent=6.0)
    high = NoiseModel(mode="spectral", amplitude=0.6, n_modes=4, decay_exponent=6.0)
    a1 = assemble(FlowSpec(WILLMORE, CLOSED, low), grid, f, 2.0)
    a2 = assemble(FlowSpec(WILLMORE, CLOSED, high), grid, f, 2.0)
    assert np.array_equal(a2.corr_f, 4.0 * a1.corr_f)
    assert a2.corr_L == 4.0 * a1.corr_L


def test_zero_amplitude_has_no_correction():
    rng = np.random.default_rng(3)
    grid = Grid(CLOSED, 64)
    noise = NoiseModel(mode="spectral", amplitude=0.0, n_modes=6, decay_exponent=6.0)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, noise)
    f = _band_limited(rng, grid)
    with_corr = assemble(spec, grid, f, 1.5, include_ito=True)
    assert np.all(with_corr.corr_f == 0.0)
    assert with_corr.corr_L == 0.0
    # and the Ito drift coincides with the Stratonovich drift
    without = assemble(spec, grid, f, 1.5, include_ito=False)
    assert np.array_equal(with_corr.det_f + with_corr.corr_f, without.det_f + without.corr_f)
    assert with_corr.det_L + with_corr.corr_L == without.det_L + without.corr_L


def test_stratonovich_drift_plus_correction_is_ito_drift():
    """include_ito toggles exactly the correction term, bitwise."""
    rng = np.random.default_rng(5)
    grid = Grid(CLOSED, 64)
    noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=6, decay_exponent=6.0)
    for kind in (WILLMORE, CURVE_DIFFUSION):
        spec = FlowSpec(kind, CLOSED, noise)
        f, length = _band_limited(rng, grid), 0.9 + rng.random()
        strat = assemble(spec, grid, f, length, include_ito=False)
        ito = assemble(spec, grid, f, length, include_ito=True)
        assert np.all(strat.corr_f == 0.0) and strat.corr_L == 0.0
        assert np.any(ito.corr_f != 0.0)
        assert np.array_equal(ito.det_f, strat.det_f)
        assert ito.det_L == strat.det_L
        assert np.array_equal(ito.stiff, strat.stiff)
        assert np.array_equal(ito.rows_beta, strat.rows_beta)
        assert np.array_equal(ito.rows_lam, strat.rows_lam)


# ---------------------------------------------------------------------------
# turning conservation (the reason the transport term exists)


@pytest.mark.parametrize("kind", [WILLMORE, CURVE_DIFFUSION])
def test_turning_conserved_per_noise_mode(kind):
    rng = np.random.default_rng(17)
    grid = Grid(CLOSED, 64)
    noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=6, decay_exponent=6.0)
    spec = FlowSpec(kind, CLOSED, noise)
    for _ in range(25):
        f = _band_limited(rng, grid)
        length = 0.5 + 3.0 * rng.random()
        a = assemble(spec, grid, f, length)
        mean_f = grid.integrate(f)
        for b_f, b_L in zip(a.rows_beta, a.rows_lam):
            # d(L mean f) along the row: L*mean(b_f) + mean(f)*b_L
            assert abs(length * grid.integrate(b_f) + mean_f * b_L) < 1e-13


@pytest.mark.parametrize("kind", [WILLMORE, CURVE_DIFFUSION])
def test_turning_conserved_by_deterministic_drift(kind):
    rng = np.random.default_rng(23)
    grid = Grid(CLOSED, 64)
    spec = FlowSpec(kind, CLOSED, NoiseModel(mode="scalar", amplitude=0.0))
    for _ in range(25):
        f = _band_limited(rng, grid)
        length = 0.5 + 3.0 * rng.random()
        a = assemble(spec, grid, f, length, include_ito=False)
        drift_turning = grid.integrate(f) * a.det_L + length * grid.integrate(
            a.stiff + a.det_f
        )
        assert abs(drift_turning) < 1e-10


@pytest.mark.parametrize("kind", [WILLMORE, CURVE_DIFFUSION])
def test_ito_correction_conserves_expected_turning(kind):
    # In the Ito picture the drift correction must cancel the quadratic
    # variation of the turning functional: L*mean(corr_f) + mean(f)*corr_L
    # + a^2 sum_l b_L,l * mean(b_f,l) == 0.
    rng = np.random.default_rng(29)
    grid = Grid(CLOSED, 64)
    noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=6, decay_exponent=6.0)
    spec = FlowSpec(kind, CLOSED, noise)
    for _ in range(25):
        f = _band_limited(rng, grid)
        length = 0.5 + 3.0 * rng.random()
        a = assemble(spec, grid, f, length)
        quad_var = sum(b_L * grid.integrate(b_f) for b_f, b_L in zip(a.rows_beta, a.rows_lam))
        total = (
            length * grid.integrate(a.corr_f)
            + grid.integrate(f) * a.corr_L
            + noise.amplitude**2 * quad_var
        )
        assert abs(total) < 1e-13


def test_scalar_noise_length_row_is_constant():
    """Closed + scalar noise short-circuits b_L to -2 pi regardless of state."""
    rng = np.random.default_rng(31)
    grid = Grid(CLOSED, 64)
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=0.7))
    assert spec.uses_turning_shortcut
    for _ in range(10):
        a = assemble(spec, grid, rng.standard_normal(64), 0.3 + 3.0 * rng.random())
        assert a.rows_lam[0] == -TWO_PI
    # the shortcut is consistent with turning conservation exactly when the
    # state describes a simple closed curve (total turning 2 pi)
    f = _band_limited(rng, grid)
    length = 0.5 + 3.0 * rng.random()
    f *= TWO_PI / (length * grid.integrate(f))
    a = assemble(spec, grid, f, length)
    defect = length * grid.integrate(a.rows_beta[0]) + grid.integrate(f) * a.rows_lam[0]
    assert abs(defect) < 1e-12


def test_open_topology_has_no_shortcut():
    spec = FlowSpec(WILLMORE, OPEN, NoiseModel(mode="scalar", amplitude=0.7))
    assert not spec.uses_turning_shortcut
    spectral = NoiseModel(mode="spectral", amplitude=0.7, n_modes=4, decay_exponent=6.0)
    assert not FlowSpec(WILLMORE, CLOSED, spectral).uses_turning_shortcut
    # open length row is the state-dependent integral, not a constant
    grid = Grid(OPEN, 65)
    rng = np.random.default_rng(37)
    f = 1.0 + 0.2 * np.sin(np.pi * grid.nodes) * rng.random()
    length = 2.0
    lam = assemble(spec, grid, f, length).rows_lam[0]
    expected = -length * grid.integrate(f * np.ones(grid.n))
    assert lam == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# batching, knobs, validation


def test_batched_assembly_matches_loop():
    """Stacked states assemble to bitwise the same values as one-at-a-time."""
    rng = np.random.default_rng(41)
    grid = Grid(CLOSED, 32)
    noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=4, decay_exponent=6.0)
    spec = FlowSpec(WILLMORE, CLOSED, noise)
    batch_f = np.stack([_band_limited(rng, grid, n_low=4) for _ in range(5)])
    batch_l = 0.5 + 3.0 * rng.random(5)
    batched = assemble(spec, grid, batch_f, batch_l)
    for i in range(5):
        single = assemble(spec, grid, batch_f[i], batch_l[i])
        assert np.array_equal(batched.stiff[i], single.stiff)
        assert np.array_equal(batched.det_f[i], single.det_f)
        assert float(batched.det_L[i]) == float(single.det_L)
        assert np.array_equal(batched.corr_f[i], single.corr_f)
        assert float(batched.corr_L[i]) == float(single.corr_L)
        for l in range(noise.n_modes):
            assert np.array_equal(batched.rows_beta[l][i], single.rows_beta[l])
            assert float(batched.rows_lam[l][i]) == float(single.rows_lam[l])


def test_assembly_operation_counts(monkeypatch):
    """One assembly with Ito terms takes a fixed number of transforms, however
    many noise modes there are, validates its input once, and samples the
    noise basis only on the first assembly on a grid.  Counts, not times."""
    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.fft, "rfft", counting("fft", np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counting("fft", np.fft.irfft))
    monkeypatch.setattr(Grid, "check_field", counting("check_field", Grid.check_field))
    monkeypatch.setattr(flows, "basis_eval", counting("basis_eval", flows.basis_eval))
    rng = np.random.default_rng(47)
    fft_calls = []
    for n_modes in (1, 8):
        grid = Grid(CLOSED, 64)
        noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=n_modes, decay_exponent=6.0)
        spec = FlowSpec(WILLMORE, CLOSED, noise)
        f = _band_limited(rng, grid)
        for first in (True, False):
            counts.clear()
            assemble(spec, grid, f, 1.3)
            assert counts["check_field"] == 1
            assert counts.get("basis_eval", 0) == (4 * n_modes if first else 0)
            fft_calls.append(counts["fft"])
    assert len(set(fft_calls)) == 1
    assert fft_calls[0] <= 8


def test_stiff_sign_flip_only_touches_stiff_part():
    rng = np.random.default_rng(43)
    grid = Grid(CLOSED, 64)
    noise = NoiseModel(mode="scalar", amplitude=0.3)
    spec = FlowSpec(WILLMORE, CLOSED, noise)
    f = _band_limited(rng, grid)
    normal = assemble(spec, grid, f, 1.7)
    flipped_spec = FlowSpec(WILLMORE, CLOSED, noise, stiff_sign=+1.0)
    flipped = assemble(flipped_spec, grid, f, 1.7)
    assert np.array_equal(flipped.stiff, -normal.stiff)
    assert np.array_equal(flipped.det_f + flipped.corr_f, normal.det_f + normal.corr_f)
    assert flipped.det_L + flipped.corr_L == normal.det_L + normal.corr_L


def test_spec_validation():
    noise = NoiseModel(mode="scalar", amplitude=0.1)
    with pytest.raises(ValueError):
        FlowSpec("mean_curvature", CLOSED, noise)
    with pytest.raises(ValueError):
        FlowSpec(WILLMORE, "moebius", noise)


def test_state_validation():
    grid = Grid(CLOSED, 64)
    noise = NoiseModel(mode="scalar", amplitude=0.1)
    spec_open = FlowSpec(WILLMORE, OPEN, noise)
    with pytest.raises(ValueError):
        assemble(spec_open, grid, np.ones(64), 1.0)
    spec = FlowSpec(WILLMORE, CLOSED, noise)
    with pytest.raises(ValueError):
        assemble(spec, grid, np.ones((2, 64)), 1.0)
    with pytest.raises(ValueError):
        assemble(spec, grid, np.ones(64), -1.0)
    with pytest.raises(ValueError):
        assemble(spec, grid, np.ones(64), np.inf)
    with pytest.raises(ValueError):
        assemble(spec, grid, np.ones((3, 64)), np.ones(2))


def test_state_copy_is_independent():
    state = State(np.ones(8), 1.0, time=0.5)
    clone = state.copy()
    clone.f[0] = 99.0
    clone.length = 7.0
    assert state.f[0] == 1.0 and state.length == 1.0 and clone.time == 0.5
