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

from curveflow import flows, integrator
from curveflow import grid as grid_module
from curveflow.flows import (
    CURVE_DIFFUSION,
    WILLMORE,
    FlowSpec,
    State,
    assemble,
    check_state,
)
from curveflow.grid import Grid
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
    grid = Grid(64)
    c, length = 0.7, 3.1
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=1.0))
    a = assemble(spec, grid, np.full(64, c), length)
    assert np.all(a.stiff == 0.0)
    assert np.all(a.det_f + a.corr_f == -0.5 * c**5 + c**3)
    assert a.det_L + a.corr_L == 0.5 * length * c**4


def test_willmore_constant_state_noise_row():
    grid = Grid(64)
    c = 0.7
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=1.0))
    a = assemble(spec, grid, np.full(64, c), 3.1)
    assert a.rows_beta.shape == (1, 64) and a.rows_lam.shape == (1,)
    assert np.all(a.rows_beta[0] == c * c)
    assert a.rows_lam[0] == -TWO_PI


def test_curve_diffusion_constant_state():
    # No fourth or second derivative: the deterministic drift vanishes and
    # only the Ito correction (a^2 c^3 on f, zero on L) survives.
    grid = Grid(64)
    c, amp = 1.3, 0.5
    spec = FlowSpec(CURVE_DIFFUSION, NoiseModel(mode="scalar", amplitude=amp))
    a = assemble(spec, grid, np.full(64, c), 2.0)
    assert np.all(a.stiff == 0.0)
    assert np.abs(a.corr_f - amp * amp * c**3).max() < 1e-15
    assert a.corr_L == 0.0
    assert np.all(a.det_f + a.corr_f == a.corr_f)
    assert a.det_L + a.corr_L == 0.0


def test_flat_state_is_stationary():
    """Zero curvature produces no drift and no curvature noise response; the
    scalar length row stays the closed-curve constant -2 pi."""
    grid = Grid(64)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=1.0))
    a = assemble(spec, grid, np.zeros(64), 2.0)
    assert np.all(a.stiff == 0.0)
    assert np.all(a.det_f + a.corr_f == 0.0)
    assert a.det_L + a.corr_L == 0.0
    assert np.all(a.rows_beta[0] == 0.0)
    assert a.rows_lam[0] == -TWO_PI


def test_spectral_rows_at_zero_curvature():
    # f == 0, L == 1: each row reduces to the bare second derivative of its
    # basis function, the length rows vanish, and the L correction takes the
    # closed form a^2 * sum c_l^2 (2 pi m_l)^2 / 4.
    grid = Grid(64)
    noise = NoiseModel(mode="spectral", amplitude=0.3, n_modes=4, decay_exponent=6.0)
    spec = FlowSpec(WILLMORE, noise)
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
    grid = Grid(64)
    f = _band_limited(rng, grid)
    low = NoiseModel(mode="spectral", amplitude=0.3, n_modes=4, decay_exponent=6.0)
    high = NoiseModel(mode="spectral", amplitude=0.6, n_modes=4, decay_exponent=6.0)
    a1 = assemble(FlowSpec(WILLMORE, low), grid, f, 2.0)
    a2 = assemble(FlowSpec(WILLMORE, high), grid, f, 2.0)
    assert np.array_equal(a2.corr_f, 4.0 * a1.corr_f)
    assert a2.corr_L == 4.0 * a1.corr_L


def test_zero_amplitude_has_no_correction():
    rng = np.random.default_rng(3)
    grid = Grid(64)
    noise = NoiseModel(mode="spectral", amplitude=0.0, n_modes=6, decay_exponent=6.0)
    spec = FlowSpec(CURVE_DIFFUSION, noise)
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
    grid = Grid(64)
    noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=6, decay_exponent=6.0)
    for kind in (WILLMORE, CURVE_DIFFUSION):
        spec = FlowSpec(kind, noise)
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
    grid = Grid(64)
    noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=6, decay_exponent=6.0)
    spec = FlowSpec(kind, noise)
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
    grid = Grid(64)
    spec = FlowSpec(kind, NoiseModel(mode="scalar", amplitude=0.0))
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
    grid = Grid(64)
    noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=6, decay_exponent=6.0)
    spec = FlowSpec(kind, noise)
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
    """Scalar noise short-circuits b_L to -2 pi regardless of state."""
    rng = np.random.default_rng(31)
    grid = Grid(64)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.7))
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


def _unit_basis_assembly(spec, grid, f, length, include_ito):
    """The general assembly formulas, modes on a leading axis, with the
    scalar basis written out: phi = 1, phi' = phi'' = phi''' = 0, the length
    row -2 pi and its derivative 0."""
    batch = f.shape[:-1]
    lc = np.asarray(length, dtype=float)
    r = grid.nodes
    ones = (1,) * len(batch) + (grid.n,)
    phi, phi1, phi2, phi3 = np.ones((1,) + ones), *np.zeros((3, 1) + ones)
    f1, f2, f4 = grid.derivs(f, (1, 2, 4))
    lcol = lc[..., None]
    l2 = lcol * lcol
    l4 = l2 * l2
    stiff = f4 * spec.stiff_sign / l4
    ff = f * f
    v = -(f2 / l2 + 0.5 * (ff * f)) if spec.kind == WILLMORE else -(f2 / l2)
    fv_fphi = np.concatenate([(f * v)[None], f * phi])
    ints, cums = grid.integrate(fv_fphi), grid.cumint(fv_fphi)
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
    lam = np.full((1,) + batch, -TWO_PI)
    lam_l = (lam / lc)[..., None]
    coef = cums[1:] + r * lam_l
    beta = phi2 / l2 + ff * phi + coef * f1
    corr_f, corr_L = np.zeros_like(f), np.zeros_like(det_l)
    amp = spec.noise.amplitude
    if include_ito and amp > 0.0:
        bphi = beta * phi
        dlam = np.zeros_like(lam)
        rate = grid.cumint(bphi) + r * (dlam / lc)[..., None]
        rate = (rate - r * (lam * lam / (lc * lc))[..., None]) * f1
        dbeta = -2.0 * phi2 * lam[..., None] / (l2 * lcol) + (2.0 * f) * phi * beta + rate
        beta1 = phi3 / l2 + (2.0 * f * f1) * phi + ff * phi1 + (f * phi + lam_l) * f1
        beta1 = (beta1 + coef * f2) * coef
        dbeta = dbeta + beta1
        for d, dl in zip(dbeta, dlam):
            corr_f = corr_f + d
            corr_L = corr_L + dl
        half_var = 0.5 * amp * amp
        corr_f, corr_L = corr_f * half_var, half_var * corr_L
    return {
        "stiff": stiff,
        "det_f": det_f,
        "det_L": det_l,
        "corr_f": corr_f,
        "corr_L": corr_L,
        "rows_beta": beta,
        "rows_lam": lam,
    }


@pytest.mark.parametrize("kind", [WILLMORE, CURVE_DIFFUSION])
@pytest.mark.parametrize("include_ito", [True, False])
@pytest.mark.parametrize("batch", [(), (5,)])
def test_scalar_pass_matches_general_formulas_bitwise(kind, include_ito, batch):
    """Under scalar noise every assembly field is bitwise the general
    formulas with phi = 1, shape and signed zeros included: on the -0.0
    state the correction is a sum of -0.0 terms, which the general code's
    +0.0 terms make +0.0."""
    rng = np.random.default_rng(53)
    grid = Grid(32)
    spec = FlowSpec(kind, NoiseModel(mode="scalar", amplitude=0.7))
    states = [
        np.stack([_band_limited(rng, grid) for _ in range(5)]),
        -np.stack([_band_limited(rng, grid) for _ in range(5)]),
        np.full((5, grid.n), -0.0),
        np.full((5, grid.n), -0.5),
        3.0 * rng.standard_normal((5, grid.n)),
    ]
    for f in states:
        f = f[0] if batch == () else f
        length = 0.3 + 3.0 * rng.random(batch)
        got = assemble(spec, grid, f, length, include_ito=include_ito)
        for name, want in _unit_basis_assembly(spec, grid, f, length, include_ito).items():
            have, want = np.asarray(getattr(got, name)), np.asarray(want)
            assert have.shape == want.shape, name
            assert have.tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(mode="scalar", amplitude=0.7),
        NoiseModel(mode="spectral", amplitude=0.7, n_modes=8, decay_exponent=6.0),
    ],
    ids=["scalar", "spectral8"],
)
@pytest.mark.parametrize("batch", [(), (5,)])
def test_assembly_without_stiff_matches_full_assembly_bitwise(noise, batch):
    """Leaving out the fourth-order term changes no other field by a bit."""
    rng = np.random.default_rng(61)
    grid = Grid(32)
    spec = FlowSpec(WILLMORE, noise)
    f = np.stack([_band_limited(rng, grid) for _ in range(5)])
    f = f[0] if batch == () else f
    length = 0.3 + 3.0 * rng.random(batch)
    full = assemble(spec, grid, f, length)
    thin = assemble(spec, grid, f, length, include_stiff=False)
    assert full.stiff is not None and thin.stiff is None
    for name in ("det_f", "det_L", "corr_f", "corr_L", "rows_beta", "rows_lam"):
        have, want = np.asarray(getattr(thin, name)), np.asarray(getattr(full, name))
        assert have.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("kind", [WILLMORE, CURVE_DIFFUSION])
@pytest.mark.parametrize("mode", ["scalar", "spectral"])
@pytest.mark.parametrize("batch", [(), (5,)])
@pytest.mark.parametrize("n", [32, 256], ids=["dense", "fft"])
def test_zero_amplitude_forms_no_noise_rows(kind, mode, batch, n):
    """At amplitude 0 the noise rows have no modes, and every other field is
    bitwise that of the same state under amplitude 0.7 without the Ito
    correction, on both grid routes (8 modes under spectral noise)."""
    rng = np.random.default_rng(67)
    grid = Grid(n)
    quiet = FlowSpec(kind, NoiseModel(mode=mode, amplitude=0.0))
    noisy = FlowSpec(kind, NoiseModel(mode=mode, amplitude=0.7))
    f = np.stack([_band_limited(rng, grid) for _ in range(5)])
    f = f[0] if batch == () else f
    length = 0.3 + 3.0 * rng.random(batch)
    want = assemble(noisy, grid, f, length, include_ito=False)
    assert want.rows_beta.shape == (noisy.noise.n_modes,) + f.shape
    for include_ito in (True, False):
        got = assemble(quiet, grid, f, length, include_ito=include_ito)
        assert got.rows_beta.shape == (0,) + f.shape
        assert got.rows_lam.shape == (0,) + batch
        for name in ("stiff", "det_f", "det_L", "corr_f", "corr_L"):
            have, ref = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert have.shape == ref.shape, name
            assert have.tobytes() == ref.tobytes(), name


def test_mode_sum_adds_modes_in_order():
    """mode_sum is bitwise the in-order loop from its start value, for one
    path and for batches; from +0.0 an all -0.0 stack sums to +0.0, and from
    -0.0 it stays -0.0 as a sum started from the first term does."""
    rng = np.random.default_rng(67)
    for shape in ((8, 64), (8, 5, 64), (8, 256, 64), (1, 64), (9, 3, 16)):
        terms = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
        terms[rng.random(shape) < 0.1] = -0.0
        for start in (0.0, -0.0):
            want = np.full(shape[1:], start)
            for term in terms:
                want = want + term
            assert flows.mode_sum(terms, start).tobytes() == want.tobytes()
    negative_zeros = np.full((8, 5, 64), -0.0)
    assert not np.signbit(flows.mode_sum(negative_zeros, 0.0)).any()
    assert np.signbit(flows.mode_sum(negative_zeros, -0.0)).all()


def test_spectral_noise_has_no_shortcut():
    """Spectral noise takes the state-dependent length row -L * integral(f phi_l)."""
    rng = np.random.default_rng(37)
    grid = Grid(64)
    noise = NoiseModel(mode="spectral", amplitude=0.7, n_modes=4, decay_exponent=6.0)
    spec = FlowSpec(WILLMORE, noise)
    assert not spec.uses_turning_shortcut
    f, length = _band_limited(rng, grid), 2.0
    phi = np.array([basis_eval(noise, grid, l, 0) for l in range(1, 5)])
    lam = assemble(spec, grid, f, length).rows_lam
    assert lam == pytest.approx(-length * grid.integrate(f * phi), rel=1e-14)


# ---------------------------------------------------------------------------
# batching, knobs, validation


def test_batched_assembly_matches_loop():
    """Stacked states assemble to bitwise the same values as one-at-a-time."""
    rng = np.random.default_rng(41)
    grid = Grid(32)
    noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=4, decay_exponent=6.0)
    spec = FlowSpec(WILLMORE, noise)
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
    many noise modes there are, validates nothing (states are checked where
    they enter), and samples the noise basis only on the first assembly on a
    grid.  A transform is one FFT call or one dense product, whichever route
    the grid takes.  Counts, not times."""
    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.fft, "rfft", counting("transform", np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counting("transform", np.fft.irfft))
    monkeypatch.setattr(grid_module, "_product", counting("transform", grid_module._product))
    monkeypatch.setattr(Grid, "check_field", counting("check_field", Grid.check_field))
    monkeypatch.setattr(flows, "basis_eval", counting("basis_eval", flows.basis_eval))
    rng = np.random.default_rng(47)
    for dense_max in (64, 0):
        monkeypatch.setattr(grid_module, "_DENSE_MAX_N", dense_max)
        transforms = []
        for n_modes in (1, 8):
            grid = Grid(64)
            noise = NoiseModel(mode="spectral", amplitude=0.4, n_modes=n_modes, decay_exponent=6.0)
            spec = FlowSpec(WILLMORE, noise)
            f = _band_limited(rng, grid)
            # build the grid's dense matrices, which takes transforms of its own
            grid.derivs(f, (1, 2, 4))
            grid.cumint(f)
            for first in (True, False):
                counts.clear()
                assemble(spec, grid, f, 1.3)
                assert counts.get("check_field", 0) == 0
                assert counts.get("basis_eval", 0) == (4 * n_modes if first else 0)
                transforms.append(counts["transform"])
        assert len(set(transforms)) == 1, dense_max
        assert transforms[0] <= 8


@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(mode="scalar", amplitude=0.3),
        NoiseModel(mode="spectral", amplitude=0.3, n_modes=8, decay_exponent=6.0),
    ],
    ids=["scalar", "spectral8"],
)
def test_imex_step_transform_counts(monkeypatch, noise):
    """One IMEX step of a lone path takes the transforms of one step of a
    2-row batch: six dense products and no FFT call on a dense grid, eight
    FFT calls and no product above it.  A lone field's rows (the one-row
    rule, see the grid module) ride in those products, not in extra ones."""
    counts = {"product": 0, "fft": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.fft, "rfft", counting("fft", np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counting("fft", np.fft.irfft))
    monkeypatch.setattr(grid_module, "_product", counting("product", grid_module._product))
    spec = FlowSpec(WILLMORE, noise)
    rng = np.random.default_rng(53)
    dw = np.full(noise.n_modes, 1e-3)
    for dense_max, want in ((64, {"product": 6, "fft": 0}), (0, {"product": 0, "fft": 8})):
        monkeypatch.setattr(grid_module, "_DENSE_MAX_N", dense_max)
        grid = Grid(64)
        f = _band_limited(rng, grid)
        # the first step builds the grid's matrices, which takes FFTs of its own
        integrator._imex_em(spec, grid, f, np.float64(1.3), 1e-4, dw)
        for fields, lengths, w in (
            (f, np.float64(1.3), dw),
            (np.stack([f, f]), np.array([1.3, 1.3]), np.stack([dw, dw])),
        ):
            counts.update(product=0, fft=0)
            integrator._imex_em(spec, grid, fields, lengths, 1e-4, w)
            assert counts == want, (dense_max, fields.shape)


def test_stiff_sign_flip_only_touches_stiff_part():
    rng = np.random.default_rng(43)
    grid = Grid(64)
    noise = NoiseModel(mode="scalar", amplitude=0.3)
    spec = FlowSpec(WILLMORE, noise)
    f = _band_limited(rng, grid)
    normal = assemble(spec, grid, f, 1.7)
    flipped_spec = FlowSpec(WILLMORE, noise, stiff_sign=+1.0)
    flipped = assemble(flipped_spec, grid, f, 1.7)
    assert np.array_equal(flipped.stiff, -normal.stiff)
    assert np.array_equal(flipped.det_f + flipped.corr_f, normal.det_f + normal.corr_f)
    assert flipped.det_L + flipped.corr_L == normal.det_L + normal.corr_L


def test_spec_validation():
    noise = NoiseModel(mode="scalar", amplitude=0.1)
    with pytest.raises(ValueError):
        FlowSpec("mean_curvature", noise)
    with pytest.raises(ValueError):
        FlowSpec(WILLMORE, noise, stiff_sign=0.5)


def test_state_validation():
    grid = Grid(64)
    with pytest.raises(ValueError):
        check_state(grid, np.ones((2, 64)), 1.0)
    with pytest.raises(ValueError):
        check_state(grid, np.ones(64), -1.0)
    with pytest.raises(ValueError):
        check_state(grid, np.ones(64), np.inf)
    with pytest.raises(ValueError):
        check_state(grid, np.ones((3, 64)), np.ones(2))


def test_state_copy_is_independent():
    state = State(np.ones(8), 1.0, time=0.5)
    clone = state.copy()
    clone.f[0] = 99.0
    clone.length = 7.0
    assert state.f[0] == 1.0 and state.length == 1.0 and clone.time == 0.5


def test_basis_table_is_cached_per_noise_model():
    grid = Grid(32)
    model = NoiseModel(mode="spectral", amplitude=0.3, n_modes=4)
    table = flows._basis_table(model, grid)
    assert flows._basis_table(model, grid) is table
    for order in range(4):
        for l in range(1, 5):
            assert np.array_equal(table[order, l - 1], basis_eval(model, grid, l, order))
    # another model on the same grid gets its own table, from its own basis
    other = NoiseModel(mode="spectral", amplitude=0.3, n_modes=4, decay_exponent=7.0)
    assert np.array_equal(flows._basis_table(other, grid)[0, 3], basis_eval(other, grid, 4))
    assert not np.array_equal(flows._basis_table(other, grid), table)
