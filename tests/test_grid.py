"""Spatial discretization: derivatives, quadrature, stiff solves, resampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from curveflow import grid as grid_module
from curveflow.grid import Grid, cumulative_quadrature

TWO_PI = 2.0 * math.pi


def test_closed_derivatives_of_single_mode():
    g = Grid(64)
    r = g.nodes
    f = np.cos(TWO_PI * 3 * r)
    w = TWO_PI * 3
    assert np.max(np.abs(g.deriv(f, 1) + w * np.sin(w * r))) < 1e-10
    assert np.max(np.abs(g.deriv(f, 2) + w**2 * f)) < 1e-9
    assert np.max(np.abs(g.deriv(f, 3) - w**3 * np.sin(w * r))) < 1e-7
    assert np.max(np.abs(g.deriv(f, 4) - w**4 * f)) < 1e-6


def test_closed_fourth_derivative_small_grid():
    # round-off in the fourth derivative scales like (pi*n)^4 * eps, so the
    # tight bound is checked where the prefactor is small
    g = Grid(16)
    r = g.nodes
    f = np.sin(TWO_PI * r)
    assert np.max(np.abs(g.deriv(f, 4) - TWO_PI**4 * f)) < 1e-8


def test_closed_derivative_rejects_bad_order():
    g = Grid(16)
    f = np.zeros(16)
    with pytest.raises(ValueError):
        g.deriv(f, 0)
    with pytest.raises(ValueError):
        g.deriv(f, 5)


def test_integrate_closed_is_mean():
    g = Grid(32)
    f = 2.5 + np.cos(TWO_PI * g.nodes)
    assert abs(g.integrate(f) - 2.5) < 1e-14


@pytest.mark.parametrize("n", [64, 256])
def test_integrate_is_mean_bitwise(n):
    """The sum over n is what np.mean computes, bit for bit, for single
    fields and stacks alike."""
    rng = np.random.default_rng(59)
    g = Grid(n)
    for shape in ((n,), (5, n), (300, n)):
        v = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
        got, want = np.asarray(g.integrate(v)), np.asarray(np.mean(v, axis=-1))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_cumint_closed():
    g = Grid(64)
    r = g.nodes
    f = np.cos(TWO_PI * r)
    assert np.max(np.abs(g.cumint(f) - np.sin(TWO_PI * r) / TWO_PI)) < 1e-13
    # the mean part comes back as an exact ramp
    assert np.max(np.abs(g.cumint(np.ones(64)) - r)) == 0.0


def test_cumulative_quadrature_cubic_exact():
    m = 21
    x = np.linspace(0.0, 2.0, m)
    h = x[1] - x[0]
    vals = x**3 - x
    out = cumulative_quadrature(vals, h)
    assert np.max(np.abs(out - (x**4 / 4.0 - x**2 / 2.0))) < 1e-12


def test_cumulative_quadrature_needs_enough_points():
    with pytest.raises(ValueError):
        cumulative_quadrature(np.ones(3), 0.1)


def test_solve_stiff_closed_residual():
    g = Grid(64)
    rhs = np.exp(np.cos(TWO_PI * g.nodes))
    length, dt = 1.7, 1e-3
    u = g.solve_stiff(rhs, length, dt, mean=g.integrate(rhs))[0]  # the division keeps the mean
    residual = u + dt * g.deriv(u, 4) / length**4 - rhs
    assert np.max(np.abs(residual)) < 1e-10


def test_solve_stiff_batched_lengths_match_loop():
    g = Grid(32)
    gen = np.random.Generator(np.random.PCG64(5))
    rhs = gen.standard_normal((4, 32))
    lengths = np.array([0.7, 1.0, 2.0, 5.5])
    batched = g.solve_stiff(rhs, lengths, 1e-3, mean=g.integrate(rhs))
    for i in range(4):
        single = g.solve_stiff(rhs[i], lengths[i], 1e-3, mean=g.integrate(rhs[i]))
        assert np.array_equal(batched[:, i], single)


def test_solve_stiff_to_a_mean_returns_its_derivatives(monkeypatch):
    """Given a mean, the stiff solve sets the solution's mean to it, leaves
    the other modes as they are, and returns [x, x', x''] on both routes,
    for a lone field and a batch; the derivatives agree with ``derivs`` of
    x to round-off, and a batch row equals the lone field bitwise.  The
    reference for the other modes is a plain per-mode division."""
    gen = np.random.Generator(np.random.PCG64(37))
    k4 = (TWO_PI * np.arange(33)) ** 4
    for dense_max in (64, 0):
        monkeypatch.setattr(grid_module, "_DENSE_MAX_N", dense_max)
        g = Grid(64)
        rhs = np.exp(np.cos(TWO_PI * g.nodes) + gen.standard_normal((3, 1)))
        lengths, means = np.array([0.7, 1.3, 2.0]), np.array([0.5, -1.0, 3.0])
        out = g.solve_stiff(rhs, lengths, 1e-3, mean=means)
        assert out.shape == (3, 3, 64)
        plain = np.fft.irfft(np.fft.rfft(rhs) / (1.0 + 1e-3 * k4 / lengths[:, None] ** 4), 64)
        shifted = plain - g.integrate(plain)[:, None] + means[:, None]
        assert np.max(np.abs(out[0] - shifted)) < 1e-13
        assert np.max(np.abs(g.integrate(out[0]) - means)) < 1e-15
        derivs = g.derivs(out[0], (1, 2))
        scale = np.max(np.abs(derivs), axis=-1)[..., None]
        assert np.max(np.abs(out[1:] - derivs) / scale) < 1e-11
        for i in range(3):
            lone = g.solve_stiff(rhs[i], lengths[i], 1e-3, mean=means[i])
            assert lone.tobytes() == out[:, i].tobytes(), (dense_max, i)


def test_batched_ops_match_single():
    g = Grid(32)
    gen = np.random.Generator(np.random.PCG64(11))
    f = gen.standard_normal((5, 32))
    for op in (lambda x: g.deriv(x, 2), g.integrate, g.cumint):
        batched = op(f)
        for i in range(5):
            assert np.array_equal(batched[i], op(f[i]))


def test_stacked_helpers_match_per_field_ops():
    # derivs and cumint act on a (fields, paths, n) stack in one pass; each
    # slice must equal the per-field operation bit for bit, which is what
    # makes a batch row equal a single path
    n = 32
    g = Grid(n)
    gen = np.random.Generator(np.random.PCG64(13))
    r = g.nodes
    stack = np.empty((3, 4, n))
    for idx in np.ndindex(3, 4):
        stack[idx] = 1.0 + sum(
            gen.standard_normal() / m**2 * np.cos(TWO_PI * m * r + gen.random())
            for m in range(1, 5)
        )
    orders = (1, 2, 4)
    derivs = g.derivs(stack, orders)
    running = g.cumint(stack)
    assert derivs.shape == (3,) + stack.shape and running.shape == stack.shape
    for idx in np.ndindex(3, 4):
        for k, order in enumerate(orders):
            assert np.array_equal(derivs[(k,) + idx], g.deriv(stack[idx], order))
        assert np.array_equal(running[idx], g.cumint(stack[idx]))


def test_dense_batch_rows_match_single_fields_bitwise():
    """On every dense grid, each row of an M-row batch equals the operator on
    that row alone, bit for bit: a lone field is centred into two or more
    identical rows (never a GEMV), one per derivative order and two for one
    order, whether it comes as (n,) or as a (1, n) batch, and every matrix's
    width is a multiple of 8.  A BLAS kernel that rounds a row differently
    with the row count fails here."""
    gen = np.random.Generator(np.random.PCG64(29))
    ops = {
        "derivs(2)": lambda g, v, L: g.derivs(v, (2,)),
        "derivs(1, 2)": lambda g, v, L: g.derivs(v, (1, 2)),
        "derivs(1, 2, 4)": lambda g, v, L: g.derivs(v, (1, 2, 4)),
        "derivs(1, 2, 3, 4)": lambda g, v, L: g.derivs(v, (1, 2, 3, 4)),
        "cumint": lambda g, v, L: g.cumint(v),
        "solve_stiff": lambda g, v, L: g.solve_stiff(v, L, 1e-3, mean=g.integrate(v))[0],
        "solve_stiff(mean)": lambda g, v, L: g.solve_stiff(v, L, 1e-3, mean=1.0 / L),
    }
    for n in range(8, grid_module._DENSE_MAX_N + 1, 2):
        g = Grid(n)
        fields = gen.standard_normal((256, n))
        lengths = 0.5 + gen.random(256)
        for name, op in ops.items():
            single = np.stack([op(g, fields[i], lengths[i]) for i in range(256)], axis=-2)
            for m in (1, 2, 3, 5, 17, 256):
                batch = op(g, fields[:m], lengths[:m])
                assert batch.tobytes() == single[..., :m, :].tobytes(), (n, name, m)


def test_dense_and_fft_routes_agree(monkeypatch):
    """The dense products reproduce the FFT route to round-off on
    band-limited fields, and map a constant exactly: derivatives to 0, the
    running integral to c * r and the stiff solve to c.  Each leg is checked
    to take its route: FFT calls on the FFT leg, none on the dense one.  Each
    leg makes its own grid, whose route is fixed when it is made."""
    ffts = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            ffts.append(fn)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.fft, "rfft", counting(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counting(np.fft.irfft))
    gen = np.random.Generator(np.random.PCG64(31))
    for n in (16, 64):
        r = Grid(n).nodes
        fields = 1.0 + sum(
            gen.standard_normal((3, 1)) / k**2 * np.cos(TWO_PI * k * r + gen.random((3, 1)))
            for k in range(1, n // 4)
        )
        lengths = np.array([0.6, 1.0, 3.0])
        results, calls = {}, {}
        for dense_max in (n, 0):
            monkeypatch.setattr(grid_module, "_DENSE_MAX_N", dense_max)
            g = Grid(n)  # the route is fixed here, from n alone
            for _ in range(2):  # the first dense pass builds the matrices through FFTs
                del ffts[:]
                results[dense_max] = [
                    *g.derivs(fields, (1, 2, 3, 4)),
                    g.cumint(fields),
                    g.solve_stiff(fields, lengths, 1e-3, mean=g.integrate(fields))[0],
                    *g.solve_stiff(fields, lengths, 1e-3, mean=lengths),
                ]
            calls[dense_max] = len(ffts)
        assert calls[n] == 0 and calls[0] > 0, calls
        for dense, fft in zip(results[n], results[0]):
            assert np.max(np.abs(dense - fft)) <= 1e-12 * np.max(np.abs(fft)), n
        monkeypatch.setattr(grid_module, "_DENSE_MAX_N", n)
        g = Grid(n)
        for c in (1.0, -2.5, 1e-300):
            const = np.full((2, n), c)
            assert not np.any(g.derivs(const, (1, 2, 3, 4)))
            assert np.array_equal(g.cumint(const), c * np.broadcast_to(r, (2, n)))
            pair = np.array([0.5, 2.0])
            assert np.array_equal(g.solve_stiff(const, pair, 1e-3, mean=c)[0], const)
            assert np.array_equal(g.cumint(const[0]), c * r)
            assert np.array_equal(g.solve_stiff(const[0], 0.5, 1e-3, mean=c)[0], const[0])
            stacked = g.solve_stiff(const, pair, 1e-3, mean=np.full(2, c))
            assert np.array_equal(stacked[0], const) and not np.any(stacked[1:])


def test_resample_round_trip():
    g = Grid(32)
    f = np.exp(np.sin(TWO_PI * g.nodes))
    up = g.resample(f, 128)
    g2 = Grid(128)
    back = g2.resample(up, 32)
    assert np.max(np.abs(back - f)) < 1e-13
    assert np.max(np.abs(g.resample(np.full(32, 3.0), 64) - 3.0)) < 1e-14


def test_resample_interpolates_modes():
    g = Grid(16)
    f = np.cos(TWO_PI * 2 * g.nodes)
    fine = g.resample(f, 64)
    g2 = Grid(64)
    assert np.max(np.abs(fine - np.cos(TWO_PI * 2 * g2.nodes))) < 1e-13


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(15)  # the real transforms pair modes, so n is even
    with pytest.raises(ValueError):
        Grid(6)
    with pytest.raises(ValueError):
        Grid("closed")


def test_check_field():
    g = Grid(16)
    with pytest.raises(ValueError):
        g.check_field(np.zeros(17))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        g.check_field(bad)
