"""Spatial discretization: derivatives, quadrature, stiff solves, resampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from curveflow.grid import CLOSED, OPEN, Grid, cumulative_quadrature

TWO_PI = 2.0 * math.pi


def test_closed_derivatives_of_single_mode():
    g = Grid(CLOSED, 64)
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
    g = Grid(CLOSED, 16)
    r = g.nodes
    f = np.sin(TWO_PI * r)
    assert np.max(np.abs(g.deriv(f, 4) - TWO_PI**4 * f)) < 1e-8


def test_closed_derivative_rejects_bad_order():
    g = Grid(CLOSED, 16)
    f = np.zeros(16)
    with pytest.raises(ValueError):
        g.deriv(f, 0)
    with pytest.raises(ValueError):
        g.deriv(f, 5)


def test_open_derivatives_exact_on_polynomials():
    g = Grid(OPEN, 33)
    r = g.nodes
    assert np.max(np.abs(g.deriv(r**2, 2) - 2.0)) < 1e-10
    assert np.max(np.abs(g.deriv(r**3, 3) - 6.0)) < 1e-8
    assert np.max(np.abs(g.deriv(r**4, 4) - 24.0)) < 1e-6


def test_open_derivative_convergence_rate():
    errs = []
    for n in (33, 65):
        g = Grid(OPEN, n)
        f = np.sin(2.0 * g.nodes)
        errs.append(np.max(np.abs(g.deriv(f, 1) - 2.0 * np.cos(2.0 * g.nodes))))
    assert errs[0] / errs[1] > 12.0  # fourth order: ideal ratio 16


def test_integrate_closed_is_mean():
    g = Grid(CLOSED, 32)
    f = 2.5 + np.cos(TWO_PI * g.nodes)
    assert abs(g.integrate(f) - 2.5) < 1e-14


def test_integrate_open_polynomial():
    g = Grid(OPEN, 101)
    assert abs(g.integrate(g.nodes**2) - 1.0 / 3.0) < 1e-14


def test_integrate_open_smooth_convergence():
    exact = 1.0 - math.cos(1.0)
    errs = []
    for n in (17, 33):
        g = Grid(OPEN, n)
        errs.append(abs(g.integrate(np.sin(g.nodes)) - exact))
    assert errs[0] / max(errs[1], 1e-300) > 12.0


def test_cumint_closed():
    g = Grid(CLOSED, 64)
    r = g.nodes
    f = np.cos(TWO_PI * r)
    assert np.max(np.abs(g.cumint(f) - np.sin(TWO_PI * r) / TWO_PI)) < 1e-13
    # the mean part comes back as an exact ramp
    assert np.max(np.abs(g.cumint(np.ones(64)) - r)) == 0.0


def test_cumint_open_cubic():
    g = Grid(OPEN, 41)
    r = g.nodes
    assert np.max(np.abs(g.cumint(r**3) - r**4 / 4.0)) < 1e-14


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
    g = Grid(CLOSED, 64)
    rhs = np.exp(np.cos(TWO_PI * g.nodes))
    length, dt = 1.7, 1e-3
    u = g.solve_stiff(rhs, length, dt)
    residual = u + dt * g.deriv(u, 4) / length**4 - rhs
    assert np.max(np.abs(residual)) < 1e-10


def test_solve_stiff_open_residual():
    g = Grid(OPEN, 33)
    rhs = np.sin(2.0 * g.nodes) + 1.0
    length, dt = 0.9, 5e-4
    u = g.solve_stiff(rhs, length, dt)
    residual = u + dt * g.deriv(u, 4) / length**4 - rhs
    assert np.max(np.abs(residual)) < 1e-9


def test_solve_stiff_batched_lengths_match_loop():
    g = Grid(CLOSED, 32)
    gen = np.random.Generator(np.random.PCG64(5))
    rhs = gen.standard_normal((4, 32))
    lengths = np.array([0.7, 1.0, 2.0, 5.5])
    batched = g.solve_stiff(rhs, lengths, 1e-3)
    for i in range(4):
        single = g.solve_stiff(rhs[i], lengths[i], 1e-3)
        assert np.array_equal(batched[i], single)


def test_stiff_symbol_rejects_nonpositive_length():
    g = Grid(CLOSED, 16)
    with pytest.raises(ValueError):
        g.stiff_symbol(0.0)
    with pytest.raises(ValueError):
        g.stiff_symbol(-1.0)


def test_batched_ops_match_single():
    g = Grid(CLOSED, 32)
    gen = np.random.Generator(np.random.PCG64(11))
    f = gen.standard_normal((5, 32))
    for op in (lambda x: g.deriv(x, 2), g.integrate, g.cumint):
        batched = op(f)
        for i in range(5):
            assert np.array_equal(batched[i], op(f[i]))


@pytest.mark.parametrize("topology,n", [(CLOSED, 32), (OPEN, 33)])
def test_stacked_helpers_match_per_field_ops(topology, n):
    # derivs and cumint act on a (fields, paths, n) stack in one pass; each
    # slice must equal the per-field operation bit for bit, which is what
    # makes a batch row equal a single path on either topology
    g = Grid(topology, n)
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


def test_resample_round_trip():
    g = Grid(CLOSED, 32)
    f = np.exp(np.sin(TWO_PI * g.nodes))
    up = g.resample(f, 128)
    g2 = Grid(CLOSED, 128)
    back = g2.resample(up, 32)
    assert np.max(np.abs(back - f)) < 1e-13
    assert np.max(np.abs(g.resample(np.full(32, 3.0), 64) - 3.0)) < 1e-14


def test_resample_interpolates_modes():
    g = Grid(CLOSED, 16)
    f = np.cos(TWO_PI * 2 * g.nodes)
    fine = g.resample(f, 64)
    g2 = Grid(CLOSED, 64)
    assert np.max(np.abs(fine - np.cos(TWO_PI * 2 * g2.nodes))) < 1e-13


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(CLOSED, 15)  # closed grids must be even
    with pytest.raises(ValueError):
        Grid(OPEN, 5)
    with pytest.raises(ValueError):
        Grid("moebius", 16)


def test_check_field():
    g = Grid(CLOSED, 16)
    with pytest.raises(ValueError):
        g.check_field(np.zeros(17))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        g.check_field(bad)
