"""Reconstruction and geometric diagnostics against exactly known curves.

Circles, segments, and arcs have closed-form reconstructions, so the tests
below pin positions, closure gaps, and areas directly.  The ellipse check
builds its state numerically (curvature resampled at equal arclength from a
dense parametrization) and verifies the enclosed area against pi*a*b.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from curveflow.flows import State
from curveflow.geometry import (
    area_advisory,
    closure_defect,
    enclosed_area,
    reconstruct,
)
from curveflow.grid import Grid
from curveflow.harness import main

TWO_PI = 2.0 * np.pi


def unit_circle_state(n=128):
    return State(np.ones(n), TWO_PI)


def test_unit_circle_roundness():
    grid = Grid(128)
    sample = reconstruct(grid, unit_circle_state())
    assert sample.points.shape == (1025, 2)  # default sampling is 1024 segments
    center = sample.points[:-1].mean(axis=0)
    radii = np.hypot(*(sample.points - center).T)
    assert np.abs(radii - 1.0).max() < 1e-6
    assert closure_defect(sample) < 1e-9
    assert sample.theta[-1] - sample.theta[0] == pytest.approx(TWO_PI, abs=1e-12)


def test_unit_circle_area():
    grid = Grid(128)
    sample = reconstruct(grid, unit_circle_state())
    assert abs(enclosed_area(sample) - np.pi) < 1e-4
    # the trapezoid rule in arclength, not the inscribed polygon's shoelace
    # area, which falls about 2e-5 short at 1024 samples
    assert abs(enclosed_area(sample) - np.pi) < 1e-9


def test_clockwise_circle_has_negative_area():
    grid = Grid(128)
    sample = reconstruct(grid, State(-np.ones(128), TWO_PI))
    assert abs(enclosed_area(sample) + np.pi) < 1e-4


def test_circle_spacing_and_arclength():
    # dense sampling: the polyline must be uniformly spaced at L/m and its
    # chord-sum length must reproduce L (both limited only by chord error)
    grid = Grid(128)
    sample = reconstruct(grid, unit_circle_state(), samples=16384)
    segments = np.hypot(*np.diff(sample.points, axis=0).T)
    target = TWO_PI / 16384
    assert np.abs(segments - target).max() / target < 1e-8
    assert abs(segments.sum() - TWO_PI) / TWO_PI < 1e-8


def test_quarter_circle_endpoint():
    # kappa == 1 over length pi/2 starting flat: endpoint (sin, 1-cos) = (1, 1);
    # a turning of pi/2 does not close, and the polyline keeps the gap
    grid = Grid(64)
    sample = reconstruct(grid, State(np.ones(64), np.pi / 2.0))
    assert np.abs(sample.points[-1] - np.array([1.0, 1.0])).max() < 1e-6


def test_half_circle_diameter_gap():
    # half turn of curvature 1: endpoints sit a diameter (= 2) apart
    grid = Grid(128)
    sample = reconstruct(grid, State(np.ones(128), np.pi))
    assert abs(closure_defect(sample) - 2.0) < 1e-6


def test_flat_state_is_a_straight_segment():
    grid = Grid(64)
    sample = reconstruct(grid, State(np.zeros(64), 5.0))
    assert np.array_equal(sample.points[:, 1], np.zeros(1025))
    assert np.allclose(sample.points[:, 0], 5.0 * np.arange(1025) / 1024, rtol=0, atol=1e-14)


def test_flat_closed_state_measures_its_own_defect():
    """Zero curvature on a closed grid is an honest non-closing polyline,
    whose area is returned but advisory; a closed circle's is not."""
    grid = Grid(64)
    sample = reconstruct(grid, State(np.zeros(64), 5.0))
    assert closure_defect(sample) == 5.0
    assert enclosed_area(sample) == 0.0
    assert area_advisory(sample)
    assert not area_advisory(reconstruct(Grid(128), unit_circle_state()))


def test_doubly_wound_circle():
    # f = 4 pi on unit length turns twice around a circle of radius 1/(4 pi);
    # the area integral then counts the disc twice
    grid = Grid(64)
    sample = reconstruct(grid, State(np.full(64, 4.0 * np.pi), 1.0))
    assert closure_defect(sample) < 1e-9
    assert sample.theta[-1] - sample.theta[0] == pytest.approx(4.0 * np.pi, abs=1e-12)
    radius = 1.0 / (4.0 * np.pi)
    assert abs(enclosed_area(sample) - 2.0 * np.pi * radius**2) < 1e-5


def test_ellipse_area():
    a, b = 1.2, 0.9
    phi = np.linspace(0.0, TWO_PI, 400001)
    speed = np.hypot(a * np.sin(phi), b * np.cos(phi))
    s = np.concatenate(
        [[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(phi))]
    )
    length = s[-1]
    grid = Grid(256)
    phi_nodes = np.interp(grid.nodes * length, s, phi)
    kappa = a * b / np.hypot(a * np.sin(phi_nodes), b * np.cos(phi_nodes)) ** 3
    state = State(kappa, length)
    assert abs(length * grid.integrate(kappa) - TWO_PI) < 1e-8  # sanity: one turn
    sample = reconstruct(grid, state)
    assert closure_defect(sample) < 1e-8
    assert abs(enclosed_area(sample) - np.pi * a * b) < 5e-3


def test_reconstruction_equivariance():
    """anchor/theta0 act exactly as a rigid motion of the base reconstruction."""
    grid = Grid(64)
    state = State(1.0 + 0.2 * np.cos(TWO_PI * grid.nodes), TWO_PI)
    base = reconstruct(grid, state)
    rng = np.random.default_rng(2)
    for _ in range(5):
        angle = rng.uniform(0.0, TWO_PI)
        shift = rng.standard_normal(2)
        moved = reconstruct(grid, state, anchor=tuple(shift), theta0=angle)
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        predicted = (base.points - base.points[0]) @ rot.T + shift
        assert np.abs(moved.points - predicted).max() < 1e-10


@pytest.mark.parametrize("length", [-1.0, 0.0, np.nan, np.inf])
def test_functionals_and_reconstruct_refuse_bad_lengths(length):
    grid = Grid(8)
    with pytest.raises(ValueError, match="positive and finite"):
        reconstruct(grid, State(np.ones(8), length))


def test_write_csv_round_trip(tmp_path, capsys):
    # the reconstruct command writes the polyline of reconstruct itself
    grid = Grid(64)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"f": [1.0] * 64, "length": TWO_PI}))
    path = tmp_path / "curve.csv"
    argv = ["reconstruct", "--state", str(state_path), "--samples", "64", "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    sample = reconstruct(grid, unit_circle_state(64), samples=64)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y"]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    assert data.shape == sample.points.shape
    assert np.array_equal(data, sample.points)  # 17 digits is lossless
    # the same bytes as the per-cell csv.writer export, with LF line ends
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y"])
        for x, y in sample.points:
            writer.writerow([f"{x:.17g}", f"{y:.17g}"])
    assert path.read_bytes() == reference.read_bytes()


def _theta_by_resample_and_cumint(grid, f, length, theta0, m):
    """Tangent angle by the two-grid route: resample f to m nodes, then the
    m-node grid's running integral and mean."""
    work = Grid(m)
    fm = grid.resample(f, m) if m != grid.n else f
    theta = np.empty(m + 1)
    theta[:m] = theta0 + length * work.cumint(fm)
    theta[m] = theta0 + length * work.integrate(fm)
    return theta


@pytest.mark.parametrize("m", [1024, 256, 64, 16])
def test_theta_matches_resample_then_cumint(m):
    grid = Grid(64)
    rng = np.random.default_rng(5)
    f = 1.0 + 0.3 * rng.standard_normal(64)  # every mode, the Nyquist one included
    sample = reconstruct(grid, State(f, 2.5), theta0=0.7, samples=m)
    reference = _theta_by_resample_and_cumint(grid, f, 2.5, 0.7, m)
    assert np.max(np.abs(sample.theta - reference)) < 1e-13


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("samples", [None, 64])
def test_stacked_rows_equal_single_states(n, samples):
    """Row i of a stacked reconstruction gives the bits of a single
    reconstruction of state i, diagnostics included.  The 17 rows outnumber
    the 15 that a simulate block holds at the default 1024 samples."""
    grid = Grid(n)
    rng = np.random.default_rng(n)
    lengths = rng.uniform(0.5, 8.0, 17)
    k = np.arange(1, 6)
    wobble = (rng.standard_normal((17, 5)) / k) @ np.cos(TWO_PI * np.outer(k, grid.nodes))
    f = (TWO_PI / lengths[:, None]) * (1.0 + 0.1 * wobble)  # one turn each
    f[::4] = TWO_PI / lengths[::4, None]  # circles, which close
    stack = reconstruct(grid, State(f, lengths), anchor=(0.3, -1.2), theta0=0.7, samples=samples)
    defect, area, advisory = closure_defect(stack), enclosed_area(stack), area_advisory(stack)
    assert set(advisory.tolist()) == {False, True}
    for i in range(17):
        single = reconstruct(
            grid, State(f[i], lengths[i]), anchor=(0.3, -1.2), theta0=0.7, samples=samples
        )
        assert np.array_equal(stack.points[i], single.points)
        assert np.array_equal(stack.theta[i], single.theta)
        assert closure_defect(single) == defect[i]
        assert enclosed_area(single) == area[i]
        assert area_advisory(single) == advisory[i]


def test_reconstruct_validation():
    grid = Grid(64)
    state = unit_circle_state(64)
    with pytest.raises(ValueError):
        reconstruct(grid, state, samples=7)  # too few
    with pytest.raises(ValueError):
        reconstruct(grid, state, samples=129)  # odd
    with pytest.raises(ValueError, match="length batch shape"):
        reconstruct(grid, State(np.ones((2, 64)), TWO_PI))
    # a stack with one length per row reconstructs, row by row
    stack = reconstruct(grid, State(np.ones((2, 3, 64)), np.full((2, 3), TWO_PI)))
    single = reconstruct(grid, state)
    assert stack.points.shape == (2, 3, 1025, 2)
    assert stack.tangent.shape == (2, 3, 2, 1025)
    assert np.array_equal(stack.points[1, 2], single.points)
    assert np.array_equal(enclosed_area(stack), np.full((2, 3), enclosed_area(single)))
    with pytest.raises(ValueError):
        reconstruct(grid, State(np.ones(64), -1.0))
