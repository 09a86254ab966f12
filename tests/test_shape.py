import functools
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (exhaustive_lattice_min, gauss_newton, random_skew, reference_cell_fit,
                      reference_refine, reference_tied_step, smooth_curve, stepped_curve)
import dilshape
from dilshape import shape
from dilshape.corr import estimate_ensemble_correlation, gen_pc_process
from dilshape.curves import (MAX_GRID, ManifoldCurve, close_curve, from_dilation,
                             spline_resample)
from dilshape.dilation import build_dilation_sequence, extract_schur_params
from dilshape.errors import (
    DegenerateCurve,
    DilshapeError,
    DimMismatch,
    GridMismatch,
    NotClosed,
    OutOfRange,
    VanishingVelocity,
)
from dilshape.shape import (
    Reparametrization,
    closed_shape_distance,
    curve_distance,
    geodesic_between,
    karcher_mean,
    shape_distance,
    tsrv,
    tsrv_inverse,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def warp_score(q0, q1, phi):
    """Score of warp nodes phi of q1 against q0, on the cells they span."""
    cells = phi.size - 1
    return shape._scored(phi, shape._pl_at(q0, (np.arange(cells) + 0.5) / cells), q1)


def so2_curve(theta_fn, n):
    pts = np.stack([expm(theta_fn(k / n) * J2) for k in range(n + 1)])
    return ManifoldCurve(points=pts)


class TestTransform:
    def test_round_trip(self):
        c = stepped_curve(np.random.default_rng(1), 12, 3)
        back = tsrv_inverse(tsrv(c), c.points[0])
        assert np.abs(back.points - c.points).max() < 1e-12

    def test_transform_of_inverse(self):
        c = stepped_curve(np.random.default_rng(2), 9, 4)
        q = tsrv(c)
        again = tsrv(tsrv_inverse(q, c.points[0]))
        assert np.abs(again - q).max() < 1e-12

    def test_constant_curve_rejected(self):
        pts = np.stack([np.eye(3)] * 5)
        with pytest.raises(VanishingVelocity):
            tsrv(ManifoldCurve(points=pts))


def reference_inverse(start, q):
    """x_{k+1} = expm(q_k |q_k| / N) x_k, one scipy expm per segment."""
    n = q.shape[0]
    pts = [start]
    for qk in q:
        step = qk * (np.sqrt(np.sum(qk * qk)) / n)
        pts.append(expm(0.5 * (step - step.T)) @ pts[-1])
    return np.stack(pts)


REFERENCE_CURVES = {
    "smooth": lambda: smooth_curve(np.linspace(0.0, 1.0, 41)),
    "stepped": lambda: stepped_curve(np.random.default_rng(14), 40, 3),
}


class TestInverseMatchesPerSampleReference:
    @pytest.mark.parametrize("kind", sorted(REFERENCE_CURVES))
    def test_tsrv_inverse(self, kind):
        c = REFERENCE_CURVES[kind]()
        ref = reference_inverse(c.points[0], tsrv(c))
        assert np.abs(tsrv_inverse(tsrv(c), c.points[0]).points - ref).max() < 1e-13

    @pytest.mark.parametrize("kind", sorted(REFERENCE_CURVES))
    def test_geodesic_between(self, kind):
        c0 = REFERENCE_CURVES[kind]()
        c1 = stepped_curve(np.random.default_rng(15), 40, 3)
        mix = 0.7 * tsrv(c0) + 0.3 * tsrv(c1)
        ref = reference_inverse(np.eye(3), mix)
        assert np.abs(geodesic_between(c0, c1, 0.3).points - ref).max() < 1e-13


class TestReparametrization:
    def test_call_interpolates(self):
        phi = Reparametrization(values=np.array([0.0, 0.8, 1.0]))
        assert phi(0.25) == pytest.approx(0.4)

    def test_rejects_bad_endpoints(self):
        with pytest.raises(GridMismatch):
            Reparametrization(values=np.array([0.1, 1.0]))

    def test_rejects_decreasing(self):
        with pytest.raises(GridMismatch):
            Reparametrization(values=np.array([0.0, 0.7, 0.5, 1.0]))

    @pytest.mark.parametrize("values", [np.array([0.0, np.nan, 1.0]), [0.0, 0.5, 1.0],
                                        np.array(["0", "1"])])
    def test_rejects_non_finite_and_non_arrays(self, values):
        with pytest.raises(OutOfRange):
            Reparametrization(values=values)

    def test_holds_no_attribute_dict(self):
        # Distance matrices and means keep many warps: each holds its values only.
        phi = Reparametrization(values=np.array([0.0, 0.5, 1.0]))
        assert not hasattr(phi, "__dict__")
        assert Reparametrization.__slots__ == ("values",)
        with pytest.raises(AttributeError):
            phi.values = np.array([0.0, 1.0])

    @pytest.mark.parametrize("values, error", [
        (np.array([0.0, np.inf]), OutOfRange), (np.array([0, 1], dtype=complex), OutOfRange),
        (np.array([0.5]), GridMismatch), (np.zeros((2, 2)), GridMismatch),
        (np.array([0.0, 0.9]), GridMismatch), (np.array([0.0, 0.6, 0.4, 1.0]), GridMismatch)])
    def test_every_rule_still_raises(self, values, error):
        with pytest.raises(error):
            Reparametrization(values=values)


class TestCurveDistance:
    def test_requires_same_grid(self):
        rng = np.random.default_rng(4)
        with pytest.raises(GridMismatch):
            curve_distance(stepped_curve(rng, 5, 3), stepped_curve(rng, 6, 3))

    def test_requires_same_dim(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DimMismatch):
            curve_distance(stepped_curve(rng, 5, 3), stepped_curve(rng, 5, 4))

    def test_requires_identity_start(self):
        rng = np.random.default_rng(5)
        c = stepped_curve(rng, 5, 3)
        shifted = ManifoldCurve(points=np.einsum(
            "kij,jl->kil", c.points, c.points[2].T.copy()))
        with pytest.raises(GridMismatch):
            curve_distance(c, shifted)

    def test_zero_on_equal_curves(self):
        c = stepped_curve(np.random.default_rng(6), 7, 3)
        assert curve_distance(c, c) == 0.0

    def test_builds_no_lattice(self):
        # 3,000 segments set a default alignment grid past MAX_GRID, which
        # binds only comparisons that align.
        rng = np.random.default_rng(41)
        c0, c1 = (spline_resample(stepped_curve(rng, 10, 3), 3000) for _ in range(2))
        assert 2 * c0.segments > MAX_GRID
        assert curve_distance(c0, c1) > 0.0
        assert geodesic_between(c0, c1, 0.5).segments == 3000
        with pytest.raises(GridMismatch):
            shape_distance(c0, c1, grid=None)


class TestGeodesicBetween:
    def test_endpoints(self):
        rng = np.random.default_rng(7)
        c0, c1 = stepped_curve(rng, 8, 3), stepped_curve(rng, 8, 3)
        assert np.abs(geodesic_between(c0, c1, 0.0).points - c0.points).max() < 1e-9
        assert np.abs(geodesic_between(c0, c1, 1.0).points - c1.points).max() < 1e-9

    def test_repeated_sample_is_accepted(self):
        # A held sample is a zero segment: the distances accept it, and so
        # must the geodesic, which reproduces both ends.
        rng = np.random.default_rng(9)
        c0, c1 = stepped_curve(rng, 8, 3), stepped_curve(rng, 8, 3)
        pts = np.concatenate([c0.points[:4], c0.points[3:8]])
        held = ManifoldCurve(points=pts)
        assert np.abs(geodesic_between(held, c1, 0.0).points - pts).max() < 1e-12
        assert np.abs(geodesic_between(held, c1, 1.0).points - c1.points).max() < 1e-12

    def test_flat_coordinates_move_linearly(self):
        rng = np.random.default_rng(8)
        c0, c1 = stepped_curve(rng, 8, 3), stepped_curve(rng, 8, 3)
        qs = [tsrv(geodesic_between(c0, c1, s)) for s in (0.0, 0.25, 0.5)]
        second = qs[0] - 2.0 * qs[1] + qs[2]
        assert np.abs(second).max() < 1e-12

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_parameter_is_out_of_range(self, s):
        rng = np.random.default_rng(10)
        c0, c1 = stepped_curve(rng, 8, 3), stepped_curve(rng, 8, 3)
        with pytest.raises(OutOfRange, match="path parameter"):
            geodesic_between(c0, c1, s)


class TestShapeDistance:
    def test_self_distance_is_zero_with_identity_warp(self):
        c = stepped_curve(np.random.default_rng(9), 10, 3)
        d, phi = shape_distance(c, c, grid=20)
        assert d < 1e-9
        grid = np.linspace(0.0, 1.0, phi.values.size)
        assert np.abs(phi.values - grid).max() < 1e-12

    @pytest.mark.parametrize("grid", [12.5, float("nan"), 20.0])
    def test_rejects_non_integer_grid(self, grid):
        c = stepped_curve(np.random.default_rng(9), 10, 3)
        with pytest.raises(OutOfRange):
            shape_distance(c, c, grid=grid)

    def test_never_exceeds_curve_distance(self):
        rng = np.random.default_rng(10)
        for _ in range(4):
            c0, c1 = stepped_curve(rng, 14, 3), stepped_curve(rng, 14, 3)
            d, _ = shape_distance(c0, c1, grid=28)
            assert d <= curve_distance(c0, c1) + 1e-12

    def test_symmetry_within_two_percent(self):
        rng = np.random.default_rng(11)
        c0, c1 = stepped_curve(rng, 16, 3), stepped_curve(rng, 16, 3)
        d01, _ = shape_distance(c0, c1, grid=32)
        d10, _ = shape_distance(c1, c0, grid=32)
        assert abs(d01 - d10) <= 0.02 * max(d01, d10)

    def test_grid_doubling_within_two_percent(self):
        rng = np.random.default_rng(12)
        c0, c1 = stepped_curve(rng, 12, 3), stepped_curve(rng, 12, 3)
        d1, _ = shape_distance(c0, c1, grid=24)
        d2, _ = shape_distance(c0, c1, grid=48)
        assert abs(d1 - d2) <= 0.02 * max(d1, d2)

    def test_accepts_different_segment_counts(self):
        rng = np.random.default_rng(13)
        c0, c1 = stepped_curve(rng, 10, 3), stepped_curve(rng, 14, 3)
        d, _ = shape_distance(c0, c1, grid=28)
        assert d >= 0.0

    def test_grid_below_resolution_rejected(self):
        rng = np.random.default_rng(14)
        c0, c1 = stepped_curve(rng, 10, 3), stepped_curve(rng, 10, 3)
        with pytest.raises(GridMismatch):
            shape_distance(c0, c1, grid=5)

    def test_lattice_past_the_cap_rejected(self):
        # The lattice side is the multiple of the first curve's 10 segments
        # at least the grid: 4,090 for a grid of 4,090, 4,100 for 4,091.
        rng = np.random.default_rng(14)
        c0, c1 = stepped_curve(rng, 10, 3), stepped_curve(rng, 7, 3)
        assert 4090 <= MAX_GRID < 4100
        with pytest.raises(GridMismatch, match="lattice side 4100"):
            shape_distance(c0, c1, grid=4091)
        closed = [close_curve(stepped_curve(rng, k, 3)) for k in (9, 6)]
        with pytest.raises(GridMismatch, match="lattice side 4100"):
            closed_shape_distance(*closed, grid=4091)
        with pytest.raises(GridMismatch, match="lattice side 4100"):
            karcher_mean([c0, stepped_curve(rng, 10, 3)], grid=4091)

    def test_degenerate_curve_rejected(self):
        c = stepped_curve(np.random.default_rng(15), 6, 3)
        flat = ManifoldCurve(points=np.stack([np.eye(3)] * 7))
        with pytest.raises(DegenerateCurve):
            shape_distance(c, flat, grid=12)

    def test_triangle_inequality_on_flat_curves(self):
        # Commuting case: all curves live on one rotation plane, where the
        # comparison reduces to scalar square-root-velocity matching.
        n = 24
        a = so2_curve(lambda t: 1.8 * t, n)
        b = so2_curve(lambda t: 0.9 * t + 0.45 * t * t, n)
        c = so2_curve(lambda t: 0.5 * t + 0.2 * np.sin(np.pi * t), n)
        dab, _ = shape_distance(a, b, grid=2 * n)
        dbc, _ = shape_distance(b, c, grid=2 * n)
        dac, _ = shape_distance(a, c, grid=2 * n)
        assert dac <= 1.01 * (dab + dbc) + 1e-12


# Every step (a, b) with a, b <= 3, the multiples of the unit diagonal
# included: the search over the coprime ones must lose nothing against them.
ALL_STEPS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))


class TestLatticeSearchMatchesExhaustive:
    def test_matches_on_small_grids(self):
        rng = np.random.default_rng(16)
        for n in (4, 6, 8):
            c0 = stepped_curve(rng, n, 3)
            c1 = stepped_curve(rng, n, 3)
            q0 = tsrv(c0)
            q1 = tsrv(c1)
            sq, path = shape._dp_align(q0, q1, n)
            ref = exhaustive_lattice_min(q0, q1, n, ALL_STEPS)
            assert sq == pytest.approx(ref, abs=1e-12)
            assert warp_score(q0, q1, path) == pytest.approx(sq, abs=1e-12)

    def test_matches_for_unequal_segment_counts(self):
        rng = np.random.default_rng(21)
        q0 = tsrv(stepped_curve(rng, 4, 3))
        q1 = tsrv(stepped_curve(rng, 6, 3))
        sq, path = shape._dp_align(q0, q1, 8)
        ref = exhaustive_lattice_min(q0, q1, 8, ALL_STEPS)
        assert sq == pytest.approx(ref, abs=1e-12)
        assert warp_score(q0, q1, path) == pytest.approx(sq, abs=1e-12)

    def test_matches_on_random_small_pairs(self):
        # Dropping any one coprime step raises the minimum on some of these
        # pairs: (2, 3) on 1 of 30, (3, 2) on 2, each of the others on 12-26.
        rng = np.random.default_rng(30)
        for _ in range(30):
            n0, n1 = rng.integers(2, 7, size=2)
            grid = int(max(n0, n1) + rng.integers(0, 4))
            q0 = tsrv(stepped_curve(rng, n0, 3))
            q1 = tsrv(stepped_curve(rng, n1, 3))
            sq, path = shape._dp_align(q0, q1, grid)
            g = path.size - 1
            assert sq == pytest.approx(exhaustive_lattice_min(q0, q1, g, ALL_STEPS), abs=1e-12)
            assert warp_score(q0, q1, path) == pytest.approx(sq, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_piecewise_linear_read_matches_interp(self, n):
        rng = np.random.default_rng(22 + n)
        q = rng.standard_normal((n, 3, 3))
        positions = np.concatenate([rng.uniform(-0.5, 1.5, 200), [0.0, 1.0]])
        mids = (np.arange(n) + 0.5) / n
        flat = q.reshape(n, -1)
        ref = np.stack([np.interp(positions, mids, flat[:, c])
                        for c in range(flat.shape[1])], axis=1)
        assert np.abs(shape._pl_at(q, positions) - ref).max() < 1e-14


def dense_system(phi, p0, q1):
    """Score and Gauss-Newton node system of a warp from its dense gaps and
    their node derivatives, each read's slope taken on its own segment."""
    cells, n1 = phi.size - 1, q1.shape[0]
    gap, s = shape._residuals(phi, p0, q1)
    mids = 0.5 * (phi[:-1] + phi[1:])
    read = shape._pl_at(q1, mids)
    x = mids * n1 - 0.5
    k = np.clip(np.floor(x).astype(int), 0, max(n1 - 2, 0))
    flat = q1.reshape(n1, -1)
    slope = n1 * (flat[np.minimum(k + 1, n1 - 1)] - flat[k])
    slope[(x <= 0.0) | (x >= n1 - 1.0)] = 0.0
    root = np.sqrt(s)[:, None]
    left = -0.5 * root * slope + 0.5 * cells / root * read
    right = -0.5 * root * slope - 0.5 * cells / root * read
    diag, grad = np.zeros(cells + 1), np.zeros(cells + 1)
    diag[:-1] += np.einsum("md,md->m", left, left)
    diag[1:] += np.einsum("md,md->m", right, right)
    grad[:-1] += np.einsum("md,md->m", gap, left)
    grad[1:] += np.einsum("md,md->m", gap, right)
    score = np.einsum("md,md->", gap, gap) / cells
    return score, diag, np.einsum("md,md->m", left, right), grad


def record_refinement(monkeypatch):
    """Log the refinement's calls in order: ("read", score, slopes, reads),
    ("system", reads), ("solve", tie mask) and ("warp", trial slopes)."""
    events = []
    read, system = shape._read, shape._system
    free_step, tied_step, bounded_warp = shape._free_step, shape._tied_step, shape._bounded_warp

    def logged_read(phi, tables):
        out = read(phi, tables)
        events.append(("read", out[0], out[1], out[2]))
        return out

    def logged_system(reads):
        events.append(("system", reads))
        return system(reads)

    def logged_free(diag, off, grad):
        events.append(("solve", np.zeros(diag.size - 1, dtype=bool)))
        return free_step(diag, off, grad)

    def logged_tied(diag, off, grad, tied):
        events.append(("solve", tied.copy()))
        return tied_step(diag, off, grad, tied)

    def logged_warp(s):
        events.append(("warp", s.copy()))
        return bounded_warp(s)

    for name, fn in (("_read", logged_read), ("_system", logged_system),
                     ("_free_step", logged_free), ("_tied_step", logged_tied),
                     ("_bounded_warp", logged_warp)):
        monkeypatch.setattr(shape, name, fn)
    return events


class TestRefinement:
    def test_node_derivatives_match_central_differences(self):
        rng = np.random.default_rng(23)
        for n0, n1, d, cells in ((5, 7, 3, 30), (8, 4, 2, 24), (3, 9, 4, 42)):
            q0 = tsrv(stepped_curve(rng, n0, d))
            q1 = tsrv(stepped_curve(rng, n1, d))
            p0 = shape._pl_at(q0, (np.arange(cells) + 0.5) / cells)
            slopes = np.exp(rng.uniform(-1.5, 1.5, cells))
            phi = np.concatenate(([0.0], np.cumsum(slopes) / slopes.sum()))
            gap, s = shape._residuals(phi, p0, q1)
            assert np.abs(s - np.diff(phi) * cells).max() < 1e-12
            read = shape._pl_at(q1, 0.5 * (phi[:-1] + phi[1:]))
            assert np.abs(gap - (p0 - np.sqrt(s)[:, None] * read)).max() < 1e-12
            assert np.einsum("md,md->m", gap, gap).mean() == pytest.approx(
                shape._scored(phi, p0, q1), abs=1e-12)
            # The table system is J^T J and J^T gap of the gaps' node Jacobian,
            # which is tridiagonal: node j moves only the gaps of cells j - 1, j.
            h = 1e-6
            jac = np.array([(shape._residuals(phi + h * e, p0, q1)[0]
                             - shape._residuals(phi - h * e, p0, q1)[0]) / (2.0 * h)
                            for e in np.eye(cells + 1)]).reshape(cells + 1, -1)
            _, _, diag, off, grad = gauss_newton(phi, shape._gram_tables(p0, q1))
            normal = jac @ jac.T
            system = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            assert np.abs(system - normal).max() <= 1e-5 * np.abs(normal).max()
            want = jac @ gap.ravel()
            assert np.abs(grad - want).max() <= 1e-5 * np.abs(want).max()

    @pytest.mark.parametrize("n1", [1, 2, 5])
    def test_tables_match_dense_system(self, n1):
        # Slopes far past both bounds land on them; the slow cells at both ends
        # put midpoints on the flat reads past the ends and in the last segment.
        rng = np.random.default_rng(26 + n1)
        d, cells = 3, 12 * n1
        q0 = tsrv(stepped_curve(rng, 4, d))
        q1 = tsrv(stepped_curve(rng, n1, d))
        p0 = shape._pl_at(q0, (np.arange(cells) + 0.5) / cells)
        tables = shape._gram_tables(p0, q1)
        edge = cells // 6
        pinned = np.exp(rng.uniform(-1.0, 0.0, cells))
        pinned[:edge] = pinned[-edge:] = 1e-3
        pinned[edge:edge + n1] = 1e3
        warps = [np.linspace(0.0, 1.0, cells + 1), shape._bounded_warp(pinned)]
        for _ in range(4):
            warps.append(shape._bounded_warp(np.exp(rng.uniform(-2.5, 2.5, cells))))
        for phi in warps:
            score, s, diag, off, grad = gauss_newton(phi, tables)
            assert np.array_equal(s, shape._residuals(phi, p0, q1)[1])
            want_score, *want = dense_system(phi, p0, q1)
            assert abs(score - want_score) <= 1e-12 * want_score
            for got, ref in zip((diag, off, grad), want):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        s = np.diff(warps[1]) * cells
        assert np.isclose(s, shape.SLOPE_BOUND).any() and np.isclose(
            s, 1.0 / shape.SLOPE_BOUND).any()
        mids = 0.5 * (warps[1][:-1] + warps[1][1:]) * n1 - 0.5
        assert (mids < 0.0).any() and (mids > n1 - 1.0).any()
        if n1 > 1:
            assert ((mids > n1 - 2.0) & (mids < n1 - 1.0)).any()

    def test_identical_and_near_pairs(self):
        # The refinement's expanded score cancels when the gaps vanish; the
        # distance must still come out finite, bounded and zero on self-pairs.
        rng = np.random.default_rng(27)
        for n in range(1, 13):
            d = 2 + n % 4
            c0 = stepped_curve(rng, n, d)
            nudged = np.stack([c0.points[0]] + [
                expm(random_skew(rng, d, 1e-7)) @ p for p in c0.points[1:]])
            c1 = ManifoldCurve(points=nudged)
            pairs = [((c0, c0), True), ((c0, c1), False),
                     ((close_curve(c0), close_curve(c0)), True),
                     ((close_curve(c0), close_curve(c1)), False)]
            for (x, y), same in pairs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    if x.closed:
                        dist = closed_shape_distance(x, y, grid=2 * x.segments)
                    else:
                        dist, _ = shape_distance(x, y, grid=2 * n)
                assert np.isfinite(dist)
                assert dist <= curve_distance(x, y) + 1e-12
                if same:
                    assert dist < 1e-12

    def test_refine_matches_reference_loop_bit_for_bit(self):
        # Trial warps read only their score, a step's first solve skips the
        # grouping and a rejected trial halves the step it has; none of these
        # may change a single iterate.
        rng = np.random.default_rng(41)
        moved = 0
        for _ in range(40):
            n0, n1 = (int(n) for n in rng.integers(4, 17, size=2))
            d = int(rng.integers(2, 5))
            q0 = tsrv(stepped_curve(rng, n0, d))
            q1 = tsrv(stepped_curve(rng, n1, d))
            grid = int(rng.integers(max(n0, n1), 4 * max(n0, n1) + 1))
            _, phi_dp = shape._dp_align(q0, q1, grid)
            cells = shape.REFINE_CELLS * (phi_dp.size - 1)
            p0 = shape._pl_at(q0, (np.arange(cells) + 0.5) / cells)
            start = np.interp(np.linspace(0.0, 1.0, cells + 1),
                              np.linspace(0.0, 1.0, phi_dp.size), phi_dp)
            phi, score = shape._refine(p0, q1, start)
            want_phi, want_score = reference_refine(p0, q1, start)
            assert phi.tobytes() == want_phi.tobytes()
            assert np.float64(score).tobytes() == np.float64(want_score).tobytes()
            moved += not np.array_equal(phi, start)
        assert moved >= 30

    @pytest.mark.parametrize("n1", [1, 2, 5])
    def test_pinned_start_matches_reference_loop(self, n1):
        # Slopes on both bounds tie cells, so steps are solved again grouped.
        rng = np.random.default_rng(36 + n1)
        q0 = tsrv(stepped_curve(rng, 4, 3))
        q1 = tsrv(stepped_curve(rng, n1, 3))
        cells = 12 * n1
        p0 = shape._pl_at(q0, (np.arange(cells) + 0.5) / cells)
        edge = cells // 6
        slopes = np.exp(rng.uniform(-1.0, 0.0, cells))
        slopes[:edge] = slopes[-edge:] = 1e-3
        slopes[edge:edge + n1] = 1e3
        start = shape._bounded_warp(slopes)
        s = np.diff(start) * cells
        assert np.isclose(s, shape.SLOPE_BOUND).any() and np.isclose(
            s, 1.0 / shape.SLOPE_BOUND).any()
        phi, score = shape._refine(p0, q1, start)
        want_phi, want_score = reference_refine(p0, q1, start)
        assert phi.tobytes() == want_phi.tobytes()
        assert np.float64(score).tobytes() == np.float64(want_score).tobytes()

    @pytest.mark.parametrize("case", range(12))
    def test_one_solve_per_taken_step_then_halvings(self, case, monkeypatch):
        # Criterion-10 pairs, stepped pairs and pinned starts that tie cells.
        if case < 4:
            pairs = (((0.5, 0), (0.5, 1)), ((0.0, 100), (0.0, 101)),
                     ((0.5, 2), (0.0, 102)), ((0.0, 103), (0.5, 3)))
            q0, q1 = (tsrv(pc_curve(depth, seed)) for depth, seed in pairs[case])
            _, phi_dp = shape._dp_align(q0, q1, 2 * q0.shape[0])
            cells = shape.REFINE_CELLS * (phi_dp.size - 1)
            start = np.interp(np.linspace(0.0, 1.0, cells + 1),
                              np.linspace(0.0, 1.0, phi_dp.size), phi_dp)
        else:
            rng = np.random.default_rng(60 + case)
            q0 = tsrv(stepped_curve(rng, int(rng.integers(3, 12)), 3))
            q1 = tsrv(stepped_curve(rng, int(rng.integers(1, 12)), 3))
            cells = 12 * q1.shape[0]
            slopes = np.exp(rng.uniform(-1.5, 1.5, cells))
            if case >= 8:
                slopes[:cells // 6] = 1e-3
                slopes[cells // 6:cells // 6 + q1.shape[0]] = 1e3
            start = shape._bounded_warp(slopes)
        p0 = shape._pl_at(q0, (np.arange(cells) + 0.5) / cells)
        events = record_refinement(monkeypatch)
        phi, score = shape._refine(p0, q1, start)
        # Split at each taken warp, whose node system is built once.
        segments, reads = [], {}
        for event in events:
            if event[0] == "read":
                reads[id(event[3])] = event
            if event[0] == "system":
                segments.append((reads[id(event[1])], []))
            elif segments:
                segments[-1][1].append(event)
        assert events[0][0] == "read" and events[1][0] == "system"
        costs = [taken[1] for taken, _ in segments]
        assert all(b < a for a, b in zip(costs, costs[1:])), costs
        for (taken, seg), after in itertools.zip_longest(segments, segments[1:]):
            _, cost, s, _ = taken
            kinds = [e[0] for e in seg]
            first_trial = kinds.index("warp") if "warp" in kinds else len(kinds)
            # One solve (grouped again only for new ties) before any trial.
            assert kinds[0] == "solve" and "solve" not in kinds[first_trial:]
            tied = seg[0][1]
            assert not (tied & ~((s <= (1.0 + 1e-9) / shape.SLOPE_BOUND)
                                 | (s >= (1.0 - 1e-9) * shape.SLOPE_BOUND))).any()
            trials = [e[1] for e in seg if e[0] == "warp"]
            scores = [e[1] for e in seg if e[0] == "read"]
            assert 1 <= len(trials) <= shape.REFINE_HALVINGS + 1
            assert all(score >= cost for score in scores[:-1])
            if after is not None:
                assert scores[-1] == after[0][1] < cost
            for longer, shorter in zip(trials, trials[1:]):
                atol = 4.0 * np.spacing(np.maximum(np.abs(longer), np.abs(s)))
                assert np.all(np.abs((shorter - s) - 0.5 * (longer - s)) <= atol)
        steps = np.diff(phi) * cells
        assert phi[0] == 0.0 and phi[-1] == 1.0
        assert steps.min() >= (1.0 - 1e-9) / shape.SLOPE_BOUND
        assert steps.max() <= (1.0 + 1e-9) * shape.SLOPE_BOUND
        assert score == shape._scored(phi, p0, q1) <= shape._scored(start, p0, q1)

    @pytest.mark.parametrize("nodes", [2, 3, 4, 9, 61])
    def test_free_step_is_the_untied_grouped_step(self, nodes):
        rng = np.random.default_rng(nodes)
        untied = np.zeros(nodes - 1, dtype=bool)
        for _ in range(20):
            diag = rng.uniform(1.0, 3.0, nodes)
            off = rng.uniform(-0.5, 0.5, nodes - 1)
            grad = rng.standard_normal(nodes)
            free = shape._free_step(diag, off, grad)
            assert free.tobytes() == shape._tied_step(diag, off, grad, untied).tobytes()
            assert free.tobytes() == reference_tied_step(diag, off, grad, untied).tobytes()
            assert free[0] == free[-1] == 0.0
        if nodes > 3:
            # A non-positive pivot makes LAPACK refuse the system: all give up.
            diag[nodes // 2] = -1.0
            assert shape._free_step(diag, off, grad) is None
            assert shape._tied_step(diag, off, grad, untied) is None
            assert reference_tied_step(diag, off, grad, untied) is None

    @pytest.mark.parametrize("power", [3.0, 0.3])
    def test_refined_slopes_stay_inside_bounds(self, power):
        # Aligning against a steep warp asks for slopes beyond the bounds.
        nodes = np.linspace(0.0, 1.0, 21)
        q0 = tsrv(smooth_curve(nodes))
        q1 = tsrv(smooth_curve(nodes ** power))
        cells = 120
        p0 = shape._pl_at(q0, (np.arange(cells) + 0.5) / cells)
        phi, _ = shape._refine(p0, q1, np.linspace(0.0, 1.0, cells + 1))
        s = np.diff(phi) * cells
        assert phi[0] == 0.0 and phi[-1] == 1.0
        assert s.min() >= (1.0 - 1e-9) / shape.SLOPE_BOUND
        assert s.max() <= (1.0 + 1e-9) * shape.SLOPE_BOUND
        assert np.isclose(s, shape.SLOPE_BOUND).any() or np.isclose(
            s, 1.0 / shape.SLOPE_BOUND).any()

    def test_refinement_never_raises_the_cost(self):
        rng = np.random.default_rng(24)
        for _ in range(12):
            n0, n1 = rng.integers(1, 12, size=2)
            d = int(rng.integers(2, 5))
            q0 = tsrv(stepped_curve(rng, int(n0), d))
            q1 = tsrv(stepped_curve(rng, int(n1), d))
            cells = 6 * int(max(n0, n1))
            p0 = shape._pl_at(q0, (np.arange(cells) + 0.5) / cells)
            slopes = np.exp(rng.uniform(-0.9, 0.9, cells))
            start = np.concatenate(([0.0], np.cumsum(slopes) / slopes.sum()))
            start[-1] = 1.0
            phi, cost = shape._refine(p0, q1, start)
            assert cost == shape._scored(phi, p0, q1)
            assert cost <= shape._scored(start, p0, q1)

    @pytest.mark.parametrize("n0, n1, grid", [
        (1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 3, 3), (3, 1, 3),
        (1, 5, 5), (5, 1, 5), (1, 2, 6)])
    def test_smallest_shapes(self, n0, n1, grid):
        # The refinement system can shrink to a single free group here.
        rng = np.random.default_rng(25 + 10 * n0 + n1)
        for _ in range(6):
            d = int(rng.integers(2, 5))
            c0, c1 = stepped_curve(rng, n0, d), stepped_curve(rng, n1, d)
            try:  # RuntimeWarning is an error in this suite
                dist, phi = shape_distance(c0, c1, grid=grid)
            except DilshapeError:
                continue
            assert np.isfinite(dist) and dist >= 0.0
            assert isinstance(phi, Reparametrization)
            assert np.all(np.diff(phi.values) >= 0.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 16),
           d=st.sampled_from([2, 3, 4]))
    def test_bounds_and_warp_on_random_curves(self, seed, n, d):
        rng = np.random.default_rng(seed)
        c0, c1 = stepped_curve(rng, n, d), stepped_curve(rng, n, d)
        dist, phi = shape_distance(c0, c1, grid=2 * n)
        assert 0.0 <= dist <= curve_distance(c0, c1) + 1e-12
        # A valid warp (checked on construction) on the 6 G + 1 refinement nodes.
        assert isinstance(phi, Reparametrization)
        assert phi.values.size == 6 * 2 * n + 1
        self_dist, _ = shape_distance(c0, c0, grid=2 * n)
        assert self_dist < 1e-12


class TestImport:
    def test_import_leaves_scipy_optimize_unloaded(self):
        src = Path(dilshape.__file__).resolve().parents[1]
        code = "import dilshape.cli, sys; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"


class TestPlaneRotationClosedForms:
    def test_distances_for_subgroup_speeds(self):
        # theta = a t against theta = b t: constant q values give
        # d = 2^(1/4) |sqrt(a) - sqrt(b)| and no warp can do better.
        a, b, n = 2.1, 1.3, 50
        expected = 2.0 ** 0.25 * abs(np.sqrt(a) - np.sqrt(b))
        c0, c1 = so2_curve(lambda t: a * t, n), so2_curve(lambda t: b * t, n)
        assert curve_distance(c0, c1) == pytest.approx(expected, abs=1e-9)
        d, _ = shape_distance(c0, c1, grid=2 * n)
        assert d == pytest.approx(expected, rel=2e-2)

    def test_warp_of_subgroup_is_free(self):
        n = 40
        c0 = so2_curve(lambda t: 1.5 * t, n)
        c1 = so2_curve(lambda t: 1.5 * (0.35 * t + 0.65 * t * t), n)
        d, _ = shape_distance(c0, c1, grid=2 * n)
        assert d < 0.05 * curve_distance(c0, c1)


class TestClosedCurves:
    @staticmethod
    def loop(n, shift=0):
        two_pi = 2.0 * np.pi
        pts = np.stack([expm(np.sin(two_pi * ((k + shift) % n) / n) * 0.6 * J2)
                        for k in range(n + 1)])
        return ManifoldCurve(points=pts)

    def test_cyclic_shift_is_free(self):
        n = 12
        base = self.loop(n)
        shifted = self.loop(n, shift=5)
        d = closed_shape_distance(base, shifted, grid=2 * n)
        assert d < 1e-9

    def test_requires_closed_flag(self):
        c = stepped_curve(np.random.default_rng(17), 8, 2)
        with pytest.raises(NotClosed):
            closed_shape_distance(c, c, grid=16)


class TestKarcherMean:
    def test_mean_of_copies_is_the_curve(self):
        c = stepped_curve(np.random.default_rng(18), 10, 3)
        m = karcher_mean([c, c, c])
        assert np.abs(m.points - c.points).max() < 1e-8

    def test_plane_rotation_mean_speed(self):
        # Averaging in flat coordinates averages sqrt-speeds.
        a, b, n = 2.0, 1.0, 30
        m = karcher_mean([so2_curve(lambda t: a * t, n),
                          so2_curve(lambda t: b * t, n)])
        want = ((np.sqrt(a) + np.sqrt(b)) / 2.0) ** 2
        angle = np.arctan2(m.points[-1][1, 0], m.points[-1][0, 0])
        assert angle == pytest.approx(want, abs=1e-6)

    def test_mean_sits_between(self):
        rng = np.random.default_rng(19)
        c0, c1 = stepped_curve(rng, 10, 3), stepped_curve(rng, 10, 3)
        m = karcher_mean([c0, c1], iters=8)
        d01 = curve_distance(c0, c1)
        d0, _ = shape_distance(c0, m, grid=20)
        d1, _ = shape_distance(c1, m, grid=20)
        assert max(d0, d1) < d01

    def test_rejects_mixed_grids(self):
        rng = np.random.default_rng(20)
        with pytest.raises(GridMismatch):
            karcher_mean([stepped_curve(rng, 5, 3), stepped_curve(rng, 6, 3)])
        with pytest.raises(GridMismatch):
            karcher_mean([])

    @pytest.mark.parametrize("grid", [0, -5, 9])
    def test_rejects_grid_below_resolution(self, grid):
        rng = np.random.default_rng(26)
        with pytest.raises(GridMismatch):
            karcher_mean([stepped_curve(rng, 10, 3), stepped_curve(rng, 10, 3)], grid=grid)

    @pytest.mark.parametrize("iters", [-1, -3])
    def test_rejects_negative_rounds(self, iters):
        rng = np.random.default_rng(28)
        with pytest.raises(OutOfRange):
            karcher_mean([stepped_curve(rng, 6, 3), stepped_curve(rng, 6, 3)], iters=iters)

    def test_zero_rounds_is_the_unaligned_average(self):
        rng = np.random.default_rng(29)
        c0, c1 = stepped_curve(rng, 8, 3), stepped_curve(rng, 8, 3)
        m = karcher_mean([c0, c1], iters=0)
        assert np.abs(m.points - geodesic_between(c0, c1, 0.5).points).max() < 1e-12

    def test_rejects_mixed_dims(self):
        rng = np.random.default_rng(27)
        with pytest.raises(DimMismatch):
            karcher_mean([stepped_curve(rng, 10, 6), stepped_curve(rng, 10, 5)])


def pc_curve(depth, seed):
    """Dim-6 curve of a periodically modulated (depth 0.5) or stationary
    (depth 0) ensemble, as in acceptance criterion 10."""
    data = gen_pc_process(0.6, 4, depth, 16, seed, count=256)
    return from_dilation(build_dilation_sequence(
        extract_schur_params(estimate_ensemble_correlation(data, 16)), 6))


STEPPED_FAMILIES = range(6)
PC_FAMILIES = range(3)


@functools.cache
def mean_family(kind, index):
    """Stepped families: 2 to 5 curves of 6 to 16 segments in SO(3) or SO(4),
    drawn in order from one generator.  Criterion-10 families: two periodic
    and two stationary curves."""
    if kind == "pc":
        return (pc_curve(0.5, 10 * index), pc_curve(0.5, 10 * index + 1),
                pc_curve(0.0, 10 * index + 100), pc_curve(0.0, 10 * index + 101))
    rng = np.random.default_rng(700)
    for _ in range(index + 1):
        n, d, count = (int(rng.integers(6, 17)), int(rng.integers(3, 5)),
                       int(rng.integers(2, 6)))
        family = tuple(stepped_curve(rng, n, d) for _ in range(count))
    return family


@functools.cache
def mean_rounds(kind, index):
    """Scores and templates of the mean's rounds, at most 200 of them."""
    family = mean_family(kind, index)
    qs = [shape._q_or_degenerate(c) for c in family]
    return list(itertools.islice(shape._mean_rounds(qs, 2 * family[0].segments), 200))


FAMILIES = [("stepped", k) for k in STEPPED_FAMILIES] + [("pc", k) for k in PC_FAMILIES]

# Rounds each family's mean runs before a round lowers its score by less than
# REFINE_FTOL relative.  Stepped family 2 (five SO(3) curves of 11 segments)
# needs more than the default cap of 24: after round 20 gains only 9.3e-5,
# its moved template lets the alignment find warps that lower the score by
# another 0.5% over the next 8 rounds.
ROUNDS = {("stepped", 0): 8, ("stepped", 1): 19, ("stepped", 2): 28, ("stepped", 3): 11,
          ("stepped", 4): 11, ("stepped", 5): 19, ("pc", 0): 16, ("pc", 1): 11, ("pc", 2): 11}


class TestMeanRounds:
    @pytest.mark.parametrize("kind, index", FAMILIES)
    def test_score_never_rises(self, kind, index):
        scores = [score for score, _ in mean_rounds(kind, index)]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(scores, scores[1:])), scores

    @pytest.mark.parametrize("kind, index", FAMILIES)
    def test_rounds_stop_on_their_own(self, kind, index):
        assert len(mean_rounds(kind, index)) == ROUNDS[kind, index]

    @pytest.mark.parametrize("kind, index", FAMILIES)
    def test_default_rounds_reach_the_stop_unless_capped(self, kind, index):
        # The default mean is the template of round 24 or of the last round,
        # whichever comes first, and equals the uncapped mean only when the
        # rounds stop by themselves within 24.
        family = list(mean_family(kind, index))
        rounds = mean_rounds(kind, index)
        mean = karcher_mean(family)
        assert np.array_equal(mean.points, shape._from_identity(
            rounds[min(len(rounds), 24) - 1][1]).points)
        uncapped = karcher_mean(family, iters=200)
        assert np.array_equal(mean.points, uncapped.points) == (len(rounds) <= 24)

    def test_round_count_caps_the_rounds(self):
        family = list(mean_family("stepped", 0))
        mean = karcher_mean(family, iters=3)
        want = shape._from_identity(mean_rounds("stepped", 0)[2][1])
        assert np.array_equal(mean.points, want.points)


class TestCellFit:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_matches_dense_least_squares(self, n):
        rng = np.random.default_rng(40 + n)
        target = rng.standard_normal((shape.REFINE_CELLS * 2 * n, 9))
        want = reference_cell_fit(target, n)
        got = shape._cell_fit(target, n)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
