import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import exhaustive_lattice_min, smooth_curve, stepped_curve
from dilshape import shape
from dilshape.curves import ManifoldCurve
from dilshape.errors import (
    DegenerateCurve,
    DimMismatch,
    GridMismatch,
    NotClosed,
    VanishingVelocity,
)
from dilshape.shape import (
    DP_STEPS,
    Reparametrization,
    closed_shape_distance,
    curve_distance,
    geodesic_between,
    karcher_mean,
    shape_distance,
    tsrv,
    tsrv_inverse,
    warp_tsrv,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def so2_curve(theta_fn, n):
    pts = np.stack([expm(theta_fn(k / n) * J2) for k in range(n + 1)])
    return ManifoldCurve(points=pts)


class TestTransform:
    def test_round_trip(self):
        c = stepped_curve(np.random.default_rng(1), 12, 3)
        back = tsrv_inverse(tsrv(c))
        assert np.abs(back.points - c.points).max() < 1e-12

    def test_transform_of_inverse(self):
        c = stepped_curve(np.random.default_rng(2), 9, 4)
        t = tsrv(c)
        again = tsrv(tsrv_inverse(t))
        assert np.abs(again.values - t.values).max() < 1e-12

    def test_constant_curve_rejected(self):
        pts = np.stack([np.eye(3)] * 5)
        with pytest.raises(VanishingVelocity):
            tsrv(ManifoldCurve(points=pts))

    def test_warp_tsrv_identity(self):
        c = stepped_curve(np.random.default_rng(3), 8, 3)
        q = tsrv(c).values
        phi = Reparametrization(values=np.linspace(0.0, 1.0, 9))
        assert np.abs(warp_tsrv(q, phi) - q).max() < 1e-14


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


class TestGeodesicBetween:
    def test_endpoints(self):
        rng = np.random.default_rng(7)
        c0, c1 = stepped_curve(rng, 8, 3), stepped_curve(rng, 8, 3)
        assert np.abs(geodesic_between(c0, c1, 0.0).points - c0.points).max() < 1e-9
        assert np.abs(geodesic_between(c0, c1, 1.0).points - c1.points).max() < 1e-9

    def test_flat_coordinates_move_linearly(self):
        rng = np.random.default_rng(8)
        c0, c1 = stepped_curve(rng, 8, 3), stepped_curve(rng, 8, 3)
        qs = [tsrv(geodesic_between(c0, c1, s)).values for s in (0.0, 0.25, 0.5)]
        second = qs[0] - 2.0 * qs[1] + qs[2]
        assert np.abs(second).max() < 1e-12


class TestShapeDistance:
    def test_self_distance_is_zero_with_identity_warp(self):
        c = stepped_curve(np.random.default_rng(9), 10, 3)
        d, phi = shape_distance(c, c, grid=20)
        assert d < 1e-9
        grid = np.linspace(0.0, 1.0, phi.values.size)
        assert np.abs(phi.values - grid).max() < 1e-12

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


class TestLatticeSearchMatchesExhaustive:
    def test_matches_on_small_grids(self):
        rng = np.random.default_rng(16)
        for n in (4, 6, 8):
            c0 = stepped_curve(rng, n, 3)
            c1 = stepped_curve(rng, n, 3)
            q0 = tsrv(c0).values
            q1 = tsrv(c1).values
            sq, path = shape._dp_align(q0, q1, n)
            ref = exhaustive_lattice_min(q0, q1, n, DP_STEPS)
            assert sq == pytest.approx(ref, abs=1e-12)
            assert shape._eval_warp_cost(q0, q1, path) == pytest.approx(sq, abs=1e-12)

    def test_matches_for_unequal_segment_counts(self):
        rng = np.random.default_rng(21)
        q0 = tsrv(stepped_curve(rng, 4, 3)).values
        q1 = tsrv(stepped_curve(rng, 6, 3)).values
        sq, path = shape._dp_align(q0, q1, 8)
        ref = exhaustive_lattice_min(q0, q1, 8, DP_STEPS)
        assert sq == pytest.approx(ref, abs=1e-12)
        assert shape._eval_warp_cost(q0, q1, path) == pytest.approx(sq, abs=1e-12)

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


class TestRefinement:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(23)
        for n0, n1, d, cells in ((5, 7, 3, 30), (8, 4, 2, 24), (3, 9, 4, 42)):
            q0 = tsrv(stepped_curve(rng, n0, d)).values
            q1 = tsrv(stepped_curve(rng, n1, d)).values
            p0 = shape._pl_at(q0, (np.arange(cells) + 0.5) / cells)
            u = rng.uniform(-1.5, 1.5, cells)
            cost, grad = shape._slope_cost(u, p0, q1)
            assert cost == pytest.approx(
                shape._eval_warp_cost(q0, q1, shape._slope_warp(u)[1]), abs=1e-12)
            h = 1e-6
            fd = np.array([(shape._slope_cost(u + h * e, p0, q1)[0]
                            - shape._slope_cost(u - h * e, p0, q1)[0]) / (2.0 * h)
                           for e in np.eye(cells)])
            assert np.abs(grad - fd).max() <= 1e-5 * np.abs(fd).max()

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
        return ManifoldCurve(points=pts, closed=True)

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
