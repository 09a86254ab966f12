import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_rotation, smooth_curve, smooth_point, stepped_curve
from dilshape import curves, dilation
from dilshape.curves import ManifoldCurve
from dilshape.errors import GridMismatch, NotOrthogonal, OutOfRange, WrongComponent
from dilshape.liegroup import geodesic_distance, norm


def ar_params(a, n):
    return dilation.extract_schur_params(
        a ** np.abs(np.subtract.outer(np.arange(n), np.arange(n))))


class TestConstruction:
    def test_rejects_non_rotation_points(self):
        with pytest.raises(NotOrthogonal):
            ManifoldCurve(points=np.ones((2, 3, 3)))

    def test_rejects_reflections(self):
        pts = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])])
        with pytest.raises((WrongComponent, NotOrthogonal)):
            ManifoldCurve(points=pts)

    def test_rejects_non_finite_points(self):
        pts = np.stack([np.eye(3), np.full((3, 3), np.nan)])
        with pytest.raises(OutOfRange):
            ManifoldCurve(points=pts)
        with pytest.raises(OutOfRange):
            dilation.DilationSequence(matrices=pts, dim=3)

    def test_rejects_bad_shape(self):
        with pytest.raises(GridMismatch):
            ManifoldCurve(points=np.eye(3))


class TestFromDilation:
    def test_starts_at_identity_with_base_recorded(self):
        seq = dilation.build_dilation_sequence(ar_params(0.6, 8), 4)
        c = curves.from_dilation(seq)
        assert c.starts_at_identity()
        assert np.array_equal(c.base, seq.matrices[0])
        assert c.num_points == seq.count

    def test_points_land_in_identity_component(self):
        # Each W_i has determinant (-1)^(dim-1); the common sign cancels in
        # W_i W_0^T regardless of parity.
        for dim in (3, 4):
            seq = dilation.build_dilation_sequence(ar_params(0.5, 8), dim)
            c = curves.from_dilation(seq)
            assert np.all([np.linalg.det(p) > 0 for p in c.points])

    def test_sequence_round_trip(self):
        seq = dilation.build_dilation_sequence(ar_params(0.6, 8), 4)
        back = curves.sequence_from_curve(curves.from_dilation(seq))
        assert np.abs(back.matrices - seq.matrices).max() < 1e-12

    def test_close_curve_appends_start(self):
        seq = dilation.build_dilation_sequence(ar_params(0.6, 8), 4)
        c = curves.from_dilation(seq, closed=True)
        assert c.closed
        assert np.abs(c.points[-1] - c.points[0]).max() < 1e-12


class TestVelocityAndInterpolation:
    def test_one_parameter_subgroup_velocity_is_constant(self):
        omega = np.array([[0.0, -0.7], [0.7, 0.0]])
        n = 10
        pts = np.stack([expm(k / n * omega) for k in range(n + 1)])
        v = curves.discrete_velocity(ManifoldCurve(points=pts))
        assert np.abs(v.values - omega).max() < 1e-12

    def test_piecewise_geodesic_hits_samples(self):
        c = stepped_curve(np.random.default_rng(2), 6, 3)
        for k in range(7):
            assert np.abs(curves.piecewise_geodesic(c, k / 6) - c.points[k]).max() < 1e-12

    def test_piecewise_geodesic_parameter_range(self):
        c = stepped_curve(np.random.default_rng(2), 4, 3)
        with pytest.raises(GridMismatch):
            curves.piecewise_geodesic(c, 1.5)

    def test_srv_handles_zero_velocity(self):
        pts = np.stack([np.eye(2)] * 3)
        q, vnorms = curves.srv_values(ManifoldCurve(points=pts))
        assert np.all(q == 0.0)
        assert np.all(vnorms == 0.0)


class TestSplineResample:
    def test_reproduces_knots(self):
        c = stepped_curve(np.random.default_rng(4), 5, 3)
        r = curves.spline_resample(c, 15)
        for k in range(6):
            assert np.abs(r.points[3 * k] - c.points[k]).max() < 1e-10

    def test_refuses_downsampling(self):
        c = stepped_curve(np.random.default_rng(4), 5, 3)
        with pytest.raises(GridMismatch):
            curves.spline_resample(c, 4)

    def test_converges_to_smooth_motion(self):
        # Resampling a coarse sampling of a smooth motion should approach
        # the motion itself as the source resolution grows.
        fine = np.linspace(0.0, 1.0, 161)
        errors = []
        for n in (10, 20, 40):
            coarse = smooth_curve(np.linspace(0.0, 1.0, n + 1))
            r = curves.spline_resample(coarse, 160)
            gap = max(geodesic_distance(r.points[i], smooth_point(t))
                      for i, t in enumerate(fine))
            errors.append(gap)
        assert errors[1] < 0.35 * errors[0]
        assert errors[2] < 0.35 * errors[1]


class TestWarp:
    def test_identity_warp_keeps_samples(self):
        c = stepped_curve(np.random.default_rng(6), 8, 3)
        w = curves.warp_curve(c, lambda t: t)
        assert np.abs(w.points - c.points).max() < 1e-12

    def test_warp_matches_closed_form(self):
        phi = lambda t: 0.45 * t + 0.55 * t * t
        c = smooth_curve(np.linspace(0.0, 1.0, 81))
        w = curves.warp_curve(c, phi, smooth=True)
        gap = max(geodesic_distance(w.points[k], smooth_point(phi(k / 80)))
                  for k in range(81))
        assert gap < 2e-3

    def test_warp_values_clipped(self):
        c = stepped_curve(np.random.default_rng(7), 5, 2)
        w = curves.warp_curve(c, lambda t: 1.2 * t - 0.1)
        assert np.abs(w.points[0] - c.points[0]).max() < 1e-12
        assert np.abs(w.points[-1] - c.points[-1]).max() < 1e-12


class TestPathEnergy:
    def test_straight_interpolation_realizes_distance(self):
        from dilshape.shape import curve_distance, geodesic_between
        rng = np.random.default_rng(8)
        c0 = stepped_curve(rng, 12, 3)
        c1 = stepped_curve(rng, 12, 3)
        path = [geodesic_between(c0, c1, s) for s in np.linspace(0.0, 1.0, 9)]
        energy = curves.path_energy(path)
        assert energy == pytest.approx(curve_distance(c0, c1) ** 2, rel=1e-6)

    def test_detour_costs_more(self):
        from dilshape.shape import geodesic_between
        rng = np.random.default_rng(9)
        c0 = stepped_curve(rng, 10, 3)
        c1 = stepped_curve(rng, 10, 3)
        detour = stepped_curve(rng, 10, 3)
        straight = [geodesic_between(c0, c1, s) for s in np.linspace(0.0, 1.0, 5)]
        bent = [c0, geodesic_between(c0, detour, 0.5), detour,
                geodesic_between(detour, c1, 0.5), c1]
        assert curves.path_energy(bent) > curves.path_energy(straight)

    def test_needs_matching_grids(self):
        rng = np.random.default_rng(10)
        with pytest.raises(GridMismatch):
            curves.path_energy([stepped_curve(rng, 4, 3), stepped_curve(rng, 5, 3)])
        with pytest.raises(GridMismatch):
            curves.path_energy([stepped_curve(rng, 4, 3)])
