import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from conftest import random_rotation, smooth_curve, smooth_point, stepped_curve
from dilshape import curves, dilation, shape
from dilshape.curves import ManifoldCurve
from dilshape.errors import GridMismatch, NotClosed, NotOrthogonal, OutOfRange, WrongComponent
from dilshape.liegroup import geodesic_distance, log_group


def reference_interpolant(curve, params, smooth):
    """Per-sample evaluation with one scipy expm per parameter.

    Geodesic: exp((t N - k) log(x_{k+1} x_k^T)) x_k.  Spline: a natural
    cubic spline through the accumulated step logs theta_k, then
    exp(theta(t) - theta_k) x_k.
    """
    n, d, pts = curve.segments, curve.dim, curve.points
    logs = np.stack([log_group(pts[k + 1] @ pts[k].T) for k in range(n)])
    theta = np.concatenate([np.zeros((1, d, d)), np.cumsum(logs, axis=0)])
    spline = CubicSpline(np.linspace(0.0, 1.0, n + 1), theta.reshape(n + 1, d * d),
                         bc_type="natural")
    out = []
    for t in params:
        k = min(int(np.floor(t * n)), n - 1)
        if smooth:
            delta = spline(t).reshape(d, d) - theta[k]
        else:
            delta = (t * n - k) * logs[k]
        out.append(expm(0.5 * (delta - delta.T)) @ pts[k])
    return np.stack(out)


REFERENCE_CURVES = {
    "smooth": lambda: smooth_curve(np.linspace(0.0, 1.0, 41)),
    "stepped": lambda: stepped_curve(np.random.default_rng(11), 40, 3),
}


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
            dilation.DilationSequence(matrices=pts)

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

    def test_base_does_not_keep_the_sequence(self):
        seq = dilation.build_dilation_sequence(ar_params(0.6, 8), 4)
        c = curves.from_dilation(seq)
        assert not np.shares_memory(c.base, seq.matrices)
        back = curves.sequence_from_curve(c)
        assert np.abs(back.matrices - seq.matrices).max() < 1e-12

    def test_close_curve_appends_start(self):
        seq = dilation.build_dilation_sequence(ar_params(0.6, 8), 4)
        c = curves.from_dilation(seq, closed=True)
        assert c.closed
        assert np.abs(c.points[-1] - c.points[0]).max() < 1e-12

    def test_one_point_curve_cannot_close(self):
        # --dim equal to the set's size: one matrix, no segment to close.
        seq = dilation.build_dilation_sequence(ar_params(0.6, 8), 8)
        assert curves.from_dilation(seq).num_points == 1
        with pytest.raises(NotClosed):
            curves.from_dilation(seq, closed=True)


class TestVelocityAndInterpolation:
    def test_one_parameter_subgroup_velocity_is_constant(self):
        omega = np.array([[0.0, -0.7], [0.7, 0.0]])
        n = 10
        pts = np.stack([expm(k / n * omega) for k in range(n + 1)])
        v = curves.discrete_velocity(ManifoldCurve(points=pts))
        assert np.abs(v - omega).max() < 1e-12

    def test_piecewise_geodesic_hits_samples(self):
        c = stepped_curve(np.random.default_rng(2), 6, 3)
        for k in range(7):
            assert np.abs(curves.piecewise_geodesic(c, k / 6) - c.points[k]).max() < 1e-12

    def test_piecewise_geodesic_on_one_sample(self):
        point = random_rotation(np.random.default_rng(3), 3)
        c = ManifoldCurve(points=point[None])
        for t in (0.0, 0.4, 1.0):
            assert np.array_equal(curves.piecewise_geodesic(c, t), point)

    def test_piecewise_geodesic_parameter_range(self):
        c = stepped_curve(np.random.default_rng(2), 4, 3)
        with pytest.raises(GridMismatch):
            curves.piecewise_geodesic(c, 1.5)

    def test_srv_handles_zero_velocity(self):
        pts = np.stack([np.eye(2)] * 3)
        q, vnorms = curves.srv_values(ManifoldCurve(points=pts))
        assert np.all(q == 0.0)
        assert np.all(vnorms == 0.0)


class TestTransformOnce:
    def test_velocity_runs_once_per_curve(self, monkeypatch):
        calls = []

        def counted(curve):
            calls.append(id(curve))
            return velocity(curve)

        velocity = curves.discrete_velocity
        monkeypatch.setattr(curves, "discrete_velocity", counted)
        rng = np.random.default_rng(4)
        c0, c1 = stepped_curve(rng, 8, 3), stepped_curve(rng, 8, 3)
        for _ in range(3):
            shape.shape_distance(c0, c1, grid=16)
            shape.curve_distance(c1, c0)
            shape.tsrv(c0)
            curves.srv_values(c1)
        assert sorted(calls) == sorted([id(c0), id(c1)])

    def test_cached_transform_is_read_only_and_fresh(self):
        c = stepped_curve(np.random.default_rng(5), 9, 4)
        q, vnorms = curves.srv_values(c)
        assert curves.srv_values(c)[0] is q
        fresh_q, fresh_vnorms = curves.srv_values(ManifoldCurve(points=c.points.copy()))
        assert np.array_equal(q, fresh_q) and np.array_equal(vnorms, fresh_vnorms)
        for array in (q, vnorms, c.points):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_caller_writes_do_not_reach_the_curve(self):
        pts = stepped_curve(np.random.default_rng(6), 7, 3).points.copy()
        kept = pts.copy()
        c = ManifoldCurve(points=pts)
        q = curves.srv_values(c)[0].copy()
        pts[1:] = np.eye(3)
        assert pts.flags.writeable
        assert np.array_equal(c.points, kept)
        assert np.array_equal(curves.srv_values(c)[0], q)
        # A view of writable memory is copied too; a frozen array is held as is.
        view = kept[:4]
        view.setflags(write=False)
        assert not np.shares_memory(ManifoldCurve(points=view).points, kept)
        frozen = c.points
        assert ManifoldCurve(points=frozen).points is frozen


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

    def test_refuses_counts_past_the_cap(self):
        c = stepped_curve(np.random.default_rng(4), 5, 3)
        assert curves.spline_resample(c, curves.MAX_GRID).segments == curves.MAX_GRID
        with pytest.raises(GridMismatch):
            curves.spline_resample(c, curves.MAX_GRID + 1)

    @pytest.mark.parametrize("m", [10.5, float("nan")])
    def test_refuses_non_integer_counts(self, m):
        with pytest.raises(OutOfRange):
            curves.spline_resample(stepped_curve(np.random.default_rng(4), 5, 3), m)

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


    @pytest.mark.parametrize("smooth", [False, True])
    def test_one_sample_curve_returned_unchanged(self, smooth):
        c = ManifoldCurve(points=random_rotation(np.random.default_rng(12), 3)[None])
        w = curves.warp_curve(c, lambda t: 0.5, smooth=smooth)
        assert np.array_equal(w.points, c.points)

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_warp_values_rejected(self, smooth, bad):
        c = stepped_curve(np.random.default_rng(7), 5, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange):
                curves.warp_curve(c, lambda t: bad if t > 0.5 else t, smooth=smooth)


class TestMatchesPerSampleReference:
    @pytest.mark.parametrize("kind", sorted(REFERENCE_CURVES))
    @pytest.mark.parametrize("smooth", [False, True])
    def test_warp_curve(self, kind, smooth):
        c = REFERENCE_CURVES[kind]()
        phi = lambda t: 0.3 * t + 0.7 * t ** 3
        w = curves.warp_curve(c, phi, smooth=smooth)
        params = [phi(k / c.segments) for k in range(c.segments + 1)]
        assert np.abs(w.points - reference_interpolant(c, params, smooth)).max() < 1e-13

    @pytest.mark.parametrize("kind", sorted(REFERENCE_CURVES))
    def test_spline_resample(self, kind):
        c = REFERENCE_CURVES[kind]()
        r = curves.spline_resample(c, 97)
        ref = reference_interpolant(c, np.linspace(0.0, 1.0, 98), smooth=True)
        assert np.abs(r.points - ref).max() < 1e-13

    @pytest.mark.parametrize("kind", sorted(REFERENCE_CURVES))
    def test_piecewise_geodesic(self, kind):
        c = REFERENCE_CURVES[kind]()
        params = np.random.default_rng(13).uniform(0.0, 1.0, 9)
        got = np.stack([curves.piecewise_geodesic(c, t) for t in params])
        assert np.abs(got - reference_interpolant(c, params, smooth=False)).max() < 1e-13


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
