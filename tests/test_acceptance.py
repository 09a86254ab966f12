"""End-to-end acceptance checks, one test per headline guarantee.

Each test pins the tolerance it promises and, where a budget applies, the
wall-clock limit.  Run with -v for one verdict line per guarantee.
"""

import time

import numpy as np
import pytest

from conftest import (
    bounded_skew,
    exhaustive_lattice_min,
    smooth_curve,
    stepped_curve,
)
from dilshape import shape
from dilshape.corr import (
    estimate_ensemble_correlation,
    gen_pc_process,
    gen_stationary_ar,
    pc_covariance_oracle,
    validate_spd,
)
from dilshape.curves import ManifoldCurve, from_dilation, spline_resample
from dilshape.dilation import (
    SchurParams,
    build_dilation_sequence,
    extract_schur_params,
    levinson,
    naimark_matrix,
    reconstruct_matrix,
    reconstructible_window,
    stationary_params,
)
from dilshape.liegroup import exp_group, geodesic_distance, log_group
from dilshape.shape import (
    DP_STEPS,
    curve_distance,
    geodesic_between,
    shape_distance,
    tsrv,
    tsrv_inverse,
)


def random_params(rng, n, bound):
    gamma = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    gamma[iu] = rng.uniform(-bound, bound, size=iu[0].size)
    return SchurParams.from_gamma(gamma)


def test_criterion_01_parameter_round_trip():
    # 100 random parameter sets, sizes up to 8, magnitudes below 0.95:
    # matrix assembly followed by extraction returns the parameters to 1e-9,
    # all within a 5 second budget.
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_gamma = 0.0
    worst_entry = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        params = random_params(rng, n, 0.95)
        r = reconstruct_matrix(params)
        recovered = extract_schur_params(r)
        worst_gamma = max(worst_gamma,
                          float(np.abs(recovered.gamma - params.gamma).max()))
        worst_entry = max(worst_entry,
                          float(np.abs(reconstruct_matrix(recovered) - r).max()))
    elapsed = time.perf_counter() - start
    print(f"round trip: params {worst_gamma:.3e} entries {worst_entry:.3e} "
          f"over 100 sets in {elapsed:.2f}s")
    assert worst_gamma < 1e-9
    assert worst_entry < 1e-9
    assert elapsed < 5.0


def test_criterion_02_dilation_reproduces_entries():
    # e1^T W_i ... W_{j-1} e1 equals the matrix entry R[i, j] for every pair
    # inside the truncation window, at several window sizes.
    rng = np.random.default_rng(1002)
    params = random_params(rng, 10, 0.9)
    r = reconstruct_matrix(params)
    e1 = np.zeros(0)
    worst = 0.0
    for dim in (3, 5, 7):
        seq = build_dilation_sequence(params, dim)
        e1 = np.eye(dim)[0]
        for i, j in reconstructible_window(seq):
            vec = e1
            for t in range(j - 1, i - 1, -1):
                vec = seq.matrices[t] @ vec
            worst = max(worst, abs(float(vec[0]) - r[i, j]))
    print(f"dilation identity: worst {worst:.3e}")
    assert worst < 1e-9


def test_criterion_03_stationary_collapses_to_single_rotation():
    # A constant-diagonal parameter set yields identical truncation matrices,
    # all equal to the closed-form single rotation, whose powers walk out the
    # stationary correlation sequence.
    parcors = (0.55, -0.3, 0.2)
    dim, n = 4, 12
    params = stationary_params(parcors, n)
    seq = build_dilation_sequence(params, dim)
    spread = float(np.abs(seq.matrices - seq.matrices[0]).max())
    u = naimark_matrix(parcors, dim)
    gap = float(np.abs(seq.matrices[0] - u).max())
    r = reconstruct_matrix(params)
    power = np.eye(dim)
    power_err = 0.0
    for k in range(dim):
        power_err = max(power_err, abs(float(power[0, 0]) - r[0, k]))
        power = power @ u
    print(f"stationary: spread {spread:.3e} gap {gap:.3e} powers {power_err:.3e}")
    assert spread < 1e-12
    assert gap < 1e-12
    assert power_err < 1e-9


@pytest.mark.parametrize("dim", [6, 8])
def test_periodicity_passes_to_the_dilation_matrices(dim):
    # The exact correlation of a process modulated with period 4: its rotation
    # sequence repeats with period 4 to rounding, W_{i+4} = W_i, while
    # neighbouring matrices stay far apart, so the period is not a constant.
    r = validate_spd(pc_covariance_oracle(0.6, 4, 0.5, 64))
    w = build_dilation_sequence(extract_schur_params(r), dim).matrices
    period_gap = float(np.abs(w[4:] - w[:-4]).max())
    step_gap = float(np.abs(w[1:] - w[:-1]).max())
    print(f"dim {dim}: max |W_(i+4) - W_i| {period_gap:.2e}, "
          f"max |W_(i+1) - W_i| {step_gap:.3f}")
    assert period_gap <= 1e-12
    assert step_gap >= 0.1


def test_criterion_04_levinson_matches_extraction():
    # First-order autoregressions: the order recursion returns (a, 0, ..., 0)
    # and agrees with the constant diagonals of the full extraction.
    worst = 0.0
    for a in (0.3, 0.5, 0.8):
        row = a ** np.arange(8, dtype=float)
        reflections, _ = levinson(row)
        expected = np.zeros(7)
        expected[0] = a
        worst = max(worst, float(np.abs(reflections - expected).max()))
        gamma = extract_schur_params(gen_stationary_ar(a, 8)).gamma
        for lag in range(1, 8):
            diag = np.diagonal(gamma, offset=lag)
            worst = max(worst, float(np.abs(diag - reflections[lag - 1]).max()))
    print(f"levinson: worst {worst:.3e}")
    assert worst < 1e-9


def test_criterion_05_exp_log_and_killing_form():
    # 1000 exponential/log round trips on skew matrices in dimensions 2
    # through 6, rotation angles kept below the cut locus; plus the Killing
    # form identity trace(ad_a ad_b) = -(n - 2) trace(a b^T).
    rng = np.random.default_rng(1005)
    worst = 0.0
    for d in range(2, 7):
        for _ in range(200):
            angle = rng.uniform(1e-3, np.pi - 1e-3)
            omega = bounded_skew(rng, d, angle)
            back = log_group(exp_group(omega))
            worst = max(worst, float(np.abs(back - omega).max()))
    assert worst < 1e-9

    killing_err = 0.0
    for n in (3, 4, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        basis = []
        for i, j in pairs:
            e = np.zeros((n, n))
            e[i, j], e[j, i] = 1.0, -1.0
            basis.append(e)

        def ad(x):
            return np.column_stack(
                [[(x @ e - e @ x)[i, j] for i, j in pairs] for e in basis])

        for _ in range(5):
            a = bounded_skew(rng, n, rng.uniform(0.3, 2.5))
            b = bounded_skew(rng, n, rng.uniform(0.3, 2.5))
            lhs = float(np.trace(ad(a) @ ad(b)))
            rhs = -(n - 2) * float(np.trace(a @ b.T))
            killing_err = max(killing_err, abs(lhs - rhs))
    print(f"exp/log worst {worst:.3e}, killing worst {killing_err:.3e}")
    assert killing_err < 1e-9


def test_criterion_06_transform_round_trip_on_smooth_curve():
    # A spline through 5 random rotations, resampled to 200 segments in
    # dimension 3, comes back from its transform within 1e-4 pointwise.
    rng = np.random.default_rng(1006)
    knots = stepped_curve(rng, 4, 3, scale=0.8)
    c = spline_resample(knots, 200)
    back = tsrv_inverse(tsrv(c), c.points[0])
    worst = max(geodesic_distance(p, q)
                for p, q in zip(back.points, c.points))
    print(f"transform round trip: worst {worst:.3e}")
    assert worst < 1e-4


def test_criterion_07_geodesic_is_linear_in_transform():
    # Along the geodesic the transform values move linearly: vanishing second
    # differences across s, and the endpoints reproduce the inputs.
    rng = np.random.default_rng(1007)
    c0 = stepped_curve(rng, 8, 3)
    c1 = stepped_curve(rng, 8, 3)
    svals = np.linspace(0.0, 1.0, 9)
    qs = [tsrv(geodesic_between(c0, c1, s)) for s in svals]
    second = 0.0
    for k in range(1, len(qs) - 1):
        second = max(second, float(np.abs(qs[k - 1] - 2 * qs[k] + qs[k + 1]).max()))
    end0 = float(np.abs(geodesic_between(c0, c1, 0.0).points - c0.points).max())
    end1 = float(np.abs(geodesic_between(c0, c1, 1.0).points - c1.points).max())
    print(f"geodesic: second diff {second:.3e}, endpoints {max(end0, end1):.3e}")
    assert second < 1e-12
    assert end0 < 1e-6
    assert end1 < 1e-6


def test_criterion_08_reparametrization_nearly_cancels():
    # Reparametrizing a smooth curve moves it far in the curve metric but
    # barely in the shape metric: the aligned distance stays below 5% of the
    # unaligned one for three warps, inside a 30 second budget.  On small
    # grids the lattice search must equal exhaustive enumeration exactly.
    start = time.perf_counter()
    nodes = np.linspace(0.0, 1.0, 101)
    c = smooth_curve(nodes)
    warps = {
        "quadratic": 0.45 * nodes + 0.55 * nodes ** 2,
        "exponential": (np.exp(1.2 * nodes) - 1.0) / (np.exp(1.2) - 1.0),
        "sinusoidal": nodes + 0.09 * np.sin(2.0 * np.pi * nodes),
    }
    ratios = {}
    for name, phi in warps.items():
        warped = smooth_curve(phi)
        d_curve = curve_distance(c, warped)
        d_shape, _ = shape_distance(c, warped, grid=200)
        ratios[name] = d_shape / d_curve
        assert d_shape < 0.05 * d_curve, (name, d_shape, d_curve)

    rng = np.random.default_rng(1008)
    for n in (4, 6, 8):
        q0 = tsrv(stepped_curve(rng, n, 3))
        q1 = tsrv(stepped_curve(rng, n, 3))
        sq, _ = shape._dp_align(q0, q1, n)
        ref = exhaustive_lattice_min(q0, q1, n, DP_STEPS)
        assert sq == pytest.approx(ref, abs=1e-12)
    elapsed = time.perf_counter() - start
    pretty = {k: round(v, 4) for k, v in ratios.items()}
    print(f"alignment ratios {pretty} in {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_09_plane_rotations_match_scalar_theory():
    # In dimension 2 everything commutes and the distances have closed
    # scalar forms: theta = a t against theta = b t gives
    # 2^(1/4) |sqrt(a) - sqrt(b)| with no gain from warping.
    a, b, n = 2.1, 1.3, 50

    def subgroup(speed):
        thetas = speed * np.linspace(0.0, 1.0, n + 1)
        pts = np.stack([
            np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            for t in thetas])
        return ManifoldCurve(points=pts)

    expected = 2.0 ** 0.25 * abs(np.sqrt(a) - np.sqrt(b))
    c0, c1 = subgroup(a), subgroup(b)
    d_curve = curve_distance(c0, c1)
    d_shape, _ = shape_distance(c0, c1, grid=2 * n)
    print(f"plane rotations: curve {d_curve:.9f} shape {d_shape:.9f} "
          f"expected {expected:.9f}")
    assert d_curve == pytest.approx(expected, abs=1e-6)
    assert d_shape == pytest.approx(expected, rel=2e-2)


def test_criterion_10_periodic_class_separates_from_stationary():
    # Ten curves from a periodically modulated process against ten from the
    # stationary one: mean between-class shape distance exceeds the mean
    # within-class distance, under a 2 minute budget.
    start = time.perf_counter()
    n, dim, count = 16, 6, 256

    def curve_for(depth, seed):
        data = gen_pc_process(0.6, 4, depth, n, seed, count=count)
        corr = estimate_ensemble_correlation(data, n)
        seq = build_dilation_sequence(extract_schur_params(corr), dim)
        return from_dilation(seq)

    periodic = [curve_for(0.5, s) for s in range(10)]
    stationary = [curve_for(0.0, 100 + s) for s in range(10)]
    grid = 2 * periodic[0].segments

    def dist(x, y):
        return shape_distance(x, y, grid=grid)[0]

    within = [dist(g[i], g[j])
              for g in (periodic, stationary)
              for i in range(10) for j in range(i + 1, 10)]
    between = [dist(p, s) for p in periodic for s in stationary]
    elapsed = time.perf_counter() - start
    w, b = float(np.mean(within)), float(np.mean(between))
    print(f"classes: within {w:.4f} between {b:.4f} "
          f"ratio {b / w:.3f} in {elapsed:.1f}s")
    assert b > w
    assert elapsed < 120.0
