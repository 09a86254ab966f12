import numpy as np
import pytest

from dilshape import corr
from dilshape.errors import (
    DegenerateVariance,
    InsufficientRealizations,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
    OutOfRange,
)


def ar_matrix(a, n):
    return a ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))


class TestValidateSpd:
    def test_accepts_ar_matrix(self):
        m = corr.validate_spd(ar_matrix(0.6, 5))
        assert m.entries.shape == (5, 5)
        assert not m.repaired

    def test_normalizes_unit_diagonal_drift(self):
        r = ar_matrix(0.4, 4)
        r[2, 2] = 1.0 + 1e-13
        m = corr.validate_spd(r)
        assert np.allclose(np.diag(m.entries), 1.0)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            r = ar_matrix(0.5, 4)
            r[1, 2] = r[2, 1] = bad
            with pytest.raises(OutOfRange):
                corr.validate_spd(r)

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSquare):
            corr.validate_spd(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        r = ar_matrix(0.5, 3)
        r[0, 1] += 1e-3
        with pytest.raises(NotSymmetric):
            corr.validate_spd(r)

    def test_rejects_bad_diagonal(self):
        r = ar_matrix(0.5, 3)
        r[1, 1] = -1.0
        with pytest.raises(NonPositiveDiagonal):
            corr.validate_spd(r)

    def test_rejects_indefinite(self):
        r = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            corr.validate_spd(r)

    def test_extreme_diagonal_rescales_without_overflow(self):
        m = corr.validate_spd(np.array([[1e308, 0.5], [0.5, 1.0]]))
        assert m.entries[0, 1] == pytest.approx(0.5 / np.sqrt(1e308), rel=1e-12)
        with pytest.raises(NotPositiveDefinite):
            corr.validate_spd(np.array([[5e-324, 1.0], [1.0, 5e-324]]))

    def test_entries_read_only(self):
        m = corr.validate_spd(ar_matrix(0.3, 3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 2.0


class TestEnsembleEstimate:
    def test_matches_analytic_second_moments(self):
        # m(t) scaling of the innovations makes the true covariance
        # non-Toeplitz; the oracle propagates the same recursion exactly.
        data = corr.gen_pc_process(0.6, 4, 0.5, 12, seed=7, count=20000)
        cov = corr.pc_covariance_oracle(0.6, 4, 0.5, 12)
        scale = 1.0 / np.sqrt(np.diag(cov))
        truth = cov * np.outer(scale, scale)
        est = corr.estimate_ensemble_correlation(data, 12)
        assert np.abs(est.entries - truth).max() < 0.05

    def test_requires_two_realizations(self):
        data = corr.RealizationSet(samples=np.ones((1, 4)))
        with pytest.raises(InsufficientRealizations):
            corr.estimate_ensemble_correlation(data, 4)

    def test_rejects_zero_variance_coordinate(self):
        samples = np.random.default_rng(0).standard_normal((32, 4))
        samples[:, 2] = 0.0
        with pytest.raises(DegenerateVariance):
            corr.estimate_ensemble_correlation(corr.RealizationSet(samples=samples), 4)

    def test_rank_deficient_estimate_is_repaired(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((3, 8))  # rank 3 < 8
        data = corr.RealizationSet(samples=samples)
        est = corr.estimate_ensemble_correlation(data, 8)
        assert est.repaired
        assert np.linalg.eigvalsh(est.entries).min() > 0.0

    def test_prefix_length_bounds(self):
        data = corr.RealizationSet(samples=np.random.default_rng(1).standard_normal((16, 4)))
        with pytest.raises(OutOfRange):
            corr.estimate_ensemble_correlation(data, 5)

    @pytest.mark.parametrize("n", [2.5, 3.0, np.nan])
    def test_prefix_length_must_be_an_integer(self, n):
        data = corr.RealizationSet(samples=np.random.default_rng(1).standard_normal((16, 4)))
        with pytest.raises(OutOfRange):
            corr.estimate_ensemble_correlation(data, n)


class TestGenerators:
    def test_ar_matrix_entries(self):
        m = corr.gen_stationary_ar(0.8, 5)
        assert np.allclose(m.entries, ar_matrix(0.8, 5), atol=1e-15)

    def test_ar_coefficient_range(self):
        with pytest.raises(OutOfRange):
            corr.gen_stationary_ar(1.0, 4)

    def test_modulation_profile(self):
        # The last 8 amplitudes are those of t = 0 .. 7.
        flat = corr._pc_amplitudes(0.6, 4, 0.0, 8)[-8:]
        assert np.allclose(flat, 1.0)
        m = corr._pc_amplitudes(0.6, 4, 0.5, 8)[-8:]
        assert np.allclose(m[:4], m[4:])
        assert m.max() == pytest.approx(1.5)

    def test_pc_process_deterministic(self):
        a = corr.gen_pc_process(0.6, 4, 0.5, 10, seed=42, count=32)
        b = corr.gen_pc_process(0.6, 4, 0.5, 10, seed=42, count=32)
        assert np.array_equal(a.samples, b.samples)
        c = corr.gen_pc_process(0.6, 4, 0.5, 10, seed=43, count=32)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("a, period, depth, n", [(0.6, 4, 0.5, 9), (-0.7, 7, 0.9, 30)])
    def test_oracle_equals_its_scalar_recursion(self, a, period, depth, n):
        # Reference: the variance recursion and the fill cov[i, j] =
        # a^(j - i) v_i written as scalar loops; the arithmetic is the same.
        v, variances = 0.0, []
        for t in range(-(8 * period + 64), n):
            v = a * a * v + float(1.0 + depth * np.cos(2.0 * np.pi * t / period)) ** 2
            variances.append(v)
        want = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                want[i, j] = want[j, i] = a ** (j - i) * variances[i - n]
        assert np.array_equal(corr.pc_covariance_oracle(a, period, depth, n), want)

    def test_pc_depth_zero_is_stationary(self):
        cov = corr.pc_covariance_oracle(0.5, 4, 0.0, 8)
        scale = 1.0 / np.sqrt(np.diag(cov))
        assert np.abs(cov * np.outer(scale, scale) - ar_matrix(0.5, 8)).max() < 1e-12

    @pytest.mark.parametrize("make", [
        lambda: corr.gen_pc_process(0.6, 4, 0.5, 8, seed=-1),
        lambda: corr.gen_pc_process(0.6, 4, 0.5, 8, seed=2.5),
        lambda: corr.gen_pc_process(0.6, 4, 0.5, corr.MAX_SIZE + 1, seed=0),
        lambda: corr.gen_pc_process(0.6, 4, 0.5, 8, seed=0, count=corr.MAX_COUNT + 1),
        lambda: corr.gen_pc_process(0.6, corr.MAX_PERIOD + 1, 0.5, 8, seed=0),
        lambda: corr.gen_pc_process(0.6, 4.5, 0.5, 8, seed=0),
        lambda: corr.pc_covariance_oracle(0.6, corr.MAX_PERIOD + 1, 0.5, 8),
        lambda: corr.gen_stationary_ar(0.6, corr.MAX_SIZE + 1),
        lambda: corr.gen_stationary_ar(0.6, float("nan")),
    ])
    def test_counts_past_caps_are_out_of_range(self, make):
        with pytest.raises(OutOfRange):
            make()

    def test_caps_are_inclusive(self):
        assert corr.gen_pc_process(0.6, corr.MAX_PERIOD, 0.5, corr.MAX_SIZE, seed=0,
                                   count=1).length == corr.MAX_SIZE
        assert corr.gen_pc_process(0.6, 1, 0.5, 1, seed=0,
                                   count=corr.MAX_COUNT).count == corr.MAX_COUNT

    def test_pc_parameter_checks(self):
        with pytest.raises(OutOfRange):
            corr.gen_pc_process(0.6, 0, 0.5, 8, seed=0)
        with pytest.raises(OutOfRange):
            corr.gen_pc_process(0.6, 4, 1.0, 8, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda bad: corr.pc_covariance_oracle(bad, 4, 0.5, 3),
        lambda bad: corr.pc_covariance_oracle(0.6, 4, bad, 3),
        lambda bad: corr.gen_pc_process(bad, 4, 0.5, 3, seed=0),
        lambda bad: corr.gen_pc_process(0.6, 4, bad, 3, seed=0),
    ], ids=["oracle-coefficient", "oracle-depth", "process-coefficient", "process-depth"])
    def test_pc_non_finite_arguments(self, make, bad):
        with pytest.raises(OutOfRange):
            make(bad)
