import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dilshape import dilation
from dilshape.dilation import SchurParams
from dilshape.errors import (
    BadDim,
    BadPosition,
    NotAContraction,
    OutOfRange,
    SingularStep,
    TruncationWindowExceeded,
)

# Fixed SPD test matrix; eigenvalues 0.481 .. 2.013.
R4 = np.array([
    [1.0, 0.50, 0.30, 0.20],
    [0.50, 1.0, 0.40, 0.25],
    [0.30, 0.40, 1.0, 0.35],
    [0.20, 0.25, 0.35, 1.0],
])

# Partial correlations of R4 computed independently from the Schur
# complement Sigma_AA - Sigma_AS Sigma_SS^-1 Sigma_SA, frozen here.
PCORR_02_GIVEN_1 = 0.1259881576697424
PCORR_13_GIVEN_2 = 0.12812370226601225
PCORR_03_GIVEN_12 = 0.056678552266139826


NON_FINITE = [np.nan, np.inf, -np.inf]


def ar_matrix(a, n):
    return a ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))


class TestElementaryBlocks:
    def test_defect(self):
        assert dilation.defect(0.0) == 1.0
        assert dilation.defect(0.6) == pytest.approx(0.8)
        assert dilation.defect(1.0) == 0.0
        with pytest.raises(NotAContraction):
            dilation.defect(1.1)

    def test_givens_is_orthogonal_involution(self):
        # The 2x2 contraction block is symmetric with determinant -1, so it
        # squares to the identity; embedding keeps all three properties.
        g = dilation.givens(0.37, 1, 4)
        assert np.allclose(g, g.T, atol=0)
        assert np.allclose(g @ g, np.eye(4), atol=1e-15)
        assert np.linalg.det(g) == pytest.approx(-1.0)

    def test_givens_zero_is_transposition(self):
        g = dilation.givens(0.0, 0, 3)
        assert np.array_equal(g, np.array([[0., 1., 0.], [1., 0., 0.], [0., 0., 1.]]))

    def test_givens_position_bounds(self):
        with pytest.raises(BadPosition):
            dilation.givens(0.5, 2, 3)
        with pytest.raises(BadPosition):
            dilation.givens(0.5, 0, 1)


class TestSchurParams:
    def test_from_gamma_masks_lower_triangle(self):
        p = SchurParams.from_gamma(np.full((3, 3), 0.5))
        assert p.gamma[1, 0] == 0.0
        assert p.gamma[0, 1] == 0.5
        assert not p.degenerate.any()

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            g = np.zeros((3, 3))
            g[0, 2] = bad
            with pytest.raises(OutOfRange):
                SchurParams.from_gamma(g)

    def test_rejects_overshoot(self):
        g = np.zeros((3, 3))
        g[0, 1] = 1.5
        with pytest.raises(NotAContraction):
            SchurParams.from_gamma(g)

    def test_boundary_is_read_off_gamma(self):
        g = np.zeros((3, 3))
        g[0, 1] = -1.0
        g[1, 2] = 0.5
        p = SchurParams.from_gamma(g)
        assert [f.name for f in dataclasses.fields(p)] == ["gamma", "degenerate"]
        assert np.argwhere(p.boundary).tolist() == [[0, 1]]

    def test_stationary_layout(self):
        p = dilation.stationary_params([0.5, -0.2], 4)
        assert p.gamma[0, 1] == p.gamma[1, 2] == p.gamma[2, 3] == 0.5
        assert p.gamma[0, 2] == p.gamma[1, 3] == -0.2
        assert p.gamma[0, 3] == 0.0


class TestExtraction:
    def test_adjacent_entries_are_copied(self):
        p = dilation.extract_schur_params(R4)
        for k in range(3):
            assert p.gamma[k, k + 1] == R4[k, k + 1]

    def test_parameters_are_partial_correlations(self):
        p = dilation.extract_schur_params(R4)
        assert p.gamma[0, 2] == pytest.approx(PCORR_02_GIVEN_1, abs=1e-14)
        assert p.gamma[1, 3] == pytest.approx(PCORR_13_GIVEN_2, abs=1e-14)
        assert p.gamma[0, 3] == pytest.approx(PCORR_03_GIVEN_12, abs=1e-14)

    def test_ar_parameters_vanish_beyond_lag_one(self):
        # First-order autoregression: conditioning on any in-between value
        # screens off the endpoints, so every longer-lag parameter is zero.
        p = dilation.extract_schur_params(ar_matrix(0.7, 6))
        off = p.gamma - np.diag(np.diag(p.gamma, 1), 1)
        assert np.abs(off).max() < 1e-12

    def test_round_trip_random_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(2, 8)
            g = np.triu(rng.uniform(-0.9, 0.9, (n, n)), 1)
            p = SchurParams.from_gamma(g)
            r = dilation.reconstruct_matrix(p)
            assert np.linalg.eigvalsh(r).min() > 0.0
            back = dilation.extract_schur_params(r)
            assert np.abs(back.gamma - g).max() < 1e-12

    def test_entry_reconstruction_matches_matrix(self):
        # Entry (k, j) depends only on the parameters inside the window k..j,
        # so it is the corner of the matrix reconstructed from that window.
        p = dilation.extract_schur_params(R4)
        for k in range(4):
            for j in range(k + 1, 4):
                window = SchurParams.from_gamma(p.gamma[k:j + 1, k:j + 1])
                assert dilation.reconstruct_matrix(window)[0, -1] == pytest.approx(
                    R4[k, j], abs=1e-12)

    def test_degenerate_entries_are_flagged_not_amplified(self):
        g = np.zeros((3, 3))
        g[0, 1] = 1.0  # zero defect blocks the lag-2 solve
        g[1, 2] = 0.3
        g[0, 2] = 0.7
        r = dilation.reconstruct_matrix(SchurParams.from_gamma(g))
        p = dilation.extract_schur_params(r)
        assert p.boundary[0, 1]
        assert p.degenerate[0, 2]
        assert p.gamma[0, 2] == 0.0

    def test_non_finite_matrix_raises(self):
        for bad in (np.nan, np.inf):
            r = R4.copy()
            r[0, 3] = r[3, 0] = bad
            with pytest.raises(OutOfRange):
                dilation.extract_schur_params(r)

    def test_inadmissible_matrix_raises(self):
        r = np.array([
            [1.0, 0.9, -0.9],
            [0.9, 1.0, 0.9],
            [-0.9, 0.9, 1.0],
        ])
        with pytest.raises(NotAContraction):
            dilation.extract_schur_params(r)


def random_correlation(rng, n):
    a = rng.standard_normal((n, 2 * n))
    cov = a @ a.T
    scale = 1.0 / np.sqrt(np.diag(cov))
    return cov * np.outer(scale, scale)


class TestWalk:
    def test_parameters_match_inverse_reference(self):
        # Independent reference: partial correlation from the precision
        # matrix of the window k..j.
        rng = np.random.default_rng(23)
        for n in (2, 3, 5, 9, 16, 24):
            r = random_correlation(rng, n)
            p = dilation.extract_schur_params(r)
            for k in range(n):
                for j in range(k + 1, n):
                    prec = np.linalg.inv(r[k:j + 1, k:j + 1])
                    ref = -prec[0, -1] / np.sqrt(prec[0, 0] * prec[-1, -1])
                    assert p.gamma[k, j] == pytest.approx(ref, abs=1e-9)
            assert not p.degenerate.any() and not p.boundary.any()

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_round_trip_pc_estimates(self, n):
        from dilshape.corr import estimate_ensemble_correlation, gen_pc_process
        data = gen_pc_process(0.6, 4, 0.5, n, seed=n, count=2 * n)
        est = estimate_ensemble_correlation(data, n)
        p = dilation.extract_schur_params(est)
        assert not p.degenerate.any()
        assert np.abs(dilation.reconstruct_matrix(p) - est.entries).max() < 1e-9

    def test_boundary_entry_mid_matrix(self):
        # gamma[2, 3] = -1 ties coordinate 3 to coordinate 2, so every
        # parameter whose defect product passes through that entry is flagged.
        rng = np.random.default_rng(5)
        g = np.triu(rng.uniform(-0.5, 0.5, (6, 6)), 1)
        g[2, 3] = -1.0
        r = dilation.reconstruct_matrix(SchurParams.from_gamma(g))
        assert np.isfinite(r).all()
        p = dilation.extract_schur_params(r)
        assert np.argwhere(p.boundary).tolist() == [[2, 3]]
        assert np.argwhere(p.degenerate).tolist() == [[0, 3], [1, 3], [2, 4], [2, 5]]
        assert (p.gamma[p.degenerate] == 0.0).all()
        back = dilation.reconstruct_matrix(p)
        assert np.isfinite(back).all()
        assert np.abs(back - r).max() < 1e-9

    @pytest.mark.parametrize("dim", [2, 4, 7])
    @pytest.mark.parametrize("full", [False, True])
    def test_sequence_matches_givens_products(self, dim, full):
        rng = np.random.default_rng(dim)
        n = 7
        g = np.triu(rng.uniform(-0.9, 0.9, (n, n)), 1)
        seq = dilation.build_dilation_sequence(SchurParams.from_gamma(g), dim, full=full)
        padded = np.zeros((n + dim, n + dim))
        padded[:n, :n] = g
        for i, w in enumerate(seq.matrices):
            ref = np.eye(dim)
            for l in range(1, dim):
                ref = ref @ dilation.givens(padded[i, i + l], l - 1, dim)
            assert np.abs(w - ref).max() < 1e-14


def random_gamma(seed, n, bound, units=0):
    """Strict upper triangle uniform in [-bound, bound], with ``units`` entries
    at random positions (repeats allowed) set to +-1."""
    rng = np.random.default_rng(seed)
    g = np.triu(rng.uniform(-bound, bound, (n, n)), 1)
    rows, cols = np.triu_indices(n, 1)
    pick = rng.integers(0, rows.size, units)
    g[rows[pick], cols[pick]] = rng.choice([-1.0, 1.0], units)
    return g


# Parameter sets holding boundary entries: n <= 12, the rest |gamma| <= 0.5.
UNIT_SETS = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
                 units=st.integers(1, 4))


class TestParcorProperties:
    """The contracts of the parcor recursion on random parameter sets.

    Interior sets stay within n <= 64 at |gamma| <= 0.5 and n <= 8 at
    |gamma| <= 0.99: at n = 64 with |gamma| <= 0.9 the reconstructed matrix
    is numerically singular and extraction rightly refuses it.
    """

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           size=st.one_of(st.tuples(st.integers(1, 64), st.just(0.5)),
                          st.tuples(st.integers(1, 8), st.just(0.99))))
    def test_interior_parameters_round_trip(self, seed, size):
        g = random_gamma(seed, *size)
        r = dilation.reconstruct_matrix(SchurParams.from_gamma(g))
        p = dilation.extract_schur_params(r)
        assert np.abs(p.gamma - g).max() <= 1e-9
        assert not p.boundary.any() and not p.degenerate.any()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 64),
           scale=st.floats(0.3, 0.6))
    def test_round_trip_error_follows_conditioning(self, seed, n, scale):
        # The recursion is backward stable, so the error of gamma -> R -> gamma
        # scales with n eps / lambda_min(R); over 4,000 random sets of these
        # sizes and scales it stayed below 0.065 times that.
        g = random_gamma(seed, n, scale)
        r = dilation.reconstruct_matrix(SchurParams.from_gamma(g))
        bound = 0.25 * n * np.finfo(float).eps / np.linalg.eigvalsh(r)[0]
        assert np.abs(dilation.extract_schur_params(r).gamma - g).max() <= bound

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**UNIT_SETS)
    def test_boundary_sets_reconstruct(self, seed, n, units):
        r = dilation.reconstruct_matrix(
            SchurParams.from_gamma(random_gamma(seed, n, 0.5, units)))
        p = dilation.extract_schur_params(r)
        assert np.abs(dilation.reconstruct_matrix(p) - r).max() <= 1e-9
        assert (p.gamma[p.degenerate] == 0.0).all()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**UNIT_SETS)
    def test_boundary_sets_dilate_to_entries(self, seed, n, units):
        p = SchurParams.from_gamma(random_gamma(seed, n, 0.5, units))
        r = dilation.reconstruct_matrix(p)
        seq = dilation.build_dilation_sequence(p, n, full=True)
        for i, j in dilation.reconstructible_window(seq):
            assert abs(dilation.reconstruct_correlation(seq, i, j) - r[i, j]) <= 1e-12


class TestDilationSequence:
    def test_windowed_count_and_orthogonality(self):
        p = dilation.extract_schur_params(ar_matrix(0.6, 6))
        seq = dilation.build_dilation_sequence(p, 4)
        assert seq.count == 3
        for w in seq.matrices:
            assert np.abs(w @ w.T - np.eye(4)).max() < 1e-12

    def test_full_count(self):
        p = dilation.extract_schur_params(ar_matrix(0.6, 6))
        assert dilation.build_dilation_sequence(p, 4, full=True).count == 5

    def test_dim_bounds(self):
        p = dilation.extract_schur_params(R4)
        with pytest.raises(BadDim):
            dilation.build_dilation_sequence(p, 1)
        with pytest.raises(BadDim):
            dilation.build_dilation_sequence(p, 5)

    @pytest.mark.parametrize("dim, full", [(2, False), (3, True)])
    def test_refuses_degenerate_sets(self, dim, full):
        g = np.zeros((3, 3))
        g[0, 1] = 1.0  # zero defect blocks the lag-2 solve
        g[1, 2] = 0.3
        p = dilation.extract_schur_params(
            dilation.reconstruct_matrix(SchurParams.from_gamma(g)))
        assert p.degenerate[0, 2]
        with pytest.raises(SingularStep) as info:
            dilation.build_dilation_sequence(p, dim, full=full)
        assert info.value.exit_code == 3

    def test_products_reproduce_entries(self):
        p = dilation.extract_schur_params(R4)
        seq = dilation.build_dilation_sequence(p, 4, full=True)
        for i, j in dilation.reconstructible_window(seq):
            assert dilation.reconstruct_correlation(seq, i, j) == pytest.approx(
                R4[i, j], abs=1e-12)

    @pytest.mark.parametrize("n, dim, full", [(9, 3, False), (9, 4, True), (9, 9, True),
                                              (12, 12, False), (7, 5, None)])
    def test_window_read_back_equals_entrywise_products(self, n, dim, full):
        # full None: a stack of dense random rotations rather than Givens products.
        rng = np.random.default_rng(n * dim)
        if full is None:
            m = rng.standard_normal((n - 1, dim, dim))
            seq = dilation.DilationSequence(matrices=expm(m - m.transpose(0, 2, 1)))
        else:
            g = np.triu(rng.uniform(-0.6, 0.6, (n, n)), 1)
            seq = dilation.build_dilation_sequence(SchurParams.from_gamma(g), dim, full=full)
        out = dilation.reconstruct_window(seq)
        inside = np.eye(seq.count + 1, dtype=bool)
        for i, j in dilation.reconstructible_window(seq):
            inside[i, j] = inside[j, i] = True
            assert abs(out[i, j] - dilation.reconstruct_correlation(seq, i, j)) <= 1e-15
            assert out[j, i] == out[i, j]
        assert np.array_equal(np.isfinite(out), inside)

    def test_size_cap_is_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(dilation, "MAX_SEQUENCE_FLOATS", 3 * 4 * 4)
        p = dilation.stationary_params([0.5, 0.2], 5)
        assert dilation.build_dilation_sequence(p, 4, full=False).count == 2
        assert dilation.build_dilation_sequence(
            dilation.stationary_params([0.5, 0.2], 4), 4, full=True).count == 3
        with pytest.raises(BadDim, match="MAX_SEQUENCE_FLOATS"):
            dilation.build_dilation_sequence(p, 4, full=True)

    def test_window_errors(self):
        p = dilation.extract_schur_params(ar_matrix(0.5, 8))
        seq = dilation.build_dilation_sequence(p, 3)
        with pytest.raises(TruncationWindowExceeded):
            dilation.reconstruct_correlation(seq, 0, 3)
        with pytest.raises(IndexError):
            dilation.reconstruct_correlation(seq, 6, 7)
        with pytest.raises(IndexError):
            dilation.reconstruct_correlation(seq, 2, 2)


class TestNaimark:
    def test_frozen_first_row(self):
        # (g1, d1 g2, d1 d2) for parcors (0.5, 0.4); d = sqrt(1 - g^2).
        u = dilation.naimark_matrix([0.5, 0.4], 3)
        assert u[0] == pytest.approx(
            [0.5, 0.34641016151377546, 0.7937253933193771], abs=1e-15)

    def test_orthogonal(self):
        u = dilation.naimark_matrix([0.5, 0.3, -0.2], 5)
        assert np.abs(u @ u.T - np.eye(5)).max() < 1e-12

    def test_matches_product_construction(self):
        parcors = [0.5, 0.3, -0.2]
        p = dilation.stationary_params(parcors, 6)
        seq = dilation.build_dilation_sequence(p, 4)
        u = dilation.naimark_matrix(parcors, 4)
        for w in seq.matrices:
            assert np.abs(w - u).max() < 1e-12

    def test_powers_reproduce_stationary_row(self):
        parcors = [0.5, 0.3, -0.2, 0.1]
        dim = 5
        r = dilation.reconstruct_matrix(dilation.stationary_params(parcors, dim))
        u = dilation.naimark_matrix(parcors, dim)
        e1 = np.zeros(dim)
        e1[0] = 1.0
        power = np.eye(dim)
        for k in range(dim):
            assert e1 @ power @ e1 == pytest.approx(r[0, k], abs=1e-12)
            power = power @ u

    def test_dim_check(self):
        with pytest.raises(BadDim):
            dilation.naimark_matrix([0.5], 1)
        with pytest.raises(NotAContraction):
            dilation.naimark_matrix([1.5], 3)


class TestLevinson:
    def test_ar_reflections(self):
        refl, errs = dilation.levinson(0.5 ** np.arange(6))
        assert refl == pytest.approx([0.5, 0, 0, 0, 0], abs=1e-15)
        assert errs[0] == 1.0
        assert np.all(np.diff(errs) <= 1e-15)

    def test_matches_constant_diagonals_of_extraction(self):
        row = np.array([1.0, 0.5, 0.3, 0.1, 0.05])
        refl, _ = dilation.levinson(row)
        from scipy.linalg import toeplitz
        p = dilation.extract_schur_params(toeplitz(row))
        for lag in range(1, 5):
            band = np.diagonal(p.gamma, lag)
            assert np.abs(band - refl[lag - 1]).max() < 1e-12

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularStep):
            dilation.levinson([1.0, 1.0, 1.0])

    def test_row_must_start_with_one(self):
        with pytest.raises(OutOfRange):
            dilation.levinson([0.9, 0.5])

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("row", [[1.0, None], [1.0, 0.5, None], [None, 0.5]])
    def test_non_finite_row_is_out_of_range(self, row, bad):
        with pytest.raises(OutOfRange):
            dilation.levinson([bad if r is None else r for r in row])


class TestOneContractionRule:
    """defect, givens and naimark_matrix share the contraction rule of
    stationary_params and SchurParams: a magnitude past one, by any amount,
    is NotAContraction."""

    @pytest.mark.parametrize("value", [1.0 + 5e-13, -1.0 - 5e-13, 1.5])
    @pytest.mark.parametrize("call", [
        dilation.defect,
        lambda g: dilation.givens(g, 0, 2),
        lambda g: dilation.naimark_matrix([g], 3),
    ], ids=["defect", "givens", "naimark_matrix"])
    def test_past_one_is_not_a_contraction(self, call, value):
        with pytest.raises(NotAContraction):
            dilation.stationary_params([value], 3)
        with pytest.raises(NotAContraction):
            call(value)


@pytest.mark.parametrize("bad", NON_FINITE)
class TestNonFiniteParcors:
    def test_defect(self, bad):
        with pytest.raises(OutOfRange):
            dilation.defect(bad)

    def test_givens(self, bad):
        with pytest.raises(OutOfRange):
            dilation.givens(bad, 0, 2)

    @pytest.mark.parametrize("parcors", [[None], [0.5, None], [0.5, 0.3, None]])
    def test_naimark_matrix(self, bad, parcors):
        # The third parcor lies beyond the window of dim 3 and is checked too.
        with pytest.raises(OutOfRange):
            dilation.naimark_matrix([bad if p is None else p for p in parcors], 3)


class TestSizeArguments:
    """A size or index that is not an integer, or is past the size cap, is
    OutOfRange before anything is indexed or allocated."""

    @pytest.mark.parametrize("position, dim", [(0.5, 3), (0, 2.5), (0, 10 ** 12)])
    def test_givens(self, position, dim):
        with pytest.raises(OutOfRange):
            dilation.givens(0.5, position, dim)

    @pytest.mark.parametrize("n", [2.5, -3, 10 ** 12])
    def test_stationary_params(self, n):
        with pytest.raises(OutOfRange):
            dilation.stationary_params([0.5], n)

    @pytest.mark.parametrize("dim", [2.5, 3.0, np.nan])
    def test_build_dilation_sequence(self, dim):
        with pytest.raises(OutOfRange):
            dilation.build_dilation_sequence(dilation.stationary_params([0.5, 0.2], 6), dim)

    @pytest.mark.parametrize("i, j", [(0.5, 2), (0, 2.0)])
    def test_reconstruct_correlation(self, i, j):
        seq = dilation.build_dilation_sequence(dilation.stationary_params([0.5, 0.2], 6), 4)
        with pytest.raises(OutOfRange):
            dilation.reconstruct_correlation(seq, i, j)

    @pytest.mark.parametrize("dim", [2.5, 3.0, 10 ** 12])
    def test_naimark_matrix(self, dim):
        with pytest.raises(OutOfRange):
            dilation.naimark_matrix([0.5], dim)
