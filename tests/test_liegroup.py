import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bounded_skew, random_rotation, random_skew
from dilshape import liegroup
from dilshape.errors import (
    DimMismatch,
    NearCutLocus,
    NotOrthogonal,
    NotSkew,
    OutOfRange,
    WrongComponent,
)


def so2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestAlgebraChecks:
    def test_project_skew(self):
        m = np.arange(9.0).reshape(3, 3)
        p = liegroup.project_skew(m)
        assert np.allclose(p, -p.T, atol=0)

    def test_ensure_skew_rejects_symmetric_part(self):
        with pytest.raises(NotSkew):
            liegroup.ensure_skew(np.eye(3))

    def test_ensure_rotation_rejects_scaled(self):
        with pytest.raises(NotOrthogonal):
            liegroup.ensure_rotation(2.0 * np.eye(3))

    @pytest.mark.parametrize("g", [np.full((2, 2), np.nan),
                                   np.array([[1e308, 1e308], [1e308, -1e308]])],
                             ids=["nan", "overflowing"])
    def test_ensure_rotation_rejects_unbounded(self, g):
        with pytest.raises(NotOrthogonal):
            liegroup.ensure_rotation(g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", [
        lambda x: liegroup.ensure_skew(np.array([[0.0, x], [-x, 0.0]])),
        lambda x: liegroup.exp_group(np.full((3, 3), x)),
    ], ids=["ensure_skew", "exp_group"])
    def test_non_finite_input_is_out_of_range(self, call, bad):
        with pytest.raises(OutOfRange):
            call(bad)


class TestExpLog:
    def test_round_trip_small_sample(self):
        rng = np.random.default_rng(5)
        for d in range(2, 7):
            for _ in range(20):
                omega = bounded_skew(rng, d, rng.uniform(0.1, np.pi - 0.01))
                g = liegroup.exp_group(omega)
                assert np.abs(liegroup.log_group(g) - omega).max() < 1e-9

    def test_so2_closed_form(self):
        theta = 1.234
        log = liegroup.log_group(so2(theta))
        assert log[1, 0] == pytest.approx(theta, abs=1e-12)

    def test_log_near_cut_locus(self):
        with pytest.raises(NearCutLocus):
            liegroup.log_group(so2(np.pi - 1e-8))
        with pytest.raises(NearCutLocus):
            liegroup.log_group(np.diag([-1.0, -1.0, 1.0]))

    def test_log_wrong_component(self):
        with pytest.raises(WrongComponent):
            liegroup.log_group(np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_stacked_log_matches_per_matrix(self, d):
        rng = np.random.default_rng(30 + d)
        omegas = np.stack([bounded_skew(rng, d, rng.uniform(0.0, np.pi - 0.01))
                           for _ in range(12)]).reshape(3, 4, d, d)
        gs = np.stack([liegroup.exp_group(w) for w in omegas.reshape(-1, d, d)])
        stacked = liegroup.log_group(gs.reshape(3, 4, d, d))
        assert stacked.shape == (3, 4, d, d)
        single = np.stack([liegroup.log_group(g) for g in gs]).reshape(3, 4, d, d)
        assert np.abs(stacked - single).max() < 1e-12
        assert np.abs(stacked - omegas).max() < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_stacked_exp_matches_per_matrix(self, d):
        rng = np.random.default_rng(50 + d)
        omegas = np.stack([bounded_skew(rng, d, rng.uniform(0.0, 3.0))
                           for _ in range(12)]).reshape(3, 4, d, d)
        stacked = liegroup.exp_group(omegas)
        single = np.stack([liegroup.exp_group(w) for w in omegas.reshape(-1, d, d)])
        assert np.array_equal(stacked, single.reshape(3, 4, d, d))

    def test_one_non_skew_matrix_fails_the_exp_stack(self):
        # Each matrix is judged on its own scale: a large neighbour does not
        # loosen the tolerance for a small one.
        rng = np.random.default_rng(60)
        omegas = np.stack([random_skew(rng, 3) for _ in range(7)])
        omegas[0] *= 1e4
        omegas[4, 0, 1] += 1e-8
        with pytest.raises(NotSkew):
            liegroup.exp_group(omegas)
        with pytest.raises(DimMismatch):
            liegroup.exp_group(np.zeros((4, 2, 3)))

    @pytest.mark.parametrize("bad, error", [
        (np.diag([-1.0, -1.0, 1.0]), NearCutLocus),
        (np.diag([1.0, 1.0, -1.0]), WrongComponent),
        (1.001 * np.eye(3), NotOrthogonal),
    ])
    def test_one_bad_matrix_fails_the_stack(self, bad, error):
        rng = np.random.default_rng(40)
        gs = np.stack([random_rotation(rng, 3, 0.5) for _ in range(7)])
        gs[4] = bad
        with pytest.raises(error):
            liegroup.log_group(gs)

    def test_stack_of_non_square_matrices(self):
        with pytest.raises(DimMismatch):
            liegroup.log_group(np.zeros((4, 2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 6),
           angle=st.floats(0.0, np.pi - 1e-3))
    def test_round_trip_property(self, seed, d, angle):
        omega = bounded_skew(np.random.default_rng(seed), d, angle)
        g = liegroup.exp_group(omega)
        assert np.abs(liegroup.log_group(g) - omega).max() < 1e-9


class TestTransportAndGeodesics:
    def test_distance_symmetry_and_triangle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g0, g1, g2 = (random_rotation(rng, 3, 0.8) for _ in range(3))
            d01 = liegroup.geodesic_distance(g0, g1)
            assert d01 == pytest.approx(liegroup.geodesic_distance(g1, g0), abs=1e-10)
            assert d01 <= (liegroup.geodesic_distance(g0, g2)
                           + liegroup.geodesic_distance(g2, g1) + 1e-10)

    def test_so2_distance_closed_form(self):
        theta = 0.9
        assert liegroup.geodesic_distance(np.eye(2), so2(theta)) == pytest.approx(
            np.sqrt(2.0) * theta, abs=1e-12)
