import json

import numpy as np
import pytest

from dilshape import dilation, io
from dilshape.errors import FormatError


class TestParamsFile:
    def test_flags_survive_round_trip(self, tmp_path):
        g = np.zeros((3, 3))
        g[0, 1] = 1.0  # zero defect blocks the lag-2 solve
        g[1, 2] = 0.3
        g[0, 2] = 0.7
        r = dilation.reconstruct_matrix(dilation.SchurParams.from_gamma(g))
        p = dilation.extract_schur_params(r)
        assert p.degenerate[0, 2] and p.boundary[0, 1]
        path = tmp_path / "p.json"
        io.save_params(path, p)
        back = io.load_params(path)
        assert np.array_equal(back.gamma, p.gamma)
        assert np.array_equal(back.degenerate, p.degenerate)
        assert np.array_equal(back.boundary, p.boundary)

    def test_boundary_follows_values_without_list(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 3, "gamma": [[0, 1, -1.0]]}))
        assert np.argwhere(io.load_params(path).boundary).tolist() == [[0, 1]]

    @pytest.mark.parametrize("pairs", [[[1, 1]], [[0, 3]], [[2, 0]], [[0]], [["a", 1]], 5])
    def test_rejects_bad_flag_pairs(self, tmp_path, pairs):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 3, "gamma": [], "degenerate": pairs}))
        with pytest.raises(FormatError):
            io.load_params(path)

    @pytest.mark.parametrize("n", [-1, "x", None])
    def test_rejects_bad_size(self, tmp_path, n):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": n}))
        with pytest.raises(FormatError):
            io.load_params(path)
