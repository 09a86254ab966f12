import json

import numpy as np
import pytest

from conftest import cli_status_and_peak
from dilshape import corr, curves, dilation, io
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

    @pytest.mark.parametrize("value", [0.5, None])
    def test_rejects_boundary_pair_below_one(self, tmp_path, value):
        gamma = [] if value is None else [[0, 1, value]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 3, "gamma": gamma, "boundary": [[0, 1]]}))
        with pytest.raises(FormatError, match="boundary"):
            io.load_params(path)

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

    def test_rejects_size_above_cap(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": io.MAX_SIZE + 1, "gamma": []}))
        with pytest.raises(FormatError):
            io.load_params(path)

    def test_writer_refuses_sizes_the_reader_refuses(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "MAX_SIZE", 3)
        path = tmp_path / "p.json"
        io.save_params(path, dilation.stationary_params([0.5], 3))
        assert io.load_params(path).n == 3
        with pytest.raises(FormatError):
            io.save_params(tmp_path / "q.json", dilation.stationary_params([0.5], 4))
        assert not (tmp_path / "q.json").exists()

    def test_oversized_header_exits_before_allocating(self, tmp_path):
        # A 4000 x 4000 gamma and its masks would take several hundred MB.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 4000, "gamma": []}))
        status, peak_kb, report = cli_status_and_peak(
            "dilate", path, "--dim", "2", "-o", tmp_path / "c.json")
        assert status == 5, report
        assert peak_kb < 150 * 1024, report


class TestRealizationsFile:
    @pytest.mark.parametrize("name, fmt", [("r.json", None), ("r.csv", None),
                                           ("r.txt", "json"), ("r.json", "csv")])
    def test_round_trip(self, tmp_path, name, fmt):
        data = corr.gen_pc_process(0.6, 4, 0.5, 5, seed=2, count=3)
        path = tmp_path / name
        io.save_realizations(path, data, fmt)
        assert io.load_realizations(path, fmt).samples.tolist() == data.samples.tolist()

    def test_format_overrides_extension(self, tmp_path):
        path = tmp_path / "r.txt"
        io.save_realizations(path, corr.gen_pc_process(0.6, 4, 0.5, 5, seed=2, count=3),
                             "json")
        assert len(json.loads(path.read_text())["samples"]) == 3
        with pytest.raises(FormatError):
            io.load_realizations(path)


class TestWrittenFields:
    """Writers write only the fields readers read; readers still accept the
    sizes, counts and closed flag that older files carry."""

    def objects(self):
        seq = dilation.build_dilation_sequence(dilation.stationary_params([0.5, 0.2], 6), 3)
        curve = curves.from_dilation(seq)
        return {"curve": (io.save_curve, io.load_curve, curve, {"points", "base"}),
                "mean": (io.save_curve, io.load_curve,
                         curves.ManifoldCurve(points=curve.points), {"points"}),
                "sequence": (io.save_sequence, io.load_sequence, seq, {"matrices"}),
                "matrix": (io.save_matrix, io.load_matrix, np.eye(3), {"entries"}),
                "samples": (io.save_realizations, io.load_realizations,
                            corr.gen_pc_process(0.6, 4, 0.5, 5, seed=2, count=3),
                            {"samples"})}

    def test_only_read_fields_are_written(self, tmp_path):
        for name, (save, _, obj, fields) in self.objects().items():
            save(tmp_path / f"{name}.json", obj)
            assert set(json.loads((tmp_path / f"{name}.json").read_text())) == fields, name

    def test_older_fields_are_accepted_and_ignored(self, tmp_path):
        old = {"curve": {"dim": 3, "closed": True}, "mean": {"dim": 7, "closed": False},
               "sequence": {"dim": 9}, "matrix": {"n": 5},
               "samples": {"count": 1, "length": 2}}
        for name, (save, load, obj, _) in self.objects().items():
            path = tmp_path / f"{name}.json"
            save(path, obj)
            fresh = load(path)
            path.write_text(json.dumps({**old[name], **json.loads(path.read_text())}))
            again = load(path)
            for attr in ("points", "base", "matrices", "samples"):
                if hasattr(fresh, attr):
                    assert np.array_equal(getattr(again, attr), getattr(fresh, attr)), name
            if isinstance(fresh, np.ndarray):
                assert np.array_equal(again, fresh)
