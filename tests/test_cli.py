import json

import numpy as np
import pytest

from dilshape import io
from dilshape.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def write_matrix(path, entries):
    path.write_text(json.dumps({"n": len(entries), "entries": entries}))
    return path


class TestPipeline:
    def test_generate_extract_dilate_reconstruct(self, tmp_path, capsys):
        mat = tmp_path / "pc.json"
        real = tmp_path / "real.json"
        assert run("gen", "pc", "--size", 10, "--period", 4, "--depth", 0.5,
                   "--count", 64, "--seed", 3, "--matrix-out", mat,
                   "-o", real) == 0
        params = tmp_path / "params.json"
        assert run("parcors", mat, "-o", params) == 0
        curve = tmp_path / "curve.json"
        seq = tmp_path / "seq.json"
        assert run("dilate", params, "--dim", 10, "--full", "-o", curve,
                   "--sequence-out", seq) == 0

        capsys.readouterr()
        assert run("reconstruct", curve, "--compare", mat) == 0
        reported = capsys.readouterr().out
        assert "max reconstruction error" in reported
        assert float(reported.rsplit(":", 1)[1]) < 1e-9

    def test_reconstruct_entry_prints_value(self, tmp_path, capsys):
        mat = write_matrix(tmp_path / "r.json",
                           [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        params = tmp_path / "params.json"
        run("parcors", mat, "-o", params)
        curve = tmp_path / "curve.json"
        run("dilate", params, "--dim", 3, "--full", "-o", curve)
        capsys.readouterr()
        assert run("reconstruct", curve, "--entry", 0, 2) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.25, abs=1e-12)

    def test_windowed_sequence_matches_band(self, tmp_path, capsys):
        mat = tmp_path / "ar.json"
        run("gen", "ar", "--coefficient", 0.7, "--size", 8, "-o", mat)
        params = tmp_path / "params.json"
        run("parcors", mat, "-o", params)
        seq = tmp_path / "seq.json"
        curve = tmp_path / "curve.json"
        run("dilate", params, "--dim", 4, "-o", curve, "--sequence-out", seq)
        capsys.readouterr()
        assert run("reconstruct", seq, "--entry", 1, 3) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.49, abs=1e-9)


class TestGen:
    def test_deterministic_for_equal_seeds(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            run("gen", "pc", "--size", 6, "--count", 16, "--seed", 11, "-o", out)
        assert a.read_text() == b.read_text()

    def test_ar_matrix_contents(self, tmp_path):
        out = tmp_path / "ar.json"
        run("gen", "ar", "--coefficient", 0.5, "--size", 4, "-o", out)
        m = io.load_matrix(out)
        assert m[0, 2] == pytest.approx(0.25)


class TestDistAndMean:
    @pytest.fixture()
    def two_curves(self, tmp_path):
        paths = []
        for seed, period in ((3, 4), (9, 3)):
            mat = tmp_path / f"m{seed}.json"
            run("gen", "pc", "--size", 10, "--period", period, "--depth", 0.5,
                "--count", 64, "--seed", seed, "--matrix-out", mat, "-o", "/dev/null")
            params = tmp_path / f"p{seed}.json"
            run("parcors", mat, "-o", params)
            curve = tmp_path / f"c{seed}.json"
            run("dilate", params, "--dim", 5, "-o", curve)
            paths.append(curve)
        return paths

    def test_distance_matrix_stdout(self, two_curves, capsys):
        capsys.readouterr()
        assert run("--quiet", "dist", *two_curves) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith(",")
        header = lines[0].split(",")[1:]
        assert header == [str(p) for p in two_curves]
        d = float(lines[1].split(",")[2])
        assert d > 0.0
        assert float(lines[1].split(",")[1]) == 0.0

    def test_distance_matrix_file_and_modes(self, two_curves, tmp_path):
        out = tmp_path / "d.csv"
        assert run("dist", *two_curves, "--mode", "curve", "-o", out) == 0
        text = out.read_text().strip().splitlines()
        assert len(text) == 3
        shape_out = tmp_path / "ds.csv"
        assert run("dist", *two_curves, "--grid", 24, "-o", shape_out) == 0
        d_curve = float(text[1].split(",")[2])
        d_shape = float(shape_out.read_text().strip().splitlines()[1].split(",")[2])
        assert d_shape <= d_curve + 1e-12

    def test_mean_output_loads(self, two_curves, tmp_path):
        out = tmp_path / "mean.json"
        assert run("mean", *two_curves, "--iters", 6, "-o", out) == 0
        mean = io.load_curve(out)
        assert mean.num_points == 6
        assert mean.starts_at_identity()

    def test_resample_aligns_grids(self, two_curves, tmp_path):
        short = tmp_path / "short.json"
        curve = io.load_curve(two_curves[0])
        from dilshape.curves import spline_resample
        io.save_curve(short, spline_resample(curve, 8))
        assert run("dist", short, two_curves[1], "--resample", 12) == 0


class TestExitCodes:
    def test_validation_failure(self, tmp_path, capsys):
        bad = write_matrix(tmp_path / "bad.json", [[1.0, 1.2], [1.2, 1.0]])
        assert run("parcors", bad, "-o", tmp_path / "p.json") == 2
        assert "validation error" in capsys.readouterr().err

    def test_non_finite_matrix(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("1,0.5,nan\n0.5,1,0.5\nnan,0.5,1\n")
        assert run("parcors", bad, "-o", tmp_path / "p.json") == 2
        assert "validation error" in capsys.readouterr().err

    def test_parameter_beyond_contraction(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"n": 3, "gamma": [[0, 1, 1.5]]}))
        assert run("dilate", params, "--dim", 3, "-o", tmp_path / "c.json") == 2
        assert "validation error" in capsys.readouterr().err

    def test_degenerate_distance(self, tmp_path):
        # A stationary matrix dilates to identical rotations, so its curve
        # never moves and the elastic comparison has nothing to align.
        mat = tmp_path / "ar.json"
        run("gen", "ar", "--coefficient", 0.6, "--size", 8, "-o", mat)
        params = tmp_path / "p.json"
        run("parcors", mat, "-o", params)
        curve = tmp_path / "c.json"
        run("dilate", params, "--dim", 4, "-o", curve)
        assert run("dist", curve, curve) == 3

    def test_non_finite_curve(self, tmp_path, capsys):
        curve = tmp_path / "nan.json"
        curve.write_text(json.dumps({"dim": 3, "closed": False,
                                     "points": [[[float("nan")] * 3] * 3] * 4}))
        assert run("dist", curve, curve) == 2
        assert "validation error" in capsys.readouterr().err

    def test_dilate_refuses_degenerate_flags(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"n": 3, "gamma": [[0, 1, 1.0], [1, 2, 0.3]],
                                      "boundary": [[0, 1]], "degenerate": [[0, 2]]}))
        out = tmp_path / "c.json"
        assert run("dilate", params, "--dim", 3, "--full", "-o", out) == 3
        assert "degeneracy" in capsys.readouterr().err
        assert not out.exists()

    def test_window_violation(self, tmp_path, capsys):
        mat = tmp_path / "ar.json"
        run("gen", "ar", "--size", 8, "-o", mat)
        params = tmp_path / "p.json"
        run("parcors", mat, "-o", params)
        seq = tmp_path / "s.json"
        run("dilate", params, "--dim", 3, "-o", tmp_path / "c.json",
            "--sequence-out", seq)
        assert run("reconstruct", seq, "--entry", 0, 7) == 4
        assert "window/grid error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run("parcors", tmp_path / "nope.json", "-o", tmp_path / "p.json") == 5
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert run("parcors", bad, "-o", tmp_path / "p.json") == 5

    def test_bad_dim(self, tmp_path):
        mat = tmp_path / "ar.json"
        run("gen", "ar", "--size", 4, "-o", mat)
        params = tmp_path / "p.json"
        run("parcors", mat, "-o", params)
        assert run("dilate", params, "--dim", 9, "-o", tmp_path / "c.json") == 4
