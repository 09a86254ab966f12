import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import cli_status_and_peak, stepped_curve
from dilshape import dilation, io
from dilshape.cli import main
from dilshape.curves import MAX_GRID, close_curve
from dilshape.liegroup import ORTHOGONALITY_TOL
from dilshape.shape import geodesic_between


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

    def test_format_overrides_extension(self, tmp_path):
        out = tmp_path / "ar.txt"
        assert run("gen", "ar", "--size", 4, "--format", "json", "-o", out) == 0
        assert len(json.loads(out.read_text())["entries"]) == 4
        params = tmp_path / "p.json"
        assert run("parcors", out, "-o", params) == 5
        assert run("parcors", out, "--format", "json", "-o", params) == 0

    @pytest.mark.parametrize("argv", [("pc", "--seed", -1),
                                      ("pc", "--size", 10 ** 23),
                                      ("pc", "--count", 10 ** 23),
                                      ("ar", "--size", 10 ** 23),
                                      ("pc", "--period", 10 ** 9)])
    def test_counts_past_caps_exit_before_allocating(self, tmp_path, argv):
        out = tmp_path / "out.json"
        status, peak_kb, report = cli_status_and_peak("gen", *argv, "-o", out)
        assert status == 2, report
        assert "validation error:" in report
        assert peak_kb < 150 * 1024, report
        assert not out.exists()


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

    def test_stdout_bytes_equal_file_bytes(self, two_curves, tmp_path, capsysbinary):
        # One CSV writer for both destinations: LF line endings, a label with
        # a comma quoted.
        comma = tmp_path / "a,b.json"
        comma.write_bytes(two_curves[0].read_bytes())
        out = tmp_path / "d.csv"
        assert run("--quiet", "dist", comma, two_curves[1], "--mode", "curve", "-o", out) == 0
        capsysbinary.readouterr()
        assert run("--quiet", "dist", comma, two_curves[1], "--mode", "curve") == 0
        written = out.read_bytes()
        assert capsysbinary.readouterr().out == written
        assert b"\r" not in written and f'"{comma}"'.encode() in written

    def test_curve_orthogonal_within_tolerance_passes_every_reader(self, two_curves,
                                                                   tmp_path, capsys):
        # Curves and sequences share ORTHOGONALITY_TOL: a curve that dist and
        # mean accept, reconstruct accepts too.
        payload = json.loads(two_curves[0].read_text())
        points = np.array(payload["points"]) * (1.0 + 2e-10)
        gap = np.abs(points @ points.transpose(0, 2, 1) - np.eye(points.shape[1])).max()
        assert 1e-10 < gap < ORTHOGONALITY_TOL
        payload["points"] = points.tolist()
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps(payload))
        assert run("--quiet", "dist", loose, two_curves[1]) == 0
        assert run("mean", loose, two_curves[1], "--iters", 2, "-o", tmp_path / "m.json") == 0
        capsys.readouterr()
        assert run("reconstruct", loose, "--compare", tmp_path / "m3.json") == 0
        assert float(capsys.readouterr().out.rsplit(":", 1)[1]) < 1e-8

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

    def test_closed_mode(self, two_curves, tmp_path):
        assert run("dist", *two_curves, "--mode", "closed") == 2
        closed = []
        for k, path in enumerate(two_curves):
            closed.append(tmp_path / f"closed{k}.json")
            io.save_curve(closed[-1], close_curve(io.load_curve(path)))
        found = {}
        for mode in ("closed", "shape"):
            out = tmp_path / f"{mode}.csv"
            assert run("dist", *closed, "--mode", mode, "--grid", 24, "-o", out) == 0
            found[mode] = float(out.read_text().splitlines()[1].split(",")[2])
        # Shift zero of the closed search is the shape alignment itself.
        assert 0.0 < found["closed"] <= found["shape"]

    def test_closed_field_of_a_file_is_not_read(self, two_curves, tmp_path, capsys):
        # Closure comes from the points: an open curve marked closed is no loop.
        payload = json.loads(two_curves[0].read_text())
        payload["closed"] = True
        marked = tmp_path / "marked.json"
        marked.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("dist", marked, marked, "--mode", "closed") == 2
        assert capsys.readouterr().err.startswith("validation error:")

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

    def test_compare_with_smaller_reference(self, tmp_path, capsys):
        mat = tmp_path / "ar.json"
        run("gen", "ar", "--size", 8, "-o", mat)
        params = tmp_path / "p.json"
        run("parcors", mat, "-o", params)
        curve = tmp_path / "c.json"
        run("dilate", params, "--dim", 3, "-o", curve)
        small = write_matrix(tmp_path / "small.json", [[1.0, 0.5], [0.5, 1.0]])
        capsys.readouterr()
        assert run("reconstruct", curve, "--compare", small) == 4
        assert "window/grid error" in capsys.readouterr().err

    def test_dilate_refuses_a_loop_of_one_point(self, tmp_path, capsys):
        # --dim equal to the set's size gives one matrix, a curve of one point,
        # which has no segment to close.
        mat = tmp_path / "ar.json"
        run("gen", "ar", "--size", 16, "-o", mat)
        params = tmp_path / "p.json"
        run("parcors", mat, "-o", params)
        out, seq = tmp_path / "c.json", tmp_path / "s.json"
        capsys.readouterr()
        assert run("dilate", params, "--dim", 16, "--closed", "-o", out,
                   "--sequence-out", seq) == 2
        assert "validation error" in capsys.readouterr().err
        assert not out.exists() and not seq.exists()
        assert run("dilate", params, "--dim", 16, "-o", out) == 0

    def test_dilate_rejects_boundary_flag_below_one(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"n": 3, "gamma": [[0, 1, 0.5]],
                                      "boundary": [[0, 1]]}))
        out = tmp_path / "c.json"
        assert run("dilate", params, "--dim", 3, "-o", out) == 5
        assert "i/o error" in capsys.readouterr().err
        assert not out.exists()

    def test_parcors_has_one_eigenvalue_floor(self, tmp_path):
        mat = write_matrix(tmp_path / "r.json", [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(SystemExit) as info:
            run("parcors", mat, "--psd-tolerance", "nan", "-o", tmp_path / "p.json")
        assert info.value.code == 2

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


    def test_dilate_past_the_sequence_cap_exits_before_allocating(self, tmp_path):
        # One matrix past the cap: dim 256, --full, count = cap / 256^2 + 1.
        params = tmp_path / "p.json"
        params.write_text(json.dumps(
            {"n": dilation.MAX_SEQUENCE_FLOATS // 256 ** 2 + 2, "gamma": []}))
        out = tmp_path / "c.json"
        status, peak_kb, report = cli_status_and_peak(
            "dilate", params, "--dim", 256, "--full", "-o", out)
        assert status == 4, report
        assert "MAX_SEQUENCE_FLOATS" in report
        assert peak_kb < 150 * 1024, report
        assert not out.exists()


class TestComparisonAdmission:
    """dist and mean admit curves and grids by one rule."""

    @staticmethod
    def write_curves(tmp_path, *dims):
        rng = np.random.default_rng(31)
        paths = []
        for k, d in enumerate(dims):
            paths.append(tmp_path / f"c{k}.json")
            io.save_curve(paths[-1], stepped_curve(rng, 10, d))
        return paths

    @pytest.mark.parametrize("grid", [-20, -5, 0, 5])
    def test_mean_grid_below_resolution(self, tmp_path, capsys, grid):
        curves = self.write_curves(tmp_path, 3, 3)
        capsys.readouterr()
        code = run("mean", *curves, "--grid", grid, "-o", tmp_path / "m.json")
        err = capsys.readouterr().err
        assert code == 4, err
        assert err.startswith("window/grid error:")
        assert "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["dist", "mean"])
    @pytest.mark.parametrize("resample", [-4, 0, 5])
    def test_resample_below_resolution(self, tmp_path, capsys, command, resample):
        curves = self.write_curves(tmp_path, 3, 3)
        capsys.readouterr()
        code = run(command, *curves, "--resample", resample, "-o", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 4, err
        assert err.startswith("window/grid error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("iters", [-1, -3])
    def test_mean_negative_rounds(self, tmp_path, capsys, iters):
        curves = self.write_curves(tmp_path, 3, 3)
        capsys.readouterr()
        assert run("mean", *curves, "--iters", iters, "-o", tmp_path / "m.json") == 2
        assert capsys.readouterr().err.startswith("validation error:")
        assert not (tmp_path / "m.json").exists()

    def test_mean_rounds_past_maxsize_run_to_the_stop_rule(self, tmp_path):
        curves = self.write_curves(tmp_path, 3, 3)
        out = tmp_path / "m.json"
        status, _, report = cli_status_and_peak("mean", *curves, "--iters", 10 ** 23,
                                                "-o", out)
        assert status == 0, report
        assert run("mean", *curves, "--iters", 10 ** 6, "-o", tmp_path / "ref.json") == 0
        assert out.read_text() == (tmp_path / "ref.json").read_text()

    def test_mean_zero_rounds_is_the_unaligned_average(self, tmp_path):
        c0, c1 = self.write_curves(tmp_path, 3, 3)
        assert run("mean", c0, c1, "--iters", 0, "-o", tmp_path / "m.json") == 0
        want = geodesic_between(io.load_curve(c0), io.load_curve(c1), 0.5)
        got = io.load_curve(tmp_path / "m.json")
        assert np.abs(got.points - want.points).max() < 1e-12

    @pytest.mark.parametrize("argv", [("dist",), ("dist", "--mode", "curve"),
                                      ("mean", "-o", "m.json")])
    def test_dim_mismatch_is_validation(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        c6, c5 = self.write_curves(tmp_path, 6, 5)
        capsys.readouterr()
        assert run(argv[0], c6, c5, *argv[1:]) == 2
        assert capsys.readouterr().err.startswith("validation error:")


class TestLatticeCap:
    """A grid or resample count past curves.MAX_GRID exits 4 before the lattice
    or the resampled curve is allocated."""

    @pytest.mark.parametrize("argv", [("dist", "--grid", 100000),
                                      ("dist", "--grid", 6000),
                                      ("dist", "--resample", 100000),
                                      ("mean", "--resample", 100000, "-o", "m.json")])
    def test_exits_before_allocating(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        curves = TestComparisonAdmission.write_curves(tmp_path, 3, 3)
        status, peak_kb, report = cli_status_and_peak(argv[0], *curves, *argv[1:])
        assert status == 4, report
        assert "window/grid error:" in report
        assert peak_kb < 150 * 1024, report
        assert not (tmp_path / "m.json").exists()

    def test_lattice_near_the_cap_peaks_below_300_mb(self, tmp_path):
        # tools/peak_rss.py reads the command's peak from RUSAGE_CHILDREN; as a
        # small process of its own it carries none of this process's memory in.
        curves = TestComparisonAdmission.write_curves(tmp_path, 6, 6)
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, str(root / "tools" / "peak_rss.py"), "300", sys.executable, "-c",
             "import sys; from dilshape.cli import main; sys.exit(main(sys.argv[1:]))",
             "dist", *map(str, curves), "--grid", "4000", "-o", str(tmp_path / "big.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(root / "src")})
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "big.csv").exists()

    def test_curve_mode_builds_no_lattice(self, tmp_path):
        # 3,000 segments: the default alignment grid would pass the cap.
        curves = TestComparisonAdmission.write_curves(tmp_path, 3, 3)
        assert run("dist", *curves, "--mode", "curve", "--resample", 3000) == 0
        assert run("dist", *curves, "--resample", 3000) == 4


class TestMalformedFiles:
    """Loader failures exit 5 (or 2 for a contract breach), never a traceback."""

    def curve_file(self, path, **fields):
        path.write_text(json.dumps({"dim": 4, "closed": False, **fields}))
        return path

    @pytest.mark.parametrize("points", [
        [np.eye(4).tolist(), [[1.0]]],
        [[["a"] * 4] * 4] * 3,
        {"a": 1},
    ], ids=["ragged", "strings", "object"])
    def test_bad_points(self, tmp_path, capsys, points):
        curve = self.curve_file(tmp_path / "c.json", points=points)
        assert run("reconstruct", curve, "-o", tmp_path / "r.csv") == 5
        assert run("dist", curve, curve) == 5
        assert capsys.readouterr().err.startswith("i/o error:")

    @pytest.mark.parametrize("name, content", [
        ("m.csv", b"\xff\xfe1,0\n"),
        ("m.json", b"\xff\xfe1,0\n"),
        ("m.json", b"[" * 100000),
    ], ids=["csv-bytes", "json-bytes", "json-deep"])
    def test_unreadable_matrix(self, tmp_path, capsys, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        assert run("parcors", bad, "-o", tmp_path / "p.json") == 5
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_mixed_size_directory(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        np.savetxt(seq / "a.csv", np.eye(3), delimiter=",")
        np.savetxt(seq / "b.csv", np.eye(4), delimiter=",")
        assert run("reconstruct", seq, "-o", tmp_path / "r.csv") == 5
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_short_base(self, tmp_path, capsys):
        curve = self.curve_file(tmp_path / "c.json", points=[np.eye(4).tolist()] * 3,
                                base=[[1.0]])
        assert run("reconstruct", curve, "-o", tmp_path / "r.csv") == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_oversized_parameter_set(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"n": 1000000, "gamma": []}))
        assert run("dilate", params, "--dim", 3, "-o", tmp_path / "c.json") == 5
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_curve_file_as_sequence_input(self, tmp_path):
        mat = write_matrix(tmp_path / "r.json",
                           [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        run("parcors", mat, "-o", tmp_path / "p.json")
        curve, seq = tmp_path / "c.json", tmp_path / "s.json"
        run("dilate", tmp_path / "p.json", "--dim", 3, "--full", "-o", curve,
            "--sequence-out", seq)
        assert np.allclose(io.load_sequence(curve).matrices,
                           io.load_sequence(seq).matrices, atol=1e-12)


# --- loader fuzz ----------------------------------------------------------------

LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-3, 10), st.integers(10 ** 20, 10 ** 400),
    st.floats(-2.0, 2.0), st.sampled_from([float("nan"), float("inf"), 1e308, -0.0]),
)
JUNK = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=12)


@st.composite
def rotations(draw, count):
    """``count`` rotations of one random size as nested lists, one entry maybe spoiled."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    mats = []
    for _ in range(count):
        m = rng.standard_normal((d, d))
        mats.append(expm(0.4 * (m - m.T)).tolist())
    if mats and draw(st.booleans()):
        k, i, j = (draw(st.integers(0, n - 1)) for n in (count, d, d))
        mats[k][i][j] = draw(LEAVES)
    return mats


def spoiled(valid):
    """A field value: mostly well formed, sometimes junk of any shape."""
    return st.one_of(valid, valid, valid, JUNK)


@st.composite
def curve_file(draw):
    count = draw(st.integers(0, 5))
    fields = {"dim": draw(spoiled(st.integers(1, 4))),
              "closed": draw(st.booleans()),
              "points": draw(spoiled(rotations(count)))}
    if draw(st.booleans()):
        fields["base"] = draw(spoiled(rotations(1).map(lambda m: m[0] if m else m)))
    return fields


@st.composite
def sequence_file(draw):
    return {"dim": draw(st.integers(1, 4)),
            "matrices": draw(spoiled(rotations(draw(st.integers(0, 6)))))}


# Declared sizes past io.MAX_SIZE: integers, and number tokens written
# into the file verbatim (1e400 reads back as inf).  No junk string is long
# enough to collide with a token.
NUMBER_TOKENS = ("1e400", "1e30", "2.5e3")
OVERSIZED_N = st.one_of(st.integers(io.MAX_SIZE + 1, 10 ** 30),
                        st.sampled_from(NUMBER_TOKENS))


def dumps(payload):
    """JSON text of ``payload`` with every number token unquoted."""
    text = json.dumps(payload)
    for token in NUMBER_TOKENS:
        text = text.replace(json.dumps(token), token)
    return text


def oversized(n):
    """True when a parameter file's 'n' field declares a size past the cap."""
    if isinstance(n, str):
        return n in NUMBER_TOKENS
    return isinstance(n, (int, float)) and not isinstance(n, bool) and n > io.MAX_SIZE


@st.composite
def params_file(draw):
    n = draw(st.one_of(st.integers(-1, 7), st.integers(-1, 7), OVERSIZED_N))
    entry = st.tuples(st.integers(-1, 7), st.integers(-1, 7),
                      st.floats(-1.1, 1.1)).map(list)
    pairs = st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)).map(list),
                     max_size=3)
    fields = {"n": draw(spoiled(st.just(n))),
              "gamma": draw(spoiled(st.lists(entry, max_size=8)))}
    for key in ("degenerate", "boundary"):
        if draw(st.booleans()):
            fields[key] = draw(spoiled(pairs))
    return fields


@st.composite
def matrix_file(draw):
    n = draw(st.integers(1, 6))
    rho = draw(st.floats(-1.1, 1.1))
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    entries = (rho ** lag).tolist()
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        entries[i][j] = draw(LEAVES)
    return {"n": n, "entries": draw(spoiled(st.just(entries)))}


# Only sizes past the cap, so no draw builds a large lattice.
PAST_CAP = st.integers(MAX_GRID + 1, 10 ** 12)


def file_of(kind):
    return st.one_of(kind(), kind(), kind(), JUNK)


class TestLoaderFuzz:
    """Random curve, sequence, parameter and matrix files through five commands.

    A parameter file that declares a size past io.MAX_SIZE exits 5 from
    dilate and writes nothing.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(curves=st.lists(file_of(curve_file), min_size=2, max_size=2),
           sequence=st.one_of(file_of(sequence_file), file_of(curve_file)),
           params=file_of(params_file), matrix=file_of(matrix_file),
           dim=st.integers(1, 8), full=st.booleans(),
           mode=st.sampled_from(["shape", "curve", "closed"]),
           grid=st.one_of(st.none(), st.integers(-30, 40), PAST_CAP),
           iters=st.integers(-3, 3),
           resample=st.one_of(st.none(), st.integers(-3, 8), PAST_CAP))
    def test_exit_codes_are_documented(self, curves, sequence, params, matrix,
                                       dim, full, mode, grid, iters, resample):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)

            def write(name, payload):
                (tmp / name).write_text(dumps(payload))
                return tmp / name

            c0, c1 = (write(f"c{k}.json", c) for k, c in enumerate(curves))
            options = [] if grid is None else ["--grid", grid]
            options += [] if resample is None else ["--resample", resample]
            calls = [
                ("dist", c0, c1, "--mode", mode, *options),
                ("mean", c0, c1, "--iters", iters, "-o", tmp / "mean.json", *options),
                ("reconstruct", write("s.json", sequence), "-o", tmp / "r.csv"),
                ("dilate", write("p.json", params), "--dim", dim, "-o", tmp / "d.json",
                 *(["--full"] if full else [])),
                ("parcors", write("m.json", matrix), "-o", tmp / "q.json"),
            ]
            codes = {}
            for argv in calls:
                codes[argv[0]] = run("--quiet", *argv)
                assert codes[argv[0]] in {0, 2, 3, 4, 5}, argv
            # No curve has fewer than one segment, so a resample count below 1
            # never succeeds, and neither does a negative round count.
            too_few = resample is not None and resample < 1
            # Nor does a count past the cap, or a grid past it where a lattice
            # is built: not by dist --mode curve, nor by mean --iters 0.
            too_many = resample is not None and resample > MAX_GRID
            grid_past = grid is not None and grid > MAX_GRID
            if too_few or too_many or (grid_past and iters != 0) or iters < 0:
                assert codes["mean"] != 0
            if too_few or too_many or (grid_past and mode != "curve"):
                assert codes["dist"] != 0
            if isinstance(params, dict) and oversized(params.get("n")):
                assert codes["dilate"] == 5
                assert not (tmp / "d.json").exists()
