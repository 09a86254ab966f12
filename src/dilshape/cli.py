"""Command line front end for the factorization and comparison pipeline.

Exit codes: 0 success, 2 input validation, 3 numerical degeneracy,
4 window or grid violation, 5 file problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import corr, curves, dilation, io, shape
from .errors import (
    BadDim,
    BadPosition,
    DegenerateCurve,
    DegenerateVariance,
    DimMismatch,
    FormatError,
    GridMismatch,
    InsufficientRealizations,
    NearCutLocus,
    NonPositiveDiagonal,
    NotAContraction,
    NotClosed,
    NotOrthogonal,
    NotPositiveDefinite,
    NotSkew,
    NotSquare,
    NotSymmetric,
    NotTangent,
    OutOfRange,
    SingularStep,
    TruncationWindowExceeded,
    VanishingVelocity,
    WrongComponent,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERACY = 3
EXIT_WINDOW = 4
EXIT_IO = 5

_VALIDATION_ERRORS = (
    NotSquare, NotSymmetric, NotPositiveDefinite, NonPositiveDiagonal,
    InsufficientRealizations, DegenerateVariance, OutOfRange, BadPosition,
    NotOrthogonal, NotSkew, NotTangent, WrongComponent, NotClosed, DimMismatch,
    NotAContraction,
)
_DEGENERACY_ERRORS = (
    SingularStep, NearCutLocus, VanishingVelocity, DegenerateCurve,
)
_WINDOW_ERRORS = (TruncationWindowExceeded, BadDim, GridMismatch)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_parcors(args) -> int:
    matrix = io.load_matrix(args.input, args.format)
    validated = corr.validate_spd(matrix, psd_tolerance=args.psd_tolerance)
    params = dilation.extract_schur_params(validated)
    io.save_params(args.output, params)
    flagged = int(params.degenerate.sum())
    _say(args, f"wrote {params.n}x{params.n} parameter set to {args.output}"
               + (f" ({flagged} degenerate entries)" if flagged else ""))
    if flagged:
        return EXIT_DEGENERACY
    return EXIT_OK


def cmd_dilate(args) -> int:
    params = io.load_params(args.params)
    flagged = int(params.degenerate.sum())
    if flagged:
        raise SingularStep(f"{flagged} parameters are flagged degenerate; their "
                           "values are unresolved, so no dilation is built")
    seq = dilation.build_dilation_sequence(params, args.dim, full=args.full)
    if args.sequence_out:
        io.save_sequence(args.sequence_out, seq)
        _say(args, f"wrote {seq.count} rotation matrices to {args.sequence_out}")
    curve = curves.from_dilation(seq, closed=args.closed)
    io.save_curve(args.output, curve)
    _say(args, f"wrote curve with {curve.num_points} points (dim {curve.dim}) "
               f"to {args.output}")
    return EXIT_OK


def _sequence_from_input(path) -> dilation.DilationSequence:
    if not Path(path).is_dir():
        try:
            data = io._read_json(path)
        except (FormatError, OSError):
            data = None
        if isinstance(data, dict) and "points" in data:
            return curves.sequence_from_curve(io.load_curve(path))
    return io.load_sequence(path)


def cmd_reconstruct(args) -> int:
    seq = _sequence_from_input(args.input)
    if args.entry is not None:
        i, j = args.entry
        value = dilation.reconstruct_correlation(seq, i, j)
        print(f"{value:.17g}")
        return EXIT_OK
    n = seq.count + 1
    out = np.full((n, n), np.nan)
    np.fill_diagonal(out, 1.0)
    for i, j in dilation.reconstructible_window(seq):
        out[i, j] = out[j, i] = dilation.reconstruct_correlation(seq, i, j)
    if args.output or not args.compare:
        target = args.output or "reconstructed.csv"
        io.save_matrix(target, out, args.format)
        covered = np.isfinite(out).sum()
        _say(args, f"wrote {n}x{n} matrix to {target} "
                   f"({covered}/{n * n} entries inside the window)")
    if args.compare:
        ref = io.load_matrix(args.compare, args.format)
        if ref.shape[0] < n:
            raise GridMismatch(f"reference is {ref.shape[0]}x{ref.shape[0]}, "
                               f"reconstruction is {n}x{n}")
        mask = np.isfinite(out)
        gap = float(np.abs(np.where(mask, out - ref[:n, :n], 0.0)).max())
        print(f"max reconstruction error: {gap:.3e}")
    return EXIT_OK


def _load_curves(paths, resample: int | None):
    loaded = [(str(p), io.load_curve(p)) for p in paths]
    if resample:
        loaded = [(name, curves.spline_resample(c, resample)) for name, c in loaded]
    return loaded


def cmd_dist(args) -> int:
    named = _load_curves(args.curves, args.resample)
    names = [name for name, _ in named]
    cs = [c for _, c in named]
    k = len(cs)
    out = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            if args.mode == "curve":
                value = shape.curve_distance(cs[a], cs[b])
            elif args.mode == "closed":
                grid = args.grid or 2 * max(cs[a].segments, cs[b].segments)
                value = shape.closed_shape_distance(cs[a], cs[b], grid)
            else:
                grid = args.grid or 2 * max(cs[a].segments, cs[b].segments)
                value, _ = shape.shape_distance(cs[a], cs[b], grid)
            out[a, b] = out[b, a] = value
    if args.output:
        io.save_distance_matrix(args.output, names, out)
        _say(args, f"wrote {k}x{k} distance matrix to {args.output}")
    else:
        writer = sys.stdout
        writer.write("," + ",".join(names) + "\n")
        for name, row in zip(names, out):
            writer.write(name + "," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return EXIT_OK


def cmd_mean(args) -> int:
    named = _load_curves(args.curves, args.resample)
    cs = [c for _, c in named]
    grid = args.grid or 2 * cs[0].segments
    mean = shape.karcher_mean(cs, iters=args.iters, grid=grid)
    io.save_curve(args.output, mean)
    _say(args, f"wrote mean curve with {mean.num_points} points to {args.output}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "ar":
        matrix = corr.gen_stationary_ar(args.coefficient, args.size)
        io.save_matrix(args.output, matrix.entries, args.format)
        _say(args, f"wrote stationary correlation matrix to {args.output}")
        return EXIT_OK
    data = corr.gen_pc_process(args.coefficient, args.period, args.depth,
                               args.size, args.seed, count=args.count)
    if args.matrix_out:
        est = corr.estimate_ensemble_correlation(data, args.size)
        io.save_matrix(args.matrix_out, est.entries, args.format)
        _say(args, f"wrote estimated correlation matrix to {args.matrix_out}")
    io.save_realizations(args.output, data, args.format)
    _say(args, f"wrote {data.count} realizations of length {data.length} "
               f"to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilshape",
        description="Factor correlation matrices into rotation curves and "
                    "compare them by elastic shape distance.")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parcors", help="extract contraction parameters from a matrix")
    p.add_argument("input", help="correlation matrix file")
    p.add_argument("-o", "--output", required=True, help="parameter file destination")
    p.add_argument("--psd-tolerance", type=float, default=corr.DEFAULT_PSD_TOLERANCE,
                   help="smallest eigenvalue accepted as positive definite")
    p.add_argument("--format", choices=("csv", "json"),
                   help="force the input format instead of going by extension")
    p.set_defaults(func=cmd_parcors)

    p = sub.add_parser("dilate", help="build the rotation curve of a parameter set")
    p.add_argument("params", help="parameter file from the parcors command")
    p.add_argument("--dim", type=int, required=True,
                   help="rotation size, equals truncation window plus one")
    p.add_argument("-o", "--output", required=True, help="curve file destination")
    p.add_argument("--closed", action="store_true",
                   help="close the curve by appending its start")
    p.add_argument("--full", action="store_true",
                   help="extend the sequence through every row, padding "
                        "missing parameters with zero")
    p.add_argument("--sequence-out", help="also write the raw rotation sequence")
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("reconstruct",
                       help="rebuild correlation entries from a curve or sequence")
    p.add_argument("input", help="curve file, sequence file, or directory of CSV matrices")
    p.add_argument("-o", "--output",
                   help="matrix destination (default reconstructed.csv "
                        "unless only --compare is wanted)")
    p.add_argument("--entry", type=int, nargs=2, metavar=("I", "J"),
                   help="print a single zero-based entry instead of a matrix")
    p.add_argument("--compare", help="reference matrix for an error report")
    p.add_argument("--format", choices=("csv", "json"),
                   help="force the output format instead of going by extension")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("dist", help="pairwise distances between curve files")
    p.add_argument("curves", nargs="+", help="curve files to compare")
    p.add_argument("--mode", choices=("shape", "curve", "closed"), default="shape",
                   help="shape minimizes over reparametrizations, curve does "
                        "not, closed also minimizes over starting points")
    p.add_argument("--grid", type=int,
                   help="alignment resolution (default twice the segment count)")
    p.add_argument("--resample", type=int,
                   help="spline-resample every curve to this many segments first")
    p.add_argument("-o", "--output",
                   help="distance matrix CSV destination (default stdout)")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("mean", help="elastic mean of curve files")
    p.add_argument("curves", nargs="+", help="curve files to average")
    p.add_argument("--iters", type=int, default=24,
                   help="alignment and averaging rounds")
    p.add_argument("--grid", type=int,
                   help="alignment resolution (default twice the segment count)")
    p.add_argument("--resample", type=int,
                   help="spline-resample every curve to this many segments first")
    p.add_argument("-o", "--output", required=True, help="curve file destination")
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("gen", help="generate synthetic processes")
    p.add_argument("kind", choices=("ar", "pc"),
                   help="stationary autoregression or its periodically modulated form")
    p.add_argument("-o", "--output", required=True, help="realization file destination")
    p.add_argument("--coefficient", type=float, default=0.6,
                   help="autoregression coefficient")
    p.add_argument("--size", type=int, default=16,
                   help="number of time points per realization")
    p.add_argument("--period", type=int, default=4,
                   help="modulation period for the pc kind")
    p.add_argument("--depth", type=float, default=0.5,
                   help="modulation depth for the pc kind, 0 is stationary")
    p.add_argument("--count", type=int, default=256,
                   help="number of independent realizations")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--matrix-out", help="also estimate and write the correlation matrix")
    p.add_argument("--format", choices=("csv", "json"),
                   help="force the output format instead of going by extension")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _DEGENERACY_ERRORS as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except _WINDOW_ERRORS as exc:
        print(f"window/grid error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except IndexError as exc:
        print(f"window/grid error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
