"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up the benchmark times), exposes a fixed list of operations through
``pass_length`` and ``run(k)``, and checks what the operations returned in
``check``, which takes (k, output) pairs of the operations that did not
raise.  dilshape is reached only through its public module attributes
(``corr.gen_pc_process``, ``shape.shape_distance``, ``cli.main``, ...), so
the tracer sees every call.  Operations are taken from the list in order
and the list repeats, so a faster commit runs more of the same list, not
an easier one.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from dilshape import cli, corr, curves, dilation, io, shape
from dilshape.errors import DilshapeError

# The shape distance never exceeds the parametrized curve distance; the
# unit tests allow this much roundoff on that bound.
DISTANCE_SLACK = 1e-12
# Tolerance of the factorization round trips, as in the acceptance tests.
ROUND_TRIP_TOL = 1e-9
# Criterion 08: aligning a warped copy leaves under 5% of the curve distance.
WARP_CANCEL = 0.05
# warp_residual is d_shape / d_curve against a known reparametrization, and
# only `align` has one.  The other workloads report the ratio of the
# identity warp, which is 1.
NO_WARP = 1.0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.choice(2 ** 31, size=count, replace=False)]


class Classify:
    """Criterion 10: shape distances between periodic and stationary curves."""

    N, DIM, COUNT, GRID = 16, 6, 256, 20
    PER_CLASS = 10
    # Pairs per pass and per kind (within periodic, within stationary,
    # between).  The kinds alternate, so any prefix of the list is balanced.
    PER_KIND = 20

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 10)
        samples = []
        self.curves = []
        for k, s in enumerate(_seeds(rng, 2 * self.PER_CLASS)):
            depth = 0.5 if k < self.PER_CLASS else 0.0
            data = corr.gen_pc_process(0.6, 4, depth, self.N, s, count=self.COUNT)
            samples.append(data.samples)
            est = corr.estimate_ensemble_correlation(data, self.N)
            params = dilation.extract_schur_params(est)
            seq = dilation.build_dilation_sequence(params, self.DIM)
            self.curves.append((est, params, curves.from_dilation(seq)))
        p = range(self.PER_CLASS)
        s = range(self.PER_CLASS, 2 * self.PER_CLASS)
        kinds = [list(itertools.combinations(p, 2)),
                 list(itertools.combinations(s, 2)),
                 list(itertools.product(p, s))]
        picked = []
        for pairs in kinds:
            order = rng.permutation(len(pairs))[:self.PER_KIND]
            picked.append([pairs[i] for i in order])
        self.ops = [(i, j, kind) for group in zip(*picked)
                    for kind, (i, j) in enumerate(group)]
        self.digest = _digest(*samples, np.array(self.ops))

    def pass_length(self) -> int:
        return len(self.ops)

    def run(self, k: int):
        i, j, _ = self.ops[k % len(self.ops)]
        return shape.shape_distance(self.curves[i][2], self.curves[j][2], grid=self.GRID)

    def fingerprint(self, out) -> str:
        d, phi = out
        return _digest(np.float64(d), phi.values)

    def check(self, outs) -> dict:
        ok, within, between = [], [], []
        for k, (d, _) in outs:
            i, j, kind = self.ops[k % len(self.ops)]
            d_curve = shape.curve_distance(self.curves[i][2], self.curves[j][2])
            ok.append(bool(math.isfinite(d) and 0.0 <= d <= d_curve + DISTANCE_SLACK))
            (between if kind == 2 else within).append(d)
        roundtrip = max(float(np.abs(dilation.reconstruct_matrix(params) - est.entries).max())
                        for est, params, _ in self.curves)
        separation = (float(np.mean(between) / np.mean(within))
                      if within and between else 0.0)
        return {"op_ok": ok, "run_ok": separation > 1.0, "warp_residual": NO_WARP,
                "dilation.roundtrip_err_max": roundtrip,
                "shape.separation_ratio": separation}


# A fixed smooth motion on SO(3), the one criterion 08 reparametrizes.
_GEN_A = np.array([[0.0, -1.0, 0.3], [1.0, 0.0, -0.5], [-0.3, 0.5, 0.0]]) * 0.9
_GEN_B = np.array([[0.0, 0.4, -0.2], [-0.4, 0.0, 1.1], [0.2, -1.1, 0.0]]) * 0.8


def _smooth_curve(params) -> curves.ManifoldCurve:
    pts = np.stack([expm(np.sin(np.pi * t / 2.0) * 2.0 * _GEN_A)
                    @ expm((t + 0.3 * np.sin(np.pi * t)) * _GEN_B) for t in params])
    return curves.ManifoldCurve(points=pts)


class Align:
    """Criterion 08: a smooth curve against three warped copies of itself."""

    SEGMENTS, GRID = 100, 200

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 8)
        t = np.linspace(0.0, 1.0, self.SEGMENTS + 1)
        # Within about 5% of criterion 08's parameters (0.55, 1.2, 0.09).
        quad = rng.uniform(0.53, 0.57)
        rate = rng.uniform(1.15, 1.25)
        amp = rng.uniform(0.085, 0.095)
        warps = [(1.0 - quad) * t + quad * t ** 2,
                 (np.exp(rate * t) - 1.0) / (np.exp(rate) - 1.0),
                 t + amp * np.sin(2.0 * np.pi * t)]
        self.curve = _smooth_curve(t)
        self.targets = [_smooth_curve(phi) for phi in warps]
        self.digest = _digest(self.curve.points, *(c.points for c in self.targets))

    def pass_length(self) -> int:
        return len(self.targets)

    def run(self, k: int):
        target = self.targets[k % len(self.targets)]
        return shape.shape_distance(self.curve, target, grid=self.GRID)

    fingerprint = Classify.fingerprint

    def check(self, outs) -> dict:
        ok, ratios = [], {}
        for k, (d, _) in outs:
            w = k % len(self.targets)
            d_curve = shape.curve_distance(self.curve, self.targets[w])
            ok.append(bool(math.isfinite(d) and 0.0 <= d < WARP_CANCEL * d_curve))
            ratios[w] = d / d_curve
        # One ratio per warp, so a run that repeats a warp weighs it once.
        return {"op_ok": ok, "run_ok": True,
                "warp_residual": float(np.mean(list(ratios.values()))),
                "dilation.roundtrip_err_max": 0.0, "shape.separation_ratio": 0.0}


class Factor:
    """Large-n factorization: estimate, extract, reconstruct, dilate, curve."""

    N, COUNT, DIM = 128, 512, 8
    ENSEMBLES = 2
    WINDOW_SAMPLES = 64

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 128)
        self.data = [corr.gen_pc_process(0.6, 4, 0.5, self.N, s, count=self.COUNT)
                     for s in _seeds(rng, self.ENSEMBLES)]
        self.window_rng = _rng(seed, 129)
        self.digest = _digest(*(d.samples for d in self.data))

    def pass_length(self) -> int:
        return len(self.data)

    def run(self, k: int):
        est = corr.estimate_ensemble_correlation(self.data[k % len(self.data)], self.N)
        params = dilation.extract_schur_params(est)
        rec = dilation.reconstruct_matrix(params)
        seq = dilation.build_dilation_sequence(params, self.DIM)
        return est, params, rec, curves.from_dilation(seq)

    def fingerprint(self, out) -> str:
        est, params, rec, curve = out
        return _digest(est.entries, params.gamma, params.degenerate,
                       params.boundary, rec, curve.points)

    def check(self, outs) -> dict:
        ok, worst = [], 0.0
        for _, (est, params, rec, curve) in outs:
            err = float(np.abs(rec - est.entries).max())
            worst = max(worst, err)
            seq = curves.sequence_from_curve(curve)
            window = dilation.reconstructible_window(seq)
            picks = self.window_rng.choice(len(window), size=self.WINDOW_SAMPLES,
                                           replace=False)
            gap = max(abs(dilation.reconstruct_correlation(seq, *window[p])
                          - est.entries[window[p]]) for p in picks)
            ok.append(bool(err <= ROUND_TRIP_TOL and gap <= ROUND_TRIP_TOL))
        return {"op_ok": ok, "run_ok": True, "warp_residual": NO_WARP,
                "dilation.roundtrip_err_max": worst, "shape.separation_ratio": 0.0}


class CliMean:
    """The documented command chain, gen -> parcors -> dilate -> dist and mean."""

    DIM = 6
    CLASSES = (("P", 0.5), ("S", 0.0))
    # Distinct input pairs in the operation list.  How many refinement
    # passes an alignment runs depends on its input, so a chain costs 1.4
    # to 2.4 s; a run covers all eight pairs, and its figures follow the
    # program rather than the seed.
    CHAINS = 8
    # Rounds of the mean.  Some inputs meet the mean's tolerance after 7 or
    # 8 rounds and most never do, so with the default 24 the cost of one
    # chain depends threefold on its input.  Two rounds still align each
    # curve against a moving template, and keep the chain short.
    MEAN_ROUNDS = 2

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        rng = _rng(seed, 6)
        self.chains = [self._steps(_seeds(rng, len(self.CLASSES)))
                       for _ in range(self.CHAINS)]
        self.digest = hashlib.sha256(repr(self.chains).encode()).hexdigest()

    def _steps(self, seeds) -> list[list[str]]:
        steps = []
        for (tag, depth), s in zip(self.CLASSES, seeds):
            steps.append(["gen", "pc", "--coefficient", "0.6", "--period", "4",
                          "--depth", str(depth), "--size", "16", "--count", "256",
                          "--seed", str(s), "-o", f"{tag}_samples.json",
                          "--matrix-out", f"{tag}_R.json"])
        for tag, _ in self.CLASSES:
            steps.append(["parcors", f"{tag}_R.json", "-o", f"{tag}_params.json"])
        for tag, _ in self.CLASSES:
            steps.append(["dilate", f"{tag}_params.json", "--dim", str(self.DIM),
                          "-o", f"{tag}_curve.json"])
        names = [f"{tag}_curve.json" for tag, _ in self.CLASSES]
        steps.append(["dist", *names, "-o", "dist.csv"])
        steps.append(["mean", *names, "--iters", str(self.MEAN_ROUNDS), "-o", "mean.json"])
        return steps

    def pass_length(self) -> int:
        return len(self.chains)

    def run(self, k: int):
        # Each operation works in its own directory on bare file names, so
        # the files it writes do not depend on where the run takes place.
        opdir = self.workdir / f"op{k}"
        opdir.mkdir()
        home = os.getcwd()
        os.chdir(opdir)
        try:
            codes = [cli.main(["--quiet", *argv]) for argv in self.chains[k % len(self.chains)]]
        finally:
            os.chdir(home)
        return opdir, codes

    def fingerprint(self, out) -> str:
        opdir, codes = out
        h = hashlib.sha256(repr(codes).encode())
        for path in sorted(opdir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def check(self, outs) -> dict:
        ok, worst = [], 0.0
        for _, (opdir, codes) in outs:
            try:
                chain_ok, err = self._check_chain(opdir, codes)
            except (DilshapeError, OSError, ValueError):
                chain_ok, err = False, 0.0
            ok.append(chain_ok)
            worst = max(worst, err)
        return {"op_ok": ok, "run_ok": True, "warp_residual": NO_WARP,
                "dilation.roundtrip_err_max": worst, "shape.separation_ratio": 0.0}

    def _check_chain(self, opdir: Path, codes) -> tuple[bool, float]:
        if any(c != cli.EXIT_OK for c in codes):
            return False, 0.0
        tags = [tag for tag, _ in self.CLASSES]
        err = 0.0
        for tag in tags:
            io.load_realizations(opdir / f"{tag}_samples.json")
            matrix = io.load_matrix(opdir / f"{tag}_R.json")
            params = io.load_params(opdir / f"{tag}_params.json")
            err = max(err, float(np.abs(dilation.reconstruct_matrix(params) - matrix).max()))
        inputs = [io.load_curve(opdir / f"{tag}_curve.json") for tag in tags]
        mean = io.load_curve(opdir / "mean.json")
        with open(opdir / "dist.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        dist = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        return bool(dist.shape == (len(tags), len(tags))
                    and np.array_equal(dist, dist.T)
                    and not np.any(np.diag(dist))
                    and mean.segments == inputs[0].segments
                    and mean.starts_at_identity()), err


WORKLOADS = {"classify": Classify, "align": Align, "factor": Factor, "cli_mean": CliMean}
