"""Alignment quality gate: prints one JSON line of shape-distance figures.

    python tools/shape_quality.py

Imports dilshape from ``src/`` of the checkout that holds this file and uses
numpy and the standard library besides.  The line holds:

- ``criterion_08``: shape over curve distance of a smooth SO(3) motion against
  its quadratic, exponential and sinusoidal reparametrizations (100 segments,
  grid 200), as in acceptance criterion 08;
- ``criterion_10``: mean between-class over mean within-class shape distance
  of ten periodic and ten stationary dim-6 curves (grid 20), as in acceptance
  criterion 10;
- ``stepped``: 200 pairs of random stepped SO(3) curves (generator seed 501,
  n from 6 to 16 segments, shared by both curves of a pair), each compared as
  d(c0, c1) and d(c1, c0) at grid 2n and as d(c0, c1) at grid 4n.  It reports
  the count, the sum and the sha256 of the 600 distances as float64 bytes in
  that order, so two commits that align identically print the same digest;
- ``mean``: ``karcher_mean`` (default rounds and grid) of six families of two
  periodic and two stationary dim-6 curves built as in criterion 10 (seeds
  2f, 2f + 1, 100 + 2f and 101 + 2f for family f).  It reports the sum over
  the families of the mean squared shape distance from the mean to its
  inputs, and the sha256 of the six means' points as float64 bytes;
- ``means_wide``: the same figure over 48 families, reported per kind, with
  one sha256 of all 48 means.  The 24 criterion-10 families f = 0 .. 23 are
  built as for ``mean``; the 24 stepped families come from generator seed 11,
  each drawing n from 6 to 16, then a count from 2 to 5, then that many
  stepped SO(3) curves of n segments.

Runs in 10 to 25 s on one core of a 2-vCPU KVM guest.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dilshape.corr import estimate_ensemble_correlation, gen_pc_process  # noqa: E402
from dilshape.curves import ManifoldCurve, from_dilation  # noqa: E402
from dilshape.dilation import build_dilation_sequence, extract_schur_params  # noqa: E402
from dilshape.liegroup import exp_group  # noqa: E402
from dilshape.shape import curve_distance, karcher_mean, shape_distance  # noqa: E402

# The smooth motion that acceptance criterion 08 reparametrizes.
GEN_A = np.array([[0.0, -1.0, 0.3], [1.0, 0.0, -0.5], [-0.3, 0.5, 0.0]]) * 0.9
GEN_B = np.array([[0.0, 0.4, -0.2], [-0.4, 0.0, 1.1], [0.2, -1.1, 0.0]]) * 0.8


def smooth_curve(params) -> ManifoldCurve:
    return ManifoldCurve(points=np.stack([
        exp_group(np.sin(np.pi * t / 2.0) * 2.0 * GEN_A)
        @ exp_group((t + 0.3 * np.sin(np.pi * t)) * GEN_B) for t in params]))


def stepped_curve(rng, n: int, d: int, scale: float = 0.35) -> ManifoldCurve:
    """Curve from the identity made of n random geodesic steps."""
    pts = np.empty((n + 1, d, d))
    pts[0] = np.eye(d)
    for k in range(n):
        m = rng.standard_normal((d, d))
        pts[k + 1] = exp_group(scale * 0.5 * (m - m.T)) @ pts[k]
    return ManifoldCurve(points=pts)


def criterion_08() -> dict:
    nodes = np.linspace(0.0, 1.0, 101)
    c = smooth_curve(nodes)
    warps = {"quadratic": 0.45 * nodes + 0.55 * nodes ** 2,
             "exponential": (np.exp(1.2 * nodes) - 1.0) / (np.exp(1.2) - 1.0),
             "sinusoidal": nodes + 0.09 * np.sin(2.0 * np.pi * nodes)}
    ratios = {}
    for name, phi in warps.items():
        warped = smooth_curve(phi)
        ratios[name] = shape_distance(c, warped, grid=200)[0] / curve_distance(c, warped)
    return ratios


def pc_curve(depth: float, seed: int) -> ManifoldCurve:
    data = gen_pc_process(0.6, 4, depth, 16, seed, count=256)
    params = extract_schur_params(estimate_ensemble_correlation(data, 16))
    return from_dilation(build_dilation_sequence(params, 6))


def criterion_10() -> float:
    periodic = [pc_curve(0.5, s) for s in range(10)]
    stationary = [pc_curve(0.0, 100 + s) for s in range(10)]
    grid = 2 * periodic[0].segments
    within = [shape_distance(g[i], g[j], grid=grid)[0] for g in (periodic, stationary)
              for i in range(10) for j in range(i + 1, 10)]
    between = [shape_distance(p, s, grid=grid)[0] for p in periodic for s in stationary]
    return float(np.mean(between) / np.mean(within))


def stepped_pairs(pairs: int = 200) -> dict:
    rng = np.random.default_rng(501)
    dists = []
    for _ in range(pairs):
        n = int(rng.integers(6, 17))
        c0, c1 = stepped_curve(rng, n, 3), stepped_curve(rng, n, 3)
        dists += [shape_distance(c0, c1, grid=2 * n)[0], shape_distance(c1, c0, grid=2 * n)[0],
                  shape_distance(c0, c1, grid=4 * n)[0]]
    values = np.array(dists, dtype=np.float64)
    return {"count": values.size, "sum": float(values.sum()),
            "sha256": hashlib.sha256(values.tobytes()).hexdigest()}


def pc_family(f: int) -> list[ManifoldCurve]:
    return [pc_curve(0.5, 2 * f), pc_curve(0.5, 2 * f + 1),
            pc_curve(0.0, 100 + 2 * f), pc_curve(0.0, 101 + 2 * f)]


def mean_field(families, digest) -> float:
    """Sum over the families of the mean squared shape distance from the
    default ``karcher_mean`` to its inputs; each mean's points go to ``digest``."""
    total = 0.0
    for family in families:
        mean = karcher_mean(family)
        grid = 2 * mean.segments
        total += float(np.mean([shape_distance(mean, c, grid=grid)[0] ** 2 for c in family]))
        digest.update(np.ascontiguousarray(mean.points, dtype=np.float64).tobytes())
    return total


def means(families: int = 6) -> dict:
    digest = hashlib.sha256()
    total = mean_field(map(pc_family, range(families)), digest)
    return {"families": families, "sum_mean_sq": total, "sha256": digest.hexdigest()}


def means_wide(families: int = 24) -> dict:
    rng = np.random.default_rng(11)
    stepped = []
    for _ in range(families):
        n, count = int(rng.integers(6, 17)), int(rng.integers(2, 6))
        stepped.append([stepped_curve(rng, n, 3) for _ in range(count)])
    digest = hashlib.sha256()
    pc_total = mean_field(map(pc_family, range(families)), digest)
    stepped_total = mean_field(stepped, digest)
    return {"families": 2 * families, "pc_sum_mean_sq": pc_total,
            "stepped_sum_mean_sq": stepped_total, "sha256": digest.hexdigest()}


def main() -> None:
    start = time.perf_counter()
    line = {"criterion_08": criterion_08(), "criterion_10": criterion_10(),
            "stepped": stepped_pairs(), "mean": means(), "means_wide": means_wide()}
    line["seconds"] = round(time.perf_counter() - start, 1)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
