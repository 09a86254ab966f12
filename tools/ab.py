"""In-process A/B of the shape distance against another git revision.

    python tools/ab.py REV [--rounds R] [--pairs N]

Extracts ``src/dilshape`` of revision REV with ``git archive`` into a
temporary directory as the package ``dilshape_parent`` and imports it next to
this checkout's ``dilshape`` (the package uses only relative imports), so both
sides run in one process on one set of inputs.  Two pair sets are built the
way ``tools/shape_quality.py`` builds them:

- ``criterion_10``: the 190 pairs of ten periodic and ten stationary dim-6
  curves, at grid 20;
- ``criterion_08``: a smooth SO(3) motion of 100 segments against its three
  reparametrizations, at grid 200.

``--pairs N`` keeps the first N pairs of each set. After one untimed pass per
side, each round times one pass of ``shape_distance`` over a set on each side,
the side that goes first alternating by round (ABBA ...). Each side keeps its
own curve objects for all rounds. One JSON line per set reports each side's
median time per pair, the median over rounds of their ratio (this checkout
over REV, paired by round so that a drift of the host's speed cancels), the
quartile spread of REV's passes over their median, whether every distance and
warp is bit-identical, and otherwise the largest relative difference of the
distances.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

import shape_quality as quality  # puts this checkout's src/ on sys.path

from dilshape import shape

ROOT = Path(__file__).resolve().parents[1]


def import_revision(rev: str, into: Path):
    """``src/dilshape`` of ``rev`` imported as the package ``dilshape_parent``."""
    archive = subprocess.run(["git", "archive", rev, "src/dilshape"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (into / "src" / "dilshape").rename(into / "dilshape_parent")
    sys.path.insert(0, str(into))
    return (importlib.import_module("dilshape_parent.curves"),
            importlib.import_module("dilshape_parent.shape"))


def pair_sets(pairs: int | None):
    """(name, grid, curve pairs) of each set, built by this checkout; only the
    curves of the pairs kept are built."""
    # Curves 0-9 are periodic and 10-19 stationary, paired as in criterion 10.
    index = (list(itertools.combinations(range(10), 2))
             + list(itertools.combinations(range(10, 20), 2))
             + list(itertools.product(range(10), range(10, 20))))[:pairs]
    pc = {k: quality.pc_curve(0.5, k) if k < 10 else quality.pc_curve(0.0, 90 + k)
          for k in sorted({k for pair in index for k in pair})}
    c10 = [(pc[i], pc[j]) for i, j in index]
    nodes = np.linspace(0.0, 1.0, 101)
    smooth = quality.smooth_curve(nodes)
    c08 = [(smooth, quality.smooth_curve(phi)) for phi in (
        0.45 * nodes + 0.55 * nodes ** 2,
        (np.exp(1.2 * nodes) - 1.0) / (np.exp(1.2) - 1.0),
        nodes + 0.09 * np.sin(2.0 * np.pi * nodes))[:pairs]]
    return [("criterion_10", 2 * c10[0][0].segments, c10), ("criterion_08", 200, c08)]


def timed_pass(distance, pairs, grid):
    start = time.perf_counter()
    out = [distance(c0, c1, grid) for c0, c1 in pairs]
    return time.perf_counter() - start, out


def compare(name, grid, pairs, parent_curves, parent_shape, rounds: int) -> dict:
    own = {id(c): parent_curves.ManifoldCurve(points=c.points, base=c.base)
           for pair in pairs for c in pair}
    sides = {"parent": (parent_shape.shape_distance, [(own[id(a)], own[id(b)]) for a, b in pairs]),
             "child": (shape.shape_distance, pairs)}
    times = {"parent": [], "child": []}
    outs = {}
    for side in sides:  # an untimed pass, so that lazy set-up is not timed
        timed_pass(*sides[side], grid)
    for r in range(rounds):
        for side in (("parent", "child") if r % 2 == 0 else ("child", "parent")):
            seconds, outs[side] = timed_pass(*sides[side], grid)
            times[side].append(seconds / len(pairs))
    got, want = outs["child"], outs["parent"]
    identical = all(np.float64(a).tobytes() == np.float64(b).tobytes()
                    and phi.values.tobytes() == psi.values.tobytes()
                    for (a, phi), (b, psi) in zip(got, want))
    rel = max(abs(a - b) / max(abs(b), 1e-300) for (a, _), (b, _) in zip(got, want))
    parent_ms = statistics.median(times["parent"]) * 1e3
    child_ms = statistics.median(times["child"]) * 1e3
    ratio = statistics.median(c / p for c, p in zip(times["child"], times["parent"]))
    spread = 0.0
    if rounds >= 2:
        q1, _, q3 = statistics.quantiles(times["parent"], n=4, method="inclusive")
        spread = (q3 - q1) * 1e3 / parent_ms
    return {"set": name, "pairs": len(pairs), "grid": grid, "rounds": rounds,
            "parent_ms": round(parent_ms, 4), "child_ms": round(child_ms, 4),
            "ratio": round(ratio, 4), "parent_spread": round(spread, 4),
            "identical": identical, "max_rel_diff": 0.0 if identical else rel}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--rounds", type=int, default=9, help="passes per side (default 9)")
    parser.add_argument("--pairs", type=int, default=None,
                        help="keep the first N pairs of each set (default all)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent_curves, parent_shape = import_revision(args.rev, Path(tmp))
        for name, grid, pairs in pair_sets(args.pairs):
            print(json.dumps(compare(name, grid, pairs, parent_curves, parent_shape,
                                     args.rounds)), flush=True)


if __name__ == "__main__":
    main()
