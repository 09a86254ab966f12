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
own curve objects for all rounds. The lattice search ``_dp_align`` is then
timed alone the same way on the transforms of the pairs: criterion_10 at grid
20 and criterion_08 at grids 200 and 1,000, its untimed call the first pair's
under ``tracemalloc``. One JSON line per set and layer reports each side's
median time per pair, the median over rounds of their ratio (this checkout
over REV, paired by round so that a drift of the host's speed cancels), the
quartile spread of REV's passes over their median, whether every distance and
warp is bit-identical, and otherwise the largest relative difference of the
distances; a lattice line also reports each side's traced peak in KB.
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
import tracemalloc
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


def timed_pass(run):
    start = time.perf_counter()
    out = run()
    return time.perf_counter() - start, out


def paired(runs, pairs: int, rounds: int, **extra) -> dict:
    """Time the parent's and the child's pass over ``pairs`` pairs in ABBA
    rounds and summarize them; each pass returns (distance, warp values) per pair."""
    times = {"parent": [], "child": []}
    outs = {}
    for r in range(rounds):
        for side in (("parent", "child") if r % 2 == 0 else ("child", "parent")):
            seconds, outs[side] = timed_pass(runs[side])
            times[side].append(seconds / pairs)
    got, want = outs["child"], outs["parent"]
    identical = all(np.float64(a).tobytes() == np.float64(b).tobytes()
                    and phi.tobytes() == psi.tobytes() for (a, phi), (b, psi) in zip(got, want))
    rel = max(abs(a - b) / max(abs(b), 1e-300) for (a, _), (b, _) in zip(got, want))
    parent_ms = statistics.median(times["parent"]) * 1e3
    child_ms = statistics.median(times["child"]) * 1e3
    ratio = statistics.median(c / p for c, p in zip(times["child"], times["parent"]))
    spread = 0.0
    if rounds >= 2:
        q1, _, q3 = statistics.quantiles(times["parent"], n=4, method="inclusive")
        spread = (q3 - q1) * 1e3 / parent_ms
    return {**extra, "pairs": pairs, "rounds": rounds,
            "parent_ms": round(parent_ms, 4), "child_ms": round(child_ms, 4),
            "ratio": round(ratio, 4), "parent_spread": round(spread, 4),
            "identical": identical, "max_rel_diff": 0.0 if identical else rel}


def compare(name, grid, pairs, parent_curves, parent_shape, rounds: int) -> dict:
    own = {id(c): parent_curves.ManifoldCurve(points=c.points, base=c.base)
           for pair in pairs for c in pair}
    sides = {"parent": (parent_shape.shape_distance, [(own[id(a)], own[id(b)]) for a, b in pairs]),
             "child": (shape.shape_distance, pairs)}
    runs = {side: lambda f=f, ps=ps: [(d, phi.values) for d, phi in (f(a, b, grid) for a, b in ps)]
            for side, (f, ps) in sides.items()}
    for run in runs.values():  # an untimed pass, so that lazy set-up is not timed
        run()
    return paired(runs, len(pairs), rounds, layer="shape_distance", set=name, grid=grid)


def compare_lattice(name, grid, pairs, parent_shape, rounds: int) -> dict:
    qs = [(shape.tsrv(c0), shape.tsrv(c1)) for c0, c1 in pairs]
    align = {"parent": parent_shape._dp_align, "child": shape._dp_align}
    peaks = {}
    for side, f in align.items():  # the untimed call, traced
        tracemalloc.start()
        f(*qs[0], grid)
        peaks[f"{side}_peak_kb"] = round(tracemalloc.get_traced_memory()[1] / 1024, 1)
        tracemalloc.stop()
    runs = {side: lambda f=f: [f(q0, q1, grid) for q0, q1 in qs] for side, f in align.items()}
    return {**paired(runs, len(pairs), rounds, layer="_dp_align", set=name, grid=grid), **peaks}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--rounds", type=int, default=9, help="passes per side (default 9)")
    parser.add_argument("--pairs", type=int, default=None,
                        help="keep the first N pairs of each set (default all)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent_curves, parent_shape = import_revision(args.rev, Path(tmp))
        sets = pair_sets(args.pairs)
        for name, grid, pairs in sets:
            print(json.dumps(compare(name, grid, pairs, parent_curves, parent_shape,
                                     args.rounds)), flush=True)
        (c10, grid, c10_pairs), (c08, _, c08_pairs) = sets
        for name, grid, pairs in ((c10, grid, c10_pairs), (c08, 200, c08_pairs),
                                  (c08, 1000, c08_pairs)):
            print(json.dumps(compare_lattice(name, grid, pairs, parent_shape, args.rounds)),
                  flush=True)


if __name__ == "__main__":
    main()
