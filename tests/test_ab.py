"""Smoke test of tools/ab.py: the checkout against its own HEAD on 3 pairs
per set."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


@pytest.mark.skipif(git("rev-parse", "--verify", "HEAD").returncode != 0,
                    reason="needs a git checkout with a commit")
def test_head_against_head():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "HEAD",
                          "--pairs", "3", "--rounds", "1"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    # shape_distance on both sets, then the lattice search alone on three.
    assert [(line["layer"], line["set"], line["grid"]) for line in lines] == [
        ("shape_distance", "criterion_10", 20), ("shape_distance", "criterion_08", 200),
        ("_dp_align", "criterion_10", 20), ("_dp_align", "criterion_08", 200),
        ("_dp_align", "criterion_08", 1000)]
    for line in lines[2:]:
        assert line["parent_peak_kb"] > 0.0 and line["child_peak_kb"] > 0.0
    for line in lines:
        assert line["pairs"] == 3 and line["parent_ms"] > 0.0 and line["child_ms"] > 0.0
        # One round: the paired ratio is the ratio of the two passes.
        assert line["ratio"] == pytest.approx(line["child_ms"] / line["parent_ms"], rel=1e-3)
    # A source tree equal to HEAD aligns bit for bit like HEAD.
    if git("diff", "--quiet", "HEAD", "--", "src/dilshape").returncode == 0:
        assert all(line["identical"] and line["max_rel_diff"] == 0.0 for line in lines)
