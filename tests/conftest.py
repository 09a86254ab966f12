"""Shared construction helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dptsv

from dilshape import shape
from dilshape.curves import ManifoldCurve


def random_skew(rng, d, scale=1.0):
    m = rng.standard_normal((d, d))
    return scale * 0.5 * (m - m.T)


def random_rotation(rng, d, scale=1.0):
    """Rotation reachable by exp, angles well inside the principal branch."""
    return expm(random_skew(rng, d, scale))


def bounded_skew(rng, d, max_angle):
    """Skew matrix whose largest rotation angle is exactly ``max_angle``."""
    m = random_skew(rng, d)
    radius = np.abs(np.linalg.eigvals(m).imag).max()
    if radius == 0.0:
        return m
    return m * (max_angle / radius)


# A fixed smooth motion on SO(3) used wherever tests need a curve with a
# closed form at every parameter, not just at sample points.
_GEN_A = np.array([[0.0, -1.0, 0.3],
                   [1.0, 0.0, -0.5],
                   [-0.3, 0.5, 0.0]]) * 0.9
_GEN_B = np.array([[0.0, 0.4, -0.2],
                   [-0.4, 0.0, 1.1],
                   [0.2, -1.1, 0.0]]) * 0.8


def smooth_point(t):
    return expm(np.sin(np.pi * t / 2.0) * 2.0 * _GEN_A) @ expm(
        (t + 0.3 * np.sin(np.pi * t)) * _GEN_B)


def smooth_curve(params):
    """Sample the fixed smooth motion at the given parameters in [0, 1]."""
    pts = np.stack([smooth_point(t) for t in np.asarray(params, dtype=float)])
    return ManifoldCurve(points=pts)


def stepped_curve(rng, n, d, scale=0.35):
    """Random curve from the identity built out of moderate geodesic steps."""
    pts = np.empty((n + 1, d, d))
    pts[0] = np.eye(d)
    for k in range(n):
        pts[k + 1] = expm(random_skew(rng, d, scale)) @ pts[k]
    return ManifoldCurve(points=pts)


def exhaustive_lattice_min(q0, q1, g, steps):
    """Minimum warped gap over every admissible lattice path, by enumeration.

    Written independently of the production search: plain recursion over
    outgoing steps with direct evaluation of each edge integrand.  Reads both
    q sequences as values at segment midpoints, linear in between, flat past
    the ends.
    """
    def read(q, pos):
        n = q.shape[0]
        mids = (np.arange(n) + 0.5) / n
        flat = q.reshape(n, -1)
        return np.array([np.interp(pos, mids, flat[:, c])
                         for c in range(flat.shape[1])])

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def from_node(i, j):
        if i == g and j == g:
            return 0.0
        best = np.inf
        for a, b in steps:
            if i + a > g or j + b > g:
                continue
            sigma = b / a
            cost = 0.0
            for r in range(a):
                t_mid = (i + r + 0.5) / g
                p_mid = min((j + sigma * (r + 0.5)) / g, 1.0)
                gap = read(q0, t_mid) - np.sqrt(sigma) * read(q1, p_mid)
                cost += float(gap @ gap)
            best = min(best, cost / g + from_node(i + a, j + b))
        return best

    return from_node(0, 0)


def reference_dp_align(q0, q1, grid):
    """The lattice search as it stood before row blocks: every step's edge
    table and the path costs held whole, (G + 1)^2 floats each, and the
    candidates step-major.  For bit-identity checks of ``shape._dp_align``."""
    n0 = q0.shape[0]
    g = n0 * -(-grid // n0)
    if g > shape.MAX_GRID:
        raise shape.GridMismatch(f"grid {grid} sets a lattice side {g} above {shape.MAX_GRID}")
    p0 = shape._pl_at(q0, (np.arange(g) + 0.5) / g)
    # Edge costs of every start node, one table per step: the q1 reads of
    # sub-interval r sit on the node grid shifted by sigma (r + 1/2).  With
    # the reads of all a sub-intervals laid side by side on both sides, an
    # edge's cost is one squared gap |p - sqrt(sigma) v|^2 / g, and the cross
    # terms of all edges of a step come from one matrix product.
    tables = []
    for a, b in shape.DP_STEPS:
        if a > g or b > g:
            tables.append(None)
            continue
        sigma = b / a
        rows, cols = g - a + 1, g - b + 1
        shifted = (np.arange(cols) + sigma * (np.arange(a)[:, None] + 0.5)) / g
        v = shape._pl_at(q1, shifted.ravel()).reshape(a, cols, -1)
        v = v.transpose(1, 0, 2).reshape(cols, -1)
        p = np.concatenate([p0[r:r + rows] for r in range(a)], axis=1)
        tables.append((np.einsum("md,md->m", p, p)[:, None]
                       - 2.0 * np.sqrt(sigma) * (p @ v.T)
                       + sigma * np.einsum("md,md->m", v, v)) / g)
    # Row by row, every step's candidates fill one buffer and the first
    # minimum wins, so exact ties resolve in shape.DP_STEPS order.
    dist = np.full((g + 1, g + 1), np.inf)
    dist[0, 0] = 0.0
    choice = np.empty((g + 1, g + 1), dtype=np.int8)
    cand = np.full((len(shape.DP_STEPS), g + 1), np.inf)
    nodes = np.arange(g + 1)
    for i2 in range(1, g + 1):
        for step_idx, ((a, b), cost) in enumerate(zip(shape.DP_STEPS, tables)):
            i1 = i2 - a
            if i1 >= 0 and cost is not None:
                np.add(dist[i1, :g - b + 1], cost[i1], out=cand[step_idx, b:])
        best = cand.argmin(axis=0)
        dist[i2] = cand[best, nodes]
        choice[i2] = best
    # Trace the winning path back and fill phi at every t node.
    phi_nodes = np.empty(g + 1)
    i, j = g, g
    phi_nodes[g] = 1.0
    while i > 0:
        a, b = shape.DP_STEPS[choice[i, j]]
        pi, pj = i - a, j - b
        for t in range(pi, i):
            phi_nodes[t] = (pj + (b / a) * (t - pi)) / g
        i, j = pi, pj
    return max(float(dist[g, g]), 0.0), phi_nodes


def reference_tied_step(diag, off, grad, tied):
    """Damped node step over groups of tied nodes, end groups fixed, solved by
    LAPACK with the one-unknown case divided out; None when singular."""
    group = np.concatenate(([0], np.cumsum(~tied)))
    last = group[-1]
    gd = np.bincount(group, diag) + 2.0 * np.bincount(group[:-1], off * tied, last + 1)
    gb = -np.bincount(group, grad)[1:last]
    x = np.zeros(last + 1)
    if last == 2:
        x[1] = gb[0] / gd[1]
    elif last > 2:
        _, _, x[1:last], info = dptsv(gd[1:last], off[~tied][1:-1], gb)
        if info != 0:
            return None
    return x[group]


def gauss_newton(phi, tables):
    """Score, slopes and node system of a warp: ``shape._read``, then ``shape._system``."""
    cost, s, reads = shape._read(phi, tables)
    return (cost, s, *shape._system(reads))


def reference_refine(p0, q1, phi_nodes):
    """The warp refinement as a plain damped Gauss-Newton loop with explicit
    halving, for identity checks of the production one.

    Every warp, trial or taken, gets its full node system from
    :func:`gauss_newton`.  Each taken warp's step is solved once, every solve
    through the grouped :func:`reference_tied_step`, its tie search starting
    from the previous ties still on a bound; a singular system raises the
    damping by 4 and costs one trial.  Trial h of a step moves the slopes by
    the solved step over 2**h, for h up to ``REFINE_HALVINGS``.  The slopes
    are clipped and summed with ``np.clip``, ``np.diff`` and
    ``np.concatenate``.  Returns (warp, score).
    """
    def bounded_warp(s):
        cells, lo, hi = s.size, 1.0 / shape.SLOPE_BOUND, shape.SLOPE_BOUND
        s = np.clip(s, lo, hi)
        excess = cells - s.sum()
        room = hi - s if excess > 0.0 else s - lo
        inside = room * ((s > lo) & (s < hi))
        room = inside if inside.sum() > abs(excess) else room
        phi = np.concatenate(([0.0], np.cumsum(s + excess * room / room.sum()) / cells))
        phi[-1] = 1.0
        return phi

    def solved(damped):
        """Slope step of the grouped solve, or None when it is singular."""
        while (step := reference_tied_step(damped, off, grad, tied)) is not None:
            ds = np.diff(step)
            push = ((at_lo & (ds < 0.0)) | (at_hi & (ds > 0.0))) & ~tied
            if not push.any():
                return ds * s.size
            tied[push] = True
        return None

    tables = shape._gram_tables(p0, q1)
    phi = phi_nodes
    cost, s, diag, off, grad = gauss_newton(phi, tables)
    lam = 1e-3 * max(diag.max(), 1.0)
    tied = np.zeros(s.size, dtype=bool)
    trials = 0
    while trials < shape.REFINE_ITERS:
        at_lo = s <= (1.0 + 1e-9) / shape.SLOPE_BOUND
        at_hi = s >= (1.0 - 1e-9) * shape.SLOPE_BOUND
        tied &= at_lo | at_hi
        ds = solved(diag + lam)
        if ds is None:
            lam *= 4.0
            trials += 1
            continue
        for h in range(shape.REFINE_HALVINGS + 1):
            trials += 1
            new_phi = bounded_warp(s + ds / 2 ** h)
            new = gauss_newton(new_phi, tables)
            if new[0] < cost or trials == shape.REFINE_ITERS:
                break
        if not new[0] < cost:
            break
        change = cost - new[0]
        phi, (cost, s, diag, off, grad) = new_phi, new
        lam /= 3.0
        if change < shape.REFINE_FTOL * max(cost, 1.0):
            break
    return phi, shape._scored(phi, p0, q1)


def reference_cell_fit(target, n):
    """Least-squares values of n segments whose piecewise-linear reads at the
    midpoints of ``target``'s cells fit its rows: a dense lstsq on the reads
    of the unit sequences."""
    cells = target.shape[0]
    reads = shape._pl_at(np.eye(n), (np.arange(cells) + 0.5) / cells)
    return np.linalg.lstsq(reads, target, rcond=None)[0]


# The peak is the child's VmHWM, the high-water mark of its own address space.
# ru_maxrss would not do: Linux carries the spawning process's peak into it
# across exec, so it would read the peak of the test process.
_CHILD = ("import sys\n"
          "from dilshape.cli import main\n"
          "status = main(sys.argv[1:])\n"
          "peak = [line for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
          "print(status, peak[0].split()[1])\n")


def cli_status_and_peak(*argv):
    """Exit status and peak resident KB of one command line run in a fresh
    interpreter, plus a report for assertion messages."""
    src = Path(shape.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _CHILD, *map(str, argv)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, (f"process exit {out.returncode}, stdout {out.stdout!r}, "
                                 f"stderr {out.stderr!r}")
    status, peak_kb = map(int, out.stdout.split()[-2:])
    return status, peak_kb, f"status {status}, peak {peak_kb} KB, stderr {out.stderr!r}"
