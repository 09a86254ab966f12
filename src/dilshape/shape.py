"""Elastic comparison of rotation-group curves through velocity transforms.

The transported square-root-velocity transform maps a curve to the flat
sequence q_k = v_k / sqrt(|v_k|) of normalized right-trivialized velocities.
In these coordinates geodesics between curves are straight lines, the curve
distance is the L2 gap, and reparametrization acts as
q -> (q o phi) sqrt(phi').  The shape distance minimizes the gap over
increasing warps in two stages (Srivastava & Klassen 2016, ch. 4): a dynamic
program over monotone lattice paths finds the global warp, and a damped
Gauss-Newton search over its nodes, slopes in [e^-2, e^2], refines it
(Madsen, Nielsen & Tingleff 2004).  It reads each trial's score, and each
taken warp's normal system, from Gram tables of the pair built once: the
cross table of the q0 cell reads against q1, and per-segment products of q1.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.linalg.lapack import dptsv

from .corr import _freeze
from .curves import MAX_GRID, ManifoldCurve, srv_values
from .errors import (DegenerateCurve, DimMismatch, GridMismatch, NotClosed, OutOfRange,
                     VanishingVelocity, _checked_int)
from .liegroup import exp_group

Q_FLOOR = 1e-10

# Lattice steps (a, b) of a nodes in t and b in phi, coprime since k steps (a, b)
# read and fill what one (k a, k b) does.  The unit diagonal leads, so ties keep it.
DP_STEPS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))

# Warp refinement: node steps on REFINE_CELLS times the lattice cells, slopes
# in [1/SLOPE_BOUND, SLOPE_BOUND] so none underflows, until a taken step lowers
# the cost by less than REFINE_FTOL times max(cost, 1), REFINE_HALVINGS halvings
# of one step lower nothing, or REFINE_ITERS trials pass.
REFINE_CELLS = 6
SLOPE_BOUND = np.e ** 2
REFINE_FTOL = 1e-6
REFINE_HALVINGS = 7
REFINE_ITERS = 200


@dataclass(frozen=True, slots=True)
class Reparametrization:
    """Piecewise-linear non-decreasing warp of [0, 1] onto itself (slotted:
    callers keep many)."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not (isinstance(v, np.ndarray) and v.dtype.kind in "biuf" and np.isfinite(v).all()):
            raise OutOfRange("warp values must be a finite numeric numpy array")
        if v.ndim != 1 or v.size < 2:
            raise GridMismatch("warp needs at least two nodes")
        if abs(v[0]) > 1e-12 or abs(v[-1] - 1.0) > 1e-12:
            raise GridMismatch("warp must map 0 to 0 and 1 to 1")
        if np.any(np.diff(v) < -1e-15):
            raise GridMismatch("warp must be non-decreasing")

    def __call__(self, t):
        grid = np.linspace(0.0, 1.0, self.values.size)
        return np.interp(t, grid, self.values)


def tsrv(curve: ManifoldCurve) -> np.ndarray:
    """Flat coordinates of a curve: its read-only q values, one per segment.

    Raises VanishingVelocity when any segment's q norm falls below
    ``Q_FLOOR``: such a curve has no well-defined direction there and cannot
    be transformed faithfully.
    """
    q, vnorms = srv_values(curve)
    bad = np.sqrt(vnorms) < Q_FLOOR
    if bad.any():
        raise VanishingVelocity(
            f"{int(bad.sum())} of {q.shape[0]} segments below Q_FLOOR {Q_FLOOR:g}")
    return q


def tsrv_inverse(q: np.ndarray, start: np.ndarray) -> ManifoldCurve:
    """Integrate flat coordinates back to a curve.

    x_{k+1} = exp(q_k |q_k| / N) x_k from x_0 = ``start``; with the curve's
    first point as the start, inverts :func:`tsrv` exactly up to roundoff.
    Degenerate (zero) segments simply hold the point.
    """
    n = q.shape[0]
    qnorms = np.sqrt(np.einsum("kij,kij->k", q, q))
    steps = exp_group(q * (qnorms / n)[:, None, None])
    pts = np.empty((n + 1, *q.shape[1:]))
    pts[0] = start
    for k, step in enumerate(steps):
        pts[k + 1] = step @ pts[k]
    return ManifoldCurve(points=_freeze(pts))


def _from_identity(q: np.ndarray) -> ManifoldCurve:
    """Integrate q values from the identity; segments below Q_FLOOR hold still."""
    q = np.array(q, dtype=float)
    q[np.sqrt(np.einsum("kij,kij->k", q, q)) < Q_FLOOR] = 0.0
    return tsrv_inverse(q, np.eye(q.shape[1]))


def _admitted(curves, grid: int | None = None, closed: bool = False,
              shared: bool = True) -> int:
    """Alignment grid of a comparison, once the curves are found comparable.

    Checks, in order: at least one curve, every curve closed when ``closed``,
    one dim, one segment count when ``shared``, and an identity start unless
    ``closed``.  The grid defaults to twice the finest segment count and may
    not fall below it.
    """
    if not curves:
        raise GridMismatch("no curves to compare")
    if closed and not all(c.closed for c in curves):
        raise NotClosed("curves must be closed")
    dims = sorted({c.dim for c in curves})
    if len(dims) > 1:
        raise DimMismatch(f"curve dims {dims} differ")
    segments = sorted({c.segments for c in curves})
    if shared and len(segments) > 1:
        raise GridMismatch(f"segment counts {segments} differ; resample first")
    if not closed and not all(c.starts_at_identity() for c in curves):
        raise GridMismatch("curves must start at the identity; translate before comparing")
    finest = segments[-1]
    grid = 2 * finest if grid is None else _checked_int(grid, "grid")
    if grid < finest:
        raise GridMismatch(f"grid {grid} below curve resolution {finest}")
    return grid


def curve_distance(c0: ManifoldCurve, c1: ManifoldCurve) -> float:
    """Parametrization-sensitive distance: L2 gap of the q sequences."""
    _admitted([c0, c1])
    gap = srv_values(c0)[0] - srv_values(c1)[0]
    return float(np.sqrt(np.sum(gap * gap) / gap.shape[0]))


def geodesic_between(c0: ManifoldCurve, c1: ManifoldCurve, s: float) -> ManifoldCurve:
    """Point at parameter s on the geodesic of curves from c0 to c1.

    Interpolates linearly in flat coordinates and integrates back.  Segments
    whose q norm is below the floor, at the ends or in between, contribute no
    motion instead of failing.  s must be finite.
    """
    s = float(s)
    if not np.isfinite(s):
        raise OutOfRange(f"path parameter {s} is not finite")
    _admitted([c0, c1])
    return _from_identity((1.0 - s) * srv_values(c0)[0] + s * srv_values(c1)[0])


def _pl_index(n: int, positions: np.ndarray):
    """Left midpoint index and weight of each position, flat past the ends."""
    x = np.minimum(np.maximum(positions * n - 0.5, 0.0), n - 1.0)
    k = np.minimum(x.astype(np.intp), max(n - 2, 0))
    return k, x - k


def _pl_at(q: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Piecewise-linear read of a q sequence at parameter positions.

    Values live at segment midpoints (k + 1/2) / n and extend flat beyond
    the first and last midpoint.
    """
    n = q.shape[0]
    flat = q.reshape(n, -1)
    k, w = _pl_index(n, positions)
    lo = flat[k]
    return lo + w[:, None] * (flat[np.minimum(k + 1, n - 1)] - lo)


def _dp_align(q0: np.ndarray, q1: np.ndarray, grid: int):
    """Minimal warped q-gap over monotone lattice paths.

    Lattice nodes (i, j) represent (t, phi) = (i, j) / G where G is the
    smallest multiple of the t-side segment count at least ``grid``; that
    alignment lets the unit-diagonal path reproduce the plain curve
    distance.  Edges advance by DP_STEPS; the cost of an edge of slope
    sigma = b / a integrates |q0(t) - q1(phi(t)) sqrt(sigma)|^2 with the
    midpoint rule on the G sub-intervals it spans, reading both sequences
    through the piecewise-linear rule.  Returns (squared gap, warp nodes).
    A G above MAX_GRID raises GridMismatch before anything is allocated.
    """
    n0 = q0.shape[0]
    g = n0 * -(-grid // n0)
    if g > MAX_GRID:
        raise GridMismatch(f"grid {grid} sets a lattice side {g} above {MAX_GRID}")
    p0 = _pl_at(q0, (np.arange(g) + 0.5) / g)
    # Edge costs of every start node, one table per step: the q1 reads of
    # sub-interval r sit on the node grid shifted by sigma (r + 1/2).  With
    # the reads of all a sub-intervals laid side by side on both sides, an
    # edge's cost is one squared gap |p - sqrt(sigma) v|^2 / g, and the cross
    # terms of all edges of a step come from one matrix product.
    tables = []
    for a, b in DP_STEPS:
        if a > g or b > g:
            tables.append(None)
            continue
        sigma = b / a
        rows, cols = g - a + 1, g - b + 1
        shifted = (np.arange(cols) + sigma * (np.arange(a)[:, None] + 0.5)) / g
        v = _pl_at(q1, shifted.ravel()).reshape(a, cols, -1)
        v = v.transpose(1, 0, 2).reshape(cols, -1)
        p = np.concatenate([p0[r:r + rows] for r in range(a)], axis=1)
        tables.append((np.einsum("md,md->m", p, p)[:, None]
                       - 2.0 * np.sqrt(sigma) * (p @ v.T)
                       + sigma * np.einsum("md,md->m", v, v)) / g)
    # Row by row, every step's candidates fill one buffer and the first
    # minimum wins, so exact ties resolve in DP_STEPS order.
    dist = np.full((g + 1, g + 1), np.inf)
    dist[0, 0] = 0.0
    choice = np.empty((g + 1, g + 1), dtype=np.int8)
    cand = np.full((len(DP_STEPS), g + 1), np.inf)
    nodes = np.arange(g + 1)
    for i2 in range(1, g + 1):
        for step_idx, ((a, b), cost) in enumerate(zip(DP_STEPS, tables)):
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
        a, b = DP_STEPS[choice[i, j]]
        pi, pj = i - a, j - b
        for t in range(pi, i):
            phi_nodes[t] = (pj + (b / a) * (t - pi)) / g
        i, j = pi, pj
    return max(float(dist[g, g]), 0.0), phi_nodes


def _residuals(phi: np.ndarray, p0: np.ndarray, q1: np.ndarray):
    """Cell gaps p0_m - sqrt(s_m) q1(mid_m) of a warp and its slopes s_m.
    ``p0`` holds the q0 reads at the cell midpoints."""
    s = np.diff(phi) * (phi.size - 1)
    p1 = _pl_at(q1, 0.5 * (phi[:-1] + phi[1:]))
    return p0 - np.sqrt(s)[:, None] * p1, s


def _scored(phi: np.ndarray, p0: np.ndarray, q1: np.ndarray) -> float:
    """Score of a warp: the mean squared cell gap.

    Every warp is scored by this rule.  It uses the midpoint rule and the
    piecewise-linear reads of the lattice search, so on a lattice path's
    nodes it reproduces the path's lattice cost to roundoff.
    """
    gap, s = _residuals(phi, p0, q1)
    return float(np.einsum("md,md->", gap, gap)) / s.size


def _gram_tables(p0: np.ndarray, q1: np.ndarray):
    """Inner products that a refinement of q1 against the cell reads ``p0``
    needs: the sum of |p0_m|^2; the cross table <p0_m, q_k>, its last column
    repeated, flattened with each row's offset; and per segment of q1 the rows
    |q_k|^2, <q_k, D_k> and |D_k|^2 of D_k = q_{k+1} - q_k, zero past the
    last segment."""
    flat = q1.reshape(q1.shape[0], -1)
    delta = np.diff(flat, axis=0, append=flat[-1:])
    cross = p0 @ np.vstack([flat, flat[-1:]]).T
    return (float(np.einsum("md,md->", p0, p0)), cross.ravel(),
            np.arange(0, cross.size, cross.shape[1]),
            np.stack([np.einsum("kd,kd->k", flat, flat), np.einsum("kd,kd->k", flat, delta),
                      np.einsum("kd,kd->k", delta, delta)]))


def _read(phi: np.ndarray, tables):
    """Score and slopes of a warp, and the cell reads its node system needs,
    gathered from :func:`_gram_tables`.  The score expands |p0 - sqrt(s) p1|^2
    of the q1 read p1 = q_k + w D_k, which cancels as the gaps vanish; a final
    score comes from :func:`_scored`."""
    sq0, cross, rows, seg = tables
    cells, n1 = phi.size - 1, seg.shape[1]
    s = (phi[1:] - phi[:-1]) * cells
    k, w = _pl_index(n1, 0.5 * (phi[:-1] + phi[1:]))
    at_k = cross.take(rows + k)
    p0_delta = cross.take(rows + k + 1) - at_k
    p0_p1 = at_k + w * p0_delta
    q_sq, q_delta, delta_sq = seg.take(k, axis=1)
    delta_p1 = q_delta + w * delta_sq
    p1_sq = q_sq + w * (q_delta + delta_p1)
    root = np.sqrt(s)
    cost = (sq0 - 2.0 * (root @ p0_p1) + s @ p1_sq) / cells
    return cost, s, (n1, k, w, root, p0_delta, p0_p1, delta_sq, delta_p1, p1_sq)


def _system(reads):
    """Diagonal, off-diagonal and gradient of the Gauss-Newton node system from
    the reads of :func:`_read`.  A gap's derivatives in its cell's left and
    right node are a D_k + b p1 and a D_k - b p1, with a = -n1 sqrt(s) / 2
    inside the read's linear range (zero where it is flat past the ends) and
    b = cells / (2 sqrt(s)), so every product is a combination of table entries."""
    n1, k, w, root, p0_delta, p0_p1, delta_sq, delta_p1, p1_sq = reads
    cells = root.size
    a = (-0.5 * n1) * ((k + w > 0.0) & (k + w < n1 - 1.0)) * root
    b = (0.5 * cells) / root
    gap_delta = a * (p0_delta - root * delta_p1)
    gap_p1 = b * (p0_p1 - root * p1_sq)
    aa, ab, bb = a * a * delta_sq, 2.0 * a * b * delta_p1, b * b * p1_sq
    diag, grad = np.zeros(cells + 1), np.zeros(cells + 1)
    diag[:-1] = aa + ab + bb
    diag[1:] += aa - ab + bb
    grad[:-1] = gap_delta + gap_p1
    grad[1:] += gap_delta - gap_p1
    return diag, aa - bb, grad


def _free_step(diag, off, grad):
    """Damped node step with the end nodes fixed and every other node free;
    None when LAPACK finds the system singular."""
    x = np.zeros(diag.size)
    if diag.size == 3:
        x[1] = -grad[1] / diag[1]
    elif diag.size > 3:
        _, _, x[1:-1], info = dptsv(diag[1:-1], off[1:-1], -grad[1:-1])
        if info != 0:
            return None
    return x


def _tied_step(diag, off, grad, tied):
    """Damped node step, the nodes of each tied cell moving as one group and the
    end nodes' groups fixed; None when LAPACK finds the system singular."""
    group = np.concatenate(([0], np.cumsum(~tied)))
    last = group[-1]
    gd = np.bincount(group, diag) + 2.0 * np.bincount(group[:-1], off * tied, last + 1)
    x = _free_step(gd, off[~tied], np.bincount(group, grad))
    return None if x is None else x[group]


def _bounded_warp(s: np.ndarray) -> np.ndarray:
    """Nodes of slopes clipped to the bounds, the excess spread in proportion
    to room over the cells off the bounds (over all, if they lack room)."""
    cells, lo, hi = s.size, 1.0 / SLOPE_BOUND, SLOPE_BOUND
    s = np.minimum(np.maximum(s, lo), hi)
    excess = cells - s.sum()
    room = hi - s if excess > 0.0 else s - lo
    inside = room * ((s > lo) & (s < hi))
    room = inside if inside.sum() > abs(excess) else room
    phi = np.zeros(cells + 1)
    np.divide(np.cumsum(s + excess * room / room.sum()), cells, out=phi[1:])
    phi[-1] = 1.0
    return phi


def _refine(p0: np.ndarray, q1: np.ndarray, phi_nodes: np.ndarray):
    """Damped Gauss-Newton refinement of a warp over its interior nodes, with
    step halving as the line search (Madsen, Nielsen & Tingleff 2004, sec. 3).

    Each gap depends on its cell's two nodes, so the system is tridiagonal; a
    slope on a bound that the step would cross ties its cell's nodes into one
    group, and ties stay while their cells stay on a bound.  The start's slopes
    must lie in the bounds.  Each taken warp's system (:func:`_system`) is
    solved once and the damping then falls by 3; a trial (:func:`_read`) that
    does not lower the score is followed by the same step halved.  Returns
    (warp, score), the score the final warp's direct :func:`_scored`, since the
    expanded one cancels.
    """
    tables = _gram_tables(p0, q1)
    phi, (cost, s, reads) = phi_nodes, _read(phi_nodes, tables)
    lam, tied, scale = None, np.zeros(s.size, dtype=bool), None
    for _ in range(REFINE_ITERS):
        if reads is not None:
            # A warp just taken: its node system and the slopes on the bounds.
            (diag, off, grad), reads = _system(reads), None
            at_lo, at_hi = s <= (1.0 + 1e-9) / SLOPE_BOUND, s >= (1.0 - 1e-9) * SLOPE_BOUND
            lam = 1e-3 * max(diag.max(), 1.0) if lam is None else lam
        if scale is None:
            # The taken warp's one solve, its ties starting from those still on a bound.
            damped, tied = diag + lam, tied & (at_lo | at_hi)
            step = _tied_step(damped, off, grad, tied) if tied.any() else _free_step(
                damped, off, grad)
            while step is not None:
                ds = step[1:] - step[:-1]
                push = ((at_lo & (ds < 0.0)) | (at_hi & (ds > 0.0))) & ~tied
                if not push.any():
                    break
                tied |= push
                step = _tied_step(damped, off, grad, tied)
            if step is None:
                lam *= 4.0
                continue
            scale, halvings = float(s.size), 0
        # Scaled as a temporary: a scaled copy kept across trials fragments the
        # heap of callers that keep many warps (0.6 KB more per align pair).
        new_phi = _bounded_warp(s + ds * scale)
        new = _read(new_phi, tables)
        change = cost - new[0]
        if change > 0.0:
            phi, (cost, s, reads), scale = new_phi, new, None
            del new  # kept through the next trial, the reads fragment the heap
            lam /= 3.0
        else:
            scale, halvings = 0.5 * scale, halvings + 1
        if 0.0 < change < REFINE_FTOL * max(cost, 1.0) or halvings > REFINE_HALVINGS:
            break
    # A fresh copy: the warp was allocated among the step arrays, and callers
    # that keep many warps otherwise fragment the heap (7 MB over 900 pairs).
    return phi.copy(), _scored(phi, p0, q1)


def _aligned(q0: np.ndarray, q1: np.ndarray, grid: int):
    """Best warp and its score: the lattice search, then one node refinement.

    The lattice path of :func:`_dp_align` gives the global alignment.  It is
    lifted to REFINE_CELLS times as many cells, and :func:`_refine` moves its
    nodes to a nearby minimum of the same evaluation rule, which removes the
    slope quantization of the lattice.  The refinement starts from the
    lifted path and takes only steps that lower the score, so the lifted path
    cannot score below it and is not scored.  The identity is scored by
    :func:`_scored` on the same fine cells, and the refined path wins only
    when strictly lower, so the result never exceeds the plain curve gap.
    """
    _, phi_dp = _dp_align(q0, q1, grid)
    cells = REFINE_CELLS * (phi_dp.size - 1)
    nodes = np.linspace(0.0, 1.0, cells + 1)
    p0 = _pl_at(q0, (np.arange(cells) + 0.5) / cells)
    phi, sq = _refine(p0, q1, np.interp(nodes, np.linspace(0.0, 1.0, phi_dp.size), phi_dp))
    sq_identity = _scored(nodes, p0, q1)
    return (sq, phi) if sq < sq_identity else (sq_identity, nodes)


def _q_or_degenerate(c: ManifoldCurve) -> np.ndarray:
    q, vnorms = srv_values(c)
    if not np.any(vnorms > 0.0):
        raise DegenerateCurve("curve has no nonvanishing velocity")
    return q


def shape_distance(c0: ManifoldCurve, c1: ManifoldCurve,
                   grid: int | None) -> tuple[float, Reparametrization]:
    """Reparametrization-minimized distance and the optimizing warp.

    The warp applies to c1: the returned phi minimizes the flat-coordinate
    gap between q0 and (q1 o phi) sqrt(phi'): the lattice search over
    monotone paths with slopes between 1/3 and 3 gives the global warp, and
    a damped Gauss-Newton search over piecewise-linear warps on six times as
    many cells, slopes between e^-2 and e^2, refines it.  The warp has
    6 G + 1 nodes, G the lattice size; a ``grid`` of None means twice the
    finer curve's segment count.
    """
    grid = _admitted([c0, c1], grid, shared=False)
    sq, phi_nodes = _aligned(_q_or_degenerate(c0), _q_or_degenerate(c1), grid)
    return float(np.sqrt(sq)), Reparametrization(values=_freeze(phi_nodes))


def closed_shape_distance(c0: ManifoldCurve, c1: ManifoldCurve,
                          grid: int | None) -> float:
    """Shape distance of closed curves, minimized over starting points.

    Cyclically rotating a closed curve's samples only rotates its q
    sequence, so the minimum runs the alignment once per shift of c1.
    """
    grid = _admitted([c0, c1], grid, closed=True, shared=False)
    q0, q1 = _q_or_degenerate(c0), _q_or_degenerate(c1)
    best = min(_aligned(q0, np.roll(q1, -shift, axis=0), grid)[0]
               for shift in range(q1.shape[0]))
    return float(np.sqrt(best))


def _cell_fit(target: np.ndarray, n: int) -> np.ndarray:
    """Least-squares values of n segments whose reads at the midpoints of
    ``target``'s cells fit its rows.  Each read weighs two neighbouring
    segments, so the normal matrix is tridiagonal; with a cell midpoint in
    every segment, as on the alignment's cells, it is positive definite."""
    if n == 1:
        return target.mean(axis=0, keepdims=True)
    k, w = _pl_index(n, (np.arange(target.shape[0]) + 0.5) / target.shape[0])
    rhs = np.zeros((n, target.shape[1]))
    np.add.at(rhs, k, (1.0 - w)[:, None] * target)
    np.add.at(rhs, k + 1, w[:, None] * target)
    diag = np.bincount(k, (1.0 - w) ** 2, n) + np.bincount(k + 1, w * w, n)
    return dptsv(diag, np.bincount(k, (1.0 - w) * w, n - 1), rhs)[2]


def _mean_rounds(qs: list[np.ndarray], grid: int):
    """Rounds of the elastic mean of q sequences: yields each round's score,
    the mean :func:`_scored` of its warps, and the template fitted after it.

    Each curve is aligned to the template and keeps its previous warp if that
    scores lower; the template then moves by the :func:`_cell_fit` of the mean
    cell gap.  Neither step raises the score, and the rounds end once one
    lowers it by less than REFINE_FTOL times max(previous, 1).
    """
    qbar, held, last = np.mean(qs, axis=0), None, np.inf
    while True:
        found = [_aligned(qbar, q, grid) for q in qs]
        cells = found[0][1].size - 1
        p0 = _pl_at(qbar, (np.arange(cells) + 0.5) / cells)
        if held is not None:
            found = [min(new, (_scored(phi, p0, q), phi), key=lambda f: f[0])
                     for new, phi, q in zip(found, held, qs)]
        held = [phi for _, phi in found]
        score = sum(sq for sq, _ in found) / len(qs)
        gap = np.mean([_residuals(phi, p0, q)[0] for phi, q in zip(held, qs)], axis=0)
        qbar = qbar - _cell_fit(gap, qbar.shape[0]).reshape(qbar.shape)
        yield score, qbar
        if last - score < REFINE_FTOL * max(last, 1.0):
            return
        last = score


def karcher_mean(curves: list[ManifoldCurve], iters: int = 24,
                 grid: int | None = None) -> ManifoldCurve:
    """Elastic mean of a family of curves on a common grid: at most ``iters``
    of :func:`_mean_rounds` from the unaligned average, integrated back to a
    curve.  ``iters`` = 0 returns the unaligned average, one past
    ``sys.maxsize`` runs until the stop rule, and a negative count raises
    OutOfRange.  ``grid`` defaults to twice the curves' segment count.
    """
    iters = min(_checked_int(iters, "round count", 0), sys.maxsize)
    grid = _admitted(curves, grid)
    qs = [_q_or_degenerate(c) for c in curves]
    qbar = np.mean(qs, axis=0)
    for _, qbar in islice(_mean_rounds(qs, grid), iters if len(qs) > 1 else 0):
        pass
    return _from_identity(qbar)
