"""Elastic comparison of rotation-group curves through velocity transforms.

The transported square-root-velocity transform maps a curve to the flat
sequence q_k = v_k / sqrt(|v_k|) of normalized right-trivialized velocities.
In these coordinates geodesics between curves are straight lines, the curve
distance is the L2 gap, and reparametrization acts as
q -> (q o phi) sqrt(phi').  The shape distance minimizes the gap over
increasing warps in two stages (Srivastava & Klassen 2016, ch. 4): a dynamic
program over monotone lattice paths finds the global warp, and a
gradient search (L-BFGS-B over the warp's log-slopes) refines it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, minimize

from .curves import ManifoldCurve, srv_values
from .errors import (
    DegenerateCurve,
    DimMismatch,
    GridMismatch,
    NotClosed,
    VanishingVelocity,
)
from .liegroup import exp_group, norm

Q_FLOOR = 1e-10
KARCHER_TOL = 1e-8

# Lattice steps (a, b): advance a nodes in t and b in phi, slopes 1/3 .. 3.
# The unit diagonal comes first so exact ties resolve to the identity warp.
DP_STEPS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (2, 2), (3, 3))

# Warp refinement: log-slopes on REFINE_CELLS times the lattice cells,
# bounded to +-LOG_SLOPE_BOUND so that no slope underflows, minimized until
# an iteration changes the cost by less than REFINE_FTOL times max(cost, 1).
REFINE_CELLS = 6
LOG_SLOPE_BOUND = 2.0
REFINE_FTOL = 1e-6


@dataclass(frozen=True)
class TsrvCurve:
    """Flat coordinates of a curve: start point plus q values per segment."""

    start: np.ndarray
    values: np.ndarray

    @property
    def segments(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Reparametrization:
    """Piecewise-linear non-decreasing warp of [0, 1] onto itself."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 1 or v.size < 2:
            raise GridMismatch("warp needs at least two nodes")
        if abs(v[0]) > 1e-12 or abs(v[-1] - 1.0) > 1e-12:
            raise GridMismatch("warp must map 0 to 0 and 1 to 1")
        if np.any(np.diff(v) < -1e-15):
            raise GridMismatch("warp must be non-decreasing")

    def __call__(self, t):
        grid = np.linspace(0.0, 1.0, self.values.size)
        return np.interp(t, grid, self.values)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _floored(q: np.ndarray) -> np.ndarray:
    """Frozen copy of q values with every segment below Q_FLOOR set to zero."""
    q = np.array(q, dtype=float)
    q[np.sqrt(np.einsum("kij,kij->k", q, q)) < Q_FLOOR] = 0.0
    return _frozen(q)


def tsrv(curve: ManifoldCurve, q_floor: float = Q_FLOOR) -> TsrvCurve:
    """Transform a curve to flat coordinates.

    Raises VanishingVelocity when any segment's q norm falls below
    ``q_floor``: such a curve has no well-defined direction there and cannot
    be transformed faithfully.
    """
    q, vnorms = srv_values(curve)
    qnorms = np.sqrt(vnorms)
    bad = qnorms < q_floor
    if bad.any():
        raise VanishingVelocity(
            f"{int(bad.sum())} of {q.shape[0]} segments below q_floor {q_floor:g}")
    return TsrvCurve(start=_frozen(curve.points[0]), values=_frozen(q))


def tsrv_inverse(t: TsrvCurve) -> ManifoldCurve:
    """Integrate flat coordinates back to a curve.

    x_{k+1} = exp(q_k |q_k| / N) x_k starting from the recorded start point;
    inverts :func:`tsrv` exactly up to roundoff.  Degenerate (zero) segments
    simply hold the point.
    """
    n = t.segments
    d = t.dim
    pts = np.empty((n + 1, d, d))
    pts[0] = t.start
    for k in range(n):
        q = t.values[k]
        step = q * (norm(q) / n)
        pts[k + 1] = exp_group(0.5 * (step - step.T)) @ pts[k]
    return ManifoldCurve(points=_frozen(pts), closed=False, base=None)


def _check_comparable(c0: ManifoldCurve, c1: ManifoldCurve, need_same_grid: bool):
    if c0.dim != c1.dim:
        raise DimMismatch(f"dims {c0.dim} and {c1.dim} differ")
    if need_same_grid and c0.segments != c1.segments:
        raise GridMismatch(f"grids {c0.segments} and {c1.segments} differ")
    for c in (c0, c1):
        if not c.starts_at_identity():
            raise GridMismatch("curves must start at the identity; "
                               "translate before comparing")


def curve_distance(c0: ManifoldCurve, c1: ManifoldCurve) -> float:
    """Parametrization-sensitive distance: L2 gap of the q sequences."""
    _check_comparable(c0, c1, need_same_grid=True)
    q0, _ = srv_values(c0)
    q1, _ = srv_values(c1)
    n = q0.shape[0]
    gap = q0 - q1
    return float(np.sqrt(np.sum(gap * gap) / n))


def geodesic_between(c0: ManifoldCurve, c1: ManifoldCurve, s: float) -> ManifoldCurve:
    """Point at parameter s on the geodesic of curves from c0 to c1.

    Interpolates linearly in flat coordinates and integrates back.
    Interpolated segments whose q norm collapses below the floor contribute
    no motion instead of failing.
    """
    _check_comparable(c0, c1, need_same_grid=True)
    q0 = tsrv(c0)
    q1 = tsrv(c1)
    mix = (1.0 - s) * q0.values + s * q1.values
    return tsrv_inverse(TsrvCurve(start=_frozen(np.eye(c0.dim)), values=_floored(mix)))


def _pl_index(n: int, positions: np.ndarray):
    """Left midpoint index and weight of each position, flat past the ends."""
    x = np.clip(positions * n - 0.5, 0.0, n - 1.0)
    k = np.minimum(x.astype(np.intp), max(n - 2, 0))
    return k, x - k


def _pl_at(q: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Piecewise-linear read of a q sequence at parameter positions.

    Values live at segment midpoints (k + 1/2) / n and extend flat beyond
    the first and last midpoint; this is the same composition rule the warp
    application uses, so search and evaluation agree.
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
    """
    n0 = q0.shape[0]
    g = n0 * int(np.ceil(grid / n0))
    p0 = _pl_at(q0, (np.arange(g) + 0.5) / g)
    a0 = np.einsum("md,md->m", p0, p0)
    # Edge costs of every start node, one table per step: the q1 reads of
    # sub-interval r sit on the node grid shifted by sigma (r + 1/2), so each
    # sub-interval adds one matrix product against the t-side reads.
    tables = []
    for a, b in DP_STEPS:
        if a > g or b > g:
            tables.append(None)
            continue
        sigma = b / a
        rows = g - a + 1
        cost = np.zeros((rows, g - b + 1))
        for r in range(a):
            shifted = (np.arange(g - b + 1) + sigma * (r + 0.5)) / g
            v = _pl_at(q1, np.minimum(shifted, 1.0))
            cost += (a0[r:r + rows, None]
                     - 2.0 * np.sqrt(sigma) * (p0[r:r + rows] @ v.T)
                     + sigma * np.einsum("md,md->m", v, v))
        tables.append(cost / g)
    dist = np.full((g + 1, g + 1), np.inf)
    dist[0, 0] = 0.0
    choice = np.full((g + 1, g + 1), -1, dtype=np.int8)
    better = np.empty(g + 1, dtype=bool)
    for i2 in range(1, g + 1):
        row = dist[i2]
        for step_idx, ((a, b), cost) in enumerate(zip(DP_STEPS, tables)):
            i1 = i2 - a
            if i1 < 0 or cost is None:
                continue
            cand = dist[i1, :g - b + 1] + cost[i1]
            mask = np.less(cand, row[b:], out=better[:g - b + 1])
            np.copyto(row[b:], cand, where=mask)
            np.copyto(choice[i2, b:], step_idx, where=mask)
    if not np.isfinite(dist[g, g]):
        raise GridMismatch("no admissible lattice path; grid too coarse")
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


def _eval_warp_cost(q0: np.ndarray, q1: np.ndarray, phi_nodes: np.ndarray) -> float:
    """Discretized warped q-gap for a piecewise-linear phi on uniform nodes.

    Uses the same midpoint rule and piecewise-linear reads as the lattice
    search, so evaluating a DP path reproduces its DP cost to roundoff.
    """
    g = phi_nodes.size - 1
    p0 = _pl_at(q0, (np.arange(g) + 0.5) / g)
    phi_mid = 0.5 * (phi_nodes[:-1] + phi_nodes[1:])
    p1 = _pl_at(q1, phi_mid)
    sigma = np.maximum(np.diff(phi_nodes) * g, 0.0)
    gap = p0 - np.sqrt(sigma)[:, None] * p1
    return max(float(np.einsum("md,md->m", gap, gap).mean()), 0.0)


def _slope_warp(u: np.ndarray):
    """Slopes phi' = softmax(u) * cells and the warp nodes they integrate to."""
    cells = u.size
    e = np.exp(u - u.max())
    s = e * (cells / e.sum())
    phi = np.concatenate(([0.0], np.cumsum(s) / cells))
    phi[-1] = 1.0
    return s, np.minimum(phi, 1.0)


def _slope_cost(u: np.ndarray, p0: np.ndarray, q1: np.ndarray):
    """The warp cost of log-slopes u and its gradient in u.

    ``p0`` holds the q0 reads at the cell midpoints.  The cost is the
    :func:`_eval_warp_cost` rule; its gradient has a term through each
    cell's slope and one through its midpoint phi_mid, where the q1 read has
    the piecewise-constant slope of the linear rule (zero past the ends).
    """
    cells = u.size
    s, phi = _slope_warp(u)
    mid = 0.5 * (phi[:-1] + phi[1:])
    n1 = q1.shape[0]
    flat = q1.reshape(n1, -1)
    k, w = _pl_index(n1, mid)
    lo = flat[k]
    delta = flat[np.minimum(k + 1, n1 - 1)] - lo
    p1 = lo + w[:, None] * delta
    root = np.sqrt(s)
    gap = p0 - root[:, None] * p1
    cost = float(np.einsum("md,md->m", gap, gap).mean())
    x = mid * n1 - 0.5
    inside = (x > 0.0) & (x < n1 - 1.0)
    d_mid = (-2.0 * n1 / cells) * inside * root * np.einsum("md,md->m", gap, delta)
    d_s = (np.einsum("md,md->m", p1, p1)
           - np.einsum("md,md->m", p0, p1) / root) / cells
    # phi_mid of cell m moves with every slope before it and half its own.
    d_s += (np.cumsum(d_mid[::-1])[::-1] - 0.5 * d_mid) / cells
    return cost, s * (d_s - (s @ d_s) / cells)


def _refine(p0: np.ndarray, q1: np.ndarray, phi_nodes: np.ndarray) -> np.ndarray:
    """Gradient refinement of a warp over bounded log-slopes (L-BFGS-B)."""
    cells = phi_nodes.size - 1
    u0 = np.clip(np.log(np.diff(phi_nodes) * cells),
                 -LOG_SLOPE_BOUND, LOG_SLOPE_BOUND)
    res = minimize(_slope_cost, u0, args=(p0, q1), jac=True, method="L-BFGS-B",
                   bounds=Bounds(-LOG_SLOPE_BOUND, LOG_SLOPE_BOUND),
                   options={"ftol": REFINE_FTOL, "gtol": 0.0})
    return _slope_warp(res.x)[1]


def _aligned(q0: np.ndarray, q1: np.ndarray, grid: int):
    """Best warp: the lattice search, then one gradient refinement of it.

    The lattice path of :func:`_dp_align` gives the global alignment.  It is
    lifted to REFINE_CELLS times as many cells, and L-BFGS-B moves its
    log-slopes to a nearby minimum of the same evaluation rule, which removes
    the slope quantization of the lattice.  The identity, the lifted lattice
    path and the refined path are scored by that rule on the fine nodes and
    the lowest wins (ties to the earlier), so the result never exceeds the
    plain curve gap.
    """
    _, phi_dp = _dp_align(q0, q1, grid)
    cells = REFINE_CELLS * (phi_dp.size - 1)
    nodes = np.linspace(0.0, 1.0, cells + 1)
    phi_dp = np.interp(nodes, np.linspace(0.0, 1.0, phi_dp.size), phi_dp)
    p0 = _pl_at(q0, (np.arange(cells) + 0.5) / cells)
    sq_best, phi_best = _eval_warp_cost(q0, q1, nodes), nodes
    for cand in (phi_dp, _refine(p0, q1, phi_dp)):
        sq = _eval_warp_cost(q0, q1, cand)
        if sq < sq_best:
            sq_best, phi_best = sq, cand
    return sq_best, phi_best


def _q_or_degenerate(c: ManifoldCurve) -> np.ndarray:
    q, vnorms = srv_values(c)
    if not np.any(vnorms > 0.0):
        raise DegenerateCurve("curve has no nonvanishing velocity")
    return q


def shape_distance(c0: ManifoldCurve, c1: ManifoldCurve,
                   grid: int) -> tuple[float, Reparametrization]:
    """Reparametrization-minimized distance and the optimizing warp.

    The warp applies to c1: the returned phi minimizes the flat-coordinate
    gap between q0 and (q1 o phi) sqrt(phi'): the lattice search over
    monotone paths with slopes between 1/3 and 3 gives the global warp, and
    a gradient search over piecewise-linear warps on six times as many cells
    refines it.  The warp has 6 G + 1 nodes, G the lattice size.
    """
    _check_comparable(c0, c1, need_same_grid=False)
    if grid < max(c0.segments, c1.segments):
        raise GridMismatch(f"grid {grid} below curve resolution "
                           f"{max(c0.segments, c1.segments)}")
    q0 = _q_or_degenerate(c0)
    q1 = _q_or_degenerate(c1)
    sq, phi_nodes = _aligned(q0, q1, grid)
    return float(np.sqrt(sq)), Reparametrization(values=_frozen(phi_nodes))


def closed_shape_distance(c0: ManifoldCurve, c1: ManifoldCurve, grid: int) -> float:
    """Shape distance of closed curves, minimized over starting points.

    Cyclically rotating a closed curve's samples only rotates its q
    sequence, so the minimum runs the alignment once per shift of c1.
    """
    if not (c0.closed and c1.closed):
        raise NotClosed("both curves must be closed")
    if c0.dim != c1.dim:
        raise DimMismatch(f"dims {c0.dim} and {c1.dim} differ")
    if grid < max(c0.segments, c1.segments):
        raise GridMismatch(f"grid {grid} below curve resolution "
                           f"{max(c0.segments, c1.segments)}")
    q0 = _q_or_degenerate(c0)
    q1 = _q_or_degenerate(c1)
    best = float("inf")
    for shift in range(q1.shape[0]):
        sq, _ = _aligned(q0, np.roll(q1, -shift, axis=0), grid)
        best = min(best, sq)
    return float(np.sqrt(best))


def warp_tsrv(q: np.ndarray, phi: Reparametrization) -> np.ndarray:
    """Apply a warp in flat coordinates: (q o phi) sqrt(phi') per segment.

    q samples are read as values at segment midpoints and composed by linear
    interpolation; the derivative factor is the per-segment slope of phi.
    """
    n = q.shape[0]
    d = q.shape[1]
    edges = np.linspace(0.0, 1.0, n + 1)
    phi_edges = np.asarray(phi(edges), dtype=float)
    slopes = np.maximum(np.diff(phi_edges) * n, 0.0)
    phi_mids = np.asarray(phi((edges[:-1] + edges[1:]) / 2.0), dtype=float)
    centers = (np.arange(n) + 0.5) / n
    flat = q.reshape(n, d * d)
    warped = np.empty_like(flat)
    for col in range(d * d):
        warped[:, col] = np.interp(phi_mids, centers, flat[:, col])
    warped *= np.sqrt(slopes)[:, None]
    return warped.reshape(n, d, d)


def karcher_mean(curves: list[ManifoldCurve], iters: int = 24,
                 grid: int | None = None, tol: float = KARCHER_TOL) -> ManifoldCurve:
    """Elastic mean of a family of curves on a common grid.

    Alternates aligning every curve to the current mean (through the shape
    warp) with averaging the aligned flat coordinates, and integrates the
    converged average back to a curve.  Stops when the mean's q values move
    less than ``tol`` or after ``iters`` rounds.
    """
    if not curves:
        raise GridMismatch("mean of an empty family")
    n = curves[0].segments
    d = curves[0].dim
    for c in curves:
        if c.segments != n or c.dim != d:
            raise GridMismatch("curves must share grid and dim; resample first")
        if not c.starts_at_identity():
            raise GridMismatch("curves must start at the identity")
    if grid is None:
        grid = 2 * n
    qs = [_q_or_degenerate(c) for c in curves]
    qbar = np.mean(qs, axis=0)
    if len(curves) > 1:
        for _ in range(iters):
            aligned = []
            for q in qs:
                _, phi_nodes = _aligned(qbar, q, grid)
                phi = Reparametrization(values=phi_nodes)
                aligned.append(warp_tsrv(q, phi))
            new = np.mean(aligned, axis=0)
            delta = float(np.abs(new - qbar).max())
            qbar = new
            if delta < tol:
                break
    return tsrv_inverse(TsrvCurve(start=_frozen(np.eye(d)), values=_floored(qbar)))
