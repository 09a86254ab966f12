"""Discrete curves on the rotation group.

A curve is a finite sequence of rotations x_0 .. x_N read as samples at the
uniform parameters k / N.  Curves produced from a dilation sequence are
right-translated to start at the identity; the removed factor is kept on the
curve so the original sequence (and hence the correlation matrix) stays
recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .dilation import DilationSequence
from .errors import GridMismatch, NotOrthogonal, OutOfRange, WrongComponent
from .liegroup import ORTHOGONALITY_TOL, exp_group, inner, log_group, norm

CLOSURE_TOL = 1e-8


@dataclass(frozen=True)
class ManifoldCurve:
    """Sampled curve of rotations; ``base`` records a removed right factor."""

    points: np.ndarray
    closed: bool = False
    base: np.ndarray | None = None

    def __post_init__(self):
        p = self.points
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise GridMismatch(f"expected shape (samples, d, d), got {p.shape}")
        if p.shape[0] < 1:
            raise GridMismatch("a curve needs at least one sample")
        if not np.isfinite(p).all() or (
                self.base is not None and not np.isfinite(self.base).all()):
            raise OutOfRange("curve points and base must be finite")
        residual = np.abs(p @ p.transpose(0, 2, 1) - np.eye(p.shape[1])).max()
        if float(residual) > ORTHOGONALITY_TOL:
            raise NotOrthogonal("matrix is not orthogonal within tolerance")
        if (np.linalg.det(p) < 0.0).any():
            raise WrongComponent("curve points must have determinant +1")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def segments(self) -> int:
        return self.points.shape[0] - 1

    def starts_at_identity(self, tol: float = 1e-8) -> bool:
        return float(np.abs(self.points[0] - np.eye(self.dim)).max()) <= tol


@dataclass(frozen=True)
class TangentCurve:
    """Right-trivialized velocity samples of a curve, one per segment."""

    values: np.ndarray

    @property
    def segments(self) -> int:
        return self.values.shape[0]


def _stack(points) -> np.ndarray:
    arr = np.ascontiguousarray(points, dtype=float)
    arr.setflags(write=False)
    return arr


def from_dilation(seq: DilationSequence, closed: bool = False) -> ManifoldCurve:
    """Curve of the sequence, translated to start at the identity.

    Each W_i is right-multiplied by W_0^T, which cancels the common
    determinant sign of the truncation matrices and lands every point in the
    identity component.  W_0 is recorded as the curve's base.
    """
    w0 = seq.matrices[0]
    pts = np.einsum("kij,lj->kil", seq.matrices, w0)
    curve = ManifoldCurve(points=_stack(pts), closed=False, base=_stack(w0))
    return close_curve(curve) if closed else curve


def sequence_from_curve(curve: ManifoldCurve) -> DilationSequence:
    """Undo :func:`from_dilation` using the recorded base factor."""
    base = curve.base if curve.base is not None else np.eye(curve.dim)
    mats = np.einsum("kij,jl->kil", curve.points, base)
    return DilationSequence(matrices=_stack(mats), dim=curve.dim)


def close_curve(curve: ManifoldCurve, tol: float = CLOSURE_TOL) -> ManifoldCurve:
    """Mark a curve closed, appending the start when the ends do not meet."""
    pts = curve.points
    gap = float(np.abs(pts[-1] - pts[0]).max())
    if gap <= tol:
        new = np.concatenate([pts[:-1], pts[:1]], axis=0)
    else:
        new = np.concatenate([pts, pts[:1]], axis=0)
    return ManifoldCurve(points=_stack(new), closed=True, base=curve.base)


def discrete_velocity(curve: ManifoldCurve) -> TangentCurve:
    """Per-segment velocity v_k = N log(x_{k+1} x_k^T), right-trivialized."""
    if curve.segments < 1:
        raise GridMismatch("velocity needs at least two samples")
    n = curve.segments
    vals = np.empty((n, curve.dim, curve.dim))
    for k in range(n):
        vals[k] = n * log_group(curve.points[k + 1] @ curve.points[k].T)
    return TangentCurve(values=_stack(vals))


def piecewise_geodesic(curve: ManifoldCurve, t: float) -> np.ndarray:
    """Evaluate the geodesic interpolant of the samples at parameter t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise GridMismatch(f"parameter {t} outside [0, 1]")
    n = curve.segments
    if n == 0:
        return curve.points[0].copy()
    k = min(int(np.floor(t * n)), n - 1)
    local = t * n - k
    x0 = curve.points[k]
    x1 = curve.points[k + 1]
    return exp_group(local * log_group(x1 @ x0.T)) @ x0


def _spline_points(curve: ManifoldCurve, params: np.ndarray) -> np.ndarray:
    """Evaluate the spline interpolant of a curve at given parameters.

    The lift accumulates per-segment logs, theta_k = sum of log increments
    up to k, which keeps every log inside the injectivity radius regardless
    of how far the curve travels overall.  A natural cubic spline runs
    through the theta knots (for two knots that is a straight line, i.e. the
    connecting geodesic) and points map back through
    x(t) = exp(theta(t) - theta_k) x_k on segment k, so the original samples
    are reproduced exactly at their parameters.
    """
    n = curve.segments
    d = curve.dim
    theta = np.zeros((n + 1, d, d))
    for k in range(n):
        theta[k + 1] = theta[k] + log_group(curve.points[k + 1] @ curve.points[k].T)
    knots = np.linspace(0.0, 1.0, n + 1)
    spline = CubicSpline(knots, theta.reshape(n + 1, d * d), bc_type="natural")
    pts = np.empty((params.size, d, d))
    for idx, t in enumerate(params):
        k = min(int(np.floor(t * n)), n - 1)
        delta = spline(t).reshape(d, d) - theta[k]
        # The lift is skew up to spline roundoff; exp_group enforces that.
        pts[idx] = exp_group(0.5 * (delta - delta.T)) @ curve.points[k]
    return pts


def spline_resample(curve: ManifoldCurve, m: int) -> ManifoldCurve:
    """Resample to m + 1 points through a cubic spline in unrolled coordinates."""
    n = curve.segments
    if n < 1:
        raise GridMismatch("resampling needs at least two samples")
    if m < n:
        raise GridMismatch(f"target resolution {m} below source {n}")
    pts = _spline_points(curve, np.linspace(0.0, 1.0, m + 1))
    return ManifoldCurve(points=_stack(pts), closed=curve.closed, base=None)


def warp_curve(curve: ManifoldCurve, phi, smooth: bool = False) -> ManifoldCurve:
    """Reparametrize by a warp phi: y_k = c(phi(k / N)) on the same grid.

    ``phi`` may be a callable on [0, 1] or anything exposing one (for
    instance the reparametrization returned by the shape comparison).  By
    default samples sit on the piecewise-geodesic interpolant; with
    ``smooth`` they sit on the spline interpolant instead, appropriate when
    the samples come from a smooth underlying motion.
    """
    n = curve.segments
    values = np.clip([float(phi(k / n)) for k in range(n + 1)], 0.0, 1.0)
    if smooth:
        pts = _spline_points(curve, values)
    else:
        pts = np.stack([piecewise_geodesic(curve, v) for v in values])
    return ManifoldCurve(points=_stack(pts), closed=curve.closed, base=None)


def srv_values(curve: ManifoldCurve) -> tuple[np.ndarray, np.ndarray]:
    """Velocity-normalized segment values q_k = v_k / sqrt(|v_k|) and their norms.

    Segments with exactly zero velocity give q_k = 0.  Returns (values,
    velocity norms); callers decide whether vanishing velocity is an error.
    """
    v = discrete_velocity(curve).values
    nseg = v.shape[0]
    q = np.zeros_like(v)
    vnorms = np.empty(nseg)
    for k in range(nseg):
        vn = norm(v[k])
        vnorms[k] = vn
        if vn > 0.0:
            q[k] = v[k] / np.sqrt(vn)
    return q, vnorms


def path_energy(path: list[ManifoldCurve]) -> float:
    """Discrete energy of a path of curves (outer index s, inner index k).

    Sums, across consecutive curves, the squared starting-point increment
    plus the mean squared q-difference, each divided by the step in s.  The
    first term vanishes when all curves start at the identity.  Straight
    q-interpolation between two curves realizes the minimum, with energy
    equal to the squared curve distance.
    """
    if len(path) < 2:
        raise GridMismatch("a path needs at least two curves")
    nseg = path[0].segments
    dim = path[0].dim
    for c in path:
        if c.segments != nseg or c.dim != dim:
            raise GridMismatch("all curves on a path must share grid and dim")
    steps = len(path) - 1
    ds = 1.0 / steps
    qs = [srv_values(c)[0] for c in path]
    total = 0.0
    for s in range(steps):
        start_inc = log_group(path[s + 1].points[0] @ path[s].points[0].T)
        dq = qs[s + 1] - qs[s]
        mean_sq = sum(inner(dq[k], dq[k]) for k in range(nseg)) / nseg
        total += ds * (inner(start_inc, start_inc) / ds ** 2 + mean_sq / ds ** 2)
    return float(total)
