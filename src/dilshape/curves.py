"""Discrete curves on the rotation group.

A curve is a finite sequence of rotations x_0 .. x_N read as samples at the
uniform parameters k / N.  Curves produced from a dilation sequence are
right-translated to start at the identity; the removed factor is kept on the
curve so the original sequence (and hence the correlation matrix) stays
recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corr import _freeze
from .dilation import DilationSequence
from .errors import DimMismatch, GridMismatch, NotClosed, OutOfRange, WrongComponent, _checked_int
from .liegroup import ensure_rotation, exp_group, log_group, project_skew

POINT_TOL = 1e-8  # two rotations this close in every entry are one point
# Largest resampled segment count, and largest lattice side of an alignment:
# the lattice search keeps a side^2 int8 table for its traceback and takes time
# in side^2 (about 1.7 s and 170 MB peak for a whole `dist` at 4,000).
MAX_GRID = 4096


@dataclass(frozen=True)
class ManifoldCurve:
    """Sampled curve of rotations; ``base`` records a removed right factor.
    Its points are read-only: a writable array, or a view, is copied once."""

    points: np.ndarray
    base: np.ndarray | None = None

    def __post_init__(self):
        p = self.points
        if p.flags.writeable or p.base is not None:
            object.__setattr__(self, "points", p := _freeze(np.array(p, dtype=float)))
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise GridMismatch(f"expected shape (samples, d, d), got {p.shape}")
        if p.shape[0] < 1:
            raise GridMismatch("a curve needs at least one sample")
        if self.base is not None and np.shape(self.base) != p.shape[1:]:
            raise DimMismatch(f"base has shape {np.shape(self.base)}, "
                              f"points are {p.shape[1:]}")
        if not np.isfinite(p).all() or (
                self.base is not None and not np.isfinite(self.base).all()):
            raise OutOfRange("curve points and base must be finite")
        ensure_rotation(p)
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

    @property
    def closed(self) -> bool:
        """A loop: at least one segment, and its ends are one point."""
        return self.segments >= 1 and _same_point(self.points[-1], self.points[0])

    def starts_at_identity(self) -> bool:
        return _same_point(self.points[0], np.eye(self.dim))

    @cached_property
    def srv(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocity-normalized segment values q_k = v_k / sqrt(|v_k|) and the
        velocity norms, read-only and computed once; zero velocity gives q_k = 0."""
        v = discrete_velocity(self)
        vnorms = np.sqrt(np.einsum("kij,kij->k", v, v))
        q = v / np.sqrt(np.where(vnorms > 0.0, vnorms, 1.0))[:, None, None]
        return _freeze(q), _freeze(vnorms)


def _same_point(a: np.ndarray, b: np.ndarray) -> bool:
    return float(np.abs(a - b).max()) <= POINT_TOL


def from_dilation(seq: DilationSequence, closed: bool = False) -> ManifoldCurve:
    """Curve of the sequence, translated to start at the identity.

    Each W_i is right-multiplied by W_0^T, which cancels the common
    determinant sign of the truncation matrices and lands every point in the
    identity component.  A copy of W_0, not a view of the sequence, is the base.
    """
    w0 = seq.matrices[0].copy()
    pts = np.einsum("kij,lj->kil", seq.matrices, w0)
    curve = ManifoldCurve(points=_freeze(pts), base=_freeze(w0))
    return close_curve(curve) if closed else curve


def sequence_from_curve(curve: ManifoldCurve) -> DilationSequence:
    """Undo :func:`from_dilation` using the recorded base factor."""
    base = curve.base if curve.base is not None else np.eye(curve.dim)
    mats = np.einsum("kij,jl->kil", curve.points, base)
    return DilationSequence(matrices=_freeze(mats))


def close_curve(curve: ManifoldCurve) -> ManifoldCurve:
    """Make the ends of a curve one point: the start replaces an end already one
    point with it, or is appended; a one-point curve raises NotClosed."""
    pts = curve.points
    if curve.segments < 1:
        raise NotClosed("a one-point curve cannot be closed")
    kept = pts[:-1] if _same_point(pts[-1], pts[0]) else pts
    return ManifoldCurve(points=_freeze(np.concatenate([kept, pts[:1]])), base=curve.base)


def _step_logs(curve: ManifoldCurve) -> np.ndarray:
    """log(x_{k+1} x_k^T) of every segment, one stacked logarithm."""
    p = curve.points
    return log_group(p[1:] @ p[:-1].transpose(0, 2, 1))


def discrete_velocity(curve: ManifoldCurve) -> np.ndarray:
    """Per-segment velocity v_k = N log(x_{k+1} x_k^T), right-trivialized."""
    if curve.segments < 1:
        raise GridMismatch("velocity needs at least two samples")
    return _freeze(curve.segments * _step_logs(curve))


def _interpolate(curve: ManifoldCurve, params: np.ndarray, smooth: bool) -> np.ndarray:
    """Points exp(delta) x_k at params t on segments k, for N >= 1 segments.

    Geodesic: delta = (t N - k) log(x_{k+1} x_k^T).  Spline: a natural cubic
    spline runs through the lift theta_k, the running sum of segment logs
    (which keeps every log inside the injectivity radius), and delta =
    theta(t) - theta_k.  Both reproduce the samples at their parameters.
    """
    n = curve.segments
    logs = _step_logs(curve)
    k = np.minimum(np.floor(params * n).astype(np.intp), n - 1)
    if smooth:
        # scipy.interpolate costs about 2.4 MB of resident memory to import,
        # so only processes that interpolate smoothly pay for it.
        from scipy.interpolate import CubicSpline

        d = curve.dim
        theta = np.concatenate([np.zeros((1, d, d)), np.cumsum(logs, axis=0)])
        spline = CubicSpline(np.linspace(0.0, 1.0, n + 1),
                             theta.reshape(n + 1, d * d), bc_type="natural")
        # The lift is skew only up to spline roundoff, which grows with |theta|.
        delta = project_skew(spline(params).reshape(-1, d, d) - theta[k])
    else:
        delta = (params * n - k)[:, None, None] * logs[k]
    return exp_group(delta) @ curve.points[k]


def piecewise_geodesic(curve: ManifoldCurve, t: float) -> np.ndarray:
    """Evaluate the geodesic interpolant of the samples at parameter t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise GridMismatch(f"parameter {t} outside [0, 1]")
    if curve.segments == 0:
        return curve.points[0].copy()
    return _interpolate(curve, np.array([float(t)]), smooth=False)[0]


def spline_resample(curve: ManifoldCurve, m: int) -> ManifoldCurve:
    """Resample to m + 1 points through a cubic spline in unrolled coordinates;
    m must be an integer, may not fall below the curve's segment count nor
    exceed ``MAX_GRID``."""
    m = _checked_int(m, "target resolution")
    n = curve.segments
    if n < 1:
        raise GridMismatch("resampling needs at least two samples")
    if m < n:
        raise GridMismatch(f"target resolution {m} below source {n}")
    if m > MAX_GRID:
        raise GridMismatch(f"target resolution {m} above MAX_GRID {MAX_GRID}")
    pts = _interpolate(curve, np.linspace(0.0, 1.0, m + 1), smooth=True)
    return ManifoldCurve(points=_freeze(pts))


def warp_curve(curve: ManifoldCurve, phi, smooth: bool = False) -> ManifoldCurve:
    """Reparametrize by a warp phi: y_k = c(phi(k / N)) on the same grid.

    ``phi`` may be a callable on [0, 1] or anything exposing one (for
    instance the reparametrization returned by the shape comparison); its
    values are clipped to [0, 1] and must be finite.  By default samples sit
    on the piecewise-geodesic interpolant; with ``smooth`` they sit on the
    spline interpolant instead, appropriate when the samples come from a
    smooth underlying motion.  A one-sample curve is returned unchanged.
    """
    n = curve.segments
    if n == 0:
        return curve
    values = np.array([float(phi(k / n)) for k in range(n + 1)])
    if not np.isfinite(values).all():
        raise OutOfRange("warp values must be finite")
    pts = _interpolate(curve, np.clip(values, 0.0, 1.0), smooth)
    return ManifoldCurve(points=_freeze(pts))


def srv_values(curve: ManifoldCurve) -> tuple[np.ndarray, np.ndarray]:
    """The curve's (q, |v|), :attr:`ManifoldCurve.srv`; callers decide whether
    vanishing velocity is an error."""
    return curve.srv


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
    ds = 1.0 / (len(path) - 1)
    starts = np.stack([c.points[0] for c in path])
    start_inc = log_group(starts[1:] @ starts[:-1].transpose(0, 2, 1))
    dq = np.diff(np.stack([srv_values(c)[0] for c in path]), axis=0)
    sq = (np.einsum("sij,sij->", start_inc, start_inc)
          + np.einsum("skij,skij->", dq, dq) / nseg)
    return float(sq / ds)
