"""Correlation matrices: validation, ensemble estimation, synthetic processes.

A correlation matrix here is always symmetric positive definite with unit
diagonal.  Estimation works on a set of zero-mean realizations and averages
x[i]*x[j] across the ensemble, which is the only consistent estimator when a
single realization is not stationary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .errors import (
    DegenerateVariance,
    InsufficientRealizations,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
    OutOfRange,
    _checked_int,
)

PSD_TOLERANCE = 1e-10
REPAIR_EIGENVALUE_FLOOR = 1e-8
SYMMETRY_RTOL = 1e-10

# Steps simulated before sample 0 so the recursion forgets its zero start.
_BURN_IN_FLOOR = 64

# Largest size of a generated matrix or realization (no larger matrix can
# become a parameter file), realization count and modulation period, checked
# before anything is allocated: at the caps one ensemble holds 1.07 GB and the
# burn-in runs 32,832 steps.
MAX_SIZE = 2048
MAX_COUNT = 65536
MAX_PERIOD = 4096


@dataclass(frozen=True)
class CorrelationMatrix:
    """Unit-diagonal symmetric positive definite matrix.

    Instances are produced by :func:`validate_spd` and the generators in this
    module, which establish the invariants.  ``repaired`` records whether the
    entries were projected back to the admissible cone during estimation.
    """

    entries: np.ndarray
    repaired: bool = False

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise NotSquare(f"expected a square matrix, got shape {e.shape}")
        if not np.array_equal(e, e.T):
            raise NotSymmetric("entries must be exactly symmetric at construction")
        if not np.allclose(np.diag(e), 1.0, atol=1e-12):
            raise NonPositiveDiagonal("diagonal must be one at construction")


@dataclass(frozen=True)
class RealizationSet:
    """Ensemble of process realizations, one per row."""

    samples: np.ndarray

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise OutOfRange("realizations must form a 2-d array (count, length)")

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]


def _freeze(a) -> np.ndarray:
    """``a`` as a contiguous read-only float array."""
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def validate_spd(matrix) -> CorrelationMatrix:
    """Check and normalize a candidate correlation matrix.

    Parameters
    ----------
    matrix : array_like
        Square symmetric matrix with positive diagonal.  A diagonal other
        than one is allowed and rescaled away via D^{-1/2} M D^{-1/2}.
        After rescaling, its smallest eigenvalue must exceed ``PSD_TOLERANCE``.

    Returns
    -------
    CorrelationMatrix

    Raises
    ------
    NotSquare, NotSymmetric, NonPositiveDiagonal, NotPositiveDefinite
    OutOfRange
        An entry is not finite.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise OutOfRange("matrix entries must be finite")
    # A positive factor changes no correlation; dividing by the largest
    # entry keeps the sums and differences below from overflowing.
    m = m / max(1.0, float(np.abs(m).max(initial=0.0)))
    if float(np.abs(m - m.T).max(initial=0.0)) > SYMMETRY_RTOL:
        raise NotSymmetric("matrix is not symmetric within relative tolerance "
                           f"{SYMMETRY_RTOL:g}")
    m = 0.5 * (m + m.T)
    d = np.diag(m).copy()
    if np.any(d <= 0.0):
        raise NonPositiveDiagonal("diagonal entries must be strictly positive")
    if not np.allclose(d, 1.0, atol=1e-12):
        # Finite whenever |m_ij| <= sqrt(d_i d_j), which every PD matrix meets.
        inv = 1.0 / np.sqrt(d)
        with np.errstate(over="ignore", invalid="ignore"):
            m = m * inv[:, None] * inv[None, :]
            m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 1.0)
    if not np.isfinite(m).all():
        raise NotPositiveDefinite("an entry exceeds the bound its diagonal sets")
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest <= PSD_TOLERANCE:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {smallest:.3e} <= tolerance {PSD_TOLERANCE:g}")
    # PD with unit diagonal bounds entries by one; clip float dust only.
    m = np.clip(m, -1.0, 1.0)
    np.fill_diagonal(m, 1.0)
    return CorrelationMatrix(entries=_freeze(m))


def estimate_ensemble_correlation(data: RealizationSet, n: int) -> CorrelationMatrix:
    """Estimate the correlation of the first ``n`` coordinates of an ensemble.

    The raw estimate is the ensemble average of x[i]*x[j], rescaled to unit
    diagonal.  When the rescaled estimate fails the positive-definiteness
    check (smallest eigenvalue above ``PSD_TOLERANCE``), eigenvalues
    are clipped at ``REPAIR_EIGENVALUE_FLOOR``, the diagonal renormalized,
    and the result flagged as repaired.  Caller-provided matrices are never
    repaired silently; only this estimator takes the clipping path.

    Raises
    ------
    InsufficientRealizations
        Fewer than two realizations.
    DegenerateVariance
        Some coordinate is identically zero across the ensemble.
    OutOfRange
        ``n`` is not an integer in 1..min(length, MAX_SIZE).
    """
    if data.count < 2:
        raise InsufficientRealizations(f"need at least 2 realizations, got {data.count}")
    n = _checked_int(n, "n", 1, min(data.length, MAX_SIZE))
    x = data.samples[:, :n]
    second_moment = x.T @ x / data.count
    d = np.diag(second_moment).copy()
    if np.any(d <= 0.0):
        raise DegenerateVariance("a coordinate has zero sample variance")
    inv = 1.0 / np.sqrt(d)
    corr = second_moment * np.outer(inv, inv)
    try:
        return validate_spd(corr)
    except NotPositiveDefinite:
        pass
    w, v = np.linalg.eigh(0.5 * (corr + corr.T))
    w = np.maximum(w, REPAIR_EIGENVALUE_FLOOR)
    repaired = validate_spd((v * w) @ v.T)
    return dataclasses.replace(repaired, repaired=True)


def gen_stationary_ar(a: float, n: int) -> CorrelationMatrix:
    """Correlation matrix a^{|i-j|} of a stationary first-order autoregression."""
    if not -1.0 < a < 1.0:
        raise OutOfRange(f"coefficient must lie in (-1, 1), got {a}")
    _checked_int(n, "n", 1, MAX_SIZE)
    row = a ** np.arange(n, dtype=float)
    return validate_spd(toeplitz(row))


def _pc_amplitudes(base_coefficient: float, period: int, depth: float, n: int,
                   count: int = 1) -> np.ndarray:
    """Driving amplitudes m(t) = 1 + depth*cos(2*pi*t/period) of the periodically
    correlated model for t = -burn .. n-1, burn being 8 periods plus a fixed
    floor, once its arguments are found admissible; OutOfRange otherwise, NaN
    included."""
    if not -1.0 < base_coefficient < 1.0:
        raise OutOfRange(f"coefficient must lie in (-1, 1), got {base_coefficient}")
    period = _checked_int(period, "period", 1, MAX_PERIOD)
    if not 0.0 <= depth < 1.0:
        raise OutOfRange(f"depth must lie in [0, 1), got {depth}")
    n = _checked_int(n, "n", 1, MAX_SIZE)
    _checked_int(count, "count", 1, MAX_COUNT)
    t = np.arange(-(8 * period + _BURN_IN_FLOOR), n, dtype=float)
    return 1.0 + depth * np.cos(2.0 * np.pi * t / period)


def gen_pc_process(base_coefficient: float, period: int, depth: float, n: int,
                   seed: int, count: int = 256) -> RealizationSet:
    """Sample a periodically correlated first-order autoregression.

    The recursion is x_t = a*x_{t-1} + m(t)*eps_t with independent standard
    normal innovations and the periodic amplitude
    m(t) = 1 + depth*cos(2*pi*t/period) applied to the driving noise, which
    is what makes the correlation structure itself periodic rather than
    merely the variance.  depth=0 recovers the stationary model of
    :func:`gen_stationary_ar`.  The recursion starts from zero far enough in
    the past (8 periods plus a fixed floor) that the returned samples carry
    no visible transient.

    Randomness comes from a 64-bit PCG generator seeded with ``seed``, a
    non-negative integer; equal arguments give bit-identical output.  ``n``,
    ``count`` and ``period`` may not exceed MAX_SIZE, MAX_COUNT and MAX_PERIOD.
    """
    amplitudes = _pc_amplitudes(base_coefficient, period, depth, n, count)
    rng = np.random.Generator(np.random.PCG64(_checked_int(seed, "seed", 0)))
    x = np.zeros(count)
    out = np.empty((count, n))
    for t, m in enumerate(amplitudes, start=n - amplitudes.size):
        x = base_coefficient * x + m * rng.standard_normal(count)
        if t >= 0:
            out[:, t] = x
    return RealizationSet(samples=_freeze(out))


def pc_covariance_oracle(base_coefficient: float, period: int, depth: float,
                         n: int) -> np.ndarray:
    """Exact second moments of :func:`gen_pc_process` samples.

    Propagates the variance recursion v_t = a^2 v_{t-1} + m(t)^2 from the
    same zero start the sampler uses, then fills cov(x_i, x_j) =
    a^{|i-j|} v_min(i,j).  Useful as an analytic reference for estimator
    tests; not needed by the pipeline itself.  Takes the arguments
    :func:`gen_pc_process` takes, by the same checks.
    """
    amplitudes = _pc_amplitudes(base_coefficient, period, depth, n)
    a = base_coefficient
    v = 0.0
    variances = []
    for m in amplitudes.tolist():
        v = a * a * v + m ** 2
        variances.append(v)
    # Powers in Python floats, a ** k bit for bit; np.power may round otherwise.
    powers = np.array([a ** k for k in range(n)])
    index = np.arange(n)
    return (powers[np.abs(index - index[:, None])]
            * np.array(variances[-n:])[np.minimum(index, index[:, None])])
