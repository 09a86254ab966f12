"""Parcor factorization of correlation matrices and its rotation dilations.

A unit-diagonal SPD matrix R of size n is in one-to-one correspondence with
the strictly upper triangular family of contractions gamma[k][j] in (-1, 1),
k < j.  gamma[k][j] is the partial correlation of coordinates k and j given
the coordinates strictly between them; adjacent entries are the correlations
themselves.  The same parameters assemble into a sequence of orthogonal
matrices W_i (products of elementary rotation blocks) satisfying

    R[i][j] = e1^T W_i W_{i+1} ... W_{j-1} e1

for lags j - i up to dim - 1, where dim is the truncation size of the W's.
Extraction, reconstruction and a sequence's read-back evaluate it with one
walk over the rows from the bottom: it keeps every column c_j = W_{k+1} ...
W_{j-1} e1 in one array and applies W_k to it once row k is known, by rotation
blocks or one dense product.  Reconstruction reads R[k, j] = (e1^T W_k) c_j;
extraction solves the same line for gamma[k, j], the only unknown in it
(time-varying Schur parametrization, Lev-Ari & Kailath 1984; Constantinescu 1996).
For a Toeplitz R all W_i coincide with the single matrix produced by
:func:`naimark_matrix`, whose powers generate the entries instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corr import MAX_SIZE
from .errors import (
    BadDim,
    BadPosition,
    NotAContraction,
    NotSquare,
    OutOfRange,
    SingularStep,
    TruncationWindowExceeded,
    _checked_int,
)
from .liegroup import ensure_rotation

DEFECT_FLOOR = 1e-8
CONTRACTION_SLACK = 1e-9
BOUNDARY_TOL = 1e-12
# Largest count * dim^2 of a rotation sequence, checked before allocating: dilate
# --full at the cap (n = 257, dim 256) peaks at 1.6 GB writing its JSON.
MAX_SEQUENCE_FLOATS = 2 ** 24


def _contractions(values, what: str) -> np.ndarray:
    """``values`` as a float array of contractions: OutOfRange where an entry
    is not finite, NotAContraction where its magnitude exceeds one."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise OutOfRange(f"{what} must be finite")
    peak = float(np.abs(a).max(initial=0.0))
    if peak > 1.0:
        raise NotAContraction(f"{what} must have magnitude at most 1, got {peak!r}")
    return a


def defect(gamma: float) -> float:
    """sqrt(1 - gamma^2) for a contraction gamma; errors as :func:`_contractions`."""
    g = float(gamma)
    if not abs(g) <= 1.0:  # NaN fails too
        _contractions(g, "gamma")
    return float(np.sqrt(max(0.0, 1.0 - g * g)))


def givens(gamma: float, position: int, dim: int) -> np.ndarray:
    """Elementary rotation block of size ``dim``.

    The 2x2 block [[g, d], [d, -g]] with d = sqrt(1 - g^2) sits on rows and
    columns (position, position + 1), zero-based; the rest is the identity.
    gamma = 0 gives a plain transposition of the two coordinates.
    """
    dim = _checked_int(dim, "dim", high=MAX_SIZE)
    position = _checked_int(position, "position")
    if dim < 2:
        raise BadPosition(f"dim must be at least 2, got {dim}")
    if not 0 <= position <= dim - 2:
        raise BadPosition(f"position {position} does not fit in dim {dim}")
    d = defect(gamma)
    out = np.eye(dim)
    out[position, position] = gamma
    out[position + 1, position + 1] = -gamma
    out[position, position + 1] = d
    out[position + 1, position] = d
    return out


@dataclass(frozen=True)
class SchurParams:
    """Strictly upper triangular contraction parameters of a correlation matrix.

    ``gamma[k, j]`` for k < j holds the parameter; other entries are zero.
    ``degenerate`` marks entries that could not be solved because the
    surrounding defect product vanished (stored as zero, with no dilation).
    ``boundary`` reads off ``gamma`` the entries of magnitude one, to which
    extraction snaps any within ``BOUNDARY_TOL`` of it.
    """

    gamma: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self):
        g = self.gamma
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise NotSquare(f"gamma must be square, got shape {g.shape}")
        _contractions(g, "gamma entries")
        if np.any(np.tril(g) != 0.0):
            raise OutOfRange("only strictly upper triangular entries may be set")

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @property
    def boundary(self) -> np.ndarray:
        return np.abs(self.gamma) == 1.0

    @classmethod
    def from_gamma(cls, gamma) -> "SchurParams":
        g = np.triu(np.asarray(gamma, dtype=float), k=1)
        g.setflags(write=False)
        degenerate = np.zeros(g.shape, dtype=bool)
        degenerate.setflags(write=False)
        return cls(gamma=g, degenerate=degenerate)


def stationary_params(parcors, n: int) -> SchurParams:
    """Lift per-lag parcors to the constant-diagonal parameter set of size n."""
    n = _checked_int(n, "n", 0, MAX_SIZE)
    p = _contractions(parcors, "parcors")
    by_lag = np.zeros(n)
    head = p[:max(n - 1, 0)]
    by_lag[1:head.size + 1] = head
    lag = np.arange(n) - np.arange(n)[:, None]
    return SchurParams.from_gamma(by_lag[np.maximum(lag, 0)])


def _rotate(rows: np.ndarray, gammas) -> None:
    """Left-multiply ``rows`` in place by G_1(gammas[0]) G_2(gammas[1]) ...

    Block l sits on rows (l - 1, l), so each factor touches two rows only;
    the rightmost factor is applied first.
    """
    for l in range(len(gammas), 0, -1):
        g = gammas[l - 1]
        d = defect(g)
        top = rows[l - 1].copy()
        bot = rows[l]
        rows[l - 1] = g * top + d * bot
        rows[l] = d * top - g * bot


def _walk(n: int, depth: int, apply):
    """Yield (k, cols) for rows k = n-2 .. 0, where cols[:, q] = c_{k+1+q}.

    c_j = W_{k+1} ... W_{j-1} e1 keeps its first ``depth`` entries, and only
    the lags up to depth - 1 are walked.  The caller must leave row k's
    factors final before resuming; ``apply(k, cols)`` then left-multiplies
    every column by W_k, which turns them into the columns of row k - 1.
    """
    cols = np.zeros((depth, n))
    for k in range(n - 2, -1, -1):
        cols[0, k + 1] = 1.0
        block = cols[:, k + 1:k + depth]
        yield k, block
        apply(k, block)


def reconstruct_matrix(params: SchurParams) -> np.ndarray:
    """Full correlation matrix from the parameters.

    Row k is e1^T W_k times the walked columns: e1^T W_k holds the nested
    entries gamma[k, j] * prod_{k<t<j} defect(gamma[k, t]).
    """
    gamma, n = params.gamma, params.n
    out = np.eye(n)
    for k, cols in _walk(n, n, lambda k, cols: _rotate(cols, gamma[k, k + 1:])):
        lead = np.empty(cols.shape[1])
        prefix = 1.0
        for q, g in enumerate(gamma[k, k + 1:]):
            lead[q] = prefix * g
            prefix *= defect(g)
        out[k, k + 1:] = out[k + 1:, k] = lead @ cols[:lead.size]
    return out


def extract_schur_params(matrix) -> SchurParams:
    """Solve for the contraction parameters of a correlation matrix.

    Row by row from the bottom, each entry of R determines one new parameter
    through the walked column c_j (see :func:`_walk`):

        gamma[k, j] = (R[k, j] - lead[:q] . c_j[:q]) / (prefix * c_j[q]),

    with q = j - k - 1, lead the nested row entries and prefix the product of
    the row defects solved so far.  When that defect product drops below
    ``DEFECT_FLOOR`` the parameter is unresolvable from the matrix; it is
    stored as zero and flagged degenerate rather than amplified out of the
    data.

    Parameters
    ----------
    matrix : CorrelationMatrix or array_like
        Unit-diagonal SPD matrix (arrays are taken as-is, no revalidation).

    Raises
    ------
    OutOfRange
        The matrix holds a NaN or infinite entry.
    NotAContraction
        A solved parameter exceeds magnitude 1 + 1e-9, which means the input
        was not an admissible correlation matrix.
    """
    entries = getattr(matrix, "entries", matrix)
    r = np.asarray(entries, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise OutOfRange("matrix entries must be finite")
    n = r.shape[0]
    gamma = np.zeros((n, n))
    degenerate = np.zeros((n, n), dtype=bool)
    for k, cols in _walk(n, n, lambda k, cols: _rotate(cols, gamma[k, k + 1:])):
        lead = np.empty(cols.shape[1])
        prefix = 1.0
        for q in range(cols.shape[1]):
            j = k + 1 + q
            c = cols[:, q]
            defects = prefix * c[q]
            value = 0.0
            if defects < DEFECT_FLOOR:
                degenerate[k, j] = True
            else:
                value = (r[k, j] - lead[:q] @ c[:q]) / defects
                if abs(value) > 1.0 + CONTRACTION_SLACK:
                    raise NotAContraction(
                        f"entry ({k}, {j}) solves to {value}, beyond the contraction range")
                if abs(value) >= 1.0 - BOUNDARY_TOL:
                    value = float(np.copysign(1.0, value))
            gamma[k, j] = value
            lead[q] = prefix * value
            prefix *= defect(value)
    for a in (gamma, degenerate):
        a.setflags(write=False)
    return SchurParams(gamma=gamma, degenerate=degenerate)


@dataclass(frozen=True)
class DilationSequence:
    """Stack of orthogonal truncation matrices W_i, one per starting index."""

    matrices: np.ndarray

    def __post_init__(self):
        m = self.matrices
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise BadDim(f"expected shape (count, dim, dim), got {m.shape}")
        if not np.isfinite(m).all():
            raise OutOfRange("sequence entries must be finite")
        ensure_rotation(m)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def count(self) -> int:
        return self.matrices.shape[0]


def build_dilation_sequence(params: SchurParams, dim: int,
                            full: bool = False) -> DilationSequence:
    """Assemble the truncated rotation sequence of a parameter set.

    W_i multiplies the elementary blocks of row i in increasing lag order:
    W_i = G_1(gamma[i, i+1]) G_2(gamma[i, i+2]) ... G_{dim-1}(gamma[i, i+dim-1])
    with block l at position l - 1.  The default sequence stops at
    i = n - dim, the last row whose parameters all exist; with ``full`` it
    runs through every row 0..n-2 and treats parameters beyond the triangle
    as zero, which leaves the product identity exact on the whole truncation
    window and lets a dim = n sequence reproduce the entire matrix.  A set
    with a ``degenerate`` (unresolved) entry has none and raises SingularStep,
    and one of more than ``MAX_SEQUENCE_FLOATS`` entries BadDim.
    """
    if params.degenerate.any():
        raise SingularStep(f"{int(params.degenerate.sum())} parameters are flagged "
                           "degenerate; their values are unresolved, so no dilation is built")
    n = params.n
    dim = _checked_int(dim, "dim")
    if dim < 2 or dim > n:
        raise BadDim(f"dim must lie in 2..{n}, got {dim}")
    count = (n - 1) if full else (n - dim + 1)
    if count * dim * dim > MAX_SEQUENCE_FLOATS:
        raise BadDim(f"count {count} x dim {dim}^2 above MAX_SEQUENCE_FLOATS {MAX_SEQUENCE_FLOATS}")
    padded = np.zeros((n + dim, n + dim))
    padded[:n, :n] = params.gamma
    mats = np.empty((count, dim, dim))
    for i in range(count):
        mats[i] = np.eye(dim)
        _rotate(mats[i], padded[i, i + 1:i + dim])
    mats.setflags(write=False)
    return DilationSequence(matrices=mats)


def reconstruct_correlation(seq: DilationSequence, i: int, j: int) -> float:
    """Correlation entry (i, j), zero-based i < j, from the rotation sequence.

    Evaluates e1^T W_i W_{i+1} ... W_{j-1} e1.  The lag j - i must stay
    within the truncation window dim - 1 and the product must not run off
    the end of the sequence.
    """
    i = _checked_int(i, "i")
    j = _checked_int(j, "j")
    if not 0 <= i < j:
        raise TruncationWindowExceeded(f"need 0 <= i < j, got ({i}, {j})")
    if j - i > seq.dim - 1:
        raise TruncationWindowExceeded(
            f"lag {j - i} exceeds window {seq.dim - 1} for dim {seq.dim}")
    if j > seq.count:
        raise TruncationWindowExceeded(f"entry ({i}, {j}) needs matrix {j - 1}, "
                                       f"sequence has {seq.count}")
    vec = np.zeros(seq.dim)
    vec[0] = 1.0
    for t in range(j - 1, i - 1, -1):
        vec = seq.matrices[t] @ vec
    return float(vec[0])


def reconstruct_window(seq: DilationSequence) -> np.ndarray:
    """Every entry the sequence determines, in a (count + 1)-square matrix of
    unit diagonal; the pairs :func:`reconstructible_window` omits are NaN.
    Row k is e1^T W_k times the walked columns, as in :func:`reconstruct_matrix`.
    """
    mats, n = seq.matrices, seq.count + 1
    out = np.full((n, n), np.nan)
    np.fill_diagonal(out, 1.0)
    for k, cols in _walk(n, seq.dim, lambda k, cols: np.copyto(cols, mats[k] @ cols)):
        out[k, k + 1:k + seq.dim] = out[k + 1:k + seq.dim, k] = mats[k, 0] @ cols
    return out


def reconstructible_window(seq: DilationSequence) -> list[tuple[int, int]]:
    """All (i, j) pairs reconstruct_correlation accepts for this sequence."""
    return [(i, j) for i in range(seq.count)
            for j in range(i + 1, min(i + seq.dim, seq.count + 1))]


def naimark_matrix(parcors, dim: int) -> np.ndarray:
    """Single orthogonal dilation of a stationary parcor sequence.

    The block product G_1(g_1) G_2(g_2) ... G_{dim-1}(g_{dim-1}) that
    :func:`build_dilation_sequence` forms for each row of a stationary set.
    Parcors beyond the window are checked but unused; missing ones count as
    zero.  Powers reproduce the stationary correlations: e1^T U^k e1 = R_k
    for k up to dim - 1.
    """
    dim = _checked_int(dim, "dim", high=MAX_SIZE)
    if dim < 2:
        raise BadDim(f"dim must be at least 2, got {dim}")
    supplied = _contractions(parcors, "parcors").ravel()
    u = np.eye(dim)
    _rotate(u, np.concatenate([supplied, np.zeros(dim - 1)])[:dim - 1])
    return u


def levinson(toeplitz_row) -> tuple[np.ndarray, np.ndarray]:
    """Order-recursive reflection coefficients of a stationary correlation row.

    Parameters
    ----------
    toeplitz_row : array_like
        (1, r_1, ..., r_{n-1}), the first row of a PD Toeplitz matrix.

    Returns
    -------
    reflection : ndarray, shape (n-1,)
        Reflection coefficients, signed so the first equals r_1.  These
        coincide with the constant-lag parcor parameters of the matrix.
    prediction_error : ndarray, shape (n,)
        Forward prediction error at orders 0..n-1; decreasing, starting at 1.

    Raises
    ------
    OutOfRange
        The row holds a non-finite entry or does not start with 1.
    SingularStep
        A prediction error hit zero or below, i.e. the implied matrix is
        singular at some order.
    """
    r = np.asarray(toeplitz_row, dtype=float).ravel()
    n = r.size
    if not np.isfinite(r).all():
        raise OutOfRange("row entries must be finite")
    if n < 1 or abs(r[0] - 1.0) > 1e-12:
        raise OutOfRange("row must start with 1")
    reflection = np.zeros(max(0, n - 1))
    errors = np.ones(n)
    coeffs = np.zeros(n - 1) if n > 1 else np.zeros(0)
    for m in range(1, n):
        acc = r[m] - np.dot(coeffs[:m - 1], r[m - 1:0:-1])
        k = acc / errors[m - 1]
        reflection[m - 1] = k
        new = coeffs[:m].copy()
        new[m - 1] = k
        if m > 1:
            new[:m - 1] -= k * coeffs[m - 2::-1]
        coeffs[:m] = new
        errors[m] = (1.0 - k * k) * errors[m - 1]
        if errors[m] <= 0.0:
            raise SingularStep(f"prediction error {errors[m]:.3e} at order {m}")
    return reflection, errors
