"""Parcor factorization of correlation matrices and its rotation dilations.

A unit-diagonal SPD matrix R of size n is in one-to-one correspondence with
the strictly upper triangular family of contractions gamma[k][j] in (-1, 1),
k < j.  gamma[k][j] is the partial correlation of coordinates k and j given
the coordinates strictly between them; adjacent entries are the correlations
themselves.  The same parameters assemble into a sequence of orthogonal
matrices W_i (products of elementary rotation blocks) satisfying

    R[i][j] = e1^T W_i W_{i+1} ... W_{j-1} e1

for lags j - i up to dim - 1, where dim is the truncation size of the W's.
Extraction and reconstruction both evaluate this identity with one walk
over the rows from the bottom: it keeps every column c_j = W_{k+1} ... W_{j-1}
e1 in one array and applies W_k to it, two rows per rotation block, once row
k is known.  Reconstruction reads R[k, j] = (e1^T W_k) c_j; extraction solves
the same line for gamma[k, j], the only unknown in it (time-varying Schur
parametrization, Lev-Ari & Kailath 1984; Constantinescu 1996).
For a Toeplitz R all W_i coincide with the single matrix produced by
:func:`naimark_matrix`, whose powers generate the entries instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDim,
    BadPosition,
    NotAContraction,
    NotSquare,
    OutOfRange,
    SingularStep,
)

DEFECT_FLOOR = 1e-8
CONTRACTION_SLACK = 1e-9
BOUNDARY_TOL = 1e-12


def defect(gamma: float) -> float:
    """sqrt(1 - gamma^2) for a contraction gamma."""
    g = float(gamma)
    if abs(g) > 1.0 + BOUNDARY_TOL:
        raise OutOfRange(f"|gamma| = {abs(g)} exceeds 1")
    return float(np.sqrt(max(0.0, 1.0 - g * g)))


def givens(gamma: float, position: int, dim: int) -> np.ndarray:
    """Elementary rotation block of size ``dim``.

    The 2x2 block [[g, d], [d, -g]] with d = sqrt(1 - g^2) sits on rows and
    columns (position, position + 1), zero-based; the rest is the identity.
    gamma = 0 gives a plain transposition of the two coordinates.
    """
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


def extract_contraction(x: float, y: float, z: float) -> float:
    """Contraction gamma with y = sqrt(x) * gamma * sqrt(z), x and z positive.

    Values overshooting magnitude one by at most 1e-12 are clamped to the
    boundary; anything larger raises NotAContraction.  A return value of
    exactly +-1.0 therefore marks a boundary (degenerate) parameter.
    """
    if x <= 0.0 or z <= 0.0:
        raise OutOfRange("x and z must be strictly positive")
    value = y / (np.sqrt(x) * np.sqrt(z))
    if abs(value) > 1.0 + BOUNDARY_TOL:
        raise NotAContraction(f"|gamma| = {abs(value)} exceeds 1 beyond tolerance")
    if abs(value) > 1.0:
        value = np.copysign(1.0, value)
    return float(value)


@dataclass(frozen=True)
class SchurParams:
    """Strictly upper triangular contraction parameters of a correlation matrix.

    ``gamma[k, j]`` for k < j holds the parameter; other entries are zero.
    ``boundary`` marks entries that reached magnitude one, ``degenerate``
    marks entries that could not be solved because the surrounding defect
    product vanished (those are stored as zero).
    """

    gamma: np.ndarray
    boundary: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self):
        g = self.gamma
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise NotSquare(f"gamma must be square, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise OutOfRange("gamma entries must be finite")
        if float(np.abs(g).max(initial=0.0)) > 1.0:
            raise NotAContraction("|gamma| entries must not exceed 1")
        if np.any(np.tril(g) != 0.0):
            raise OutOfRange("only strictly upper triangular entries may be set")

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def from_gamma(cls, gamma) -> "SchurParams":
        g = np.triu(np.asarray(gamma, dtype=float), k=1)
        g.setflags(write=False)
        shape = g.shape
        boundary = np.abs(g) >= 1.0
        boundary.setflags(write=False)
        degenerate = np.zeros(shape, dtype=bool)
        degenerate.setflags(write=False)
        return cls(gamma=g, boundary=boundary, degenerate=degenerate)


def stationary_params(parcors, n: int) -> SchurParams:
    """Lift per-lag parcors to the constant-diagonal parameter set of size n."""
    p = np.asarray(parcors, dtype=float)
    if np.abs(p).max(initial=0.0) > 1.0:
        raise NotAContraction("parcors must have magnitude at most 1")
    g = np.zeros((n, n))
    for lag in range(1, n):
        value = p[lag - 1] if lag - 1 < p.size else 0.0
        for k in range(n - lag):
            g[k, k + lag] = value
    return SchurParams.from_gamma(g)


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


def _walk(gamma: np.ndarray):
    """Yield (k, cols) for rows k = n-2 .. 0, where cols[:, q] = c_{k+1+q}.

    c_j = W_{k+1} ... W_{j-1} e1 is supported on its first q + 1 entries.
    The caller must leave gamma[k, k+1:] final before resuming; the walk
    then applies W_k to every column, which turns them into the columns of
    row k - 1.
    """
    n = gamma.shape[0]
    cols = np.zeros((n, n))
    for k in range(n - 2, -1, -1):
        cols[0, k + 1] = 1.0
        block = cols[:n - k, k + 1:]
        yield k, block
        _rotate(block, gamma[k, k + 1:])


def schur_reconstruct_entry(params: SchurParams, k: int, j: int) -> float:
    """Correlation entry (k, j), zero-based k < j, from the parameters alone.

    The entry depends only on the parameters inside the window k..j, so it is
    the corner of the matrix reconstructed from that sub-window.
    """
    n = params.n
    if not (0 <= k < j < n):
        raise IndexError(f"need 0 <= k < j < {n}, got ({k}, {j})")
    window = SchurParams.from_gamma(params.gamma[k:j + 1, k:j + 1])
    return float(reconstruct_matrix(window)[0, -1])


def reconstruct_matrix(params: SchurParams) -> np.ndarray:
    """Full correlation matrix from the parameters.

    Row k is e1^T W_k times the walked columns: e1^T W_k holds the nested
    entries gamma[k, j] * prod_{k<t<j} defect(gamma[k, t]).
    """
    gamma = params.gamma
    out = np.eye(params.n)
    for k, cols in _walk(gamma):
        lead = np.empty(cols.shape[1])
        prefix = 1.0
        for q, g in enumerate(gamma[k, k + 1:]):
            lead[q] = prefix * g
            prefix *= defect(g)
        out[k, k + 1:] = out[k + 1:, k] = lead @ cols[:-1]
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
    boundary = np.zeros((n, n), dtype=bool)
    degenerate = np.zeros((n, n), dtype=bool)
    for k, cols in _walk(gamma):
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
                    boundary[k, j] = True
            gamma[k, j] = value
            lead[q] = prefix * value
            prefix *= defect(value)
    for a in (gamma, boundary, degenerate):
        a.setflags(write=False)
    return SchurParams(gamma=gamma, boundary=boundary, degenerate=degenerate)


@dataclass(frozen=True)
class DilationSequence:
    """Stack of orthogonal truncation matrices W_i, one per starting index."""

    matrices: np.ndarray
    dim: int

    def __post_init__(self):
        m = self.matrices
        if m.ndim != 3 or m.shape[1] != self.dim or m.shape[2] != self.dim:
            raise BadDim(f"expected shape (count, {self.dim}, {self.dim}), got {m.shape}")
        if not np.isfinite(m).all():
            raise OutOfRange("sequence entries must be finite")
        residual = np.abs(m @ m.transpose(0, 2, 1) - np.eye(self.dim))
        if m.size and float(residual.max()) > 1e-10:
            raise OutOfRange("sequence entries must be orthogonal")

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
    window and lets a dim = n sequence reproduce the entire matrix.
    """
    n = params.n
    if dim < 2 or dim > n:
        raise BadDim(f"dim must lie in 2..{n}, got {dim}")
    count = (n - 1) if full else (n - dim + 1)
    padded = np.zeros((n + dim, n + dim))
    padded[:n, :n] = params.gamma
    mats = np.empty((count, dim, dim))
    for i in range(count):
        mats[i] = np.eye(dim)
        _rotate(mats[i], padded[i, i + 1:i + dim])
    mats.setflags(write=False)
    return DilationSequence(matrices=mats, dim=dim)


def reconstruct_correlation(seq: DilationSequence, i: int, j: int) -> float:
    """Correlation entry (i, j), zero-based i < j, from the rotation sequence.

    Evaluates e1^T W_i W_{i+1} ... W_{j-1} e1.  The lag j - i must stay
    within the truncation window dim - 1 and the product must not run off
    the end of the sequence.
    """
    from .errors import TruncationWindowExceeded

    if not 0 <= i < j:
        raise IndexError(f"need 0 <= i < j, got ({i}, {j})")
    if j - i > seq.dim - 1:
        raise TruncationWindowExceeded(
            f"lag {j - i} exceeds window {seq.dim - 1} for dim {seq.dim}")
    if j > seq.count:
        raise IndexError(f"entry ({i}, {j}) needs matrix {j - 1}, "
                         f"sequence has {seq.count}")
    vec = np.zeros(seq.dim)
    vec[0] = 1.0
    for t in range(j - 1, i - 1, -1):
        vec = seq.matrices[t] @ vec
    return float(vec[0])


def reconstructible_window(seq: DilationSequence) -> list[tuple[int, int]]:
    """All (i, j) pairs reconstruct_correlation accepts for this sequence."""
    pairs = []
    for i in range(seq.count):
        for j in range(i + 1, min(i + seq.dim, seq.count + 1)):
            pairs.append((i, j))
    return pairs


def naimark_matrix(parcors, dim: int) -> np.ndarray:
    """Single orthogonal dilation of a stationary parcor sequence.

    Entrywise closed form: first row (g1, d1 g2, d1 d2 g3, ..., d1...d_{m-1}),
    subdiagonal d_i, interior (i, j) = -g_i d_{i+1}...d_j g_{j+1}, last
    column closing each row with the trailing defect product.  Missing
    parcors beyond the sequence count as zero.  Powers reproduce the
    stationary correlations: e1^T U^k e1 = R_k for k up to dim - 1.
    """
    if dim < 2:
        raise BadDim(f"dim must be at least 2, got {dim}")
    p = np.zeros(dim)  # index 1..dim-1 used; p[0] unused
    supplied = np.asarray(parcors, dtype=float).ravel()
    if supplied.size and float(np.abs(supplied).max()) > 1.0 + BOUNDARY_TOL:
        raise OutOfRange("parcors must have magnitude at most 1")
    take = min(supplied.size, dim - 1)
    p[1:take + 1] = supplied[:take]
    d = np.array([defect(g) for g in p])
    u = np.zeros((dim, dim))
    for jj in range(dim - 1):
        u[0, jj] = np.prod(d[1:jj + 1]) * p[jj + 1]
    u[0, dim - 1] = np.prod(d[1:dim])
    for i in range(1, dim):
        u[i, i - 1] = d[i]
        for jj in range(i, dim - 1):
            u[i, jj] = -p[i] * np.prod(d[i + 1:jj + 1]) * p[jj + 1]
        u[i, dim - 1] = -p[i] * np.prod(d[i + 1:dim])
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
    SingularStep
        A prediction error hit zero or below, i.e. the implied matrix is
        singular at some order.
    """
    r = np.asarray(toeplitz_row, dtype=float).ravel()
    n = r.size
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
