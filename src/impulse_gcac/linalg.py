"""Dense linear-algebra kernels shared by the rest of the package.

Contract-focused wrappers around numpy's LAPACK routines: the span of a
column stack, minimum-norm least squares, and eigenvalue summaries; and
the matrix exponential, by Pade scaling and squaring with the degree
selection of N. J. Higham (SIAM J. Matrix Anal. Appl. 26, 2005), in plain
numpy. Everything operates on plain float ndarrays; inputs are validated
once here so downstream modules can assume finite, correctly shaped
matrices.
`column_span` makes the package's only rank decision: every rank, its null
direction and every Gramian constant are read from its SVD.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "RANK_TOL",
    "SpectrumInfo",
    "Span",
    "UnreachableTargetError",
    "as_matrix",
    "column_span",
    "mat_exp",
    "numerical_rank",
    "min_norm_solve",
    "spectrum",
    "symmetric_part_max_eig",
]

# Default relative singular-value threshold for rank decisions.
RANK_TOL = 1e-9


class UnreachableTargetError(ValueError):
    """Exact solve requested for a target outside the operator's range."""


def as_matrix(a, rows=None, cols=None):
    """Validate `a` and return it as a 2-D float array.

    Parameters
    ----------
    a : array_like
        Matrix entries, row-major.
    rows, cols : int, optional
        Expected dimensions; checked when given.

    Returns
    -------
    ndarray
        Float array of shape (rows, cols).

    Raises
    ------
    ValueError
        If the input is not 2-D, contains non-finite entries, or its shape
        disagrees with `rows`/`cols`.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"expected {cols} columns, got {m.shape[1]}")
    return m


# Scaling and squaring after N. J. Higham, "The scaling and squaring method
# for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26
# (2005): theta_m is the largest 1-norm of A for which the degree-m Pade
# approximant of exp(A) has a backward error below the unit roundoff in
# double precision (Table 2.3), and b holds its numerator coefficients.
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (
        7,
        9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    ),
    (
        9,
        2.097847961257068e0,
        (
            17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
            2162160.0, 110880.0, 3960.0, 90.0, 1.0,
        ),
    ),
)
_THETA_13 = 5.371920351148152e0
_B13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def mat_exp(M, t=1.0):
    """Matrix exponential exp(M*t).

    Scaling and squaring with Pade approximants after Higham (2005): the
    degree m in {3, 5, 7, 9, 13} is the lowest whose threshold theta_m
    bounds the 1-norm of M*t, and only degree 13 scales the argument by a
    power of two, squaring the result back. Each approximant is one
    linear solve ``(V - U) R = V + U``. A diagonal argument, 1x1
    included, returns the exponential of its diagonal exactly. Entries
    that overflow come back as inf or nan, without a warning, for the
    callers' finiteness checks.

    Parameters
    ----------
    M : array_like
        Square matrix.
    t : float
        Scalar time; may be negative.

    Returns
    -------
    ndarray
        exp(M*t), same shape as M.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("mat_exp requires a square matrix")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        return _expm(M * t)


def _expm(A):
    """exp(A) for a square float matrix A, under the caller's errstate."""
    d = np.diagonal(A)
    if np.count_nonzero(A) == np.count_nonzero(d):
        return np.diag(np.exp(d))
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        # M*t overflowed: the exponential has no representable value
        return np.full(A.shape, np.nan)
    # degree 13 runs on A / 2^s, the smallest s with ||A / 2^s||_1 <= theta_13
    s = 0
    if norm > _THETA_13:
        frac, s = math.frexp(norm / _THETA_13)
        s -= frac == 0.5
        A = A * 2.0**-s
    ident = np.eye(A.shape[0])
    A2 = A @ A
    for m, theta, b in _PADE:
        if norm <= theta:
            V, W = b[0] * ident + b[2] * A2, b[1] * ident + b[3] * A2
            power = A2
            for i in range(4, m + 1, 2):
                power = power @ A2
                V = V + b[i] * power
                W = W + b[i + 1] * power
            U = A @ W
            return np.linalg.solve(V - U, V + U)
    A4 = A2 @ A2
    A6 = A4 @ A2
    b = _B13
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident
    )
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


class Span(NamedTuple):
    """Column span of an ``n x p`` stack, from one SVD.

    rank counts the singular values above ``tol * sigma_max`` (0 for a
    zero matrix); sigma_n is the n-th singular value when the stack has
    full row rank and 0 otherwise; null is an orthonormal basis, shape
    (n, n - rank), of the directions orthogonal to every column. factor,
    shape (n, min(n, p)), is the left singular vectors scaled by the
    singular values: ``factor @ factor.T == S @ S.T`` up to rounding, so
    ``[factor, B]`` has the singular values and left singular vectors of
    ``[S, B]`` for any further columns B.
    """

    rank: int
    sigma_max: float
    sigma_n: float
    null: np.ndarray
    factor: np.ndarray


def column_span(S):
    """Rank, extreme singular values and left null space of the stack S."""
    S = as_matrix(S)
    n, p = S.shape
    if S.size == 0:
        return Span(0, 0.0, 0.0, np.eye(n), np.zeros((n, 0)))
    # the stacks are wide; the full left factor is only needed when p < n
    u, s, _ = np.linalg.svd(S, full_matrices=p < n)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s[0] > 0.0 else 0
    sigma_n = float(s[n - 1]) if rank == n else 0.0
    return Span(rank, float(s[0]), sigma_n, u[:, rank:], u[:, : s.size] * s)


def numerical_rank(M):
    """Number of singular values of M above ``RANK_TOL * sigma_max``; 0 for
    the zero matrix."""
    return column_span(M).rank


def min_norm_solve(A, b, require_exact=False, tol=RANK_TOL):
    """Minimum-norm least-squares solution of ``A x = b``.

    Among all minimizers of ``||A x - b||`` the returned `x` has the
    smallest Euclidean norm; it is orthogonal to the (numerical) null
    space of A. Singular values below ``tol * sigma_max`` are treated
    as zero, matching `numerical_rank`.

    Parameters
    ----------
    A : array_like, shape (p, q)
    b : array_like, shape (p,)
    require_exact : bool
        When True, demand ``||A x - b|| <= tol * ||b||`` and raise
        `UnreachableTargetError` otherwise.
    tol : float
        Relative cutoff, shared by the solve and the exactness check.

    Returns
    -------
    ndarray, shape (q,)
    """
    A = as_matrix(A)
    b = np.asarray(b, dtype=float).reshape(-1)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite")
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A has {A.shape[0]} rows, b has {b.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=tol)
    if require_exact:
        r = A @ x - b  # both norms as `np.linalg.norm` reduces them
        residual = math.sqrt(r.dot(r))
        bound = tol * math.sqrt(b.dot(b))
        if residual > bound:
            raise UnreachableTargetError(
                f"target unreachable: residual {residual:.3e} exceeds {bound:.3e}"
            )
    return x


@dataclass(frozen=True)
class SpectrumInfo:
    """Eigenvalue summary of a real square matrix.

    Attributes
    ----------
    eigenvalues : ndarray
        Complex eigenvalues (conjugate pairs for real input).
    max_real_part : float
        max Re(lambda).
    """

    eigenvalues: np.ndarray
    max_real_part: float


def spectrum(M):
    """Eigenvalues of M with the summary fields used by schedule selection."""
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("spectrum requires a square matrix")
    w = np.linalg.eigvals(M)
    return SpectrumInfo(eigenvalues=w, max_real_part=float(w.real.max()))


def symmetric_part_max_eig(M):
    """Largest eigenvalue of (M + M^T)/2, the dissipativity functional."""
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("symmetric_part_max_eig requires a square matrix")
    sym = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(sym)[-1])
