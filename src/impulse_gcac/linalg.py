"""Dense linear-algebra kernels shared by the rest of the package.

Contract-focused wrappers around LAPACK routines (via numpy/scipy): matrix
exponential, the span of a column stack, minimum-norm least squares, and
eigenvalue summaries. Everything operates on plain float ndarrays; inputs
are validated once here so downstream modules can assume finite, correctly
shaped matrices.
`column_span` makes the package's only rank decision: every rank, its null
direction and every Gramian constant are read from its SVD.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

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
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"expected {cols} columns, got {m.shape[1]}")
    return m


def mat_exp(M, t=1.0):
    """Matrix exponential exp(M*t).

    Uses scaling-and-squaring with a fixed-order rational (Pade) kernel.

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
    return scipy.linalg.expm(M * t)


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
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A has {A.shape[0]} rows, b has {b.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=tol)
    if require_exact:
        residual = float(np.linalg.norm(A @ x - b))
        bound = tol * float(np.linalg.norm(b))
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
