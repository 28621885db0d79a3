"""Tests for the dense linear-algebra kernels.

The matrix exponential is checked against an independent 30-term power
series and a 40-digit mpmath exponential, and numerical_rank against exact
rational-arithmetic elimination on integer matrices.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from impulse_gcac.linalg import (
    _PADE,
    _THETA_13,
    UnreachableTargetError,
    as_matrix,
    mat_exp,
    min_norm_solve,
    numerical_rank,
    spectrum,
    symmetric_part_max_eig,
)
from impulse_gcac.synthesis import ControlSequence, NonFiniteStateError, simulate

from conftest import make_system, oracle_exp, unit_schedule

# ---------------------------------------------------------------------------
# independent oracles


def series_exp(M, t, terms=30):
    """Truncated power series for exp(M*t); accurate to ~1e-20 for ||M*t|| <= 2."""
    A = np.asarray(M, dtype=float) * t
    acc = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        acc = acc + term
    return acc


def rational_rank(rows):
    """Exact rank of an integer matrix by Fraction Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1, 1) / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


# ---------------------------------------------------------------------------
# mat_exp


def test_mat_exp_zero_matrix_is_identity():
    np.testing.assert_array_equal(mat_exp(np.zeros((3, 3)), 1.7), np.eye(3))


def test_mat_exp_diagonal():
    out = mat_exp(np.diag([2.0, -0.5]), 0.3)
    expected = np.diag([math.exp(0.6), math.exp(-0.15)])
    np.testing.assert_allclose(out, expected, rtol=1e-13)


def test_mat_exp_quarter_turn_rotation():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = mat_exp(gen, math.pi / 2)
    np.testing.assert_allclose(out, gen, atol=1e-14)


def test_mat_exp_matches_power_series():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = rng.integers(1, 5)
        M = rng.uniform(-1.0, 1.0, size=(n, n))
        t = rng.uniform(0.0, 2.0 / max(np.linalg.norm(M, 2), 1e-3))
        ours = mat_exp(M, t)
        ref = series_exp(M, t)
        assert np.linalg.norm(ours - ref, 2) <= 1e-9 * max(1.0, np.linalg.norm(ref, 2))


def test_mat_exp_group_law():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = rng.integers(1, 5)
        M = rng.uniform(-1.5, 1.5, size=(n, n))
        s, t = rng.uniform(0.0, 1.5, size=2)
        whole = mat_exp(M, s + t)
        split = mat_exp(M, s) @ mat_exp(M, t)
        assert np.linalg.norm(split - whole, 2) <= 1e-10 * np.linalg.norm(whole, 2)


@pytest.mark.parametrize("theta", [theta for _, theta, _ in _PADE] + [_THETA_13])
@pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6])
def test_mat_exp_matches_the_oracle_on_both_sides_of_each_degree_threshold(theta, side):
    # ||M t||_1 just below theta_m takes degree m, just above the next degree
    # up (or one halving before degree 13)
    rng = np.random.default_rng(2005)
    for n in range(1, 5):
        for t in (0.5, -2.0):
            A = rng.standard_normal((n, n))
            A *= theta * side / np.abs(A).sum(axis=0).max()
            M = A / t
            ref = oracle_exp(M, t)
            assert np.linalg.norm(mat_exp(M, t) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_mat_exp_of_a_diagonal_is_the_exponential_of_its_entries_bitwise():
    for d in ([0.7], [-3.0], [2.0, -0.5], [1e-3, 0.0, -40.0, 5.5]):
        D = np.diag(d)
        for t in (0.3, -1.7, 12.0):
            np.testing.assert_array_equal(mat_exp(D, t), np.diag(np.exp(np.array(d) * t)))


def test_mat_exp_at_time_zero_is_the_identity_exactly():
    M = np.random.default_rng(3).uniform(-5.0, 5.0, (4, 4))
    np.testing.assert_array_equal(mat_exp(M, 0.0), np.eye(4))


def test_overflowing_exponential_is_non_finite_without_a_warning():
    # exp(800) overflows; the suite turns any numpy warning into an error
    P = np.array([[800.0, 1.0], [0.0, 700.0]])
    assert not np.all(np.isfinite(mat_exp(P, 1.0)))
    assert not np.all(np.isfinite(mat_exp(np.diag([800.0, 1.0]), 1.0)))
    # M * t itself overflows: no representable exponential at all
    assert np.all(np.isnan(mat_exp(np.full((2, 2), 1e300), 1e10)))
    system = make_system(P, [np.eye(2)], modes=4)
    x0 = np.zeros((2, 4))
    x0[0, 0] = 1.0
    with pytest.raises(NonFiniteStateError):
        simulate(system, unit_schedule(), x0, ControlSequence(impulses=()), 1)


def test_mat_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        mat_exp(np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        mat_exp(np.eye(2), math.inf)
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)


# ---------------------------------------------------------------------------
# numerical_rank


def test_numerical_rank_basic_cases():
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 5))) == 0
    outer = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    assert numerical_rank(outer) == 1
    assert numerical_rank(np.array([[1.0, 0.0], [0.0, 1e-12]])) == 1


def test_numerical_rank_matches_rational_elimination():
    rng = np.random.default_rng(13)
    for _ in range(60):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 7))
        base = rng.integers(-3, 4, size=(rows, cols))
        if rng.random() < 0.4 and rows > 1:
            # force a dependent row to exercise rank-deficient cases
            base[-1] = base[0] * int(rng.integers(-2, 3))
        assert numerical_rank(base.astype(float)) == rational_rank(base.tolist())


# ---------------------------------------------------------------------------
# min_norm_solve


def test_min_norm_picks_shortest_solution():
    x = min_norm_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)
    x = min_norm_solve(np.array([[1.0, 1.0]]), np.array([2.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_min_norm_orthogonal_to_null_space():
    rng = np.random.default_rng(14)
    for _ in range(25):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(p + 1, 7))
        A = rng.normal(size=(p, q))
        b = rng.normal(size=p)
        x = min_norm_solve(A, b)
        _, _, vt = np.linalg.svd(A)
        null_basis = vt[p:]
        # component in the null space vanishes, so adding any null vector
        # strictly increases the norm
        np.testing.assert_allclose(null_basis @ x, 0.0, atol=1e-10)
        w = null_basis.T @ rng.normal(size=q - p)
        assert np.linalg.norm(x + w) >= np.linalg.norm(x)


def test_min_norm_require_exact():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(UnreachableTargetError):
        min_norm_solve(A, np.array([0.0, 1.0]), require_exact=True)
    # consistent system passes the same check
    x = min_norm_solve(A, np.array([3.0, 0.0]), require_exact=True)
    np.testing.assert_allclose(x, [3.0, 0.0], atol=1e-12)


def test_min_norm_zero_rhs():
    x = min_norm_solve(np.array([[2.0, 1.0]]), np.array([0.0]), require_exact=True)
    np.testing.assert_array_equal(x, np.zeros(2))


# ---------------------------------------------------------------------------
# spectrum / symmetric part


def test_spectrum_rotation_generator():
    info = spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert info.max_real_part == pytest.approx(0.0, abs=1e-14)
    assert sorted(np.round(info.eigenvalues.imag, 12)) == [-1.0, 1.0]


def test_spectrum_all_real_reports_inf():
    info = spectrum(np.diag([3.0, -1.0, 0.0]))
    assert info.max_real_part == 3.0


def test_symmetric_part_max_eig():
    assert symmetric_part_max_eig(np.array([[0.0, -1.0], [1.0, 0.0]])) == pytest.approx(0.0, abs=1e-14)
    assert symmetric_part_max_eig(np.array([[1.0, 2.0], [0.0, 1.0]])) == pytest.approx(2.0, rel=1e-12)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[1.0, math.inf]])
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0]], rows=2)
    out = as_matrix([[1, 2], [3, 4]], rows=2, cols=2)
    assert out.dtype == float
