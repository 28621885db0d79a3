"""Rank conditions and observability constants for periodic impulse control.

Two kinds of quantities live here and are kept clearly apart:

* certified: the controllability rank condition, the Kalman rank test, the
  finite-dimensional observability constant (an exact Gramian eigenvalue),
  and operator norms of the flow (an exact mode-wise formula);
* sampled: the interpolation-inequality fit and the delta-approximate
  observability constant, which are empirical surrogates for suprema over
  infinitely many states. Their reports carry method="sampled-fit".

Every report records the horizon, the constant, and which of the two
routes produced it.
Rank decisions and Gramian constants are read from `linalg.column_span`;
the rank search takes its blocks from a pull-back table, and the sampled
constants read every controller in one product with the transposed gain
stack of `spectral.Propagators.final_stack`, the maps synthesis descends on.
"""

import itertools

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    as_matrix,
    column_span,
    mat_exp,
    numerical_rank,
    spectrum,
    symmetric_part_max_eig,
)
from .schedule import check_cycle, nu, time_at
from .spectral import Propagators, _PullbackTable, apply_adjoint_semigroup

__all__ = [
    "ObservabilityReport",
    "HypothesisVerdict",
    "RankDeficiencyError",
    "observation_norm",
    "rank_condition",
    "kalman_rank",
    "finite_obs_constant",
    "interpolation_estimate",
    "delta_obs_constant",
    "compose_obs",
    "semigroup_norm",
    "hypothesis_verdict",
]

# the fitted interpolation exponent is fixed at theta = 1 - THETA_STEP
THETA_STEP = 0.01
# delta_obs_constant samples states on the leading modes only: the flow
# damps higher modes, so the supremum lives there
PROBE_MODES = 4


class RankDeficiencyError(ValueError):
    """Rank condition fails; `witness` holds a direction with zero observations."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ObservabilityReport:
    """One fitted or certified observability constant.

    Attributes
    ----------
    k : int
        Horizon in impulse counts.
    constant : float
        The constant; +inf when no finite constant exists.
    method : str
        'exact-gramian', 'sampled-fit', or 'composed'.
    theta : float, optional
        Interpolation exponent; only for sampled fits of the
        interpolation inequality.
    delta : float, optional
        The relaxation level, for delta-approximate variants.
    """

    k: int
    constant: float
    method: str
    theta: Optional[float] = None
    delta: Optional[float] = None


@dataclass(frozen=True)
class HypothesisVerdict:
    """Checkable hypotheses of the synthesis and witness routines.

    rank_ok carries the smallest working horizon k_star when true.
    spectral classifies max Re of the coupling spectrum against the first
    diffusion eigenvalue as 'strict', 'boundary', or 'violated';
    dissipative checks the symmetric part against the same threshold;
    omega_full records whether every actuator covers the whole interval.
    """

    rank_ok: bool
    k_star: Optional[int]
    kalman_ok: bool
    spectral: str
    dissipative: bool
    omega_full: bool


def rank_condition(P, gains, sched, k_max):
    """Smallest horizon at which the shifted gain stack spans all components.

    Stacks ``exp(-P t_j) Q_{nu(j)}`` for j = 1..k and returns (True, k) for
    the first k <= k_max of full row rank, else (False, None). Blocks are
    normalized to unit spectral norm before stacking; per-block positive
    scaling leaves every column span unchanged but keeps late, strongly
    decayed blocks from dropping below the rank tolerance.
    """
    k_star, _ = _rank_search(P, gains, sched, k_max)
    return k_star is not None, k_star


def _rank_search(P, gains, sched, k_max):
    """`rank_condition` as (k_star or None, null basis of the last stack).

    The blocks come from a `_PullbackTable` at lambda_1 = 0. The stack of
    blocks 1..j-1 is carried as its n x min(n, p) factor `Span.factor`,
    which has the stack's singular values and left singular vectors, so
    candidate j is one `column_span` of at most n + m columns and the
    search is linear in k_max. The null basis, shape (n, n - rank), is
    empty at k_star; on failure it holds the directions no block up to
    k_max can see.
    """
    P = as_matrix(P)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    n = P.shape[0]
    pull = _PullbackTable(P, 0.0, sched)
    factor = np.zeros((n, 0))
    for j in range(1, k_max + 1):
        block = pull(j) @ as_matrix(gains[nu(sched, j) - 1], rows=n)
        scale = np.linalg.norm(block, 2)
        span = column_span(np.hstack([factor, block / scale if scale > 0.0 else block]))
        if span.rank == n:
            return j, span.null
        factor = span.factor
    return None, span.null


def kalman_rank(P, gains):
    """True iff the gains and their coupling iterates span all components."""
    P = as_matrix(P)
    n = P.shape[0]
    layer = [as_matrix(Q, rows=n) for Q in gains]
    blocks = list(layer)
    for _ in range(n - 1):
        layer = [P @ Q for Q in layer]
        blocks.extend(layer)
    return numerical_rank(np.hstack(blocks)) == n


def finite_obs_constant(P, gains, taus):
    """Optimal constant bounding ``||v||^2`` by summed observation energies.

    For observation times taus, the constant is 1/lambda_min of the Gramian
    ``sum_j exp(-P tau_j) Q_j Q_j^T exp(-P^T tau_j)`` with the gains applied
    cyclically. Computed as the inverse squared smallest singular value of
    the stacked observation matrix, so singularity (+inf) coincides exactly
    with the stack's rank decision.
    """
    P = as_matrix(P)
    taus = [float(t) for t in taus]
    if not taus:
        raise ValueError("at least one observation time is required")
    if any(t <= 0.0 for t in taus) or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("observation times must be positive and strictly increasing")
    blocks = [
        mat_exp(-P, tau) @ as_matrix(Q, rows=P.shape[0])
        for tau, Q in zip(taus, itertools.cycle(gains))
    ]
    sigma_n = column_span(np.hstack(blocks)).sigma_n
    constant = 1.0 / sigma_n**2 if sigma_n > 0.0 else math.inf
    return ObservabilityReport(k=len(taus), constant=constant, method="exact-gramian")


def observation_norm(system, k_ctrl, state):
    """L2 norm of controller k_ctrl's reading of the state.

    The reading is the state mapped through the gain transpose and cut to
    the controller's support; its squared norm is the Gram-weighted energy
    of the retained modes, exact on the truncation.
    """
    Y = system.gain(k_ctrl).T @ np.asarray(state, dtype=float)
    if system._full[k_ctrl - 1]:
        return float(np.linalg.norm(Y))
    G = system.overlap(k_ctrl)
    energy = float(np.einsum("ij,jk,ik->", Y, G, Y))
    return math.sqrt(max(energy, 0.0))


def _observation_sum(system, sched, state, k, final_time):
    """Sum over j = 1..k of the controller readings of the adjoint flow."""
    total = 0.0
    for j in range(1, k + 1):
        evolved = apply_adjoint_semigroup(system, state, final_time - time_at(sched, j))
        total += observation_norm(system, nu(sched, j), evolved)
    return total


def _reading_maps(system, sched, k, final, modes):
    """``(props, F0^T, d0, S, G)`` for readings of impulses 1..k at t_final.

    The engine, its adjoint flow from t_0 to t_final, and its
    `final_stack(final)` cut to k impulses; decays cut to `modes` modes.
    """
    props = Propagators(system, sched)
    to_final, S, G = props.final_stack(final)
    F0, d0 = to_final[0]
    cut = k * system.m
    return props, F0.T, d0[:modes], S[:, :cut], G[:cut, :modes]


def _batch_readings(maps, Z):
    """lhs norms and summed readings for a batch of states.

    Z has shape (batch, n, p) with p the `modes` of `_reading_maps`. Returns
    (lhs, obs) arrays of length batch, where lhs is the adjoint-flow norm
    at T = t_final and obs the summed controller readings at T - t_j,
    j = 1..k, all taken in one product with the transposed gain stack.
    """
    props, F0T, d0, S, G = maps
    batch, _, p = Z.shape
    lhs = np.linalg.norm(((F0T @ Z) * d0).reshape(batch, -1), axis=1)
    Y = ((S.T @ Z) * G).reshape(batch, -1, props.system.m, p)
    energy = np.sum(Y * props.project(Y), axis=(2, 3))
    return lhs, np.sqrt(np.maximum(energy, 0.0)).sum(axis=1)


def interpolation_estimate(system, sched, k, sample_count, seed=0):
    """Sampled fit of the interpolation inequality at horizon k.

    The exponent is fixed at theta = 1 - THETA_STEP = 0.99; over
    `sample_count` random truncated states z the routine finds the smallest
    constant C so that
    ``||flow*(t_{k+1}) z|| <= C (sum of readings)^theta ||z||^(1-theta)``
    holds on every sample, the readings being taken at times t_{k+1} - t_j.
    The result is an empirical report, not a certificate.

    Raises
    ------
    RankDeficiencyError
        When the rank condition fails at k; the witness attribute carries a
        unit direction whose readings all vanish.
    """
    if sample_count < 100:
        raise ValueError("at least 100 samples are required")
    check_cycle(system, sched)
    gains = [system.gain(j) for j in range(1, system.hbar + 1)]
    ok, _ = rank_condition(system.coupling, gains, sched, k)
    maps = _reading_maps(system, sched, k, k + 1, system.domain.modes)
    if not ok:
        # directions invisible to every reading; see delta_obs_constant
        kernel = column_span(maps[3]).null
        witness = kernel[:, 0] if kernel.size else np.zeros(system.n)
        raise RankDeficiencyError(
            f"rank condition fails at horizon {k}: a component direction is "
            "invisible to every controller reading",
            witness=witness,
        )
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((sample_count, system.n, system.domain.modes))
    norms = np.linalg.norm(Z.reshape(sample_count, -1), axis=1)
    keep = norms > 0.0
    Z, norms = Z[keep], norms[keep]
    lhs, obs = _batch_readings(maps, Z)
    b = np.log(lhs / norms)
    a = np.log(obs / norms)
    theta = 1.0 - THETA_STEP
    constant = float(np.exp(np.max(b - theta * a)))
    return ObservabilityReport(
        k=k, constant=constant, method="sampled-fit", theta=theta
    )


def _delta_required(lhs, norms, obs, delta):
    """Constant needed per sample: max(0, (lhs - delta ||z||) / readings)."""
    needed = lhs - delta * norms
    out = np.zeros_like(lhs)
    positive = needed > 0.0
    with np.errstate(divide="ignore"):
        out[positive] = np.where(
            obs[positive] > 0.0, needed[positive] / obs[positive], math.inf
        )
    return out


def delta_obs_constant(system, sched, k, delta, sample_count=10000, seed=0):
    """Sampled delta-approximate observability constant at horizon k.

    Fits the smallest D so that
    ``||flow*(t_k) z|| <= D * (sum of readings at t_k - t_j) + delta ||z||``
    holds over unit states concentrated on the first PROBE_MODES modes,
    refined by a deterministic pattern search around the best sample. When a reading
    kernel direction survives the flow with norm above delta the true
    constant is infinite and +inf is returned.

    Monotonicity in delta holds by construction: for a fixed seed the same
    sample set is used, and each sample's required constant decreases as
    delta grows.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if k < 1:
        raise ValueError("horizon k must be at least 1")
    check_cycle(system, sched)
    pm = min(PROBE_MODES, system.domain.modes)
    maps = _reading_maps(system, sched, k, k, pm)
    _, F0T, _, S, _ = maps
    # v is unobserved when every Q_nu(j)^T exp(P^T (T - t_j)) v vanishes, an
    # orthogonality to S; the Gram weighting cannot rescue it because each
    # support has positive mass on every mode
    kernel = column_span(S).null  # shape (n, n - rank)
    if kernel.size:
        surviving = np.linalg.norm(F0T @ kernel, 2)
        if surviving > delta * (1.0 + 1e-12):
            return ObservabilityReport(
                k=k, constant=math.inf, method="sampled-fit", delta=delta
            )

    rng = np.random.default_rng(seed)
    dim = system.n * pm

    def evaluate(zs):
        # zs: (batch, n*pm) unit rows -> required constant per row
        Z = zs.reshape(zs.shape[0], system.n, pm)
        lhs, obs = _batch_readings(maps, Z)
        norms = np.linalg.norm(zs, axis=1)
        return _delta_required(lhs, norms, obs, delta)

    samples = rng.standard_normal((sample_count, dim))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    required = evaluate(samples)
    best_idx = int(np.argmax(required))
    best = samples[best_idx]
    best_val = float(required[best_idx])

    # pattern search on the sphere around the best sample
    step = 0.3
    eye = np.eye(dim)
    while step > 1e-8:
        candidates = np.vstack([best + step * eye, best - step * eye])
        candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)
        vals = evaluate(candidates)
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best = candidates[idx]
        else:
            step *= 0.5
    return ObservabilityReport(
        k=k, constant=best_val, method="sampled-fit", delta=delta
    )


def compose_obs(D_op, delta, gamma, k, system, sched):
    """Compose a one-block constant across k blocks of gamma periods.

    Given a valid (delta, D_op) on [0, t_{gamma*hbar}], returns the pair
    (delta_k, D_k) valid on [0, t_{k*gamma*hbar}]:

        delta_k = delta * (sum_i ||flow(t_{i*gamma*hbar})||)
                        / (sum_i 1/||flow(t_{i*gamma*hbar})||),
        D_k     = D_op / (sum_i 1/||flow(t_{i*gamma*hbar})||),

    both sums over i = 0..k-1, with exact operator norms.
    """
    if gamma < 1 or k < 1:
        raise ValueError("gamma and k must be positive integers")
    block = gamma * sched.hbar
    norms = [semigroup_norm(system, time_at(sched, i * block)) for i in range(k)]
    direct = sum(norms)
    inverse = sum(1.0 / v for v in norms)
    return delta * direct / inverse, D_op / inverse


def semigroup_norm(system, t):
    """Exact operator norm of the flow at time t.

    Equals ``exp(-lambda_1 t) ||exp(P t)||_2`` by the mode-wise block
    structure; evaluated as the top singular value of the lambda_1-shifted
    exponential so the identity-coupling case returns exactly 1.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    shifted = system.coupling - system.first_eigenvalue * np.eye(system.n)
    return float(np.linalg.norm(mat_exp(shifted, t), 2))


def _spectral_tol(lam1):
    """Margin of every comparison of the coupling's spectrum against lam1."""
    return 1e-9 * max(1.0, abs(lam1))


def hypothesis_verdict(system, sched, k_max):
    """All synthesis hypotheses evaluated on one system and schedule."""
    check_cycle(system, sched)
    gains = [system.gain(j) for j in range(1, system.hbar + 1)]
    ok, k_star = rank_condition(system.coupling, gains, sched, k_max)
    lam1 = system.first_eigenvalue
    tol = _spectral_tol(lam1)
    top = spectrum(system.coupling).max_real_part
    if top > lam1 + tol:
        spectral = "violated"
    elif top >= lam1 - tol:
        spectral = "boundary"
    else:
        spectral = "strict"
    return HypothesisVerdict(
        rank_ok=ok,
        k_star=k_star,
        kalman_ok=kalman_rank(system.coupling, gains),
        spectral=spectral,
        dissipative=symmetric_part_max_eig(system.coupling) <= lam1 + tol,
        omega_full=system.has_full_supports(),
    )
