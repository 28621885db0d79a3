"""Rank conditions and observability constants for periodic impulse control.

Two kinds of quantities live here and are kept clearly apart:

* certified: the controllability rank condition, the Kalman rank test, the
  finite-dimensional observability constant (an exact Gramian eigenvalue),
  and operator norms of the flow (an exact mode-wise formula);
* sampled: the delta-approximate observability constant, an empirical
  surrogate for a supremum over infinitely many states. Its reports carry
  method="sampled-fit".

Every report records the horizon, the constant, and which of the two
routes produced it.
Rank decisions and Gramian constants are read from `linalg.column_span`;
the rank search steps its stack to each impulse time through the
per-slot maps ``exp(P D_r)`` over `ImpulseSchedule.slot_lengths`, in the
final-time frame of the engine; the Gramian constant stacks the pull-back
blocks ``exp(-P tau_j) Q_j``. The sampled constant builds one reading
matrix per call from the gain stack of `spectral.Propagators.final_stack`,
the maps synthesis descends on: a probe state's adjoint flow and every
controller reading, each weighted by a factor of its Gram matrix, are
segments of one row product. The pattern search builds its offsets for
every step length once per call, and polls in preallocated buffers.
`delta_obs_constant` is a sampled lower estimate on the first
PROBE_MODES modes. Its probe states depend only on (seed, sample count,
dimension): they are drawn once into a read-only table that every call
with that key shares, with at most SAMPLE_TABLES tables kept.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    RANK_TOL,
    as_matrix,
    column_span,
    mat_exp,
    numerical_rank,
    spectral_norm,
    spectrum,
    symmetric_part_max_eig,
)
from .schedule import _krylov_stack, check_cycle, nu, time_at
from .spectral import NonFiniteStateError, Propagators, _shifted_flow

__all__ = [
    "ObservabilityReport",
    "HypothesisVerdict",
    "RankDeficiencyError",
    "observation_norm",
    "rank_condition",
    "kalman_rank",
    "finite_obs_constant",
    "delta_obs_constant",
    "compose_obs",
    "semigroup_norm",
    "hypothesis_verdict",
]

# delta_obs_constant samples states on the leading modes only; its value
# is a sampled lower estimate on that probe space, not over all modes
PROBE_MODES = 4
# sample tables of delta_obs_constant kept at once, one per
# (seed, sample_count, dim)
SAMPLE_TABLES = 4
_STEPS = tuple(0.3 * 0.5**j for j in range(25))  # pattern-search steps, all above 1e-8


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
        'exact-gramian' or 'sampled-fit'.
    delta : float, optional
        The relaxation level, for delta-approximate variants.
    """

    k: int
    constant: float
    method: str
    delta: Optional[float] = None


@dataclass(frozen=True)
class HypothesisVerdict:
    """Checkable hypotheses of the synthesis and witness routines.

    rank_ok carries the smallest working horizon k_star when true.
    spectral classifies max Re of the coupling spectrum against the first
    diffusion eigenvalue as 'strict', 'boundary', or 'violated';
    dissipative checks the symmetric part against the same margin;
    omega_full records whether every actuator covers the whole interval.
    """

    rank_ok: bool
    k_star: Optional[int]
    kalman_ok: bool
    spectral: str
    dissipative: bool
    omega_full: bool


def rank_condition(system, sched, k_max):
    """Smallest horizon at which the gain stack spans all components.

    Returns (True, k) for the first k <= k_max at which the blocks
    ``exp(P (t_k - t_j)) Q_{nu(j)}``, j = 1..k, have full row rank, else
    (False, None). They are the pull-back blocks ``exp(-P t_j) Q_{nu(j)}``
    times the invertible exp(P t_k), so the rank is the same. The search
    forms no flow longer than one step, so long horizons cannot overflow
    it; a step map that does raises NonFiniteStateError, unless the first
    block alone has full rank. `check_cycle` raises ValueError unless the
    schedule has one slot per controller.
    """
    check_cycle(system, sched)
    k_star, _ = _rank_search(system, sched, k_max)
    return k_star is not None, k_star


def _rank_search(system, sched, k_max):
    """`rank_condition` as (k_star or None, null basis at time 0).

    Candidate j steps the factor `Span.factor` of blocks 1..j-1, which has
    their singular values and left singular vectors, through slot nu(j)'s
    map ``exp(P D_r)`` to t_j and appends Q_nu(j), both at unit spectral
    norm (positive scaling leaves every span unchanged): one `column_span`
    of at most n + m columns. The engine's shifted maps would not do: a
    short domain underflows their factor exp(-lambda_1 D_r) to 0. The null
    basis, shape (n, n - rank), is empty at k_star; on failure it holds the
    directions no block up to k_max sees, mapped back to time 0 by
    ``N <- qr(E^T N)`` over the step maps of impulses k_max..1, unless the
    stack's range is invariant under every step map, which leaves N where
    it is.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    n = system.n
    steps = [mat_exp(system.coupling, D) for D in sched.slot_lengths]
    units = [_unit_norm(Q) for Q in system.gains]
    factor = np.zeros((n, 0))
    for j in range(1, k_max + 1):
        if j > 1:
            factor = _unit_norm(steps[(j - 1) % sched.hbar] @ span.factor)
        span = column_span(np.hstack([factor, units[nu(sched, j) - 1]]))
        if span.rank == n:
            return j, span.null
        if j == 1 and not all(np.all(np.isfinite(E)) for E in steps):
            raise NonFiniteStateError("the flow between two impulses overflowed")
    # mapping an invariant null back would only amplify its rounding
    seen = span.factor[:, : span.rank]
    seen = seen / np.linalg.norm(seen, axis=0)
    if all(
        np.linalg.norm(span.null.T @ (E @ seen)) <= RANK_TOL * np.linalg.norm(E @ seen)
        for E in steps
    ):
        return None, span.null
    null = span.null
    for j in range(k_max, 0, -1):
        null = np.linalg.qr(steps[(j - 1) % sched.hbar].T @ null)[0]
    return None, null


def _unit_norm(A):
    """A divided by its spectral norm; the zero matrix unchanged."""
    scale = spectral_norm(A)
    return A / scale if scale > 0.0 else A


def kalman_rank(P, gains):
    """True iff the gains and their coupling iterates span all components."""
    P = as_matrix(P)
    B = np.hstack([as_matrix(Q, rows=P.shape[0]) for Q in gains])
    return numerical_rank(_krylov_stack(P, B)) == P.shape[0]


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
    stack = np.hstack([
        mat_exp(-P, tau) @ as_matrix(Q, rows=P.shape[0])
        for tau, Q in zip(taus, itertools.cycle(gains))
    ])
    sigma_n = column_span(stack).sigma_n
    constant = 1.0 / sigma_n**2 if sigma_n > 0.0 else math.inf
    return ObservabilityReport(k=len(taus), constant=constant, method="exact-gramian")


def observation_norm(system, k_ctrl, state):
    """L2 norm of controller k_ctrl's reading of the state.

    The reading is the state mapped through the gain transpose and cut to
    the controller's support; its squared norm is the Gram-weighted energy
    of the retained modes, exact on the truncation.
    """
    Y = system.gain(k_ctrl).T @ np.asarray(state, dtype=float)
    G = system._grams[k_ctrl - 1]
    if G is None:
        return float(np.linalg.norm(Y))
    energy = float(np.einsum("ij,jk,ik->", Y, G, Y))
    return math.sqrt(max(energy, 0.0))


def _reading_maps(system, sched, k, modes):
    """``(props, F0^T, d0, S, G)`` for readings of impulses 1..k at t_k.

    The engine, its adjoint flow from t_0 to t_k, and its `final_stack(k)`;
    decays cut to `modes` modes.
    """
    props = Propagators(system, sched)
    F0, d0, S, G, _ = props.final_stack(k)
    return props, F0.T, d0[:modes], S, G[:, :modes]


def _reading_matrix(maps):
    """``(W, cuts)``: every reading of a probe state as one row product.

    For a state z of shape (n, p), flattened row-major, ``z @ W`` has k + 1
    segments starting at `cuts`: the adjoint flow to t_final, then each
    impulse's (m, p) reading times a factor C_r of slot r's Gram matrix cut
    to p x p (``gram = C C^T`` from `eigh`, eigenvalues clipped at 0; the
    identity on a full support). Each segment's norm is then the lhs norm
    or one controller reading of `observation_norm`.
    """
    props, F0T, d0, S, G = maps
    n, p, m = F0T.shape[0], d0.shape[0], props.system.m
    k = S.shape[1] // m
    factors = []
    for _, gram in props.jumps:
        if gram is None:
            factors.append(np.eye(p))
        else:
            w, V = np.linalg.eigh(gram[:p, :p])
            factors.append(V * np.sqrt(np.maximum(w, 0.0)))
    C = np.repeat(np.array([factors[j % props.hbar] for j in range(k)]), m, axis=0)
    # reading entry (a, c) -> (l, d) is S[a, l] G[l, c] C_l[c, d]
    readings = S[:, :, None, None] * (G[:, :, None] * C)[None]
    W = np.hstack([
        np.kron(F0T.T, np.diag(d0)),
        readings.transpose(0, 2, 1, 3).reshape(n * p, k * m * p),
    ])
    cuts = np.concatenate([[0], n * p + m * p * np.arange(k)])
    return W, cuts


@functools.lru_cache(maxsize=SAMPLE_TABLES)
def _sample_table(seed, sample_count, dim):
    """``(Z, norms)``: the probe states of `delta_obs_constant` and their norms.

    Z holds sample_count standard normal rows of length dim drawn from
    ``default_rng(seed)``; nothing of the system enters it, so every call
    with the same (seed, sample_count, dim) reads the same arrays. Both are
    read-only, since they are shared.
    """
    Z = np.random.default_rng(seed).standard_normal((sample_count, dim))
    norms = np.linalg.norm(Z, axis=1)
    Z.flags.writeable = False
    norms.flags.writeable = False
    return Z, norms


def delta_obs_constant(system, sched, k, delta, sample_count=10000, seed=0):
    """Sampled delta-approximate observability constant at horizon k.

    Fits the smallest D so that
    ``||flow*(t_k) z|| <= D * (sum of readings at t_k - t_j) + delta ||z||``
    holds over unit states on the first PROBE_MODES modes, refined by a
    deterministic pattern search around the best sample. The result is a
    sampled lower estimate of the constant on that probe space, not a
    bound: states on higher modes are not probed, and on a local support
    they can need a larger constant. When a reading kernel direction
    survives the flow with norm above delta the true constant is infinite
    and +inf is returned.

    The samples are `sample_count` standard normal states drawn from the
    integer `seed`. They depend on nothing else than (seed, sample_count,
    n * PROBE_MODES), so they are drawn once into a read-only table shared
    by every call with that key; at most SAMPLE_TABLES tables are kept,
    each pinning sample_count * (n * PROBE_MODES + 1) floats (1.4 MB for
    10,000 samples at n = 4). The pattern search's offsets
    ``+-step [I | W]`` are built once per call, for all 25 steps 0.3 2^-j
    above 1e-8, and each poll reduces in buffers allocated once, by the
    floating-point operations of an allocating poll.

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
    maps = _reading_maps(system, sched, k, pm)
    _, F0T, _, S, _ = maps
    # v is unobserved when every Q_nu(j)^T exp(P^T (T - t_j)) v vanishes, an
    # orthogonality to S; the Gram weighting cannot rescue it because each
    # support has positive mass on every mode
    kernel = column_span(S).null  # shape (n, n - rank)
    if kernel.size:
        surviving = spectral_norm(F0T @ kernel)
        if surviving > delta * (1.0 + 1e-12):
            return ObservabilityReport(
                k=k, constant=math.inf, method="sampled-fit", delta=delta
            )

    W, cuts = _reading_matrix(maps)
    dim = W.shape[0]
    Z, norms = _sample_table(operator.index(seed), sample_count, dim)
    # a state z is segment 0 of its image z @ [I | W], so one reduction
    # gives its norm, its adjoint-flow norm and its readings, and `mix`
    # turns those into (lhs - delta ||z||, sum of readings)
    WI = np.hstack([np.eye(dim), W])
    starts = np.concatenate([[0], dim + cuts])
    mix = np.zeros((starts.size, 2))
    mix[:2, 0] = -delta, 1.0
    mix[2:, 1] = 1.0

    def poll(img, sums=None, mixed=None, vals=None):
        # max(0, (lhs - delta ||z||) / readings) per state, +inf if it needs
        # some but has no readings; squares img, fills the buffers given
        np.square(img, out=img)
        sums = np.sqrt(np.add.reduceat(img, starts, axis=-1, out=sums), out=sums)
        mixed = sums.dot(mix, out=mixed)
        return np.fmax(np.divide(mixed[..., 0], mixed[..., 1], out=vals), 0.0, out=vals)

    with np.errstate(divide="ignore", invalid="ignore"):
        # the value is scale-invariant: score the raw samples, normalize the
        # best; the rows of W^T Z^T are the segments, the adjoint flow's
        # first, then k readings of equal width, so each sum is over whole rows
        img = W.T @ Z.T
        np.square(img, out=img)
        lhs = np.sqrt(img[: cuts[1]].sum(axis=0))
        obs = np.sqrt(img[cuts[1] :].reshape(k, -1, len(Z)).sum(axis=1)).sum(axis=0)
        best_idx = int(np.fmax((lhs - delta * norms) / obs, 0.0).argmax())
        best = Z[best_idx] / norms[best_idx]
        base = best @ WI
        best_val = float(poll(base.copy()))

        # pattern search on the sphere around the best sample, candidates
        # best +- step e_i read unnormalized: their images are
        # best @ [I | W] + step [WI; -WI], every level built here
        MW = np.vstack([WI, -WI])
        img, rows = np.empty_like(MW), len(MW)
        bufs = np.empty((rows, starts.size)), np.empty((rows, 2)), np.empty(rows)
        for step, stepped in zip(_STEPS, np.multiply.outer(_STEPS, MW)):
            while True:
                vals = poll(np.add(stepped, base, out=img), *bufs)
                idx = int(vals.argmax())
                if vals[idx] > best_val:
                    best_val = float(vals[idx])
                    best[idx % dim] += step if idx < dim else -step
                    best /= math.sqrt(best @ best)
                    # recomputed, not carried forward, so rounding cannot drift
                    base = best @ WI
                else:
                    break  # no candidate improves: halve the step
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

    sums over i = 0..k-1 of the norms of the powers of one block flow
    (`semigroup_norm`'s to rounding). gamma and k must be integers. Raises
    NonFiniteStateError when a power overflows or a norm has no finite inverse.
    """
    gamma, k = operator.index(gamma), operator.index(k)
    if gamma < 1 or k < 1:
        raise ValueError("gamma and k must be positive integers")
    block = gamma * sched.hbar
    times = [time_at(sched, i * block) for i in range(k)]
    E = _shifted_flow(system, times[1])[0] if k > 1 else None
    power, direct, inverse = np.eye(system.n), 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(times):
            power = power @ E if i else power
            if not np.isfinite(power).all():
                raise NonFiniteStateError(f"the flow over t = {t} overflowed")
            v = spectral_norm(power)
            if v == 0.0 or math.isinf(1.0 / v):
                raise NonFiniteStateError(f"the flow norm {v} at t = {t} has no finite inverse")
            direct, inverse = direct + v, inverse + 1.0 / v
    return delta * direct / inverse, D_op / inverse


def semigroup_norm(system, t):
    """Exact operator norm of the flow at time t.

    Equals ``exp(-lambda_1 t) ||exp(P t)||_2`` by the mode-wise block
    structure; evaluated as the top singular value of the lambda_1-shifted
    exponential so the identity-coupling case returns exactly 1. Raises
    NonFiniteStateError when that exponential overflows.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    E, _ = _shifted_flow(system, t)
    if not np.all(np.isfinite(E)):
        raise NonFiniteStateError(f"the flow over t = {t} overflowed")
    return spectral_norm(E)


def _spectral_tol(lam1):
    """Margin of every comparison of the coupling's spectrum against lam1."""
    return 1e-9 * max(1.0, abs(lam1))


def _spectral_class(system):
    """'strict', 'boundary' or 'violated': max Re of the coupling spectrum
    against lambda_1 within `_spectral_tol`, the one rule of every caller."""
    lam1 = system.first_eigenvalue
    tol = _spectral_tol(lam1)
    top = spectrum(system.coupling).max_real_part
    if top > lam1 + tol:
        return "violated"
    return "boundary" if top >= lam1 - tol else "strict"


def _dissipative(system):
    """The local-case hypothesis: the symmetric part of the coupling has no
    eigenvalue above lambda_1 + `_spectral_tol`."""
    lam1 = system.first_eigenvalue
    return symmetric_part_max_eig(system.coupling) <= lam1 + _spectral_tol(lam1)


def hypothesis_verdict(system, sched, k_max):
    """All synthesis hypotheses evaluated on one system and schedule."""
    ok, k_star = rank_condition(system, sched, k_max)
    return HypothesisVerdict(
        rank_ok=ok,
        k_star=k_star,
        kalman_ok=kalman_rank(system.coupling, system.gains),
        spectral=_spectral_class(system),
        dissipative=_dissipative(system),
        omega_full=system.has_full_supports(),
    )
