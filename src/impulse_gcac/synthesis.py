"""Control synthesis for the truncated impulse system.

Four steering strategies, in increasing order of what they demand from the
system:

* exact mode-1 steering with unit-ball controls (full supports),
* approximate steering to any ball around the origin (full supports),
* approximate steering with proper subinterval supports, by projected
  gradient descent on the truncation,
* exact constrained null steering (full supports), which composes the
  previous routines with a Gramian-ball argument.

Every routine returns a SteeringResult whose residual is the l2 norm of a
state produced by the loop of `simulate`, so callers can re-verify any
result by replaying the controls. `simulate`, the descent model, the
steering and null-steering blocks and the period growth bound take their
maps from a `spectral.Propagators` engine built once per public call:
hbar matrix exponentials per schedule, not one per impulse. Each
full-support synthesizer is a public shell that checks its inputs and
builds the engine, around a private core that runs on it, so
`constrained_null_synthesize` runs its phases on one engine and one rank
search.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    UnreachableTargetError,
    column_span,
    min_norm_solve,
    spectrum,
    symmetric_part_max_eig,
)
from .observability import (
    RankDeficiencyError,
    _rank_search,
    _spectral_tol,
    finite_obs_constant,
)
from .schedule import check_cycle, nu, time_at
from .spectral import (
    Propagators,
    _PullbackTable,
    _check_state,
    apply_semigroup,
    l2_norm,
    zero_state,
)

__all__ = [
    "ControlSequence",
    "SteeringResult",
    "HorizonExhaustedError",
    "NonFiniteStateError",
    "simulate",
    "project_H1",
    "gramian_delta",
    "steer_first_mode",
    "decay_horizon",
    "gcac_synthesize",
    "local_gcac_synthesize",
    "null_steer",
    "constrained_null_synthesize",
]

# relative slack accepted when checking unit-ball membership
BUDGET_SLACK = 1e-12


class HorizonExhaustedError(RuntimeError):
    """No admissible control found within the allowed number of impulses.

    `best_sup` records the smallest impulse sup-norm any exact solution
    achieved before the horizon limit was hit (inf when none was exact).
    """

    def __init__(self, message, best_sup=math.inf):
        super().__init__(message)
        self.best_sup = best_sup


class NonFiniteStateError(ArithmeticError):
    """A propagated state or a bound overflowed to inf or nan."""


@dataclass(frozen=True)
class ControlSequence:
    """Impulse inputs u_1, ..., u_k as modal coefficient arrays.

    Attributes
    ----------
    impulses : tuple of ndarray
        Each entry has shape (m, N): per-actuator coefficients of the
        input profile in the domain basis.
    budget : float
        Bound on each ``||u_j||``; the constraint set of the problem.
    constrained : bool
        When True (the default), construction checks every impulse
        against the budget. Unconstrained sequences carry controls whose
        only guarantee is an aggregate l2 bound.
    """

    impulses: tuple
    budget: float = 1.0
    constrained: bool = True

    def __post_init__(self):
        entries = tuple(np.asarray(u, dtype=float) for u in self.impulses)
        for u in entries:
            if u.ndim != 2:
                raise ValueError("each impulse must be a 2-D coefficient array")
            if u.shape != entries[0].shape:
                raise ValueError("impulses must share one shape")
            if not np.all(np.isfinite(u)):
                raise ValueError("impulse entries must be finite")
        if self.budget <= 0.0:
            raise ValueError("budget must be positive")
        if self.constrained:
            for j, u in enumerate(entries):
                norm = float(np.linalg.norm(u))
                if norm > self.budget * (1.0 + BUDGET_SLACK):
                    raise ValueError(
                        f"impulse {j + 1} has norm {norm:.6g}, over budget "
                        f"{self.budget:.6g}"
                    )
        object.__setattr__(self, "impulses", entries)

    def __len__(self):
        return len(self.impulses)

    def max_norm(self):
        """Largest single-impulse norm; 0 for an empty sequence."""
        if not self.impulses:
            return 0.0
        return max(float(np.linalg.norm(u)) for u in self.impulses)

    def l2_total(self):
        """Aggregate l2 norm sqrt(sum_j ||u_j||^2)."""
        return math.sqrt(sum(float(np.linalg.norm(u)) ** 2 for u in self.impulses))


@dataclass(frozen=True)
class SteeringResult:
    """Outcome of one synthesis run.

    residual is always ``l2_norm(final_state)`` with final_state produced
    by `simulate`, so an independent replay reproduces it. certificate is
    'exact' for steering that hits the target in the model, 'epsilon-ball'
    for approximate steering, and 'failed-horizon-exhausted' when the
    search ran out of impulses (reported, never hidden).
    """

    controls: ControlSequence
    horizon_k: int
    final_state: np.ndarray
    residual: float
    certificate: str
    details: Optional[dict] = None


def simulate(system, sched, x0, controls, k, norms=False):
    """State after k impulses: flow, jump, flow, jump, ..., jump.

    Impulse j acts at time t_j through controller nu(j); the returned
    state is the post-jump value at t_k. Controls beyond the list length
    are zero. Each flow is the step map of slot nu(j) from
    `spectral.Propagators`, so a run costs hbar matrix exponentials
    whatever k is.

    With norms=True the result is (state, norms): for j = 0..k, the
    per-mode column norms and the l2 norm of the state just after impulse
    j, taken inside the same loop, so the last l2 norm is
    ``l2_norm(state)`` bit for bit.
    """
    check_cycle(system, sched)
    if k < 0:
        raise ValueError("impulse count must be nonnegative")
    state = _check_state(system, x0).copy()
    shape = (system.m, system.domain.modes)
    if controls.impulses and controls.impulses[0].shape != shape:
        raise ValueError(
            f"control must have shape {shape}, got {controls.impulses[0].shape}"
        )
    return _propagate(Propagators(system, sched), state, controls.impulses, k, norms)


def _propagate(props, state, impulses, k, norms=False):
    """The loop of `simulate` on a prebuilt engine, from impulse 0 to k.

    Raises NonFiniteStateError when the final state has overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        trace = [(np.linalg.norm(state, axis=0), l2_norm(state))] if norms else None
        for j in range(1, k + 1):
            state = props.advance(state, j, impulses[j - 1] if j <= len(impulses) else None)
            if norms:
                trace.append((np.linalg.norm(state, axis=0), l2_norm(state)))
    if not np.all(np.isfinite(state)):
        raise NonFiniteStateError(f"the state overflowed within {k} impulses")
    return (state, trace) if norms else state


def project_H1(system, state):
    """Split a state into its mode-1 coefficient and the rest.

    Returns (v, remainder) with v in R^n the first-mode coefficient and
    remainder the state with that coefficient zeroed; v e_1 + remainder
    reassembles the input exactly.
    """
    state = np.asarray(state, dtype=float)
    v = state[:, 0].copy()
    remainder = state.copy()
    remainder[:, 0] = 0.0
    return v, remainder


def _shifted_blocks(P, gains, sched, k, lam1):
    """Blocks exp((lam1 I - P) t_j) Q_nu(j) for j = 1..k, from a pull-back table."""
    pull = _PullbackTable(P, lam1, sched)
    return [pull(j) @ gains[nu(sched, j) - 1] for j in range(1, k + 1)]


def gramian_delta(P, gains, sched, k_star, lam1=1.0):
    """Steering Gramian over k_star impulses and its guaranteed ball radius.

    Returns (M, delta) with
    ``M = sum_j exp((lam1 I - P) t_j) Q_nu(j) Q_nu(j)^T exp((lam1 I - P^T) t_j)``
    and ``delta = 1 / (||S|| * ||M^{-1}||)`` in spectral norms, S being the
    stacked blocks. Every target of norm at most delta is reached exactly
    by the closed-form controls ``zeta_j = Q_nu(j)^T exp((lam1 I - P^T) t_j)
    M^{-1} eta``, each of norm at most 1.

    lam1 is the first diffusion eigenvalue of the domain; the default
    matches an interval of length pi.
    """
    if k_star < 1:
        raise ValueError("k_star must be at least 1")
    P = np.asarray(P, dtype=float)
    return _gramian_ball(_shifted_blocks(P, gains, sched, k_star, lam1), k_star)


def _gramian_ball(blocks, k_star):
    """`gramian_delta` of already assembled blocks."""
    S = np.hstack(blocks)
    span = column_span(S)
    if span.rank < S.shape[0]:
        raise ValueError(
            "steering Gramian is singular: the gain stack does not span all "
            f"components at horizon {k_star}"
        )
    return S @ S.T, span.sigma_n**2 / span.sigma_max


def _require_rank(system, sched, k, message):
    """Smallest horizon <= k of full gain-stack rank, from the rank search.

    Raises RankDeficiencyError with `message` and, as witness, a unit
    direction orthogonal to every searched block when there is none.
    """
    gains = [system.gain(j) for j in range(1, system.hbar + 1)]
    k_star, null = _rank_search(system.coupling, gains, sched, k)
    if k_star is None:
        raise RankDeficiencyError(message, witness=null[:, 0])
    return k_star


def _spectral_guard(P, lam1):
    # synthesis for unbounded growth is out of contract
    top = spectrum(P).max_real_part
    if top > lam1 + _spectral_tol(lam1):
        raise ValueError(
            "the coupling matrix has an eigenvalue with real part above the "
            "first diffusion eigenvalue; ball-targeted steering is not "
            "available for such systems"
        )


def _mode1_controls(system, xi_list):
    """Wrap mode-1 coefficient vectors as full impulse arrays."""
    impulses = []
    for xi in xi_list:
        u = np.zeros((system.m, system.domain.modes))
        u[:, 0] = xi
        impulses.append(u)
    return impulses


def _chunked_mode1(props, sched, v, k_max):
    """Greedy Gramian-ball steering of a mode-1 target, one span at a time.

    Each span of impulses reaches any target inside its delta-ball with
    unit-ball controls; the target is consumed in delta-sized pieces until
    nothing remains. Spans are full periods so later spans are time shifts
    of the first, which keeps every solve in well-scaled variables. The
    blocks come from a pull-back table after a rank search of its own; the
    flow over one span is the engine's map from t_0 to t_span.
    """
    system = props.system
    P = system.coupling
    gains = [system.gain(j) for j in range(1, system.hbar + 1)]
    ok_k, _ = _rank_search(P, gains, sched, k_max)
    if ok_k is None:
        raise HorizonExhaustedError(
            f"gain stack never reaches full rank within {k_max} impulses"
        )
    span = system.hbar * math.ceil(ok_k / system.hbar)
    blocks = _shifted_blocks(P, gains, sched, span, system.first_eigenvalue)
    M, delta = _gramian_ball(blocks, span)
    # small margin keeps the closed-form controls strictly inside the ball
    delta *= 1.0 - 1e-12
    # flow over one span: the inverse of the pull-back by span impulses
    span_flow = props.to_final(span)[0][0]

    remaining = -np.asarray(v, dtype=float)
    xi_list = []
    back = np.eye(P.shape[0])
    b = 0
    while float(np.linalg.norm(remaining)) > 0.0:
        if (b + 1) * span > k_max:
            raise HorizonExhaustedError(
                f"target needs more than {k_max} impulses of Gramian-ball steering"
            )
        # pull the remaining target back to the first span's variables
        if b:
            back = span_flow @ back
        pulled = back @ remaining
        scale = float(np.linalg.norm(pulled))
        if scale <= delta:
            eta = pulled
            remaining = np.zeros_like(remaining)
        else:
            eta = (delta / scale) * pulled
            remaining = remaining * (1.0 - delta / scale)
        factor = np.linalg.solve(M, eta)
        xi_list.extend(block.T @ factor for block in blocks)
        b += 1
    return xi_list


def steer_first_mode(system, sched, v_target, k_max):
    """Drive the mode-1 coefficient to zero with unit-ball impulses.

    Looks for the smallest horizon k at which the minimum-l2-norm exact
    steering keeps every impulse inside the unit ball, up to the relative
    `BUDGET_SLACK` that `ControlSequence` accepts: horizons double until
    one is admissible, then the bracket is searched for the first
    admissible count. If doubling exhausts k_max, targets are consumed in
    Gramian-ball chunks span by span instead.

    The equations are posed at the final time t_k, in the engine's frame:
    ``sum_j F_j Q_nu(j) xi_j = -F_0 v_target`` with F_j the lambda_1-shifted
    flow from t_j to t_k (`Propagators.final_stack`). Pulling them back to
    time 0 multiplies both sides by the invertible F_0^{-1}, so the solution set
    and its minimum-norm element are the same, but the final-time blocks
    never grow exponentially, whatever eigenvalues P has below lambda_1.

    Requires full actuator supports and a coupling spectrum with real
    parts at most the first diffusion eigenvalue.

    Raises
    ------
    HorizonExhaustedError
        When no admissible control exists within k_max impulses; carries
        the smallest impulse sup-norm seen.
    """
    check_cycle(system, sched)
    if not system.has_full_supports():
        raise ValueError("mode-1 steering requires every support to be the full interval")
    _spectral_guard(system.coupling, system.first_eigenvalue)
    v = np.asarray(v_target, dtype=float).reshape(-1)
    if v.shape[0] != system.n:
        raise ValueError(f"target must have {system.n} components")
    return _steer_mode1(Propagators(system, sched), sched, v, k_max)


def _steer_mode1(props, sched, v, k_max):
    """`steer_first_mode` of a checked target vector v on a prebuilt engine."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    system = props.system
    if float(np.linalg.norm(v)) == 0.0:
        return SteeringResult(
            controls=ControlSequence(impulses=()),
            horizon_k=0,
            final_state=zero_state(system),
            residual=0.0,
            certificate="exact",
        )

    m = system.m

    def solution_at(k):
        """Min-l2-norm exact solution of sum_j F_j Q_nu(j) xi_j = -F_0 v and
        its largest impulse norm, or None."""
        to_final, S, _ = props.final_stack(k)
        try:
            flat = min_norm_solve(S, -(to_final[0][0] @ v), require_exact=True)
        except UnreachableTargetError:
            return None
        xi = [flat[j * m : (j + 1) * m] for j in range(k)]
        return xi, max(float(np.linalg.norm(x)) for x in xi)

    best_sup = math.inf
    accepted = None
    k = 1
    while True:
        found = solution_at(k)
        if found is not None:
            best_sup = min(best_sup, found[1])
            if found[1] <= 1.0 + BUDGET_SLACK:
                accepted = (k, found[0])
                break
        if k == k_max:
            break
        k = min(2 * k, k_max)

    if accepted is not None:
        hi, xi = accepted
        lo = hi // 2 + 1
        while lo < hi:
            mid = (lo + hi) // 2
            cand = solution_at(mid)
            if cand is not None and cand[1] <= 1.0 + BUDGET_SLACK:
                hi, xi = mid, cand[0]
            else:
                lo = mid + 1
        xi_list, k_used = xi, hi
    else:
        try:
            xi_list = _chunked_mode1(props, sched, v, k_max)
        except HorizonExhaustedError as err:
            raise HorizonExhaustedError(
                str(err), best_sup=min(best_sup, err.best_sup)
            ) from None
        k_used = len(xi_list)

    controls = ControlSequence(impulses=tuple(_mode1_controls(system, xi_list)))
    x0 = zero_state(system)
    x0[:, 0] = v
    final = _propagate(props, x0, controls.impulses, k_used)
    mode1 = float(np.linalg.norm(final[:, 0]))
    if mode1 > 1e-9 * float(np.linalg.norm(v)):
        raise RuntimeError(
            f"steering verification failed: mode-1 residual {mode1:.3e}"
        )
    return SteeringResult(
        controls=controls,
        horizon_k=k_used,
        final_state=final,
        residual=l2_norm(final),
        certificate="exact",
        details={"smallest_sup_norm": min(best_sup, controls.max_norm())},
    )


def decay_horizon(system, sched, remainder, eps, min_index=0, k_max=None):
    """First impulse index at which the free flow of `remainder` fits in eps.

    The remainder must have zero first-mode coefficient; all its modes
    then decay strictly faster than the flow's operator norm, so the
    index is finite whenever the coupling spectrum stays at or below the
    first diffusion eigenvalue. Each index is checked with the one-shot
    flow over t_k. A standalone estimate: `gcac_synthesize` does not call
    it, it coasts on the engine's step maps instead.

    Raises
    ------
    HorizonExhaustedError
        When k_max is given and the flow is still above eps at index k_max.
    """
    check_cycle(system, sched)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    remainder = np.asarray(remainder, dtype=float)
    scale = l2_norm(remainder)
    if np.max(np.abs(remainder[:, 0])) > 1e-12 * max(scale, 1.0):
        raise ValueError("remainder must have zero first-mode coefficient")
    _spectral_guard(system.coupling, system.first_eigenvalue)
    k = min_index
    while l2_norm(apply_semigroup(system, remainder, time_at(sched, k))) > eps:
        if k_max is not None and k >= k_max:
            raise HorizonExhaustedError(
                f"free decay of the remainder is still above eps at horizon {k_max}"
            )
        k += 1
    return k


def gcac_synthesize(system, sched, x0, eps, k_max):
    """Steer x0 into the eps-ball with unit-ball impulses, full supports.

    Cancels the mode-1 part of x0 exactly with the core of
    `steer_first_mode`, then coasts on the same engine's step maps, one
    impulse index at a time, until
    the whole state has decayed into the eps-ball; the returned state is
    the loop of `simulate` at that horizon, bit for bit. The certificate
    is 'epsilon-ball' and the horizon never exceeds k_max: running out of
    impulses, in the steering phase or while coasting, raises
    HorizonExhaustedError.
    """
    check_cycle(system, sched)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not system.has_full_supports():
        raise ValueError("this synthesis requires full actuator supports")
    _spectral_guard(system.coupling, system.first_eigenvalue)
    x0 = _check_state(system, x0).copy()
    return _gcac(Propagators(system, sched), sched, x0, eps, k_max)


def _gcac(props, sched, x0, eps, k_max):
    """`gcac_synthesize` of a validated x0 on a prebuilt engine."""
    v, _ = project_H1(props.system, x0)
    controls, k = ControlSequence(impulses=()), 0
    if float(np.linalg.norm(v)) > 0.0:
        steer = _steer_mode1(props, sched, v, k_max)
        controls, k = steer.controls, steer.horizon_k

    final = _propagate(props, x0, controls.impulses, k)
    while (residual := l2_norm(final)) > eps:
        if k >= k_max:
            raise HorizonExhaustedError(
                f"residual {residual:.3e} still above eps at horizon {k_max}"
            )
        k += 1
        final = props.advance(final, k)
    return SteeringResult(
        controls=controls,
        horizon_k=k,
        final_state=final,
        residual=residual,
        certificate="epsilon-ball",
    )


def null_steer(system, sched, x0, k_star):
    """Exact null steering in k_star impulses, mode by mode.

    Solves the minimum-norm exact steering problem separately for every
    mode of the truncation, all modes in one stacked pseudo-inverse; the
    aggregate l2 norm of the controls is at most sqrt(C(k_star)) ||x0||
    with C from `finite_obs_constant`, but individual impulses may exceed
    the unit ball (the result is flagged unconstrained).

    Raises
    ------
    RankDeficiencyError
        When the gain stack does not span all components at k_star.
    RuntimeError
        When the per-mode solves fail to reproduce a zero state to
        floating-point accuracy.
    """
    check_cycle(system, sched)
    if not system.has_full_supports():
        raise ValueError("null steering requires every support to be the full interval")
    if k_star < 1:
        raise ValueError("k_star must be at least 1")
    _require_rank(
        system, sched, k_star, f"gain stack does not span all components at horizon {k_star}"
    )

    x0 = _check_state(system, x0).copy()
    return _null_steer(Propagators(system, sched), x0, k_star)


def _null_steer(props, x0, k_star):
    """`null_steer` of a validated x0 on a prebuilt engine, with no rank search."""
    A, b = _null_equations(props, x0, k_star)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("null steering equations must be finite")
    xi = np.matmul(np.linalg.pinv(A, rcond=1e-14), b[:, :, None])[:, :, 0]
    # the equation residual of mode i is its final coefficient itself
    error = float(np.linalg.norm(np.matmul(A, xi[:, :, None])[:, :, 0] - b))
    scale = l2_norm(x0)
    if error > 1e-10 * max(scale, 1.0):
        raise RuntimeError(
            "null steering lost exactness: predicted residual "
            f"{error:.3e} for a state of norm {scale:.3e}"
        )
    m = props.system.m
    impulses = tuple(xi[:, j * m : (j + 1) * m].T.copy() for j in range(k_star))
    controls = ControlSequence(impulses=impulses, constrained=False)
    final = _propagate(props, x0, controls.impulses, k_star)
    return SteeringResult(
        controls=controls,
        horizon_k=k_star,
        final_state=final,
        residual=l2_norm(final),
        certificate="exact",
    )


def _null_equations(props, x0, k):
    """Per-mode null steering equations ``A_i xi_i = b_i``, stacked over modes.

    A has shape (N, n, k m): A_i is the engine's final-time gain stack
    with block j scaled by the decay of mode i relative to mode 1 from t_j
    to t_k. b, shape (N, n), is minus the free final state, mode by mode.
    """
    to_final, blocks, G = props.final_stack(k)
    F0, d0 = to_final[0]
    A = blocks[None, :, :] * G.T[:, None, :]
    b = -((F0 @ x0) * d0[None, :]).T
    return A, b


def constrained_null_synthesize(system, sched, x0, k_max):
    """Exact null steering with every impulse inside the unit ball.

    Runs the eps-ball synthesis down to the radius at which the
    minimum-norm null control is guaranteed admissible, coasts to the
    next period boundary, and finishes with exact null steering from
    there. The radius is 1/(M sqrt(C(k*))) where C(k*) is the finite
    observability constant and M, the bound on the flow's growth over one
    period, is the sum of the spectral norms of the engine's maps from
    t_j to t_hbar, j = 0..hbar-1. Every phase runs on one engine after one
    rank search, the one that finds k*: the cores of `gcac_synthesize` and
    `null_steer`, not the public calls. The coast and the null phase
    continue the ball phase's state on the loop of `simulate`, so a replay
    of the whole sequence reproduces the result.
    """
    check_cycle(system, sched)
    if not system.has_full_supports():
        raise ValueError("this synthesis requires full actuator supports")
    _spectral_guard(system.coupling, system.first_eigenvalue)
    x0 = _check_state(system, x0).copy()

    k_star = _require_rank(
        system, sched, k_max, f"gain stack never spans all components within {k_max} impulses"
    )
    gains = [system.gain(j) for j in range(1, system.hbar + 1)]
    taus = [time_at(sched, j) for j in range(1, k_star + 1)]
    C = finite_obs_constant(system.coupling, gains, taus).constant
    if math.isinf(C):
        raise RuntimeError(
            f"the observability Gramian at k_star = {k_star} is numerically "
            "singular: the unnormalized gain stack falls below the rank tolerance"
        )
    props = Propagators(system, sched)
    hbar = system.hbar
    growth = sum(float(np.linalg.norm(F, 2)) for F, _ in props.to_final(hbar)[:hbar])
    M = max(growth, 1.0)
    eps = 1.0 / (M * math.sqrt(C))

    if l2_norm(x0) <= eps:
        # already inside the ball: null steering alone is admissible
        prefix = []
        boundary = 0
        reached = x0
    else:
        ball = _gcac(props, sched, x0, eps, k_max)
        prefix = list(ball.controls.impulses)
        boundary = hbar * (ball.horizon_k // hbar + 1)
        if boundary + k_star > k_max:
            raise HorizonExhaustedError(
                f"period alignment needs {boundary + k_star} impulses, over {k_max}"
            )
        reached = ball.final_state
        for j in range(ball.horizon_k + 1, boundary + 1):
            reached = props.advance(reached, j)

    tail = _null_steer(props, reached, k_star)
    prefix += [np.zeros((system.m, system.domain.modes))] * (boundary - len(prefix))
    controls = ControlSequence(impulses=tuple(prefix + list(tail.controls.impulses)))
    return SteeringResult(
        controls=controls,
        horizon_k=boundary + k_star,
        final_state=tail.final_state,
        residual=tail.residual,
        certificate="exact",
        details={"ball_radius": eps, "period_bound": M, "obs_constant": C},
    )


class _HorizonModel:
    """Control-to-state map at one fixed horizon k, its adjoint and descent.

    Controls are one stacked (k, m, N) array, impulse j in block j - 1.
    From the zero state the map is linear: with S, shape (n, k m), and G,
    shape (k m, N), the engine's `final_stack` at k, the final-time gain
    stack and each control row's per-mode decay to t_k,
    ``apply(U) = S @ (project(U) * G)`` and its adjoint
    ``gradient(y) = project((S.T @ y) * G)``, where the engine's `project`
    applies each slot's Gram matrix to the rows of that slot's impulses in
    one product (nothing on a full support). A descent step is a few products
    over all impulses at once; `forward` stays the loop of `simulate`
    (`_propagate`), the replay every returned residual comes from. Like
    `_propagate`, the build and the descent run with numpy's overflow
    warnings off (`reachability_gap` turns them off for its dual side);
    an overflowed replay ends in NonFiniteStateError.
    """

    def __init__(self, props, k):
        system = props.system
        self.props = props
        self.k = k
        self.shape = (k, system.m, system.domain.modes)
        with np.errstate(over="ignore", invalid="ignore"):
            to_final, self.S, self.G = props.final_stack(k)
        self.F0, self.d0 = to_final[0]

    def forward(self, x0, impulses):
        return _propagate(self.props, x0, impulses, self.k)

    def free(self, x0):
        """Final state of x0 under no control, from the map t_0 -> t_k."""
        return (self.F0 @ x0) * self.d0[None, :]

    def apply(self, U):
        """Final state from the zero state under the stacked controls U."""
        return self.S @ (self.props.project(U).reshape(self.G.shape) * self.G)

    def gradient(self, final_state):
        """Stacked gradient of 0.5 * ||final state||^2: the adjoint of `apply`."""
        return self.props.project(((self.S.T @ final_state) * self.G).reshape(self.shape))

    def descend(self, x0, U, iters, rng):
        """`iters` projected gradient steps of size 1/(1.05 L) from the controls U.

        U has shape (k, m, N). Iterates are evaluated as ``free + apply``;
        every step divides each impulse by max(its norm, 1), and L is
        estimated from `rng`. Returns (residual, impulses, step, iteration)
        for the first iterate of smallest final-state norm, the last one
        included: iteration counts the steps taken from U (0 is U itself)
        and residual is the norm of the `forward` replay of impulses, so a
        `simulate` replay reproduces it bitwise.

        Raises NonFiniteStateError when that replay overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            # power iteration approaches the true constant from below; the
            # margin keeps the step at or under 1/L
            step = 1.0 / (_lipschitz_estimate(self, rng) * 1.05)
            free = self.free(x0)
            best_res, best_u, best_i = math.inf, U, 0
            for i in range(iters + 1):
                final = free + self.apply(U)
                res = l2_norm(final)
                if res < best_res:
                    best_res, best_u, best_i = res, U, i
                if i < iters:
                    U = U - step * self.gradient(final)
                    U /= np.maximum(np.linalg.norm(U, axis=(1, 2)), 1.0)[:, None, None]
            residual = l2_norm(self.forward(x0, best_u))
        if not math.isfinite(residual):
            raise NonFiniteStateError(f"the descent residual at horizon {self.k} overflowed")
        return residual, best_u, step, best_i


def _lipschitz_estimate(model, rng):
    """Top eigenvalue of (control map)^T (control map) by 40 power steps."""
    v = rng.standard_normal(model.shape)
    v /= np.linalg.norm(v)
    for _ in range(40):
        w = model.gradient(model.apply(v))
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 1.0
        v = w / lam
    return lam


def local_gcac_synthesize(system, sched, x0, eps, k_max):
    """Approximate steering with possibly local supports, by projected descent.

    Minimizes the final-state norm over unit-ball impulse sequences by one
    500-step `_HorizonModel.descend` per doubling horizon, warm-started from
    the best iterate so far, which only a strictly smaller residual
    replaces. Succeeds with certificate 'epsilon-ball' once the residual
    drops to eps; otherwise returns the best attempt with certificate
    'failed-horizon-exhausted'. Per horizon, `details` holds the step
    size, the best residual so far and the step at which that horizon's
    descent found its returned iterate.
    """
    check_cycle(system, sched)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    lam1 = system.first_eigenvalue
    if symmetric_part_max_eig(system.coupling) > lam1 + _spectral_tol(lam1):
        raise ValueError(
            "the symmetric part of the coupling matrix must stay at or below "
            "the first diffusion eigenvalue for descent-based steering"
        )
    _require_rank(
        system, sched, k_max, f"gain stack does not span all components within {k_max} impulses"
    )

    x0 = _check_state(system, x0).copy()
    if l2_norm(x0) <= eps:
        return SteeringResult(
            controls=ControlSequence(impulses=()),
            horizon_k=0,
            final_state=x0,
            residual=l2_norm(x0),
            certificate="epsilon-ball",
        )

    iterations = 500
    rng = np.random.default_rng(0)
    horizons = []
    k = min(2 * system.hbar, k_max)
    while True:
        horizons.append(k)
        if k == k_max:
            break
        k = min(2 * k, k_max)

    best_u = np.zeros((0, system.m, system.domain.modes))
    best_res = math.inf
    best_k = horizons[0]
    steps = {}
    winners = {}
    history = {}
    props = Propagators(system, sched)
    for k in horizons:
        model = _HorizonModel(props, k)
        u = np.zeros(model.shape)
        u[: len(best_u)] = best_u
        res, impulses, steps[k], winners[k] = model.descend(x0, u, iterations, rng)
        if res < best_res:
            best_res, best_u, best_k = res, impulses, k
        history[k] = best_res
        if best_res <= eps:
            break

    controls = ControlSequence(impulses=tuple(best_u))
    final = _propagate(props, x0, controls.impulses, best_k)
    residual = l2_norm(final)
    certificate = "epsilon-ball" if residual <= eps else "failed-horizon-exhausted"
    return SteeringResult(
        controls=controls,
        horizon_k=best_k,
        final_state=final,
        residual=residual,
        certificate=certificate,
        details={
            "step_sizes": steps,
            "iterations": iterations,
            "residual_by_horizon": history,
            "best_iteration_by_horizon": winners,
        },
    )
