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
state produced by `simulate`, so callers can re-verify any result by
replaying the controls. `simulate`, the descent model and the steering
and null-steering blocks take their maps from a `spectral.Propagators`
engine built once per public call: hbar matrix exponentials per schedule,
not one per impulse.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    UnreachableTargetError,
    column_span,
    mat_exp,
    min_norm_solve,
    spectrum,
    symmetric_part_max_eig,
)
from .observability import (
    RankDeficiencyError,
    _rank_search,
    finite_obs_constant,
    semigroup_norm,
)
from .schedule import check_cycle, nu, time_at
from .spectral import (
    Propagators,
    _PullbackTable,
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
    state = apply_semigroup(system, x0, 0.0)  # validates shape, copies
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
    if top > lam1 + 1e-9 * max(1.0, abs(lam1)):
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


def _exact_mode1_solution(blocks, v):
    """Min-l2-norm exact solution of sum_j S_j xi_j = -v, or None.

    The stack is scaled to unit spectral norm before the solve; the
    solution set is unchanged and the conditioning no longer depends on
    how much the flow has amplified late blocks.
    """
    S = np.hstack(blocks)
    scale = np.linalg.norm(S, 2)
    if scale == 0.0:
        return None
    try:
        flat = min_norm_solve(S / scale, -np.asarray(v) / scale, require_exact=True)
    except UnreachableTargetError:
        return None
    m = blocks[0].shape[1]
    return [flat[j * m : (j + 1) * m] for j in range(len(blocks))]


def _chunked_mode1(system, sched, v, k_max):
    """Greedy Gramian-ball steering of a mode-1 target, one span at a time.

    Each span of impulses reaches any target inside its delta-ball with
    unit-ball controls; the target is consumed in delta-sized pieces until
    nothing remains. Spans are full periods so later spans are time shifts
    of the first, which keeps every solve in well-scaled variables.
    """
    P = system.coupling
    lam1 = system.first_eigenvalue
    gains = [system.gain(j) for j in range(1, system.hbar + 1)]
    ok_k, _ = _rank_search(P, gains, sched, k_max)
    if ok_k is None:
        raise HorizonExhaustedError(
            f"gain stack never reaches full rank within {k_max} impulses"
        )
    span = system.hbar * math.ceil(ok_k / system.hbar)
    blocks = _shifted_blocks(P, gains, sched, span, lam1)
    M, delta = _gramian_ball(blocks, span)
    # small margin keeps the closed-form controls strictly inside the ball
    delta *= 1.0 - 1e-12
    # flow over one span: the inverse of the pull-back by span impulses
    span_flow = np.linalg.matrix_power(
        mat_exp(P - lam1 * np.eye(P.shape[0]), sched.period), span // system.hbar
    )

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

    Looks for the smallest horizon at which the minimum-l2-norm exact
    steering of -v_target keeps every impulse inside the unit ball:
    horizons double until one is admissible, then the bracket is searched
    for the first admissible count. If doubling exhausts k_max, targets
    are consumed in Gramian-ball chunks span by span instead.

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
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    P = system.coupling
    lam1 = system.first_eigenvalue
    _spectral_guard(P, lam1)
    v = np.asarray(v_target, dtype=float).reshape(-1)
    if v.shape[0] != system.n:
        raise ValueError(f"target must have {system.n} components")

    if float(np.linalg.norm(v)) == 0.0:
        final = zero_state(system)
        return SteeringResult(
            controls=ControlSequence(impulses=()),
            horizon_k=0,
            final_state=final,
            residual=0.0,
            certificate="exact",
        )

    props = Propagators(system, sched)
    blocks = []

    def solution_at(k):
        while len(blocks) < k:
            j = len(blocks) + 1
            blocks.append(props.pullback(j) @ system.gain(nu(sched, j)))
        return _exact_mode1_solution(blocks[:k], v)

    best_sup = math.inf
    accepted = None
    k = 1
    while True:
        xi = solution_at(k)
        if xi is not None:
            sup = max(float(np.linalg.norm(x)) for x in xi)
            best_sup = min(best_sup, sup)
            if sup <= 1.0:
                accepted = (k, xi)
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
            if cand is not None and max(float(np.linalg.norm(x)) for x in cand) <= 1.0:
                hi, xi = mid, cand
            else:
                lo = mid + 1
        xi_list, k_used = xi, hi
    else:
        try:
            xi_list = _chunked_mode1(system, sched, v, k_max)
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
    flow over t_k.

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

    Splits x0 into its mode-1 part and the rest, cancels the mode-1 part
    exactly with `steer_first_mode`, then coasts until the remaining
    modes have decayed below eps. The returned certificate is
    'epsilon-ball' and the horizon never exceeds k_max: running out of
    impulses, in the steering phase or while coasting, raises
    HorizonExhaustedError.
    """
    check_cycle(system, sched)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not system.has_full_supports():
        raise ValueError("this synthesis requires full actuator supports")
    _spectral_guard(system.coupling, system.first_eigenvalue)

    x0 = np.asarray(x0, dtype=float)
    v, remainder = project_H1(system, x0)
    if float(np.linalg.norm(v)) > 0.0:
        steer = steer_first_mode(system, sched, v, k_max)
        xi_impulses = list(steer.controls.impulses)
        k_steer = steer.horizon_k
    else:
        xi_impulses = []
        k_steer = 0

    k = decay_horizon(system, sched, remainder, eps, min_index=k_steer, k_max=k_max)
    controls = ControlSequence(impulses=tuple(xi_impulses))
    props = Propagators(system, sched)
    final = _propagate(props, apply_semigroup(system, x0, 0.0), controls.impulses, k)
    # stepwise flow differs from the one-shot flow by rounding only; extra
    # impulses of decay absorb it, each one step of the same loop, so the
    # state stays bit-identical to simulate at the new horizon
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

    x0 = apply_semigroup(system, x0, 0.0)  # validates shape, copies
    props = Propagators(system, sched)
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
    m = system.m
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

    A has shape (N, n, k m): block j of A_i is the lam1-shifted flow from
    t_j to t_k applied to Q_nu(j), times the decay of mode i relative to
    mode 1 over that time. This final-time form keeps every entry
    representable: blocks carry decay, never growth. b, shape (N, n), is
    minus the free final state, mode by mode.
    """
    system = props.system
    to_final = props.to_final(k)
    F0, d0 = to_final[0]
    blocks = np.hstack(
        [F @ props.jumps[(j - 1) % props.hbar][0] for j, (F, _) in enumerate(to_final[1:], 1)]
    )
    gaps = np.repeat(np.array([d for _, d in to_final[1:]]), system.m, axis=0)
    A = blocks[None, :, :] * gaps.T[:, None, :]
    b = -((F0 @ x0) * d0[None, :]).T
    return A, b


def constrained_null_synthesize(system, sched, x0, k_max):
    """Exact null steering with every impulse inside the unit ball.

    Runs the eps-ball synthesis down to the radius at which the
    minimum-norm null control is guaranteed admissible, coasts to the
    next period boundary, and finishes with `null_steer` from there. The
    radius is 1/(M sqrt(C(k*))) where M bounds the flow's growth over one
    period and C(k*) is the finite observability constant.
    """
    check_cycle(system, sched)
    if not system.has_full_supports():
        raise ValueError("this synthesis requires full actuator supports")
    _spectral_guard(system.coupling, system.first_eigenvalue)

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
    hbar = system.hbar
    growth = sum(
        semigroup_norm(system, sched.period - time_at(sched, j)) for j in range(hbar)
    )
    M = max(growth, 1.0)
    eps = 1.0 / (M * math.sqrt(C))

    x0 = np.asarray(x0, dtype=float)
    if l2_norm(x0) <= eps:
        # already inside the ball: null steering alone is admissible
        prefix = []
        boundary = 0
        reached = x0
    else:
        ball = gcac_synthesize(system, sched, x0, eps, k_max)
        prefix = list(ball.controls.impulses)
        prefix += [np.zeros((system.m, system.domain.modes))] * (
            ball.horizon_k - len(prefix)
        )
        boundary = hbar * (ball.horizon_k // hbar + 1)
        if boundary + k_star > k_max:
            raise HorizonExhaustedError(
                f"period alignment needs {boundary + k_star} impulses, over {k_max}"
            )
        reached = simulate(
            system, sched, x0, ControlSequence(impulses=tuple(prefix)), boundary
        )

    tail = null_steer(system, sched, reached, k_star)
    prefix += [np.zeros((system.m, system.domain.modes))] * (boundary - len(prefix))
    controls = ControlSequence(impulses=tuple(prefix + list(tail.controls.impulses)))
    k_total = boundary + k_star
    final = simulate(system, sched, x0, controls, k_total)
    return SteeringResult(
        controls=controls,
        horizon_k=k_total,
        final_state=final,
        residual=l2_norm(final),
        certificate="exact",
        details={"ball_radius": eps, "period_bound": M, "obs_constant": C},
    )


class _HorizonModel:
    """Control-to-state map at one fixed horizon k, and its adjoint.

    Both sides come from one `Propagators` engine: `forward` is the loop
    of `simulate` (`Propagators.advance`), so it equals `simulate` bitwise
    for k impulses; `back` holds, per impulse j, the adjoint flow from t_j
    to t_k as the transpose of the engine's `to_final` map, with its
    per-mode decay.
    """

    def __init__(self, props, k):
        self.props = props
        self.system = props.system
        self.k = k
        self.jumps = [props.jumps[(j - 1) % props.hbar] for j in range(1, k + 1)]
        self.back = [(F.T, d) for F, d in props.to_final(k)[1:]]

    def forward(self, x0, impulses):
        return _propagate(self.props, x0, impulses, self.k)

    def gradient(self, final_state):
        """Per-impulse gradient of 0.5 * ||final state||^2."""
        grads = []
        for (F, decay), (gain, gram) in zip(self.back, self.jumps):
            pulled = (F @ final_state) * decay[None, :]
            y = gain.T @ pulled
            grads.append(y if gram is None else y @ gram)
        return grads


def _clip_unit(u):
    norm = float(np.linalg.norm(u))
    return u if norm <= 1.0 else u / norm


def _control_norm(impulses):
    return math.sqrt(sum(float(np.linalg.norm(u)) ** 2 for u in impulses))


def _lipschitz_estimate(model, rng, iters=40):
    """Top eigenvalue of (control map)^T (control map) by power iteration."""
    m, N = model.system.m, model.system.domain.modes
    zero = zero_state(model.system)
    v = [rng.standard_normal((m, N)) for _ in range(model.k)]
    scale = _control_norm(v)
    v = [u / scale for u in v]
    lam = 1.0
    for _ in range(iters):
        w = model.gradient(model.forward(zero, v))
        lam = _control_norm(w)
        if lam == 0.0:
            return 1.0
        v = [u / lam for u in w]
    return lam


def local_gcac_synthesize(system, sched, x0, eps, k_max):
    """Approximate steering with possibly local supports, by projected descent.

    Minimizes the final-state norm over unit-ball impulse sequences at
    doubling horizons, warm-starting each horizon from the last and
    keeping the best iterate ever seen, so the reported residual never
    increases as the horizon grows. Succeeds with certificate
    'epsilon-ball' once the residual drops to eps; otherwise returns the
    best attempt with certificate 'failed-horizon-exhausted'.
    """
    check_cycle(system, sched)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    lam1 = system.first_eigenvalue
    if symmetric_part_max_eig(system.coupling) > lam1 + 1e-9 * max(1.0, abs(lam1)):
        raise ValueError(
            "the symmetric part of the coupling matrix must stay at or below "
            "the first diffusion eigenvalue for descent-based steering"
        )
    _require_rank(
        system, sched, k_max, f"gain stack does not span all components within {k_max} impulses"
    )

    x0 = np.asarray(x0, dtype=float)
    m, N = system.m, system.domain.modes
    if l2_norm(x0) <= eps:
        final = simulate(system, sched, x0, ControlSequence(impulses=()), 0)
        return SteeringResult(
            controls=ControlSequence(impulses=()),
            horizon_k=0,
            final_state=final,
            residual=l2_norm(final),
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

    best_u = []
    best_res = math.inf
    best_k = horizons[0]
    steps = {}
    history = {}
    props = Propagators(system, sched)
    for k in horizons:
        model = _HorizonModel(props, k)
        u = [x.copy() for x in best_u] + [np.zeros((m, N))] * (k - len(best_u))
        # power iteration approaches the true constant from below; the
        # margin keeps the step at or under 1/L
        L = _lipschitz_estimate(model, rng) * 1.05
        step = 1.0 / L
        steps[k] = step
        for _ in range(iterations):
            final = model.forward(x0, u)
            res = l2_norm(final)
            if res < best_res:
                best_res = res
                best_u = [x.copy() for x in u]
                best_k = k
            grads = model.gradient(final)
            u = [_clip_unit(x - step * g) for x, g in zip(u, grads)]
        final = model.forward(x0, u)
        if l2_norm(final) < best_res:
            best_res = l2_norm(final)
            best_u = [x.copy() for x in u]
            best_k = k
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
        },
    )
