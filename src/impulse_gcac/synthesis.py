"""Control synthesis for the truncated impulse system.

Four steering strategies, in increasing order of what they demand from the
system:

* exact mode-1 steering with unit-ball controls (full supports),
* approximate steering to any ball around the origin (full supports),
* approximate steering with proper subinterval supports, by FISTA on the
  truncation, whose dual bound proves a horizon infeasible,
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
search. Every map is posed in the engine's final-time frame, the
Gramian-ball fallback of mode-1 steering included.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .linalg import UnreachableTargetError, column_span, min_norm_solve
from .observability import (
    RankDeficiencyError,
    _dissipative,
    _rank_search,
    _spectral_class,
    _spectral_tol,
    finite_obs_constant,
)
from .schedule import check_cycle, time_at
from .spectral import (
    NonFiniteStateError,
    Propagators,
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
    "steer_first_mode",
    "decay_horizon",
    "gcac_synthesize",
    "local_gcac_synthesize",
    "null_steer",
    "constrained_null_synthesize",
]

# relative slack accepted when checking unit-ball membership
BUDGET_SLACK = 1e-12


def _doubling(k, k_max):
    """Horizons k, 2k, 4k, ..., capped at k_max, which ends the sequence."""
    while True:
        yield k
        if k >= k_max:
            return
        k = min(2 * k, k_max)


def _impulse_norms(U):
    """l2 norm of each impulse of a stacked (k, m) or (k, m, N) array.

    Squares are summed over the modes first, then over the actuators, so
    mode-1 coefficients (k, m) and the same impulses zero-padded to
    (k, m, N) have the same norms to the last bit: the admissibility test
    of mode-1 steering and the check of `ControlSequence` agree.
    """
    U = np.asarray(U, dtype=float)
    sq = np.einsum("kij,kij->ki", U, U) if U.ndim == 3 else np.square(U)
    return np.sqrt(np.add.reduce(sq, axis=1))


def _block_norms(V):
    """Frobenius norm of each V[j], bitwise `np.linalg.norm(V, axis=(1, 2))`."""
    return np.sqrt(np.add.reduce(V * V, axis=(1, 2)))


def _chunked_norms(impulses):
    """`_impulse_norms` of a tuple of equal-shape impulses, stacked 16 at a
    time: a stacked copy of a whole long sequence would raise the peak
    memory of a synthesis call."""
    chunks = [_impulse_norms(impulses[i : i + 16]) for i in range(0, len(impulses), 16)]
    return np.concatenate(chunks) if chunks else np.zeros(0)


class HorizonExhaustedError(RuntimeError):
    """No admissible control found within the allowed number of impulses.

    `best_sup` records the smallest impulse sup-norm any exact solution
    achieved before the horizon limit was hit (inf when none was exact).
    """

    def __init__(self, message, best_sup=math.inf):
        super().__init__(message)
        self.best_sup = best_sup


@dataclass(frozen=True)
class ControlSequence:
    """Impulse inputs u_1, ..., u_k as modal coefficient arrays.

    Attributes
    ----------
    impulses : tuple of ndarray
        Each entry has shape (m, N): per-actuator coefficients of the
        input profile in the domain basis.
    constrained : bool
        When True (the default), construction checks that every impulse
        lies in the unit ball ``||u_j|| <= 1``, the constraint set of the
        problem. Unconstrained sequences carry controls whose only
        guarantee is an aggregate l2 bound.

    The impulse norms the construction checks are kept, read-only, and
    every norm accessor reads them.
    """

    impulses: tuple
    constrained: bool = True
    _norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(np.asarray(u, dtype=float) for u in self.impulses)
        shaped = next(
            (j for j, u in enumerate(entries) if u.ndim != 2 or u.shape != entries[0].shape),
            len(entries),
        )
        # a non-finite entry makes its impulse's norm non-finite, and so does
        # a finite one whose square overflows: only those impulses are scanned
        norms = _chunked_norms(entries[:shaped])
        if not all(np.all(np.isfinite(entries[j])) for j in np.flatnonzero(~np.isfinite(norms))):
            raise ValueError("impulse entries must be finite")
        if shaped < len(entries):
            if entries[shaped].ndim != 2:
                raise ValueError("each impulse must be a 2-D coefficient array")
            raise ValueError("impulses must share one shape")
        norms.setflags(write=False)
        object.__setattr__(self, "impulses", entries)
        object.__setattr__(self, "_norms", norms)
        if self.constrained:
            over = np.flatnonzero(norms > 1.0 + BUDGET_SLACK)
            if over.size:
                j = int(over[0])
                raise ValueError(f"impulse {j + 1} has norm {norms[j]:.6g}, over budget 1")

    def __len__(self):
        return len(self.impulses)

    def norms(self):
        """Read-only array of the impulse norms ``||u_j||``, by `_impulse_norms`."""
        return self._norms

    def max_norm(self):
        """Largest single-impulse norm; 0 for an empty sequence."""
        return float(self._norms.max(initial=0.0))

    def l2_total(self):
        """Aggregate l2 norm sqrt(sum_j ||u_j||^2)."""
        return math.sqrt(sum(float(x) ** 2 for x in self._norms))


@dataclass(frozen=True)
class SteeringResult:
    """Outcome of one synthesis run.

    residual is derived, not passed: construction sets it to
    ``l2_norm(final_state)``, and every synthesizer produces final_state
    by the loop of `simulate`, so an independent replay reproduces it.
    certificate is 'exact' for steering that hits the target in the model,
    'epsilon-ball' for approximate steering, and 'failed-horizon-exhausted'
    when the search ran out of impulses (reported, never hidden).
    """

    controls: ControlSequence
    horizon_k: int
    final_state: np.ndarray
    residual: float = field(init=False)
    certificate: str
    details: Optional[dict] = None

    def __post_init__(self):
        object.__setattr__(self, "residual", l2_norm(self.final_state))


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
    if not np.isfinite(state).all():
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


def _require_rank(system, sched, k, message):
    """Smallest horizon <= k of full gain-stack rank, from the rank search.

    Raises RankDeficiencyError with `message` and, as witness, a unit
    direction orthogonal to every searched block when there is none.
    """
    k_star, null = _rank_search(system.coupling, system.gains, sched, k)
    if k_star is None:
        raise RankDeficiencyError(message, witness=null[:, 0])
    return k_star


def _spectral_guard(system):
    # synthesis for unbounded growth is out of contract
    if _spectral_class(system) == "violated":
        raise ValueError(
            "the coupling matrix has an eigenvalue with real part above the "
            "first diffusion eigenvalue; ball-targeted steering is not "
            "available for such systems"
        )


def _mode1_controls(system, xi_list):
    """Mode-1 coefficient vectors as full impulse arrays: the rows of one
    zero (k, m, N) array with the vectors in mode 1."""
    U = np.zeros((len(xi_list), system.m, system.domain.modes))
    U[:, :, 0] = xi_list
    return tuple(U)


def _chunked_mode1(props, sched, v, k_max):
    """Greedy Gramian-ball steering of a mode-1 target, one span at a time.

    The span is the first whole number of periods whose final-time stack
    ``(F0, S) = props.gain_stack(span)`` has full rank; its controls
    ``-S^T M^{-1} eta``, M = S S^T, reach any eta in the ball of radius
    ``delta = sigma_n^2 / sigma_max`` inside the unit ball. Every span
    flows its start coefficient x by the same F0 and steers with the same
    S: it cancels ``min(1, delta / ||y||) y`` of y = F0 x and hands the
    rest on, until nothing remains.
    """
    system = props.system
    for span in range(system.hbar, k_max + 1, system.hbar):
        F0, S = props.gain_stack(span)
        ball = column_span(S)
        if ball.rank == system.n:
            break
    else:
        raise HorizonExhaustedError(
            f"gain stack never reaches full rank within {k_max} impulses"
        )
    # small margin keeps the closed-form controls strictly inside the ball
    delta = ball.sigma_n**2 / ball.sigma_max * (1.0 - 1e-12)
    M = S @ S.T
    xi_list = []
    y = F0 @ v
    while (size := l2_norm(y)) > 0.0:
        if len(xi_list) + span > k_max:
            raise HorizonExhaustedError(
                f"target needs more than {k_max} impulses of Gramian-ball steering"
            )
        share = min(1.0, delta / size)
        xi_list.extend((-share * (S.T @ np.linalg.solve(M, y))).reshape(span, system.m))
        y = F0 @ ((1.0 - share) * y)
    return xi_list


def steer_first_mode(system, sched, v_target, k_max):
    """Drive the mode-1 coefficient to zero with unit-ball impulses.

    Looks for the smallest horizon k at which the minimum-l2-norm exact
    steering keeps every impulse inside the unit ball, up to the relative
    `BUDGET_SLACK` that `ControlSequence` accepts: horizons double until
    one is admissible, then the bracket is searched for the first
    admissible count. If doubling exhausts k_max, the target is consumed
    in Gramian-ball chunks of whole periods instead (`_chunked_mode1`),
    read from the same final-time stacks.

    The equations are posed at the final time t_k, in the engine's frame:
    ``sum_j F_j Q_nu(j) xi_j = -F_0 v_target`` with F_j the lambda_1-shifted
    flow from t_j to t_k (`Propagators.gain_stack`, which serves every
    candidate horizon of a slot from one stack). Pulling them back to
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
    _spectral_guard(system)
    v = np.asarray(v_target, dtype=float).reshape(-1)
    if v.shape[0] != system.n:
        raise ValueError(f"target must have {system.n} components")
    x0 = zero_state(system)
    x0[:, 0] = v
    return _steer_mode1(Propagators(system, sched), sched, x0, k_max)


def _steer_mode1(props, sched, x0, k_max):
    """`steer_first_mode` of the mode-1 part v of a checked state x0, on a
    prebuilt engine; the controls are replayed from x0 itself, and mode 1 is
    checked on column 0 of that replay, the result's final state."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    system = props.system
    v = x0[:, 0].copy()
    if l2_norm(v) == 0.0:
        return SteeringResult(
            controls=ControlSequence(impulses=()),
            horizon_k=0,
            final_state=zero_state(system),
            certificate="exact",
        )

    m = system.m

    def solution_at(k):
        """Min-l2-norm exact solution of sum_j F_j Q_nu(j) xi_j = -F_0 v and
        its largest impulse norm, or None."""
        F0, S = props.gain_stack(k)
        try:
            flat = min_norm_solve(S, -(F0 @ v), require_exact=True)
        except UnreachableTargetError:
            return None
        xi = flat.reshape(k, m)
        return xi, float(_impulse_norms(xi).max())

    best_sup = math.inf
    accepted = None
    for k in _doubling(1, k_max):
        found = solution_at(k)
        if found is not None:
            best_sup = min(best_sup, found[1])
            if found[1] <= 1.0 + BUDGET_SLACK:
                accepted = (k, found[0])
                break

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

    controls = ControlSequence(impulses=_mode1_controls(system, xi_list))
    final = _propagate(props, x0, controls.impulses, k_used)
    mode1 = l2_norm(final[:, 0])
    if mode1 > 1e-9 * l2_norm(v):
        raise RuntimeError(
            f"steering verification failed: mode-1 residual {mode1:.3e}"
        )
    return SteeringResult(
        controls=controls,
        horizon_k=k_used,
        final_state=final,
        certificate="exact",
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
    _spectral_guard(system)
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
    _spectral_guard(system)
    x0 = _check_state(system, x0).copy()
    return _gcac(Propagators(system, sched), sched, x0, eps, k_max)


def _gcac(props, sched, x0, eps, k_max):
    """`gcac_synthesize` of a validated x0 on a prebuilt engine."""
    controls, k, final = ControlSequence(impulses=()), 0, x0
    if l2_norm(x0[:, 0]) > 0.0:
        steer = _steer_mode1(props, sched, x0, k_max)
        controls, k, final = steer.controls, steer.horizon_k, steer.final_state
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
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("null steering equations must be finite")
    # a dead mode has b_i = 0, whose minimum-norm solution is 0
    xi = np.zeros((x0.shape[1], A.shape[2]))
    xi[: len(A)] = np.matmul(np.linalg.pinv(A, rcond=1e-14), b[:, :, None])[:, :, 0]
    # the equation residual of mode i is its final coefficient itself
    error = l2_norm(np.matmul(A, xi[: len(A), :, None])[:, :, 0] - b)
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
        certificate="exact",
    )


def _null_equations(props, x0, k):
    """Per-mode null steering equations ``A_i xi_i = b_i``, stacked over modes.

    A has shape (p, n, k m): A_i is the engine's final-time gain stack
    with block j scaled by the decay of mode i relative to mode 1 from t_j
    to t_k. b, shape (p, n), is minus the free final state, mode by mode.
    p is the live prefix of the decay from t_0 to t_k (`final_stack`'s
    live[0]); past it the free final state is exactly 0.
    """
    F0, d0, blocks, G, live = props.final_stack(k)
    A = blocks[None, :, :] * G.T[: live[0], None, :]
    b = -((F0 @ x0) * d0[None, :])[:, : live[0]].T
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
    _spectral_guard(system)
    x0 = _check_state(system, x0).copy()

    k_star = _require_rank(
        system, sched, k_max, f"gain stack never spans all components within {k_max} impulses"
    )
    taus = [time_at(sched, j) for j in range(1, k_star + 1)]
    C = finite_obs_constant(system.coupling, system.gains, taus).constant
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
        certificate="exact",
        details={"ball_radius": eps, "period_bound": M, "obs_constant": C},
    )


class _Descent(NamedTuple):
    """A `_HorizonModel.descend` result: step is the final 1/L (None when no
    step ran), best the step that produced impulses (0 is the start) and
    final_state the `forward` replay of impulses, whose norm is residual."""

    residual: float
    impulses: np.ndarray
    step: Optional[float]
    best: int
    bound: float
    steps: int
    final_state: np.ndarray


def _dual_bound(free, r, obs):
    """Lower bound on every unit-ball control's final-state norm from the
    direction r, given ``obs = gradient(r)``: the pairing of free + apply(U)
    with r / ||r|| is at least ``(<free, r> - sum_j ||obs_j||) / ||r||``.
    r and obs are first divided by r's largest entry, so no square
    overflows before the bound itself would."""
    scale = float(np.abs(r).max())
    if scale == 0.0:
        return 0.0
    r, obs = r / scale, obs / scale
    paired = float(np.vdot(free, r)) - float(_block_norms(obs).sum())
    return paired / l2_norm(r)


def _verdict(residual, bound, eps):
    """'reached', 'infeasible' (the bound exceeds eps beyond rounding) or 'undecided'."""
    if residual <= eps:
        return "reached"
    return "infeasible" if bound > eps * (1.0 + 1e-9) else "undecided"


_CUT_SAVING = 2**18  # multiply-adds per product; see _HorizonModel


class _HorizonModel:
    """Control-to-state map at one fixed horizon k, its adjoint and descent.

    Controls are one stacked (k, m, N) array, impulse j in block j - 1.
    From the zero state the map is linear: with S, shape (n, k m), and G,
    shape (k m, N), the engine's `final_stack` at k, the final-time gain
    stack and each control row's per-mode decay to t_k,
    ``apply(U) = S @ (project(U) * G)`` and its adjoint
    ``gradient(y) = project((S.T @ y) * G)``, where the engine's `project`
    applies each slot's Gram matrix to the rows of that slot's impulses in
    one product (nothing on a full support). When every slot has a Gram
    matrix, a slot's rows run on the largest live prefix (`final_stack`)
    of its earlier impulses and the last impulse adds the rest, where that
    saves `_CUT_SAVING` multiply-adds per product (about 20 us of numpy
    calls on one core of a 2-core x86 machine); this matches the uncut
    product to rounding, not bitwise. A descent step is one `apply`
    and one `gradient` over all impulses at once, and its gradient also
    gives a dual bound; `forward` stays the loop of `simulate`
    (`_propagate`), the replay every returned residual comes from. Like
    `_propagate`, the build and the descent run with numpy's overflow
    warnings off (`reachability_gap` turns them off for its dual side);
    an overflow in the descent or its replay ends in NonFiniteStateError.
    """

    def __init__(self, props, k):
        system = props.system
        n, m, N = system.n, system.m, system.domain.modes
        self.props = props
        self.k = k
        self.shape = (k, m, N)
        with np.errstate(over="ignore", invalid="ignore"):
            self.F0, self.d0, self.S, self.G, live = props.final_stack(k)
        # pieces (blocks, modes, gram, S, G): each slot's rows on its cut,
        # then the last impulse on the modes above its slot's cut
        h, cuts = props.hbar, []
        for r in range(min(h, k)):
            earlier = live[r + 1 : k : h]
            p = max(earlier, default=N)
            cuts.append(p if earlier.size * m * N * (N - p) >= _CUT_SAVING else N)
        self.pieces = None
        if min(cuts) < N and all(gram is not None for _, gram in props.jumps):
            S, G, f = self.S.reshape(n, k, m), self.G.reshape(k, m, N), (k - 1) % h
            spans = [(r, slice(r, k, h), slice(0, p)) for r, p in enumerate(cuts)]
            spans.append((f, slice(k - 1, k), slice(cuts[f], N)))
            self.pieces = [
                (b, c, props.jumps[r][1], S[:, b].reshape(n, -1), np.concatenate(G[b, :, c]))
                for r, b, c in spans
                if c.start < c.stop
            ]

    def forward(self, x0, impulses):
        return _propagate(self.props, x0, impulses, self.k)

    def free(self, x0):
        """Final state of x0 under no control, from the map t_0 -> t_k."""
        return (self.F0 @ x0) * self.d0[None, :]

    def apply(self, U):
        """Final state from the zero state under the stacked controls U."""
        if self.pieces is None:
            return self.S @ (self.props.project(U).reshape(self.G.shape) * self.G)
        out = np.zeros((len(self.S), self.shape[2]))
        for blocks, modes, gram, S, G in self.pieces:
            # gram is symmetric, and its rows are contiguous, its columns not
            out[:, modes] += S @ ((U[blocks].reshape(len(G), -1) @ gram[modes].T) * G)
        return out

    def gradient(self, final_state):
        """Stacked gradient of 0.5 * ||final state||^2: the adjoint of `apply`."""
        if self.pieces is None:
            return self.props.project(((self.S.T @ final_state) * self.G).reshape(self.shape))
        out = np.zeros(self.shape)
        for blocks, modes, gram, S, G in self.pieces:
            Z = (S.T @ final_state[:, modes]) * G
            out[blocks] += (Z @ gram[modes]).reshape(-1, *self.shape[1:])
        return out

    def descend(self, x0, U, iters, eps=None):
        """At most `iters` FISTA steps with backtracking from the controls U.

        Minimizes ``0.5 ||free + apply(V)||^2`` over V, shape (k, m, N), in
        the product of unit balls (A. Beck and M. Teboulle, SIAM J. Imaging
        Sci. 2 (2009), sec. 4). Each step projects ``Y - gradient(Y) / L``
        at the extrapolated point Y, dividing each impulse by max(its norm,
        1), and doubles L until the quadratic upper bound holds at the
        result; L starts at the Rayleigh quotient of the first gradient.
        The image of Y is the same combination of the last two iterates'
        images, so a step costs one `apply` and one `gradient`.

        Every gradient, at r = free + apply(Y), gives the dual bound
        `_dual_bound`, and the best one is kept. With eps the descent stops
        once an iterate's residual is at most eps or the bound proves eps
        out of reach (`_verdict`); without it, once the bound is within a
        relative 1e-10 of the best residual.

        Returns a `_Descent` for the first iterate of smallest final-state
        norm; its residual is the norm of the `forward` replay of the
        impulses, so a `simulate` replay reproduces it bitwise. Raises
        NonFiniteStateError when an iterate, a gradient or the replay
        overflows.
        """
        overflow = NonFiniteStateError(f"the descent at horizon {self.k} overflowed")
        with np.errstate(over="ignore", invalid="ignore"):
            free = self.free(x0)
            Y = U
            AU = AY = self.apply(U)
            t, L, bound, steps = 1.0, None, -math.inf, 0
            best_res, best_u, best_i = l2_norm(free + AU), U, 0
            while True:
                r = free + AY
                g = self.gradient(r)
                bound = max(bound, _dual_bound(free, r, g))
                if not math.isfinite(bound):
                    raise overflow
                if steps == iters:
                    break
                if eps is None:
                    if best_res - bound <= 1e-10 * best_res:
                        break
                elif _verdict(best_res, bound, eps) != "undecided":
                    break
                if L is None:
                    # the first gradient's Rayleigh quotient, at most the
                    # Lipschitz constant (1 when that gradient vanishes); d
                    # has entries of at most 1, so no square overflows
                    d = g / (float(np.abs(g).max()) or 1.0)
                    L = float(np.square(l2_norm(self.apply(d)) / (l2_norm(d) or 1.0))) or 1.0
                # the slack absorbs the rounding of A (V - Y) once steps are tiny
                slack = 1e-12 * float(np.vdot(r, r))
                for _ in range(60):
                    V = Y - g / L
                    V /= np.maximum(_block_norms(V), 1.0)[:, None, None]
                    AV = self.apply(V)
                    dA, dV = AV - AY, V - Y
                    curve = float(np.vdot(dA, dA))
                    if not (math.isfinite(curve) and math.isfinite(L)):
                        raise overflow
                    if curve <= L * float(np.vdot(dV, dV)) + slack:
                        break
                    L *= 2.0
                else:
                    break  # rounding swamps the curvature: no step is verifiable
                steps += 1
                res = l2_norm(free + AV)
                if res < best_res:
                    best_res, best_u, best_i = res, V, steps
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                beta = (t - 1.0) / t_next
                Y, AY = V + beta * (V - U), AV + beta * (AV - AU)
                U, AU, t = V, AV, t_next
            final = self.forward(x0, best_u)
            residual = l2_norm(final)
        if not math.isfinite(residual):
            raise overflow
        return _Descent(residual, best_u, 1.0 / L if steps else None, best_i, bound, steps, final)


def local_gcac_synthesize(system, sched, x0, eps, k_max):
    """Approximate steering with possibly local supports, by FISTA descent.

    Minimizes the final-state norm over unit-ball impulse sequences by one
    `_HorizonModel.descend` of at most 500 steps per doubling horizon,
    warm-started from the best iterate so far, which only a strictly
    smaller residual replaces. Each descent stops once its horizon is
    reached or its dual bound proves the horizon infeasible. Succeeds with
    certificate 'epsilon-ball' once the residual drops to eps; otherwise
    returns the best attempt with certificate 'failed-horizon-exhausted'.

    Per horizon, `details` holds the verdict ('reached', 'infeasible' or
    'undecided'), the best dual bound, the steps run, the final step size
    1/L, the best residual so far and the step that produced that
    horizon's returned iterate. `details["bracket"]` is (lower, upper):
    upper is the first reached horizon (None when none is), and every
    horizon up to lower is infeasible, since lower's bound exceeds eps by
    the growth factor ``exp(tol t_lower)``, tol = `_spectral_tol`, that
    `_dissipative` lets a coasting state gain (0 when no horizon
    qualifies; x0 itself lies outside the ball).
    """
    check_cycle(system, sched)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if not _dissipative(system):
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
            certificate="epsilon-ball",
        )

    iterations = 500
    tol = _spectral_tol(system.first_eigenvalue)
    best_u = np.zeros((0, system.m, system.domain.modes))
    best_res, final = math.inf, None
    best_k = min(2 * system.hbar, k_max)  # the first horizon tried
    runs = {}
    verdicts = {}
    history = {}
    lower = 0
    props = Propagators(system, sched)
    for k in _doubling(best_k, k_max):
        model = _HorizonModel(props, k)
        u = np.zeros(model.shape)
        u[: len(best_u)] = best_u
        run = runs[k] = model.descend(x0, u, iterations, eps)
        if run.residual < best_res:
            best_res, best_u, best_k, final = run.residual, run.impulses, k, run.final_state
        history[k] = best_res
        verdicts[k] = _verdict(run.residual, run.bound, eps)
        if verdicts[k] == "infeasible" and run.bound > eps * math.exp(tol * time_at(sched, k)):
            lower = k
        if best_res <= eps:
            break

    certificate = "epsilon-ball" if best_res <= eps else "failed-horizon-exhausted"
    return SteeringResult(
        controls=ControlSequence(impulses=tuple(best_u)),
        horizon_k=best_k,
        final_state=final,
        certificate=certificate,
        details={
            "iterations": iterations,
            "residual_by_horizon": history,
            "best_iteration_by_horizon": {k: run.best for k, run in runs.items()},
            "step_sizes": {k: run.step for k, run in runs.items()},
            "verdict_by_horizon": verdicts,
            "bound_by_horizon": {k: run.bound for k, run in runs.items()},
            "steps_by_horizon": {k: run.steps for k, run in runs.items()},
            "bracket": (lower, best_k if certificate == "epsilon-ball" else None),
        },
    )
