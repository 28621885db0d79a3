"""Property tests: the propagator engine, the span helper, and the
identities, rank decisions and synthesizer contracts built on them.

Hypothesis runs these under the deterministic "tier1" profile registered
in conftest.py. Systems are drawn from a seed plus a few structural
choices: the dimension, the number of controllers, how far the coupling
spectrum stays below the first diffusion eigenvalue, and the period.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impulse_gcac.linalg import RANK_TOL, column_span, mat_exp, min_norm_solve, numerical_rank
from impulse_gcac.observability import (
    RankDeficiencyError,
    _batch_readings,
    _observation_sum,
    _rank_search,
    _reading_maps,
    finite_obs_constant,
    rank_condition,
)
from impulse_gcac.schedule import ImpulseSchedule, nu, time_at
from impulse_gcac.spectral import (
    Propagators,
    _PullbackTable,
    apply_adjoint_semigroup,
    l2_norm,
    random_state,
    zero_state,
)
from impulse_gcac.synthesis import (
    BUDGET_SLACK,
    ControlSequence,
    _HorizonModel,
    _null_equations,
    constrained_null_synthesize,
    gcac_synthesize,
    gramian_delta,
    local_gcac_synthesize,
    null_steer,
    simulate,
)
from impulse_gcac.witness import reachability_gap

from conftest import make_system

LAM1 = 1.0  # first diffusion eigenvalue on (0, pi)


@st.composite
def strict_systems(draw, local=False, modes=6, dissipative=False, periods=(0.02, 0.25)):
    """(system, sched) with every coupling eigenvalue strictly below LAM1.

    Coupling entries lie in [-0.5, 0.5] before the shift and the period in
    [0.02, 0.25] by default, so pull-back maps up to 512 impulses stay
    representable. With dissipative=True the symmetric part of the
    coupling, not only its spectrum, stays strictly below LAM1.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 3))
    hbar = draw(st.integers(1, 2))
    margin = draw(st.floats(0.01, 1.0))
    period = draw(st.floats(*periods))
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-0.5, 0.5, (n, n))
    if dissipative:
        top = float(np.linalg.eigvalsh(0.5 * (raw + raw.T))[-1])
    else:
        top = float(np.linalg.eigvals(raw).real.max())
    P = raw - (top - (LAM1 - margin)) * np.eye(n)
    gains = [rng.standard_normal((n, n)) for _ in range(hbar)]
    supports = None
    if local:
        supports = [(0.0, float(rng.uniform(0.5, 3.0))) for _ in range(hbar)]
    fractions = np.sort(rng.uniform(0.2, 0.9, hbar - 1))
    base = tuple(float(period * f) for f in fractions) + (period,)
    system = make_system(P, gains, supports=supports, modes=modes)
    return system, ImpulseSchedule(base_times=base)


def oracle_exp(M, t):
    """exp(M t) in 40-digit arithmetic, rounded to floats."""
    with mpmath.workdps(40):
        out = mpmath.expm(mpmath.matrix(M.tolist()) * mpmath.mpf(t))
        return np.array(out.tolist(), dtype=float)


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@given(strict_systems(), st.integers(1, 512))
def test_engine_maps_match_direct_exponentials(case, k):
    system, sched = case
    props = Propagators(system, sched)
    P, n = system.coupling, system.n
    shifted = P - LAM1 * np.eye(n)
    # step maps: one per slot, against the direct flow between impulses
    for j in sorted({1, sched.hbar, k}):
        E, decay = props.steps[(j - 1) % sched.hbar]
        dt = time_at(sched, j) - time_at(sched, j - 1)
        assert rel_err(E, mat_exp(shifted, dt)) <= 1e-12
        lam = system.domain.eigenvalues()
        assert np.allclose(decay, np.exp(-(lam - LAM1) * dt), rtol=1e-12, atol=0.0)
    # pull-backs: the first period against direct mat_exp, and out to k
    # against a high-precision oracle (direct mat_exp itself drifts to
    # about 4e-11 at t_512 for n >= 2, the periodic table does not)
    pull = _PullbackTable(P, LAM1, sched)
    for j in range(1, 2 * sched.hbar + 1):
        assert rel_err(pull(j), mat_exp(-shifted, time_at(sched, j))) <= 1e-12
    for j in sorted({k, (k + 1) // 2, max(1, k - 1)}):
        assert rel_err(pull(j), oracle_exp(-shifted, time_at(sched, j))) <= 1e-12
    # maps to the final impulse: products of step maps
    to_final = props.to_final(k)
    assert len(to_final) == k + 1
    for j in sorted({0, k // 2, k - 1}):
        F, _ = to_final[j]
        tau = time_at(sched, k) - time_at(sched, j)
        assert rel_err(F, oracle_exp(shifted, tau)) <= 1e-12


@given(
    strict_systems(local=True), st.integers(0, 12), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)
)
def test_simulate_is_linear(case, k, a, b):
    system, sched = case
    rng = np.random.default_rng(k)
    x, y = random_state(system, rng), random_state(system, rng)
    shape = (system.m, system.domain.modes)
    u = ControlSequence(tuple(rng.standard_normal(shape) for _ in range(k)), constrained=False)
    v = ControlSequence(tuple(rng.standard_normal(shape) for _ in range(k)), constrained=False)
    mixed = ControlSequence(
        tuple(a * p + b * q for p, q in zip(u.impulses, v.impulses)), constrained=False
    )
    lhs = simulate(system, sched, a * x + b * y, mixed, k)
    sx, sy = simulate(system, sched, x, u, k), simulate(system, sched, y, v, k)
    scale = abs(a) * np.linalg.norm(sx) + abs(b) * np.linalg.norm(sy) + 1e-300
    assert np.linalg.norm(lhs - (a * sx + b * sy)) <= 1e-12 * scale


@given(strict_systems(local=True), st.integers(1, 24))
def test_gradient_is_the_adjoint_of_the_forward_map(case, k):
    system, sched = case
    model = _HorizonModel(Propagators(system, sched), k)
    rng = np.random.default_rng(k)
    u = [rng.standard_normal((system.m, system.domain.modes)) for _ in range(k)]
    y = random_state(system, rng)
    forward = model.forward(zero_state(system), u)
    grads = model.gradient(y)
    lhs = float(np.sum(forward * y))
    rhs = sum(float(np.sum(p * g)) for p, g in zip(u, grads))
    scale = sum(np.linalg.norm(p) * np.linalg.norm(g) for p, g in zip(u, grads))
    assert abs(lhs - rhs) <= 1e-12 * (scale + np.linalg.norm(forward) * np.linalg.norm(y))
    # forward equals simulate bit for bit, both run the engine's loop
    controls = ControlSequence(tuple(u), constrained=False)
    replay = simulate(system, sched, zero_state(system), controls, k)
    assert np.array_equal(forward, replay)


@example(
    # two slots, full then local support: a mix the strategy never draws
    case=(
        make_system(
            np.array([[-0.4, 0.3], [-0.2, 0.1]]),
            [np.eye(2), np.array([[1.0, -0.5], [0.3, 1.0]])],
            supports=[(0.0, math.pi), (0.4, 2.1)],
            modes=6,
        ),
        ImpulseSchedule(base_times=(0.07, 0.2)),
    ),
    k=7,
)
@given(strict_systems(local=True), st.integers(1, 24))
def test_stacked_map_matches_the_replay_loop(case, k):
    system, sched = case
    model = _HorizonModel(Propagators(system, sched), k)
    rng = np.random.default_rng(k)
    x0 = random_state(system, rng)
    U = rng.standard_normal(model.shape)
    stacked = model.free(x0) + model.apply(U)
    replay = model.forward(x0, list(U))
    assert np.linalg.norm(stacked - replay) <= 1e-12 * np.linalg.norm(replay)


@example(
    # two slots, full then local support, read on fewer modes than retained
    case=(
        make_system(
            np.array([[-0.4, 0.3], [-0.2, 0.1]]),
            [np.eye(2), np.array([[1.0, -0.5], [0.3, 1.0]])],
            supports=[(0.0, math.pi), (0.4, 2.1)],
            modes=6,
        ),
        ImpulseSchedule(base_times=(0.07, 0.2)),
    ),
    k=5,
    ahead=1,
    p=4,
)
@given(strict_systems(local=True), st.integers(1, 12), st.integers(0, 1), st.integers(1, 6))
def test_stacked_readings_match_the_per_impulse_oracle(case, k, ahead, p):
    # final = k reads at t_k (delta_obs_constant), final = k + 1 at t_{k+1}
    # (interpolation_estimate); states on p <= N modes are zero-padded
    system, sched = case
    final = k + ahead
    maps = _reading_maps(system, sched, k, final, p)
    rng = np.random.default_rng(k + p)
    Z = rng.standard_normal((3, system.n, p))
    lhs, obs = _batch_readings(maps, Z)
    T = time_at(sched, final)
    for z, got_lhs, got_obs in zip(Z, lhs, obs):
        padded = zero_state(system)
        padded[:, :p] = z
        want_lhs = l2_norm(apply_adjoint_semigroup(system, padded, T))
        want_obs = _observation_sum(system, sched, padded, k, T)
        assert got_lhs == pytest.approx(want_lhs, rel=1e-12)
        assert got_obs == pytest.approx(want_obs, rel=1e-12)


@given(strict_systems(local=True), st.integers(1, 12))
def test_gradient_matches_central_differences(case, k):
    system, sched = case
    model = _HorizonModel(Propagators(system, sched), k)
    rng = np.random.default_rng(k)
    x0 = random_state(system, rng)
    shape = (system.m, system.domain.modes)
    u = [rng.standard_normal(shape) for _ in range(k)]
    d = [rng.standard_normal(shape) for _ in range(k)]

    def energy(t):
        return 0.5 * l2_norm(model.forward(x0, [p + t * q for p, q in zip(u, d)])) ** 2

    # the energy is quadratic in t: the central difference is exact up to rounding
    h = 1e-3
    central = (energy(h) - energy(-h)) / (2.0 * h)
    grads = model.gradient(model.forward(x0, u))
    exact = sum(float(np.sum(g * q)) for g, q in zip(grads, d))
    scale = sum(np.linalg.norm(g) * np.linalg.norm(q) for g, q in zip(grads, d))
    assert abs(central - exact) <= 1e-7 * (scale + energy(0.0) / h)


@settings(max_examples=5)
@pytest.mark.parametrize("which", ["gcac", "constrained", "local"])
@given(case=st.data(), norm=st.floats(0.1, 3.0))
def test_synthesized_sequences_stay_in_the_unit_ball_and_replay_bitwise(which, case, norm):
    local = which == "local"
    system, sched = case.draw(
        strict_systems(local=local, dissipative=local, periods=(0.3, 1.0))
    )
    x0 = random_state(system, np.random.default_rng(7), norm=norm)
    synthesize = {
        "gcac": lambda: gcac_synthesize(system, sched, x0, 0.1, 400),
        "constrained": lambda: constrained_null_synthesize(system, sched, x0, 400),
        "local": lambda: local_gcac_synthesize(system, sched, x0, 0.1, 8),
    }[which]
    res = synthesize()
    assert res.controls.constrained
    assert res.controls.max_norm() <= 1.0 + BUDGET_SLACK
    assert res.horizon_k <= (8 if local else 400)
    replay = simulate(system, sched, x0, res.controls, res.horizon_k)
    assert np.array_equal(res.final_state, replay)
    assert res.residual == l2_norm(res.final_state)


@given(strict_systems(local=True), st.integers(1, 6), st.floats(0.1, 4.0))
def test_reachability_gap_brackets_the_residual(case, k, norm):
    system, sched = case
    x0 = random_state(system, np.random.default_rng(k), norm=norm)
    lower, achieved = reachability_gap(system, sched, x0, k, 10)
    assert math.isfinite(lower) and math.isfinite(achieved)
    assert 0.0 <= lower <= achieved


@given(strict_systems(), st.integers(1, 4), st.floats(0.1, 10.0))
def test_final_time_and_pull_back_frames_give_one_mode_1_solution(case, k, norm):
    # the two systems differ by the invertible left factor exp((P - lam1 I) t_k)
    system, sched = case
    k = min(k, 2 * sched.hbar)
    rng = np.random.default_rng(k)
    v = rng.standard_normal(system.n)
    v *= norm / np.linalg.norm(v)
    to_final, S, _ = Propagators(system, sched).final_stack(k)
    final = min_norm_solve(S, -(to_final[0][0] @ v))
    shifted = system.coupling - LAM1 * np.eye(system.n)
    pulled = np.hstack(
        [mat_exp(-shifted, time_at(sched, j)) @ system.gain(nu(sched, j)) for j in range(1, k + 1)]
    )
    direct = min_norm_solve(pulled, -v)
    assert np.linalg.norm(final - direct) <= 1e-9 * np.linalg.norm(direct)


@given(strict_systems(modes=12), st.integers(1, 6))
def test_stacked_null_solve_matches_per_mode_solves(case, k):
    system, sched = case
    x0 = random_state(system, np.random.default_rng(k), norm=2.0)
    res = null_steer(system, sched, x0, k)
    shape = (system.m, system.domain.modes)
    assert len(res.controls) == k and all(u.shape == shape for u in res.controls.impulses)
    A, b = _null_equations(Propagators(system, sched), x0, k)
    for i in range(system.domain.modes):
        xi = min_norm_solve(A[i], b[i], tol=1e-14)
        got = np.concatenate([u[:, i] for u in res.controls.impulses])
        assert np.linalg.norm(got - xi) <= 1e-9 * max(np.linalg.norm(xi), 1e-300)


# ---------------------------------------------------------------------------
# the span helper and the rank decisions read from it


@st.composite
def rank_cases(draw, deficient=None):
    """(P, gains, sched) with single-column gains, so spans fill slowly.

    A deficient case decouples component 1 from the others and gives it
    no gain, so every gain stack misses it exactly. The symmetric part of
    P, hence its spectrum, stays at or below 0.5.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 3))
    hbar = draw(st.integers(1, 2))
    if deficient is None:
        deficient = draw(st.booleans())
    period = draw(st.floats(0.05, 0.5))
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-0.5, 0.5, (n, n))
    gains = [rng.standard_normal((n, 1)) for _ in range(hbar)]
    if deficient:
        raw[0, 1:] = raw[1:, 0] = 0.0
        for Q in gains:
            Q[0] = 0.0
    top = float(np.linalg.eigvalsh(0.5 * (raw + raw.T))[-1])
    P = raw - (top - 0.5) * np.eye(n)
    fractions = np.sort(rng.uniform(0.2, 0.9, hbar - 1))
    base = tuple(float(period * f) for f in fractions) + (period,)
    return P, gains, ImpulseSchedule(base_times=base)


def direct_block(P, gains, sched, j):
    """exp(-P t_j) Q_nu(j) from one direct matrix exponential."""
    return mat_exp(-P, time_at(sched, j)) @ gains[nu(sched, j) - 1]


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 9), st.integers(0, 4))
def test_column_span_rank_is_the_singular_value_count(seed, n, p, r):
    rng = np.random.default_rng(seed)
    r = min(r, n, p)
    S = rng.standard_normal((n, r)) @ rng.standard_normal((r, p)) * 10.0 ** rng.uniform(-6, 6)
    s = np.linalg.svd(S, compute_uv=False)
    old = 0 if s[0] == 0.0 else int(np.count_nonzero(s > RANK_TOL * s[0]))
    span = column_span(S)
    assert span.rank == old == numerical_rank(S)
    # the helper's SVD also computes vectors, which can move the last bit
    assert span.sigma_max == pytest.approx(s[0], rel=1e-12)
    assert span.sigma_n == pytest.approx(s[n - 1] if old == n else 0.0, rel=1e-12)
    assert span.null.shape == (n, n - old)
    assert np.allclose(span.null.T @ span.null, np.eye(n - old), rtol=0.0, atol=1e-12)
    assert np.linalg.norm(span.null.T @ S) <= 1e-8 * span.sigma_max


@example(
    case=(
        np.array([[-40.37, -0.157], [1.263, -38.70]]),
        [np.array([[-0.458], [0.220]])],
        ImpulseSchedule(base_times=(0.704,)),
    ),
    k=2,
)
@given(rank_cases(), st.integers(1, 6))
def test_gramian_constant_is_infinite_exactly_below_full_rank(case, k):
    P, gains, sched = case
    taus = [time_at(sched, j) for j in range(1, k + 1)]
    raw = np.hstack([direct_block(P, gains, sched, j) for j in range(1, k + 1)])
    deficient = numerical_rank(raw) < P.shape[0]
    assert math.isinf(finite_obs_constant(P, gains, taus).constant) == deficient
    if deficient:
        with pytest.raises(ValueError, match="singular"):
            gramian_delta(P, gains, sched, k, lam1=0.0)
    else:
        assert gramian_delta(P, gains, sched, k, lam1=0.0)[1] > 0.0


@given(rank_cases())
def test_rank_search_matches_direct_exponential_blocks(case):
    P, gains, sched = case
    n, k_max = P.shape[0], 2 * sched.hbar
    blocks, direct = [], None
    for j in range(1, k_max + 1):
        B = direct_block(P, gains, sched, j)
        blocks.append(B / np.linalg.norm(B, 2))
        if numerical_rank(np.hstack(blocks)) == n:
            direct = j
            break
    k_star, null = _rank_search(P, gains, sched, k_max)
    assert k_star == direct
    assert rank_condition(P, gains, sched, k_max) == (direct is not None, direct)
    stack = np.hstack(blocks)
    assert np.linalg.norm(null.T @ stack) <= 1e-8 * np.linalg.norm(stack, 2)


@given(
    rank_cases(deficient=True),
    st.integers(1, 8),
    st.sampled_from(["null", "constrained", "local"]),
)
def test_rank_failures_carry_a_witness_orthogonal_to_every_block(case, k, which):
    P, gains, sched = case
    system = make_system(P, gains, modes=6)
    x0 = random_state(system, np.random.default_rng(k))
    synthesize = {
        "null": lambda: null_steer(system, sched, x0, k),
        "constrained": lambda: constrained_null_synthesize(system, sched, x0, k),
        "local": lambda: local_gcac_synthesize(system, sched, x0, 0.1, k),
    }[which]
    with pytest.raises(RankDeficiencyError) as err:
        synthesize()
    w = err.value.witness
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    for j in range(1, k + 1):
        B = direct_block(P, gains, sched, j)
        assert np.linalg.norm(w @ B) <= 1e-8 * np.linalg.norm(B)


@given(rank_cases(), st.integers(1, 6), st.integers(0, 1))
def test_unobserved_directions_are_orthogonal_to_every_block(case, k, ahead):
    P, gains, sched = case
    system = make_system(P, gains, modes=6)
    final = k + ahead
    S = _reading_maps(system, sched, k, final, 6)[3]
    null = column_span(S).null
    shifted = P - LAM1 * np.eye(system.n)
    for j in range(1, k + 1):
        tau = time_at(sched, final) - time_at(sched, j)
        B = mat_exp(shifted, tau) @ gains[nu(sched, j) - 1]
        assert np.linalg.norm(null.T @ B) <= 1e-8 * np.linalg.norm(B)
