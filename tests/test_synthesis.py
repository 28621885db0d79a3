"""Steering synthesis: simulation, Gramian balls, and the four strategies."""

import math

import numpy as np
import pytest

from impulse_gcac import synthesis
from impulse_gcac.observability import (
    RankDeficiencyError,
    finite_obs_constant,
    semigroup_norm,
)
from impulse_gcac.schedule import ImpulseSchedule, time_at
from impulse_gcac.spectral import (
    Propagators,
    apply_semigroup,
    l2_norm,
    random_state,
    single_mode_state,
    zero_state,
)
from impulse_gcac.synthesis import (
    BUDGET_SLACK,
    ControlSequence,
    HorizonExhaustedError,
    NonFiniteStateError,
    _chunked_mode1,
    _HorizonModel,
    constrained_null_synthesize,
    decay_horizon,
    gcac_synthesize,
    gramian_delta,
    local_gcac_synthesize,
    null_steer,
    project_H1,
    simulate,
    steer_first_mode,
)

from conftest import make_system, two_component_invariant_system, unit_schedule


def random_controls(system, k, rng, scale=1.0):
    """k impulses drawn inside the scale-ball, uniformly random directions."""
    impulses = []
    for _ in range(k):
        u = rng.standard_normal((system.m, system.domain.modes))
        u *= scale * rng.uniform(0.0, 1.0) / np.linalg.norm(u)
        impulses.append(u)
    return ControlSequence(impulses=tuple(impulses), budget=scale)


def test_control_sequence_checks_budget():
    good = ControlSequence(impulses=(np.full((1, 4), 0.5),))
    assert len(good) == 1
    with pytest.raises(ValueError, match="budget"):
        ControlSequence(impulses=(np.full((1, 4), 0.9),))
    # unconstrained sequences skip the per-impulse check
    loose = ControlSequence(impulses=(np.full((1, 4), 0.9),), constrained=False)
    assert loose.max_norm() == pytest.approx(1.8)
    assert loose.l2_total() == pytest.approx(1.8)


def test_control_sequence_rejects_ragged_impulses():
    with pytest.raises(ValueError, match="shape"):
        ControlSequence(impulses=(np.zeros((1, 4)), np.zeros((2, 4))))
    with pytest.raises(ValueError, match="2-D"):
        ControlSequence(impulses=(np.zeros(4),))


def test_simulate_zero_controls_is_the_free_flow():
    system = make_system(np.array([[0.2, 0.1], [0.0, 0.3]]), [np.eye(2)], modes=12)
    sched = unit_schedule()
    rng = np.random.default_rng(3)
    x0 = random_state(system, rng, norm=2.0)
    out = simulate(system, sched, x0, ControlSequence(impulses=()), 4)
    free = apply_semigroup(system, x0, 4.0)
    assert np.allclose(out, free, rtol=1e-12, atol=1e-14)


def test_simulate_is_linear_in_state_and_controls():
    system = make_system(np.array([[0.0, 0.4], [-0.4, 0.0]]), [np.eye(2)], modes=10)
    sched = unit_schedule()
    rng = np.random.default_rng(7)
    for _ in range(5):
        x0 = random_state(system, rng, norm=1.5)
        controls = random_controls(system, 3, rng)
        both = simulate(system, sched, x0, controls, 3)
        flow_only = simulate(system, sched, x0, ControlSequence(impulses=()), 3)
        ctrl_only = simulate(system, sched, zero_state(system), controls, 3)
        assert np.allclose(both, flow_only + ctrl_only, rtol=1e-12, atol=1e-14)


def test_simulate_pads_missing_controls_with_zeros():
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=6)
    sched = unit_schedule()
    rng = np.random.default_rng(11)
    x0 = random_state(system, rng)
    controls = random_controls(system, 2, rng)
    padded = ControlSequence(
        impulses=controls.impulses + (np.zeros((1, 6)), np.zeros((1, 6)))
    )
    a = simulate(system, sched, x0, controls, 4)
    b = simulate(system, sched, x0, padded, 4)
    assert np.array_equal(a, b)


def test_simulate_preserves_the_uncontrolled_component():
    # first component of mode 1 is conserved by flow and untouched by the
    # actuator, so no admissible control sequence can shrink that state
    eps = 0.3
    system = two_component_invariant_system(modes=16)
    sched = unit_schedule()
    x0 = zero_state(system)
    x0[0, 0] = 2.0 * eps
    rng = np.random.default_rng(19)
    for k in (1, 3, 8):
        for _ in range(10):
            controls = random_controls(system, k, rng)
            final = simulate(system, sched, x0, controls, k)
            assert final[0, 0] == pytest.approx(2.0 * eps, rel=1e-12)
            assert l2_norm(final) >= 2.0 * eps * (1.0 - 1e-12)


def test_simulate_rejects_cycle_mismatch():
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=4)
    sched = ImpulseSchedule(base_times=(0.5, 1.0))
    with pytest.raises(ValueError, match="controllers"):
        simulate(system, sched, zero_state(system), ControlSequence(impulses=()), 1)


def test_simulate_raises_on_overflow_under_growth():
    # exp((3 - 1) * 400) overflows: a typed error, not a NaN state
    system = make_system(np.diag([3.0, 0.0]), [np.eye(2)], modes=4)
    x0 = random_state(system, np.random.default_rng(3))
    with pytest.raises(NonFiniteStateError):
        simulate(system, unit_schedule(), x0, ControlSequence(impulses=()), 400)


def test_project_H1_splits_and_recombines_exactly():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    rng = np.random.default_rng(23)
    state = random_state(system, rng, norm=3.0)
    v, remainder = project_H1(system, state)
    assert np.array_equal(v, state[:, 0])
    assert np.all(remainder[:, 0] == 0.0)
    rebuilt = remainder.copy()
    rebuilt[:, 0] = v
    assert np.array_equal(rebuilt, state)


# --- Gramian ball ---


def test_gramian_delta_identity_blocks():
    # one impulse, coupling equal to lambda_1 times identity: M = I, delta = 1
    M, delta = gramian_delta(np.eye(2), [np.eye(2)], unit_schedule(), 1)
    assert np.array_equal(M, np.eye(2))
    assert delta == 1.0


def test_gramian_delta_rejects_rank_deficient_stack():
    with pytest.raises(ValueError, match="singular"):
        gramian_delta(np.eye(2), [np.array([[0.0], [1.0]])], unit_schedule(), 1)


def test_gramian_delta_rejects_an_empty_horizon():
    with pytest.raises(ValueError, match="k_star must be at least 1"):
        gramian_delta(np.eye(2), [np.eye(2)], unit_schedule(), 0)


def test_gramian_delta_two_impulses():
    # blocks stay the identity at both times, so M = 2I and the ball radius
    # is smin^2/smax = 2/sqrt(2)
    M, delta = gramian_delta(np.eye(2), [np.eye(2)], unit_schedule(), 2)
    assert np.allclose(M, 2.0 * np.eye(2), rtol=1e-14, atol=1e-14)
    assert delta == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_gramian_delta_matches_eigenvalue_oracle():
    # oracle: delta = lambda_min(M) / sqrt(lambda_max(M)), computed from the
    # assembled Gramian, against the implementation's singular value route
    rng = np.random.default_rng(29)
    sched = unit_schedule()
    for _ in range(10):
        n = int(rng.integers(2, 4))
        P = 0.4 * rng.standard_normal((n, n))
        Q = rng.standard_normal((n, n))
        M, delta = gramian_delta(P, [Q], sched, 3, lam1=1.0)
        w = np.linalg.eigvalsh(M)
        assert delta == pytest.approx(w[0] / math.sqrt(w[-1]), rel=1e-9)


def test_gramian_ball_targets_are_reached_with_unit_controls():
    # closed-form controls for a target on the delta-sphere: each impulse
    # stays in the unit ball and the blocks reassemble the target exactly
    rng = np.random.default_rng(31)
    sched = unit_schedule()
    from impulse_gcac.synthesis import _shifted_blocks

    for trial in range(8):
        n = int(rng.integers(2, 4))
        P = 0.3 * rng.standard_normal((n, n))
        Q = rng.standard_normal((n, n))
        M, delta = gramian_delta(P, [Q], sched, 2, lam1=1.0)
        blocks = _shifted_blocks(np.asarray(P), [np.asarray(Q)], sched, 2, 1.0)
        eta = rng.standard_normal(n)
        eta *= delta / np.linalg.norm(eta)
        factor = np.linalg.solve(M, eta)
        zetas = [b.T @ factor for b in blocks]
        assert max(np.linalg.norm(z) for z in zetas) <= 1.0 + 1e-12
        rebuilt = sum(b @ z for b, z in zip(blocks, zetas))
        assert np.linalg.norm(rebuilt - eta) <= 1e-10 * delta


# --- mode-1 steering ---


def test_steer_first_mode_zero_target_is_trivial():
    system = make_system(np.eye(2), [np.eye(2)], modes=8)
    res = steer_first_mode(system, unit_schedule(), np.zeros(2), 16)
    assert res.horizon_k == 0
    assert len(res.controls) == 0
    assert res.certificate == "exact"
    assert res.residual == 0.0


def test_steer_first_mode_needs_ten_impulses_for_norm_ten():
    # identity blocks: the min-norm solution spreads the target evenly, so
    # the smallest admissible horizon is the ceiling of the target norm
    system = make_system(np.eye(2), [np.eye(2)], modes=8)
    v = np.array([10.0, 0.0])
    res = steer_first_mode(system, unit_schedule(), v, 64)
    assert res.horizon_k == 10
    assert res.certificate == "exact"
    assert res.controls.max_norm() <= 1.0 + 1e-12
    assert np.linalg.norm(res.final_state[:, 0]) <= 1e-12 * np.linalg.norm(v)


def test_steer_first_mode_on_seeded_systems():
    rng = np.random.default_rng(37)
    sched = unit_schedule()
    for _ in range(6):
        n = int(rng.integers(2, 4))
        raw = 0.5 * rng.standard_normal((n, n))
        # push the spectrum strictly below the first diffusion eigenvalue
        shift = max(np.real(np.linalg.eigvals(raw)).max() - 0.7, 0.0)
        P = raw - shift * np.eye(n)
        system = make_system(P, [np.eye(n)], modes=16)
        v = rng.standard_normal(n)
        v *= rng.uniform(0.5, 6.0) / np.linalg.norm(v)
        res = steer_first_mode(system, sched, v, 128)
        assert res.certificate == "exact"
        assert res.controls.max_norm() <= 1.0 + 1e-12
        assert np.linalg.norm(res.final_state[:, 0]) <= 1e-9 * np.linalg.norm(v)
        # replay the controls through the public simulator
        x0 = zero_state(system)
        x0[:, 0] = v
        replay = simulate(system, sched, x0, res.controls, res.horizon_k)
        assert abs(l2_norm(replay) - res.residual) <= 1e-10


def test_steer_first_mode_requires_full_supports():
    system = two_component_invariant_system(modes=8)
    with pytest.raises(ValueError, match="support"):
        steer_first_mode(system, unit_schedule(), np.array([1.0, 0.0]), 8)


def test_steer_first_mode_rejects_supercritical_coupling():
    system = make_system(np.diag([2.0, 0.0]), [np.eye(2)], modes=8)
    with pytest.raises(ValueError, match="real part"):
        steer_first_mode(system, unit_schedule(), np.array([1.0, 0.0]), 8)


def test_steer_first_mode_reports_exhaustion_with_best_sup_norm():
    system = make_system(np.eye(2), [np.eye(2)], modes=8)
    v = np.array([50.0, 0.0])
    with pytest.raises(HorizonExhaustedError) as err:
        steer_first_mode(system, unit_schedule(), v, 3)
    # best exact attempt spreads 50 over 3 impulses
    assert err.value.best_sup == pytest.approx(50.0 / 3.0, rel=1e-9)


def test_chunked_steering_consumes_the_target_in_ball_pieces():
    system = make_system(np.diag([0.5, 1.0]), [np.eye(2)], modes=8)
    sched = unit_schedule()
    v = np.array([3.0, -2.5])
    xi = _chunked_mode1(Propagators(system, sched), sched, v, 64)
    assert max(np.linalg.norm(x) for x in xi) <= 1.0 + 1e-12
    impulses = []
    for x in xi:
        u = np.zeros((2, 8))
        u[:, 0] = x
        impulses.append(u)
    x0 = zero_state(system)
    x0[:, 0] = v
    final = simulate(system, sched, x0, ControlSequence(impulses=tuple(impulses)), len(xi))
    assert np.linalg.norm(final[:, 0]) <= 1e-9 * np.linalg.norm(v)


# --- decay horizon ---


def test_decay_horizon_zero_remainder():
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=8)
    assert decay_horizon(system, unit_schedule(), zero_state(system), 1e-6) == 0


def test_decay_horizon_single_upper_mode():
    # mode-2 amplitude decays like exp(-4t) on the unit interval schedule,
    # reaching exp(-8) exactly at the second impulse
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=8)
    state = single_mode_state(system, 2, [1.0])
    k = decay_horizon(system, unit_schedule(), state, math.exp(-8.0))
    assert k == 2


def test_decay_horizon_honors_min_index():
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=8)
    state = single_mode_state(system, 2, [1e-12])
    assert decay_horizon(system, unit_schedule(), state, 1.0, min_index=5) == 5


def test_decay_horizon_stops_at_k_max():
    # mode 2 needs eight unit steps to fall to 1e-7 (exp(-4 k) <= 1e-7)
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=8)
    state = single_mode_state(system, 2, [1.0])
    assert decay_horizon(system, unit_schedule(), state, 1e-7, k_max=8) == 5
    with pytest.raises(HorizonExhaustedError, match="horizon 4"):
        decay_horizon(system, unit_schedule(), state, 1e-7, k_max=4)


def test_decay_horizon_rejects_mode_one_content():
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=8)
    state = single_mode_state(system, 1, [1.0])
    with pytest.raises(ValueError, match="first-mode"):
        decay_horizon(system, unit_schedule(), state, 1e-3)


# --- eps-ball synthesis ---


def test_gcac_zero_state_needs_no_impulses():
    system = make_system(np.eye(2), [np.eye(2)], modes=8)
    res = gcac_synthesize(system, unit_schedule(), zero_state(system), 1e-3, 32)
    assert res.horizon_k == 0
    assert res.residual == 0.0
    assert res.certificate == "epsilon-ball"


def test_gcac_pure_upper_modes_coast_without_controls():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=12)
    state = single_mode_state(system, 3, [0.7, -0.2])
    res = gcac_synthesize(system, unit_schedule(), state, 1e-4, 32)
    assert len(res.controls) == 0
    assert res.residual <= 1e-4
    expected = decay_horizon(system, unit_schedule(), state, 1e-4)
    assert res.horizon_k == expected


def test_gcac_steers_a_large_state_into_a_small_ball():
    system = make_system(np.array([[0.0, 0.3], [-0.3, 0.0]]), [np.eye(2)], modes=16)
    sched = unit_schedule()
    rng = np.random.default_rng(41)
    x0 = random_state(system, rng, norm=10.0)
    res = gcac_synthesize(system, sched, x0, 1e-2, 128)
    assert res.certificate == "epsilon-ball"
    assert res.residual <= 1e-2
    assert res.controls.max_norm() <= 1.0 + 1e-12
    replay = simulate(system, sched, x0, res.controls, res.horizon_k)
    assert abs(l2_norm(replay) - res.residual) <= 1e-10


def test_gcac_propagates_horizon_exhaustion():
    system = make_system(np.eye(2), [np.eye(2)], modes=8)
    x0 = zero_state(system)
    x0[0, 0] = 40.0
    with pytest.raises(HorizonExhaustedError):
        gcac_synthesize(system, unit_schedule(), x0, 1e-2, 5)


def test_gcac_never_returns_a_horizon_beyond_k_max():
    # zero coupling: the remainder needs seven impulses to decay below
    # 1e-12, more than the four allowed, so the search must give up
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    x0 = random_state(system, np.random.default_rng(0), norm=1.0)
    with pytest.raises(HorizonExhaustedError):
        gcac_synthesize(system, unit_schedule(), x0, 1e-12, 4)
    res = gcac_synthesize(system, unit_schedule(), x0, 1e-12, 7)
    assert res.horizon_k == 7 and res.residual <= 1e-12


def test_gcac_coasting_steps_match_simulate_bitwise():
    # the coasting loop advances the last state one impulse at a time
    system = make_system(np.array([[0.0, 0.3], [-0.3, 0.0]]), [np.eye(2)], modes=16)
    sched = ImpulseSchedule(base_times=(0.3,))
    x0 = random_state(system, np.random.default_rng(41), norm=10.0)
    res = gcac_synthesize(system, sched, x0, 1e-6, 256)
    replay = simulate(system, sched, x0, res.controls, res.horizon_k)
    assert np.array_equal(replay, res.final_state)
    assert l2_norm(replay) == res.residual


# --- exact null steering ---


def test_null_steer_single_impulse_closed_form():
    # with zero coupling and one identity-gain impulse at t1, the exact
    # control undoes the decay mode by mode: u1 = -exp(-lam_i t1) g_i
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    sched = unit_schedule()
    rng = np.random.default_rng(43)
    x0 = random_state(system, rng, norm=2.0)
    res = null_steer(system, sched, x0, 1)
    lam = system.domain.eigenvalues()
    expected = -np.exp(-lam)[None, :] * x0
    assert np.allclose(res.controls.impulses[0], expected, rtol=1e-10, atol=1e-14)
    assert res.residual <= 1e-12 * l2_norm(x0)
    assert res.certificate == "exact"
    assert not res.controls.constrained


def test_null_steer_rank_failure_names_a_witness():
    system = two_component_invariant_system(modes=8, support=(0.0, math.pi))
    x0 = zero_state(system)
    x0[0, 0] = 1.0
    with pytest.raises(RankDeficiencyError) as err:
        null_steer(system, unit_schedule(), x0, 4)
    w = err.value.witness
    assert abs(abs(w[0]) - 1.0) <= 1e-9 and abs(w[1]) <= 1e-9


def test_null_steer_needs_enough_impulses_to_span():
    system = make_system(
        np.array([[0.0, 0.0], [1.0, 0.0]]), [np.array([[1.0], [0.0]])], modes=6
    )
    x0 = random_state(system, np.random.default_rng(47))
    with pytest.raises(RankDeficiencyError):
        null_steer(system, unit_schedule(), x0, 1)
    res = null_steer(system, unit_schedule(), x0, 2)
    assert res.residual <= 1e-10 * l2_norm(x0)


def test_null_steer_control_energy_obeys_the_observability_bound():
    # aggregate l2 norm of the min-norm null control is bounded by
    # sqrt(C(k*)) ||x0|| with C the finite observability constant
    rng = np.random.default_rng(53)
    sched = unit_schedule()
    for _ in range(6):
        n = int(rng.integers(2, 4))
        P = 0.5 * rng.standard_normal((n, n))
        system = make_system(P, [np.eye(n)], modes=32)
        x0 = random_state(system, rng, norm=float(rng.uniform(0.5, 5.0)))
        k_star = 2
        res = null_steer(system, sched, x0, k_star)
        assert res.residual <= 1e-8 * l2_norm(x0)
        taus = [1.0, 2.0]
        C = finite_obs_constant(P, [np.eye(n)], taus).constant
        assert res.controls.l2_total() <= math.sqrt(C) * l2_norm(x0) * (1.0 + 1e-6)
        replay = simulate(system, sched, x0, res.controls, k_star)
        assert abs(l2_norm(replay) - res.residual) <= 1e-10


# --- constrained null synthesis ---


def test_constrained_null_reaches_zero_within_the_unit_ball():
    system = make_system(np.array([[0.0, 0.2], [-0.2, 0.0]]), [np.eye(2)], modes=16)
    sched = unit_schedule()
    rng = np.random.default_rng(59)
    x0 = random_state(system, rng, norm=5.0)
    res = constrained_null_synthesize(system, sched, x0, 64)
    assert res.certificate == "exact"
    assert res.controls.constrained
    assert res.controls.max_norm() <= 1.0 + 1e-12
    assert res.residual <= 1e-8 * l2_norm(x0)
    replay = simulate(system, sched, x0, res.controls, res.horizon_k)
    assert abs(l2_norm(replay) - res.residual) <= 1e-10


def test_constrained_null_skips_shrinking_for_small_states():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    res_small = constrained_null_synthesize(
        system, unit_schedule(), 1e-3 * random_state(system, np.random.default_rng(61)), 32
    )
    # inside the admissible ball the whole run is the exact null phase
    assert res_small.horizon_k == 1
    assert res_small.details["ball_radius"] >= 1e-3


def test_constrained_null_rejects_rank_deficient_systems():
    system = two_component_invariant_system(modes=8, support=(0.0, math.pi))
    x0 = zero_state(system)
    x0[0, 0] = 1.0
    with pytest.raises(RankDeficiencyError):
        constrained_null_synthesize(system, unit_schedule(), x0, 32)


def test_constrained_null_with_alternating_controllers():
    gains = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
    system = make_system(np.zeros((2, 2)), gains, modes=10)
    sched = ImpulseSchedule(base_times=(0.5, 1.0))
    x0 = random_state(system, np.random.default_rng(67), norm=2.0)
    res = constrained_null_synthesize(system, sched, x0, 64)
    assert res.residual <= 1e-8 * l2_norm(x0)
    assert res.controls.max_norm() <= 1.0 + 1e-12
    # even horizon: the exact phase starts on a period boundary and the
    # two-actuator span needs a whole period
    assert res.horizon_k % 2 == 0


# --- full-support steering with coupling modes far below lambda_1 ---

# pull-back blocks exp((lambda_1 I - P) t_j) Q grow like exp(2.05 t_j) and
# exp(2.45 t_j) on these couplings; the steering must not depend on them
FAR_BELOW = {
    # rotation at lambda_1 = 1 plus one mode at -1.05
    "rotation": (
        [[-1.05, 0.0, 0.0], [0.0, 1.0, 0.75], [0.0, -0.75, 1.0]],
        [[[1.0], [1.0], [1.0]]],
        (0.58,),
    ),
    # two alternating single-column gains, one mode at -1.45
    "two-slot": (
        np.diag([1.0, 0.33, -1.45]),
        [[[1.0], [1.0], [0.0]], [[0.0], [1.0], [1.0]]],
        (0.6, 1.17),
    ),
}


@pytest.mark.parametrize("which", ["gcac", "constrained"])
@pytest.mark.parametrize("name", sorted(FAR_BELOW))
def test_full_support_steering_survives_modes_far_below_lambda_1(name, which):
    coupling, gains, base_times = FAR_BELOW[name]
    system = make_system(coupling, gains, modes=8)
    sched = ImpulseSchedule(base_times=base_times)
    x0 = single_mode_state(system, 1, 7.0 * np.ones(3) / math.sqrt(3.0))
    if which == "gcac":
        res = gcac_synthesize(system, sched, x0, 1e-3, 512)
    else:
        res = constrained_null_synthesize(system, sched, x0, 512)
    assert res.horizon_k <= 512
    assert res.controls.max_norm() <= 1.0 + BUDGET_SLACK
    replay = simulate(system, sched, x0, res.controls, res.horizon_k)
    assert np.array_equal(res.final_state, replay)
    if which == "constrained":
        # the growth bound read from the engine's maps matches the one-shot
        # flow norms over t_hbar - t_j
        growth = sum(
            semigroup_norm(system, sched.period - time_at(sched, j)) for j in range(system.hbar)
        )
        assert res.details["period_bound"] == pytest.approx(max(growth, 1.0), rel=1e-12)


# --- one engine and one rank search per call ---


def _count_engines_and_rank_searches(monkeypatch):
    counts = {"engines": 0, "rank_searches": 0}

    class CountingPropagators(Propagators):
        def __init__(self, system, sched):
            counts["engines"] += 1
            super().__init__(system, sched)

    search = synthesis._rank_search

    def counting_search(*args):
        counts["rank_searches"] += 1
        return search(*args)

    monkeypatch.setattr(synthesis, "Propagators", CountingPropagators)
    monkeypatch.setattr(synthesis, "_rank_search", counting_search)
    return counts


@pytest.mark.parametrize("which", ["steer", "gcac", "null", "constrained"])
def test_each_full_support_synthesizer_builds_one_engine(monkeypatch, which):
    coupling, gains, base_times = FAR_BELOW["two-slot"]
    system = make_system(coupling, gains, modes=8)
    sched = ImpulseSchedule(base_times=base_times)
    x0 = single_mode_state(system, 1, 7.0 * np.ones(3) / math.sqrt(3.0))
    counts = _count_engines_and_rank_searches(monkeypatch)
    if which == "steer":
        steer_first_mode(system, sched, x0[:, 0], 512)
    elif which == "gcac":
        gcac_synthesize(system, sched, x0, 1e-3, 512)
    elif which == "null":
        null_steer(system, sched, x0, 4)
    else:
        res = constrained_null_synthesize(system, sched, x0, 512)
        # x0 starts outside the ball, so the ball phase ran too
        assert res.details["ball_radius"] < l2_norm(x0)
        assert counts["rank_searches"] == 1
    assert counts["engines"] == 1


# --- the k_max lower bound ---


def test_full_support_synthesizers_need_at_least_one_impulse():
    system = make_system(np.eye(2), [np.eye(2)], modes=8)
    sched = unit_schedule()
    x0 = single_mode_state(system, 1, [0.5, -0.5])
    calls = [
        lambda: steer_first_mode(system, sched, np.zeros(2), 0),
        lambda: steer_first_mode(system, sched, np.array([0.5, -0.5]), 0),
        lambda: gcac_synthesize(system, sched, x0, 1e-3, 0),
        lambda: constrained_null_synthesize(system, sched, x0, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            call()


# --- descent synthesis for local supports ---


def test_local_gcac_zero_state_is_immediate():
    system = make_system(
        np.zeros((2, 2)), [np.eye(2)], supports=[(0.0, math.pi / 2.0)], modes=8
    )
    res = local_gcac_synthesize(system, unit_schedule(), zero_state(system), 0.1, 8)
    assert res.horizon_k == 0
    assert res.certificate == "epsilon-ball"


def test_local_gcac_steers_with_a_half_interval_actuator():
    system = make_system(
        np.zeros((2, 2)), [np.eye(2)], supports=[(0.0, math.pi / 2.0)], modes=8
    )
    sched = unit_schedule()
    x0 = random_state(system, np.random.default_rng(71), norm=1.0)
    res = local_gcac_synthesize(system, sched, x0, 0.1, 64)
    assert res.certificate == "epsilon-ball"
    assert res.residual <= 0.1
    assert res.controls.max_norm() <= 1.0 + 1e-12
    replay = simulate(system, sched, x0, res.controls, res.horizon_k)
    assert abs(l2_norm(replay) - res.residual) <= 1e-10


def test_local_gcac_beats_free_decay_at_the_first_horizon():
    # at two impulses the free flow still has norm exp(-2) > 0.1, so any
    # success there is the descent's doing, not plain dissipation
    system = make_system(
        np.zeros((2, 2)), [np.eye(2)], supports=[(0.0, math.pi / 2.0)], modes=8
    )
    x0 = zero_state(system)
    x0[0, 0] = 1.0
    res = local_gcac_synthesize(system, unit_schedule(), x0, 0.1, 2)
    free = l2_norm(simulate(system, unit_schedule(), x0, ControlSequence(impulses=()), 2))
    assert free > 0.1
    assert res.residual < free


def test_local_gcac_residuals_shrink_across_horizons():
    system = make_system(
        np.array([[0.0, 0.3], [-0.3, 0.0]]),
        [np.eye(2)],
        supports=[(0.0, math.pi / 2.0)],
        modes=8,
    )
    x0 = random_state(system, np.random.default_rng(73), norm=2.0)
    res = local_gcac_synthesize(system, unit_schedule(), x0, 1e-6, 32)
    history = res.details["residual_by_horizon"]
    values = [history[k] for k in sorted(history)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert res.certificate == "epsilon-ball"
    assert res.residual == pytest.approx(values[-1])


def test_local_gcac_reports_exhaustion_honestly():
    # two single-input impulses satisfy the span condition but cannot cancel
    # a norm-2 state under the unit ball; the best attempt is returned with
    # a failure certificate
    system = make_system(
        np.array([[0.0, 0.3], [-0.3, 0.0]]),
        [np.array([[1.0], [0.0]])],
        supports=[(0.0, math.pi / 2.0)],
        modes=8,
    )
    x0 = random_state(system, np.random.default_rng(89), norm=2.0)
    res = local_gcac_synthesize(system, unit_schedule(), x0, 1e-10, 2)
    assert res.certificate == "failed-horizon-exhausted"
    assert res.residual > 1e-10
    replay = simulate(system, unit_schedule(), x0, res.controls, res.horizon_k)
    assert abs(l2_norm(replay) - res.residual) <= 1e-10


def test_local_gcac_matches_exact_synthesis_on_full_supports():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    sched = unit_schedule()
    x0 = random_state(system, np.random.default_rng(79), norm=2.0)
    eps = 0.05
    exact = gcac_synthesize(system, sched, x0, eps, 64)
    local = local_gcac_synthesize(system, sched, x0, eps, exact.horizon_k)
    assert local.residual <= eps
    assert local.horizon_k <= exact.horizon_k


def test_descent_returns_a_replayed_residual_inside_the_unit_ball():
    # two slots, one full and one local support, so the stacked projection
    # groups the rows of each slot
    system = make_system(
        np.array([[0.0, 0.3], [-0.3, 0.0]]),
        [np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])],
        supports=[(0.0, math.pi), (0.5, 2.0)],
        modes=8,
    )
    sched = ImpulseSchedule(base_times=(0.4, 1.0))
    x0 = random_state(system, np.random.default_rng(97), norm=3.0)
    model = _HorizonModel(Propagators(system, sched), 5)
    residual, impulses, step, best = model.descend(
        x0, np.zeros(model.shape), 50, np.random.default_rng(0)
    )
    controls = ControlSequence(impulses=tuple(impulses))
    assert residual == l2_norm(simulate(system, sched, x0, controls, 5))
    assert np.linalg.norm(impulses, axis=(1, 2)).max() <= 1.0 + BUDGET_SLACK
    assert 0 <= best <= 50
    assert step > 0.0


def test_local_gcac_rejects_non_dissipative_coupling():
    system = make_system(np.diag([2.0, 0.0]), [np.eye(2)], modes=8)
    with pytest.raises(ValueError, match="symmetric part"):
        local_gcac_synthesize(system, unit_schedule(), zero_state(system), 0.1, 8)


def test_local_gcac_rejects_a_mis_shaped_initial_state():
    # an (n, 1) state would broadcast across all N modes of the flow
    system = make_system(np.zeros((2, 2)), [np.eye(2)], supports=[(0.5, 2.5)], modes=8)
    with pytest.raises(ValueError, match="state must have shape"):
        local_gcac_synthesize(system, unit_schedule(), np.ones((2, 1)), 0.1, 8)


@pytest.mark.parametrize(
    "entry",
    ["apply_semigroup", "simulate", "gcac", "null", "constrained", "local", "gap"],
)
def test_entry_points_reject_a_nan_initial_state(entry):
    # a NaN entry is invalid input, not a state that overflowed on the way
    from impulse_gcac.witness import reachability_gap

    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    sched = unit_schedule()
    x0 = np.ones((2, 8))
    x0[1, 3] = math.nan
    call = {
        "apply_semigroup": lambda: apply_semigroup(system, x0, 1.0),
        "simulate": lambda: simulate(system, sched, x0, ControlSequence(impulses=()), 2),
        "gcac": lambda: gcac_synthesize(system, sched, x0, 0.1, 8),
        "null": lambda: null_steer(system, sched, x0, 2),
        "constrained": lambda: constrained_null_synthesize(system, sched, x0, 8),
        "local": lambda: local_gcac_synthesize(system, sched, x0, 0.1, 8),
        "gap": lambda: reachability_gap(system, sched, x0, 2, 5),
    }[entry]
    with pytest.raises(ValueError, match="state entries must be finite"):
        call()


def test_local_gcac_rejects_rank_deficient_gains():
    system = two_component_invariant_system(modes=8)
    x0 = zero_state(system)
    x0[0, 0] = 1.0
    with pytest.raises(RankDeficiencyError):
        local_gcac_synthesize(system, unit_schedule(), x0, 0.1, 8)


# --- decay envelope ---


def test_upper_mode_decay_envelope_fitted_coarse_holds_fine():
    # calibrate the envelope constant on a coarse time grid, then require
    # the bound on a grid four times finer; the margin in the exponent
    # absorbs whatever happens between coarse points
    system = make_system(np.array([[0.4, 0.2], [0.1, 0.3]]), [np.eye(2)], modes=16)
    rng = np.random.default_rng(83)
    state = random_state(system, rng, norm=1.0)
    _, remainder = project_H1(system, state)
    lam = system.domain.eigenvalues()
    rate = (lam[1] - lam[0]) / 2.0
    base = l2_norm(remainder)
    coarse = np.linspace(0.0, 6.0, 13)
    ratios = [
        l2_norm(apply_semigroup(system, remainder, float(t))) / (math.exp(-rate * t) * base)
        for t in coarse
    ]
    fitted = 1.05 * max(ratios)
    fine = np.linspace(0.0, 6.0, 49)
    for t in fine:
        flowed = l2_norm(apply_semigroup(system, remainder, float(t)))
        assert flowed <= fitted * math.exp(-rate * t) * base
