"""Tests for rank conditions and observability constants."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    _observation_sum,
    make_system,
    two_component_invariant_system,
    unit_schedule,
)

from impulse_gcac import observability
from impulse_gcac.linalg import spectral_norm
from impulse_gcac.observability import (
    compose_obs,
    delta_obs_constant,
    finite_obs_constant,
    hypothesis_verdict,
    kalman_rank,
    rank_condition,
    semigroup_norm,
)
from impulse_gcac.schedule import ImpulseSchedule, time_at
from impulse_gcac.spectral import (
    NonFiniteStateError,
    apply_adjoint_semigroup,
    l2_norm,
    single_mode_state,
)
from impulse_gcac.synthesis import null_steer

# ---------------------------------------------------------------------------
# rank_condition / kalman_rank


def test_rank_condition_identity_gain_immediate():
    ok, k_star = rank_condition(make_system(np.zeros((3, 3)), [np.eye(3)]), unit_schedule(), 5)
    assert ok and k_star == 1


def test_rank_condition_unobserved_component_never_fills():
    system = two_component_invariant_system()
    ok, k_star = rank_condition(system, unit_schedule(), 20)
    assert not ok and k_star is None


def test_rank_condition_two_actuators_need_both():
    gains = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
    sched = ImpulseSchedule((0.5, 1.0))
    ok, k_star = rank_condition(make_system(np.zeros((2, 2)), gains), sched, 5)
    assert ok and k_star == 2


def test_rank_condition_on_a_stiff_coupling_reaches_full_rank():
    # pull-back maps exp(40 t_j) overflow within 64 impulses, and in their
    # frame the second component falls below the rank tolerance at once;
    # the final-time stack is full at k = 2
    system = make_system(np.diag([-40.0, 0.5]), [np.array([[1.0], [1.0]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rank_condition(system, unit_schedule(), 64) == (True, 2)


def test_rank_condition_reports_an_overflowing_step_map_as_non_finite():
    # the first block needs no flow; the second needs exp(1000)
    P = np.diag([1000.0, 0.0])
    assert rank_condition(make_system(P, [np.eye(2)]), unit_schedule(), 4) == (True, 1)
    with pytest.raises(NonFiniteStateError, match="overflowed"):
        rank_condition(make_system(P, [np.array([[1.0], [1.0]])]), unit_schedule(), 4)


def test_rank_condition_does_not_depend_on_the_domain_length():
    # lambda_1 = (pi / 0.1)^2 ~ 987 underflows the shifted slot map
    # exp((P - lambda_1 I) 1) to 0; the rank of the stack is free of it
    P = np.array([[0.0, 1.0], [-1.0, 0.0]])
    system = make_system(P, [np.array([[1.0], [0.0]])], length=0.1, modes=8)
    assert rank_condition(system, unit_schedule(), 8) == (True, 2)
    verdict = hypothesis_verdict(system, unit_schedule(), 8)
    assert verdict.rank_ok and verdict.k_star == 2
    x0 = single_mode_state(system, 1, np.array([1.0, 0.5]))
    assert null_steer(system, unit_schedule(), x0, 2).residual == 0.0


def test_rank_search_spans_at_most_n_plus_m_columns(monkeypatch):
    # a rank-deficient search runs to k_max; each candidate is one span of
    # the previous stack's factor and the new block, never the whole stack
    system = two_component_invariant_system(modes=8)
    widths = []
    span = observability.column_span

    def recording_span(S):
        widths.append(S.shape[1])
        return span(S)

    monkeypatch.setattr(observability, "column_span", recording_span)
    ok, k_star = rank_condition(system, unit_schedule(), 64)
    assert not ok and k_star is None
    assert len(widths) == 64
    assert max(widths) <= system.n + system.m


def test_kalman_rank_examples():
    assert kalman_rank(np.zeros((2, 2)), [np.eye(2)])
    system = two_component_invariant_system()
    assert not kalman_rank(system.coupling, [system.gain(1)])
    assert kalman_rank(np.array([[0.0, 1.0], [0.0, 0.0]]), [np.array([[0.0], [1.0]])])


# ---------------------------------------------------------------------------
# finite_obs_constant


def test_finite_obs_identity_single_time():
    report = finite_obs_constant(np.zeros((2, 2)), [np.eye(2)], [1.0])
    assert report.method == "exact-gramian"
    assert report.constant == pytest.approx(1.0, rel=1e-12)


def test_finite_obs_unobserved_component_is_infinite():
    system = two_component_invariant_system()
    report = finite_obs_constant(system.coupling, [system.gain(1)], [1.0, 2.0, 3.0])
    assert math.isinf(report.constant)


def test_finite_obs_hand_gramian():
    gains = [np.array([[1.0], [0.0]]), np.array([[0.0], [2.0]])]
    report = finite_obs_constant(np.zeros((2, 2)), gains, [0.7, 1.4])
    assert report.constant == pytest.approx(1.0, rel=1e-12)


def test_finite_obs_rejects_bad_times():
    with pytest.raises(ValueError):
        finite_obs_constant(np.zeros((2, 2)), [np.eye(2)], [1.0, 1.0])
    with pytest.raises(ValueError):
        finite_obs_constant(np.zeros((2, 2)), [np.eye(2)], [-1.0])


def test_finite_obs_rejects_an_empty_observation_list():
    with pytest.raises(ValueError, match="at least one observation time"):
        finite_obs_constant(np.zeros((2, 2)), [np.eye(2)], [])


def _observation_stack(P, gains, taus):
    blocks = [
        scipy.linalg.expm(-P * t) @ gains[j % len(gains)]
        for j, t in enumerate(taus)
    ]
    return np.hstack(blocks)


def test_finite_obs_matches_unit_sphere_brute_force():
    # dual route: sampled minimum of the observation quadratic form
    rng = np.random.default_rng(41)
    checked_finite = 0
    checked_singular = 0
    for trial in range(20):
        taus = np.sort(rng.uniform(0.3, 2.5, size=3))
        if trial % 3 == 0:
            # scalar coupling and a single column: one direction unobserved
            P = float(rng.uniform(-0.5, 0.5)) * np.eye(2)
            gains = [rng.normal(size=(2, 1))]
        else:
            P = rng.uniform(-1.5, 1.5, size=(2, 2))
            gains = [rng.normal(size=(2, 1)), rng.normal(size=(2, 1))]
            stack = _observation_stack(P, gains, taus)
            w = np.linalg.svd(stack, compute_uv=False)
            if w[-1] == 0.0 or (w[0] / w[-1]) ** 2 > 500.0:
                continue  # keep the sampled comparison well conditioned
        report = finite_obs_constant(P, gains, taus)
        stack = _observation_stack(P, gains, taus)
        singular = np.linalg.matrix_rank(stack) < 2
        assert math.isinf(report.constant) == singular
        if singular:
            checked_singular += 1
            continue
        vs = rng.standard_normal((10000, 2))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        quad = ((vs @ stack) ** 2).sum(axis=1)
        brute = 1.0 / float(quad.min())
        assert report.constant == pytest.approx(brute, rel=0.05)
        checked_finite += 1
    assert checked_finite >= 8 and checked_singular >= 5


# ---------------------------------------------------------------------------
# cycle checks


def test_cycle_mismatch_is_rejected():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=4)
    two_slot = ImpulseSchedule((0.5, 1.0))
    with pytest.raises(ValueError, match="controllers"):
        delta_obs_constant(system, two_slot, k=2, delta=0.5)
    with pytest.raises(ValueError, match="controllers"):
        hypothesis_verdict(system, two_slot, k_max=4)


# ---------------------------------------------------------------------------
# delta_obs_constant


def test_delta_dominating_relaxation_gives_zero():
    system = two_component_invariant_system()
    report = delta_obs_constant(system, unit_schedule(), k=2, delta=1.0)
    assert report.constant == 0.0
    assert report.delta == 1.0


def test_delta_unobserved_direction_is_infinite():
    system = two_component_invariant_system()
    report = delta_obs_constant(system, unit_schedule(), k=2, delta=0.5)
    assert math.isinf(report.constant)


def test_delta_matches_dense_grid_oracle():
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=8)
    sched = unit_schedule()
    delta = 0.1
    report = delta_obs_constant(system, sched, k=2, delta=delta)

    # independent dense-grid search over the unit circle of a 2-mode slice
    t_k = time_at(sched, 2)
    best = 0.0
    for angle in np.linspace(0.0, math.pi, 20000):
        z = np.zeros((1, 8))
        z[0, 0] = math.cos(angle)
        z[0, 1] = math.sin(angle)
        lhs = l2_norm(apply_adjoint_semigroup(system, z, t_k))
        obs = _observation_sum(system, sched, z, 2, t_k)
        needed = lhs - delta
        if needed > 0.0:
            best = max(best, needed / obs)
    assert report.constant == pytest.approx(best, rel=0.05)


def test_delta_monotone_in_relaxation():
    system = make_system(np.array([[0.2, 0.1], [0.0, 0.3]]), [np.eye(2)], modes=8)
    sched = unit_schedule()
    previous = math.inf
    for delta in (0.05, 0.1, 0.2, 0.5, 1.0):
        report = delta_obs_constant(system, sched, k=2, delta=delta, sample_count=2000)
        assert report.constant <= previous + 1e-12
        previous = report.constant


def test_delta_sample_tables_are_shared_and_read_only():
    two = make_system(np.array([[0.2, 0.1], [0.0, 0.3]]), [np.eye(2)], modes=8)
    three = make_system(
        np.array([[0.1, 0.2, 0.0], [-0.3, 0.2, 0.1], [0.0, 0.4, -0.2]]), [np.eye(3)], modes=8
    )
    sched = unit_schedule()

    def constant(system):
        return delta_obs_constant(system, sched, k=2, delta=0.1).constant

    fresh = {}
    for system in (three, two):
        observability._sample_table.cache_clear()
        fresh[system.n] = constant(system)
    for system in (two, three, two, three):
        assert constant(system) == fresh[system.n]
    Z, norms = observability._sample_table(0, 10000, 2 * observability.PROBE_MODES)
    with pytest.raises(ValueError):
        Z[0, 0] = 1.0
    with pytest.raises(ValueError):
        norms[0] = 1.0


def test_delta_rejects_nonpositive_relaxation():
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=4)
    with pytest.raises(ValueError):
        delta_obs_constant(system, unit_schedule(), k=1, delta=0.0)


def test_delta_rejects_an_empty_horizon():
    system = make_system(np.zeros((1, 1)), [np.eye(1)], modes=4)
    with pytest.raises(ValueError, match="horizon k must be at least 1"):
        delta_obs_constant(system, unit_schedule(), k=0, delta=0.1)


# ---------------------------------------------------------------------------
# compose_obs


def test_compose_single_block_is_identity():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    out = compose_obs(3.7, 0.2, gamma=1, k=1, system=system, sched=unit_schedule())
    assert out == (0.2, 3.7)


def test_compose_contraction_shrinks_delta():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    delta_k, _ = compose_obs(2.0, 0.3, gamma=1, k=4, system=system, sched=unit_schedule())
    assert delta_k <= 0.3


def test_compose_two_blocks_hand_values():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    delta_k, D_k = compose_obs(1.0, 0.1, gamma=1, k=2, system=system, sched=unit_schedule())
    e = math.e
    assert delta_k == pytest.approx(0.1 * (1 + 1 / e) / (1 + e), rel=1e-12)
    assert D_k == pytest.approx(1.0 / (1 + e), rel=1e-12)


def test_composed_constants_hold_on_fresh_samples():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    sched = unit_schedule()
    delta = 0.1
    base = delta_obs_constant(system, sched, k=1, delta=delta)
    delta_2, D_2 = compose_obs(base.constant, delta, gamma=1, k=2, system=system, sched=sched)
    rng = np.random.default_rng(77)
    t_2 = time_at(sched, 2)
    for _ in range(1000):
        z = rng.standard_normal((2, 8))
        lhs = l2_norm(apply_adjoint_semigroup(system, z, t_2))
        obs = _observation_sum(system, sched, z, 2, t_2)
        assert lhs <= D_2 * obs + delta_2 * l2_norm(z) + 1e-9 * l2_norm(z)


@pytest.mark.parametrize("hbar", [1, 2])
@pytest.mark.parametrize("gamma", [1, 2])
def test_compose_obs_block_norms_are_the_semigroup_norms(gamma, hbar):
    # the norms of the powers of one block flow against one exponential
    # per block time, on a non-normal coupling with complex eigenvalues
    P = np.array([[-0.3, 0.8], [-0.5, 0.2]])
    system = make_system(P, [np.eye(2)] * hbar, modes=8)
    sched = ImpulseSchedule(base_times=(0.35,) if hbar == 1 else (0.15, 0.35))
    seen = []

    def spy(A):
        seen.append(spectral_norm(A))
        return seen[-1]

    for k in range(1, 7):
        seen.clear()
        with mock.patch.object(observability, "spectral_norm", spy):
            delta_k, D_k = compose_obs(1.5, 0.2, gamma, k, system, sched)
        want = [semigroup_norm(system, time_at(sched, i * gamma * hbar)) for i in range(k)]
        assert seen == pytest.approx(want, rel=1e-13, abs=0.0)
        inverse = sum(1.0 / v for v in want)
        assert delta_k == pytest.approx(0.2 * sum(want) / inverse, rel=1e-13, abs=0.0)
        assert D_k == pytest.approx(1.5 / inverse, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", ["gamma", "k"])
def test_compose_obs_takes_integer_counts(name):
    # a float gamma once failed deep inside time_at, on a tuple index
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    args = {"D_op": 1.0, "delta": 0.1, "gamma": 1, "k": 2, "system": system, "sched": unit_schedule()}
    with mock.patch.object(observability, "_shifted_flow") as flow:
        for bad in (1.5, 2.0):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                compose_obs(**{**args, name: bad})
    flow.assert_not_called()
    assert compose_obs(**{**args, name: np.int64(2)}) == compose_obs(**{**args, name: 2})


# ---------------------------------------------------------------------------
# semigroup_norm


def test_semigroup_norm_pure_diffusion():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    for t in (0.0, 0.5, 1.0, 3.0):
        assert semigroup_norm(system, t) == pytest.approx(math.exp(-t), rel=1e-12)


def test_semigroup_norm_identity_coupling_exactly_one():
    lam1 = 1.0
    system = make_system(lam1 * np.eye(3), [np.eye(3)], modes=8)
    for t in np.linspace(0.0, 5.0, 11):
        assert semigroup_norm(system, t) == 1.0


def test_semigroup_norm_supercritical_coupling():
    system = make_system(np.diag([1.5, 0.0]), [np.eye(2)], modes=8)
    assert semigroup_norm(system, 1.0) == pytest.approx(math.exp(0.5), rel=1e-12)


def test_dissipative_implies_contraction():
    rng = np.random.default_rng(42)
    lam1 = 1.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        raw = rng.uniform(-1.0, 1.0, size=(n, n))
        sym_max = np.linalg.eigvalsh(0.5 * (raw + raw.T))[-1]
        P = raw - (sym_max - lam1 + rng.uniform(0.0, 0.5)) * np.eye(n)
        system = make_system(P, [np.eye(n)], modes=8)
        for t in np.linspace(0.0, 5.0, 21):
            assert semigroup_norm(system, t) <= 1.0 + 1e-10


# ---------------------------------------------------------------------------
# hypothesis_verdict


def test_verdict_for_invariant_component_system():
    system = two_component_invariant_system()
    verdict = hypothesis_verdict(system, unit_schedule(), k_max=20)
    assert not verdict.rank_ok
    assert verdict.k_star is None
    assert not verdict.kalman_ok
    assert verdict.spectral == "boundary"
    assert verdict.dissipative
    assert not verdict.omega_full


def test_verdict_all_good_system():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    verdict = hypothesis_verdict(system, unit_schedule(), k_max=5)
    assert verdict.rank_ok and verdict.k_star == 1
    assert verdict.kalman_ok
    assert verdict.spectral == "strict"
    assert verdict.dissipative
    assert verdict.omega_full


def test_verdict_supercritical_spectrum():
    system = make_system(np.diag([2.0, 0.0]), [np.eye(2)], modes=8)
    verdict = hypothesis_verdict(system, unit_schedule(), k_max=5)
    assert verdict.spectral == "violated"
    assert not verdict.dissipative


# ---------------------------------------------------------------------------
# one controller per slot; typed errors of the composition


def test_rank_condition_needs_one_gain_per_slot():
    e1 = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError, match="2 impulse slots but the system has 1 controllers"):
        rank_condition(make_system(np.eye(2), [e1]), ImpulseSchedule((0.5, 1.0)), 4)
    with pytest.raises(ValueError, match="1 impulse slots but the system has 2 controllers"):
        rank_condition(make_system(np.eye(2), [e1, e1]), ImpulseSchedule((1.0,)), 4)


@pytest.mark.parametrize("rate, t_bad", [(800.0, 1.0), (739.0, 1.0)])
def test_compose_obs_raises_typed_error_when_a_flow_norm_has_no_inverse(rate, t_bad):
    # ||flow(1)|| = exp(-(rate + 1)): 0 for rate 800, subnormal with an
    # infinite inverse for rate 739
    system = make_system(-rate * np.eye(1), [np.eye(1)], modes=4)
    with pytest.raises(NonFiniteStateError, match=f"t = {t_bad}"):
        compose_obs(1.0, 0.1, 1, 3, system, unit_schedule())
