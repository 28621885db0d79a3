"""Tests for the spectral model: modes, overlaps, flow, impulses."""

import math

import numpy as np
import pytest
from conftest import make_system, two_component_invariant_system

from impulse_gcac.spectral import (
    Controller,
    CoupledSystem,
    SpectralDomain,
    apply_impulse,
    apply_semigroup,
    l2_norm,
    overlap_matrix,
    random_state,
    single_mode_state,
    zero_state,
)

# ---------------------------------------------------------------------------
# eigen data


def test_eigen_data_unit_pi_interval():
    domain = SpectralDomain(length=math.pi, modes=8)
    for i in (1, 2, 5):
        assert domain.eigenvalue(i) == pytest.approx(i**2, rel=1e-15)


def test_eigen_data_general_length():
    domain = SpectralDomain(length=2.0, modes=4)
    assert domain.eigenvalue(1) == pytest.approx((math.pi / 2.0) ** 2, rel=1e-15)


# ---------------------------------------------------------------------------
# overlap matrices


def test_overlap_full_interval_is_exact_identity():
    domain = SpectralDomain(length=math.pi, modes=16)
    np.testing.assert_array_equal(overlap_matrix(domain, 0.0, math.pi), np.eye(16))


def test_overlap_half_interval_hand_values():
    # on (0, pi/2): diagonal entry 1/2, first off-diagonal 4/(3 pi)
    domain = SpectralDomain(length=math.pi, modes=4)
    G = overlap_matrix(domain, 0.0, math.pi / 2.0)
    assert G[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert G[0, 1] == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-13)
    assert G[1, 0] == pytest.approx(G[0, 1], rel=1e-15)


def test_overlap_is_symmetric_projection_like():
    rng = np.random.default_rng(21)
    domain = SpectralDomain(length=2.5, modes=24)
    for _ in range(10):
        a = rng.uniform(0.0, 1.2)
        b = rng.uniform(a + 0.1, 2.5)
        G = overlap_matrix(domain, a, b)
        np.testing.assert_allclose(G, G.T, atol=1e-15)
        eig = np.linalg.eigvalsh(G)
        assert eig[0] >= -1e-12
        assert eig[-1] <= 1.0 + 1e-12


def test_overlap_block_consistency_across_truncations():
    small = SpectralDomain(length=math.pi, modes=16)
    big = SpectralDomain(length=math.pi, modes=32)
    a, b = 0.4, 2.0
    G16 = overlap_matrix(small, a, b)
    G32 = overlap_matrix(big, a, b)
    np.testing.assert_array_equal(G32[:16, :16], G16)


def test_overlap_truncation_leakage_shrinks_like_one_over_modes():
    # energy of the restricted mode-1 function beyond the truncation
    def leakage(modes):
        domain = SpectralDomain(length=math.pi, modes=modes)
        G = overlap_matrix(domain, 0.0, math.pi / 2.0)
        total = G[0, 0]
        captured = float(G[:, 0] @ G[:, 0])
        return total - captured

    leak32 = leakage(32)
    leak64 = leakage(64)
    assert 0.0 <= leak64 <= leak32 <= 0.02
    assert leak64 <= 0.65 * leak32


def test_overlap_rejects_bad_interval():
    domain = SpectralDomain(length=1.0, modes=4)
    with pytest.raises(ValueError):
        overlap_matrix(domain, 0.5, 0.5)
    with pytest.raises(ValueError):
        overlap_matrix(domain, 0.0, 1.5)


# ---------------------------------------------------------------------------
# system validation


def test_system_invariants_enforced():
    domain = SpectralDomain(length=1.0, modes=4)
    good = Controller(gain=np.eye(2), support=(0.0, 1.0))
    with pytest.raises(ValueError):
        CoupledSystem(np.zeros((2, 3)), [good], domain)
    with pytest.raises(ValueError):
        CoupledSystem(np.zeros((2, 2)), [], domain)
    with pytest.raises(ValueError):
        CoupledSystem(
            np.zeros((2, 2)),
            [Controller(gain=np.zeros((2, 1)), support=(0.0, 1.0))],
            domain,
        )
    with pytest.raises(ValueError):
        CoupledSystem(
            np.zeros((2, 2)),
            [Controller(gain=np.eye(2), support=(0.2, 0.1))],
            domain,
        )
    with pytest.raises(ValueError):
        # disjoint supports: no common interval
        CoupledSystem(
            np.zeros((2, 2)),
            [
                Controller(gain=np.eye(2), support=(0.0, 0.4)),
                Controller(gain=np.eye(2), support=(0.6, 1.0)),
            ],
            domain,
        )


# ---------------------------------------------------------------------------
# semigroup


def test_semigroup_single_mode_decay():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    state = single_mode_state(system, 2, [1.0, 0.0])
    out = apply_semigroup(system, state, 1.0)
    expected = single_mode_state(system, 2, [math.exp(-4.0), 0.0])
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0.0)


def test_semigroup_zero_time_is_identity():
    system = make_system(np.array([[0.0, 1.0], [-1.0, 0.5]]), [np.eye(2)], modes=6)
    state = random_state(system, np.random.default_rng(3), norm=2.0)
    np.testing.assert_array_equal(apply_semigroup(system, state, 0.0), state)


def test_semigroup_composition_law():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        system = make_system(rng.uniform(-1, 1, (n, n)), [np.eye(n)], modes=12)
        state = random_state(system, rng, norm=1.0)
        s, t = rng.uniform(0.05, 1.5, size=2)
        one_shot = apply_semigroup(system, state, s + t)
        split = apply_semigroup(system, apply_semigroup(system, state, s), t)
        np.testing.assert_allclose(split, one_shot, rtol=1e-10, atol=1e-13)


def test_semigroup_rejects_negative_time():
    system = make_system(np.zeros((1, 1)), [np.ones((1, 1))], modes=4)
    with pytest.raises(ValueError):
        apply_semigroup(system, zero_state(system), -0.1)


# ---------------------------------------------------------------------------
# impulses


def test_impulse_full_support_is_plain_addition():
    rng = np.random.default_rng(23)
    system = make_system(np.zeros((2, 2)), [rng.normal(size=(2, 2))], modes=8)
    state = random_state(system, rng)
    u = rng.normal(size=(2, 8))
    out = apply_impulse(system, state, 1, u)
    np.testing.assert_array_equal(out, state + system.gain(1) @ u)


def test_impulse_local_support_uses_gram_projection():
    rng = np.random.default_rng(24)
    system = make_system(
        np.zeros((2, 2)),
        [np.array([[1.0], [0.0]])],
        supports=[(0.0, math.pi / 2.0)],
        modes=8,
    )
    state = zero_state(system)
    u = np.zeros((1, 8))
    u[0, 0] = 1.0  # control along mode 1
    out = apply_impulse(system, state, 1, u)
    G = system.overlap(1)
    # component 1 of mode l receives G[l, 1]
    np.testing.assert_allclose(out[0], G[0], rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(out[1], np.zeros(8))


def test_impulse_shape_validation():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    with pytest.raises(ValueError):
        apply_impulse(system, zero_state(system), 1, np.zeros((2, 7)))
    with pytest.raises(ValueError):
        apply_impulse(system, zero_state(system), 2, np.zeros((2, 8)))


def test_untouched_component_is_exactly_conserved():
    # the actuator feeds only component 2 and the coupling is diagonal, so
    # component 1 of mode 1 never changes, under flow or impulses
    system = two_component_invariant_system(modes=16)
    rng = np.random.default_rng(25)
    state = single_mode_state(system, 1, [0.5, 0.0])
    state[1] += rng.normal(size=16) * 0.1
    first = state[0, 0]
    for _ in range(12):
        state = apply_semigroup(system, state, rng.uniform(0.1, 1.0))
        u = rng.normal(size=(1, 16))
        u *= min(1.0, 1.0 / np.linalg.norm(u))
        state = apply_impulse(system, state, 1, u)
        assert state[0, 0] == first


# ---------------------------------------------------------------------------
# norms


def test_l2_norm_is_parseval_sum():
    rng = np.random.default_rng(26)
    state = rng.normal(size=(3, 10))
    per_mode = np.linalg.norm(state, axis=0)
    assert l2_norm(state) == pytest.approx(math.sqrt(float(per_mode @ per_mode)), rel=1e-14)


def test_random_state_norm():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    st = random_state(system, np.random.default_rng(0), norm=7.5)
    assert l2_norm(st) == pytest.approx(7.5, rel=1e-12)
