"""Tests for periodic schedules and the schedule picker."""

import math

import numpy as np
import pytest

from impulse_gcac.linalg import mat_exp, numerical_rank
from impulse_gcac.schedule import (
    ImpulseSchedule,
    d_min_imag,
    krylov_dim,
    nu,
    pick_schedule,
    schedule_depth,
    time_at,
)


def kalman_stack(P, Q):
    n = P.shape[0]
    blocks = [Q]
    for _ in range(n - 1):
        blocks.append(P @ blocks[-1])
    return np.hstack(blocks)


def test_time_at_examples():
    assert time_at(ImpulseSchedule((1.0,)), 5) == 5.0
    assert time_at(ImpulseSchedule((0.3, 1.0)), 3) == pytest.approx(1.3, rel=1e-15)
    assert time_at(ImpulseSchedule((0.5, 2.0)), 0) == 0.0


def test_nu_strict_floor_convention():
    assert nu(ImpulseSchedule((1.0, 2.0, 3.0)), 3) == 3
    assert nu(ImpulseSchedule((1.0, 2.0, 3.0)), 4) == 1
    assert nu(ImpulseSchedule((1.0, 2.0)), 7) == 1
    with pytest.raises(ValueError):
        nu(ImpulseSchedule((1.0,)), 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ImpulseSchedule(())
    with pytest.raises(ValueError):
        ImpulseSchedule((0.0, 1.0))
    with pytest.raises(ValueError):
        ImpulseSchedule((1.0, 1.0))
    with pytest.raises(ValueError):
        ImpulseSchedule((2.0, 1.0))


def test_periodicity_exact_on_dyadic_times():
    # dyadic base times make every time_at value exactly representable,
    # so the period identities hold with float equality
    rng = np.random.default_rng(31)
    for _ in range(20):
        hbar = int(rng.integers(1, 4))
        steps = np.cumsum(rng.integers(1, 5, size=hbar)) * 0.25
        sched = ImpulseSchedule(tuple(steps))
        for _ in range(15):
            j = int(rng.integers(1, 41))
            k = int(rng.integers(0, 6))
            assert time_at(sched, j + k * hbar) == time_at(sched, j) + k * sched.period
            assert nu(sched, j + k * hbar) == nu(sched, j)


def test_periodicity_general_times():
    rng = np.random.default_rng(32)
    for _ in range(20):
        hbar = int(rng.integers(1, 4))
        steps = np.cumsum(rng.uniform(0.1, 1.0, size=hbar))
        sched = ImpulseSchedule(tuple(steps))
        j = int(rng.integers(1, 41))
        k = int(rng.integers(0, 6))
        lhs = time_at(sched, j + k * hbar) - time_at(sched, j)
        assert lhs == pytest.approx(k * sched.period, abs=1e-12)


def test_krylov_dim_examples():
    assert krylov_dim(np.array([[0.0, 1.0], [0.0, 0.0]]), [0.0, 1.0]) == 2
    assert krylov_dim(np.zeros((3, 3)), [0.0, 0.0, 0.0]) == 0
    assert krylov_dim(2.0 * np.eye(2), [0.0, 1.0]) == 1


def test_d_min_imag_examples():
    assert math.isinf(d_min_imag(np.diag([1.0, 2.0])))
    assert d_min_imag(np.array([[0.0, -1.0], [1.0, 0.0]])) == pytest.approx(math.pi, rel=1e-12)
    assert d_min_imag(np.array([[0.0, -2.0], [2.0, 0.0]])) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_pick_schedule_real_spectrum_defaults_to_unit_period():
    sched = pick_schedule(np.diag([1.0, -2.0]), [np.eye(2)])
    assert sched.period == 1.0
    assert sched.base_times == (1.0,)


def test_pick_schedule_rotation_example():
    P = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert schedule_depth(P, [np.eye(2)]) == 1
    sched = pick_schedule(P, [np.eye(2)])
    # d = pi, q = 1: period = min(1, pi/2) = 1
    assert sched.period == 1.0


def test_pick_schedule_fast_rotation_shrinks_period():
    P = np.array([[0.0, -8.0], [8.0, 0.0]])
    sched = pick_schedule(P, [np.array([[1.0], [0.0]])])
    # d = pi/8, q = 1: period = pi/16
    assert sched.period == pytest.approx(math.pi / 16.0, rel=1e-12)
    q = schedule_depth(P, [np.array([[1.0], [0.0]])])
    assert q * sched.period < d_min_imag(-P)


def test_pick_schedule_scalar_coupling_is_depth_zero():
    lam1 = 1.0
    sched = pick_schedule(lam1 * np.eye(2), [np.array([[0.0], [1.0]])])
    assert schedule_depth(lam1 * np.eye(2), [np.array([[0.0], [1.0]])]) == 0
    assert sched.period == 1.0


def test_pick_schedule_splits_period_across_actuators():
    gains = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
    sched = pick_schedule(np.zeros((2, 2)), gains)
    assert sched.hbar == 2
    np.testing.assert_allclose(sched.base_times, [0.5, 1.0], rtol=1e-15)


def test_span_property_within_rotation_window():
    # sampling one actuator at q+1 schedule times inside a rotation window
    # spans exactly the Krylov space of (-P, Q)
    rng = np.random.default_rng(33)
    for _ in range(15):
        angle = rng.uniform(0.5, 6.0)
        block = np.array([[rng.uniform(-1, 1), -angle], [angle, rng.uniform(-1, 1)]])
        S = rng.normal(size=(2, 2))
        while abs(np.linalg.det(S)) < 0.2:
            S = rng.normal(size=(2, 2))
        P = S @ block @ np.linalg.inv(S)
        Q = rng.normal(size=(2, int(rng.integers(1, 3))))
        sched = pick_schedule(P, [Q])
        q = schedule_depth(P, [Q])
        times = [time_at(sched, 1 + i * sched.hbar) for i in range(q + 1)]
        assert times[-1] - times[0] < d_min_imag(-P)
        stacked = np.hstack([mat_exp(-P, t) @ Q for t in times])
        assert numerical_rank(stacked) == numerical_rank(kalman_stack(-P, Q))


def test_slot_lengths_are_the_time_differences_bitwise():
    rng = np.random.default_rng(41)
    for _ in range(50):
        base = np.cumsum(rng.uniform(0.01, 3.0, size=int(rng.integers(1, 6))))
        sched = ImpulseSchedule(base_times=tuple(float(b) for b in base))
        assert len(sched.slot_lengths) == sched.hbar
        for r in range(1, sched.hbar + 1):
            assert sched.slot_lengths[r - 1] == time_at(sched, r) - time_at(sched, r - 1)
