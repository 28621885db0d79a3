"""Property tests: the propagator engine and the identities built on it.

Hypothesis runs these under the deterministic "tier1" profile registered
in conftest.py. Systems are drawn from a seed plus a few structural
choices: the dimension, the number of controllers, how far the coupling
spectrum stays below the first diffusion eigenvalue, and the period.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from impulse_gcac.linalg import mat_exp, min_norm_solve
from impulse_gcac.schedule import ImpulseSchedule, time_at
from impulse_gcac.spectral import Propagators, random_state, zero_state
from impulse_gcac.synthesis import (
    ControlSequence,
    _HorizonModel,
    _null_equations,
    null_steer,
    simulate,
)

from conftest import make_system

mpmath = pytest.importorskip("mpmath")

LAM1 = 1.0  # first diffusion eigenvalue on (0, pi)


@st.composite
def strict_systems(draw, local=False, modes=6):
    """(system, sched) with every coupling eigenvalue strictly below LAM1.

    Coupling entries lie in [-0.5, 0.5] before the shift and the period in
    [0.02, 0.25], so pull-back maps up to 512 impulses stay representable.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 3))
    hbar = draw(st.integers(1, 2))
    margin = draw(st.floats(0.01, 1.0))
    period = draw(st.floats(0.02, 0.25))
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-0.5, 0.5, (n, n))
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
    for j in range(1, 2 * sched.hbar + 1):
        assert rel_err(props.pullback(j), mat_exp(-shifted, time_at(sched, j))) <= 1e-12
    for j in sorted({k, (k + 1) // 2, max(1, k - 1)}):
        assert rel_err(props.pullback(j), oracle_exp(-shifted, time_at(sched, j))) <= 1e-12
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
