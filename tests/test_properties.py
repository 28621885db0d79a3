"""Property tests: the propagator engine, the span helper, and the
identities, rank decisions and synthesizer contracts built on them.

Hypothesis runs these under the deterministic "tier1" profile registered
in conftest.py. Systems are drawn from a seed plus a few structural
choices: the dimension, the number of controllers, how far the coupling
spectrum stays below the first diffusion eigenvalue, and the period.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from impulse_gcac import synthesis
from impulse_gcac.linalg import RANK_TOL, column_span, mat_exp, min_norm_solve, numerical_rank
from impulse_gcac.observability import (
    RankDeficiencyError,
    PROBE_MODES,
    _rank_search,
    _reading_maps,
    _reading_matrix,
    delta_obs_constant,
    finite_obs_constant,
    hypothesis_verdict,
    rank_condition,
)
from impulse_gcac.schedule import ImpulseSchedule, nu, time_at
from impulse_gcac.spectral import (
    Propagators,
    apply_adjoint_semigroup,
    l2_norm,
    random_state,
    zero_state,
)
from impulse_gcac.synthesis import (
    BUDGET_SLACK,
    ControlSequence,
    _HorizonModel,
    _block_norms,
    _null_equations,
    constrained_null_synthesize,
    gcac_synthesize,
    local_gcac_synthesize,
    null_steer,
    simulate,
)
from impulse_gcac.witness import InapplicableCertificateError, negative_bound, reachability_gap

from conftest import _observation_sum, make_system, oracle_exp

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
    # maps to the final impulse: products of step maps
    to_final = props.to_final(k)
    assert len(to_final) == k + 1
    for j in sorted({0, k // 2, k - 1}):
        F, _ = to_final[j]
        tau = time_at(sched, k) - time_at(sched, j)
        assert rel_err(F, oracle_exp(shifted, tau)) <= 1e-12


def test_direct_mat_exp_stays_accurate_at_t_512():
    # couplings with spectra in [-0.5, 1), shifted by LAM1: the scaling and
    # squaring of one long flow must not lose more than its rounding
    rng = np.random.default_rng(512)
    worst = 0.0
    for i in range(48):
        n = 2 + i % 2
        while True:
            raw = rng.uniform(-0.5, 0.5, (n, n))
            top = float(np.linalg.eigvals(raw).real.max())
            P = raw + (LAM1 - rng.uniform(0.01, 0.5) - top) * np.eye(n)
            if np.linalg.eigvals(P).real.min() >= -0.5:
                break
        shifted = P - LAM1 * np.eye(n)
        worst = max(worst, rel_err(mat_exp(shifted, 512.0), oracle_exp(shifted, 512.0)))
    assert worst <= 1e-12


@given(strict_systems(), st.integers(1, 40), st.integers(0, 40))
def test_shorter_gain_stacks_are_tails_of_longer_ones_bitwise(case, k, extra):
    # the engine answers horizon k from the product it built for K = k + c hbar,
    # never from the longer one of another slot (K + 1, when hbar > 1); the
    # reference multiplies the step maps backwards from t_k afresh
    system, sched = case
    K = k + sched.hbar * (extra // sched.hbar)
    props = Propagators(system, sched)
    props.gain_stack(K + 1)
    props.gain_stack(K)
    F0, d0, S, G, _ = props.final_stack(k)
    F, d, blocks, flows = np.eye(system.n), np.ones(system.domain.modes), [], []
    for j in range(k, 0, -1):
        blocks.append(F @ system.gain(nu(sched, j)))
        flows.append((F, d))
        E, decay = props.steps[(j - 1) % sched.hbar]
        F, d = F @ E, d * decay
    flows.append((F, d))
    assert np.array_equal(F0, F) and np.array_equal(d0, d)
    assert np.array_equal(S, np.hstack(blocks[::-1]))
    decays = [d for _, d in flows[-2::-1]]
    assert np.array_equal(G, np.repeat(np.array(decays), system.m, axis=0))
    # every map and decay of to_final, from t_0 to t_k
    to_final = props.to_final(k)
    assert len(to_final) == k + 1
    for (Fj, dj), (F, d) in zip(to_final, flows[::-1]):
        assert np.array_equal(Fj, F) and np.array_equal(dj, d)


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


@st.composite
def underflowing_systems(draw):
    """Dissipative `strict_systems` on 96-160 modes with periods of 0.4-1,
    each controller on the full interval or its drawn local support.

    Over one period every decay underflows to exactly 0 past mode 44 or
    earlier, so a descent that cuts every dead column has columns to cut.
    """
    modes = draw(st.integers(96, 160))
    system, sched = draw(
        strict_systems(local=True, modes=modes, dissipative=True, periods=(0.4, 1.0))
    )
    full = draw(st.lists(st.booleans(), min_size=system.hbar, max_size=system.hbar))
    supports = [(0.0, math.pi) if f else c.support for f, c in zip(full, system.controllers)]
    return make_system(system.coupling, system.gains, supports=supports, modes=modes), sched


# two slots, full then local support, on 128 modes
MIXED_UNDERFLOW = (
    make_system(
        np.array([[-0.4, 0.3], [-0.2, 0.1]]),
        [np.eye(2), np.array([[1.0, -0.5], [0.3, 1.0]])],
        supports=[(0.0, math.pi), (0.4, 2.1)],
        modes=128,
    ),
    ImpulseSchedule(base_times=(0.3, 0.8)),
)


# two slots, both local, on 128 modes
LOCAL_UNDERFLOW = (
    make_system(
        np.array([[-0.4, 0.3], [-0.2, 0.1]]),
        [np.eye(2), np.array([[1.0, -0.5], [0.3, 1.0]])],
        supports=[(0.2, 1.7), (0.4, 2.1)],
        modes=128,
    ),
    ImpulseSchedule(base_times=(0.3, 0.8)),
)


def _eager_decays(props, k):
    """Rows j = 0..k: the per-mode decay from t_j to t_k, one product per
    impulse backwards from t_k, as an engine that built every decay with
    its maps would have them."""
    d, rows = np.ones(props.system.domain.modes), []
    for j in range(k, 0, -1):
        rows.append(d)
        d = d * props.steps[(j - 1) % props.hbar][1]
    return np.array([d] + rows[::-1])


# one slot on 128 modes: one step's decay is subnormal at mode 38 and 0 past it
ONE_SLOT_UNDERFLOW = (
    make_system(np.diag([-0.2, 0.1]), [np.array([[1.0], [0.5]])], modes=128),
    ImpulseSchedule(base_times=(0.5,)),
)


@pytest.mark.parametrize("k", [1, 4, 7])
@pytest.mark.parametrize("probed", [False, True])
@pytest.mark.parametrize("case", [ONE_SLOT_UNDERFLOW, MIXED_UNDERFLOW], ids=["hbar1", "hbar2"])
def test_decays_extended_on_demand_match_the_eager_recurrence_bitwise(case, probed, k):
    # a probed engine served gain_stack(2k) first, which builds maps but no
    # decays; a longer horizon of k's slot then extends the decays kept for k
    system, sched = case
    props = Propagators(system, sched)
    if probed:
        props.gain_stack(2 * k)
    for K in (k, k + 3 * sched.hbar):
        eager = _eager_decays(props, K)
        _, d0, _, G, live = props.final_stack(K)
        assert np.array_equal(d0, eager[0])
        assert np.array_equal(G, np.repeat(eager[1:], system.m, axis=0))
        assert np.array_equal(live, np.count_nonzero(eager, axis=1))
        assert all(np.array_equal(d, e) for (_, d), e in zip(props.to_final(K), eager))


def test_project_returns_its_input_on_full_supports_and_weights_each_slot_otherwise():
    rng = np.random.default_rng(11)
    full = make_system(np.diag([-0.2, 0.1]), [np.eye(2), np.eye(2)], modes=16)
    U = rng.standard_normal((5, 2, 16))
    assert Propagators(full, ImpulseSchedule(base_times=(0.1, 0.3))).project(U) is U
    # mixed supports: slot 1 is full, slot 2 local; a batch axis and a cut p < N
    system, sched = MIXED_UNDERFLOW
    props = Propagators(system, sched)
    for shape in [(7, 2, 128), (3, 6, 2, 20)]:
        U = rng.standard_normal(shape)
        p, want = shape[-1], U.copy()
        rows = U[..., 1::2, :, :]
        want[..., 1::2, :, :] = (rows.reshape(-1, p) @ system._grams[1][:p, :p]).reshape(rows.shape)
        got = props.project(U)
        assert got is not U and np.array_equal(got, want)


def cut_every_dead_column():
    """Let the descent cut wherever a column is dead, however little it saves."""
    return mock.patch.object(synthesis, "_CUT_SAVING", 0)


def test_the_descent_cuts_only_where_it_saves_enough_work():
    system, sched = LOCAL_UNDERFLOW
    props = Propagators(system, sched)
    assert _HorizonModel(props, 7).pieces is None  # 6 rows of about 80 dead modes
    with cut_every_dead_column():
        model = _HorizonModel(props, 7)
        # a full support has no Gram product to save: a model with one is never cut
        assert _HorizonModel(Propagators(*MIXED_UNDERFLOW), 7).pieces is None
    cuts = [modes.stop for _, modes, *_ in model.pieces[:-1]]
    assert len(cuts) == 2 and all(0 < p < 64 for p in cuts)
    # one slot on 512 modes: the earlier impulses of a horizon of 4 are cut
    # to the prefix of the last but one, those of a horizon of 2 are not
    gain = np.array([[1.0], [0.5]])
    local = make_system(np.diag([-0.2, 0.1]), [gain], supports=[(0.4, 2.1)], modes=512)
    props = Propagators(local, ImpulseSchedule(base_times=(0.5,)))
    live = props.final_stack(4)[4]
    assert [modes for _, modes, *_ in _HorizonModel(props, 4).pieces] == [
        slice(0, live[3]),
        slice(live[3], 512),
    ]
    assert _HorizonModel(props, 2).pieces is None


@example(case=LOCAL_UNDERFLOW, k=7)
@example(case=MIXED_UNDERFLOW, k=7)
@given(underflowing_systems(), st.integers(1, 12))
def test_cut_maps_match_the_dense_products_and_the_replay(case, k):
    system, sched = case
    props = Propagators(system, sched)
    with cut_every_dead_column():
        model = _HorizonModel(props, k)
    rng = np.random.default_rng(k)
    U = rng.standard_normal(model.shape)
    y = random_state(system, rng)
    # the dense oracle: every impulse row on all N modes
    _, _, S, G, _ = props.final_stack(k)
    image, grads = model.apply(U), model.gradient(y)
    assert rel_err(image, S @ (props.project(U).reshape(G.shape) * G)) <= 1e-13
    assert rel_err(grads, props.project(((S.T @ y) * G).reshape(model.shape))) <= 1e-13
    scale = np.linalg.norm(U) * np.linalg.norm(grads) + np.linalg.norm(image) * np.linalg.norm(y)
    assert abs(float(np.vdot(image, y)) - float(np.vdot(U, grads))) <= 1e-12 * scale
    x0 = random_state(system, rng)
    replay = model.forward(x0, list(U))
    assert np.linalg.norm(model.free(x0) + image - replay) <= 1e-12 * np.linalg.norm(replay)


@example(case=LOCAL_UNDERFLOW, k=7)
@example(case=MIXED_UNDERFLOW, k=7)
@given(underflowing_systems(), st.integers(1, 12))
def test_the_live_prefix_is_exact(case, k):
    # every decay is 0.0 past its reported prefix and nonzero at its end
    system, sched = case
    _, d0, _, G, live = Propagators(system, sched).final_stack(k)
    assert live.shape == (k + 1,) and live[k] == system.domain.modes
    for decay, p in zip(np.vstack([d0, G[:: system.m]]), live):
        assert np.all(decay[p:] == 0.0) and decay[p - 1] != 0.0


@settings(max_examples=10)
@example(case=LOCAL_UNDERFLOW, norm=2.0, frac=0.05)
@example(case=MIXED_UNDERFLOW, norm=2.0, frac=0.05)
@given(underflowing_systems(), st.floats(0.1, 3.0), st.floats(0.01, 0.5))
def test_local_synthesis_on_cut_models_returns_its_replay(case, norm, frac):
    system, sched = case
    x0 = random_state(system, np.random.default_rng(7), norm=norm)
    with cut_every_dead_column():
        res = local_gcac_synthesize(system, sched, x0, frac * norm, 8)
    replay = simulate(system, sched, x0, res.controls, res.horizon_k)
    assert np.array_equal(res.final_state, replay)
    assert res.residual == l2_norm(res.final_state)


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
    p=4,
)
@given(strict_systems(local=True), st.integers(1, 12), st.integers(1, 6))
def test_stacked_readings_match_the_per_impulse_oracle(case, k, p):
    # the segments of z @ W, read at t_k as delta_obs_constant reads them:
    # states on p <= N modes are zero-padded
    system, sched = case
    W, cuts = _reading_matrix(_reading_maps(system, sched, k, p))
    rng = np.random.default_rng(k + p)
    Z = rng.standard_normal((3, system.n, p))
    T = time_at(sched, k)
    for z in Z:
        segments = np.split(z.reshape(-1) @ W, cuts[1:])
        got_lhs = np.linalg.norm(segments[0])
        got_obs = sum(np.linalg.norm(seg) for seg in segments[1:])
        padded = zero_state(system)
        padded[:, :p] = z
        want_lhs = l2_norm(apply_adjoint_semigroup(system, padded, T))
        want_obs = _observation_sum(system, sched, padded, k, T)
        assert got_lhs == pytest.approx(want_lhs, rel=1e-12)
        assert got_obs == pytest.approx(want_obs, rel=1e-12)


def _per_poll_delta_obs(system, sched, k, delta, sample_count, seed=0):
    """`delta_obs_constant` with every poll read through the engine.

    The reference algorithm: each batch of states, samples or 2 n p
    normalized candidates of a vstack pattern search, is flowed and read
    through `final_stack` and the slot-wise Gram products of `project`.
    """
    n, m, pm = system.n, system.m, min(PROBE_MODES, system.domain.modes)
    props = Propagators(system, sched)
    F0, d0, S, G, _ = props.final_stack(k)
    F0T, d0, S, G = F0.T, d0[:pm], S[:, : k * m], G[: k * m, :pm]
    kernel = column_span(S).null
    if kernel.size and np.linalg.norm(F0T @ kernel, 2) > delta * (1.0 + 1e-12):
        return math.inf

    def evaluate(zs):
        Z = zs.reshape(len(zs), n, pm)
        lhs = np.linalg.norm(((F0T @ Z) * d0).reshape(len(zs), -1), axis=1)
        Y = ((S.T @ Z) * G).reshape(len(zs), k, m, pm)
        energy = np.sum(Y * props.project(Y), axis=(2, 3))
        obs = np.sqrt(np.maximum(energy, 0.0)).sum(axis=1)
        needed = lhs - delta * np.linalg.norm(zs, axis=1)
        out = np.zeros(len(zs))
        positive = needed > 0.0
        with np.errstate(divide="ignore"):
            out[positive] = np.where(
                obs[positive] > 0.0, needed[positive] / obs[positive], math.inf
            )
        return out

    samples = np.random.default_rng(seed).standard_normal((sample_count, n * pm))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    required = evaluate(samples)
    best = samples[int(np.argmax(required))]
    best_val = float(required.max())
    step, eye = 0.3, np.eye(n * pm)
    while step > 1e-8:
        candidates = np.vstack([best + step * eye, best - step * eye])
        candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)
        vals = evaluate(candidates)
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val, best = float(vals[idx]), candidates[idx]
        else:
            step *= 0.5
    return best_val


def _gram_cuts_conditioned(case):
    # on an ill-conditioned Gram cut both evaluations round at about
    # 1e-16 cond relative in the weak directions the search seeks; the
    # search creeps there for seconds, and two searches that differ only
    # in rounding end further apart than 1e-10 (3e-9 to 3e-3 at cond 8e9)
    system, _ = case
    return all(
        np.linalg.cond(system.overlap(r)[:PROBE_MODES, :PROBE_MODES]) <= 1e4
        for r in range(1, system.hbar + 1)
    )


@example(
    # the first component is invisible and survives the flow: +inf
    case=(
        make_system(np.diag([-0.2, 0.3]), [np.array([[0.0], [1.0]])], supports=[(0.0, 1.5)], modes=6),
        ImpulseSchedule(base_times=(0.1,)),
    ),
    k=3,
    delta=0.1,
)
@example(
    # delta above the flow's norm: no state needs a constant, 0
    case=(
        make_system(np.array([[0.2, 0.4], [-0.3, 0.1]]), [np.eye(2)], supports=[(0.3, 2.0)], modes=6),
        ImpulseSchedule(base_times=(0.1,)),
    ),
    k=2,
    delta=1.5,
)
@given(
    strict_systems(local=True).filter(_gram_cuts_conditioned),
    st.integers(1, 6),
    st.floats(0.1, 0.6),
)
@settings(max_examples=8)
def test_reading_matrix_search_matches_the_per_poll_search(case, k, delta):
    system, sched = case
    got = delta_obs_constant(system, sched, k, delta, sample_count=300).constant
    want = _per_poll_delta_obs(system, sched, k, delta, sample_count=300)
    if want in (0.0, math.inf) or got in (0.0, math.inf):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "coupling, gains, base_times, k, delta",
    [
        # n = 2 and 3, one and two slots, full supports, 32 modes; k = k*
        (
            [[-0.4, 0.6], [-0.3, 0.2]],
            [[[1.0], [0.5]]],
            (0.3,),
            2,
            0.05,
        ),
        (
            [[0.1, -0.5], [0.4, -0.2]],
            [[[1.0], [-0.3]], [[0.2], [1.0]]],
            (0.15, 0.4),
            2,
            0.2,
        ),
        (
            [[-0.3, 0.5, 0.0], [-0.2, 0.1, 0.4], [0.1, -0.3, -0.5]],
            [[[1.0], [0.2], [-0.4]]],
            (0.25,),
            3,
            0.05,
        ),
        (
            [[0.2, 0.3, -0.1], [-0.4, -0.1, 0.2], [0.0, 0.3, -0.6]],
            [[[0.6], [1.0], [0.1]], [[-0.2], [0.3], [1.0]]],
            (0.1, 0.35),
            3,
            0.2,
        ),
    ],
)
def test_shared_sample_table_search_matches_the_per_poll_search(
    coupling, gains, base_times, k, delta
):
    # the default 10,000 samples, read from the shared table
    Q = [np.array(g) for g in gains]
    system = make_system(np.array(coupling), Q, modes=32)
    sched = ImpulseSchedule(base_times=base_times)
    assert rank_condition(system.coupling, Q, sched, k) == (True, k)
    got = delta_obs_constant(system, sched, k, delta).constant
    want = _per_poll_delta_obs(system, sched, k, delta, sample_count=10000)
    assert 0.0 < want < math.inf
    assert got == pytest.approx(want, rel=1e-12)


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


def unit_ball_controls(rng, shape):
    """Stacked random controls, each impulse at a uniform radius in [0, 1]."""
    U = rng.standard_normal(shape)
    return U * (rng.uniform(0.0, 1.0, shape[0]) / np.linalg.norm(U, axis=(1, 2)))[:, None, None]


def replayed_residual(system, sched, x0, impulses, k):
    return l2_norm(simulate(system, sched, x0, ControlSequence(impulses=tuple(impulses)), k))


@settings(max_examples=10)
@given(
    strict_systems(local=True, dissipative=True),
    st.integers(1, 6),
    st.floats(0.1, 4.0),
    st.floats(0.01, 0.3),
)
def test_every_dual_bound_is_below_every_unit_ball_residual(case, k, norm, frac):
    # weak duality, for the bound of a gap descent at k and for each
    # horizon's bound in local synthesis: the returned impulses, cut or
    # padded to the horizon, and random controls all stay above it
    system, sched = case
    x0 = random_state(system, np.random.default_rng(k), norm=norm)
    model = _HorizonModel(Propagators(system, sched), k)
    run = model.descend(x0, np.zeros(model.shape), 20)
    res = local_gcac_synthesize(system, sched, x0, frac * norm, 8)
    checks = [(k, run.bound, run.impulses)] + [
        (h, bound, res.controls.impulses[:h])
        for h, bound in res.details["bound_by_horizon"].items()
    ]
    rng = np.random.default_rng(k + 1)
    for h, bound, impulses in checks:
        shape = (h, system.m, system.domain.modes)
        residuals = [replayed_residual(system, sched, x0, impulses, h)] + [
            replayed_residual(system, sched, x0, unit_ball_controls(rng, shape), h)
            for _ in range(3)
        ]
        assert bound <= min(residuals) * (1.0 + 1e-9) + 1e-12


def projected_gradient_floor(system, sched, x0, k, iters=500):
    """Smallest residual of `iters` plain projected gradient steps from the
    zero control at horizon k, with step 1/||A||^2 on the dense control map
    A assembled from `simulate` replays of unit impulses."""
    shape = (k, system.m, system.domain.modes)
    free = simulate(system, sched, x0, ControlSequence(impulses=()), k).ravel()
    columns = []
    for idx in range(math.prod(shape)):
        U = np.zeros(shape)
        U.flat[idx] = 1.0
        columns.append(
            simulate(system, sched, zero_state(system), ControlSequence(impulses=tuple(U)), k).ravel()
        )
    A = np.array(columns).T
    step = 1.0 / np.linalg.norm(A, 2) ** 2
    u = np.zeros(shape)
    best = float(np.linalg.norm(free))
    for _ in range(iters):
        u = u - step * (A.T @ (free + A @ u.ravel())).reshape(shape)
        u /= np.maximum(np.linalg.norm(u, axis=(1, 2)), 1.0)[:, None, None]
        best = min(best, float(np.linalg.norm(free + A @ u.ravel())))
    return best


SINGLE_INPUT = (
    make_system(
        np.array([[0.0, 0.3], [-0.3, 0.0]]),
        [np.array([[1.0], [0.0]])],
        supports=[(0.0, math.pi / 2.0)],
        modes=6,
    ),
    ImpulseSchedule(base_times=(1.0,)),
)


@settings(max_examples=10)
@given(strict_systems(local=True, dissipative=True), st.floats(0.5, 8.0), st.floats(0.001, 0.3))
@example(case=SINGLE_INPUT, norm=8.0, frac=1e-4)
def test_no_projected_gradient_run_enters_a_horizon_proven_infeasible(case, norm, frac):
    # every horizon marked infeasible, and every horizon up to the
    # bracket's lower end, stays above eps for an independent solver; the
    # bound behind each such verdict exceeds eps, so weak duality proves it
    system, sched = case
    x0 = random_state(system, np.random.default_rng(3), norm=norm)
    eps = frac * norm
    res = local_gcac_synthesize(system, sched, x0, eps, 8)
    lower, _ = res.details["bracket"]
    verdicts, bounds = res.details["verdict_by_horizon"], res.details["bound_by_horizon"]
    infeasible = {k for k, v in verdicts.items() if v == "infeasible"}
    assert all(bounds[k] > eps for k in infeasible)
    for k in sorted(infeasible | set(range(1, lower + 1))):
        assert projected_gradient_floor(system, sched, x0, k) > eps


@given(strict_systems(), st.integers(1, 4), st.floats(0.1, 10.0))
def test_final_time_and_pull_back_frames_give_one_mode_1_solution(case, k, norm):
    # the two systems differ by the invertible left factor exp((P - lam1 I) t_k)
    system, sched = case
    k = min(k, 2 * sched.hbar)
    rng = np.random.default_rng(k)
    v = rng.standard_normal(system.n)
    v *= norm / np.linalg.norm(v)
    F0, S = Propagators(system, sched).gain_stack(k)
    final = min_norm_solve(S, -(F0 @ v))
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
    for i in range(len(A)):
        xi = min_norm_solve(A[i], b[i], tol=1e-14)
        got = np.concatenate([u[:, i] for u in res.controls.impulses])
        assert np.linalg.norm(got - xi) <= 1e-9 * max(np.linalg.norm(xi), 1e-300)
    # past the live prefix every control is exactly 0
    assert all(np.all(u[:, len(A) :] == 0.0) for u in res.controls.impulses)


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


# entries of every binade, subnormals and squares that overflow included, inf and NaN
EDGE_ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from([5e-324, -2.5e-310, 1e-160, 1e200, -1.5e300, math.nan]),
)


@st.composite
def float_views(draw, dims=(1, 3)):
    """A float array of dims[0] to dims[1] axes, read plain, transposed,
    strided or reversed, so its entries are not in C order in memory.
    Its entries are `EDGE_ENTRIES`, or uniform on [-4, 4] from a seed, so
    that their sum rounds by its order."""
    shape = draw(hnp.array_shapes(min_dims=dims[0], max_dims=dims[1], min_side=0, max_side=9))
    if draw(st.booleans()):
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-4.0, 4.0, shape)
    else:
        x = draw(hnp.arrays(np.float64, shape, elements=EDGE_ENTRIES, fill=st.nothing()))
    view = draw(st.sampled_from(["plain", "transposed", "strided", "reversed"]))
    if view == "transposed":
        return x.T
    if view == "strided":
        return x[(slice(None, None, 2),) * x.ndim]
    return x[..., ::-1] if view == "reversed" else x


@settings(max_examples=200)
@example(
    # transposed: read in memory order, the sums round differently from C order
    x=np.random.default_rng(0).uniform(-4.0, 4.0, (4, 5, 6)).T,
    V=np.random.default_rng(6).uniform(-4.0, 4.0, (9, 9, 9)).transpose(2, 0, 1),
)
@given(float_views(), float_views(dims=(3, 3)))
def test_dispatch_free_norms_equal_numpys_bitwise(x, V):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array(float(np.linalg.norm(x)))
        assert np.array(l2_norm(x)).tobytes() == want.tobytes()
        want = np.linalg.norm(V, axis=(1, 2))
        assert _block_norms(V).tobytes() == want.tobytes()


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


@st.composite
def stiff_rank_cases(draw, deficient=False, top=40.0):
    """(P, gains, sched, hidden): eigenvalues of P in [-top, top], periods
    up to 3, and P written in a random orthogonal frame R from its Schur
    form, eigenvalues ascending. A deficient case decouples the first,
    fastest decaying Schur direction, hidden = R e1, and gives it no gain,
    so the flow damps what rounding leaves of it in the gains; hidden is
    None otherwise."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2 if deficient else 1, 3))
    hbar = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    period = draw(st.floats(0.05, 3.0))
    rng = np.random.default_rng(seed)
    T = np.diag(np.sort(rng.uniform(-top, top, n))) + np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    R = np.linalg.qr(rng.standard_normal((n, n)))[0]
    gains = [rng.standard_normal((n, m)) for _ in range(hbar)]
    if deficient:
        T[0, 1:] = 0.0
        for Q in gains:
            Q[0] = 0.0
    fractions = np.sort(rng.uniform(0.2, 0.9, hbar - 1))
    base = tuple(float(period * f) for f in fractions) + (period,)
    hidden = R[:, 0] if deficient else None
    return R @ T @ R.T, [R @ Q for Q in gains], ImpulseSchedule(base_times=base), hidden


@given(st.one_of(stiff_rank_cases(), stiff_rank_cases(deficient=True)))
def test_rank_condition_never_raises_on_stiff_couplings(case):
    P, gains, sched, hidden = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, k_star = rank_condition(P, gains, sched, 64)
    assert ok == (k_star is not None)


@given(stiff_rank_cases(deficient=True, top=10.0))
def test_rank_search_witness_is_the_hidden_direction_over_long_horizons(case):
    # the hidden direction is invariant, so it is the witness at every time;
    # mapped back through 64 step maps, the rounding of a null basis grows
    # by up to exp(20 t) against it
    P, gains, sched, hidden = case
    k_star, null = _rank_search(P, gains, sched, 64)
    assert k_star is None and null.shape[1] == 1
    w = null[:, 0] * np.sign(null[:, 0] @ hidden)
    assert np.linalg.norm(w - hidden) <= 1e-6


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


@given(rank_cases(), st.integers(1, 6))
def test_unobserved_directions_are_orthogonal_to_every_block(case, k):
    P, gains, sched = case
    system = make_system(P, gains, modes=6)
    S = _reading_maps(system, sched, k, 6)[3]
    null = column_span(S).null
    shifted = P - LAM1 * np.eye(system.n)
    for j in range(1, k + 1):
        tau = time_at(sched, k) - time_at(sched, j)
        B = mat_exp(shifted, tau) @ gains[nu(sched, j) - 1]
        assert np.linalg.norm(null.T @ B) <= 1e-8 * np.linalg.norm(B)


@st.composite
def near_critical_systems(draw):
    """(system, sched) on the edge of the spectral or the local-case hypothesis.

    A 2x2 or 3x3 coupling is shifted so that its top real part, or the top
    eigenvalue of its symmetric part, lies within +-1e-8 max(1, lam1) of
    the first diffusion eigenvalue lam1 = (pi / L)^2, with L drawn so that
    lam1 ranges from about 0.27 to about 9.9. The offset's magnitude is
    log-uniform over 1e-13..1e-8 (times max(1, lam1)), so draws land on
    both sides of the margin 1e-9 max(1, lam1) and inside it.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 3))
    length = draw(st.floats(1.0, 6.0))
    symmetric = draw(st.booleans())
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, -8.0))
    raw = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    if symmetric:
        top = float(np.linalg.eigvalsh(0.5 * (raw + raw.T))[-1])
    else:
        top = float(np.linalg.eigvals(raw).real.max())
    lam1 = (math.pi / length) ** 2
    P = raw - (top - lam1 - offset * max(1.0, lam1)) * np.eye(n)
    system = make_system(P, [np.eye(n)], length=length, modes=4)
    return system, ImpulseSchedule(base_times=(1.0,))


def _accepts(call, refusal):
    """False when call raises the ValueError whose message holds `refusal`."""
    try:
        call()
    except ValueError as err:
        assert refusal in str(err)
        return False
    return True


@given(near_critical_systems())
def test_each_hypothesis_is_decided_by_one_rule(case):
    # from the zero state both synthesizers return at once when they accept
    system, sched = case
    verdict = hypothesis_verdict(system, sched, 4)
    x0 = zero_state(system)
    local = _accepts(lambda: local_gcac_synthesize(system, sched, x0, 0.1, 4), "symmetric part")
    assert verdict.dissipative == local
    full = _accepts(lambda: gcac_synthesize(system, sched, x0, 0.1, 4), "real part above")
    try:
        negative_bound(system, sched, 1.0)
        certified = True
    except InapplicableCertificateError:
        certified = False
    assert (verdict.spectral == "violated") == certified == (not full)
