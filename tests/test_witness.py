"""Negative certificates: growth thresholds and reachability gaps."""

import math
from unittest import mock

import numpy as np
import pytest

from impulse_gcac import witness
from impulse_gcac.observability import hypothesis_verdict
from impulse_gcac.spectral import Propagators, l2_norm, random_state, zero_state
from impulse_gcac.synthesis import (
    BUDGET_SLACK,
    NonFiniteStateError,
    _HorizonModel,
    gcac_synthesize,
)
from impulse_gcac.witness import (
    InapplicableCertificateError,
    NegativeCertificate,
    negative_bound,
    reachability_gap,
)

from conftest import make_system, two_component_invariant_system, unit_schedule


def test_negative_bound_real_eigenvector_threshold():
    # lam1 = 1, growth margin 0.5, unit gain norm, unit gaps:
    # threshold = 1 / (0.5 * 1) + 1 = 3 with no rounding
    system = make_system(np.diag([1.5, 0.0]), [np.eye(2)], modes=8)
    cert = negative_bound(system, unit_schedule(), 1.0)
    assert cert.threshold_ell == 3.0
    assert cert.case == "real-eigenvector"
    assert cert.rho == 1.5 + 0.0j
    assert np.allclose(np.abs(cert.eta), [1.0, 0.0], atol=1e-12)
    assert cert.epsilon0 == 1.0


def test_negative_bound_needs_supercritical_growth():
    quiet = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    with pytest.raises(ValueError, match="does not apply"):
        negative_bound(quiet, unit_schedule(), 1.0)
    # real part exactly at the diffusion eigenvalue is not enough
    boundary = two_component_invariant_system(modes=8)
    with pytest.raises(ValueError, match="does not apply"):
        negative_bound(boundary, unit_schedule(), 1.0)


@pytest.mark.parametrize(
    "r, spectral",
    [(-5e-10, "boundary"), (5e-13, "boundary"), (5e-10, "boundary"), (2e-9, "violated")],
)
def test_verdict_witness_and_synthesis_share_one_spectral_rule(r, spectral):
    # P = diag(lam1 (1 + r), 0.3) on (0, pi), where lam1 = 1; the margin
    # is 1e-9 max(1, lam1), so only r = 2e-9 violates the hypothesis
    system = make_system(np.diag([1.0 + r, 0.3]), [np.eye(2)], modes=8)
    assert system.first_eigenvalue == 1.0
    sched = unit_schedule()
    assert hypothesis_verdict(system, sched, 16).spectral == spectral
    violated = spectral == "violated"
    try:
        cert = negative_bound(system, sched, 1.0)
    except InapplicableCertificateError:
        cert = None
    assert (cert is not None) == violated
    x0 = random_state(system, np.random.default_rng(2), norm=1.0)
    if violated:
        with pytest.raises(ValueError, match="real part above"):
            gcac_synthesize(system, sched, x0, 0.1, 16)
    else:
        assert gcac_synthesize(system, sched, x0, 0.1, 16).residual <= 0.1


def test_negative_bound_complex_case_divides_by_imaginary_mass():
    # normal coupling with eigenvalues 2 +- i: the unit eigenvector splits
    # its mass evenly, so the real-case expression is divided by 1/2
    lam1 = 1.0
    P = np.array([[lam1 + 1.0, -1.0], [1.0, lam1 + 1.0]])
    system = make_system(P, [np.eye(2)], modes=8)
    cert = negative_bound(system, unit_schedule(), 0.5)
    assert cert.case == "complex-eigenvector"
    assert cert.rho.real == pytest.approx(2.0, rel=1e-12)
    assert abs(cert.rho.imag) == pytest.approx(1.0, rel=1e-12)
    hat = cert.eta_hat()
    assert np.linalg.norm(hat) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    base = 1.0 / (1.0 * 1.0)
    expected = (base + 0.5) / float(np.linalg.norm(hat)) ** 2
    assert cert.threshold_ell == pytest.approx(expected, rel=1e-12)
    assert cert.threshold_ell == pytest.approx(3.0, rel=1e-9)


def test_negative_certificate_validates_fields():
    with pytest.raises(ValueError, match="case"):
        NegativeCertificate(
            rho=2.0 + 0.0j, eta=np.array([1.0, 0.0]), threshold_ell=1.0,
            epsilon0=1.0, case="bogus",
        )
    with pytest.raises(ValueError, match="imaginary"):
        NegativeCertificate(
            rho=2.0 + 1.0j, eta=np.array([1.0, 0.0]), threshold_ell=1.0,
            epsilon0=1.0, case="complex-eigenvector",
        )


def test_gap_is_exact_on_the_invariant_component_system():
    # the first component of mode 1 is invisible to the actuator, so the
    # dual direction picking it out certifies the whole initial mass
    eps = 0.3
    system = two_component_invariant_system(modes=16)
    sched = unit_schedule()
    x0 = zero_state(system)
    x0[0, 0] = 2.0 * eps
    for k in (1, 3, 7):
        lower, achieved = reachability_gap(system, sched, x0, k, 150)
        assert lower == pytest.approx(2.0 * eps, rel=1e-9)
        assert achieved == pytest.approx(2.0 * eps, rel=1e-9)


def test_gap_of_the_zero_state_is_zero():
    system = two_component_invariant_system(modes=8)
    lower, achieved = reachability_gap(
        system, unit_schedule(), zero_state(system), 4, 50
    )
    assert lower == 0.0
    assert achieved == 0.0


def test_gap_vanishes_for_fully_controllable_systems():
    # full supports, dissipative coupling: the search steers to nearly
    # zero and no dual direction certifies a positive floor
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    x0 = random_state(system, np.random.default_rng(5), norm=1.0)
    lower, achieved = reachability_gap(system, unit_schedule(), x0, 8, 300)
    assert lower == 0.0
    assert achieved <= 1e-3


def test_gap_of_a_reachable_target_is_closed_without_a_descent():
    # the system above: the minimum-norm null control lies deep inside the
    # unit ball, so its replay is the achieved residual and nothing descends
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    x0 = random_state(system, np.random.default_rng(5), norm=1.0)
    with mock.patch.object(
        _HorizonModel, "descend", autospec=True, side_effect=_HorizonModel.descend
    ) as descend:
        lower, achieved = reachability_gap(system, unit_schedule(), x0, 8, 300)
    descend.assert_not_called()
    assert lower == 0.0
    assert achieved <= 1e-14 * max(1.0, l2_norm(x0))


def _reachable_only_beyond_the_ball():
    # zero coupling, lambda_1 = 1, k = 2: the free state e^-2 x0 lies on
    # mode 1 with norm 1.25, below the dual sum 1 + e^-1 of the unit ball,
    # but the minimum-norm null control's last impulse has norm
    # 1.25 / (1 + e^-2) = 1.10
    system = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    x0 = zero_state(system)
    x0[:, 0] = 1.25 * math.exp(2.0) * np.array([0.6, 0.8])
    return system, x0, True


def _local_support():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], supports=[(0.0, math.pi / 2.0)], modes=8)
    return system, random_state(system, np.random.default_rng(5), norm=1.0), False


@pytest.mark.parametrize("case", [_reachable_only_beyond_the_ball, _local_support])
def test_gap_falls_back_to_the_descent_when_the_null_control_is_rejected(case):
    system, x0, tried = case()
    sched, k, iters = unit_schedule(), 2, 40
    core, steered = witness._null_steer, []

    def spy(*args):
        steered.append(core(*args))
        return steered[-1]

    with mock.patch.object(witness, "_null_steer", spy):
        lower, achieved = reachability_gap(system, sched, x0, k, iters)
    assert len(steered) == tried
    assert all(s.controls.max_norm() > 1.0 + BUDGET_SLACK for s in steered)
    run = _HorizonModel(Propagators(system, sched), k).descend(x0, np.zeros((k, 2, 8)), iters)
    assert achieved == run.residual
    assert lower == min(max(run.bound, 0.0), run.residual)


def test_gap_hands_the_free_gradient_to_the_descent():
    # a full-support target beyond the unit ball: the route test's gradient
    # and bound of the free state are the descent's first, so handing them
    # over saves one gradient and changes no bit of the gap
    rng = np.random.default_rng(0)
    system = make_system(0.5 * rng.standard_normal((2, 2)), [rng.standard_normal((2, 1))], modes=8)
    x0 = zero_state(system)
    x0[:, 0] = 20.0 * rng.standard_normal(2)
    descend = _HorizonModel.descend

    def recomputing(self, x0, U, iters, eps=None, first=None):
        return descend(self, x0, U, iters, eps)

    runs = []
    for run in (descend, recomputing):
        with mock.patch.object(_HorizonModel, "descend", run), mock.patch.object(
            _HorizonModel, "gradient", autospec=True, side_effect=_HorizonModel.gradient
        ) as gradient:
            runs.append((reachability_gap(system, unit_schedule(), x0, 3, 30), gradient.call_count))
    (handed, calls), (recomputed, recalls) = runs
    assert handed[0] > 0.0
    assert calls == recalls - 1
    assert handed == recomputed


@pytest.mark.parametrize("name", ["k", "grad_iters"])
def test_gap_takes_integer_horizons_and_step_caps(name):
    # a float step cap never met `steps == iters`, so it was silently dropped
    system, x0, _ = _local_support()
    args = {"k": 2, "grad_iters": 5}
    with pytest.raises(TypeError):
        reachability_gap(system, unit_schedule(), x0, **{**args, name: 2.5})
    got = reachability_gap(system, unit_schedule(), x0, **{**args, name: np.int64(5)})
    assert got == reachability_gap(system, unit_schedule(), x0, **{**args, name: 5})


def test_scaled_growth_direction_stays_unreachable():
    # initial mass twice the certified threshold: the floor exceeds the
    # target radius at every tested horizon
    system = make_system(np.diag([1.5, 0.0]), [np.eye(2)], modes=8)
    sched = unit_schedule()
    cert = negative_bound(system, sched, 1.0)
    ell = 2.0 * cert.threshold_ell
    x0 = zero_state(system)
    x0[:, 0] = ell * cert.eta
    for k in (1, 4, 9):
        lower, achieved = reachability_gap(system, sched, x0, k, 60)
        assert lower > cert.epsilon0
        assert lower <= achieved * (1.0 + 1e-9) + 1e-12


def test_gap_soundness_on_seeded_systems():
    rng = np.random.default_rng(71)
    sched = unit_schedule()
    for trial in range(5):
        n = int(rng.integers(2, 4))
        P = 0.6 * rng.standard_normal((n, n))
        support = (0.0, math.pi / 2.0) if trial % 2 == 0 else (0.0, math.pi)
        system = make_system(P, [rng.standard_normal((n, n))], supports=[support], modes=8)
        x0 = random_state(system, rng, norm=float(rng.uniform(0.5, 4.0)))
        k = int(rng.integers(1, 6))
        lower, achieved = reachability_gap(system, sched, x0, k, 80)
        assert 0.0 <= lower <= achieved * (1.0 + 1e-9) + 1e-12


def test_gap_bound_never_exceeds_the_achieved_residual():
    # a tight bound: the dual value equals the attained residual up to
    # rounding, which must not put the certified floor above it
    rng = np.random.default_rng(0)
    P = 0.5 * rng.standard_normal((2, 2))
    Q = rng.standard_normal((2, 1))
    system = make_system(P, [Q], modes=8)
    x0 = zero_state(system)
    x0[:, 0] = 20.0 * rng.standard_normal(2)
    for k in (1, 3):
        lower, achieved = reachability_gap(system, unit_schedule(), x0, k, 30)
        assert 0.0 < lower <= achieved
        assert lower == pytest.approx(achieved, rel=1e-9)


def test_gap_rejects_a_mis_shaped_initial_state():
    system = make_system(np.zeros((2, 2)), [np.eye(2)], supports=[(0.5, 2.5)], modes=8)
    with pytest.raises(ValueError, match="state must have shape"):
        reachability_gap(system, unit_schedule(), np.ones((2, 1)), 2, 5)


def test_gap_under_growth_overflows_into_the_typed_error():
    # exp(2 t) growth overflows the gradient (k = 300) or the maps to the
    # final impulse (k = 400); no numpy warning may come before the error
    system = make_system(np.diag([3.0, 0.0]), [np.eye(2)], modes=8)
    x0 = random_state(system, np.random.default_rng(3))
    for k in (300, 400):
        with pytest.raises(NonFiniteStateError):
            reachability_gap(system, unit_schedule(), x0, k, 5)


def test_gap_under_growth_stays_finite_until_its_squares_overflow():
    # exp(2 t) growth: the state norm nears 1e147 at k = 170, and its square
    # overflows from k = 180 on; the bound must not overflow sooner
    system = make_system(np.diag([3.0, 0.0]), [np.eye(2)], modes=8)
    x0 = random_state(system, np.random.default_rng(3))
    for k in (60, 120, 170):
        lower, achieved = reachability_gap(system, unit_schedule(), x0, k, 5)
        assert 0.0 <= lower <= achieved < math.inf
    with pytest.raises(NonFiniteStateError):
        reachability_gap(system, unit_schedule(), x0, 180, 5)


def test_inapplicable_message_names_verdict_lambda1_and_margin():
    quiet = make_system(np.zeros((2, 2)), [np.eye(2)], modes=8)
    with pytest.raises(InapplicableCertificateError) as err:
        negative_bound(quiet, unit_schedule(), 1.0)
    assert "verdict is 'strict'" in str(err.value)
    assert "lambda_1 = 1.0" in str(err.value) and "margin 1e-09" in str(err.value)
    assert "does not apply" in str(err.value)
    # inside the margin above lambda_1 the verdict is 'boundary'
    band = make_system(np.diag([1.0 + 5e-10, 0.3]), [np.eye(2)], modes=8)
    with pytest.raises(InapplicableCertificateError, match="verdict is 'boundary'"):
        negative_bound(band, unit_schedule(), 1.0)
