"""Shared builders for the test suite."""

import math

import mpmath
import numpy as np
from hypothesis import settings

from impulse_gcac.observability import observation_norm
from impulse_gcac.schedule import ImpulseSchedule, nu, time_at
from impulse_gcac.spectral import (
    Controller,
    CoupledSystem,
    SpectralDomain,
    apply_adjoint_semigroup,
)


def make_system(coupling, gains, supports=None, length=math.pi, modes=32):
    """System with the given coupling and gain matrices.

    supports defaults to the full interval for every controller.
    """
    coupling = np.asarray(coupling, dtype=float)
    domain = SpectralDomain(length=length, modes=modes)
    if supports is None:
        supports = [(0.0, length)] * len(gains)
    controllers = [
        Controller(gain=np.asarray(g, dtype=float), support=tuple(s))
        for g, s in zip(gains, supports)
    ]
    return CoupledSystem(coupling=coupling, controllers=controllers, domain=domain)


def two_component_invariant_system(modes=32, support=None):
    """n=2 system whose first component is untouched by the single actuator.

    Coupling equals the first diffusion eigenvalue times the identity, and
    the actuator feeds only the second component, so the first component of
    mode 1 is exactly conserved by both the flow and every impulse.
    """
    length = math.pi
    lam1 = (math.pi / length) ** 2
    supports = [support if support is not None else (0.0, length / 2.0)]
    return make_system(
        lam1 * np.eye(2),
        [np.array([[0.0], [1.0]])],
        supports=supports,
        length=length,
        modes=modes,
    )


def oracle_exp(M, t):
    """exp(M t) in 40-digit arithmetic, rounded to floats."""
    with mpmath.workdps(40):
        out = mpmath.expm(mpmath.matrix(M.tolist()) * mpmath.mpf(t))
        return np.array(out.tolist(), dtype=float)


def _observation_sum(system, sched, state, k, final_time):
    """Sum over j = 1..k of the controller readings of the adjoint flow.

    The per-impulse oracle of the stacked readings: one one-shot adjoint
    flow and one `observation_norm` per impulse.
    """
    total = 0.0
    for j in range(1, k + 1):
        evolved = apply_adjoint_semigroup(system, state, final_time - time_at(sched, j))
        total += observation_norm(system, nu(sched, j), evolved)
    return total


def unit_schedule():
    """Impulses at 1, 2, 3, ...: one actuator per period of length 1."""
    return ImpulseSchedule(base_times=(1.0,))


# property tests: a fixed example sequence per test keeps tier-1 runs
# reproducible, and a bounded count keeps them fast
settings.register_profile(
    "tier1", derandomize=True, max_examples=30, deadline=None, database=None
)
settings.load_profile("tier1")
