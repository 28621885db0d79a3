"""Constrained impulse control for coupled heat equations.

Synthesis and verification of unit-ball impulse controls for the system
x' = (Delta + P) x on an interval, controlled by state jumps at the
instants of a periodic schedule, on an exact spectral truncation.

The package splits into construction (`spectral`, `schedule`), analysis
(`observability`, `witness`), synthesis (`synthesis`), and a scenario
driven command line front end (`cli`), which is imported on its own so
that ``python -m impulse_gcac.cli`` runs without a runpy warning.
"""

from .linalg import (
    UnreachableTargetError,
    mat_exp,
    min_norm_solve,
    numerical_rank,
    spectrum,
    symmetric_part_max_eig,
)
from .spectral import (
    Controller,
    CoupledSystem,
    Propagators,
    SpectralDomain,
    apply_adjoint_semigroup,
    apply_impulse,
    apply_semigroup,
    l2_norm,
    random_state,
    single_mode_state,
    zero_state,
)
from .schedule import (
    ImpulseSchedule,
    check_cycle,
    d_min_imag,
    krylov_dim,
    nu,
    pick_schedule,
    schedule_depth,
    time_at,
)
from .observability import (
    HypothesisVerdict,
    ObservabilityReport,
    RankDeficiencyError,
    compose_obs,
    delta_obs_constant,
    finite_obs_constant,
    hypothesis_verdict,
    interpolation_estimate,
    kalman_rank,
    observation_norm,
    rank_condition,
    semigroup_norm,
)
from .synthesis import (
    ControlSequence,
    HorizonExhaustedError,
    NonFiniteStateError,
    SteeringResult,
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
from .witness import (
    InapplicableCertificateError,
    NegativeCertificate,
    negative_bound,
    reachability_gap,
)

__version__ = "0.1.0"

__all__ = [
    "Controller",
    "ControlSequence",
    "CoupledSystem",
    "HorizonExhaustedError",
    "HypothesisVerdict",
    "ImpulseSchedule",
    "InapplicableCertificateError",
    "NegativeCertificate",
    "NonFiniteStateError",
    "ObservabilityReport",
    "Propagators",
    "RankDeficiencyError",
    "SpectralDomain",
    "SteeringResult",
    "UnreachableTargetError",
    "apply_adjoint_semigroup",
    "apply_impulse",
    "apply_semigroup",
    "check_cycle",
    "compose_obs",
    "constrained_null_synthesize",
    "d_min_imag",
    "decay_horizon",
    "delta_obs_constant",
    "finite_obs_constant",
    "gcac_synthesize",
    "gramian_delta",
    "hypothesis_verdict",
    "interpolation_estimate",
    "kalman_rank",
    "krylov_dim",
    "l2_norm",
    "local_gcac_synthesize",
    "mat_exp",
    "min_norm_solve",
    "negative_bound",
    "nu",
    "null_steer",
    "numerical_rank",
    "observation_norm",
    "pick_schedule",
    "project_H1",
    "random_state",
    "rank_condition",
    "reachability_gap",
    "schedule_depth",
    "semigroup_norm",
    "simulate",
    "single_mode_state",
    "spectrum",
    "steer_first_mode",
    "symmetric_part_max_eig",
    "time_at",
    "zero_state",
]
