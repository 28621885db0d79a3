"""Certified negative results.

Two complementary obstructions to constrained steering:

* a scale threshold derived from a coupling eigenvalue whose real part
  exceeds the first diffusion eigenvalue: beyond that scale, no unit-ball
  impulse sequence reaches the target ball, ever;
* a per-horizon reachability gap: a duality bound proving every
  constrained control leaves at least some residual at t_k, paired with
  the best residual an actual constrained control achieves.

The gap bound is sound by construction: for a unit direction phi, any
admissible impulse changes the final-state pairing by at most the norm of
the corresponding observation, so the free pairing minus the summed
observation norms lower-bounds the reachable residual.

The achieved side comes from one of two routes. On full supports, a
target that the free state's dual bound does not rule out is first tried
exactly: when the minimum-norm null control of `null_steer` stays in the
unit ball, its replay residual (rounding only) closes the gap at 0. Every
other target gets a projected FISTA descent with restarted momentum,
which stops once its dual bound meets its residual.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import spectral_norm
from .observability import _spectral_class, _spectral_tol
from .schedule import check_cycle
from .spectral import NonFiniteStateError, Propagators, _check_state, zero_state
from .synthesis import BUDGET_SLACK, _HorizonModel, _dual_bound, _null_steer

__all__ = [
    "InapplicableCertificateError",
    "NegativeCertificate",
    "negative_bound",
    "reachability_gap",
]


class InapplicableCertificateError(ValueError):
    """The spectral verdict is 'strict' or 'boundary': no coupling eigenvalue has
    real part above lambda_1 by more than the margin `observability._spectral_tol`."""


@dataclass(frozen=True)
class NegativeCertificate:
    """Obstruction data for a coupling that outgrows the diffusion.

    Attributes
    ----------
    rho : complex
        The offending eigenvalue of the transposed coupling matrix; its
        real part strictly exceeds the first diffusion eigenvalue.
    eta : ndarray
        Unit eigenvector for rho: real for a real eigenvalue, complex
        otherwise (its imaginary part drives the complex case).
    threshold_ell : float
        Scale beyond which the certified initial family cannot be steered
        into the epsilon0 ball by unit-ball impulses.
    epsilon0 : float
        Radius of the target ball the certificate talks about.
    case : str
        'real-eigenvector' or 'complex-eigenvector'.
    """

    rho: complex
    eta: np.ndarray
    threshold_ell: float
    epsilon0: float
    case: str

    def __post_init__(self):
        if self.case not in ("real-eigenvector", "complex-eigenvector"):
            raise ValueError("case must be real-eigenvector or complex-eigenvector")
        if self.case == "complex-eigenvector":
            if np.linalg.norm(np.imag(self.eta)) == 0.0:
                raise ValueError("complex-eigenvector case requires a nonzero imaginary part")
        if self.threshold_ell <= 0.0 or self.epsilon0 <= 0.0:
            raise ValueError("threshold and ball radius must be positive")

    def eta_hat(self):
        """Imaginary part of the eigenvector; the certified direction in
        the complex case."""
        return np.imag(self.eta)


def negative_bound(system, sched, epsilon0):
    """Scale threshold beyond which ball-targeted steering must fail.

    Raises InapplicableCertificateError unless the verdict's rule
    `_spectral_class` finds the spectral hypothesis violated; eta is then
    the top eigenvector of the transposed coupling. The certified family
    is ell * eta * e1 (real case) or ell * Im(eta) * e1 (complex case): for
    any ell above threshold_ell, no unit-ball impulse sequence on this
    schedule brings that state into the epsilon0 ball at any horizon.
    """
    check_cycle(system, sched)
    if epsilon0 <= 0.0:
        raise ValueError("epsilon0 must be positive")
    verdict = _spectral_class(system)
    lam1 = system.first_eigenvalue
    if verdict != "violated":
        raise InapplicableCertificateError(
            f"the spectral verdict is '{verdict}': no coupling eigenvalue has real "
            f"part above lambda_1 = {lam1!r} by more than the margin "
            f"{_spectral_tol(lam1)!r}; a negative certificate does not apply"
        )
    w, V = np.linalg.eig(system.coupling.T)
    # the fastest-growing eigenvalue gives the smallest threshold
    pick = max(range(len(w)), key=lambda i: (w[i].real, w[i].imag >= 0.0))
    rho = complex(w[pick])
    eta = V[:, pick]
    eta = eta / np.linalg.norm(eta)

    q_max = max(spectral_norm(Q) for Q in system.gains)
    base = q_max / ((rho.real - lam1) * min(sched.slot_lengths))

    eta_hat = np.imag(eta)
    if np.linalg.norm(eta_hat) <= 1e-12:
        return NegativeCertificate(
            rho=rho,
            eta=np.real(eta).copy(),
            threshold_ell=base + epsilon0,
            epsilon0=float(epsilon0),
            case="real-eigenvector",
        )
    scale = float(np.linalg.norm(eta_hat)) ** 2
    return NegativeCertificate(
        rho=rho,
        eta=eta.copy(),
        threshold_ell=(base + epsilon0) / scale,
        epsilon0=float(epsilon0),
        case="complex-eigenvector",
    )


def reachability_gap(system, sched, x0, k, grad_iters):
    """Certified residual floor at horizon k versus the best attempt.

    Returns (lower_bound, achieved) at exactly k impulses. Every
    constrained control sequence satisfies residual >= lower_bound, and
    achieved is the norm of the `simulate` replay of a unit-ball control.

    The first dual bound, that of the free final state, decides the
    route. When it is at most 0, every support is full and the free state
    is nonzero, the target may be exactly reachable: the per-mode
    minimum-norm null control of `null_steer` is tried on the same
    engine, and when it is exact and every impulse lies in the unit ball
    its replay gives achieved, with no descent. Otherwise, or when that
    control fails, achieved comes from one `_HorizonModel.descend` of at
    most `grad_iters` steps from the zero control, with restarted
    momentum, which stops once its dual bound is within a relative 1e-10
    of its best residual; it reuses the route test's gradient and bound.

    lower_bound is the best of the dual bounds of the coupling
    eigendirections on mode 1 and, when the descent ran, of its residual
    directions, the first of which is the free final state, clamped to
    [0, achieved]. The upper clamp keeps the bound sound, since achieved
    is attained by a unit-ball control, and removes a bound above achieved
    by rounding alone when the bound is tight; on the exact route it
    gives 0.

    k and grad_iters must be integers (`operator.index`); x0 must have
    shape (n, N). Raises NonFiniteStateError when a propagated state, the
    achieved residual or the bound overflows.
    """
    check_cycle(system, sched)
    k, grad_iters = operator.index(k), operator.index(grad_iters)
    if k < 1:
        raise ValueError("horizon must be at least 1")
    if grad_iters < 1:
        raise ValueError("grad_iters must be at least 1")
    x0 = _check_state(system, x0).copy()
    props = Propagators(system, sched)
    model = _HorizonModel(props, k)

    # the coupling eigendirections on mode 1, on the maps with overflow warnings off
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        free = model.free(x0)
        _, vecs = np.linalg.eig(system.coupling.T)
        for i in range(system.n):
            for part in (np.real(vecs[:, i]), np.imag(vecs[:, i])):
                if np.linalg.norm(part) > 1e-12:
                    phi = zero_state(system)
                    phi[:, 0] = part
                    values.append(_dual_bound(free, phi, model.gradient(phi)))
        achieved = first = None
        if system.has_full_supports() and free.any():
            # the descent's first gradient and bound; above 0, nothing is exact
            g = model.gradient(free)
            first = g, _dual_bound(free, free, g)
            if -math.inf < first[1] <= 0.0:
                achieved = _null_residual(props, x0, k)
    if achieved is None:
        run = model.descend(x0, np.zeros(model.shape), grad_iters, first=first)
        values.append(run.bound)
        achieved = run.residual
    if not all(math.isfinite(v) for v in values):
        raise NonFiniteStateError(f"the reachability gap at horizon {k} overflowed")
    return min(max(max(values), 0.0), achieved), achieved


def _null_residual(props, x0, k):
    """Replay residual of the minimum-norm null control at horizon k, or
    None when that control is inexact, non-finite or leaves the unit ball."""
    try:
        steer = _null_steer(props, x0, k)
    except (ArithmeticError, RuntimeError, ValueError):
        return None
    if steer.controls.max_norm() > 1.0 + BUDGET_SLACK:
        return None
    return steer.residual
