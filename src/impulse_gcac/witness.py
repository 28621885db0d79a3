"""Certified negative results.

Two complementary obstructions to constrained steering:

* a scale threshold derived from a coupling eigenvalue whose real part
  exceeds the first diffusion eigenvalue: beyond that scale, no unit-ball
  impulse sequence reaches the target ball, ever;
* a per-horizon reachability gap: a duality bound proving every
  constrained control leaves at least some residual at t_k, paired with
  the best residual an actual constrained search achieves.

The gap bound is sound by construction: for a unit direction phi, any
admissible impulse changes the final-state pairing by at most the norm of
the corresponding observation, so the free pairing minus the summed
observation norms lower-bounds the reachable residual.
"""

import math
from dataclasses import dataclass

import numpy as np

from .schedule import check_cycle, time_at
from .spectral import Propagators, _check_state, l2_norm, zero_state
from .synthesis import NonFiniteStateError, _HorizonModel

__all__ = [
    "InapplicableCertificateError",
    "NegativeCertificate",
    "negative_bound",
    "reachability_gap",
]


class InapplicableCertificateError(ValueError):
    """No coupling eigenvalue grows faster than the first diffusion mode."""


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

    Requires a coupling eigenvalue with real part strictly above the
    first diffusion eigenvalue. The certified family is ell * eta * e1
    (real case) or ell * Im(eta) * e1 (complex case): for any ell above
    threshold_ell, no unit-ball impulse sequence on this schedule brings
    that state into the epsilon0 ball at any horizon.
    """
    check_cycle(system, sched)
    if epsilon0 <= 0.0:
        raise ValueError("epsilon0 must be positive")
    lam1 = system.first_eigenvalue
    w, V = np.linalg.eig(system.coupling.T)
    margin = 1e-12 * max(1.0, abs(lam1))
    above = [i for i in range(len(w)) if w[i].real > lam1 + margin]
    if not above:
        raise InapplicableCertificateError(
            "no coupling eigenvalue has real part above the first diffusion "
            "eigenvalue; a negative certificate does not apply"
        )
    # the fastest-growing eigenvalue gives the smallest threshold
    pick = max(above, key=lambda i: (w[i].real, w[i].imag >= 0.0))
    rho = complex(w[pick])
    eta = V[:, pick]
    eta = eta / np.linalg.norm(eta)

    q_max = max(
        float(np.linalg.norm(system.gain(j), 2)) for j in range(1, system.hbar + 1)
    )
    dt_min = min(
        time_at(sched, j) - time_at(sched, j - 1) for j in range(1, system.hbar + 1)
    )
    base = q_max / ((rho.real - lam1) * dt_min)

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


def _gap_value(model, free, phi):
    """Dual bound at one unit direction, with the observations it subtracts
    (stacked per impulse) and their norms."""
    obs = model.gradient(phi)
    norms = np.linalg.norm(obs, axis=(1, 2))
    return float(np.sum(free * phi)) - float(np.sum(norms)), obs, norms


def _ascend(model, free, phi, iters):
    """Local ascent of the dual bound on the unit sphere, best wins.

    The gradient of a summed observation norm is the control-to-state map
    applied to the normalized observations, i.e. `model.apply`.
    """
    best_phi = phi
    best_val, obs, norms = _gap_value(model, free, phi)
    step = 0.5
    for _ in range(iters):
        units = obs / np.where(norms > 0.0, norms, 1.0)[:, None, None]
        cand = best_phi + step * (free - model.apply(units))
        scale = float(np.linalg.norm(cand))
        if scale == 0.0:
            break
        cand /= scale
        val, cand_obs, cand_norms = _gap_value(model, free, cand)
        if val > best_val:
            best_val, best_phi, obs, norms = val, cand, cand_obs, cand_norms
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return best_val


def reachability_gap(system, sched, x0, k, grad_iters, seed=0):
    """Certified residual floor at horizon k versus the best attempt.

    Returns (lower_bound, achieved). achieved is the smallest final-state
    norm that `grad_iters` steps of `_HorizonModel.descend` from the zero
    control reach at exactly k impulses, as the norm of the `simulate`
    replay of the returned impulses; lower_bound is the best dual bound
    over candidate directions (coupling eigendirections on mode 1, the
    free final state, and random unit states refined by ascent), clamped
    to [0, achieved].
    Every constrained control sequence satisfies residual >= lower_bound;
    the upper clamp keeps that true, since achieved is attained by a
    unit-ball control, and removes a bound above achieved by rounding
    alone when the bound is tight.

    x0 must have shape (n, N). Raises NonFiniteStateError when a
    propagated state, the achieved residual or the bound overflows.
    """
    check_cycle(system, sched)
    if k < 1:
        raise ValueError("horizon must be at least 1")
    if grad_iters < 1:
        raise ValueError("grad_iters must be at least 1")
    x0 = _check_state(system, x0).copy()
    n, N = system.n, system.domain.modes
    model = _HorizonModel(Propagators(system, sched), k)
    rng = np.random.default_rng(seed)

    # primal: fixed-horizon constrained descent from the zero control
    achieved = model.descend(x0, np.zeros(model.shape), grad_iters, rng)[0]

    # dual: candidate unit directions, on the maps with overflow warnings off
    with np.errstate(over="ignore", invalid="ignore"):
        free = model.free(x0)
        candidates = []
        _, vecs = np.linalg.eig(system.coupling.T)
        for i in range(n):
            for part in (np.real(vecs[:, i]), np.imag(vecs[:, i])):
                norm = np.linalg.norm(part)
                if norm > 1e-12:
                    phi = zero_state(system)
                    phi[:, 0] = part / norm
                    candidates.append(phi)
        free_norm = l2_norm(free)
        if free_norm > 0.0:
            candidates.append(free / free_norm)
        for _ in range(100):
            phi = rng.standard_normal((n, N))
            candidates.append(phi / np.linalg.norm(phi))

        values = [_gap_value(model, free, phi)[0] for phi in candidates]
        order = np.argsort(values)[::-1]
        best = values[order[0]]
        # ascent-refine the three most promising directions
        for idx in order[:3]:
            best = max(best, _ascend(model, free, candidates[idx], 30))
    if not math.isfinite(best):
        raise NonFiniteStateError(f"the reachability gap at horizon {k} overflowed")
    return min(max(best, 0.0), achieved), achieved
