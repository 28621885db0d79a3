"""Spectral model of impulse-controlled coupled heat equations.

The state is a vector-valued function on an interval (0, L) with Dirichlet
boundary conditions, expanded in the sine eigenbasis of the Laplacian and
truncated to the first N modes. A state is stored as an (n, N) float array:
column i-1 holds the n coupling components of mode i, and by Parseval the
L2 norm of the function equals the Frobenius norm of the array.

Between impulse times the flow is ``x' = (Laplacian + coupling) x``, which
acts mode-by-mode: column i is multiplied by ``exp(-lambda_i t) exp(P t)``
where ``lambda_i = (i pi / L)^2``. This action is exact on the truncation;
no time-stepping error is introduced anywhere in the package.

An impulse through controller k adds ``chi_k Q_k u`` where chi_k is the
indicator of an open subinterval and u is an m-component control function.
Projecting that product back onto the retained modes uses the Gram (mass)
matrix of the basis restricted to the subinterval, for which closed forms
are used; energy carried into modes beyond N is dropped, a truncation
error of order 1/N documented and measured in the tests.

Impulse times repeat with the schedule's period, so the flow between two
consecutive impulses takes only hbar distinct forms. `Propagators` builds
them once per schedule: the loop of `simulate` and the maps from each
impulse to the final time are products of these per-slot step maps, and
so is the final-time gain stack that maps controls to states and, read
transposed, states to controller readings. `apply_semigroup` remains the
one-shot flow over an arbitrary time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, mat_exp

__all__ = [
    "SpectralDomain",
    "Controller",
    "CoupledSystem",
    "Propagators",
    "overlap_matrix",
    "apply_semigroup",
    "apply_adjoint_semigroup",
    "apply_impulse",
    "l2_norm",
    "zero_state",
    "single_mode_state",
    "random_state",
]


@dataclass(frozen=True)
class SpectralDomain:
    """Interval (0, length) with Dirichlet sine modes 1..modes.

    Attributes
    ----------
    length : float
        Interval length L > 0. Defaults to pi, for which the diffusion
        eigenvalues are the integer squares.
    modes : int
        Truncation order N >= 1. Defaults to 32.
    """

    length: float = math.pi
    modes: int = 32

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError("domain length must be positive and finite")
        if self.modes < 1:
            raise ValueError("at least one retained mode is required")

    def eigenvalue(self, i):
        """Diffusion eigenvalue (i pi / L)^2 of mode i >= 1."""
        if i < 1:
            raise ValueError("mode indices start at 1")
        return (i * math.pi / self.length) ** 2

    def eigenvalues(self):
        """Array of the retained eigenvalues lambda_1..lambda_N."""
        idx = np.arange(1, self.modes + 1, dtype=float)
        return (idx * math.pi / self.length) ** 2


def overlap_matrix(domain, a, b):
    """Gram matrix of the retained modes restricted to the interval (a, b).

    Entry [l-1, i-1] is the integral of ``e_l e_i`` over (a, b), from the
    product-to-sum closed form. For the full interval the matrix is the
    identity exactly (orthonormality), which is returned without roundoff.

    Returns
    -------
    ndarray, shape (N, N)
        Symmetric matrix with spectrum inside [0, 1].
    """
    if not (0.0 <= a < b <= domain.length):
        raise ValueError("support must satisfy 0 <= a < b <= length")
    N = domain.modes
    if a == 0.0 and b == domain.length:
        return np.eye(N)
    L = domain.length
    idx = np.arange(1, N + 1, dtype=float)
    diff = idx[:, None] - idx[None, :]
    summ = idx[:, None] + idx[None, :]

    def antiderivative(x):
        with np.errstate(invalid="ignore", divide="ignore"):
            off = np.sin(diff * math.pi * x / L) / (diff * math.pi / L) - np.sin(
                summ * math.pi * x / L
            ) / (summ * math.pi / L)
        diag = x - np.sin(2.0 * idx * math.pi * x / L) / (2.0 * idx * math.pi / L)
        np.fill_diagonal(off, diag)
        return off / L

    return antiderivative(b) - antiderivative(a)


@dataclass(frozen=True)
class Controller:
    """One impulse actuator: input matrix and spatial support.

    Attributes
    ----------
    gain : ndarray, shape (n, m)
        Nonzero matrix mapping the m control components into the n state
        components.
    support : tuple of float
        Open interval (a, b) with 0 <= a < b <= L on which the actuator acts.
    """

    gain: np.ndarray
    support: tuple


@dataclass
class CoupledSystem:
    """Coupled heat equations with finitely many cyclically-used actuators.

    Attributes
    ----------
    coupling : ndarray, shape (n, n)
        Zero-order coupling matrix applied across the n components.
    controllers : list of Controller
        The hbar actuators, used cyclically by the impulse schedule.
    domain : SpectralDomain
        Spatial domain and truncation order.

    Raises
    ------
    ValueError
        On dimension mismatches, an all-zero gain, supports outside the
        domain, or supports with empty common intersection.
    """

    coupling: np.ndarray
    controllers: list
    domain: SpectralDomain = field(default_factory=SpectralDomain)

    def __post_init__(self):
        self.coupling = as_matrix(self.coupling)
        n = self.coupling.shape[0]
        if self.coupling.shape[1] != n:
            raise ValueError("coupling matrix must be square")
        if not self.controllers:
            raise ValueError("at least one controller is required")
        m = None
        checked = []
        for c in self.controllers:
            gain = as_matrix(c.gain, rows=n)
            if m is None:
                m = gain.shape[1]
            elif gain.shape[1] != m:
                raise ValueError("all controllers must share the control dimension")
            if not np.any(gain):
                raise ValueError("controller gain must be nonzero")
            a, b = float(c.support[0]), float(c.support[1])
            if not (0.0 <= a < b <= self.domain.length):
                raise ValueError("controller support must lie inside the domain")
            checked.append(Controller(gain=gain, support=(a, b)))
        lo = max(c.support[0] for c in checked)
        hi = min(c.support[1] for c in checked)
        if not lo < hi:
            raise ValueError("controller supports must share a common open interval")
        self.controllers = checked
        # restriction Gram matrices, one per controller
        self._overlaps = [
            overlap_matrix(self.domain, c.support[0], c.support[1]) for c in checked
        ]
        self._full = [
            c.support[0] == 0.0 and c.support[1] == self.domain.length for c in checked
        ]

    @property
    def n(self):
        return self.coupling.shape[0]

    @property
    def m(self):
        return self.controllers[0].gain.shape[1]

    @property
    def hbar(self):
        return len(self.controllers)

    @property
    def first_eigenvalue(self):
        return self.domain.eigenvalue(1)

    def overlap(self, k):
        """Gram matrix of controller k (1-based)."""
        if not 1 <= k <= self.hbar:
            raise ValueError(f"controller index {k} outside 1..{self.hbar}")
        return self._overlaps[k - 1]

    def gain(self, k):
        if not 1 <= k <= self.hbar:
            raise ValueError(f"controller index {k} outside 1..{self.hbar}")
        return self.controllers[k - 1].gain

    def has_full_supports(self):
        """True when every controller acts on the whole interval."""
        return all(
            c.support[0] == 0.0 and c.support[1] == self.domain.length
            for c in self.controllers
        )


def _check_state(system, state):
    st = np.asarray(state, dtype=float)
    if st.shape != (system.n, system.domain.modes):
        raise ValueError(
            f"state must have shape ({system.n}, {system.domain.modes}), got {st.shape}"
        )
    if not np.all(np.isfinite(st)):
        raise ValueError("state entries must be finite")
    return st


def _flow(system, state, t, adjoint):
    st = _check_state(system, state)
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError("semigroup time must be nonnegative and finite")
    if t == 0.0:
        return st.copy()
    lam = system.domain.eigenvalues()
    lam1 = lam[0]
    base = system.coupling.T if adjoint else system.coupling
    shifted = base - lam1 * np.eye(system.n)
    E = mat_exp(shifted, t)
    decay = np.exp(-(lam - lam1) * t)
    return (E @ st) * decay[None, :]


def apply_semigroup(system, state, t):
    """Free flow of the state over a time t >= 0.

    Column i is multiplied by ``exp(-lambda_i t) exp(P t)``. Internally the
    commuting shift by lambda_1 is factored out, so the computation stays
    bounded for large t whenever the coupling spectrum does not exceed
    lambda_1, and is exact up to the matrix-exponential kernel.
    """
    return _flow(system, state, t, adjoint=False)


def apply_adjoint_semigroup(system, state, t):
    """Flow of the adjoint generator: coupling transposed, same mode decay.

    Used by the observability and duality computations; shares the shifted
    evaluation of `apply_semigroup`.
    """
    return _flow(system, state, t, adjoint=True)


def apply_impulse(system, state, k, u):
    """Instantaneous jump through controller k with control coefficients u.

    Parameters
    ----------
    u : ndarray, shape (m, N)
        Modal coefficients of the control function; column i is the
        m-vector attached to mode i.

    Returns
    -------
    ndarray
        ``state + Q_k (u G_k)`` with G_k the controller's Gram matrix;
        for a full-support controller this is exactly ``state + Q_k u``.
    """
    st = _check_state(system, state)
    if not 1 <= k <= system.hbar:
        raise ValueError(f"controller index {k} outside 1..{system.hbar}")
    u = np.asarray(u, dtype=float)
    if u.shape != (system.m, system.domain.modes):
        raise ValueError(
            f"control must have shape ({system.m}, {system.domain.modes}), got {u.shape}"
        )
    if not np.all(np.isfinite(u)):
        raise ValueError("control coefficients must be finite")
    if system._full[k - 1]:
        # full support: the Gram matrix is the identity, skip the projection
        return st + system.gain(k) @ u
    gram = system.overlap(k)
    return st + system.gain(k) @ (u @ gram)


class _PullbackTable:
    """Pull-back maps ``exp((lam1 I - P) t_j)`` at the impulse times of a schedule.

    With t_j = b_r + c t_hbar (slot r, c whole periods before it) the map
    is ``exp((lam1 I - P) b_r) Psi^c``, Psi being the map over one period,
    which is the slot map of r = hbar. So a table costs hbar matrix
    exponentials; the powers of Psi are extended on demand, one product
    each. A power that overflows turns into inf or nan entries, which the
    finiteness checks downstream reject. Used by the rank search
    (`observability._rank_search`), `synthesis.gramian_delta` and the
    Gramian-ball chunks of `synthesis._chunked_mode1`; steering itself
    works in the final-time frame of `Propagators.to_final`.
    """

    def __init__(self, P, lam1, sched):
        P = as_matrix(P)
        generator = lam1 * np.eye(P.shape[0]) - P
        self._slots = [mat_exp(generator, b) for b in sched.base_times]
        self._powers = [np.eye(P.shape[0])]

    def __call__(self, j):
        """exp((lam1 I - P) t_j) for the impulse index j >= 1."""
        cycles, slot = divmod(j - 1, len(self._slots))
        while len(self._powers) <= cycles:
            self._powers.append(self._powers[-1] @ self._slots[-1])
        return self._slots[slot] @ self._powers[cycles]


class Propagators:
    """Flow maps of one system on one periodic schedule.

    Slot r (1-based, impulse j uses slot nu(j)) holds the lambda_1-shifted
    step map ``exp((P - lambda_1 I) D_r)`` and the per-mode decay
    ``exp(-(lambda - lambda_1) D_r)`` over ``D_r = b_r - b_{r-1}`` (b_0 = 0),
    plus the controller's gain and Gram matrix (None on a full support).
    `advance` is the one flow-and-jump step of every forward loop, and
    `to_final` the maps from each impulse to a final impulse (adjoint maps
    are their transposes). `final_stack` and `project` are the one
    control-to-state map and its adjoint, for synthesis, the witness and
    the observability readings alike. Construction costs hbar matrix
    exponentials; an engine lives for one call and is never cached beyond it.
    """

    def __init__(self, system, sched):
        lam = system.domain.eigenvalues()
        lam1 = lam[0]
        shifted = system.coupling - lam1 * np.eye(system.n)
        self.system = system
        self.hbar = sched.hbar
        self.steps = []
        self.jumps = []
        prev = 0.0
        for r, b in enumerate(sched.base_times, start=1):
            dt = b - prev
            self.steps.append((mat_exp(shifted, dt), np.exp(-(lam - lam1) * dt)))
            gram = None if system._full[r - 1] else system.overlap(r)
            self.jumps.append((system.gain(r), gram))
            prev = b

    def advance(self, state, j, u=None):
        """State just after impulse j from the state just after impulse j - 1.

        Flows over the step of slot nu(j), then jumps by the control u
        (m, N) when one is given.
        """
        E, decay = self.steps[(j - 1) % self.hbar]
        state = (E @ state) * decay[None, :]
        if u is not None:
            gain, gram = self.jumps[(j - 1) % self.hbar]
            state = state + gain @ (u if gram is None else u @ gram)
        return state

    def to_final(self, k):
        """Shifted flow from t_j to t_k for j = 0..k, as (map, decay) pairs.

        Entry j is ``(exp((P - lambda_1 I)(t_k - t_j)),
        exp(-(lambda - lambda_1)(t_k - t_j)))``, accumulated backwards from
        t_k by one step product per impulse; entry k is the identity.
        """
        F = np.eye(self.system.n)
        d = np.ones(self.system.domain.modes)
        out = [(F, d)]
        for j in range(k, 0, -1):
            E, decay = self.steps[(j - 1) % self.hbar]
            F = F @ E
            d = d * decay
            out.append((F, d))
        return out[::-1]

    def final_stack(self, k):
        """``(self.to_final(k), S, G)``: the final-time gain stack and its decays.

        Block j of S, shape (n, k m), is the lambda_1-shifted flow from t_j
        to t_k applied to Q_nu(j); G, shape (k m, N), holds each of its
        columns' per-mode decay from t_j to t_k. Blocks carry decay, never
        growth, so every entry stays representable.
        """
        to_final = self.to_final(k)
        S = np.hstack(
            [F @ self.jumps[(j - 1) % self.hbar][0] for j, (F, _) in enumerate(to_final[1:], 1)]
        )
        G = np.repeat(np.array([d for _, d in to_final[1:]]), self.system.m, axis=0)
        return to_final, S, G

    def project(self, U):
        """Each slot's Gram matrix, cut to p x p, applied to its impulses' rows.

        U has shape (..., k, m, p), p <= N, impulse j in block j - 1 of axis -3.
        """
        p = U.shape[-1]
        out = np.empty_like(U)
        for r, (_, gram) in enumerate(self.jumps):
            rows = U[..., r :: self.hbar, :, :]
            out[..., r :: self.hbar, :, :] = (
                rows if gram is None else (rows.reshape(-1, p) @ gram[:p, :p]).reshape(rows.shape)
            )
        return out


def l2_norm(state):
    """L2 norm of the represented function (Frobenius norm of coefficients)."""
    return float(np.linalg.norm(np.asarray(state, dtype=float)))


def zero_state(system):
    return np.zeros((system.n, system.domain.modes))


def single_mode_state(system, i, vec):
    """State ``vec * e_i``: one populated mode column."""
    st = zero_state(system)
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if vec.shape[0] != system.n:
        raise ValueError("component vector must have length n")
    if not 1 <= i <= system.domain.modes:
        raise ValueError("mode index outside the truncation")
    st[:, i - 1] = vec
    return st


def random_state(system, rng, norm=1.0):
    """Seeded random state rescaled to the requested norm."""
    st = rng.standard_normal((system.n, system.domain.modes))
    scale = np.linalg.norm(st)
    if scale == 0.0:
        st[0, 0] = 1.0
        scale = 1.0
    return st * (norm / scale)
