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
transposed, states to controller readings. The rank search steps its
stack through the unshifted maps ``exp(P D_r)`` in this frame, since a
shifted map underflows once lambda_1 D_r passes about 745; `apply_semigroup`
remains the one-shot flow over an arbitrary time. Every shifted flow is
one `_shifted_flow`, and only partial supports store a Gram matrix.
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


class NonFiniteStateError(ArithmeticError):
    """A propagated state or a bound overflowed to inf or nan."""


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
        return float(np.square(i * math.pi / self.length))

    def eigenvalues(self):
        """Array of lambda_1..lambda_N, each rounded as `eigenvalue` rounds it."""
        idx = np.arange(1, self.modes + 1, dtype=float)
        return np.square(idx * math.pi / self.length)


def overlap_matrix(domain, a, b):
    """Gram matrix of the retained modes restricted to the interval (a, b).

    Entry [l-1, i-1] is the integral of ``e_l e_i`` over (a, b), from the
    product-to-sum closed form. Off the diagonal its two terms depend on
    l - i and l + i only, so each is evaluated once per difference and per
    sum and gathered into Toeplitz and Hankel views. For the full interval
    the matrix is the identity exactly (orthonormality), which is returned
    without roundoff.

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
    diff = np.arange(1 - N, N, dtype=float)  # l - i, at index l - i + N - 1
    summ = np.arange(2, 2 * N + 1, dtype=float)  # l + i, at index l + i - 2
    window = np.lib.stride_tricks.sliding_window_view

    def antiderivative(x):
        with np.errstate(invalid="ignore", divide="ignore"):
            by_diff = np.sin(diff * math.pi * x / L) / (diff * math.pi / L)
        by_summ = np.sin(summ * math.pi * x / L) / (summ * math.pi / L)
        # row l - 1 of the Toeplitz view is by_diff[l - 1 : l + N - 1] reversed
        off = window(by_diff, N)[:, ::-1] - window(by_summ, N)
        # the diagonal's sum term is the Hankel term of l + l
        np.fill_diagonal(off, x - by_summ[::2])
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
        # restriction Gram matrix per controller; None on a full support (the identity)
        self._grams = [
            None if c.support == (0.0, self.domain.length)
            else overlap_matrix(self.domain, *c.support)
            for c in checked
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
        """Gram matrix of controller k (1-based); a fresh identity on a full support."""
        if not 1 <= k <= self.hbar:
            raise ValueError(f"controller index {k} outside 1..{self.hbar}")
        gram = self._grams[k - 1]
        return np.eye(self.domain.modes) if gram is None else gram

    def gain(self, k):
        if not 1 <= k <= self.hbar:
            raise ValueError(f"controller index {k} outside 1..{self.hbar}")
        return self.controllers[k - 1].gain

    @property
    def gains(self):
        """The validated gains Q_1..Q_hbar, in controller order."""
        return tuple(c.gain for c in self.controllers)

    def has_full_supports(self):
        """True when every controller acts on the whole interval."""
        return all(g is None for g in self._grams)


def _check_state(system, state):
    st = np.asarray(state, dtype=float)
    if st.shape != (system.n, system.domain.modes):
        raise ValueError(
            f"state must have shape ({system.n}, {system.domain.modes}), got {st.shape}"
        )
    if not np.isfinite(st).all():
        raise ValueError("state entries must be finite")
    return st


def _shifted_flow(system, t, adjoint=False):
    """``(E, decay)``: the flow over t with the commuting shift by lambda_1
    factored out, ``E = exp((P - lambda_1 I) t)`` (P^T when adjoint) and
    ``decay = exp(-(lambda - lambda_1) t)`` per mode."""
    lam = system.domain.eigenvalues()
    lam1 = lam[0]
    base = system.coupling.T if adjoint else system.coupling
    with np.errstate(over="ignore"):  # an exponent that overflows to -inf decays to 0
        decay = np.exp(-(lam - lam1) * t)
    return mat_exp(base - lam1 * np.eye(system.n), t), decay


def _flow(system, state, t, adjoint):
    st = _check_state(system, state)
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError("semigroup time must be nonnegative and finite")
    if t == 0.0:
        return st.copy()
    E, decay = _shifted_flow(system, t, adjoint)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (E @ st) * decay[None, :]
    if not np.isfinite(out).all():
        raise NonFiniteStateError(f"the flow over t = {t} overflowed")
    return out


def apply_semigroup(system, state, t):
    """Free flow of the state over a time t >= 0.

    Column i is multiplied by ``exp(-lambda_i t) exp(P t)``. Internally the
    commuting shift by lambda_1 is factored out, so the computation stays
    bounded for large t whenever the coupling spectrum does not exceed
    lambda_1, and is exact up to the matrix-exponential kernel. Raises
    NonFiniteStateError when the flowed state overflows.
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
    gain = system.gain(k)
    u = np.asarray(u, dtype=float)
    if u.shape != (system.m, system.domain.modes):
        raise ValueError(
            f"control must have shape ({system.m}, {system.domain.modes}), got {u.shape}"
        )
    if not np.all(np.isfinite(u)):
        raise ValueError("control coefficients must be finite")
    gram = system._grams[k - 1]
    return st + gain @ (u if gram is None else u @ gram)


class Propagators:
    """Flow maps of one system on one periodic schedule.

    Slot r (1-based, impulse j uses slot nu(j)) holds `_shifted_flow` over
    its length D_r (`ImpulseSchedule.slot_lengths`), plus the controller's
    gain and Gram matrix (None on a full support).
    `advance` is the one flow-and-jump step of every forward loop, and
    `to_final` the maps from each impulse to a final impulse (adjoint maps
    are their transposes). `gain_stack` (with its decays, `final_stack`)
    and `project` are the one control-to-state map and its adjoint, for
    synthesis and the witness; the observability readings weight the same
    stack by a factor of each slot's Gram matrix instead.
    `to_final`, `gain_stack` and `final_stack` read one backward product
    per slot, kept and extended for later horizons, its decays only when read.
    `final_stack` also gives each decay's live prefix, past which it is
    exactly 0; products cut there match uncut ones to rounding only.
    Construction costs hbar matrix exponentials; an engine lives for one
    call and is never cached beyond it.
    """

    def __init__(self, system, sched):
        self.system = system
        self.hbar = sched.hbar
        self.steps = [_shifted_flow(system, dt) for dt in sched.slot_lengths]
        self.jumps = list(zip(system.gains, system._grams))
        self._tails = {}

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

    def _backward(self, k):
        """The engine's one backward product from t_k: (maps, decays, S).

        maps[i] and decays[i] are the lambda_1-shifted flow and per-mode decay
        over the last i impulses before t_k, i = 0..k and beyond; S holds each
        of those impulses' gain under its flow, latest impulse last. Read
        backwards from t_k, these products depend on k only through its slot, so
        the engine keeps one product per slot and extends it on demand (the
        decays only in `to_final`): every shorter horizon of the same slot reads
        the tail of the longest one built, bit for bit.
        """
        r = k % self.hbar
        n = self.system.n
        tail = self._tails.get(r)
        if tail is None:
            tail = ([np.eye(n)], [np.ones(self.system.domain.modes)], np.zeros((n, 0)))
        maps, decays, S = tail
        if len(maps) <= k:
            # the impulse k - i, where maps[i] starts, uses slot (k - i - 1) mod hbar
            blocks = []
            for i in range(len(maps) - 1, k):
                slot = (r - i - 1) % self.hbar
                blocks.append(maps[i] @ self.jumps[slot][0])
                maps.append(maps[i] @ self.steps[slot][0])
            S = np.hstack(blocks[::-1] + [S])
            self._tails[r] = (maps, decays, S)
        return maps, decays, S

    def to_final(self, k):
        """Shifted flow from t_j to t_k for j = 0..k, as (map, decay) pairs.

        Entry j is ``(exp((P - lambda_1 I)(t_k - t_j)),
        exp(-(lambda - lambda_1)(t_k - t_j)))``, accumulated backwards from
        t_k by one step product per impulse; entry k is the identity. The
        decays kept by `_backward` are extended here, by the same products.
        """
        maps, decays, _ = self._backward(k)
        for i in range(len(decays) - 1, k):
            decays.append(decays[i] * self.steps[(k - i - 1) % self.hbar][1])
        return list(zip(maps[k::-1], decays[k::-1]))

    def gain_stack(self, k):
        """``(F0, S)``: the final-time gain stack at k, maps only.

        Block j of S, shape (n, k m), is the lambda_1-shifted flow from t_j
        to t_k applied to Q_nu(j), and F0 is that flow from t_0. Blocks
        carry decay, never growth, so every entry stays representable.
        """
        maps, _, S = self._backward(k)
        return maps[k], S[:, S.shape[1] - k * self.system.m :]

    def final_stack(self, k):
        """``(F0, d0, S, G, live)``: the gain stack of `gain_stack` and its decays.

        d0 is the per-mode decay from t_0 to t_k, and G, shape (k m, N),
        holds each column of S's per-mode decay from t_j to t_k. live[j],
        j = 0..k, counts the nonzero modes of the decay from t_j to t_k, a
        prefix since decays fall with the mode index; a product cut to it
        matches the uncut one to rounding, not bitwise.
        """
        F0, S = self.gain_stack(k)
        decays = np.array([d for _, d in self.to_final(k)])
        G = np.repeat(decays[1:], self.system.m, axis=0)
        return F0, decays[0], S, G, np.count_nonzero(decays, axis=1)

    def project(self, U):
        """Each slot's Gram matrix, cut to p x p, applied to its impulses' rows.

        U has shape (..., k, m, p), p <= N, impulse j in block j - 1 of axis -3.
        With no Gram matrix in any slot, U itself is returned.
        """
        if self.system.has_full_supports():
            return U
        p = U.shape[-1]
        out = np.empty_like(U)
        for r, (_, gram) in enumerate(self.jumps):
            rows = U[..., r :: self.hbar, :, :]
            out[..., r :: self.hbar, :, :] = (
                rows if gram is None else (rows.reshape(-1, p) @ gram[:p, :p]).reshape(rows.shape)
            )
        return out


def l2_norm(state):
    """L2 norm of the function: `np.linalg.norm` of its coefficients, bitwise."""
    x = np.asarray(state, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


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
