"""Periodic impulse schedules and the spectrum-aware schedule picker."""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, numerical_rank, spectrum

__all__ = [
    "ImpulseSchedule",
    "time_at",
    "nu",
    "check_cycle",
    "krylov_dim",
    "d_min_imag",
    "schedule_depth",
    "pick_schedule",
]


@dataclass(frozen=True)
class ImpulseSchedule:
    """Impulse times repeating with period ``base_times[-1]``.

    base_times lists t_1 < ... < t_hbar (all positive); t_0 = 0 is implicit
    and later times extend periodically: t_{j+hbar} = t_j + t_hbar.
    """

    base_times: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.base_times)
        if not times:
            raise ValueError("at least one base time is required")
        if times[0] <= 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("base times must be strictly increasing and positive")
        if not all(math.isfinite(t) for t in times):
            raise ValueError("base times must be finite")
        object.__setattr__(self, "base_times", times)

    @property
    def hbar(self):
        return len(self.base_times)

    @property
    def period(self):
        return self.base_times[-1]

    @property
    def slot_lengths(self):
        """Slot lengths D_r = t_r - t_{r-1}, r = 1..hbar, with t_0 = 0."""
        return tuple(b - a for a, b in zip((0.0,) + self.base_times, self.base_times))


def time_at(sched, j):
    """t_j of the periodic extension; t_0 = 0."""
    if j < 0:
        raise ValueError("impulse index must be nonnegative")
    if j == 0:
        return 0.0
    r = nu(sched, j)
    cycles = (j - r) // sched.hbar
    return sched.base_times[r - 1] + cycles * sched.period


def nu(sched, j):
    """Controller index in {1..hbar} used at impulse j >= 1.

    Period boundaries map to hbar, not 0: the cycle is 1, 2, ..., hbar,
    1, 2, ... starting at j = 1.
    """
    if j < 1:
        raise ValueError("controller indices start at impulse 1")
    return (j - 1) % sched.hbar + 1


def check_cycle(system, sched):
    """Raise unless the schedule cycles exactly the system's actuators."""
    if sched.hbar != system.hbar:
        raise ValueError(
            f"schedule cycles {sched.hbar} impulse slots but the system has "
            f"{system.hbar} controllers"
        )


def _krylov_stack(P, B):
    """``[B, PB, ..., P^(n-1) B]`` side by side, n = P.shape[0]."""
    blocks = [B]
    for _ in range(P.shape[0] - 1):
        blocks.append(P @ blocks[-1])
    return np.hstack(blocks)


def krylov_dim(P, q):
    """dim span{q, Pq, ..., P^(n-1) q}; 0 for q = 0."""
    q = np.asarray(q, dtype=float).reshape(-1, 1)
    return numerical_rank(_krylov_stack(as_matrix(P), q))


def d_min_imag(P):
    """min over the spectrum of pi/|Im(lambda)|, with 1/0 = +inf."""
    info = spectrum(P)
    top = float(np.abs(info.eigenvalues.imag).max())
    if top == 0.0:
        return math.inf
    return math.pi / top


def schedule_depth(P, gains):
    """Extra schedule cycles needed to exhaust all actuator Krylov spans.

    For each gain matrix the span count is the largest Krylov dimension
    over its columns under -P; the depth is the maximum of (span count - 1)
    over the actuators, floored at 0.
    """
    P = as_matrix(P)
    depth = 0
    for Q in gains:
        Q = as_matrix(Q, rows=P.shape[0])
        span = max(krylov_dim(-P, Q[:, j]) for j in range(Q.shape[1]))
        depth = max(depth, span - 1)
    return depth


def pick_schedule(P, gains):
    """Equally spaced schedule whose cycle fits the coupling's rotation scale.

    The period is t_hbar = min(1, d/(2 max(q, 1))) with d = d_min_imag(-P)
    and q = schedule_depth(P, gains); base times are j * t_hbar / hbar.
    This keeps q * t_hbar strictly below d, so repeated cycles sample each
    actuator inside a single rotation window.
    """
    q = schedule_depth(P, gains)
    d = d_min_imag(-np.asarray(P, dtype=float))
    period = 1.0 if math.isinf(d) else min(1.0, d / (2.0 * max(q, 1)))
    hbar = len(gains)
    base = tuple(period * j / hbar for j in range(1, hbar + 1))
    return ImpulseSchedule(base_times=base)
