"""Independent result checker.

Uses numpy and `scipy.linalg.expm` only and never calls into the package:
replays are made with the benchmark's own propagation (one `expm` per
distinct step length, a per-mode decay factor, and the Gram matrix of a
partial support by the benchmark's own quadrature), so a defect in the
package's propagation cannot hide itself.

Each check returns a list of (code, message) failures; an empty list
means the result is correct.  `KNOWN_DEFECTS` names the failure codes of
defects that the package has today and that the benchmark keeps visible:
they count as failed scenarios but do not make a run incorrect.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

BUDGET_SLACK = 1e-12
HONEST_ERRORS = ("HorizonExhaustedError", "RankDeficiencyError")
KNOWN_DEFECTS = frozenset({
    "k_max-overrun",  # gcac_synthesize returns horizon_k > k_max
    "verification-failed",  # steer_first_mode raises "steering verification failed"
    "non-finite-growth",  # NaN output under a growth coupling
    "overflow-error",  # LinAlgError or "must be finite" from overflowed long-horizon blocks
    "gap-rounding",  # reachability_gap lower bound above achieved by rounding only
})
TRAJECTORY_TASKS = ("synthesize-gcac", "synthesize-null", "synthesize-local", "simulate")
CONSTRAINED_TASKS = ("synthesize-gcac", "synthesize-null", "synthesize-local")


class Model:
    """The benchmark's own copy of a scenario's system, for replays."""

    def __init__(self, system, base_times):
        self.P = np.asarray(system["coupling"], dtype=float)
        self.n = self.P.shape[0]
        self.N = int(system["modes"])
        self.L = float(system["length"])
        self.gains = [np.asarray(c["gain"], dtype=float) for c in system["controllers"]]
        self.supports = [tuple(c["support"]) for c in system["controllers"]]
        self.base = [float(t) for t in base_times]
        self.lam = (np.arange(1, self.N + 1) * math.pi / self.L) ** 2
        top = float(np.linalg.eigvals(self.P).real.max())
        self.growth = top > self.lam[0] * (1.0 + 1e-9)
        self.top = top
        self._steps = {}
        self._grams = {}

    def step(self, slot):
        """Free flow over the step that ends at impulse slot (0-based)."""
        if slot not in self._steps:
            dt = self.base[slot] - (self.base[slot - 1] if slot else 0.0)
            self._steps[slot] = (scipy.linalg.expm(self.P * dt), np.exp(-self.lam * dt))
        return self._steps[slot]

    def gram(self, slot):
        """Gram matrix of a support, or None for the full interval."""
        a, b = self.supports[slot]
        if a == 0.0 and b == self.L:
            return None
        if slot not in self._grams:
            self._grams[slot] = gram_by_quadrature(self.N, self.L, a, b)
        return self._grams[slot]

    def replay(self, x0, impulses, k):
        """Final state after k impulses and the largest norm on the way."""
        state = np.array(x0, dtype=float)
        peak = float(np.linalg.norm(state))
        hbar = len(self.base)
        for j in range(k):
            slot = j % hbar
            E, decay = self.step(slot)
            state = (E @ state) * decay[None, :]
            if j < len(impulses):
                u = np.asarray(impulses[j], dtype=float)
                G = self.gram(slot)
                state = state + self.gains[slot] @ (u if G is None else u @ G)
            peak = max(peak, float(np.linalg.norm(state)))
        return state, peak


def gram_by_quadrature(N, L, a, b, nodes=12):
    """Gram matrix of sqrt(2/L) sin(i pi x / L), i = 1..N, over (a, b).

    Composite Gauss-Legendre with one panel per period of the fastest
    product term, `nodes` points per panel.
    """
    panels = max(1, math.ceil((b - a) * N / L))
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    pts = (edges[:-1, None] + half[:, None] * (x[None, :] + 1.0)).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    E = math.sqrt(2.0 / L) * np.sin(np.outer(np.arange(1, N + 1) * math.pi / L, pts))
    return (E * wts[None, :]) @ E.T


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _nonfinite(model):
    return ("non-finite-growth" if model.growth else "non-finite", "output is not finite")


def check_steering(scn, model, rec):
    """Check one synthesizer result (or raised error) of a steering scenario.

    Returns (failures, horizon) where horizon is the value that enters
    horizon_mean: the returned horizon_k, or k_max for a failed or
    exhausted call.
    """
    k_max = scn["k_max"]
    if rec["status"] == "error":
        if rec["error_type"] in HONEST_ERRORS:
            return [], k_max
        if rec["error_type"] == "RuntimeError" and "steering verification failed" in rec["message"]:
            return [("verification-failed", rec["message"])], k_max
        if rec["error_type"] == "LinAlgError" or (
            rec["error_type"] == "ValueError" and "must be finite" in rec["message"]
        ):
            return [("overflow-error", rec["message"])], k_max
        return [("unexpected-error", f"{rec['error_type']}: {rec['message']}")], k_max

    fails = []
    k = rec["horizon_k"]
    impulses = rec["impulses"]
    if k > k_max:
        fails.append(("k_max-overrun", f"horizon_k {k} > k_max {k_max}"))
    if not (_finite(rec["residual"]) and all(_finite(u) for u in impulses)):
        return fails + [_nonfinite(model)], k_max
    if rec["constrained"]:
        worst = max((float(np.linalg.norm(u)) for u in impulses), default=0.0)
        if worst > 1.0 + BUDGET_SLACK:
            fails.append(("over-budget", f"impulse norm {worst!r} > 1"))
    final, peak = model.replay(scn["x0"], impulses, k)
    replayed = float(np.linalg.norm(final))
    if not math.isfinite(replayed):
        return fails + [_nonfinite(model)], k_max
    tol = 1e-9 * max(1.0, peak)
    if abs(replayed - rec["residual"]) > tol:
        fails.append(("residual-mismatch", f"replay {replayed!r} vs reported {rec['residual']!r}"))
    cert = rec["certificate"]
    honest = cert == "failed-horizon-exhausted"
    if cert == "epsilon-ball":
        if rec["residual"] > scn["eps"] or replayed > scn["eps"] + tol:
            fails.append(("not-in-ball", f"residual {rec['residual']!r} > eps {scn['eps']!r}"))
    elif cert == "exact":
        if replayed > 1e-8 * max(1.0, float(np.linalg.norm(scn["x0"]))):
            fails.append(("not-exact", f"replayed residual {replayed!r} is not about 0"))
    elif not honest:
        fails.append(("certificate", f"unknown certificate {cert!r}"))
    return fails, (k_max if fails or honest else k)


def gramian_constant(model, taus):
    """1 / lambda_min of the observability Gramian, and its condition."""
    W = np.zeros((model.n, model.n))
    for j, tau in enumerate(taus):
        B = scipy.linalg.expm(-model.P * tau) @ model.gains[j % len(model.gains)]
        W += B @ B.T
    eig = np.linalg.eigvalsh(W)
    if eig[0] <= 0.0:
        return math.inf, math.inf
    return 1.0 / eig[0], eig[-1] / eig[0]


def semigroup_norm(model, t):
    return float(np.linalg.norm(scipy.linalg.expm(model.P * t), 2)) * math.exp(-model.lam[0] * t)


def time_at(model, j):
    if j == 0:
        return 0.0
    hbar = len(model.base)
    return model.base[(j - 1) % hbar] + ((j - 1) // hbar) * model.base[-1]


def check_certify(scn, model, rec):
    """Check the analysis results of one certify scenario.

    Returns (failures, gap_rel) with gap_rel the relative reachability
    gap, or None when the gap was not computed.
    """
    if rec["status"] == "error":
        if rec["error_type"] in HONEST_ERRORS:
            return [], None
        return [("unexpected-error", f"{rec['error_type']}: {rec['message']}")], None
    fails = []
    tol = 1e-9 * max(1.0, model.lam[0])
    expected = "violated" if model.top > model.lam[0] + tol else (
        "boundary" if model.top >= model.lam[0] - tol else "strict")
    verdict = rec["verdict"]
    if verdict["spectral"] != expected:
        fails.append(("verdict", f"spectral {verdict['spectral']} != {expected}"))
    full = all(a == 0.0 and b == model.L for a, b in model.supports)
    if verdict["omega_full"] != full:
        fails.append(("verdict", "omega_full disagrees with the supports"))

    if verdict["rank_ok"]:
        taus = [time_at(model, j) for j in range(1, verdict["k_star"] + 1)]
        own, cond = gramian_constant(model, taus)
        got = rec["finite_obs"]
        if not _finite(got):
            fails.append(_nonfinite(model))
        elif math.isfinite(own):
            rtol = max(1e-9, 1e3 * np.finfo(float).eps * cond)
            if abs(got - own) > rtol * own:
                fails.append(("obs-constant", f"finite_obs_constant {got!r} vs Gramian {own!r}"))
    if "delta_obs" in rec:
        D = rec["delta_obs"]
        if math.isnan(D) or D < 0.0:
            fails.append(("delta-constant", f"delta_obs_constant {D!r}"))
        if rec.get("compose") is not None:
            delta_k, D_k = rec["compose"]
            norms = [semigroup_norm(model, time_at(model, i * len(model.base)))
                     for i in range(rec["compose_k"])]
            want = (scn["delta"] * sum(norms) / sum(1.0 / v for v in norms),
                    D / sum(1.0 / v for v in norms))
            for got_v, want_v in zip((delta_k, D_k), want):
                if math.isfinite(want_v) and abs(got_v - want_v) > 1e-8 * abs(want_v):
                    fails.append(("compose", f"compose_obs {got_v!r} vs {want_v!r}"))

    if model.growth:
        cert = rec["negative"]
        if not (cert["rho_real"] > model.lam[0] and cert["threshold"] > 0.0
                and _finite(cert["threshold"])):
            fails.append(("negative-bound", f"certificate {cert!r}"))

    lower, achieved = rec["gap"]
    if not _finite(lower, achieved):
        return fails + [_nonfinite(model)], None
    if lower < 0.0 or lower > achieved * (1.0 + 1e-12):
        fails.append(("gap-order", f"lower {lower!r} > achieved {achieved!r}"))
    elif lower > achieved:
        fails.append(("gap-rounding", f"lower {lower!r} > achieved {achieved!r} by rounding"))
    return fails, (achieved - lower) / max(achieved, 1e-300)


def check_cli(case, code, out_dir):
    """Check one command line run: exit code, report and trajectory."""
    expect, task = case["expect"], case["task"]
    params = case["doc"].get("parameters", {})
    nonfinite = "non-finite-growth" if expect == "ok-or-error" else "non-finite"
    if expect == "input-error":
        # rejected while loading, before a report exists
        return [] if code == 1 else [("exit-code", f"exit {code}, expected 1")]
    try:
        report = json.loads((Path(out_dir) / "report.json").read_text())
    except (OSError, ValueError) as err:
        return [("report", f"report.json unreadable: {err}")]
    error = report.get("error")
    if code != 0:
        allowed = {
            "rank-deficient": (1, ("rank-deficient",)),
            "witness-inapplicable": (1, ("witness-inapplicable",)),
            "exhausted": (2, ("horizon-exhausted",)),
            "ok-or-exhausted": (2, ("horizon-exhausted",)),
            "ok-or-error": (code if code in (1, 2) else None, None),
        }.get(expect)
        if allowed is None or code != allowed[0]:
            return [("exit-code", f"exit {code} for an {expect!r} case, error {error!r}")]
        certificate = report.get("result", {}).get("certificate", "")
        if error is None and not certificate.startswith("failed"):
            return [("report", "nonzero exit without an error or a failed-* certificate")]
        if error is not None and allowed[1] is not None and error.get("code") not in allowed[1]:
            return [("report", f"error {error!r} for an {expect!r} case")]
        if error is not None:
            return []
    elif expect in ("rank-deficient", "witness-inapplicable", "exhausted"):
        return [("exit-code", f"exit 0 for an {expect!r} case")]

    fails = []
    result = report.get("result", {})
    numbers = [v for v in result.values() if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if numbers and not _finite(*numbers):
        fails.append((nonfinite, "result is not finite"))
    if task not in TRAJECTORY_TASKS:
        return fails
    with open(Path(out_dir) / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    k = result.get("horizon_k")
    if k is None or len(rows) != k + 1:
        return fails + [("csv-rows", f"{len(rows)} trajectory rows for horizon_k {k}")]
    values = np.array([[float(v) for v in r[1:]] for r in rows])
    if not _finite(values):
        fails.append((nonfinite, "trajectory is not finite"))
    if task not in CONSTRAINED_TASKS:
        return fails
    norms, controls = values[:, -2], values[:, -1]
    if k > params["k_max"]:
        fails.append(("k_max-overrun", f"horizon_k {k} > k_max {params['k_max']}"))
    if controls.max() > 1.0 + BUDGET_SLACK:
        fails.append(("over-budget", "control norm above 1 in trajectory.csv"))
    if abs(norms[-1] - result["residual"]) > 1e-12 * max(1.0, norms.max()):
        fails.append(("residual-mismatch", "last trajectory row differs from the residual"))
    cert = result.get("certificate")
    if cert == "epsilon-ball" and result["residual"] > params["eps"]:
        fails.append(("not-in-ball", f"residual {result['residual']!r} > eps"))
    if cert == "exact" and result["residual"] > 1e-8 * max(1.0, norms[0]):
        fails.append(("not-exact", f"residual {result['residual']!r} is not about 0"))
    return fails
