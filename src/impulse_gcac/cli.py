"""Scenario-driven command line front end.

A scenario is one JSON document naming a coupled system, an impulse
schedule (explicit base times or "auto"), a task, and numeric
parameters.  ``load_scenario`` validates it eagerly with field-path
error messages; ``run`` dispatches to the library, writes ``report.json``
and, for trajectory-producing tasks, ``trajectory.csv``.

Exit codes: 0 for success (honest negative verdicts included), 2 for an
honest synthesis failure, 1 for input or precondition errors.  Every
failure carries a machine-readable code; `_FAILURES` is the one statement
of which library failure gets which code and exit code.  `_TASKS` maps
each task to its handler and its summary line.  Reports embed the fully
resolved scenario, so re-running a report file reproduces the run, and
CSV floats are written with shortest round-trip formatting so the rerun
is bit-identical.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .observability import (
    RankDeficiencyError,
    delta_obs_constant,
    finite_obs_constant,
    hypothesis_verdict,
    rank_condition,
)
from .schedule import ImpulseSchedule, check_cycle, pick_schedule, time_at
from .spectral import (
    Controller,
    CoupledSystem,
    SpectralDomain,
    random_state,
    zero_state,
)
from .synthesis import (
    ControlSequence,
    HorizonExhaustedError,
    NonFiniteStateError,
    constrained_null_synthesize,
    gcac_synthesize,
    local_gcac_synthesize,
    simulate,
)
from .witness import InapplicableCertificateError, negative_bound

__all__ = ["Scenario", "ScenarioError", "bundled_scenario", "load_scenario", "run", "main"]

REPORT_NAME = "report.json"
TRAJECTORY_NAME = "trajectory.csv"

_TOP_KEYS = {"task", "system", "schedule", "initial_state", "controls", "parameters"}
_SYSTEM_KEYS = {"length", "modes", "coupling", "controllers"}
_CONTROLLER_KEYS = {"gain", "support"}
_PARAMETER_KEYS = {"eps", "k_max", "k_star", "epsilon0", "horizon", "seed", "delta", "out"}

_DEFAULT_MODES = 32
# each partially supported controller holds an N x N Gram matrix, 128 MiB
# at N = 4096 (a full support holds none); larger orders end in a bare
# MemoryError, and the benchmark peaks at N = 512
_MAX_MODES = 4096
_DEFAULT_K_MAX = 64


class ScenarioError(ValueError):
    """Rejected scenario input; `code` is the machine-readable reason.

    Codes: 'parse-error' (unreadable or invalid JSON), 'dimension-mismatch'
    (missing or ill-shaped matrix data), 'invariant-violation' (well-formed
    but inconsistent values), 'io-error' (output could not be written).
    """

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated scenario: built objects plus the resolved document.

    `document` is the canonical JSON form with the schedule resolved to
    explicit base times and any command line overrides applied; embedding
    it in a report makes the report itself loadable as a scenario.
    """

    system: CoupledSystem
    sched: ImpulseSchedule
    task: str
    initial: dict
    controls: tuple
    parameters: dict
    document: dict


def _fail(code, path, message):
    raise ScenarioError(code, f"{path}: {message}")


def _as_number(value, path, positive=False, code="invariant-violation"):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(code, path, "expected a number")
    out = float(value)
    if not math.isfinite(out):
        _fail(code, path, "must be finite")
    if positive and out <= 0.0:
        _fail(code, path, "must be positive")
    return out


def _as_int(value, path, minimum, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail("invariant-violation", path, "expected an integer")
    if value < minimum:
        _fail("invariant-violation", path, f"must be at least {minimum}")
    if maximum is not None and value > maximum:
        _fail("invariant-violation", path, f"must be at most {maximum}")
    return value


def _as_seed(value, path):
    seed = _as_int(value, path, minimum=0)
    if seed >= 2**64:
        _fail("invariant-violation", path, "must fit in 64 bits")
    return seed


def _check_keys(mapping, allowed, path):
    if not isinstance(mapping, dict):
        _fail("invariant-violation", path, "expected an object")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        _fail("invariant-violation", path, f"unknown keys {unknown}")


def _matrix(value, path):
    # row-major nested arrays; missing or ragged data is a shape problem
    if value is None:
        _fail("dimension-mismatch", path, "required matrix is missing")
    if not (isinstance(value, list) and value and all(isinstance(r, list) for r in value)):
        _fail("dimension-mismatch", path, "expected a nonempty nested array")
    width = len(value[0])
    if width == 0:
        _fail("dimension-mismatch", path, "rows must be nonempty")
    rows = []
    for i, row in enumerate(value):
        if len(row) != width:
            _fail("dimension-mismatch", f"{path}[{i}]", "rows must have equal length")
        rows.append(
            [_as_number(v, f"{path}[{i}][{j}]", code="dimension-mismatch") for j, v in enumerate(row)]
        )
    return rows


def _build_system(raw, modes_override):
    if raw is None:
        _fail("invariant-violation", "system", "section is required")
    _check_keys(raw, _SYSTEM_KEYS, "system")
    length = _as_number(raw.get("length", math.pi), "system.length", positive=True)
    modes = raw.get("modes", _DEFAULT_MODES)
    if modes_override is not None:
        modes = modes_override
    modes = _as_int(modes, "system.modes", minimum=1, maximum=_MAX_MODES)
    coupling = _matrix(raw.get("coupling"), "system.coupling")
    n = len(coupling)
    if len(coupling[0]) != n:
        _fail("dimension-mismatch", "system.coupling", f"must be square, got {n}x{len(coupling[0])}")
    raw_controllers = raw.get("controllers")
    if not (isinstance(raw_controllers, list) and raw_controllers):
        _fail("invariant-violation", "system.controllers", "expected a nonempty array")
    controllers = []
    gains = []
    m = None
    for idx, entry in enumerate(raw_controllers):
        path = f"system.controllers[{idx}]"
        _check_keys(entry, _CONTROLLER_KEYS, path)
        gain = _matrix(entry.get("gain"), f"{path}.gain")
        if len(gain) != n:
            _fail("dimension-mismatch", f"{path}.gain", f"expected {n} rows, got {len(gain)}")
        if m is None:
            m = len(gain[0])
        elif len(gain[0]) != m:
            _fail("dimension-mismatch", f"{path}.gain", f"expected {m} columns, got {len(gain[0])}")
        # omitted support means the full interval; the resolved document
        # echoes the explicit pair either way
        support = entry.get("support", [0.0, length])
        if not (isinstance(support, list) and len(support) == 2):
            _fail("invariant-violation", f"{path}.support", "expected a [lo, hi] pair")
        lo = _as_number(support[0], f"{path}.support[0]")
        hi = _as_number(support[1], f"{path}.support[1]")
        gains.append(gain)
        controllers.append(Controller(gain=np.array(gain), support=(lo, hi)))
    try:
        system = CoupledSystem(
            coupling=np.array(coupling),
            controllers=controllers,
            domain=SpectralDomain(length=length, modes=modes),
        )
    except ValueError as err:
        _fail("invariant-violation", "system", str(err))
    resolved = {
        "length": length,
        "modes": modes,
        "coupling": coupling,
        "controllers": [
            {"gain": g, "support": [c.support[0], c.support[1]]}
            for g, c in zip(gains, system.controllers)
        ],
    }
    return system, resolved


def _build_schedule(raw, system):
    if raw is None:
        _fail("invariant-violation", "schedule", "section is required (base times or \"auto\")")
    if raw == "auto":
        return pick_schedule(system.coupling, system.gains)
    _check_keys(raw, {"base_times"}, "schedule")
    times = raw.get("base_times")
    if not (isinstance(times, list) and times):
        _fail("invariant-violation", "schedule.base_times", "expected a nonempty array")
    values = [_as_number(t, f"schedule.base_times[{i}]") for i, t in enumerate(times)]
    try:
        return ImpulseSchedule(base_times=tuple(values))
    except ValueError as err:
        _fail("invariant-violation", "schedule.base_times", str(err))


def _build_initial(raw, system):
    _check_keys(raw, {"entries", "random_norm"}, "initial_state")
    if ("entries" in raw) == ("random_norm" in raw):
        _fail("invariant-violation", "initial_state", "give exactly one of entries or random_norm")
    if "random_norm" in raw:
        return {"random_norm": _as_number(raw["random_norm"], "initial_state.random_norm", positive=True)}
    entries = raw["entries"]
    if not (isinstance(entries, list) and entries):
        _fail("invariant-violation", "initial_state.entries", "expected a nonempty array")
    seen = set()
    resolved = []
    for i, entry in enumerate(entries):
        path = f"initial_state.entries[{i}]"
        if not (isinstance(entry, list) and len(entry) == 3):
            _fail("invariant-violation", path, "expected [component, mode, value]")
        comp = _as_int(entry[0], f"{path}[0]", minimum=1)
        mode = _as_int(entry[1], f"{path}[1]", minimum=1)
        value = _as_number(entry[2], f"{path}[2]")
        if comp > system.n:
            _fail("invariant-violation", f"{path}[0]", f"component exceeds n={system.n}")
        if mode > system.domain.modes:
            _fail("invariant-violation", f"{path}[1]", f"mode exceeds N={system.domain.modes}")
        if (comp, mode) in seen:
            _fail("invariant-violation", path, "duplicate (component, mode) position")
        seen.add((comp, mode))
        resolved.append([comp, mode, value])
    return {"entries": resolved}


def _build_controls(raw, system):
    if not isinstance(raw, list):
        _fail("dimension-mismatch", "controls", "expected an array of impulse matrices")
    impulses = []
    for i, entry in enumerate(raw):
        mat = _matrix(entry, f"controls[{i}]")
        if len(mat) != system.m or len(mat[0]) != system.domain.modes:
            _fail(
                "dimension-mismatch",
                f"controls[{i}]",
                f"expected shape {system.m}x{system.domain.modes}",
            )
        impulses.append(np.array(mat))
    return tuple(impulses), [[[float(v) for v in row] for row in u] for u in impulses]


def _build_parameters(raw):
    _check_keys(raw, _PARAMETER_KEYS, "parameters")
    params = {}
    for key in ("eps", "epsilon0", "delta"):
        if key in raw:
            params[key] = _as_number(raw[key], f"parameters.{key}", positive=True)
    for key, minimum in (("k_max", 1), ("k_star", 1), ("horizon", 0)):
        if key in raw:
            params[key] = _as_int(raw[key], f"parameters.{key}", minimum=minimum)
    if "seed" in raw:
        params["seed"] = _as_seed(raw["seed"], "parameters.seed")
    if "out" in raw:
        if not isinstance(raw["out"], str) or not raw["out"]:
            _fail("invariant-violation", "parameters.out", "expected a nonempty string")
        params["out"] = raw["out"]
    return params


def load_scenario(path, task=None, seed=None, modes=None, k_max=None):
    """Read and validate a scenario file, applying command line overrides.

    Accepts either a scenario document or a previously emitted report
    (the report's embedded resolved scenario is loaded, so a report
    reruns identically).  All checks run eagerly: parse failures carry
    the JSON line and column, shape problems the offending field path.

    Parameters
    ----------
    path : str or Path
        Scenario or report JSON file.
    task : str, optional
        Task to run, overriding the document's own task field.
    seed, modes, k_max : optional
        Override the corresponding document values.

    Returns
    -------
    Scenario

    Raises
    ------
    ScenarioError
        With code 'parse-error', 'dimension-mismatch', or
        'invariant-violation'.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioError("parse-error", f"{path}: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            "parse-error", f"{path}:{err.lineno}:{err.colno}: {err.msg}"
        ) from None
    if isinstance(doc, dict) and isinstance(doc.get("scenario"), dict):
        doc = doc["scenario"]
    if not isinstance(doc, dict):
        _fail("invariant-violation", str(path), "top level must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "scenario")

    system, system_doc = _build_system(doc.get("system"), modes)
    sched = _build_schedule(doc.get("schedule"), system)
    try:
        check_cycle(system, sched)
    except ValueError as err:
        _fail("invariant-violation", "schedule.base_times", str(err))

    initial = _build_initial(doc["initial_state"], system) if "initial_state" in doc else None
    controls, controls_doc = (
        _build_controls(doc["controls"], system) if "controls" in doc else ((), None)
    )
    params = _build_parameters(doc.get("parameters", {}))
    if seed is not None:
        params["seed"] = _as_seed(seed, "--seed")
    if k_max is not None:
        params["k_max"] = _as_int(k_max, "--k-max", minimum=1)

    file_task = doc.get("task")
    for name in (file_task, task):
        if name is not None and name not in _TASKS:
            _fail("invariant-violation", "task", f"unknown task {name!r}")
    resolved_task = task if task is not None else file_task

    if initial is not None and "random_norm" in initial and "seed" not in params:
        _fail("invariant-violation", "parameters.seed", "required when the initial state is sampled")

    document = {"system": system_doc, "schedule": {"base_times": list(sched.base_times)}}
    if resolved_task is not None:
        document["task"] = resolved_task
    if initial is not None:
        document["initial_state"] = initial
    if controls_doc is not None:
        document["controls"] = controls_doc
    if params:
        document["parameters"] = dict(params)
    return Scenario(
        system=system,
        sched=sched,
        task=resolved_task,
        initial=initial,
        controls=controls,
        parameters=params,
        document=document,
    )


def bundled_scenario(name):
    """Filesystem path of a scenario file shipped with the package."""
    return Path(str(resources.files(__package__).joinpath("scenarios", name)))


# ---------------------------------------------------------------------------
# task handlers


def _need(scenario, key):
    if key not in scenario.parameters:
        raise ScenarioError(
            "invariant-violation", f"parameters.{key}: required by task {scenario.task}"
        )
    return scenario.parameters[key]


def _k_max(scenario):
    return scenario.parameters.get("k_max", _DEFAULT_K_MAX)


def _initial_state(scenario):
    if scenario.initial is None:
        raise ScenarioError(
            "invariant-violation", f"initial_state: required by task {scenario.task}"
        )
    if "random_norm" in scenario.initial:
        rng = np.random.default_rng(scenario.parameters["seed"])
        return random_state(scenario.system, rng, norm=scenario.initial["random_norm"])
    x0 = zero_state(scenario.system)
    for comp, mode, value in scenario.initial["entries"]:
        x0[comp - 1, mode - 1] = value
    return x0


def _rows(scenario, x0, controls, k):
    # the norms come from simulate's own loop, so the last row reproduces
    # a synthesized residual bit for bit; the control norms are the
    # sequence's own, the rule of its max_norm and l2_total
    _, norms = simulate(scenario.system, scenario.sched, x0, controls, k, norms=True)
    u_norms = [0.0] + [float(v) for v in controls.norms()[:k]]
    u_norms += [0.0] * (k + 1 - len(u_norms))
    return [
        (j, time_at(scenario.sched, j), modes, total, u_norm)
        for j, ((modes, total), u_norm) in enumerate(zip(norms, u_norms))
    ]


def _steering_summary(result):
    return {
        "horizon_k": result.horizon_k,
        "residual": result.residual,
        "certificate": result.certificate,
        "impulse_count": len(result.controls),
        "max_control_norm": result.controls.max_norm(),
        "total_control_l2": result.controls.l2_total(),
    }


def _task_check(scenario):
    verdict = hypothesis_verdict(scenario.system, scenario.sched, _k_max(scenario))
    return asdict(verdict), [], None


def _task_observability(scenario):
    system, sched = scenario.system, scenario.sched
    ok, found = rank_condition(system, sched, _k_max(scenario))
    result = {"rank_ok": bool(ok), "k_star": found}
    constants = []
    k_eval = scenario.parameters.get("k_star", found if ok else sched.hbar)
    result["k_evaluated"] = k_eval

    def record(name, report, method, **extra):
        # the result says whether the constant is finite; only a finite one is listed
        finite = math.isfinite(report.constant)
        result[f"{name}_finite"] = finite
        if finite:
            constants.append(
                {"name": name, "k": k_eval, **extra, "value": report.constant, "method": method}
            )

    if ok or "k_star" in scenario.parameters:
        taus = [time_at(sched, j) for j in range(1, k_eval + 1)]
        record("observability_constant",
               finite_obs_constant(system.coupling, system.gains, taus), "certified")
    if "delta" in scenario.parameters:
        if "seed" not in scenario.parameters:
            raise ScenarioError(
                "invariant-violation", "parameters.seed: required for the sampled delta constant"
            )
        delta = scenario.parameters["delta"]
        seed = scenario.parameters["seed"]
        record("delta_constant", delta_obs_constant(system, sched, k_eval, delta, seed=seed),
               "sampled-fit", delta=delta)
    return result, constants, None


def _task_gcac(scenario):
    x0 = _initial_state(scenario)
    res = gcac_synthesize(scenario.system, scenario.sched, x0, _need(scenario, "eps"), _k_max(scenario))
    result = _steering_summary(res)
    result["eps"] = scenario.parameters["eps"]
    rows = _rows(scenario, x0, res.controls, res.horizon_k)
    return result, [], rows


def _task_null(scenario):
    x0 = _initial_state(scenario)
    res = constrained_null_synthesize(scenario.system, scenario.sched, x0, _k_max(scenario))
    result = _steering_summary(res)
    constants = [
        {"name": "observability_constant", "value": res.details["obs_constant"], "method": "certified"},
        {"name": "period_growth_bound", "value": res.details["period_bound"], "method": "certified"},
        {"name": "ball_radius", "value": res.details["ball_radius"], "method": "certified"},
    ]
    rows = _rows(scenario, x0, res.controls, res.horizon_k)
    return result, constants, rows


def _task_local(scenario):
    x0 = _initial_state(scenario)
    res = local_gcac_synthesize(
        scenario.system, scenario.sched, x0, _need(scenario, "eps"), _k_max(scenario)
    )
    result = _steering_summary(res)
    result["eps"] = scenario.parameters["eps"]
    details = res.details
    result["iterations"] = details["iterations"]
    for key in ("residual_by_horizon", "best_iteration_by_horizon", "verdict_by_horizon",
                "bound_by_horizon", "steps_by_horizon"):
        result[key] = {str(k): v for k, v in details[key].items()}
    result["bracket"] = list(details["bracket"])
    # backtracking checks the step only at the points it visits: not certified
    steps = {str(k): v for k, v in details["step_sizes"].items()}
    constants = [{"name": "pgd_step_sizes", "value": steps, "method": "sampled-fit"}]
    rows = _rows(scenario, x0, res.controls, res.horizon_k)
    return result, constants, rows


def _task_witness(scenario):
    cert = negative_bound(scenario.system, scenario.sched, _need(scenario, "epsilon0"))
    eta = np.asarray(cert.eta)
    result = {
        "case": cert.case,
        "rho": [float(np.real(cert.rho)), float(np.imag(cert.rho))],
        "threshold_ell": cert.threshold_ell,
        "epsilon0": cert.epsilon0,
        "eta_real": [float(v) for v in np.real(eta)],
        "eta_imag": [float(v) for v in np.imag(eta)],
    }
    constants = [{"name": "threshold_ell", "value": cert.threshold_ell, "method": "certified"}]
    return result, constants, None


def _task_simulate(scenario):
    x0 = _initial_state(scenario)
    k = _need(scenario, "horizon")
    controls = ControlSequence(impulses=scenario.controls, constrained=False)
    rows = _rows(scenario, x0, controls, k)
    result = {
        "horizon_k": k,
        "final_state_norm": rows[-1][3],
        "impulse_count": len(controls),
        "max_control_norm": controls.max_norm(),
    }
    return result, [], rows


_STEERING_LINE = "horizon_k={horizon_k} residual={residual:.6e} certificate={certificate}"

# each task's handler and its summary line, a format string of the result
_TASKS = {
    "check": (
        _task_check,
        "rank_ok={rank_ok} kalman_ok={kalman_ok} spectral={spectral} dissipative={dissipative}",
    ),
    "observability": (_task_observability, "rank_ok={rank_ok} k_star={k_star}"),
    "synthesize-gcac": (_task_gcac, _STEERING_LINE),
    "synthesize-null": (_task_null, _STEERING_LINE),
    "synthesize-local": (_task_local, _STEERING_LINE),
    "witness": (_task_witness, "case={case} threshold_ell={threshold_ell!r}"),
    "simulate": (_task_simulate, "horizon_k={horizon_k} final_norm={final_state_norm:.6e}"),
}
TASKS = tuple(_TASKS)

# the exit-code policy: each library failure a run reports, subclasses
# before their bases, with its error code and exit code; a ScenarioError
# is an input error and propagates, as does any exception not listed
_FAILURES = (
    (InapplicableCertificateError, "witness-inapplicable", 1),
    (RankDeficiencyError, "rank-deficient", 1),
    (HorizonExhaustedError, "horizon-exhausted", 2),
    (NonFiniteStateError, "non-finite-state", 1),
    (ValueError, "precondition-failed", 1),
    (RuntimeError, "synthesis-failed", 2),
)


# ---------------------------------------------------------------------------
# run and entry point


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_report(out_dir, report):
    try:
        with open(out_dir / REPORT_NAME, "w") as fh:
            json.dump(report, fh, indent=2, default=_json_default)
            fh.write("\n")
    except OSError as err:
        raise ScenarioError("io-error", f"{out_dir / REPORT_NAME}: {err}") from None


def _write_trajectory(out_dir, rows, modes):
    header = ["j", "t_j"] + [f"mode_{i}" for i in range(1, modes + 1)] + [
        "state_norm",
        "control_norm",
    ]
    try:
        with open(out_dir / TRAJECTORY_NAME, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for j, t, mode_norms, state_norm, u_norm in rows:
                writer.writerow(
                    [str(j), repr(float(t))]
                    + [repr(float(v)) for v in mode_norms]
                    + [repr(float(state_norm)), repr(float(u_norm))]
                )
    except OSError as err:
        raise ScenarioError("io-error", f"{out_dir / TRAJECTORY_NAME}: {err}") from None


def _out_dir(scenario, out_dir):
    return Path(out_dir) if out_dir is not None else Path(scenario.parameters.get("out", "."))


def run(scenario, out_dir=None):
    """Execute a scenario's task and write its artifacts.

    Returns ``(exit_code, report)``.  The report always embeds the
    resolved scenario, schedule, truncation order, and seed; successful
    runs add the task result and the list of constants, each labeled
    certified or sampled-fit.  Library failures listed in `_FAILURES` are
    recorded in the report under "error" with that table's code and exit
    code; any other exception propagates.
    """
    if scenario.task is None:
        raise ScenarioError("invariant-violation", "task: required (give it on the command line)")
    out = _out_dir(scenario, out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ScenarioError("io-error", f"{out}: {err}") from None
    report = {
        "tool": "impulse-gcac",
        "task": scenario.task,
        "modes": scenario.system.domain.modes,
        "seed": scenario.parameters.get("seed"),
        "schedule": list(scenario.sched.base_times),
        "scenario": scenario.document,
    }
    code = 0
    rows = None
    try:
        result, constants, rows = _TASKS[scenario.task][0](scenario)
        report["result"] = result
        report["constants"] = constants
        # a returned failed-* certificate is an honest synthesis failure
        if str(result.get("certificate", "")).startswith("failed"):
            code = 2
    except ScenarioError:
        raise
    except tuple(kind for kind, _, _ in _FAILURES) as err:
        name, code = next((n, c) for kind, n, c in _FAILURES if isinstance(err, kind))
        report["error"] = {"code": name, "message": str(err)}
    if rows is not None:
        _write_trajectory(out, rows, scenario.system.domain.modes)
        report["files"] = {"trajectory": TRAJECTORY_NAME}
    _write_report(out, report)
    return code, report


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for honest synthesis failures; usage problems are
    # input errors and exit 1 like every other rejected input
    def error(self, message):
        self.print_usage(sys.stderr)
        print(json.dumps({"error": {"code": "usage-error", "message": message}}), file=sys.stderr)
        raise SystemExit(1)


def main(argv=None):
    """Entry point: parse arguments, load the scenario, run the task."""
    parser = _Parser(
        prog="impulse-gcac",
        description=(
            "Synthesize and verify unit-ball impulse controls for coupled "
            "heat equations on a spectral truncation."
        ),
    )
    parser.add_argument("task", choices=TASKS, help="what to do with the scenario")
    parser.add_argument("--scenario", required=True, metavar="PATH", help="scenario JSON file")
    parser.add_argument("--out", default=None, metavar="DIR", help="output directory (default .)")
    parser.add_argument("--seed", type=int, default=None, metavar="U64", help="override the seed")
    parser.add_argument("--modes", type=int, default=None, metavar="N", help="override the truncation order")
    parser.add_argument("--k-max", dest="k_max", type=int, default=None, metavar="K", help="override the horizon cap")
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(
            args.scenario, task=args.task, seed=args.seed, modes=args.modes, k_max=args.k_max
        )
        code, report = run(scenario, out_dir=args.out)
    except ScenarioError as err:
        print(json.dumps({"error": {"code": err.code, "message": str(err)}}), file=sys.stderr)
        return 1
    if "error" in report:
        print(json.dumps({"error": report["error"]}), file=sys.stderr)
    else:
        body = _TASKS[scenario.task][1].format(**report["result"])
        print(f"{scenario.task}: {body} (report: {_out_dir(scenario, args.out) / REPORT_NAME})")
    return code


if __name__ == "__main__":
    sys.exit(main())
