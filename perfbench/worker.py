"""Run one workload in a fresh interpreter and write its result as JSON.

Started by run.py with the checkout root as working directory and
PYTHONPATH=src.  Phases:

1. set-up (timed, reported as setup_s): interpreter start, `import
   impulse_gcac`, building every scenario of the run, one warm-up scenario;
2. measure: a closed loop with one client that runs whole passes over the
   scenario list, the next scenario only after the previous one returned,
   until the busy time reaches --seconds;
3. with --trace 1 instead: pairs of an untraced and a traced pass over the
   list (build included), whose difference is the tracing overhead, and
   per-layer counts and self times from the traced passes.

Every result is checked by checker.py: the first execution of a scenario
fully, later executions by comparing a digest with the checked one.
`attempted` and `failed` count scenarios, not executions: a scenario
fails when any of its executions fails, so both counts depend on the
seed only and not on how many passes fit into the run.
"""

import time

START = time.monotonic()  # before any other import: part of the interpreter start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

CLI_PROGRAM = "import sys; from impulse_gcac.cli import main; sys.exit(main())"
# Child processes are waited for without a timeout: with one, Popen.wait
# polls in sleeps of up to 50 ms, which would quantize the latencies.  A
# hung child is ended by run.py, which kills the worker's process group.


def _error_record(err):
    return {"status": "error", "error_type": type(err).__name__, "message": str(err)}


def _steering_record(res):
    return {
        "status": "ok",
        "horizon_k": int(res.horizon_k),
        "residual": float(res.residual),
        "certificate": res.certificate,
        "impulses": res.controls.impulses,
        "constrained": bool(res.controls.constrained),
    }


def _digest(value):
    """Stable hash of a nested record (arrays by their bytes)."""
    import numpy as np

    h = hashlib.sha1()

    def feed(v):
        if isinstance(v, dict):
            for key in sorted(v):
                h.update(key.encode())
                feed(v[key])
        elif isinstance(v, (list, tuple)):
            h.update(b"[%d" % len(v))
            for item in v:
                feed(item)
        elif isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


class InProcess:
    """Scenarios run as library calls on objects built from the dicts."""

    def __init__(self, ig, scenarios):
        self.ig = ig
        self.scenarios = scenarios
        self.built = []

    def build(self):
        import numpy as np

        ig = self.ig
        self.built = []
        for scn in self.scenarios:
            s = scn["system"]
            system = ig.CoupledSystem(
                coupling=np.array(s["coupling"]),
                controllers=[
                    ig.Controller(gain=np.array(c["gain"]), support=tuple(c["support"]))
                    for c in s["controllers"]
                ],
                domain=ig.SpectralDomain(length=s["length"], modes=s["modes"]),
            )
            sched = ig.ImpulseSchedule(base_times=tuple(scn["base_times"]))
            self.built.append((system, sched, np.array(scn["x0"])))

    def model(self, i):
        import checker

        scn = self.scenarios[i]
        return checker.Model(scn["system"], scn["base_times"])


class SteerFull(InProcess):
    def execute(self, i):
        system, sched, x0 = self.built[i]
        scn = self.scenarios[i]
        out = []
        for fn, args in (
            (self.ig.gcac_synthesize, (scn["eps"], scn["k_max"])),
            (self.ig.constrained_null_synthesize, (scn["k_max"],)),
        ):
            try:
                out.append(_steering_record(fn(system, sched, x0, *args)))
            except Exception as err:  # every outcome is recorded and checked
                out.append(_error_record(err))
        return out

    def check(self, i, records):
        import checker

        model = self.model(i)
        fails, horizons = [], []
        for rec in records:
            f, horizon = checker.check_steering(self.scenarios[i], model, rec)
            fails += f
            horizons.append(horizon)
        return fails, {"horizons": horizons}


class SteerLocal(InProcess):
    def execute(self, i):
        system, sched, x0 = self.built[i]
        scn = self.scenarios[i]
        try:
            res = self.ig.local_gcac_synthesize(system, sched, x0, scn["eps"], scn["k_max"])
        except Exception as err:
            return [_error_record(err)]
        return [_steering_record(res)]

    check = SteerFull.check


class Certify(InProcess):
    COMPOSE_K = 4

    def execute(self, i):
        ig = self.ig
        system, sched, x0 = self.built[i]
        scn = self.scenarios[i]
        rec = {"status": "ok"}
        try:
            v = ig.hypothesis_verdict(system, sched, scn["k_max"])
            rec["verdict"] = {
                "rank_ok": bool(v.rank_ok),
                "k_star": v.k_star,
                "spectral": v.spectral,
                "omega_full": bool(v.omega_full),
            }
            if v.rank_ok:
                gains = [system.gain(j) for j in range(1, system.hbar + 1)]
                taus = [ig.time_at(sched, j) for j in range(1, v.k_star + 1)]
                rec["finite_obs"] = ig.finite_obs_constant(system.coupling, gains, taus).constant
            if v.rank_ok and scn["delta_obs"]:
                D = ig.delta_obs_constant(system, sched, v.k_star, scn["delta"]).constant
                rec["delta_obs"] = D
                if math.isfinite(D):
                    rec["compose"] = ig.compose_obs(D, scn["delta"], 1, self.COMPOSE_K, system, sched)
                    rec["compose_k"] = self.COMPOSE_K
            if scn["spectral"] == "growth":
                cert = ig.negative_bound(system, sched, scn["epsilon0"])
                rec["negative"] = {"rho_real": cert.rho.real, "threshold": cert.threshold_ell}
            rec["gap"] = ig.reachability_gap(system, sched, x0, scn["gap_k"], scn["grad_iters"])
        except Exception as err:
            return _error_record(err)
        return rec

    def check(self, i, rec):
        import checker

        fails, gap = checker.check_certify(self.scenarios[i], self.model(i), rec)
        return fails, {"gaps": [] if gap is None else [gap]}


class Cli:
    """Sequential subprocess runs of the command line, one per case."""

    def __init__(self, scenarios, workdir, env):
        self.scenarios = scenarios
        self.env = env
        self.paths = []
        self.outs = []
        for case in scenarios:
            path = workdir / f"{case['id']}.json"
            path.write_text(json.dumps(case["doc"]))
            self.paths.append(path)
            self.outs.append(workdir / case["id"])

    def build(self):
        from impulse_gcac.cli import ScenarioError, load_scenario

        for path in self.paths:
            try:
                load_scenario(path)
            except ScenarioError:
                pass  # the input-error case is rejected here, as on the command line

    def argv(self, i):
        case = self.scenarios[i]
        return [case["task"], "--scenario", str(self.paths[i]), "--out", str(self.outs[i])]

    def _clear(self, i):
        for name in ("report.json", "trajectory.csv"):
            (self.outs[i] / name).unlink(missing_ok=True)

    def execute(self, i):
        self._clear(i)
        proc = subprocess.run(
            [sys.executable, "-c", CLI_PROGRAM, *self.argv(i)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return self._outcome(i, proc.returncode)

    def execute_in_process(self, i):
        from impulse_gcac import cli

        self._clear(i)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(self.argv(i))
        return self._outcome(i, code)

    def _outcome(self, i, code):
        files = {}
        for name in ("report.json", "trajectory.csv"):
            path = self.outs[i] / name
            if path.is_file():
                files[name] = path.read_bytes()
        return {"code": code, "files": files}

    def check(self, i, outcome):
        import checker

        fails = checker.check_cli(self.scenarios[i], outcome["code"], self.outs[i])
        return fails, {}


class Judge:
    """Checks first executions fully and later ones by digest."""

    def __init__(self, runner):
        self.runner = runner
        self.seen = {}
        self.executions = 0
        self.failures = {}

    def __call__(self, i, outcome):
        digest = _digest(outcome)
        if i not in self.seen:
            fails, quality = self.runner.check(i, outcome)
            self.seen[i] = (digest, fails, quality)
        else:
            first, fails, _ = self.seen[i]
            if digest != first:
                fails = fails + [("nondeterministic", "result differs from its first run")]
        self.executions += 1
        if fails:
            sid = self.runner.scenarios[i]["id"]
            self.failures[sid] = sorted(set(self.failures.get(sid, [])) | {c for c, _ in fails})

    @property
    def attempted(self):
        return len(self.seen)

    @property
    def failed(self):
        return len(self.failures)

    def unknown_failures(self):
        import checker

        return {
            sid: codes
            for sid, codes in self.failures.items()
            if not set(codes) <= checker.KNOWN_DEFECTS
        }

    def quality(self):
        horizons = [h for _, _, q in self.seen.values() for h in q.get("horizons", [])]
        gaps = [g for _, _, q in self.seen.values() for g in q.get("gaps", [])]
        out = {}
        if horizons:
            out["horizon_mean"] = {"value": statistics.fmean(horizons), "unit": "impulses",
                                   "samples": len(horizons)}
        if gaps:
            out["gap_rel_mean"] = {"value": statistics.fmean(gaps), "unit": "ratio",
                                   "samples": len(gaps)}
        return out


def provenance(seed):
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    head = Path(".git/HEAD")
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = Path(".git") / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
    }


def measure(runner, judge, seconds):
    """Closed loop, one client, whole passes over the scenario list.

    Runs passes until the busy time reaches `seconds`, so every scenario
    runs equally often and the latency mix is the same in every run.
    Returns (scenario index, latency) pairs.
    """
    latencies = []
    busy = 0.0
    i = 0
    count = len(runner.scenarios)
    while busy < seconds or i % count:
        idx = i % count
        t0 = time.perf_counter()
        outcome = runner.execute(idx)
        dt = time.perf_counter() - t0
        latencies.append((idx, dt))
        busy += dt
        judge(idx, outcome)
        i += 1
    return latencies


def traced_passes(runner, judge, seconds, execute, tracer):
    """Pairs of untraced and traced passes (build included).

    Counts and the mat_exp distinct ratio come from the first traced pass,
    self times are averaged over all traced passes.
    """
    busy = {False: 0.0, True: 0.0}
    first = None
    pairs = 0
    while pairs == 0 or busy[False] + busy[True] < seconds:
        for traced in (False, True):
            tracer.enabled = traced
            tracer.recording = traced and pairs == 0
            t0 = time.perf_counter()
            runner.build()
            busy[traced] += time.perf_counter() - t0
            for idx in range(len(runner.scenarios)):
                t0 = time.perf_counter()
                outcome = execute(idx)
                busy[traced] += time.perf_counter() - t0
                judge(idx, outcome)  # the checker never calls the package
            tracer.enabled = tracer.recording = False
            if traced and pairs == 0:
                first = {
                    "calls": dict(tracer.calls),
                    "mat_exp_distinct": tracer.mat_exp_distinct,
                    "local": dict(tracer.local_details),
                }
        pairs += 1
    return first, pairs, busy


def fresh_import_seconds(module, env, repeats=3):
    """Median wall time of `python -c "import <module>"` in a new process."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(tracer, first, pairs, import_s):
    import tracing

    calls = first["calls"]
    metrics = {}
    for module_name, attr in tracing.TRACED:
        name = f"{module_name}.{attr}"
        if name in tracer.absent:
            continue
        metrics[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": tracer.self_s.get(name, 0.0) / pairs, "unit": "s"}
    n_exp = calls.get("linalg.mat_exp", 0)
    if "linalg.mat_exp" not in tracer.absent:
        metrics["linalg.mat_exp.distinct_ratio"] = {
            "value": first["mat_exp_distinct"] / n_exp if n_exp else 0.0, "unit": "ratio"}
    if "synthesis.local_gcac_synthesize" not in tracer.absent:
        for key in ("pgd_iters", "horizons_tried"):
            metrics[f"synthesis.local_gcac_synthesize.{key}"] = {
                "value": first["local"][key], "unit": "count"}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    interp_s = max(0.0, START - args.spawned_at)

    t0 = time.perf_counter()
    import impulse_gcac as ig
    import impulse_gcac.cli  # noqa: F401  (part of the package's import cost)

    import_s = time.perf_counter() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(ig.__file__).resolve().parents:
        raise SystemExit(f"impulse_gcac imported from {ig.__file__}, not from {src}")

    import scenarios
    import tracing

    scns = scenarios.generate(args.workload, args.seed)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    if args.workload == "cli":
        runner = Cli(scns, workdir, env)
    else:
        runner = {"steer-full": SteerFull, "steer-local": SteerLocal, "certify": Certify}[
            args.workload](ig, scns)

    t0 = time.perf_counter()
    runner.build()
    build_s = time.perf_counter() - t0
    # the warm-up runs the first cell, wherever the seed put it in the list
    warm = min(range(len(scns)), key=lambda i: scns[i]["id"])
    t0 = time.perf_counter()
    runner.execute(warm)
    warmup_s = time.perf_counter() - t0
    setup = {"interpreter_s": interp_s, "import_s": import_s, "build_s": build_s,
             "warmup_s": warmup_s}
    setup["setup_s"] = sum(setup.values())
    result = {"workload": args.workload, "setup": setup, "provenance": provenance(args.seed),
              "scenarios": len(scns)}

    if not args.setup_only:
        judge = Judge(runner)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            execute = runner.execute_in_process if isinstance(runner, Cli) else runner.execute
            first, pairs, busy = traced_passes(runner, judge, args.seconds, execute, tracer)
            tracer.uninstall()
            spans = Path(args.out).with_name(f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
            tracer.write_spans(spans)
            import_cli = fresh_import_seconds("impulse_gcac.cli", env)
            result["per_layer"] = per_layer(tracer, first, pairs, import_cli)
            result["absent"] = tracer.absent
            result["trace"] = {"pairs": pairs, "untraced_busy_s": busy[False],
                               "traced_busy_s": busy[True],
                               "overhead": busy[True] / busy[False] - 1.0,
                               "spans_file": str(spans), "spans": len(tracer.spans)}
        else:
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            result["latencies_s"] = measure(runner, judge, args.seconds)
            result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
        result["executions"] = judge.executions
        result["attempted"] = judge.attempted
        result["failed"] = judge.failed
        result["failures"] = judge.failures
        result["unknown_failures"] = judge.unknown_failures()
        result["quality"] = judge.quality()
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
