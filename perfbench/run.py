"""Benchmark of impulse_gcac: four closed-loop workloads, checked results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload steer-full --seed 1 --seconds 20 --trace 0

--workload is one of steer-full, steer-local, certify, cli, or all (each
workload in turn, one at a time).  Each workload runs in a fresh worker
process (worker.py); set-up is measured in SETUP_REPEATS fresh processes
and reported as the median.  With --trace 0 the run reports the end-to-end
metrics, with --trace 1 the per-layer metrics from traced passes.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it report every metric by
name and unit, the sample counts, the failures by scenario and the
provenance.  The full result, including provenance, is written to
perfbench/results/.

`correct` is false when a result fails the independent checker in a way
that is not one of the package's known defects (checker.KNOWN_DEFECTS);
known defects are counted in `failed`.  `attempted` and `failed` count
scenarios of the list, each executed on every pass of the run; a scenario
fails when any of its executions fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("steer-full", "steer-local", "certify", "cli")
SETUP_REPEATS = 3
WORKER_TIMEOUT = 150

# name -> unit; the metrics of the final line (BENCHMARK.json lists the same)
END_TO_END = {
    "throughput_sps": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
P90_MIN_SAMPLES = 100

# the metrics of the final line with --trace 1 (BENCHMARK.json lists the same)
PER_LAYER = (
    "linalg.mat_exp.calls", "linalg.mat_exp.self_s", "linalg.mat_exp.distinct_ratio",
    "linalg.numerical_rank.calls", "linalg.numerical_rank.self_s",
    "linalg.min_norm_solve.calls", "linalg.min_norm_solve.self_s",
    "spectral.overlap_matrix.calls", "spectral.overlap_matrix.self_s",
    "spectral.apply_semigroup.calls", "spectral.apply_semigroup.self_s",
    "spectral.apply_adjoint_semigroup.calls", "spectral.apply_adjoint_semigroup.self_s",
    "spectral.apply_impulse.calls", "spectral.apply_impulse.self_s",
    "schedule.time_at.calls",
    "observability.rank_condition.calls", "observability.rank_condition.self_s",
    "observability.finite_obs_constant.self_s", "observability.delta_obs_constant.self_s",
    "observability.hypothesis_verdict.self_s", "observability.semigroup_norm.calls",
    "synthesis.simulate.calls", "synthesis.simulate.self_s",
    "synthesis.steer_first_mode.self_s", "synthesis.decay_horizon.self_s",
    "synthesis.null_steer.self_s", "synthesis.gcac_synthesize.self_s",
    "synthesis.constrained_null_synthesize.self_s", "synthesis.local_gcac_synthesize.self_s",
    "synthesis.local_gcac_synthesize.pgd_iters",
    "synthesis.local_gcac_synthesize.horizons_tried",
    "witness.reachability_gap.self_s", "witness.negative_bound.self_s",
    "cli.import_s", "cli.load_scenario.self_s", "cli.run.self_s",
)


def worker_env():
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread: the matrices are small and the machine is shared
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_worker(workload, seed, seconds, trace, setup_only, results):
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-setup" if setup_only else "")
    out = results / f"{tag}.worker.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
        "--workdir", str(results / "work" / f"{workload}-seed{seed}"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # own session, so a timeout also ends the command line runs it started
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker for {workload} timed out after {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0:
        sys.stderr.write(stdout + stderr)
        raise SystemExit(f"worker for {workload} failed with exit code {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def run_workload(workload, seed, seconds, trace, results):
    # set-up is only reported by the untraced run
    repeats = 1 if trace else SETUP_REPEATS
    setups = [run_worker(workload, seed, seconds, trace, True, results)["setup"]
              for _ in range(repeats - 1)]
    result = run_worker(workload, seed, seconds, trace, False, results)
    setups.append(result["setup"])
    result["setup_samples"] = setups
    setup_s = statistics.median(s["setup_s"] for s in setups)

    report = {}
    if trace:
        metrics = result["per_layer"]
    else:
        pairs = result["latencies_s"]
        lat = [dt for _, dt in pairs]
        per_scenario = {}
        for idx, dt in pairs:
            per_scenario.setdefault(idx, []).append(dt)
        # one pass of the list with every scenario at its median latency:
        # robust to the seconds-long slow phases of a shared machine
        pass_s = sum(statistics.median(v) for v in per_scenario.values())
        metrics = {
            "throughput_sps": {"value": len(per_scenario) / pass_s, "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        if len(lat) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
            report["latency_p90_ms"] = {"value": 1e3 * p90, "unit": "ms"}
        report["latency_samples"] = {"value": len(lat), "unit": "count"}
    report["failed_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
    report.update(result["quality"])
    if trace:
        report["trace_overhead"] = {"value": result["trace"]["overhead"], "unit": "ratio"}
    result["metrics"] = metrics
    result["report"] = report
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    return result


def print_report(result):
    w = result["workload"]
    print(f"== {w}: {result['scenarios']} scenarios, {result['attempted']} attempted, "
          f"{result['failed']} failed, {result['executions']} executions")
    for name, m in {**result["metrics"], **result["report"]}.items():
        extra = f"  ({m['samples']} samples)" if "samples" in m else ""
        print(f"{w}  {name:<48} {m['value']:.6g} {m['unit']}{extra}")
    for name in result.get("absent", []):
        print(f"{w}  {name:<48} absent")
    for sid, codes in sorted(result["failures"].items()):
        known = "" if sid not in result["unknown_failures"] else "  UNKNOWN"
        print(f"{w}  failed {sid}: {', '.join(codes)}{known}")
    print(f"{w}  provenance {json.dumps(result['provenance'], sort_keys=True)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (Path.cwd() / "src" / "impulse_gcac" / "__init__.py").is_file():
        sys.stderr.write("run from the root of an impulse_gcac checkout (src/impulse_gcac)\n")
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace, results)
        print_report(result)
        summary["correct"] &= not result["unknown_failures"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        names = PER_LAYER if args.trace else END_TO_END
        for name in names:
            m = result["metrics"].get(name)
            if m is not None:  # a traced name the package dropped is absent
                summary["metrics"][prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
