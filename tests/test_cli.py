"""Scenario loading, task dispatch, artifacts, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import impulse_gcac
from impulse_gcac import cli
from impulse_gcac.cli import (
    Scenario,
    ScenarioError,
    bundled_scenario,
    load_scenario,
    main,
    run,
)
from impulse_gcac.observability import RankDeficiencyError
from impulse_gcac.schedule import time_at
from impulse_gcac.spectral import NonFiniteStateError, l2_norm, zero_state
from impulse_gcac.synthesis import ControlSequence, HorizonExhaustedError, simulate
from impulse_gcac.witness import InapplicableCertificateError


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def full_support_doc(modes=8, coupling=None, **parameters):
    if coupling is None:
        coupling = [[1.0, 0.0], [0.0, 1.0]]
    return {
        "system": {
            "modes": modes,
            "coupling": coupling,
            "controllers": [
                {
                    "gain": [[1.0, 0.0], [0.0, 1.0]],
                    "support": [0.0, math.pi],
                }
            ],
        },
        "schedule": {"base_times": [1.0]},
        "initial_state": {"random_norm": 2.0},
        "parameters": {"eps": 0.05, "k_max": 32, "seed": 5, **parameters},
    }


# ---------------------------------------------------------------------------
# load_scenario


def test_bundled_scenario_is_the_invariant_component_system():
    scenario = load_scenario(bundled_scenario("appendix_c.json"))
    system, sched = scenario.system, scenario.sched
    assert system.n == 2 and system.m == 1 and system.hbar == 1
    assert system.domain.modes == 32
    assert system.first_eigenvalue == 1.0
    assert np.array_equal(system.coupling, np.eye(2))
    assert np.array_equal(system.gain(1), np.array([[0.0], [1.0]]))
    assert sched.base_times == (1.0,)
    for j in (1, 4, 17):
        assert time_at(sched, j) == float(j)
    assert scenario.initial == {"entries": [[1, 1, 0.5]]}
    assert scenario.parameters["eps"] == 0.25


def test_omitted_support_defaults_to_the_full_interval(tmp_path):
    doc = full_support_doc()
    del doc["system"]["controllers"][0]["support"]
    scenario = load_scenario(write_scenario(tmp_path, doc))
    assert scenario.system.controllers[0].support == (0.0, math.pi)
    resolved = scenario.document["system"]["controllers"][0]["support"]
    assert resolved == [0.0, math.pi]


def test_truncation_order_above_the_cap_is_rejected_before_allocation(tmp_path, capsys):
    path = write_scenario(tmp_path, full_support_doc())
    code = main(["check", "--scenario", str(path), "--modes", "1000000", "--out", str(tmp_path)])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "invariant-violation"
    assert error["message"].startswith("system.modes: must be at most 4096")
    assert not (tmp_path / "report.json").exists()


def test_missing_gain_is_a_dimension_mismatch(tmp_path):
    doc = full_support_doc()
    del doc["system"]["controllers"][0]["gain"]
    with pytest.raises(ScenarioError, match="gain") as info:
        load_scenario(write_scenario(tmp_path, doc))
    assert info.value.code == "dimension-mismatch"


def test_ragged_coupling_is_a_dimension_mismatch(tmp_path):
    doc = full_support_doc(coupling=[[1.0, 0.0], [0.0]])
    with pytest.raises(ScenarioError, match="equal length") as info:
        load_scenario(write_scenario(tmp_path, doc))
    assert info.value.code == "dimension-mismatch"


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"system": {,}')
    with pytest.raises(ScenarioError, match=r":1:13:") as info:
        load_scenario(path)
    assert info.value.code == "parse-error"


def test_unknown_parameter_key_is_rejected(tmp_path):
    doc = full_support_doc()
    doc["parameters"]["epsilonn"] = 1.0
    with pytest.raises(ScenarioError, match="epsilonn") as info:
        load_scenario(write_scenario(tmp_path, doc))
    assert info.value.code == "invariant-violation"


def test_cycle_length_mismatch_is_an_invariant_violation(tmp_path):
    doc = full_support_doc()
    doc["system"]["controllers"].append(doc["system"]["controllers"][0])
    with pytest.raises(ScenarioError, match="base_times") as info:
        load_scenario(write_scenario(tmp_path, doc))
    assert info.value.code == "invariant-violation"


def test_sampled_initial_state_requires_a_seed(tmp_path):
    doc = full_support_doc()
    del doc["parameters"]["seed"]
    with pytest.raises(ScenarioError, match="seed") as info:
        load_scenario(write_scenario(tmp_path, doc))
    assert info.value.code == "invariant-violation"


def test_auto_schedule_is_resolved_to_explicit_times(tmp_path):
    doc = full_support_doc()
    doc["schedule"] = "auto"
    scenario = load_scenario(write_scenario(tmp_path, doc))
    assert scenario.sched.base_times == (1.0,)
    assert scenario.document["schedule"] == {"base_times": [1.0]}


def test_overrides_are_applied_and_echoed(tmp_path):
    path = write_scenario(tmp_path, full_support_doc())
    scenario = load_scenario(path, task="simulate", seed=9, modes=4, k_max=7)
    assert scenario.task == "simulate"
    assert scenario.system.domain.modes == 4
    assert scenario.parameters["seed"] == 9
    assert scenario.parameters["k_max"] == 7
    assert scenario.document["system"]["modes"] == 4
    assert scenario.document["parameters"]["seed"] == 9


# ---------------------------------------------------------------------------
# run: reports, trajectories, exit codes


def test_check_task_on_the_bundled_scenario(tmp_path):
    code = main(
        ["check", "--scenario", str(bundled_scenario("appendix_c.json")), "--out", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"] == {
        "rank_ok": False,
        "k_star": None,
        "kalman_ok": False,
        "spectral": "boundary",
        "dissipative": True,
        "omega_full": False,
    }


def test_report_embeds_schedule_modes_and_seed(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, full_support_doc()), task="check")
    code, report = run(scenario, out_dir=tmp_path)
    assert code == 0
    assert report["schedule"] == [1.0]
    assert report["modes"] == 8
    assert report["seed"] == 5
    assert report["scenario"]["schedule"]["base_times"] == [1.0]


def test_gcac_trajectory_ends_inside_the_target_ball(tmp_path):
    path = write_scenario(tmp_path, full_support_doc())
    code = main(["synthesize-gcac", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[:2] == ["j", "t_j"]
    assert header[2:10] == [f"mode_{i}" for i in range(1, 9)]
    assert header[-2:] == ["state_norm", "control_norm"]
    final = rows[-1].split(",")
    assert float(final[-2]) <= 0.05
    assert all(float(r.split(",")[-1]) <= 1.0 + 1e-12 for r in rows[1:])


def test_rerunning_an_emitted_report_is_bit_identical(tmp_path):
    path = write_scenario(tmp_path, full_support_doc())
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["synthesize-gcac", "--scenario", str(path), "--out", str(first)]) == 0
    assert (
        main(["synthesize-gcac", "--scenario", str(first / "report.json"), "--out", str(second)])
        == 0
    )
    assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()
    a = json.loads((first / "report.json").read_text())
    b = json.loads((second / "report.json").read_text())
    assert a["result"] == b["result"]


def rotation_doc():
    """Full-support rotation coupling on a short period: every synthesis exits 0."""
    doc = full_support_doc(coupling=[[0.0, 0.3], [-0.3, 0.0]], eps=0.05, k_max=64)
    doc["schedule"] = {"base_times": [0.3]}
    return doc


RERUN_DOCS = {
    "check": full_support_doc,
    "observability": lambda: full_support_doc(delta=0.5),
    "synthesize-null": rotation_doc,
    "synthesize-local": rotation_doc,
    # a growth coupling, which the negative certificate needs
    "witness": lambda: full_support_doc(coupling=[[1.5, 0.0], [0.0, 0.0]], epsilon0=1.0),
    "simulate": lambda: {
        **full_support_doc(modes=3, horizon=2),
        "controls": [[[0.2, 0.0, 0.1], [0.0, -0.3, 0.0]]],
    },
}


@pytest.mark.parametrize("task", sorted(RERUN_DOCS))
def test_rerunning_any_task_from_its_report_is_bit_identical(tmp_path, task):
    # synthesize-gcac is covered by the test above
    path = write_scenario(tmp_path, RERUN_DOCS[task]())
    first, second = tmp_path / "a", tmp_path / "b"
    assert main([task, "--scenario", str(path), "--out", str(first)]) == 0
    assert main([task, "--scenario", str(first / "report.json"), "--out", str(second)]) == 0
    a = json.loads((first / "report.json").read_text())
    b = json.loads((second / "report.json").read_text())
    assert a["result"] == b["result"]
    assert ("files" in a) == (task in ("synthesize-null", "synthesize-local", "simulate"))
    if "files" in a:
        assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()


def test_simulate_with_embedded_controls_matches_the_library(tmp_path):
    doc = full_support_doc(modes=3)
    doc["initial_state"] = {"entries": [[1, 1, 1.0], [2, 2, -0.5]]}
    doc["controls"] = [[[0.2, 0.0, 0.1], [0.0, -0.3, 0.0]]]
    doc["parameters"] = {"horizon": 2}
    scenario = load_scenario(write_scenario(tmp_path, doc), task="simulate")
    code, report = run(scenario, out_dir=tmp_path)
    assert code == 0

    x0 = zero_state(scenario.system)
    x0[0, 0] = 1.0
    x0[1, 1] = -0.5
    controls = ControlSequence(impulses=(np.array(doc["controls"][0]),), constrained=False)
    expected = simulate(scenario.system, scenario.sched, x0, controls, 2)
    assert report["result"]["final_state_norm"] == l2_norm(expected)
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[-2]) == l2_norm(expected)


def test_simulate_writes_the_control_sequence_norms_bitwise(tmp_path):
    # impulses on which np.linalg.norm and the sequence's own rule differ
    # in the last bit: the CSV carries the rule of max_norm and l2_total
    impulses = np.random.default_rng(3).standard_normal((6, 2, 8))
    controls = ControlSequence(impulses=tuple(impulses), constrained=False)
    assert [float(np.linalg.norm(u)) for u in impulses] != list(controls.norms())
    doc = full_support_doc(modes=8)
    doc["controls"] = impulses.tolist()
    doc["parameters"] = {"horizon": 6, "seed": 5}
    path = write_scenario(tmp_path, doc)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    written = [float(row.split(",")[-1]) for row in rows]
    assert written == [0.0] + [float(v) for v in controls.norms()]


def test_witness_on_subcritical_coupling_exits_one(tmp_path):
    code = main(
        ["witness", "--scenario", str(bundled_scenario("appendix_c.json")), "--out", str(tmp_path)]
    )
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error"]["code"] == "witness-inapplicable"


def test_witness_on_supercritical_coupling_reports_the_threshold(tmp_path):
    doc = full_support_doc(coupling=[[1.5, 0.0], [0.0, 0.0]])
    doc["parameters"]["epsilon0"] = 1.0
    path = write_scenario(tmp_path, doc)
    code = main(["witness", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["case"] == "real-eigenvector"
    assert report["result"]["threshold_ell"] == 3.0
    assert report["constants"] == [
        {"name": "threshold_ell", "value": 3.0, "method": "certified"}
    ]


def test_null_synthesis_on_rank_deficient_system_exits_one(tmp_path):
    # full support but a gain that never reaches the first component
    doc = full_support_doc()
    doc["system"]["controllers"][0]["gain"] = [[0.0], [1.0]]
    doc["initial_state"] = {"entries": [[2, 1, 1.0]]}
    path = write_scenario(tmp_path, doc)
    code = main(["synthesize-null", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error"]["code"] == "rank-deficient"


def test_exhausted_synthesis_exits_two(tmp_path):
    doc = {
        "system": {
            "modes": 6,
            "coupling": [[0.0, -0.4], [0.4, 0.0]],
            "controllers": [{"gain": [[1.0], [0.0]], "support": [0.0, math.pi]}],
        },
        "schedule": {"base_times": [1.0]},
        "initial_state": {"random_norm": 1.0},
        "parameters": {"eps": 1e-10, "k_max": 2, "seed": 3},
    }
    path = write_scenario(tmp_path, doc)
    code = main(["synthesize-local", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["certificate"] == "failed-horizon-exhausted"
    assert report["result"]["residual"] > 1e-10


def test_gcac_beyond_k_max_exits_two(tmp_path):
    # zero coupling and eps 1e-12 need more than four impulses of decay
    doc = full_support_doc(coupling=[[0.0, 0.0], [0.0, 0.0]], eps=1e-12, k_max=4)
    path = write_scenario(tmp_path, doc)
    code = main(["synthesize-gcac", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error"]["code"] == "horizon-exhausted"
    assert not (tmp_path / "trajectory.csv").exists()


def test_null_synthesis_with_a_singular_gramian_exits_two(tmp_path):
    # the normalized rank search finds k_star = 2, but the raw stack there
    # has sigma_n / sigma_1 near 2e-14, so the observability constant is inf
    doc = full_support_doc(coupling=[[-40.37, -0.157], [1.263, -38.70]], k_max=64)
    doc["system"]["controllers"][0]["gain"] = [[-0.458], [0.220]]
    doc["schedule"] = {"base_times": [0.704]}
    doc["initial_state"] = {"entries": [[1, 1, 3.0], [2, 2, 1.0]]}
    path = write_scenario(tmp_path, doc)
    code = main(["synthesize-null", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error"]["code"] == "synthesis-failed"
    assert "k_star = 2" in report["error"]["message"]
    assert "singular" in report["error"]["message"]


def test_simulate_overflow_exits_one_with_non_finite_state(tmp_path):
    doc = full_support_doc(coupling=[[3.0, 0.0], [0.0, 0.0]], horizon=400)
    path = write_scenario(tmp_path, doc)
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error"]["code"] == "non-finite-state"


def test_gcac_on_a_local_support_is_a_failed_precondition(tmp_path):
    doc = full_support_doc()
    doc["system"]["controllers"][0]["support"] = [0.0, 1.0]
    path = write_scenario(tmp_path, doc)
    code = main(["synthesize-gcac", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error"]["code"] == "precondition-failed"


def test_output_path_naming_a_file_is_an_io_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    scenario = str(bundled_scenario("appendix_c.json"))
    assert main(["check", "--scenario", scenario, "--out", str(taken)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "io-error"


def test_summary_line_names_the_report_it_wrote(tmp_path, capsys):
    # parameters.out places the report, and --out overrides it
    named, given = tmp_path / "named", tmp_path / "given"
    path = write_scenario(tmp_path, full_support_doc(out=str(named)))
    for argv, where in (([], named), (["--out", str(given)], given)):
        assert main(["check", "--scenario", str(path), *argv]) == 0
        line = capsys.readouterr().out.strip()
        assert line.endswith(f"(report: {where / 'report.json'})")
        assert (where / "report.json").is_file()
        (where / "report.json").unlink()
    assert not (named / "report.json").exists()


def _failing_check(monkeypatch, err):
    def verdict(*args, **kwargs):
        raise err

    monkeypatch.setattr(cli, "hypothesis_verdict", verdict)
    return load_scenario(bundled_scenario("appendix_c.json"), task="check")


@pytest.mark.parametrize(
    "err, name, exit_code",
    [
        (RankDeficiencyError("no rank", witness=None), "rank-deficient", 1),
        (InapplicableCertificateError("no witness"), "witness-inapplicable", 1),
        (HorizonExhaustedError("no horizon"), "horizon-exhausted", 2),
        (NonFiniteStateError("overflow"), "non-finite-state", 1),
        (ValueError("bad input"), "precondition-failed", 1),
        (RuntimeError("no solution"), "synthesis-failed", 2),
    ],
)
def test_each_library_failure_gets_its_own_code(tmp_path, monkeypatch, err, name, exit_code):
    # a subclass's code wins over the code of its ValueError or RuntimeError base
    code, report = run(_failing_check(monkeypatch, err), out_dir=tmp_path)
    assert code == exit_code
    assert report["error"] == {"code": name, "message": str(err)}


@pytest.mark.parametrize(
    "err", [ZeroDivisionError("unlisted"), ScenarioError("invariant-violation", "input")]
)
def test_unlisted_failures_propagate_from_run(tmp_path, monkeypatch, err):
    with pytest.raises(type(err)):
        run(_failing_check(monkeypatch, err), out_dir=tmp_path)
    assert not (tmp_path / "report.json").exists()


def test_running_the_cli_module_prints_no_runtime_warning(tmp_path):
    src = str(Path(impulse_gcac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scenario = str(bundled_scenario("appendix_c.json"))
    proc = subprocess.run(
        [sys.executable, "-m", "impulse_gcac.cli", "check", "--scenario", scenario,
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_check_on_a_stiff_coupling_finds_k_star_without_warnings(tmp_path):
    doc = full_support_doc(coupling=[[-40.0, 0.0], [0.0, 0.5]], k_max=64)
    doc["system"]["controllers"][0]["gain"] = [[1.0], [1.0]]
    path = write_scenario(tmp_path, doc)
    src = str(Path(impulse_gcac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "impulse_gcac.cli", "check", "--scenario", str(path),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    result = json.loads((tmp_path / "report.json").read_text())["result"]
    assert result["rank_ok"] and result["k_star"] == 2


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test-only dependency: every CLI run would pay for its import
    src = str(Path(impulse_gcac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import impulse_gcac.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("task", ["synthesize-gcac", "synthesize-null", "synthesize-local"])
def test_last_trajectory_row_is_the_residual_bitwise(tmp_path, task):
    doc = full_support_doc(coupling=[[0.0, 0.3], [-0.3, 0.0]], eps=0.05, k_max=64)
    doc["schedule"] = {"base_times": [0.3]}
    path = write_scenario(tmp_path, doc)
    assert main([task, "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(rows) == report["result"]["horizon_k"] + 2
    assert float(rows[-1].split(",")[-2]) == report["result"]["residual"]


def test_local_synthesis_reports_the_winning_iteration_per_horizon(tmp_path):
    doc = full_support_doc(coupling=[[0.0, 0.3], [-0.3, 0.0]], eps=0.05, k_max=64)
    path = write_scenario(tmp_path, doc)
    assert main(["synthesize-local", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "report.json").read_text())["result"]
    winners = result["best_iteration_by_horizon"]
    assert winners.keys() == result["residual_by_horizon"].keys()
    assert all(0 <= i <= result["iterations"] for i in winners.values())


def test_local_synthesis_reports_each_horizon_and_the_bracket(tmp_path):
    # one single-input actuator: horizon 2 is proven infeasible
    doc = full_support_doc(coupling=[[0.0, 0.3], [-0.3, 0.0]], eps=0.05, k_max=64)
    doc["system"]["controllers"] = [{"gain": [[1.0], [0.0]], "support": [0.0, math.pi / 2.0]}]
    doc["initial_state"] = {"random_norm": 8.0}
    path = write_scenario(tmp_path, doc)
    assert main(["synthesize-local", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    result = report["result"]
    tried = list(result["residual_by_horizon"])
    steps = {c["name"]: c for c in report["constants"]}["pgd_step_sizes"]
    assert steps["method"] == "sampled-fit"
    assert list(steps["value"]) == tried
    assert all(step > 0.0 for step in steps["value"].values() if step is not None)
    for key in ("verdict_by_horizon", "bound_by_horizon", "steps_by_horizon"):
        assert list(result[key]) == tried
    assert result["verdict_by_horizon"]["2"] == "infeasible"
    assert result["verdict_by_horizon"][tried[-1]] == "reached"
    assert result["bound_by_horizon"]["2"] > result["eps"]
    lower, upper = result["bracket"]
    assert 2 <= lower < upper == result["horizon_k"] == int(tried[-1])


def test_observability_task_labels_constants(tmp_path):
    doc = full_support_doc()
    doc["parameters"]["delta"] = 0.5
    path = write_scenario(tmp_path, doc)
    code = main(["observability", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    methods = {c["name"]: c["method"] for c in report["constants"]}
    assert methods["observability_constant"] == "certified"
    assert methods["delta_constant"] == "sampled-fit"
    assert report["result"]["rank_ok"] is True and report["result"]["k_star"] == 1


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["not-a-task", "--scenario", "x.json"])
    assert info.value.code == 1
    assert "usage-error" in capsys.readouterr().err


def test_missing_scenario_file_exits_one(tmp_path, capsys):
    code = main(["check", "--scenario", str(tmp_path / "absent.json")])
    assert code == 1
    assert "parse-error" in capsys.readouterr().err


def test_every_traced_benchmark_name_is_a_package_callable():
    # a traced benchmark run reports one per-layer metric for each traced
    # name the package defines, so a dropped name silently drops its metric
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in tracing.TRACED:
        home = importlib.import_module(f"impulse_gcac.{module}")
        assert callable(getattr(home, name, None)), f"impulse_gcac.{module}.{name}"
