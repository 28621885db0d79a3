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
from impulse_gcac.cli import (
    Scenario,
    ScenarioError,
    bundled_scenario,
    load_scenario,
    main,
    run,
)
from impulse_gcac.schedule import time_at
from impulse_gcac.spectral import l2_norm, zero_state
from impulse_gcac.synthesis import ControlSequence, simulate


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
