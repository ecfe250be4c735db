"""Scenario loading, overrides, and the CLI subcommands."""

import csv
import re
import time
from pathlib import Path

import pytest
import yaml

import edgescale.scenario as scenario_mod
from edgescale.cli import main
from edgescale.errors import ConfigError
from scenario_builders import REPO_ROOT

MINI = """
horizon_seconds: 40
seed: 3
cluster:
  nodes:
    - {vcpu: 4.0, memory_mb: 8192}
controller:
  epoch_seconds: 10
functions:
  - id: f1
    size: {vcpu: 1.0, memory_mb: 512}
    slo: {deadline: 0.1, percentile: 0.95}
    service: {distribution: exponential, rate: 10.0}
    workload: {mode: static, rate: 5.0}
    initial_containers: 2
"""


@pytest.fixture
def mini_scenario(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(MINI)
    return path


class TestScenarioLoading:
    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no-such"):
            scenario_mod.load(tmp_path / "no-such.yaml")

    def test_missing_field_names_it(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("horizon_seconds: 10\ncluster: {nodes: [{vcpu: 1, memory_mb: 1}]}\n")
        with pytest.raises(ConfigError, match="functions"):
            scenario_mod.load(p)

    @pytest.mark.parametrize("path", [
        *sorted((REPO_ROOT / "perfbench" / "scenarios").glob("*.yaml")), None,
    ], ids=lambda path: "MINI" if path is None else path.stem)
    def test_libyaml_parse_equals_pure_python(self, path):
        text = MINI if path is None else path.read_text()
        if yaml.__with_libyaml__:
            assert scenario_mod.LOADER is yaml.CSafeLoader
        assert yaml.load(text, Loader=scenario_mod.LOADER) == yaml.load(
            text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize("text", ["functions: [a, b", "a: b: c", "key: [1, 2]]"])
    def test_malformed_yaml_names_the_file(self, tmp_path, text):
        p = tmp_path / "broken.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{p}: invalid YAML")):
            scenario_mod.load(p)

    def test_bad_reclamation_mode(self, mini_scenario):
        with pytest.raises(ConfigError, match="reclamation"):
            scenario_mod.load(mini_scenario, overrides=["controller.reclamation=nuke"])

    @pytest.mark.parametrize("value", ['"false"', "0", "1", "yes-please", "null"])
    def test_inflation_must_be_yaml_boolean(self, mini_scenario, value):
        with pytest.raises(ConfigError, match="controller.inflation"):
            scenario_mod.load(mini_scenario, overrides=[f"controller.inflation={value}"])

    @pytest.mark.parametrize("value, enabled", [("false", False), ("true", True)])
    def test_inflation_yaml_boolean_accepted(self, mini_scenario, value, enabled):
        scn = scenario_mod.load(mini_scenario, overrides=[f"controller.inflation={value}"])
        assert scn.controller.inflation_enabled is enabled

    @pytest.mark.parametrize("overrides, field", [
        (["estimator.tick=0"], "estimator.tick"),
        (["estimator.tick=-5"], "estimator.tick"),
        (["estimator.tick=.inf"], "estimator.tick"),
        (["estimator.tick=.nan"], "estimator.tick"),
        (["estimator.alpha=x"], "estimator.alpha"),
        (["estimator.window=3"], "estimator.window"),
        (["users=[{weight: 2}]"], r"users\[0\]"),
        (["users=[{id: u1, weight: 0}]", "functions.f1.user=u1"], "users.u1.weight"),
        (["functions.f1.weight=0"], "functions.f1.weight"),
        (["functions.f1.workload.rate=.inf"], "functions.f1.workload.rate"),
        (["functions.f1.workload.rate=.nan"], "functions.f1.workload.rate"),
    ])
    def test_bad_input_names_field(self, mini_scenario, overrides, field):
        with pytest.raises(ConfigError, match=field):
            scenario_mod.load(mini_scenario, overrides=overrides)

    @pytest.mark.parametrize("overrides, field", [
        # sections and list entries that are not mappings
        (["cluster=5"], "cluster"),
        (["cluster.nodes=[7]"], "cluster.nodes[0]"),
        (["controller=[]"], "controller"),
        (["estimator=5"], "estimator"),
        (["users=[null]"], "users[0]"),
        (["functions=[null]"], "functions[0]"),
        (["functions.f1.size=1"], "functions.f1.size"),
        (["functions.f1.slo=1"], "functions.f1.slo"),
        (["functions.f1.service=1"], "functions.f1.service"),
        (["functions.f1.workload=1"], "functions.f1.workload"),
        # estimator ranges
        (["estimator.alpha=5"], "estimator.alpha"),
        (["estimator.burst_factor=1"], "estimator.burst_factor"),
        (["estimator.short_window=200"], "estimator.short_window"),
        # numbers inside workload lists, and the integer fields
        (["functions.f1.workload={mode: discrete, schedule: [[0, .inf]]}"],
         "functions.f1.workload.schedule[0]"),
        (["functions.f1.workload={mode: continuous, points: [[0, .nan]]}"],
         "functions.f1.workload.points[0]"),
        (["functions.f1.workload={mode: discrete, schedule: [[0]]}"],
         "functions.f1.workload.schedule[0]"),
        (["functions.f1.workload={mode: discrete, schedule: [[0, x]]}"],
         "functions.f1.workload.schedule[0]"),
        (["functions.f1.min_containers=x"], "functions.f1.min_containers"),
        (["seed=x"], "seed"),
        # booleans are not numbers, and container counts stop at the planner's cap
        (["functions.f1.workload.rate=true"], "functions.f1.workload.rate"),
        (["functions.f1.min_containers=100000"], "functions.f1.min_containers"),
        (["functions.f1.initial_containers=100000"], "functions.f1.initial_containers"),
        (["horizon_seconds=1e400"], "horizon_seconds"),
        (["functions.f1.slo.deadline=" + "9" * 400], "functions.f1.slo.deadline"),
    ])
    def test_malformed_input_names_path(self, overrides, field):
        doc = yaml.safe_load(MINI)
        for item in overrides:
            doc = scenario_mod.apply_override(doc, item)
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
            scenario_mod.from_dict(doc)

    def test_override_matches_file_edit(self, mini_scenario, tmp_path):
        by_override = scenario_mod.load(
            mini_scenario, overrides=["functions.f1.workload.rate=9"]
        )
        doc = yaml.safe_load(MINI)
        doc["functions"][0]["workload"]["rate"] = 9
        edited = tmp_path / "edited.yaml"
        edited.write_text(yaml.safe_dump(doc))
        by_edit = scenario_mod.load(edited)
        assert (
            by_override.workloads["f1"].rate_schedule
            == by_edit.workloads["f1"].rate_schedule
        )

    def test_override_edits_the_document_in_place(self):
        doc = yaml.safe_load(MINI)
        assert scenario_mod.apply_override(doc, "functions.f1.workload.rate=9") is doc
        assert doc["functions"][0]["workload"]["rate"] == 9

    def test_number_written_as_a_string_loads(self, mini_scenario):
        # YAML 1.1 reads 1e1 (no dot) as a string; float() has always taken it
        scn = scenario_mod.load(mini_scenario, overrides=["functions.f1.workload.rate=1e1"])
        assert scn.workloads["f1"].rate_schedule == ((0.0, 10.0),)

    def test_hierarchical_weights_resolved(self, tmp_path):
        doc = yaml.safe_load(MINI)
        doc["users"] = [{"id": "u1", "weight": 1.0}, {"id": "u2", "weight": 2.0}]
        doc["functions"][0]["user"] = "u1"
        doc["functions"].append(
            {
                "id": "f2",
                "user": "u2",
                "size": {"vcpu": 1.0, "memory_mb": 512},
                "slo": {"deadline": 0.1},
                "service": {"distribution": "exponential", "rate": 10.0},
                "workload": {"mode": "static", "rate": 5.0},
            }
        )
        p = tmp_path / "two.yaml"
        p.write_text(yaml.safe_dump(doc))
        scn = scenario_mod.load(p)
        assert scn.functions["f2"].weight == pytest.approx(2 * scn.functions["f1"].weight)


class TestRunCommand:
    def test_writes_three_files(self, mini_scenario, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", str(mini_scenario), "--out", str(out)])
        assert rc == 0
        for name in ("requests.csv", "epochs.csv", "summary.txt"):
            assert (out / name).exists()
        with open(out / "requests.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) >= {"function_id", "arrival_s", "wait_s", "status"}

    def test_missing_scenario_reports_path(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "nope.yaml" in capsys.readouterr().err

    def test_reclamation_override_reflected_in_epochs(self, tmp_path):
        # a two-function overload where deflation leaves fractional capacity
        doc = {
            "horizon_seconds": 60,
            "seed": 5,
            "cluster": {"nodes": [{"vcpu": 4.0, "memory_mb": 8192}] * 2},
            "controller": {"epoch_seconds": 10, "reclamation": "deflation"},
            "functions": [
                {
                    "id": "big",
                    "size": {"vcpu": 2.0, "memory_mb": 512},
                    "slo": {"deadline": 0.1, "percentile": 0.95},
                    "service": {"distribution": "exponential", "rate": 5.0},
                    "workload": {"mode": "static", "rate": 25.0},
                    "initial_containers": 3,
                },
                {
                    "id": "small",
                    "size": {"vcpu": 0.5, "memory_mb": 256},
                    "slo": {"deadline": 0.1, "percentile": 0.95},
                    "service": {"distribution": "exponential", "rate": 10.0},
                    "workload": {"mode": "static", "rate": 20.0},
                    "initial_containers": 2,
                },
            ],
        }
        p = tmp_path / "overload.yaml"
        p.write_text(yaml.safe_dump(doc))
        out = tmp_path / "defl"
        assert main(["run", str(p), "--out", str(out)]) == 0
        with open(out / "epochs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert any(int(r["deflates"]) > 0 for r in rows)

    @pytest.mark.parametrize("override, field", [
        ("controller.epoch_seconds=-5", "controller.epoch_seconds"),
        ("controller.tau=5", "controller.tau"),
        ("controller.deflation_step=0", "controller.deflation_step"),
        ("functions.f1.size.vcpu=0", "functions.f1.size.vcpu"),
        ("functions.f1.timeout_seconds=-1", "functions.f1.timeout_seconds"),
        ("functions.f1.initial_containers=-1", "functions.f1.initial_containers"),
        ("functions.f1.workload={mode: discrete, schedule: [[-50, 10]]}",
         "functions.f1.workload.schedule[0]"),
        ("functions.f1.memory=3", "functions.f1.memory"),
        ("functions.f1.slo.percentile=1.5", "functions.f1.slo.percentile"),
        ("functions.f1.slo.deadline=0", "functions.f1.slo.deadline"),
        ("functions.f1.service.rate=0", "functions.f1.service.rate"),
        ("functions.f1.service.distribution=foo", "functions.f1.service.distribution"),
        ("functions.f1.initial_containers=[2.0]", "functions.f1.initial_containers[0]"),
        ("functions.f1.workload={mode: discrete, schedule: []}",
         "functions.f1.workload.schedule"),
        ("functions.f1.workload={mode: discrete, schedule: [[0, 5], [0, 6]]}",
         "functions.f1.workload"),
        ("functions.f1.initial_containers=9", "functions.f1.initial_containers"),
        ("functions.f1.service.samples=5", "functions.f1.service.samples"),
        ("functions.f1.initial_containers=x", "functions.f1.initial_containers"),
        ("functions.f1.id=[1]", "functions[0].id"),
        ("functions.f1.workload.rate=1.0e+9", "functions.f1.workload"),
        ("horizon_seconds=1.0e+9", "functions.f1.workload"),
    ])
    def test_bad_field_exits_1_naming_its_path(self, mini_scenario, tmp_path, capsys,
                                               override, field):
        rc = main(["run", str(mini_scenario), "--out", str(tmp_path / "o"),
                   "--override", override])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("overrides, field, named", [
        (["horizon_seconds=1.0e+9", "functions.f1.workload.rate=0"], "estimator.tick",
         "horizon_seconds"),
        (["estimator.tick=1e-6"], "estimator.tick", "estimator.tick"),
        (["controller.epoch_seconds=1e-6"], "controller.epoch_seconds",
         "controller.epoch_seconds"),
    ])
    def test_event_count_bound_exits_1_at_load(self, mini_scenario, tmp_path, capsys,
                                               overrides, field, named):
        argv = ["run", str(mini_scenario), "--out", str(tmp_path / "o")]
        for override in overrides:
            argv += ["--override", override]
        start = time.monotonic()
        rc = main(argv)
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith(f"error: {field}: ") and named in err

    def test_arrival_bound_names_the_largest_workload(self):
        doc = yaml.safe_load(MINI)
        doc["functions"].append(dict(doc["functions"][0], id="f2",
                                     workload={"mode": "static", "rate": 1e5}))
        doc["horizon_seconds"] = 1000
        with pytest.raises(ConfigError, match=r"^functions\.f2\.workload: "):
            scenario_mod.from_dict(doc)

    def test_node_count_bound(self):
        doc = yaml.safe_load(MINI)
        doc["cluster"]["nodes"] *= scenario_mod.MAX_NODES
        assert len(scenario_mod.from_dict(doc).nodes) == scenario_mod.MAX_NODES
        doc["cluster"]["nodes"].append(doc["cluster"]["nodes"][0])
        with pytest.raises(ConfigError, match=r"^cluster\.nodes: "):
            scenario_mod.from_dict(doc)

    @pytest.mark.parametrize("value", ["-1", "x", "1.5"])
    def test_bad_seed_is_a_usage_error(self, mini_scenario, tmp_path, capsys, value):
        # -1 once passed argparse and ended in a numpy traceback
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(mini_scenario), "--out", str(tmp_path / "o"), "--seed", value])
        assert exit_info.value.code == 2
        assert "argument --seed: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_equals_seed_override(self, mini_scenario, tmp_path):
        flag, override = tmp_path / "flag", tmp_path / "override"
        assert main(["run", str(mini_scenario), "--out", str(flag), "--seed", "7"]) == 0
        assert main(["run", str(mini_scenario), "--out", str(override),
                     "--override", "seed=7"]) == 0
        assert (flag / "requests.csv").read_bytes() == (override / "requests.csv").read_bytes()

    def test_reproducible_byte_identical(self, mini_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(mini_scenario), "--out", str(out1)])
        main(["run", str(mini_scenario), "--out", str(out2)])
        for name in ("requests.csv", "epochs.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestValidateCommand:
    def test_stable_inputs_pass(self, capsys):
        rc = main([
            "validate", "--arrival-rate", "5", "--service-rate", "10",
            "--deadline", "0.2", "--requests", "40000", "--replications", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0 and "PASS" in out

    def test_heterogeneous_pool(self, capsys):
        rc = main([
            "validate", "--arrival-rate", "18", "--service-rate", "10",
            "--rates", "7,7,7", "--deadline", "0.1", "--requests", "40000",
            "--replications", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0 and "PASS" in out

    @pytest.mark.parametrize("flag, value", [
        ("--rates", ","), ("--rates", "a"), ("--rates", "7,nan"), ("--replications", "0"),
        ("--arrival-rate", "nan"), ("--arrival-rate", "inf"), ("--arrival-rate", "0"),
        ("--service-rate", "inf"), ("--deadline", "inf"), ("--deadline", "nan"),
        ("--seed", "-1"), ("--requests", "0"),
    ])
    def test_bad_flag_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "--arrival-rate", "5", "--service-rate", "10", flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("requests, samples", [
        ("1050", "50 samples"), ("150", "0 samples"), ("99", "at least 100 requests"),
    ])
    def test_too_few_requests_names_the_flag(self, capsys, requests, samples):
        # 1,050 requests once gave 50 samples for 100 batch means: nan and FAIL
        rc = main(["validate", "--arrival-rate", "5", "--service-rate", "1",
                   "--replications", "1", "--requests", requests])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: --requests: ")
        assert samples in captured.err

    def test_unstable_reports_cleanly(self, capsys):
        rc = main([
            "validate", "--arrival-rate", "1000", "--service-rate", "10",
            "--deadline", "0.0", "--requests", "40000",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestReplayCommand:
    def test_replay_fixture(self, tmp_path, repo_root):
        out = tmp_path / "rep"
        rc = main([
            "replay", str(repo_root / "traces" / "six_function_hour.csv"),
            "--out", str(out), "--horizon", "120", "--nodes", "6",
            "--node-vcpu", "8",
        ])
        assert rc == 0
        assert (out / "summary.txt").exists()

    def test_bad_seed_is_a_usage_error(self, tmp_path, repo_root, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", str(repo_root / "traces" / "six_function_hour.csv"),
                  "--out", str(tmp_path / "rep"), "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "argument --seed: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--nodes", "0"), ("--nodes", "1.5"), ("--node-vcpu", "nan"), ("--node-vcpu", "0"),
        ("--node-memory-mb", "-1"), ("--vcpu", "inf"), ("--memory-mb", "x"),
        ("--service-rate", "0"), ("--deadline", "0"), ("--percentile", "nan"),
    ])
    def test_bad_flag_is_a_usage_error(self, tmp_path, repo_root, capsys, flag, value):
        # these once passed argparse and failed at load, naming a scenario path
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", str(repo_root / "traces" / "six_function_hour.csv"),
                  "--out", str(tmp_path / "rep"), flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_percentile_range_is_checked_at_load(self, tmp_path, repo_root, capsys):
        rc = main(["replay", str(repo_root / "traces" / "six_function_hour.csv"),
                   "--out", str(tmp_path / "rep"), "--percentile", "1.5"])
        assert rc == 1
        assert re.match(r"error: functions\.\w+\.slo\.percentile: ", capsys.readouterr().err)

    def test_node_count_over_the_limit_names_the_flag(self, tmp_path, repo_root, capsys):
        rc = main(["replay", str(repo_root / "traces" / "six_function_hour.csv"),
                   "--out", str(tmp_path / "rep"), "--nodes", str(scenario_mod.MAX_NODES + 1)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --nodes: ")
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("horizon", ["0", "-60"])
    def test_bad_horizon_names_horizon_seconds(self, tmp_path, repo_root, capsys, horizon):
        # 0 once fell back to the trace's full length
        rc = main(["replay", str(repo_root / "traces" / "six_function_hour.csv"),
                   "--out", str(tmp_path / "rep"), "--horizon", horizon])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: horizon_seconds: ")
        assert not (tmp_path / "rep").exists()

    def test_trace_file_parsed_once_per_load(self, repo_root, monkeypatch):
        calls = []
        real = scenario_mod.load_trace

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(scenario_mod, "load_trace", counting)
        scn = scenario_mod.load(repo_root / "perfbench" / "scenarios" / "trace_headroom.yaml")
        assert len(scn.workloads) == 6 and len(calls) == 1


class TestSweepCommand:
    def test_grid_produces_subdirs(self, mini_scenario, tmp_path):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", str(mini_scenario), "--out", str(out),
            "--set", "controller.reclamation=termination,deflation",
        ])
        assert rc == 0
        assert (out / "reclamation-termination" / "summary.txt").exists()
        assert (out / "reclamation-deflation" / "summary.txt").exists()
