"""Scenario loading, overrides, and the CLI subcommands."""

import csv
import re
import time

import pytest
import yaml

import edgescale.scenario as scenario_mod
from edgescale import oracle
from edgescale.cli import main
from edgescale.errors import ConfigError
from scenario_builders import REPO_ROOT, time_limit

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


# two functions on one 8-vCPU node; `hot` needs over 10,000 containers
HOT_AND_COOL = """
horizon_seconds: 20
seed: 1
cluster:
  nodes:
    - {vcpu: 8.0, memory_mb: 16384}
functions:
  - id: hot
    size: {vcpu: 1.0, memory_mb: 256}
    slo: {deadline: 0.1, percentile: 0.95}
    service: {distribution: exponential, rate: 1}
    workload: {mode: static, rate: 20000}
  - id: cool
    size: {vcpu: 1.0, memory_mb: 256}
    slo: {deadline: 0.1, percentile: 0.95}
    service: {distribution: exponential, rate: 10}
    workload: {mode: static, rate: 2}
"""


def read_epochs(out_dir) -> list:
    with open(out_dir / "epochs.csv", newline="") as fh:
        return list(csv.DictReader(fh))


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

    @pytest.mark.parametrize("content, reason", [
        ("functions: [a, b", "invalid YAML"),
        ("a: b: c", "invalid YAML"),
        ("key: [1, 2]]", "invalid YAML"),
        (b"seed: \xff\n", "not UTF-8 text"),
        (None, "Is a directory"),
    ], ids=["functions: [a, b", "a: b: c", "key: [1, 2]]", "not-utf8", "directory"])
    def test_malformed_yaml_names_the_file(self, tmp_path, content, reason):
        p = tmp_path / "broken.yaml"
        if content is None:
            p.mkdir()
        elif isinstance(content, bytes):
            p.write_bytes(content)
        else:
            p.write_text(content)
        with pytest.raises(ConfigError, match=re.escape(f"{p}: {reason}")):
            scenario_mod.load(p)

    @pytest.mark.parametrize("override, field", [
        ("functions.f1.workload={mode: trace, file: data.csv, function: f1}",
         "functions.f1.workload.file"),
        ("functions.f1.service.profile_file=data.csv", "functions.f1.service.profile_file"),
    ], ids=["trace", "profile"])
    def test_file_that_is_not_utf8_names_field_and_path(self, mini_scenario, override, field):
        data = mini_scenario.parent / "data.csv"
        data.write_bytes(b"f\xe9,0,1\n")
        with pytest.raises(ConfigError, match=re.escape(f"{field}: {data}: not UTF-8 text")):
            scenario_mod.load(mini_scenario, overrides=[override])

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
        (["seed=[1"], "override 'seed': invalid YAML value"),
        (["functions.f1.slo={deadline: 0.1"], "override 'functions.f1.slo': invalid YAML value"),
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
            scenario_mod.from_dict(doc, base_dir=REPO_ROOT)

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
         "functions.f1.workload.schedule[1]"),
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
            scenario_mod.from_dict(doc, base_dir=REPO_ROOT)

    def test_node_count_bound(self):
        doc = yaml.safe_load(MINI)
        doc["cluster"]["nodes"] *= scenario_mod.MAX_NODES
        scn = scenario_mod.from_dict(doc, base_dir=REPO_ROOT)
        assert len(scn.nodes) == scenario_mod.MAX_NODES
        doc["cluster"]["nodes"].append(doc["cluster"]["nodes"][0])
        with pytest.raises(ConfigError, match=r"^cluster\.nodes: "):
            scenario_mod.from_dict(doc, base_dir=REPO_ROOT)

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
        ("--rates", ","), ("--rates", "a"), ("--rates", "7,nan"), ("--rates", "0,5"),
        ("--rates", "-1"), ("--replications", "0"),
        ("--arrival-rate", "nan"), ("--arrival-rate", "inf"), ("--arrival-rate", "0"),
        ("--service-rate", "inf"), ("--deadline", "inf"), ("--deadline", "nan"),
        ("--deadline", "0"), ("--percentile", "1.5"), ("--seed", "-1"), ("--requests", "0"),
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

    @pytest.mark.parametrize("flag, value, total", [
        ("--requests", "1000000000000", "1,000,000,000,000 requests x 3 replications"),
        ("--replications", "1000000000", "120,000 requests x 1,000,000,000 replications"),
    ])
    def test_oracle_work_over_the_cap_names_the_flag(self, capsys, flag, value, total):
        # uncapped, the first ends in a numpy allocation error, the second runs for hours
        rc = main(["validate", "--arrival-rate", "5", "--service-rate", "10", flag, value])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == (f"error: --requests: {total}, "
                                f"over the {oracle.MAX_REQUESTS:,}-request limit\n")

    def test_help_states_the_request_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        assert f"{oracle.MAX_REQUESTS:,}" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("service_rate", ["1e-30", "1e-300"])
    def test_a_stability_floor_past_the_cap_is_one_error(self, capsys, service_rate):
        # the planner's stability floor once looped for good on these rates
        rc = main(["validate", "--arrival-rate", "2", "--service-rate", service_rate,
                   "--requests", "200"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_every_sample_meeting_the_deadline_keeps_an_uncertainty(self, capsys):
        # every oracle sample waits 0 s; the spread was once floored to 0,
        # which printed +-3se 0.00000
        main(["validate", "--arrival-rate", "45", "--service-rate", "1",
              "--requests", "1100", "--replications", "5"])
        header, row = capsys.readouterr().out.splitlines()
        oracle_p, three_se = row.split()[-3:-1]
        assert header.split()[-2] == "+-3se" and oracle_p == "1.00000"
        assert float(three_se) > 0


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

    def test_seed_and_reclamation_default_to_the_scenario_defaults(self, tmp_path, repo_root):
        fields = scenario_mod.FIELDS
        runs = {
            "default": [],
            "explicit": ["--seed", str(fields["scenario"]["seed"][1]),
                         "--reclamation", fields["controller"]["reclamation"][1]],
            "other": ["--seed", "1", "--reclamation", "termination"],
        }
        for name, flags in runs.items():
            assert main(["replay", str(repo_root / "traces" / "six_function_hour.csv"),
                         "--out", str(tmp_path / name), "--horizon", "120", *flags]) == 0
        files = {name: [(tmp_path / name / f).read_bytes() for f in ("requests.csv", "epochs.csv")]
                 for name in runs}
        assert files["default"] == files["explicit"] != files["other"]

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
        ("--percentile", "1.5"), ("--percentile", "0"), ("--horizon", "-5"), ("--horizon", "0"),
        ("--horizon", "nan"), ("--horizon", "inf"),
    ])
    def test_bad_flag_is_a_usage_error(self, tmp_path, repo_root, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", str(repo_root / "traces" / "six_function_hour.csv"),
                  "--out", str(tmp_path / "rep"), flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("make, reason", [
        (lambda p: None, "No such file or directory"),
        (lambda p: p.mkdir(), "Is a directory"),
        (lambda p: p.write_bytes(b"function_id,minute_index,count\nf\xff,0,3\n"),
         "not UTF-8 text"),
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_trace_names_the_file(self, tmp_path, capsys, make, reason):
        trace = tmp_path / "trace.csv"
        make(trace)
        rc = main(["replay", str(trace), "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {trace}: {reason}")
        assert not (tmp_path / "rep").exists()

    def test_node_count_over_the_limit_names_the_flag(self, tmp_path, repo_root, capsys):
        rc = main(["replay", str(repo_root / "traces" / "six_function_hour.csv"),
                   "--out", str(tmp_path / "rep"), "--nodes", str(scenario_mod.MAX_NODES + 1)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --nodes: ")
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

    def test_set_without_equals_is_a_usage_error(self, mini_scenario, tmp_path, capsys):
        rc = main(["sweep", str(mini_scenario), "--out", str(tmp_path / "sweep"),
                   "--set", "controller.reclamation"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --set must look like key=v1,v2 (got 'controller.reclamation')\n")
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("key, value", [
        ("functions.f1.user", "a/../../escaped"),  # no `users`, so any user string loads
        ("functions.f1.user", "/tmp"),
        ("controller.tau/x", "1"),
    ])
    def test_run_directory_outside_out_is_a_usage_error(self, mini_scenario, tmp_path,
                                                        monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        rc = main(["sweep", str(mini_scenario), "--out", "sweep",
                   "--set", "controller.reclamation=termination,deflation",
                   "--set", f"{key}={value}"])
        assert rc == 2
        part = f"{key.split('.')[-1]}-{value}"
        assert capsys.readouterr().err == (
            f"error: --set {key}={value}: the run directory name {part!r} holds a path "
            "separator\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.yaml"]


TRACE_FIELD = "functions.f1.workload.file"
TRACE_OVERRIDE = "functions.f1.workload={mode: trace, file: data.csv, function: f1}"
MINUTES = scenario_mod.MAX_TRACE_MINUTES
PROFILE_FIELD = "functions.f1.service.profile_file"


def beside(scenario, text, name="data.csv"):
    """Write `text` to the file `name` next to `scenario`; return its path."""
    path = scenario.parent / name
    path.write_text(text)
    return path


class TestDataFileErrors:
    """A bad trace or profile file is named once: `<field>: <path>: line N: ...`."""

    def test_malformed_trace_row_through_replay(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("function_id,minute_index,count\nf1,0\n")
        rc = main(["replay", str(trace), "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {trace}: line 2: expected 3 columns, got 2\n"
        assert not (tmp_path / "rep").exists()

    def test_trace_with_no_rows_through_replay(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("function_id,minute_index,count\n")
        rc = main(["replay", str(trace), "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {trace}: trace file has no rows\n"
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("text, reason", [
        ("f1,0,3\nf1,1\n", "line 2: expected 3 columns, got 2"),
        ("f1,0,3\n ,1,3\n", "line 2: empty function_id"),
        ("f1,0,3\nf1,-1,3\n", "line 2: negative minute_index -1"),
        ("f1,0,3\nf1,1,x\n", "line 2: bad integer field"),
        # blank lines are skipped, and still counted
        ("f1,0,3\n\n   \nf1,1\n", "line 4: expected 3 columns, got 2"),
        # so are `#`-led rows, whatever their width
        ("# note\nf1,0,3\n#f1,1,2\nf1,1\n", "line 4: expected 3 columns, got 2"),
        # a header is read only on line 1
        ("f1,0,3\nfunction_id,minute_index,count\n", "line 2: bad integer field"),
        (f"f1,0,3\nf1,{MINUTES},1\n",
         f"line 2: minute_index {MINUTES} over the {MINUTES:,} limit"),
    ], ids=["columns", "empty-function-id", "negative-minute", "not-an-integer", "blank-lines",
            "comments", "late-header", "minute-limit"])
    def test_malformed_trace_row_through_a_scenario(self, mini_scenario, text, reason):
        data = beside(mini_scenario, text)
        with pytest.raises(ConfigError, match="^" + re.escape(f"{TRACE_FIELD}: {data}: {reason}")):
            scenario_mod.load(mini_scenario, overrides=[TRACE_OVERRIDE])

    def test_trace_function_missing_from_its_file(self, mini_scenario):
        data = beside(mini_scenario, "f1,0,3\n")
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"functions.f1.workload.function: 'zz' not in trace {data}")):
            scenario_mod.load(mini_scenario, overrides=[
                "functions.f1.workload={mode: trace, file: data.csv, function: zz}"])

    @pytest.mark.parametrize("text, reason", [
        ("1.0,0.1\n0.5,0.2,9\n", "line 2: expected 2 columns, got 3"),
        ("1.0,0.1\n0.5,x\n", "line 2: bad number"),
        # a whitespace-only row is skipped, and still counted
        ("1.0,0.1\n   \n0.5,x\n", "line 3: bad number"),
        # a header is read only on line 1
        ("1.0,0.1\ncpu_fraction,mean_service_s\n", "line 2: bad number"),
        ("1.0,0.1\n1.5,0.2\n", "line 2: cpu_fraction 1.5 outside (0, 1]"),
        ("1.0,0.1\n0.5,0\n", "line 2: service time must be > 0 and finite, got 0.0"),
        # a NaN time once made a NaN multiplier, an infinite one a zero multiplier
        ("1.0,0.1\n0.5,nan\n", "line 2: service time must be > 0 and finite, got nan"),
        ("1.0,0.1\n0.5,inf\n", "line 2: service time must be > 0 and finite, got inf"),
        ("cpu_fraction,mean_service_s\n# no rows\n", "no data rows"),
        ("0.5,0.2\n", "missing the cpu_fraction=1.0 row"),
    ], ids=["columns", "not-a-number", "blank-line", "late-header", "fraction-range",
            "service-time", "nan-service-time", "infinite-service-time", "no-rows",
            "no-full-size-row"])
    def test_malformed_profile_file(self, mini_scenario, text, reason):
        data = beside(mini_scenario, text)
        with pytest.raises(ConfigError,
                           match="^" + re.escape(f"{PROFILE_FIELD}: {data}: {reason}")):
            scenario_mod.load(mini_scenario, overrides=[f"{PROFILE_FIELD}=data.csv"])

    def test_profile_header_and_comments_are_skipped(self, mini_scenario):
        beside(mini_scenario, "cpu_fraction,mean_service_s\n# measured\n1.0,0.1\n0.5,0.2\n")
        scn = scenario_mod.load(mini_scenario, overrides=[f"{PROFILE_FIELD}=data.csv"])
        assert scn.functions["f1"].profile.curve == ((0.5, 0.5), (1.0, 1.0))

    @pytest.mark.parametrize("text, reason", [
        ("1.0,0.1\n1.0,0.2\n", "line 2: repeated cpu_fraction 1.0"),
        # faster with less CPU: the multiplier at 0.5 would be 2
        ("1.0,0.1\n0.5,0.05\n", "service time rises from cpu_fraction 0.5 to 1.0"),
        # both rows count as the full-size row: the multiplier at 1.0 would be 2
        ("0.9999999999,0.2\n1.0,0.1\n0.5,0.3\n", "multiplier 2 at full size, not 1.0: the "
         "rows within 1e-9 of cpu_fraction 1.0 differ in service time"),
    ], ids=["repeated-fraction", "rising-service-time", "two-full-size-rows"])
    def test_profile_curve_rejected_names_the_file(self, mini_scenario, text, reason):
        data = beside(mini_scenario, text)
        with pytest.raises(ConfigError,
                           match="^" + re.escape(f"{PROFILE_FIELD}: {data}: {reason}") + "$"):
            scenario_mod.load(mini_scenario, overrides=[f"{PROFILE_FIELD}=data.csv"])


class TestScenarioInputErrors:
    @pytest.mark.parametrize("override, message", [
        ("functions.f1.service.distribution=empirical",
         "error: functions.f1.service.samples: must not be empty for an empirical "
         "distribution"),
        ("functions.f1.workload={mode: continuous, points: [[10, 1], [0, 2]]}",
         "error: functions.f1.workload.points[1]: time must be > 10.0, the time before it, "
         "got 0.0"),
        ("seed", "error: override must look like key=value, got 'seed'"),
        ("functions.zz.weight=2", "error: override 'functions.zz.weight': no list item 'zz'"),
        ("functions.f1=3", "error: override 'functions.f1': cannot replace a whole list item"),
    ], ids=["empirical-no-samples", "points-out-of-order", "no-equals", "no-list-item",
            "whole-list-item"])
    def test_exits_1_naming_the_field(self, mini_scenario, tmp_path, capsys, override, message):
        rc = main(["run", str(mini_scenario), "--out", str(tmp_path / "o"),
                   "--override", override])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "o").exists()

    def test_a_pool_past_the_cap_runs_flagged(self, mini_scenario, tmp_path, capsys):
        # the first epoch's stability floor once looped for good here, and
        # then ended the run in an error: no pool within the cap is stable
        rc = main(["run", str(mini_scenario), "--out", str(tmp_path / "o"),
                   "--override", "functions.f1.service.rate=1e-300"])
        assert rc == 0 and capsys.readouterr().err == ""
        epochs = read_epochs(tmp_path / "o")
        assert [r["time_s"] for r in epochs] == ["10.000", "20.000", "30.000", "40.000"]
        assert all(r["infeasible"] == "1" for r in epochs)

    def test_an_overloaded_function_past_the_cap_does_not_end_the_run(self, tmp_path, capsys):
        # one function needs more than DEFAULT_CONTAINER_CAP containers to be
        # stable; it holds its fair share and its neighbour keeps its pool
        path = tmp_path / "hot.yaml"
        path.write_text(HOT_AND_COOL)
        rc = main(["run", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0 and capsys.readouterr().err == ""
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "epochs.csv", "requests.csv", "summary.txt"]
        epochs = read_epochs(tmp_path / "o")
        assert sorted({r["time_s"] for r in epochs}) == ["10.000", "20.000"]
        for r in epochs:
            assert r["infeasible"] == ("1" if r["function_id"] == "hot" else "0")
            if r["function_id"] == "cool":
                assert r["target_vcpu"] == r["demand_vcpu"]

    def test_override_through_a_scalar_names_the_key(self, mini_scenario, tmp_path, capsys):
        rc = main(["run", str(mini_scenario), "--out", str(tmp_path / "o"),
                   "--override", "seed.x=1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: override 'seed.x': 'seed' is not a mapping\n"
        scalar = beside(mini_scenario, "5\n", "scalar.yaml")
        rc = main(["run", str(scalar), "--out", str(tmp_path / "o"), "--override", "seed=1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: override 'seed': the scenario is not a mapping\n"
        assert not (tmp_path / "o").exists()


# Each flag of `validate`, `replay` and `sweep` set to a bad or extreme value,
# and `--out` of `run`, `replay` and `sweep` set to a path that takes no files
# (`unusable_outs`): the command exits 0, or 1 or 2 with one `error:` line,
# within `TIME_LIMIT`.
FUZZ_VALUES = ["x", "", "nan", "inf", "-1", "0", "1e-300", "1e300", str(2**63), str(10**30)]
FUZZ_FLAGS = {
    "validate": ["--arrival-rate", "--service-rate", "--rates", "--deadline", "--percentile",
                 "--replications", "--requests", "--seed"],
    "replay": ["--horizon", "--seed", "--nodes", "--node-vcpu", "--node-memory-mb", "--vcpu",
               "--memory-mb", "--service-rate", "--deadline", "--percentile", "--reclamation",
               "--out"],
    "sweep": ["--set", "--set controller.tau=", "--override functions.f1.workload.rate=",
              "--out"],
    "run": ["--out"],
}
# values that only the flag's type checks, as no later step checks them
# again: each is a usage error, exit 2 with one `error: argument <flag>` line
FUZZ_USAGE_ERRORS = {
    ("validate", "--rates"): ["10,nan", "10,inf", "10,0", "10,-1", "10,,5", "10,x"],
    ("validate", "--percentile"): ["1"],
}
TIME_LIMIT = 5.0  # seconds per case; the slowest takes about 0.1 s


def unusable_outs(tmp_path):
    """`--out` paths under `tmp_path` that take no output files: an existing
    file, a path under it, and a directory whose `requests.csv` (and that of
    a sweep's `base` run) is a directory."""
    (tmp_path / "file").write_text("")
    for run_dir in ("taken", "taken/base"):
        (tmp_path / run_dir / "requests.csv").mkdir(parents=True)
    return [str(tmp_path / "file"), str(tmp_path / "file" / "sub"), str(tmp_path / "taken")]


def _fuzz_argv(command, flag, value, tmp_path):
    """The command's quick base arguments with `flag` set to `value`."""
    if command == "validate":
        argv = ["--arrival-rate", "5", "--service-rate", "10", "--requests", "1100",
                "--replications", "1"]
    elif command == "replay":
        argv = [str(REPO_ROOT / "traces" / "six_function_hour.csv"), "--horizon", "10"]
    else:
        (tmp_path / "mini.yaml").write_text(MINI)
        argv = [str(tmp_path / "mini.yaml")]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    flag, _, prefix = flag.partition(" ")
    if flag in argv:
        argv[argv.index(flag) + 1] = prefix + value
    else:
        argv += [flag, prefix + value]
    return [command] + argv


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in FUZZ_FLAGS.items()
                                           for f in flags])
def test_fuzzed_flag_runs_or_ends_in_one_error_line(tmp_path, capsys, command, flag):
    usage_errors = FUZZ_USAGE_ERRORS.get((command, flag), [])
    outs = unusable_outs(tmp_path) if flag == "--out" else []
    for value in outs or FUZZ_VALUES + usage_errors:
        try:
            with time_limit(TIME_LIMIT):
                rc = main(_fuzz_argv(command, flag, value, tmp_path))
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 0 or (rc in (1, 2) and err.count("error:") == 1), (value, rc, err)
        if value in usage_errors:
            assert rc == 2 and f"error: argument {flag}: " in err.splitlines()[-1], (value, err)
        if value in outs:
            assert rc == 1 and err.startswith("error: [Errno "), (value, err)
