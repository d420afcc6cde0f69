import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import FIXTURES

from schedcheck import __version__, checker, trace as trace_mod, whatif
from schedcheck.cli import _parse_scenario_file, main
from schedcheck.config import ClusterConfig, load_config

ROOT = Path(__file__).resolve().parent.parent
DEMO_DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "data"

GOAL0_PROPS = ("#define goal0 completedscheduled == workload && workload > 0;\n"
               "#assert cluster reaches goal0;\n")


def write_fixture(tmp_path, name):
    fx = FIXTURES[name]
    trace_path = tmp_path / f"{name}.csv"
    trace_mod.write(fx.trace, trace_path)
    cfg = fx.config
    config_path = tmp_path / f"{name}.conf"
    lines = [f"node_count = {cfg.node_count}",
             f"slots_per_node = {cfg.slots_per_node}",
             f"scheduler = {cfg.scheduler}",
             f"task_timeout_ms = {cfg.task_timeout_ms}",
             f"max_speculative = {cfg.max_speculative}",
             f"reduce_slowstart = {cfg.reduce_slowstart}",
             f"fair_pools = {cfg.fair_pools}"]
    config_path.write_text("\n".join(lines) + "\n")
    return str(config_path), str(trace_path)


def props(tmp_path, text):
    path = tmp_path / "props.txt"
    path.write_text(text)
    return str(path)


class TestVerify:
    def test_goal0_on_small_fixture_exits_zero(self, tmp_path, capsys):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        out = tmp_path / "report.json"
        code = main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS),
                     "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "Valid?" in table and "#States" in table and "Time(s)" in table
        report = json.loads(out.read_text())
        assert report["properties"][0]["verdict"] == "reachable"
        assert report["properties"][0]["witness"]["terminal"]["rates"][
            "completedscheduled"] == 3

    def test_deadlock_fixture_with_witness(self, tmp_path):
        config, trace = write_fixture(tmp_path, "deadlock_cycle")
        out = tmp_path / "report.json"
        code = main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(
                         tmp_path,
                         "#define dl resourcedeadlockrate >= 50;\n"
                         "#assert cluster reaches dl;\n"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        witness = report["properties"][0]["witness"]
        assert witness["steps"], "witness path must be present"
        assert witness["terminal"]["rates"]["resourcedeadlockrate"] >= 50

    def test_unreachable_goal_exits_one(self, tmp_path):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        code = main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(
                         tmp_path,
                         "#define bad failurerate > 99;\n"
                         "#assert cluster reaches bad;\n")])
        assert code == 1

    def test_budget_exhaustion_exits_two(self, tmp_path):
        """A spent budget of N states reports N states visited."""
        config, trace = write_fixture(tmp_path, "three_anon_two_jobs")
        out = tmp_path / "report.json"
        for strategy in ("dfs", "dfs-sym"):
            code = main(["verify", "--config", config, "--trace", trace,
                         "--state-budget", "100", "--strategy", strategy,
                         "--out", str(out),
                         "--properties", props(
                             tmp_path,
                             "#define bad failurerate > 99;\n"
                             "#assert cluster reaches bad;\n")])
            assert code == 2
            [result] = json.loads(out.read_text())["properties"]
            assert (result["verdict"], result["states"]) == ("unknown", 100)

    def test_usage_and_parse_errors_exit_three(self, tmp_path):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        assert main(["verify", "--trace", trace]) == 3  # missing --properties
        assert main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, "gibberish;\n")]) == 3
        assert main(["verify", "--config", config,
                     "--trace", str(tmp_path / "missing.csv"),
                     "--properties", props(tmp_path, GOAL0_PROPS)]) == 3

    def test_bad_row_names_its_trace_file(self, tmp_path, capsys):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        bad = tmp_path / "bad.csv"
        bad.write_text("task_id,job_id,kind,submit_ms,duration_ms,"
                       "deadline_ms,preferred_node,outcome,failure_cause\n"
                       "x1,jx,map,0,100,soon,,SUCCESS,\n")
        code = main(["verify", "--config", config, "--trace", trace, str(bad),
                     "--properties", props(tmp_path, GOAL0_PROPS)])
        assert code == 3
        assert capsys.readouterr().err == f"error: {bad}: line 2: " \
            "deadline_ms and preferred_node must be integers\n"

    def test_over_long_trace_field_exits_three(self, tmp_path, capsys):
        config, _ = write_fixture(tmp_path, "map_reduce_gate")
        bad = tmp_path / "long.csv"
        bad.write_text("task_id,job_id,kind,submit_ms,duration_ms,"
                       "deadline_ms,preferred_node,outcome,failure_cause\n"
                       f"m1,j1,map,0,100,,,FAIL,{'x' * 200_000}\n")
        code = main(["verify", "--config", config, "--trace", str(bad),
                     "--properties", props(tmp_path, GOAL0_PROPS)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 2: field larger than")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("budget", [["--time-budget", "-1"],
                                        ["--state-budget", "0"],
                                        ["--state-budget", "-5"]])
    def test_out_of_range_budget_exits_three(self, tmp_path, capsys, budget):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        code = main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS), *budget])
        assert code == 3
        assert f"argument {budget[0]}: must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["deadline_factor = nan",
                                      "deadline_factor = inf",
                                      "speculation_factor = nan"])
    def test_non_finite_factor_exits_three(self, tmp_path, capsys, line):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        with open(config, "a") as fh:
            fh.write(line + "\n")
        code = main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS)])
        assert code == 3
        err = capsys.readouterr().err
        key = line.split()[0]
        assert err == f"error: {key} must be finite and " \
            f"{'> 0' if key == 'deadline_factor' else '>= 1'}\n"

    def test_report_roundtrips(self, tmp_path):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        out = tmp_path / "report.json"
        main(["verify", "--config", config, "--trace", trace,
              "--properties", props(tmp_path, GOAL0_PROPS), "--out", str(out)])
        report = json.loads(out.read_text())
        assert json.loads(json.dumps(report)) == report

    def test_task_assertions_via_cli(self, tmp_path):
        config, trace = write_fixture(tmp_path, "timeout_cascade")
        code = main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(
                         tmp_path, "#assert task bad never Failed;\n")])
        assert code == 1

    def test_unknown_task_is_named(self, tmp_path, capsys):
        config, trace = write_fixture(tmp_path, "timeout_cascade")
        code = main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(
                         tmp_path, "#assert task nope never Failed;\n")])
        assert code == 3
        assert capsys.readouterr().err == "error: unknown task 'nope'\n"


class TestAnalyze:
    def test_confusion_matrix_in_report(self, tmp_path, capsys):
        config, trace = write_fixture(tmp_path, "timeout_cascade")
        out = tmp_path / "report.json"
        code = main(["analyze", "--config", config, "--trace", trace,
                     "--properties", props(
                         tmp_path,
                         "#define any workload > 0;\n"
                         "#assert cluster reaches any;\n"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        cm = report["confusion_matrix"]
        assert cm["tn_count"] == 3  # all three trace failures predicted
        assert report["detected_failures"]["df_pct"] == pytest.approx(100.0)
        assert report["breakdown"]["cascade_pct"] == pytest.approx(200 / 3)
        assert "TP" in capsys.readouterr().out


    def test_demo_report_needs_no_task_assertion_run(self, tmp_path,
                                                      monkeypatch):
        """analyze reports the first goal only, so it verifies nothing else:
        the demo report is unchanged with verify_assertion disabled."""
        import schedcheck.checker as checker_mod

        def disabled(*args, **kwargs):
            raise AssertionError("analyze ran a task assertion")

        monkeypatch.setattr(checker_mod, "verify_assertion", disabled)
        out = tmp_path / "analyze.json"
        main(["analyze", "--config", str(DEMO_DATA / "cluster.conf"),
              "--trace", str(DEMO_DATA / "wordcount.csv"),
              "--properties", str(DEMO_DATA / "goals.props"),
              "--out", str(out)])
        golden = json.loads((GOLDEN / "demo_analyze_report.json").read_text())
        assert without_times(json.loads(out.read_text())) == golden


class TestFirstGoalCommands:
    @pytest.mark.parametrize("command", ["analyze", "whatif"])
    def test_unknown_task_assertion_exits_three(self, tmp_path, command):
        """analyze and whatif verify only the first goal, yet a task
        assertion naming no task of the trace is still an input error."""
        config, trace = write_fixture(tmp_path, "timeout_cascade")
        args = [command, "--config", config, "--trace", trace,
                "--properties", props(
                    tmp_path, GOAL0_PROPS + "#assert task ghost never Failed;\n")]
        if command == "whatif":
            scenario = tmp_path / "scenario.conf"
            scenario.write_text("task_timeout_ms = 4000\n")
            args += ["--scenario", str(scenario)]
        assert main(args) == 3


class TestReportPath:
    """A report path that cannot be written is an input error found before
    any search, not after the whole run."""

    @pytest.mark.parametrize("command", ["verify", "analyze", "whatif"])
    @pytest.mark.parametrize("out", ["missing/report.json", "."])
    def test_unwritable_out_fails_before_any_verify(
            self, tmp_path, capsys, monkeypatch, command, out):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("verified before the --out check")

        for owner, name in ((checker, "verify"), (checker, "verify_assertion"),
                            (whatif, "verify")):
            monkeypatch.setattr(owner, name, spy)
        args = [command, "--config", str(DEMO_DATA / "cluster.conf"),
                "--trace", str(DEMO_DATA / "wordcount.csv"),
                "--properties", str(DEMO_DATA / "goals.props"),
                "--out", str(tmp_path / out)]
        if command == "whatif":
            args += ["--sweep", "nodes", "--values", "1,2"]
        assert main(args) == 3
        assert calls == []
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith("error: [Errno ") and err.count("\n") == 1


class TestVacuousWarnings:
    """An atom that the metric ranges alone decide gets one stderr warning
    per checked goal; verdicts, exit codes and reports stay as they were."""

    def test_verify_warns_once_per_flagged_atom(self, tmp_path, capsys):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        out = tmp_path / "report.json"
        code = main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(
                         tmp_path,
                         "#define g completedscheduled == workload && "
                         "workload > 0 && failurerate >= 0;\n"
                         "#define bad failurerate > 100;\n"
                         "#assert cluster reaches g;\n"
                         "#assert cluster reaches bad;\n"),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "warning: goal g: workload > 0 holds in every state, judged "
            "from the metric ranges alone",
            "warning: goal g: failurerate >= 0 holds in every state, judged "
            "from the metric ranges alone",
            "warning: goal bad: failurerate > 100 holds in no state, judged "
            "from the metric ranges alone"]
        report = json.loads(out.read_text())
        assert [p["verdict"] for p in report["properties"]] == \
            ["reachable", "unreachable"]
        assert "warning" not in out.read_text()

    def test_no_warning_without_a_flagged_atom(self, tmp_path, capsys):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        code = main(["verify", "--config", config, "--trace", trace,
                     "--properties", props(
                         tmp_path,
                         "#define g completedscheduled == workload;\n"
                         "#assert cluster reaches g;\n")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_whatif_warns_for_its_goal(self, tmp_path, capsys):
        config, trace = write_fixture(tmp_path, "two_jobs_fifo")
        code = main(["whatif", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS),
                     "--sweep", "nodes", "--values", "2,4"])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: goal goal0: workload > 0 holds in every state, judged "
            "from the metric ranges alone"]


class TestWhatif:
    def test_scenario_file(self, tmp_path, capsys):
        config, trace = write_fixture(tmp_path, "timeout_cascade")
        scenario = tmp_path / "scenario.conf"
        scenario.write_text("label = bigger-timeout\ntask_timeout_ms = 4000\n")
        out = tmp_path / "report.json"
        code = main(["whatif", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS),
                     "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        (cmp_,) = report["comparisons"]
        assert cmp_["label"] == "bigger-timeout"
        assert cmp_["baseline_failure_pct"] == pytest.approx(100.0)
        assert cmp_["scenario_failure_pct"] == pytest.approx(0.0)
        assert cmp_["reduction_rate_pct"] == pytest.approx(100.0)
        assert "Scenario" in capsys.readouterr().out

    def test_scenario_may_set_a_field_to_its_default(self, tmp_path):
        # the base times out at 1 000 ms; the scenario sets the default
        config, trace = write_fixture(tmp_path, "timeout_cascade")
        default = ClusterConfig().task_timeout_ms
        scenario = tmp_path / "scenario.conf"
        scenario.write_text(f"task_timeout_ms = {default}\n")
        assert _parse_scenario_file(str(scenario), ClusterConfig()).delta \
            == {"task_timeout_ms": default}
        out = tmp_path / "report.json"
        code = main(["whatif", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS),
                     "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        (cmp_,) = json.loads(out.read_text())["comparisons"]
        assert cmp_["baseline_failure_pct"] == pytest.approx(100.0)
        assert cmp_["scenario_failure_pct"] == pytest.approx(0.0)

    @pytest.mark.parametrize("text,error", [
        ("label = small\nnode_count = 0\n", "node_count must be >= 1"),
        ("label = typo\nnode_cout = 3\n", "unknown config key 'node_cout'"),
        ("slots_per_node = two\n", "bad value for slots_per_node: 'two'")])
    def test_bad_scenario_fails_before_a_leg_runs(self, tmp_path, capsys,
                                                 text, error):
        config, trace = write_fixture(tmp_path, "two_jobs_fifo")
        scenario = tmp_path / "scenario.conf"
        scenario.write_text(text)
        code = main(["whatif", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS),
                     "--scenario", str(scenario)])
        assert code == 3
        out, err = capsys.readouterr()
        assert err == f"error: {error}\n" and out == ""

    def test_nodes_sweep(self, tmp_path):
        config, trace = write_fixture(tmp_path, "two_jobs_fifo")
        out = tmp_path / "report.json"
        code = main(["whatif", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS),
                     "--sweep", "nodes", "--values", "2,4", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert [c["label"] for c in report["comparisons"]] == \
            ["nodes=2", "nodes=4"]

    def test_property_row_carries_scenario_verdict(self, tmp_path):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        scenario = tmp_path / "scenario.conf"
        scenario.write_text("task_timeout_ms = 4000\n")
        out = tmp_path / "report.json"
        code = main(["whatif", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path,
                                           "#define bad failurerate > 99;\n"
                                           "#assert cluster reaches bad;\n"),
                     "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        (cmp_,) = report["comparisons"]
        assert cmp_["scenario_verdict"] == "unreachable"
        (row,) = report["properties"]
        assert row["verdict"] == "unreachable"

    @pytest.mark.parametrize("values", [["--values", "x,2"],
                                        ["--values", "4"], []])
    def test_bad_sweep_values_exit_three(self, tmp_path, capsys, values):
        config, trace = write_fixture(tmp_path, "two_jobs_fifo")
        code = main(["whatif", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS),
                     "--sweep", "nodes", *values])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep") and err.count("\n") == 1

    def test_bad_swept_value_fails_before_any_leg(self, capsys, monkeypatch):
        verified = []
        monkeypatch.setattr(whatif, "verify",
                            lambda *args, **kwargs: verified.append(args))
        code = main(["whatif", "--config", str(DEMO_DATA / "cluster.conf"),
                     "--trace", str(DEMO_DATA / "wordcount.csv"),
                     "--properties", str(DEMO_DATA / "goals.props"),
                     "--sweep", "nodes", "--values", "2,0"])
        assert code == 3 and verified == []
        out, err = capsys.readouterr()
        assert err == "error: node_count must be >= 1\n" and out == ""

    def test_inconclusive_leg_reads_unknown(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["whatif", "--config", str(DEMO_DATA / "cluster.conf"),
                     "--trace", str(DEMO_DATA / "wordcount.csv"),
                     "--properties", str(DEMO_DATA / "goals.props"),
                     "--sweep", "nodes", "--values", "1,2",
                     "--state-budget", "3", "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        for cmp_ in report["comparisons"]:
            assert cmp_["baseline_verdict"] == "unknown"
            assert cmp_["scenario_verdict"] == "unknown"
            assert not cmp_["conclusive"]
        assert [row["verdict"] for row in report["properties"]] == \
            ["unknown", "unknown"]
        config = load_config(str(DEMO_DATA / "cluster.conf"))
        trace = trace_mod.parse([str(DEMO_DATA / "wordcount.csv")])
        goal = checker.parse_properties(
            (DEMO_DATA / "goals.props").read_text())[1][0]
        (report, _) = whatif.sweep(config, "nodes", [1, 2], trace, goal,
                                   state_budget=3)
        assert report.baseline == whatif.LegResult(0.0, {}, 3, False,
                                                   "unknown")

    def test_missing_scenario_errors(self, tmp_path):
        config, trace = write_fixture(tmp_path, "two_jobs_fifo")
        assert main(["whatif", "--config", config, "--trace", trace,
                     "--properties", props(tmp_path, GOAL0_PROPS)]) == 3


class TestGen:
    def test_gen_writes_deterministic_trace(self, tmp_path, capsys):
        spec = tmp_path / "gen.conf"
        spec.write_text("n_tasks = 120\nfailure_fraction = 0.05\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--spec", str(spec), "--seed", "9",
                     "--out", str(out1)]) == 0
        assert main(["gen", "--spec", str(spec), "--seed", "9",
                     "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert "120 tasks" in capsys.readouterr().out
        trace = trace_mod.parse(out1)
        assert trace.task_count == 120

    def test_gen_requires_out(self, tmp_path):
        spec = tmp_path / "gen.conf"
        spec.write_text("n_tasks = 10\n")
        assert main(["gen", "--spec", str(spec)]) == 3

    def test_bad_spec_exits_three(self, tmp_path):
        spec = tmp_path / "gen.conf"
        spec.write_text("n_tasks = -1\n")
        assert main(["gen", "--spec", str(spec),
                     "--out", str(tmp_path / "x.csv")]) == 3


def without_times(report):
    """The report with every `time_s` removed: the only field that differs
    between two runs on the same inputs."""
    if isinstance(report, dict):
        return {k: without_times(v) for k, v in report.items() if k != "time_s"}
    if isinstance(report, list):
        return [without_times(v) for v in report]
    return report


class TestGoldenReports:
    def test_demo_reports_unchanged(self, tmp_path):
        """Every verdict, witness step and report field of `verify` and
        `analyze` on the demo inputs matches the committed report."""
        for command in ("verify", "analyze"):
            out = tmp_path / f"{command}.json"
            main([command, "--config", str(DEMO_DATA / "cluster.conf"),
                  "--trace", str(DEMO_DATA / "wordcount.csv"),
                  "--properties", str(DEMO_DATA / "goals.props"),
                  "--out", str(out)])
            golden = json.loads(
                (GOLDEN / f"demo_{command}_report.json").read_text())
            assert without_times(json.loads(out.read_text())) == golden, command


class TestNonUtf8Input:
    """A file argument that is not UTF-8 text exits 3 with one error line
    that names the file, whichever command reads it."""

    @pytest.mark.parametrize("command,flag", [
        ("verify", "--trace"), ("verify", "--properties"),
        ("verify", "--config"), ("whatif", "--scenario"), ("gen", "--spec")])
    def test_bad_byte_exits_three(self, tmp_path, capsys, command, flag):
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        scenario = tmp_path / "scenario.conf"
        scenario.write_text("task_timeout_ms = 4000\n")
        spec = tmp_path / "gen.conf"
        spec.write_text("n_tasks = 10\n")
        files = {"--config": config, "--trace": trace,
                 "--properties": props(tmp_path, GOAL0_PROPS),
                 "--scenario": str(scenario), "--spec": str(spec)}
        bad = tmp_path / "bad.txt"
        bad.write_bytes(Path(files[flag]).read_bytes() + b"\xff\n")
        files[flag] = str(bad)
        wanted = {"verify": ("--config", "--trace", "--properties"),
                  "whatif": ("--config", "--trace", "--properties",
                             "--scenario"),
                  "gen": ("--spec",)}[command]
        args = [command] + [a for f in wanted for a in (f, files[f])]
        if command == "gen":
            args += ["--out", str(tmp_path / "x.csv")]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{bad} is not UTF-8 text" in err


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 3

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_python_m_runs_the_command_line(self, tmp_path):
        """`python -m schedcheck` runs cli.main with its exit codes, so a
        source checkout needs no installed console script."""
        config, trace = write_fixture(tmp_path, "map_reduce_gate")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "schedcheck", *args], cwd=tmp_path,
                env=env, capture_output=True, text=True, timeout=120)

        done = run("verify", "--config", config, "--trace", trace,
                   "--properties", props(tmp_path, GOAL0_PROPS))
        assert done.returncode == 0, done.stderr
        assert "cluster reaches goal0" in done.stdout
        assert run("frobnicate").returncode == 3


class TestStandardLibraryOnly:
    """schedcheck needs nothing beyond the Python standard library."""

    def test_cli_imports_no_third_party_module(self):
        code = ("import sys; before = set(sys.modules); "
                "import schedcheck.cli; "
                "print(sorted({m.split('.')[0] for m in sys.modules} "
                "- {m.split('.')[0] for m in before} "
                "- set(sys.stdlib_module_names) - {'schedcheck'}))")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_gen_runs_where_numpy_cannot_be_imported(self, tmp_path):
        stub = tmp_path / "stub" / "numpy"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text(
            "raise ImportError('numpy is not installed')\n")
        spec = tmp_path / "gen.conf"
        spec.write_text("n_tasks = 50\nprofile = opencloud\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(stub.parent), str(ROOT / "src")]))
        done = subprocess.run(
            [sys.executable, "-m", "schedcheck", "gen", "--spec", str(spec),
             "--seed", "1", "--out", str(tmp_path / "t.csv")],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert trace_mod.parse(tmp_path / "t.csv").task_count == 50


def test_pyproject_version_is_the_package_version():
    # reports carry schedcheck.__version__; the package metadata must agree
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == __version__
