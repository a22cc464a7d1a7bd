import csv
import dataclasses
import json
import logging
import os
import sys

import pytest

from mdots.cli import main
from mdots.records import SUMMARY_COLUMNS, load_run_record, save_run_record
from mdots.study import ExperimentConfig, run_replicate


def failed_replicates(caplog):
    """The records on ``mdots.study`` of replicates that failed."""
    return [r for r in caplog.records if r.name == "mdots.study" and "failed" in r.getMessage()]


@pytest.fixture()
def quick_args():
    return ["--problem", "toy", "--n-doe", "4", "--n-iter", "0", "--seed", "1"]


class TestRunCommand:
    def test_run_writes_record_and_prints_summary(self, tmp_path, capsys, quick_args):
        out = str(tmp_path / "runs")
        code = main(["run", *quick_args, "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "z_star" in printed and "objective" in printed
        record = load_run_record(os.path.join(out, "run_0.ndjson"))
        assert record.problem == "toy"
        assert record.config["n_doe"] == 4

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "n_doe": 4, "n_iter": 0, "seed": 2, "features": 500}))
        out = str(tmp_path / "runs")
        code = main(["run", "--config", str(cfg_file), "--seed", "9", "--out", out])
        assert code == 0
        record = load_run_record(os.path.join(out, "run_0.ndjson"))
        assert record.config["seed"] == 9  # flag wins
        assert record.config["n_features"] == 500  # file value honored

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "bogus": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_file)])
        assert exc.value.code == 2

    def test_invalid_n_doe_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "toy", "--n-doe", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("setting", [{"n_features": float("nan")}])
    def test_nan_setting_in_config_file_is_one_error_line(self, tmp_path, capsys, setting):
        # json.dumps writes NaN, which json.load reads back as a float.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "n_doe": 4, "n_iter": 0, **setting}))
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_file), "--out", str(out)])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "n_features must be an integer, got nan" in errors[0]
        assert not out.exists()

    def test_config_file_that_is_not_an_object_is_one_error_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("[1, 2]")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "JSON object" in errors[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
    def test_config_file_it_cannot_read_is_exit_2(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "cfg.json"
        if text is not None:
            cfg_file.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"cannot read {cfg_file}" in errors[0]
        assert not (tmp_path / "runs").exists()

    def test_retired_setting_in_config_file_is_unknown(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "gp_isotropic": False}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2
        assert "unknown setting 'gp_isotropic'" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [{"de_window": 20}, {"de_tol": 1e-6}])
    def test_retired_de_stop_rule_in_config_file_is_one_error_line(self, tmp_path, capsys, setting):
        # The DE stop rule is DeConfig's alone: a file that sets it, even at its constant, is refused before any run.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "n_doe": 4, "n_iter": 0, **setting}))
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_file), "--out", str(out)])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        (name,) = setting
        assert len(errors) == 1 and f"unknown setting {name!r}" in errors[0]
        assert not out.exists()

    def test_run_record_header_promises_one_replicate(self, tmp_path, quick_args):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"repeat": 3}))
        out = tmp_path / "runs"
        assert main(["run", "--config", str(config), *quick_args, "--out", str(out)]) == 0
        assert load_run_record(str(out / "run_0.ndjson")).config["repeat"] == 1


class TestStudyCommand:
    def test_study_writes_summary(self, tmp_path, capsys, quick_args):
        out = str(tmp_path / "study")
        code = main(["study", *quick_args, "--repeat", "2", "--workers", "1", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "summary.csv"))
        assert os.path.exists(os.path.join(out, "run_1.ndjson"))
        printed = capsys.readouterr().out
        assert "runs=2" in printed


    def test_study_with_every_replicate_failed_still_writes_summary(self, tmp_path, capsys):
        # Every discipline row answers status=error, so the DoE fails and no record is saved.
        worker = os.path.join(os.path.dirname(__file__), "child_worker.py")
        spec = {
            "z_bounds": [[1.0, 4.0]],
            "y_bounds": [[-20.0, 20.0]],
            "disciplines": [{"cmd": [sys.executable, worker, "error"], "produces": [0], "consumes": []}],
            "objective_cmd": [sys.executable, worker, "sum"],
            "reference": {"z": [1.0], "objective": 3.0},
        }
        spec_path = tmp_path / "problem.json"
        spec_path.write_text(json.dumps(spec))
        out = str(tmp_path / "not" / "made" / "yet")
        argv = ["study", "--problem", "external", "--external-cmd", str(spec_path), "--n-doe", "2", "--n-iter", "0"]
        code = main([*argv, "--repeat", "1", "--workers", "1", "--out", out])
        assert code == 0
        assert os.listdir(out) == ["summary.csv"]
        assert "runs=1 converged=0" in capsys.readouterr().out

    def test_out_that_names_a_file_is_one_error_line_before_any_run(self, tmp_path, capsys, caplog, quick_args):
        out = tmp_path / "taken"
        out.write_text("")
        with caplog.at_level(logging.INFO, logger="mdots.study"):
            code = main(["study", *quick_args, "--repeat", "2", "--workers", "1", "--out", str(out)])
        assert code == 1
        assert not failed_replicates(caplog)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]

    def test_invalid_layer_setting_rejected_before_any_run(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "de_max_generations": 0}))
        out = tmp_path / "study"
        with pytest.raises(SystemExit) as exc:
            main(["study", "--config", str(cfg_file), "--repeat", "2", "--workers", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "de_max_generations must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_tol_in_config_file_is_an_unknown_setting(self, tmp_path, capsys):
        # The reference tolerance is a constant, not a setting, so a file that sets it is refused before any run.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "n_doe": 3, "n_iter": 1, "reference_tol": 1e-10}))
        out = tmp_path / "study"
        with pytest.raises(SystemExit) as exc:
            main(["study", "--config", str(cfg_file), "--repeat", "1", "--workers", "1", "--out", str(out)])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "unknown setting 'reference_tol'" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("setting", [{"n_features": 10.5}, {"seed": -1}, {"n_iter": True}, {"workers": 0}])
    def test_bad_count_in_config_file_rejected_before_any_run(self, tmp_path, capsys, setting):
        # Unchecked, each of these fails every replicate while the study exits 0, raises a traceback,
        # or runs with another value than the one written.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "n_doe": 3, "n_iter": 1, "workers": 1, **setting}))
        out = tmp_path / "study"
        with pytest.raises(SystemExit) as exc:
            main(["study", "--config", str(cfg_file), "--repeat", "2", "--out", str(out)])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        (name,) = setting
        assert len(errors) == 1 and name in errors[0]
        assert not out.exists()

    def test_negative_mda_tol_rejected_before_any_run(self, tmp_path, capsys):
        # mda_tol is retired: the coupled-solve tolerance is a constant, so the setting is unknown.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "n_doe": 3, "n_iter": 1, "workers": 1, "mda_tol": -1.0}))
        out = tmp_path / "study"
        for argv, named in ((["--config", str(cfg_file)], "unknown setting 'mda_tol'"), (["--mda-tol", "-1"], "--mda-tol")):
            with pytest.raises(SystemExit) as exc:
                main(["study", "--problem", "toy", *argv, "--out", str(out)])
            assert exc.value.code == 2
            errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
            assert len(errors) == 1 and named in errors[0]
            assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_zero_features_rejected_before_any_run(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--problem", "toy", "--n-doe", "3", "--n-iter", "1", "--features", "0", "--workers", "1"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "n_features" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [({"problem": "foo"}, "unknown problem 'foo'"), ({"problem": "external"}, "external_cmd")],
        ids=["unknown", "external-without-spec"],
    )
    def test_problem_it_cannot_build_rejected_before_any_run(self, tmp_path, capsys, caplog, setting, message):
        # Unchecked, each replicate fails with the same message and the study ends with it once more.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_doe": 3, "n_iter": 1, **setting}))
        out = tmp_path / "study"
        with caplog.at_level(logging.INFO, logger="mdots.study"), pytest.raises(SystemExit) as exc:
            main(["study", "--config", str(cfg_file), "--repeat", "2", "--workers", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert not failed_replicates(caplog)
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert not out.exists()


class TestExternalSpecErrors:
    """A spec that cannot be used ends the command with one ``error:`` line and exit code 1, not a traceback."""

    def run_external(self, tmp_path, capsys, spec_path):
        argv = ["run", "--problem", "external", "--external-cmd", spec_path, "--out", str(tmp_path / "runs")]
        code = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        return err[0]

    def test_missing_key_is_named_and_started_children_are_closed(self, tmp_path, capsys, monkeypatch):
        from mdots.external import ExternalDiscipline

        started = []
        init = ExternalDiscipline.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            started.append(self)

        monkeypatch.setattr(ExternalDiscipline, "__init__", recording_init)
        worker = os.path.join(os.path.dirname(__file__), "child_worker.py")
        spec = {
            "z_bounds": [[1.0, 4.0]],
            "y_bounds": [[-20.0, 20.0]],
            "disciplines": [{"cmd": [sys.executable, worker, "double"], "produces": [0], "consumes": []}],
        }
        spec_path = tmp_path / "problem.json"
        spec_path.write_text(json.dumps(spec))
        line = self.run_external(tmp_path, capsys, str(spec_path))
        assert "'objective_cmd'" in line
        assert len(started) == 1 and started[0]._proc.poll() is not None

    def test_missing_spec_file_is_named(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-spec.json")
        assert missing in self.run_external(tmp_path, capsys, missing)

    def test_spec_that_is_not_json_is_named(self, tmp_path, capsys):
        spec_path = tmp_path / "problem.json"
        spec_path.write_text("{not json")
        assert str(spec_path) in self.run_external(tmp_path, capsys, str(spec_path))

    def test_spec_with_a_wrongly_typed_value_is_one_line(self, tmp_path, capsys):
        spec_path = tmp_path / "problem.json"
        spec_path.write_text(json.dumps({"z_bounds": [[0.0, 1.0]], "y_bounds": [[0.0, 1.0]], "disciplines": 5}))
        assert "malformed external problem spec" in self.run_external(tmp_path, capsys, str(spec_path))


    def test_study_with_a_zero_reference_objective_is_one_line_before_any_record(
        self, tmp_path, capsys, caplog, started_children
    ):
        # Unchecked, every replicate runs and is saved before the summary finds the criterion undefined; built in
        # each replicate, the problem starts (and stops) the spec's two children once per replicate before it fails.
        worker = os.path.join(os.path.dirname(__file__), "child_worker.py")
        spec = {
            "z_bounds": [[1.0, 4.0]],
            "y_bounds": [[-20.0, 20.0]],
            "disciplines": [{"cmd": [sys.executable, worker, "double"], "produces": [0], "consumes": []}],
            "objective_cmd": [sys.executable, worker, "sum"],
            "reference": {"z": [1.0], "objective": 0.0},
        }
        spec_path = tmp_path / "problem.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "runs"
        argv = ["study", "--problem", "external", "--external-cmd", str(spec_path), "--n-doe", "2", "--n-iter", "0",
                "--repeat", "2", "--workers", "1", "--out", str(out)]
        with caplog.at_level(logging.INFO, logger="mdots.study"):
            assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "nonzero objective" in err[0]
        assert not list(out.glob("run_*.ndjson")) and not (out / "summary.csv").exists()
        assert len(started_children) == 2 and not failed_replicates(caplog)
        assert all(ev._proc.poll() is not None for ev in started_children)


class TestReportCommand:
    def test_report_emits_traces_and_aggregate(self, tmp_path, capsys, quick_args):
        out = str(tmp_path / "study")
        assert main(["study", *quick_args, "--n-iter", "1", "--repeat", "3", "--workers", "1", "--out", out]) == 0
        capsys.readouterr()
        report_dir = str(tmp_path / "report")
        code = main(["report", out, "--out", report_dir])
        assert code == 0
        for k in range(3):
            assert os.path.exists(os.path.join(report_dir, f"trace_run_{k}.csv"))
        with open(os.path.join(report_dir, "aggregate.csv"), newline="") as fh:
            header = next(csv.reader(fh))
        assert header == SUMMARY_COLUMNS

    def test_missing_replicate_counts_as_a_run_as_in_the_study(self, tmp_path, capsys, quick_args):
        # A replicate that failed leaves no record; the report's table counts it as the study's does.
        out, report = tmp_path / "study", tmp_path / "report"
        assert main(["study", *quick_args, "--repeat", "2", "--workers", "1", "--out", str(out)]) == 0
        (out / "run_1.ndjson").unlink()
        assert main(["report", str(out), "--out", str(report)]) == 0
        for table in (out / "summary.csv", report / "aggregate.csv"):
            with open(table, newline="") as fh:
                assert {row["n_runs"] for row in csv.DictReader(fh)} == {"2"}, table.name

    @pytest.mark.parametrize("make_file", [True, False], ids=["a-file", "missing"])
    def test_path_that_is_not_a_directory_is_an_error(self, tmp_path, capsys, make_file):
        path = tmp_path / "run_0.ndjson"
        if make_file:
            path.write_text("")
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {path} is not a directory"]

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["report", str(empty)])
        assert code == 1
        assert "no records" in capsys.readouterr().err

    def test_malformed_records_skipped_and_counted(self, tmp_path, capsys, quick_args):
        out = str(tmp_path / "study")
        assert main(["run", *quick_args, "--out", out]) == 0
        (tmp_path / "study" / "run_7.ndjson").write_text("garbage\n")
        capsys.readouterr()
        code = main(["report", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped=1" in captured.out
        assert "skipped 1 malformed" in captured.err

    def test_unreadable_entry_skipped_and_counted(self, tmp_path, capsys, quick_args):
        out = str(tmp_path / "study")
        assert main(["run", *quick_args, "--out", out]) == 0
        (tmp_path / "study" / "run_9.ndjson").mkdir()  # named like a record, but opening it raises IsADirectoryError
        capsys.readouterr()
        assert main(["report", out]) == 0
        captured = capsys.readouterr()
        assert "traces=1" in captured.out and "skipped=1" in captured.out
        assert "skipped 1 malformed or unreadable" in captured.err

    def test_deeply_nested_record_skipped_and_counted(self, tmp_path, capsys, quick_args):
        # Decoding this line exceeds the recursion limit; it is one unreadable record, not a failed report.
        out = str(tmp_path / "study")
        assert main(["run", *quick_args, "--out", out]) == 0
        (tmp_path / "study" / "run_1.ndjson").write_text("[" * 100000 + "]" * 100000 + "\n")
        capsys.readouterr()
        assert main(["report", out]) == 0
        captured = capsys.readouterr()
        assert "traces=1" in captured.out and "skipped=1" in captured.out

    def test_two_records_joined_in_one_file_skipped_and_counted(self, tmp_path, capsys, quick_args):
        # One file holding both runs must not be traced and counted as one merged run.
        out = tmp_path / "study"
        assert main(["study", *quick_args, "--n-iter", "1", "--repeat", "2", "--workers", "1", "--out", str(out)]) == 0
        (out / "run_0.ndjson").write_text((out / "run_0.ndjson").read_text() + (out / "run_1.ndjson").read_text())
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "traces=1" in captured.out and "skipped=1" in captured.out
        assert not (out / "trace_run_0.csv").exists()

    def test_replicate_held_by_two_files_counted_once(self, tmp_path, capsys, quick_args, monkeypatch):
        import mdots.cli as cli_mod

        out = tmp_path / "study"
        assert main(["study", *quick_args, "--repeat", "2", "--workers", "1", "--out", str(out)]) == 0
        (out / "run_0_copy.ndjson").write_text((out / "run_0.ndjson").read_text())
        traced = []
        write = cli_mod.write_trace_csv

        def counted_write(record, path):
            traced.append(os.path.basename(path))
            write(record, path)

        monkeypatch.setattr(cli_mod, "write_trace_csv", counted_write)
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "traces=2" in captured.out and "skipped=1" in captured.out
        assert "skipped 1 malformed or unreadable" in captured.err
        assert traced == ["trace_run_0.csv", "trace_run_1.csv"]  # each replicate traced once
        with open(out / "aggregate.csv", newline="") as fh:
            assert {row["n_runs"] for row in csv.DictReader(fh)} == {"2"}

    @pytest.mark.parametrize(
        "field, value",
        [("replicate", "0"), ("replicate", True), ("schema_version", "1"), ("problem", 5), ("config", [])],
        ids=["replicate-str", "replicate-bool", "schema-version-str", "problem-int", "config-list"],
    )
    def test_header_of_the_wrong_type_skipped_and_counted(self, tmp_path, capsys, quick_args, field, value):
        # Unchecked, a string replicate fails the report with a TypeError and a JSON true is taken for replicate 1.
        out = tmp_path / "study"
        assert main(["study", *quick_args, "--repeat", "3", "--workers", "1", "--out", str(out)]) == 0
        path = out / "run_0.ndjson"
        header, rest = path.read_text().split("\n", 1)
        path.write_text(json.dumps({**json.loads(header), field: value}) + "\n" + rest)
        capsys.readouterr()
        report = tmp_path / "report"
        assert main(["report", str(out), "--out", str(report)]) == 0
        printed = capsys.readouterr().out.split()
        assert "traces=2" in printed and "skipped=1" in printed
        assert sorted(p.name for p in report.glob("trace_run_*.csv")) == ["trace_run_1.csv", "trace_run_2.csv"]

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("iteration", "random_value", "x"),
            ("iteration", "random_value", True),
            ("iteration", "z_hat", [0.5, "x"]),
            ("iteration", "y_true", "x"),
            ("iteration", "clamped", 1),
            ("final", "z", ["x"]),
            ("final", "value", None),
        ],
        ids=["random-value-str", "random-value-bool", "z-hat-item-str", "y-true-str", "clamped-int", "final-z-str",
             "final-value-null"],
    )
    def test_record_line_of_the_wrong_type_skipped_and_counted(self, tmp_path, capsys, quick_args, kind, field, value):
        # Unchecked, a string random_value fails the report with a TypeError after an earlier trace is written.
        out = tmp_path / "study"
        assert main(["study", *quick_args, "--n-iter", "1", "--repeat", "2", "--workers", "1", "--out", str(out)]) == 0
        path = out / "run_1.ndjson"
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        target = next(obj for obj in lines if obj["kind"] == kind)
        target[field] = value
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        capsys.readouterr()
        report = tmp_path / "report"
        assert main(["report", str(out), "--out", str(report)]) == 0
        printed = capsys.readouterr().out.split()
        assert "traces=1" in printed and "skipped=1" in printed
        assert [p.name for p in report.glob("trace_run_*.csv")] == ["trace_run_0.csv"]

    def test_final_design_of_the_wrong_length_is_a_one_line_error_naming_it(self, tmp_path, capsys, quick_args):
        out = tmp_path / "study"
        assert main(["study", *quick_args, "--repeat", "2", "--workers", "1", "--out", str(out)]) == 0
        path = out / "run_1.ndjson"
        record = load_run_record(str(path))
        record.final_z = record.final_z * 2
        save_run_record(record, str(path))
        capsys.readouterr()
        report = tmp_path / "report"
        assert main(["report", str(out), "--out", str(report)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: replicate 1's final design has 2 values; problem 'toy' has 1"]
        assert not (report / "aggregate.csv").exists()

    def test_records_of_two_problems_are_a_one_line_error(self, tmp_path, capsys, quick_args):
        out = tmp_path / "mixed"
        assert main(["run", *quick_args, "--out", str(out)]) == 0
        sellar = ExperimentConfig(problem="sellar", n_doe=2, n_iter=0, n_features=50, de_max_generations=5)
        run_replicate(sellar, 1, out_dir=str(out))
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'sellar'" in err[0] and "'toy'" in err[0]
        assert not (out / "aggregate.csv").exists()

    def test_report_and_compare_count_the_runs_alike(self, tmp_path, capsys):
        # Replicates 0 and 5 of a repeat = 3 study: runs 0, 1, 2 and 5, whichever command reads the directory.
        record = run_replicate(ExperimentConfig(problem="toy", n_doe=4, n_iter=0, repeat=3, de_max_generations=5), 0)
        for k in (0, 5):
            save_run_record(dataclasses.replace(record, replicate=k), str(tmp_path / f"run_{k}.ndjson"))
        assert main(["report", str(tmp_path)]) == 0
        assert main(["compare", str(tmp_path), str(tmp_path)]) == 0
        for table in ("aggregate.csv", "compare.csv"):
            with open(tmp_path / table, newline="") as fh:
                assert {row["n_runs"] for row in csv.DictReader(fh)} == {"4"}, table

    def test_records_of_two_configs_are_a_one_line_error_naming_the_settings(self, tmp_path, capsys):
        # The check `mdots compare` makes of a directory: one study, one set of settings.
        out = tmp_path / "mixed"
        run_replicate(ExperimentConfig(problem="toy", n_doe=2, n_iter=0, seed=0), 0, out_dir=str(out))
        run_replicate(ExperimentConfig(problem="toy", n_doe=3, n_iter=1, seed=7), 1, out_dir=str(out))
        assert main(["report", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(named in err[0] for named in ("n_doe=3", "n_iter=1", "seed=7"))
        assert not (out / "aggregate.csv").exists()

    def test_out_that_names_a_file_is_a_one_line_error(self, tmp_path, capsys, quick_args):
        out = str(tmp_path / "runs")
        assert main(["run", *quick_args, "--out", out]) == 0
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        assert main(["report", out, "--out", str(taken)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0]

    def test_record_config_with_a_setting_of_the_wrong_type_is_a_one_line_error(self, tmp_path, capsys, quick_args):
        out = str(tmp_path / "runs")
        assert main(["run", *quick_args, "--out", out]) == 0
        path = os.path.join(out, "run_0.ndjson")
        record = load_run_record(path)
        record.config["n_features"] = "x"
        save_run_record(record, path)
        capsys.readouterr()
        assert main(["report", out]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: n_features ")

    def test_record_config_with_an_unknown_key_is_a_one_line_error(self, tmp_path, capsys, quick_args):
        # A record written by another version, e.g. one whose header still has a "gp" settings block.
        out = str(tmp_path / "runs")
        assert main(["run", *quick_args, "--out", out]) == 0
        path = os.path.join(out, "run_0.ndjson")
        record = load_run_record(path)
        record.config["gp"] = {"nugget": 1e-7}
        save_run_record(record, path)
        capsys.readouterr()
        assert main(["report", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'gp'" in err
        assert len(err.strip().splitlines()) == 1


class TestReferenceCommand:
    def test_prints_stored_reference(self, capsys):
        code = main(["reference", "--problem", "sellar"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "-2.808522" in printed and "2.634496" in printed

    def test_recompute_reference_in_config_file_is_an_unknown_setting(self, tmp_path, capsys):
        # Runs are judged by the shipped full-precision reference, so no config can ask for a re-solve.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "toy", "recompute_reference": False}))
        for command in ("run", "study", "reference"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg_file), "--out", str(tmp_path / "runs")])
            assert exc.value.code == 2
            errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
            assert len(errors) == 1 and "unknown setting 'recompute_reference'" in errors[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_recompute_reference_flag_is_the_reference_commands_own(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", "toy", "--recompute-reference", "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --recompute-reference" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_recompute_toy_reference(self, capsys, monkeypatch):
        import mdots.study as study_mod

        solves = []
        de_minimize = study_mod.de_minimize
        monkeypatch.setattr(study_mod, "de_minimize", lambda *a, **k: solves.append(1) or de_minimize(*a, **k))
        code = main(["reference", "--problem", "toy", "--recompute-reference"])
        assert code == 0 and len(solves) == 1
        # the re-solve agrees with the shipped full-precision constants
        assert capsys.readouterr().out == "problem=toy z_star=[-3.003078] objective=-1.149713\n"


class TestRecordCompatibility:
    def test_cli_record_reloads_through_library(self, tmp_path, quick_args):
        out = str(tmp_path / "runs")
        assert main(["run", *quick_args, "--out", out]) == 0
        path = os.path.join(out, "run_0.ndjson")
        record = load_run_record(path)
        save_run_record(record, path + ".copy")
        assert load_run_record(path + ".copy") == record
