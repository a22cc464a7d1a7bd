import csv
import dataclasses
import json
import logging
import os
import re

import numpy as np
import pytest

from mdots.records import (
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    load_records_dir,
    load_run_record,
    records_equal,
    save_run_record,
    write_summary_csv,
    write_trace_csv,
)
from mdots.cli import main
from mdots.problems import toy_problem
from mdots.study import (
    ExperimentConfig,
    StudySummary,
    VariableStat,
    run_from_record,
    run_replicate,
    run_study,
    summarize,
    resolve_reference,
)
from mdots.thompson import Seeds, replicate_seeds, run_mdo_ts


# The header values of the settings that became constants, as records written
# while they were settings hold them.
OLD_HEADER_SETTINGS = {
    "mda_max_iterations": 100,
    "gp_nugget": 1e-7,
    "gp_isotropic": False,
    "de_population": None,
    "de_mutation": 0.7,
    "de_crossover": 0.9,
    "penalty_base": 1000.0,
    "penalty_bound_weight": 100.0,
    "reference_tol": 1e-10,
    "gp_restarts": 4,
    "mda_tol": 0.01,
}


def small_record(seed=0):
    cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=1, seed=seed, de_max_generations=60)
    return run_replicate(cfg, 0)


class TestRoundTrip:
    def test_save_load_equal(self, tmp_path):
        record = small_record()
        path = tmp_path / "run_0.ndjson"
        save_run_record(record, str(path))
        loaded = load_run_record(str(path))
        assert dataclasses.asdict(loaded) == dataclasses.asdict(record)

    def test_records_equal_ignores_timing(self):
        record = small_record()
        other = dataclasses.replace(record, timing={"total_seconds": 0.0})
        assert records_equal(record, other)
        assert not records_equal(record, dataclasses.replace(other, final_value=0.0))

    def test_malformed_files_skipped(self, tmp_path):
        record = small_record()
        save_run_record(record, str(tmp_path / "run_0.ndjson"))
        (tmp_path / "run_1.ndjson").write_text("{ not json }\n")
        records, skipped = load_records_dir(str(tmp_path))
        assert len(records) == 1
        assert skipped == 1

    def test_replicate_held_by_two_files_loaded_once(self, tmp_path):
        # The first file in name order is kept; the later one is skipped and counted.
        record = small_record()
        save_run_record(record, str(tmp_path / "run_0.ndjson"))
        save_run_record(dataclasses.replace(record, final_value=0.0), str(tmp_path / "run_0_copy.ndjson"))
        records, skipped = load_records_dir(str(tmp_path))
        assert skipped == 1
        assert [r.final_value for r in records] == [record.final_value]

    @pytest.mark.parametrize("kind", ["header", "doe", "final", "timing"])
    def test_repeated_line_is_refused(self, tmp_path, kind):
        path = tmp_path / "run_0.ndjson"
        save_run_record(small_record(), str(path))
        lines = path.read_text().splitlines(keepends=True)
        (repeated,) = [line for line in lines if f'"kind": "{kind}"' in line]
        path.write_text("".join(lines) + repeated)
        with pytest.raises(ValueError, match=f"second {kind} line"):
            load_run_record(str(path))

    @pytest.mark.parametrize("kind", ["header", "doe", "final", "timing"])
    def test_missing_line_is_named(self, tmp_path, kind):
        path = tmp_path / "run_0.ndjson"
        save_run_record(small_record(), str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if f'"kind": "{kind}"' not in line))
        with pytest.raises(ValueError, match=f"incomplete run record: no {kind} line"):
            load_run_record(str(path))

    def test_two_records_joined_in_one_file_are_skipped_not_merged(self, tmp_path):
        # Loaded line by line, the join would read as one run with both runs' iterations.
        cfg = ExperimentConfig(problem="toy", n_doe=3, n_iter=1, repeat=2, workers=1, de_max_generations=60)
        records, _ = run_study(cfg, out_dir=str(tmp_path))
        assert [r.evaluations_per_discipline() for r in records] == [[4, 4], [4, 4]]
        joined = (tmp_path / "run_0.ndjson").read_text() + (tmp_path / "run_1.ndjson").read_text()
        (tmp_path / "run_1.ndjson").unlink()
        (tmp_path / "run_0.ndjson").write_text(joined)
        with pytest.raises(ValueError, match="second header line"):
            load_run_record(str(tmp_path / "run_0.ndjson"))
        assert load_records_dir(str(tmp_path)) == ([], 1)

    def test_blank_lines_are_skipped(self, tmp_path):
        record = small_record()
        path = tmp_path / "run_0.ndjson"
        save_run_record(record, str(path))
        path.write_text("\n" + path.read_text().replace("\n", "\n  \n"))
        assert dataclasses.asdict(load_run_record(str(path))) == dataclasses.asdict(record)

    @pytest.mark.parametrize(
        "kind, edit, match",
        [
            ("timing", lambda obj: {k: v for k, v in obj.items() if k != "kind"}, "unknown record line kind None"),
            ("timing", lambda obj: {**obj, "kind": ["timing"]}, r"unknown record line kind \['timing'\]"),
            ("timing", lambda obj: {**obj, "kind": "comment"}, "unknown record line kind 'comment'"),
            ("header", lambda obj: {**obj, "schema_version": 2}, "unsupported schema version 2"),
            ("doe", lambda obj: {"kind": "doe"}, r"record doe line lacks or adds the fields \['sets'\]"),
            ("iteration", lambda obj: {**obj, "extra": 1}, r"iteration line lacks or adds the fields \[.extra.\]"),
            ("iteration", lambda obj: {k: v for k, v in obj.items() if k != "z_hat"}, r"iteration line .* \['z_hat'\]"),
            ("timing", lambda obj: "[" * 100_000 + "]" * 100_000, "record line nests too deeply"),
        ],
        ids=["no-kind", "kind-a-list", "unknown-kind", "schema-version", "doe-without-sets", "iteration-extra-field",
             "iteration-without-z_hat", "nested-too-deeply"],
    )
    def test_malformed_line_is_a_value_error_naming_it(self, tmp_path, kind, edit, match):
        path = tmp_path / "run_0.ndjson"
        save_run_record(small_record(), str(path))
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
        edited = edit(json.loads(lines[i]))
        lines[i] = edited if isinstance(edited, str) else json.dumps(edited)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match):
            load_run_record(str(path))
        assert load_records_dir(str(tmp_path)) == ([], 1)

    @pytest.mark.parametrize("line", ["5", '"header"', "[1, 2]", "null"])
    def test_line_that_is_not_an_object_is_refused(self, tmp_path, line):
        path = tmp_path / "run_0.ndjson"
        save_run_record(small_record(), str(path))
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_run_record(str(path))
        assert load_records_dir(str(tmp_path)) == ([], 1)


class TestCsvOutputs:
    def test_trace_columns_and_running_best(self, tmp_path):
        record = small_record()
        path = tmp_path / "trace.csv"
        write_trace_csv(record, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRACE_COLUMNS
        values = [float(r[2]) for r in rows[1:]]
        best = [float(r[3]) for r in rows[1:]]
        assert best == list(np.minimum.accumulate(values))

    def test_summary_columns_match_schema(self, tmp_path):
        summary = StudySummary(
            problem="toy",
            n_runs=2,
            n_converged=1,
            variables=[
                VariableStat("z1", -2.9989, -3.0, 0.1),
                VariableStat("objective", -1.1495, -1.149, 0.05),
            ],
        )
        path = tmp_path / "summary.csv"
        write_summary_csv(summary, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SUMMARY_COLUMNS
        assert len(rows) == 3
        # the flat columns cover every StudySummary field
        flat = {f.name for f in dataclasses.fields(StudySummary)} - {"variables"}
        per_var = {f.name for f in dataclasses.fields(VariableStat)} - {"name"}
        assert flat | {"variable"} | per_var <= set(SUMMARY_COLUMNS) | {"name"}


class TestSeeds:
    def test_replicate_seed_policy(self):
        seeds = replicate_seeds(100, 7)
        assert seeds == Seeds(doe=107, paths=1_000_107, de=2_000_107)


class TestRelaunch:
    def test_run_from_record_reproduces_bits(self):
        record = small_record(seed=5)
        again = run_from_record(record)
        assert records_equal(record, again)

    def test_config_echo_is_complete(self):
        record = small_record(seed=6)
        cfg = ExperimentConfig(**record.config)
        assert cfg.problem == "toy"
        assert cfg.seed == 6
        # the record header schema: every field, in declaration order
        assert list(record.config) == [
            "problem",
            "external_cmd",
            "n_doe",
            "n_iter",
            "repeat",
            "seed",
            "n_features",
            "out",
            "workers",
            "de_max_generations",
            "de_window",
            "de_tol",
            "recompute_reference",
        ]

    def test_unknown_config_key_is_named(self):
        record = dataclasses.replace(small_record(seed=5))
        record.config = {**record.config, "gp": {"nugget": 1e-7}, "zz_new": 1}
        with pytest.raises(ValueError, match="unknown setting.*'gp', 'zz_new'"):
            run_from_record(record)

    def test_retired_settings_at_their_constants_relaunch_and_report(self, tmp_path):
        record = small_record(seed=5)
        old = dataclasses.replace(record, config={**record.config, **OLD_HEADER_SETTINGS})
        assert records_equal(record, run_from_record(old))
        save_run_record(old, str(tmp_path / "run_0.ndjson"))
        assert main(["report", str(tmp_path)]) == 0

    def test_retired_setting_off_its_constant_is_refused(self):
        record = small_record(seed=5)
        for name, value in (("de_mutation", 0.5), ("gp_restarts", 1), ("mda_tol", 0.001)):
            old = dataclasses.replace(record, config={**record.config, **OLD_HEADER_SETTINGS, name: value})
            with pytest.raises(ValueError, match=f"retired setting '{name}'"):
                run_from_record(old)

    def test_library_run_relaunches_and_reports(self, tmp_path):
        cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=1, de_max_generations=60)
        record = run_mdo_ts(toy_problem(), cfg)
        assert records_equal(record, run_from_record(record))
        save_run_record(record, str(tmp_path / "run_0.ndjson"))
        assert main(["report", str(tmp_path)]) == 0


class TestStudy:
    def test_summary_counts_and_files(self, tmp_path):
        cfg = ExperimentConfig(
            problem="toy", n_doe=4, n_iter=1, repeat=2, seed=3, workers=1, de_max_generations=60
        )
        records, summary = run_study(cfg, out_dir=str(tmp_path))
        assert summary.n_runs == 2
        assert 0 <= summary.n_converged <= 2
        assert sorted(p.name for p in tmp_path.glob("run_*.ndjson")) == ["run_0.ndjson", "run_1.ndjson"]
        names = [v.name for v in summary.variables]
        assert names == ["z1", "objective"]

    def test_replicate_index_not_order_controls_results(self):
        cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=0, repeat=2, seed=9, workers=1)
        records, _ = run_study(cfg)
        solo = run_replicate(cfg, 1)
        assert records_equal(records[1], solo)

    def test_pool_width_does_not_change_results(self):
        # only the config echo (workers) and wall clocks may differ
        base = dict(problem="toy", n_doe=4, n_iter=0, repeat=2, seed=21)
        serial, _ = run_study(ExperimentConfig(workers=1, **base))
        pooled, _ = run_study(ExperimentConfig(workers=2, **base))
        for a, b in zip(serial, pooled):
            assert (a.problem, a.replicate, a.doe, a.iterations, a.final_z, a.final_value) == (
                b.problem,
                b.replicate,
                b.doe,
                b.iterations,
                b.final_z,
                b.final_value,
            )

    @pytest.fixture
    def pool_widths(self, monkeypatch):
        """Replace the process pool by one that records its width and runs each replicate when it is submitted."""
        import concurrent.futures

        import mdots.study as study_mod

        record = small_record(seed=0)
        monkeypatch.setattr(study_mod, "run_replicate", lambda cfg, k, out_dir=None: dataclasses.replace(record, replicate=k))
        widths = []

        class InlinePool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return widths

    def test_worker_count(self, monkeypatch, pool_widths):
        # ``workers`` when set (the config refuses one below 1); one per usable CPU when unset; never more than ``repeat``.
        # (workers, os.cpu_count(), affinity set or None where the OS has no sched_getaffinity, pools opened);
        # a width of one runs the replicates without a pool.
        cases = [
            (None, 8, {0, 1, 2}, [3]),  # the CPUs this process may use, not the machine's
            (None, 2, {0}, []),  # as under ``taskset -c 0``
            (None, 3, None, [3]),
            (None, None, None, []),
            (2, 8, {0}, [2]),
            (9, 8, None, [4]),
            (1, 8, None, []),
        ]
        for workers, cpus, affinity, pools in cases:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            if affinity is None:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
            pool_widths.clear()
            records, _ = run_study(ExperimentConfig(problem="toy", repeat=4, workers=workers))
            assert pool_widths == pools, (workers, cpus, affinity)
            assert [r.replicate for r in records] == [0, 1, 2, 3]

    def test_pool_with_unpinned_blas_warns_once(self, monkeypatch, caplog, pool_widths):
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for var in blas_vars:
            monkeypatch.delenv(var, raising=False)

        def warnings_of(workers):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="mdots.study"):
                run_study(ExperimentConfig(problem="toy", repeat=2, workers=workers))
            return [r for r in caplog.records if r.name == "mdots.study" and r.levelno >= logging.WARNING]

        (line,) = warnings_of(2)
        assert line.levelno == logging.WARNING
        assert all(var in line.getMessage() for var in blas_vars)
        assert warnings_of(1) == []  # no pool, no BLAS thread pools of its own
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert warnings_of(2) == []
        assert pool_widths == [2, 2]

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_each_finished_replicate_is_logged(self, caplog, workers):
        cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=0, repeat=3, seed=21, workers=workers)
        with caplog.at_level(logging.INFO, logger="mdots.study"):
            records, _ = run_study(cfg)
        lines = [r for r in caplog.records if r.name == "mdots.study"]
        assert [r.levelno for r in lines] == [logging.INFO] * 3
        pattern = r"replicate (\d) (ok|failed) in (\d+\.\d\d) s \((\d) of 3 done\)"
        parsed = [re.fullmatch(pattern, r.getMessage()) for r in lines]
        assert all(parsed), [r.getMessage() for r in lines]
        assert sorted(int(m[1]) for m in parsed) == [0, 1, 2]
        assert [m[2] for m in parsed] == ["ok"] * 3
        assert [int(m[4]) for m in parsed] == [1, 2, 3]
        assert [r.replicate for r in records] == [0, 1, 2]

    def test_single_replicate_degenerates_to_run(self):
        cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=0, repeat=1, seed=4, workers=1)
        records, summary = run_study(cfg)
        record = run_replicate(cfg, 0)
        assert summary.n_runs == 1
        assert records_equal(records[0], record)

    def test_statistics_over_converged_runs_only(self):
        problem = toy_problem()
        reference = resolve_reference(problem)
        good = small_record(seed=0)
        bad = dataclasses.replace(good, final_z=[4.9])  # far from the optimum
        summary = summarize(problem, [good, bad], reference)
        assert summary.n_runs == 2
        assert summary.n_converged <= 1
        if summary.n_converged == 1:
            z_stat = summary.variables[0]
            assert z_stat.mean_converged == pytest.approx(good.final_z[0])

    def test_zero_reference_component_has_no_relative_error(self):
        problem = toy_problem()
        ref = resolve_reference(problem)
        ref = dataclasses.replace(ref, z=np.array([0.0]))
        record = small_record(seed=0)
        summary = summarize(problem, [record], ref)
        assert summary.variables[0].reference == 0.0
        assert summary.variables[0].mean_abs_pct_err is None

    def test_replicate_failure_is_recorded_not_fatal(self, monkeypatch, caplog):
        import mdots.study as study_mod

        real = study_mod.run_replicate

        def sometimes_broken(cfg, k, out_dir=None):
            if k == 0:
                raise RuntimeError("synthetic replicate failure")
            return real(cfg, k, out_dir)

        monkeypatch.setattr(study_mod, "run_replicate", sometimes_broken)
        cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=0, repeat=2, seed=12, workers=1)
        with caplog.at_level(logging.INFO, logger="mdots.study"):
            records, summary = run_study(cfg)
        lines = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "mdots.study"]
        assert [(level, m.split(" in ")[0]) for level, m in lines] == [
            (logging.WARNING, "replicate 0 failed"),
            (logging.INFO, "replicate 1 ok"),
        ]
        assert lines[0][1].endswith("s (1 of 2 done): synthetic replicate failure")
        assert len(records) == 1
        assert summary.n_runs == 2
        assert summary.n_converged <= 1

    def test_a_dead_pool_worker_fails_its_pending_replicates(self, monkeypatch, caplog):
        import mdots.study as study_mod

        real = study_mod.run_replicate

        def dies_in_replicate_1(cfg, k, out_dir=None):
            if k == 1:
                os._exit(1)  # as a worker the OS kills: the pool breaks
            return real(cfg, k, out_dir)

        monkeypatch.setattr(study_mod, "run_replicate", dies_in_replicate_1)
        cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=0, repeat=3, seed=12, workers=2)
        with caplog.at_level(logging.INFO, logger="mdots.study"):
            records, summary = run_study(cfg)
        pattern = r"replicate (\d) (ok|failed) in \d+\.\d\d s \((\d) of 3 done\).*"
        lines = [re.fullmatch(pattern, r.getMessage()) for r in caplog.records if r.name == "mdots.study"]
        assert all(lines)
        assert sorted(int(m[1]) for m in lines) == [0, 1, 2] and [int(m[3]) for m in lines] == [1, 2, 3]
        failed = {int(m[1]) for m in lines if m[2] == "failed"}
        assert 1 in failed
        assert sorted(r.replicate for r in records) == sorted({0, 1, 2} - failed)
        assert summary.n_runs == 3

    def test_record_whose_true_solve_does_not_converge_counts_as_not_converged(self):
        # y1 = y2 + 1 and y2 = y1 have no fixed point, so the true coupled solve stops unconverged.
        toy = toy_problem()
        drifting = dataclasses.replace(toy, disciplines=(
            dataclasses.replace(toy.disciplines[0], fn=lambda Z, Y: Y[:, 0] + 1.0),
            dataclasses.replace(toy.disciplines[1], fn=lambda Z, Y: Y[:, 0]),
        ))
        record = small_record(seed=0)
        f, state = drifting.true_objective(record.final_z)
        assert np.isnan(f) and state.status[0] != 0
        summary = summarize(drifting, [record], toy.reference)
        assert (summary.n_runs, summary.n_converged) == (1, 0)
        assert all(v.mean_converged is None for v in summary.variables)

    def test_summary_with_no_records(self):
        problem = toy_problem()
        summary = summarize(problem, [], resolve_reference(problem), n_runs=3)
        assert summary.n_runs == 3
        assert summary.n_converged == 0
        assert all(v.mean_converged is None for v in summary.variables)


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(repeat=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_doe=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n_iter=-1)

    def test_unknown_problem(self):
        from mdots.study import build_problem

        with pytest.raises(ValueError, match="unknown problem"):
            build_problem(ExperimentConfig(problem="sphere"))

    def test_external_requires_spec(self):
        from mdots.study import build_problem

        with pytest.raises(ValueError, match="external_cmd"):
            build_problem(ExperimentConfig(problem="external"))
