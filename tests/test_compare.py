"""`mdots compare`: Wilson intervals, the exact McNemar p-value, and hand-made pairs of study directories."""

import csv
import dataclasses
from fractions import Fraction

import pytest

from mdots.cli import main
from mdots.compare import mcnemar_p, wilson_interval
from mdots.records import save_run_record
from mdots.study import ExperimentConfig, run_replicate

CONVERGED_Z = [-2.9989]  # true objective -1.14969, within 1 % of the toy optimum -1.14971
MISSED_Z = [4.9]  # true objective 0.277 against -1.14971


@pytest.mark.parametrize("k, n, interval", [(20, 20, (0.839, 1.000)), (18, 20, (0.699, 0.972)), (39, 40, (0.871, 0.996))])
def test_wilson_interval(k, n, interval):
    assert tuple(round(v, 3) for v in wilson_interval(k, n)) == interval


@pytest.mark.parametrize("b, c, p", [(4, 0, Fraction(1, 16)), (2, 2, Fraction(11, 16)), (5, 0, Fraction(1, 32)),
                                     (0, 0, 1), (0, 3, 1), (1, 0, Fraction(1, 2))])
def test_mcnemar_p_matches_the_hand_table(b, c, p):
    assert mcnemar_p(b, c) == float(p)


@pytest.fixture(scope="module")
def toy_record():
    """One cheap toy record; the pairs below differ only in their final designs."""
    return run_replicate(ExperimentConfig(problem="toy", n_doe=4, n_iter=0, seed=0, de_max_generations=5), 0)


def study_dir(path, record, designs, **settings):
    """A study directory with one record per replicate whose design is not None."""
    path.mkdir()
    config = {**record.config, "repeat": len(designs), **settings}
    for k, z in enumerate(designs):
        if z is not None:
            save_run_record(dataclasses.replace(record, replicate=k, final_z=z, config=config), str(path / f"run_{k}.ndjson"))
    return str(path)


def compare(capsys, base, change):
    code = main(["compare", base, change])
    out, err = capsys.readouterr()
    return code, out, err


def compare_row(change):
    with open(f"{change}/compare.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    return row


def test_a_lost_replicate_is_discordant_and_passes_alone(tmp_path, capsys, toy_record):
    base = study_dir(tmp_path / "base", toy_record, [CONVERGED_Z] * 3)
    change = study_dir(tmp_path / "change", toy_record, [CONVERGED_Z, MISSED_Z, CONVERGED_Z])
    code, out, _ = compare(capsys, base, change)
    assert code == 0
    assert "b=1 " in out and "c=0 " in out and "lost=[1] gained=[]" in out and "verdict=pass" in out
    row = compare_row(change)
    assert (row["base_converged"], row["change_converged"], row["b"], row["c"]) == ("3", "2", "1", "0")
    assert (float(row["mcnemar_p"]), row["lost"], row["gained"], row["verdict"]) == (0.5, "1", "", "pass")
    assert (row["n_runs"], row["n_paired"]) == ("3", "3")


def test_a_gained_replicate_is_no_evidence_of_loss(tmp_path, capsys, toy_record):
    base = study_dir(tmp_path / "base", toy_record, [MISSED_Z, CONVERGED_Z])
    change = study_dir(tmp_path / "change", toy_record, [CONVERGED_Z, CONVERGED_Z])
    code, out, _ = compare(capsys, base, change)
    assert code == 0
    row = compare_row(change)
    assert (row["b"], row["c"], float(row["mcnemar_p"]), row["gained"]) == ("0", "1", 1.0, "0")


def test_five_lost_replicates_fail_the_verdict(tmp_path, capsys, toy_record):
    base = study_dir(tmp_path / "base", toy_record, [CONVERGED_Z] * 5)
    change = study_dir(tmp_path / "change", toy_record, [MISSED_Z] * 5)
    code, out, _ = compare(capsys, base, change)
    assert code == 3
    assert "verdict=fail" in out
    row = compare_row(change)
    assert (row["b"], float(row["mcnemar_p"]), row["lost"], row["verdict"]) == ("5", 1 / 32, "0 1 2 3 4", "fail")


def test_a_replicate_missing_on_one_side_counts_as_not_converged_there(tmp_path, capsys, toy_record):
    base = study_dir(tmp_path / "base", toy_record, [CONVERGED_Z, CONVERGED_Z])
    change = study_dir(tmp_path / "change", toy_record, [CONVERGED_Z, None])
    code, _, _ = compare(capsys, base, change)
    assert code == 0
    row = compare_row(change)
    assert (row["n_runs"], row["change_converged"], row["lost"], row["n_paired"]) == ("2", "1", "1", "1")


def test_settings_that_differ_refuse_the_pair(tmp_path, capsys, toy_record):
    base = study_dir(tmp_path / "base", toy_record, [CONVERGED_Z] * 2)
    change = study_dir(tmp_path / "change", toy_record, [CONVERGED_Z] * 2, n_iter=3)
    code, out, err = compare(capsys, base, change)
    assert code == 1 and out == ""
    assert err.startswith("error: change replicate 0 was run with other settings: n_iter=3 (base 0)")
    assert not (tmp_path / "change" / "compare.csv").exists()


def test_out_and_workers_may_differ(tmp_path, capsys, toy_record):
    base = study_dir(tmp_path / "base", toy_record, [CONVERGED_Z] * 2, workers=1)
    change = study_dir(tmp_path / "change", toy_record, [CONVERGED_Z] * 2, workers=2, out="elsewhere")
    assert compare(capsys, base, change)[0] == 0


def test_a_directory_without_records_is_refused(tmp_path, capsys, toy_record):
    base = study_dir(tmp_path / "base", toy_record, [CONVERGED_Z])
    (tmp_path / "empty").mkdir()
    code, _, err = compare(capsys, base, str(tmp_path / "empty"))
    assert code == 1 and err == "error: no records in the change directory\n"
