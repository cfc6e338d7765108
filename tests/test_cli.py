import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import costboost
import costboost.cli as cli
from costboost.cli import main
from costboost.datasets import load_csv_balanced
from costboost.harness import REPORT_KINDS


@pytest.fixture()
def config_path(tmp_path):
    config = {
        "datasets": [
            {"kind": "bayes", "name": "bayes", "n_pos": 9, "n_neg": 9},
        ],
        "algorithms": ["ADA", "CGA"],
        "costs": [[1, 1], [1, 5]],
        "folds": 3,
        "rounds": 6,
        "seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_run_then_report_round_trip(tmp_path, config_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "records" in out
    assert (run_dir / "records.csv").exists()
    assert (run_dir / "timing.csv").exists()
    assert (run_dir / "metadata.json").exists()
    assert list((run_dir / "traces").glob("*.csv"))

    for kind in REPORT_KINDS:
        assert main(["report", "--store", str(run_dir), "--kind", kind]) == 0
    reports = run_dir / "reports"
    assert (reports / "results_bayes.csv").exists()
    assert (reports / "delta_nec_global.csv").exists()
    assert (reports / "delta_ce_by_cost.csv").exists()
    assert (reports / "ca_surface.csv").exists()
    assert (reports / "timing_grand.csv").exists()


def test_generated_csv_and_bayes_sweep_at_two_workers(tmp_path, capsys):
    """A CSV written by ``gen`` and a generated set in one sweep, on a real
    two-worker pool, through every report kind; one worker saves the same bytes."""
    clouds = tmp_path / "clouds.csv"
    assert main(["gen", "--dataset", "twoclouds", "--out", str(clouds),
                 "--n-pos", "12", "--n-neg", "12"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "datasets": [{"kind": "bayes", "n_pos": 12, "n_neg": 12},
                     {"kind": "csv", "name": "clouds", "path": str(clouds),
                      "label_column": "label", "positive_label": "1"}],
        "algorithms": ["ADA", "ABT", "CSA"], "costs": [[1, 1], [1, 10]], "folds": 3,
        "rounds": 6}), encoding="utf-8")
    runs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
    for jobs, run_dir in runs.items():
        assert main(["run", "--config", str(config), "--out", str(run_dir),
                     "--jobs", str(jobs)]) == 0
    assert "failed" not in capsys.readouterr().err
    for kind in REPORT_KINDS:
        assert main(["report", "--store", str(runs[2]), "--kind", kind]) == 0
    assert {p.name for p in (runs[2] / "reports").glob("results_*.csv")} == {
        "results_bayes.csv", "results_clouds.csv"}

    def saved(run_dir):
        return {path.relative_to(run_dir).as_posix(): path.read_bytes()
                for path in [run_dir / "records.csv", run_dir / "metadata.json",
                             *(run_dir / "traces").glob("*.csv")]}

    assert len(list((runs[2] / "traces").glob("clouds__*.csv"))) == 3 * 2 * 3
    assert saved(runs[1]) == saved(runs[2])
    assert not (runs[2] / "failures.csv").exists()


def test_module_entry_point_exits_by_status(tmp_path):
    """``python -m costboost.cli`` as a child process: bad input exits 2
    with argparse's error line; a sweep with failed cells exits 0 and says so."""
    src = str(Path(costboost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def costboost_cli(config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "costboost.cli", "run", "--config", str(path),
             "--out", str(tmp_path / "run")], env=env, capture_output=True, text=True)

    bad = costboost_cli({"datasets": [{"kind": "bayes", "n_pos": 12, "n_neg": 12}],
                         "costs": 5})
    assert bad.returncode == 2
    assert "costboost: error: 'costs' must be a list, not 5" in bad.stderr
    assert "Traceback" not in bad.stderr
    assert not (tmp_path / "run").exists()

    # CSA's closed-form vote leaves the float range in every fold
    failing = costboost_cli({"datasets": [{"kind": "bayes", "n_pos": 12, "n_neg": 12}],
                             "algorithms": ["CSA"], "costs": [[1e-308, 1e-308]], "rounds": 24})
    assert failing.returncode == 0, failing.stderr
    assert failing.stderr == "3 cell(s) failed; see failures.csv\n"
    assert "CSA votes overflow" in (tmp_path / "run" / "failures.csv").read_text()


def test_seed_override_changes_results(tmp_path, config_path):
    base = tmp_path / "base"
    other = tmp_path / "other"
    assert main(["run", "--config", str(config_path), "--out", str(base)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(other),
                 "--seed", "99"]) == 0
    assert (base / "records.csv").read_bytes() != (other / "records.csv").read_bytes()
    meta = json.loads((other / "metadata.json").read_text())
    assert meta["config"]["seed"] == 99


def test_gen_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "bayes.csv"
    assert main(["gen", "--dataset", "bayes", "--out", str(out),
                 "--n-pos", "25", "--n-neg", "25", "--seed", "5"]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[0] == "label"
    assert len(header) == 32  # label + 31 projections

    data = load_csv_balanced(out, "label", "1", seed=0)
    assert data.n_samples == 50
    assert data.n_features == 31
    assert np.sum(data.labels == 1) == 25


def test_gen_with_coordinates(tmp_path):
    out = tmp_path / "clouds.csv"
    assert main(["gen", "--dataset", "twoclouds", "--out", str(out),
                 "--n-pos", "10", "--n-neg", "10", "--coords"]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[-2:] == ["x", "y"]
    assert len(header) == 34


def test_gen_default_sizes(tmp_path):
    out = tmp_path / "bayes_default.csv"
    assert main(["gen", "--dataset", "bayes", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 501  # header + 250/250


@pytest.mark.parametrize("dataset", ["bayes", "twoclouds"])
@pytest.mark.parametrize("flags", [["--n-pos", "0"], ["--n-neg", "0"], ["--n-pos", "-2"]],
                         ids=["n-pos-0", "n-neg-0", "n-pos-minus-2"])
def test_gen_rejects_nonpositive_counts(tmp_path, capsys, dataset, flags):
    out = tmp_path / "data.csv"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--dataset", dataset, "--out", str(out), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "costboost: error: " in err and "class counts must be positive" in err
    assert not out.exists()


def test_gen_default_applies_per_flag(tmp_path):
    out = tmp_path / "clouds.csv"
    assert main(["gen", "--dataset", "twoclouds", "--out", str(out), "--n-pos", "3"]) == 0
    labels = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert labels.count("1") == 3 and labels.count("-1") == 500


def test_run_rejects_zero_jobs(tmp_path, capsys, config_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "run"),
              "--jobs", "0"])
    assert exc.value.code == 2
    assert "costboost: error: jobs must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_rejects_negative_seed(tmp_path, capsys, config_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "run"),
              "--seed", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "costboost: error: seed must be a nonnegative integer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config, message", [
    (None, "No such file or directory"),
    ("{", "Expecting property name"),
    ({"datasets": [{"kind": "bayes", "n_pos": 9, "n_neg": 9}], "algorithms": ["ADA", "ADA"]},
     "algorithm names must be unique"),
    ({"datasets": [{"kind": "bayes", "name": 5, "n_pos": 9, "n_neg": 9}]},
     "dataset name must be a string"),
    ({"datasets": [{"kind": "bayes", "path": 5, "n_pos": 9, "n_neg": 9}]},
     "dataset path must be a string"),
    ({"datasets": [{"kind": "bayes", "n_pos": 9, "n_neg": 9}], "costs": 5},
     "'costs' must be a list, not 5"),
], ids=["missing", "malformed", "duplicate-algorithm", "int-name", "int-path", "int-costs"])
def test_run_reports_bad_configs_without_traceback(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config),
                        encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: costboost")
    assert "costboost: error: " in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-a-file"])
def test_run_rejects_an_out_that_cannot_be_a_directory_before_the_sweep(
        tmp_path, capsys, monkeypatch, config_path, under):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_experiment", unreachable)
    blocker = tmp_path / "taken"
    blocker.write_text("not a run directory", encoding="utf-8")
    out = blocker / "run" if under else blocker
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"costboost: error: cannot save the run into {out}: {blocker} is not a" in err
    assert blocker.read_text(encoding="utf-8") == "not a run directory"


def test_report_on_missing_run_directory_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--store", str(tmp_path / "absent"), "--kind", "timing"])
    assert exc.value.code == 2
    assert "costboost: error: " in capsys.readouterr().err
