"""Self-tests of the benchmark's own code.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload  # noqa: E402

# a few seconds of the shipped desk config: 2 datasets x 2 algorithms x 1 cost x 3 folds
TINY = Workload("tiny", "configs/default.json", algorithms=("ADA", "CSA"),
                costs=((1, 2),), rounds=3)


@pytest.fixture(scope="module")
def costboost():
    return run.import_costboost()


@pytest.fixture()
def sweeper(costboost, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run.Sweeper(costboost, TINY, seed=7)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    names = ["root", "a", "a1", "b"]
    table = tracing.summarize(names, [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0],
                              [-1, 0, 1, 0])
    assert table["root"]["self_s"] == pytest.approx(3.0)
    assert table["a"]["self_s"] == pytest.approx(2.0)
    assert table["a1"]["self_s"] == pytest.approx(1.0)
    assert table["b"]["self_s"] == pytest.approx(4.0)
    assert table["a"]["busy_s"] == pytest.approx(3.0)
    assert sum(entry["self_s"] for entry in table.values()) == pytest.approx(10.0)


def test_self_time_aggregates_repeated_names():
    table = tracing.summarize(["root", "x", "x"], [0.0, 1.0, 3.0], [6.0, 2.0, 5.0],
                              [-1, 0, 0])
    assert table["x"]["calls"] == 2
    assert table["x"]["busy_s"] == pytest.approx(3.0)
    assert table["root"]["self_s"] == pytest.approx(3.0)


def test_tracer_nests_spans_by_call_order():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda value: value * 2)
    with tracer.span("outer"):
        assert inner(3) == 6
        assert inner(4) == 8
    assert tracer.names == ["outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0]
    assert all(end >= start for start, end in zip(tracer.starts, tracer.ends))


def _attributes():
    return {
        (module, attribute): getattr(importlib.import_module(module), attribute)
        for module, attribute, _span in tracing.PATCH_POINTS
    }


def test_traced_sweep_restores_every_patched_attribute(costboost, sweeper):
    before = _attributes()
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        inside = _attributes()
        with tracer.span("harness.sweep"):
            store = costboost.run_experiment(sweeper.config, jobs=1)
    assert _attributes() == before
    assert all(inside[key] is not before[key] for key in before)

    table = tracing.summarize(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    cells = check.grid_cells(sweeper.raw)
    assert table["boosting.train_ensemble"]["calls"] == cells
    assert table["boosting.boost_round_csa"]["calls"] == cells // 2 * 3
    assert table["stumps.train_stump"]["calls"] == cells // 2 * 3
    assert tracer.counts["boosting.rounds_trained"] == cells * 3
    total_self = sum(entry["self_s"] for entry in table.values())
    assert total_self == pytest.approx(table["harness.sweep"]["busy_s"], rel=1e-9)
    assert not check.problems(store, sweeper.raw)


def test_patched_restores_attributes_when_the_body_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            raise RuntimeError("boom")
    assert _attributes() == before


def test_output_check_rejects_one_perturbed_record(costboost, sweeper, tmp_path):
    store, _elapsed, _cells = sweeper.sweep()
    sweeper.check(store)
    assert sweeper.problems == [] and sweeper.failed == 0

    run_dir = tmp_path / "store"
    store.save(run_dir)
    lines = (run_dir / "records.csv").read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[5] = repr(float(fields[5]) + 2.0 ** -40)  # fnr of the first record
    lines[1] = ",".join(fields)
    (run_dir / "records.csv").write_text("".join(lines))
    loaded = costboost.RunStore.load(run_dir)

    sweeper.check(loaded)
    assert any("differs" in problem for problem in sweeper.problems)
    assert sweeper.failed == sweeper.cells


def test_invariants_flag_a_nec_that_does_not_recompute(costboost, sweeper):
    store, _elapsed, _cells = sweeper.sweep()
    store.records[0] = dataclasses.replace(store.records[0], nec=store.records[0].nec + 1e-9)
    assert any("does not recompute" in problem
               for problem in check.problems(store, sweeper.raw))


def test_invariants_flag_a_missing_cell(costboost, sweeper):
    store, _elapsed, _cells = sweeper.sweep()
    dropped = next(i for i, rec in enumerate(store.records) if rec.fold == "0")
    del store.records[dropped]
    assert any("grid has" in problem for problem in check.problems(store, sweeper.raw))


def test_fastest_sums_each_parts_fastest_time():
    # two sweeps of three cells; the rest of each sweep is 1.0 and 0.5
    sweeps = [(7.0, [1.0, 2.0, 3.0]), (6.5, [2.0, 1.0, 3.0])]
    assert run.fastest_s(sweeps) == pytest.approx(1.0 + 1.0 + 3.0 + 0.5)


def test_fastest_takes_nested_parts_at_their_fastest():
    # cell 0 holds two rounds; outside its rounds cell 0 takes 0.5, then
    # 0.25, and outside its cells the sweep takes 1.0 both times
    sweeps = [(4.0, [(2.0, [1.0, 0.5]), 1.0]), (4.0, [(2.5, [0.75, 1.5]), 0.5])]
    assert run.fastest_s(sweeps) == pytest.approx(0.75 + 0.5 + 0.25 + 0.5 + 1.0)
    with pytest.raises(ValueError):
        run.fastest_s([(1.0, [0.5]), (1.0, [0.25, 0.25])])


def test_untraced_sweep_times_every_round_and_restores_the_modules(costboost, sweeper):
    before = (costboost.harness.train_ensemble, costboost.boosting.boost_round)
    store, elapsed, cells = sweeper.sweep()
    assert (costboost.harness.train_ensemble, costboost.boosting.boost_round) == before
    assert len(cells) == sweeper.cells
    assert [len(rounds) for _seconds, rounds in cells] == [3] * sweeper.cells
    assert all(sum(rounds) < seconds for seconds, rounds in cells)
    assert 0 < sum(seconds for seconds, _rounds in cells) < elapsed
    assert not check.problems(store, sweeper.raw)


def test_save_and_report_time_every_file_and_restore_open(costboost, sweeper):
    store, _elapsed, _cells = sweeper.sweep()
    samples = {"save_s": [], "report_s": []}
    saves, reports = [], []
    loaded, run_dir = sweeper.save_and_report(store, samples, saves, reports)
    assert "open" not in vars(costboost.harness)
    assert len(saves) == len(reports) == run.IO_CYCLES
    files = sum(1 for path in run_dir.rglob("*") if path.is_file())
    assert all(len(parts) == files + 1 for _seconds, parts in saves)
    for seconds, parts in saves + reports:
        assert sum(parts) == pytest.approx(seconds)
    assert check.digest(loaded) == check.digest(store)


def test_changed_count_fails_the_next_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.check_counts("w|seed=1", {"a.calls": 3}) == []
    assert run.check_counts("w|seed=1", {"a.calls": 3}) == []
    assert run.check_counts("w|seed=1", {"a.calls": 4}) == ["count a.calls was 3, now 4"]
    assert run.check_counts("w|seed=2", {"a.calls": 4}) == []


@pytest.mark.parametrize("count, pct", [(0, 50), (9, 50), (20, 50), (66, 84), (144, 93),
                                        (1368, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(count, pct):
    assert run.tail_percentile(count) == pct
    assert count == 0 or pct == 50 or count * (100 - pct) / 100 >= 10


def test_traced_run_emits_every_declared_per_layer_metric(sweeper):
    metrics, counts, notes = run.traced_run(sweeper, seconds=0)
    assert set(metrics) == set(run.declared_metrics(trace=1))
    assert sweeper.problems == []
    assert counts["boosting.train_ensemble.calls"] == sweeper.cells
    assert notes[-1].startswith("self total")
