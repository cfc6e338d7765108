"""Run one workload of the costboost benchmark and print its metrics.

    python3 bench/run.py --workload desk_sweep --seed 7 --seconds 50 --trace 0

With ``--trace 0`` the set-up, the sweep, the store save and the
load-plus-reports step are timed with tracing off, repeated until
``--seconds`` is used up, and the end-to-end metrics are printed. With
``--trace 1`` one extra sweep runs on one worker with every layer
boundary wrapped in a span (see ``tracing.py``) and the per-layer
metrics are printed. Every sweep
passes the output check of ``check.py``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, named and with units as ``BENCHMARK.json`` declares them.
Scratch files go to ``.bench_out/`` at the repo root.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3  # untraced sweeps per run, even when --seconds is short
IO_CYCLES = 4  # save/report cycles after each sweep, one sample each
REFERENCE_SECONDS = 0.25  # reference-kernel samples after each sweep
TIMES = ("setup_s", "sweep_s", "save_s", "report_s")  # scaled by the host's slowdown
SETUP_REPEATS = 15  # cold set-up probes per run at least; one follows each sweep
PROBE_TIMEOUT_S = 60

# counts that must repeat exactly between runs of the same code and seed
EXACT = ("calls", "candidates", "rounds_trained", "rounds_effective", "degenerate_rounds",
         "files", "bytes", "cells")


def import_costboost():
    import costboost

    source = Path(costboost.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"costboost imported from {source}, not from {ROOT / 'src'}")
    return costboost


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def fingerprint() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "jobs": 1}


def source_digest() -> str:
    """Digest of the program and benchmark sources, naming 'the same code'."""
    sha = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py"),
                        *(ROOT / "configs").glob("*.json")]):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def tree_size(path: Path, skip=("timing.csv",)):
    """Files and bytes under ``path``, leaving out the wall-clock timing file."""
    files = [p for p in path.rglob("*") if p.is_file() and p.name not in skip]
    return len(files), sum(p.stat().st_size for p in files)


class Sweeper:
    """Runs and checks the sweeps of one workload at one seed."""

    def __init__(self, costboost, workload, seed: int):
        self.cb = costboost
        self.workload = workload
        self.raw = workload.config_dict(ROOT, seed)
        self.config = costboost.ExperimentConfig.from_dict(self.raw)
        self.cells = check.grid_cells(self.raw)
        # without a golden digest for this seed, the first sweep's digest
        # is the one every later sweep of the run must reproduce
        self.expected = check.golden_digest(workload.name, seed)
        # a directory of its own for each run, never deleted by the benchmark:
        # see save_and_report
        (OUT / "scratch").mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "scratch"))
        self.cycles = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def sweep(self):
        """One untraced sweep: its store, wall seconds and cells (``timed_cells``)."""
        cells = []
        with timed_cells(self.cb, cells):
            start = time.perf_counter()
            store = self.cb.run_experiment(self.config, jobs=1)
            elapsed = time.perf_counter() - start
        return store, elapsed, cells

    def check(self, store, loaded=None):
        found = check.problems(store, self.raw)
        got = check.digest(store)
        if self.expected is None:
            self.expected = got
        elif got != self.expected:
            found.append(f"digest {got[:16]} differs from {self.expected[:16]}")
        if loaded is not None and check.digest(loaded) != got:
            found.append("store does not round-trip through save/load")
        self.attempted += self.cells
        self.failed += self.cells if found else len(store.failures)
        self.problems.extend(found)

    def save_and_report(self, store, samples, saves, reports):
        """Save, load and report ``store`` IO_CYCLES times, one sample per cycle.

        ``saves`` and ``reports`` get (seconds, [seconds between file
        opens]) of every save and of every load-plus-reports step
        (``opened_files``). Each cycle writes into new directories, and
        the benchmark deletes none of them: on the test machine, deleting
        a few thousand files slows every file operation after it 2-10x
        for tens of seconds, which would fall on the next run. Returns
        the last store as loaded back and the directory it was saved in.
        """
        for _ in range(IO_CYCLES):
            self.cycles += 1
            run_dir = self.scratch / f"store{self.cycles}"
            report_dir = self.scratch / f"reports{self.cycles}"
            opens = []
            with opened_files(self.cb, opens):
                start = time.perf_counter()
                store.save(run_dir)
                saved = time.perf_counter()
                saving = len(opens)
                loaded = self.cb.RunStore.load(run_dir)
                for kind in self.cb.harness.REPORT_KINDS:
                    self.cb.emit_report(loaded, kind, report_dir)
                done = time.perf_counter()
            for name, step, marks in (("save_s", saves, [start, *opens[:saving], saved]),
                                      ("report_s", reports, [saved, *opens[saving:], done])):
                samples[name].append(marks[-1] - marks[0])
                step.append((marks[-1] - marks[0], np.diff(marks).tolist()))
        return loaded, run_dir


@contextlib.contextmanager
def timed_cells(costboost, cells: list):
    """Time every cell of a sweep and every boosting round of each cell.

    Appends (seconds, [seconds of each round]) for each call into
    ``harness.train_ensemble`` -- one per cell -- timing the calls it makes
    into ``boosting.boost_round``. Two clock reads per call, against
    rounds of a millisecond or more.
    """
    harness, boosting = costboost.harness, costboost.boosting
    train_ensemble, boost_round = harness.train_ensemble, boosting.boost_round
    rounds = []

    def timed_round(*args, **kwargs):
        start = time.perf_counter()
        try:
            return boost_round(*args, **kwargs)
        finally:
            rounds.append(time.perf_counter() - start)

    def timed_cell(*args, **kwargs):
        rounds.clear()
        start = time.perf_counter()
        try:
            return train_ensemble(*args, **kwargs)
        finally:
            cells.append((time.perf_counter() - start, rounds.copy()))

    harness.train_ensemble, boosting.boost_round = timed_cell, timed_round
    try:
        yield
    finally:
        harness.train_ensemble, boosting.boost_round = train_ensemble, boost_round


@contextlib.contextmanager
def opened_files(costboost, opens: list):
    """Note the time of every file the harness opens, into ``opens``.

    The store and the reports do all their file work through ``open``
    in ``costboost.harness``; a module global of that name shadows the
    builtin there until the block ends.
    """
    harness = costboost.harness

    def timed_open(*args, **kwargs):
        opens.append(time.perf_counter())
        return open(*args, **kwargs)

    harness.open = timed_open
    try:
        yield
    finally:
        del harness.open


def fastest_s(repeats) -> float:
    """Seconds of a repeated step with each of its parts at its fastest.

    Each repeat is the step's seconds, or (seconds, parts) with the
    repeats of each part in call order, nested the same way: a sweep's
    cells and their rounds, or the stretches between the file opens of
    a save. Each part takes its fastest time over the repeats, and so
    does what the step spends outside its parts. The host's slow
    stretches last from milliseconds to minutes; a millisecond part is
    fast in some repeat of a run even where no whole sweep is, so this
    sum is far steadier than the fastest sweep.
    """
    def split(repeat):
        return repeat if isinstance(repeat, tuple) else (repeat, [])

    def seconds(repeat):
        return split(repeat)[0]

    walls, parts = zip(*map(split, repeats))
    if len({len(p) for p in parts}) != 1:
        raise ValueError("repeats of one step differ in their parts")
    own = min(wall - sum(map(seconds, p)) for wall, p in zip(walls, parts))
    return own + sum(fastest_s(same) for same in zip(*parts))


def setup_time(workload, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload.name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


def timed_run(sweeper, seconds: float):
    """Every end-to-end metric and its samples, within ``seconds`` set-up included.

    ``setup_s`` is the median of its cold probes, ``peak_rss_mb`` the
    process's peak, and ``sweep_s``, ``save_s`` and ``report_s`` sums
    of their fastest parts (``fastest_s``): other tenants of the host
    only ever add time. Timings are then divided by the host's slowdown
    over the run (``speed.py``), which a statistic within the run cannot
    remove.
    """
    deadline = time.perf_counter() + seconds
    reference = speed.Reference()
    seed = int(sweeper.raw["seed"])
    samples = {"setup_s": [], "sweep_s": [], "save_s": [], "report_s": []}
    sweeps, saves, reports = [], [], []
    sizes = set()
    rep_times = []
    while (len(rep_times) < MIN_REPS
           or time.perf_counter() + statistics.median(rep_times) <= deadline):
        rep_start = time.perf_counter()
        store, elapsed, cells = sweeper.sweep()
        samples["sweep_s"].append(elapsed)
        sweeps.append((elapsed, cells))
        loaded, run_dir = sweeper.save_and_report(store, samples, saves, reports)
        reference.sample(REFERENCE_SECONDS)
        samples["setup_s"].append(setup_time(sweeper.workload, seed))
        sweeper.check(store, loaded)
        sizes.add(tree_size(run_dir))
        rep_times.append(time.perf_counter() - rep_start)
    while len(samples["setup_s"]) < SETUP_REPEATS:
        samples["setup_s"].append(setup_time(sweeper.workload, seed))
    # KiB -> MiB; the set-up probes are children and not counted
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    if len(sizes) != 1:
        sweeper.problems.append(f"saved store size changed between sweeps: {sorted(sizes)}")
    files, size = min(sizes)
    counts = {"harness.save.files": files, "harness.save.bytes": size, "cells": sweeper.cells}
    metrics = {name: min(values) for name, values in samples.items()}
    metrics["setup_s"] = statistics.median(samples["setup_s"])
    try:
        metrics["sweep_s"] = fastest_s(sweeps)
        metrics["save_s"] = fastest_s(saves)
        metrics["report_s"] = fastest_s(reports)
    except ValueError as error:
        sweeper.problems.append(f"{error}: the work of a step changed between repeats")
    slowdown = reference.slowdown()
    for name in TIMES:
        metrics[name] /= slowdown
    return metrics, samples, counts, slowdown


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    return max(50, int(100 - 1000 / count)) if count else 50


def percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct)) if values else 0.0


def traced_run(sweeper, seconds: float):
    """Untraced sweeps for the overhead baseline, then one traced sweep."""
    deadline = time.perf_counter() + seconds
    untraced = []
    while True:
        store, elapsed, _cells = sweeper.sweep()
        sweeper.check(store)
        untraced.append(elapsed)
        if time.perf_counter() + 2 * statistics.median(untraced) > deadline:
            break

    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        with tracer.span("harness.sweep"):
            store = sweeper.cb.run_experiment(sweeper.config, jobs=1)
        run_dir = sweeper.scratch / "store"
        report_dir = sweeper.scratch / "reports"
        with tracer.span("harness.save"):
            store.save(run_dir)
        with tracer.span("harness.load"):
            loaded = sweeper.cb.RunStore.load(run_dir)
        for kind in sweeper.cb.harness.REPORT_KINDS:
            with tracer.span(f"harness.emit_report.{kind}"):
                sweeper.cb.emit_report(loaded, kind, report_dir)
    sweeper.check(store, loaded)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / "spans" / f"{sweeper.workload.name}-seed{sweeper.raw['seed']}.csv")

    table = tracing.summarize(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    files, size = tree_size(run_dir)
    cells = [r for r in store.records if r.fold in {str(k) for k in range(sweeper.config.folds)}]
    metrics = layer_metrics(table, tracer.counts, cells, files, size)
    metrics["trace.overhead_s"] = metrics["harness.sweep_s"] - min(untraced)
    counts = {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in EXACT}
    in_sweep = sorted(((entry["self_s"], name) for name, entry in table.items()
                       if not name.startswith(("harness.save", "harness.load",
                                               "harness.emit_report"))), reverse=True)
    notes = [f"self {name} {self_s!r} s" for self_s, name in in_sweep]
    notes.append(f"self total {sum(t for t, _ in in_sweep)!r} s of traced sweep "
                 f"{metrics['harness.sweep_s']!r} s")
    return metrics, counts, notes


def layer_metrics(table, counts, cells, save_files, save_bytes) -> dict:
    def get(name, key="busy_s"):
        return table.get(name, {}).get(key, 0)

    ensembles = table.get("boosting.train_ensemble", {}).get("durations", [])
    tail = tail_percentile(len(ensembles))
    trained = counts["boosting.rounds_trained"]
    effective = sum(r.effective_rounds for r in cells)
    stump_candidates = counts["stumps.train_stump.candidates"]
    metrics = {
        "stumps.train_stump.calls": get("stumps.train_stump", "calls"),
        "stumps.train_stump.busy_s": get("stumps.train_stump"),
        "stumps.train_stump.candidates": stump_candidates,
        "stumps.train_stump.ns_per_candidate":
            1e9 * get("stumps.train_stump") / stump_candidates if stump_candidates else 0.0,
        "boosting.boost_round.calls": get("boosting.boost_round", "calls"),
        "boosting.boost_round.self_s": get("boosting.boost_round", "self_s"),
        "boosting.boost_round_csa.calls": get("boosting.boost_round_csa", "calls"),
        "boosting.boost_round_csa.busy_s": get("boosting.boost_round_csa"),
        "boosting.csa.candidates": counts["boosting.csa.candidates"],
        "boosting.train_ensemble.calls": len(ensembles),
        "boosting.train_ensemble.self_s": get("boosting.train_ensemble", "self_s"),
        "boosting.train_ensemble.p50_s": percentile(ensembles, 50),
        "boosting.train_ensemble.tail_pct": tail,
        "boosting.train_ensemble.tail_s": percentile(ensembles, tail),
        "boosting.rounds_trained": trained,
        "boosting.rounds_effective": effective,
        "boosting.effective_ratio": effective / trained if trained else 0.0,
        "boosting.degenerate_rounds": counts["boosting.degenerate_rounds"],
        "metrics.trace_eval.calls": get("metrics.trace_eval", "calls"),
        "metrics.trace_eval.busy_s": get("metrics.trace_eval"),
        "harness.detect_convergence.busy_s": get("harness.detect_convergence"),
        "harness.decision_scores.busy_s": get("harness.decision_scores"),
        "harness.sweep_s": get("harness.sweep"),
        "harness.sweep.self_s": get("harness.sweep", "self_s"),
        "harness.save.files": save_files,
        "harness.save.bytes": save_bytes,
        "harness.save_s": get("harness.save"),
        "harness.load_s": get("harness.load"),
        "datasets.build_s": get("datasets.build"),
    }
    for name in sorted(table):
        if name.startswith("harness.emit_report."):
            metrics[f"{name}_s"] = get(name)
    return metrics


def check_counts(key: str, counts: dict) -> list:
    """Compare exact counts with the last run of the same code, workload and seed."""
    ledger_path = OUT / "counts.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    before = ledger.setdefault(key, counts)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return [f"count {name} was {before.get(name)}, now {value}"
            for name, value in counts.items() if before.get(name) != value]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    costboost = import_costboost()
    units = declared_metrics(args.trace)
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    sweeper = Sweeper(costboost, workload, args.seed)
    env = fingerprint()
    if args.trace:
        metrics, counts, notes = traced_run(sweeper, args.seconds)
        samples = {}
        lines = [f"{name} {value!r} {units.get(name)}" for name, value in metrics.items()]
        lines += notes
    else:
        metrics, samples, counts, slowdown = timed_run(sweeper, args.seconds)
        env["slowdown"] = slowdown
        lines = [f"{name} {value!r} {units.get(name)} (raw samples: min {min(samples[name])!r} "
                 f"median {statistics.median(samples[name])!r} max {max(samples[name])!r} "
                 f"n={len(samples[name])})" for name, value in metrics.items()]
    key = f"{workload.name}|seed={args.seed}|trace={args.trace}|{source_digest()[:16]}"
    sweeper.problems.extend(check_counts(key, counts))
    if set(metrics) != set(units):
        sweeper.problems.append(f"metrics {sorted(set(metrics) ^ set(units))} "
                                "are not as BENCHMARK.json declares")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} env {json.dumps(env)}")
    for line in lines:
        print(line)
    for problem in sweeper.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not sweeper.problems,
        "attempted": sweeper.attempted,
        "failed": sweeper.failed,
        "metrics": {name: {"value": value, "unit": units.get(name)}
                    for name, value in metrics.items()},
    }
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "problems": sweeper.problems, "samples": samples, **result},
                   indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
