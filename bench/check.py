"""Output check of one sweep: canonical digest plus seed-independent invariants.

The digest covers only the numeric outputs -- per record key the fields
``fnr,fpr,ce,nec,effective_rounds,trained_rounds`` and per trace the
columns ``round,alpha,z,train_nec,train_ca`` -- so an additive change of
the store format leaves it alone while any numeric change trips it.
"""

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
NEC_TOLERANCE = 1e-12


def digest(store) -> str:
    lines = []
    for rec in store.records:
        key = (rec.dataset, rec.algorithm, repr(float(rec.cost.c_pos)),
               repr(float(rec.cost.c_neg)), str(rec.fold))
        values = (rec.rates.fnr, rec.rates.fpr, rec.rates.ce, rec.nec)
        lines.append("R|%s|%s|%d|%d" % (",".join(key), ",".join(repr(float(v)) for v in values),
                                        rec.effective_rounds, rec.trained_rounds))
    for (dataset, algorithm, c_pos, c_neg, fold), rows in store.traces.items():
        key = (dataset, algorithm, repr(float(c_pos)), repr(float(c_neg)), str(fold))
        body = ";".join(
            "%d,%s" % (row[0], ",".join(repr(float(v)) for v in row[1:5])) for row in rows
        )
        lines.append("T|%s|%s" % (",".join(key), body))
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def grid_cells(config: dict) -> int:
    return (len(config["datasets"]) * len(config["algorithms"]) * len(config["costs"])
            * config["folds"])


def problems(store, config: dict) -> list:
    """Invariants that hold at any seed; returns one message per violation."""
    found = []
    if store.failures:
        found.append(f"{len(store.failures)} failed cells, first: {store.failures[0].message}")
    folds = {str(k) for k in range(config["folds"])}
    cells = [rec for rec in store.records if rec.fold in folds]
    if len(cells) != grid_cells(config):
        found.append(f"{len(cells)} cells, grid has {grid_cells(config)}")
    if len(store.traces) != len(cells):
        found.append(f"{len(store.traces)} traces for {len(cells)} cells")
    for rec in store.records:
        p = rec.cost.c_pos / (rec.cost.c_pos + rec.cost.c_neg)
        expected = rec.rates.fnr * p + rec.rates.fpr * (1.0 - p)
        if not abs(rec.nec - expected) <= NEC_TOLERANCE:
            found.append(f"NEC {rec.nec!r} of {rec.dataset}/{rec.algorithm}/{rec.fold} "
                         f"does not recompute ({expected!r})")
            break
    return found


def golden_digest(workload: str, seed: int):
    """Digest recorded for (workload, seed), or None when none was recorded."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return golden.get(workload, {}).get(str(seed))
