"""Compare two sets of benchmark records: parent against change.

Usage (from the repository root)::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records ``perfbench/run.py`` writes
(``--out``); only end-to-end records (``--trace 0``) are compared.
Prints one row per workload.  For every end-to-end metric the row gives
each side's median and quartiles over its runs, how many seed-matched
pairs the change won, and a verdict against the metric's bound in
``BENCHMARK.json``:

- ``better``: the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  own quartile spread;
- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: either side's quartile spread is wider than the bound,
  unless every change run beats every parent run;
- ``no worse``: none of the above.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

__all__ = ["load_records", "verdict", "compare"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(directory: str) -> dict:
    """``{workload: [record, ...]}`` of the end-to-end records in a dir."""
    out: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0 and record.get("correct"):
            out.setdefault(record["workload"], []).append(record)
    return out


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, pairs: list, better: str,
            bound: float) -> dict:
    """Judge one metric.  ``pairs`` holds ``(parent, change)`` values."""
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    sign = 1.0 if better == "lower" else -1.0

    def improves(new, old):
        return sign * (old - new) > 0

    wins = sum(improves(c, p) for p, c in pairs)
    decided = sum(c != p for p, c in pairs)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    worse_by = sign * (cm - pm) / abs(pm)
    all_better = all(improves(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        call = "unresolved"
    elif worse_by > bound:
        call = "worse"
    elif (decided and wins >= 0.9 * len(pairs)
          and improves(cm, pm) and abs(cm - pm) > p3 - p1):
        call = "better"
    else:
        call = "no worse"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "wins": wins, "pairs": len(pairs), "verdict": call}


def _pairs(parent: list, change: list, metric: str) -> list:
    """Seed-matched ``(parent, change)`` values, in run order per seed."""
    by_seed: dict[int, list] = {}
    for record in parent:
        by_seed.setdefault(record["seed"], []).append(
            record["end_to_end"][metric])
    pairs = []
    for record in change:
        queue = by_seed.get(record["seed"])
        if queue:
            pairs.append((queue.pop(0), record["end_to_end"][metric]))
    return pairs


def compare(parent_dir: str, change_dir: str, benchmark: dict) -> list[str]:
    """One report row per workload present on both sides."""
    parent, change = load_records(parent_dir), load_records(change_dir)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        cells = []
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            pv = [r["end_to_end"][name] for r in parent[workload]]
            cv = [r["end_to_end"][name] for r in change[workload]]
            v = verdict(pv, cv, _pairs(parent[workload], change[workload],
                                       name), spec["better"], spec["bound"])
            cells.append(
                f"{name} {v['parent'][1]:.4g} [{v['parent'][0]:.4g}, "
                f"{v['parent'][2]:.4g}] -> {v['change'][1]:.4g} "
                f"[{v['change'][0]:.4g}, {v['change'][2]:.4g}] "
                f"wins {v['wins']}/{v['pairs']} {v['verdict']}")
        rows.append(f"{workload} ({len(parent[workload])} vs "
                    f"{len(change[workload])} runs): " + " | ".join(cells))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="directory of the parent's records")
    ap.add_argument("change", help="directory of the change's records")
    ap.add_argument("--benchmark", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    rows = compare(args.parent, args.change, benchmark)
    if not rows:
        print("no workload has correct end-to-end records on both sides",
              file=sys.stderr)
        return 1
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
