"""Compare two benchmark result sets, or summarise one as a trajectory point.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --point RESULT_DIR > perfbench/trajectory/<date>-<sha>.json

A result set is a directory of the records ``perfbench/run.py`` writes to
``perfbench/out/results/`` (one JSON file per run).  Only untraced runs are
compared.  Runs of each side are paired in the order they finished, so run
the two sides alternately.

For each workload and end-to-end metric of ``BENCHMARK.json`` the comparison
prints both sides' median and quartiles, the share of pairs the change won
(ties count for neither) and a verdict:

* ``improved`` -- the change won at least 9 in 10 pairs and the medians
  differ by more than the parent's own quartile spread;
* ``unresolved`` -- a side's quartile spread, as a share of its median, is
  wider than the metric's bound and the runs do not all read one way;
* ``no worse`` -- the change's median is worse than the parent's by at most
  the bound;
* ``worse`` -- otherwise.

It also compares each workload's failed share (failed / attempted repeats).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent
IMPROVED_PAIR_SHARE = 0.9


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_win_share(parent: Sequence[float], change: Sequence[float], better: str) -> float:
    """Share of (parent, change) pairs in which the change reads better."""
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0 for p, c in pairs) / len(pairs)


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """The comparison verdict for one metric on one workload (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (p_med - c_med)
    if pair_win_share(parent, change, better) >= IMPROVED_PAIR_SHARE and gain > p_q3 - p_q1:
        return "improved"
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    all_worse = all(sign * (p - c) < 0 for p in parent for c in change)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if -gain / abs(p_med) <= bound:
        return "no worse"
    return "worse"


def load_runs(directory: Path) -> dict[str, list[dict[str, Any]]]:
    """Run records per workload, traced and untraced, in finishing order."""
    runs: dict[str, list[dict[str, Any]]] = {}
    records = [json.loads(path.read_text()) for path in sorted(directory.glob("*.json"))]
    for record in sorted(records, key=lambda r: r["finished_at"]):
        runs.setdefault(record["workload"], []).append(record)
    return runs


def metric_values(records: list[dict[str, Any]], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def failed_share(records: list[dict[str, Any]]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(parent_dir: Path, change_dir: Path, spec: dict[str, Any]) -> list[list[str]]:
    """One row per workload and metric, then one failed-share row per workload."""
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        p_runs = [r for r in parent.get(workload, []) if not r["trace"]]
        c_runs = [r for r in change.get(workload, []) if not r["trace"]]
        for metric in spec["end_to_end"]:
            p_vals = metric_values(p_runs, metric["name"])
            c_vals = metric_values(c_runs, metric["name"])
            if not p_vals or not c_vals:
                rows.append([workload, metric["name"], "-", "-", "-", "missing"])
                continue
            p_q = quartiles(p_vals)
            c_q = quartiles(c_vals)
            rows.append(
                [
                    workload,
                    metric["name"],
                    "{:.6g} [{:.6g}, {:.6g}] n={}".format(p_q[1], p_q[0], p_q[2], len(p_vals)),
                    "{:.6g} [{:.6g}, {:.6g}] n={}".format(c_q[1], c_q[0], c_q[2], len(c_vals)),
                    "{:.0%}".format(pair_win_share(p_vals, c_vals, metric["better"])),
                    verdict(p_vals, c_vals, metric["better"], metric["bound"]),
                ]
            )
        p_fail, c_fail = failed_share(p_runs), failed_share(c_runs)
        rows.append(
            [
                workload,
                "failed_share",
                f"{p_fail:.3g}",
                f"{c_fail:.3g}",
                "-",
                "worse" if c_fail > p_fail else "no worse",
            ]
        )
    return rows


def trajectory_point(directory: Path, spec: dict[str, Any]) -> dict[str, Any]:
    """Medians, quartiles and counts of one result set, with its stamp."""
    runs = load_runs(directory)
    point: dict[str, Any] = {"stamp": None, "workloads": {}}
    for workload, records in runs.items():
        point["stamp"] = point["stamp"] or records[0]["stamp"]
        untraced = [r for r in records if not r["trace"]]
        traced = [r for r in records if r["trace"]]
        entry: dict[str, Any] = {
            "digests": {str(r["seed"]): r["digest"] for r in records},
            "runs": len(untraced),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "end_to_end": {},
            "per_layer": {},
        }
        for metric in spec["end_to_end"]:
            values = metric_values(untraced, metric["name"])
            if values:
                q1, median, q3 = quartiles(values)
                entry["end_to_end"][metric["name"]] = {
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "iqr_share": (q3 - q1) / abs(median),
                    "unit": metric["unit"],
                }
        for metric in spec["per_layer"]:
            values = metric_values(traced, metric["name"])
            if values:
                entry["per_layer"][metric["name"]] = {
                    "median": statistics.median(values),
                    "unit": metric["unit"],
                }
        point["workloads"][workload] = entry
    return point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", type=Path, help="PARENT_DIR CHANGE_DIR, or RESULT_DIR with --point")
    parser.add_argument("--point", action="store_true", help="print a trajectory point for one result set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.point:
        if len(args.dirs) != 1:
            parser.error("--point takes one result directory")
        print(json.dumps(trajectory_point(args.dirs[0], spec), indent=1, sort_keys=True))
        return 0
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    rows = compare(args.dirs[0], args.dirs[1], spec)
    header = ["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict"]
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
