"""Compare paired benchmark runs of two commits.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the last stdout line of run.py, one run per line, in pair
order (line i of both files used the same workload and seed).  For each
end-to-end metric in BENCHMARK.json this prints both sides' median and
quartiles, the share of pairs the change won (ties count for neither),
and a verdict: "gain" when the change won at least 9 pairs in 10 and the
medians differ by more than the parent's quartile spread, "regression"
when the change's median is worse than the parent's by more than the
metric's bound, "unresolved" when the parent's spread exceeds the bound,
and "no change" otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(path):
    runs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            runs.append(json.loads(line))
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = _quartiles(parent)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    worse = (c_med - p_med) if lower else (p_med - c_med)
    spread = p_q3 - p_q1
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > spread:
        label = "gain"
    elif worse > metric["bound"] * p_med:
        label = "regression"
    elif spread > metric["bound"] * p_med and wins < len(parent):
        label = "unresolved"
    else:
        label = "no change"
    return p_med, (p_q1, p_q3), c_med, _quartiles(change), wins, label


def main(argv):
    parent, change = _load(argv[1]), _load(argv[2])
    if len(parent) != len(change) or not parent:
        print("error: need the same, nonzero number of runs on both sides",
              file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print(f"{len(parent)} pairs")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        p_med, p_q, c_med, c_q, wins, label = verdict(metric, p, c)
        print(f"{name:14s} parent {p_med:.5g} [{p_q[0]:.5g}, {p_q[1]:.5g}]  "
              f"change {c_med:.5g} [{c_q[0]:.5g}, {c_q[1]:.5g}]  "
              f"wins {wins}/{len(p)}  {label}")
    failed = sum(r["failed"] for r in change) - sum(r["failed"] for r in parent)
    if failed > 0:
        print(f"change failed {failed} more operations than the parent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
