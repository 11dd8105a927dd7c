"""Summarize benchmark result records by workload, trace mode and metric.

    python3 perfbench/summarize.py [RECORD.json ...] > summary.json

Without arguments it reads every record in perfbench/work/results/. For each
metric it gives the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and the seeds the values came from.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "work" / "results"


def summarize(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for r in records:
        groups.setdefault(f"{r['workload']} trace {r['trace']}", []).append(r)
    out = {}
    for key, rs in sorted(groups.items()):
        rs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, first in rs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rs]
            median = statistics.median(values)
            entry = {"unit": first["unit"], "median": median, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
            metrics[name] = entry
        out[key] = {
            "seeds": [r["seed"] for r in rs],
            "correct": all(r["correct"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "metrics": metrics,
        }
    first = records[0]
    env = {k: v for k, v in first["env"].items() if k != "PATH"}  # PATH names local dirs
    return {"code": sorted({r["code"] for r in records}), "machine": first["machine"],
            "env": env, "runs": out}


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(RESULTS.glob("*.json"))
    if not paths:
        print("no result records", file=sys.stderr)
        return 1
    records = [json.loads(p.read_text()) for p in paths]
    print(json.dumps(summarize(records), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
