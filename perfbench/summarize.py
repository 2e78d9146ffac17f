#!/usr/bin/env python3
"""Medians, quartiles and spreads over saved outputs of run.py.

    python3 perfbench/summarize.py out/*.txt
    python3 perfbench/summarize.py out/*.txt --baseline perfbench/baseline.json

Each file is the standard output of one run.  For every workload and metric
the script prints the median over runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the distance
between the quartiles as a share of the median.  ``--baseline`` also writes
those figures, with the per-layer metrics and shares of the traced runs, as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import quartiles


def load(path: Path) -> dict | None:
    """The ``{"perfbench": ...}`` report of one saved run, None if there is none."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith('{"perfbench"'):
            return json.loads(line)["perfbench"]
    return None


def stats(values: list[float]) -> dict:
    q = quartiles(values)
    return {**q, "spread": (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0}


def summarize(reports: list[dict]) -> dict:
    out: dict = {}
    for r in reports:
        w = out.setdefault(r["workload"], {"runs": 0, "traced_runs": 0, "failed": 0, "seeds": [],
                                          "end_to_end": {}, "per_layer": {}, "layer_shares": {}})
        w["failed"] += r["failed"]
        if r["trace"]:
            w["traced_runs"] += 1
            for name, value in r.get("layers", {}).items():
                w["per_layer"].setdefault(name, []).append(value)
            for command, shares in r.get("layer_shares", {}).items():
                for name, value in shares.items():
                    w["layer_shares"].setdefault(command, {}).setdefault(name, []).append(value)
        else:
            w["runs"] += 1
            w["seeds"].append(r["seed"])
            for name, m in r["metrics"].items():
                w["end_to_end"].setdefault(name, []).append(m["median"])
    for w in out.values():
        w["seeds"].sort()
        w["end_to_end"] = {k: stats(v) for k, v in w["end_to_end"].items()}
        w["per_layer"] = {k: statistics.median(v) for k, v in w["per_layer"].items()}
        w["layer_shares"] = {
            c: dict(sorted(((k, statistics.median(v)) for k, v in s.items()), key=lambda kv: -kv[1]))
            for c, s in w["layer_shares"].items()
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--baseline", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()
    reports = [r for r in map(load, args.files) if r is not None]
    summary = summarize(reports)
    for name, w in summary.items():
        print(f"{name}: {w['runs']} untraced runs, {w['traced_runs']} traced, {w['failed']} failed operations")
        for metric, s in w["end_to_end"].items():
            print(f"  {metric:<16} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.2%}")
        for command, shares in w["layer_shares"].items():
            print(f"  {command}: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.005))
    if args.baseline:
        doc = {"provenance": [r["provenance"] for r in reports[:1]], "workloads": summary}
        args.baseline.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
