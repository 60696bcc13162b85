"""Check the committed benchmark records against BENCHMARK.json.

    python3 tools/check_bench_records.py [REPO_ROOT]

Every `BENCH_*.json` at the repository root must parse and carry its seeds,
its machine info and, for each workload that BENCHMARK.json names and each
of its end-to-end metrics, a finite median for the parent commit and one
for the change:

    {"seeds": [...], "machine": {...}, "all_correct": true, "failed": 0,
     "claim": {"workload": "<workload>", "metric": "<metric>", ...},
     "workloads": {"<workload>": {"<metric>": {"parent": {"median": 1.0, ...},
                                               "change": {"median": 0.8, ...}}}}}

Every run must have been correct with no failed operation, and the claim
must name a workload and an end-to-end metric of BENCHMARK.json on which
the change's median beats the parent's in the metric's `better` direction.

Prints each problem to standard error and exits 1 if there is any.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def problems(record: object, benchmark: dict) -> list[str]:
    """What `record` lacks of the medians, seeds, machine info, clean runs and claim a benchmark record must carry."""
    if not isinstance(record, dict):
        return ["not a JSON object"]
    found = [f"no {key!r}" for key in ("seeds", "machine") if not record.get(key)]
    workloads = record.get("workloads")
    for workload in benchmark["workloads"]:
        for metric in benchmark["end_to_end"]:
            for side in ("parent", "change"):
                try:
                    median = workloads[workload["name"]][metric["name"]][side]["median"]
                except (KeyError, TypeError):
                    median = None
                if isinstance(median, bool) or not isinstance(median, (int, float)) or not math.isfinite(median):
                    found.append(f"{workload['name']} {metric['name']}: no {side} median")
    if record.get("all_correct") is not True:
        found.append("'all_correct' is not true")
    if record.get("failed") != 0 or isinstance(record.get("failed"), bool):
        found.append("'failed' is not 0")
    return found + _claim_problems(record.get("claim"), workloads, benchmark)


def _claim_problems(claim: object, workloads: object, benchmark: dict) -> list[str]:
    """What is wrong with a record's claim: it must name a benchmark workload and metric the change's median beats."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    names = [w["name"] for w in benchmark["workloads"]]  # lists, so an unhashable name is just not in them
    if not isinstance(claim, dict) or claim.get("workload") not in names or claim.get("metric") not in list(better):
        return ["'claim' names no workload and end-to-end metric of BENCHMARK.json"]
    workload, metric = claim["workload"], claim["metric"]
    try:
        parent, change = (workloads[workload][metric][side]["median"] for side in ("parent", "change"))
        beats = change < parent if better[metric] == "lower" else change > parent
    except (KeyError, TypeError):
        return []  # reported above as a missing median
    if beats:
        return []
    return [f"claim: {workload} {metric} change median does not beat the parent's ({better[metric]} is better)"]


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            found = problems(json.loads(path.read_text(encoding="utf-8")), benchmark)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            found = [f"does not parse: {exc}"]
        for problem in found:
            print(f"{path.name}: {problem}", file=sys.stderr)
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
