#!/usr/bin/env python3
"""Run workloads over several seeds and print every metric by name and unit.

Run from the root of a checkout:

    python3 bench/summary.py --seeds 1 2 3 4 5 6 7 8 9 10

Each (seed, workload) pair is one ``bench/run.py`` process; seeds are the
outer loop so slow spells of the machine spread over every workload. For each
workload the table gives each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) next to the bound
BENCHMARK.json fixes, and the output-check result. ``--write-baseline``
stores the table in ``bench/baseline.json``; ``--write-reference`` stores the
scores, report totals and checkpoint digests of each seed in
``bench/reference/`` for later runs to measure drift against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    results_path = ROOT / lines[0].split("results ", 1)[1]
    return json.loads(results_path.read_text(encoding="utf-8"))


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "n": len(values)}


def summarize(runs: list[dict], bounds: dict) -> dict:
    table = {}
    for section in ("metrics", "extra"):
        names = runs[0][section]
        for name, first in names.items():
            values = [r[section][name]["value"] for r in runs]
            values = [v for v in values if v is not None]  # undefined quality totals
            if not values:
                continue
            table[name] = {**spread(values), "unit": first["unit"], "bound": bounds.get(name),
                           "reported": section == "metrics"}
    return table


def print_table(workload: str, runs: list[dict], table: dict) -> None:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"\n== {workload}  ({len(runs)} runs, seeds {[r['seed'] for r in runs]})")
    print(f"   output check: {'ok' if correct else 'FAILED'}; "
          f"{failed} of {attempted} clips failed (failed_ratio {failed / attempted:.3g})")
    print(f"   {'metric':<42}{'unit':>7}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}"
          f"{'bound':>7}")
    for name, row in table.items():
        bound = "" if row["bound"] is None else f"{row['bound']:g}"
        flag = "" if row["reported"] else "  (results file only)"
        if row["bound"] is not None and row["spread"] > row["bound"] / 3:
            flag += "  spread above bound/3"
        print(f"   {name:<42}{row['unit']:>7}{row['median']:>13.6g}{row['q1']:>13.6g}"
              f"{row['q3']:>13.6g}{row['spread']:>9.4f}{bound:>7}{flag}")


def write_reference(workload: str, runs: list[dict]) -> None:
    path = BENCH / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    kept = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for r in runs:
        kept[str(r["seed"])] = {
            "scores": r["scores"],
            "totals": r["fingerprint"]["totals"],
            "undefined_reports": r["fingerprint"]["undefined_reports"],
            "checkpoint_sha256": r["fingerprint"]["checkpoint_sha256"],
        }
    lines = [f"{json.dumps(seed)}: {json.dumps(kept[seed], separators=(',', ':'))}"
             for seed in sorted(kept, key=int)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs[workload].append(result)
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"passes={len(result['passes'])}", flush=True)

    baseline = {}
    for workload, results in runs.items():
        table = summarize(results, bounds)
        print_table(workload, results, table)
        baseline[workload] = {
            "seeds": args.seeds,
            "seconds": spec["run_seconds"],
            "trace": args.trace,
            "environment": {k: v for k, v in results[0]["environment"].items() if k != "seed"},
            "metrics": table,
        }
        if args.write_reference:
            write_reference(workload, results)
    if args.write_baseline:
        path = BENCH / "baseline.json"
        kept = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        for workload, entry in baseline.items():
            kept.setdefault(workload, {})[f"trace{args.trace}"] = entry
        path.write_text(json.dumps(kept, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
