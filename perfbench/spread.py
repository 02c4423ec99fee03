#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the baseline file.

Runs ``run.py`` for every workload of BENCHMARK.json with seeds
0..9, one run at a time and ``run_seconds`` long, and reports for every
end-to-end metric the median and the distance between the first and
third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  One traced run per workload
(seed 0) adds the per-layer numbers.

    python3 perfbench/spread.py --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)
TRACE_SEED = 0


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{res.stderr}")
    info = json.loads(lines[0])
    result = json.loads(lines[-1])
    result["info"] = info
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, s, seconds, 0) for s in SEEDS]
        report["machine"] = runs[0]["info"]["machine"]
        entry = {"seeds": [r["info"]["seed"] for r in runs],
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "output_sha256": [r["info"]["output_sha256"] for r in runs],
                 "end_to_end": {}}
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- wide"
            print(f"{workload:<16} {name:<16} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}  "
                  + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        traced = one_run(workload, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
        if args.out:
            args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
