"""Run the benchmark over ten seeds and report each metric's spread.

    python3 bench/stability.py [--trace] [--out FILE]

For every workload of BENCHMARK.json, runs `run.py --trace 0` once per
seed in SEEDS, for the run_seconds of BENCHMARK.json, and reports, for
each end-to-end metric, the median and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json.  A spread of a
third of the bound or more is flagged, for every metric alike, and
makes the exit code 1, as does any incorrect run.  With --trace it adds
one traced run per workload at its default seed.  --out writes
everything, with the run record, as a BENCH_<n>.json-style file.
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
SEEDS = tuple(range(1, 11))
MACHINE = ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit")


def run(workload: str, seed: int | None, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}): {out.stderr[-2000:]}")
    return {"record": json.loads(lines[-2])["run_record"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    ns = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {
            "n_paths": runs[0]["record"]["n_paths"],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {},
        }
        report["record"] = {k: runs[0]["record"][k] for k in MACHINE}
        for metric, bound in bounds.items():
            stats = spread([r["result"]["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            all_ok = all_ok and (flag == "")
            print(f"{workload:14s} {metric:12s} median {stats['median']:10.4f}  "
                  f"spread {stats['spread']:.4f}  bound {bound}{flag}", flush=True)
        all_ok = all_ok and entry["correct"]
        if ns.trace:
            traced = run(workload, None, seconds, 1)
            entry["trace"] = {"seed": traced["record"]["seed"],
                              "correct": traced["result"]["correct"],
                              "metrics": traced["result"]["metrics"]}
            all_ok = all_ok and traced["result"]["correct"]
        report["workloads"][workload] = entry
    if ns.out:
        Path(ns.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
