"""belljump benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--paths P]

Run from the repository root (the package is imported from ./src).
Every repetition runs in a fresh interpreter (rep.py), one at a time,
so cold imports are paid as a user of `belljump ensemble` pays them.
The first repetition uses the seed N itself; later ones use seeds
derived from it (rep_seed), so the same N gives the same inputs.

--trace 0 prints the end-to-end metrics over the run's repetitions:
paths_per_s, setup_s and peak_rss_mb.  Times are scaled by the speed
the machine showed on the reference work (reference.py) in the same
run; the raw times are kept in the run record.  --trace 1
alternates untraced and traced repetitions of one seed and prints the
per-layer metrics of tracer.py, checking the traced counts against the
untraced totals.  The last line of standard output is the result
object; the line before it is the run record, which is also written,
with the last traced repetition's spans, to .bench_work/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REP_TIMEOUT_S = 60.0
#: No repetition starts after this, so a run ends well within 180 s.
HARD_STOP_S = 100.0
#: Medians need three untraced repetitions; a traced run needs one of each.
MIN_REPS = {0: 3, 1: 2}

sys.path.insert(0, str(HERE))
from reference import REFERENCE_S  # noqa: E402
from tracer import UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"paths_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
TIME_UNITS = ("s", "ms", "us")
#: Per-repetition fields kept in the run record, raw (not scaled).
REP_FIELDS = ("seed", "traced", "ok", "setup_s", "import_s", "call_s", "ref_s",
              "ref_before_s", "ref_after_s", "peak_rss_mb", "totals", "info")


def run_record(workload, seed: int, n_paths: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload.name,
        "seed": seed,
        "n_paths": n_paths,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, without looking above the root."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rep(spec: dict) -> tuple[dict, float]:
    """Start one repetition, wait for it, and return (result, spawn stamp)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "rep.py"), json.dumps(spec)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "failures": ["repetition timed out"]}, spawned
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "failures": [f"no result (exit {proc.returncode}): {err[-500:]}"]}
    if proc.returncode != 0 and result.get("ok"):
        result = {"ok": False, "failures": [f"exit {proc.returncode}"]}
    return result, spawned


def rep_seed(seed: int, k: int) -> int:
    """Ensemble seed of the k-th distinct repetition: the run's seed
    first, then seeds derived from it, so a run's median averages the
    work of several ensembles instead of repeating one."""
    return seed if k == 0 else seed + 7919 * k


def measure(workload, seed: int, n_paths: int, seconds: float, trace: bool, work: Path) -> dict:
    """Repetitions until the time is up (at least MIN_REPS of them).

    A traced run alternates untraced and traced repetitions that share
    a seed, so each traced count can be checked against its untraced
    twin."""
    reps: list[dict] = []
    begin = time.monotonic()
    longest = 0.0
    while time.monotonic() - begin < HARD_STOP_S and (
        len(reps) < MIN_REPS[int(trace)] or time.monotonic() - begin + longest <= seconds
    ):
        traced = trace and len(reps) % 2 == 1
        spec = {
            "workload": workload.name,
            "inputs": workload.make_inputs(
                work, rep_seed(seed, len(reps) // 2 if trace else len(reps)), n_paths
            ),
            "trace": traced,
            "spans_path": str(work / "spans.json"),
        }
        t0 = time.monotonic()
        result, spawned = run_rep(spec)
        longest = max(longest, time.monotonic() - t0)
        result.update(traced=traced, seed=spec["inputs"]["seed"])
        if result.get("ok"):
            result["setup_s"] = result["t_setup"] - spawned
        reps.append(result)
    return summarize(reps, n_paths, trace)


def summarize(reps: list[dict], n_paths: int, trace: bool) -> dict:
    """Run-level figures; times are scaled to the reference speed.

    The end-to-end times are means over the run's repetitions, scaled by
    the run's mean reference: on the seed code this spread less from run
    to run than medians of per-repetition scaled times, because one
    reference is about as noisy as one call.  Per-layer times are
    medians of per-repetition scaled times."""
    failed = sum(1 for r in reps if not r.get("ok"))
    good = [r for r in reps if r.get("ok")]
    problems = [f for r in reps for f in r.get("failures", [])]
    for r in good:
        r["speed"] = REFERENCE_S / r["ref_s"]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]

    def med(values):
        return statistics.median(list(values))

    def scaled_mean(key):
        run_speed = REFERENCE_S / statistics.fmean(r["ref_s"] for r in untraced)
        return statistics.fmean(r[key] for r in untraced) * run_speed

    metrics: dict = {}
    if untraced and not trace:
        metrics = {
            "paths_per_s": n_paths / scaled_mean("call_s"),
            "setup_s": scaled_mean("setup_s"),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    if trace and traced and untraced:
        problems += cross_check(traced, untraced)
        layers = {}
        for name, value in traced[0]["layers"].items():
            # counts and their ratios come from the run's own seed, so
            # they repeat exactly; times are medians over repetitions
            if UNITS[name] in TIME_UNITS:
                value = med(r["layers"][name] * r["speed"] for r in traced)
            layers[name] = value
        layers["setup.import_s"] = scaled_mean("import_s")
        layers["setup.inputs_s"] = scaled_mean("inputs_s")
        # each traced repetition against its untraced twin (same seed)
        twin = {r["seed"]: r["call_s"] * r["speed"] for r in untraced}
        layers["trace.overhead_frac"] = med(
            r["call_s"] * r["speed"] / twin[r["seed"]] - 1.0 for r in traced if r["seed"] in twin
        )
        metrics = {k: {"value": layers[k], "unit": u} for k, u in UNITS.items()}
    return {
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "reps": [
            {k: r.get(k) for k in REP_FIELDS} for r in reps
        ],
    }


def cross_check(traced: list[dict], untraced: list[dict]) -> list[str]:
    """The instrument must count what the program reports for the same
    seed, and traced repetitions of one seed must agree exactly."""
    problems = []
    totals = {r["seed"]: r["totals"] for r in untraced}
    pairs = (
        ("ensemble.emissions", "emissions"),
        ("ensemble.absorptions", "absorptions"),
        ("trajectory.probe_crossings", "probe_crossings"),
    )
    for r in traced:
        if r["seed"] not in totals:
            continue
        if r["totals"] != totals[r["seed"]]:
            problems.append(f"seed {r['seed']}: traced totals {r['totals']} != {totals[r['seed']]}")
        for layer_key, total_key in pairs:
            if r["layers"][layer_key] != totals[r["seed"]][total_key]:
                problems.append(
                    f"seed {r['seed']}: traced {layer_key} = {r['layers'][layer_key]} "
                    f"but the untraced run reports {total_key} = {totals[r['seed']][total_key]}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paths", type=int, help="override the workload's path count")
    ns = parser.parse_args(argv)

    if not (SRC / "belljump" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'belljump'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[ns.workload]
    seed = workload.default_seed if ns.seed is None else ns.seed
    n_paths = workload.n_paths if ns.paths is None else ns.paths
    work = WORK / f"{workload.name}-s{seed}-t{ns.trace}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # users run installed bytecode: compile once so no repetition pays it
    compileall.compile_dir(str(SRC / "belljump"), quiet=1)
    sys.path.insert(0, str(SRC))
    summary = measure(workload, seed, n_paths, ns.seconds, bool(ns.trace), work)

    record = run_record(workload, seed, n_paths)
    record.update(
        trace=ns.trace,
        seconds=ns.seconds,
        problems=summary.pop("problems"),
        reps=summary.pop("reps"),
    )
    result = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
    (work / "record.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8"
    )
    for problem in record["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
