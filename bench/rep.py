"""One repetition of a workload in a fresh interpreter.

Usage: python3 rep.py '<json spec>'  (started by run.py, with the
package's source directory on PYTHONPATH).  The spec names the
workload, its inputs, and whether to trace.  The last line of standard
output is one JSON object with the repetition's timings, check result
and totals; CLOCK_MONOTONIC stamps let the parent measure set-up from
the moment it started this interpreter.
"""

import time

_clock = time.CLOCK_MONOTONIC
T_START = time.clock_gettime(_clock)

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def stamp() -> float:
    return time.clock_gettime(_clock)


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def main(spec) -> dict:
    from reference import reference
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    t_import = stamp()
    for module in workload.modules:
        importlib.import_module("belljump." + module)
    t_imported = stamp()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        t_inputs = stamp()
        state = workload.setup(spec["inputs"])
        t_setup = stamp()
        ref_before = reference()
        t_call = stamp()
        outcome = workload.call(state)
        t_done = stamp()
    finally:
        if tracer is not None:
            tracer.restore()
    ref_after = reference()
    failures, totals, info = workload.check(state, outcome)
    out = {
        "ok": not failures,
        "failures": failures,
        "totals": totals,
        "info": info,
        "t_setup": t_setup,
        "import_s": t_imported - t_import,
        "inputs_s": t_setup - t_inputs,
        "call_s": t_done - t_call,
        "ref_s": 0.5 * (ref_before + ref_after),
        "ref_before_s": ref_before,
        "ref_after_s": ref_after,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.write(spec["spans_path"])
        out["layers"] = tracer.metrics()
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    try:
        result = main(spec)
    except Exception:  # reported to the parent, which counts the failure
        result = {"ok": False, "failures": [traceback.format_exc(limit=4)]}
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["ok"] else 1)
