"""In-memory spans and counters around belljump's public functions.

The instrument lives entirely in the benchmark: it replaces module
attributes with wrappers for the duration of one traced repetition and
puts every original back afterwards.  The package itself is not edited.

Each wrapper is installed where its caller looks the name up.
jump_process binds integrate, emit_trajectory and total_jump_rate at
import, so those names are wrapped in belljump.jump_process; the
trajectory.integrate call inside emit_trajectory is wrapped separately
and becomes a child span of its flight, not a second flight.  Only the
jump_process copy of total_jump_rate is counted, so the master-equation
oracle's rate evaluations are not thinning proposals.  Calls that take
microseconds (total_jump_rate, CoefficientTrack.coefficients) get
counters only, no timers.

A span is (name, start, end, parent index).  A span's self time is its
duration minus the durations of its direct children; calls are nested
on one thread, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter

now = time.perf_counter

#: Report functions whose spans make up ensemble.report_s.
_REPORTS = ("sector0_comparison", "flux_report", "angle_uniformity_test")

#: Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "trajectory.flights": "count",
    "trajectory.flights_absorbed": "count",
    "trajectory.flights_left_inner": "count",
    "trajectory.flights_time_exhausted": "count",
    "trajectory.steps_accepted": "count",
    "trajectory.steps_rejected": "count",
    "trajectory.step_accept_ratio": "ratio",
    "trajectory.steps_per_flight": "count",
    "trajectory.busy_s": "s",
    "trajectory.us_per_step": "us",
    "trajectory.probe_crossings": "count",
    "jump_process.waits": "count",
    "jump_process.wait_busy_s": "s",
    "jump_process.wait_us": "us",
    "jump_process.thinning_proposals": "count",
    "jump_process.thinning_accepts": "count",
    "jump_process.thinning_accept_ratio": "ratio",
    "jump_process.coeff_lookups": "count",
    "jump_process.path_self_s": "s",
    "ensemble.paths": "count",
    "ensemble.parked_paths": "count",
    "ensemble.emissions": "count",
    "ensemble.absorptions": "count",
    "ensemble.path_ms_p50": "ms",
    "ensemble.path_ms_p99": "ms",
    "ensemble.draw_self_s": "s",
    "ensemble.accumulate_s": "s",
    "ensemble.accumulate_us_per_path": "us",
    "ensemble.sampler_s": "s",
    "ensemble.oracle_s": "s",
    "ensemble.report_s": "s",
    "wavefunction.mass_profile_calls": "count",
    "wavefunction.mass_profile_s": "s",
    "cli.self_s": "s",
    # measured by run.py from the untraced and traced repetitions
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    # -----------------------------------------------------------------
    # wrapping
    # -----------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, on_result=None):
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr, name):
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self):
        from belljump import cli, ensemble, jump_process, trajectory, wavefunction

        c = self.counts

        def flight(segment):
            kind = type(segment.terminal).__name__
            c["trajectory.flights"] += 1
            c["trajectory.flights." + kind] += 1
            c["trajectory.steps_accepted"] += segment.n_accepted
            c["trajectory.steps_rejected"] += segment.n_rejected
            c["trajectory.probe_crossings"] += len(segment.probe_crossings)

        def wait(t_jump):
            c["jump_process.waits"] += 1
            if t_jump is not None:
                c["jump_process.thinning_accepts"] += 1

        def path(p):
            c["ensemble.paths"] += 1
            if not p.entries:
                c["ensemble.parked_paths"] += 1
            for event in p.events:
                kind = "emissions" if hasattr(event, "theta0") else "absorptions"
                c["ensemble." + kind] += 1

        self.span(jump_process, "integrate", "trajectory.integrate", flight)
        self.span(jump_process, "emit_trajectory", "trajectory.emit_trajectory", flight)
        self.span(trajectory, "integrate", "trajectory.integrate")
        self.span(jump_process, "sample_waiting_time", "jump_process.sample_waiting_time", wait)
        self.counter(jump_process, "total_jump_rate", "jump_process.thinning_proposals")
        self.counter(jump_process.CoefficientTrack, "coefficients", "jump_process.coeff_lookups")
        self.span(ensemble, "simulate_path", "jump_process.simulate_path")
        self.span(ensemble, "run_ensemble", "ensemble.run_ensemble")
        self.span(ensemble, "draw_path", "ensemble.draw_path", path)
        self.span(ensemble, "make_initial_sampler", "ensemble.make_initial_sampler")
        self.span(ensemble, "master_equation_occupancy", "ensemble.master_equation_occupancy")
        for attr in _REPORTS:
            self.span(ensemble, attr, "ensemble.report." + attr)
        # the sampler's binding and the one particle_sector_mass uses
        self.span(ensemble, "radial_mass_profile", "wavefunction.radial_mass_profile")
        self.span(wavefunction, "radial_mass_profile", "wavefunction.radial_mass_profile")
        self.span(cli, "dispatch", "cli.dispatch")

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -----------------------------------------------------------------
    # reduction
    # -----------------------------------------------------------------

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": names,
                    "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                    "counters": dict(sorted(self.counts.items())),
                },
                fh,
            )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, keyed as in BENCHMARK.json (values only)."""
        child = [0.0] * len(self.spans)
        for _, a, b, parent in self.spans:
            if parent >= 0:
                child[parent] += b - a
        total: Counter = Counter()
        own: Counter = Counter()
        draws = []
        for i, (name, a, b, _) in enumerate(self.spans):
            total[name] += b - a
            own[name] += b - a - child[i]
            if name == "ensemble.draw_path":
                draws.append(b - a)

        c = self.counts
        flights = c["trajectory.flights"]
        acc, rej = c["trajectory.steps_accepted"], c["trajectory.steps_rejected"]
        busy = sum(v for k, v in own.items() if k.startswith("trajectory."))
        waits = c["jump_process.waits"]
        proposals = c["jump_process.thinning_proposals"]
        paths = c["ensemble.paths"]
        accumulate = own["ensemble.run_ensemble"]
        return {
            "trajectory.flights": flights,
            "trajectory.flights_absorbed": c["trajectory.flights.Absorbed"],
            "trajectory.flights_left_inner": c["trajectory.flights.LeftInnerRegion"],
            "trajectory.flights_time_exhausted": c["trajectory.flights.TimeExhausted"],
            "trajectory.steps_accepted": acc,
            "trajectory.steps_rejected": rej,
            "trajectory.step_accept_ratio": _ratio(acc, acc + rej),
            "trajectory.steps_per_flight": _ratio(acc + rej, flights),
            "trajectory.busy_s": busy,
            "trajectory.us_per_step": 1e6 * _ratio(busy, acc + rej),
            "trajectory.probe_crossings": c["trajectory.probe_crossings"],
            "jump_process.waits": waits,
            "jump_process.wait_busy_s": total["jump_process.sample_waiting_time"],
            "jump_process.wait_us": 1e6 * _ratio(total["jump_process.sample_waiting_time"], waits),
            "jump_process.thinning_proposals": proposals,
            "jump_process.thinning_accepts": c["jump_process.thinning_accepts"],
            "jump_process.thinning_accept_ratio": _ratio(c["jump_process.thinning_accepts"], proposals),
            "jump_process.coeff_lookups": c["jump_process.coeff_lookups"],
            "jump_process.path_self_s": own["jump_process.simulate_path"],
            "ensemble.paths": paths,
            "ensemble.parked_paths": c["ensemble.parked_paths"],
            "ensemble.emissions": c["ensemble.emissions"],
            "ensemble.absorptions": c["ensemble.absorptions"],
            "ensemble.path_ms_p50": 1e3 * _quantile(draws, 0.50),
            "ensemble.path_ms_p99": 1e3 * _quantile(draws, 0.99),
            "ensemble.draw_self_s": own["ensemble.draw_path"],
            "ensemble.accumulate_s": accumulate,
            "ensemble.accumulate_us_per_path": 1e6 * _ratio(accumulate, paths),
            "ensemble.sampler_s": total["ensemble.make_initial_sampler"],
            "ensemble.oracle_s": total["ensemble.master_equation_occupancy"],
            "ensemble.report_s": sum(total["ensemble.report." + r] for r in _REPORTS),
            "wavefunction.mass_profile_calls": sum(
                1 for s in self.spans if s[0] == "wavefunction.radial_mass_profile"
            ),
            "wavefunction.mass_profile_s": total["wavefunction.radial_mass_profile"],
            "cli.self_s": own["cli.dispatch"],
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _quantile(values, q) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]
