"""A fixed reference computation that measures the machine's speed.

On a shared virtual machine the same repetition can take twice as long
a few minutes later, for reasons outside the process.  The reference is
a fixed amount of work with the workloads' instruction mix, timed in
the same process right before and right after the timed call:

- a pure-Python float loop with function calls (the guiding-field RHS);
- Runge-Kutta-style stages summed with generator expressions (the DP5
  step);
- per-path numpy work: a Philox generator, draws, a small concatenate
  and an interpolation (draw_path and accumulation).

run.py scales the measured times by REFERENCE_S / (measured reference
time), so its figures read as seconds on a machine that runs the
reference in REFERENCE_S.  Nothing here depends on the package, and
the reference runs with the garbage collector off, so the size of the
package's live heap cannot move it either.
"""

from __future__ import annotations

import gc
import math
import time

#: Time of one reference() on the machine the baseline was measured
#: on, when it ran at its usual speed (2 vCPU Intel Xeon VM).
REFERENCE_S = 0.30

_A = (
    (),
    (0.2,),
    (0.075, 0.225),
    (0.98, -3.73, 3.56),
    (2.95, -11.6, 9.82, -0.29),
    (2.85, -10.8, 8.91, 0.28, -0.27),
)


def _float_calls(rounds: int) -> float:
    def f(x, y):
        return math.sqrt(x * x + y * y) * 0.5 + x / (1.0 + y * y)

    acc = 0.0
    kept = []
    for i in range(rounds):
        v = f(i * 1e-3, acc)
        acc = (acc + v) % 7.0
        if i % 8 == 0:
            kept.append((v, acc))
    return acc


def _stages(rounds: int) -> float:
    def rhs(s, c):
        return c.real * s / (1.0 + s * s), c.imag * s / (1.0 + s)

    s, phi, c, h = 1.0, 0.0, 0.3 + 0.7j, 1e-3
    for _ in range(rounds):
        k = [rhs(s, c)]
        for i in range(1, 6):
            a = _A[i]
            k.append(rhs(s + h * sum(a[j] * k[j][0] for j in range(i)), c))
        s += h * sum(0.1 * k[j][0] for j in range(6))
        phi += h * sum(0.1 * k[j][1] for j in range(6))
    return s + phi


def _numpy_small(rounds: int) -> float:
    import numpy as np

    acc = np.empty(0)
    for i in range(rounds):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, i], dtype=np.uint64)))
        x = rng.random()
        acc = np.concatenate([acc[-64:], [x, rng.exponential(1.0)]])
        acc[-1] += float(np.interp(x, (0.0, 0.5, 1.0), (0.0, 1.0, 2.0)))
    return float(acc.sum())


def reference() -> float:
    """Wall time of the fixed reference work, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _float_calls(300_000)
        _stages(14_000)
        _numpy_small(6_000)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
