"""One workload run in its own process; started by run.py.

Prints one JSON object on its last stdout line.  With ``--setup-only`` it
stops at the first timed call and reports only its set-up time, so run.py
can take the median over several set-ups.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux), so set-up time includes interpreter start.

Times are reported twice: as measured (``*_raw_s``) and at a reference
machine speed.  On a shared machine the speed drifts by tens of percent for
seconds to minutes as other tenants load it.  A fixed calibration kernel is
timed before the first step of every pass, after each step, and right after
set-up.  A step's time at reference speed is its measured time times
``CAL_REF_S`` over the mean of the two calibration times around it; a set-up
time is scaled by the calibration after it.  Steps are about a second long,
so the calibration follows the drift; one calibration around a whole pass
followed it much worse (README.md gives the measurement).
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import sys
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is imported anywhere

# calibration seconds at the reference speed (a quiet 2-vCPU x86 VM)
CAL_REF_S = 1.6e-3
# the fastest pass is reported, so a run makes at least this many
MIN_PASSES = 2


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def calibrate() -> float:
    """Seconds for a fixed interpreter loop plus small numpy calls (median of five, ~8 ms in all).

    Of the kernels tried (interpreter loop, small numpy calls, a long
    convolution, a memory copy, and their blends), interpreter loop plus
    small numpy calls tracked the slowdowns of Volterra solves, coupling
    chains and path simulation best.
    """
    import numpy as np

    small = np.ones(16)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(15000):
            s += i * 0.5
        rng = np.random.default_rng(0)
        for _ in range(300):
            s += float(np.add(small, rng.random(16)).sum())
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def timed_pass(workload, ctx, rngs, checks, reference):
    """Run one pass step by step, timing the calibration kernel before the first step and after each.

    Returns the workload's numbers, the wall and CPU seconds of each step,
    and the calibration times (one more than the steps).
    """
    steps = workload.steps(ctx, rngs, checks, reference)
    walls, cpus, cals = [], [], [calibrate()]
    while True:
        c0, w0 = _cpu(), time.perf_counter()
        try:
            next(steps)
            value = None
        except StopIteration as stop:
            value = stop.value
        walls.append(time.perf_counter() - w0)
        cpus.append(_cpu() - c0)
        cals.append(calibrate())
        if value is not None:
            return value[1], walls, cpus, cals


def at_reference_speed(times, cals) -> float:
    """Sum of step times, each scaled by CAL_REF_S over the mean calibration time around it."""
    return sum(t * 2.0 * CAL_REF_S / (before + after) for t, before, after in zip(times, cals, cals[1:]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import machine
    from checks import Checks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = workload.reference() if workload.has_reference else None
    ctx = workload.build(args.seed)
    rngs = ctx.generators()
    setup_raw = time.monotonic() - args.spawned_at
    setup_cal = statistics.median(calibrate() for _ in range(5))
    setup = {"setup_s": setup_raw * CAL_REF_S / setup_cal, "setup_raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    step_walls, step_cpus, step_cals, passes = [], [], [], []
    started = time.monotonic()
    while True:
        checks = Checks()
        _, walls, cpus, cals = timed_pass(workload, ctx, rngs, checks, reference)
        step_walls.append(walls)
        step_cpus.append(cpus)
        step_cals.append(cals)
        passes.append(checks)
        if (len(step_walls) >= MIN_PASSES
                and time.monotonic() - started + statistics.median(map(sum, step_walls)) > args.seconds):
            break
        rngs = ctx.generators()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall_raw = [sum(w) for w in step_walls]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        **setup,
        "wall_s": [at_reference_speed(w, c) for w, c in zip(step_walls, step_cals)],
        "cpu_s": [at_reference_speed(u, c) for u, c in zip(step_cpus, step_cals)],
        "wall_raw_s": wall_raw,
        "cpu_raw_s": [sum(u) for u in step_cpus],
        "step_wall_raw_s": step_walls,
        "step_cpu_raw_s": step_cpus,
        "step_cal_s": step_cals,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(c.attempted for c in passes),
        "failed": sum(c.failed for c in passes),
        "checks": passes[-1].items,
        "machine": machine.machine_block(BLAS_THREADS),
    }
    if args.trace:
        traced = traced_pass(workload, ctx, statistics.median(wall_raw), reference, args.spans_out)
        result["per_layer"] = traced["per_layer"]
        result["attempted"] += traced["checks"].attempted
        result["failed"] += traced["checks"].failed
        result["checks"] = traced["checks"].items
    print(json.dumps(result))
    return 0


def traced_pass(workload, ctx, untraced_wall: float, reference, spans_out) -> dict:
    """One more pass with every traced function rebound; per-layer metrics from its spans.

    ``trace.overhead_s`` compares measured (not calibrated) times.
    """
    from checks import Checks
    from tracing import LAYERS, Tracer

    checks = Checks()
    rngs = ctx.generators()
    with Tracer() as tracer:
        _, numbers = workload.run(ctx, rngs, checks, reference)
    metrics = tracer.metrics()
    traced_wall = metrics["trace.wall_s"][0]
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) + metrics["trace.unattributed_s"][0]
    checks.gate("layer self times plus unattributed sum to the traced wall time",
                abs(layer_sum - traced_wall) <= 1e-6 * max(traced_wall, 1.0),
                layer_sum_s=layer_sum, traced_wall_s=traced_wall)
    metrics["renewal.closed_form_err"] = numbers.get("renewal.closed_form_err", (0.0, "1"))
    if spans_out:
        with gzip.open(spans_out, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return {"per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, "checks": checks}


if __name__ == "__main__":
    sys.exit(main())
