"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The workload runs in a child
process (perfbench/worker.py) that imports the library from ./src with BLAS
and OpenMP pinned to one thread.  With ``--trace 0`` four more children stop
after set-up, two before the workload's child and two after it, and
``setup_s`` is the median of the five set-up times.  With ``--trace 1`` the
child adds one traced pass and reports per-layer metrics.

Times are at a reference machine speed (see worker.py); the measured times
are kept next to them.  The child runs whole passes, at least two, until
the next would end after ``--seconds``.  ``wall_s`` and ``cpu_s`` are those
of the fastest pass: of the estimators tried (median pass, fastest pass, sum
of per-step minima; see README.md) it varied least from run to run.  The full result
(machine block, every check, every pass and step time) is written to
``.perfbench/<workload>-seed<n>-trace<t>-<UTC time>-<pid>.json``, a new file
for every run; the line before the last names it.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  Exits 2 without a result
if the checkout has no library sources, 1 if the workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("grid-solve", "recurrence-read", "coupling-chain", "path-sim")
# set-up-only children before and after the workload's own child
SETUP_PROBES = 2
DEADLINE_S = 170.0
OUT_DIR = ".perfbench"


def _child(root: Path, args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    began = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "renewal_lab" / "__init__.py").is_file():
        print(f"no library sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"

    def setup_probes() -> list[dict]:
        if args.trace:
            return []
        return [_child(root, [*common, "--setup-only"], DEADLINE_S - (time.monotonic() - began))
                for _ in range(SETUP_PROBES)]

    try:
        setups = setup_probes()
        extra = ["--trace", "1", "--spans-out", f"{stem}-spans.json.gz"] if args.trace else []
        result = _child(root, [*common, *extra], DEADLINE_S - (time.monotonic() - began))
        setups += [result, *setup_probes()]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result["setup_runs_s"] = [s["setup_s"] for s in setups]
    result["setup_runs_raw_s"] = [s["setup_raw_s"] for s in setups]

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": min(result["wall_s"]), "unit": "s"},
            "cpu_s": {"value": min(result["cpu_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(result["setup_runs_s"]), "unit": "s"},
        }
    result["metrics"] = metrics
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"passes={len(result['wall_s'])} result={stem}.json")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
