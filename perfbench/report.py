"""Print every metric of a workload by name and unit, and every check's verdict.

    python3 perfbench/report.py --workload grid-solve [--seed 1] [--seconds 15]

Runs run.py twice from the checkout root: untraced for the end-to-end
metrics, traced for the per-layer ones.  Reads the two result files that
run.py names on its next-to-last stdout line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from checks import verdict
from run import WORKLOADS


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    path = out[-2].split("result=", 1)[1]
    with open(path) as fh:
        return json.load(fh)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args(argv)

    plain = _run(args.workload, args.seed, args.seconds, 0)
    traced = _run(args.workload, args.seed, args.seconds, 1)

    print(f"# {args.workload}, seed {args.seed}, {len(plain['wall_s'])} untraced passes")
    print("machine:", json.dumps(plain["machine"]))
    print("\n## end to end (tracing off)")
    for name, m in plain["metrics"].items():
        print(f"{name:60s} {_fmt(m['value']):>14s} {m['unit']}")
    ratio = plain["failed"] / plain["attempted"]
    print(f"{'check_fail_ratio':60s} {_fmt(ratio):>14s} 1  ({plain['failed']} of {plain['attempted']})")
    print("\n## per layer (one traced pass)")
    for name, m in traced["metrics"].items():
        print(f"{name:60s} {_fmt(m['value']):>14s} {m['unit']}")
    print("\n## checks (traced pass)")
    for check in traced["checks"]:
        measured = ", ".join(f"{k}={_fmt(v)}" for k, v in check["measured"].items())
        print(f"[{verdict(check)}] {check['name']}" + (f": {measured}" if measured else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
