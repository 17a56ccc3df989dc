"""Record the reference outputs of the deterministic workloads.

    python3 perfbench/record_reference.py [grid-solve] [recurrence-read]

Run from the root of a checkout.  Each run of these workloads compares a
sampled subset of its order-one outputs (Phi densities, Z values,
recurrence CDFs) and its check verdicts with the stored file, so record
only from a commit whose numbers are trusted.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))


def main(names) -> int:
    from checks import Checks, write_reference
    from workloads import REFERENCE_DIR, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or [w.name for w in WORKLOADS.values() if w.has_reference]:
        workload = WORKLOADS[name]
        ctx = workload.build(0)
        checks = Checks()
        arrays, _ = workload.run(ctx, ctx.generators(), checks)
        if checks.failed:
            print(f"{name}: {checks.failed} checks fail; not recording", file=sys.stderr)
            return 1
        write_reference(REFERENCE_DIR / f"{name}.json", arrays, checks.verdicts())
        print(f"{name}: {len(arrays)} arrays, {len(checks.verdicts())} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
