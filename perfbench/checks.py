"""Check verdicts and the comparison against stored reference outputs.

A check is gated (it counts as attempted, and as failed when it does not
hold), an expected failure (attempted; failed when it unexpectedly holds,
as a strict xfail), or recorded (reported only, never counted).
"""

from __future__ import annotations

import json
import math

import numpy as np

# sup-norm relative deviation allowed against the reference outputs
REFERENCE_RTOL = 1e-10
# nodes sampled from every reference array
REFERENCE_SAMPLES = 97


def _plain(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_plain(x) for x in v]
    return v


class Checks:
    """Verdicts of one pass, in evaluation order."""

    def __init__(self):
        self.items: list[dict] = []

    def _add(self, kind: str, name: str, ok, measured: dict) -> None:
        self.items.append({"name": name, "kind": kind, "ok": bool(ok),
                           "measured": {k: _plain(v) for k, v in measured.items()}})

    def gate(self, name: str, ok, **measured) -> None:
        self._add("gate", name, ok, measured)

    def xfail(self, name: str, ok, **measured) -> None:
        self._add("xfail", name, ok, measured)

    def record(self, name: str, **measured) -> None:
        self._add("record", name, True, measured)

    @property
    def attempted(self) -> int:
        return sum(1 for c in self.items if c["kind"] != "record")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.items if c["kind"] != "record" and verdict(c) in ("FAIL", "XPASS"))

    def verdicts(self) -> dict:
        """name -> holds, for every counted check (the reference compares these)."""
        return {c["name"]: c["ok"] for c in self.items if c["kind"] != "record"}


def verdict(check: dict) -> str:
    if check["kind"] == "record":
        return "RECORDED"
    if check["kind"] == "xfail":
        return "XPASS" if check["ok"] else "XFAIL"
    return "PASS" if check["ok"] else "FAIL"


def sample_indices(length: int) -> np.ndarray:
    return np.unique(np.linspace(0, length - 1, REFERENCE_SAMPLES).round().astype(int))


def reference_entry(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=float)
    return {"length": int(values.size), "values": values[sample_indices(values.size)].tolist()}


def write_reference(path, arrays: dict, verdicts: dict) -> None:
    lines = [f" {json.dumps(k)}: {json.dumps(reference_entry(v))}" for k, v in sorted(arrays.items())]
    with open(path, "w") as fh:
        fh.write(f'{{"verdicts": {json.dumps(verdicts, indent=1)},\n')
        fh.write(' "arrays": {\n' + ",\n".join(lines) + "\n }\n}\n")


def compare_reference(checks: Checks, arrays: dict, reference: dict) -> None:
    """Gate every stored array (sup-norm relative deviation) and the verdicts."""
    verdicts = checks.verdicts()
    for key, entry in reference["arrays"].items():
        values = arrays.get(key)
        if values is None or np.asarray(values).size != entry["length"]:
            checks.gate(f"reference {key}", False, missing_or_resized=True)
            continue
        ref = np.asarray(entry["values"])
        got = np.asarray(values, dtype=float)[sample_indices(entry["length"])]
        scale = float(np.max(np.abs(ref)))
        rel = float(np.max(np.abs(got - ref))) / scale if scale > 0.0 else float(np.max(np.abs(got)))
        checks.gate(f"reference {key}", rel <= REFERENCE_RTOL and math.isfinite(rel), sup_rel_dev=rel)
    differ = sorted(k for k, v in reference["verdicts"].items() if verdicts.get(k) != v)
    checks.gate("reference verdicts", not differ, differing=differ)
