"""Smoke test: every workload at reduced size, with tracing off and on.

    python3 perfbench/smoke.py            # from the root of a checkout
    python3 -m pytest perfbench/smoke.py

Checks that each run exits 0, that every check passed, and that the last
line names exactly the metrics BENCHMARK.json lists, each a number with its
unit.  It checks no timing.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            assert set(got) == set(want), set(got) ^ set(want)
            for name, m in got.items():
                assert m["unit"] == want[name], name
                assert isinstance(m["value"], (int, float)), name
                assert math.isfinite(m["value"]), name
            print("ok  {:<13} trace {}  {} metrics".format(w["name"], trace, len(got)))


if __name__ == "__main__":
    test_smoke()
