"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py

For each workload, runs the traced benchmark twice with seed 1 and
requires every count metric (everything but times and rates:
lost_levels, contfrac.evals, contfrac.steps, models.a_calls, oracle.n_final,
...) to repeat exactly.  Each run also checks itself that its seed alone
fixes its inputs and that the next seed draws other inputs; that shows in
its ``correct`` field.  Exits 0 when all checks hold.
"""

import json
import subprocess
import sys

from run import HERE, WORKLOADS

SEED = 1
TIMING_UNITS = ("s", "1/s")


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    ok = True
    for name in WORKLOADS:
        first, second = traced(name, SEED), traced(name, SEED)
        counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] not in TIMING_UNITS}
        differ = [k for k, v in counts.items() if second["metrics"][k]["value"] != v]
        good = first["correct"] and second["correct"] and not differ
        ok &= good
        print(f"{name}: {'ok' if good else 'FAILED'}; {len(counts)} count metrics"
              + (f", differ: {differ}" if differ else ", identical"))
        for key in ("lost_levels", "contfrac.evals", "contfrac.steps", "models.a_calls",
                    "oracle.n_final"):
            print(f"  {key:<18} {counts[key]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
