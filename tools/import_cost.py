"""Print what ``import ditsp.cli`` costs a fresh interpreter.

    python3 tools/import_cost.py

Starts ``ROUNDS`` fresh interpreters one after another, each with one BLAS
and OpenMP thread as the benchmark runs, and has each import ``ditsp.cli``
and report the import's wall time, its peak resident memory
(``ru_maxrss`` of the interpreter after the import, which includes the
interpreter itself) and the scipy subpackages it loaded.  Prints the
medians, the range of each, and the subpackages, which every round loads
alike.  ditsp comes from ``src/`` of the checkout this file sits in, so two
checkouts can be compared with the same script.  This is the import part of
the benchmark's ``setup_s`` and the floor under every workload's
``peak_rss_mb``, measured apart from them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROUNDS = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = """
import json, resource, sys, time
start = time.perf_counter()
import ditsp.cli
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy": sorted({m.split(".")[1] for m in sys.modules
                     if m.startswith("scipy.")
                     and not m.split(".")[1].startswith("_")})}))
"""


def _probe(env) -> dict:
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def main() -> int:
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": str(SRC)}
    runs = [_probe(env) for _ in range(ROUNDS)]
    print(f"# python {platform.python_version()}, {platform.machine()}, "
          f"{ROUNDS} fresh interpreters, ditsp from {SRC.parent.name}/src")
    for key, unit in (("seconds", "s"), ("maxrss_mib", "MiB")):
        values = [run[key] for run in runs]
        print(f"import ditsp.cli {key}: median {statistics.median(values):.3f} "
              f"{unit} (min {min(values):.3f}, max {max(values):.3f})")
    print("scipy subpackages loaded: " + " ".join(runs[0]["scipy"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
