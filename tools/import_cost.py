"""Print what ``import ditsp.cli`` and ``import ditsp.dtrp`` cost a fresh
interpreter.

    python3 tools/import_cost.py

For each module of ``MODULES``, starts ``ROUNDS`` fresh interpreters one
after another, each with one BLAS and OpenMP thread as the benchmark runs,
and has each import the module and report the import's wall time, its peak
resident memory (``ru_maxrss`` of the interpreter after the import, which
includes the interpreter itself), the scipy subpackages and the ditsp
modules it loaded.  Prints the medians, the range of each, and the modules
loaded, which every round loads alike.  ditsp comes from ``src/`` of the
checkout this file sits in, so two checkouts can be compared with the same
script.  ``ditsp.cli`` is the import part of the benchmark's ``setup_s``
and the floor under every workload's ``peak_rss_mb``, measured apart from
them; ``ditsp.dtrp`` is what the DTRP policies alone need.
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
MODULES = ("ditsp.cli", "ditsp.dtrp")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = """
import importlib, json, resource, sys, time
start = time.perf_counter()
importlib.import_module(sys.argv[1])
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy": sorted({m.split(".")[1] for m in sys.modules
                     if m.startswith("scipy.")
                     and not m.split(".")[1].startswith("_")}),
    "ditsp": sorted(m.split(".")[1] for m in sys.modules
                    if m.startswith("ditsp."))}))
"""


def _probe(env, module) -> dict:
    out = subprocess.run([sys.executable, "-c", PROBE, module], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120)
    return json.loads(out.stdout)


def main() -> int:
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": str(SRC)}
    print(f"# python {platform.python_version()}, {platform.machine()}, "
          f"{ROUNDS} fresh interpreters per module, ditsp from "
          f"{SRC.parent.name}/src")
    for module in MODULES:
        runs = [_probe(env, module) for _ in range(ROUNDS)]
        for key, unit in (("seconds", "s"), ("maxrss_mib", "MiB")):
            values = [run[key] for run in runs]
            print(f"import {module} {key}: median "
                  f"{statistics.median(values):.3f} {unit} "
                  f"(min {min(values):.3f}, max {max(values):.3f})")
        print(f"import {module} loads scipy subpackages: "
              + (" ".join(runs[0]["scipy"]) or "none"))
        print(f"import {module} loads ditsp modules: "
              + " ".join(runs[0]["ditsp"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
