"""Run the benchmark over several seeds and summarise each metric's spread.

From the root of a checkout:

    python3 perfbench/record.py --runs 10 --trace 0 --out perfbench/baseline.json

runs ``run.py`` once per workload and seed (seeds 1..runs, one fresh process
each, one after another, each for BENCHMARK.json's ``run_seconds``), and for every metric prints and records the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
``(q3 - q1) / median``.  The output file keeps untraced and traced records
under ``trace0`` and ``trace1``, next to the machine: CPU model, cache sizes,
core count, Python, numpy and scipy versions, and the commit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (fixes the thread variables before numpy loads)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "revision": run.revision(),
            "threads": {v: os.environ[v] for v in run.THREAD_VARS}}
    try:
        import numpy
        import scipy
        info.update(numpy=numpy.__version__, scipy=scipy.__version__)
    except ImportError:
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


def summarise(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    report = {"seconds": SPEC["run_seconds"], "seeds": [1, args.runs],
              "workloads": {}}
    for workload in args.workloads:
        metrics, elapsed, correct = {}, [], True
        for seed in range(1, args.runs + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            elapsed.append(time.perf_counter() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
        summary = {name: summarise(v) for name, v in metrics.items()}
        report["workloads"][workload] = {
            "correct": correct, "max_run_seconds": max(elapsed),
            "metrics": summary}
        print(f"{workload}: correct={correct} slowest run {max(elapsed):.1f} s")
        for name, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:32s} median {s['median']:.6g}  spread {spread}")
        sys.stdout.flush()
    if args.out:
        # untraced and traced records share one file
        saved = json.loads(args.out.read_text()) if args.out.exists() else {}
        saved.update(machine=machine(), default_seed=run.DEFAULT_SEED,
                     held_out_seed=run.HELDOUT_SEED)
        saved[f"trace{args.trace}"] = report
        args.out.write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
