"""Run one workload of the ditsp benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload sgs-scaling --seed 1 --seconds 40 --trace 0

The process imports ditsp from ``src/`` of the checkout, single-threaded,
then:

1. makes the workload's inputs from ``--seed`` and warms up in process;
2. repeats the workload's job, checking every job's outputs, for as long as
   the whole run, from its start, still ends within ``--seconds``
   (``run_seconds`` of BENCHMARK.json by default);
3. before the first job and after every job, times a fixed reference loop
   that uses no ditsp code, and after each of the first ``SETUP_PROBES``
   jobs, one fresh interpreter that imports ditsp and calls each entry point
   once on a tiny input (``setup_s`` is their median);
4. prints one line per metric, and as its last line a JSON object with the
   keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``norm_wall_s`` is ``REF_S`` times the median over jobs of the job's wall
time over the mean time of the reference loops just before and after it:
the job's time on a host that runs the loop in ``REF_S`` seconds.  The
shared host this was tuned on ran the same code up to 1.4 times slower for
minutes at a time; the loop slows with it, so the ratio repeats better than
the raw median, which is printed too.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
it alternates untraced jobs with jobs traced by :mod:`layers`, times no
set-up, and reports the per-layer metrics instead.  ``--tiny`` shrinks every
input, for the smoke test.  Temporary files go to ``.bench_tmp/`` in the
checkout and are removed.
"""

import os

# fixed before numpy is first imported, here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 3
# time of one reference loop on a host at the speed the baseline was recorded
# at, so that norm_wall_s reads as seconds
REF_S = 0.04
DEFAULT_SEED = 1
HELDOUT_SEED = 2

E2E_UNITS = {"norm_wall_s": "s", "setup_s": "s", "norm_targets_per_s": "1/s",
             "peak_rss_mb": "MiB", "bound_ratio": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own smoke test")
    return p.parse_args(argv)


def revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def make_reference():
    """A function that runs the fixed reference loop once and returns its
    wall time: interpreted Python, a sort and streaming array arithmetic,
    the three kinds of work the jobs do, on inputs that never change.  It
    writes into buffers made here, so that it faults in no new memory: the
    cost of that depends on what the job before it freed."""
    import numpy as np

    rng = np.random.default_rng(0)
    small, big = rng.uniform(size=200_000), rng.uniform(size=1_000_000)
    small_out, big_out = np.empty_like(small), np.empty_like(big)

    def reference():
        t0 = perf_counter()
        acc, table = 0, {}
        for i in range(100_000):
            acc += i * i % 7
            table[i & 1023] = acc
        for _ in range(3):
            np.copyto(small_out, small)
            small_out.sort()
            np.multiply(big, big, out=big_out)
            np.sqrt(big_out, out=big_out)
            big_out.sum()
        return perf_counter() - t0

    return reference


def setup_once(tmp: Path) -> float:
    """Wall time of a fresh process that imports ditsp and warms it up."""
    code = ("import pathlib, sys; sys.path.insert(0, %r); import workloads; "
            "workloads.warm_up(pathlib.Path(%r))" % (str(HERE), str(tmp)))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class Tally:
    """Checks attempted and failed, and the digest every job must repeat."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.digest = None

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def outcome(self, outcome, label):
        for name, ok in outcome.checks:
            self.check(name, ok)
        if self.digest is None:
            self.digest = outcome.digest
        else:
            self.check(f"{label} job repeats the first job's digest",
                       outcome.digest == self.digest)


def repeat(job, deadline, probe=None):
    """Call ``job`` until ``deadline``, and ``probe`` after each of the first
    ``SETUP_PROBES`` jobs; return the probes' results.

    A job is not begun if it, as long as the longest job so far, and the
    probes still owed, as long as the longest probe so far, would end after
    ``deadline``.  The first job and every probe run regardless.
    """
    jobs, probes = [], []
    owed = SETUP_PROBES if probe else 0
    while True:
        left = owed - len(probes)
        if jobs and (perf_counter() + max(jobs)
                     + left * max(probes, default=0.0) > deadline):
            break
        t0 = perf_counter()
        job()
        jobs.append(perf_counter() - t0)
        if left:
            probes.append(probe())
    return probes + [probe() for _ in range(owed - len(probes))]


def timed_job(wl, inp, tally, label, tracer=None):
    """One job, inside ``tracer`` if given, then its checks; (wall, outcome)."""
    with tracer or nullcontext():
        t0 = perf_counter()
        out = wl.job(inp)
        wall = perf_counter() - t0
    outcome = wl.evaluate(inp, out)
    tally.outcome(outcome, label)
    return wall, outcome


def run_untraced(wl, inp, deadline, tally, tmp):
    """Jobs with the reference loop before the first and after each; returns
    the jobs' walls, each job's wall over the mean of the loops either side
    of it, the set-up probes and the last outcome."""
    walls, ratios, last = [], [], []
    reference = make_reference()
    refs = [reference()]

    def one_job():
        wall, outcome = timed_job(wl, inp, tally, "untraced")
        refs.append(reference())
        walls.append(wall)
        ratios.append(wall / ((refs[-2] + refs[-1]) / 2))
        last[:] = [outcome]  # earlier outcomes are not kept alive

    setups = repeat(one_job, deadline, lambda: setup_once(tmp))
    return walls, ratios, setups, last[0]


def run_traced(wl, inp, deadline, tally):
    import layers

    plain, traced, per_job, outcomes = [], [], [], []

    def pair():
        plain.append(timed_job(wl, inp, tally, "untraced")[0])
        tracer = layers.Tracer()
        wall, outcome = timed_job(wl, inp, tally, "traced", tracer)
        traced.append(wall)
        outcomes.append(outcome)
        per_job.append(tracer.layer_metrics(wall))

    repeat(pair, deadline)
    outcome = outcomes[-1]
    # counts repeat exactly from job to job; times take the median
    metrics = {name: (statistics.median_low if isinstance(value, int)
                      else statistics.median)([job[name] for job in per_job])
               for name, value in per_job[0].items()}
    # each traced job is compared with the untraced job just before it, so
    # that both see the same speed of a machine whose speed drifts
    metrics["bench.tracing_overhead_frac"] = statistics.median(
        t / p - 1.0 for t, p in zip(traced, plain))
    metrics["etsp.tour_len_ratio"] = outcome.extra.get("tour_len_ratio", 0.0)
    return metrics


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ditsp" / "__init__.py").is_file():
        print(f"error: no ditsp sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import numpy
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    print(f"# python {sys.version.split()[0]} numpy {numpy.__version__} "
          f"scipy {scipy.__version__} nproc {os.cpu_count()} "
          f"revision {revision()} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    deadline = START + args.seconds
    try:
        workloads.warm_up(tmp)
        inp = wl.inputs(args.seed, args.tiny, tmp)
        tally = Tally()
        if args.trace:
            metrics = run_traced(wl, inp, deadline, tally)
        else:
            walls, ratios, setups, outcome = run_untraced(wl, inp, deadline,
                                                          tally, tmp)
            wall = statistics.median(walls)
            norm_wall = REF_S * statistics.median(ratios)
            setup = statistics.median(setups)
            print(f"# {len(walls)} jobs, wall min {min(walls):.4f} "
                  f"median {wall:.4f} max {max(walls):.4f} s")
            print(f"# job / reference loop min {min(ratios):.2f} "
                  f"median {statistics.median(ratios):.2f} "
                  f"max {max(ratios):.2f}")
            print(f"# wall_s {wall!r} s, targets_per_s "
                  f"{outcome.targets / wall!r} 1/s (raw)")
            print(f"# {len(setups)} set-ups, min {min(setups):.4f} "
                  f"median {setup:.4f} max {max(setups):.4f} s")
            for name, value in outcome.extra.items():
                print(f"# {name} {value!r}")
            metrics = {
                "norm_wall_s": norm_wall,
                "setup_s": setup,
                "norm_targets_per_s": outcome.targets / norm_wall,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "bound_ratio": outcome.bound_ratio,
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is using it

    units = E2E_UNITS if not args.trace else {m: unit_of(m) for m in metrics}
    for name in tally.failed:
        print(f"# FAILED check: {name}")
    print(f"# digest {tally.digest}")
    print(f"# failed_frac {len(tally.failed) / tally.attempted!r} "
          f"({len(tally.failed)} of {tally.attempted} checks)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
