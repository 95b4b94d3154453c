"""The repository benchmark: time to homology on four workloads.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src/``.
Each run starts fresh interpreters: several that only import the package
(``setup_s``), then one that runs the workload (``worker.py``), then
several more that only import it.  All of them get PYTHONHASHSEED=0, so
every run makes the same set and dict orders.  Every job's answer is then
checked here by ``oracle.py``, outside the timed region.

Every time is reported at the reference speed of ``speed.py``: scaled by
a calibration loop measured in the same process while the jobs run (or
around the import), because on a shared VM the CPU's speed can drift by
half for seconds to minutes at a time.  The unscaled figures are printed
above the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones:

* ``wall_s``: time to solution for the workload's whole job list (the sum
  of its job times in one pass), median over the run's passes;
* ``job_ms.p50``, ``job_ms.p90``: per-job latency, by nearest rank over
  the workload's jobs, each job's latency the median over the run's passes
  (a workload of two jobs otherwise reports the slower pass of one of
  them); the sample count is printed above the result;
* ``setup_s``: median time for a fresh interpreter to ``import graphbraids``;
* ``peak_rss_mb``: peak resident memory of the process that ran the jobs,
  up to the end of its first pass;
* ``ok_frac``: jobs that neither raised nor failed a check in any pass,
  over the workload's jobs.

``attempted`` is the number of the workload's jobs and ``failed`` the
number of them that raised or failed a check in any pass, with causes
printed.  Each job runs once per pass, and how many passes fit in
``--seconds`` depends on the machine's speed; counting jobs rather than
job runs makes both counts a function of the seed alone.

With ``--trace 1`` the jobs run with the span wrappers of ``tracer.py``, in
passes alternating with untraced ones, and the metrics are per layer
(medians over traced passes, each summed over one pass).  A layer's time is its self time where it has traced
children.  ``trace.overhead_s`` is traced minus untraced ``wall_s``; the
layers' self times plus ``harness.self_s`` add up to ``trace.wall_s``.

``correct`` is false when any job returned a wrong answer, or when a job of
the fixed workloads or of a corpus seed in ``oracle.GOLDEN_SEEDS`` raised
nothing and has no golden entry.  A job that raises is not a wrong answer;
it counts in ``failed``.  Seed 0 is the one to tune on; seed 7 is held out
for checking later claims.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oracle
import speed
import tracer as tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6  # before the worker, and as many after it
WORKER_TIMEOUT_S = 150
# the import's time and the calibration loop's mean time around it
IMPORT_PROBE = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
from speed import calibrate
c = [calibrate() for _ in range(4)]
t = time.perf_counter()
import graphbraids
t = time.perf_counter() - t
c += [calibrate() for _ in range(4)]
print(t, sum(c) / len(c))
"""

UNITS = {"job_ms.p50": "ms", "job_ms.p90": "ms", "peak_rss_mb": "MB",
         "ok_frac": "ratio", "cells.critical_ratio": "ratio"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    xs = sorted(samples)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env) -> list[tuple[float, float]]:
    """(import time, calibration time) of fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        t, cal = res.stdout.strip().splitlines()[-1].split()
        times.append((float(t), float(cal)))
    return times


def run_worker(args, env) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    res = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=WORKER_TIMEOUT_S)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"worker exited with code {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def verify(data: dict, golden: oracle.Golden, required: bool):
    """Check every observation; return (failed jobs, wrong answers, causes,
    golden coverage).  A job fails if it raised or failed a check in any
    pass; it counts once, and so does each of its causes.  A later pass
    that repeats the first pass's observation exactly needs no second
    check."""
    labels = data["labels"]
    checked = [(obs, *oracle.check(obs, golden, required))
               for obs in data["observations"]]
    covered = sum(cov for _, _, cov in checked)
    verdicts = [(obs, bad) for obs, bad, _ in checked]
    per_pass = [list(verdicts) for _ in data["passes"]]
    for p, i, obs in data["changed"]:
        per_pass[p][i] = (obs, oracle.check(obs, golden, required)[0])
    wrong = []
    job_causes = [set() for _ in labels]
    for p, verdict in enumerate(per_pass):
        for i, (label, (obs, bad)) in enumerate(zip(labels, verdict)):
            if obs["error"]:
                job_causes[i].add(f"{obs['step']} raised {obs['error']}")
            for b in bad:
                job_causes[i].add(f"check failed: {b.split(':')[0]}")
                wrong.append(f"pass {p} {label}: {b}")
    causes = Counter(c for cs in job_causes for c in cs)
    failed = sum(bool(cs) for cs in job_causes)
    return failed, wrong, causes, covered


def over_passes(passes, value) -> float:
    return statistics.median(value(p) for p in passes)


def wall(p) -> float:
    """A pass's time to solution at the reference speed."""
    return sum(p["ref_s"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "graphbraids" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")

    env = child_env()
    setup = measure_setup(env) if not args.trace else []
    data = run_worker(args, env)
    if not args.trace:
        setup += measure_setup(env)
    required = args.workload in W.FIXED or args.seed in oracle.GOLDEN_SEEDS
    failed, wrong, causes, covered = verify(data, oracle.Golden.load(), required)

    passes = data["passes"]
    n_jobs = attempted = len(data["labels"])
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{n_jobs} jobs ({len(traced)} traced), closed loop, one client")
    print(f"failed {failed} of {attempted} jobs ({failed / attempted:.4f}) "
          f"in one pass or more")
    for cause, k in causes.most_common():
        print(f"  {k} x {cause}")
    for w in wrong[:20]:
        print(f"  WRONG {w}")
    print(f"golden table covered {covered} of {n_jobs} jobs"
          + (" (entries required)" if required else ""))
    print(f"times at the reference speed of speed.py; untraced wall_s "
          f"{over_passes(untraced, wall):.4f}, unscaled "
          f"{over_passes(untraced, lambda p: sum(p['job_s'])):.4f}")

    if args.trace:
        for p, m in zip(traced, data["layers"]):
            # the spans include the sampler's time; scaling them to the
            # pass's wall_s takes it out of each layer in proportion
            f = wall(p) / sum(m[k] for k in tracing.PARTITION)
            p["layers"] = {k: v * f if unit(k) == "s" else v for k, v in m.items()}
        metrics = {name: over_passes(traced, lambda p: p["layers"][name])
                   for name in data["layers"][0]}
        tw = over_passes(traced, wall)
        uw = over_passes(untraced, wall)
        metrics["trace.wall_s"] = tw
        metrics["trace.overhead_s"] = tw - uw
        parts = sum(metrics[k] for k in tracing.PARTITION)
        print(f"traced wall_s {tw:.4f}; layer self times and harness "
              f"{parts:.4f}; untraced wall_s {uw:.4f}; tracing overhead "
              f"{tw - uw:.4f}")
    else:
        job_ms = [1000 * over_passes(passes, lambda p: p["ref_s"][i])
                  for i in range(n_jobs)]
        print(f"job_ms samples: {n_jobs} jobs, each the median of its "
              f"{len(passes)} runs; unscaled setup_s "
              f"{statistics.median(t for t, _ in setup):.4f}")
        metrics = {
            "wall_s": over_passes(passes, wall),
            "job_ms.p50": percentile(job_ms, 0.5),
            "job_ms.p90": percentile(job_ms, 0.9),
            "setup_s": statistics.median(speed.at_reference(t, c) for t, c in setup),
            "peak_rss_mb": data["peak_rss_kb"] / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
