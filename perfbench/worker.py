"""Run one workload in this process and print the raw measurements as one
JSON line.  ``run.py`` starts this in a fresh interpreter per run, so one
workload's heap never inflates another's peak memory.

Jobs run closed-loop and back to back: one client, no worker threads.
Passes over the whole job list repeat while the next pass is expected to
end within ``--seconds``; there is always at least one pass (with
``--trace 1``, at least one untraced and one traced pass, alternating).
Each job is timed alone; extracting its observation for the oracle
happens after its timer stops.  Each job's time is also given at the
reference speed of ``speed.py`` (``ref_s``), from loop measurements that
``speed.Sampler`` takes while the jobs run.

    PYTHONPATH=src python3 perfbench/worker.py --workload ordered --seed 0 \
        --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing
import workloads as W

SPANS_DIR = Path(__file__).resolve().parents[1] / "perfbench-out"
MIN_SAMPLES = 3


def run_pass(gb, jobs, sampler, tr=None):
    """Run every job once; return each job's time, the same at the
    reference speed, and each job's observation.

    A job's time leaves out what the sampler's handler took during it.
    Jobs are scaled in chunks: a chunk closes after the job that brings its
    loop measurements (those taken during its jobs, one taken before it,
    and one taken after the pass's last job) to MIN_SAMPLES."""
    times, ref, obs = [], [], []
    chunk, cals = [], [speed.calibrate()]
    for i, job in enumerate(jobs):
        cals += sampler.take()[0]
        t0 = perf_counter()
        with tr.job(i) if tr is not None else contextlib.nullcontext():
            out = W.run_job(gb, job)
        t = perf_counter() - t0
        samples, spent = sampler.take()
        chunk.append(t - spent)
        cals += samples
        obs.append(W.observe(job, out))
        del out  # release the complex before the next job
        last = i == len(jobs) - 1
        if len(cals) >= MIN_SAMPLES or last:
            if last:
                cals.append(speed.calibrate())
            c = statistics.fmean(cals)
            times += chunk
            ref += [speed.at_reference(t, c) for t in chunk]
            chunk, cals = [], cals[-1:]
    return times, ref, obs


def write_spans(path: Path, spans, jobs):
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as f:
        for job_id, sid, parent, name, start, end in sorted(spans, key=lambda s: s[1]):
            f.write(json.dumps({"job": job_id, "label": jobs[job_id].label,
                                "id": sid, "parent": parent, "name": name,
                                "start": start, "end": end}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gb = W.load_package()
    jobs = W.make_jobs(gb, args.workload, args.seed)
    passes, layers, changed = [], [], []
    first = None
    spans = []
    with (tracing.Tracer(gb) if args.trace else contextlib.nullcontext()) as tr, \
            speed.Sampler() as sampler:
        start = perf_counter()
        while True:
            traced = tr is not None and len(passes) % 2 == 1
            p0 = perf_counter()
            times, ref, obs = run_pass(gb, jobs, sampler, tr if traced else None)
            last = perf_counter() - p0
            passes.append({"traced": traced, "job_s": times, "ref_s": ref})
            if traced:
                layers.append(tracing.layer_metrics(tr.spans, tr.counts))
                spans = list(tr.spans)
                tr.reset()
            if first is None:
                first = obs
                # later passes raise the peak by allocator fragmentation,
                # so the number of passes that fit would show in it
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                changed.extend([len(passes) - 1, i, o]
                               for i, o in enumerate(obs) if o != first[i])
            minimum = 2 if tr is not None else 1
            if len(passes) >= minimum and perf_counter() - start + last > args.seconds:
                break
    if spans:
        write_spans(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    spans, jobs)
    print(json.dumps({
        "labels": [j.label for j in jobs],
        "passes": passes,
        "observations": first,
        "changed": changed,
        "layers": layers,
        "peak_rss_kb": peak_kb,
    }))


if __name__ == "__main__":
    main()
