"""Record ``golden.json``: the full homology of every job of the fixed
workloads and of the corpus seeds ``oracle.GOLDEN_SEEDS``, keyed by the
job's input and the setting ``n/flavor``.  A result is recorded only after
the independent checks (Euler series, H1 formula, presentation
abelianization) pass and the job raised nothing; any failure stops the
recording.

    PYTHONPATH=src python3 perfbench/record_golden.py
"""

from __future__ import annotations

import oracle
import workloads as W


def main():
    gb = W.load_package()
    jobs = [j for w in W.FIXED for j in W.make_jobs(gb, w, 0)]
    for seed in oracle.GOLDEN_SEEDS:
        jobs.extend(W.make_jobs(gb, "corpus", seed))
    golden = oracle.Golden()
    skipped = 0
    for job in jobs:
        obs = W.observe(job, W.run_job(gb, job))
        bad, _ = oracle.check(obs, None)
        if bad:
            raise SystemExit(f"{job.label}: {bad}")
        if obs["error"]:
            skipped += 1
            continue
        golden.record(job.key, oracle.setting_key(job.n, job.flavor),
                      obs["homology"])
    golden.dump()
    print(f"recorded {len(golden.jobs)} inputs from {len(jobs)} jobs; "
          f"{skipped} jobs raised and were not recorded")


if __name__ == "__main__":
    main()
