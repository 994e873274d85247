"""Print one line per benchmark job: its exit code and the sha256 of its stdout and stderr.

    python3 tools/job_digests.py [SEEDS...]        (default: 1)

Runs every job of the ``dual``, ``birkhoff`` and ``verify`` workloads of
``perfbench`` for each seed, in job order, each in its own process, on inputs
written under ``.bench_build/digests/``.  Two checkouts that print the same
lines gave byte-identical output on every job.  Paths are relative to the
checkout, so no output names the directory it ran in.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402
from perfbench.run import run_job  # noqa: E402


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv) -> int:
    os.chdir(ROOT)
    for seed in [int(s) for s in argv] or [1]:
        for name in workloads.WORKLOADS:
            outdir = os.path.join(".bench_build", "digests", f"{name}-{seed}")
            for job in workloads.build(name, seed, outdir).jobs:
                row = run_job(job, outdir)
                base = os.path.join(outdir, job.name)
                print(seed, name, job.name, row["exit"], sha256_of(base + ".out"), sha256_of(base + ".err"),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
