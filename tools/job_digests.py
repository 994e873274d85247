"""Print one line per benchmark job: its exit code and the sha256 of its stdout and stderr.

    python3 tools/job_digests.py [SEEDS...]                  (default: 1)
    python3 tools/job_digests.py --against REV [SEEDS...]

Runs every job of the ``dual``, ``birkhoff`` and ``verify`` workloads of
``perfbench`` for each seed, in job order, each in its own process, on inputs
written under ``.bench_build/digests/``.  Two checkouts that print the same
lines gave byte-identical output on every job.  Paths are relative to the
checkout, so no output names the directory it ran in.

With ``--against REV``, REV (a commit that has this tool) is exported with
``git archive`` under ``.bench_build/digests/against/``; its own tool runs
there, then this checkout's, with the same seeds.  Each line that only one
side printed is printed tagged with that side (REV or ``worktree``), a count
goes to stderr, and the exit code is 1 when any line differs, 0 when none
does, and 2 when either side could not be run.
"""

import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join("tools", "job_digests.py")
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402
from perfbench.run import run_job  # noqa: E402


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(seeds) -> int:
    os.chdir(ROOT)
    for seed in [int(s) for s in seeds] or [1]:
        for name in workloads.WORKLOADS:
            outdir = os.path.join(".bench_build", "digests", f"{name}-{seed}")
            for job in workloads.build(name, seed, outdir).jobs:
                row = run_job(job, outdir)
                base = os.path.join(outdir, job.name)
                print(seed, name, job.name, row["exit"], sha256_of(base + ".out"), sha256_of(base + ".err"),
                      flush=True)
    return 0


def fail(message: str):
    """Exit 2, apart from the 1 that means a difference."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def lines_of(checkout: str, seeds) -> list:
    """The lines this tool prints in ``checkout`` for ``seeds``."""
    run = subprocess.run([sys.executable, os.path.join(checkout, TOOL), *seeds], cwd=checkout,
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        fail(f"{TOOL} exited {run.returncode} in {checkout}")
    return run.stdout.splitlines()


def against(rev: str, seeds) -> int:
    export = os.path.join(ROOT, ".bench_build", "digests", "against")
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        fail(archive.stderr.decode(errors="replace").strip())
    shutil.rmtree(export, ignore_errors=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(export)
    if not os.path.exists(os.path.join(export, TOOL)):
        fail(f"{rev} has no {TOOL}")
    theirs = lines_of(export, seeds)
    ours = lines_of(ROOT, seeds)
    differ = 0
    for tag, lines, other in ((rev, theirs, set(ours)), ("worktree", ours, set(theirs))):
        for line in lines:
            if line not in other:
                differ += 1
                print(tag, line, flush=True)
    print(f"{len(theirs)} lines at {rev}, {len(ours)} in the worktree, {differ} only on one side", file=sys.stderr)
    return int(differ > 0)


def main(argv) -> int:
    if argv[:1] == ["--against"]:
        if len(argv) < 2:
            fail("--against needs a revision")
        return against(argv[1], argv[2:])
    return digests(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
