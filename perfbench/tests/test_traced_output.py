"""Tracing must not change what a job prints or how it exits."""

import os

import pytest

from perfbench import run, workloads

# One cheap job of each workload.
JOBS = {
    "dual": "convolve-trees6-d6-chars",
    "birkhoff": "birkhoff-trees6-d6-p2-trunc",
    "verify": "verify-ladder-d4-0",
}


@pytest.mark.parametrize("workload", sorted(JOBS))
def test_traced_output_is_identical(workload, tmp_path):
    w = workloads.build(workload, 3, str(tmp_path))
    job = next(j for j in w.jobs if j.name == JOBS[workload])
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = run.run_job(job, str(plain_dir))
    trace_file = str(tmp_path / "job.trace.json")
    traced = run.run_job(job, str(traced_dir), trace_file)
    assert plain["failure"] is None and traced["failure"] is None
    assert plain["exit"] == traced["exit"]
    for suffix in (".out", ".err"):
        with open(os.path.join(plain_dir, job.name + suffix), "rb") as a, \
                open(os.path.join(traced_dir, job.name + suffix), "rb") as b:
            assert a.read() == b.read()
    assert os.path.getsize(trace_file) > 0
