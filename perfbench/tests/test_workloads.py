"""Seeded input generation: deterministic per seed, different across seeds."""

import os

from perfbench import workloads
from perfbench.run import tail


def snapshot(workload, seed, outdir):
    w = workloads.build(workload, seed, str(outdir))
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    argv = [[a.replace(str(outdir), "") for a in job.argv] for job in w.jobs]
    return files, argv


def test_same_seed_same_bytes_and_different_seed_different_values(tmp_path):
    for workload in workloads.WORKLOADS:
        first = snapshot(workload, 7, tmp_path / f"{workload}-a")
        again = snapshot(workload, 7, tmp_path / f"{workload}-b")
        other = snapshot(workload, 8, tmp_path / f"{workload}-c")
        assert first == again
        assert first != other
        # Every pass leaves a percentile with ten samples beyond it.
        assert len(first[1]) > 10


def test_tail_is_highest_percentile_with_ten_beyond():
    value, percentile = tail(list(range(40, 0, -1)))
    assert (value, percentile) == (30, 75.0)
