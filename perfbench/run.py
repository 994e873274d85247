"""hopfalg benchmark: seeded CLI jobs, end-to-end time to verdict, traced layers.

    python3 perfbench/run.py --workload dual --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload dual --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout.  Each job is a fresh process running
``hopfalg.cli.main(argv)`` on files this script generated from the seed; one
client runs one job at a time (a closed loop).  Every output is checked
against ``oracles`` before it counts.  The last line of stdout is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402

# Nominal seconds of one untraced pass, near the pass times at the benchmark's
# first commit on a 2-core x86-64 container.  A run makes seconds // this
# passes (two of each workload at 30 s), so the same --seconds gives the same
# sample count on every commit.
REFERENCE_PASS_S = {"dual": 15.0, "birkhoff": 13.0, "verify": 13.0}
SETUP_EVERY = 3  # jobs between two set-up samples
# Seconds of probe() at the reference host speed: a round figure inside the
# range its median took (0.036 to 0.058 s) on the 2-core x86-64 container where
# the benchmark was defined.  Every reported time is scaled to it; see Clock.
PROBE_REFERENCE_S = 0.05
JOB_TIMEOUT_S = 60.0
TAIL_BEYOND = 10

# Per-layer metrics of the traced run: (metric, span name, field).  Fields are
# "self_s" (span minus the child spans it covers), "total_s" (inclusive) or
# "calls"; sizes and counts come from the tracer's own tallies.
SPAN_METRICS = [("cli.command_s", "cli.command", "total_s")] + [
    (f"{name}_s", name, "self_s")
    for name in (
        "serialize.load", "serialize.dump", "instances.schema_build", "hopf.context_init",
        "duals.exp_star", "duals.log_star", "duals.materialize", "duals.inverse",
        "birkhoff.recursion", "birkhoff.verification", "birkhoff.simplex", "birkhoff.build_loop",
        "birkhoff.beta_data", "birkhoff.rg.theta", "birkhoff.rg.additive", "birkhoff.rg.exponential",
        "birkhoff.rg.residue", "birkhoff.scattering", "axioms.verify", "suites.dual", "suites.birkhoff",
    )
] + [
    (f"{name}.{field}", name, field)
    for name in (
        "hopf.coproduct", "hopf.iterated", "hopf.plus_iterated", "hopf.antipode",
        "algebra.tensor_mul", "algebra.element_mul", "algebra.apply_to_leg",
        "rings.laurent.mul", "rings.laurent.add", "rings.laurent.exp", "rings.laurent.invert",
        "rings.poly.mul", "duals.conv_eval", "birkhoff.tower",
    )
    for field in ("calls", "self_s")
]
SIZE_METRICS = ("hopf.basis_size", "hopf.coproduct_terms", "hopf.iterated_memo_terms", "hopf.antipode_memo_terms")


def per_layer_units():
    units = {m: ("count" if f == "calls" else "s") for m, _, f in SPAN_METRICS}
    units.update({m: "count" for m in SIZE_METRICS + ("rings.qq.ops",)})
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- host speed ---------------------------------------------------------------------------


def probe() -> float:
    """Seconds of a fixed pure-Python loop of rational and dict work: host speed now."""
    start = time.perf_counter()
    x, table = Fraction(1, 3), {}
    for i in range(6000):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
        if x.denominator > 10**12:
            x = Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + x
    return time.perf_counter() - start


class Clock:
    """Scales the measured seconds of each process to the reference host speed.

    On a shared host the same code runs up to 2x slower from one minute to
    the next, and each core drifts on its own.  The benchmark and its jobs are
    pinned to one core, a probe runs before the first process and after each
    one, and a process's seconds are multiplied by PROBE_REFERENCE_S over the
    mean of the probes around it.  The probe never touches the engine, so a
    faster engine reads faster in full.
    """

    def __init__(self):
        probe()  # warm-up
        self.last = probe()

    def scale(self, seconds: float) -> tuple:
        """(seconds at the reference speed, the factor used)."""
        after = probe()
        factor = PROBE_REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return seconds * factor, factor


def pin_to_one_core() -> None:
    """Run this process and every job it starts on one core, the one the probe measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# -- running jobs ---------------------------------------------------------------------


def spawn(args, stdout, stderr):
    """Run one process to exit; return (seconds from start to exit, exit code, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "job.py")] + args,
                            stdout=stdout, stderr=stderr, cwd=ROOT)
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def run_job(job, outdir, trace_file=None) -> dict:
    out_path = os.path.join(outdir, job.name + ".out")
    err_path = os.path.join(outdir, job.name + ".err")
    args = (["--trace", trace_file] if trace_file else []) + ["--"] + job.argv
    with open(out_path, "w") as out, open(err_path, "w") as err:
        seconds, code, rss = spawn(args, out, err)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    try:
        failure = job.check(code, stdout, stderr)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        failure = f"unreadable output: {exc!r}"
    if failure is None and job.extract:
        key, path = job.extract
        with open(path, "w") as fh:
            json.dump(json.loads(stdout)[key], fh)
    row = {"job": job.name, "seconds": seconds, "rss_mb": rss, "exit": code, "failure": failure,
           "degree": job.degree}
    if job.suite_degree is not None:
        row["suite_degree"] = job.suite_degree
        row["reported_suite_degree"] = workloads.reported_suite_degree(stdout)
    return row


def run_pass(w, outdir, clock, trace_dir=None, setup=None) -> list:
    """One pass over the jobs, with a set-up sample after every SETUP_EVERY-th if setup is given.

    A row's seconds are at the reference host speed; wall_seconds were measured.
    """
    rows = {}
    for i, job in enumerate(w.jobs, 1):
        if job.needs and rows[job.needs]["failure"]:
            rows[job.name] = {"job": job.name, "seconds": None, "failure": f"skipped: {job.needs} failed"}
            continue
        trace_file = os.path.join(trace_dir, job.name + ".trace.json") if trace_dir else None
        row = rows[job.name] = run_job(job, outdir, trace_file)
        row["wall_seconds"] = row["seconds"]
        row["seconds"], row["speed"] = clock.scale(row["seconds"])
        if setup and i % SETUP_EVERY == 0:
            setup.measure(clock)
    return list(rows.values())


class Setup:
    """Fresh processes that build every schema context of a workload, timed.

    Samples are taken between jobs, so that they span the run as the jobs do.
    """

    def __init__(self, w, outdir):
        self.argv = ["--setup"] + [f"{schema}:{degree}" for schema, degree in sorted(w.contexts.items())]
        self.err_path = os.path.join(outdir, "setup.err")
        open(self.err_path, "w").close()
        self.times = []

    def measure(self, clock) -> None:
        with open(self.err_path, "a") as err:
            seconds, code, _ = spawn(self.argv, subprocess.DEVNULL, err)
        if code != 0:
            raise SystemExit(f"setup failed with exit code {code}")
        self.times.append(clock.scale(seconds)[0])


# -- statistics -------------------------------------------------------------------------


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes, setup) -> dict:
    rows = [r for p in passes for r in p]
    times = [r["seconds"] for r in rows if r["seconds"] is not None]
    failed = sum(1 for r in rows if r["failure"])
    tail_value, tail_pct = tail(times)
    values = {
        "wall_s": statistics.median(sum(r["seconds"] or 0.0 for r in p) for p in passes),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_value,
        "job_geomean_s": math.exp(statistics.fmean(math.log(t) for t in times)),
        "peak_rss_mb": max(r["rss_mb"] for r in rows if r["seconds"] is not None),
        "ok_ratio": (len(rows) - failed) / len(rows),
        "setup_s": statistics.median(setup.times),
    }
    info = {"tail_percentile": tail_pct, "samples": len(times), "passes": len(passes),
            "failed_ratio": failed / len(rows),
            "measured_wall_s": statistics.median(sum(r.get("wall_seconds") or 0.0 for r in p) for p in passes),
            "speed": statistics.median(r["speed"] for r in rows if r["seconds"] is not None)}
    return {"metrics": values, "info": info, "attempted": len(rows), "failed": failed}


def per_layer(summaries) -> dict:
    """Sum each layer metric over the jobs of one traced pass."""
    values = {}
    for metric, span, field in SPAN_METRICS:
        values[metric] = sum(s["spans"].get(span, {}).get(field, 0) for s in summaries)
    for metric in SIZE_METRICS:
        values[metric] = sum(s["sizes"][metric] for s in summaries)
    values["rings.qq.ops"] = sum(s["rings.qq.ops"] for s in summaries)
    return values


# -- main ---------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hopfalg", "cli.py")):
        sys.stderr.write(f"no hopfalg sources under {ROOT}/src: run from a source checkout\n")
        return 2
    os.chdir(ROOT)
    pin_to_one_core()
    outdir = os.path.join(".bench_build", "perfbench", f"{args.workload}-s{args.seed}-t{args.trace}")
    w = workloads.build(args.workload, args.seed, outdir)
    if args.trace:
        return traced_run(w, outdir)

    clock, setup = Clock(), Setup(w, outdir)
    count = max(1, int(args.seconds // REFERENCE_PASS_S[args.workload]))
    passes = [run_pass(w, outdir, clock, setup=setup) for _ in range(count)]
    result = end_to_end(passes, setup)
    for row in passes[-1]:
        print(json.dumps(row, sort_keys=True))
    units = dict(declared("end_to_end"))
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    info = result["info"]
    print(f"job_tail_s is p{info['tail_percentile']:.1f} of {info['samples']} jobs over "
          f"{info['passes']} passes; failed_ratio = {info['failed_ratio']:.6g}")
    print(f"times are at the reference host speed; measured wall_s = {info['measured_wall_s']:.6g} s "
          f"at a median speed factor of {info['speed']:.4g}")
    report_failures(r for p in passes for r in p)
    emit(result["attempted"], result["failed"], result["metrics"], "end_to_end")
    return 0


def traced_run(w, outdir) -> int:
    """One untraced pass, then one traced pass of the same jobs."""
    trace_dir = os.path.join(outdir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    clock = Clock()
    plain = run_pass(w, outdir, clock)
    traced = run_pass(w, outdir, clock, trace_dir)
    summaries = []
    for row, base in zip(traced, plain):
        row["untraced_seconds"] = base["seconds"]
        path = os.path.join(trace_dir, row["job"] + ".trace.json")
        if row["seconds"] is not None and os.path.exists(path):
            with open(path) as fh:
                summary = json.load(fh)
            summaries.append(summary)
            row.update(summary["sizes"])
            row["layers"] = per_layer([summary])
        print(json.dumps(row, sort_keys=True))
    values = per_layer(summaries)
    values["trace.overhead_ratio"] = (sum(r["seconds"] or 0.0 for r in traced)
                                      / sum(r["seconds"] or 0.0 for r in plain))
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump({"workload": w.name, "seed": w.seed, "jobs": traced, "layers": values}, fh, indent=1)
    print(f"{'span':28s} {'calls':>10s} {'inclusive_s':>12s} {'self_s':>10s}")
    names = sorted({n for s in summaries for n in s["spans"]})
    for name in names:
        calls, total, own = (sum(s["spans"].get(name, {}).get(f, 0) for s in summaries)
                             for f in ("calls", "total_s", "self_s"))
        print(f"{name:28s} {calls:10d} {total:12.4f} {own:10.4f}")
    units = per_layer_units()
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    rows = plain + traced
    report_failures(rows)
    emit(len(rows), sum(1 for r in rows if r["failure"]), values, "per_layer")
    return 0


def declared(kind):
    """(name, unit) of every metric BENCHMARK.json declares under kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def report_failures(rows) -> None:
    for row in rows:
        if row["failure"]:
            print(f"FAILED {row['job']}: {row['failure']}")


def emit(attempted, failed, values, kind) -> None:
    """The result line: exactly the metrics BENCHMARK.json declares under kind."""
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared(kind)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
