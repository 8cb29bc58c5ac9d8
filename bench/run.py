"""radarbias benchmark: one workload per invocation, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-verify --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``mc-verify``, ``registration-batch``,
``gain-design``. The program under test is always the checkout's own
``src/radarbias``; without it the benchmark exits nonzero and prints no
result.

A run builds the workload's inputs in-process, runs one checked warm-up
job, and then runs checked jobs for ``--seconds`` seconds.

With ``--trace 0`` the last line carries the end-to-end metrics. On a
shared host the same code can run up to 1.8x slower for seconds to
minutes at a time, in CPU time as much as in wall time, so a median over
a run measures how much of the run fell into slow spells.
The timings are therefore best-of-repeats, as ``timeit`` advises: every
part of a job runs many times in a run, and its fastest repeat is its cost
free of interference from other tenants. The shorter the part, the more
surely some repeat falls in a fast moment, so a job is timed part by part
where its parts repeat exactly from job to job: each registration
problem, and gain-design's CLI table and each of its filter runs.
mc-verify's job is one CLI call and one part.

- ``setup_s``: median over several fresh interpreters, each timed from
  launch until it has imported radarbias and built and written the
  workload's inputs; they run between jobs, spread over the run;
- ``job_s``: the sum over a job's parts of each part's fastest time in
  the run, i.e. the job's time with no part slowed by interference; for
  mc-verify, the fastest job;
- ``problems_per_s``: problems per job over ``job_s``, a problem being a
  Monte-Carlo run, a gain-table row or a registration problem;
- ``problem_p50_us``, ``problem_p99_us``: latency of one problem from
  submission to result. registration-batch submits each problem on its
  own call and times it alone; a problem's latency is its fastest over
  the run's repeats, and the percentiles run over the 2000 problems, so
  p99 has 20 beyond it. The other two workloads deliver all problems of a
  job from one call, so every problem's latency is its job's, and both
  percentiles are ``job_s``;
- ``peak_rss_mb``: the benchmark process's peak resident set.

Failures (an exception, a nonzero exit code or a failed check) are counted
in ``attempted``/``failed``; the human-readable lines above the result
show ``failed_ratio``, the quartiles and sample count of every timing,
and the environment.

With ``--trace 1`` the first half of the measuring time runs untraced
jobs and the second half traced ones (see tracer.py), and the last line
carries the per-layer metrics: per-job call counts (``.calls``), per-job
self time in ms (``.self_ms``, time in a call minus time in the traced
calls it made), median call latency (``.p50_us``), per-layer self time,
the job time outside every traced call, the bytes the CLI wrote per job
and the tracing overhead per job (fastest traced job minus fastest
untraced job).
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import percentile, summary, tail_percentile
from tracer import JobProfile, Tracer, merge_profiles

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_JOBS = 3

END_TO_END = {"setup_s": "s", "job_s": "s", "problems_per_s": "1/s",
              "problem_p50_us": "us", "problem_p99_us": "us", "peak_rss_mb": "MB"}

#: traced modules; in cli only the entry point is wrapped, so its self time
#: is the whole CLI layer's own work (parsing, formatting, emission)
LAYERS = ("cli", "sim_harness", "steady_state", "filter_core", "registration", "coords")
TRACE_ONLY = {"cli": ("main",)}

_FUNCTION_METRICS = {
    "cli.main": ("calls", "self_ms"),
    "sim_harness.run_monte_carlo": ("calls", "self_ms"),
    "sim_harness.run_seed_sequence": ("calls", "self_ms"),
    **{f"steady_state.{f}": ("calls", "self_ms") for f in (
        "gain_sweep", "solve_beta", "predicted_covariances", "validate_gains",
        "steady_mn", "steady_mq")},
    "filter_core.step": ("calls", "self_ms", "p50_us"),
    **{f"filter_core.{f}": ("calls", "self_ms") for f in (
        "time_update", "optimal_gain", "measurement_update")},
    "registration.solve_absolute_bias": ("calls", "self_ms", "p50_us"),
    "registration.build_A": ("calls",),
    "registration.kkt_stationarity_residual": ("calls", "self_ms"),
    "coords.enu2_position_to_enu1": ("calls", "self_ms", "p50_us"),
    "coords.enu1_position_to_enu2": ("calls", "self_ms"),
}
_UNITS = {"calls": "count", "self_ms": "ms", "p50_us": "us"}
PER_LAYER = {
    **{f"{fn}.{kind}": _UNITS[kind] for fn, kinds in _FUNCTION_METRICS.items() for kind in kinds},
    **{f"{layer}.self_ms": "ms" for layer in LAYERS if layer != "cli"},
    "outside.self_ms": "ms",
    "registration.build_A.calls_per_solve": "count",
    "cli.output_bytes": "B",
    "trace.job_overhead_ms": "ms",
}


def import_program():
    """Import the checkout's radarbias, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import radarbias
    except ImportError as exc:
        raise SystemExit(f"error: cannot import radarbias from {ROOT / 'src'}: {exc}")
    where = Path(radarbias.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"error: radarbias imported from {where}, not from this checkout")
    return radarbias


def environment() -> dict:
    ld = np.finfo(np.longdouble)
    kind = {52: "same as double", 63: "80-bit x87 extended",
            112: "IEEE binary128 (software quad)"}.get(ld.nmant, "other")
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__,
            "longdouble": f"{np.dtype(np.longdouble).name} nmant={ld.nmant} "
                          f"eps={float(ld.eps):.3g} ({kind})"}


class SetupTimer:
    """Times fresh interpreters that import radarbias and build the inputs.

    Calling the timer before each job runs one probe whenever one is due,
    so the probes spread over the measuring window and see the same
    machine conditions as the jobs, not one burst at the start of a run.
    """

    def __init__(self, args, workdir: Path, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--workdir", str(workdir)]
        self.interval = seconds / SETUP_REPEATS
        self.start = time.perf_counter()
        self.times: list[float] = []

    def __call__(self) -> None:
        due = self.start + len(self.times) * self.interval
        if len(self.times) < SETUP_REPEATS and time.perf_counter() >= due:
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup failed ({proc.returncode}): {proc.stderr.strip()}")

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


class Tally:
    """Problems attempted and failed, with the first failure messages kept."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages[: max(0, 5 - len(self.messages))])


def run_jobs(workload, seconds: float, tally: Tally, indices, min_jobs=MIN_JOBS,
             tracer=None, before_job=None):
    """Run and check jobs for ``seconds``; return job times (s), best part times, profiles.

    The best part times are, for a workload that times a job's parts, every
    part's fastest time over the jobs (ns, in part order), else None.
    ``indices`` numbers the jobs across calls, so every job of a run gets
    its own inputs where the workload varies them per job.
    """
    job_s, best, profiles = [], None, []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(job_s) < min_jobs:
        if before_job is not None:
            before_job()
        start = time.perf_counter_ns()
        payload, part_ns = workload.run_job(next(indices))
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            profile = JobProfile(tracer.take(), elapsed)
            for name, want in workload.direct_calls.items():
                if profile.calls.get(name, 0) != want:
                    raise SystemExit(f"error: tracer saw {profile.calls.get(name, 0)} calls "
                                     f"of {name}, the job made {want}")
            profiles.append(profile)
        try:
            tally.add(*workload.check(payload))
        except Exception as exc:  # a check that cannot read the output fails the job
            tally.add(1, 1, [f"check raised {exc!r}"])
        job_s.append(elapsed / 1e9)
        if part_ns is not None:
            part_ns = np.asarray(part_ns, dtype=np.int64)
            best = part_ns if best is None else np.minimum(best, part_ns)
    return job_s, best, profiles


def end_to_end(workload, setup, job_s, best_ns, rss_kb) -> dict:
    job = min(job_s) if best_ns is None else best_ns.sum() / 1e9
    if workload.problems_timed:
        p50, p99 = percentile(best_ns, 50) / 1e3, percentile(best_ns, 99) / 1e3
    else:
        p50 = p99 = job * 1e6
    values = {"setup_s": statistics.median(setup), "job_s": job,
              "problems_per_s": workload.problems_per_job / job,
              "problem_p50_us": p50, "problem_p99_us": p99, "peak_rss_mb": rss_kb / 1024}
    print(f"setup_s         {summary(setup)}")
    print(f"job_s           {summary(job_s)} fastest={min(job_s):.6g}")
    if workload.problems_timed:
        print(f"problem_us      fastest of {len(job_s)} repeats each: "
              f"{summary(x / 1e3 for x in best_ns)} "
              f"tail percentile by the ten-beyond rule: p{tail_percentile(len(best_ns))}")
    return values


def per_layer(workload, untraced_s, traced_s, profiles) -> dict:
    merged = merge_profiles(profiles)
    values = {}
    for name in PER_LAYER:
        fn, _, kind = name.rpartition(".")
        if kind in _FUNCTION_METRICS.get(fn, ()):
            if kind == "calls":
                counts = merged["calls"].get(fn, [0])
                if len(set(counts)) > 1:
                    print(f"warning: {name} varies between jobs: {counts}", file=sys.stderr)
                values[name] = statistics.median(counts)
            else:
                values[name] = merged[kind].get(fn, 0.0)
    for layer in LAYERS:
        if layer != "cli":
            values[f"{layer}.self_ms"] = merged["layer_self_ms"].get(layer, 0.0)
    solves = values["registration.solve_absolute_bias.calls"]
    values["registration.build_A.calls_per_solve"] = (
        values["registration.build_A.calls"] / solves if solves else 0.0)
    values["outside.self_ms"] = merged["outside_ms"]
    values["cli.output_bytes"] = workload.output_bytes
    values["trace.job_overhead_ms"] = (min(traced_s) - min(untraced_s)) * 1e3
    silent = [layer for layer in workload.layers
              if not any(n.startswith(layer + ".") for n in merged["calls"])]
    if silent:
        raise SystemExit(f"error: no traced calls in layer(s) {', '.join(silent)} "
                         f"on {workload.name}")
    for fn in workload.named:
        if not merged["calls"].get(fn, [0])[0]:
            print(f"WARNING: {fn} recorded 0 calls on {workload.name}", file=sys.stderr)
    print(f"traced jobs     {len(traced_s)}; untraced jobs {len(untraced_s)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, Path(args.workdir))
        return 0

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload_cls, workdir: Path) -> int:
    env = environment()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    workload = workload_cls(args.seed, workdir)
    tally = Tally()
    indices = itertools.count()
    run_jobs(workload, 0.0, tally, indices, min_jobs=1)              # warm-up, untimed
    if args.trace == 0:
        setup = SetupTimer(args, workdir, args.seconds)
        job_s, best_ns, _ = run_jobs(workload, args.seconds, tally, indices, before_job=setup)
        # read the peak before the summaries below allocate their own copies
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(workload, setup.finish(), job_s, best_ns, rss_kb)
        units = END_TO_END
    else:
        half = args.seconds / 2.0
        untraced, _, _ = run_jobs(workload, half, tally, indices)
        modules = {layer: importlib.import_module(f"radarbias.{layer}") for layer in LAYERS}
        with Tracer(modules, only=TRACE_ONLY) as tracer:
            traced, _, profiles = run_jobs(workload, half, tally, indices, tracer=tracer)
        metrics = per_layer(workload, untraced, traced, profiles)
        units = PER_LAYER
    ratio = tally.failed / tally.attempted
    print(f"attempted={tally.attempted} failed={tally.failed} failed_ratio={ratio:.6g}")
    for message in tally.messages:
        print(f"failure: {message}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
