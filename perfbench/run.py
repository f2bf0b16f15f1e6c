"""perfbench: end-to-end and per-layer benchmark of the twotor CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each job runs a workload's op list (``workloads.py``) through
``twotor.cli.main(argv)`` in one fresh child process (``child.py``), so it
pays what a CLI user pays: the import, lazily built tables and report
emission.  Every op's output is checked (``check.py``).

Timings are seconds at a fixed reference host speed: each child samples
the speed of its own vCPU every 10 ms and scales its wall time by it
(``hostspeed.py``), because other tenants of the shared host slow a job
down by up to 2x in bursts.  The unscaled wall times are printed as notes.

``--trace 0`` repeats the job until ``--seconds`` have passed and reports
the end-to-end metrics: medians over the jobs (of peak RSS too) and op
latency percentiles (over every op of every job when a job has at least
200 ops; otherwise the median of each op's median).  ``--trace 1`` runs the
job with the layer wrappers of ``tracer.py`` between two untraced jobs, and
reports the per-layer metrics plus ``trace.overhead_s`` (traced job_s
minus the mean untraced job_s).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give every
metric with its unit, the correctness result and an environment stamp.
The run exits nonzero without a result when a job cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

import check  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5  # fresh imports per run behind the setup_s median
SIEVE_ENV = "CENSUS_SIEVE_BOUND"

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MiB",
                    "op_p50_ms": "ms", "op_p95_ms": "ms"}


class JobError(RuntimeError):
    """A child process could not run its job (as opposed to an op failing)."""


def git_commit() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)

    try:
        head = git("rev-parse", "--show-toplevel", "HEAD")
        # a checkout that is not itself a repository may sit inside another one
        if head.returncode != 0 or Path(head.stdout.split()[0]).resolve() != ROOT:
            return "unknown"
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.split()[1] + (" (uncommitted changes)" if dirty else "")


def env_stamp(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    parent_sieve = os.environ.get(SIEVE_ENV)
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        SIEVE_ENV: "unset in every child" + (
            "" if parent_sieve is None else f" (removed; the caller had {parent_sieve!r})"),
        "limits": "no hardware counters are read; byte figures are computed from array "
                  "sizes; peak RSS is the median over the jobs of each job child's own "
                  "getrusage max RSS; end-to-end times are scaled to the reference speed "
                  "of hostspeed.REF_KERNEL_S",
    }


def run_child(ops: list, mode: str, deadline: float, spans: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != SIEVE_ENV}
    request = json.dumps({"ops": ops, "mode": mode, "spans": spans})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise JobError("out of time before the job started")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=request,
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise JobError(f"job did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise JobError(f"child exited {proc.returncode}: {proc.stderr.strip()[-1500:]}")
    return json.loads(proc.stdout)


def check_job(job: dict, refs: dict) -> list:
    """Failure reasons, one per failed op."""
    failures = []
    for op in job["ops"]:
        reason = check.check_op(op["argv"], op["rc"], op["exc"], op["stdout"], refs)
        if reason is not None:
            failures.append(f"{' '.join(op['argv'])}: {reason}")
    return failures


P95_MIN_OPS = 200  # a job of fewer ops has fewer than ten ops beyond its p95


def end_to_end(ops: list, seconds: float, deadline: float) -> tuple[dict, list, list]:
    jobs = []
    start = time.monotonic()
    while not jobs or time.monotonic() - start < seconds:
        jobs.append(run_child(ops, "plain", deadline))
    setup_jobs = list(jobs)
    while len(setup_jobs) < SETUP_SAMPLES:
        setup_jobs.append(run_child([], "plain", deadline))
    setups = [j["setup_s"] for j in setup_jobs]
    if len(ops) >= P95_MIN_OPS:
        latencies = [op["scaled_s"] * 1e3 for j in jobs for op in j["ops"]]
        p50 = statistics.median(latencies)
        p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18]
    else:
        # A few ops of unlike cost: a median of the pooled samples would fall in
        # the gap between two ops' samples, so take each op's median over the
        # jobs, then the median of those.
        p50 = statistics.median(
            statistics.median(j["ops"][i]["scaled_s"] * 1e3 for j in jobs)
            for i in range(len(ops)))
        p95 = p50
    values = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(j["job_s"] for j in jobs),
        # a median, not the max: with the sampler's signals about one job in ten
        # peaks 1.6-1.9 MiB higher on classify, which no sampler-free job does
        "peak_rss_mb": statistics.median(j["peak_rss_kib"] for j in jobs) / 1024,
        "op_p50_ms": p50,
        "op_p95_ms": p95,
    }
    notes = [f"jobs: {len(jobs)}; setup samples: {len(setups)}; op latency samples: "
             f"{len(ops)} ops x {len(jobs)} jobs",
             "unscaled wall time: job_s median "
             f"{statistics.median(j['job_wall_s'] for j in jobs):.4f} s, setup_s median "
             f"{statistics.median(j['setup_wall_s'] for j in setup_jobs):.4f} s; sampler kernel "
             f"median {statistics.median(j['kernel_median_s'] for j in jobs) * 1e6:.1f} us "
             f"(reference {hostspeed.REF_KERNEL_S * 1e6:.1f} us)"]
    if len(ops) < P95_MIN_OPS:
        notes.append(f"op_p95_ms: the job has under {P95_MIN_OPS} ops, too few for a p95, so it "
                     "repeats op_p50_ms")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, jobs, notes


def per_layer(name: str, ops: list, deadline: float) -> tuple[dict, list, list]:
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{name}.npz"
    # untraced jobs on both sides of the traced one, so drift in machine speed
    # does not land in trace.overhead_s
    before = run_child(ops, "plain", deadline)
    traced = run_child(ops, "trace", deadline, spans=str(spans))
    after = run_child(ops, "plain", deadline)
    if not traced["trace"]["wrappers_removed"]:
        raise JobError("the trace wrappers were not all removed after the traced job")
    metrics, notes = {}, [f"spans written to {spans.relative_to(ROOT)} with wall-clock times; "
                          "the per-layer times are scaled like job_s"]
    for key, (value, unit, note) in traced["trace"]["metrics"].items():
        metrics[key] = {"value": value, "unit": unit}
        if note:
            notes.append(f"{key}: {note}")
    untraced_s = (before["job_s"] + after["job_s"]) / 2
    metrics["trace.overhead_s"] = {"value": traced["job_s"] - untraced_s, "unit": "s"}
    return metrics, [before, traced, after], notes


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    ops = workloads.make_ops(name, seed)
    refs = check.load_refs()
    if trace:
        metrics, jobs, notes = per_layer(name, ops, deadline)
    else:
        metrics, jobs, notes = end_to_end(ops, seconds, deadline)
    digest = hashlib.sha256(json.dumps(ops).encode()).hexdigest()[:16]
    notes.insert(0, f"ops: {len(ops)} argv lists, sha256 {digest}; generator "
                    + json.dumps(workloads.WORKLOADS[name]["generator"]))
    failures = [f for job in jobs for f in check_job(job, refs)]
    attempted = sum(len(job["ops"]) for job in jobs)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "notes": notes, "failures": failures}


def print_report(name: str, res: dict) -> None:
    for key, m in res["metrics"].items():
        print(f"{name}: {key} = {m['value']!r} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"{name}: fail_ratio = {ratio!r} ({res['failed']} of {res['attempted']} ops failed); "
          f"correct = {str(res['correct']).lower()}")
    for note in res["notes"]:
        print(f"{name}: note: {note}")
    for failure in res["failures"][:20]:
        print(f"{name}: FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (JobError, OSError, ValueError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print_report(name, res)
    print("env: " + json.dumps(env_stamp(args.seed), sort_keys=True))
    keys = ("correct", "attempted", "failed", "metrics")
    if len(names) == 1:
        print(json.dumps({k: results[names[0]][k] for k in keys}))
    else:
        print(json.dumps({name: {k: res[k] for k in keys} for name, res in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
