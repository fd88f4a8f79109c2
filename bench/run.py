"""virloop benchmark: one closed-loop workload per run, gated for correctness.

    python3 bench/run.py --workload {levels,certify,radical} --seed N \
        --seconds S --trace {0,1}

One client, no threads: each job starts after the previous one ends.  A
run sets up its inputs (engine import, job generation from the seed, input
construction), then times the same set-up from process start to the point
where the first job could run, in several fresh processes, and reports the
median as setup_s.  It then cycles through its job list, gating every job
outside the timer, until the timed job time reaches --seconds.  Every job
and every set-up is preceded by a fixed calibration kernel, and its time,
and --seconds with it, is taken at the reference speed CAL_REF_S (see
calibrate).  --trace 1
instead runs the job list once traced and once untraced, and reports the
per-layer metrics of the traced pass.  The last line of stdout is the
result as one JSON object.  See bench/NOTES.md for the workloads and the
metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_MIN_RUNS = 3
SETUP_MIN_TOTAL_S = 3.0
SETUP_CALS = 5
# the calibration kernel's time at the reference speed: about its fastest on
# the 2-vCPU VM the benchmark was tuned on, so scaled times read close to
# that VM's wall times in its fast state
CAL_REF_S = 0.004
WALL_CAP = 2.0
HELD_OUT_SEED = 7919
OUT_DIR = ".bench_out"


def source_identity() -> dict:
    """Git commit when the checkout has one, and a digest of src/ always."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_commit": commit or "unknown (not a git checkout)", "src_sha256": digest.hexdigest()}


def calibrate() -> float:
    """Wall time of a fixed kernel of Fraction arithmetic and dict stores.

    It shares no code with the engine, so no engine change moves it.  The
    VM this was tuned on changes speed by 2-3x over tens of seconds;
    a job's time divided by the time of this kernel run just before it
    follows the engine and leaves most of that drift out.
    """
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        seen[i % 97] = acc.numerator % 1000
    return time.perf_counter() - start


def scaled(times: list[float], cals: list[float]) -> list[float]:
    """Each time at the reference speed: time * CAL_REF_S / its calibration."""
    return [t * CAL_REF_S / c for t, c in zip(times, cals)]


def time_setups(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to ready-for-the-first-job, in fresh processes, one at a time.

    At least SETUP_MIN_RUNS, and more until they add up to SETUP_MIN_TOTAL_S,
    so that a set-up of a few tenths of a second still gets a steady median.
    Each time covers interpreter start, every import, job generation and
    input construction.  Returns the times and, for each, the median of
    SETUP_CALS calibrations right before and SETUP_CALS right after it: one
    kernel run reads the VM's speed to within about 10%, and a set-up of a
    few seconds, unlike a job time, is not averaged with hundreds of others.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times, cals = [], []
    while len(times) < SETUP_MIN_RUNS or sum(times) < SETUP_MIN_TOTAL_S:
        before = [calibrate() for _ in range(SETUP_CALS)]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up process exited {proc.returncode}")
        cals.append(statistics.median(before + [calibrate() for _ in range(SETUP_CALS)]))
    return times, cals


def run_jobs(ctx, job_list, tracer=None):
    """Calibrate, then run and gate each job; returns (durations, calibrations, failures)."""
    durations, cals, failures = [], [], []
    for job in job_list:
        error = None
        cals.append(calibrate())
        if tracer is not None:
            tracer.job = job.id
            tracer.active = True
        start = time.perf_counter()
        try:
            result = ctx.execute(job)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            error = exc
        dt = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        durations.append(dt)
        verdict = workloads.fail(f"raised {error!r}") if error is not None else ctx.gate(job, result)
        if not verdict.ok:
            failures.append({"job": job.id, "reason": verdict.reason, "known": verdict.known})
    return durations, cals, failures


def run_timed(ctx, seconds: float):
    """Whole cycles of the job list until `seconds` of job time at the reference speed.

    Stopping only at a cycle's end runs every job equally often, so every
    run of a seed has the same job mix; counting scaled time makes that
    number of cycles, and so the order statistic that is the tail, nearly
    independent of the VM's speed.  Wall job time is capped at WALL_CAP
    times `seconds`, so that a run on a very slow VM still ends in time.
    Returns the durations, their calibrations, the failures and the number
    of cycles.
    """
    job_list = [j for rnd in ctx.rounds for j in rnd]
    durations, cals, failures = [], [], []
    cycles = 0
    while cycles == 0 or (sum(scaled(durations, cals)) < seconds and sum(durations) < WALL_CAP * seconds):
        d, c, f = run_jobs(ctx, job_list)
        durations += d
        cals += c
        failures += f
        cycles += 1
    return durations, cals, failures, cycles


def tail(durations: list[float]) -> tuple[float, float]:
    """Largest sample with at least 10 samples beyond it, and its percentile."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    # one client, no threads: the engine must not pick a worker count from the environment
    threads_env = os.environ.pop("VIRLOOP_THREADS", None)

    try:
        ctx = workloads.WORKLOADS[args.workload](workloads.load_engine(ROOT), args.seed)
    except Exception as exc:
        print(f"set-up failed: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        **source_identity(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "VIRLOOP_THREADS_cleared": threads_env,
    }
    print("env " + json.dumps(env, sort_keys=True))
    setup_times, setup_cals = [], []

    if args.trace:
        # traced pass first, while the gates are cold, so certificate replays
        # are traced too; the untraced pass of the same jobs gives the overhead
        job_list = [j for rnd in ctx.rounds for j in rnd]
        tracer = tracing.Tracer()
        ctx.tracer = tracer
        tracer.install()
        try:
            d1, c1, f1 = run_jobs(ctx, job_list, tracer)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        d0, c0, f0 = run_jobs(ctx, job_list)
        metrics = tracer.metrics()
        metrics["trace.jobs_per_s_untraced"] = {"value": len(d0) / sum(scaled(d0, c0)), "unit": "1/s"}
        metrics["trace.jobs_per_s_traced"] = {"value": len(d1) / sum(scaled(d1, c1)), "unit": "1/s"}
        span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(span_path)
        durations, failures = d0 + d1, f0 + f1
        print(f"spans {len(tracer.spans)} written to {span_path}")
        print(f"absent {json.dumps(tracer.absent)}")
        extra = {"spans": len(tracer.spans), "absent": tracer.absent}
        print(f"tracing overhead: untraced/traced jobs_per_s = "
              f"{metrics['trace.jobs_per_s_untraced']['value'] / metrics['trace.jobs_per_s_traced']['value']:.3f}")
    else:
        setup_times, setup_cals = time_setups(args.workload, args.seed)
        durations, cals, failures, cycles = run_timed(ctx, args.seconds)
        jobs_s = scaled(durations, cals)
        tail_s, tail_pct = tail(jobs_s)
        n = len(durations)
        metrics = {
            "jobs_per_s": {"value": n / sum(jobs_s), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(jobs_s), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "pass_ratio": {"value": (n - len(failures)) / n, "unit": "ratio"},
            "setup_s": {"value": statistics.median(scaled(setup_times, setup_cals)), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        extra = {
            "jobs": n,
            "cycles": cycles,
            "tail_percentile": tail_pct,
            "fail_ratio": len(failures) / n,
            "wall": {
                "jobs_per_s": n / sum(durations),
                "job_p50_s": statistics.median(durations),
                "job_tail_s": tail(durations)[0],
                "setup_s": statistics.median(setup_times),
                "calibration_median_s": statistics.median(cals),
            },
        }
        by_kind = {}
        for job, t in zip([j for rnd in ctx.rounds for j in rnd] * cycles, jobs_s):
            by_kind.setdefault(job.kind, []).append(t)
        extra["kind_median_s"] = {k: statistics.median(ts) for k, ts in sorted(by_kind.items())}
        print(f"jobs {n} ({cycles} cycles of {n // cycles}); tail = p{tail_pct:.1f} "
              f"({n - 10 if n > 10 else 0} samples at or below, 10 beyond); fail_ratio {extra['fail_ratio']:.4f}")
        print("unscaled wall " + json.dumps(extra["wall"], sort_keys=True))
        for kind, med in extra["kind_median_s"].items():
            print(f"kind {kind}: n={len(by_kind[kind])} median={med:.4f} s")

    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if setup_times:
        print(f"setup_s runs (wall) {[round(t, 4) for t in setup_times]}")
    for f in failures:
        print(f"failure {f['job']}: {f['reason']}{' [known]' if f['known'] else ''}")
    record = {"env": env, "metrics": metrics, "setup_times_s": setup_times, "setup_calibrations_s": setup_cals,
              **extra, "failures": failures}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": all(f["known"] for f in failures),
        "attempted": len(durations),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
