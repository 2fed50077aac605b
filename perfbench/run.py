"""Benchmark of compopnum: wall time to a certified result, job by job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; compopnum is imported from its src/.
One parent process runs the workload's job list (workloads.py) again and
again as a closed loop, one client: each job is a fresh child process,
started only when the previous one has exited, and its output is checked
against the job's oracle.  Passes repeat until S seconds have gone by; there
is always at least one.  Five set-up probes (processes that import
compopnum and exit) run first.

With --trace 0 the last line of output is the JSON result with the
end-to-end metrics of BENCHMARK.json.  With --trace 1 untraced and traced
passes alternate, and the result holds the per-layer metrics of the traced
passes (spans recorded by tracer.py) and the tracing overhead.  The lines
above it print every metric with its unit and sample count, the per-command
medians and error rate, the pinned environment and any oracle failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"

# One BLAS thread: on the 2-core machine the benchmark was built on, cusp
# `an` took 4.0 s wall for 4.5 CPU-s with two threads and 3.4-3.9 s with one,
# and a second thread makes the SVD-bound jobs share a core with the machine's
# other load.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
JOB_TIMEOUT_S = 120.0

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # every job compiles compopnum from source, so set-up time does not
    # depend on a bytecode cache an earlier run may have left
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_job(argv, work: Path, env: dict, trace: int) -> dict:
    """Spawns one job and waits for it; times from spawn to reap."""
    probe = work / "probe.json"
    probe.unlink(missing_ok=True)
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        t0 = _now()
        proc = subprocess.Popen(
            [sys.executable, str(JOB), str(probe), str(trace), *argv],
            cwd=work, env=env, stdout=out, stderr=err,
        )
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(probe.read_text()) if probe.exists() else None
    return {
        "wall_s": t1 - t0,
        "setup_s": record["enter"] - t0 if record else None,
        "teardown_s": t1 - record["exit"] if record else None,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "record": record,
    }


def check(job: workloads.Job, result: dict, work: Path) -> str | None:
    """None when the job's output passes its oracle, else the reason."""
    if result["code"] != 0:
        lines = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()
        return f"exit code {result['code']}: {lines[-1] if lines else 'no stderr'}"
    if result["record"] is None:
        return "no probe record"
    package = Path(result["record"]["package"]).resolve()
    if ROOT / "src" not in package.parents:
        return f"imported compopnum from {package}, not from this checkout"
    try:
        job.verify(job.observe(work))
    except (workloads.OracleError, OSError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def run_pass(jobs, work: Path, env: dict, trace: int) -> list[dict]:
    results = []
    for job in jobs:
        r = run_job(job.argv, work, env, trace)
        r["failure"] = check(job, r, work)
        r["job"] = job
        r["output_bytes"] = sum(
            (work / name).stat().st_size for name in (*job.outputs, "stdout.txt") if (work / name).exists()
        )
        for name in job.outputs:
            if name != "spectrum.csv":  # `fit` reads it in the same pass
                (work / name).unlink(missing_ok=True)
        results.append(r)
    return results


def pass_time(results) -> float:
    return sum(r["wall_s"] for r in results)


def layer_stats(results) -> dict:
    """Span stats of one traced pass, summed over its jobs, plus derived ones."""
    stats = defaultdict(Counter)
    for r in results:
        record = r["record"] or {}
        for span, fields in record.get("spans", {}).items():
            for field, value in fields.items():
                if field in tracer.MAX_FIELDS:
                    stats[span][field] = max(stats[span][field], value)
                else:
                    stats[span][field] += value
        if r["job"].argv[0] == "cli" and record:
            stats["cli.main"]["cpu_s"] += record["cpu_s"]
        stats["cli"]["output_bytes"] += r["output_bytes"]
        stats["trace"]["setup_sum_s"] += r["setup_s"] or 0.0
        stats["trace"]["teardown_sum_s"] += r["teardown_s"] or 0.0
    tails = stats["tails.tail_remainder"]
    tails["fallback_ratio"] = tails["fallbacks"] / tails["calls"] if tails["calls"] else 0.0
    abs2 = stats["geometry.BlaschkeProduct.abs2"]
    abs2["inside_ratio"] = abs2["inside"] / abs2["points"] if abs2["points"] else 0.0
    spanned = sum(st["self_s"] for name, st in stats.items() if name != "trace")
    stats["trace"]["attributed_s"] = spanned + stats["trace"]["setup_sum_s"] + stats["trace"]["teardown_sum_s"]
    stats["trace"]["traced_pass_s"] = pass_time(results)
    return stats


def lookup(stats: dict, metric: str) -> float:
    span, field = metric.rsplit(".", 1)
    return float(stats.get(span, {}).get(field, 0.0))


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(args, inputs: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "inputs": inputs, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "git_commit": git_commit(), "closed_loop": "1 client, 1 job at a time",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny problem sizes (the self-test's)")
    return p.parse_args(argv)


def _terminate(signum, _frame):
    # unwinds through run_job, which kills and reaps the running job
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "compopnum" / "__init__.py").is_file():
        print(f"error: no compopnum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    jobs, inputs = workloads.jobs(args.workload, args.seed, workloads.load_oracle(), args.tiny)
    env = child_env()
    print("# environment " + json.dumps(environment(args, inputs)), flush=True)

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        probes = [run_job(("setup",), work, env, 0) for _ in range(SETUP_PROBES)]
        untraced, traced = [], []
        start = _now()
        mode = 0
        while True:
            (traced if mode else untraced).append(run_pass(jobs, work, env, mode))
            done = _now() - start >= args.seconds
            if done and (traced or not args.trace):
                break
            if args.trace:
                mode = 1 - mode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    results = [r for p in untraced + traced for r in p]
    failed = [r for r in results if r["failure"]]
    unexpected = [r for r in failed if not r["job"].known_defect]
    for label, reason, defect in sorted({(r["job"].label, r["failure"], r["job"].known_defect) for r in failed}):
        tag = f"known defect ({defect})" if defect else "UNEXPECTED"
        print(f"# FAILED {label}: {reason} [{tag}]")
    bad_probes = [p for p in probes if p["code"] != 0 or p["setup_s"] is None]

    # (value, samples) of every metric the run measured
    measured = {
        "pass_s": (statistics.median(map(pass_time, untraced)), len(untraced)),
        "setup_s": (
            statistics.median(r["setup_s"] for r in probes + results if r["setup_s"] is not None),
            sum(r["setup_s"] is not None for r in probes + results),
        ),
        "peak_rss_mb": (max(r["rss_mb"] for r in probes + results), len(probes) + len(results)),
        "error_rate": (len(failed) / len(results), len(results)),
    }
    for metric in workloads.COMMAND_METRICS:
        walls = [r["wall_s"] for p in untraced for r in p if r["job"].metric == metric]
        if walls:
            measured[metric] = (statistics.median(walls), len(walls))
    if args.trace:
        per_pass = [layer_stats(p) for p in traced]
        untraced_pass = measured["pass_s"][0]
        for st in per_pass:
            st["trace"]["untraced_pass_s"] = untraced_pass
            st["trace"]["overhead_s"] = st["trace"]["traced_pass_s"] - untraced_pass
            st["trace"]["gap_s"] = st["trace"]["attributed_s"] - untraced_pass
        for m in spec["per_layer"]:
            measured[m["name"]] = (statistics.median(lookup(st, m["name"]) for st in per_pass), len(per_pass))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"error_rate": "ratio", **{m: "s" for m in workloads.COMMAND_METRICS}})
    for name, (value, n) in measured.items():
        print(f"{name:<46} {value:>14.6g} {units[name]:<6} n={n}")

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": not unexpected and not bad_probes,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
