"""Records oracle.json, the reference outputs of jobs that have no closed form.

    python3 perfbench/record_oracle.py

Run it at the commit whose outputs are the reference; the committed
oracle.json was recorded at the seed commit of the benchmark.  It runs each
recorded job of both size sets once, through the benchmark's own runner and
observers.  Zinc at every n the seed can draw, and the exact cusp annulus
areas the Monte Carlo oracle needs, come from library calls in this process
(M(t) is cached across n); zinc at the n of seed 0 and the jobs shared by
both size sets are run again as a check that the values repeat exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    from compopnum import geometry
    from compopnum.symbols import parse_symbol

    cusp = parse_symbol("cusp")
    oracle = {}
    for t in (workloads.T_CUSP, workloads.rotated_cusp_inner_t()):
        oracle[workloads.cusp_annulus_key(t)] = geometry.annulus_area(cusp, t, method="exact-arcs").value
    for n in range(workloads.ZINC_N[0], workloads.ZINC_N[1] + 1):
        value, t_star = geometry.zinc_upper_bound(cusp, n)
        oracle[f"zinc cusp n={n}"] = {"value": value, "argmin_t": t_star}

    env = run.child_env()
    work = run.HERE / "_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for tiny in (False, True):
            for name in workloads.WORKLOADS:
                for job in workloads.jobs(name, 0, {}, tiny)[0]:
                    if not job.recorded:
                        continue
                    result = run.run_job(job.argv, work, env, 0)
                    if result["code"] != 0:
                        print(f"{job.label}: exit code {result['code']}", file=sys.stderr)
                        return 1
                    observed = job.observe(work)
                    if job.label in oracle:
                        workloads.compare(job.label, observed, oracle[job.label], 0.0)
                    oracle[job.label] = observed
                    print(f"recorded {job.label} ({result['wall_s']:.2f} s)", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.ORACLE_PATH.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
