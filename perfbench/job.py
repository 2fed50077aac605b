"""One benchmark job in a fresh process, as a user runs the CLI.

    python3 job.py PROBE TRACE KIND [ARGS...]

KIND "cli" passes ARGS to compopnum.cli.main; "region-gram" takes ARGS =
(N, OUT) and writes geometry.region_gram_singular_values(N) to OUT as JSON,
since no CLI command exposes it; "setup" stops once compopnum is imported.
TRACE "1" installs the span tracer first.  On exit the job writes PROBE, a
JSON record of the CLOCK_MONOTONIC stamps on entering and leaving the
command, the CPU seconds in between, the exit code and the span stats.
"""

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(probe: str, trace: str, kind: str, *args: str) -> int:
    from compopnum import cli, geometry

    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    record = {"enter": _now(), "package": cli.__file__}
    cpu0 = time.process_time()
    code = 1
    try:
        if kind == "cli":
            code = cli.main(list(args))
        elif kind == "region-gram":
            values = geometry.region_gram_singular_values(int(args[0]))
            with open(args[1], "w") as fh:
                json.dump([float(v) for v in values], fh)
            code = 0
        elif kind == "setup":
            code = 0
        else:
            raise ValueError(f"unknown job kind {kind!r}")
    finally:
        record.update(exit=_now(), cpu_s=time.process_time() - cpu0, code=code)
        if tracer:
            record["spans"] = tracer.summary()
        with open(probe, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
