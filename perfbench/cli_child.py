"""Run one toricmmp CLI command under a speed probe, optionally traced.

    python3 perfbench/cli_child.py FD TRACE ARG...

stdout, stderr and the exit code are those of `python3 -m toricmmp.cli
ARG...`.  One JSON object goes to the inherited file descriptor FD: the
probe's stats and, with TRACE = 1, the span aggregates and cache counters
of the command.
"""

import json
import os
import sys

import bench_clock
import bench_trace as bt


def main():
    fd, trace, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    probe = bench_clock.SpeedProbe(period=0.005)
    tracer = bt.Tracer()
    with probe:
        import toricmmp.cli
        caches = bt.cache_objects()
        if trace:
            tracer.install()
        try:
            code = toricmmp.cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
        finally:
            tracer.uninstall()
        sys.stdout.flush()
    out = {"probe": probe.stats()}
    if trace:
        out["trace"] = tracer.aggregate()
        out["cache"] = bt.cache_counts(caches)
    with os.fdopen(fd, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
