"""One CLI process of the benchmark.

Usage: python3 child.py SRC TRACE CLI_ARGS...

Imports dyson_blocks from SRC, parses the config as the CLI will, then
calls ``dyson_blocks.cli.main(CLI_ARGS)``; with TRACE = 1 the call runs
under the span tracer.  The last stdout line is a JSON record:

  ready     CLOCK_MONOTONIC reading once imports and config parsing are done
  wall      seconds inside cli.main, up to the renamed output file
  code      cli.main's exit code
  maxrss_kb peak resident set of this process
  cpu_s     user + system CPU time of this process
  cal_s     seconds the fixed calibration work took, run after cli.main
  layers    per-layer metrics (TRACE = 1 only)
  notes     what the tracer could not wrap or read (TRACE = 1 only)
"""

import json
import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of interpreter loops,
    2 x 2 numpy calls and LAPACK eigensolves, the three kinds of work the
    workloads do.  The host's speed drifts by tens of percent over tens of
    seconds, and mostly for the whole process at once, so the time this
    takes right after cli.main gauges how fast the host ran that call."""
    import numpy as np
    m = np.random.default_rng(0).standard_normal((300, 300))
    m = m + m.T
    a = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    start = time.perf_counter()
    s = 0.0
    for i in range(150000):
        s += (i * 0.5) % 7.0
    for _ in range(1500):
        a = a + 0.0 * (np.linalg.inv(a) @ a)
    for _ in range(3):
        np.linalg.eigvalsh(m)
    return time.perf_counter() - start


def main() -> int:
    src, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    import dyson_blocks
    from dyson_blocks import cli

    package_dir = os.path.dirname(os.path.abspath(dyson_blocks.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src):
        print(f"imported dyson_blocks from {package_dir}, not from {src}",
              file=sys.stderr)
        return 2
    cli.parse_config(cli_args[cli_args.index("--config") + 1])
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(dyson_blocks)
    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime
    record = {"ready": ready, "wall": wall, "code": code,
              "maxrss_kb": usage.ru_maxrss, "cpu_s": cpu_s,
              "cal_s": calibrate()}
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans, wall, cpu_s)
        record["notes"] = tracer.notes
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
