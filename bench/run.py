"""Benchmark of the dyson-blocks CLI.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --smoke

Run from anywhere: the package is imported from ``src/`` next to this
directory.  A run is a closed loop with one client: it starts one fresh
CLI process at a time (``child.py``), each on the same inputs made from
``--seed``, until ``--seconds`` have passed.  Before the timed loop one
untimed process runs with the other thread count (``--threads 1`` against
``--threads nproc``); it is the warm-up that compiles the bytecode, and
its output is the reference.  Every output must be byte-identical to it
and pass the workload's independent check; a process that exits non-zero,
or whose output differs or fails the check, counts as failed.

With ``--trace 0`` each end-to-end metric is the mean over the timed
processes, that is the run's total over its process count, and the two
times are given at the reference host speed: the host's speed drifts by
tens of percent over tens of seconds, so each process also times a fixed
calibration (``child.calibrate``), and ``wall_s`` and ``setup_s`` are the
measured means times CAL_REF_S over the mean calibration time.  With
``--trace 1`` traced and untraced processes alternate; the per-layer
metrics are medians over the traced ones, and the difference in wall time
between the two kinds is the tracing overhead.

Human-readable lines go to stdout first (a run header with machine
facts, then one line per metric with its unit); the last line is the JSON
result.  ``--smoke`` runs tiny configs of every workload, traced and not,
and checks that every metric BENCHMARK.json names is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
PYCACHE = os.path.join(ROOT, ".bench-pycache")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "DYSON_BLOCKS_THREADS")
CHILD_TIMEOUT_S = 150
MIN_SAMPLES = 3
TAIL_BEYOND = 10
# Seconds child.calibrate takes on the 2-vCPU Xeon VM that BASELINE.json was
# measured on, at its usual speed; wall_s and setup_s are given at that speed.
CAL_REF_S = 0.05

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "linalg.eigvalsh.calls": "count",
    "linalg.eigvalsh.self_s": "s",
    "linalg.eigvalsh.gflop": "Gflop",
    "linalg.eigvalsh.gflop_per_s": "Gflop/s",
    "linalg.invert.calls": "count",
    "linalg.invert.self_s": "s",
    "linalg.invert.failed": "count",
    "linalg.self_s": "s",
    "eta.apply.calls": "count",
    "eta.apply.self_s": "s",
    "eta.self_s": "s",
    "dyson.solves": "count",
    "dyson.self_s": "s",
    "dyson.iterations_total": "count",
    "dyson.iterations_p50": "count",
    "dyson.iterations_max": "count",
    "dyson.damped_solves": "count",
    "dyson.unconverged": "count",
    "dyson.solve_ms_p50": "ms",
    "dyson.solve_ms_p98": "ms",
    "sampler.calls": "count",
    "sampler.self_s": "s",
    "sampler.call_ms_p50": "ms",
    "sampler.bytes_out": "bytes",
    "esd.self_s": "s",
    "esd.ks.calls": "count",
    "experiments.trials": "count",
    "experiments.self_s": "s",
    "experiments.trial_busy_s": "s",
    "experiments.concurrency": "ratio",
    "cli.self_s": "s",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "cli.cpu_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_header() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "loadavg": os.getloadavg(),
    }


class Session:
    """Spawns CLI processes on one workload and keeps the verdicts."""

    def __init__(self, workload: str, cfg: dict, out_path: str):
        self.workload = workload
        self.cfg = cfg
        self.out_path = out_path
        self.env = {k: v for k, v in os.environ.items()
                    if k not in THREAD_ENV and k != "PYTHONDONTWRITEBYTECODE"}
        # bytecode is cached inside the checkout, as an installed package's is
        self.env["PYTHONPYCACHEPREFIX"] = PYCACHE
        self.attempted = 0
        self.failed = 0
        self.reference = None       # output bytes of the first process
        self.verdict = None         # its check: (passed, message)
        self.errors = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def _check(self, output: bytes):
        try:
            return True, workloads.CHECKS[self.workload](self.cfg, output.decode())
        except (workloads.CheckError, ValueError, IndexError, KeyError) as exc:
            return False, f"check failed: {exc}"

    def run(self, cli_args: list, trace: bool):
        """One CLI process; its record, or None if it failed."""
        self.attempted += 1
        if os.path.exists(self.out_path):
            os.unlink(self.out_path)
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, SRC, "1" if trace else "0", *cli_args],
                env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail(f"timed out after {CHILD_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self._fail(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            self._fail(f"unreadable record: {lines[-1][:300]}")
            return None
        if record["code"] != 0:
            self._fail(f"cli exit {record['code']}: {proc.stderr.strip()[-300:]}")
            return None
        try:
            with open(self.out_path, "rb") as fh:
                output = fh.read()
        except OSError as exc:
            self._fail(f"no output: {exc}")
            return None
        # outputs must all equal the first, so only the first is checked
        if self.reference is None:
            self.reference = output
            self.verdict = self._check(output)
        elif output != self.reference:
            self._fail(f"output differs from the first run ({' '.join(cli_args)})")
            return None
        if not self.verdict[0]:
            self._fail(self.verdict[1])
            return None
        record["setup"] = record["ready"] - spawned
        return record


def tail(values: list):
    """The highest percentile with TAIL_BEYOND samples above it, as
    (percentile, value); None unless that percentile is above the median."""
    data = sorted(values)
    k = len(data) - TAIL_BEYOND - 1
    if k <= (len(data) - 1) / 2:
        return None
    return 100.0 * (k + 1) / len(data), data[k]


def describe(name: str, value: float, values: list, unit: str) -> str:
    line = (f"{name:<14} {value:.6g} {unit}  measured: mean "
            f"{statistics.fmean(values):.6g} median {statistics.median(values):.6g}")
    t = tail(values)
    if t is None:
        line += f"  no tail (fewer than {2 * TAIL_BEYOND + 2} samples)"
    else:
        line += f"  p{t[0]:.0f} {t[1]:.6g} {unit} ({TAIL_BEYOND} beyond)"
    return line + f"  (n={len(values)})"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Runs one workload; returns the result JSON object."""
    work = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        out_path = os.path.join(work, "out")
        cfg = workloads.config(name, out_path, smoke=smoke)
        cfg_path = os.path.join(work, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        base = ["--config", cfg_path]
        if name in workloads.SEEDED:
            base += ["--seed", str(seed)]
        threaded = name in workloads.THREADED
        timed = base + (["--threads", str(nproc())] if threaded else [])
        variant = base + ["--threads", "1" if threaded else str(nproc())]

        session = Session(name, cfg, out_path)
        session.run(variant, trace=False)         # warm-up and reference, not timed
        samples, traced = [], []
        deadline = time.monotonic() + seconds
        while len(samples) < MIN_SAMPLES or time.monotonic() < deadline:
            record = session.run(timed, trace=False)
            if record is not None:
                samples.append(record)
            if trace:
                record = session.run(timed, trace=True)
                if record is not None:
                    traced.append(record)
            if smoke or session.failed > 2 * MIN_SAMPLES:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"== {name} seed={seed} trace={int(trace)}")
    if session.verdict is not None and session.verdict[0]:
        print(f"check          {session.verdict[1]}")
    for message in session.errors:
        print(f"FAILED         {message}")
    print(f"failed_frac    {session.failed}/{session.attempted} = "
          f"{session.failed / session.attempted:.6g} ratio")
    metrics = {}
    walls = [r["wall"] for r in samples]
    if trace and samples and traced:
        layers = tracer.median_metrics([r["layers"] for r in traced])
        traced_wall = statistics.median(r["wall"] for r in traced)
        untraced_wall = statistics.median(walls)
        layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        for message in sorted({m for r in traced for m in r["notes"]}):
            print(f"trace note     {message}")
        for key in PER_LAYER_UNITS:
            print(f"{key:<30} {layers[key]:.6g} {PER_LAYER_UNITS[key]}")
        metrics = {k: {"value": layers[k], "unit": PER_LAYER_UNITS[k]}
                   for k in PER_LAYER_UNITS}
    elif not trace and samples:
        speed = CAL_REF_S / statistics.fmean(r["cal_s"] for r in samples)
        print(f"host_speed     {speed:.6g}  (calibration {CAL_REF_S / speed:.6g} s, "
              f"reference {CAL_REF_S} s)")
        values = {
            "wall_s": walls,
            "setup_s": [r["setup"] for r in samples],
            "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in samples],
        }
        scale = {"wall_s": speed, "setup_s": speed, "peak_rss_mb": 1.0}
        for key, unit in END_TO_END_UNITS.items():
            value = statistics.fmean(values[key]) * scale[key]
            print(describe(key, value, values[key], unit))
            metrics[key] = {"value": value, "unit": unit}
    result = {"correct": session.failed == 0 and bool(metrics),
              "attempted": session.attempted, "failed": session.failed,
              "metrics": metrics}
    return result


def smoke() -> int:
    """Tiny configs of every workload; checks names and units against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, 1, 0.0, trace, smoke=True)
            attempted += result["attempted"]
            failed += result["failed"]
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != expected[trace]:
                problems.append(f"{name} trace={int(trace)}: emitted {emitted}, "
                                f"BENCHMARK.json names {expected[trace]}")
    for problem in problems:
        print(f"MISMATCH       {problem}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if failed == 0 and not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dyson_blocks", "cli.py")):
        print(f"no dyson_blocks sources under {SRC}", file=sys.stderr)
        return 2
    if not (0 <= args.seed < 2 ** 64):
        parser.error("--seed must fit in 64 bits")
    print("# header " + json.dumps(run_header()))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
