#!/usr/bin/env python3
"""Builds and runs the swimcpp benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Compiles the harness in perfbench/ (with the repository's libraries from
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then
runs it under a wall-time guard. The harness's report goes to stdout; the
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# A run that has not finished this long after its time budget counts as
# failed (hang guard). At --seconds 30 the slowest healthy run, the traced
# analyze-1m run, takes about 90 s.
HARNESS_GRACE_S = 120


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(lanes):
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no swimcpp sources under {ROOT / 'src'}; nothing to build")
        return None
    out = build_dir() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    compile_cmd = ["cmake", "--build", str(out), "--target", "swimbench",
                   "-j", str(lanes)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return out / "swimbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_harness(binary, args, work_dir, limit_s):
    """Runs the harness; returns (stdout lines, timed_out, exit code)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
        timed_out = False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        timed_out = True
    if not timed_out and proc.returncode != 0:
        log(f"harness exited with code {proc.returncode}")
    return out.splitlines(), timed_out, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    lanes = max(1, min(len(os.sched_getaffinity(0)), 4))
    binary = build(lanes)
    if binary is None:
        return 1
    work_dir = build_dir() / "perfbench-work"
    work_dir.mkdir(parents=True, exist_ok=True)

    limit_s = args.seconds + HARNESS_GRACE_S
    lines, timed_out, code = run_harness(binary, args, work_dir, limit_s)
    if code == 2 and not timed_out:
        return 2  # usage error, e.g. an unknown workload
    # The generated trace files are large; spans files are kept.
    for pattern in ("*.csv", "*.stf1"):
        for path in work_dir.glob(pattern):
            path.unlink()

    result = None
    if lines and not timed_out:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    for line in lines:
        print(line)
    if result is None:
        # Hang guard or crash: every operation that did not report counts
        # as one failure, so a stuck run can never read as a pass.
        done = sum(1 for line in lines if line.startswith("op "))
        failed = sum(1 for line in lines if line.startswith("op ")
                     and " FAILED " in line)
        reason = (f"did not finish within {limit_s} s"
                  if timed_out else "ended without a result")
        print(f"harness {reason}; the unfinished operation counts as failed")
        result = {"correct": False, "attempted": done + 1,
                  "failed": failed + 1, "metrics": {}}
    else:
        missing = expected_metrics(args.trace) - set(result["metrics"])
        if missing:
            print(f"missing metrics: {', '.join(sorted(missing))}")
            result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
