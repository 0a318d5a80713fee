#!/usr/bin/env python3
"""Build and run the polydab benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench_driver from the checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build), runs the named workload in one
driver process, applies the committed correctness gate (expected.json) and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero when the build fails, the run
fails, or any correctness check fails. `--workload all` runs every workload
at both trace levels and prints each one's metrics; its last line merges
them under "<workload>.<metric>" names. `--update-expected` rewrites the
gate's counters from runs at the default seed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ["paper_dual", "shared_saturated", "service_churn"]
RESULT_TAG = "PERFBENCH_RESULT "
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench_driver"


def run_driver(driver, workload, seed, seconds, trace):
    """One driver process; returns its parsed result record."""
    workdir = build_dir() / "run"
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            record = json.loads(line[len(RESULT_TAG):])
        else:
            print(line, flush=True)
    if record is None:
        raise RuntimeError(f"{workload}: driver exited {proc.returncode} "
                           "without a result")
    return record


def gate(record, expected):
    """Compare the deterministic per-instance counters at the default seed.

    The end-to-end leg reports every instance of the ensemble, the traced
    leg only the first one it runs."""
    if record["seed"] != expected["default_seed"]:
        return []
    want = expected["counters"].get(record["workload"])
    if want is None:
        return [f"no expected counters committed for {record['workload']}"]
    got = record["counters"]
    if not got or len(got) > len(want):
        return [f"{record['workload']}: {len(got)} instance counter sets, "
                f"{len(want)} expected"]
    return [f"{record['workload']} instance {i}: {key} is {have.get(key)}, "
            f"expected {value}"
            for i, have in enumerate(got)
            for key, value in want[i].items() if have.get(key) != value]


def summarize(record, expected):
    """The contract's result object; the driver printed its own checks."""
    failures = gate(record, expected)
    for failure in failures:
        print(f"  CHECK FAILED: {failure}", flush=True)
    checks = len(record["checks"]) + len(failures)
    return {
        "correct": record["correct"] and not failures,
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"] + checks,
        "metrics": record["metrics"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args()

    try:
        expected = json.loads(EXPECTED.read_text())
        driver = build()
    except (OSError, ValueError, RuntimeError,
            subprocess.CalledProcessError) as err:
        log(f"perfbench: {err}")
        return 2
    seed = expected["default_seed"] if args.seed is None else args.seed

    try:
        if args.update_expected:
            expected["counters"] = {
                w: run_driver(driver, w, expected["default_seed"], 1, 0)
                ["counters"] for w in WORKLOADS}
            EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")
            log(f"perfbench: wrote {EXPECTED}")
            return 0
        if args.workload != "all":
            result = summarize(run_driver(driver, args.workload, seed,
                                          args.seconds, args.trace), expected)
            print(json.dumps(result), flush=True)
            return 0 if result["correct"] else 1
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = summarize(run_driver(driver, workload, seed,
                                              args.seconds, trace), expected)
                merged["correct"] &= result["correct"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    merged["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(merged), flush=True)
        return 0 if merged["correct"] else 1
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
