#!/usr/bin/env python3
"""SinClave benchmark: one command that builds, runs and checks a workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run it from the root of a checkout. It builds the repository's `sinclave`
library and the benchmark program in perfbench/src (Release, under .bench_build/ or
$CARGO_TARGET_DIR), runs one workload from freshly built state, and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a layer the workload does not exercise reads 0). Every
run is sized by operation count: --seconds only sets how many operations
the fixed workload performs, so a slow host runs longer rather than
measuring a different amount of work. The full record of a run, with the
host fingerprint and every check, goes to <build>/results/, and a traced
run's spans and self-time table to <build>/traces/.

Exits 0 when every correctness check passed, 1 when a check failed or the
build or run did not complete, 2 on a usage error.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
ISA_FLAGS = ("sha_ni", "adx", "bmi2", "avx512ifma", "vaes")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def parse_args(spec):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Build and run one SinClave benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")
    return args


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_step(command, out):
    """Runs a build step with the compiler's temporary files kept in `out`."""
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build(out):
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        fail(f"no SinClave sources next to {SOURCE}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            if not run_step(["cmake", "-S", str(SOURCE), "-B", str(out),
                             *generator, "-DCMAKE_BUILD_TYPE=Release"], out):
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail("configuring the build failed")
        if not run_step(["cmake", "--build", str(out), "--target",
                         "sinclave_perfbench", "-j",
                         str(min(4, os.cpu_count() or 1))], out):
            fail("the build failed")
    return out / "sinclave_perfbench"


def host_fingerprint(build_type):
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "isa": {flag: flag in flags for flag in ISA_FLAGS},
            "build_type": build_type}


def run_benchmark(exe, args, out):
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out / "traces")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"sinclave_perfbench exited with {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("sinclave_perfbench printed no record")


def select_metrics(spec, args, record):
    """The metrics of this mode, in BENCHMARK.json order, unit-checked."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = record["metrics"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name} measured in {measured[name]['unit']}, not {unit}")
            value = float(measured[name]["value"])
        elif args.trace:
            value = 0.0  # the workload does not exercise this layer
        else:
            fail(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    spec = load_spec()
    args = parse_args(spec)
    out = build_dir()
    started = time.time()
    exe = build(out)
    record = run_benchmark(exe, args, out)
    metrics = select_metrics(spec, args, record)
    correct = bool(record["checks"]) and all(record["checks"].values())

    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host_fingerprint(record["build_type"]),
            "wall_s": time.time() - started, "correct": correct,
            "attempted": record["attempted"], "failed": record["failed"],
            "checks": record["checks"], "metrics": record["metrics"]}
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(full, indent=2) + "\n")

    for name, ok in record["checks"].items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    print("host: " + json.dumps(full["host"]))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
