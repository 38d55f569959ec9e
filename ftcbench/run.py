#!/usr/bin/env python3
"""End-to-end benchmark of the core-ftc pipeline.

Run from the repository root:

    python3 ftcbench/run.py --workload outage|steady --seed N \
        --seconds S --trace 0|1

Builds ftcbench/ (which compiles the library through the repository's own
CMakeLists.txt) into .bench_build/, runs one measurement and prints, as
its last stdout line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A traced run executes the program twice on the
same seed, each time for half of --seconds, and fails unless every count
metric repeats exactly.

Each run also writes .bench_build/results/<workload>-seed<N>-trace<T>.json
holding the result plus a host record (CPU count, measured parallelism,
build type and flags, commit and a digest of the sources), and a traced
run writes its spans to .bench_build/traces/.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "ftcbench")
BINARY = os.path.join(BUILD, "ftcbench")
# Whole-run ceiling for the program (a traced run starts it twice).
RUN_TIMEOUT_S = 170
COUNT_UNIT = "count"


def log(msg):
    print(f"ftcbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "ftcbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt", os.path.join("ftcbench", "src")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def host_record(detail):
    flags = None
    flags_make = os.path.join(BUILD, "ftc", "CMakeFiles", "ftc.dir",
                              "flags.make")
    if os.path.exists(flags_make):
        with open(flags_make) as fh:
            for line in fh:
                if line.startswith("CXX_FLAGS"):
                    flags = line.split("=", 1)[1].strip()
    build_type = None
    with open(os.path.join(BUILD, "CMakeCache.txt")) as fh:
        for line in fh:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    commit = None
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "effective_parallelism": detail.get("effective_parallelism"),
        "build_type": build_type,
        "cxx_flags": flags,
        "commit": commit,
        "source_digest": source_digest(),
    }


def run_once(args, seconds, trace_file, timeout):
    work = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--work-dir", work, "--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"program did not finish within {timeout:.0f} s")
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            print(line)
        log(f"program exited with code {proc.returncode}")
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return result, detail


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["outage", "steady"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    passes = 2 if args.trace else 1
    runs = []
    for i in range(passes):
        trace_file = os.path.join(OUT, "traces", f"{tag}-pass{i + 1}.json")
        runs.append(run_once(args, args.seconds / passes, trace_file,
                             RUN_TIMEOUT_S / passes))
    result, detail = runs[0]

    if args.trace:
        # Counts are seeded and must repeat exactly on the same seed.
        first, second = (r[0]["metrics"] for r in runs)
        diverged = sorted(
            name for name, m in first.items()
            if m["unit"] == COUNT_UNIT and m["value"] != second[name]["value"])
        if diverged:
            log("counts differ between two runs of one seed: "
                + ", ".join(diverged))
            result["correct"] = False

    record = {"host": host_record(detail), "detail": detail, "result": result}
    path = os.path.join(OUT, "results", f"{tag}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("host " + json.dumps(record["host"]))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
