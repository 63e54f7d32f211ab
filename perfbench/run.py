#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload square_pull --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The engine is built from ./src into
$CARGO_TARGET_DIR (default .bench_build). The full record of the run,
with its metadata, goes to --out (default
<build dir>/results/<workload>-seed<seed>-trace<t>.json); with --trace 1
the span file goes to --spans (default <build dir>/traces/...). The last
line of standard output is the JSON summary: correct, attempted, failed and
the declared metrics of the run's mode (end_to_end for --trace 0, per_layer
for --trace 1).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("square_pull", "path_push", "service_mix")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds hugebench; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                    "hugebench"], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "hugebench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the engine sources and the benchmark, so records taken
    outside a git repository still name the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".py", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", help="full record path")
    ap.add_argument("--spans", help="span file path (--trace 1)")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "huge", "huge.h")):
        fail("engine sources not found under %s/src" % ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out = args.out or os.path.join(bdir, "results", tag + ".json")
    spans = args.spans or os.path.join(bdir, "traces", tag + ".json")
    spill = os.path.join(bdir, "spill")
    for d in (os.path.dirname(os.path.abspath(out)),
              os.path.dirname(os.path.abspath(spans)), spill):
        os.makedirs(d, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill]
    if args.trace:
        cmd += ["--spans", spans]
    started = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("hugebench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("hugebench exited %d without a record" % proc.returncode)

    rec["meta"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": "%s %s" % (cmake_cache(bdir, "CMAKE_CXX_COMPILER"),
                               rec.pop("compiler")),
        "build_type": rec.pop("build_type"),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "run_wall_s": round(time.time() - started, 3),
        "span_file": os.path.relpath(spans, ROOT) if args.trace else None,
    }
    with open(out, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")

    metrics = rec["metrics"]
    bad = [m["name"] for m in declared
           if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if bad:
        fail("record lacks declared metrics or units: " + ", ".join(bad))

    print("workload %s  seed %d  %d s  trace %d  statuses %s" % (
        args.workload, args.seed, args.seconds, args.trace,
        json.dumps(rec["status_counts"], sort_keys=True)))
    print("meta " + json.dumps(rec["meta"], sort_keys=True))
    for name, m in metrics.items():
        print("  %-32s %16.6g %-6s (n=%d)" % (name, m["value"], m["unit"],
                                            m["samples"]))
    for note in rec["notes"]:
        print("  note: " + note)
    print("  record: " + os.path.relpath(out, ROOT))

    summary = {
        "correct": bool(rec["correct"]) and proc.returncode == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": metrics[m["name"]]["unit"]}
                    for m in declared},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
