#!/usr/bin/env python3
"""Builds and runs one perfbench workload, or all of them.

    python3 perfbench/run.py --workload cec_certified --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a sateda checkout.  The first call configures and
builds perfbench (a Release build of the libraries in src/) under
.bench_build/ (or $CARGO_TARGET_DIR).  Each call then generates the
workload's inputs from --seed, runs the flow over them for --seconds and
prints a table of every metric with its unit and sample count, the full
report as one JSON line (host block included) and, last, the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  The exit code is 0 only when every verdict matched
its known answer and every certificate and replay checked.
"""
import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cec_certified", "atpg_serve", "bmc_sweep"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no sateda sources at %s/src" % ROOT)
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def source_sha256():
    """Digest of the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_block(detail):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": detail.get("compiler"),
        "build_type": detail.get("build_type"),
        "git_sha": sha,
        "source_sha256": source_sha256(),
    }


def run_workload(exe, workload, seed, seconds, trace):
    """Generates the inputs, runs the flow; returns (report, exit code)."""
    tag = "%s-%d-%d" % (workload, seed, os.getpid())
    inputs = os.path.join(build_root(), "inputs", tag)
    spans_dir = os.path.join(build_root(), "spans")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    os.makedirs(spans_dir, exist_ok=True)
    try:
        subprocess.run([exe, "gen", workload, str(seed), inputs], check=True,
                       timeout=RUN_TIMEOUT_S)
        spans = os.path.join(spans_dir, "%s-%d.jsonl" % (workload, seed))
        p = subprocess.run([exe, "run", workload, inputs, str(seconds),
                            str(trace), spans],
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s produced no report (exit %d)" % (workload, p.returncode))
    return json.loads(lines[-1]), p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = args.seconds or spec["run_seconds"]
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        exe = build()
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        log("perfbench: cannot set up: %s" % e)
        return 2

    ok = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            report, code = run_workload(exe, workload, args.seed, seconds,
                                        args.trace)
        except (OSError, ValueError, RuntimeError,
                subprocess.SubprocessError) as e:
            log("perfbench: %s failed: %s" % (workload, e))
            return 2
        report["seed"] = args.seed
        report["host"] = host_block(report.get("detail", {}))
        metrics = report["metrics"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            log("perfbench: %s did not report %s" % (workload, missing))
            return 2
        print("%s (seed %d, %s): attempted %d, failed %d" %
              (workload, args.seed, "traced" if args.trace else "untraced",
               report["attempted"], report["failed"]))
        for m in wanted:
            v = metrics[m["name"]]
            print("  %-28s %16.6f %-6s n=%d" %
                  (m["name"], v["value"], v["unit"], v["samples"]))
        for note in report.get("failures", []):
            print("  FAILED: %s" % note)
        print(json.dumps(report, sort_keys=True))
        print(json.dumps({
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                    "unit": metrics[m["name"]]["unit"]}
                        for m in wanted},
        }), flush=True)
        ok = ok and report["correct"] and code == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
