#!/usr/bin/env python3
"""Serve-tier benchmark: build, run, check, compare.

Run one workload (from the repository root):

    python3 servebench/run.py --workload exact_tran --seed 1 --seconds 30 --trace 0

The first run configures and builds the library and the benchmark into
.bench_build/ (or $CARGO_TARGET_DIR); later runs only re-check the build.
The benchmark's stdout is passed through; its last line is the result
object.

Compare two checkouts (alternating parent/change pairs, same seed per pair):

    python3 servebench/run.py compare --base ../parent --change . \
        [--pairs 10] [--workloads exact_tran,cold_mixed] [--seconds N]

prints one row per workload and end-to-end metric: each side's median and
quartiles, the change's win share and a verdict (see README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = os.path.basename(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[{NAME}] {msg}", file=sys.stderr, flush=True)


def source_id(root):
    """The commit when the checkout is a git work tree, else a hash of the
    library sources and build files (the benchmark's checkout is not a git
    repository)."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("CMakeLists.txt", "src", NAME):
        path = os.path.join(root, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build_root():
    """Build and scratch directory, relative to the checkout unless the
    environment names an absolute one."""
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(root):
    """Configures (once) and builds the benchmark; returns its path."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        log(f"{root} holds no library sources (CMakeLists.txt, src/)")
        return None
    build_dir = os.path.join(root, build_root(), NAME)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        # The benchmark sources are always this directory's, the library is
        # root's: a comparison runs identical benchmark code on both sides.
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release", f"-DMCSM_ROOT={root}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return None
    if subprocess.run(["cmake", "--build", build_dir, "--target", NAME,
                       "-j", jobs], stdout=sys.stderr,
                      stderr=sys.stderr).returncode:
        log("build failed")
        return None
    return os.path.join(build_dir, NAME)


def run_one(root, workload, seed, seconds, trace, echo=True):
    """Builds if needed and runs one workload in `root`. Returns (exit code,
    parsed result object or None)."""
    exe = build(root)
    if exe is None:
        return 2, None
    # Relative to the checkout: the server's unix socket lives under the work
    # directory, and socket paths are limited to 107 bytes.
    work = os.path.relpath(os.path.join(root, build_root(), "work"), root)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", source_id(root), "--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3, None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    return proc.returncode, result


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """better / worse / unchanged / unresolved for one workload and metric.

    A gain needs the change to win at least 9 of 10 pairs (ties count for
    neither) and the medians to differ by more than the parent's own
    quartile spread, or every change run to beat every parent run; a loss
    is the mirror image. Otherwise a parent spread wider than the bound
    leaves the metric unresolved, a median worse by more than the bound is
    worse, and anything else is unchanged."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    n = len(base)
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    spread = bq3 - bq1
    gain = sign * (cmed - bmed)
    share = wins / n
    if (wins >= 0.9 * n and gain > spread) or \
            min(sign * c for c in change) > max(sign * b for b in base):
        return "better", share
    if (losses >= 0.9 * n and -gain > spread) or \
            max(sign * c for c in change) < min(sign * b for b in base):
        return "worse", share
    if spread > bound * abs(bmed):
        return "unresolved", share
    if -gain > bound * abs(bmed):
        return "worse", share
    return "unchanged", share


def compare(args):
    change_root = os.path.abspath(args.change)
    base_root = os.path.abspath(args.base)
    spec = load_spec(change_root)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # Default: the gated workloads.
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    values = {}  # (side, workload, metric) -> [value per pair]
    for i in range(args.pairs):
        seed = 1000 + i
        # Alternate which side runs first, so drift cancels.
        order = [("base", base_root), ("change", change_root)]
        if i % 2:
            order.reverse()
        for workload in workloads:
            for side, root in order:
                code, result = run_one(root, workload, seed, seconds, 0,
                                       echo=False)
                if code != 0 or not result or not result.get("correct"):
                    log(f"{side} {workload} seed {seed} failed (exit {code})")
                    return 1
                for name, m in result["metrics"].items():
                    values.setdefault((side, workload, name), []).append(
                        m["value"])
                log(f"pair {i + 1}/{args.pairs} {workload} {side} done")
    print(f"{'workload':<11} {'metric':<13} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>5}  verdict")
    for workload in workloads:
        for name, m in metrics.items():
            base = values.get(("base", workload, name))
            change = values.get(("change", workload, name))
            if not base or not change:
                continue
            v, share = verdict(base, change, m["better"], m["bound"])
            bq = "/".join(f"{x:.4g}" for x in quartiles(base))
            cq = "/".join(f"{x:.4g}" for x in quartiles(change))
            print(f"{workload:<11} {name:<13} {bq:>32} {cq:>32} "
                  f"{share:>5.2f}  {v}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--base", required=True)
        p.add_argument("--change", default=".")
        p.add_argument("--pairs", type=int, default=10)
        p.add_argument("--workloads", default="")
        p.add_argument("--seconds", type=int, default=0)
        return compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True,
                   choices=["lut_warm", "exact_tran", "cold_mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    code, result = run_one(os.getcwd(), a.workload, a.seed, a.seconds, a.trace)
    if code == 0 and result is None:
        log("the benchmark printed no result line")
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
