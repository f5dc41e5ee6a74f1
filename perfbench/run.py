#!/usr/bin/env python3
"""Build the SMC benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <scan|scan_refresh_ops|churn|serve> --seed <n> \
        --seconds <s> --trace <0|1>

The OCaml executable is built with dune into .bench_build/ (or into
$CARGO_TARGET_DIR when that is set) and run with its scratch files under
.bench_work/. Its standard output is passed through; the last line is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is non-zero when the build fails, a correctness gate fails, or the
run does not finish in time.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["scan", "scan_refresh_ops", "churn", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # The benchmark links the repository's libraries; without them there is
    # nothing to build.
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", build_dir, "--profile", "release",
         "--display", "quiet", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    exe = os.path.join(ROOT, build_dir, "default", "perfbench", "bench.exe")
    # A 32 MiB minor heap (4M words) for every domain. Gc.set in the program
    # would resize only the calling domain's heap, not the spawned ones'.
    run_env = dict(env, OCAMLRUNPARAM=",".join(
        p for p in (os.environ.get("OCAMLRUNPARAM", ""), "s=4M") if p))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", ".bench_work"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=run_env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
