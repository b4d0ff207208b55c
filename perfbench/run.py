#!/usr/bin/env python3
"""Build the perfbench package from source and run one benchmark workload.

    python3 perfbench/run.py --workload <fig3-validate|serve-zipf|fig4-sweep> \
        --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]

Run it from the repository root. The package is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). The last line of standard output
is the result object; the line before it carries the provenance (commit,
source digest, rustc, nproc, build profile, seed). A traced run (--trace 1)
writes its spans as a Chrome trace to <target dir>/perfbench-trace/ unless
--trace-out names another file. Exits non-zero, printing no result, when the
build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What the benchmark result depends on: the program's sources and its own.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".git", "__pycache__"}
RUN_TIMEOUT_S = 170


def source_digest():
    h = hashlib.sha256()
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        files = []
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def arg_value(args, flag):
    if flag in args[:-1]:
        return args[args.index(flag) + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--target-dir", target,
        ],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if arg_value(args, "--trace") == "1" and arg_value(args, "--trace-out") is None:
        name = "{}-seed{}.json".format(arg_value(args, "--workload"), arg_value(args, "--seed"))
        args += ["--trace-out", os.path.join(target, "perfbench-trace", name)]
    env = dict(
        os.environ,
        PERFBENCH_COMMIT=command_output(["git", "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git"))
        else "none",
        PERFBENCH_SOURCE_DIGEST=source_digest(),
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]),
    )
    try:
        run = subprocess.run([os.path.join(target, "release", "perfbench")] + args, cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
