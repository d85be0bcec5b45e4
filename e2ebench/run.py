#!/usr/bin/env python3
"""Build the VOLAP end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

Workloads: bulk_ingest, query_only, mixed_70_30, crash_recovery (see
README.md). The build goes to $CARGO_TARGET_DIR if set, else .bench_build,
relative to the repository root; configure and build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Traced
runs (--trace 1) also write the benchmark's spans under <build>/spans.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out):
    src = os.path.join(out, "e2ebench")
    if not os.path.exists(os.path.join(src, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", src, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", src, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(src, "volap_e2e")


def main():
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)
    env = dict(os.environ, VOLAP_E2E_SPANS_DIR=spans)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
