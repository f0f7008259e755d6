"""The MIPS serving benchmark: one run of one workload.

    python3 mipsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark (build.py), then runs them in one JVM
from the root of the checkout. The last line of standard output is the
result JSON: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones, and the spans go to `.bench_out/`. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import build

WORKLOADS = ("concentrated-k10", "wide-catalog-k50")

# Java's, Spark's and netlib's temporary files stay inside the checkout.
TMP = build.ROOT / ".bench_build" / "tmp"

# A run must end within this many seconds after the build.
RUN_LIMIT_S = 175

# Module access Spark needs on JDK 17, as the root build.sbt grants it.
ADD_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
]


def jvm_command(classpath, args):
    TMP.mkdir(parents=True, exist_ok=True)
    return [
        # no hsperfdata file: it would go to the system temp directory
        build.java(), "-Xmx3g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
        # lets netlib load VectorBLAS, the GEMM reference line
        "--add-modules=jdk.incubator.vector",
        *ADD_OPENS,
        f"-Djava.io.tmpdir={TMP}",
        f"-Dlog4j2.configurationFile={build.BENCH_DIR / 'log4j2.properties'}",
        "-Dspark.driver.host=127.0.0.1",
        "-Dfile.encoding=UTF-8",
        "-cp", classpath, "repro.mipsbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--shrink", str(args.shrink),
    ]


def is_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return isinstance(r, dict) and set(r) == {"correct", "attempted", "failed", "metrics"}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # divides both sides of the model; only the smoke tests set it
    p.add_argument("--shrink", default=1, type=int, help=argparse.SUPPRESS)
    args = p.parse_args()

    try:
        classpath = build.build()
        cmd = jvm_command(classpath, args)
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        env = dict(os.environ, SPARK_LOCAL_DIRS=str(TMP))
        proc = subprocess.run(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_LIMIT_S}s and was stopped", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    result = lines.pop() if lines else ""
    for line in lines:
        print(line)
    if proc.returncode != 0 or not is_result(result):
        print(f"benchmark JVM exited with {proc.returncode} after "
              f"{time.monotonic() - started:.1f}s without a result", file=sys.stderr)
        return 1
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
