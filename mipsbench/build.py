"""Build file of the MIPS serving benchmark.

Compiles the program's main sources (`src/main/scala`) together with the
benchmark's own sources (`mipsbench/src`) into `.bench_build/mipsbench/`,
using the Scala compiler and the libraries of the Spark distribution the
program runs on (found through `SPARK_HOME`, else through `spark-submit` on
the PATH). A stamp of the sources skips the compile when nothing changed.

    python3 mipsbench/build.py        # prints the runtime classpath
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIRS = (ROOT / "src" / "main" / "scala", BENCH_DIR / "src")
OUT = ROOT / ".bench_build" / "mipsbench"


class BuildError(Exception):
    pass


def spark_jars():
    """The `jars` directory of the Spark distribution, which also holds the
    Scala compiler the program's Scala version needs."""
    candidates = []
    if os.environ.get("SPARK_HOME"):
        candidates.append(pathlib.Path(os.environ["SPARK_HOME"]) / "jars")
    submit = shutil.which("spark-submit")
    if submit:
        candidates.append(pathlib.Path(submit).resolve().parent.parent / "jars")
    for jars in candidates:
        if any(jars.glob("scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark distribution with a Scala compiler found; set SPARK_HOME")


def java():
    home = os.environ.get("JAVA_HOME")
    exe = pathlib.Path(home) / "bin" / "java" if home else shutil.which("java")
    if not exe or not pathlib.Path(exe).exists():
        raise BuildError("no java found; set JAVA_HOME")
    return str(exe)


def sources():
    missing = [str(d) for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise BuildError("source directories not found: " + ", ".join(missing))
    files = [f for d in SOURCE_DIRS for f in sorted(d.rglob("*.scala"))]
    if not files:
        raise BuildError("no Scala sources found")
    return files


def build():
    """Compiles if the sources changed; returns the runtime classpath."""
    jars = spark_jars()
    files = sources()
    digest = hashlib.sha256()
    for jar in sorted(jars.glob("scala-*.jar")):
        digest.update(jar.name.encode())
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    classes = OUT / "classes"
    stamp = OUT / "classes.sha256"
    classpath = f"{classes}{os.pathsep}{jars / '*'}"
    if classes.is_dir() and stamp.exists() and stamp.read_text() == digest.hexdigest():
        return classpath

    staging = OUT / "classes.new"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    argfile = OUT / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    cmd = [java(), "-Xss8m", "-XX:-UsePerfData", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(staging), f"@{argfile}"]
    print(f"[mipsbench] compiling {len(files)} sources", file=sys.stderr)
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise BuildError("scalac failed")
    shutil.rmtree(classes, ignore_errors=True)
    staging.rename(classes)
    stamp.write_text(digest.hexdigest())
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
