#!/usr/bin/env python3
"""Build and run the quasi-clique benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serial-hyves --seed 1 --seconds 12 --trace 0

Workloads: serial-hyves, engine-hyves-t100, engine-patent-t100,
engine-patent-t1. With --trace 0 the last line of standard output is the
result object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics, and the spans are written to
.bench_build/perfbench/trace-<workload>-seed<seed>.json.

The first run compiles the program's sources (src/main/scala) together with
the benchmark's (perfbench/src/main/scala) with the Scala compiler that ships
in the Spark distribution ($SPARK_HOME/jars), against the same jars. Later
runs reuse the classes while no source file has changed. Everything built or
written stays under .bench_build/ of the checkout; nothing outside it is
written (no sbt, no ~/.sbt or ~/.cache).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench"
CLASSES = OUT / "classes"
STAMP = OUT / "build.stamp"

BUILD_TIMEOUT_S = 840
JVM_TIMEOUT_S = 170
JVM_OPTS = ["-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData"]
JAVA_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]

_child = None


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    files = sorted((ROOT / "src" / "main").rglob("*")) + sorted((BENCH / "src" / "main").rglob("*"))
    files.append(Path(__file__).resolve())
    return [f for f in files if f.is_file()]


def source_sha():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("no Spark distribution: set SPARK_HOME")
    return home


def run_child(cmd, cwd, env, timeout, capture):
    """Runs cmd in its own process group; kills the group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
        return _child.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        fail(f"{cmd[0]} timed out after {timeout}s")
    finally:
        _child = None


def on_signal(signum, _frame):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signum)


def java_bin(env):
    return str(Path(env["JAVA_HOME"]) / "bin" / "java") if env.get("JAVA_HOME") else "java"


def build(env, sha):
    """Compiles into a fresh directory, then moves it to CLASSES."""
    if STAMP.is_file() and STAMP.read_text().strip() == sha and CLASSES.is_dir():
        return
    jars = sorted((Path(env["SPARK_HOME"]) / "jars").glob("*.jar"))
    if not any(j.name.startswith("scala-compiler-") for j in jars):
        fail("the Spark distribution has no scala-compiler jar")
    sources = [f for f in source_files() if f.suffix == ".scala"]
    staging = OUT / "classes.new"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    classpath = os.pathsep.join(map(str, jars))
    cmd = [java_bin(env), "-Xmx1g", "-Xss4m", "-XX:-UsePerfData", f"-Djava.io.tmpdir={OUT / 'tmp'}",
           "-cp", classpath, "scala.tools.nsc.Main", "-d", str(staging), "-classpath", classpath,
           *map(str, sources)]
    code, _ = run_child(cmd, ROOT, env, BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        fail(f"build failed (scalac exit {code})")
    for res_dir in [ROOT / "src" / "main" / "resources", BENCH / "src" / "main" / "resources"]:
        if res_dir.is_dir():
            shutil.copytree(res_dir, staging, dirs_exist_ok=True)
    shutil.rmtree(CLASSES, ignore_errors=True)
    staging.rename(CLASSES)
    STAMP.write_text(sha + "\n")


def git_commit():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--dataset-seed", type=int, help="GraphGen seed (default: the dataset's own)")
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if not (ROOT / "src" / "main" / "scala").is_dir():
        fail("the program's sources (src/main/scala) are missing from this checkout")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)

    env = dict(os.environ, SPARK_HOME=spark_home())
    sha = source_sha()
    build(env, sha)

    java = java_bin(env)
    classpath = os.pathsep.join([str(CLASSES), str(Path(env["SPARK_HOME"]) / "jars" / "*")])
    cmd = [java, *JVM_OPTS, *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JAVA_OPENS],
           f"-Djava.io.tmpdir={OUT / 'tmp'}", "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", str(OUT), "--commit", git_commit(), "--source-sha", sha]
    if args.dataset_seed is not None:
        cmd += ["--dataset-seed", str(args.dataset_seed)]
    t0 = time.time()
    code, out = run_child(cmd, ROOT, env, JVM_TIMEOUT_S, capture=True)
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with {code} after {time.time() - t0:.1f}s")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
