#!/usr/bin/env python3
"""Build and run the HUGE benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run builds the harness in `perfbench/` (an sbt build that depends
on the repository's main project by source) and stores the runtime classpath
under `.bench_build/perfbench/`; later runs reuse it while the sources are
unchanged. Each run is one JVM that sets up the workload, checks every count
against the reference enumerator and prints one JSON result as the last line
of stdout. Traces of `--trace 1` runs go to `.bench_build/perfbench/traces/`.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["square-lj", "cycle6-go", "clique4-or", "square-go-spark"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
# A fixed heap and the throughput collector gave steadier query times than
# G1 with a growing heap.
HEAP = "3g"

# Spark 4 on JDK 17 needs these, as spark-submit would pass them.
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Hash of every input of the build, so a changed source forces a rebuild."""
    h = hashlib.sha256()
    inputs = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for top in [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "project"),
                os.path.join(HERE, "src"), os.path.join(HERE, "project")]:
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            inputs += [os.path.join(d, f) for f in sorted(files)]
    for p in inputs:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    env.setdefault("COURSIER_MODE", "offline")
    return env


def classpath():
    cp_file = os.path.join(WORK, "classpath.txt")
    stamp_file = os.path.join(WORK, "stamp.txt")
    stamp = source_stamp()
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    print("# building the benchmark harness with sbt", flush=True)
    try:
        r = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
             "-Dsbt.global.base=" + os.path.join(WORK, "sbt-global"),
             "export Runtime/fullClasspath"],
            cwd=HERE, env=sbt_env(), capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("sbt build timed out")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        fail(f"sbt build failed (exit {r.returncode})")
    cp = lines[-1].strip()
    os.makedirs(WORK, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(cp + "\n")
    with open(stamp_file, "w") as f:
        f.write(stamp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    for need in ["build.sbt", os.path.join("src", "main", "scala")]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from a checkout of the repository")

    cp = classpath()
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"), *JVM_OPENS,
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", os.path.join(WORK, "traces")]
    env = dict(os.environ)
    # Spark binds to the loopback interface only.
    env.setdefault("SPARK_LOCAL_IP", "127.0.0.1")
    env.setdefault("SPARK_LOCAL_HOSTNAME", "localhost")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("{"):
                result = line.strip()
            else:
                print(line, end="", flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or result is None:
        fail(f"benchmark JVM exited with {proc.returncode} and no result")
    print(result, flush=True)


if __name__ == "__main__":
    main()
