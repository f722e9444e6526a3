#!/usr/bin/env python3
"""Explain-latency benchmark.

Compiles the repository and this harness from source with the Scala
compiler of the Spark distribution (again only when a source file changed),
then runs one workload in a single JVM with one closed-loop client:

    python3 perfbench/run.py --workload interactive --seed 0 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
`--workload all` runs every workload in turn. `--write-golden` regenerates
the default-seed golden answers from the current code. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Build output, result files and span dumps go to .bench_build/perfbench.
"""
import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden", "seed-0.json")
WORKLOADS = ["interactive", "long-series", "spark-relation"]
# everything the build reads, relative to the repository root
SOURCES = ["build.sbt", "src/main", "jobs", "perfbench/src/main"]
# JVM forks of an end-to-end run: one JVM's passes can run ±15% off the
# next one's for the whole run, while a fixed reference kernel in both stays
# within ±3%, so the interactive workload, whose passes are short, pools a
# third of the run from each of three JVMs; a long-pass workload gets too
# few passes per fork.
FORKS = {"interactive": 3}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# no -Xms: a 3 GB initial heap gives G1 a young generation far larger than
# the caches, and long-series passes ran 40% slower with it
HEAP = ["-Xmx3g"]
ADD_OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
             "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
             "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} timed out after {timeout} s", 1)
    return p.returncode, out


def source_hash():
    h = hashlib.sha256()
    for rel in SOURCES:
        top = os.path.join(ROOT, rel)
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def spark_jars():
    """The Spark distribution's jars directory: $SPARK_HOME/jars, else the
    unmanaged jar directory the repository's build.sbt names."""
    if os.environ.get("SPARK_HOME"):
        d = os.path.join(os.environ["SPARK_HOME"], "jars")
        if os.path.isdir(d):
            return d
    with open(os.path.join(ROOT, "build.sbt")) as f:
        m = re.search(r'sparkJars\s*=\s*file\("([^"]+)"\)', f.read())
    if m and os.path.isdir(m.group(1)):
        return m.group(1)
    fail("Spark jars not found: set SPARK_HOME")


def scala_version():
    with open(os.path.join(ROOT, "build.sbt")) as f:
        m = re.search(r'scalaVersion\s*:=\s*"([^"]+)"', f.read())
    if not m:
        fail("no scalaVersion in build.sbt")
    return m.group(1)


def java_bin():
    home = os.environ.get("JAVA_HOME")
    java = os.path.join(home, "bin", "java") if home else "java"
    if not (os.path.isfile(java) or shutil.which(java)):
        java = shutil.which("java")
    if not java:
        fail("java not found")
    return java


def sources():
    for rel in ("src/main/scala", "jobs", "perfbench/src/main/scala"):
        for d, _, fs in sorted(os.walk(os.path.join(ROOT, rel))):
            yield from (os.path.join(d, f) for f in sorted(fs) if f.endswith(".scala"))


def build(src_sha):
    """Compiles the repository and the harness in one scalac run, with the
    Scala compiler and the Spark jars of the Spark distribution (the same
    compile classpath as build.sbt); returns the runtime classpath. Writes
    only under .bench_build/perfbench; concurrent runs build once."""
    os.makedirs(STATE, exist_ok=True)
    with open(os.path.join(STATE, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return compile_if_stale(src_sha)


def compile_if_stale(src_sha):
    jars_dir = spark_jars()
    jars = sorted(os.path.join(jars_dir, j) for j in os.listdir(jars_dir) if j.endswith(".jar"))
    classes = os.path.join(STATE, "classes")
    classpath = os.pathsep.join([classes] + jars)
    stamp = os.path.join(STATE, "stamp")
    if os.path.exists(stamp) and os.path.isdir(classes):
        with open(stamp) as f:
            if f.read() == src_sha:
                return classpath
    v = scala_version()
    compiler = [os.path.join(jars_dir, f"scala-{c}-{v}.jar") for c in ("compiler", "library", "reflect")]
    missing = [c for c in compiler if not os.path.isfile(c)]
    if missing:
        fail(f"Scala {v} compiler jars not found: {missing}")
    tmp, out = os.path.join(STATE, "tmp"), classes + ".new"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    os.makedirs(tmp, exist_ok=True)
    args_file = os.path.join(STATE, "scalac.args")
    with open(args_file, "w") as f:
        f.write("\n".join(f'"{a}"' for a in ["-nowarn", "-d", out, "-classpath", os.pathsep.join(jars)]
                          + list(sources())) + "\n")
    print(f"perfbench: compiling with Scala {v}", file=sys.stderr)
    code, log = run_group([java_bin(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
                           "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main", f"@{args_file}"],
                          BUILD_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(log)
    if code != 0:
        fail("build failed", 1)
    shutil.rmtree(classes, ignore_errors=True)
    os.replace(out, classes)
    with open(stamp, "w") as f:
        f.write(src_sha)
    return classpath


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def run_jvm(classpath, src_sha, main_args):
    """Run the harness JVM; echoes its stdout and returns its last line."""
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # two Spark threads leave cores for the driver thread, JIT and GC
    env["SPARK_MASTER"] = f"local[{min(2, os.cpu_count() or 1)}]"
    env["SPARK_LOCAL_DIRS"] = os.path.join(STATE, "spark-local")
    cmd = [java_bin(), *HEAP, "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", "-Dspark.ui.enabled=false",
           "-Dspark.driver.host=127.0.0.1", f"-Dspark.sql.warehouse.dir={os.path.join(STATE, 'warehouse')}",
           f"-Dperfbench.gitSha={git_sha()}", f"-Dperfbench.sourceSha={src_sha}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in ADD_OPENS]
    cmd += ["-cp", classpath, "repro.perfbench.Main"] + main_args
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail(f"benchmark JVM exited with code {code}", 1)
    lines = [l for l in out.splitlines() if l.strip()]
    return lines[-1] if lines else ""


def run_workload(classpath, src_sha, w, a):
    """One workload's run; returns its result line. An end-to-end run of a
    workload in FORKS splits --seconds over that many JVMs, one after the
    other, and reports the median over all their passes and queries and the
    median of their set-up times."""
    results = os.path.join(STATE, "results")
    common = ["--workload", w, "--seed", str(a.seed), "--trace", str(a.trace), "--golden", GOLDEN]
    k = FORKS.get(w, 1) if a.trace == 0 else 1
    if k == 1:
        return run_jvm(classpath, src_sha, common + ["--seconds", str(a.seconds), "--out", results])
    passes, queries, setups, lines = [], [], [], []
    for i in range(k):
        out = os.path.join(results, f"fork{i}")
        lines.append(json.loads(run_jvm(classpath, src_sha, common + ["--seconds", str(a.seconds / k), "--out", out])))
        with open(os.path.join(out, f"{w}-seed{a.seed}-trace0.json")) as f:
            d = json.load(f)
        passes += d["pass_s_samples"]
        queries += d["query_s_samples"]
        setups.append(d["setup_s"])
    attempted, failed = sum(r["attempted"] for r in lines), sum(r["failed"] for r in lines)
    n, beyond = len(queries), len(queries) - (len(queries) * 90 + 99) // 100
    p90 = sorted(queries)[n - beyond - 1] if beyond >= 10 else None
    print(f"workload {w} seed {a.seed}, {k} JVM forks: {len(passes)} passes, {n} queries, "
          f"{failed} of {attempted} query runs failed")
    print(f"  query_s_p90 {p90:.6f} s" if p90 is not None else
          f"  query_s_p90 not reported: {n} queries leave {beyond} beyond p90, 10 needed")
    print(f"  error_rate {failed / attempted:.6f} ratio ({failed} of {attempted})")
    line = json.dumps({
        "correct": all(r["correct"] for r in lines),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "query_s_p50": {"value": statistics.median(queries), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        },
    })
    print(line)
    return line


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="run every query once at --seed and write the golden answers")
    a = ap.parse_args()
    if not a.write_golden and a.workload is None:
        ap.error("--workload is required")
    if a.seconds <= 0:
        ap.error("--seconds must be positive")
    for rel in ("build.sbt", "src/main/scala", "jobs"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"repository source {rel} not found next to perfbench/; run from a full checkout")

    src_sha = source_hash()
    classpath = build(src_sha)
    if a.write_golden:
        run_jvm(classpath, src_sha, ["--write-golden", GOLDEN, "--seed", str(a.seed)])
        return
    if a.workload != "all":
        run_workload(classpath, src_sha, a.workload, a)
        return
    results = {w: json.loads(run_workload(classpath, src_sha, w, a)) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
