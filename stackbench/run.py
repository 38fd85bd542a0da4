#!/usr/bin/env python3
"""Builds the stack benchmark if needed and runs one workload.

    python3 stackbench/run.py --workload <olap|oltp-live|gnn> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the program's sources
together with the benchmark (sbt, in stackbench/) and caches the class path
under stackbench/work/; later runs reuse it until a source file changes.
The workload then runs in a plain JVM with a fixed heap and collector.
The last line on stdout is the JSON result.
"""
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
# Fixed heap (-Xms = -Xmx) and collector: GART's read speed depends on where
# the collector places its block chains, so both are part of the workload.
# AlwaysPreTouch faults the heap in at start-up, so the timed phase does not
# pay first-touch page faults whenever the young generation reaches new pages.
HEAP = "2g"
JVM_FLAGS = ["-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch",
             "-XX:-UsePerfData"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def source_files():
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src"),
             os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names if n.endswith((".scala", ".sbt", ".properties"))
                      or "META-INF" in d]
    return sorted(files)


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def spark_home():
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    submit = shutil.which("spark-submit")
    if not submit:
        sys.exit("run.py: no Spark found (set SPARK_HOME or put spark-submit on PATH)")
    return os.path.dirname(os.path.dirname(os.path.realpath(submit)))


def build(env):
    """Returns the run-time class path, compiling first when sources changed."""
    cp_file = os.path.join(WORK, "classpath.txt")
    stamp_file = os.path.join(WORK, "stamp.txt")
    want = stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == want:
                with open(cp_file) as g:
                    return g.read().strip()
    sbt = shutil.which("sbt")
    if not sbt:
        sys.exit("run.py: sbt not found on PATH")
    log("compiling (sbt) ...")
    t0 = time.time()
    # sbt keeps its global state (server sockets, staging) under work/.
    p = subprocess.run([sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                        "-Dsbt.global.base=" + os.path.join(WORK, "sbt-global"),
                        "compile", "export Runtime/fullClasspath"],
                       cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       stdin=subprocess.DEVNULL, timeout=840)
    out = p.stdout.decode("utf-8", "replace").strip().splitlines()
    if p.returncode != 0 or not out:
        sys.stderr.write("\n".join(out[-40:]) + "\n")
        sys.exit("run.py: build failed")
    cp = out[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(want)
    log("compiled in %.0f s" % (time.time() - t0))
    return cp


def git_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=10)
        sha = p.stdout.decode().strip() if p.returncode == 0 else ""
        return sha or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        sys.exit("run.py: the program's sources (src/main/scala/repro) are not here; "
                 "run from the repository root")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    # Resolve from the local caches only, through the repositories file
    # when the user has one and has not configured sbt otherwise.
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    if "sbt.repository.config" not in env.get("SBT_OPTS", "") and os.path.exists(repos):
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.override.build.repos=true"
                           " -Dsbt.repository.config=" + repos + " -Dsbt.offline=true").strip()
    cp = build(env)
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if env.get("JAVA_HOME") else shutil.which("java")
    cmd = [java] + JVM_FLAGS + [
        "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
        "-Djava.io.tmpdir=" + os.path.join(WORK, "tmp"),
        "-Dstackbench.workDir=" + WORK,
        "-Dstackbench.gitSha=" + git_sha(),
        "-Dfile.encoding=UTF-8",
        "-cp", cp, "stackbench.Main"] + sys.argv[1:]
    for k in ("SPARK_LOCAL_DIRS", "SPARK_CONF_DIR"):
        env.pop(k, None)
    cmd.insert(1, "-Dstackbench.startMillis=%d" % int(time.time() * 1000))
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        sys.exit("run.py: workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.decode("utf-8", "replace").rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if p.returncode == 0 and lines:
        print(lines[-1], flush=True)
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
