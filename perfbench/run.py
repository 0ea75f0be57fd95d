#!/usr/bin/env python3
"""Two-clock benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the measuring program (pinbench)
from the simulator sources into .bench_build/ on first use, then runs one
workload.  The last line of standard output is the run's JSON result;
traced runs also write their host-clock spans to .bench_out/.
Extra arguments after the four above are passed to pinbench unchanged.
"""
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BUILD_TYPE = "Release"
JOBS = "4"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds pinbench incrementally; exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            sys.exit(3)
    make = ["cmake", "--build", str(BUILD), "-j", JOBS, "--target", "pinbench"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        sys.exit(3)
    return BUILD / "pinbench"


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                        "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main(argv):
    binary = build()
    OUT.mkdir(exist_ok=True)
    print(f"# git_sha={git_sha()} source_digest={source_digest()} "
          f"build_type={BUILD_TYPE}", flush=True)
    cmd = [str(binary), *argv,
           "--record", str(HERE / "machine_record.txt"),
           "--out-dir", str(OUT),
           "--faulty-cfg", str(ROOT / "configs" / "faulty.cfg")]
    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
