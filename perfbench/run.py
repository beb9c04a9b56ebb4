#!/usr/bin/env python3
"""Build and run the rnx benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload replay|fresh --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (which
compiles the rnx library from the repository's sources, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; runs the benchmark's own tests; then runs the benchmark with the
given arguments.  The benchmark's stdout passes through unchanged and
its last line is the result object.  Build output goes to
<build root>/perfbench-build.log; on a failed build its tail is printed
to stderr and the exit code is 1.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(cmd, **kwargs) -> int:
    """Run a child to completion.  SIGTERM/SIGINT are forwarded to it, and
    the child is always reaped, so no process outlives this script."""
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, **kwargs)

    def forward(signum, _frame):
        proc.send_signal(signum)

    previous = {s: signal.signal(s, forward)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for s, handler in previous.items():
            signal.signal(s, handler)


def build(build_root: Path) -> Path:
    build_dir = build_root / "perfbench"
    log_path = build_root / "perfbench-build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if run(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                raise SystemExit(1)
    return build_dir


def main() -> int:
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_root = build_root.resolve()
    build_root.mkdir(parents=True, exist_ok=True)
    build_dir = build(build_root)
    if run([str(build_dir / "perfbench_selftest")], stdout=sys.stderr) != 0:
        sys.stderr.write("perfbench: the benchmark's own tests failed\n")
        return 1
    sys.stdout.flush()
    return run([str(build_dir / "rnx_perfbench"), *sys.argv[1:],
                "--out", str(build_root / "perfbench-runs")])


if __name__ == "__main__":
    sys.exit(main())
