"""Run one command; write its wall time, exit code and own peak RSS as JSON.

    python3 -S perfbench/stage.py REPORT_PATH TIMEOUT_S COMMAND...

The benchmark starts every CLI stage through this small interpreter. On
Linux a child's ru_maxrss starts at its parent's RSS high-water mark (exec
replaces the parent's memory map, whose peak is carried over), so a stage
spawned straight from the benchmark driver, which holds numpy and the check
data, would report the driver's peak whenever that is the larger one. This
process imports nothing heavy, so what it reports is the stage's own peak.
The command is killed after TIMEOUT_S seconds.
"""

import json
import os
import select
import subprocess
import sys
import time


def run_command(command, timeout, **popen_kwargs):
    """Run ``command``, killing it after ``timeout`` seconds; returns its wall
    time, exit code and peak RSS. The wait blocks on a pidfd, so the time is
    not rounded to a polling interval as ``subprocess.run(timeout=...)`` is."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, **popen_kwargs)
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
    finally:
        os.close(fd)
    if not ready:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": elapsed, "exit_code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    report, timeout, command = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    with open(report, "w") as fh:
        json.dump(run_command(command, timeout), fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
