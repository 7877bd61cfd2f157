"""Start one command and report what it cost, from a small process.

    python perfbench/launch.py RESULT.json -- ARGV...

Linux keeps a process's peak RSS across fork and exec, so a command started
straight from the benchmark (which holds numpy and the generated inputs)
would report at least the benchmark's own size. This launcher imports
nothing heavy; the command it forks starts from its small footprint, and
wait4 gives that command's own wall time, CPU time and peak RSS.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    result_path, sep, *cmd = argv
    if sep != "--" or not cmd:
        raise SystemExit("usage: launch.py RESULT.json -- ARGV...")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"returncode": proc.returncode, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
