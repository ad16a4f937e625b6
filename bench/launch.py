"""Run one command and print its exit code, wall time and peak RSS as JSON.

    python bench/launch.py LIMIT_S LOG COMMAND...

The kernel's peak resident set of a process counts the memory of the process
it was forked from up to its exec, so a CLI process launched straight from
the benchmark (which holds its inputs and expected results) would inherit
the benchmark's size. This launcher stays small (standard library only) and
starts the command itself. Wall time runs from launch to exit; the command
is killed after LIMIT_S seconds.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    limit_s, log, command = float(argv[0]), argv[1], argv[2:]
    signal.signal(signal.SIGTERM, _stop)
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=handle,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": code, "wall_s": wall_s, "peak_rss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
