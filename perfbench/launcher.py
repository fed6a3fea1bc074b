"""Starts the benchmark's child processes from a process that stays small.

Linux starts a new program's peak-RSS record (ru_maxrss) from the memory of
the process that exec'd it.  The benchmark process grows while it parses
large outputs, so children it started itself would report its size, not
their own.  This launcher holds no data: it reads one JSON request per line
on stdin, {"argv", "stdout", "stderr", "timeout"}, runs that process to the
end (killing it after timeout seconds), and answers with one JSON line
{"wall", "maxrss_kb", "code"}.  It exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            watchdog = threading.Timer(req["timeout"], child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": child.returncode}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
