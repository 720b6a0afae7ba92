"""Start the benchmark's child processes and report what each one cost.

Linux carries a parent's resident set into a forked child's peak RSS (the
high-water mark survives ``exec``), and the benchmark holds its corpora in
memory.  So the benchmark starts this small process first, before it builds
anything, and every measured child is forked from here.

Reads one JSON request per line on stdin,
``{"args": [...], "out": path, "err": path}``, and answers each
with one JSON line ``{"wall": s, "code": n, "rss_kib": n, "cpu_s": s}``.
Peak RSS and CPU time come from ``os.wait4`` and cover the child and every
worker it reaped.  Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter

LIMIT_S = 150  # a child still running after this is killed and counts as failed


def run(request: dict) -> dict:
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(request["args"], stdout=out, stderr=err)
        watchdog = threading.Timer(LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "rss_kib": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
