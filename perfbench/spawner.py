"""Stage launcher: runs one command per JSON request read from stdin and
answers with its exit code, launch and exit times and peak RSS.

The benchmark starts this helper before it builds any corpus, because on
Linux a child's ``ru_maxrss`` starts from the high-water mark of the process
that spawned it. Spawned straight from the benchmark process, which holds
the corpus and the mock server, every stage would report at least the
benchmark's own RSS; spawned from this small process, each stage reports
its own.

Request:  {"argv": [...], "env": {...}, "cwd": str, "log": str, "timeout": s}
Response: {"returncode": int, "start": s, "end": s, "cpu_s": s, "maxrss_kb": int}

``start`` and ``end`` are ``time.monotonic()`` readings, a clock shared by
every process on the machine. The child sees its launch time in the
``PERFBENCH_LAUNCHED_AT`` environment variable.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    env = dict(request["env"])
    with open(request["log"], "wb") as log:
        start = time.monotonic()
        env["PERFBENCH_LAUNCHED_AT"] = repr(start)
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=env,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "start": start, "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
