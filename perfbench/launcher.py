"""Small process that spawns the benchmark's children and reports their usage.

    python -I perfbench/launcher.py

Reads one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "cwd": DIR, "stdout": PATH, "stderr": PATH,
"timeout": SECONDS}``, runs that child to completion and answers with one
JSON line ``{"wall_s", "cpu_s", "maxrss_kb", "returncode"}``.  Exits at end
of input.

Children are spawned from here rather than from the benchmark itself
because Linux carries a parent's peak RSS into a forked child's
``ru_maxrss``; this process stays small, so ``wait4`` reports the child's own
peak.  Wall time runs from spawn to reaping.
"""
import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"],
                                cwd=req["cwd"])
        signal.alarm(int(req["timeout"]))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
