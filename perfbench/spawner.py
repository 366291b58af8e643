"""Spawn and reap benchmark children for run.py, one at a time.

Run as `python3 -S perfbench/spawner.py`; the children inherit its
environment and working directory.  It reads one JSON request per stdin
line, {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds},
runs the child with stdout and stderr sent to those files, and answers one
JSON line: {"code", "wall_s", "cpu_s", "rss_kb", "timed_out", "spawn"}.

It is a small process of its own because a child's ru_maxrss starts at the
resident size of the process that forked it.  Spawned from run.py, every
child would report at least the memory of run.py.
"""

import json
import os
import signal
import sys
import time

_child = {"pid": 0, "killed": False}


def _kill_child(signum, frame):
    if _child["pid"]:
        _child["killed"] = True
        os.kill(_child["pid"], signal.SIGKILL)


def _terminate(signum, frame):
    _kill_child(signum, frame)
    if _child["pid"]:
        os.waitpid(_child["pid"], 0)
    os._exit(1)


def run(req):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(req["stdout"], flags, 0o644)
    err_fd = os.open(req["stderr"], flags, 0o644)
    null_fd = os.open(os.devnull, os.O_RDONLY)
    _child["killed"] = False
    spawn = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(null_fd, 0)
            os.dup2(out_fd, 1)
            os.dup2(err_fd, 2)
            os.execv(req["argv"][0], req["argv"])
        finally:
            os._exit(127)
    _child["pid"] = pid
    for fd in (out_fd, err_fd, null_fd):
        os.close(fd)
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _child["pid"] = 0
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "timed_out": _child["killed"],
        "spawn": spawn,
    }


def main():
    signal.signal(signal.SIGALRM, _kill_child)
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
