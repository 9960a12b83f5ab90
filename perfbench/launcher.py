"""Start flagkin requests from a small process and report what each one used.

Usage: ``python perfbench/launcher.py`` with one JSON line per request on
stdin, ``[argv, stdout_path, stderr_path]``.  For each it spawns ``argv``
with stdout and stderr going to those files, reaps it with ``wait4`` and
writes one JSON line ``[wall_s, cpu_s, maxrss_kb, exit_code]`` to stdout.

The requests are not spawned by the benchmark's driving process because
Linux folds the RSS high-water mark of the address space a process leaves at
exec into that process's ``ru_maxrss``.  A request spawned from the driving
process would report that process's peak RSS whenever it is the larger one.
This process imports almost nothing, so its peak stays below any request's.
"""

import json
import os
import sys
import time


def main() -> int:
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        cpu = usage.ru_utime + usage.ru_stime
        print(json.dumps([wall, cpu, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
