"""Sample the machine's momentary speed beside a running process.

    python3 benchmarks/speedprobe.py PERIOD_S

Prints "ready", then reads target pids from stdin, one a line.  Every
PERIOD_S it pins itself to the CPU the current target last ran on, times a
fixed loop of small numpy calls in thread CPU time (so waiting for the busy
core does not count) and prints "<perf_counter> <seconds>".  It ends at the
end of its input.  No code of the program under test runs here.
"""

import os
import select
import sys
import time

import numpy as np

LOOPS = 250


def sample(v) -> float:
    s = 0.0
    t = time.thread_time()
    for _ in range(LOOPS):
        s += float(np.sqrt(v * v + 1.0) @ v)
    return time.thread_time() - t


def cpu_of(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def main(period: float) -> int:
    v = np.linspace(0.0, 1.0, 400)
    usable = os.sched_getaffinity(0)
    target = None
    print("ready", flush=True)
    next_at = time.perf_counter()
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], max(0.0, next_at - time.perf_counter()))
        if ready:
            line = sys.stdin.readline()
            if not line:
                return 0
            target = int(line)
            continue
        next_at = time.perf_counter() + period
        if target is None:
            continue
        try:
            cpu = cpu_of(target)
        except (OSError, ValueError, IndexError):
            continue   # the target has ended
        os.sched_setaffinity(0, {cpu})
        try:
            t = time.perf_counter()
            value = sample(v)
        finally:
            os.sched_setaffinity(0, usable)
        print(f"{t:.6f} {value:.9f}", flush=True)


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1])))
