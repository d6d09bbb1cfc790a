"""Speed probe: a small process that times a fixed pure-Python loop on
request, so that the machine's speed is measured apart from the state
(heap, caches) of the process under test.

    python3 perfbench/probe.py

Each line read from stdin runs the loop once to warm up, then REPEATS
times, and answers with one line: the median of their times in seconds.
The process ends at the end of its input. `Probe` starts one and asks
it; the caller waits for each answer, so the probe never runs at the same
time as the work it is measuring.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 3                     # timed loops per answer; it sends the median


def loop() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed now."""
    t = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t


class Probe:
    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            bufsize=1)
        self.time()                 # wait until it is up

    def time(self) -> float:
        self.proc.stdin.write("\n")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe process ended")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def main():
    for _ in sys.stdin:
        loop()                      # warms the caches the work just used
        print(repr(statistics.median(loop() for _ in range(REPEATS))),
              flush=True)


if __name__ == "__main__":
    main()
