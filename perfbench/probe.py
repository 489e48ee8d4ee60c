"""Host-speed probe: a fixed reference kernel timed in a child process.

A shared host runs the same op up to 1.7 times slower from one minute to the
next.  The worker times a reference kernel, which runs no program code,
before each op and after the last.  For each op it scales the op's seconds
by ``NOMINAL_S[kind]`` over the mean of the two probes, so times read as
seconds on a host of constant speed.  The kernel runs in its own process so
that its memory stays out of the worker's peak RSS.

``cpu`` runs Python bytecode and in-cache numpy.  ``memory`` allocates and
streams 64 MB arrays.  Each tracks the ops of the workloads that use it
(correlation 0.6 to 0.8 in log time); the other kind tracks them less.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

NOMINAL_S = {"cpu": 0.013, "memory": 0.06}
_X = np.linspace(0.1, 5.0, 65536)


def _cpu():
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    for _ in range(25):
        np.exp(-_X * _X).sum()


def _memory():
    np.exp(-np.linspace(0.0, 1.0, 8_000_000)).sum()


KERNELS = {"cpu": _cpu, "memory": _memory}


class SpeedProbe:
    """Client of a probe process; calling it returns one kernel's seconds."""

    def __init__(self, kind):
        self.kind = kind
        self._proc = subprocess.Popen(
            [sys.executable, __file__, kind],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def scale(self, before, after):
        """Factor turning raw op seconds into seconds at nominal speed."""
        return NOMINAL_S[self.kind] / (0.5 * (before + after))

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def _serve(kind):
    kernel = KERNELS[kind]
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    _serve(sys.argv[1])
