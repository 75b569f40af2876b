"""A fixed unit of pure-Python work that measures the host's current speed.

The shared host this benchmark was tuned on changes speed in phases of a
few seconds: the same digest loop took anywhere from 1x to 2x its fastest
time over one minute, CPU time moving with wall time.  Timing the unit
below in the same process, interleaved with the program's operations,
measures that speed, and the timed metrics are scaled by it to what they
would read on a host where one unit takes ``REF_UNIT_S``.  Over the same
minute, the ratio of digest time to unit time stayed within 4%.

The unit uses the benchmark's own ring arithmetic (ring.py), never
ideallat, so a change to the program cannot move it.  Like the program's
operations, it is dict, tuple and small-int work in the interpreter.

Where the timed work is mostly a fresh process starting and importing
(each cli operation, and every set-up), the unit is a whole process too:
a fresh interpreter that imports a few standard modules and runs
``PROCESS_UNITS`` units.  Start-up and imports drift less than interpreted
loops do, and this unit drifts as they do.
"""

import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import ring

# the unit's time on the reference host, a 2-core shared sandbox; only the
# scale of the reported figures depends on it
REF_UNIT_S = 0.0012
# the process unit's time on the reference host
REF_PROCESS_S = 0.12
PROCESS_UNITS = 30
# calibration takes this share of the time spent in operations
SHARE = 0.15

_SPEC = [("neg", 32)]
_rng = random.Random(20061)
_A = {(i,): _rng.randint(-50, 50) for i in range(32)}
_B = {(i,): _rng.randint(-50, 50) for i in range(32)}


def unit():
    """Run one unit and return its wall time in seconds."""
    t = time.perf_counter()
    ring.mul(_A, _B, _SPEC, 12289)
    return time.perf_counter() - t


_PROCESS_CODE = (
    "import sys; sys.path.insert(0, %r)\n"
    "import argparse, fractions, json\n"
    "import calibrate\n"
    "for _ in range(%d): calibrate.unit()\n" % (str(Path(__file__).resolve().parent), PROCESS_UNITS)
)


def process_unit():
    """Run one process unit and return its wall time in seconds."""
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _PROCESS_CODE])
    # a blocking wait: Popen.wait with a timeout polls, which would quantise the time
    timer = threading.Timer(60, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t
    if code != 0:
        raise RuntimeError("calibration process exited with %d" % code)
    return elapsed


class Meter:
    """Keeps calibration at ``SHARE`` of the operations' wall time."""

    def __init__(self, unit=unit, ref_s=REF_UNIT_S):
        self.unit = unit
        self.ref_s = ref_s
        self.seconds = 0.0
        self.units = 0

    def after(self, op_wall_s):
        """Top calibration up after an operation; ``op_wall_s`` is the total so far."""
        while self.seconds < SHARE * op_wall_s:
            self.run(1)

    def run(self, n):
        for _ in range(n):
            self.seconds += self.unit()
            self.units += 1

    @property
    def speed(self):
        """How much faster the host ran than the reference host (below 1: slower)."""
        return self.ref_s * self.units / self.seconds
