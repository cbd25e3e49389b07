"""A fixed reference computation that tracks how fast this machine runs now.

The benchmark runs on a few cores of a shared host, whose speed for the
same code drifts by tens of percent over seconds to minutes as neighbours
come and go. ``calibrate()`` times a fixed piece of work made of what
matverify's hot paths are made of: CPython big-integer products (the
Kronecker-packed chirp kernel), plain interpreter work (parsing, the
quadtree search, the per-block loops) and a pass over a few MiB of memory
(arrays larger than the cache). It uses only the standard library, so it
can run before ``matverify`` or numpy is imported.

The worker runs it between operations. ``scale(before, after)`` turns the
two calibrations around an operation into the factor that converts the
operation's wall time into seconds at the reference speed: the speed at
which one calibration takes ``REFERENCE_S``. Nothing under test runs
inside a calibration, so a change to matverify moves normalised times
exactly as it moves wall times at a steady machine speed.
"""

import random
import time

# one calibration at the reference speed: its median on the 2-core Xeon VM
# (about 2 GHz) the benchmark was defined on
REFERENCE_S = 0.11

_GEN = random.Random(1806_09189)
_X = _GEN.getrandbits(240_000) | 1
_Y = _GEN.getrandbits(240_000) | 1
_PRODUCTS = 3
_LOOP = 40_000
_BUFFER = bytes(6 << 20)


def calibrate() -> float:
    """Seconds one calibration took just now."""
    t0 = time.perf_counter()
    x, y = _X, _Y
    acc = 0
    for _ in range(_PRODUCTS):
        acc ^= (x * y) & 0xFFFF
    table = {}
    for i in range(_LOOP):
        key = (i * 7919 + acc) % 1021
        table[key] = table.get(key, 0) + i
    if len(table) != 1021:
        raise AssertionError("calibration work was skipped")
    copy = _BUFFER.replace(b"\0\0", b"\1\0")
    if len(copy) != len(_BUFFER):
        raise AssertionError("calibration work was skipped")
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for an operation run
    between two calibrations."""
    return REFERENCE_S / ((before + after) / 2.0)
