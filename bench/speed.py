"""Host speed probe: a fixed pure-Python walk that the timed times are scaled by.

The VMs this benchmark runs on change speed by up to 2x in phases of
seconds to minutes, and the change reaches CPU time as well as wall
time, so no clock of the process can hide it.  The probe is timed next
to every measured operation, and the operation's time is reported as it
would be on a host where one probe takes ``REF_S``: ``scaled(t, a, b)``
with ``a`` and ``b`` the probes just before and just after it.

The walk is breadth-first search over the labels of a 12-bit cube under
xor deltas, the same kind of work as the program's flow searches (set
and dict lookups on small ints), but written here, so no change to the
program can change it.
"""

from __future__ import annotations

import gc
import time

# one probe's time on the 2-core Xeon VM the benchmark was tuned on, in a
# fast phase (5.2 to 10 ms over 200 probes, median 6.0 ms)
REF_S = 0.006
# a probe is taken before an operation once this long has passed since the last one
PROBE_EVERY_S = 0.05

_BITS = 12
_DELTAS = tuple(sorted({1 << i for i in range(_BITS)} | {(2 << i) - 1 for i in range(1, _BITS)}))


def _walk() -> int:
    seen = {0}
    parent = {}
    frontier = [0]
    while frontier:
        reached = []
        for u in frontier:
            for d in _DELTAS:
                v = u ^ d
                if v not in seen:
                    seen.add(v)
                    parent[v] = u
                    reached.append(v)
        frontier = reached
    return len(parent)


def probe() -> float:
    """Seconds of the faster of two walks, with the garbage collector off,
    so that a collection the program's garbage has made due is not
    charged to the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            if _walk() != (1 << _BITS) - 1:
                raise RuntimeError("speed probe walk reached the wrong number of labels")
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` as on a host where a probe takes ``REF_S``, given the
    probes taken just before and just after."""
    return seconds * REF_S / ((before + after) / 2.0)
