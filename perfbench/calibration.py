"""Host-speed calibration for the host-time metrics.

The benchmark shares its machine with other tenants, and on a shared core
the interpreter's speed swings by up to 1.8x within seconds. Timing the
same fixed piece of plain Python next to every measured interval tells how
fast the host was at that moment; host seconds are then converted to
reference seconds, ``host_s * REFERENCE_S / calibration_s``, so that a
change in the program moves the metric and a change in the machine's
speed mostly cancels. On a shared 2-vCPU VM (Python 3.11), the spread
between groups of episodes of the median slice rate fell from 11-15% to
2-5% of the mean.

The loop shares no code with the program: it is a toy event loop over
generators, dicts and a heap, the same kinds of interpreter work the
simulator does.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Calibration time of one :func:`calibrate` call on a 2-vCPU VM (Python
#: 3.11) while no other tenant competed for its core. Host seconds are
#: reported in units of that machine's seconds.
REFERENCE_S = 0.0122

_EVENTS = 20_000
_PROCESSES = 64


def _process(pid: int, state: dict):
    count = 0
    while True:
        count += 1
        slot = pid % 97
        state[slot] = state.get(slot, 0) + count
        yield (count * 7919 + pid) % 1000 + 1


def calibrate() -> float:
    """Host seconds one fixed run of the toy event loop takes."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        state: dict = {}
        processes = [_process(pid, state) for pid in range(_PROCESSES)]
        queue = [(next(process), pid) for pid, process in enumerate(processes)]
        heapq.heapify(queue)
        for _ in range(_EVENTS):
            when, pid = heapq.heappop(queue)
            heapq.heappush(queue, (when + next(processes[pid]), pid))
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
