"""How fast this host runs Python right now, from a fixed CPU kernel.

The benchmark VM shares its cores with other tenants: in phases that
last seconds, the same sweep op runs up to 1.7x slower.  Timing this
kernel next to each measured operation and dividing it out removes
that drift -- over one 40 s run, op time over kernel time stayed within
+-3 % while raw op times moved between 20 and 33 ms.  The kernel is
plain bytecode arithmetic and dict and list churn, the bulk of what the
measured code does; it needs nothing beyond the standard library and
touches no ``repro`` code, so a change to the program under test cannot
move it.

Normalised times are quoted in *reference milliseconds*: what the
operation would take on a host where the kernel runs in
:data:`NOMINAL_S`, the kernel's uncontended time on the reference VM.

Work spread over another process (the server) cannot be bracketed by
kernel runs; for it a *probe* process (``python bench/calibrate.py
--probe OUT``) times the kernel's CPU cost every 50 ms until SIGTERM,
and the mean over a phase scales that phase's CPU seconds.  The probe
costs about 5 % of one CPU.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import time
from typing import List, Sequence, Tuple

#: Kernel time on the uncontended 2-vCPU reference VM.
NOMINAL_S = 0.002

#: Pause between probe samples.
PROBE_EVERY_S = 0.05


def kernel() -> int:
    total = 0
    for i in range(20000):
        total += i * i
    table, items = {}, []
    for i in range(4000):
        table[i & 255] = table.get(i & 255, 0) + 1
        items.append((i, str(i & 7)))
    return total + len(items)


def measure(clock=time.perf_counter) -> float:
    """Seconds one kernel run takes now, on ``clock``."""
    start = clock()
    kernel()
    return clock() - start


def speed() -> float:
    """Seconds per kernel, median of three runs (for one-off timings)."""
    return statistics.median(measure() for _ in range(3))


def normalize(seconds: Sequence[float],
              kernels: Sequence[float]) -> List[float]:
    """Reference seconds of each operation.

    ``kernels[i]`` was timed just before operation ``i`` (a last one may
    follow the final operation); each operation is scaled by the median
    of the kernel timings around it, so a single disturbed kernel run
    cannot skew it.
    """
    if len(kernels) not in (len(seconds), len(seconds) + 1):
        raise ValueError("one kernel timing per operation (and one after)")
    scaled = []
    for i, value in enumerate(seconds):
        around = statistics.median(kernels[max(0, i - 1):i + 2])
        scaled.append(value * NOMINAL_S / around)
    return scaled


def probe_mean(path: str, start: float, end: float) -> Tuple[float, float]:
    """Mean kernel (wall, CPU) seconds of the probe samples taken in
    [start, end]."""
    with open(path, encoding="utf-8") as handle:
        samples = [(wall, cpu) for moment, wall, cpu in json.load(handle)
                   if start <= moment <= end]
    if not samples:
        raise RuntimeError("no probe samples in the measured phase")
    wall, cpu = zip(*samples)
    return statistics.mean(wall), statistics.mean(cpu)


def _probe(out: str) -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    kernel()
    samples = []
    while not stop:
        moment, cpu = time.monotonic(), time.thread_time()
        kernel()
        samples.append((moment, time.monotonic() - moment,
                        time.thread_time() - cpu))
        time.sleep(PROBE_EVERY_S)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="kernel timing probe")
    parser.add_argument("--probe", required=True, metavar="OUT",
                        help="write (time, kernel wall s, kernel CPU s) "
                             "samples here")
    _probe(parser.parse_args().probe)
