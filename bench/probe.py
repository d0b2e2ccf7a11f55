"""Host-speed probe: express measured times at one fixed reference speed.

The benchmark runs on a share of a host whose speed drifts by 40-60% over
minutes (other tenants' load), and a 30-second run cannot average that
out.  So each worker also times a fixed reference loop, every INTERVAL
seconds, from a SIGALRM timer: the loop shares the request's moment and
processor, so its duration tracks the host's speed while the request
runs.  A request's time is then scaled by NOMINAL_S / (mean duration of
the probes within WINDOW seconds of it), which gives its time at the speed
at which one probe takes NOMINAL_S.

The loop does not call the program: a faster or slower program moves the
scaled times just as it moves the wall-clock ones.  It looks values up in
a table of 4,096 ints, so it makes no object the garbage collector tracks
and triggers no collection of the program's heap.  The program can evict
the table (~300 kB) between probes, so a change of the program's memory
footprint can move the probe slightly.  The probe's own time is
subtracted from the request time it interrupted.
"""

import bisect
import signal
import time

INTERVAL = 0.02       # seconds between probes
LOOPS = 2000          # table lookups per probe
NOMINAL_S = 3.0e-4    # one probe's duration at the reference speed
WINDOW = 0.5          # seconds on each side of a request

_TABLE = {i: (i * 2654435761) % 4093 for i in range(4096)}


def _loop(n):
    t, x = _TABLE, 1
    for _ in range(n):
        x = t[x & 4095] ^ (x >> 3)
    return x


class Probe:
    """Runs the reference loop every INTERVAL seconds while started."""

    def __init__(self):
        self.samples = []     # (monotonic end time, duration) per probe
        self.total = 0.0      # probe time so far; a request subtracts it

    def sample(self):
        """Run the loop once now and record it."""
        t0 = time.monotonic()
        _loop(LOOPS)
        t1 = time.monotonic()
        self.samples.append((t1, t1 - t0))
        self.total += t1 - t0

    def _tick(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def factor(samples, t0, t1):
    """NOMINAL_S over the mean duration of the probes within WINDOW
    seconds of the interval [t0, t1], or of all of them if none ran that
    near (the program held the interpreter in one call for so long);
    `samples` is sorted by time."""
    lo = bisect.bisect_left(samples, (t0 - WINDOW,))
    hi = bisect.bisect_right(samples, (t1 + WINDOW, float("inf")))
    near = samples[lo:hi] or samples
    return NOMINAL_S * len(near) / sum(d for _, d in near)
