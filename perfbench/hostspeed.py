"""Set-up and sweep times scaled to a nominal host speed.

The benchmark host is a shared virtual machine whose speed at pure-Python
work drifts by 15-25% over tens of seconds, so raw wall times of the same
code spread past any useful bound from run to run.  A *reference chunk*, a
fixed piece of pure-Python dict/tuple/str work that no program change can
touch, is timed before and after every set-up and sweep and, for work that
runs in the main thread, every :data:`TICK_S` seconds during it (on
``SIGALRM``).  The chunk's median time around a call says how fast the host
ran it; the call's own wall time, less the chunks run inside it, is scaled
by ``NOMINAL_CHUNK_S / median`` to the seconds the call would take on a host
where one chunk takes exactly :data:`NOMINAL_CHUNK_S`.

Run ``python3 perfbench/hostspeed.py`` to print the chunk time on this host.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds a reference chunk takes on the nominal host.
NOMINAL_CHUNK_S = 0.010
#: Chunks timed between two sweeps.
CHUNKS_BETWEEN = 8
#: Seconds between chunks during a sweep that runs in the main thread.
TICK_S = 0.2


def reference_chunk() -> int:
    total = 0
    for j in range(16):
        table = {}
        for i in range(2000):
            table[(i, j)] = (i * i) % 7 + len(str(i))
        total += sum(table.values())
    return total


class HostSpeed:
    """Times reference chunks around and during set-ups and sweeps."""

    def __init__(self):
        self.chunks: list[float] = []
        self._first = 0

    def _chunk(self, *_):
        start = time.perf_counter()
        reference_chunk()
        self.chunks.append(time.perf_counter() - start)

    def _between(self):
        for _ in range(CHUNKS_BETWEEN):
            self._chunk()

    def start(self):
        """Time the chunks that precede the first call."""
        self._first = len(self.chunks)
        self._between()

    def measure(self, call, tick: bool):
        """Run ``call()``; return ``(wall s, scale, result)``.

        ``wall`` excludes the chunks run during the call, and ``wall * scale``
        is the time at the nominal host speed.  ``tick`` runs chunks during
        the call, which only suits a call that works in the main thread.
        """
        first = self._first
        during = len(self.chunks)
        previous = signal.getsignal(signal.SIGALRM)
        if tick:
            signal.signal(signal.SIGALRM, self._chunk)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            start = time.perf_counter()
            result = call()
            wall = time.perf_counter() - start
        finally:
            if tick:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall -= sum(self.chunks[during:])
        # the chunks after this call are the chunks before the next one
        self._first = len(self.chunks)
        self._between()
        return wall, NOMINAL_CHUNK_S / statistics.median(self.chunks[first:]), result


if __name__ == "__main__":
    host = HostSpeed()
    for _ in range(10):
        host.start()
    print(f"reference chunk: median {statistics.median(host.chunks) * 1e3:.2f} ms "
          f"over {len(host.chunks)}, nominal {NOMINAL_CHUNK_S * 1e3:.2f} ms")
