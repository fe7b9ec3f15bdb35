"""A fixed unit of work that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed swings between about 0.6
and 1.3 of its usual speed, within seconds and over minutes, with CPU time
following wall time.  A timed worker therefore samples the host's speed
while the engine runs: a `Sampler` interrupts the engine every INTERVAL_S
of wall time (SIGALRM) and times one `unit()` of fixed work.  The worker
subtracts the samples' own time from each measured interval, and run.py
multiplies what is left by REFERENCE_S over the mean unit time sampled
during it.  That gives seconds on a host where one unit takes REFERENCE_S,
and cancels the swings the unit shares with the engine.

The unit imitates the engine's hot path without importing it: sparse
polynomials over Q as dicts from exponent-tuple monomials (objects with
their own hash) to `Fraction`s, multiplied under a degree bound, and a
`Fraction` row reduction.  It never changes, so a change to the engine
moves the engine's times and not the unit's.

    python3 perfbench/calibrate.py    # prints this host's unit times now
"""

import signal
import time
from fractions import Fraction

# About the mean unit time on the 2-core 2.1 GHz Xeon host (Python 3.11)
# the benchmark was built on.  A constant: changing it rescales every
# normalised time.
REFERENCE_S = 0.002
# One sample per INTERVAL_S of wall time costs about a tenth of the run.
INTERVAL_S = 0.015
# A worker samples this long after its set-up too, which itself takes
# about 0.1 s and so holds only a few samples.
SETUP_CAL_S = 0.1

NVARS = 4
BOUND = 8


class _Mono:
    __slots__ = ("exps", "_hash")

    def __init__(self, exps):
        self.exps = exps
        self._hash = hash(exps)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.exps == other.exps

    def mul(self, other):
        return _Mono(tuple(a + b for a, b in zip(self.exps, other.exps)))


def _poly(seed, nterms):
    """A fixed sparse polynomial drawn by a linear congruential generator."""
    terms = {}
    x = seed
    for _ in range(nterms):
        exps = []
        for _ in range(NVARS):
            x = (x * 1103515245 + 12345) % 2147483648
            exps.append((x >> 16) % 3)
        terms[_Mono(tuple(exps))] = Fraction(x % 97 - 48, x % 13 + 1)
    return terms


def _mul(p, q):
    out = {}
    for m, a in p.items():
        for n, b in q.items():
            mn = m.mul(n)
            if sum(mn.exps) > BOUND:
                continue
            c = out.get(mn, 0) + a * b
            if c:
                out[mn] = c
            else:
                out.pop(mn, None)
    return out


def _rref(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def unit():
    """Run the fixed work once; return its wall time in seconds."""
    t = time.perf_counter()
    p = _mul(_poly(1, 10), _poly(2, 10))
    monos = sorted(p, key=lambda m: m.exps)
    _rref([[p[monos[(i * 7 + j) % len(monos)]] + (i == j) for j in range(8)]
           for i in range(6)])
    return time.perf_counter() - t


def calibrate(seconds):
    """Unit times from running units back to back for `seconds`, at least once."""
    end = time.perf_counter() + seconds
    samples = [unit()]
    while time.perf_counter() < end:
        samples.append(unit())
    return samples


class Sampler:
    """Times one unit every INTERVAL_S of wall time, interrupting the caller.

    `samples` holds (start, duration) pairs.  The handler runs between two
    bytecodes of the main thread, so a sample lies wholly inside or wholly
    outside any interval the main thread measures with `time.perf_counter`.
    """

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, unit()))

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, t0, t1):
        """Durations of the samples taken between perf_counter readings t0 and t1."""
        return [d for s, d in self.samples if t0 <= s < t1]


if __name__ == "__main__":
    import statistics
    samples = calibrate(2.0)
    print("%d units: mean %.6f s, median %.6f s, min %.6f s (REFERENCE_S %.6f s)"
          % (len(samples), statistics.mean(samples), statistics.median(samples),
             min(samples), REFERENCE_S))
