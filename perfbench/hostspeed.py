"""Host-speed probe: short reference bursts that scale unit times to one host speed.

The benchmark runs on a few cores of a shared host. Other tenants change the
single-thread speed of those cores by 10-30% over tens of seconds, for
interpreted loops and numpy calls alike, so a wall time taken in a slow
phase and one taken in a fast phase differ although the program did not
change. The probe measures that speed alongside the program: while a unit
runs, a SIGALRM timer interrupts it every PERIOD_S and the handler times one
burst of a fixed reference kernel, in the same thread, on the same core. The
bursts are the host's speedometer. A unit's scaled time adds up, slice by
slice, the slice's wall time less its bursts, divided by the median of its
bursts' slowness (burst time over the kernel's NOMINAL_S).

The kernels stand for the kinds of work the workloads do; each workload
names the ones that match its own. They are fixed here so that no change to
the program moves them:

- ``interp``: a pure-Python loop over tuples into a dict (clause scoring,
  QUBO assembly);
- ``small_numpy``: a Python loop of numpy calls on a column of 50 rows
  (the per-site step of annealing);
- ``array_numpy``: whole-array numpy passes over a 16 x 645 int64 block
  (the lockstep step of tabu search);
- ``dense_numpy``: one pass over a 4 MB int64 matrix into another, past
  the core's own caches (the dense dim x dim passes at scale);
- ``page_faults``: first writes to a fresh 512 KB anonymous mapping, one
  per page (the fresh dim x dim buffers at scale).

The other kernels write their large results into buffers made once: a
fresh allocation of that size would time the allocator's state, which the
program shifts, rather than the host.
"""

from __future__ import annotations

import functools
import mmap
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# seconds between bursts while a unit runs
PERIOD_S = 0.02
# about the median burst seconds of each kernel while a unit runs on the reference
# host (shared 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6); they set the scale
NOMINAL_S = {"interp": 2.6e-4, "small_numpy": 3.0e-4, "array_numpy": 2.5e-4,
             "dense_numpy": 9e-4, "page_faults": 6e-4}
# a unit is scaled slice by slice, so that a change of host speed inside it counts
# for the time it lasted
SLICE_S = 0.5
# bursts of each kernel run just before and just after every unit, so that a
# unit spent inside one long C call still has samples next to it
BRACKET_ROUNDS = 4


class Probe:
    """Times bursts of the named kernels in turn, kept as (start, kernel name, seconds)."""

    def __init__(self, kernels):
        rng = np.random.default_rng(12345)
        self._kernels = []
        for name in kernels:
            kernel, inputs = getattr(self, "_" + name), getattr(self, "_" + name + "_inputs")
            self._kernels.append((name, functools.partial(kernel, *inputs(rng))))
        self._next = 0
        self.bursts: list[tuple[float, str, float]] = []

    @staticmethod
    def _interp_inputs(rng):
        return ([tuple(int(v) for v in row) for row in rng.integers(-300, 300, size=(600, 3))],)

    @staticmethod
    def _interp(triples):
        acc: dict[tuple[int, int], int] = {}
        for a, b, c in triples:
            key = (a, b) if a < b else (b, a)
            acc[key] = acc.get(key, 0) + c
        return len(acc)

    @staticmethod
    def _small_numpy_inputs(rng):
        return (rng.integers(0, 2, size=(50, 8), dtype=np.int64),
                rng.integers(-20, 20, size=(50, 8), dtype=np.int64),
                rng.random((50, 8)), np.zeros((50, 8), dtype=np.int64))

    @staticmethod
    def _small_numpy(x, g, u, out):
        for i in range(x.shape[1]):
            delta = np.where(x[:, i] == 1, -g[:, i], g[:, i])
            accept = delta <= 0
            uphill = ~accept
            if uphill.any():
                accept[uphill] = u[uphill, i] < np.exp(-0.5 * delta[uphill])
            rows = np.nonzero(accept)[0]
            out[rows, i] = 1 - x[rows, i]
        return out

    @staticmethod
    def _array_numpy_inputs(rng):
        x = rng.integers(0, 2, size=(16, 645), dtype=np.int64)
        return (x == 1, rng.integers(-50, 50, size=x.shape, dtype=np.int64),
                rng.integers(-5, 5, size=(645, 645), dtype=np.int64),
                np.empty_like(x), np.empty_like(x))

    @staticmethod
    def _array_numpy(ones, g, coupling, delta, moved):
        np.copyto(delta, g)
        np.negative(g, out=delta, where=ones)
        flip = delta.argmin(axis=1)
        np.take(coupling, flip, axis=0, out=moved)
        np.add(moved, delta, out=moved)
        return moved

    @staticmethod
    def _dense_numpy_inputs(rng):
        dense = rng.integers(0, 1000, size=(512, 1024), dtype=np.int64)
        return dense, np.empty_like(dense)

    @staticmethod
    def _dense_numpy(dense, out):
        np.multiply(dense, 3, out=out)
        return out

    @staticmethod
    def _page_faults_inputs(rng):
        return ()

    @staticmethod
    def _page_faults():
        with mmap.mmap(-1, 1 << 19) as region:
            np.frombuffer(region, dtype=np.uint8)[::mmap.PAGESIZE] = 1

    def burst(self) -> None:
        name, kernel = self._kernels[self._next % len(self._kernels)]
        self._next += 1
        start = time.perf_counter()
        kernel()
        self.bursts.append((start, name, time.perf_counter() - start))

    def bracket(self) -> None:
        for _ in range(BRACKET_ROUNDS * len(self._kernels)):
            self.burst()

    @contextmanager
    def sampling(self):
        """Run a burst every PERIOD_S for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.burst())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def spent(self, first: int, start: float, end: float) -> float:
        """Seconds that bursts since index ``first`` took inside [start, end]."""
        return sum(seconds for began, _, seconds in self.bursts[first:]
                   if start <= began < end)

    def scaled(self, first: int, start: float, end: float) -> float:
        """Seconds that [start, end], less its bursts, would take at the nominal speed.

        Uses the bursts since index ``first``. The median keeps a burst that a
        page fault or a preemption stretched from moving a slice's figure; a
        slice without bursts (one long C call) takes the median of them all.
        """
        ratios = [(began, seconds, seconds / NOMINAL_S[name])
                  for began, name, seconds in self.bursts[first:]]
        overall = statistics.median(ratio for _, _, ratio in ratios)
        count = max(1, round((end - start) / SLICE_S))
        width = (end - start) / count
        slices: list[list[tuple[float, float]]] = [[] for _ in range(count)]
        for began, seconds, ratio in ratios:
            if start <= began < end:
                slices[min(count - 1, int((began - start) / width))].append((seconds, ratio))
        return sum((width - sum(seconds for seconds, _ in inside))
                   / (statistics.median(ratio for _, ratio in inside) if inside else overall)
                   for inside in slices)

    def slowness(self, first: int) -> dict[str, float]:
        """Each kernel's median burst time since index ``first`` over its NOMINAL_S."""
        times: dict[str, list[float]] = {}
        for _, name, seconds in self.bursts[first:]:
            times.setdefault(name, []).append(seconds)
        return {name: statistics.median(t) / NOMINAL_S[name] for name, t in times.items()}
