"""A repository-independent reference workload used to factor out host drift.

On a shared 2-vCPU virtual machine the speed of the whole host drifts by
tens of percent within seconds, so a raw wall-clock figure says more about
the neighbours than about the code. The benchmark therefore times a fixed
reference workload at quiet points of every run (between operations,
between rounds, every few dozen tuning trials) and scales each timed
stretch by ``REF_NOMINAL_S / reference``, the reference being the mean of
the samples at the stretch's two ends: when the host runs slow, both the
program and the reference slow down, and the scaled figure stays put.

The reference mixes what the program itself spends time on: a
pure-Python loop (interpreter dispatch), numpy sort, cumsum and bincount
over a cache-sized array, and streaming arithmetic over an 8 MB array
(memory bandwidth). The parts slow down by different amounts when the
host does: in a 200-s probe here the log of a CESM-T compress,
decompress and tune time moved 0.6-0.8 times as much as the Python
loop's, 1.1-1.3 times the numpy part's and 1.5-1.9 times the streaming
part's. So the loop takes about half of a sample, where the codec's time
moves about one for one with the sample (1.0-1.2 times); with the loop at
an eighth, the codec moved 1.3-1.7 times as much and the scaled figures
still followed the host. None of the reference touches the repository's
code, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REF_NOMINAL_S", "RefClock", "reference_seconds"]

#: Typical duration of one :func:`reference_seconds` sample on the machine
#: the README's figures come from (2-vCPU KVM guest, Python 3.11, numpy
#: 1.26). Only a scale: scaled timings read as seconds on that machine.
REF_NOMINAL_S = 0.0185

_rng = np.random.default_rng(20240527)
_SMALL = _rng.standard_normal(1 << 16)
_BINS = (np.abs(_SMALL) * 64).astype(np.int64)
_BIG = _rng.standard_normal(1 << 20)
_LOOP = 90_000


def reference_seconds() -> float:
    """One sample of the reference workload, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += (i * i) & 7
    a = np.sort(_SMALL)
    np.cumsum(a, out=a)
    np.bincount(_BINS, minlength=512)
    b = _BIG * 1.0001
    b += _BIG
    np.cumsum(b, out=b)
    return time.perf_counter() - t0


def _helper(conn) -> None:
    """Second reference process: one sample per request, until told to stop."""
    while conn.recv():
        conn.send(reference_seconds())


class RefClock:
    """Reference samples of one run and the scale they give.

    A sample is one-process (``width=1``) or two-process (``width=2``):
    the reference runs in this process and a helper at once and the mean
    counts. Work that keeps both CPUs busy (a pool, a cluster) is scaled by
    two-process samples: a neighbour that takes one CPU slows such work,
    and a one-process reference on the other CPU would not see it.
    Single-threaded work (codec calls, tuning) is scaled by one-process
    samples. ``two=True`` starts the helper; :meth:`close` stops it.
    """

    #: A mark younger than this also serves as the next operation's first.
    FRESH_S = 0.05

    def __init__(self, two: bool = False) -> None:
        self.samples: dict[int, list[float]] = {1: [], 2: []}
        self._last = (0, float("-inf"))
        self._conn = self._proc = None
        if two:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            self._conn, child = ctx.Pipe()
            self._proc = ctx.Process(target=_helper, args=(child,), daemon=True)
            self._proc.start()
            child.close()

    def close(self) -> None:
        """Stop the helper process, if any, and wait for it."""
        if self._proc is not None:
            self._conn.send(False)
            self._proc.join(timeout=10)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join()
            self._conn.close()
            self._proc = None

    def mark(self, width: int = 1) -> float:
        """Take a sample of ``width`` processes; returns it."""
        if width == 1:
            sample = reference_seconds()
        else:
            self._conn.send(True)
            own = reference_seconds()
            sample = 0.5 * (own + self._conn.recv())
        self.samples[width].append(sample)
        self._last = (width, time.perf_counter())
        return sample

    def fresh_mark(self, width: int = 1) -> float:
        """The last sample if it was just taken at this width, else a new one."""
        last_width, when = self._last
        if last_width == width and time.perf_counter() - when <= self.FRESH_S:
            return self.samples[width][-1]
        return self.mark(width)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier taking a raw stretch between two samples to nominal seconds."""
        return REF_NOMINAL_S / (0.5 * (before + after))

    def scale(self, width: int = 1) -> float:
        """The run's median multiplier (for figures that are not single stretches)."""
        return REF_NOMINAL_S / statistics.median(self.samples[width] or self.samples[1])

    def measure(self, call, hook=None, every: int = 0, width: int = 1):
        """Time ``call()`` between samples.

        Returns ``(result, raw s, scaled s)``. A long call can be
        sampled inside too: with ``hook = (owner, attr)``, every
        ``every``-th lookup-and-call of ``owner.attr`` first takes a
        sample, which closes one stretch and opens the next; each stretch
        is scaled by its own two ends (samples of ``width`` processes).
        ``raw`` and ``scaled`` leave the samples' own time out.
        """
        state = {"ref": self.fresh_mark(width), "t0": time.perf_counter(),
                 "raw": 0.0, "scaled": 0.0, "n": 0}

        def close():
            raw = time.perf_counter() - state["t0"]
            ref = self.mark(width)
            state["raw"] += raw
            state["scaled"] += raw * self.factor(state["ref"], ref)
            state["ref"] = ref
            state["t0"] = time.perf_counter()

        original = None
        if hook is not None:
            owner, attr = hook
            original = getattr(owner, attr)

            def marked(*args, **kwargs):
                state["n"] += 1
                if state["n"] % every == 0:
                    close()
                return original(*args, **kwargs)

            setattr(owner, attr, marked)
        try:
            out = call()
        finally:
            if original is not None:
                setattr(hook[0], hook[1], original)
        close()
        return out, state["raw"], state["scaled"]
