"""Shared plumbing: operation log, failure ledger, statistics, resources.

Every timing is recorded raw and scaled by the reference samples taken
at its two ends (:mod:`refclock`); the figures use the scaled times.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from checks import check_roundtrip, over_eb
from refclock import RefClock

__all__ = [
    "REL_EB",
    "MB",
    "Done",
    "Op",
    "Run",
    "percentile",
    "peak_rss_mb",
    "shm_segments",
    "stop_resource_tracker",
    "import_seconds",
    "repeat_median",
    "tune_fields",
    "tune_standard",
]

#: The paper's headline relative error bound, used by every workload.
REL_EB = 1e-3
MB = 1e6
#: Tuning runs for up to a minute in one call; a reference mark before
#: every this many candidate trials lets the scale follow drift within it.
TUNE_MARK_EVERY = 48
#: How often ``chunked`` and ``service`` tune their standard input, the
#: Table III CESM-T field (see :func:`tune_standard`).
STANDARD_TUNES = 7


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of its reaped children.

    ``getrusage(RUSAGE_CHILDREN)`` reports the largest peak among all
    waited-for descendants (pool workers, the service and its shards).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / MB


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python creates (psm_*)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker and wait for it.

    Creating a shared-memory segment (the pool's inputs) starts a tracker
    process that lives until this interpreter has exited and then ends on
    its own, a moment later and no longer a waited-for child. Stopping it
    here, once every segment is unlinked, leaves no process behind the run.
    The multiprocessing module exposes no public call for it.
    """
    if "multiprocessing.resource_tracker" not in sys.modules:
        return
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


@dataclass
class Op:
    """One completed operation: kind, scaled seconds, bytes, repeat group."""

    kind: str
    seconds: float
    nbytes: int = 0
    group: str = ""


@dataclass
class Done:
    """A completed call: output, raw and scaled seconds, root span."""

    out: object
    raw: float
    seconds: float
    span: int | None


@dataclass
class Run:
    """Everything one benchmark run accumulates before it reports."""

    ref: RefClock = field(default_factory=RefClock)
    ops: list[Op] = field(default_factory=list)
    attempted: Counter = field(default_factory=Counter)  # measured operations
    setup_ops: Counter = field(default_factory=Counter)  # tuning, probes
    failed: Counter = field(default_factory=Counter)
    statuses: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    over_eb: Counter = field(default_factory=Counter)  # outputs, points past eb
    busy: float = 0.0  # scaled wall time of a concurrent workload's window
    setup: float = 0.0  # scaled seconds
    tune: float = 0.0  # scaled seconds
    standard_tunes: list[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def attempt(self, kind: str) -> None:
        self.attempted[kind] += 1

    def fail(self, kind: str, why: str, status: int | None = None) -> None:
        """Count a failed operation (an error or refusal, not a wrong output)."""
        self.failed[kind] += 1
        if status is not None:
            self.statuses[str(status)] += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {why}")

    def problem(self, why: str) -> None:
        """Record a wrong output: the run reports ``correct: false``."""
        if len(self.problems) < 50:
            self.problems.append(why)

    def check(self, what: str, orig, recon, mask, eb: float) -> None:
        """:func:`checks.check_roundtrip`, plus the tally of :func:`checks.over_eb`."""
        why = check_roundtrip(orig, recon, mask, eb)
        if why:
            self.problem(f"{what}: {why}")
        else:
            self.count_over_eb(orig, recon, mask, eb)

    def count_over_eb(self, orig, recon, mask, eb: float) -> None:
        n = over_eb(orig, recon, mask, eb)
        if n:
            self.over_eb["outputs"] += 1
            self.over_eb["points"] += n

    @property
    def correct(self) -> bool:
        return not self.problems

    def op(self, kind: str, call, *, nbytes: int = 0, group: str = "",
           tracer=None, name: str | None = None, rid: str | None = None,
           log: bool = True, setup: bool = False, hook=None, every: int = 0,
           width: int = 1):
        """Attempt one operation between reference marks.

        Returns a :class:`Done`, or ``None`` when the call raised (the
        failure is counted, never hidden). With a ``tracer`` the call runs
        inside a root span ``name``; ``log=False`` keeps it out of the
        throughput and latency figures. ``setup=True`` marks an operation
        outside the measured rounds (tuning, probes): it is counted apart,
        so that the rounds alone make up ``attempted``, and its failure
        is a wrong result, since none is expected. ``hook``, ``every`` and
        ``width`` go to :meth:`RefClock.measure`.
        """
        if setup:
            self.setup_ops[kind] += 1
        else:
            self.attempt(kind)
        sp = None

        def traced():
            nonlocal sp
            with tracer.span(name or kind, rid=rid) as sp:
                return call()

        try:
            out, raw, scaled = self.ref.measure(
                call if tracer is None else traced, hook, every, width)
        except Exception as exc:  # noqa: BLE001 -- counted, not hidden
            if setup:
                self.problem(f"{kind} (set-up) failed: {type(exc).__name__}: {exc}")
            else:
                self.fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        if log:
            self.ops.append(Op(kind, scaled, nbytes, group))
        return Done(out, raw, scaled, None if sp is None else sp.id)

    # ------------------------------------------------------------------ #
    # figures, in nominal-host seconds

    def _typical(self) -> list[tuple[Op, float]]:
        """Each logged op paired with the median time of its group.

        The serial workloads repeat identical work (same input, same
        call) many times per run, so the spread within a group is noise
        of the host, not of the program; the group median rejects it.
        Ops without a group keep their own time.
        """
        times = defaultdict(list)
        for o in self.ops:
            times[o.group].append(o.seconds)
        med = {g: statistics.median(v) for g, v in times.items()}
        return [(o, med[o.group] if o.group else o.seconds) for o in self.ops]

    def throughput(self, kind: str) -> float:
        """Input (or output) MB per second of this kind's operation time."""
        pairs = [(o, t) for o, t in self._typical() if o.kind == kind]
        return sum(o.nbytes for o, _ in pairs) / MB / sum(t for _, t in pairs)

    def end_to_end(self) -> dict[str, float]:
        """Every end-to-end metric."""
        typical = self._typical()
        lat = [t * 1e3 for _, t in typical]
        serial = all(o.group for o, _ in typical)
        busy = sum(t for _, t in typical) if serial else self.busy
        return {
            "setup_s": self.setup,
            "compress_mb_s": self.throughput("compress"),
            "decompress_mb_s": self.throughput("decompress"),
            "ratio": self.notes["ratio"],
            "psnr_db": self.notes["psnr_db"],
            "tune_s": (statistics.median(self.standard_tunes) if self.standard_tunes
                       else self.tune),
            "requests_per_s": len(typical) / busy,
            "latency_p50_ms": statistics.median(lat),
            "latency_p95_ms": percentile(lat, 95.0),
            "peak_rss_mb": peak_rss_mb(),
        }


def repeat_median(run: Run, make, repeats: int = 3, between=None, width: int = 1):
    """Call ``make()`` ``repeats`` times; add the median scaled time to set-up.

    ``between(out)`` undoes a repetition (untimed) before the next one.
    Returns the last repetition's result.
    """
    times, out = [], None
    for i in range(repeats):
        if i and between is not None:
            between(out)
        out, _, scaled = run.ref.measure(make, width=width)
        times.append(scaled)
    run.setup += statistics.median(times)
    return out


def import_seconds(run: Run) -> None:
    """Add the median time a fresh interpreter takes to import the program."""
    code = "import numpy, repro.core, repro.datasets, repro.parallel, repro.service"
    repeat_median(run, lambda: subprocess.run([sys.executable, "-c", code], check=True))


def tune_fields(run: Run, items, tracer=None, walls=None) -> list:
    """``AutoTuner.tune`` at the paper's 1% sampling, once per input.

    ``items`` holds ``(name, data, mask, tuner_kwargs)``. Adds the time to
    ``run.tune`` and returns each input's tuned pipeline (``None`` where
    tuning failed, which makes the run's result wrong). ``walls`` gets
    each traced tune's root span and its measured seconds.
    """
    from repro.core import AutoTuner, autotune

    configs = []
    for name, data, mask, kwargs in items:
        tuner = AutoTuner(sampling_rate=0.01, **kwargs)
        done = run.op("tune", lambda: tuner.tune(data, rel_eb=REL_EB, mask=mask),
                      tracer=tracer, name="bench.tune", rid=f"tune:{name}", log=False,
                      setup=True, hook=(autotune, "CliZ"), every=TUNE_MARK_EVERY)
        if done is None:
            configs.append(None)
            continue
        run.tune += done.seconds
        if walls is not None:
            walls[done.span] = done.raw
        configs.append(done.out.best)
    return configs


def tune_standard(run: Run, tracer=None, walls=None) -> None:
    """One tune of the standard input, for ``chunked`` and ``service``.

    Neither path takes a pipeline, but every workload must report a
    measured ``tune_s``, so these two time the tuner on one fixed input:
    the Table III CESM-T field (96 candidates, about half a second). A
    workload calls this at several points of its run, apart in time so
    that one slow spell of the host does not hit every repeat; ``tune_s``
    is the median.
    """
    from repro.datasets import cesm_t

    f = cesm_t()
    before = run.tune
    tune_fields(run, [(f.name, f.data, f.mask, f.tuner_kwargs())], tracer, walls)
    run.standard_tunes.append(run.tune - before)
    run.notes["standard_tunes_s"] = run.standard_tunes
