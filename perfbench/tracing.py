"""In-memory spans recorded from the benchmark's own code.

The traced run wraps the public functions of each layer (``setattr`` on
the module or class that the caller looks the name up in) with a wrapper
that opens a span, and it opens root spans around the operations it
issues itself. Spans carry a name, start, end, parent and request id;
they stay in memory and are written out as JSON lines when the run ends.

A span is either a layer span (opened by a wrapper around one of the
program's public functions, or marked ``layer=True``) or bookkeeping (the
root spans the benchmark opens around its own operations, and umbrella
spans such as ``core.cliz_compress`` whose own code is glue between
layers). A layer span's self time is its duration minus the time its
child spans cover. :meth:`Tracer.reconcile` checks that the span tree is
well formed (children inside their parent, siblings disjoint) and that
the layer spans' self times add up to the wall time the benchmark
measured around each traced operation: what no layer span covers (the
root's and the umbrellas' own code, the codec's inline glue) is the
unattributed share, and a run whose unattributed share exceeds
:data:`RECONCILE_TOLERANCE` fails.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Span", "Tracer", "RECONCILE_TOLERANCE"]

#: Largest allowed share of the measured wall time of the traced
#: operations that no layer span covers.
RECONCILE_TOLERANCE = 0.10


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid")

    def __init__(self, name: str, start: float, parent: int | None,
                 rid: str | None) -> None:
        self.id = -1
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the wrappers it installs into the program."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        self.layers: set[str] = set()  # names of layer spans
        self.counters: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None, layer: bool = False):
        if layer:
            self.layers.add(name)
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent].rid
        sp = Span(name, time.perf_counter(), parent, rid)
        with self._lock:
            index = sp.id = len(self.spans)
            self.spans.append(sp)
        stack.append(index)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, after=None, layer: bool = True) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(args, kwargs, result)`` may record counters (bytes in and
        out, say) from inside the span. ``layer=False`` marks an umbrella
        span, whose own code counts as unattributed. :meth:`unwrap_all`
        restores the original attribute exactly (class descriptors
        included).
        """
        if layer:
            self.layers.add(name)
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = target(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result

        if isinstance(owner, type) and isinstance(raw, (classmethod, staticmethod)):
            installed = staticmethod(wrapper)  # ``target`` is already bound
        else:
            installed = wrapper
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, installed)

    def wrap_everywhere(self, func, name: str, after=None) -> None:
        """Wrap ``func`` in every ``repro`` module that imported it by name."""
        attr = func.__name__
        for mod_name, mod in sorted(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(mod, attr, None) is func:
                self.wrap(mod, attr, name, after)
        self.layers.add(name)

    def unwrap_all(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # ------------------------------------------------------------------ #
    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for i, sp in enumerate(self.spans):
            if sp.parent is not None:
                out[sp.parent].append(i)
        return out

    def self_time(self, index: int, kids: dict[int, list[int]]) -> float:
        sp = self.spans[index]
        return sp.dur - sum(self.spans[k].dur for k in kids.get(index, ()))

    def root_of(self, index: int) -> int:
        while self.spans[index].parent is not None:
            index = self.spans[index].parent
        return index

    def self_times_by_name(self, roots: set[int]) -> dict[str, float]:
        """Self seconds per span name, over the trees under ``roots``."""
        kids = self.children()
        out: dict[str, float] = defaultdict(float)
        for i, sp in enumerate(self.spans):
            if self.root_of(i) in roots:
                out[sp.name] += self.self_time(i, kids)
        return out

    def durations(self, name: str, roots: set[int] | None = None) -> list[float]:
        """Durations of every span called ``name`` under ``roots``."""
        return [sp.dur for i, sp in enumerate(self.spans)
                if sp.name == name and (roots is None or self.root_of(i) in roots)]

    def reconcile(self, walls: dict[int, float]) -> tuple[float, str | None]:
        """Check the trees under ``walls`` (root index -> measured wall).

        Returns the unattributed share of the summed walls (the part no
        layer span's self time covers) and a reason when the check fails:
        a child outside its parent, overlapping siblings, layer time beyond
        the wall, or an unattributed share above
        :data:`RECONCILE_TOLERANCE`.
        """
        if not walls:
            return 1.0, "no traced operations"
        kids = self.children()
        attributed = 0.0
        for i, sp in enumerate(self.spans):
            if self.root_of(i) not in walls:
                continue
            if sp.name in self.layers:
                attributed += self.self_time(i, kids)
            ordered = sorted(kids.get(i, ()), key=lambda k: self.spans[k].start)
            prev_end = sp.start
            for k in ordered:
                child = self.spans[k]
                if child.start < prev_end or child.end > sp.end:
                    return 1.0, (f"span {child.name!r} is not nested inside "
                                 f"{sp.name!r} or overlaps a sibling")
                prev_end = child.end
        total_wall = sum(walls.values())
        share = (total_wall - attributed) / total_wall
        summary = (f"layer self times {attributed * 1e3:.3f} ms of "
                   f"{total_wall * 1e3:.3f} ms measured over {len(walls)} operations")
        if share < 0:
            return share, f"{summary}: layers cover more than the wall"
        if share > RECONCILE_TOLERANCE:
            return share, (f"{summary}: {share:.2%} unattributed, over the "
                           f"{RECONCILE_TOLERANCE:.0%} tolerance")
        return share, None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": sp.parent, "rid": sp.rid,
                    "layer": sp.name in self.layers}) + "\n")
