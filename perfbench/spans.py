"""In-memory spans and counters recorded at the library's layer boundaries.

A traced run replaces the public functions of each `oddkh` layer, at
every module binding that holds them, with wrappers that open a span,
call the original and record counters.  `instrument` undoes every
replacement when its block exits, so untraced runs execute the
library's own function objects.  Nothing under `src/` is edited.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

COUNTER_SPAN = "trace.counters"


class Tracer:
    """Spans as (name, start, end, parent index, job id) plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.seen: dict[str, set] = {}

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.job])
        sid = len(self.spans) - 1
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = self.clock()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def parent_name(self):
        """Name of the innermost open span, skipping counter bookkeeping."""
        for sid in reversed(self.stack):
            name = self.spans[sid][0]
            if name != COUNTER_SPAN:
                return name
        return None

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def peak(self, name: str, value) -> None:
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def distinct(self, name: str, key) -> None:
        """Remember a key for this job; `distinct_total` counts them."""
        self.seen.setdefault(name, set()).add((self.job, key))

    def distinct_total(self, name: str) -> int:
        return len(self.seen.get(name, ()))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = {}
    for (name, *_), s in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + s
    return totals


def inclusive_time_by_name(spans, name: str, under: str | None = None) -> float:
    """Total duration of spans called `name`, optionally only below `under`.

    Nested spans of the same name are counted once, at the outermost.
    """
    total = 0.0
    for name_i, start, end, parent, _ in spans:
        if name_i != name:
            continue
        ancestors = []
        p = parent
        while p is not None:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name in ancestors:
            continue
        if under is None or under in ancestors:
            total += end - start
    return total


def _wrap(tracer: Tracer, fn, span_name: str, counter):
    def wrapper(*args, **kwargs):
        tracer.count(span_name + ".calls")
        sid = tracer.begin(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if counter is not None:
            # Counter work gets its own span, so parents do not absorb it.
            with tracer.span(COUNTER_SPAN):
                counter(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", span_name)
    return wrapper


def module_bindings(package: str, fn) -> list[tuple]:
    """Every (module, attribute) of `package` that holds the object `fn`."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, attr))
    return found


@contextlib.contextmanager
def instrument(tracer: Tracer, targets, package: str = "oddkh"):
    """Wrap each (module, function name, counter) target for the block.

    Every binding of the original object in the package is replaced, so
    a call from one layer into another goes through the wrapper whatever
    name the caller imported it under.  All bindings are restored on
    exit, even when the block raises.
    """
    replaced = []
    try:
        for module, name, counter in targets:
            fn = getattr(module, name)
            span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            wrapper = _wrap(tracer, fn, span_name, counter)
            for mod, attr in module_bindings(package, fn):
                replaced.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
        yield replaced
    finally:
        for mod, attr, fn in reversed(replaced):
            setattr(mod, attr, fn)
