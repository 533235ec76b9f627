"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent). Spans are kept in parallel lists while
the run executes and are turned into per-name self and inclusive times when
it ends. Wrappers are installed by swapping module (or class) attributes for
the duration of a ``with`` block and are always put back, also on error.
"""

import contextlib
import functools
import time
from collections import defaultdict


class SpanRecorder:
    """Records nested spans and named counters from wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs ahead of the span and its result is handed to
        ``after(self.counts, args, result, token)``, which updates counters.
        Neither hook is timed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self.counts, args, result, token)
            return result

        return traced

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx):
        self.ends[idx] = self.clock()
        self._stack.pop()

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-name totals of self time: each span's duration minus the part of
    its interval that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for idx, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - _covered(children.get(idx, ()), start, end)
    return dict(out)


def inclusive_times(spans):
    """Per-name totals of span duration, children included."""
    out = defaultdict(float)
    for name, start, end, _parent in spans:
        out[name] += end - start
    return dict(out)


@contextlib.contextmanager
def swapped(patches):
    """Set each (owner, attribute, replacement) for the block's duration.

    Every attribute that was set is restored on exit, in reverse order,
    whether the block returns or raises, and also if a later ``setattr``
    in the list fails.
    """
    saved = []
    try:
        for owner, attr, replacement in patches:
            original = getattr(owner, attr)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
