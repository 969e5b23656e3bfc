"""In-memory span tracer that wraps functions from outside the traced package.

A span has a name, start, end, parent and failed flag: parent is the index
of the span that was open when this one started (-1 at the top), failed is
1 when the wrapped call raised.  Spans are appended in start order, so a
parent's index is always below its children's.  They are stored column-wise
in arrays, ~33 bytes a span, because a traced run records a few hundred
thousand of them.

Wrappers are installed by rebinding module attributes.  That works for
quasizeros because every cross-module call there looks the callee up at call
time (``kernels.line_segment_logderiv(...)``, ``core.relative_residual(...)``,
module-global names), so rebinding every attribute that holds the original
function object redirects all callers.  ``uninstall`` restores them.
"""

import functools
import math
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.failed = bytearray()
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name):
        """Record a span around a block (the harness uses it for jobs)."""
        idx = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(idx, failed)

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.failed.append(1)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx, failed):
        self.ends[idx] = self.clock()
        self.failed[idx] = failed
        self._stack.pop()

    def inside(self, name):
        """True when a span called `name` is open (an ancestor of the caller)."""
        names = self.names
        return any(names[i] == name for i in self._stack)

    def timed(self, name, fn, before=None, after=None):
        """Wrap fn in a span.  before(args, kwargs) runs inside the span
        before the call; after(args, kwargs, result) runs on success."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if before is not None:
                before(args, kwargs)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._close(idx, failed)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap fn with a call counter only (for calls too short to span)."""
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, fn, wrapper, package):
        """Rebind every attribute of `package`'s loaded modules that holds fn."""
        prefix = package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the part of its interval
    covered by the union of its children's intervals.

    Children may overlap each other or stick out of their parent; each
    instant of the parent's interval is subtracted at most once.  One pass
    over the spans in start order merges each parent's children as they come.
    """
    n = len(starts)
    if all(starts[i] <= starts[i + 1] for i in range(n - 1)):
        order = range(n)
    else:
        order = sorted(range(n), key=starts.__getitem__)
    covered = array("d", bytes(8 * n))
    run_lo = array("d", [-math.inf]) * n    # each parent's open merged run
    run_hi = array("d", [-math.inf]) * n
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo, hi = max(starts[i], starts[p]), min(ends[i], ends[p])
        if hi <= lo:
            continue
        if lo > run_hi[p]:
            if run_hi[p] > run_lo[p]:
                covered[p] += run_hi[p] - run_lo[p]
            run_lo[p], run_hi[p] = lo, hi
        elif hi > run_hi[p]:
            run_hi[p] = hi
    out = array("d", bytes(8 * n))
    for i in range(n):
        tail = run_hi[i] - run_lo[i] if run_hi[i] > run_lo[i] else 0.0
        out[i] = ends[i] - starts[i] - covered[i] - tail
    return out
