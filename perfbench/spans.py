"""In-memory span recording around the benchmark's calls into ``plabic``.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the id of the benchmark op that caused it.
Spans are appended to a list while the workload runs and written out once,
at the end.  Only the benchmark's own call sites are wrapped; calls that
the library makes internally are part of the calling span.
"""

import json
import time
from collections import defaultdict

CLOCK = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrap(self, name, fn, name_of=None):
        """Return ``fn`` recording one span per call.

        ``name_of(*args)`` may refine the span name from the arguments (the
        move kind of ``apply_move``).
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                stack.pop()
                span_name = name if name_of is None else name_of(*args)
                spans[idx] = (span_name, t0, t1, parent, self.op)

        return traced

    def begin_op(self, op):
        """Open the ``bench.op`` span that parents every layer call of one op."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, CLOCK()

    def end_op(self, handle):
        idx, t0 = handle
        t1 = CLOCK()
        self._stack.pop()
        self.spans[idx] = ("bench.op", t0, t1, -1, self.op)
        self.op = None
        return t1 - t0

    def self_times(self):
        """``{name: (calls, self seconds)}``; self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0])
        for k, (name, t0, t1, _parent, _op) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += (t1 - t0) - child[k]
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def dump(self, path):
        """Write one JSON array per span, times in seconds from the first span."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, round(t0 - t_base, 9),
                                     round(t1 - t_base, 9), parent, op]))
                fh.write("\n")
