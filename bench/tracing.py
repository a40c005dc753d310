"""In-memory spans for the traced benchmark run.

A span is recorded around each call the benchmark makes into a ``dendrop``
public function; its name is ``<module>.<function>``, so the module is the
layer.  Spans are kept in memory and written out once, when the run ends.
The untraced run uses ``NullTracer``, which calls straight through.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


def span_name(fn) -> str:
    """Layer-qualified name of a library function: ``<module>.<function>``."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracer stand-in for untraced passes: no spans, no clock reads."""

    traced = False

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return _NO_SPAN

    def begin_pass(self, pass_id):
        pass


class Tracer:
    """Records (name, start, end, parent, pass id) for every span."""

    traced = True

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, pass id]
        self._stack: list = []
        self._pass_id = None

    def begin_pass(self, pass_id):
        self._pass_id = pass_id

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self._pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        with self.span(span_name(fn)):
            return fn(*args, **kwargs)

    def self_times(self) -> list:
        """Duration of each span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def summaries(self) -> dict:
        """pass id -> span name -> [call count, total duration, total self time]."""
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for (name, start, end, _, pid), self_s in zip(self.spans, self.self_times()):
            agg = out[pid][name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_s
        return {pid: dict(names) for pid, names in out.items()}

    def dump(self, path, header: dict) -> None:
        selfs = self.self_times()
        rows = [{"name": n, "start": s, "end": e, "parent": p, "pass": pid,
                 "self": st}
                for (n, s, e, p, pid), st in zip(self.spans, selfs)]
        with open(path, "w") as fh:
            json.dump({"header": header, "spans": rows}, fh)
            fh.write("\n")
