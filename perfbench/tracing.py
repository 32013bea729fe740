"""In-memory spans around the library calls a benchmark job makes.

A Tracer replaces chosen module attributes (for example
``leibnizkit.cohomology.derivation_space``) with wrappers that record one
span per call: name, start, end, parent span and enclosing job span.  Code
that reaches a function through its module attribute is traced; code that
imported the name directly is not.  Benchmark jobs always call through
module attributes, and ``cli`` reaches ``core.load`` and
``gradations.verify_gradation`` the same way, so those show as children of
the ``cli.<verb>`` span.  A traced function that calls another one of its
own module (``characteristic_sequence`` -> ``central_series``) nests too;
busy time is self time, so no second counts twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# (module name inside leibnizkit, public function) pairs the benchmark jobs call
TRACED_CALLS = (
    ("catalog", "build"),
    ("core", "load"),
    ("core", "change_of_basis"),
    ("core", "leibniz_residual"),
    ("invariants", "central_series"),
    ("invariants", "center"),
    ("invariants", "right_annihilator"),
    ("invariants", "characteristic_sequence"),
    ("invariants", "natural_graded"),
    ("cohomology", "derivation_space"),
    ("cohomology", "inner_derivation_space"),
    ("cohomology", "h1_dimension"),
    ("gradations", "search_diagonal_gradation"),
    ("gradations", "verify_gradation"),
    ("iso", "verify_certificate"),
)

CLI_VERBS = ("check", "invariants", "der", "fingerprint", "iso-verify", "grade-verify")

LAYERS = tuple("%s.%s" % pair for pair in TRACED_CALLS) + tuple("cli." + v for v in CLI_VERBS)

# (name, start, end, parent span index or -1, job span index, raised)
NAME, START, END, PARENT, JOB, RAISED = range(6)


class Tracer:
    """Records spans while active; spans stay in memory until write()."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        job = self._stack[0] if self._stack else sid
        span = [name, 0.0, 0.0, parent, job, False]
        self.spans.append(span)
        self._stack.append(sid)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, modules):
        """Trace TRACED_CALLS on the given {module name: module} map."""
        saved = []
        try:
            for mod_name, attr in TRACED_CALLS:
                module = modules[mod_name]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap("%s.%s" % (mod_name, attr), fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_totals(self):
        """{name: [self seconds, calls, errors]}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        totals = {}
        for sid, span in enumerate(self.spans):
            entry = totals.setdefault(span[NAME], [0.0, 0, 0])
            entry[0] += span[END] - span[START] - child[sid]
            entry[1] += 1
            entry[2] += span[RAISED]
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": span[NAME], "start": span[START], "end": span[END],
                    "parent": span[PARENT], "job": span[JOB], "raised": span[RAISED],
                }) + "\n")
