"""In-memory span tracer that wraps a program's functions from outside.

A wrapped call opens a frame on entry and closes it on exit.  A frame's
self time is its duration minus the durations of the wrapped calls made
inside it, so the self times of all frames add up to the duration of the
outermost ones.  Frames come in two sorts:

* spans, recorded one by one (name, start, end, parent span, study id,
  self time) and written to a file once, at the end;
* leaves, for calls made tens of thousands of times: only a count and the
  summed self time are kept, under the enclosing span.

Patching replaces every module attribute in the target package that is
bound to the original function, so a function imported by name into
another module (``from .norms import find_lambda``) is caught as well.
"""

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "homlab"


class Tracer:
    """Spans, leaf aggregates and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []
        self._study = None

    # -- frames -----------------------------------------------------------

    def _push(self, name, is_span):
        span_id = None
        if is_span:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [name, span_id, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _pop(self, frame):
        end = self.clock()
        name, span_id, start, child = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self_time = duration - child
        if span_id is None:
            leaf = self.leaves[(self._parent_span(), name)]
            leaf[0] += 1
            leaf[1] += self_time
        else:
            self.spans[span_id] = (span_id, name, start, end,
                                   self._parent_span(), self._study,
                                   self_time)

    @contextmanager
    def study(self, study_id, name):
        """Root span of one study; every span inside carries study_id."""
        outer = self._study
        self._study = study_id
        frame = self._push(name, True)
        try:
            yield
        finally:
            self._pop(frame)
            self._study = outer

    # -- patching ---------------------------------------------------------

    def wrap(self, fn, name, leaf=False, after=None):
        """fn traced as a span (or leaf) called name.

        after(args, kwargs, result) runs inside the frame once fn returns,
        for counters that read arguments or results.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push(name, not leaf)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer._pop(frame)

        return traced

    def patch(self, owner, attr, name=None, leaf=False, after=None,
              timed=True):
        """Replace owner.attr, and every alias of it, with a traced wrapper.

        owner is a module or a class.  For a module, every module of
        PACKAGE whose namespace binds the same function object gets the
        wrapper.  timed=False keeps only the after() hook, with no frame.
        """
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            new = self._wrapper(fn, name, leaf, after, timed)
            if is_classmethod:
                new = classmethod(new)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(owner, attr)
        new = self._wrapper(original, name, leaf, after, timed)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, new)

    def _wrapper(self, fn, name, leaf, after, timed):
        if timed:
            return self.wrap(fn, name, leaf, after)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return counted

    def restore(self):
        """Undo every patch, newest first."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def self_times(self):
        """{name: (calls, summed self seconds)} over spans and leaves."""
        out = defaultdict(lambda: [0, 0.0])
        for rec in self.spans:
            if rec is not None:
                out[rec[1]][0] += 1
                out[rec[1]][1] += rec[6]
        for (_, name), (n, secs) in self.leaves.items():
            out[name][0] += n
            out[name][1] += secs
        return {name: (n, secs) for name, (n, secs) in out.items()}

    def study_self_times(self, study_id):
        """{name: summed self seconds} of the frames inside one study."""
        out = defaultdict(float)
        for rec in self.spans:
            if rec is not None and rec[5] == study_id:
                out[rec[1]] += rec[6]
        for (parent, name), (_, secs) in self.leaves.items():
            if parent is not None and self.spans[parent][5] == study_id:
                out[name] += secs
        return dict(out)

    def study_inclusive_times(self, study_id):
        """{name: summed span duration} of the spans inside one study."""
        out = defaultdict(float)
        for rec in self.spans:
            if rec is not None and rec[5] == study_id:
                out[rec[1]] += rec[3] - rec[2]
        return dict(out)

    def write(self, path):
        """Write spans and leaf aggregates as one JSON document."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "study",
                            "self"],
            "spans": [list(rec) for rec in self.spans if rec is not None],
            "leaves": [[parent, name, n, secs] for (parent, name), (n, secs)
                       in sorted(self.leaves.items(), key=str)],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
