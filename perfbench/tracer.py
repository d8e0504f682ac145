"""Outside-in span tracer.

The tracer wraps public functions of the program from the benchmark's own
files: :meth:`Tracer.wrap` replaces a class attribute with a timing
wrapper and :meth:`Tracer.restore` puts every original back.  Each call
records one span ``(id, name, start, end, parent, request)``; the parent
is the innermost traced call still open on the same thread, so a
layer's self time is its duration minus the durations of its direct
children (:func:`self_times`).  Spans stay in memory until
:meth:`Tracer.dump` writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Span tuple fields, in order.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request")


class Tracer:
    """Records spans around wrapped calls; not re-entrant across tracers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, owner, attr: str, name: str, request=None, around=None, after=None
    ) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``request(args)`` names the request a call serves (spans of one
        request share it).  ``around(fn, args, kwargs)`` replaces the
        plain call, for wrappers that must inspect arguments or results;
        ``after(args, result)`` runs once the span has closed, so its own
        cost is charged to no span.
        """
        fn = owner.__dict__[attr]
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                if around is None:
                    result = fn(*args, **kwargs)
                else:
                    result = around(fn, args, kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rid = request(args) if request is not None else None
                spans.append((sid, name, start, end, parent, rid))
            if after is not None:
                after(args, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))))
                fh.write("\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id → duration minus the summed durations of its direct children."""
    child = defaultdict(float)
    for _sid, _name, start, end, parent, _rid in spans:
        if parent:
            child[parent] += end - start
    return {
        sid: (end - start) - child.get(sid, 0.0)
        for sid, _name, start, end, _parent, _rid in spans
    }


def by_name(spans: list[tuple]) -> dict[str, list[tuple]]:
    groups: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        groups[span[1]].append(span)
    return groups
