"""In-memory span tracing around calls into the program's public functions.

A :class:`Tracer` wraps methods *from the benchmark's side* (nothing in
``src/`` knows it is traced).  Every wrapped call is a frame on one stack:

* each frame's duration is added to its layer's total time, and its duration
  minus the time its child frames took is added to the layer's self time;
* frames of the layers named in ``recorded`` are also kept as spans (name,
  start, end, parent span, job key), written out once when the run ends.

Hot layers (protocol handlers, network sends: millions of calls a run) are
only accumulated, never kept as spans, so tracing memory stays bounded.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional


class Tracer:
    """Stack-based tracer; see the module docstring.

    Args:
        recorded: Layer names whose frames are kept as spans.
        clock: Monotonic clock in seconds (tests pass a fake one).
    """

    def __init__(
        self, recorded: Iterable[str] = (), clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.recorded = frozenset(recorded)
        self.clock = clock
        self.spans: List[Dict[str, object]] = []
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.job: Optional[str] = None
        # Frames: [name, start, child seconds, span id children hang off].
        self._stack: List[list] = []

    def enter(self, name: str) -> None:
        stack = self._stack
        span_id = stack[-1][3] if stack else None
        start = self.clock()
        if name in self.recorded:
            self.spans.append(
                {"id": len(self.spans), "name": name, "start": start, "end": start,
                 "parent": span_id, "job": self.job}
            )
            span_id = len(self.spans) - 1
        stack.append([name, start, 0.0, span_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if name in self.recorded:
            self.spans[span_id]["end"] = end

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Trace the body of a ``with`` block as one frame of *name*."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        job_key: Optional[Callable[[tuple, dict], Optional[str]]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a traced twin, for the life of the process.

        *job_key*, when given, names the job a call belongs to from the
        call's ``(args, kwargs)``; spans started inside it carry that key.
        """
        original = getattr(owner, attribute)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if job_key is not None:
                self.job = job_key(args, kwargs)
            enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                exit_()

        setattr(owner, attribute, traced)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total seconds and self seconds."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }


def percentile(values: Iterable[float], share: float) -> float:
    """Nearest-rank percentile (*share* in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]
