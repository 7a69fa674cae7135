"""Spans and counters recorded from outside the program.

`Tracer.patch` swaps a function for a timed wrapper at the binding its
caller looks up: `gpi` imports `run_day`, `build_problem`, `km_match`,
`dp_evaluate` and friends by name, so those are patched on `gpi`, while
`run_day` finds `generate_window` and `transfer_evaluate` finds
`solve_time_step` through their own module globals. `restore` puts every
original back, so untimed runs execute the program untouched.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

CHECK = "bench.check"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable] = None,
        check: Optional[Callable] = None,
    ) -> Callable:
        """Time `fn` as span `name`; then count its work and check its result.

        The check runs in its own span, so it is subtracted from the caller's
        self time instead of being billed to it.
        """

        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(out, *args, **kwargs)
            if check is not None:
                self.call(CHECK, check, out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None, check=None) -> None:
        """Replace `owner.attr` (a module global or a class attribute) by a timed wrapper."""
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, count, check)))
        else:
            setattr(owner, attr, self.wrap(name, raw, count, check))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: summed self time (duration minus direct children) and calls."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (end - start) - covered[i]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON, times in seconds since `origin`."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                [
                    {"name": n, "start": s - origin, "end": e - origin, "parent": p}
                    for n, s, e, p in self.spans
                ],
                f,
            )
