"""In-memory span tracer for the benchmark's calls into hlsdse.

A span covers one call. When it closes, its call count, its inclusive time
and its self time (inclusive time minus the time its child spans cover) are
added to per-name totals, so memory stays bounded however many calls a run
makes. Counters sit beside the spans under their own names. Nothing is
written until the run ends and the totals are reported.

Calls that hlsdse makes internally are traced by replacing a module attribute
with a wrapper for the duration of an ``ExitStack`` (see ``Tracer.patch``);
the package's source is never changed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator, Optional


class Tracer:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self s
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, start, child seconds]

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        stat = self.spans[name]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    @property
    def depth(self) -> int:
        return len(self._stack)

    def unwind(self, depth: int) -> None:
        """Close spans left open above ``depth`` by an interrupted call."""
        while len(self._stack) > depth:
            self.end()

    def patch(
        self,
        stack: ExitStack,
        module: Any,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> None:
        """Trace ``module.attr`` as span ``name`` until ``stack`` closes.

        ``after(tracer, args, result)`` may record counters from a call.
        """
        original = getattr(module, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(self, args, result)
            return result

        setattr(module, attr, traced)
        stack.callback(setattr, module, attr, original)

    def ms(self, name: str) -> float:
        return self.spans[name][1] * 1000 if name in self.spans else 0.0

    def self_ms(self, name: str) -> float:
        return self.spans[name][2] * 1000 if name in self.spans else 0.0

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0
