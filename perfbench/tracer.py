"""Spans and counters recorded around calls into the deco layers, from outside.

``Tracer.timed`` and ``Tracer.counted`` replace a module function or a class
method with a timing or counting wrapper; ``Tracer.restore`` puts the
originals back.
A function is replaced under every ``deco`` module name bound to it, so the
wrapper sees calls made through ``from .x import f`` as well.

Spans are tuples ``(id, parent, name, start, end, attrs)`` held in memory.
The clock is ``time.perf_counter`` minus the time spent in ``untimed()``
blocks, so output checks run inside a wrapper do not count against any span.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._paused = 0.0
        self._patches: list[tuple] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def untimed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record the enclosed block as a span; ``attrs`` may be filled inside."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.now()
        try:
            yield attrs
        finally:
            end = self.now()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, attrs))

    def take(self) -> tuple[list[tuple], dict[str, int]]:
        """Return the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        for name in self.counts:
            self.counts[name] = 0
        return spans, counts

    # --- wrapping ---

    def timed(self, owner, attr: str, name: str, observe=None):
        """Wrap ``owner.attr`` in a span.

        ``observe(bound_args, result, attrs)`` runs untimed after each
        successful call and may add attributes to the span.  A call that
        raises gets ``attrs["error"]`` set to the exception's class name.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            attrs = {}
            with self.span(name, attrs):
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    attrs["error"] = type(exc).__name__
                    raise
            if observe is not None:
                with self.untimed():
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(bound.arguments, result, attrs)
            return result

        self._replace(owner, attr, original, wrapper)

    def counted(self, owner, attr: str, name: str):
        """Wrap ``owner.attr`` so that each call increments ``counts[name]``."""
        original = getattr(owner, attr)
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        if inspect.isclass(owner):
            targets = [(owner, attr)]
        else:
            targets = [(module, key) for mod_name, module in list(sys.modules.items())
                       if mod_name == "deco" or mod_name.startswith("deco.")
                       for key, value in list(vars(module).items()) if value is original]
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapper)

    def restore(self):
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)
