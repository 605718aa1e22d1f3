"""Tracing from outside the program: spans around public entry points.

The benchmark never edits the program.  A :class:`Tracer` replaces a
public method on its class with a wrapper that records one span per
call — name, start, end and parent span — and restores the original
afterwards.  A layer's *self* time is its span time minus the part its
child spans cover, accumulated on the fly so a long run needs no span
log; the first :data:`KEEP_SPANS` raw spans are kept for inspection.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from time import perf_counter

#: Raw spans kept in memory per tracer (the aggregates cover every span).
KEEP_SPANS = 20_000


class LayerStats:
    """Aggregates of one span name: calls, total and self seconds."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Stack-based span recorder over patched class methods."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        #: Open spans: ``[name, start, child_seconds]``.
        self._stack: list[list] = []
        #: ``(name, start, end, parent_name)`` for the first spans.
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._patched: list[tuple[type, str, object]] = []

    def stats(self, name: str) -> LayerStats:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = LayerStats()
        return layer

    def _close(self, name: str, start: float) -> None:
        entry = self._stack.pop()
        end = perf_counter()
        elapsed = end - start
        layer = self.stats(name)
        layer.calls += 1
        layer.total_s += elapsed
        layer.self_s += elapsed - entry[2]
        parent = None
        if self._stack:
            self._stack[-1][2] += elapsed
            parent = self._stack[-1][0]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        """A span around a call the runner makes itself."""
        start = perf_counter()
        self._stack.append([name, start, 0.0])
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, owner: type, attr: str, name: str, on_result=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``on_result(instance, result)`` sees each call's return value
        (counts measured where the work happens).
        """
        original = owner.__dict__[attr]
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            start = perf_counter()
            stack.append([name, start, 0.0])
            try:
                result = original(*args, **kwargs)
            finally:
                close(name, start)
            if on_result is not None:
                on_result(args[0], result)
            return result

        traced.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_counting(self, owner: type, attr: str, name: str, counter) -> None:
        """Like :meth:`wrap`, adding ``counter(instance)`` deltas to
        ``stats(name + ".count")`` — e.g. events fired inside ``run``."""
        original = owner.__dict__[attr]
        stack = self._stack
        close = self._close
        counted = self.stats(name + ".count")

        def traced(instance, *args, **kwargs):
            before = counter(instance)
            start = perf_counter()
            stack.append([name, start, 0.0])
            try:
                return original(instance, *args, **kwargs)
            finally:
                close(name, start)
                counted.calls += counter(instance) - before

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_async(self, owner: type, attr: str, name: str) -> None:
        """Count calls of a coroutine method and their await latency.

        Awaits interleave, so these spans are not stacked: the latency
        includes queueing and is kept apart from every self time.
        """
        original = owner.__dict__[attr]
        layer = self.stats(name)

        async def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                layer.calls += 1
                layer.total_s += perf_counter() - start

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def wrap_subclasses(tracer: Tracer, base: type, attr: str, name: str, on_result=None) -> None:
    """Wrap ``attr`` on ``base`` and every subclass that defines it."""
    pending = [base]
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            tracer.wrap(cls, attr, name, on_result)
        pending.extend(cls.__subclasses__())


class DecisionClock:
    """Wall timestamps of every admission decision a DES run makes.

    Wraps the metrics collector's two decision records (new requests
    and hand-off resolutions): both engines call them once per
    decision, right after it is made.  The gaps between consecutive
    stamps are the per-decision service times of the saturated engine.
    """

    def __init__(self, collector_cls: type) -> None:
        self.stamps = array("d")
        self._collector_cls = collector_cls
        self._originals: dict[str, object] = {}

    def __enter__(self) -> "DecisionClock":
        stamps = self.stamps
        for attr in ("record_request", "record_handoff"):
            original = self._collector_cls.__dict__[attr]
            self._originals[attr] = original

            def stamped(*args, _original=original, **kwargs):
                _original(*args, **kwargs)
                stamps.append(perf_counter())

            setattr(self._collector_cls, attr, stamped)
        return self

    def __exit__(self, *exc) -> None:
        for attr, original in self._originals.items():
            setattr(self._collector_cls, attr, original)

    def gaps_ms(self) -> list[float]:
        stamps = self.stamps
        return [
            (stamps[i] - stamps[i - 1]) * 1000.0 for i in range(1, len(stamps))
        ]


class GcMonitor:
    """Counts full (generation-2) collections and their pause times."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.pause_ms_max = 0.0
        self._started = None

    def _callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = perf_counter()
        elif self._started is not None:
            pause = (perf_counter() - self._started) * 1000.0
            self._started = None
            self.gen2 += 1
            self.pause_ms_max = max(self.pause_ms_max, pause)

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
