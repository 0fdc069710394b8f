"""Hierarchical span tracing for the publish path.

A :class:`Tracer` produces nested :class:`Span`\\ s through context managers::

    tracer = Tracer()
    with tracer.span("publish", stream="census"):
        with tracer.span("prior"):
            ...
    root = tracer.take_root()          # the completed "publish" span tree

Design constraints, in order:

* **Cheap enough to leave on.**  An enabled span is two
  ``time.perf_counter()`` calls plus one small object; the publish path
  opens a handful per version, so tracing stays on by default
  (``BENCH_stream.json`` gates the measured overhead at <= 5%).
* **A no-op when disabled.**  ``Tracer(enabled=False).span(...)`` returns a
  shared null context manager - no allocation, no timing, no bookkeeping -
  so deep instrumentation (per-block contractions, per-adversary audits)
  costs nothing when nobody is looking.
* **Thread-safe.**  Span nesting lives in a per-thread stack, so many
  threads (the daemon's per-stream workers) can trace through one
  ``Tracer`` concurrently without seeing each other's spans; every thread
  retrieves its own finished root with :meth:`Tracer.take_root`.
* **Serializable.**  :meth:`Span.to_dict` / :meth:`Span.from_dict` round-trip
  a whole tree through JSON (the daemon serves each version's publish trace
  this way), and :meth:`Span.adopt` stitches a deserialized tree under a
  live span.

Code that is too deep to thread a tracer through (the prior backend, the
audit engine) reads the *ambient* tracer instead: ``current_tracer()``
returns whatever tracer the caller activated on this thread via
``with tracer.activate():`` - and the shared no-op :data:`NULL_TRACER`
otherwise, so library code can always instrument unconditionally.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from typing import Any, Iterator


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id (one per served request)."""
    return uuid.uuid4().hex


class Span:
    """One timed operation: name, start/duration, attributes, children.

    ``start_s`` is an offset in seconds from the root span's start (0.0 for
    the root itself) taken from the monotonic clock, so a serialized tree
    is self-consistent even after a JSON round trip.
    """

    __slots__ = ("name", "start_s", "duration_s", "attributes", "children")

    def __init__(self, name: str, attributes: dict[str, Any] | None = None):
        self.name = str(name)
        self.start_s = 0.0
        self.duration_s = 0.0
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.children: list[Span] = []

    def annotate(self, **attributes: Any) -> "Span":
        """Attach JSON-able key/value attributes to this span."""
        self.attributes.update(attributes)
        return self

    def adopt(self, child: "Span") -> "Span":
        """Stitch a foreign (e.g. deserialized) span under this one."""
        self.children.append(child)
        return child

    def child(self, name: str) -> "Span | None":
        """The first direct child with ``name`` (or ``None``)."""
        for span in self.children:
            if span.name == name:
                return span
        return None

    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first descendant named ``name``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, _origin: float | None = None) -> dict[str, Any]:
        """A JSON-able tree; child ``start_s`` are offsets from the root."""
        origin = self.start_s if _origin is None else _origin
        return {
            "name": self.name,
            "start_s": self.start_s - origin,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "children": [child.to_dict(origin) for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        span = cls(payload["name"], payload.get("attributes"))
        span.start_s = float(payload.get("start_s", 0.0))
        span.duration_s = float(payload.get("duration_s", 0.0))
        span.children = [cls.from_dict(child) for child in payload.get("children", ())]
        return span

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Span":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration_s={self.duration_s:.6f}, "
            f"children={len(self.children)})"
        )


class _SpanContext:
    """Context manager that times a span and links it into the tree."""

    __slots__ = ("_tracer", "span", "_detached", "_start")

    def __init__(self, tracer: "Tracer", span: Span, detached: bool):
        self._tracer = tracer
        self.span = span
        self._detached = detached

    def __enter__(self) -> Span:
        self._start = time.perf_counter()
        self.span.start_s = self._start
        if not self._detached:
            self._tracer._push(self.span)
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self.span.duration_s = time.perf_counter() - self._start
        if not self._detached:
            self._tracer._pop(self.span)


class _NullSpan(Span):
    """The shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    def annotate(self, **attributes: Any) -> "Span":
        return self

    def adopt(self, child: Span) -> Span:
        return child


class _NullContext:
    __slots__ = ("span",)

    def __init__(self) -> None:
        self.span = _NullSpan("null")

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Produces nested spans; per-thread nesting, shared across threads."""

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._local = threading.local()

    # -- span creation ---------------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> "_SpanContext | _NullContext":
        """A nested span; a true no-op when the tracer is disabled."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, Span(name, attributes), detached=False)

    def timed(self, name: str, **attributes: Any) -> _SpanContext:
        """A span that *always* measures its duration.

        Stage boundaries whose timings are part of the data model (the
        publisher's ``StreamDelta.timings``) use this: with the tracer
        enabled the span joins the tree like any other; disabled, it is a
        detached timer - measured, returned to the caller, never retained -
        so the derived timings stay byte-compatible either way.
        """
        return _SpanContext(self, Span(name, attributes), detached=not self.enabled)

    # -- per-thread tree bookkeeping -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exits
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        else:
            self._local.last_root = span

    def current(self) -> Span | None:
        """The innermost open span on this thread (``None`` outside any)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def take_root(self) -> Span | None:
        """Pop this thread's most recently completed top-level span tree."""
        root = getattr(self._local, "last_root", None)
        self._local.last_root = None
        return root

    # -- ambient activation ----------------------------------------------------------

    def activate(self) -> "_Activation":
        """Make this the thread's ambient tracer (see :func:`current_tracer`)."""
        return _Activation(self)

    def attach(self, parent: Span | None) -> "_Attachment":
        """Adopt ``parent`` as this thread's enclosing span (worker threads).

        A pool thread starts with an empty span stack, so spans it opens
        would each become their own root - and two concurrent contractions
        sharing one pool would interleave their tiles.  The dispatching
        thread captures its open span (``tracer.current()``) and each worker
        wraps its slice in ``with tracer.attach(parent):`` so everything it
        opens nests under the owning span.  The borrowed parent is seeded
        onto the stack and removed on exit *without* being re-appended
        anywhere - it is still open on, and owned by, the dispatching
        thread.  Appending finished children to the shared parent is safe:
        ``list.append`` is atomic under the GIL.  Attaching ``None`` (or on
        a disabled tracer) is a no-op.
        """
        return _Attachment(self, parent if self.enabled else None)


class _Attachment:
    __slots__ = ("_tracer", "_parent")

    def __init__(self, tracer: Tracer, parent: Span | None):
        self._tracer = tracer
        self._parent = parent

    def __enter__(self) -> Span | None:
        if self._parent is not None:
            self._tracer._stack().append(self._parent)
        return self._parent

    def __exit__(self, *exc_info: Any) -> None:
        if self._parent is None:
            return
        stack = self._tracer._stack()
        if stack and stack[-1] is self._parent:
            stack.pop()
        elif self._parent in stack:  # pragma: no cover - unbalanced exits
            stack.remove(self._parent)


class _Activation:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        self._previous = getattr(_AMBIENT, "tracer", None)
        _AMBIENT.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: Any) -> None:
        _AMBIENT.tracer = self._previous


_AMBIENT = threading.local()

#: The shared disabled tracer: every ``span()`` is a no-op.
NULL_TRACER = Tracer(enabled=False)


def current_tracer() -> Tracer:
    """The tracer activated on this thread, or :data:`NULL_TRACER`."""
    tracer = getattr(_AMBIENT, "tracer", None)
    return tracer if tracer is not None else NULL_TRACER
