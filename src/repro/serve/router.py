"""A small HTTP router: path templates with ``{param}`` segments.

The daemon deliberately runs on the stdlib alone (the clean-venv
package-smoke job must need nothing beyond numpy/scipy), so this module
supplies the few pieces a framework would: a :class:`Request` /
:class:`Response` pair and a :class:`Router` that matches method + path
templates like ``/streams/{name}/versions/{version}`` and extracts the
parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qsl, unquote

from repro.serve.errors import BadRequest, MethodNotAllowed, NotFound


@dataclass
class Request:
    """One parsed HTTP request as the handlers see it."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    params: dict[str, str] = field(default_factory=dict)
    #: Per-request trace id, assigned by the app layer and echoed back in
    #: the ``X-Repro-Trace-Id`` response header and every log record.
    trace_id: str = ""

    def json(self) -> Any:
        """The request body decoded as JSON (400 on malformed bodies)."""
        if not self.body:
            raise BadRequest("the request requires a JSON body")
        try:
            return json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise BadRequest(f"the request body is not valid JSON ({error})") from None


@dataclass
class Response:
    """One handler result: status code, JSON-able payload, extra headers.

    ``stream=True`` marks responses whose bodies may be large (historical
    versions, whole lineages, audit reports): the app layer sends them with
    chunked transfer encoding, serializing incrementally via
    :meth:`body_chunks` instead of materializing one JSON string.

    ``text`` (with ``payload`` left ``None``) carries a raw non-JSON body -
    the Prometheus exposition endpoint - and ``content_type`` labels it.
    """

    status: int = 200
    payload: Any = None
    headers: dict[str, str] = field(default_factory=dict)
    stream: bool = False
    text: str | None = None
    content_type: str = "application/json"

    def body(self) -> bytes:
        """The serialized body (JSON payload, or the raw ``text``).

        ``sort_keys`` keeps the JSON serialization deterministic, which is
        what makes "concurrent readers see byte-identical historical
        versions" testable at the HTTP layer.
        """
        if self.text is not None:
            return self.text.encode()
        return (json.dumps(self.payload, sort_keys=True) + "\n").encode()

    def body_chunks(self, chunk_bytes: int = 64 * 1024):
        """Yield the serialized body in bounded pieces (for chunked sends).

        Encodes with the same ``sort_keys`` encoder settings as :meth:`body`
        (see :func:`_json_pieces`), so the concatenation of the chunks is
        byte-identical to the non-streaming body - a client that decodes the
        chunked framing sees exactly the bytes ``body()`` would have sent.
        The encoder emits ASCII (the default ``ensure_ascii``), so character
        counts are byte counts.
        """
        if self.text is not None:
            yield self.text.encode()
            return
        encoder = json.JSONEncoder(sort_keys=True)
        pending: list[str] = []
        size = 0
        for piece in _json_pieces(self.payload, encoder):
            pending.append(piece)
            size += len(piece)
            if size >= chunk_bytes:
                yield "".join(pending).encode()
                pending = []
                size = 0
        pending.append("\n")
        yield "".join(pending).encode()


#: Containers holding at most this many items (nested ones included) are
#: encoded by one call of the C-accelerated encoder.
_WHOLE_ITEMS = 1024


def _json_pieces(value: Any, encoder: json.JSONEncoder):
    """The text of ``encoder.encode(value)``, in pieces that stay bounded.

    ``iterencode`` would bound the pieces too, but it runs the pure-Python
    encoder token by token, several times slower than one C-accelerated
    ``encode`` call - which matters for span traces and other many-small-dict
    documents the read path sends.  So containers with at most
    ``_WHOLE_ITEMS`` items go through ``encode`` whole; larger lists and
    string-keyed dicts are walked item by item with the same separators and
    key order (anything else falls back to ``iterencode``).
    """
    if not isinstance(value, (dict, list, tuple)) or _holds_at_most(value, _WHOLE_ITEMS):
        yield encoder.encode(value)
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        yield "{"
        for position, key in enumerate(sorted(value)):
            yield (", " if position else "") + encoder.encode(key) + ": "
            yield from _json_pieces(value[key], encoder)
        yield "}"
    elif isinstance(value, (list, tuple)):
        yield "["
        for position, item in enumerate(value):
            if position:
                yield ", "
            yield from _json_pieces(item, encoder)
        yield "]"
    else:
        yield from encoder.iterencode(value)


def _holds_at_most(value: Any, limit: int) -> bool:
    """Whether ``value`` holds at most ``limit`` dict/list items, nested ones included."""
    stack = [value]
    count = 0
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list, tuple)):
            count += len(item)
            if count > limit:
                return False
            stack.extend(item.values() if isinstance(item, dict) else item)
    return True


Handler = Callable[[Request], Awaitable[Response]]


class Router:
    """Method + path-template dispatch.

    Templates are ``/``-joined literal segments and ``{param}`` captures;
    a captured segment is URL-unquoted and lands in ``request.params``.
    Resolution distinguishes "no such path" (404) from "path exists, method
    does not" (405, naming the allowed methods).
    """

    def __init__(self) -> None:
        self._routes: list[tuple[str, tuple[str, ...], Handler]] = []

    @staticmethod
    def _segments(path: str) -> tuple[str, ...]:
        return tuple(segment for segment in path.split("/") if segment)

    def add(self, method: str, template: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` requests matching ``template``."""
        self._routes.append((method.upper(), self._segments(template), handler))

    @staticmethod
    def _match(template: tuple[str, ...], segments: tuple[str, ...]) -> dict[str, str] | None:
        if len(template) != len(segments):
            return None
        params: dict[str, str] = {}
        for expected, actual in zip(template, segments):
            if expected.startswith("{") and expected.endswith("}"):
                params[expected[1:-1]] = unquote(actual)
            elif expected != actual:
                return None
        return params

    def resolve(self, method: str, path: str) -> tuple[Handler, dict[str, str]]:
        """The handler and extracted parameters for one request line."""
        segments = self._segments(path)
        allowed: list[str] = []
        for route_method, template, handler in self._routes:
            params = self._match(template, segments)
            if params is None:
                continue
            if route_method == method.upper():
                return handler, params
            allowed.append(route_method)
        if allowed:
            raise MethodNotAllowed(
                f"{method} is not allowed on {path}; allowed: {', '.join(sorted(set(allowed)))}"
            )
        raise NotFound(f"no route matches {path}")


def parse_query(raw: str) -> dict[str, str]:
    """Decode a query string into a flat dict (last value wins)."""
    return dict(parse_qsl(raw, keep_blank_values=True))
