"""The asyncio HTTP daemon: sockets, framing and lifecycle around the service.

Stdlib only: :func:`asyncio.start_server` plus hand-rolled HTTP/1.1 framing
(request line, headers, ``Content-Length`` bodies, keep-alive), so the
clean-venv package install needs nothing beyond the library's own
dependencies.  One :class:`ServeApp` wires registry -> service -> router and
serves until cancelled; :meth:`ServeApp.run` is the blocking entry point the
``repro serve`` CLI command uses.

Concurrency model: the event loop parses requests and answers every read
directly from immutable published versions; writes are handed to the target
stream's worker thread and awaited, so a slow publication never blocks the
loop - readers keep streaming historical versions of *every* stream while
any number of publications are in flight.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from http import HTTPStatus
from pathlib import Path
from typing import Any

from repro.data.schema import Schema
from repro.exceptions import ServeError
from repro.obs.tracing import new_trace_id
from repro.serve.errors import ApiError, PayloadTooLarge
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import DEFAULT_SLOW_PUBLISH_SECONDS, StreamRegistry
from repro.serve.router import Request, Response, Router, parse_query
from repro.serve.service import ReproService

#: Hard cap on request bodies (seed tables arrive as JSON rows).
MAX_BODY_BYTES = 64 * 1024 * 1024
_MAX_HEADER_LINE = 64 * 1024

_logger = logging.getLogger("repro.serve.app")


class ServeApp:
    """One daemon instance: registry + service + router + asyncio server."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 8750,
        coalesce_ms: float = 50.0,
        schema: Schema | None = None,
        jobs: int | None = None,
        max_queue_batches: int | None = None,
        max_queued_rows: int | None = None,
        slow_publish_seconds: float = DEFAULT_SLOW_PUBLISH_SECONDS,
    ):
        self.host = host
        self.port = int(port)
        self.registry = StreamRegistry(
            data_dir,
            coalesce_ms=coalesce_ms,
            schema=schema,
            jobs=jobs,
            max_queue_batches=max_queue_batches,
            max_queued_rows=max_queued_rows,
            slow_publish_seconds=slow_publish_seconds,
        )
        self.metrics = ServeMetrics()
        self.service = ReproService(self.registry, self.metrics)
        self.router = Router()
        self.service.register(self.router)
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ----------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (``port=0`` picks a free port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the socket and shut every stream down (locks released)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.get_running_loop().run_in_executor(None, self.registry.close)

    def run(self) -> None:
        """Serve until interrupted (the ``repro serve`` entry point)."""

        async def _main() -> None:
            await self.start()
            streams = len(self.registry)
            print(
                f"repro.serve: {streams} stream(s) resumed from "
                f"{self.registry.data_dir}; listening on "
                f"http://{self.host}:{self.port}",
                flush=True,
            )
            assert self._server is not None
            await self._server.serve_forever()

        try:
            asyncio.run(_main())
        except OSError as error:
            # Unresolvable host, port in use, ...: the CLI renders
            # ReproError subclasses as one-line errors (exit 1).
            raise ServeError(
                f"cannot serve on http://{self.host}:{self.port} ({error})"
            ) from None
        except KeyboardInterrupt:
            pass
        finally:
            self.registry.close()

    # -- HTTP framing -------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except PayloadTooLarge as exc:
                    # The oversized body was never read, so the connection
                    # cannot be reused: answer 413 and close.
                    self.metrics.counters.increment("requests")
                    self.metrics.counters.increment("errors")
                    await self._write_response(
                        writer,
                        Response(exc.status, self._error_payload(exc.reason, exc)),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                await self._write_response(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(self, reader: asyncio.StreamReader) -> Request | None:
        """Parse one request off the wire (``None`` on a clean EOF)."""
        line = await reader.readline()
        if not line or len(line) > _MAX_HEADER_LINE:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, _ = parts
        path, _, raw_query = target.partition("?")
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or len(line) > _MAX_HEADER_LINE:
                return None
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                expected = int(length)
            except ValueError:
                return None
            if expected < 0:
                return None
            if expected > MAX_BODY_BYTES:
                raise PayloadTooLarge(
                    f"the request body ({expected} bytes) exceeds "
                    f"{MAX_BODY_BYTES} bytes"
                )
            if expected:
                body = await reader.readexactly(expected)
        return Request(
            method=method,
            path=path,
            query=parse_query(raw_query),
            headers=headers,
            body=body,
        )

    async def _dispatch(self, request: Request) -> Response:
        start = time.perf_counter()
        request.trace_id = new_trace_id()
        error = False
        try:
            handler, params = self.router.resolve(request.method, request.path)
            request.params = params
            response = await handler(request)
        except ApiError as exc:
            error = True
            response = Response(
                exc.status,
                self._error_payload(exc.reason, exc),
                headers=exc.headers(),
            )
        except Exception as exc:  # noqa: BLE001 - one request must not kill the daemon
            error = True
            response = Response(
                500,
                self._error_payload(
                    "Internal Server Error", f"{type(exc).__name__}: {exc}"
                ),
            )
        seconds = time.perf_counter() - start
        response.headers.setdefault("X-Repro-Trace-Id", request.trace_id)
        self.metrics.observe_request(request.method, seconds, error=error)
        _logger.log(
            logging.WARNING if error else logging.DEBUG,
            "request handled",
            extra={
                "trace_id": request.trace_id,
                "method": request.method,
                "path": request.path,
                "status": response.status,
                "seconds": seconds,
            },
        )
        return response

    @staticmethod
    def _error_payload(reason: str, detail: Any) -> dict[str, str]:
        return {"error": reason, "message": str(detail)}

    @staticmethod
    def _head(
        response: Response, *, keep_alive: bool, body_length: int | None
    ) -> bytes:
        """The status line and headers (``body_length=None`` means chunked)."""
        try:
            reason = HTTPStatus(response.status).phrase
        except ValueError:
            reason = "Unknown"
        lines = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
        ]
        lines.extend(f"{name}: {value}" for name, value in response.headers.items())
        if body_length is None:
            lines.append("Transfer-Encoding: chunked")
        else:
            lines.append(f"Content-Length: {body_length}")
        lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        *,
        keep_alive: bool,
    ) -> None:
        """Send one response: chunked for ``stream=True``, Content-Length else.

        Streaming serializes the payload incrementally (historical versions
        and audit reports can run to many megabytes of JSON) and drains
        between chunks, so a slow client back-pressures the serialization
        instead of forcing the whole body into memory.  The chunk payloads
        concatenate to exactly the non-streaming body, so clients that decode
        the chunked framing still see byte-identical documents.
        """
        if response.stream:
            writer.write(self._head(response, keep_alive=keep_alive, body_length=None))
            for chunk in response.body_chunks():
                writer.write(
                    f"{len(chunk):X}\r\n".encode("latin-1") + chunk + b"\r\n"
                )
                await writer.drain()
            writer.write(b"0\r\n\r\n")
        else:
            body = response.body()
            writer.write(
                self._head(response, keep_alive=keep_alive, body_length=len(body))
                + body
            )
        await writer.drain()


__all__ = ["ServeApp", "MAX_BODY_BYTES"]
