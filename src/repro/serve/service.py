"""Request handlers: the HTTP-shaped front of the registry (no socket code).

The split mirrors a conventional three-layer service: :mod:`repro.serve.app`
owns sockets and HTTP framing, this module owns request semantics (decode,
validate, pick status codes), and :mod:`repro.serve.registry` owns stream
state.  Handlers are ``async`` because writes await their stream's worker
(:func:`asyncio.wrap_future` bridges the worker's
:class:`concurrent.futures.Future` into the event loop) and stream creation
runs the full publication pipeline in the default executor; *reads* never
await anything - published versions are immutable, so lineage, version and
audit GETs are answered synchronously even while a publication is in flight.

Routes::

    GET  /healthz                                liveness + stream count
    GET  /metrics                                daemon + per-stream metrics
    GET  /metrics?format=prometheus              the same, text exposition 0.0.4
    GET  /metrics.prom                           alias for the above
    GET  /streams                                list stream summaries
    POST /streams                                create {name, rows, config?}
    GET  /streams/{name}                         one stream summary
    GET  /streams/{name}/versions                the full lineage
    GET  /streams/{name}/versions/{version}      one version (delta + audit)
    GET  /streams/{name}/versions/{version}/audit  that version's audit report
    GET  /streams/{name}/audit                   the latest audit report
    POST /streams/{name}/append                  {rows}
    POST /streams/{name}/delete                  {positions}
    POST /streams/{name}/update                  {positions, rows}
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping

from repro.data.table import MicrodataTable
from repro.exceptions import ReproError
from repro.obs import prometheus
from repro.serve.errors import ApiError, BadRequest, Conflict, NotFound
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import StreamHost, StreamRegistry
from repro.serve.router import Request, Response, Router


class ReproService:
    """The daemon's request handlers over one registry."""

    def __init__(self, registry: StreamRegistry, metrics: ServeMetrics):
        self.registry = registry
        self.metrics = metrics

    def register(self, router: Router) -> None:
        """Attach every route to ``router``."""
        router.add("GET", "/healthz", self.healthz)
        router.add("GET", "/metrics", self.metrics_view)
        router.add("GET", "/metrics.prom", self.metrics_prometheus)
        router.add("GET", "/streams", self.list_streams)
        router.add("POST", "/streams", self.create_stream)
        router.add("GET", "/streams/{name}", self.get_stream)
        router.add("GET", "/streams/{name}/versions", self.versions)
        router.add("GET", "/streams/{name}/versions/{version}", self.version_detail)
        router.add(
            "GET", "/streams/{name}/versions/{version}/audit", self.version_audit
        )
        router.add("GET", "/streams/{name}/audit", self.latest_audit)
        router.add("POST", "/streams/{name}/append", self.append)
        router.add("POST", "/streams/{name}/delete", self.delete)
        router.add("POST", "/streams/{name}/update", self.update)

    # -- small helpers ------------------------------------------------------------------
    def _host(self, request: Request) -> StreamHost:
        return self.registry.get(request.params["name"])

    @staticmethod
    def _object_body(request: Request) -> dict[str, Any]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise BadRequest("the request body must be a JSON object")
        return payload

    def _rows_table(self, payload: Mapping[str, Any], key: str = "rows") -> MicrodataTable:
        """Decode and pre-validate a rows payload against the serving schema.

        Building the table here keeps malformed values (wrong keys, a
        non-numeric age) at the HTTP boundary as a 400 - they must never
        reach the worker, where a mid-publication failure would poison the
        stream.
        """
        rows = payload.get(key)
        if not isinstance(rows, list) or not rows or not all(
            isinstance(row, dict) for row in rows
        ):
            raise BadRequest(f"the request body must carry a non-empty {key!r} list of objects")
        try:
            return MicrodataTable.from_rows(self.registry.schema, rows)
        except (ReproError, TypeError, ValueError) as error:
            raise BadRequest(f"bad {key}: {error}") from None

    @staticmethod
    def _positions(payload: Mapping[str, Any]) -> list[int]:
        positions = payload.get("positions")
        if not isinstance(positions, list) or not positions:
            raise BadRequest("the request body must carry a non-empty 'positions' list")
        # JSON integers only: int() would truncate 1.5 and read true as 1.
        if not all(
            isinstance(position, int) and not isinstance(position, bool)
            for position in positions
        ):
            raise BadRequest("'positions' must be integers")
        return positions

    @staticmethod
    def _version(host: StreamHost, raw: str) -> int:
        """The validated version number ``raw`` names in ``host``'s lineage."""
        try:
            number = int(raw)
        except ValueError:
            raise BadRequest(f"bad version {raw!r}; expected an integer") from None
        if not 0 <= number < len(host.store):
            raise NotFound(
                f"stream {host.name!r} has versions 0..{len(host.store) - 1}, "
                f"not {number}"
            )
        return number

    async def _mutate(
        self, request: Request, host: StreamHost, operation: tuple[str, Any]
    ) -> Response:
        """Submit one mutation and await its (possibly shared) version."""
        try:
            future = host.submit(operation, trace_id=request.trace_id or None)
        except ApiError:
            # TooManyRequests from the bounded queue must reach the client
            # as 429 (+ Retry-After), not be blurred into a 409.
            raise
        except ReproError as error:
            raise Conflict(str(error)) from None
        try:
            version = await asyncio.wrap_future(future)
        except ApiError:
            raise
        except ReproError as error:
            if host.poisoned is not None:
                raise Conflict(host.poisoned_message()) from None
            raise BadRequest(str(error)) from None
        return Response(
            200, {"stream": host.name, "version": version.as_dict()}
        )

    # -- health and metrics -------------------------------------------------------------
    async def healthz(self, request: Request) -> Response:
        return Response(200, {"status": "ok", "streams": self.registry.names()})

    def _metrics_payload(self) -> dict[str, Any]:
        streams = {}
        for host in self.registry.hosts():
            summary = host.describe()
            summary.pop("config", None)
            summary.update(host.metrics.as_dict())
            streams[host.name] = summary
        return {"server": self.metrics.as_dict(), "streams": streams}

    async def metrics_view(self, request: Request) -> Response:
        fmt = request.query.get("format", "json")
        if fmt == "prometheus":
            return await self.metrics_prometheus(request)
        if fmt != "json":
            raise BadRequest(
                f"unknown metrics format {fmt!r}; expected 'json' or 'prometheus'"
            )
        return Response(200, self._metrics_payload())

    async def metrics_prometheus(self, request: Request) -> Response:
        return Response(
            200,
            text=prometheus.render(self._metrics_payload()),
            content_type=prometheus.CONTENT_TYPE,
        )

    # -- stream lifecycle ----------------------------------------------------------------
    async def list_streams(self, request: Request) -> Response:
        return Response(
            200, {"streams": [host.describe() for host in self.registry.hosts()]}
        )

    async def create_stream(self, request: Request) -> Response:
        payload = self._object_body(request)
        name = payload.get("name")
        if not isinstance(name, str):
            raise BadRequest("the request body must carry a string 'name'")
        rows = payload.get("rows")
        if not isinstance(rows, list) or not rows or not all(
            isinstance(row, dict) for row in rows
        ):
            raise BadRequest("the request body must carry a non-empty 'rows' list of objects")
        config = payload.get("config")
        if config is not None and not isinstance(config, dict):
            raise BadRequest("'config' must be a JSON object when given")
        loop = asyncio.get_running_loop()
        host = await loop.run_in_executor(
            None, lambda: self.registry.create(name, rows, config)
        )
        return Response(201, {"stream": host.describe()})

    async def get_stream(self, request: Request) -> Response:
        return Response(200, {"stream": self._host(request).describe()})

    # -- history -------------------------------------------------------------------------
    async def versions(self, request: Request) -> Response:
        host = self._host(request)
        return Response(
            200,
            {"stream": host.name, "versions": host.store.lineage()},
            stream=True,
        )

    @staticmethod
    def _stage_breakdown(trace: dict[str, Any]) -> dict[str, Any] | None:
        """Per-stage durations of the ``publish.*`` span inside a tick trace."""

        def find_publish(node: dict[str, Any]) -> dict[str, Any] | None:
            if node.get("name", "").startswith("publish."):
                return node
            for child in node.get("children", ()):
                found = find_publish(child)
                if found is not None:
                    return found
            return None

        publish = find_publish(trace)
        if publish is None:
            return None
        stages: dict[str, float] = {}
        for child in publish.get("children", ()):
            name = child.get("name", "")
            stages[name] = stages.get(name, 0.0) + float(child.get("duration_s", 0.0))
        return {
            "publish": publish["name"],
            "duration_s": float(publish.get("duration_s", 0.0)),
            "stages": stages,
        }

    async def version_detail(self, request: Request) -> Response:
        host = self._host(request)
        number = self._version(host, request.params["version"])
        payload: dict[str, Any] = {"stream": host.name, "version": host.store.summary(number)}
        trace = host.trace_for(number)
        if trace is not None:
            payload["trace"] = trace
            breakdown = self._stage_breakdown(trace)
            if breakdown is not None:
                payload["stages"] = breakdown
        return Response(200, payload, stream=True)

    async def version_audit(self, request: Request) -> Response:
        host = self._host(request)
        number = self._version(host, request.params["version"])
        audit = host.store.summary(number).get("audit")
        if audit is None:
            raise NotFound(f"version {number} of stream {host.name!r} is unaudited")
        payload: dict[str, Any] = {"stream": host.name, "version": number, "audit": audit}
        delta = host.store.report_delta(number)
        if delta is not None:
            payload["audit_delta"] = delta
        return Response(200, payload, stream=True)

    async def latest_audit(self, request: Request) -> Response:
        host = self._host(request)
        request.params["version"] = str(len(host.store) - 1)
        return await self.version_audit(request)

    # -- mutations -----------------------------------------------------------------------
    async def append(self, request: Request) -> Response:
        host = self._host(request)
        batch = self._rows_table(self._object_body(request))
        return await self._mutate(request, host, ("append", batch))

    async def delete(self, request: Request) -> Response:
        host = self._host(request)
        positions = self._positions(self._object_body(request))
        return await self._mutate(request, host, ("delete", positions))

    async def update(self, request: Request) -> Response:
        host = self._host(request)
        payload = self._object_body(request)
        positions = self._positions(payload)
        batch = self._rows_table(payload)
        if len(batch) != len(positions):
            raise BadRequest("'rows' must align one-to-one with 'positions'")
        return await self._mutate(request, host, ("update", (positions, batch)))
