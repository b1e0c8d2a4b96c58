"""HTTP/1.1 + JSON wire protocol in front of EdgeService.

Routes:
    PUT  /v1/sensors/{sensor_id}/readings
    GET  /v1/regions/{region_id}/metrics/latest
    GET  /v1/regions/{region_id}/metrics/trend?window_s=N
    POST /v1/actuators/{actuator_id}/commands
    GET  /v1/regions/{region_id}/prediction?texture=...&lux=...
    GET  /v1/health

Every request body is read in full before routing, so a keep-alive connection
never takes an unread body for the next request. A body over MAX_BODY_BYTES
gets a 413 and a request with Transfer-Encoding a 400; both close the
connection, since the end of the body is not read. A response leaves in one
write: over keep-alive, a second small write waits for the client's delayed
ACK (Nagle, RFC 896).

The routes hand JSON values to the constructors of `edge`, which check them;
a value they refuse gets a 400.
"""
from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import policy
from .edge import ActuatorCommand, EdgeService, SensorReading
from .errors import (BadRequestError, InvalidArgumentError, NotFoundError,
                     PayloadTooLargeError, StaleReadingError)

# a 320x240 PGM in base64 is about 103 KB
MAX_BODY_BYTES = 1 << 20


def _status_for(exc: Exception) -> int:
    if isinstance(exc, NotFoundError):
        return 404
    if isinstance(exc, StaleReadingError):
        return 409
    if isinstance(exc, PayloadTooLargeError):
        return 413
    if isinstance(exc, (BadRequestError, InvalidArgumentError)):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    service: EdgeService  # set on the subclass by make_server
    protocol_version = "HTTP/1.1"
    # a buffered wfile: the server flushes headers and body together
    wbufsize = -1

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def handle_expect_100(self) -> bool:
        # the client waits for this before it sends the body
        ok = super().handle_expect_100()
        self.wfile.flush()
        return ok

    def _reply(self, status: int, doc: dict) -> None:
        body = json.dumps(doc, allow_nan=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        # on each error the body's end is unknown or unread, so the
        # connection cannot be reused
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise BadRequestError("Transfer-Encoding is not supported")
        length = self.headers.get("Content-Length", "0").strip()
        if not length.isdecimal():
            self.close_connection = True
            raise BadRequestError("Content-Length must be a non-negative integer")
        if int(length) > MAX_BODY_BYTES:
            self.close_connection = True
            raise PayloadTooLargeError(
                f"request body over {MAX_BODY_BYTES} bytes")
        return self.rfile.read(int(length))

    @staticmethod
    def _parse_body(raw: bytes) -> dict:
        try:
            doc = json.loads(raw)
        except (ValueError, RecursionError):    # bad UTF-8 or deep nesting too
            raise BadRequestError("request body is not valid JSON")
        if not isinstance(doc, dict):
            raise BadRequestError("request body must be a JSON object")
        return doc

    def _dispatch(self):
        try:
            raw = self._read_body()
            url = urlparse(self.path)
            parts = url.path.strip("/").split("/")
            query = parse_qs(url.query)
            # the third path segment is the id segment of every route
            rid = parts[2] if len(parts) > 2 else None
            route = f"{self.command} " + "/".join(
                parts[:2] + ["{id}"] * (rid is not None) + parts[3:])
            if route == "GET v1/health":
                status, doc = 200, {"status": "ok"}
            elif route == "GET v1/regions/{id}/metrics/latest":
                status, doc = 200, self.service.get_latest_metrics(rid).to_json()
            elif route == "GET v1/regions/{id}/metrics/trend":
                try:
                    window_s = float(query["window_s"][0])
                except (KeyError, ValueError):
                    raise BadRequestError("missing or bad window_s")
                status, doc = 200, self.service.get_trend(rid, window_s).to_json()
            elif route == "GET v1/regions/{id}/prediction":
                try:
                    texture = query["texture"][0]
                    lux = float(query["lux"][0])
                except (KeyError, ValueError):
                    raise BadRequestError("missing or bad texture/lux")
                status, doc = 200, policy.predict_tracking(texture, lux).to_json()
            elif route == "PUT v1/sensors/{id}/readings":
                body = self._parse_body(raw)
                try:
                    reading = SensorReading(
                        sensor_id=rid,
                        region_id=body["region_id"],
                        timestamp_ms=body["timestamp_ms"],
                        lux=body.get("lux"),
                        image_pgm_b64=body.get("image_pgm_b64"))
                except KeyError as e:
                    raise BadRequestError(f"malformed reading: missing {e}")
                status, doc = 200, self.service.ingest_reading(reading).to_json()
            elif route == "POST v1/actuators/{id}/commands":
                cmd = ActuatorCommand.from_json(rid, self._parse_body(raw))
                status, doc = 202, {
                    "dispatch_latency_ms": self.service.dispatch_command(cmd)}
            else:
                status, doc = 404, {"error": "no such route"}
            self._reply(status, doc)
        except Exception as e:  # noqa: BLE001 - mapped to HTTP statuses
            self._reply(_status_for(e), {"error": str(e)})

    do_GET = do_PUT = do_POST = _dispatch


def make_server(service: EdgeService, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)
