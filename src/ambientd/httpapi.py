"""HTTP/1.1 + JSON wire protocol in front of EdgeService.

Routes:
    PUT  /v1/sensors/{sensor_id}/readings
    GET  /v1/regions/{region_id}/metrics/latest
    GET  /v1/regions/{region_id}/metrics/trend?window_s=N
    POST /v1/actuators/{actuator_id}/commands
    GET  /v1/regions/{region_id}/prediction?texture=...&lux=...
    GET  /v1/health
"""
from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import policy
from .edge import ActuatorCommand, EdgeService, SensorReading
from .errors import (BadRequestError, InvalidArgumentError, NotFoundError,
                     StaleReadingError)


def _status_for(exc: Exception) -> int:
    if isinstance(exc, NotFoundError):
        return 404
    if isinstance(exc, StaleReadingError):
        return 409
    if isinstance(exc, (BadRequestError, InvalidArgumentError)):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    service: EdgeService  # set on the subclass by make_server
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _reply(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError:
            raise BadRequestError("request body is not valid JSON")
        if not isinstance(doc, dict):
            raise BadRequestError("request body must be a JSON object")
        return doc

    def do_GET(self):
        url = urlparse(self.path)
        parts = url.path.strip("/").split("/")
        query = parse_qs(url.query)
        try:
            if parts == ["v1", "health"]:
                self._reply(200, {"status": "ok"})
            elif (len(parts) == 5 and parts[:2] == ["v1", "regions"]
                    and parts[3:] == ["metrics", "latest"]):
                record = self.service.get_latest_metrics(parts[2])
                self._reply(200, record.to_json())
            elif (len(parts) == 5 and parts[:2] == ["v1", "regions"]
                    and parts[3:] == ["metrics", "trend"]):
                try:
                    window_s = float(query["window_s"][0])
                except (KeyError, ValueError):
                    raise BadRequestError("missing or bad window_s")
                trend = self.service.get_trend(parts[2], window_s)
                self._reply(200, trend.to_json())
            elif (len(parts) == 4 and parts[:2] == ["v1", "regions"]
                    and parts[3] == "prediction"):
                try:
                    texture = query["texture"][0]
                    lux = float(query["lux"][0])
                except (KeyError, ValueError):
                    raise BadRequestError("missing or bad texture/lux")
                self._reply(200, policy.predict_tracking(texture, lux).to_json())
            else:
                self._reply(404, {"error": "no such route"})
        except Exception as e:  # noqa: BLE001 - mapped to HTTP statuses
            self._reply(_status_for(e), {"error": str(e)})

    def do_PUT(self):
        parts = urlparse(self.path).path.strip("/").split("/")
        try:
            if (len(parts) == 4 and parts[:2] == ["v1", "sensors"]
                    and parts[3] == "readings"):
                doc = self._read_body()
                try:
                    reading = SensorReading(
                        sensor_id=parts[2],
                        region_id=doc["region_id"],
                        timestamp_ms=int(doc["timestamp_ms"]),
                        lux=doc.get("lux"),
                        image_pgm_b64=doc.get("image_pgm_b64"))
                except (KeyError, TypeError, ValueError) as e:
                    raise BadRequestError(f"malformed reading: {e}")
                record = self.service.ingest_reading(reading)
                self._reply(200, record.to_json())
            else:
                self._reply(404, {"error": "no such route"})
        except Exception as e:  # noqa: BLE001
            self._reply(_status_for(e), {"error": str(e)})

    def do_POST(self):
        parts = urlparse(self.path).path.strip("/").split("/")
        try:
            if (len(parts) == 4 and parts[:2] == ["v1", "actuators"]
                    and parts[3] == "commands"):
                doc = self._read_body()
                cmd = ActuatorCommand.from_json(parts[2], doc)
                latency_ms = self.service.dispatch_command(cmd)
                self._reply(202, {"dispatch_latency_ms": latency_ms})
            else:
                self._reply(404, {"error": "no such route"})
        except Exception as e:  # noqa: BLE001
            self._reply(_status_for(e), {"error": str(e)})


def make_server(service: EdgeService, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)
