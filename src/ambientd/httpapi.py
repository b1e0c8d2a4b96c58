"""HTTP/1.1 + JSON wire protocol in front of EdgeService.

Routes:
    PUT  /v1/sensors/{sensor_id}/readings     (a JSON or a PGM body)
    GET  /v1/regions/{region_id}/metrics/latest
    GET  /v1/regions/{region_id}/metrics/trend?window_s=N
    POST /v1/actuators/{actuator_id}/commands
    GET  /v1/regions/{region_id}/prediction?texture=...&lux=...
    GET  /v1/health

Every request body is read in full before routing, so a keep-alive connection
never takes an unread body for the next request. A body over MAX_BODY_BYTES
gets a 413, and a request with Transfer-Encoding or with more than one
Content-Length a 400; each closes the connection, since the end of the body
is not read or not known. A response leaves in one write: over keep-alive, a
second small write waits for the client's delayed ACK (Nagle, RFC 896).

Every read from a connection waits at most READ_TIMEOUT_S. A request line,
a header or an idle keep-alive connection that stalls that long is closed
without a reply; a body that stalls gets a 408 and the connection is closed,
since the rest of the body is not read.

`checks.decode` reads a body into the types of `edge`, whose constructors
check it, and `checks.encode` writes a reply. An unknown key or a value a
constructor refuses gets a 400; an integer `lux` is read as a float.

A reading with an image is sent with the media type PGM_MEDIA_TYPE and the
binary PGM as its body; its other fields travel as one JSON object in the
READING_HEADER header, which `checks.decode` reads as it reads a JSON body.
`reading_request` builds that request and `_reading_parts` reads it back.
A PGM that does not parse gets a 400 starting `bad image payload:`; a PGM
body without exactly one such header, or with one that is not JSON, gets a
400 too. A JSON body carries a lux-only reading.
"""
from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import policy
from .checks import decode, encode, parse_json
from .edge import ActuatorCommand, EdgeService, SensorReading
from .errors import (InvalidArgumentError, NotFoundError, PayloadTooLargeError,
                     RequestTimeoutError, StaleReadingError)
from .scene import SyntheticImage

# a 320x240 PGM is 76 815 bytes
MAX_BODY_BYTES = 1 << 20
# seconds one read of a connection may wait; a per-read bound, so a client
# that trickles bytes faster than this still holds its handler thread
READ_TIMEOUT_S = 30.0
PGM_MEDIA_TYPE = "image/x-portable-graymap"
READING_HEADER = "Ambientd-Reading"


_STATUS = {NotFoundError: 404, StaleReadingError: 409, PayloadTooLargeError: 413,
           RequestTimeoutError: 408, InvalidArgumentError: 400}


def _status_for(exc: Exception) -> int:
    return next((_STATUS[c] for c in type(exc).__mro__ if c in _STATUS), 500)


def reading_request(reading: SensorReading) -> tuple:
    """(path, body, headers) of the PUT of an image reading: the PGM as the
    body, the other fields but the path's sensor id in READING_HEADER."""
    fields = encode(reading)
    del fields["sensor_id"]
    return (f"/v1/sensors/{reading.sensor_id}/readings",
            SyntheticImage(reading.image).to_pgm(),
            {"Content-Type": PGM_MEDIA_TYPE, READING_HEADER: json.dumps(fields)})


def _reading_parts(headers, raw: bytes):
    """(the reading's JSON object, its pixels or None) of a PUT request."""
    if headers.get_content_type() != PGM_MEDIA_TYPE:
        return parse_json(raw, "request body"), None
    values = headers.get_all(READING_HEADER, [])
    if len(values) != 1:
        raise InvalidArgumentError(
            f"a PGM reading needs one {READING_HEADER} header")
    doc = parse_json(values[0], f"{READING_HEADER} header")
    try:
        return doc, SyntheticImage.from_pgm(raw).pixels
    except InvalidArgumentError as e:
        raise InvalidArgumentError(f"bad image payload: {e}")


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
            raise InvalidArgumentError("Transfer-Encoding is not supported")
        lengths = self.headers.get_all("Content-Length", ["0"])
        if len(lengths) > 1:    # RFC 9112 6.3: the framing is invalid
            self.close_connection = True
            raise InvalidArgumentError("more than one Content-Length")
        length = lengths[0].strip()
        if not length.isdecimal():
            self.close_connection = True
            raise InvalidArgumentError("Content-Length must be a non-negative integer")
        # int() refuses more than 4 300 digits
        if len(length) > len(str(MAX_BODY_BYTES)) or int(length) > MAX_BODY_BYTES:
            self.close_connection = True
            raise PayloadTooLargeError(
                f"request body over {MAX_BODY_BYTES} bytes")
        try:
            return self.rfile.read(int(length))
        except TimeoutError:
            self.close_connection = True
            raise RequestTimeoutError(
                f"request body not read within {READ_TIMEOUT_S} s")

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
                status, doc = 200, encode(self.service.get_latest_metrics(rid))
            elif route == "GET v1/regions/{id}/metrics/trend":
                try:
                    window_s = float(query["window_s"][0])
                except (KeyError, ValueError):
                    raise InvalidArgumentError("missing or bad window_s")
                status, doc = 200, encode(self.service.get_trend(rid, window_s))
            elif route == "GET v1/regions/{id}/prediction":
                try:
                    texture = query["texture"][0]
                    lux = float(query["lux"][0])
                except (KeyError, ValueError):
                    raise InvalidArgumentError("missing or bad texture/lux")
                self.service.region_config(rid)     # a 404 if unknown
                status, doc = 200, encode(policy.predict_tracking(texture, lux))
            elif route == "PUT v1/sensors/{id}/readings":
                fields, image = _reading_parts(self.headers, raw)
                reading = decode(SensorReading, fields, "malformed reading",
                                 sensor_id=rid, image=image)
                status, doc = 200, encode(self.service.ingest_reading(reading))
            elif route == "POST v1/actuators/{id}/commands":
                body = parse_json(raw, "request body")
                cmd = decode(ActuatorCommand, body, "malformed command body",
                             actuator_id=rid)
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
    # the socket timeout of every connection; read here, so a patched
    # READ_TIMEOUT_S takes effect on the next server
    handler = type("BoundHandler", (_Handler,),
                   {"service": service, "timeout": READ_TIMEOUT_S})
    return ThreadingHTTPServer((host, port), handler)
