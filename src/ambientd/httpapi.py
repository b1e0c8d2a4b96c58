"""HTTP/1.1 + JSON wire protocol in front of EdgeService.

Routes:
    PUT  /v1/sensors/{sensor_id}/readings     (a JSON or a PGM body)
    GET  /v1/regions/{region_id}/metrics/latest
    GET  /v1/regions/{region_id}/metrics/trend?window_s=N
    POST /v1/actuators/{actuator_id}/commands
    GET  /v1/regions/{region_id}/prediction?texture=...&lux=...
    GET  /v1/health

This module alone spells HTTP/1.1. The server is a small handler on
`socketserver`, one thread per connection; `put_reading` is the simulator's
client, which PUTs an image reading over one keep-alive connection. Both
read a message by the same rules. A start line over MAX_LINE_BYTES is
refused with a 414, a header line over that size or more than MAX_HEADERS
header lines with a 431, a malformed start line or header line with a 400
(HTTP/0.9's bare `GET /path` among them), and a version other than HTTP/1.x
with a 505. A body is framed by Content-Length only: Transfer-Encoding, more
than one Content-Length or a body cut short gets a 400, a body over
MAX_BODY_BYTES a 413. An HTTP/1.0 message, or one with `Connection: close`,
is the last on its connection.

The server answers each refusal, and a method it has no `do_<METHOD>` for
with a 501, as JSON like every other reply, and then closes the connection,
since the rest of the stream is not a request; a reply that closes says so
in its Connection header. Every request body is read in full before
routing, so a keep-alive connection never takes an unread body for the next
request. A response leaves in one write: over keep-alive, a second small
write waits for the client's delayed ACK (Nagle, RFC 896). The client takes
a reply refused by these rules, one without a Content-Length, one that is
not 2xx and one that closes the connection as the end of its run.

Every read from a connection waits at most READ_TIMEOUT_S. A start line, a
header or an idle keep-alive connection that stalls that long is closed
without a reply; a request body that stalls gets a 408.

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
import re
import socketserver
import time
from http import HTTPStatus
from urllib.parse import parse_qs, urlparse

from . import policy
from .checks import decode, encode, parse_json
from .edge import ActuatorCommand, EdgeService, SensorReading
from .errors import (AmbientError, InvalidArgumentError, NotFoundError,
                     PayloadTooLargeError, RequestTimeoutError, StaleReadingError)
from .scene import SyntheticImage

# a 320x240 PGM is 76 815 bytes
MAX_BODY_BYTES = 1 << 20
# seconds one read of a connection may wait; a per-read bound, so a client
# that trickles bytes faster than this still holds its handler thread
READ_TIMEOUT_S = 30.0
MAX_LINE_BYTES = 65536      # of a start line or a header line
MAX_HEADERS = 100
PGM_MEDIA_TYPE = "image/x-portable-graymap"
READING_HEADER = "Ambientd-Reading"

# RFC 9110 5.6.2: a method and a field name are tokens
_TOKEN = rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+"
_VERSION = rb"HTTP/(?P<major>\d)\.(?P<minor>\d)"
# RFC 9112 3, 4 and 5; a bare LF ends a line too (RFC 9112 2.2)
_REQUEST_LINE = re.compile(rb"(%s) (\S+) %s\r?\n" % (_TOKEN, _VERSION))
_STATUS_LINE = re.compile(rb"%s (\d{3}) ([^\r\n]*)\r?\n" % _VERSION)
_FIELD_LINE = re.compile(rb"(%s):[ \t]*([^\r\n]*?)[ \t]*\r?\n" % _TOKEN)
_EMPTY_LINES = (b"\r\n", b"\n")
# an RFC 9110 5.6.7 IMF-fixdate is in English whatever the locale
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec")


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
    """(the reading's JSON object, its pixels or None) of a PUT request.
    headers is a `Headers` or an `email.message.Message`."""
    media_type = headers.get("Content-Type", "").partition(";")[0]
    if media_type.strip().lower() != PGM_MEDIA_TYPE:
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


class Headers:
    """A message's header fields, looked up by name in any case; a name
    sent more than once keeps each value, in order."""

    def __init__(self, fields: dict):
        self._fields = fields    # lower-case name -> [value, ...]

    def get(self, name: str, default=None):
        values = self._fields.get(name.lower())
        return values[0] if values else default

    def get_all(self, name: str, default=None):
        return self._fields.get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._fields


class _Refused(Exception):
    """A message head refused, with the status a request gets for it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _message_head(rfile, start_line: re.Pattern):
    """(the start_line match, Headers, whether the connection then closes)
    of the next message on rfile, or None if the stream ends first. Raises
    _Refused with the status of each refusal the module docstring lists."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    while line in _EMPTY_LINES:     # RFC 9112 2.2: ignored before a message
        line = rfile.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise _Refused(414, f"start line over {MAX_LINE_BYTES} bytes")
    start = start_line.fullmatch(line)
    if start is None:
        raise _Refused(400, "malformed start line")
    if start["major"] != b"1":
        raise _Refused(505, "only HTTP/1.0 and HTTP/1.1 are spoken")
    fields = {}
    count = 0
    while (line := rfile.readline(MAX_LINE_BYTES + 1)) not in _EMPTY_LINES:
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise _Refused(431, f"header line over {MAX_LINE_BYTES} bytes")
        count += 1
        if count > MAX_HEADERS:
            raise _Refused(431, f"more than {MAX_HEADERS} header lines")
        field = _FIELD_LINE.fullmatch(line)
        if field is None:
            raise _Refused(400, "malformed header line")
        fields.setdefault(field[1].decode("ascii").lower(), []).append(
            field[2].decode("latin-1"))
    closes = start["minor"] == b"0" or any(
        token.strip().lower() == "close"
        for value in fields.get("connection", ()) for token in value.split(","))
    return start, Headers(fields), closes


def _message_body(rfile, headers: Headers, continue_to=None) -> bytes:
    """The body that headers frame, read off rfile in full; continue_to, a
    socket, gets the 100 (Continue) that a request expecting it waits for.
    A body that cannot be framed or is cut short raises InvalidArgumentError,
    one over MAX_BODY_BYTES PayloadTooLargeError, one that stalls
    RequestTimeoutError; after each, the rest of the stream is not a message."""
    if "Transfer-Encoding" in headers:
        raise InvalidArgumentError("Transfer-Encoding is not supported")
    lengths = headers.get_all("Content-Length", ["0"])
    if len(lengths) > 1:    # RFC 9112 6.3: the framing is invalid
        raise InvalidArgumentError("more than one Content-Length")
    length = lengths[0]
    if not length.isdecimal():
        raise InvalidArgumentError("Content-Length must be a non-negative integer")
    # int() refuses more than 4 300 digits
    if len(length) > len(str(MAX_BODY_BYTES)) or int(length) > MAX_BODY_BYTES:
        raise PayloadTooLargeError(f"body over {MAX_BODY_BYTES} bytes")
    length = int(length)
    if (continue_to and length
            and headers.get("Expect", "").lower() == "100-continue"):
        continue_to.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
    try:
        body = rfile.read(length)
    except TimeoutError:
        raise RequestTimeoutError(f"body not read within {READ_TIMEOUT_S} s")
    if len(body) < length:
        raise InvalidArgumentError(f"body cut short at {len(body)} of {length} bytes")
    return body


def _http_date() -> str:
    t = time.gmtime()
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


class _Handler(socketserver.StreamRequestHandler):
    service: EdgeService  # set on the subclass by make_server

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except (TimeoutError, ConnectionError):
            pass    # a stalled or dropped connection closes without a reply

    def _serve_one(self) -> bool:
        """Answer one request; False when the connection is to close."""
        try:
            head = _message_head(self.rfile, _REQUEST_LINE)
            if head is None:
                return False
            request, self.headers, self.close_connection = head
            self.command = request[1].decode("ascii")
            self.path = request[2].decode("latin-1")
            handler = getattr(self, "do_" + self.command, None)
            if handler is None:
                raise _Refused(501, f"method {self.command} is not implemented")
            # RFC 9110 10.1.1: an HTTP/1.0 request's expectation is ignored
            expects = None if request["minor"] == b"0" else self.connection
            self.body = _message_body(self.rfile, self.headers, expects)
        except (_Refused, AmbientError) as e:
            self.close_connection = True
            self._reply(e.status if isinstance(e, _Refused) else _status_for(e),
                        {"error": str(e)})
            return False
        handler()
        self.body = None    # an idle keep-alive connection holds no body
        return not self.close_connection

    def _reply(self, status: int, doc: dict) -> None:
        body = json.dumps(doc, allow_nan=False).encode("utf-8")
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Date: {_http_date()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n{close}\r\n")
        self.connection.sendall(head.encode("latin-1") + body)

    def _dispatch(self):
        try:
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
                fields, image = _reading_parts(self.headers, self.body)
                reading = decode(SensorReading, fields, "malformed reading",
                                 sensor_id=rid, image=image)
                status, doc = 200, encode(self.service.ingest_reading(reading))
            elif route == "POST v1/actuators/{id}/commands":
                body = parse_json(self.body, "request body")
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


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True       # an open connection does not hold up exit
    allow_reuse_address = True  # a restart binds its port at once

    def server_bind(self) -> None:
        super().server_bind()
        self.server_port = self.server_address[1]


def make_server(service: EdgeService, host: str = "127.0.0.1",
                port: int = 0) -> _Server:
    # the socket timeout of every connection; read here, so a patched
    # READ_TIMEOUT_S takes effect on the next server
    handler = type("BoundHandler", (_Handler,),
                   {"service": service, "timeout": READ_TIMEOUT_S})
    return _Server((host, port), handler)


def put_reading(sock, replies, host: str, reading: SensorReading) -> None:
    """PUT the request `reading_request` builds in one write to sock, a
    keep-alive connection to host, and read its reply off replies, sock's
    buffered reader; a reply the client refuses raises HTTPException."""
    path, body, headers = reading_request(reading)
    request = "".join([f"PUT {path} HTTP/1.1\r\nHost: {host}\r\n",
                       *(f"{name}: {value}\r\n" for name, value in headers.items()),
                       f"Content-Length: {len(body)}\r\n\r\n"])
    sock.sendall(request.encode("latin-1") + body)
    try:
        head = _message_head(replies, _STATUS_LINE)
        if head is None:
            raise InvalidArgumentError("the server closed the connection")
        status, fields, closes = head
        # RFC 9112 6.3: without one, the reply would end at the close
        if "Content-Length" not in fields:
            raise InvalidArgumentError("a reply without a Content-Length")
        reply = _message_body(replies, fields)
        if not status[3].startswith(b"2"):
            raise InvalidArgumentError(
                f"{status[3].decode()} {status[4].decode('latin-1')}: "
                f"{reply.decode('utf-8', 'replace')}")
        if closes:
            raise InvalidArgumentError("the server closed the connection")
    except (_Refused, AmbientError) as e:
        # imported on this path only: a run whose readings all succeed
        # loads neither http.client nor the email package under it
        from http.client import HTTPException
        raise HTTPException(f"PUT {path}: {e}") from None
