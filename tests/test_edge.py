import base64
import json
import socket
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from threading import Thread

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambientd.edge import (ActuatorCommand, EdgeService, MetricsRecord,
                           RegionConfig, SensorReading)
from ambientd.errors import (BadRequestError, ConfigError, InvalidArgumentError,
                             NotFoundError, StaleReadingError)
from ambientd.httpapi import MAX_BODY_BYTES, make_server
from ambientd.scene import MarkerSpec, Region, TextureSpec, render_region


def image_b64(lux=80.0, seed=1, texture=None):
    region = Region("r", texture or TextureSpec("checkerboard", cell=32,
                                                low=0.1, high=0.9), lux)
    img = render_region(region, seed, 320, 240)
    return base64.b64encode(img.to_pgm()).decode("ascii")


def reading(ts, lux=80.0, with_image=True, sensor="s1", region="r1", seed=1):
    return SensorReading(
        sensor_id=sensor, region_id=region, timestamp_ms=ts, lux=lux,
        image_pgm_b64=image_b64(lux=lux, seed=seed) if with_image else None)


@pytest.fixture
def service(tmp_path):
    svc = EdgeService(tmp_path)
    svc.register_region(RegionConfig("r1", bulb_actuator="bulb1"))
    svc.register_actuator("bulb1", lambda cmd: None)
    return svc


class TestIngestion:
    def test_image_reading_produces_record(self, service):
        record = service.ingest_reading(reading(1000))
        assert record.region_id == "r1"
        assert record.metrics.corner_count > 0
        assert record.metrics.illuminance == 80.0
        assert service.get_latest_metrics("r1") is record

    def test_lux_only_carries_forward_image_metrics(self, service):
        first = service.ingest_reading(reading(1000))
        second = service.ingest_reading(reading(2000, lux=120.0,
                                                with_image=False))
        assert second.metrics.brightness == first.metrics.brightness
        assert second.metrics.corner_count == first.metrics.corner_count
        assert second.metrics.illuminance == 120.0

    def test_reading_without_payload_rejected(self):
        with pytest.raises(BadRequestError):
            SensorReading("s1", "r1", 1000)

    def test_stale_timestamp_rejected(self, service):
        service.ingest_reading(reading(2000))
        with pytest.raises(StaleReadingError):
            service.ingest_reading(reading(2000, seed=2))
        with pytest.raises(StaleReadingError):
            service.ingest_reading(reading(1500, seed=3))

    def test_staleness_tracked_per_sensor(self, service):
        service.ingest_reading(reading(2000, sensor="s1"))
        service.ingest_reading(reading(1000, sensor="s2", seed=2))

    def test_staleness_tracked_per_region(self, service):
        service.register_region(RegionConfig("r2"))
        service.ingest_reading(reading(2000, region="r1"))
        service.ingest_reading(reading(1000, region="r2", seed=2))
        with pytest.raises(StaleReadingError):
            service.ingest_reading(reading(1000, region="r2", seed=3))

    def test_unknown_region(self, service):
        with pytest.raises(NotFoundError):
            service.ingest_reading(reading(1000, region="nope"))

    def test_corrupt_image_rejected(self, service):
        bad = base64.b64encode(b"P5 not really").decode("ascii")
        with pytest.raises(BadRequestError):
            service.ingest_reading(SensorReading("s1", "r1", 1000,
                                                 image_pgm_b64=bad))

    @pytest.mark.parametrize("field,value", [
        ("lux", "bright"), ("lux", float("nan")), ("lux", float("inf")),
        ("lux", -5.0), ("lux", True), ("lux", 10 ** 400), ("lux", 1e308),
        ("region_id", 7), ("timestamp_ms", True), ("timestamp_ms", 1000.0),
        ("timestamp_ms", 2 ** 63), ("image_pgm_b64", 5),
    ], ids=["lux-str", "lux-nan", "lux-inf", "lux-negative", "lux-bool",
            "lux-int-beyond-float", "lux-beyond-sunlight", "region-int",
            "timestamp-bool", "timestamp-float", "timestamp-beyond-int64",
            "image-int"])
    def test_bad_field_rejected_before_persisting(self, service, tmp_path,
                                                  field, value):
        fields = {"sensor_id": "s1", "region_id": "r1", "timestamp_ms": 1000,
                  "lux": 80.0, field: value}
        with pytest.raises(BadRequestError):
            service.ingest_reading(SensorReading(**fields))
        assert not (tmp_path / "region_r1.jsonl").exists()

    def test_good_fields_are_not_coerced(self, service, tmp_path):
        service.ingest_reading(SensorReading("s1", "r1", 1000, lux=0))
        line = (tmp_path / "region_r1.jsonl").read_text()
        assert json.loads(line)["metrics"]["illuminance"] == 0
        assert '"illuminance": 0}' in line


class TestPolicyStepping:
    def test_bulb_command_issued_when_off_target(self, tmp_path):
        accepted = []
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1", bulb_actuator="bulb1"))
        svc.register_actuator("bulb1", accepted.append)
        # 200 lux keeps sensor noise low enough for a stable Coarse reading
        svc.ingest_reading(reading(1000, lux=200.0))
        assert len(accepted) == 1
        assert accepted[0].kind == "set-brightness"
        assert accepted[0].payload == pytest.approx(29.2929, abs=1e-3)

    def test_no_command_inside_deadband(self, tmp_path):
        accepted = []
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1", bulb_actuator="bulb1"))
        svc.register_actuator("bulb1", accepted.append)
        svc.ingest_reading(reading(1000, lux=295.0))
        assert accepted == []

    def test_constraints_cap_the_target(self, tmp_path):
        accepted = []
        svc = EdgeService(tmp_path)
        from ambientd.policy import ControlConstraint
        from ambientd.scene import DEFAULT_LUX_CURVE
        cap = ControlConstraint("energy", 50.0, 200.0, 150.0, priority=1)
        svc.register_region(RegionConfig("r1", bulb_actuator="bulb1",
                                         constraints=[cap]))
        svc.register_actuator("bulb1", accepted.append)
        svc.ingest_reading(reading(1000, lux=80.0))
        assert len(accepted) == 1
        want, _ = DEFAULT_LUX_CURVE.invert(200.0)
        assert accepted[0].payload == pytest.approx(want)

    def test_marker_mode_drives_eink(self, tmp_path):
        accepted = []
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig(
            "r1", mode="marker", bulb_actuator="bulb1", eink_actuator="eink1",
            initial_marker=MarkerSpec("binary-grid-A", 0)))
        svc.register_actuator("bulb1", accepted.append)
        svc.register_actuator("eink1", accepted.append)
        # flat background with no marker -> 0% match -> light escalation first
        svc.ingest_reading(reading(1000, lux=80.0))
        assert svc.marker_phase("r1") == "AdjustLight"
        assert accepted and accepted[0].kind == "set-brightness"

    def test_marker_phase_none_for_markerless(self, service):
        assert service.marker_phase("r1") is None

    @pytest.mark.parametrize("fields", [
        {"region_id": "a/b"}, {"region_id": "../x"}, {"region_id": "x" * 65},
        {"region_id": ""}, {"region_id": ".hidden"}, {"region_id": 5},
        {"region_id": "r1", "mode": "bogus"}],
        ids=["slash", "dotdot", "65-chars", "empty", "leading-dot", "int",
             "bogus-mode"])
    def test_bad_region_config_refused_when_built(self, fields):
        # the id names the region's log file
        with pytest.raises(InvalidArgumentError):
            RegionConfig(**fields)


class TestTrend:
    def test_window_and_stats(self, service):
        for i, lux in enumerate((80.0, 100.0, 120.0)):
            service.ingest_reading(reading(1000 * (i + 1), lux=lux, seed=1))
        trend = service.get_trend("r1", 1.5)
        assert trend.count == 2  # 1.5 s window ending at the newest record
        assert trend.stats["illuminance"] == {"min": 100.0, "mean": 110.0,
                                              "max": 120.0}
        wide = service.get_trend("r1", 10.0)
        assert wide.count == 3
        assert wide.stats["illuminance"]["min"] == 80.0

    def test_change_events_counted(self, tmp_path):
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1"))
        svc.ingest_reading(reading(1000, lux=80.0))
        bright = image_b64(lux=400.0, seed=2)
        svc.ingest_reading(SensorReading("s1", "r1", 2000, lux=400.0,
                                         image_pgm_b64=bright))
        trend = svc.get_trend("r1", 10.0)
        assert trend.change_events >= 1

    def test_bad_window_rejected(self, service):
        service.ingest_reading(reading(1000))
        for window_s in (0.0, float("inf"), float("nan"), 1e308):
            with pytest.raises(BadRequestError):
                service.get_trend("r1", window_s)

    def test_empty_region_not_found(self, service):
        with pytest.raises(NotFoundError):
            service.get_latest_metrics("r1")
        with pytest.raises(NotFoundError):
            service.get_trend("r1", 10.0)


class TestDurability:
    def test_restart_replays_log(self, tmp_path):
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1"))
        for i in range(3):
            svc.ingest_reading(reading(1000 * (i + 1), lux=80.0 + i, seed=i + 1))
        latest = svc.get_latest_metrics("r1").to_json()

        svc2 = EdgeService(tmp_path)
        svc2.register_region(RegionConfig("r1"))
        assert svc2.get_latest_metrics("r1").to_json() == latest
        assert svc2.get_trend("r1", 60.0).count == 3

    def test_torn_last_line_is_cut(self, tmp_path):
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1"))
        for i in range(3):
            svc.ingest_reading(reading(1000 * (i + 1), lux=80.0 + i, seed=i + 1))
        log = tmp_path / "region_r1.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(b"".join(lines)[:-7])    # as `truncate -s -7`

        svc2 = EdgeService(tmp_path)
        assert svc2.register_region(RegionConfig("r1")) == len(lines[2]) - 7
        assert log.read_bytes() == lines[0] + lines[1]
        assert svc2.get_trend("r1", 60.0).count == 2
        svc2.ingest_reading(reading(4000, seed=4))
        svc3 = EdgeService(tmp_path)
        assert svc3.register_region(RegionConfig("r1")) == 0
        assert svc3.get_trend("r1", 60.0).count == 3

    def test_unparseable_line_names_file_and_line(self, tmp_path):
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1"))
        svc.ingest_reading(reading(1000))
        log = tmp_path / "region_r1.jsonl"
        log.write_bytes(log.read_bytes() + b'{"region_id": "r1"}\n')
        with pytest.raises(ConfigError, match=r"region_r1\.jsonl:2:"):
            EdgeService(tmp_path).register_region(RegionConfig("r1"))

    def test_json_round_trip_is_bit_exact(self, service):
        record = service.ingest_reading(reading(1000))
        doc = json.loads(json.dumps(record.to_json()))
        back = MetricsRecord.from_json(doc)
        assert back == record

    def test_command_json_round_trip(self):
        cmd = ActuatorCommand("eink1", "set-marker",
                              MarkerSpec("image-uniform", 2), 1234)
        back = ActuatorCommand.from_json("eink1",
                                         json.loads(json.dumps(cmd.to_json())))
        assert back == cmd


class TestDispatch:
    def test_unknown_actuator(self, service):
        with pytest.raises(NotFoundError):
            service.dispatch_command(ActuatorCommand("nope", "set-brightness",
                                                     50.0))

    def test_latency_measured(self, service):
        latency = service.dispatch_command(
            ActuatorCommand("bulb1", "set-brightness", 50.0))
        assert 0.0 <= latency < 500.0

    @pytest.mark.parametrize("payload", [150, -1, -0.5, 100.5, float("nan"),
                                         float("inf"), True, "50", None])
    def test_brightness_outside_percent_rejected(self, payload):
        with pytest.raises(BadRequestError):
            ActuatorCommand("bulb1", "set-brightness", payload)

    def test_brightness_percent_bounds_accepted(self):
        for payload in (0, 100, 0.0, 100.0, 55.5):
            ActuatorCommand("bulb1", "set-brightness", payload)

    def test_bad_kind_rejected(self):
        with pytest.raises(BadRequestError):
            ActuatorCommand("bulb1", "warp-speed", 50.0)
        with pytest.raises(BadRequestError):
            ActuatorCommand("bulb1", "set-marker", 50.0)


@pytest.fixture
def http_server(service):
    server = make_server(service)
    thread = Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def http(method, url, doc=None):
    data = json.dumps(doc).encode() if doc is not None else None
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


class TestHttpApi:
    def test_health(self, http_server):
        status, doc = http("GET", f"{http_server}/v1/health")
        assert (status, doc) == (200, {"status": "ok"})

    def test_reading_round_trip(self, http_server):
        body = {"region_id": "r1", "timestamp_ms": 1000, "lux": 80.0,
                "image_pgm_b64": image_b64()}
        status, doc = http("PUT", f"{http_server}/v1/sensors/s1/readings", body)
        assert status == 200
        status, latest = http("GET",
                              f"{http_server}/v1/regions/r1/metrics/latest")
        assert status == 200
        assert latest == doc  # stored record is byte-identical to the ack

    def test_stale_conflict(self, http_server):
        body = {"region_id": "r1", "timestamp_ms": 1000, "lux": 80.0}
        body["image_pgm_b64"] = image_b64()
        assert http("PUT", f"{http_server}/v1/sensors/s1/readings", body)[0] == 200
        assert http("PUT", f"{http_server}/v1/sensors/s1/readings", body)[0] == 409

    def test_unknown_region_404(self, http_server):
        status, _ = http("GET", f"{http_server}/v1/regions/zz/metrics/latest")
        assert status == 404

    def test_malformed_body_400(self, http_server):
        status, _ = http("PUT", f"{http_server}/v1/sensors/s1/readings",
                         {"nope": 1})
        assert status == 400

    def test_trend_endpoint(self, http_server):
        for ts, lux in ((1000, 80.0), (2000, 90.0)):
            http("PUT", f"{http_server}/v1/sensors/s1/readings",
                 {"region_id": "r1", "timestamp_ms": ts, "lux": lux,
                  "image_pgm_b64": image_b64(seed=ts)})
        status, doc = http(
            "GET", f"{http_server}/v1/regions/r1/metrics/trend?window_s=60")
        assert status == 200
        assert doc["count"] == 2
        assert doc["metrics"]["illuminance"]["max"] == 90.0
        for window_s in ("-1", "inf", "nan", "1e308"):
            status, _ = http("GET", f"{http_server}/v1/regions/r1/metrics/"
                             f"trend?window_s={window_s}")
            assert status == 400, window_s

    def test_trend_reply_is_strict_json(self, http_server):
        url = f"{http_server}/v1/sensors/s1/readings"
        for ts, lux in ((1000, 80.0), (2000, 1e308), (3000, 1e308)):
            http("PUT", url, {"region_id": "r1", "timestamp_ms": ts, "lux": lux})
        with urllib.request.urlopen(
                f"{http_server}/v1/regions/r1/metrics/trend?window_s=60",
                timeout=10) as resp:
            doc = json.loads(resp.read(), parse_constant=_reject_constant)
        assert doc["metrics"]["illuminance"]["max"] == 80.0

    def test_actuator_command(self, http_server):
        status, doc = http("POST", f"{http_server}/v1/actuators/bulb1/commands",
                           {"kind": "set-brightness", "payload": 40.0})
        assert status == 202
        assert 0.0 <= doc["dispatch_latency_ms"] < 500.0
        status, _ = http("POST", f"{http_server}/v1/actuators/ghost/commands",
                         {"kind": "set-brightness", "payload": 40.0})
        assert status == 404

    def test_prediction_endpoint(self, http_server):
        status, doc = http(
            "GET",
            f"{http_server}/v1/regions/r1/prediction?texture=checkerboard&lux=300")
        assert status == 200
        assert doc["expected_error_cm"] == 4.1
        assert doc["class"] == "Good"
        assert doc["estimated"] is False
        status, _ = http(
            "GET", f"{http_server}/v1/regions/r1/prediction?texture=velvet&lux=300")
        assert status == 400

    def test_unknown_route_404(self, http_server):
        assert http("GET", f"{http_server}/v1/bogus")[0] == 404

    def test_keep_alive_requests_are_not_delayed(self, http_server):
        # a reply sent in two writes waits for the client's delayed ACK,
        # about 40 ms per request
        host, port = http_server.removeprefix("http://").split(":")
        conn = HTTPConnection(host, int(port), timeout=10)
        start = time.monotonic()
        try:
            for _ in range(20):
                conn.request("GET", "/v1/health")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()
        assert time.monotonic() - start < 0.4

    def test_expect_100_continue_answered_before_the_body(self, http_server):
        host, port = http_server.removeprefix("http://").split(":")
        body = b'{"kind": "set-brightness", "payload": 40.0}'
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"POST /v1/actuators/bulb1/commands HTTP/1.1\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            replies = sock.makefile("rb")
            assert replies.readline().split()[1] == b"100"
            assert replies.readline() == b"\r\n"
            sock.sendall(body)
            assert read_response(replies)[0] == 202

    @pytest.mark.parametrize("field,value", [
        ("lux", "bright"), ("region_id", ["r1"]), ("image_pgm_b64", 5)],
        ids=["lux-str", "region-list", "image-int"])
    def test_bad_reading_400_and_log_stays_clean(self, http_server, tmp_path,
                                                 field, value):
        url = f"{http_server}/v1/sensors/s1/readings"
        assert http("PUT", url, {"region_id": "r1", "timestamp_ms": 1000,
                                 "lux": 80.0})[0] == 200
        body = {"region_id": "r1", "timestamp_ms": 2000, "lux": 80.0,
                field: value}
        assert http("PUT", url, body)[0] == 400
        assert len((tmp_path / "region_r1.jsonl").read_text().splitlines()) == 1
        trend = f"{http_server}/v1/regions/r1/metrics/trend?window_s=60"
        assert http("GET", trend)[0] == 200

    @pytest.mark.parametrize("raw", [b'"timestamp_ms": 1e400', b'"lux": NaN',
                                     b'"lux": -Infinity'],
                             ids=["timestamp-1e400", "lux-NaN", "lux-minus-Infinity"])
    def test_non_finite_json_numbers_400(self, http_server, tmp_path, raw):
        # a repeated key overrides the earlier one
        body = b'{"region_id": "r1", "timestamp_ms": 1000, "lux": 1.0, %s}' % raw
        status, _ = raw_request(http_server, b"PUT /v1/sensors/s1/readings "
                                b"HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                                % (len(body), body))
        assert status == 400
        assert not (tmp_path / "region_r1.jsonl").exists()

    @pytest.mark.parametrize("body", [b"[" * 100_000, b"\xff{}"],
                             ids=["deeply-nested", "not-utf8"])
    def test_undecodable_body_400(self, http_server, body):
        status, doc = raw_request(http_server, b"PUT /v1/sensors/s1/readings "
                                  b"HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                                  % (len(body), body))
        assert (status, doc) == (400, {"error": "request body is not valid JSON"})

    @pytest.mark.parametrize("length", [b"abc", b"-1", b"1.5"])
    def test_bad_content_length_400(self, http_server, length):
        # a negative length used to block the handler in rfile.read(-1)
        status, doc = raw_request(
            http_server, b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
            b"Content-Length: " + length + b"\r\n\r\n{}")
        assert status == 400
        assert "Content-Length" in doc["error"]

    def test_oversized_body_413_and_closed(self, http_server):
        # only the head is sent: the server must answer without the body
        status, _ = raw_request(
            http_server, b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
            expect_close=True)
        assert status == 413

    def test_transfer_encoding_400_and_closed(self, http_server):
        status, doc = raw_request(
            http_server, b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            expect_close=True)
        assert status == 400
        assert "Transfer-Encoding" in doc["error"]


def raw_request(base_url, request: bytes, expect_close=False):
    """Send request bytes as they are; returns (status, JSON body). With
    expect_close, also checks that the server then closes the connection."""
    host, port = base_url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(request)
        replies = sock.makefile("rb")
        reply = read_response(replies)
        if expect_close:
            assert replies.read(1) == b"", "connection left open"
        return reply


def read_response(replies):
    """One (status, JSON body) from a buffered socket file, or None at EOF."""
    status_line = replies.readline()
    if not status_line:
        return None
    length = 0
    while (line := replies.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return int(status_line.split()[1]), json.loads(replies.read(length))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


class TestIngestProperty:
    def test_no_body_gives_5xx_or_poisons_the_log(self, tmp_path):
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1", bulb_actuator="bulb1"))
        svc.register_actuator("bulb1", lambda cmd: None)
        server = make_server(svc)
        Thread(target=server.serve_forever, daemon=True).start()
        image = base64.b64encode(render_region(
            Region("r", TextureSpec("checkerboard", cell=8), 300.0),
            1, 48, 48).to_pgm()).decode("ascii")
        # reading-shaped bodies reach validation, ingest and the policy step
        readings = st.fixed_dictionaries(
            {"region_id": st.just("r1") | JSON_VALUES,
             "timestamp_ms": st.integers() | JSON_VALUES,
             "lux": st.floats(min_value=0) | JSON_VALUES},
            optional={"image_pgm_b64": st.just(image) | JSON_VALUES})

        @settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
        @given(JSON_VALUES | readings)
        def put(body):
            conn = HTTPConnection("127.0.0.1", server.server_port, timeout=10)
            try:
                conn.request("PUT", "/v1/sensors/s/readings",
                             body=json.dumps(body).encode())
                resp = conn.getresponse()
                assert resp.status < 500
                resp.read()
                conn.request("GET", "/v1/regions/r1/metrics/trend?window_s=1e6")
                resp = conn.getresponse()
                assert resp.status < 500
                json.loads(resp.read(), parse_constant=_reject_constant)
            finally:
                conn.close()

        try:
            put()
        finally:
            server.shutdown()
            server.server_close()
        lines = (tmp_path / "region_r1.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line, parse_constant=_reject_constant)


# (method, path, status): the status does not depend on the body; the
# latest-metrics 404 names the region, which tags the reply with its request
PIPELINE_ROUTES = [
    ("GET", "/v1/health", 200),
    ("GET", "/v1/regions/q{i}/metrics/latest", 404),
    ("PUT", "/v1/nowhere/q{i}", 404),
    ("PUT", "/v1/sensors/q{i}/readings", 400),
    ("POST", "/v1/actuators/q{i}/commands", 400),
]
PIPELINE_BODIES = st.sampled_from([
    b"", b"{}", b"GET /v1/health HTTP/1.1\r\n\r\n",
    b"PUT /v1/nowhere HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
]) | st.binary(max_size=64)


class TestPipelineProperty:
    def test_one_in_order_response_per_request(self, service):
        server = make_server(service)
        Thread(target=server.serve_forever, daemon=True).start()

        @settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
        @given(st.lists(st.tuples(st.sampled_from(PIPELINE_ROUTES),
                                  PIPELINE_BODIES), min_size=1, max_size=6))
        def pipeline(requests):
            wire, want = b"", []
            for i, ((method, path, status), body) in enumerate(requests):
                path = path.format(i=i)
                wire += (f"{method} {path} HTTP/1.1\r\n"
                         f"Content-Length: {len(body)}\r\n\r\n").encode() + body
                want.append((status, path))
            # a last request that closes, so a surplus response shows
            wire += b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
            want.append((200, "/v1/health"))
            with socket.create_connection(("127.0.0.1", server.server_port),
                                          timeout=10) as sock:
                sock.sendall(wire)
                replies = sock.makefile("rb")
                for i, (status, path) in enumerate(want):
                    got_status, doc = read_response(replies)
                    assert got_status == status, (i, path, doc)
                    if "/latest" in path:
                        assert f"'q{i}'" in doc["error"]
                assert replies.read(1) == b""

        try:
            pipeline()
        finally:
            server.shutdown()
            server.server_close()
