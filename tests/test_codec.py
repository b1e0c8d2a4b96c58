"""The JSON codec (`checks.decode`/`encode`), the wire it serves, and the
construction-time checks of `checks.Checked`."""
import importlib
import json
import pkgutil
import urllib.request
from dataclasses import fields, is_dataclass, replace
from threading import Thread

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ambientd
from ambientd.characterize import MAX_LUX, ImageMetrics, TextureClass
from ambientd.checks import Checked, DecodeError, decode, encode
from ambientd.edge import (ActuatorCommand, EdgeService, LogEntry,
                           MetricsRecord, RegionConfig, SensorReading)
from ambientd.errors import InvalidArgumentError
from ambientd.httpapi import make_server
from ambientd.policy import ControlConstraint
from ambientd.scene import MARKER_PATTERNS, MarkerSpec, TextureSpec
from ambientd.sim import SERVE_POLL_S, RegionScenario, Scenario
from test_edge import http, raw_request

TEXTS = st.text(max_size=8)
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
LUXES = st.none() | st.floats(0.0, MAX_LUX)
# an image is never a JSON key, so a reading that JSON carries has lux
READINGS = st.tuples(TEXTS, TEXTS, INT64, st.floats(0.0, MAX_LUX)).map(
    lambda t: SensorReading(*t))
SPECS = st.builds(MarkerSpec, st.sampled_from(MARKER_PATTERNS),
                  st.integers(0, 2))
COMMANDS = (st.builds(ActuatorCommand, TEXTS, st.just("set-brightness"),
                      st.floats(0.0, 100.0) | st.integers(0, 100), INT64)
            | st.builds(ActuatorCommand, TEXTS, st.just("set-marker"), SPECS,
                        INT64))
RECORDS = st.builds(
    MetricsRecord, TEXTS, INT64,
    st.builds(ImageMetrics, FINITE, FINITE, FINITE,
              st.integers(0, 2 ** 63 - 1), LUXES),
    st.sampled_from(TextureClass), st.booleans())
ENTRIES = st.builds(LogEntry, RECORDS, st.none() | TEXTS, st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(READINGS | COMMANDS | RECORDS | ENTRIES)
def test_decode_inverts_encode(obj):
    doc = json.loads(json.dumps(encode(obj), allow_nan=False))
    assert decode(type(obj), doc, "doc") == obj


def test_a_given_field_is_never_a_json_key():
    """A reading's image is set by its caller only: kills a codec that
    reads or writes it as a key."""
    pixels = np.zeros((32, 32), np.uint8)
    assert encode(SensorReading("s", "r", 1, None, pixels)) == {
        "sensor_id": "s", "region_id": "r", "timestamp_ms": 1, "lux": None}
    doc = {"region_id": "r", "timestamp_ms": 1}
    with pytest.raises(DecodeError, match="^doc: 'image' is not a known key$"):
        decode(SensorReading, {**doc, "image": [32, 32]}, "doc", sensor_id="s")
    assert decode(SensorReading, doc, "doc", sensor_id="s",
                  image=pixels).image is pixels


def test_readings_compare_without_their_pixels():
    """== on readings whose images differ: kills an image field that takes
    part in the dataclass's ==, where numpy raises ValueError."""
    a, b = (SensorReading("s", "r", 1, None, np.full((4, 4), v, np.uint8))
            for v in (0, 1))
    assert a == b
    assert a != replace(b, timestamp_ms=2)


def package_dataclasses() -> set:
    """Every dataclass defined in a module of the ambientd package."""
    classes = set()
    for info in pkgutil.iter_modules(ambientd.__path__):
        module = importlib.import_module(f"ambientd.{info.name}")
        classes.update(obj for obj in vars(module).values()
                       if isinstance(obj, type) and is_dataclass(obj)
                       and obj.__module__ == module.__name__)
    return classes


class TestChecked:
    def test_every_dataclass_with_a_field_rule_is_checked(self):
        """Kills a dataclass with a rule that is never checked, such as
        `TrajectoryEvent` without the `Checked` base."""
        ruled = {cls for cls in package_dataclasses()
                 if any("test" in f.metadata for f in fields(cls))}
        assert {"ControlConstraint", "RegionConfig", "TrajectoryEvent",
                "ImageMetrics"} <= {cls.__name__ for cls in ruled}
        assert sorted(cls.__qualname__ for cls in ruled
                      if not issubclass(cls, Checked)) == []

    @pytest.mark.parametrize("build", [
        lambda: ControlConstraint((50.0, 200.0), 100.0, priority=9),
        lambda: SensorReading("s", "r", 1.5, lux=80.0),
        lambda: ActuatorCommand("bulb", "set-brightness", 50.0, 1.5),
        lambda: Scenario((RegionScenario("r", TextureSpec("flat"), 80.0),),
                         seed=1.5),
    ], ids=["ControlConstraint", "SensorReading", "ActuatorCommand",
            "Scenario"])
    def test_an_extended_post_init_still_checks_the_fields(self, build):
        """Each value passes the class's rule across fields and breaks a field
        rule. Kills dropping `super().__post_init__()` from any of the four:
        from `ControlConstraint`, only a random `TestScenarioProperty`
        example caught it."""
        with pytest.raises(InvalidArgumentError, match=r"must be an integer"):
            build()

    def test_the_extending_classes_are_those_above(self):
        """A class that extends `__post_init__` gets a case above."""
        extending = {cls.__name__ for cls in package_dataclasses()
                     if issubclass(cls, Checked) and "__post_init__" in vars(cls)}
        assert extending == {"ControlConstraint", "SensorReading",
                             "ActuatorCommand", "Scenario"}


@pytest.fixture
def served(tmp_path):
    """(base URL, commands the bulb accepted) of a served region r1."""
    svc = EdgeService(tmp_path)
    svc.register_region(RegionConfig("r1", bulb_actuator="bulb1"))
    accepted = []
    svc.register_actuator("bulb1", accepted.append)
    server = make_server(svc)
    thread = Thread(target=server.serve_forever,
                    kwargs={"poll_interval": SERVE_POLL_S}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", accepted
    server.shutdown()
    server.server_close()


READING = {"region_id": "r1", "timestamp_ms": 1000, "lux": 80.0}


class TestWire:
    @pytest.mark.parametrize("method,path,body,key", [
        ("PUT", "/v1/sensors/s1/readings",
         {**READING, "timestamp_ms": 2000, "imgae_pgm_b64": "UDU="},
         "imgae_pgm_b64"),
        ("POST", "/v1/actuators/bulb1/commands",
         {"kind": "set-brightness", "payload": 40.0, "isued_at_ms": 5},
         "isued_at_ms"),
    ], ids=["reading", "command"])
    def test_unknown_key_400_and_nothing_stored(self, served, tmp_path,
                                                method, path, body, key):
        # the reading was stored with its misspelt image dropped, and the
        # command was sent with issued_at_ms 0
        url, accepted = served
        assert http("PUT", f"{url}/v1/sensors/s1/readings", READING)[0] == 200
        log = tmp_path / "region_r1.jsonl"
        before, sent = log.read_bytes(), len(accepted)
        status, doc = http(method, url + path, body)
        assert status == 400
        assert f"{key!r} is not a known key" in doc["error"]
        assert log.read_bytes() == before
        assert len(accepted) == sent

    def test_integer_lux_is_logged_and_answered_as_a_float(self, served,
                                                           tmp_path):
        url, _ = served
        req = urllib.request.Request(
            f"{url}/v1/sensors/s1/readings", method="PUT",
            data=json.dumps({**READING, "lux": 120}).encode())
        with urllib.request.urlopen(req, timeout=10) as resp:
            reply = resp.read()
        assert b'"illuminance": 120.0' in reply
        assert b'"illuminance": 120.0' in (tmp_path / "region_r1.jsonl").read_bytes()

    def test_400_digit_integer_lux_400(self, served, tmp_path):
        # the mutant that lets OverflowError of the int -> float rule
        # through answers 500
        url, _ = served
        status, doc = http("PUT", f"{url}/v1/sensors/s1/readings",
                           {**READING, "lux": 10 ** 400})
        assert status == 400
        assert "lux" in doc["error"]
        assert not (tmp_path / "region_r1.jsonl").exists()

    def test_content_length_beyond_int_digits_413_and_closed(self, served):
        # int() refused the 5 000 digits with ValueError, answered with 500
        url, _ = served
        status, _ = raw_request(
            url, b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
            b"Content-Length: " + b"9" * 5000 + b"\r\n\r\n", expect_close=True)
        assert status == 413
