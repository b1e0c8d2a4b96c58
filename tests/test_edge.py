import io
import json
import re
import shutil
import socket
import tempfile
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import replace
from http.client import HTTPConnection, parse_headers
from pathlib import Path
from threading import Thread
from urllib.parse import urlparse

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambientd import errors, httpapi, markerpipe
from ambientd.characterize import MAX_LUX, METRIC_NAMES
from ambientd.checks import decode, encode
from ambientd.edge import (ActuatorCommand, EdgeService, MetricsRecord,
                           RegionConfig, SensorReading)
from ambientd.errors import (ConfigError, InvalidArgumentError, NotFoundError,
                             StaleReadingError)
from ambientd.httpapi import (MAX_BODY_BYTES, PGM_MEDIA_TYPE, READING_HEADER,
                              make_server)
from ambientd.markerpipe import DEFAULT_MATCH_FAST_THRESHOLD
from ambientd.policy import INITIAL_MARKER, PolicyConfig
from ambientd.scene import (MarkerPlacement, MarkerSpec, Region, SyntheticImage,
                            TextureSpec, render_region)
from ambientd.sim import SERVE_POLL_S

FIXTURES = Path(__file__).parent / "fixtures"


def frame(lux=80.0, seed=1, texture=None) -> SyntheticImage:
    region = Region("r", texture or TextureSpec("checkerboard", cell=32,
                                                low=0.1, high=0.9), lux)
    return render_region(region, seed, 320, 240)


def reading(ts, lux=80.0, with_image=True, sensor="s1", region="r1", seed=1,
            texture=None):
    return SensorReading(
        sensor_id=sensor, region_id=region, timestamp_ms=ts, lux=lux,
        image=(frame(lux=lux, seed=seed, texture=texture).pixels
               if with_image else None))


def marker_frame(seed, distance_cm=30.0):
    """A shelf at 300 lux showing the initial marker: at 30 cm it matches
    above the 60 % target, at 90 cm it matches nothing."""
    shelf = Region("shelf", TextureSpec("flat", value=0.6), 300.0,
                   marker=MarkerPlacement(INITIAL_MARKER, distance_cm, 0.0))
    return render_region(shelf, seed, 320, 240).pixels


MATCH_MARKER = markerpipe.match_marker


def eager_match(image, spec=INITIAL_MARKER):
    return MATCH_MARKER(image, spec, DEFAULT_MATCH_FAST_THRESHOLD)


# a well-formed image too small to characterize
TINY = SyntheticImage(np.zeros((8, 8), np.uint8))


def restarted(data_dir):
    """A service that replays region r1's log in data_dir."""
    svc = EdgeService(data_dir)
    svc.register_region(RegionConfig("r1"))
    return svc


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
        with pytest.raises(InvalidArgumentError):
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

    def test_corrupt_image_rejected(self, service, tmp_path):
        # a PGM is parsed by the HTTP front end; these are pixels that are not
        for image in (np.zeros(64, np.uint8), np.zeros((64, 64), np.int16),
                      np.zeros((64, 64, 1), np.uint8), b"P5 not really"):
            with pytest.raises(InvalidArgumentError, match="image must be"):
                service.ingest_reading(SensorReading("s1", "r1", 1000,
                                                     image=image))
        assert not (tmp_path / "region_r1.jsonl").exists()

    @pytest.mark.parametrize("field,value", [
        ("lux", "bright"), ("lux", float("nan")), ("lux", float("inf")),
        ("lux", -5.0), ("lux", True), ("lux", 10 ** 400), ("lux", 1e308),
        ("region_id", 7), ("timestamp_ms", True), ("timestamp_ms", 1000.0),
        ("timestamp_ms", 2 ** 63), ("image", 5), ("sensor_id", 7),
    ], ids=["lux-str", "lux-nan", "lux-inf", "lux-negative", "lux-bool",
            "lux-int-beyond-float", "lux-beyond-sunlight", "region-int",
            "timestamp-bool", "timestamp-float", "timestamp-beyond-int64",
            "image-int", "sensor-int"])
    def test_bad_field_rejected_before_persisting(self, service, tmp_path,
                                                  field, value):
        fields = {"sensor_id": "s1", "region_id": "r1", "timestamp_ms": 1000,
                  "lux": 80.0, field: value}
        with pytest.raises(InvalidArgumentError):
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
        cap = ControlConstraint((50.0, 200.0), 150.0, "energy", priority=1)
        svc.register_region(RegionConfig("r1", bulb_actuator="bulb1",
                                         constraints=[cap]))
        svc.register_actuator("bulb1", accepted.append)
        svc.ingest_reading(reading(1000, lux=80.0))
        assert len(accepted) == 1
        want, _ = DEFAULT_LUX_CURVE.invert(200.0)
        assert accepted[0].payload == pytest.approx(want)

    def test_constraints_cap_the_target_of_a_marker_region(self, tmp_path):
        accepted = []
        svc = EdgeService(tmp_path)
        from ambientd.policy import ControlConstraint
        from ambientd.scene import DEFAULT_LUX_CURVE
        cap = ControlConstraint((50.0, 200.0), 150.0, "energy", priority=1)
        svc.register_region(RegionConfig(
            "r1", mode="marker", bulb_actuator="bulb1", eink_actuator="eink1",
            constraints=[cap]))
        svc.register_actuator("bulb1", accepted.append)
        svc.register_actuator("eink1", accepted.append)
        # no marker in view -> 0% match -> the light is adjusted first
        svc.ingest_reading(reading(1000, lux=80.0))
        assert [c.kind for c in accepted] == ["set-brightness"]
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

    def test_command_to_an_unregistered_actuator_is_recorded_not_sent(
            self, tmp_path):
        # it used to be sent anyway, so the stored reading raised
        # NotFoundError (a 404 over HTTP, and a retry got 409 stale); the
        # mutant drops the registered-actuator check of the policy step
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1", bulb_actuator="bulb1"))
        record = svc.ingest_reading(reading(1000, lux=200.0, with_image=False))
        assert svc.get_latest_metrics("r1") is record
        [line] = (tmp_path / "region_r1.jsonl").read_text().splitlines()
        assert json.loads(line)["timestamp_ms"] == 1000
        [cmd] = svc.region_commands("r1")
        assert (cmd.actuator_id, cmd.kind) == ("bulb1", "set-brightness")
        with pytest.raises(NotFoundError):
            svc.dispatch_command(cmd)

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


class TestLazyMarkerMatch:
    """A marker region runs the marker pipeline only for a step or a
    `marker_match` that reads the match, once per image reading."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return MATCH_MARKER(*args)
        monkeypatch.setattr(markerpipe, "match_marker", counted)
        return calls

    @staticmethod
    def marker_region(tmp_path, **fields):
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1", mode="marker",
                                         eink_actuator="eink1", **fields))
        return svc

    def test_a_satisfied_region_matches_only_when_read(self, tmp_path, calls):
        # kills the stale callable, an earlier reading's match kept: the
        # first and last frames match differently
        svc = self.marker_region(tmp_path)
        first = marker_frame(1)
        svc.ingest_reading(SensorReading("s1", "r1", 1000, 300.0, first))
        assert svc.marker_phase("r1") == "Satisfied" and len(calls) == 1
        for ts, seed in ((2000, 2), (3000, 3)):
            last = marker_frame(seed)
            svc.ingest_reading(SensorReading("s1", "r1", ts, 300.0, last))
        assert len(calls) == 1
        want = eager_match(last)
        assert want != eager_match(first)
        assert svc.marker_match("r1") == want
        assert svc.marker_match("r1") == want and len(calls) == 2

    def test_a_match_is_taken_against_the_marker_shown(self, tmp_path, calls):
        # kills a late-bound spec, read from the region's state each time
        # the match runs: this reading switches the marker, so a later
        # match would run against the next pattern. A size change would not
        # show it, as every size has the same reference; nor would a
        # memoized late-bound call, as the step runs it before it changes
        # the spec.
        svc = self.marker_region(tmp_path, policy=PolicyConfig(max_size_index=0))
        image = marker_frame(1, distance_cm=90.0)
        svc.ingest_reading(SensorReading("s1", "r1", 1000, 300.0, image))
        [cmd] = svc.region_commands("r1")
        assert cmd.payload == MarkerSpec("binary-grid-B", 0)
        assert svc.marker_match("r1") == eager_match(image)
        assert eager_match(image) != eager_match(image, cmd.payload)
        assert len(calls) == 1

    def test_a_lux_only_reading_keeps_the_previous_match(self, tmp_path, calls):
        svc = self.marker_region(tmp_path)
        image = marker_frame(1)
        svc.ingest_reading(SensorReading("s1", "r1", 1000, 300.0, image))
        svc.ingest_reading(SensorReading("s1", "r1", 2000, 300.0))
        assert svc.marker_match("r1") == eager_match(image)
        assert len(calls) == 1

    def test_an_image_without_lux_is_matched_when_read(self, tmp_path, calls):
        # kills the early return before the match is bound, which left
        # marker_match None after this first reading; with no lux yet the
        # step itself does not run
        svc = self.marker_region(tmp_path)
        image = marker_frame(1)
        svc.ingest_reading(SensorReading("s1", "r1", 1000, None, image))
        assert svc.region_commands("r1") == [] and calls == []
        assert svc.marker_match("r1") == eager_match(image)
        assert len(calls) == 1


class TestLockedReads:
    @pytest.mark.parametrize("read, want", [("marker_phase", "AdjustLight"),
                                            ("region_commands", []),
                                            ("region_records", []),
                                            ("marker_match", None)])
    def test_a_read_waits_for_the_region_lock(self, tmp_path, read, want):
        # kills the unlocked read, which returns while an ingest holds the
        # lock and may see its policy state half written
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("r1", mode="marker"))
        got = []
        reader = Thread(target=lambda: got.append(getattr(svc, read)("r1")))
        with svc._runtime("r1").lock:
            reader.start()
            reader.join(0.1)
            assert reader.is_alive() and got == []
        reader.join(10)
        assert not reader.is_alive() and got == [want]

    def test_dispatch_waits_for_the_global_lock(self, service):
        # kills a dispatch that finds the actuator and walks the regions for
        # its kinds without the lock, racing a registration
        accepted = []
        service.register_actuator("bulb1", accepted.append)
        cmd = ActuatorCommand("bulb1", "set-brightness", 50.0)
        sender = Thread(target=service.dispatch_command, args=(cmd,))
        with service._global_lock:
            sender.start()
            sender.join(0.1)
            assert sender.is_alive() and accepted == []
        sender.join(10)
        assert not sender.is_alive() and accepted == [cmd]


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
        bright = frame(lux=400.0, seed=2).pixels
        svc.ingest_reading(SensorReading("s1", "r1", 2000, lux=400.0,
                                         image=bright))
        trend = svc.get_trend("r1", 10.0)
        assert trend.change_events >= 1

    def test_bad_window_rejected(self, service):
        service.ingest_reading(reading(1000))
        for window_s in (0.0, float("inf"), float("nan"), 1e308):
            with pytest.raises(InvalidArgumentError):
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
        latest = encode(svc.get_latest_metrics("r1"))

        svc2 = EdgeService(tmp_path)
        svc2.register_region(RegionConfig("r1"))
        assert encode(svc2.get_latest_metrics("r1")) == latest
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

    def test_log_line_is_the_record_plus_sensor_and_image(self, service,
                                                          tmp_path):
        image = service.ingest_reading(reading(1000))
        lux_only = service.ingest_reading(reading(2000, sensor="s2",
                                                  with_image=False))
        lines = (tmp_path / "region_r1.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {**encode(image), "sensor_id": "s1", "image": True},
            {**encode(lux_only), "sensor_id": "s2", "image": False}]

    def test_restart_keeps_staleness(self, tmp_path):
        restarted(tmp_path).ingest_reading(reading(4000))
        svc = restarted(tmp_path)
        with pytest.raises(StaleReadingError):
            svc.ingest_reading(reading(2000))
        svc.ingest_reading(reading(2000, sensor="s2"))

    def test_restart_keeps_scene_change_state(self, tmp_path):
        restarted(tmp_path).ingest_reading(reading(1000))
        flat = TextureSpec("flat", value=0.6)
        record = restarted(tmp_path).ingest_reading(
            reading(2000, texture=flat))
        assert record.scene_change

    def test_restart_carries_image_metrics_to_lux_only(self, tmp_path):
        first = restarted(tmp_path).ingest_reading(reading(1000))
        second = restarted(tmp_path).ingest_reading(
            reading(2000, lux=120.0, with_image=False))
        assert second.metrics == replace(first.metrics, illuminance=120.0)
        assert second.texture_class == first.texture_class

    def test_old_format_log_replays_as_before(self, tmp_path):
        """A log written before lines carried `sensor_id` and `image`
        replays as it did then: no staleness and no last image metrics."""
        shutil.copy(FIXTURES / "old_log" / "region_r1.jsonl", tmp_path)
        want = json.loads((FIXTURES / "old_log" / "expected.json").read_text())
        svc = restarted(tmp_path)
        assert encode(svc.get_latest_metrics("r1")) == want["latest"]
        assert encode(svc.get_trend("r1", 60.0)) == want["trend_60"]
        assert encode(svc.get_trend("r1", 2.0)) == want["trend_2"]
        after = [svc.ingest_reading(reading(1, lux=50.0, with_image=False)),
                 svc.ingest_reading(reading(2, sensor="s2"))]
        assert [encode(r) for r in after] == want["after"]

    @pytest.mark.parametrize("extra", [
        {"sensor_id": 5}, {"image": "yes"}, {"image": None},
        # each of these replayed, coerced or served as if live ingest wrote it
        {"region_id": "zz"}, {"scene_change": "no"}, {"timestamp_ms": 1999.9},
        {"metrics": {"brightness": "x"}},
        {"metrics": {"brightness": float("nan")}},
        {"metrics": {"corner_count": 7.5}},
        {"metrics": {"illuminance": 1e300}},
        # a key no entry has was ignored
        {"sensor": "s1"}])
    def test_bad_entry_key_names_file_and_line(self, tmp_path, extra):
        svc = restarted(tmp_path)
        svc.ingest_reading(reading(1000))
        log = tmp_path / "region_r1.jsonl"
        doc = json.loads(log.read_text())
        doc = {**doc, **extra,
               "metrics": {**doc["metrics"], **extra.get("metrics", {})}}
        log.write_text(log.read_text() + json.dumps(doc) + "\n")
        with pytest.raises(ConfigError, match=r"region_r1\.jsonl:2:"):
            restarted(tmp_path)

    def test_blank_lines_are_skipped(self, tmp_path):
        # kills parsing every line: "bad record is not valid JSON"
        svc = restarted(tmp_path)
        svc.ingest_reading(reading(1000))
        log = tmp_path / "region_r1.jsonl"
        log.write_bytes(b"\n" + log.read_bytes() + b" \t\r\n")
        svc.ingest_reading(reading(2000))
        assert restarted(tmp_path).get_trend("r1", 60.0).count == 2

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
        doc = json.loads(json.dumps(encode(record)))
        back = decode(MetricsRecord, doc, "record")
        assert back == record

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_record_without_a_metric_is_refused(self, service, name):
        """Kills a decoder that reads metrics with `.get`: a line without
        `illuminance` would then replay as a lux-less record."""
        doc = encode(service.ingest_reading(reading(1000)))
        del doc["metrics"][name]
        with pytest.raises(InvalidArgumentError,
                           match=rf"missing 'metrics\.{name}'"):
            decode(MetricsRecord, doc, "record")

    def test_command_json_round_trip(self):
        cmd = ActuatorCommand("eink1", "set-marker",
                              MarkerSpec("image-uniform", 2), 1234)
        back = decode(ActuatorCommand, json.loads(json.dumps(encode(cmd))),
                      "command")
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

    def test_kind_must_fit_the_actuator_a_region_names(self, service):
        marker = ActuatorCommand("bulb1", "set-marker",
                                 MarkerSpec("binary-grid-A", 0))
        with pytest.raises(InvalidArgumentError, match="set-brightness"):
            service.dispatch_command(marker)
        accepted = []
        service.register_actuator("spare", accepted.append)
        service.dispatch_command(replace(marker, actuator_id="spare"))
        assert accepted == [replace(marker, actuator_id="spare")]

    def test_an_actuator_two_regions_name_takes_both_kinds(self, tmp_path):
        # the mutant's kinds record keeps only the last region's kind
        svc = EdgeService(tmp_path)
        svc.register_region(RegionConfig("a", bulb_actuator="hub"))
        svc.register_region(RegionConfig("b", mode="marker",
                                         eink_actuator="hub"))
        accepted = []
        svc.register_actuator("hub", accepted.append)
        cmds = [ActuatorCommand("hub", "set-brightness", 50.0),
                ActuatorCommand("hub", "set-marker",
                                MarkerSpec("binary-grid-A", 0))]
        for cmd in cmds:
            svc.dispatch_command(cmd)
        assert accepted == cmds

    @pytest.mark.parametrize("payload", [150, -1, -0.5, 100.5, float("nan"),
                                         float("inf"), True, "50", None])
    def test_brightness_outside_percent_rejected(self, payload):
        with pytest.raises(InvalidArgumentError):
            ActuatorCommand("bulb1", "set-brightness", payload)

    def test_brightness_percent_bounds_accepted(self):
        for payload in (0, 100, 0.0, 100.0, 55.5):
            ActuatorCommand("bulb1", "set-brightness", payload)

    def test_bad_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ActuatorCommand("bulb1", "warp-speed", 50.0)
        with pytest.raises(InvalidArgumentError):
            ActuatorCommand("bulb1", "set-marker", 50.0)


def serving(service):
    """Serve on a free port in a thread; yields the base URL."""
    server = make_server(service)
    thread = Thread(target=server.serve_forever,
                    kwargs={"poll_interval": SERVE_POLL_S}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


@pytest.fixture
def http_server(service):
    yield from serving(service)


def http(method, url, doc=None):
    data = json.dumps(doc).encode() if doc is not None else None
    return send(urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"}))


def put_pgm(url, fields, pgm):
    """PUT a reading whose image is the PGM body, its other fields in the
    reading header."""
    return send(urllib.request.Request(url, data=pgm, method="PUT", headers={
        "Content-Type": PGM_MEDIA_TYPE, READING_HEADER: json.dumps(fields)}))


def send(req):
    """(status, JSON body) of the reply to req."""
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


# (class, HTTP status) of each row of the table in errors.py's docstring
STATUS_ROWS = [(getattr(errors, name), int(status)) for name, status in
               re.findall(r"^ +(\w+Error) +(\d{3}) +\d+$", errors.__doc__, re.M)]


class TestWire:
    def test_the_status_table_lists_every_error(self):
        listed = {cls for cls, _ in STATUS_ROWS}
        assert listed == {cls for cls in vars(errors).values() if isinstance(cls, type)
                          and issubclass(cls, errors.AmbientError)
                          and cls is not errors.AmbientError}
        assert httpapi._status_for(RuntimeError("boom")) == 500

    @pytest.mark.parametrize("cls, status", STATUS_ROWS,
                             ids=[cls.__name__ for cls, _ in STATUS_ROWS])
    def test_each_error_gets_its_listed_status(self, cls, status):
        # kills a table missing a row: its class falls back to its base's
        # status (413 to 400) or to 500
        assert httpapi._status_for(cls("x")) == status

    @settings(max_examples=60, deadline=None)
    @given(region_id=st.text("abcXYZ019_.-", min_size=1, max_size=64).filter(
               lambda s: not s.startswith(".")),
           timestamp_ms=st.integers(-2 ** 63, 2 ** 63 - 1),
           lux=st.none() | st.floats(0.0, MAX_LUX),
           height=st.integers(1, 240), width=st.integers(1, 320),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(region_id="desk", timestamp_ms=0, lux=None, height=1, width=1,
             seed=0)
    @example(region_id="shelf", timestamp_ms=5000, lux=60.0, height=240,
             width=320, seed=1)
    def test_reading_request_parses_back_to_the_reading(
            self, region_id, timestamp_ms, lux, height, width, seed):
        # the id the simulator gives a region's sensor
        sensor_id = f"sensor:{region_id}"
        pixels = np.random.default_rng(seed).integers(
            0, 256, (height, width), dtype=np.uint8)
        sent = SensorReading(sensor_id, region_id, timestamp_ms, lux, pixels)
        path, body, headers = httpapi.reading_request(sent)
        # the headers as the server's parser reads them off the wire, and as
        # the email parser reads them
        head = "".join(f"{k}: {v}\r\n" for k, v in headers.items()) + "\r\n"
        _, own, _ = httpapi._message_head(io.BytesIO(
            f"PUT {path} HTTP/1.1\r\n{head}".encode("iso-8859-1")),
            httpapi._REQUEST_LINE)
        email = parse_headers(io.BytesIO(head.encode("iso-8859-1")))
        # the third path segment, as the handler routes it
        path_id = urlparse(path).path.strip("/").split("/")[2]
        for parsed in (own, email):
            fields, image = httpapi._reading_parts(parsed, body)
            got = decode(SensorReading, fields, "malformed reading",
                         sensor_id=path_id, image=image)
            assert got == sent
            assert got.image.dtype == np.uint8
            assert np.array_equal(got.image, pixels)


class TestHttpApi:
    def test_health(self, http_server):
        status, doc = http("GET", f"{http_server}/v1/health")
        assert (status, doc) == (200, {"status": "ok"})

    def test_reading_round_trip(self, http_server):
        fields = {"region_id": "r1", "timestamp_ms": 1000, "lux": 80.0}
        status, doc = put_pgm(f"{http_server}/v1/sensors/s1/readings", fields,
                              frame().to_pgm())
        assert status == 200
        status, latest = http("GET",
                              f"{http_server}/v1/regions/r1/metrics/latest")
        assert status == 200
        assert latest == doc  # stored record is byte-identical to the ack

    def test_stale_conflict(self, http_server):
        fields = {"region_id": "r1", "timestamp_ms": 1000, "lux": 80.0}
        url, pgm = f"{http_server}/v1/sensors/s1/readings", frame().to_pgm()
        assert put_pgm(url, fields, pgm)[0] == 200
        assert put_pgm(url, fields, pgm)[0] == 409

    def test_unknown_region_404(self, http_server):
        status, _ = http("GET", f"{http_server}/v1/regions/zz/metrics/latest")
        assert status == 404

    def test_malformed_body_400(self, http_server):
        status, doc = http("PUT", f"{http_server}/v1/sensors/s1/readings",
                           {"nope": 1})
        assert status == 400
        assert doc == {"error": "malformed reading: missing 'region_id'"}

    def test_trend_endpoint(self, http_server):
        for ts, lux in ((1000, 80.0), (2000, 90.0)):
            put_pgm(f"{http_server}/v1/sensors/s1/readings",
                    {"region_id": "r1", "timestamp_ms": ts, "lux": lux},
                    frame(seed=ts).to_pgm())
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

    @pytest.mark.parametrize("query", ["", "?window_s=abc", "?window_s="])
    def test_trend_without_a_number_window_400(self, http_server, query):
        # kills dropping KeyError or ValueError from the query's except,
        # which turns the reply into a 500
        status, doc = http(
            "GET", f"{http_server}/v1/regions/r1/metrics/trend{query}")
        assert (status, doc) == (400, {"error": "missing or bad window_s"})

    @pytest.mark.parametrize("query", ["?lux=300", "?texture=checkerboard",
                                       "?texture=checkerboard&lux=abc"])
    def test_prediction_without_texture_or_number_lux_400(self, http_server,
                                                         query):
        # kills dropping KeyError or ValueError from the query's except
        status, doc = http("GET", f"{http_server}/v1/regions/r1/prediction{query}")
        assert (status, doc) == (400, {"error": "missing or bad texture/lux"})

    def test_prediction_unknown_region_404(self, http_server):
        status, doc = http("GET", f"{http_server}/v1/regions/nope/prediction"
                                  "?texture=checkerboard&lux=300")
        assert (status, doc) == (404, {"error": "unknown region 'nope'"})

    @pytest.mark.parametrize("lux", ["nan", "inf", "-inf", "-5"])
    def test_prediction_bad_lux_400(self, http_server, lux):
        status, doc = http("GET", f"{http_server}/v1/regions/r1/prediction"
                                  f"?texture=checkerboard&lux={lux}")
        assert status == 400
        assert "lux" in doc["error"]

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
        ("lux", "bright"), ("region_id", ["r1"]), ("image", 5)],
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

    def test_refused_image_does_not_move_the_staleness_clock(
            self, http_server, tmp_path):
        url = f"{http_server}/v1/sensors/s1/readings"
        fields = {"region_id": "r1", "timestamp_ms": 5000, "lux": 80.0}
        assert put_pgm(url, fields, TINY.to_pgm())[0] == 400
        assert http("PUT", url, {**fields, "timestamp_ms": 4000})[0] == 200
        assert len((tmp_path / "region_r1.jsonl").read_text().splitlines()) == 1

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

    def test_two_content_lengths_400_and_closed(self, http_server, tmp_path):
        # RFC 9112 6.3; the bytes only the longer length covers must not be
        # stored with the body or answered as a request of their own
        body = b'{"region_id": "r1", "timestamp_ms": 1000, "lux": 80.0}'
        smuggled = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
        status, doc = raw_request(
            http_server, b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
            b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n%s%s"
            % (len(body), len(body) + len(smuggled), body, smuggled),
            expect_close=True)
        assert (status, doc) == (400, {"error": "more than one Content-Length"})
        assert not (tmp_path / "region_r1.jsonl").exists()

    def test_body_cut_short_400_and_closed(self, http_server, tmp_path):
        # the end of the stream comes before the body's Content-Length does
        body = b'{"region_id": "r1", "timestamp_ms": 1000, "lux": 80.0}'
        host, port = http_server.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body) + 4, body))
            sock.shutdown(socket.SHUT_WR)
            replies = sock.makefile("rb")
            status, doc = read_response(replies)
            assert replies.read(1) == b"", "connection left open"
        assert (status, doc) == (400, {
            "error": f"body cut short at {len(body)} of {len(body) + 4} bytes"})
        assert not (tmp_path / "region_r1.jsonl").exists()

    @pytest.mark.parametrize("key", ["image_pgm_b64", "image"])
    def test_json_image_key_400(self, http_server, tmp_path, key):
        # an image is sent as a PGM body only
        body = {"region_id": "r1", "timestamp_ms": 1000, "lux": 80.0,
                key: "UDUKMSAxCjI1NQoA"}
        status, doc = http("PUT", f"{http_server}/v1/sensors/s1/readings", body)
        assert (status, doc) == (
            400, {"error": f"malformed reading: {key!r} is not a known key"})
        assert not (tmp_path / "region_r1.jsonl").exists()

    @pytest.mark.parametrize("header,error", [
        (b"", f"a PGM reading needs one {READING_HEADER} header"),
        (b"%s: {}\r\n%s: {}\r\n" % ((READING_HEADER.encode(),) * 2),
         f"a PGM reading needs one {READING_HEADER} header"),
        (READING_HEADER.encode() + b": {\"region_id\": \"r1\",\r\n",
         f"{READING_HEADER} header is not valid JSON"),
        (READING_HEADER.encode() + b": [1000]\r\n",
         "malformed reading: must be a JSON object"),
    ], ids=["missing", "twice", "not-json", "not-an-object"])
    def test_pgm_without_one_good_reading_header_400(self, http_server,
                                                     tmp_path, header, error):
        pgm = frame().to_pgm()
        status, doc = raw_request(
            http_server, b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
            b"Content-Type: %s\r\n%sContent-Length: %d\r\n\r\n%s"
            % (PGM_MEDIA_TYPE.encode(), header, len(pgm), pgm))
        assert (status, doc) == (400, {"error": error})
        assert not (tmp_path / "region_r1.jsonl").exists()

    def test_reading_header_with_sensor_id_400(self, http_server, tmp_path):
        # the sensor id comes from the path, as for a JSON body
        fields = {"sensor_id": "s1", "region_id": "r1", "timestamp_ms": 1000,
                  "lux": 80.0}
        status, doc = put_pgm(f"{http_server}/v1/sensors/s1/readings", fields,
                              frame().to_pgm())
        assert (status, doc) == (
            400, {"error": "malformed reading: 'sensor_id' is not a known key"})
        assert not (tmp_path / "region_r1.jsonl").exists()

    @pytest.mark.parametrize("pgm,reason", [
        (frame().to_pgm()[:-1], "truncated PGM pixel data"),
        (b"P5\n320 240", "truncated PGM header"),
        (b'{"lux": 80.0}', "not a binary PGM (P5) file")],
        ids=["pixels", "header", "json"])
    def test_truncated_pgm_400(self, http_server, tmp_path, pgm, reason):
        fields = {"region_id": "r1", "timestamp_ms": 1000, "lux": 80.0}
        status, doc = put_pgm(f"{http_server}/v1/sensors/s1/readings", fields,
                              pgm)
        assert (status, doc) == (400, {"error": f"bad image payload: {reason}"})
        assert not (tmp_path / "region_r1.jsonl").exists()

    def test_oversized_pgm_413_and_closed(self, http_server):
        pgm = SyntheticImage(np.zeros((1024, 1024), np.uint8)).to_pgm()
        assert len(pgm) > MAX_BODY_BYTES
        # only the head is sent: the server must answer without the body
        status, _ = raw_request(
            http_server, b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
            b"Content-Type: %s\r\n%s: {}\r\nContent-Length: %d\r\n\r\n"
            % (PGM_MEDIA_TYPE.encode(), READING_HEADER.encode(), len(pgm)),
            expect_close=True)
        assert status == 413

    def test_expect_100_continue_pgm_reading(self, http_server):
        host, port = http_server.removeprefix("http://").split(":")
        pgm = frame().to_pgm()
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Type: %s\r\n"
                         b'%s: {"region_id": "r1", "timestamp_ms": 1000}\r\n'
                         b"Content-Length: %d\r\n\r\n"
                         % (PGM_MEDIA_TYPE.encode(), READING_HEADER.encode(),
                            len(pgm)))
            replies = sock.makefile("rb")
            assert replies.readline().split()[1] == b"100"
            assert replies.readline() == b"\r\n"
            sock.sendall(pgm)
            status, doc = read_response(replies)
        assert status == 200
        assert doc["timestamp_ms"] == 1000 and doc["metrics"]["corner_count"] > 0


HEALTH = b"GET /v1/health HTTP/1.1\r\n"
# (raw request, status): each request ends where the server stops reading
# it, so no unread byte turns the server's close into a reset
BEFORE_ROUTING = {
    # exactly one byte over the line limit, without a line end
    "request-line-over-64k": (b"GET /" + b"a" * 65532, 414),
    "header-line-over-64k": (HEALTH + b"X: " + b"a" * 65534, 431),
    "101-headers": (HEALTH + b"".join(b"X-%d: 1\r\n" % i for i in range(101)),
                    431),
    "unknown-method": (b"BREW /v1/health HTTP/1.1\r\n\r\n", 501),
    "lowercase-method": (b"get /v1/health HTTP/1.1\r\n\r\n", 501),
    "http-1.0": (b"GET /v1/health HTTP/1.0\r\n\r\n", 200),
    "connection-close": (HEALTH + b"Connection: close\r\n\r\n", 200),
    # http.server answered these four without a status line, served the
    # second as a bare body, and took the fourth as a valid request
    "one-word": (b"HELLO\r\n", 400),
    "http-0.9": (b"GET /v1/health\r\n", 400),
    "http-2.0": (b"GET /v1/health HTTP/2.0\r\n\r\n", 505),
    "header-without-colon": (HEALTH + b"NoColon\r\n\r\n", 400),
}
REFUSALS = {name: request for name, (request, status) in BEFORE_ROUTING.items()
            if status >= 400}


def closing_reply(base_url, request: bytes):
    """(status, body bytes) of the one reply to request, sent as it is;
    checks that it has a status line and that the server then closes."""
    host, port = base_url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock, \
            sock.makefile("rb") as replies:
        sock.sendall(request)
        status_line = replies.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line[:80]
        length = 0
        while (line := replies.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        body = replies.read(length)
        assert replies.read(1) == b"", "connection left open"
    return int(status_line.split()[1]), body


class TestBeforeRouting:
    @pytest.mark.parametrize("request_bytes, status", BEFORE_ROUTING.values(),
                             ids=BEFORE_ROUTING.keys())
    def test_answered_then_closed(self, http_server, request_bytes, status):
        assert closing_reply(http_server, request_bytes)[0] == status

    @pytest.mark.parametrize("request_bytes", REFUSALS.values(),
                             ids=REFUSALS.keys())
    def test_a_refusal_is_a_json_error(self, http_server, request_bytes):
        # http.server's refusals were HTML pages
        doc = json.loads(closing_reply(http_server, request_bytes)[1])
        assert list(doc) == ["error"] and isinstance(doc["error"], str)


READ_DEADLINE_S = 0.5


@pytest.fixture
def deadline_server(service, monkeypatch):
    monkeypatch.setattr(httpapi, "READ_TIMEOUT_S", READ_DEADLINE_S)
    yield from serving(service)


class TestReadDeadline:
    """Each read of a connection waits at most httpapi.READ_TIMEOUT_S,
    patched to READ_DEADLINE_S here; meanwhile other clients are served."""

    @staticmethod
    @contextmanager
    def stalled(base_url, request: bytes):
        """Send request and stall; checks that a second client is served
        meanwhile, and yields the first's reply stream."""
        host, port = base_url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock, \
                sock.makefile("rb") as replies:
            sock.sendall(request)
            if request.endswith(b"\r\n\r\n"):   # a whole request: its reply
                assert read_response(replies)[0] == 200
            assert http("GET", f"{base_url}/v1/health")[0] == 200
            sock.setblocking(False)
            with pytest.raises(BlockingIOError):
                sock.recv(1)                        # still open
            sock.settimeout(10)
            yield replies

    @pytest.mark.parametrize("request_bytes", [
        b"GET /v1/health HTTP/1.1\r\n\r\n", b"GET /v1/hea"],
        ids=["idle-keep-alive", "mid-line"])
    def test_a_stalled_connection_is_closed_without_a_reply(
            self, deadline_server, request_bytes):
        # kills a handler without a timeout, whose read waits forever
        with self.stalled(deadline_server, request_bytes) as replies:
            assert replies.read(1) == b""

    def test_a_stalled_body_gets_408_and_is_closed(self, deadline_server,
                                                  tmp_path):
        # kills the timeout alone: the stalled body read then falls into
        # the handler's catch-all, which answers 500 and keeps the
        # connection open
        body = json.dumps({"region_id": "r1", "timestamp_ms": 1000,
                           "lux": 80.0}).encode()
        with self.stalled(
                deadline_server, b"PUT /v1/sensors/s1/readings HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body[:5])
        ) as replies:
            status, doc = read_response(replies)
            assert status == 408 and "not read within" in doc["error"]
            assert replies.read(1) == b""
        assert not (tmp_path / "region_r1.jsonl").exists()


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


# reading-shaped objects reach validation, ingest and the policy step; an
# image key is not one a reading has
READING_FIELDS = st.fixed_dictionaries(
    {"region_id": st.just("r1") | JSON_VALUES,
     "timestamp_ms": st.integers() | JSON_VALUES,
     "lux": st.floats(min_value=0) | JSON_VALUES},
    optional={"image": JSON_VALUES, "image_pgm_b64": JSON_VALUES})


def serve_r1(data_dir):
    """A running server over a service with region r1 and actuator bulb1."""
    svc = EdgeService(data_dir)
    svc.register_region(RegionConfig("r1", bulb_actuator="bulb1"))
    svc.register_actuator("bulb1", lambda cmd: None)
    server = make_server(svc)
    Thread(target=server.serve_forever,
           kwargs={"poll_interval": SERVE_POLL_S}, daemon=True).start()
    return server


class TestIngestProperty:
    def test_no_body_gives_5xx_or_poisons_the_log(self, tmp_path):
        server = serve_r1(tmp_path)

        @settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
        @given(JSON_VALUES | READING_FIELDS)
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

    def test_no_pgm_body_gives_5xx_and_only_a_stored_one_is_logged(
            self, tmp_path):
        """Arbitrary PGM-ish bodies with arbitrary reading headers, mixed
        with JSON bodies into one region: no PUT and no trend query after it
        gets a 5xx, and only a reading answered 200 reaches the log."""
        server = serve_r1(tmp_path)
        pgm = render_region(Region("r", TextureSpec("checkerboard", cell=8),
                                   300.0), 1, 48, 48).to_pgm()
        bodies = (st.just(pgm) | st.binary(max_size=64)
                  | st.integers(0, len(pgm) - 1).map(lambda n: pgm[:n])
                  | st.builds(lambda w, h, rest: b"P5\n%d %d\n255\n" % (w, h)
                              + rest, st.integers(-1, 2 ** 40),
                              st.integers(-1, 2 ** 40), st.binary(max_size=64)))
        # a header value is latin-1 without line breaks
        headers = (st.none() | st.text(st.characters(min_codepoint=32,
                                                     max_codepoint=255))
                   | (JSON_VALUES | READING_FIELDS).map(json.dumps))

        def pgm_put(body, header):
            sent = {"Content-Type": PGM_MEDIA_TYPE}
            if header is not None:
                sent[READING_HEADER] = header
            return body, sent

        # (body, headers) of a PUT: a PGM reading or a JSON (lux-only) one
        puts = (st.builds(pgm_put, bodies, headers)
                | (JSON_VALUES | READING_FIELDS).map(
                    lambda doc: (json.dumps(doc).encode(), {})))
        stored = []     # (reply, whether the body was a PGM) of each 200
        first = {"region_id": "r1", "timestamp_ms": 1}

        # an image reading, then a lux-only one that carries its metrics
        @settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
        @given(puts)
        @example(pgm_put(pgm, json.dumps(first)))
        @example((json.dumps({**first, "timestamp_ms": 2, "lux": 90.0}).encode(),
                  {}))
        def put(request):
            body, sent = request
            conn = HTTPConnection("127.0.0.1", server.server_port, timeout=10)
            try:
                conn.request("PUT", "/v1/sensors/s/readings", body, sent)
                resp = conn.getresponse()
                assert resp.status < 500
                reply = json.loads(resp.read())
                if resp.status == 200:
                    stored.append((reply, bool(sent)))
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
        assert len(lines) == len(stored)
        for line, (ack, image) in zip(lines, stored):
            entry = json.loads(line, parse_constant=_reject_constant)
            assert entry == {**ack, "sensor_id": "s", "image": image}
        assert [image for _, image in stored[:2]] == [True, False]


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
        Thread(target=server.serve_forever,
               kwargs={"poll_interval": SERVE_POLL_S}, daemon=True).start()

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


def _answer(call, *args):
    """What a caller sees: the reply's JSON or the type of the error."""
    try:
        return encode(call(*args))
    except (InvalidArgumentError, NotFoundError, StaleReadingError) as e:
        return type(e).__name__


class TestRestartProperty:
    def test_restarted_service_answers_as_its_twin(self):
        """A service restarted at any point answers every reading and query
        as a twin that never restarted."""
        images = [TINY.pixels] + [
            render_region(Region("r", texture, lux), seed, 64, 64).pixels
            for texture, lux, seed in [
                (TextureSpec("checkerboard", cell=8), 80.0, 1),
                (TextureSpec("checkerboard", cell=8), 300.0, 2),
                (TextureSpec("flat", value=0.6), 120.0, 3),
                (TextureSpec("speckle", frequency=0.5), 600.0, 4)]]
        # image 0 is too small; timestamps repeat, so some readings are stale
        luxes = st.sampled_from([40.0, 250.0, 900.0])
        picks = st.integers(0, len(images) - 1)
        readings = st.tuples(
            st.sampled_from(["s1", "s2"]), st.integers(1, 8),
            st.tuples(luxes, st.none()) | st.tuples(st.none(), picks)
            | st.tuples(luxes, picks))

        @settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
        @given(st.lists(st.just("restart") | readings, max_size=12))
        def run(steps):
            with tempfile.TemporaryDirectory() as live_dir, \
                    tempfile.TemporaryDirectory() as twin_dir:
                live, twin = restarted(live_dir), restarted(twin_dir)
                for step in steps:
                    if step == "restart":
                        live = restarted(live_dir)
                    else:
                        sensor, second, (lux, pick) = step
                        sent = SensorReading(
                            sensor, "r1", 1000 * second, lux,
                            None if pick is None else images[pick])
                        assert (_answer(live.ingest_reading, sent)
                                == _answer(twin.ingest_reading, sent)), step
                    for query, *args in [(EdgeService.get_latest_metrics,),
                                         (EdgeService.get_trend, 60.0),
                                         (EdgeService.get_trend, 2.5)]:
                        assert (_answer(query, live, "r1", *args)
                                == _answer(query, twin, "r1", *args))

        run()
