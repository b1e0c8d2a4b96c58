import copy
import gc
import hashlib
import json
import time
import urllib.error
import urllib.request
from dataclasses import asdict, replace
from http.client import HTTPException
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambientd.checks import encode
from ambientd.edge import (ActuatorCommand, EdgeService, RegionConfig,
                           SensorReading)
from ambientd.errors import ConfigError, InvalidArgumentError
from ambientd.policy import PolicyConfig
from ambientd.scene import (MarkerPlacement, MarkerSpec, Region, TextureSpec,
                            render_region)
from ambientd.sim import (HttpTransport, InProcessTransport, RegionScenario,
                          Scenario, Simulator, TrajectoryEvent,
                          default_sweep_lux_levels, run_calibration,
                          run_scenario, scenario_from_json, stable_seed,
                          sweep_marker_grid)

COARSE = TextureSpec("checkerboard", cell=32, low=0.1, high=0.9)
FINE = TextureSpec("speckle", frequency=0.5)


def coarse_scenario(**kwargs):
    return Scenario(regions=[RegionScenario("r", COARSE, 80.0)],
                    duration_s=kwargs.pop("duration_s", 60.0), **kwargs)


def marker_scenario(distance=90.0, angle=0.0, lux=60.0, max_lux=None,
                    max_size_index=2, duration_s=60.0):
    placement = MarkerPlacement(MarkerSpec("binary-grid-A", 0), distance, angle)
    return Scenario(
        regions=[RegionScenario("m", TextureSpec("flat", value=0.6), lux,
                                mode="marker", marker=placement,
                                max_lux=max_lux)],
        duration_s=duration_s,
        policy=PolicyConfig(max_size_index=max_size_index))


class TestStableSeed:
    def test_deterministic_and_distinct(self):
        assert stable_seed(1, "a") == stable_seed(1, "a")
        assert stable_seed(1, "a") != stable_seed(1, "b")
        assert stable_seed(1, "a") != stable_seed(2, "a")


def readme_scenario() -> dict:
    """The JSON example under "## Scenario files" in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Scenario files\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def json_paths(node, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    if isinstance(node, (dict, list)):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from json_paths(node[key], path + (key,))


def replaced(doc, path, value):
    """A copy of doc with the value at path replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# 1e400 in a JSON file parses to inf, as does Infinity
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


class TestScenarioProperty:
    DOC = readme_scenario()

    @settings(max_examples=250, deadline=None, derandomize=True,
              database=None)
    @given(path=st.sampled_from(list(json_paths(DOC))), value=ANY_JSON)
    def test_parse_gives_a_runnable_scenario_or_config_error(self, path,
                                                            value):
        try:
            scenario = scenario_from_json(replaced(self.DOC, path, value))
        except ConfigError:
            return
        run_scenario(replace(scenario, duration_s=scenario.sensor_period_s))


class TestScenarioParsing:
    def test_readme_example_parses_and_runs(self):
        doc = readme_scenario()
        scenario = scenario_from_json(doc)
        assert asdict(scenario.policy) == doc["policy"]
        # the documented top-level and policy values are the defaults
        assert scenario == Scenario(regions=scenario.regions,
                                    trajectory=scenario.trajectory)
        _, report = run_scenario(replace(scenario, duration_s=10.0))
        assert sorted(report["regions"]) == sorted(r["id"] for r in doc["regions"])

    def base_doc(self):
        return {"regions": [{"id": "r", "illuminance": 80.0,
                             "texture": {"kind": "flat", "value": 0.5}}]}

    def test_round_trip(self):
        doc = self.base_doc()
        scenario = scenario_from_json(doc)
        assert scenario.regions[0].id == "r"
        assert scenario.regions[0].texture.kind == "flat"

    def test_region_without_texture_is_flat(self):
        # kills dropping the codec's absent value: a missing argument
        doc = self.base_doc()
        del doc["regions"][0]["texture"]
        assert scenario_from_json(doc).regions[0].texture == TextureSpec("flat")

    def test_missing_illuminance_names_field(self):
        doc = self.base_doc()
        del doc["regions"][0]["illuminance"]
        with pytest.raises(ConfigError, match=r"regions\[0\]\.illuminance"):
            scenario_from_json(doc)

    def test_bad_texture_names_field(self):
        doc = self.base_doc()
        doc["regions"][0]["texture"] = {"kind": "flat", "value": 9.0}
        with pytest.raises(ConfigError, match=r"regions\[0\]\.texture"):
            scenario_from_json(doc)

    def test_marker_mode_requires_placement(self):
        doc = self.base_doc()
        doc["regions"][0]["mode"] = "marker"
        with pytest.raises(ConfigError, match=r"regions\[0\]"):
            scenario_from_json(doc)

    def test_trajectory_region_checked(self):
        doc = self.base_doc()
        doc["trajectory"] = [{"t_s": 1.0, "region": "ghost",
                              "distance_cm": 40.0}]
        with pytest.raises(ConfigError, match="ghost"):
            scenario_from_json(doc)

    def test_trajectory_region_needs_a_marker_placement(self):
        # kills a parser that accepts the event, which the run then dropped
        # without a pose line
        doc = {"regions": [{"id": "r", "illuminance": 80}],
               "trajectory": [{"t_s": 1, "region": "r", "distance_cm": 60}]}
        with pytest.raises(ConfigError,
                           match="region 'r', which has no marker placement"):
            scenario_from_json(doc)
        # a markerless region with a placement keeps its movable marker
        doc["regions"][0]["marker"] = {"pattern": "binary-grid-A"}
        scenario = replace(scenario_from_json(doc), duration_s=1.0,
                           sensor_period_s=1.0)
        events, _ = run_scenario(scenario)
        assert [e["t_ms"] for e in events if e["kind"] == "pose"] == [1000]

    @pytest.mark.parametrize("points", [
        [[0, 100], [50, 40], [100, 1000]],
        [[0, 10]],
        [[0, 10], [0, 20], [100, 1000]],
        [[0, float("nan")], [100, 1000]],
    ], ids=["non-monotone", "single-point", "repeated-command", "nan"])
    def test_bad_lux_curve_names_field(self, points):
        doc = self.base_doc()
        doc["lux_curve"] = points
        with pytest.raises(ConfigError, match="lux_curve"):
            scenario_from_json(doc)

    def test_duplicate_region_ids(self):
        doc = self.base_doc()
        doc["regions"].append(dict(doc["regions"][0]))
        with pytest.raises(ConfigError, match="unique"):
            scenario_from_json(doc)


class TestClosedLoop:
    def test_coarse_region_converges(self):
        _, report = run_scenario(coarse_scenario())
        region = report["regions"]["r"]
        assert region["converged"]
        assert abs(region["converged_lux"] - 300.0) <= 30.0
        assert region["bulb_commands"] >= 1

    def test_fine_region_converges_high(self):
        scenario = Scenario(regions=[RegionScenario("r", FINE, 80.0)],
                            duration_s=60.0)
        _, report = run_scenario(scenario)
        region = report["regions"]["r"]
        assert region["converged"]
        assert abs(region["converged_lux"] - 750.0) <= 75.0

    def test_no_commands_after_convergence(self):
        sim = Simulator(coarse_scenario())
        sim.run()
        commands = sim.service.region_commands("r")
        assert commands
        # once the region converges the deadband keeps the bulb quiet
        assert max(c.issued_at_ms for c in commands) < 30_000

    def test_determinism_byte_identical(self, tmp_path):
        scenario = coarse_scenario()
        run_scenario(scenario, out_dir=tmp_path / "a")
        run_scenario(coarse_scenario(), out_dir=tmp_path / "b")
        for name in ("events.jsonl", "report.json", "metrics.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_rerun_of_one_scenario_is_identical(self):
        scenario = replace(marker_scenario(duration_s=20.0), sensor_period_s=1.0,
                           trajectory=[TrajectoryEvent("m", 7.0, 60.0)])
        first = run_scenario(scenario)
        assert first[1]["regions"]["m"]["eink_commands"] >= 1
        assert run_scenario(scenario) == first
        assert scenario.regions[0].marker == MarkerPlacement(
            MarkerSpec("binary-grid-A", 0), 90.0, 0.0)

    def test_bulb_latency_on_virtual_clock(self, tmp_path):
        events, _ = run_scenario(coarse_scenario())
        accepted = [e for e in events if e["kind"] == "command-accepted"
                    and e["node"] == "bulb/r"]
        applied = [e for e in events if e["kind"] == "applied"
                   and e["node"] == "bulb/r"]
        assert accepted and applied
        assert applied[0]["t_ms"] - accepted[0]["t_ms"] == 400

    def test_trajectory_event_applies(self):
        scenario = replace(marker_scenario(distance=20.0, duration_s=20.0),
                           trajectory=[TrajectoryEvent("m", 7.0, 90.0)])
        sim = Simulator(scenario)
        events, _ = sim.run()
        poses = [e for e in events if e["kind"] == "pose"]
        assert len(poses) == 1 and poses[0]["t_ms"] == 7000
        assert sim.env.region("m").marker.distance_cm == 90.0


class TestMarkerLoop:
    def test_distant_dim_marker_satisfied(self):
        _, report = run_scenario(marker_scenario())
        region = report["regions"]["m"]
        assert region["marker_phase"] == "Satisfied"
        assert region["satisfied_after_cycles"] is not None
        assert region["last_match_percentage"] >= 60.0
        assert region["bulb_commands"] >= 1

    def test_clamped_marker_exhausts(self):
        _, report = run_scenario(marker_scenario(max_lux=50.0,
                                                 max_size_index=0))
        region = report["regions"]["m"]
        assert region["marker_phase"] == "Exhausted"
        assert region["eink_commands"] <= 5

    def test_eink_supersede_single_visible_change(self, tmp_path):
        scenario = marker_scenario(duration_s=20.0)
        sim = Simulator(scenario, data_dir=tmp_path)   # never run
        accept = sim.service._actuators["eink:m"]
        accept(ActuatorCommand("eink:m", "set-marker",
                               MarkerSpec("binary-grid-B", 0)))
        accept(ActuatorCommand("eink:m", "set-marker",
                               MarkerSpec("image-uniform", 1)))
        sim.queue.run_until(3000)
        visible = [e for e in sim.event_log if e["kind"] == "visible-change"]
        assert len(visible) == 1
        assert sim.env.region("m").marker.spec == MarkerSpec("image-uniform", 1)

    def test_eink_noop_for_displayed_spec(self, tmp_path):
        scenario = marker_scenario(duration_s=20.0)
        sim = Simulator(scenario, data_dir=tmp_path)   # never run
        accept = sim.service._actuators["eink:m"]
        accept(ActuatorCommand("eink:m", "set-marker",
                               MarkerSpec("binary-grid-A", 0)))
        sim.queue.run_until(3000)
        kinds = [e["kind"] for e in sim.event_log]
        assert kinds == ["command-noop"]

    def test_eink_back_to_the_shown_spec_within_latency(self, tmp_path):
        # kills a no-op check against the spec the world shows, which logged
        # A as command-noop and left the pending B to show
        scenario = marker_scenario(duration_s=20.0)
        sim = Simulator(scenario, data_dir=tmp_path)   # never run
        shown = sim.env.region("m").marker.spec
        for spec in (MarkerSpec("binary-grid-B", 0), shown):
            sim.service.dispatch_command(
                ActuatorCommand("eink:m", "set-marker", spec))
        sim.queue.run_until(int(scenario.eink_latency_s * 1000) + 1000)
        kinds = [e["kind"] for e in sim.event_log]
        assert kinds == ["command-accepted", "command-accepted",
                         "visible-change"]
        assert sim.event_log[2]["digest"] == sim.event_log[1]["digest"]
        assert sim.env.region("m").marker.spec == shown

    def test_eink_same_spec_object_again_applies_once(self, tmp_path):
        # kills a supersede check by identity of the sent spec: the first A
        # still passed it, showed A before the last command's latency and
        # logged a second visible-change
        scenario = marker_scenario(duration_s=20.0)
        sim = Simulator(scenario, data_dir=tmp_path)   # never run
        a, b = MarkerSpec("image-uniform", 1), MarkerSpec("binary-grid-B", 0)
        latency_ms = int(scenario.eink_latency_s * 1000)
        for t_ms, spec in ((0, a), (100, b), (200, a)):
            sim.queue.run_until(t_ms)
            sim.service.dispatch_command(
                ActuatorCommand("eink:m", "set-marker", spec))
        sim.queue.run_until(200 + latency_ms + 1000)
        visible = [e for e in sim.event_log if e["kind"] == "visible-change"]
        assert [e["t_ms"] for e in visible] == [200 + latency_ms]
        assert sim.env.region("m").marker.spec == a


class TestGolden:
    # sha256 of the artifacts of the 3-region mix at seed 0; a change to any
    # layer that moves one byte of the event log or report shows here
    EVENTS_SHA256 = "abb4624eb897e08d5b72e9a3ecccf853a050ed990041cedd8767dfb46cc629ff"
    REPORT_SHA256 = "203b1218cfcdc395a1d8dc33854023cc2b15ce2ad4f893f9fe443c16f586d782"

    def test_mix3_artifacts_are_byte_identical(self, tmp_path):
        shelf = MarkerPlacement(MarkerSpec("binary-grid-A", 0), 90.0, 0.0)
        scenario = Scenario(regions=[
            RegionScenario("desk", TextureSpec("checkerboard", cell=32), 80.0),
            RegionScenario("wall", FINE, 80.0),
            RegionScenario("shelf", TextureSpec("flat", value=0.6), 60.0,
                           mode="marker", marker=shelf),
        ], duration_s=20.0, sensor_period_s=1.0, seed=0)
        run_scenario(scenario, out_dir=tmp_path)

        def digest(name):
            return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest("events.jsonl") == self.EVENTS_SHA256
        assert digest("report.json") == self.REPORT_SHA256


class TestTransports:
    def test_http_transport_matches_in_process(self, tmp_path):
        scenario = coarse_scenario(duration_s=30.0)
        events_a, report_a = run_scenario(scenario, transport="in-process")
        events_b, report_b = run_scenario(coarse_scenario(duration_s=30.0),
                                          transport="real-http")
        assert report_a == report_b
        assert events_a == events_b

    def test_a_two_argument_put_reading_wrapper_sees_every_reading(self):
        # the benchmark times each reading by replacing put_reading on the
        # transport with a wrapper of two positional arguments
        sim = Simulator(coarse_scenario(duration_s=10.0), transport="real-http")
        put, calls = sim.transport.put_reading, []

        def timed_put(sensor_id, body):
            calls.append(sensor_id)
            put(sensor_id, body)

        sim.transport.put_reading = timed_put
        events, report = sim.run()
        readings = [e for e in events if e["kind"] == "reading"]
        assert len(readings) == report["regions"]["r"]["observation_cycles"] > 1
        assert calls == ["sensor:r"] * len(readings)
        assert len(sim.service._runtime("r").records) == len(readings)
        assert (events, report) == run_scenario(coarse_scenario(duration_s=10.0))

    def test_transports_store_the_same_log_line(self, tmp_path):
        reading = SensorReading("s1", "r", 1000, 80.0, render_region(
            Region("r", COARSE, 80.0), 1, 320, 240).pixels)
        sent = encode(reading)
        logs = []
        for name, transport_type in (("in-process", InProcessTransport),
                                     ("real-http", HttpTransport)):
            service = EdgeService(tmp_path / name)
            service.register_region(RegionConfig("r"))
            transport = transport_type(service)
            try:
                transport.put_reading("s1", reading)
            finally:
                transport.close()
            logs.append(service.log_path("r").read_bytes())
        assert logs[0] == logs[1]
        assert json.loads(logs[0])["image"] is True
        assert encode(reading) == sent  # the transport leaves the reading alone

    def test_transports_agree_on_an_integer_lux(self, tmp_path):
        # a region built in Python may hold an int lux, which a reading sent
        # over HTTP decodes as a float; the in-process path must log it so too
        scenario = Scenario(regions=[RegionScenario("r", COARSE, 80)],
                            duration_s=10.0, sensor_noise_fraction=0.0)
        logs = []
        for transport in ("in-process", "real-http"):
            run_scenario(scenario, transport, out_dir=tmp_path / transport)
            logs.append((tmp_path / transport / "data" / "region_r.jsonl")
                        .read_bytes())
        assert logs[0] == logs[1]
        assert b'"illuminance": 80.0}' in logs[0]

    def test_http_transport_closes_at_once(self, tmp_path):
        # at serve_forever's default poll of 0.5 s, a close idled that long
        transport = HttpTransport(EdgeService(tmp_path))
        start = time.monotonic()
        transport.close()
        assert time.monotonic() - start < 0.25

    def test_unknown_transport_leaves_no_temporary_directory(self):
        # the data directory used to be made before the name was checked,
        # and the collector then cleaned it up with a ResourceWarning
        with pytest.raises(ConfigError, match="unknown transport"):
            Simulator(coarse_scenario(), transport="bogus")
        gc.collect()

    def test_real_http_run_opens_one_connection(self):
        sim = Simulator(coarse_scenario(duration_s=10.0), transport="real-http")
        server, accepted = sim.transport.server, []
        process = server.process_request
        server.process_request = lambda request, address: (
            accepted.append(address), process(request, address))
        sim.run()
        assert sim.event_log and len(accepted) == 1

    def test_refused_reading_ends_the_http_run(self):
        sim = Simulator(coarse_scenario(duration_s=10.0), transport="real-http")
        sim.service.ingest_reading(SensorReading("sensor:r", "r", 10 ** 9,
                                                 lux=80.0))
        with pytest.raises(HTTPException, match=r": 409 Conflict: .*not newer"):
            sim.run()

    def test_http_rejects_out_of_range_brightness(self):
        sim = Simulator(coarse_scenario(duration_s=10.0), transport="real-http")
        host, port = sim.transport.server.server_address[:2]
        url = f"http://{host}:{port}/v1/actuators/bulb:r/commands"
        brightness = '{"kind": "set-brightness", "payload": %s}'
        marker = ('{"kind": "set-marker", "payload": '
                  '{"pattern": "binary-grid-A", "size_index": %s}}')
        issued = '{"kind": "set-brightness", "payload": 50, "issued_at_ms": %s}'
        # 1e400 parses to inf, 1e30 is beyond 64 bits, and nothing is coerced
        bodies = ([brightness % v for v in ("150", "NaN", "-1")]
                  + [issued % v for v in ("1e400", "1e30", '"12"')]
                  + [marker % v for v in ("1e400", '"1"', "1.0")])
        for body in bodies:
            req = urllib.request.Request(
                url, method="POST", headers={"Content-Type": "application/json"},
                data=body.encode())
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400, body
            err.value.close()
        # the bulb node logs every command it is handed
        assert sim.event_log == []
        events, report = sim.run()
        want_events, want_report = run_scenario(coarse_scenario(duration_s=10.0))
        assert (events, report) == (want_events, want_report)

    def test_http_refuses_a_command_kind_the_actuator_does_not_take(self):
        # both were valid commands that the node failed on, a 500
        sim = Simulator(marker_scenario(duration_s=10.0), transport="real-http")
        host, port = sim.transport.server.server_address[:2]
        base = f"http://{host}:{port}/v1/actuators"
        sends = {"bulb:m": '{"kind": "set-marker", "payload": '
                           '{"pattern": "binary-grid-A", "size_index": 1}}',
                 "eink:m": '{"kind": "set-brightness", "payload": 40}'}
        for actuator, body in sends.items():
            req = urllib.request.Request(
                f"{base}/{actuator}/commands", method="POST",
                headers={"Content-Type": "application/json"},
                data=body.encode())
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400, actuator
            assert actuator in json.loads(err.value.read())["error"]
            err.value.close()
        assert sim.event_log == []
        assert sim.run() == run_scenario(marker_scenario(duration_s=10.0))


class TestCalibrationHarness:
    def test_recovers_environment_curve(self):
        scenario = coarse_scenario()
        curve = run_calibration(scenario, "r", steps=11)
        for command, want in ((0.0, 10.0), (50.0, 505.0), (100.0, 1000.0)):
            assert curve.lux_at(command) == pytest.approx(want, rel=0.05)

    def test_capped_region_not_reachable(self):
        scenario = Scenario(regions=[RegionScenario("r", COARSE, 80.0,
                                                    max_lux=400.0)],
                            duration_s=60.0)
        curve = run_calibration(scenario, "r", steps=11)
        _, reachable = curve.invert(750.0)
        assert not reachable


class TestSweep:
    def test_deterministic_and_shaped(self):
        kwargs = dict(patterns=["binary-grid-A"], distances=[20],
                      angles=[0], lux_levels=[50.0, 300.0], trials=1, seed=3)
        rows_a = sweep_marker_grid(**kwargs)
        rows_b = sweep_marker_grid(**kwargs)
        assert rows_a == rows_b
        assert len(rows_a) == 2
        by_lux = {r["lux"]: r["mean_match_percentage"] for r in rows_a}
        assert by_lux[300.0] > by_lux[50.0]

    def test_zero_trials_refused(self):
        # kills dropping the check: the first cell then divides by zero
        with pytest.raises(InvalidArgumentError, match="trials must be >= 1"):
            sweep_marker_grid(patterns=["binary-grid-A"], distances=[20],
                              angles=[0], lux_levels=[50.0], trials=0)

    def test_default_lux_levels(self):
        levels = default_sweep_lux_levels()
        assert len(levels) == 9
        assert levels[0] == 50.0 and levels[-1] == 1000.0
        assert levels == sorted(levels)
