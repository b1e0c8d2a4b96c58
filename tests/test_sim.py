import copy
import hashlib
import json
import urllib.error
import urllib.request
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambientd.edge import ActuatorCommand
from ambientd.errors import ConfigError
from ambientd.policy import PolicyConfig
from ambientd.scene import (MarkerPlacement, MarkerSpec, TextureSpec)
from ambientd.sim import (RegionScenario, Scenario, Simulator, TrajectoryEvent,
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


    def test_http_rejects_out_of_range_brightness(self):
        sim = Simulator(coarse_scenario(duration_s=10.0), transport="real-http")
        url = f"{sim.transport.base_url}/v1/actuators/bulb:r/commands"
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

    def test_default_lux_levels(self):
        levels = default_sweep_lux_levels()
        assert len(levels) == 9
        assert levels[0] == 50.0 and levels[-1] == 1000.0
        assert levels == sorted(levels)
