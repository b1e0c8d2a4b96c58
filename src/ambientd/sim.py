"""Deterministic discrete-event scenario runner.

Wires synthetic sensors, actuators and the edge service together on a virtual
clock. In-process transport is single-threaded and byte-reproducible; the
real-http transport drives the same edge service through a local HTTP server.

A scenario file parses into a `Scenario`; a key left out of the file keeps
the dataclass default, and the `policy` object becomes one
`policy.PolicyConfig` shared by every region's `RegionConfig`.
"""
from __future__ import annotations

import csv
import hashlib
import heapq
import json
import tempfile
import threading
import urllib.request
from base64 import b64encode
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import policy
from .edge import ActuatorCommand, EdgeService, RegionConfig, SensorReading
from .errors import ConfigError, InvalidArgumentError
from .markerpipe import DEFAULT_MATCH_FAST_THRESHOLD, match_marker
from .policy import PolicyConfig
from .scene import (DEFAULT_BULB_LATENCY_S, DEFAULT_EINK_LATENCY_S,
                    DEFAULT_LUX_CURVE, NOISE_SIGMA0, SENSOR_NOISE_FRACTION,
                    EnvironmentState, LuxCurve, MarkerPlacement, MarkerSpec,
                    Region, TextureSpec, apply_bulb_command, read_light_sensor,
                    render_region)

CANONICAL_W = 320
CANONICAL_H = 240
DEFAULT_SENSOR_PERIOD_S = 5.0
DEFAULT_SWEEP_TRIALS = 20
SWEEP_BACKGROUND = TextureSpec("flat", value=0.6)


def stable_seed(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def default_sweep_lux_levels(n: int = 9) -> List[float]:
    return [float(round(v, 1)) for v in np.geomspace(50.0, 1000.0, n)]


# -- scenario ------------------------------------------------------------


@dataclass
class RegionScenario:
    id: str
    texture: TextureSpec
    illuminance: float
    mode: str = "markerless"
    marker: Optional[MarkerPlacement] = None
    max_lux: Optional[float] = None
    constraints: List[policy.ControlConstraint] = field(default_factory=list)


@dataclass
class Scenario:
    regions: List[RegionScenario]
    duration_s: float = 60.0
    sensor_period_s: float = DEFAULT_SENSOR_PERIOD_S
    bulb_latency_s: float = DEFAULT_BULB_LATENCY_S
    eink_latency_s: float = DEFAULT_EINK_LATENCY_S
    lux_curve_points: List[Tuple[float, float]] = field(
        default_factory=lambda: list(DEFAULT_LUX_CURVE.points))
    policy: PolicyConfig = PolicyConfig()
    marker_fast_threshold: int = DEFAULT_MATCH_FAST_THRESHOLD
    sensor_noise_fraction: float = SENSOR_NOISE_FRACTION
    camera_sigma0: float = NOISE_SIGMA0
    trajectory: List[dict] = field(default_factory=list)
    seed: int = 0

    def validate(self) -> None:
        if self.sensor_period_s <= 0:
            raise ConfigError("sensor_period_s must be > 0")
        if self.duration_s < self.sensor_period_s:
            raise ConfigError("duration_s must be >= sensor_period_s")
        if not self.regions:
            raise ConfigError("scenario needs at least one region")
        ids = [r.id for r in self.regions]
        if len(ids) != len(set(ids)):
            raise ConfigError("region ids must be unique")
        for event in self.trajectory:
            if event.get("region") not in ids:
                raise ConfigError(
                    f"trajectory references unknown region {event.get('region')!r}")
        if self.bulb_latency_s < 0 or self.eink_latency_s < 0:
            raise ConfigError("bulb_latency_s and eink_latency_s must be >= 0")
        try:
            LuxCurve(self.lux_curve_points)
        except InvalidArgumentError as e:
            raise ConfigError(f"lux_curve: {e}")

    def environment(self) -> EnvironmentState:
        """The simulated world at t=0: one region per scenario region.

        Marker placements are copied, so a run that moves or updates a
        marker leaves the scenario as it was.
        """
        return EnvironmentState(
            regions={r.id: Region(r.id, r.texture, r.illuminance,
                                  marker=replace(r.marker) if r.marker else None,
                                  max_lux=r.max_lux)
                     for r in self.regions},
            lux_curve=LuxCurve(self.lux_curve_points))

    def region_configs(self) -> List[RegionConfig]:
        """Edge-service config per region, without actuator ids."""
        curve = LuxCurve(self.lux_curve_points)
        return [RegionConfig(
                    region_id=r.id,
                    mode=r.mode,
                    curve=curve,
                    policy=self.policy,
                    marker_fast_threshold=self.marker_fast_threshold,
                    initial_marker=(r.marker.spec if r.marker else None),
                    constraints=r.constraints)
                for r in self.regions]


def _texture_from_json(doc: dict, where: str) -> TextureSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{where}.texture must be an object with 'kind'")
    kwargs = {}
    for key in ("value", "low", "high", "frequency"):
        if key in doc:
            kwargs[key] = float(doc[key])
    for key in ("cell", "texture_seed"):
        if key in doc:
            kwargs[key] = int(doc[key])
    try:
        return TextureSpec(doc["kind"], **kwargs)
    except InvalidArgumentError as e:
        raise ConfigError(f"{where}.texture: {e}")


def _present(doc: dict, converters: dict) -> dict:
    """The keys of doc that converters names, converted; an absent key is
    left out so the dataclass default applies."""
    return {key: convert(doc[key]) for key, convert in converters.items()
            if key in doc}


def scenario_from_json(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    if "regions" not in doc or not isinstance(doc["regions"], list):
        raise ConfigError("scenario.regions must be a list")
    regions = []
    for i, r in enumerate(doc["regions"]):
        where = f"regions[{i}]"
        if "id" not in r:
            raise ConfigError(f"{where}.id is required")
        marker = None
        if r.get("marker") is not None:
            m = r["marker"]
            try:
                marker = MarkerPlacement(
                    MarkerSpec(m["pattern"], int(m.get("size_index", 0))),
                    **_present(m, {"distance_cm": float,
                                   "viewing_angle_deg": float}))
            except (KeyError, TypeError, ValueError, InvalidArgumentError) as e:
                raise ConfigError(f"{where}.marker: {e}")
        constraints = []
        for j, c in enumerate(r.get("constraints", [])):
            try:
                constraints.append(policy.ControlConstraint(
                    c.get("source", f"constraint-{j}"),
                    float(c["range"][0]), float(c["range"][1]),
                    float(c["preferred"]), int(c.get("priority", 0))))
            except (KeyError, TypeError, ValueError, IndexError,
                    InvalidArgumentError) as e:
                raise ConfigError(f"{where}.constraints[{j}]: {e}")
        try:
            illuminance = float(r["illuminance"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{where}.illuminance is required")
        mode = r.get("mode", "markerless")
        if mode not in ("markerless", "marker"):
            raise ConfigError(f"{where}.mode must be markerless or marker")
        if mode == "marker" and marker is None:
            raise ConfigError(f"{where}: marker mode requires a marker placement")
        regions.append(RegionScenario(
            id=str(r["id"]),
            texture=_texture_from_json(r.get("texture", {"kind": "flat"}), where),
            illuminance=illuminance,
            mode=mode,
            marker=marker,
            max_lux=(float(r["max_lux"]) if r.get("max_lux") is not None else None),
            constraints=constraints))
    pol = doc.get("policy", {})
    if not isinstance(pol, dict):
        raise ConfigError("policy must be an object")
    try:
        # each setting's type is the type of its default
        config = PolicyConfig(**_present(pol, {
            f.name: type(f.default) for f in fields(PolicyConfig)}))
    except (TypeError, ValueError, InvalidArgumentError) as e:
        raise ConfigError(f"policy: {e}")
    try:
        kwargs = _present(doc, {"duration_s": float, "sensor_period_s": float,
                                "bulb_latency_s": float, "eink_latency_s": float,
                                "sensor_noise_fraction": float,
                                "camera_sigma0": float, "trajectory": list,
                                "seed": int})
        kwargs.update(_present(pol, {"marker_fast_threshold": int}))
        if "lux_curve" in doc:
            kwargs["lux_curve_points"] = [(float(c), float(l))
                                          for c, l in doc["lux_curve"]]
        scenario = Scenario(regions=regions, policy=config, **kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad scenario field: {e}")
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"scenario file is not valid JSON: {e}")
    return scenario_from_json(doc)


# -- event queue ---------------------------------------------------------


class _EventQueue:
    def __init__(self):
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self.now_ms = 0

    def schedule(self, t_ms: int, fn: Callable[[], None]) -> None:
        if t_ms < self.now_ms:
            raise InvalidArgumentError("cannot schedule into the past")
        heapq.heappush(self._heap, (t_ms, self._seq, fn))
        self._seq += 1

    def run_until(self, end_ms: int) -> None:
        while self._heap and self._heap[0][0] <= end_ms:
            t_ms, _, fn = heapq.heappop(self._heap)
            self.now_ms = t_ms
            fn()
        self.now_ms = end_ms


# -- actuator nodes ------------------------------------------------------


class _BulbNode:
    def __init__(self, sim: "Simulator", region_id: str, latency_s: float):
        self.sim = sim
        self.region_id = region_id
        self.latency_ms = int(round(latency_s * 1000))

    def accept(self, cmd: ActuatorCommand) -> None:
        sim = self.sim
        command = float(cmd.payload)
        sim.log(f"bulb/{self.region_id}", "command-accepted",
                {"command": command})
        def apply():
            apply_bulb_command(sim.env, self.region_id, command)
            sim.log(f"bulb/{self.region_id}", "applied",
                    {"command": command,
                     "lux": sim.env.region(self.region_id).illuminance})
        sim.queue.schedule(sim.queue.now_ms + self.latency_ms, apply)


class _EInkNode:
    def __init__(self, sim: "Simulator", region_id: str, latency_s: float,
                 displayed: MarkerSpec):
        self.sim = sim
        self.region_id = region_id
        self.latency_ms = int(round(latency_s * 1000))
        self.displayed = displayed
        self._version = 0

    def accept(self, cmd: ActuatorCommand) -> None:
        sim = self.sim
        spec: MarkerSpec = cmd.payload
        if spec == self.displayed:
            sim.log(f"eink/{self.region_id}", "command-noop",
                    {"pattern": spec.pattern, "size_index": spec.size_index})
            return
        self._version += 1
        version = self._version
        sim.log(f"eink/{self.region_id}", "command-accepted",
                {"pattern": spec.pattern, "size_index": spec.size_index})
        def apply():
            if version != self._version:  # superseded by a later command
                return
            self.displayed = spec
            region = sim.env.region(self.region_id)
            if region.marker is not None:
                region.marker.spec = spec
            sim.log(f"eink/{self.region_id}", "visible-change",
                    {"pattern": spec.pattern, "size_index": spec.size_index})
        sim.queue.schedule(sim.queue.now_ms + self.latency_ms, apply)


# -- transports ----------------------------------------------------------


class InProcessTransport:
    def __init__(self, service: EdgeService):
        self.service = service

    def put_reading(self, sensor_id: str, body: dict) -> None:
        self.service.ingest_reading(SensorReading(
            sensor_id=sensor_id,
            region_id=body["region_id"],
            timestamp_ms=body["timestamp_ms"],
            lux=body.get("lux"),
            image_pgm_b64=body.get("image_pgm_b64")))

    def close(self):
        pass


class HttpTransport:
    """Drives a local HTTP server wrapping the same edge service."""

    def __init__(self, service: EdgeService, host: str = "127.0.0.1"):
        from .httpapi import make_server
        self.server = make_server(service, host, 0)
        self.base_url = f"http://{host}:{self.server.server_address[1]}"
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True)
        self._thread.start()

    def put_reading(self, sensor_id: str, body: dict) -> None:
        req = urllib.request.Request(
            f"{self.base_url}/v1/sensors/{sensor_id}/readings",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="PUT")
        with urllib.request.urlopen(req, timeout=30) as resp:
            resp.read()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)


# -- simulator -----------------------------------------------------------


class Simulator:
    def __init__(self, scenario: Scenario, transport: str = "in-process",
                 data_dir=None):
        scenario.validate()
        self.scenario = scenario
        self.queue = _EventQueue()
        self.event_log: List[dict] = []
        self.env = scenario.environment()
        self._tmpdir = None
        if data_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="ambientd-sim-")
            data_dir = self._tmpdir.name
        self.service = EdgeService(data_dir)
        self._lux_readings: Dict[str, List[Tuple[int, float]]] = {}
        self._cycles: Dict[str, int] = {}
        for r, config in zip(scenario.regions, scenario.region_configs()):
            bulb_id = f"bulb:{r.id}"
            eink_id = f"eink:{r.id}"
            self.service.register_region(replace(
                config, bulb_actuator=bulb_id, eink_actuator=eink_id))
            bulb = _BulbNode(self, r.id, scenario.bulb_latency_s)
            self.service.register_actuator(bulb_id, bulb.accept)
            if r.marker is not None:
                eink = _EInkNode(self, r.id, scenario.eink_latency_s,
                                 r.marker.spec)
                self.service.register_actuator(eink_id, eink.accept)
            self._lux_readings[r.id] = []
            self._cycles[r.id] = 0
        self._satisfied_cycle: Dict[str, Optional[int]] = {
            r.id: None for r in scenario.regions}
        if transport == "in-process":
            self.transport = InProcessTransport(self.service)
        elif transport == "real-http":
            self.transport = HttpTransport(self.service)
        else:
            raise ConfigError(f"unknown transport {transport!r}")

    def log(self, node: str, kind: str, payload: dict) -> None:
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
        self.event_log.append({"t_ms": self.queue.now_ms, "node": node,
                               "kind": kind, "digest": digest})

    def _sensor_tick(self, region_id: str) -> None:
        scenario = self.scenario
        region = self.env.region(region_id)
        t_ms = self.queue.now_ms
        lux = read_light_sensor(
            region, stable_seed(scenario.seed, "lux", region_id, t_ms),
            noise_fraction=scenario.sensor_noise_fraction)
        image = render_region(
            region, stable_seed(scenario.seed, "cam", region_id, t_ms),
            CANONICAL_W, CANONICAL_H, sigma0=scenario.camera_sigma0)
        body = {"region_id": region_id, "timestamp_ms": t_ms, "lux": lux,
                "image_pgm_b64": b64encode(image.to_pgm()).decode("ascii")}
        self.log(f"sensor/{region_id}", "reading",
                 {"lux": lux, "image_sha": hashlib.sha256(
                     image.pixels.tobytes()).hexdigest()})
        self._lux_readings[region_id].append((t_ms, lux))
        self._cycles[region_id] += 1
        self.transport.put_reading(f"sensor:{region_id}", body)
        if (self._satisfied_cycle[region_id] is None
                and self.service.marker_phase(region_id) == "Satisfied"):
            self._satisfied_cycle[region_id] = self._cycles[region_id]

    def run(self) -> Tuple[List[dict], dict]:
        scenario = self.scenario
        period_ms = int(round(scenario.sensor_period_s * 1000))
        duration_ms = int(round(scenario.duration_s * 1000))
        for event in scenario.trajectory:
            t_ms = int(round(float(event.get("t_s", 0.0)) * 1000))
            region_id = event["region"]
            def make_apply(region_id=region_id, event=event):
                def apply():
                    region = self.env.region(region_id)
                    if region.marker is None:
                        return
                    if "distance_cm" in event:
                        region.marker.distance_cm = float(event["distance_cm"])
                    if "angle_deg" in event:
                        region.marker.viewing_angle_deg = float(event["angle_deg"])
                    self.log(f"trajectory/{region_id}", "pose",
                             {"distance_cm": region.marker.distance_cm,
                              "angle_deg": region.marker.viewing_angle_deg})
                return apply
            self.queue.schedule(t_ms, make_apply())
        for r in scenario.regions:
            for t_ms in range(0, duration_ms + 1, period_ms):
                self.queue.schedule(
                    t_ms, lambda rid=r.id: self._sensor_tick(rid))
        try:
            self.queue.run_until(duration_ms)
        finally:
            self.transport.close()
        return self.event_log, self._final_report()

    def _final_report(self) -> dict:
        scenario = self.scenario
        regions = {}
        for r in scenario.regions:
            runtime = self.service._runtime(r.id)
            reads = self._lux_readings[r.id]
            tail = [lux for _, lux in reads[-3:]]
            optimal = runtime.optimal_lux
            deadband = scenario.policy.deadband_fraction * optimal
            converged = (len(tail) == 3
                         and all(abs(v - optimal) <= deadband for v in tail))
            commands = self.service.region_commands(r.id)
            regions[r.id] = {
                "final_lux": self.env.region(r.id).illuminance,
                "converged_lux": (sum(tail) / len(tail)) if tail else None,
                "optimal_lux": optimal,
                "converged": converged,
                "observation_cycles": self._cycles[r.id],
                "bulb_commands": sum(1 for c in commands
                                     if c.kind == "set-brightness"),
                "eink_commands": sum(1 for c in commands
                                     if c.kind == "set-marker"),
                "marker_phase": self.service.marker_phase(r.id),
                "satisfied_after_cycles": self._satisfied_cycle[r.id],
                "last_match_percentage": (
                    runtime.last_match.percentage
                    if runtime.last_match is not None else None),
                "bulb_command_series": [float(c.payload) for c in commands
                                        if c.kind == "set-brightness"],
            }
        return {"seed": scenario.seed, "duration_s": scenario.duration_s,
                "transport_note": "virtual-time", "regions": regions}


def run_scenario(scenario: Scenario, transport: str = "in-process",
                 out_dir=None) -> Tuple[List[dict], dict]:
    data_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        data_dir = out_dir / "data"
    sim = Simulator(scenario, transport, data_dir=data_dir)
    event_log, report = sim.run()
    if out_dir is not None:
        with (out_dir / "events.jsonl").open("w") as fh:
            for event in event_log:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        with (out_dir / "report.json").open("w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        _write_metrics_csv(sim, out_dir / "metrics.csv")
    return event_log, report


def _write_metrics_csv(sim: Simulator, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region_id", "timestamp_ms", "brightness", "contrast",
                         "edge_strength", "corner_count", "illuminance",
                         "texture_class", "scene_change"])
        for r in sim.scenario.regions:
            for rec in sim.service._runtime(r.id).records:
                writer.writerow([
                    rec.region_id, rec.timestamp_ms,
                    rec.metrics.brightness, rec.metrics.contrast,
                    rec.metrics.edge_strength, rec.metrics.corner_count,
                    rec.metrics.illuminance, rec.texture_class.value,
                    int(rec.scene_change)])


# -- calibration harness -------------------------------------------------


def run_calibration(scenario: Scenario, region_id: str,
                    steps: int = 11) -> LuxCurve:
    """Sweep the bulb over a region of the scenario and fit a curve."""
    env = scenario.environment()
    env.region(region_id)  # not-found check up front
    counter = {"n": 0}

    def set_brightness(command: float) -> None:
        apply_bulb_command(env, region_id, command)

    def read_lux() -> float:
        counter["n"] += 1
        return read_light_sensor(
            env.region(region_id),
            stable_seed(scenario.seed, "calib", region_id, counter["n"]),
            noise_fraction=scenario.sensor_noise_fraction)

    return policy.calibrate(set_brightness, read_lux, steps)


# -- marker sweep --------------------------------------------------------


def sweep_marker_grid(patterns=None, distances=None, angles=None,
                      lux_levels=None, trials: int = DEFAULT_SWEEP_TRIALS,
                      size_index: int = 0, seed: int = 0) -> List[dict]:
    """Open-loop grid of mean match percentages (controller disabled)."""
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    from .scene import MARKER_PATTERNS
    patterns = list(patterns or MARKER_PATTERNS)
    distances = list(distances or range(20, 91, 10))
    angles = list(angles or range(0, 61, 15))
    lux_levels = list(lux_levels or default_sweep_lux_levels())
    rows = []
    for pattern in patterns:
        for distance in distances:
            for angle in angles:
                for lux in lux_levels:
                    spec = MarkerSpec(pattern, size_index)
                    region = Region("sweep", SWEEP_BACKGROUND, float(lux),
                                    marker=MarkerPlacement(spec, float(distance),
                                                           float(angle)))
                    total = 0.0
                    for trial in range(trials):
                        image = render_region(
                            region,
                            stable_seed(seed, "sweep", pattern, distance,
                                        angle, lux, trial),
                            CANONICAL_W, CANONICAL_H)
                        total += match_marker(image, spec).percentage
                    rows.append({"pattern": pattern, "distance_cm": distance,
                                 "angle_deg": angle, "lux": lux,
                                 "trials": trials,
                                 "mean_match_percentage": total / trials})
    return rows


def write_sweep_csv(rows: List[dict], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "pattern", "distance_cm", "angle_deg", "lux", "trials",
            "mean_match_percentage"])
        writer.writeheader()
        writer.writerows(rows)
