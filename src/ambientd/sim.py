"""Deterministic discrete-event scenario runner.

Wires synthetic sensors, actuators and the edge service together on a virtual
clock. In-process transport is single-threaded and byte-reproducible; the
real-http transport drives the same edge service through a local HTTP server.

A scenario file parses into a frozen `Scenario`. Each JSON value goes as it
is to the constructor of the type that owns it (`RegionScenario`,
`TrajectoryEvent`, `policy.PolicyConfig`, the scene types), which checks it
(checks.py): a scenario that exists is valid, and a bad value is a
`ConfigError` naming its entry before anything runs. A key left out of the
file keeps the dataclass default, and the `policy` object becomes one
`PolicyConfig` shared by every region's `RegionConfig`.
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
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import policy
from .checks import check_fields, integer, number
from .edge import ActuatorCommand, EdgeService, RegionConfig, SensorReading
from .errors import ConfigError, InvalidArgumentError
from .markerpipe import match_marker
from .policy import PolicyConfig
from .scene import (DEFAULT_BULB_LATENCY_S, DEFAULT_EINK_LATENCY_S,
                    DEFAULT_LUX_CURVE, MAX_VIEWING_ANGLE_DEG,
                    MIN_MARKER_DISTANCE_CM, NOISE_SIGMA0, SENSOR_NOISE_FRACTION,
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

# Scenario times become whole milliseconds on the 64-bit clock of readings.
MAX_SCENARIO_S = 365 * 24 * 3600.0      # one year
MIN_SENSOR_PERIOD_S = 0.001             # one millisecond


@dataclass(frozen=True)
class RegionScenario:
    id: str
    texture: TextureSpec
    illuminance: float
    mode: str = "markerless"
    marker: Optional[MarkerPlacement] = None
    max_lux: Optional[float] = None
    constraints: Tuple[policy.ControlConstraint, ...] = ()

    def __post_init__(self):
        # the rules of the world's Region and of the edge's RegionConfig
        self.initial_region()
        RegionConfig(self.id, self.mode)
        if self.mode == "marker" and self.marker is None:
            raise InvalidArgumentError("marker mode requires a marker placement")
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def initial_region(self) -> Region:
        """This region of the simulated world at t=0."""
        return Region(self.id, self.texture, self.illuminance,
                      marker=self.marker, max_lux=self.max_lux)


@dataclass(frozen=True)
class TrajectoryEvent:
    """At t_s, moves the marker of a region; a pose value left None is kept."""
    region: str
    t_s: float = number(0.0, MAX_SCENARIO_S, 0.0)
    distance_cm: Optional[float] = number(MIN_MARKER_DISTANCE_CM, default=None,
                                          optional=True)
    angle_deg: Optional[float] = number(0.0, MAX_VIEWING_ANGLE_DEG, None,
                                        open_hi=True, optional=True)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Scenario:
    regions: Tuple[RegionScenario, ...]
    duration_s: float = number(MIN_SENSOR_PERIOD_S, MAX_SCENARIO_S, 60.0)
    sensor_period_s: float = number(MIN_SENSOR_PERIOD_S, MAX_SCENARIO_S,
                                    DEFAULT_SENSOR_PERIOD_S)
    bulb_latency_s: float = number(0.0, MAX_SCENARIO_S, DEFAULT_BULB_LATENCY_S)
    eink_latency_s: float = number(0.0, MAX_SCENARIO_S, DEFAULT_EINK_LATENCY_S)
    lux_curve: LuxCurve = DEFAULT_LUX_CURVE
    policy: PolicyConfig = PolicyConfig()
    # at most 1, so a read of the brightest region stays within edge.MAX_LUX
    sensor_noise_fraction: float = number(0.0, 1.0, SENSOR_NOISE_FRACTION)
    camera_sigma0: float = number(0.0, 255.0, NOISE_SIGMA0)
    trajectory: Tuple[TrajectoryEvent, ...] = ()
    seed: int = integer(default=0)

    def __post_init__(self):
        check_fields(self)
        if self.duration_s < self.sensor_period_s:
            raise InvalidArgumentError("duration_s must be >= sensor_period_s")
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "trajectory", tuple(self.trajectory))
        ids = [r.id for r in self.regions]
        if not ids:
            raise InvalidArgumentError("scenario needs at least one region")
        if len(ids) != len(set(ids)):
            raise InvalidArgumentError("region ids must be unique")
        for event in self.trajectory:
            if event.region not in ids:
                raise InvalidArgumentError(
                    f"trajectory references unknown region {event.region!r}")

    @property
    def marker_fast_threshold(self) -> int:
        return self.policy.marker_fast_threshold

    def environment(self) -> EnvironmentState:
        """The simulated world at t=0: one region per scenario region.

        Marker placements are frozen, so a run that moves or updates a
        marker leaves the scenario as it was.
        """
        return EnvironmentState(
            regions={r.id: r.initial_region() for r in self.regions},
            lux_curve=self.lux_curve)

    def region_configs(self) -> List[RegionConfig]:
        """Edge-service config per region, without actuator ids."""
        return [RegionConfig(
                    region_id=r.id,
                    mode=r.mode,
                    curve=self.lux_curve,
                    policy=self.policy,
                    initial_marker=(r.marker.spec if r.marker else None),
                    constraints=r.constraints)
                for r in self.regions]


_JSON_ERRORS = (InvalidArgumentError, TypeError, ValueError, KeyError,
                AttributeError, IndexError, OverflowError)


@contextmanager
def _entry(where: str):
    """Turns what a bad JSON value makes the constructors of one scenario
    entry raise into a ConfigError that names the entry."""
    try:
        yield
    except KeyError as e:
        raise ConfigError(f"{where}.{e.args[0]} is required") from None
    except _JSON_ERRORS as e:
        raise ConfigError(f"{where}: {e}") from None


def _build(cls, doc, **built):
    """cls from a JSON object: the built field values, and each other field
    as doc has it, but a JSON integer in a float field as a float. A field
    doc leaves out keeps its default."""
    if not isinstance(doc, dict):
        raise TypeError("must be a JSON object")
    for f in fields(cls):
        if f.name in doc and f.name not in built:
            value = doc[f.name]
            built[f.name] = (float(value) if type(value) is int
                             and "float" in str(f.type) else value)
        elif f.name not in built and f.default is MISSING:
            raise KeyError(f.name)
    return cls(**built)


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list")
    return value


def _region_from_json(doc, where: str) -> RegionScenario:
    with _entry(where):
        with _entry(f"{where}.texture"):
            texture = _build(TextureSpec, doc.get("texture", {"kind": "flat"}))
        marker = doc.get("marker")
        if marker is not None:
            with _entry(f"{where}.marker"):
                marker = _build(MarkerPlacement, marker,
                                spec=_build(MarkerSpec, marker))
        constraints = []
        for j, c in enumerate(_list(doc.get("constraints", []), "constraints")):
            with _entry(f"{where}.constraints[{j}]"):
                lo, hi = c["range"]
                constraints.append(policy.ControlConstraint(
                    c.get("source", f"constraint-{j}"), lo, hi, c["preferred"],
                    c.get("priority", 0)))
        return _build(RegionScenario, doc, texture=texture, marker=marker,
                      constraints=constraints)


def scenario_from_json(doc) -> Scenario:
    """The Scenario of a parsed scenario file. Each value goes as it is to
    the constructor that owns it; a value that breaks a rule raises a
    ConfigError naming its entry."""
    with _entry("scenario"):
        regions = [_region_from_json(r, f"regions[{i}]")
                   for i, r in enumerate(_list(doc["regions"], "regions"))]
        trajectory = []
        for k, e in enumerate(_list(doc.get("trajectory", []), "trajectory")):
            with _entry(f"trajectory[{k}]"):
                trajectory.append(_build(TrajectoryEvent, e))
        with _entry("policy"):
            config = _build(PolicyConfig, doc.get("policy", {}))
        with _entry("lux_curve"):
            curve = LuxCurve(doc.get("lux_curve", DEFAULT_LUX_CURVE.points))
        return _build(Scenario, doc, regions=regions, trajectory=trajectory,
                      policy=config, lux_curve=curve)


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
                region.marker = replace(region.marker, spec=spec)
            sim.log(f"eink/{self.region_id}", "visible-change",
                    {"pattern": spec.pattern, "size_index": spec.size_index})
        sim.queue.schedule(sim.queue.now_ms + self.latency_ms, apply)


# -- transports ----------------------------------------------------------


class InProcessTransport:
    def __init__(self, service: EdgeService):
        self.service = service

    def put_reading(self, sensor_id: str, body: dict) -> None:
        self.service.ingest_reading(SensorReading(sensor_id, **body))

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
            self.queue.schedule(int(round(event.t_s * 1000)),
                                lambda event=event: self._move_marker(event))
        for r in scenario.regions:
            for t_ms in range(0, duration_ms + 1, period_ms):
                self.queue.schedule(
                    t_ms, lambda rid=r.id: self._sensor_tick(rid))
        try:
            self.queue.run_until(duration_ms)
        finally:
            self.transport.close()
            if self._tmpdir is not None:
                self._tmpdir.cleanup()
        return self.event_log, self._final_report()

    def _move_marker(self, event: TrajectoryEvent) -> None:
        region = self.env.region(event.region)
        if region.marker is None:
            return
        pose = {"distance_cm": event.distance_cm,
                "viewing_angle_deg": event.angle_deg}
        region.marker = replace(region.marker, **{
            name: value for name, value in pose.items() if value is not None})
        self.log(f"trajectory/{event.region}", "pose",
                 {"distance_cm": region.marker.distance_cm,
                  "angle_deg": region.marker.viewing_angle_deg})

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
