"""Deterministic discrete-event scenario runner.

Wires synthetic sensors, actuators and the edge service together on a virtual
clock. Each sensor tick sends one `edge.SensorReading`: the in-process
transport hands it to the edge service, single-threaded and byte-reproducible;
the real-http transport PUTs it, its pixels as the PGM body, to a local HTTP
server in front of the same edge service.

A scenario file parses into a frozen `Scenario` by `checks.decode`: each
JSON value goes to the constructor of the type that owns it
(`RegionScenario`, `TrajectoryEvent`, `policy.PolicyConfig`,
`policy.ControlConstraint`, the scene types), which checks it. So a
scenario that exists is valid, and a bad value, a missing key or a key no
type has is a `ConfigError` naming its entry before anything runs. A key
left out of the file keeps the dataclass default, and the `policy` object
becomes one `PolicyConfig` shared by every region's `RegionConfig`.
`Scenario.region_configs()` builds those.
"""
from __future__ import annotations

import csv
import hashlib
import heapq
import json
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import policy
from .characterize import METRIC_NAMES
from .checks import Checked, decode, encode, integer, number, parse_json, wire
from .edge import ActuatorCommand, EdgeService, RegionConfig, SensorReading
from .errors import ConfigError, InvalidArgumentError
from .markerpipe import match_marker
from .policy import PolicyConfig
from .scene import (DEFAULT_BULB_LATENCY_S, DEFAULT_EINK_LATENCY_S,
                    DEFAULT_LUX_CURVE, MARKER_PATTERNS, MAX_VIEWING_ANGLE_DEG,
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


def default_sweep_lux_levels() -> List[float]:
    return [float(round(v, 1)) for v in np.geomspace(*policy.AR_TRACKING_LUX, 9)]


# -- scenario ------------------------------------------------------------

# Scenario times become whole milliseconds on the 64-bit clock of readings.
MAX_SCENARIO_S = 365 * 24 * 3600.0      # one year
MIN_SENSOR_PERIOD_S = 0.001             # one millisecond


@dataclass(frozen=True)
class RegionScenario:
    id: str
    texture: TextureSpec = wire(absent=TextureSpec("flat"))
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
class TrajectoryEvent(Checked):
    """At t_s, moves the marker of a region; a pose value left None is kept."""
    region: str
    t_s: float = number(0.0, MAX_SCENARIO_S, 0.0)
    distance_cm: Optional[float] = number(MIN_MARKER_DISTANCE_CM, default=None,
                                          optional=True)
    angle_deg: Optional[float] = number(0.0, MAX_VIEWING_ANGLE_DEG, None,
                                        open_hi=True, optional=True)


@dataclass(frozen=True)
class Scenario(Checked):
    regions: Tuple[RegionScenario, ...]
    duration_s: float = number(MIN_SENSOR_PERIOD_S, MAX_SCENARIO_S, 60.0)
    sensor_period_s: float = number(MIN_SENSOR_PERIOD_S, MAX_SCENARIO_S,
                                    DEFAULT_SENSOR_PERIOD_S)
    bulb_latency_s: float = number(0.0, MAX_SCENARIO_S, DEFAULT_BULB_LATENCY_S)
    eink_latency_s: float = number(0.0, MAX_SCENARIO_S, DEFAULT_EINK_LATENCY_S)
    lux_curve: LuxCurve = DEFAULT_LUX_CURVE
    policy: PolicyConfig = PolicyConfig()
    # at most 1, so a read of the brightest region stays within characterize.MAX_LUX
    sensor_noise_fraction: float = number(0.0, 1.0, SENSOR_NOISE_FRACTION)
    camera_sigma0: float = number(0.0, 255.0, NOISE_SIGMA0)
    trajectory: Tuple[TrajectoryEvent, ...] = ()
    seed: int = integer(default=0)

    def __post_init__(self):
        super().__post_init__()
        if self.duration_s < self.sensor_period_s:
            raise InvalidArgumentError("duration_s must be >= sensor_period_s")
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "trajectory", tuple(self.trajectory))
        ids = [r.id for r in self.regions]
        if not ids:
            raise InvalidArgumentError("scenario needs at least one region")
        if len(ids) != len(set(ids)):
            raise InvalidArgumentError("region ids must be unique")
        placed = {r.id for r in self.regions if r.marker is not None}
        for event in self.trajectory:
            if event.region not in ids:
                raise InvalidArgumentError(
                    f"trajectory references unknown region {event.region!r}")
            if event.region not in placed:
                raise InvalidArgumentError(
                    f"trajectory moves the marker of region {event.region!r},"
                    " which has no marker placement")

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
        """Edge-service config per region, naming bulb:<id> and eink:<id>."""
        return [RegionConfig(
                    region_id=r.id,
                    mode=r.mode,
                    bulb_actuator=f"bulb:{r.id}",
                    eink_actuator=f"eink:{r.id}",
                    curve=self.lux_curve,
                    policy=self.policy,
                    initial_marker=(r.marker.spec if r.marker else None),
                    constraints=r.constraints)
                for r in self.regions]


def scenario_from_json(doc) -> Scenario:
    """The Scenario of a parsed scenario file; a ConfigError names the entry
    of a value that breaks a rule, of a missing key or of an unknown one."""
    try:
        return decode(Scenario, doc, "scenario")
    except InvalidArgumentError as e:
        raise ConfigError(str(e)) from None


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read scenario file {path}: {e}")
    return scenario_from_json(parse_json(text, f"scenario file {path}"))


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


class _ActuatorNode:
    def __init__(self, sim: "Simulator", region_id: str, latency_s: float):
        self.sim = sim
        self.region_id = region_id
        self.latency_ms = int(round(latency_s * 1000))


class _BulbNode(_ActuatorNode):
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


class _EInkNode(_ActuatorNode):
    def __init__(self, sim: "Simulator", region_id: str, latency_s: float):
        super().__init__(sim, region_id, latency_s)
        # the latest accepted spec, which the display shows once it applies
        self.spec: MarkerSpec = sim.env.region(region_id).marker.spec

    def accept(self, cmd: ActuatorCommand) -> None:
        sim = self.sim
        spec: MarkerSpec = cmd.payload
        shown = encode(spec)
        region = sim.env.region(self.region_id)
        if spec == self.spec:
            sim.log(f"eink/{self.region_id}", "command-noop", shown)
            return
        # a copy per accepted command, so a later command supersedes this
        # one even when it sends the same spec object again
        self.spec = spec = replace(spec)
        sim.log(f"eink/{self.region_id}", "command-accepted", shown)
        def apply():
            if spec is not self.spec:   # superseded by a later command
                return
            region.marker = replace(region.marker, spec=spec)
            sim.log(f"eink/{self.region_id}", "visible-change", shown)
        sim.queue.schedule(sim.queue.now_ms + self.latency_ms, apply)


# -- transports ----------------------------------------------------------

SERVE_POLL_S = 0.05     # how often a server thread looks for a shutdown

# put_reading(sensor_id, reading) gets the reading's sensor id first, for a
# wrapper to see; only the reading is sent.


class InProcessTransport:
    def __init__(self, service: EdgeService):
        self.service = service

    def put_reading(self, sensor_id: str, reading: SensorReading) -> None:
        self.service.ingest_reading(reading)

    def close(self):
        pass


class HttpTransport:
    """Drives a local HTTP server wrapping the same edge service, over one
    keep-alive connection for the whole run."""

    def __init__(self, service: EdgeService):
        from http.client import HTTPConnection
        from .httpapi import make_server
        self.server = make_server(service)
        host, port = self.server.server_address[:2]
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": SERVE_POLL_S}, daemon=True)
        self._thread.start()
        self._conn = HTTPConnection(host, port, timeout=30)

    def put_reading(self, sensor_id: str, reading: SensorReading) -> None:
        """PUT one image reading as a PGM body, its sensor id in the path; a
        reply that is not 2xx raises HTTPException with its status and body,
        which ends the run."""
        from http.client import HTTPException
        from .httpapi import reading_request
        path, body, headers = reading_request(reading)
        self._conn.request("PUT", path, body, headers)
        resp = self._conn.getresponse()
        reply = resp.read()
        if not 200 <= resp.status < 300:
            raise HTTPException(f"PUT {path}: {resp.status} {resp.reason}: "
                                f"{reply.decode('utf-8', 'replace')}")

    def close(self):
        self._conn.close()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)


# -- simulator -----------------------------------------------------------


class Simulator:
    def __init__(self, scenario: Scenario, transport: str = "in-process",
                 data_dir=None):
        transports = {"in-process": InProcessTransport, "real-http": HttpTransport}
        if transport not in transports:
            raise ConfigError(f"unknown transport {transport!r}")
        self.scenario = scenario
        self.queue = _EventQueue()
        self.event_log: List[dict] = []
        self.env = scenario.environment()
        self._tmpdir = None
        if data_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="ambientd-sim-")
            data_dir = self._tmpdir.name
        self.service = EdgeService(data_dir)
        # a replayed log would make the run's first readings stale
        for r in scenario.regions:
            path = self.service.log_path(r.id)
            if path.exists():
                raise ConfigError(f"{path} holds the log of an earlier run; "
                                  "a run needs a data directory without one")
        for r, config in zip(scenario.regions, scenario.region_configs()):
            self.service.register_region(config)
            bulb = _BulbNode(self, r.id, scenario.bulb_latency_s)
            self.service.register_actuator(config.bulb_actuator, bulb.accept)
            if r.marker is not None:
                eink = _EInkNode(self, r.id, scenario.eink_latency_s)
                self.service.register_actuator(config.eink_actuator, eink.accept)
        self._satisfied_cycle: Dict[str, Optional[int]] = {
            r.id: None for r in scenario.regions}
        self.transport = transports[transport](self.service)

    def log(self, node: str, kind: str, payload: dict) -> None:
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
        self.event_log.append({"t_ms": self.queue.now_ms, "node": node,
                               "kind": kind, "digest": digest})

    def _sensor_tick(self, region_id: str, cycle: int) -> None:
        """Send the region's reading number cycle, counted from 1."""
        scenario = self.scenario
        region = self.env.region(region_id)
        t_ms = self.queue.now_ms
        lux = read_light_sensor(
            region, stable_seed(scenario.seed, "lux", region_id, t_ms),
            noise_fraction=scenario.sensor_noise_fraction)
        image = render_region(
            region, stable_seed(scenario.seed, "cam", region_id, t_ms),
            CANONICAL_W, CANONICAL_H, sigma0=scenario.camera_sigma0)
        self.log(f"sensor/{region_id}", "reading",
                 {"lux": lux, "image_sha": hashlib.sha256(
                     image.pixels).hexdigest()})
        # float: a region built in Python may hold an int lux
        sensor_id = f"sensor:{region_id}"
        self.transport.put_reading(sensor_id, SensorReading(
            sensor_id, region_id, t_ms, float(lux), image.pixels))
        if (self._satisfied_cycle[region_id] is None
                and self.service.marker_phase(region_id)
                == policy.MarkerPhase.SATISFIED.value):
            self._satisfied_cycle[region_id] = cycle

    def run(self) -> Tuple[List[dict], dict]:
        scenario = self.scenario
        period_ms = int(round(scenario.sensor_period_s * 1000))
        duration_ms = int(round(scenario.duration_s * 1000))
        for event in scenario.trajectory:
            self.queue.schedule(int(round(event.t_s * 1000)),
                                lambda event=event: self._move_marker(event))
        for r in scenario.regions:
            for cycle, t_ms in enumerate(range(0, duration_ms + 1, period_ms), 1):
                self.queue.schedule(t_ms, lambda rid=r.id, n=cycle:
                                    self._sensor_tick(rid, n))
        try:
            self.queue.run_until(duration_ms)
        finally:
            self.transport.close()
            if self._tmpdir is not None:
                self._tmpdir.cleanup()
        return self.event_log, self._final_report()

    def _move_marker(self, event: TrajectoryEvent) -> None:
        region = self.env.region(event.region)
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
            records = self.service.region_records(r.id)
            tail = [rec.metrics.illuminance for rec in records[-3:]]
            optimal = policy.optimal_lux(records[-1].texture_class, r.constraints)
            converged = len(tail) == 3 and all(
                policy.in_deadband(scenario.policy, optimal, v) for v in tail)
            commands = self.service.region_commands(r.id)
            match = self.service.marker_match(r.id)
            bulb_series = [float(c.payload) for c in commands
                           if c.kind == policy.SET_BRIGHTNESS]
            regions[r.id] = {
                "final_lux": self.env.region(r.id).illuminance,
                "converged_lux": (sum(tail) / len(tail)) if tail else None,
                "optimal_lux": optimal,
                "converged": converged,
                "observation_cycles": len(records),
                "bulb_commands": len(bulb_series),
                "eink_commands": len(commands) - len(bulb_series),
                "marker_phase": self.service.marker_phase(r.id),
                "satisfied_after_cycles": self._satisfied_cycle[r.id],
                "last_match_percentage": match.percentage if match else None,
                "bulb_command_series": bulb_series,
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
        writer.writerow(["region_id", "timestamp_ms", *METRIC_NAMES,
                         "texture_class", "scene_change"])
        for r in sim.scenario.regions:
            for rec in sim.service.region_records(r.id):
                writer.writerow([rec.region_id, rec.timestamp_ms,
                                 *encode(rec.metrics).values(),
                                 rec.texture_class.value, int(rec.scene_change)])


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
                        total += match_marker(image.pixels, spec).percentage
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
