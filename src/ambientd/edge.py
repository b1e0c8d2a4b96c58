"""Edge server core: sensor ingestion, characterization, policy stepping,
actuator dispatch, append-only metrics persistence and trend queries.

Transport-agnostic; the HTTP layer in httpapi.py is a thin wrapper around
EdgeService. Each region has its own lock, staleness map, policy state and
NDJSON log; a policy step computes the region's optimum lux once and hands
it, with the region's `PolicyConfig`, to the step function of its mode.

`SensorReading`, `ActuatorCommand` and `RegionConfig` check their fields in
their constructors (checks.py), so one that exists is valid and nothing bad
is persisted.
"""
from __future__ import annotations

import base64
import json
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from . import characterize, markerpipe, policy
from .characterize import ImageMetrics, TextureClass
from .checks import check_fields, checked, integer, is_number, number, one_of
from .errors import (BadRequestError, ConfigError, InvalidArgumentError,
                     NotFoundError, StaleReadingError)
from .policy import PolicyConfig
from .scene import (DEFAULT_LUX_CURVE, MAX_ILLUMINANCE, LuxCurve, MarkerSpec,
                    SyntheticImage)

# a read of the brightest region with 100 % sensor noise; keeps trend sums finite
MAX_LUX = 2 * MAX_ILLUMINANCE
MAX_TREND_WINDOW_S = 365 * 24 * 3600.0   # one year
# A region id names the region's log file.
REGION_ID = re.compile(r"(?!\.)[A-Za-z0-9_.-]{1,64}")


@dataclass
class SensorReading:
    sensor_id: str
    region_id: str = checked("a string", lambda v: isinstance(v, str))
    timestamp_ms: int = integer()
    lux: Optional[float] = number(0.0, MAX_LUX, None, optional=True)
    image_pgm_b64: Optional[str] = checked(
        "a string or null", lambda v: v is None or isinstance(v, str), None)

    def __post_init__(self):
        # checked before anything is persisted; good values are not coerced,
        # so the log holds exactly what was sent
        check_fields(self, BadRequestError)
        if self.lux is None and self.image_pgm_b64 is None:
            raise BadRequestError("reading must carry lux and/or an image")


@dataclass
class ActuatorCommand:
    actuator_id: str
    kind: str                    # "set-brightness" | "set-marker"
    payload: object              # percent float or MarkerSpec
    issued_at_ms: int = integer(default=0)

    def __post_init__(self):
        check_fields(self, BadRequestError)
        if self.kind == "set-brightness":
            if not is_number(self.payload, 0.0, 100.0):
                raise BadRequestError(
                    "set-brightness payload must be a percent in [0, 100]")
        elif self.kind == "set-marker":
            if not isinstance(self.payload, MarkerSpec):
                raise BadRequestError("set-marker payload must be a marker spec")
        else:
            raise BadRequestError(f"unknown command kind {self.kind!r}")

    def to_json(self) -> dict:
        payload = self.payload
        if isinstance(payload, MarkerSpec):
            payload = {"pattern": payload.pattern, "size_index": payload.size_index}
        return {"kind": self.kind, "payload": payload,
                "issued_at_ms": self.issued_at_ms}

    @staticmethod
    def from_json(actuator_id: str, doc: dict) -> "ActuatorCommand":
        try:
            kind, payload = doc["kind"], doc["payload"]
            if kind == "set-marker":
                payload = MarkerSpec(payload["pattern"], payload["size_index"])
        except (KeyError, TypeError, InvalidArgumentError) as e:
            raise BadRequestError(f"malformed command body: {e}")
        return ActuatorCommand(actuator_id, kind, payload,
                               doc.get("issued_at_ms", 0))


@dataclass
class MetricsRecord:
    region_id: str
    timestamp_ms: int
    metrics: ImageMetrics
    texture_class: TextureClass
    scene_change: bool

    def to_json(self) -> dict:
        return {
            "region_id": self.region_id,
            "timestamp_ms": self.timestamp_ms,
            "metrics": self.metrics.to_json(),
            "texture_class": self.texture_class.value,
            "scene_change": self.scene_change,
        }

    @staticmethod
    def from_json(doc: dict) -> "MetricsRecord":
        m = doc["metrics"]
        return MetricsRecord(
            doc["region_id"], int(doc["timestamp_ms"]),
            ImageMetrics(m["brightness"], m["contrast"], m["edge_strength"],
                         int(m["corner_count"]), m["illuminance"]),
            TextureClass(doc["texture_class"]), bool(doc["scene_change"]))


@dataclass
class TrendSummary:
    window_s: float
    count: int
    change_events: int
    stats: Dict[str, Dict[str, float]]   # metric -> {min, mean, max}

    def to_json(self) -> dict:
        return {"window_s": self.window_s, "count": self.count,
                "change_events": self.change_events, "metrics": self.stats}


@dataclass(frozen=True)
class RegionConfig:
    region_id: str = checked(f"a string matching {REGION_ID.pattern}", lambda v:
                             isinstance(v, str) and bool(REGION_ID.fullmatch(v)))
    mode: str = one_of(("markerless", "marker"), "markerless")
    bulb_actuator: Optional[str] = None
    eink_actuator: Optional[str] = None
    curve: LuxCurve = DEFAULT_LUX_CURVE
    policy: PolicyConfig = PolicyConfig()
    initial_marker: Optional[MarkerSpec] = None
    constraints: List[policy.ControlConstraint] = field(default_factory=list)

    def __post_init__(self):
        check_fields(self)


class _RegionRuntime:
    def __init__(self, config: RegionConfig, log_path: Path):
        self.config = config
        self.log_path = log_path
        self.lock = threading.RLock()
        self.records: List[MetricsRecord] = []
        self.last_image_metrics: Optional[ImageMetrics] = None
        self.last_texture = TextureClass.COARSE
        self.last_lux: Optional[float] = None
        # the optimum of the latest policy step
        self.optimal_lux = policy.OPTIMAL_LUX_COARSE
        self.illum_state = policy.IlluminancePolicyState()
        self.marker_state: Optional[policy.MarkerControllerState] = None
        if config.mode == "marker":
            self.marker_state = policy.MarkerControllerState(
                config.initial_marker or MarkerSpec("binary-grid-A", 0))
        self.last_match: Optional[characterize.MatchReport] = None
        self.commands: List[ActuatorCommand] = []
        self.sensor_last_ts: Dict[str, int] = {}


class EdgeService:
    """Single edge server hosting both optimization pipelines."""

    def __init__(self, data_dir):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._regions: Dict[str, _RegionRuntime] = {}
        self._actuators: Dict[str, Callable[[ActuatorCommand], None]] = {}
        self._global_lock = threading.Lock()

    # -- registration -----------------------------------------------------

    def register_region(self, config: RegionConfig) -> int:
        """Register a region and replay its log; returns the number of bytes
        of a torn last line cut from the log.

        A complete line that does not parse raises ConfigError.
        """
        path = self.data_dir / f"region_{config.region_id}.jsonl"
        runtime = _RegionRuntime(config, path)
        data = path.read_bytes() if path.exists() else b""
        keep = data.rfind(b"\n") + 1
        if keep < len(data):     # a write cut short; appends go after it
            with path.open("r+b") as fh:
                fh.truncate(keep)
        for lineno, line in enumerate(data[:keep].split(b"\n")[:-1], 1):
            if not line.strip():
                continue
            try:
                record = MetricsRecord.from_json(json.loads(line))
            except (ValueError, KeyError, TypeError) as e:
                raise ConfigError(f"{path}:{lineno}: bad record: {e}")
            runtime.records.append(record)
            if record.metrics.illuminance is not None:
                runtime.last_lux = record.metrics.illuminance
            runtime.last_texture = record.texture_class
        with self._global_lock:
            self._regions[config.region_id] = runtime
        return len(data) - keep

    def register_actuator(self, actuator_id: str,
                          accept: Callable[[ActuatorCommand], None]) -> None:
        with self._global_lock:
            self._actuators[actuator_id] = accept

    def _runtime(self, region_id: str) -> _RegionRuntime:
        runtime = self._regions.get(region_id)
        if runtime is None:
            raise NotFoundError(f"unknown region {region_id!r}")
        return runtime

    # -- ingestion --------------------------------------------------------

    def ingest_reading(self, reading: SensorReading) -> MetricsRecord:
        runtime = self._runtime(reading.region_id)
        image = None
        if reading.image_pgm_b64 is not None:
            try:
                raw = base64.b64decode(reading.image_pgm_b64, validate=True)
                image = SyntheticImage.from_pgm(raw)
            except (ValueError, InvalidArgumentError) as e:
                raise BadRequestError(f"bad image payload: {e}")
        with runtime.lock:
            last = runtime.sensor_last_ts.get(reading.sensor_id)
            if last is not None and reading.timestamp_ms <= last:
                raise StaleReadingError(
                    f"timestamp {reading.timestamp_ms} not newer than {last}")
            runtime.sensor_last_ts[reading.sensor_id] = reading.timestamp_ms

            scene_change = False
            if image is not None:
                metrics = characterize.compute_metrics(image, reading.lux)
                texture = characterize.classify_texture(metrics)
                if runtime.last_image_metrics is not None:
                    scene_change = characterize.detect_scene_change(
                        runtime.last_image_metrics, metrics)
                runtime.last_image_metrics = metrics
                runtime.last_texture = texture
            else:
                prev = runtime.last_image_metrics
                if prev is not None:
                    metrics = ImageMetrics(prev.brightness, prev.contrast,
                                           prev.edge_strength, prev.corner_count,
                                           reading.lux)
                else:
                    metrics = ImageMetrics(0.0, 0.0, 0.0, 0, reading.lux)
                texture = runtime.last_texture
            if reading.lux is not None:
                runtime.last_lux = reading.lux

            record = MetricsRecord(reading.region_id, reading.timestamp_ms,
                                   metrics, texture, scene_change)
            runtime.records.append(record)
            with runtime.log_path.open("a") as fh:
                fh.write(json.dumps(record.to_json(), allow_nan=False) + "\n")

            self._policy_step(runtime, record, image)
        return record

    def _policy_step(self, runtime: _RegionRuntime, record: MetricsRecord,
                     image: Optional[SyntheticImage]) -> None:
        config = runtime.config
        now_s = record.timestamp_ms / 1000.0
        optimal = policy.select_optimal_lux(record.texture_class)
        if config.mode == "markerless" and config.constraints:
            system = policy.ControlConstraint(
                "ar-tracking", 50.0, 1000.0, optimal, priority=0)
            optimal = policy.resolve_constraints([system, *config.constraints])
        runtime.optimal_lux = optimal
        if config.mode == "markerless":
            if runtime.last_lux is None:
                return
            command = policy.illuminance_control_step(
                runtime.illum_state, config.policy, optimal, runtime.last_lux,
                config.curve, now_s)
            if command is not None and config.bulb_actuator:
                self._issue(runtime, ActuatorCommand(
                    config.bulb_actuator, "set-brightness", command,
                    record.timestamp_ms))
        elif image is not None and runtime.last_lux is not None:
            report = markerpipe.match_marker(
                image, runtime.marker_state.current_spec,
                config.policy.marker_fast_threshold)
            runtime.last_match = report
            state, intents = policy.marker_control_step(
                runtime.marker_state, config.policy, report, optimal,
                runtime.last_lux, config.curve, now_s)
            runtime.marker_state = state
            for intent in intents:
                if isinstance(intent, policy.SetBrightness) and config.bulb_actuator:
                    self._issue(runtime, ActuatorCommand(
                        config.bulb_actuator, "set-brightness", intent.command,
                        record.timestamp_ms))
                elif isinstance(intent, policy.SetMarker) and config.eink_actuator:
                    self._issue(runtime, ActuatorCommand(
                        config.eink_actuator, "set-marker", intent.spec,
                        record.timestamp_ms))

    def _issue(self, runtime: _RegionRuntime, cmd: ActuatorCommand) -> None:
        runtime.commands.append(cmd)
        self.dispatch_command(cmd)

    # -- queries ----------------------------------------------------------

    def get_latest_metrics(self, region_id: str) -> MetricsRecord:
        runtime = self._runtime(region_id)
        with runtime.lock:
            if not runtime.records:
                raise NotFoundError(f"no records for region {region_id!r}")
            return runtime.records[-1]

    def get_trend(self, region_id: str, window_s: float) -> TrendSummary:
        # the range test also rejects NaN and infinities
        if not 0 < window_s <= MAX_TREND_WINDOW_S:
            raise BadRequestError(
                f"window must be in (0, {MAX_TREND_WINDOW_S:g}] s")
        runtime = self._runtime(region_id)
        with runtime.lock:
            if not runtime.records:
                raise NotFoundError(f"no records for region {region_id!r}")
            now_ms = runtime.records[-1].timestamp_ms
            cutoff = now_ms - int(window_s * 1000)
            window = [r for r in runtime.records if r.timestamp_ms >= cutoff]
        if not window:
            raise NotFoundError("no records inside the window")
        stats = {}
        for name in ("brightness", "contrast", "edge_strength", "corner_count",
                     "illuminance"):
            values = [getattr(r.metrics, name) for r in window]
            values = [v for v in values if v is not None]
            if not values:
                continue
            stats[name] = {"min": float(min(values)),
                           "mean": float(sum(values) / len(values)),
                           "max": float(max(values))}
        change_events = sum(1 for r in window if r.scene_change)
        return TrendSummary(window_s, len(window), change_events, stats)

    def marker_phase(self, region_id: str) -> Optional[str]:
        runtime = self._runtime(region_id)
        if runtime.marker_state is None:
            return None
        return runtime.marker_state.phase.value

    def region_commands(self, region_id: str) -> List[ActuatorCommand]:
        return list(self._runtime(region_id).commands)

    # -- actuation --------------------------------------------------------

    def dispatch_command(self, cmd: ActuatorCommand) -> float:
        """Forward a command to its actuator; returns dispatch latency in ms."""
        accept = self._actuators.get(cmd.actuator_id)
        if accept is None:
            raise NotFoundError(f"unknown actuator {cmd.actuator_id!r}")
        start = time.monotonic()
        accept(cmd)
        return (time.monotonic() - start) * 1000.0
