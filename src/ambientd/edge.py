"""Edge server core: sensor ingestion, characterization, policy stepping,
actuator dispatch, append-only metrics persistence and trend queries.

Transport-agnostic; the HTTP layer in httpapi.py is a thin wrapper around
EdgeService. Each region has its own lock, staleness map, policy state and
NDJSON log; a policy step computes the region's optimum lux once, hands it
with the region's `PolicyConfig` to the step function of its mode, and turns
the step's `(kind, payload)` intents into commands in one loop. A command is
recorded, and sent only to a registered actuator, so a stored reading succeeds.
Each image reading of a marker region binds its match, lux or not, as a
call that runs the marker pipeline at most once, and only if the marker
step or `marker_match` reads it.

A log line is a `LogEntry`: a `MetricsRecord` plus the reading's
`sensor_id` and whether it carried an `image`. `_RegionRuntime.apply` is the
only writer of a region's reading state: live ingest appends the line and
then applies it, and replay applies each line, so a restart restores what
the live service knew (policy state excepted).

`SensorReading`, `ActuatorCommand`, `MetricsRecord`, `LogEntry` and
`RegionConfig` are `checks.Checked`, so one that exists has passed its
rules, and `checks.decode` reads them: nothing bad is persisted, and replay
refuses a line that live ingest could not have written.
"""
from __future__ import annotations

import functools
import json
import re
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import characterize, markerpipe, policy
from .characterize import MAX_LUX, METRIC_NAMES, ImageMetrics, TextureClass
from .checks import (Checked, checked, decode, encode, integer, is_number,
                     number, one_of, parse_json, wire)
from .errors import (ConfigError, InvalidArgumentError, NotFoundError,
                     StaleReadingError)
from .policy import PolicyConfig
from .scene import DEFAULT_LUX_CURVE, LuxCurve, MarkerSpec

MAX_TREND_WINDOW_S = 365 * 24 * 3600.0   # one year
# A region id names the region's log file.
REGION_ID = re.compile(r"(?!\.)[A-Za-z0-9_.-]{1,64}")


@dataclass
class SensorReading(Checked):
    sensor_id: str = checked("a string", lambda v: isinstance(v, str))
    region_id: str = checked("a string", lambda v: isinstance(v, str))
    timestamp_ms: int = integer()
    lux: Optional[float] = number(0.0, MAX_LUX, None, optional=True)
    # the camera frame's pixels: a front end hands them over, never as JSON,
    # and does not change them after, since a marker region may match them
    # later; left out of ==, since arrays do not compare to a bool
    image: Optional[np.ndarray] = checked(
        "a 2-D uint8 array or null", lambda v: v is None or (
            isinstance(v, np.ndarray) and v.dtype == np.uint8 and v.ndim == 2),
        None, given=True, compare=False)

    def __post_init__(self):
        # checked before anything is persisted; good values are not coerced,
        # so the log holds what decode read (an integer lux as a float)
        super().__post_init__()
        if self.lux is None and self.image is None:
            raise InvalidArgumentError("reading must carry lux and/or an image")


@dataclass
class ActuatorCommand(Checked):
    actuator_id: str
    kind: str                    # one of policy.COMMAND_KINDS
    payload: Union[float, MarkerSpec]   # a percent, or the marker to show
    issued_at_ms: int = integer(default=0)

    def __post_init__(self):
        super().__post_init__()
        if self.kind == policy.SET_BRIGHTNESS:
            if not is_number(self.payload, 0.0, 100.0):
                raise InvalidArgumentError(
                    f"{self.kind} payload must be a percent in [0, 100]")
        elif self.kind == policy.SET_MARKER:
            if not isinstance(self.payload, MarkerSpec):
                raise InvalidArgumentError(f"{self.kind} payload must be a marker spec")
        else:
            raise InvalidArgumentError(f"unknown command kind {self.kind!r}")


@dataclass
class MetricsRecord(Checked):
    region_id: str = checked("a string", lambda v: isinstance(v, str))
    timestamp_ms: int = integer()
    metrics: ImageMetrics
    texture_class: TextureClass
    scene_change: bool = checked("a boolean", lambda v: isinstance(v, bool))


@dataclass
class LogEntry(Checked):
    """A line of a region's log; an old line has no sensor id or image."""
    record: MetricsRecord = wire(flat=True)
    sensor_id: Optional[str] = checked(
        "a string or null", lambda v: v is None or isinstance(v, str), None)
    image: bool = checked("a boolean", lambda v: isinstance(v, bool), False)


@dataclass
class TrendSummary:
    window_s: float
    count: int
    change_events: int
    # metric -> {min, mean, max}
    stats: Dict[str, Dict[str, float]] = wire(key="metrics")


@dataclass(frozen=True)
class RegionConfig(Checked):
    region_id: str = checked(f"a string matching {REGION_ID.pattern}", lambda v:
                             isinstance(v, str) and bool(REGION_ID.fullmatch(v)))
    mode: str = one_of(("markerless", "marker"), "markerless")
    bulb_actuator: Optional[str] = None
    eink_actuator: Optional[str] = None
    curve: LuxCurve = DEFAULT_LUX_CURVE
    policy: PolicyConfig = PolicyConfig()
    initial_marker: Optional[MarkerSpec] = None
    constraints: Tuple[policy.ControlConstraint, ...] = ()

    def actuator(self, kind: str) -> Optional[str]:
        """The actuator this region names for a command kind, if any."""
        return (self.bulb_actuator if kind == policy.SET_BRIGHTNESS
                else self.eink_actuator)


class _RegionRuntime:
    def __init__(self, config: RegionConfig, log_path: Path):
        self.config = config
        self.log_path = log_path
        self.lock = threading.RLock()
        # reading state: written only by apply
        self.records: List[MetricsRecord] = []
        self.last_image_metrics: Optional[ImageMetrics] = None
        self.last_lux: Optional[float] = None
        self.sensor_last_ts: Dict[str, int] = {}
        self.illum_state = policy.IlluminancePolicyState()
        self.marker_state: Optional[policy.MarkerControllerState] = None
        if config.mode == "marker":
            self.marker_state = policy.MarkerControllerState(
                config.initial_marker or policy.INITIAL_MARKER)
        # the latest image reading's match, evaluated once when first called
        self.latest_match: Optional[Callable[[], characterize.MatchReport]] = None
        self.commands: List[ActuatorCommand] = []

    def apply(self, entry: LogEntry) -> None:
        """Apply one log entry, live after its append or on replay; an old
        line without a sensor id or image flag leaves those states as they
        are."""
        record = entry.record
        self.records.append(record)
        if record.metrics.illuminance is not None:
            self.last_lux = record.metrics.illuminance
        if entry.image:
            self.last_image_metrics = record.metrics
        if entry.sensor_id is not None:
            self.sensor_last_ts[entry.sensor_id] = record.timestamp_ms


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
        """Register a region, which no caller does twice, and replay its log;
        returns the number of bytes of a torn last line cut from the log.

        A complete line that does not parse raises ConfigError.
        """
        path = self.log_path(config.region_id)
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
                entry = decode(LogEntry, parse_json(line, "bad record"),
                               "bad record")
                if entry.record.region_id != config.region_id:
                    raise InvalidArgumentError(
                        f"bad record: region_id must be {config.region_id!r}")
            except InvalidArgumentError as e:
                raise ConfigError(f"{path}:{lineno}: {e}")
            runtime.apply(entry)
        with self._global_lock:
            self._regions[config.region_id] = runtime
        return len(data) - keep

    def log_path(self, region_id: str) -> Path:
        return self.data_dir / f"region_{region_id}.jsonl"

    def logged_region_ids(self) -> List[str]:
        """The ids of the regions with a log in the data directory; a log
        whose name holds no region id raises ConfigError."""
        ids = []
        for path in sorted(self.data_dir.glob("region_*.jsonl")):
            region_id = path.stem[len("region_"):]
            if not REGION_ID.fullmatch(region_id):
                raise ConfigError(f"{path}: region_id must be a string"
                                  f" matching {REGION_ID.pattern}")
            ids.append(region_id)
        return ids

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
        image = reading.image
        with runtime.lock:
            last = runtime.sensor_last_ts.get(reading.sensor_id)
            if last is not None and reading.timestamp_ms <= last:
                raise StaleReadingError(
                    f"timestamp {reading.timestamp_ms} not newer than {last}")

            prev = runtime.last_image_metrics
            scene_change = False
            if image is not None:
                metrics = characterize.compute_metrics(image, reading.lux)
                texture = characterize.classify_texture(metrics)
                if prev is not None:
                    scene_change = characterize.detect_scene_change(prev, metrics)
            else:
                metrics = (replace(prev, illuminance=reading.lux) if prev is not None
                           else ImageMetrics(0.0, 0.0, 0.0, 0, reading.lux))
                texture = (runtime.records[-1].texture_class if runtime.records
                           else TextureClass.COARSE)

            record = MetricsRecord(reading.region_id, reading.timestamp_ms,
                                   metrics, texture, scene_change)
            entry = LogEntry(record, reading.sensor_id, image is not None)
            with runtime.log_path.open("a") as fh:
                fh.write(json.dumps(encode(entry), allow_nan=False) + "\n")
            runtime.apply(entry)

            self._policy_step(runtime, record, image)
        return record

    def _policy_step(self, runtime: _RegionRuntime, record: MetricsRecord,
                     image: Optional[np.ndarray]) -> None:
        config = runtime.config
        if config.mode == "marker":
            if image is None:
                return
            # the spec this reading was taken under, bound now: the step may
            # change the state's spec before the match is evaluated
            runtime.latest_match = functools.cache(functools.partial(
                markerpipe.match_marker, image,
                runtime.marker_state.current_spec,
                config.policy.marker_fast_threshold))
        if runtime.last_lux is None:
            return
        now_s = record.timestamp_ms / 1000.0
        optimal = policy.optimal_lux(record.texture_class, config.constraints)
        if config.mode == "markerless":
            command = policy.illuminance_control_step(
                runtime.illum_state, config.policy, optimal, runtime.last_lux,
                config.curve, now_s)
            intents = ([] if command is None
                       else [policy.Intent(policy.SET_BRIGHTNESS, command)])
        else:
            runtime.marker_state, intents = policy.marker_control_step(
                runtime.marker_state, config.policy, runtime.latest_match,
                optimal, runtime.last_lux, config.curve, now_s)
        for kind, payload in intents:
            if actuator := config.actuator(kind):
                cmd = ActuatorCommand(actuator, kind, payload,
                                      record.timestamp_ms)
                runtime.commands.append(cmd)
                if actuator in self._actuators:
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
            raise InvalidArgumentError(
                f"window must be in (0, {MAX_TREND_WINDOW_S:g}] s")
        runtime = self._runtime(region_id)
        with runtime.lock:
            if not runtime.records:
                raise NotFoundError(f"no records for region {region_id!r}")
            now_ms = runtime.records[-1].timestamp_ms
            cutoff = now_ms - int(window_s * 1000)
            # the newest record is always inside its own window
            window = [r for r in runtime.records if r.timestamp_ms >= cutoff]
        stats = {}
        for name in METRIC_NAMES:
            values = [getattr(r.metrics, name) for r in window]
            values = [v for v in values if v is not None]
            if not values:
                continue
            stats[name] = {"min": float(min(values)),
                           "mean": float(sum(values) / len(values)),
                           "max": float(max(values))}
        change_events = sum(1 for r in window if r.scene_change)
        return TrendSummary(window_s, len(window), change_events, stats)

    def region_config(self, region_id: str) -> RegionConfig:
        return self._runtime(region_id).config

    def marker_phase(self, region_id: str) -> Optional[str]:
        runtime = self._runtime(region_id)
        with runtime.lock:
            state = runtime.marker_state
            return None if state is None else state.phase.value

    def marker_match(self, region_id: str) -> Optional[characterize.MatchReport]:
        """The match of the region's latest image reading against the marker
        it showed then; None before a marker region's first image reading."""
        runtime = self._runtime(region_id)
        with runtime.lock:
            match = runtime.latest_match
            return None if match is None else match()

    def region_records(self, region_id: str) -> List[MetricsRecord]:
        runtime = self._runtime(region_id)
        with runtime.lock:
            return list(runtime.records)

    def region_commands(self, region_id: str) -> List[ActuatorCommand]:
        runtime = self._runtime(region_id)
        with runtime.lock:
            return list(runtime.commands)

    # -- actuation --------------------------------------------------------

    def dispatch_command(self, cmd: ActuatorCommand) -> float:
        """Forward a command to its actuator; returns dispatch latency in ms.

        An actuator takes the kinds the registered regions name it for; an
        actuator no region names takes every kind.
        """
        with self._global_lock:
            accept = self._actuators.get(cmd.actuator_id)
            kinds = {kind for runtime in self._regions.values()
                     for kind in policy.COMMAND_KINDS
                     if runtime.config.actuator(kind) == cmd.actuator_id}
        if accept is None:
            raise NotFoundError(f"unknown actuator {cmd.actuator_id!r}")
        if kinds and cmd.kind not in kinds:
            raise InvalidArgumentError(
                f"actuator {cmd.actuator_id!r} takes {' or '.join(sorted(kinds))},"
                f" not {cmd.kind}")
        start = time.monotonic()
        accept(cmd)
        return (time.monotonic() - start) * 1000.0
