"""Decision layer: illuminance setpoint control with a deadband, actuator
calibration, the marker adaptation state machine, constraint resolution, and
tracking-quality prediction.

`PolicyConfig` holds the controller settings and is their only home, and
its constructor checks them, so a config that exists is valid. The two step
functions take it, the optimum lux (computed by the caller) and a mutable
state that holds only what changes between steps.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .checks import check_fields, checked, integer, number
from .errors import CalibrationError, InvalidArgumentError
from .characterize import MatchReport, TextureClass
from .markerpipe import DEFAULT_MATCH_FAST_THRESHOLD
from .scene import MARKER_PATTERNS, LuxCurve, MarkerSpec

OPTIMAL_LUX_COARSE = 300.0
OPTIMAL_LUX_FINE = 750.0
GOOD_TRACKING_ERROR_CM = 5.0

# Escalation order for pattern switching; image markers last (most robust
# to viewing conditions, but switching invalidates the reference most).
PATTERN_SWITCH_ORDER = MARKER_PATTERNS

LUX_BANDS = (("low", 50.0, 100.0), ("medium", 150.0, 450.0), ("high", 500.0, 1000.0))

# (texture label, band) -> (mean error cm, estimated). Non-estimated cells are
# measured values; estimated ones are shipped defaults and flagged as such.
ERROR_TABLE = {
    ("checkerboard", "low"): (15.0, True),
    ("checkerboard", "medium"): (4.1, False),
    ("checkerboard", "high"): (3.0, True),
    ("fine-paper-like", "low"): (25.0, True),
    ("fine-paper-like", "medium"): (12.0, False),
    ("fine-paper-like", "high"): (5.0, True),
}


def select_optimal_lux(texture: TextureClass) -> float:
    return OPTIMAL_LUX_FINE if texture is TextureClass.FINE else OPTIMAL_LUX_COARSE


@dataclass(frozen=True)
class PolicyConfig:
    """Controller settings shared by both loops of a region."""
    # of the optimum lux; no command inside
    deadband_fraction: float = number(0.0, 0.5, 0.10, open_lo=True, open_hi=True)
    # no new actuation until this has passed
    settle_s: float = number(0.0, default=2.0)
    # marker match that satisfies the loop
    target_percentage: float = number(0.0, 100.0, 60.0)
    # largest marker size the loop may use
    max_size_index: int = integer(0, 2, 2)
    # FAST threshold of marker matching
    marker_fast_threshold: int = integer(1, default=DEFAULT_MATCH_FAST_THRESHOLD)

    def __post_init__(self):
        check_fields(self)


@dataclass
class IlluminancePolicyState:
    settle_until: float = -math.inf


def illuminance_control_step(state: IlluminancePolicyState, config: PolicyConfig,
                             optimal_lux: float, measured_lux: float,
                             curve: LuxCurve, now: float) -> Optional[float]:
    """One control cycle; returns a bulb command percent or None.

    No command inside the deadband or while a previous command settles.
    """
    if abs(measured_lux - optimal_lux) <= config.deadband_fraction * optimal_lux:
        return None
    if now < state.settle_until:
        return None
    command, _ = curve.invert(optimal_lux)
    state.settle_until = now + config.settle_s
    return command


def calibrate(set_brightness: Callable[[float], None],
              read_lux: Callable[[], float], steps: int = 11) -> LuxCurve:
    """Sweep bulb commands, record settled lux at each knot and fit a curve.

    set_brightness must block (in simulation: advance the virtual clock) until
    the bulb has settled. The measured lux values are made monotone
    non-decreasing with pool-adjacent-violators.
    """
    if steps < 2:
        raise CalibrationError("calibration needs at least 2 steps")
    commands = np.linspace(0.0, 100.0, steps).tolist()
    luxes = []
    for command in commands:
        set_brightness(command)
        try:
            luxes.append(float(read_lux()))
        except TimeoutError as e:
            raise CalibrationError(f"light sensor timeout at command {command}") from e
    return LuxCurve(zip(commands, _pool_adjacent_violators(luxes)))


def _pool_adjacent_violators(values: List[float]) -> List[float]:
    """Least-squares non-decreasing fit with unit weights."""
    means: List[float] = []
    counts: List[int] = []
    for v in values:
        means.append(v)
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            c = counts[-2] + counts[-1]
            means[-2:] = [(means[-2] * counts[-2] + means[-1] * counts[-1]) / c]
            counts[-2:] = [c]
    return [m for m, c in zip(means, counts) for _ in range(c)]


class MarkerPhase(enum.Enum):
    ADJUST_LIGHT = "AdjustLight"
    ENLARGE_MARKER = "EnlargeMarker"
    SWITCH_PATTERN = "SwitchPattern"
    SATISFIED = "Satisfied"
    EXHAUSTED = "Exhausted"


@dataclass(frozen=True)
class SetBrightness:
    command: float


@dataclass(frozen=True)
class SetMarker:
    spec: MarkerSpec


@dataclass
class MarkerControllerState:
    current_spec: MarkerSpec
    phase: MarkerPhase = MarkerPhase.ADJUST_LIGHT
    light_attempts: int = 0
    settle_until: float = -math.inf
    patterns_tried: tuple = ()


def marker_control_step(state: MarkerControllerState, config: PolicyConfig,
                        report: MatchReport, optimal_lux: float,
                        measured_lux: float, curve: LuxCurve, now: float
                        ) -> Tuple[MarkerControllerState, list]:
    """One observation of the marker adaptation loop.

    Escalates light -> marker size -> marker pattern until the matched-feature
    percentage reaches the target, then reports Satisfied (or Exhausted once
    every escalation is spent). At most one actuation per observation.
    """
    if state.phase in (MarkerPhase.SATISFIED, MarkerPhase.EXHAUSTED):
        if report.percentage >= config.target_percentage:
            state.phase = MarkerPhase.SATISFIED
        return state, []
    if now < state.settle_until:
        return state, []
    if report.percentage >= config.target_percentage:
        state.phase = MarkerPhase.SATISFIED
        return state, []

    if state.phase is MarkerPhase.ADJUST_LIGHT:
        off_target = (abs(measured_lux - optimal_lux)
                      > config.deadband_fraction * optimal_lux)
        if state.light_attempts < 2 and off_target:
            state.light_attempts += 1
            state.settle_until = now + config.settle_s
            command, _ = curve.invert(optimal_lux)
            return state, [SetBrightness(command)]
        state.phase = MarkerPhase.ENLARGE_MARKER

    if state.phase is MarkerPhase.ENLARGE_MARKER:
        if state.current_spec.size_index < config.max_size_index:
            spec = replace(state.current_spec,
                           size_index=state.current_spec.size_index + 1)
            state.current_spec = spec
            state.settle_until = now + config.settle_s
            return state, [SetMarker(spec)]
        state.phase = MarkerPhase.SWITCH_PATTERN
        state.patterns_tried = (state.current_spec.pattern,)

    # SwitchPattern
    for pattern in PATTERN_SWITCH_ORDER:
        if pattern not in state.patterns_tried:
            state.patterns_tried = state.patterns_tried + (pattern,)
            spec = replace(state.current_spec, pattern=pattern)
            state.current_spec = spec
            state.settle_until = now + config.settle_s
            return state, [SetMarker(spec)]
    state.phase = MarkerPhase.EXHAUSTED
    return state, []


@dataclass(frozen=True)
class ControlConstraint:
    source: str = checked("a string", lambda v: isinstance(v, str))
    lo: float = number()
    hi: float = number()
    preferred: float = number()
    priority: int = integer(0, 3, 0)

    def __post_init__(self):
        check_fields(self)
        if not (self.lo <= self.preferred <= self.hi):
            raise InvalidArgumentError("preferred lux must lie within the range")


def resolve_constraints(constraints: List[ControlConstraint]) -> float:
    """Intersect ranges tier by tier (highest priority first), stopping before
    a tier that would empty the intersection; clamp the top tier's preferred
    value into what remains."""
    if not constraints:
        raise InvalidArgumentError("constraint list is empty")
    tiers = sorted({c.priority for c in constraints})
    lo, hi = -math.inf, math.inf
    for tier in tiers:
        members = [c for c in constraints if c.priority == tier]
        new_lo = max([lo] + [c.lo for c in members])
        new_hi = min([hi] + [c.hi for c in members])
        if new_lo > new_hi:
            break
        lo, hi = new_lo, new_hi
    top = [c for c in constraints if c.priority == tiers[0]]
    preferred = min(c.preferred for c in top)  # lower-lux (energy-saving) bias
    return float(min(max(preferred, lo), hi))


@dataclass(frozen=True)
class TrackingPrediction:
    expected_error_cm: float
    quality: str                 # "Good" | "Poor"
    estimated: bool
    guidance: Tuple[str, ...]

    def to_json(self) -> dict:
        return {"expected_error_cm": self.expected_error_cm,
                "class": self.quality, "estimated": self.estimated,
                "guidance": list(self.guidance)}


def lux_band(lux: float) -> str:
    """Band label; values in the gaps between bands go to the nearer edge."""
    if lux < 0:
        raise InvalidArgumentError("lux must be >= 0")
    if lux <= 100.0:
        return "low"
    if lux < 150.0:
        return "low" if (lux - 100.0) <= (150.0 - lux) else "medium"
    if lux <= 450.0:
        return "medium"
    if lux < 500.0:
        return "medium" if (lux - 450.0) <= (500.0 - lux) else "high"
    return "high"


def predict_tracking(texture_label: str, lux: float) -> TrackingPrediction:
    band = lux_band(lux)
    key = (texture_label, band)
    if key not in ERROR_TABLE:
        raise InvalidArgumentError(f"unknown texture label {texture_label!r}")
    error_cm, estimated = ERROR_TABLE[key]
    quality = "Good" if error_cm <= GOOD_TRACKING_ERROR_CM else "Poor"
    guidance: List[str] = []
    if quality == "Poor":
        if band != "high":
            guidance.append("Hologram drift likely - increase light level")
        if texture_label == "fine-paper-like":
            guidance.append("Add visual texture near placement point")
        if not guidance:
            guidance.append("Reposition virtual content onto a coarser texture")
    return TrackingPrediction(error_cm, quality, estimated, tuple(guidance))
