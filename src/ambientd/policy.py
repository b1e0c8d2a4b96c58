"""Decision layer: illuminance setpoint control with a deadband, actuator
calibration, the marker adaptation state machine, constraint resolution, and
tracking-quality prediction.

`PolicyConfig` holds the controller settings and is their only home, and
its constructor checks them, so a config that exists is valid. The two step
functions take it, the optimum lux (`optimal_lux`, once a step) and a mutable
state that holds only what changes between steps. Both use `in_deadband`,
the deadband test, and `_light_command`, the settle-then-actuate bulb step.
An intent is `(kind, payload)`, and its kind is one of `COMMAND_KINDS`, the
wire's command kinds, which this module alone spells: `SET_BRIGHTNESS` (a
percent) or `SET_MARKER` (a `MarkerSpec`).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .checks import Checked, checked, integer, is_number, number, wire
from .errors import CalibrationError, InvalidArgumentError
from .characterize import MatchReport, TextureClass
from .markerpipe import DEFAULT_MATCH_FAST_THRESHOLD, MAX_MATCH_FAST_THRESHOLD
from .scene import MARKER_PATTERNS, LuxCurve, MarkerSpec

OPTIMAL_LUX_COARSE = 300.0
OPTIMAL_LUX_FINE = 750.0
GOOD_TRACKING_ERROR_CM = 5.0
# a calibration sweep reads the sensor once a step; 101 steps are 1 % apart
MAX_CALIBRATION_STEPS = 101

# Escalation order for pattern switching; image markers last (most robust
# to viewing conditions, but switching invalidates the reference most).
PATTERN_SWITCH_ORDER = MARKER_PATTERNS
# the marker a marker region shows first unless its config names one
INITIAL_MARKER = MarkerSpec(PATTERN_SWITCH_ORDER[0], 0)
AR_TRACKING_LUX = (50.0, 1000.0)     # the lux range AR tracking works in
SET_BRIGHTNESS = "set-brightness"    # the bulb's command: a percent
SET_MARKER = "set-marker"            # the E-Ink display's: a MarkerSpec
COMMAND_KINDS = (SET_BRIGHTNESS, SET_MARKER)

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
class PolicyConfig(Checked):
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
    marker_fast_threshold: int = integer(1, MAX_MATCH_FAST_THRESHOLD,
                                         DEFAULT_MATCH_FAST_THRESHOLD)


@dataclass
class IlluminancePolicyState:
    settle_until: float = -math.inf


def in_deadband(config: PolicyConfig, optimal_lux: float, lux: float) -> bool:
    """True when lux is near enough the optimum that no command is needed."""
    return abs(lux - optimal_lux) <= config.deadband_fraction * optimal_lux


def _light_command(state: IlluminancePolicyState | MarkerControllerState,
                   config: PolicyConfig, optimal_lux: float, measured_lux: float,
                   curve: LuxCurve, now: float) -> Optional[float]:
    """The bulb command for the optimum, or None inside the deadband or while
    the last actuation settles; a command starts a new settle period."""
    if in_deadband(config, optimal_lux, measured_lux) or now < state.settle_until:
        return None
    state.settle_until = now + config.settle_s
    return curve.invert(optimal_lux)[0]


def illuminance_control_step(state: IlluminancePolicyState, config: PolicyConfig,
                             optimal_lux: float, measured_lux: float,
                             curve: LuxCurve, now: float) -> Optional[float]:
    """One control cycle; returns a bulb command percent or None."""
    return _light_command(state, config, optimal_lux, measured_lux, curve, now)


def calibrate(set_brightness: Callable[[float], None],
              read_lux: Callable[[], float], steps: int = 11) -> LuxCurve:
    """Sweep bulb commands, record settled lux at each knot and fit a curve.

    set_brightness must block (in simulation: advance the virtual clock) until
    the bulb has settled. The measured lux values are made monotone
    non-decreasing with pool-adjacent-violators.
    """
    if steps < 2:
        raise CalibrationError("calibration needs at least 2 steps")
    if steps > MAX_CALIBRATION_STEPS:
        raise CalibrationError(
            f"calibration takes at most {MAX_CALIBRATION_STEPS} steps")
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


class Intent(NamedTuple):
    """An actuation the policy asks for: an `ActuatorCommand` kind, payload."""
    kind: str
    payload: object


@dataclass
class MarkerControllerState:
    current_spec: MarkerSpec
    phase: MarkerPhase = MarkerPhase.ADJUST_LIGHT
    light_attempts: int = 0
    settle_until: float = -math.inf
    patterns_tried: tuple = ()


def marker_control_step(state: MarkerControllerState, config: PolicyConfig,
                        match: Callable[[], MatchReport], optimal_lux: float,
                        measured_lux: float, curve: LuxCurve, now: float
                        ) -> Tuple[MarkerControllerState, List[Intent]]:
    """One observation of the marker adaptation loop.

    Escalates light -> marker size -> marker pattern until the matched-feature
    percentage reaches the target, then reports Satisfied (or Exhausted once
    every escalation is spent). At most one actuation per observation.

    match returns the observation's `MatchReport`. It is called only where
    the percentage decides the outcome: on an Exhausted step, which a match
    at the target turns Satisfied, and on an unfinished step whose settle
    period is over. A Satisfied step and an unfinished settling step do not
    call it.
    """
    if state.phase is MarkerPhase.SATISFIED or (
            state.phase is not MarkerPhase.EXHAUSTED
            and now < state.settle_until):
        return state, []
    if match().percentage >= config.target_percentage:
        state.phase = MarkerPhase.SATISFIED
    if state.phase in (MarkerPhase.SATISFIED, MarkerPhase.EXHAUSTED):
        return state, []

    if state.phase is MarkerPhase.ADJUST_LIGHT:
        if state.light_attempts < 2:
            command = _light_command(state, config, optimal_lux, measured_lux,
                                     curve, now)
            if command is not None:
                state.light_attempts += 1
                return state, [Intent(SET_BRIGHTNESS, command)]
        state.phase = MarkerPhase.ENLARGE_MARKER

    spec = state.current_spec
    if state.phase is MarkerPhase.ENLARGE_MARKER:
        if spec.size_index < config.max_size_index:
            spec = replace(spec, size_index=spec.size_index + 1)
        else:
            state.phase = MarkerPhase.SWITCH_PATTERN
            state.patterns_tried = (spec.pattern,)
    if state.phase is MarkerPhase.SWITCH_PATTERN:
        untried = [p for p in PATTERN_SWITCH_ORDER if p not in state.patterns_tried]
        if not untried:
            state.phase = MarkerPhase.EXHAUSTED
            return state, []
        state.patterns_tried += (untried[0],)
        spec = replace(spec, pattern=untried[0])
    state.current_spec = spec
    state.settle_until = now + config.settle_s
    return state, [Intent(SET_MARKER, spec)]


@dataclass(frozen=True)
class ControlConstraint(Checked):
    """A lux range (lo, hi) and the lux preferred in it; source is a label
    that nothing reads."""
    range: Tuple[float, float] = checked(
        "a [lo, hi] pair of finite numbers",
        lambda v: type(v) is tuple and len(v) == 2 and all(map(is_number, v)))
    preferred: float = number()
    source: Optional[str] = checked(
        "a string or null", lambda v: v is None or isinstance(v, str), None)
    priority: int = integer(0, 3, 0)

    def __post_init__(self):
        super().__post_init__()
        if not self.range[0] <= self.preferred <= self.range[1]:
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
        new_lo = max([lo] + [c.range[0] for c in members])
        new_hi = min([hi] + [c.range[1] for c in members])
        if new_lo > new_hi:
            break
        lo, hi = new_lo, new_hi
    top = [c for c in constraints if c.priority == tiers[0]]
    preferred = min(c.preferred for c in top)  # lower-lux (energy-saving) bias
    return float(min(max(preferred, lo), hi))


def optimal_lux(texture: TextureClass, constraints: tuple) -> float:
    """The lux to drive a region to: AR tracking's range and the texture's
    preferred lux as the system constraint, resolved with the region's own."""
    system = ControlConstraint(AR_TRACKING_LUX, select_optimal_lux(texture),
                               "ar-tracking")
    return resolve_constraints([system, *constraints])


@dataclass(frozen=True)
class TrackingPrediction:
    expected_error_cm: float
    quality: str = wire(key="class")     # "Good" | "Poor"
    estimated: bool
    guidance: Tuple[str, ...]


def lux_band(lux: float) -> str:
    """Band label; values in the gaps between bands go to the nearer edge."""
    if not is_number(lux, 0.0):
        raise InvalidArgumentError("lux must be a finite number >= 0")
    for (name, _, hi), (_, next_lo, _) in zip(LUX_BANDS, LUX_BANDS[1:]):
        if lux <= hi or (lux < next_lo and lux - hi <= next_lo - lux):
            return name
    return LUX_BANDS[-1][0]


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
    return TrackingPrediction(error_cm, quality, estimated, tuple(guidance))
