"""Procedural indoor scene model: region textures, light-dependent imaging,
and the bulb's command <-> lux curve.

`LuxCurve` is the only command <-> lux curve; `policy.calibrate` fits a
measured sweep (isotonic) and returns one. Actuator latency and the displayed
marker live in the simulator's bulb and E-Ink nodes (`sim.py`).

All randomness is drawn from explicit seeds so renders and sensor reads are
bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .checks import check_fields, integer, is_number, number, one_of
from .errors import InvalidArgumentError, NotFoundError

# Camera response saturates at this illuminance (linear below).
LIGHT_SATURATION_LUX = 500.0
# Shot-noise-like model: sigma grows as light drops.
NOISE_SIGMA0 = 4.0
NOISE_LUX_FLOOR = 10.0
SENSOR_NOISE_FRACTION = 0.02
# Direct sunlight; the brightest a region or a bulb curve may be.
MAX_ILLUMINANCE = 1.0e5

MARKER_PATTERNS = ("binary-grid-A", "binary-grid-B", "image-uniform", "image-nonuniform")
# Rendered side length (px) per size index at the reference viewing distance.
MARKER_BASE_SIDE_PX = (120, 180, 260)
MARKER_REFERENCE_DISTANCE_CM = 30.0
MIN_MARKER_DISTANCE_CM = 1.0
MAX_VIEWING_ANGLE_DEG = 90.0     # exclusive

DEFAULT_BULB_LATENCY_S = 0.4
DEFAULT_EINK_LATENCY_S = 1.0

TEXTURE_KINDS = ("flat", "checkerboard", "stripes", "speckle", "marker-grid")
MAX_CELL_PX = 1024   # a texture field allocates a block of this side squared


@dataclass(frozen=True)
class TextureSpec:
    kind: str = one_of(TEXTURE_KINDS)
    value: float = number(0.0, 1.0, 0.5)    # flat
    low: float = number(0.0, 1.0, 0.1)      # two-tone / speckle range
    high: float = number(0.0, 1.0, 0.9)
    cell: int = integer(1, MAX_CELL_PX, 8)   # checkerboard / stripes / marker-grid, px
    # speckle: blocks per pixel (block side = round(1/frequency))
    frequency: float = number(1.0 / MAX_CELL_PX, default=0.5)
    texture_seed: int = integer(0, default=7)   # speckle / marker-grid realization

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class MarkerSpec:
    pattern: str = one_of(MARKER_PATTERNS)
    size_index: int = integer(0, 2, 0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class MarkerPlacement:
    spec: MarkerSpec
    distance_cm: float = number(MIN_MARKER_DISTANCE_CM,
                                default=MARKER_REFERENCE_DISTANCE_CM)
    viewing_angle_deg: float = number(0.0, MAX_VIEWING_ANGLE_DEG, 0.0, open_hi=True)

    def __post_init__(self):
        check_fields(self)


@dataclass
class Region:
    id: str
    texture: TextureSpec
    illuminance: float = number(0.0, MAX_ILLUMINANCE)
    marker: Optional[MarkerPlacement] = None
    # physical cap; None = uncapped
    max_lux: Optional[float] = number(0.0, MAX_ILLUMINANCE, None, optional=True)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SyntheticImage:
    width: int
    height: int
    pixels: np.ndarray  # uint8, shape (height, width), row-major
    seed: int = 0

    def to_pgm(self) -> bytes:
        header = f"P5\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.pixels.tobytes()

    @staticmethod
    def from_pgm(data: bytes, seed: int = 0) -> "SyntheticImage":
        if not data.startswith(b"P5"):
            raise InvalidArgumentError("not a binary PGM (P5) file")
        # header: magic, width, height, maxval, then raw pixels
        fields = []
        pos = 2
        while len(fields) < 3:
            while pos < len(data) and data[pos] in b" \t\r\n":
                pos += 1
            if pos < len(data) and data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] not in b"\r\n":
                    pos += 1
                continue
            start = pos
            while pos < len(data) and data[pos] not in b" \t\r\n":
                pos += 1
            if start == pos:
                raise InvalidArgumentError("truncated PGM header")
            fields.append(data[start:pos])
        pos += 1  # single whitespace after maxval
        try:
            width, height, maxval = (int(f) for f in fields)
        except ValueError:
            raise InvalidArgumentError("malformed PGM header")
        if maxval != 255 or width < 1 or height < 1:
            raise InvalidArgumentError("unsupported PGM dimensions or maxval")
        raw = data[pos:pos + width * height]
        if len(raw) != width * height:
            raise InvalidArgumentError("truncated PGM pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
        return SyntheticImage(width, height, pixels.copy(), seed)


class LuxCurve:
    """Monotone piecewise-linear map between bulb command percent and lux.

    The environment reads it forward (`lux_at`) to settle a bulb command; the
    policy reads it backward (`invert`) to pick the command for a setpoint.
    """

    def __init__(self, points):
        pts = [(c, l) for c, l in points]
        if not all(is_number(c, 0.0, 100.0) and is_number(l, 0.0, MAX_ILLUMINANCE)
                   for c, l in pts):
            raise InvalidArgumentError(
                "curve points must be [command, lux] pairs, command in "
                f"[0, 100] and lux in [0, {MAX_ILLUMINANCE:g}]")
        if len(pts) < 2:
            raise InvalidArgumentError("lux curve needs >= 2 points")
        self.points = tuple(sorted((float(c), float(l)) for c, l in pts))
        self.commands = np.array([c for c, _ in self.points])
        self.luxes = np.array([l for _, l in self.points])
        if (np.diff(self.commands) <= 0).any():
            raise InvalidArgumentError("curve commands must be strictly increasing")
        if (np.diff(self.luxes) < 0).any():
            raise InvalidArgumentError("curve lux values must be non-decreasing")

    def __eq__(self, other) -> bool:
        return isinstance(other, LuxCurve) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def lux_at(self, command: float) -> float:
        return float(np.interp(command, self.commands, self.luxes))

    def invert(self, target_lux: float) -> Tuple[float, bool]:
        """Lowest command achieving target_lux.

        If the target exceeds the curve's maximum, returns the lowest command
        achieving that maximum with reachable=False.
        """
        max_lux = float(self.luxes[-1])
        if target_lux > max_lux:
            idx = int(np.argmax(self.luxes >= max_lux))
            return float(np.clip(self.commands[idx], 0.0, 100.0)), False
        if target_lux <= self.luxes[0]:
            return float(np.clip(self.commands[0], 0.0, 100.0)), True
        idx = int(np.searchsorted(self.luxes, target_lux, side="left"))
        lo_l, hi_l = self.luxes[idx - 1], self.luxes[idx]
        lo_c, hi_c = self.commands[idx - 1], self.commands[idx]
        if hi_l == lo_l:
            cmd = lo_c
        else:
            cmd = lo_c + (hi_c - lo_c) * (target_lux - lo_l) / (hi_l - lo_l)
        return float(np.clip(cmd, 0.0, 100.0)), True


DEFAULT_LUX_CURVE = LuxCurve([(0.0, 10.0), (100.0, 1000.0)])


@dataclass
class EnvironmentState:
    regions: dict
    lux_curve: LuxCurve = field(default_factory=lambda: DEFAULT_LUX_CURVE)

    def region(self, region_id: str) -> Region:
        try:
            return self.regions[region_id]
        except KeyError:
            raise NotFoundError(f"unknown region {region_id!r}")


def light_response(lux: float) -> float:
    return min(lux / LIGHT_SATURATION_LUX, 1.0)


def noise_sigma(lux: float, sigma0: float = NOISE_SIGMA0) -> float:
    return sigma0 * math.sqrt(LIGHT_SATURATION_LUX / max(lux, NOISE_LUX_FLOOR))


def texture_field(spec: TextureSpec, width: int, height: int) -> np.ndarray:
    """Reflectance field in [0,1], shape (height, width)."""
    if spec.kind == "flat":
        return np.full((height, width), spec.value)
    xs = np.arange(width)
    ys = np.arange(height)
    if spec.kind == "checkerboard":
        parity = (xs[None, :] // spec.cell + ys[:, None] // spec.cell) % 2
        return np.where(parity == 0, spec.low, spec.high)
    if spec.kind == "stripes":
        parity = np.broadcast_to((xs // spec.cell) % 2, (height, width))
        return np.where(parity == 0, spec.low, spec.high)
    if spec.kind == "speckle":
        block = max(1, int(round(1.0 / spec.frequency)))
        gh = -(-height // block)
        gw = -(-width // block)
        rng = np.random.default_rng(spec.texture_seed)
        grid = rng.uniform(spec.low, spec.high, size=(gh, gw))
        return np.kron(grid, np.ones((block, block)))[:height, :width]
    # marker-grid: random binary cells, a dense fiducial-like background
    rng = np.random.default_rng(spec.texture_seed)
    gh = -(-height // spec.cell)
    gw = -(-width // spec.cell)
    bits = rng.integers(0, 2, size=(gh, gw))
    grid = np.where(bits == 0, spec.low, spec.high)
    return np.kron(grid, np.ones((spec.cell, spec.cell)))[:height, :width]


_PATTERN_SEEDS = {"binary-grid-A": 11, "binary-grid-B": 13,
                  "image-uniform": 17, "image-nonuniform": 19}
_PATTERN_CELL_CACHE: dict = {}


def _pattern_cells(pattern: str) -> np.ndarray:
    """Cell reflectances for a marker pattern, incl. quiet zone and dark frame."""
    cached = _PATTERN_CELL_CACHE.get(pattern)
    if cached is not None:
        return cached
    rng = np.random.default_rng(_PATTERN_SEEDS[pattern])
    if pattern in ("binary-grid-A", "binary-grid-B"):
        payload = np.where(rng.integers(0, 2, size=(6, 6)) == 0, 0.05, 0.95)
    elif pattern == "image-uniform":
        payload = rng.uniform(0.1, 0.9, size=(8, 8))
    else:  # image-nonuniform: features concentrated in the left half
        payload = np.full((8, 8), 0.7)
        payload[:, :4] = rng.uniform(0.05, 0.95, size=(8, 4))
    framed = np.pad(payload, 1, constant_values=0.05)   # dark frame
    cells = np.pad(framed, 1, constant_values=0.95)     # light quiet zone
    _PATTERN_CELL_CACHE[pattern] = cells
    return cells


def marker_reflectance(spec: MarkerSpec, width: int, height: int) -> np.ndarray:
    """Sample the canonical marker pattern onto a width x height raster."""
    cells = _pattern_cells(spec.pattern)
    n = cells.shape[0]
    col = np.minimum((np.arange(width) * n) // width, n - 1)
    row = np.minimum((np.arange(height) * n) // height, n - 1)
    return cells[np.ix_(row, col)]


def marker_patch_size(placement: MarkerPlacement) -> tuple:
    """Rendered (width, height) of the marker patch in scene pixels."""
    side = MARKER_BASE_SIDE_PX[placement.spec.size_index] * (
        MARKER_REFERENCE_DISTANCE_CM / placement.distance_cm)
    h = max(2, int(round(side)))
    w = max(2, int(round(side * math.cos(math.radians(placement.viewing_angle_deg)))))
    return w, h


def render_region(region: Region, camera_seed: int, width: int, height: int,
                  *, sigma0: float = NOISE_SIGMA0) -> SyntheticImage:
    """Image the region under its current illuminance.

    pixel = clip(round(T * 255 * L(lux)) + noise) with seed-deterministic
    Gaussian noise; sigma0=0 disables noise.
    """
    if width < 32 or height < 32:
        raise InvalidArgumentError("render dimensions must be >= 32 px")
    field_ = texture_field(region.texture, width, height)
    if region.marker is not None:
        mw, mh = marker_patch_size(region.marker)
        mw, mh = min(mw, width), min(mh, height)
        patch = marker_reflectance(region.marker.spec, mw, mh)
        y0 = (height - mh) // 2
        x0 = (width - mw) // 2
        field_ = field_.copy()
        field_[y0:y0 + mh, x0:x0 + mw] = patch
    base = np.rint(field_ * 255.0 * light_response(region.illuminance))
    if sigma0 > 0:
        rng = np.random.default_rng(camera_seed)
        noise = rng.normal(0.0, noise_sigma(region.illuminance, sigma0),
                           size=(height, width))
        base = np.rint(base + noise)
    pixels = np.clip(base, 0, 255).astype(np.uint8)
    return SyntheticImage(width, height, pixels, camera_seed)


def read_light_sensor(region: Region, seed: int,
                      *, noise_fraction: float = SENSOR_NOISE_FRACTION) -> float:
    """Ambient light sensor read with +/-noise_fraction multiplicative error."""
    if noise_fraction <= 0:
        return region.illuminance
    rng = np.random.default_rng(seed)
    e = rng.uniform(-noise_fraction, noise_fraction)
    return region.illuminance * (1.0 + e)


def apply_bulb_command(env: EnvironmentState, region_id: str,
                       command: float) -> EnvironmentState:
    """Apply a settled bulb command percent to a region's illuminance.

    Timing (actuation latency) is the caller's concern; the simulator invokes
    this once the latency has elapsed on its clock.
    """
    region = env.region(region_id)
    lux = env.lux_curve.lux_at(command)
    if region.max_lux is not None:
        lux = min(lux, region.max_lux)
    region.illuminance = lux
    return env
