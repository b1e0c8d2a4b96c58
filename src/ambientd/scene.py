"""Procedural indoor scene model: region textures, light-dependent imaging,
and the bulb's command <-> lux curve.

`LuxCurve` is the only command <-> lux curve; `policy.calibrate` fits a
measured sweep (isotonic) and returns one. Actuator latency and the displayed
marker live in the simulator's bulb and E-Ink nodes (`sim.py`).

All randomness is drawn from explicit seeds so renders and sensor reads are
bit-reproducible.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .checks import Checked, integer, is_number, number, one_of, wire
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
class TextureSpec(Checked):
    kind: str = one_of(TEXTURE_KINDS)
    value: float = number(0.0, 1.0, 0.5)    # flat
    low: float = number(0.0, 1.0, 0.1)      # two-tone / speckle range
    high: float = number(0.0, 1.0, 0.9)
    cell: int = integer(1, MAX_CELL_PX, 8)   # checkerboard / stripes / marker-grid, px
    # speckle: blocks per pixel (block side = round(1/frequency))
    frequency: float = number(1.0 / MAX_CELL_PX, default=0.5)
    texture_seed: int = integer(0, default=7)   # speckle / marker-grid realization


@dataclass(frozen=True)
class MarkerSpec(Checked):
    pattern: str = one_of(MARKER_PATTERNS)
    size_index: int = integer(0, 2, 0)


@dataclass(frozen=True)
class MarkerPlacement(Checked):
    # a marker object holds the keys of its spec and of its placement, flat
    spec: MarkerSpec = wire(flat=True)
    distance_cm: float = number(MIN_MARKER_DISTANCE_CM,
                                default=MARKER_REFERENCE_DISTANCE_CM)
    viewing_angle_deg: float = number(0.0, MAX_VIEWING_ANGLE_DEG, 0.0, open_hi=True)


@dataclass
class Region(Checked):
    id: str
    texture: TextureSpec
    illuminance: float = number(0.0, MAX_ILLUMINANCE)
    marker: Optional[MarkerPlacement] = None
    # physical cap; None = uncapped
    max_lux: Optional[float] = number(0.0, MAX_ILLUMINANCE, None, optional=True)


@dataclass(frozen=True)
class SyntheticImage:
    """A camera frame and its binary PGM codec."""
    pixels: np.ndarray  # uint8, shape (height, width), row-major

    def to_pgm(self) -> bytes:
        height, width = self.pixels.shape
        header = f"P5\n{width} {height}\n255\n".encode("ascii")
        return header + self.pixels.tobytes()

    @staticmethod
    def from_pgm(data: bytes) -> "SyntheticImage":
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
        return SyntheticImage(pixels.copy())


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
        # luxes[idx - 1] < target_lux <= luxes[idx], so the segment rises
        idx = int(np.searchsorted(self.luxes, target_lux, side="left"))
        lo_l, hi_l = self.luxes[idx - 1], self.luxes[idx]
        lo_c, hi_c = self.commands[idx - 1], self.commands[idx]
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
    # speckle: uniform cells of side round(1 / frequency); marker-grid:
    # random binary cells of side `cell`, a dense fiducial-like background
    rng = np.random.default_rng(spec.texture_seed)
    speckle = spec.kind == "speckle"
    block = max(1, int(round(1.0 / spec.frequency))) if speckle else spec.cell
    shape = (-(-height // block), -(-width // block))
    grid = (rng.uniform(spec.low, spec.high, size=shape) if speckle else
            np.where(rng.integers(0, 2, size=shape) == 0, spec.low, spec.high))
    return np.kron(grid, np.ones((block, block)))[:height, :width]


_PATTERN_SEEDS = {"binary-grid-A": 11, "binary-grid-B": 13,
                  "image-uniform": 17, "image-nonuniform": 19}


@functools.cache
def _pattern_cells(pattern: str) -> np.ndarray:
    """Cell reflectances for a marker pattern, incl. quiet zone and dark frame."""
    rng = np.random.default_rng(_PATTERN_SEEDS[pattern])
    if pattern in ("binary-grid-A", "binary-grid-B"):
        payload = np.where(rng.integers(0, 2, size=(6, 6)) == 0, 0.05, 0.95)
    elif pattern == "image-uniform":
        payload = rng.uniform(0.1, 0.9, size=(8, 8))
    else:  # image-nonuniform: features concentrated in the left half
        payload = np.full((8, 8), 0.7)
        payload[:, :4] = rng.uniform(0.05, 0.95, size=(8, 4))
    framed = np.pad(payload, 1, constant_values=0.05)   # dark frame
    return np.pad(framed, 1, constant_values=0.95)      # light quiet zone


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


# Noise-free frames kept by _noise_free_frame. One uint8 frame of 320x240
# takes 76.8 KB, so the cache holds at most 1.2 MB at that size.
RENDER_CACHE_FRAMES = 16


@functools.lru_cache(maxsize=RENDER_CACHE_FRAMES)
def _noise_free_frame(texture: TextureSpec, marker: Optional[MarkerPlacement],
                      illuminance: float, width: int, height: int) -> np.ndarray:
    """round(T * 255 * L(lux)) as a read-only uint8 frame. Every value is an
    integer in [0, 255], so uint8 holds it exactly."""
    field_ = texture_field(texture, width, height)
    if marker is not None:
        mw, mh = marker_patch_size(marker)
        mw, mh = min(mw, width), min(mh, height)
        y0 = (height - mh) // 2
        x0 = (width - mw) // 2
        field_[y0:y0 + mh, x0:x0 + mw] = marker_reflectance(marker.spec, mw, mh)
    base = field_ * 255.0
    base *= light_response(illuminance)
    frame = np.rint(base, out=base).astype(np.uint8)
    frame.flags.writeable = False
    return frame


def render_region(region: Region, camera_seed: int, width: int, height: int,
                  *, sigma0: float = NOISE_SIGMA0) -> SyntheticImage:
    """Image the region under its current illuminance.

    pixel = clip(round(T * 255 * L(lux)) + noise) with seed-deterministic
    Gaussian noise; sigma0=0 disables noise. The noise-free frame comes from
    an LRU cache of RENDER_CACHE_FRAMES entries keyed by (texture, marker
    placement, illuminance, width, height), 1.2 MB at 320x240, so a tick on
    an unchanged region costs one noise draw. A scenario with more regions
    than entries evicts each frame before its region's next tick and
    re-renders it every tick.
    """
    if width < 32 or height < 32:
        raise InvalidArgumentError("render dimensions must be >= 32 px")
    frame = _noise_free_frame(region.texture, region.marker,
                              region.illuminance, width, height)
    if sigma0 > 0:
        rng = np.random.default_rng(camera_seed)
        pixels = rng.normal(0.0, noise_sigma(region.illuminance, sigma0),
                            size=(height, width))
        pixels += frame
        np.rint(pixels, out=pixels)
        return SyntheticImage(
            np.clip(pixels, 0, 255, out=pixels).astype(np.uint8))
    return SyntheticImage(frame.copy())


def read_light_sensor(region: Region, seed: int,
                      *, noise_fraction: float = SENSOR_NOISE_FRACTION) -> float:
    """Ambient light sensor read with +/-noise_fraction multiplicative error."""
    if noise_fraction <= 0:
        return region.illuminance
    rng = np.random.default_rng(seed)
    e = rng.uniform(-noise_fraction, noise_fraction)
    return region.illuminance * (1.0 + e)


def apply_bulb_command(env: EnvironmentState, region_id: str,
                       command: float) -> None:
    """Apply a settled bulb command percent to a region's illuminance.

    Timing (actuation latency) is the caller's concern; the simulator invokes
    this once the latency has elapsed on its clock.
    """
    region = env.region(region_id)
    lux = env.lux_curve.lux_at(command)
    if region.max_lux is not None:
        lux = min(lux, region.max_lux)
    region.illuminance = lux
