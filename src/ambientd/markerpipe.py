"""Marker matching pipeline: crop the scene to the marker ROI, rescale it to
the reference frame, and score matched features against the reference marker
render.

The reference descriptors are produced by the exact same crop/rescale/blur
path as scene crops, so the match percentage measures how much of the marker's
feature content survives the viewing conditions rather than pipeline bias.
"""
from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .characterize import (MatchReport, box_sums, crop_to_marker_roi,
                           detect_fast_corners, extract_descriptors,
                           match_against_reference, strip_roi_margin)
from .errors import InvalidArgumentError
from .scene import MarkerSpec, marker_reflectance

REFERENCE_SIDE_PX = 200
DEFAULT_MATCH_FAST_THRESHOLD = 15
# the largest threshold at which the reference render of every pattern and
# size still has descriptors; at 25 image-nonuniform has none
MAX_MATCH_FAST_THRESHOLD = 24
# Pre-description blur; stabilizes comparisons across rescale quantization.
DESCRIBE_BLUR_PX = 13

# read-only (M, 32) descriptor rows per (spec, FAST threshold)
_REFERENCE_CACHE: Dict[Tuple[MarkerSpec, int], np.ndarray] = {}


def _axis_taps(n_in: int, n_out: int):
    """Source taps and weights of one axis of `map_coordinates(order=1,
    mode="nearest")`: the weights come from the unclipped coordinate, the
    indices are clamped to the axis."""
    c = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(c)
    t = c - i0
    i0 = i0.astype(np.intp)
    return (np.clip(i0, 0, n_in - 1), np.clip(i0 + 1, 0, n_in - 1), 1.0 - t, t)


def resize_bilinear(image: np.ndarray, width: int, height: int) -> np.ndarray:
    """Bilinear resample on pixel centres, edges clamped. Each output pixel
    is `(a*wy0)*wx0 + (b*wy0)*wx1 + (c*wy1)*wx0 + (d*wy1)*wx1` summed left to
    right, the float64 operations of ndimage's `map_coordinates(order=1,
    mode="nearest")`, so the two agree to the byte."""
    y0, y1, wy0, wy1 = _axis_taps(image.shape[0], height)
    x0, x1, wx0, wx1 = _axis_taps(image.shape[1], width)
    # uint8 rows times float64 weights: the same products as float64 rows
    top = np.take(image, y0, axis=0) * wy0[:, None]
    bottom = np.take(image, y1, axis=0) * wy1[:, None]
    out = np.take(top, x0, axis=1) * wx0
    for rows, cols, wx in ((top, x1, wx1), (bottom, x0, wx0), (bottom, x1, wx1)):
        out += np.take(rows, cols, axis=1) * wx
    return np.clip(np.rint(out, out=out), 0, 255, out=out).astype(np.uint8)


def _percentile_of_counts(below: np.ndarray, q: float) -> float:
    """`np.percentile(values, q)` ("linear" method) of the 8-bit values
    whose cumulative histogram is `below` (below[v] = count of values <= v),
    with numpy's own index, gamma and lerp arithmetic."""
    n = int(below[-1])
    index = (n - 1) * (q / 100.0)
    lo_rank = math.floor(index)
    gamma = index - lo_rank
    if index >= n - 1:
        lo_rank = n - 1
    hi_rank = min(lo_rank + 1, n - 1)
    a, b = np.searchsorted(below, (lo_rank, hi_rank), side="right")
    a, b = np.float64(a), np.float64(b)
    diff = b - a
    if gamma >= 0.5:
        return float(b - diff * (1.0 - gamma))
    return float(a + diff * gamma)


_LEVELS = np.arange(256, dtype=np.float64)


def normalize_contrast(image: np.ndarray) -> np.ndarray:
    """Percentile stretch to the full 8-bit range.

    The 2nd and 98th percentiles come from the cumulative 8-bit histogram and
    the stretch is a 256-entry table of the same float formula, so the result
    equals the per-pixel float stretch."""
    below = np.cumsum(np.bincount(image.ravel(), minlength=256))
    lo = _percentile_of_counts(below, 2.0)
    hi = _percentile_of_counts(below, 98.0)
    if hi - lo < 1.0:
        return image
    stretched = np.clip((_LEVELS - lo) * (255.0 / (hi - lo)), 0, 255)
    lut = np.rint(stretched).astype(np.uint8)
    return np.take(lut, image)


def _box_blur(image: np.ndarray, size: int) -> np.ndarray:
    """Rounded mean over a size x size window, edges mirrored (d c b a | a b
    c d), as ndimage's `uniform_filter` in its default "reflect" mode.

    The window sum S is an exact integer and the result is S / n rounded
    half up, n = size**2. For odd n, S / n is never a tie and lies at least
    1/(2n) from one, far beyond a float filter's error, so the two agree.
    S and S + n // 2 fit in uint16 up to size 15 (15**2 * 255 = 57 375).
    """
    if not (1 <= size <= 15 and size % 2):
        raise InvalidArgumentError("blur size must be an odd integer from 1 to 15")
    p = np.pad(image, size // 2, mode="symmetric").astype(np.uint16)
    s = box_sums(p, size)
    n = size * size
    s += np.uint16(n // 2)
    s //= np.uint16(n)
    return s.astype(np.uint8)


def _scene_descriptors(image: np.ndarray, threshold: int) -> np.ndarray:
    roi = strip_roi_margin(crop_to_marker_roi(image), image)
    roi = resize_bilinear(roi, REFERENCE_SIDE_PX, REFERENCE_SIDE_PX)
    roi = normalize_contrast(roi)
    roi = _box_blur(roi, DESCRIBE_BLUR_PX)
    corners = detect_fast_corners(roi, threshold)
    return extract_descriptors(roi, corners)


def render_marker_reference(spec: MarkerSpec) -> np.ndarray:
    side = REFERENCE_SIDE_PX
    refl = marker_reflectance(spec, side, side)
    return np.clip(np.rint(refl * 255.0), 0, 255).astype(np.uint8)


def reference_descriptors(spec: MarkerSpec,
                          threshold: int = DEFAULT_MATCH_FAST_THRESHOLD
                          ) -> np.ndarray:
    key = (spec, threshold)
    cached = _REFERENCE_CACHE.get(key)
    if cached is None:
        cached = _scene_descriptors(render_marker_reference(spec), threshold)
        cached.flags.writeable = False
        _REFERENCE_CACHE[key] = cached
    return cached


def match_marker(scene_image: np.ndarray, spec: MarkerSpec,
                 threshold: int = DEFAULT_MATCH_FAST_THRESHOLD) -> MatchReport:
    """ROI crop, rescale to the reference frame, contrast normalization,
    feature extraction, mutual-NN matching against the reference marker."""
    scene = _scene_descriptors(scene_image, threshold)
    return match_against_reference(scene, reference_descriptors(spec, threshold))
