"""Marker matching pipeline: crop the scene to the marker ROI, rescale it to
the reference frame, and score matched features against the reference marker
render.

The reference descriptors are produced by the exact same crop/rescale/blur
path as scene crops, so the match percentage measures how much of the marker's
feature content survives the viewing conditions rather than pipeline bias.
"""
from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy import ndimage

from .characterize import (MatchReport, ROI_MARGIN_PX,
                           crop_to_marker_roi, detect_fast_corners,
                           extract_descriptors, match_against_reference)
from .scene import MarkerSpec, SyntheticImage, marker_reflectance

REFERENCE_SIDE_PX = 200
DEFAULT_MATCH_FAST_THRESHOLD = 15
# Pre-description blur; stabilizes comparisons across rescale quantization.
DESCRIBE_BLUR_PX = 13

# read-only (M, 32) descriptor rows per (spec, FAST threshold)
_REFERENCE_CACHE: Dict[Tuple[MarkerSpec, int], np.ndarray] = {}


def resize_bilinear(image: SyntheticImage, width: int, height: int) -> SyntheticImage:
    sy = image.height / height
    sx = image.width / width
    yy = (np.arange(height) + 0.5) * sy - 0.5
    xx = (np.arange(width) + 0.5) * sx - 0.5
    grid = np.meshgrid(yy, xx, indexing="ij")
    out = ndimage.map_coordinates(image.pixels.astype(np.float64), grid,
                                  order=1, mode="nearest")
    return SyntheticImage(width, height,
                          np.clip(np.rint(out), 0, 255).astype(np.uint8),
                          image.seed)


def normalize_contrast(image: SyntheticImage) -> SyntheticImage:
    """Percentile stretch to the full 8-bit range."""
    p = image.pixels.astype(np.float64)
    lo, hi = np.percentile(p, (2.0, 98.0))
    if hi - lo < 1.0:
        return image
    stretched = np.clip((p - lo) * (255.0 / (hi - lo)), 0, 255)
    return SyntheticImage(image.width, image.height,
                          np.rint(stretched).astype(np.uint8), image.seed)


def _box_blur(image: SyntheticImage, size: int) -> SyntheticImage:
    p = ndimage.uniform_filter(image.pixels.astype(np.float64), size)
    return SyntheticImage(image.width, image.height,
                          np.clip(np.rint(p), 0, 255).astype(np.uint8),
                          image.seed)


def _strip_roi_margin(roi: SyntheticImage, full: SyntheticImage) -> SyntheticImage:
    """Undo the fixed crop margin so crops of different sizes share scale."""
    m = ROI_MARGIN_PX
    if roi.width >= full.width and roi.height >= full.height:
        return roi
    if roi.width <= 2 * m + 8 or roi.height <= 2 * m + 8:
        return roi
    return SyntheticImage(roi.width - 2 * m, roi.height - 2 * m,
                          roi.pixels[m:-m, m:-m].copy(), roi.seed)


def _scene_descriptors(image: SyntheticImage, threshold: int) -> np.ndarray:
    roi = crop_to_marker_roi(image)
    roi = _strip_roi_margin(roi, image)
    roi = resize_bilinear(roi, REFERENCE_SIDE_PX, REFERENCE_SIDE_PX)
    roi = normalize_contrast(roi)
    roi = _box_blur(roi, DESCRIBE_BLUR_PX)
    corners = detect_fast_corners(roi, threshold)
    return extract_descriptors(roi, corners)


def render_marker_reference(spec: MarkerSpec) -> SyntheticImage:
    side = REFERENCE_SIDE_PX
    refl = marker_reflectance(spec, side, side)
    pixels = np.clip(np.rint(refl * 255.0), 0, 255).astype(np.uint8)
    return SyntheticImage(side, side, pixels, 0)


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


def match_marker(scene_image: SyntheticImage, spec: MarkerSpec,
                 threshold: int = DEFAULT_MATCH_FAST_THRESHOLD) -> MatchReport:
    """ROI crop, rescale to the reference frame, contrast normalization,
    feature extraction, mutual-NN matching against the reference marker."""
    scene = _scene_descriptors(scene_image, threshold)
    return match_against_reference(scene, reference_descriptors(spec, threshold))
