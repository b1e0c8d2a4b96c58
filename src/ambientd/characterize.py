"""Environment characterization: image metrics, FAST corners, binary
descriptors, marker matching, ROI cropping, texture classification and
scene-change detection.

Images travel as (H, W) uint8 arrays, corners as an (N, 3) int array of
(x, y, score) rows, descriptors as an (M, 32) uint8 array of packed 256-bit
rows.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .checks import Checked, integer, number
from .errors import InvalidArgumentError
from .scene import MAX_ILLUMINANCE

# a read of the brightest region with 100 % sensor noise; keeps trend sums finite
MAX_LUX = 2 * MAX_ILLUMINANCE
FAST_DEFAULT_THRESHOLD = 20
FINE_TEXTURE_CORNER_THRESHOLD = 250

DESCRIPTOR_BITS = 256
DESCRIPTOR_PATTERN_SEED = 0x5EED
DESCRIPTOR_PATCH_HALF = 15       # 31x31 sampling patch
_SMOOTH_HALF = 2                 # 5x5 box filter
MATCH_HAMMING_THRESHOLD = 64

SCENE_CHANGE_BRIGHTNESS_DELTA = 15.0
SCENE_CHANGE_EDGE_RATIO = 0.5
SCENE_CHANGE_CORNER_DELTA = 100

ROI_MIN_COMPONENT_AREA = 100
ROI_MARGIN_PX = 4

# 16-pixel Bresenham circle of radius 3, clockwise from the top pixel.
FAST_CIRCLE = ((0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2),
               (1, 3), (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1),
               (-2, -2), (-1, -3))
FAST_ARC_LENGTH = 9


class TextureClass(enum.Enum):
    COARSE = "Coarse"
    FINE = "Fine"


@dataclass(frozen=True)
class MatchReport:
    matched: int
    reference_total: int

    @property
    def percentage(self) -> float:
        return 100.0 * self.matched / self.reference_total


@dataclass
class ImageMetrics(Checked):
    brightness: float = number()
    contrast: float = number()
    edge_strength: float = number()
    corner_count: int = integer(0)
    # a log line holds it, null or not
    illuminance: Optional[float] = number(0.0, MAX_LUX, None, optional=True,
                                          required=True)


METRIC_NAMES = tuple(f.name for f in fields(ImageMetrics))


def compute_metrics(image: np.ndarray, lux: Optional[float] = None) -> ImageMetrics:
    if min(image.shape) < 32:
        raise InvalidArgumentError("image must be at least 32x32")
    H, W = image.shape
    # exact integer sums keep the results reproducible to the bit
    n = image.size
    s1 = int(image.sum(dtype=np.int64))
    # 255 * 255 fits in uint16
    s2 = int(np.multiply(image, image, dtype=np.uint16).sum(dtype=np.int64))
    brightness = s1 / n
    contrast = math.sqrt(max(s2 / n - brightness * brightness, 0.0))
    # 8-neighbour Laplacian (center 8, neighbours -1), valid region only:
    # 9 * center less the 3x3 box sum; 9 * 255 fits in int16, a square not
    a = image.astype(np.int16)
    lap = np.int16(9) * a[1:-1, 1:-1]
    lap -= box_sums(a, 3)
    lap = lap.astype(np.int64).ravel()
    ln = (H - 2) * (W - 2)
    l1 = int(lap.sum())
    l2 = int(lap @ lap)
    lap_mean = l1 / ln
    edge_strength = l2 / ln - lap_mean * lap_mean
    corners = detect_fast_corners(image, FAST_DEFAULT_THRESHOLD)
    return ImageMetrics(brightness, contrast, edge_strength, len(corners), lux)


def _runs(a: np.ndarray, k: int, offsets) -> list:
    """One contiguous run of the flat (row-major) frame a per flat offset
    dy*W + dx. Entry j of every run stands for pixel k*W + k + j and holds
    the pixel that offset away from it. The entries stand for the pixels
    from (k, k) to (H-k-1, W-k-1) in scan order: every pixel >= k px inside
    the frame and, between two rows, those within k px of a side edge,
    whose offsets with dx != 0 wrap into the next or the previous row."""
    W = a.shape[1]
    flat = a.ravel()
    lo = k * W + k
    hi = flat.size - lo
    return [flat[lo + off:hi + off] for off in offsets]


def _clear_wrapped(run: np.ndarray, W: int, k: int) -> None:
    """Zero the entries of a run of _runs(a, k, ...) that stand for pixels
    within k px of a side edge: 2k per row boundary, from column W-k of one
    row to column k-1 of the next."""
    run[W - 2 * k:].reshape(-1, W)[:, :2 * k] = 0


def _arc_table() -> np.ndarray:
    """Entry m: does the 16-bit circle mask m hold a circular run of >=
    FAST_ARC_LENGTH set bits? A run survives bit reversal."""
    ring = np.arange(1 << 16, dtype=np.uint32) * 0x10001      # m | m << 16
    run = np.bitwise_and.reduce([ring >> k for k in range(FAST_ARC_LENGTH)])
    return (run & 0xFFFF) != 0


_ARC = _arc_table()


def detect_fast_corners(image: np.ndarray, threshold: int) -> np.ndarray:
    """FAST-9 segment-test corners with 3x3 non-max suppression.

    Returns an (N, 3) int array of (x, y, score) rows in row-major order.
    Score is the sum of |circle - center| over circle pixels beyond the
    threshold in the qualifying polarity. Ties in suppression resolve in
    row-major scan order (earlier pixel wins).

    Any 9-pixel arc of the 16-pixel circle holds two adjacent cardinal
    points (FAST_CIRCLE[0], [4], [8], [12]) beyond the threshold in the
    arc's polarity: the high-speed test of Rosten & Drummond, "Machine
    learning for high-speed corner detection" (ECCV 2006). That pair test
    runs on every pixel; only its candidates can be corners. The full test
    packs the brighter and darker results for the 16 circle offsets into
    16-bit masks, which a 65 536-entry table checks for a 9-pixel arc. It
    runs on the gathered candidates only, or on every pixel as runs of the
    flat frame when more than two fifths of the pixels are candidates. The
    sparse plan gathers the candidates' circle pixels into one (16, n)
    int16 block and runs each step of the test as one array call over it.
    The pair test, the dense plan and the suppression each run a ufunc per
    offset over one contiguous run of the flat frame, and clear the pixels
    whose neighbours wrap across a side edge once. Measured on a 2-core
    Xeon VM with numpy 2.4, as the median of 15 interleaved rounds in
    three batches: the two plans break even at 42-44 % candidates on
    320x240 speckle frames, and the sparse plan takes 1.03-1.10 times the
    dense plan's time at 45 %; it takes 0.3-0.35 of it on marker ROIs (11 %
    candidates) and over 3 times it on speckle at 81 %.
    """
    if threshold < 1:
        raise InvalidArgumentError("threshold must be >= 1")
    H, W = image.shape
    # |circle - center| <= 255, so no pixel passes a threshold of 255
    if H < 7 or W < 7 or threshold >= 255:
        return np.empty((0, 3), np.intp)
    a = image.astype(np.int16)
    candidates = _cardinal_candidates(a, threshold)
    count = np.count_nonzero(candidates)
    if count == 0:      # a flat or dark ROI
        return np.empty((0, 3), np.intp)
    if count * 5 > (H - 6) * (W - 6) * 2:
        return _suppress(_dense_scores(a, threshold))
    return _suppress(_sparse_scores(a, threshold, candidates))


def _suppress(score: np.ndarray) -> np.ndarray:
    """(x, y, score) rows of the 3x3 maxima of an (H, W) score plane whose
    scores are >= 0, and > 0 only >= 3 px inside the frame."""
    W = score.shape[1]
    # one run over every pixel with 8 neighbours per offset of the 3x3 box,
    # in scan order; a pixel of the first or last column sees wrapped
    # neighbours, but it scores 0, and 0 never wins
    box = [dy * W + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    neighbours = _runs(score, 1, box)
    center = neighbours.pop(4)
    keep = np.ones(center.shape, dtype=bool)
    beats = np.empty(center.shape, dtype=bool)
    for i, pixel in enumerate(neighbours):
        # the 4 earlier pixels win ties
        (np.greater if i < 4 else np.greater_equal)(center, pixel, out=beats)
        keep &= beats
    idx = np.flatnonzero(keep)
    idx += W + 1
    ys, xs = np.divmod(idx, W)
    return np.stack([xs, ys, score.ravel()[idx]], axis=1)


def _cardinal_candidates(a: np.ndarray, threshold: int) -> np.ndarray:
    """Pixels >= 3 px inside the frame with two adjacent cardinal points
    beyond the threshold in one polarity: ([0] or [8]) and ([4] or [12]).
    A bool run over the pixels of _runs(a, 3, ...), the wrapped ones
    clear."""
    W = a.shape[1]
    center, top, right, bottom, left = _runs(
        a, 3, (0, -3 * W, 3, 3 * W, -3))
    # two int16 and two bool runs, reused across both polarities
    bound = center + np.int16(threshold)
    either = np.maximum(top, bottom)
    out = either > bound
    np.maximum(right, left, out=either)
    out &= either > bound
    np.subtract(center, np.int16(threshold), out=bound)
    np.minimum(top, bottom, out=either)
    dark = either < bound
    np.minimum(right, left, out=either)
    dark &= either < bound
    out |= dark
    _clear_wrapped(out, W, 3)
    return out


def _segment_scores(circle, center: np.ndarray, threshold: int) -> np.ndarray:
    """Segment-test score at each center; circle yields the 16 circle
    pixels of every center in FAST_CIRCLE order."""
    bright, dark = np.zeros((2,) + center.shape, dtype=np.uint16)
    bright_sum, dark_sum = np.zeros((2,) + center.shape, dtype=np.int16)
    # buffers reused across the 16 offsets; hit holds 0 or 1
    d, part, hit = np.empty((3,) + center.shape, dtype=np.int16)
    for pixel in circle:
        np.subtract(pixel, center, out=d)
        for mask, total, test, bound in (
                (bright, bright_sum, np.greater, np.int16(threshold)),
                (dark, dark_sum, np.less, np.int16(-threshold))):
            test(d, bound, out=hit)
            mask += mask      # a shift by one, faster than <<= on uint16
            mask |= hit.view(np.uint16)
            np.multiply(d, hit, out=part)
            total += part     # |total| <= 16 * 255 fits in int16
    # no pixel has 9 of its 16 circle pixels in both polarities
    bright_sum *= np.take(_ARC, bright)
    dark_sum *= np.take(_ARC, dark)
    bright_sum -= dark_sum
    return bright_sum


def _circle_offsets(W: int) -> list:
    """Flat offsets of the FAST_CIRCLE pixels in a frame W px wide."""
    return [dy * W + dx for dx, dy in FAST_CIRCLE]


def _dense_scores(a: np.ndarray, threshold: int) -> np.ndarray:
    """(H, W) score plane from the segment test on every pixel."""
    H, W = a.shape
    center, *circle = _runs(a, 3, [0] + _circle_offsets(W))
    score = np.zeros((H, W), dtype=np.int16)
    run, = _runs(score, 3, (0,))
    run[:] = _segment_scores(circle, center, threshold)
    _clear_wrapped(run, W, 3)
    return score


# bit 15 - k of a circle mask holds circle pixel k, as in _segment_scores
_CIRCLE_BITS = np.left_shift(np.uint16(1),
                             np.arange(15, -1, -1, dtype=np.uint16))[:, None]


def _sparse_scores(a: np.ndarray, threshold: int,
                   candidates: np.ndarray) -> np.ndarray:
    """(H, W) score plane from the segment test on the candidates only.

    The candidates' 16 circle pixels minus their centers form one (16, n)
    int16 block, so each step of the test is one array call over it."""
    H, W = a.shape
    idx = np.flatnonzero(candidates)
    center, *circle = _runs(a, 3, [0] + _circle_offsets(W))
    d = np.empty((len(circle), idx.size), dtype=np.int16)
    for row, run in zip(d, circle):
        # every index is in bounds; "raise", the default, buffers out=
        np.take(run, idx, out=row, mode="clip")
    d -= np.take(center, idx)
    # (16, n) buffers reused across both polarities; hit holds 0 or 1
    hit = np.empty(d.shape, dtype=bool)
    part = np.empty(d.shape, dtype=np.int16)
    bits = part.view(np.uint16)
    totals = []
    for test, bound in ((np.greater, threshold), (np.less, -threshold)):
        test(d, np.int16(bound), out=hit)
        np.multiply(d, hit, out=part)
        total = part.sum(axis=0, dtype=np.int16)    # |total| <= 16 * 255
        np.multiply(hit, _CIRCLE_BITS, out=bits)
        total *= np.take(_ARC, np.bitwise_or.reduce(bits, axis=0))
        totals.append(total)
    score = np.zeros((H, W), dtype=np.int16)
    run, = _runs(score, 3, (0,))
    # no pixel has 9 of its 16 circle pixels in both polarities
    run[idx] = totals[0] - totals[1]
    return score


# 256 fixed (ax, ay, bx, by) offsets drawn from a seeded uniform
_DESCRIPTOR_PAIRS = np.random.default_rng(DESCRIPTOR_PATTERN_SEED).integers(
    -DESCRIPTOR_PATCH_HALF, DESCRIPTOR_PATCH_HALF + 1, size=(DESCRIPTOR_BITS, 4))


def _run_sums(flat: np.ndarray, size: int, step: int, out: np.ndarray) -> None:
    """out[j] = the sum of flat[j + k*step] for k < size, from blocks of 1,
    2, 4, ... terms: one add per bit of size and one per doubling."""
    n_out = out.size
    offset, block, width = 0, flat, step
    while size:
        if size & 1:
            part = block[offset:offset + n_out]
            if offset:
                out += part
            else:
                np.copyto(out, part)
            offset += width
        size >>= 1
        if size:
            block = block[:-width] + block[width:]
            width *= 2


def box_sums(a: np.ndarray, size: int) -> np.ndarray:
    """Sums over every size x size window of a 2-D array, in its dtype:
    entry [y, x] covers a[y:y+size, x:x+size]. Both passes run on
    contiguous runs of the flat (row-major) array: a stride-W pass adds
    size rows, then a stride-1 pass adds size neighbours along the result,
    also across row ends; the final reshape drops those wrapped columns."""
    H, W = a.shape
    rows = H - size + 1
    flat = a.ravel()
    tall = np.empty(rows * W, dtype=a.dtype)
    _run_sums(flat, size, W, tall)
    out = np.empty(rows * W, dtype=a.dtype)
    _run_sums(tall, size, 1, out[:out.size - size + 1])
    return out.reshape(rows, W)[:, :W - size + 1]


def extract_descriptors(image: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """256-bit intensity-comparison descriptors over a box-smoothed patch.

    bit_i = 1 iff smoothed(a_i) < smoothed(b_i), strictly. Returns an (M, 32)
    uint8 array, one packed row per usable corner in input order; corners too
    close to the border for the full smoothed patch are skipped.
    """
    H, W = image.shape
    margin = DESCRIPTOR_PATCH_HALF + _SMOOTH_HALF
    cx, cy = corners[:, 0], corners[:, 1]
    usable = ((margin <= cx) & (cx < W - margin)
              & (margin <= cy) & (cy < H - margin))
    cx, cy = cx[usable], cy[usable]
    if cx.size == 0:
        return np.empty((0, DESCRIPTOR_BITS // 8), np.uint8)
    # exact integer 5x5 box sums (25 * 255 fits in uint16): box[y, x]
    # covers pixels [y, y+4] x [x, x+4], the window centered at (x+2, y+2)
    side = 2 * _SMOOTH_HALF + 1
    box = box_sums(image.astype(np.uint16), side)
    # flat indices into the box sums: each corner's window, plus each
    # pair's offset from it
    bw = box.shape[1]
    at = np.ravel_multi_index((cy - _SMOOTH_HALF, cx - _SMOOTH_HALF),
                              box.shape)[:, None]
    pairs = _DESCRIPTOR_PAIRS
    sums = box.ravel()
    bits = (np.take(sums, at + (pairs[:, 1] * bw + pairs[:, 0]))
            < np.take(sums, at + (pairs[:, 3] * bw + pairs[:, 2])))
    return np.packbits(bits, axis=1)


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int32)


def match_against_reference(scene: np.ndarray,
                            reference: np.ndarray) -> MatchReport:
    """Mutual-nearest-neighbour Hamming matching of descriptor rows against
    the reference rows; argmin ties go to the lowest index.

    Scene rows are sorted by their bytes first, so the report is invariant
    under permutation of the scene rows: rows with equal bytes have equal
    distances, so their order among themselves cannot change the count.
    """
    if len(reference) == 0:
        raise InvalidArgumentError("reference descriptor set is empty")
    if len(scene) == 0:
        return MatchReport(0, len(reference))
    # lexsort keys run last-to-first: column 0 is the primary key
    scene = scene[np.lexsort(scene.T[::-1])]
    dist = _POPCOUNT[scene[:, None, :] ^ reference[None, :, :]].sum(axis=2)
    nn_of_scene = dist.argmin(axis=1)
    nn_of_ref = dist.argmin(axis=0)
    mutual = nn_of_ref[nn_of_scene] == np.arange(len(scene))
    close = dist.min(axis=1) <= MATCH_HAMMING_THRESHOLD
    return MatchReport(int(np.count_nonzero(mutual & close)), len(reference))


def _bimodal_threshold(pixels: np.ndarray) -> float:
    """Mean-of-class-means threshold iterated to fixpoint.

    Initialized at the midpoint of the intensity range; a mean init collapses
    into the dominant mode when the background covers most of the image. On
    the 8-bit histogram the class sums are exact integers, so each class mean
    is the same correctly rounded quotient as a mean over the pixels.
    """
    hist = np.bincount(pixels.ravel(), minlength=256)
    # below[k], below_sum[k]: count and sum of the pixels < k
    below = [0] + np.cumsum(hist).tolist()
    below_sum = [0] + np.cumsum(hist * np.arange(256)).tolist()
    n, total = below[256], below_sum[256]
    t = (float(pixels.min()) + float(pixels.max())) / 2.0
    for _ in range(100):
        k = math.ceil(t)                 # integer p < t  <=>  p < ceil(t)
        n_lo, s_lo = below[k], below_sum[k]
        if n_lo in (0, n):
            return t
        t_new = (s_lo / n_lo + (total - s_lo) / (n - n_lo)) / 2.0
        if abs(t_new - t) < 0.5:
            return t_new
        t = t_new
    return t


def _largest_component(mask: np.ndarray):
    """Area and bounding box (y0, y1, x0, x1, ends exclusive) of the largest
    8-connected component of a 2-D bool mask, or None when it is empty.

    Run-based labelling after He, Chao & Suzuki (IEEE TIP 2008): the nodes
    are the runs of set pixels along each row, joined to the runs they touch
    in the next row, diagonals included. Union-find hooks the larger root to
    the smaller, so every root ends as its component's first run in raster
    order and an area tie goes to the component that starts first, as with
    the first maximum over `ndimage.label`'s labels.

    A table of how many runs end before each position, written as one block
    fill per run, gives each run its first toucher above and below. Each run
    hangs on its toucher above; that forest is less than H deep, so
    (H - 1).bit_length() pointer jumps (Shiloach & Vishkin, 1982) reach every
    root. The merges run on the forest's roots only, and one gather relabels
    every run. Measured on a 2-core Xeon VM with numpy 2.4 over the 36 masks
    of a marker_sweep unit: where the threshold splits sensor noise (20
    masks, 12 900-18 900 runs) a call takes 1.2-1.4 ms, against 2.2-2.5 ms
    with a binary search per toucher and jumps over every run until none
    moves; a clean mask takes 0.1 ms either way.
    """
    H, W = mask.shape
    stride = W + 1
    # rows of stride W + 1 end in a clear pixel, so no run crosses a row;
    # flat[k + 1] holds pixel k of the strided copy, flat[0] is clear
    flat = np.zeros(H * stride + 1, dtype=bool)
    flat[1:].reshape(H, stride)[:, :W] = mask
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    if edges.size == 0:
        return None
    start, end = edges[0::2], edges[1::2]          # end is exclusive
    runs = np.arange(start.size)
    # ends_before[p]: the number of runs that end before position p
    ends_before = np.repeat(np.arange(runs.size + 1), np.diff(
        end, prepend=-1, append=flat.size + stride - 1))
    # above[k] (below[k]): the first run of the row above (below) run k
    # that reaches the column left of k's first pixel; it touches k if it
    # also starts at or left of the column right of k's last pixel
    above = ends_before[np.maximum(start - stride, 0)]
    below = ends_before[start + stride]
    first_start = np.append(start, H * stride + stride)
    # touching runs of two rows never cross, so every touching pair is a
    # (first toucher above, run) or a (run, first toucher below) pair
    root = np.where(first_start[above] <= end - stride, above, runs)
    for _ in range((H - 1).bit_length()):          # parents lie one row up
        root = root[root]
    # where below[k] is runs.size k merges nothing; the clip keeps it in bounds
    root_below = np.take(root, below, mode="clip")
    cross = np.flatnonzero((first_start[below] <= end + stride)
                           & (root != root_below))
    # union-find on the forest's roots, numbered in raster order
    tops = np.flatnonzero(root == runs)
    top_of = np.zeros_like(runs)
    top_of[tops] = parent = np.arange(tops.size)
    a, b = top_of[root[cross]], top_of[root_below[cross]]
    while a.size:
        # of several hooks onto one root one lands; the others cross again
        parent[np.maximum(a, b)] = np.minimum(a, b)
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        keep = parent[a] != parent[b]
        a, b = parent[a[keep]], parent[b[keep]]
    root[tops] = tops[parent]
    root = root[root]
    area = np.bincount(root, weights=end - start)
    best = int(area.argmax())
    member = root == best
    rows = start[member] // stride
    top = rows * stride
    return (int(area[best]), int(rows[0]), int(rows[-1]) + 1,
            int((start[member] - top).min()), int((end[member] - top).max()))


def crop_to_marker_roi(image: np.ndarray) -> np.ndarray:
    """Bounding box of the largest dark blob (the marker frame), padded, as
    a view of the image.

    Returns the full image when no dark component exceeds the minimum area.
    """
    # an integer bound keeps the comparison in uint8 under any numpy casting
    dark = image < math.ceil(_bimodal_threshold(image))
    blob = _largest_component(dark)
    if blob is None or blob[0] <= ROI_MIN_COMPONENT_AREA:
        return image
    _, y0, y1, x0, x1 = blob
    m = ROI_MARGIN_PX
    return image[max(0, y0 - m):y1 + m, max(0, x0 - m):x1 + m]


def strip_roi_margin(roi: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Undo the margin `crop_to_marker_roi` adds, so crops of different sizes
    share scale; returns a view of the ROI."""
    m = ROI_MARGIN_PX
    (h, w), (full_h, full_w) = roi.shape, full.shape
    if (h >= full_h and w >= full_w) or min(h, w) <= 2 * m + 8:
        return roi
    return roi[m:-m, m:-m]


def classify_texture(metrics: ImageMetrics) -> TextureClass:
    """Fine iff strictly more than the corner threshold at canonical resolution."""
    if metrics.corner_count > FINE_TEXTURE_CORNER_THRESHOLD:
        return TextureClass.FINE
    return TextureClass.COARSE


def detect_scene_change(previous: ImageMetrics, current: ImageMetrics) -> bool:
    if abs(current.brightness - previous.brightness) > SCENE_CHANGE_BRIGHTNESS_DELTA:
        return True
    rel = abs(current.edge_strength - previous.edge_strength) / max(previous.edge_strength, 1.0)
    if rel > SCENE_CHANGE_EDGE_RATIO:
        return True
    return abs(current.corner_count - previous.corner_count) > SCENE_CHANGE_CORNER_DELTA
