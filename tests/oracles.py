"""Independent brute-force reference implementations used as test oracles.

Deliberately written as straight-line loop code, sharing nothing with the
library implementations they check; `reference_render` alone builds on the
scene's texture and marker helpers, to check the render's frame cache, and
`reference_marker_step` on the policy's phase and intent names.
"""
import math
from collections import deque
from dataclasses import replace

import numpy as np

from ambientd.policy import PATTERN_SWITCH_ORDER, Intent, MarkerPhase
from ambientd.scene import (light_response, marker_patch_size,
                            marker_reflectance, noise_sigma, texture_field)


def reference_checkerboard_render(width, height, cell, low, high, lux):
    """Second straight-line implementation of the noise-free imaging formula."""
    response = min(lux / 500.0, 1.0)
    out = np.zeros((height, width), dtype=np.uint8)
    for y in range(height):
        for x in range(width):
            if ((x // cell) + (y // cell)) % 2 == 0:
                reflectance = low
            else:
                reflectance = high
            value = round(reflectance * 255.0 * response)
            out[y, x] = min(max(value, 0), 255)
    return out


def reference_render(region, camera_seed, width, height, sigma0):
    """The uncached render: a float64 base rebuilt from the texture and the
    marker on every call, rounded, then the noise added and rounded again.
    It shares scene.py's texture, marker and light helpers (the checkerboard
    reference above checks those for one texture, and test_scene.py's
    TestTextureSemantics what the other kinds mean) and checks what the frame
    cache must keep: the state each frame belongs to, and the rounding of the
    frame before the noise is added."""
    base = texture_field(region.texture, width, height).copy()
    if region.marker is not None:
        mw, mh = marker_patch_size(region.marker)
        mw, mh = min(mw, width), min(mh, height)
        y0 = (height - mh) // 2
        x0 = (width - mw) // 2
        base[y0:y0 + mh, x0:x0 + mw] = marker_reflectance(
            region.marker.spec, mw, mh)
    base = np.rint(base * 255.0 * light_response(region.illuminance))
    if sigma0 > 0:
        rng = np.random.default_rng(camera_seed)
        base = np.rint(base + rng.normal(
            0.0, noise_sigma(region.illuminance, sigma0), size=(height, width)))
    return np.clip(base, 0, 255).astype(np.uint8)


def brute_metrics(pixels):
    """Brightness / contrast / edge strength via explicit loops."""
    h, w = pixels.shape
    n = h * w
    s1 = 0
    s2 = 0
    for y in range(h):
        for x in range(w):
            v = int(pixels[y, x])
            s1 += v
            s2 += v * v
    brightness = s1 / n
    contrast = math.sqrt(max(s2 / n - brightness * brightness, 0.0))
    responses = []
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            acc = 8 * int(pixels[y, x])
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    acc -= int(pixels[y + dy, x + dx])
            responses.append(acc)
    ln = len(responses)
    l1 = sum(responses)
    l2 = sum(v * v for v in responses)
    lap_mean = l1 / ln
    edge_strength = l2 / ln - lap_mean * lap_mean
    return brightness, contrast, edge_strength


def _oracle_circle():
    offsets = [(0, 3), (0, -3), (3, 0), (-3, 0),
               (1, 3), (1, -3), (-1, 3), (-1, -3),
               (3, 1), (3, -1), (-3, 1), (-3, -1),
               (2, 2), (2, -2), (-2, 2), (-2, -2)]
    # circular adjacency = angular order around the center
    return sorted(offsets, key=lambda o: math.atan2(o[1], o[0]))


ORACLE_CIRCLE = _oracle_circle()


def fast_oracle(pixels, threshold):
    """Exhaustive FAST-9: tries all 16 arc start positions directly, then
    3x3 non-max suppression with earlier-pixel-wins tie handling.

    Returns a set of (x, y, score) tuples.
    """
    h, w = pixels.shape
    scores = {}
    for y in range(3, h - 3):
        for x in range(3, w - 3):
            center = int(pixels[y, x])
            ring = [int(pixels[y + dy, x + dx]) for dx, dy in ORACLE_CIRCLE]
            brighter = [v > center + threshold for v in ring]
            darker = [v < center - threshold for v in ring]
            if max(sum(brighter), sum(darker)) < 9:
                continue                      # no room for a 9-pixel arc
            qualifies_b = False
            qualifies_d = False
            for start in range(16):
                if all(brighter[(start + k) % 16] for k in range(9)):
                    qualifies_b = True
                if all(darker[(start + k) % 16] for k in range(9)):
                    qualifies_d = True
            score = 0
            if qualifies_b:
                score += sum(abs(v - center) for v, q in zip(ring, brighter) if q)
            if qualifies_d:
                score += sum(abs(v - center) for v, q in zip(ring, darker) if q)
            if score > 0:
                scores[(x, y)] = score
    corners = set()
    for (x, y), score in scores.items():
        suppressed = False
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                nb = scores.get((x + dx, y + dy), 0)
                neighbor_earlier = dy < 0 or (dy == 0 and dx < 0)
                if neighbor_earlier:
                    if nb >= score:
                        suppressed = True
                else:
                    if nb > score:
                        suppressed = True
        if not suppressed:
            corners.add((x, y, score))
    return corners


def bimodal_threshold_reference(pixels):
    """Mean-of-class-means threshold iterated to fixpoint, over the pixels
    themselves: each iteration splits a float64 copy of the frame and takes
    the mean of each class."""
    p = pixels.astype(np.float64)
    t = (float(p.min()) + float(p.max())) / 2.0
    for _ in range(100):
        lo = p[p < t]
        hi = p[p >= t]
        if lo.size == 0 or hi.size == 0:
            return t
        t_new = (float(lo.mean()) + float(hi.mean())) / 2.0
        if abs(t_new - t) < 0.5:
            return t_new
        t = t_new
    return t


def match_oracle(scene_rows, ref_rows, threshold=64):
    """Mutual-nearest-neighbour match count over packed descriptor rows.

    Scene rows are sorted as byte strings, distances are per-pair popcounts
    of the XOR, and a nearest-neighbour tie goes to the first index.
    """
    scene = sorted(bytes(row) for row in scene_rows)
    ref = [bytes(row) for row in ref_rows]

    def hamming(a, b):
        return sum(bin(x ^ y).count("1") for x, y in zip(a, b))

    def first_min(values):
        best = 0
        for k in range(1, len(values)):
            if values[k] < values[best]:
                best = k
        return best

    dist = [[hamming(s, r) for r in ref] for s in scene]
    matched = 0
    for i in range(len(scene)):
        j = first_min(dist[i])
        column = [dist[k][j] for k in range(len(scene))]
        if first_min(column) == i and dist[i][j] <= threshold:
            matched += 1
    return matched


def bilinear_oracle(pixels, width, height):
    """Per-pixel bilinear resample on pixel centres. The weights come from
    the unclipped source coordinate, the four taps are clamped to the image,
    and (a*wy0)*wx0 + (b*wy0)*wx1 + (c*wy1)*wx0 + (d*wy1)*wx1 is summed left
    to right, then rounded half to even and clipped to 0..255."""
    h, w = pixels.shape
    out = np.zeros((height, width), dtype=np.uint8)
    for i in range(height):
        cy = (i + 0.5) * (h / height) - 0.5
        fy = math.floor(cy)
        ty = cy - fy
        ya = min(max(fy, 0), h - 1)
        yb = min(max(fy + 1, 0), h - 1)
        for j in range(width):
            cx = (j + 0.5) * (w / width) - 0.5
            fx = math.floor(cx)
            tx = cx - fx
            xa = min(max(fx, 0), w - 1)
            xb = min(max(fx + 1, 0), w - 1)
            value = float(pixels[ya, xa]) * (1.0 - ty) * (1.0 - tx)
            value += float(pixels[ya, xb]) * (1.0 - ty) * tx
            value += float(pixels[yb, xa]) * ty * (1.0 - tx)
            value += float(pixels[yb, xb]) * ty * tx
            out[i, j] = min(max(round(value), 0), 255)
    return out


def _reflect(k, n):
    """Index k folded into 0..n-1 by mirroring about the edges, the edge
    pixel repeated (d c b a | a b c d | d c b a)."""
    k %= 2 * n
    return k if k < n else 2 * n - 1 - k


def window_sums_oracle(values, size):
    """Sum over every size x size window that fits in the 2-D array, as
    Python integers; entry [y][x] covers rows y..y+size-1 and columns
    x..x+size-1."""
    h, w = values.shape
    out = []
    for y in range(h - size + 1):
        row = []
        for x in range(w - size + 1):
            total = 0
            for dy in range(size):
                for dx in range(size):
                    total += int(values[y + dy, x + dx])
            row.append(total)
        out.append(row)
    return out


def descriptor_oracle(pixels, corners):
    """Packed 256-bit rows, one per corner at least 17 px inside the image:
    bit i is set iff the 5x5 pixel sum centered at the corner plus the
    i-th (ax, ay) offset of characterize's pattern is below the one at its
    (bx, by) offset. The pattern is shared; the sums are loops."""
    from ambientd.characterize import _DESCRIPTOR_PAIRS

    def box(x, y):
        return sum(int(pixels[y + dy, x + dx])
                   for dy in range(-2, 3) for dx in range(-2, 3))
    h, w = pixels.shape
    rows = []
    for x, y, _ in corners.tolist():
        if not (17 <= x < w - 17 and 17 <= y < h - 17):
            continue
        bits = [box(x + ax, y + ay) < box(x + bx, y + by)
                for ax, ay, bx, by in _DESCRIPTOR_PAIRS.tolist()]
        rows.append(np.packbits(np.array(bits, dtype=np.uint8)).tolist())
    return rows


def box_mean_oracle(pixels, size):
    """Per-pixel mean over a size x size window of the mirrored image,
    rounded to the nearest integer."""
    h, w = pixels.shape
    half = size // 2
    padded = np.zeros((h + 2 * half, w + 2 * half), dtype=np.int64)
    for y in range(-half, h + half):
        for x in range(-half, w + half):
            padded[y + half, x + half] = pixels[_reflect(y, h), _reflect(x, w)]
    out = np.zeros((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            total = int(padded[y:y + size, x:x + size].sum())
            out[y, x] = round(total / (size * size))
    return out


def largest_component_oracle(mask):
    """Area and bounding box (y0, y1, x0, x1, ends exclusive) of the largest
    8-connected component by breadth-first search from each unvisited pixel
    in raster order; on an area tie the component found first wins. None for
    an empty mask."""
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    best = None
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or seen[y, x]:
                continue
            seen[y, x] = True
            queue = deque([(y, x)])
            area, y0, y1, x0, x1 = 0, y, y, x, x
            while queue:
                cy, cx = queue.popleft()
                area += 1
                y0, y1 = min(y0, cy), max(y1, cy)
                x0, x1 = min(x0, cx), max(x1, cx)
                for ny in (cy - 1, cy, cy + 1):
                    for nx in (cx - 1, cx, cx + 1):
                        if (0 <= ny < h and 0 <= nx < w and mask[ny, nx]
                                and not seen[ny, nx]):
                            seen[ny, nx] = True
                            queue.append((ny, nx))
            if best is None or area > best[0]:
                best = (area, y0, y1 + 1, x0, x1 + 1)
    return best


def reference_marker_step(state, config, report, optimal_lux, measured_lux,
                          curve, now):
    """The eager marker step: it takes the observation's `MatchReport`
    itself, so the match has run whether or not the step reads it. The lazy
    `policy.marker_control_step` must leave the same state and intents."""
    finished = state.phase in (MarkerPhase.SATISFIED, MarkerPhase.EXHAUSTED)
    settling = now < state.settle_until
    if report.percentage >= config.target_percentage and (finished or not settling):
        state.phase = MarkerPhase.SATISFIED
    if finished or settling or state.phase is MarkerPhase.SATISFIED:
        return state, []

    if state.phase is MarkerPhase.ADJUST_LIGHT:
        if state.light_attempts < 2:
            in_deadband = (abs(measured_lux - optimal_lux)
                           <= config.deadband_fraction * optimal_lux)
            if not in_deadband:
                state.settle_until = now + config.settle_s
                state.light_attempts += 1
                return state, [Intent("set-brightness",
                                      curve.invert(optimal_lux)[0])]
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
    return state, [Intent("set-marker", spec)]
