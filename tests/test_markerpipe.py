import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambientd.characterize import (_bimodal_threshold, _largest_component,
                                   crop_to_marker_roi, strip_roi_margin)
from ambientd.errors import InvalidArgumentError
from ambientd.markerpipe import (DESCRIBE_BLUR_PX, MAX_MATCH_FAST_THRESHOLD,
                                 REFERENCE_SIDE_PX, _box_blur,
                                 _percentile_of_counts, match_marker,
                                 normalize_contrast, reference_descriptors,
                                 resize_bilinear)
from ambientd.policy import PolicyConfig
from ambientd.scene import (MARKER_PATTERNS, MarkerPlacement, MarkerSpec,
                            Region, render_region)
from ambientd.sim import (CANONICAL_H, CANONICAL_W, SWEEP_BACKGROUND,
                          default_sweep_lux_levels, stable_seed)

from oracles import (bilinear_oracle, box_mean_oracle,
                     largest_component_oracle)

SIDES = st.integers(1, 300)


def random_image(h, w, seed, lo=0, hi=255):
    rng = np.random.default_rng(seed)
    lo, hi = min(lo, hi), max(lo, hi)
    return rng.integers(lo, hi + 1, (h, w), dtype=np.uint8)


class TestMatchThresholdCap:
    def test_every_reference_has_descriptors_at_the_cap(self):
        for pattern in MARKER_PATTERNS:
            for size in range(3):
                spec = MarkerSpec(pattern, size)
                assert len(reference_descriptors(
                    spec, MAX_MATCH_FAST_THRESHOLD)) > 0, spec

    def test_some_reference_is_empty_above_the_cap(self):
        # the cap is the largest safe threshold, not a guess below it
        assert any(len(reference_descriptors(
            MarkerSpec(pattern, size), MAX_MATCH_FAST_THRESHOLD + 1)) == 0
            for pattern in MARKER_PATTERNS for size in range(3))

    def test_policy_refuses_a_threshold_above_the_cap(self):
        PolicyConfig(marker_fast_threshold=MAX_MATCH_FAST_THRESHOLD)
        with pytest.raises(InvalidArgumentError, match="marker_fast_threshold"):
            PolicyConfig(marker_fast_threshold=MAX_MATCH_FAST_THRESHOLD + 1)


class TestResize:
    @settings(max_examples=30, deadline=None)
    @given(h=SIDES, w=SIDES, out_h=SIDES, out_w=SIDES,
           seed=st.integers(0, 2 ** 32 - 1))
    @example(h=1, w=300, out_h=200, out_w=200, seed=0)
    @example(h=300, w=1, out_h=200, out_w=200, seed=0)
    @example(h=7, w=300, out_h=1, out_w=3, seed=1)
    def test_matches_per_pixel_oracle(self, h, w, out_h, out_w, seed):
        img = random_image(h, w, seed)
        got = resize_bilinear(img, out_w, out_h)
        assert got.shape == (out_h, out_w)
        assert np.array_equal(got, bilinear_oracle(img, out_w, out_h))


class TestNormalize:
    @settings(max_examples=100, deadline=None)
    @given(h=SIDES, w=SIDES, seed=st.integers(0, 2 ** 32 - 1),
           lo=st.integers(0, 255), hi=st.integers(0, 255),
           q=st.floats(0.0, 100.0))
    @example(h=1, w=1, seed=0, lo=7, hi=7, q=98.0)
    @example(h=1, w=300, seed=0, lo=0, hi=255, q=2.0)
    def test_percentiles_match_numpy(self, h, w, seed, lo, hi, q):
        pixels = random_image(h, w, seed, lo, hi)
        below = np.cumsum(np.bincount(pixels.ravel(), minlength=256))
        for quantile in (2.0, 98.0, q):
            want = np.percentile(pixels.astype(np.float64), quantile)
            assert _percentile_of_counts(below, quantile) == want

    @pytest.mark.parametrize("values,q", [((7, 20), 98.0), ((0, 155), 73.1),
                                          ((0, 13, 200), 37.0)])
    def test_upper_half_interpolates_down_from_the_upper_value(self, values, q):
        # a + (b - a) * t and b - (b - a) * (1 - t) differ in the last bit
        # here, and numpy takes the second for t >= 0.5
        pixels = np.array([values], dtype=np.uint8)
        below = np.cumsum(np.bincount(pixels.ravel(), minlength=256))
        want = np.percentile(pixels.astype(np.float64), q)
        assert _percentile_of_counts(below, q) == want

    @settings(max_examples=100, deadline=None)
    @given(h=SIDES, w=SIDES, seed=st.integers(0, 2 ** 32 - 1),
           lo=st.integers(0, 255), hi=st.integers(0, 255))
    @example(h=300, w=1, seed=0, lo=0, hi=1)
    def test_matches_per_pixel_stretch(self, h, w, seed, lo, hi):
        img = random_image(h, w, seed, lo, hi)
        p = img.astype(np.float64)
        p_lo, p_hi = np.percentile(p, (2.0, 98.0))
        want = img
        if p_hi - p_lo >= 1.0:
            stretched = np.clip((p - p_lo) * (255.0 / (p_hi - p_lo)), 0, 255)
            want = np.rint(stretched).astype(np.uint8)
        assert np.array_equal(normalize_contrast(img), want)


class TestBoxBlur:
    @settings(max_examples=20, deadline=None)
    @given(h=SIDES, w=SIDES, seed=st.integers(0, 2 ** 32 - 1),
           size=st.sampled_from([1, 3, 5, 13]))
    @example(h=1, w=300, seed=0, size=13)
    @example(h=300, w=1, seed=0, size=13)
    @example(h=2, w=3, seed=0, size=13)
    def test_matches_per_pixel_oracle(self, h, w, seed, size):
        img = random_image(h, w, seed)
        assert np.array_equal(_box_blur(img, size),
                              box_mean_oracle(img, size))

    def test_full_scale_sums_round_half_up(self):
        # 13 x 13 sums of 255 reach 43 095: kills an int16 accumulator;
        # windows over two black pixels have mean 251.98: kills a rounding
        # down (s // n)
        white = np.full((200, 200), 255, dtype=np.uint8)
        assert (_box_blur(white, DESCRIBE_BLUR_PX) == 255).all()
        white[100, 100:102] = 0
        blurred = _box_blur(white, DESCRIBE_BLUR_PX)
        assert (blurred.min(), blurred.max()) == (252, 255)

    @pytest.mark.parametrize("size", [0, 2, 12, -1])
    def test_refuses_sizes_without_a_centre(self, size):
        with pytest.raises(InvalidArgumentError):
            _box_blur(random_image(20, 20, 0), size)

    def test_refuses_sizes_whose_sums_overflow_uint16(self):
        # 17 * 17 * 255 = 73 695; 15 is the largest size that fits
        assert _box_blur(random_image(20, 20, 0), 15).shape == (20, 20)
        with pytest.raises(InvalidArgumentError):
            _box_blur(random_image(20, 20, 0), 17)


KERNELS = {
    "match_marker": lambda a: match_marker(a, MarkerSpec("binary-grid-A", 0)),
    "crop_to_marker_roi": crop_to_marker_roi,
    "normalize_contrast": normalize_contrast,
    "resize_bilinear": lambda a: resize_bilinear(a, 50, 70),
    "_box_blur": lambda a: _box_blur(a, DESCRIBE_BLUR_PX),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_leaves_its_input_unchanged(name):
    """The ROI crop and the margin strip are views of the caller's frame, so
    no kernel may write into its input, whole frame or crop. Kills
    normalize_contrast applying its table in place (np.take(lut, p,
    out=p))."""
    marker = MarkerPlacement(MarkerSpec("binary-grid-A", 0), 30.0, 0.0)
    frame = render_region(Region("sweep", SWEEP_BACKGROUND, 500.0,
                                 marker=marker), 1, CANONICAL_W, CANONICAL_H).pixels
    crop = crop_to_marker_roi(frame)
    assert np.shares_memory(crop, frame) and crop.shape != frame.shape
    want = frame.copy()
    for image in (frame, crop):
        KERNELS[name](image)
        assert np.array_equal(frame, want)


def random_mask(h, w, seed, kind, density):
    rng = np.random.default_rng(seed)
    if kind == "dark":
        return np.ones((h, w), dtype=bool)
    if kind == "light":
        return np.zeros((h, w), dtype=bool)
    if kind == "blocks":
        # blocks of a coarse grid touch their neighbours at edges and corners
        k = int(rng.integers(2, 9))
        coarse = rng.random((h // k + 1, w // k + 1)) < density
        return np.repeat(np.repeat(coarse, k, axis=0), k, axis=1)[:h, :w]
    return rng.random((h, w)) < density


class TestLargestComponent:
    @settings(max_examples=40, deadline=None)
    @given(h=SIDES, w=SIDES, seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["random", "dark", "light", "blocks"]),
           density=st.floats(0.0, 1.0))
    @example(h=1, w=300, seed=0, kind="random", density=0.5)
    @example(h=300, w=1, seed=0, kind="random", density=0.5)
    @example(h=300, w=300, seed=0, kind="dark", density=0.0)
    @example(h=300, w=300, seed=0, kind="light", density=0.0)
    @example(h=40, w=40, seed=3, kind="blocks", density=0.5)
    def test_matches_flood_fill_oracle(self, h, w, seed, kind, density):
        mask = random_mask(h, w, seed, kind, density)
        assert _largest_component(mask) == largest_component_oracle(mask)

    def test_area_tie_goes_to_the_component_that_starts_first(self):
        mask = np.zeros((6, 9), dtype=bool)
        mask[3:5, 0:2] = True        # starts later in raster order
        mask[0:2, 6:8] = True
        assert _largest_component(mask) == (4, 0, 2, 6, 8)

    def test_comb_joined_below_is_one_component(self):
        mask = np.zeros((50, 61), dtype=bool)
        mask[:40, ::3] = True
        mask[40:42, :] = True
        assert _largest_component(mask) == (21 * 40 + 2 * 61, 0, 42, 0, 61)

    def test_staircase_hangs_a_forest_as_deep_as_the_mask(self):
        """A one-pixel staircase through all 300 rows hangs each run on the
        run one row up, 299 levels deep; a vertical line joins it only
        through the last row. Kills one jump fewer than
        `(H - 1).bit_length()` (the lowest runs point at an ancestor that is
        not a root; area 563) and a skipped final relabel of the runs that
        are not forest roots (the line's lower runs keep their old root;
        area 307)."""
        mask = np.zeros((300, 310), dtype=bool)
        mask[np.arange(300), np.arange(300)] = True
        mask[1:299, 305] = True
        mask[299, 299:306] = True
        want = largest_component_oracle(mask)
        assert want == (299 + 298 + 7, 0, 300, 0, 306)
        assert _largest_component(mask) == want

    @pytest.mark.parametrize("lux, distance, angle, want", [
        # the noise percolates: its cluster spans the frame
        (50.0, 90, 60, (44260, 0, 240, 0, 320)),
        # the marker frame wins over about 13 000 noise runs
        (223.6, 55, 30, (2054, 93, 147, 136, 184)),
    ])
    def test_noisy_sweep_masks_match_flood_fill_oracle(self, lux, distance,
                                                       angle, want):
        """Full-size sweep masks where the threshold splits sensor noise;
        the ndimage corpus test covers these only where scipy is
        installed."""
        region = Region("sweep", SWEEP_BACKGROUND, lux, marker=MarkerPlacement(
            MarkerSpec("image-uniform", 0), float(distance), float(angle)))
        image = render_region(region, stable_seed(
            0, "sweep", "image-uniform", distance, angle, lux, 0),
            CANONICAL_W, CANONICAL_H).pixels
        dark = image < math.ceil(_bimodal_threshold(image))
        assert largest_component_oracle(dark) == want
        assert _largest_component(dark) == want


def sweep_corpus():
    """Marker scenes of the sweep grid: every pattern at a near, a middle
    and a far pose at the nine default lux levels, first trial, seeds 0 and
    1."""
    for seed in (0, 1):
        for pattern in MARKER_PATTERNS:
            for distance, angle in ((20, 0), (55, 30), (90, 60)):
                for lux in default_sweep_lux_levels():
                    region = Region("sweep", SWEEP_BACKGROUND, float(lux),
                                    marker=MarkerPlacement(
                                        MarkerSpec(pattern, 0),
                                        float(distance), float(angle)))
                    yield render_region(
                        region, stable_seed(seed, "sweep", pattern, distance,
                                            angle, lux, 0),
                        CANONICAL_W, CANONICAL_H).pixels


def test_kernels_match_ndimage_on_the_sweep_corpus():
    ndimage = pytest.importorskip("scipy.ndimage")
    side = REFERENCE_SIDE_PX
    count = 0
    for image in sweep_corpus():
        count += 1
        dark = image < math.ceil(_bimodal_threshold(image))
        labels, n = ndimage.label(dark, structure=np.ones((3, 3), dtype=int))
        areas = np.bincount(labels.ravel())
        areas[0] = 0
        best = int(areas.argmax())
        ys, xs = np.nonzero(labels == best)
        assert _largest_component(dark) == (
            int(areas[best]), int(ys.min()), int(ys.max()) + 1,
            int(xs.min()), int(xs.max()) + 1)

        roi = strip_roi_margin(crop_to_marker_roi(image), image)
        yy = (np.arange(side) + 0.5) * (roi.shape[0] / side) - 0.5
        xx = (np.arange(side) + 0.5) * (roi.shape[1] / side) - 0.5
        grid = np.meshgrid(yy, xx, indexing="ij")
        want = ndimage.map_coordinates(roi.astype(np.float64), grid,
                                       order=1, mode="nearest")
        resized = resize_bilinear(roi, side, side)
        assert np.array_equal(resized,
                              np.clip(np.rint(want), 0, 255).astype(np.uint8))

        normalized = normalize_contrast(resized)
        want = ndimage.uniform_filter(normalized.astype(np.float64),
                                      DESCRIBE_BLUR_PX)
        assert np.array_equal(_box_blur(normalized, DESCRIBE_BLUR_PX),
                              np.clip(np.rint(want), 0, 255).astype(np.uint8))
    assert count == 216

