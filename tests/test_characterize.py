import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambientd import characterize, markerpipe
from ambientd.characterize import (FINE_TEXTURE_CORNER_THRESHOLD, ImageMetrics,
                                   TextureClass, _bimodal_threshold,
                                   _cardinal_candidates,
                                   _dense_scores,
                                   _sparse_scores, _suppress, box_sums,
                                   classify_texture,
                                   compute_metrics, crop_to_marker_roi,
                                   detect_fast_corners, detect_scene_change,
                                   extract_descriptors, match_against_reference)
from ambientd.errors import InvalidArgumentError
from ambientd.scene import (MarkerPlacement, MarkerSpec, Region, TextureSpec,
                            render_region)
from ambientd.sim import SWEEP_BACKGROUND

from oracles import (bimodal_threshold_reference, brute_metrics,
                     descriptor_oracle, fast_oracle, match_oracle,
                     window_sums_oracle)


def as_image(pixels):
    return np.ascontiguousarray(pixels, dtype=np.uint8)


def render(texture, lux, seed=1, w=64, h=64, sigma0=None, marker=None):
    region = Region("r", texture, lux, marker=marker)
    kwargs = {} if sigma0 is None else {"sigma0": sigma0}
    return render_region(region, seed, w, h, **kwargs).pixels


def plan_corners(pixels, threshold):
    """Corner rows of the dense and of the sparse plan, as sets."""
    a = pixels.astype(np.int16)
    dense = _suppress(_dense_scores(a, threshold))
    sparse = _suppress(_sparse_scores(a, threshold,
                                      _cardinal_candidates(a, threshold)))
    return set(map(tuple, dense.tolist())), set(map(tuple, sparse.tolist()))


def sweep_rois(cells):
    """The 200x200 blurred ROIs that ROI FAST sees in the marker sweep."""
    rois = []

    def capture(roi, threshold):
        rois.append(roi)
        return detect_fast_corners(roi, threshold)

    real = markerpipe.detect_fast_corners
    markerpipe.detect_fast_corners = capture
    try:
        for distance, angle, lux in cells:
            spec = MarkerSpec("binary-grid-A", 0)
            frame = render(SWEEP_BACKGROUND, lux, seed=1, w=320, h=240,
                           marker=MarkerPlacement(spec, distance, angle))
            markerpipe._scene_descriptors(
                frame, markerpipe.DEFAULT_MATCH_FAST_THRESHOLD)
    finally:
        markerpipe.detect_fast_corners = real
    return rois


def metrics_stub(brightness=100.0, edge_strength=50.0, corner_count=100):
    return ImageMetrics(brightness=brightness, contrast=10.0,
                        edge_strength=edge_strength, corner_count=corner_count)


class TestMetrics:
    def test_flat_trivials(self):
        img = as_image(np.full((32, 32), 100, dtype=np.uint8))
        m = compute_metrics(img)
        assert m.brightness == 100.0
        assert m.contrast == 0.0
        assert m.edge_strength == 0.0
        assert m.corner_count == 0

    def test_too_small_rejected(self):
        img = as_image(np.zeros((16, 32), dtype=np.uint8))
        with pytest.raises(InvalidArgumentError):
            compute_metrics(img)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            h = int(rng.integers(32, 48))
            w = int(rng.integers(32, 48))
            pixels = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            self._check_against_brute_force(pixels)
        # the edges of the Laplacian: |lap| = 1020 on a 0/255 checkerboard
        # of 1-px cells and 2040 on 255 dots with eight 0 neighbours; a
        # saturated frame, where 9 * center reaches 2 295; 32x33, 33x32
        # and 32x300 frames. They kill box sums that keep the wrapped
        # columns in l1 and l2, and a Laplacian squared in int16
        y, x = np.indices((32, 32))
        edges = [(y + x) % 2 * 255, ((y | x) % 2 == 0) * 255,
                 np.full((32, 32), 255)]
        edges += [rng.integers(0, 256, size=shape)
                  for shape in ((32, 33), (33, 32), (32, 300))]
        for pixels in edges:
            self._check_against_brute_force(pixels.astype(np.uint8))

    def _check_against_brute_force(self, pixels):
        m = compute_metrics(as_image(pixels))
        eb, ec, ee = brute_metrics(pixels)
        assert m.brightness == eb
        assert m.contrast == ec
        assert m.edge_strength == ee

    def test_strided_input_matches_its_contiguous_copy(self):
        # every second pixel of a 640x480 frame, a crop_to_marker_roi view
        # and a column-major copy; kills a flat run taken in memory order
        # (ravel(order="K")) or from the strides of a row-major frame
        frame = render(TextureSpec("speckle", frequency=0.5), 750.0, seed=0,
                       w=640, h=480)
        shelf = render(TextureSpec("flat", value=0.9), 500.0, w=320, h=240,
                       marker=MarkerPlacement(MarkerSpec("binary-grid-A", 1),
                                              30.0, 0.0))
        views = [frame[::2, ::2], crop_to_marker_roi(shelf),
                 np.asfortranarray(frame[:240, :320])]
        for view in views:
            assert not view.flags.c_contiguous and min(view.shape) >= 32
            copy = np.ascontiguousarray(view)
            assert compute_metrics(view) == compute_metrics(copy)
            for threshold in (15, 20):
                assert np.array_equal(detect_fast_corners(view, threshold),
                                      detect_fast_corners(copy, threshold))

    def test_illuminance_passthrough(self):
        img = as_image(np.full((32, 32), 100, dtype=np.uint8))
        assert compute_metrics(img, 321.5).illuminance == 321.5
        assert compute_metrics(img).illuminance is None

    def test_edge_strength_ordering(self):
        checker = render(TextureSpec("checkerboard", cell=8, low=0.1, high=0.9),
                         500.0, sigma0=0)
        stripes = render(TextureSpec("stripes", cell=8, low=0.1, high=0.9),
                         500.0, sigma0=0)
        flat = render(TextureSpec("flat", value=0.5), 500.0, sigma0=0)
        mc = compute_metrics(checker)
        ms = compute_metrics(stripes)
        mf = compute_metrics(flat)
        assert mc.edge_strength > ms.edge_strength > mf.edge_strength
        assert mf.edge_strength == 0.0


class TestFastCorners:
    def _check_against_oracle(self, img, threshold=20):
        corners = detect_fast_corners(as_image(img), threshold)
        got = set(map(tuple, corners.tolist()))
        assert got == fast_oracle(img, threshold)

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_threshold_below_one_refused(self, threshold):
        # kills dropping the check: the call then returns without an error
        img = as_image(np.full((32, 32), 128, dtype=np.uint8))
        with pytest.raises(InvalidArgumentError, match="threshold must be >= 1"):
            detect_fast_corners(img, threshold)

    def test_flat_has_no_corners(self):
        img = as_image(np.full((32, 32), 128, dtype=np.uint8))
        assert len(detect_fast_corners(img, 20)) == 0

    def test_single_bright_dot(self):
        pixels = np.full((16, 16), 50, dtype=np.uint8)
        pixels[8, 8] = 200
        corners = detect_fast_corners(as_image(pixels), 20)
        assert corners[:, :2].tolist() == [[8, 8]]

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            img = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
            self._check_against_oracle(img)

    def test_oracle_equivalence_rendered(self):
        textures = [TextureSpec("checkerboard", cell=6, low=0.1, high=0.9),
                    TextureSpec("speckle", frequency=0.5),
                    TextureSpec("stripes", cell=5, low=0.2, high=0.8)]
        for i, tex in enumerate(textures):
            img = render(tex, 300.0, seed=i, w=48, h=48)
            self._check_against_oracle(img)

    @pytest.mark.parametrize("name", ["speckle-750", "checker-300", "shelf-60"])
    def test_oracle_equivalence_canonical_windows(self, name):
        # 64x64 windows of 320x240 frames as the loop renders them, from the
        # dense 750-lux speckle to the dim marker shelf
        shelf = MarkerPlacement(MarkerSpec("binary-grid-A", 0), 90.0, 0.0)
        texture, lux, marker = {
            "speckle-750": (TextureSpec("speckle", frequency=0.5), 750.0, None),
            "checker-300": (TextureSpec("checkerboard", cell=32), 300.0, None),
            "shelf-60": (TextureSpec("flat", value=0.6), 60.0, shelf),
        }[name]
        frame = render(texture, lux, seed=0, w=320, h=240, marker=marker)
        window = frame[88:152, 128:192]
        for threshold in (1, 15, 20, 24, 254, 255, 256):
            # each plan on its own: the public call takes one plan per image
            want = fast_oracle(window, threshold)
            assert plan_corners(window, threshold) == (want, want)
            self._check_against_oracle(window, threshold)
        # no circle pixel can differ from its center by more than 255
        for threshold in (255, 256, 10 ** 6):
            assert len(detect_fast_corners(as_image(window), threshold)) == 0

    def test_plans_match_oracle_on_sweep_rois(self):
        # a bright middle cell at the ROI threshold and a near cell at the
        # highest threshold a policy may set (12 % and 6 % candidates);
        # kills a pair test that drops one polarity or the [12]/[0] pair
        cells = [(55.0, 30.0, 1000.0), (20.0, 0.0, 223.6)]
        for pixels, threshold in zip(sweep_rois(cells), (15, 24)):
            want = fast_oracle(pixels, threshold)
            assert len(want) > 30
            assert plan_corners(pixels, threshold) == (want, want)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(h=st.integers(7, 28), w=st.integers(7, 28),
           density=st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.6, 1.0]),
           spread=st.integers(0, 255),
           threshold=st.sampled_from([1, 15, 20, 24, 254]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_plans_match_oracle_across_the_cutover(self, h, w, density, spread,
                                                   threshold, seed):
        # a flat field with dots of random level, from none to every pixel,
        # so the candidate fraction spans both plans; kills a pair test
        # that drops a polarity or a cardinal pair
        rng = np.random.default_rng(seed)
        pixels = np.full((h, w), rng.integers(0, 256), dtype=np.int64)
        dots = rng.random((h, w)) < density
        pixels[dots] += rng.integers(-spread, spread + 1, size=int(dots.sum()))
        pixels = np.clip(pixels, 0, 255).astype(np.uint8)
        want = fast_oracle(pixels, threshold)
        assert plan_corners(pixels, threshold) == (want, want)
        self._check_against_oracle(pixels, threshold)

    @pytest.mark.parametrize("h", range(7, 13))
    def test_plans_match_oracle_on_small_frames(self, h):
        # 7-12 px on a side: most pixels of the flat runs sit within 3 px of
        # a side edge, where the circle wraps into the next or previous row;
        # kills a dense plan or a pair test that keeps those pixels
        rng = np.random.default_rng(h)
        for w in range(7, 13):
            for density in (0.2, 0.6, 1.0):
                pixels = np.full((h, w), rng.integers(0, 256), dtype=np.int64)
                dots = rng.random((h, w)) < density
                pixels[dots] = rng.integers(0, 256, size=int(dots.sum()))
                pixels = pixels.astype(np.uint8)
                for threshold in (1, 20):
                    want = fast_oracle(pixels, threshold)
                    assert plan_corners(pixels, threshold) == (want, want)
                    self._check_against_oracle(pixels, threshold)

    @pytest.mark.parametrize("level", [0, 255])
    def test_plans_match_oracle_with_dots_in_the_side_borders(self, level):
        # a strong interior, and black or white dots in the 3-px side
        # borders: a border pixel's circle wraps into the other border and
        # the interior, so its segment test passes unless it is cleared;
        # kills a dense plan without the side-border clear
        rng = np.random.default_rng(level)
        for h, w in ((12, 16), (20, 24), (48, 64)):
            pixels = rng.integers(0, 256, size=(h, w))
            border = np.zeros((h, w), dtype=bool)
            border[:, :3] = border[:, -3:] = True
            pixels[border] = 128
            pixels[border & (rng.random((h, w)) < 0.4)] = level
            pixels = pixels.astype(np.uint8)
            for threshold in (20, 60):
                want = fast_oracle(pixels, threshold)
                assert plan_corners(pixels, threshold) == (want, want)
                self._check_against_oracle(pixels, threshold)

    @pytest.mark.parametrize("lux, plan", [(60.0, "_sparse_scores"),
                                           (750.0, "_dense_scores")])
    def test_plan_follows_the_candidate_fraction(self, monkeypatch, lux, plan):
        # the wall of the closed loop: about 20 % candidates at 60 lux and
        # 82 % at 750; kills a mutant that takes the wrong plan past the
        # cutover (its corners are right, its cost is not)
        img = render(TextureSpec("speckle", frequency=0.5), lux, seed=0,
                     w=320, h=240)
        ran = []
        for name in ("_sparse_scores", "_dense_scores"):
            real = getattr(characterize, name)
            monkeypatch.setattr(characterize, name,
                                lambda *args, real=real, name=name:
                                ran.append(name) or real(*args))
        detect_fast_corners(img, 20)
        assert ran == [plan]

    def test_dense_plan_at_45_percent_candidates(self, monkeypatch):
        # a window of the 144-lux speckle frame: past the two-fifths cutover,
        # where the sparse plan is slower; kills the cutover at one half
        frame = render(TextureSpec("speckle", frequency=0.5), 144.0, seed=0,
                       w=320, h=240)
        window = as_image(frame[88:152, 128:192])
        fraction = np.count_nonzero(_cardinal_candidates(
            window.astype(np.int16), 20)) / (58 * 58)
        assert 0.43 < fraction < 0.47
        ran = []
        real = characterize._dense_scores
        monkeypatch.setattr(characterize, "_sparse_scores", None)
        monkeypatch.setattr(characterize, "_dense_scores",
                            lambda *args: ran.append(1) or real(*args))
        self._check_against_oracle(window, 20)
        assert ran == [1]

    @pytest.mark.parametrize("roi", ["flat", "dark"])
    def test_no_candidate_returns_what_the_sparse_plan_gives(self, monkeypatch,
                                                             roi):
        # the dark ROI is the marker sweep's at 50 lux, 90 cm and 60 degrees
        threshold = markerpipe.DEFAULT_MATCH_FAST_THRESHOLD
        pixels = (as_image(np.full((200, 200), 153)) if roi == "flat"
                  else sweep_rois([(90.0, 60.0, 50.0)])[0])
        a = pixels.astype(np.int16)
        candidates = _cardinal_candidates(a, threshold)
        assert not candidates.any()
        want = _suppress(_sparse_scores(a, threshold, candidates))
        for name in ("_sparse_scores", "_dense_scores"):
            monkeypatch.setattr(characterize, name, None)   # neither plan runs
        got = detect_fast_corners(pixels, threshold)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tolist() == want.tolist() == []

    def test_corner_count_rises_with_threshold_drop(self):
        img = render(TextureSpec("speckle", frequency=0.5), 300.0, w=96, h=96)
        low = len(detect_fast_corners(img, 10))
        high = len(detect_fast_corners(img, 40))
        assert low >= high


class TestBlockPlan:
    """The sparse plan scores its candidates as one (16, n) block; every
    pixel that is not a candidate scores 0 in the dense plan, so the two
    score planes must be equal."""

    def _same_planes(self, pixels, threshold, count=None):
        a = pixels.astype(np.int16)
        candidates = _cardinal_candidates(a, threshold)
        if count is not None:
            assert np.count_nonzero(candidates) == count
        sparse = _sparse_scores(a, threshold, candidates)
        assert np.array_equal(sparse, _dense_scores(a, threshold))
        return sparse

    @pytest.mark.parametrize("threshold", [1, 254])
    def test_matches_the_dense_plan_at_the_extreme_thresholds(self, threshold):
        # levels 0, 1, 254 and 255 put circle differences of exactly 1 and
        # 254 on the threshold; kills >= for > in the block's bright test,
        # and one circle offset of the block a column off
        rng = np.random.default_rng(threshold)
        levels = np.array([0, 1, 254, 255], dtype=np.uint8)
        for h, w in ((7, 7), (24, 31), (64, 64)):
            self._same_planes(rng.choice(levels, size=(h, w)), threshold)

    def test_a_single_candidate(self):
        # one dot on a faint texture: a (16, 1) block; kills a plan that
        # reduces the block along the candidates instead of the circle
        rng = np.random.default_rng(5)
        pixels = rng.integers(100, 110, size=(20, 20)).astype(np.uint8)
        pixels[9, 11] = 200
        assert self._same_planes(pixels, 20, count=1)[9, 11] > 0

    def test_candidates_on_the_first_and_the_last_valid_pixel(self):
        # (3, 3) and (W-4, H-4) are the ends of the flat runs; kills a
        # gather one pixel off, which np.take(mode="clip") does not raise on
        rng = np.random.default_rng(6)
        pixels = rng.integers(100, 110, size=(17, 23)).astype(np.uint8)
        pixels[3, 3], pixels[-4, -4] = 200, 10
        score = self._same_planes(pixels, 20, count=2)
        assert score[3, 3] > 0 and score[-4, -4] > 0


@st.composite
def box_windows(draw):
    size = draw(st.integers(1, 15))
    h, w = draw(st.integers(size, 40)), draw(st.integers(size, 40))
    dtype = draw(st.sampled_from([np.uint16, np.int32]))
    # 15 * 15 * 255 fits in uint16; int32 values are signed
    lo, hi = (0, 255) if dtype == np.uint16 else (-2 ** 20, 2 ** 20)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).integers(lo, hi + 1, size=(h, w))
    return values.astype(dtype), size


class TestBoxSums:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(case=box_windows())
    @example(case=(np.arange(1, 16, dtype=np.uint16)[:, None]
                   * np.ones(15, np.uint16), 15))
    @example(case=(np.full((1, 40), 255, np.uint16), 1))
    @example(case=(np.arange(-40, 0, dtype=np.int32).reshape(5, 8), 4))
    def test_matches_the_loop_oracle(self, case):
        # a window as large as the frame, a one-row frame and an even size;
        # kills a column pass that keeps the wrapped columns or a row pass
        # whose stride is off by one
        values, size = case
        got = box_sums(values, size)
        assert got.dtype == values.dtype
        assert got.tolist() == window_sums_oracle(values, size)


class TestDescriptors:
    def test_matches_the_loop_oracle(self):
        # kills the flat window index with a pair's x and y offsets swapped
        rng = np.random.default_rng(11)
        pixels = as_image(rng.integers(0, 256, size=(48, 52)))
        corners = detect_fast_corners(pixels, 20)
        want = descriptor_oracle(pixels, corners)
        assert len(want) > 3
        assert extract_descriptors(pixels, corners).tolist() == want

    def test_descriptor_shape_and_margin(self):
        img = render(TextureSpec("speckle", frequency=0.5), 300.0, w=96, h=96)
        corners = detect_fast_corners(img, 20)
        descs = extract_descriptors(img, corners)
        xs, ys = corners[:, 0], corners[:, 1]
        inside = (17 <= xs) & (xs < 96 - 17) & (17 <= ys) & (ys < 96 - 17)
        assert len(descs)
        assert descs.shape == (int(inside.sum()), 32)

    def test_deterministic(self):
        img = render(TextureSpec("speckle", frequency=0.5), 300.0, w=96, h=96)
        corners = detect_fast_corners(img, 20)
        a = extract_descriptors(img, corners)
        b = extract_descriptors(img, corners)
        assert a.tolist() == b.tolist()

    def test_inversion_flips_tie_free_bits(self):
        # random intensities make smoothed-sum ties vanishingly rare, so
        # inverting the image should flip nearly every comparison bit
        rng = np.random.default_rng(99)
        pixels = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        corners = detect_fast_corners(as_image(pixels), 20)
        descs = extract_descriptors(as_image(pixels), corners)
        inv_descs = extract_descriptors(as_image(255 - pixels), corners)
        assert len(descs) == len(inv_descs) > 0
        flipped = 0
        total = 0
        for d, di in zip(descs, inv_descs):
            a = np.unpackbits(d)
            b = np.unpackbits(di)
            flipped += int(np.sum(a != b))
            total += a.size
        assert flipped / total > 0.95


class _Traced(np.ndarray):
    """An array that records its ufunc calls (NEP 13) in `calls`, and in
    `mixed` each call that mixes a Python scalar with an integer array
    narrower than 64 bits: numpy < 2 casts such a call by the scalar's
    value, numpy >= 2 by its type (NEP 50), so the two can differ."""
    calls, mixed = [], []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        name = f"{ufunc.__name__}.{method}"
        _Traced.calls.append(name)
        out = kwargs.get("out", ())
        narrow = [x.dtype for x in inputs + out if isinstance(x, np.ndarray)
                  and x.dtype.kind in "iu" and x.dtype.itemsize < 8]
        if narrow and any(type(x) in (bool, int, float) for x in inputs):
            _Traced.mixed.append((name, narrow))
        plain = [x.view(np.ndarray) if isinstance(x, _Traced) else x
                 for x in inputs]
        if out:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out:
            return out[0] if len(out) == 1 else out
        if isinstance(result, tuple):
            return tuple(r.view(_Traced) for r in result)
        return result.view(_Traced) if isinstance(result, np.ndarray) else result


class TestScalarCasting:
    """No ufunc of the pixel kernels mixes a Python scalar with a narrow
    integer array, so value-based casting and NEP 50 give the same dtypes.
    The frames are those of test_plan_follows_the_candidate_fraction: the
    sparse plan at 60 lux, the dense one at 750."""

    @pytest.fixture(autouse=True)
    def traced(self, monkeypatch):
        # new buffers are traced too, so an out= buffer is seen
        for name in ("empty", "zeros", "ones"):
            real = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *args, real=real, **kwargs:
                                real(*args, **kwargs).view(_Traced))
        _Traced.calls.clear()
        _Traced.mixed.clear()

    @pytest.mark.parametrize("kernel, lux", [
        ("compute_metrics", 60.0), ("compute_metrics", 750.0),
        ("_box_blur", 300.0), ("extract_descriptors", 300.0)])
    def test_no_python_scalar_meets_a_narrow_integer_array(self, kernel,
                                                           lux):
        # kills 8 * center for the Laplacian, and center + threshold or the
        # dense plan's d > threshold with the Python int threshold
        frame = render(TextureSpec("speckle", frequency=0.5), lux, seed=0,
                       w=320, h=240).view(_Traced)
        if kernel == "compute_metrics":
            compute_metrics(frame)
        elif kernel == "_box_blur":
            markerpipe._box_blur(frame, markerpipe.DESCRIBE_BLUR_PX)
        else:
            extract_descriptors(frame, detect_fast_corners(frame, 20))
        assert len(_Traced.calls) > 5
        assert _Traced.mixed == []


class TestMatching:
    def _descs(self, seed, lux=300.0):
        img = render(TextureSpec("speckle", frequency=0.5), lux, seed=seed,
                     w=128, h=128)
        corners = detect_fast_corners(img, 20)
        return extract_descriptors(img, corners)

    def test_self_match_is_total(self):
        descs = self._descs(1)
        report = match_against_reference(descs, descs)
        assert report.matched == report.reference_total == len(descs)
        assert report.percentage == 100.0

    def test_empty_reference_rejected(self):
        with pytest.raises(InvalidArgumentError):
            match_against_reference(self._descs(1), [])

    def test_empty_scene(self):
        ref = self._descs(1)
        report = match_against_reference([], ref)
        assert report.matched == 0
        assert report.reference_total == len(ref)
        assert report.percentage == 0.0

    def test_scene_order_invariance(self):
        ref = self._descs(1)
        scene = self._descs(2)
        forward = match_against_reference(scene, ref)
        backward = match_against_reference(scene[::-1], ref)
        assert forward.matched == backward.matched

    def test_noise_degrades_match(self):
        ref = self._descs(1, lux=700.0)
        pcts = []
        for lux in (700.0, 300.0, 100.0, 50.0):
            scene = self._descs(1, lux=lux)
            pcts.append(match_against_reference(scene, ref).percentage)
        assert pcts[0] > pcts[1] > pcts[2] > pcts[3]

    def test_matches_oracle_with_ties_and_duplicates(self):
        rng = np.random.default_rng(2024)

        def near_copies(m, n):
            # scene rows k bits from a reference row, k around the threshold
            ref = rng.integers(0, 256, size=(m, 32), dtype=np.uint8)
            bits = np.unpackbits(ref[rng.integers(0, m, size=n)], axis=1)
            for row in bits:
                k = rng.choice([0, 1, 32, 63, 64, 65, 100])
                row[rng.choice(256, size=k, replace=False)] ^= 1
            return np.packbits(bits, axis=1), ref

        def tiny_alphabet(m, n):
            # rows differ only in the low 2 bits of bytes 0 and 1 and end in
            # NUL bytes, so equal distances and repeated rows are common
            ref = np.zeros((m, 32), np.uint8)
            scene = np.zeros((n, 32), np.uint8)
            ref[:, :2] = rng.integers(0, 4, size=(m, 2))
            scene[:, :2] = rng.integers(0, 4, size=(n, 2))
            return scene, ref

        for case in range(400):
            make = near_copies if case % 2 else tiny_alphabet
            scene, ref = make(int(rng.integers(1, 8)), int(rng.integers(0, 10)))
            if len(scene) and rng.random() < 0.5:    # repeat a prefix
                repeat = int(rng.integers(1, len(scene) + 1))
                scene = np.concatenate([scene, scene[:repeat]])
            report = match_against_reference(scene, ref)
            assert report.matched == match_oracle(scene, ref)
            assert report.reference_total == len(ref)


class TestRoiCrop:
    def _marker_image(self, distance=30.0, angle=0.0, lux=500.0, seed=1):
        placement = MarkerPlacement(MarkerSpec("binary-grid-A", 1),
                                    distance, angle)
        return render(TextureSpec("flat", value=0.9), lux, seed=seed,
                      w=320, h=240, marker=placement, sigma0=0)

    def test_crop_bounds_marker(self):
        img = self._marker_image()
        crop = crop_to_marker_roi(img)
        dark_cols = np.nonzero((img < 200).any(axis=0))[0]
        dark_rows = np.nonzero((img < 200).any(axis=1))[0]
        want_w = dark_cols.max() - dark_cols.min() + 1 + 8
        want_h = dark_rows.max() - dark_rows.min() + 1 + 8
        crop_h, crop_w = crop.shape
        assert abs(crop_w - want_w) <= 2
        assert abs(crop_h - want_h) <= 2

    def test_foreshortened_crop_narrower(self):
        straight = crop_to_marker_roi(self._marker_image(angle=0.0))
        slanted = crop_to_marker_roi(self._marker_image(angle=60.0))
        assert slanted.shape[1] < 0.6 * straight.shape[1]
        assert abs(slanted.shape[0] - straight.shape[0]) <= 2

    def test_threshold_matches_per_pixel_reference(self):
        images = [self._marker_image(distance=d, lux=lux, seed=d)
                  for d in (20, 55, 90) for lux in (50.0, 300.0, 1000.0)]
        images += [render(TextureSpec("speckle", frequency=0.5), lux,
                          w=320, h=240) for lux in (50.0, 750.0)]
        rng = np.random.default_rng(11)
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(1, 80, size=2))
            lo, hi = sorted(int(v) for v in rng.integers(0, 256, size=2))
            images.append(rng.integers(lo, hi + 1, size=(h, w), dtype=np.uint8))
        images.append(np.full((8, 8), 77, dtype=np.uint8))
        for pixels in images:
            t = _bimodal_threshold(pixels)
            assert t == bimodal_threshold_reference(pixels)
            assert np.array_equal(pixels < math.ceil(t),
                                  pixels.astype(np.float64) < t)

    def test_no_marker_returns_full_image(self):
        img = render(TextureSpec("flat", value=0.9), 500.0, w=64, h=64,
                     sigma0=0)
        crop = crop_to_marker_roi(img)
        assert crop.shape == (64, 64)


class TestTextureClassification:
    def test_threshold_boundary(self):
        at = metrics_stub(corner_count=FINE_TEXTURE_CORNER_THRESHOLD)
        above = metrics_stub(corner_count=FINE_TEXTURE_CORNER_THRESHOLD + 1)
        assert classify_texture(at) is TextureClass.COARSE
        assert classify_texture(above) is TextureClass.FINE

    def test_rendered_textures(self):
        coarse = render(TextureSpec("checkerboard", cell=32, low=0.1, high=0.9),
                        300.0, w=320, h=240)
        fine = render(TextureSpec("speckle", frequency=0.5), 300.0,
                      w=320, h=240)
        assert classify_texture(compute_metrics(coarse)) is TextureClass.COARSE
        assert classify_texture(compute_metrics(fine)) is TextureClass.FINE


class TestSceneChange:
    def test_no_change(self):
        assert not detect_scene_change(metrics_stub(100.0),
                                       metrics_stub(110.0))

    def test_brightness_jump(self):
        assert detect_scene_change(metrics_stub(100.0), metrics_stub(116.0))

    def test_edge_strength_ratio(self):
        assert detect_scene_change(metrics_stub(edge_strength=50.0),
                                   metrics_stub(edge_strength=101.0))
        assert detect_scene_change(metrics_stub(edge_strength=100.0),
                                   metrics_stub(edge_strength=49.0))
        assert not detect_scene_change(metrics_stub(edge_strength=100.0),
                                       metrics_stub(edge_strength=130.0))

    def test_corner_count_jump(self):
        assert detect_scene_change(metrics_stub(corner_count=100),
                                   metrics_stub(corner_count=201))
        assert not detect_scene_change(metrics_stub(corner_count=100),
                                       metrics_stub(corner_count=199))
