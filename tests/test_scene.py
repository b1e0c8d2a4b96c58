import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambientd import sim
from ambientd.errors import InvalidArgumentError, NotFoundError
from ambientd.scene import (MARKER_PATTERNS, RENDER_CACHE_FRAMES,
                            TEXTURE_KINDS, EnvironmentState, LuxCurve,
                            MarkerPlacement, MarkerSpec, Region,
                            SyntheticImage, TextureSpec, _noise_free_frame,
                            apply_bulb_command, marker_patch_size,
                            read_light_sensor, render_region, texture_field)

from oracles import reference_checkerboard_render, reference_render

MIX4 = Path(__file__).parent / "fixtures" / "golden" / "mix4.json"


def flat_region(value=0.5, lux=500.0):
    return Region("r", TextureSpec("flat", value=value), lux)


class TestRender:
    def test_flat_mid_gray_at_saturation(self):
        img = render_region(flat_region(), 1, 64, 64, sigma0=0)
        assert np.all(img.pixels == 128)

    def test_zero_lux_black(self):
        img = render_region(flat_region(lux=0.0), 1, 64, 64, sigma0=0)
        assert np.all(img.pixels == 0)

    def test_zero_lux_with_noise_nearly_black(self):
        img = render_region(flat_region(lux=0.0), 1, 64, 64)
        # sigma at the 10-lux noise floor is ~28, clipped to non-negative
        assert img.pixels.mean() < 28.0

    def test_checkerboard_matches_reference_renderer(self):
        region = Region("r", TextureSpec("checkerboard", cell=8, low=0.1, high=0.9),
                        500.0)
        img = render_region(region, 7, 64, 64, sigma0=0)
        expected = reference_checkerboard_render(64, 64, 8, 0.1, 0.9, 500.0)
        assert np.array_equal(img.pixels, expected)

    def test_checkerboard_reference_below_saturation(self):
        region = Region("r", TextureSpec("checkerboard", cell=8, low=0.1, high=0.9),
                        220.0)
        img = render_region(region, 7, 64, 64, sigma0=0)
        expected = reference_checkerboard_render(64, 64, 8, 0.1, 0.9, 220.0)
        assert np.array_equal(img.pixels, expected)

    def test_determinism(self):
        region = Region("r", TextureSpec("speckle", frequency=0.5), 300.0)
        a = render_region(region, 42, 64, 48)
        b = render_region(region, 42, 64, 48)
        assert np.array_equal(a.pixels, b.pixels)

    def test_different_seeds_differ(self):
        region = flat_region(lux=300.0)
        a = render_region(region, 1, 64, 64)
        b = render_region(region, 2, 64, 64)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidArgumentError):
            render_region(flat_region(), 1, 16, 64)

    def test_noise_std_decreases_with_lux(self):
        stds = []
        for lux in (50.0, 150.0, 300.0, 750.0):
            region = flat_region(value=0.5, lux=lux)
            base = render_region(region, 0, 64, 64, sigma0=0).pixels.astype(float)
            residuals = []
            for seed in range(100):
                noisy = render_region(region, seed + 1, 64, 64).pixels.astype(float)
                residuals.append(noisy - base)
            stds.append(np.std(np.stack(residuals)))
        assert stds[0] > stds[1] > stds[2] > stds[3]

    def test_light_response_saturates(self):
        a = render_region(flat_region(value=1.0, lux=500.0), 1, 64, 64, sigma0=0)
        b = render_region(flat_region(value=1.0, lux=1000.0), 1, 64, 64, sigma0=0)
        assert a.pixels.mean() == b.pixels.mean()


textures = st.builds(
    TextureSpec, kind=st.sampled_from(TEXTURE_KINDS),
    value=st.sampled_from([0.0, 0.37, 1.0]),
    low=st.sampled_from([0.0, 0.1, 0.3]), high=st.sampled_from([0.7, 0.9, 1.0]),
    cell=st.integers(1, 40), frequency=st.sampled_from([0.05, 0.3, 0.5, 1.0]),
    texture_seed=st.integers(0, 3))
placements = st.builds(
    MarkerPlacement,
    spec=st.builds(MarkerSpec, pattern=st.sampled_from(MARKER_PATTERNS),
                   size_index=st.integers(0, 2)),
    distance_cm=st.sampled_from([10.0, 30.0, 45.5, 90.0, 300.0]),
    viewing_angle_deg=st.sampled_from([0.0, 30.0, 60.0, 85.0]))
odd_sides = st.integers(16, 60).map(lambda n: 2 * n + 1)


def cells(field, side):
    """The side x side cells of a field whose shape is a multiple of side, as
    a (rows, columns, side * side) array."""
    h, w = field.shape
    grid = field.reshape(h // side, side, w // side, side).swapaxes(1, 2)
    return grid.reshape(h // side, w // side, -1)


class TestTextureSemantics:
    """What stripes, speckle and marker-grid mean; the checkerboard has its
    reference render above. Kills marker-grid taking speckle's branch (its
    cells turn uniform values of the frequency's side), horizontal stripes,
    and speckle blocks of side `cell`."""

    def test_stripes_are_vertical_bands_cell_wide(self):
        field = texture_field(TextureSpec("stripes", cell=5, low=0.2,
                                          high=0.8), 23, 7)
        bands = [0.2 if (x // 5) % 2 == 0 else 0.8 for x in range(23)]
        assert np.array_equal(field, np.tile(bands, (7, 1)))

    def test_speckle_blocks_of_side_round_inverse_frequency(self):
        # 1 / 0.3 rounds to 3; `cell` plays no part
        spec = TextureSpec("speckle", low=0.25, high=0.75, cell=8,
                           frequency=0.3)
        blocks = cells(texture_field(spec, 24, 12), 3)
        assert np.all(blocks == blocks[..., :1])
        values = blocks[..., 0]
        assert np.all((values >= 0.25) & (values <= 0.75))
        # each block differs from its neighbours, so none is wider than 3 px
        assert np.all(values[:, 1:] != values[:, :-1])
        assert np.all(values[1:] != values[:-1])

    def test_marker_grid_two_tone_cells_from_texture_seed(self):
        spec = TextureSpec("marker-grid", low=0.1, high=0.9, cell=4,
                           texture_seed=3)
        field = texture_field(spec, 32, 16)
        assert set(np.unique(field)) == {0.1, 0.9}
        blocks = cells(field, 4)
        assert np.all(blocks == blocks[..., :1])
        wider = cells(field, 8)
        assert not np.all(wider == wider[..., :1])
        assert np.array_equal(texture_field(spec, 32, 16), field)
        reseeded = TextureSpec("marker-grid", low=0.1, high=0.9, cell=4,
                               texture_seed=4)
        assert not np.array_equal(texture_field(reseeded, 32, 16), field)


class TestRenderCache:
    """The noise-free frame cache against the uncached float render. The
    tests kill a cache key without the illuminance or without the marker
    pose, a render that returns the cached array when sigma0 is 0, and one
    that adds the noise before the frame is rounded."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(texture=textures,
           states=st.lists(st.tuples(
               st.sampled_from([0.0, 9.0, 60.0, 127.3, 220.0, 500.0, 1000.0]),
               st.none() | placements), min_size=1, max_size=4),
           width=odd_sides, height=odd_sides,
           sigma0=st.sampled_from([0.0, 2.5, 4.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_uncached_render(self, texture, states, width, height,
                                         sigma0, seed):
        # each state after cache_clear() (a miss, or a hit on an earlier
        # equal state), then each again from the cache
        _noise_free_frame.cache_clear()
        regions = [Region("r", texture, lux, marker=marker)
                   for lux, marker in states]
        for _ in range(2):
            for region in regions:
                got = render_region(region, seed, width, height, sigma0=sigma0)
                want = reference_render(region, seed, width, height, sigma0)
                assert np.array_equal(got.pixels, want)

    def test_a_change_of_state_re_renders(self):
        # one region mutated as the simulator's actuators do it
        marker = MarkerPlacement(MarkerSpec("image-uniform", 1), 30.0, 0.0)
        region = Region("r", TextureSpec("checkerboard", cell=8), 100.0,
                        marker=marker)
        _noise_free_frame.cache_clear()
        for change in ({}, {"illuminance": 240.0},
                       {"marker": MarkerPlacement(marker.spec, 45.0, 0.0)},
                       {"marker": MarkerPlacement(marker.spec, 45.0, 60.0)}):
            for name, value in change.items():
                setattr(region, name, value)
            for sigma0 in (0.0, 4.0):
                got = render_region(region, 5, 96, 64, sigma0=sigma0)
                assert np.array_equal(got.pixels, reference_render(
                    region, 5, 96, 64, sigma0))

    @pytest.mark.parametrize("sigma0", [0.0, 4.0])
    def test_pixels_are_writable_and_the_callers_own(self, sigma0):
        region = Region("r", TextureSpec("speckle", frequency=0.5), 300.0)
        first = render_region(region, 3, 64, 48, sigma0=sigma0).pixels
        want = first.copy()
        assert first.flags.writeable
        first[:] = 7
        again = render_region(region, 3, 64, 48, sigma0=sigma0).pixels
        assert np.array_equal(again, want)

    def test_an_int_lux_renders_as_the_equal_float(self):
        texture = TextureSpec("checkerboard", cell=5)
        for sigma0 in (0.0, 4.0):
            _noise_free_frame.cache_clear()
            a = render_region(Region("r", texture, 300), 2, 48, 48,
                              sigma0=sigma0).pixels
            b = render_region(Region("r", texture, 300.0), 2, 48, 48,
                              sigma0=sigma0).pixels
            assert np.array_equal(a, b)

    def test_the_cache_holds_at_most_its_bound(self):
        _noise_free_frame.cache_clear()
        for i in range(RENDER_CACHE_FRAMES + 3):
            render_region(flat_region(lux=10.0 + i), 1, 32, 32)
        info = _noise_free_frame.cache_info()
        assert info.maxsize == RENDER_CACHE_FRAMES
        assert info.currsize == RENDER_CACHE_FRAMES
        assert info.misses == RENDER_CACHE_FRAMES + 3

    def test_a_run_misses_once_per_distinct_region_state(self, monkeypatch):
        states = []
        real = sim.render_region

        def spy(region, *args, **kwargs):
            states.append((region.texture, region.marker, region.illuminance))
            return real(region, *args, **kwargs)

        monkeypatch.setattr(sim, "render_region", spy)
        _noise_free_frame.cache_clear()
        sim.run_scenario(sim.load_scenario(MIX4))
        distinct = len(set(states))
        # a bulb command and an E-Ink update each make a new state; with no
        # more states than entries, nothing is evicted and rendered twice
        assert 4 < distinct <= RENDER_CACHE_FRAMES
        info = _noise_free_frame.cache_info()
        assert (info.misses, info.hits) == (distinct, len(states) - distinct)


class TestMarkerRendering:
    @staticmethod
    def _marker_bbox_width(angle):
        spec = MarkerSpec("binary-grid-A", 1)
        region = Region("r", TextureSpec("flat", value=1.0), 500.0,
                        marker=MarkerPlacement(spec, 30.0, angle))
        img = render_region(region, 1, 320, 240, sigma0=0)
        dark_cols = np.nonzero((img.pixels < 250).any(axis=0))[0]
        return dark_cols.max() - dark_cols.min() + 1

    def test_foreshortening_halves_width_at_60_degrees(self):
        w0 = self._marker_bbox_width(0.0)
        w60 = self._marker_bbox_width(60.0)
        assert abs(w60 - 0.5 * w0) <= 1

    def test_distance_scaling(self):
        spec = MarkerSpec("binary-grid-A", 1)
        near = marker_patch_size(MarkerPlacement(spec, 30.0, 0.0))
        far = marker_patch_size(MarkerPlacement(spec, 60.0, 0.0))
        assert far[0] == round(near[0] / 2)


class TestActuators:
    def make_env(self, **kwargs):
        return EnvironmentState(regions={"a": Region("a", TextureSpec("flat"),
                                                     80.0, **kwargs)})

    def test_bulb_curve_endpoints(self):
        env = self.make_env()
        apply_bulb_command(env, "a", 0.0)
        assert env.region("a").illuminance == 10.0
        apply_bulb_command(env, "a", 100.0)
        assert env.region("a").illuminance == 1000.0

    def test_bulb_curve_midpoint(self):
        env = self.make_env()
        apply_bulb_command(env, "a", 50.0)
        assert env.region("a").illuminance == pytest.approx(505.0)

    def test_bulb_respects_region_cap(self):
        env = self.make_env(max_lux=600.0)
        apply_bulb_command(env, "a", 100.0)
        assert env.region("a").illuminance == 600.0

    def test_unknown_region(self):
        env = self.make_env()
        with pytest.raises(NotFoundError):
            apply_bulb_command(env, "nope", 10.0)

    @pytest.mark.parametrize("target", [100.0, 20.0, 0.0])
    def test_invert_at_or_below_the_first_lux_is_the_first_command(self, target):
        # kills dropping that branch: the segment search then reads
        # luxes[-1] and extrapolates from the last knot (20 lux gives 1.0)
        curve = LuxCurve([(10.0, 100.0), (50.0, 500.0), (100.0, 900.0)])
        assert curve.invert(target) == (10.0, True)


class TestLightSensor:
    def test_noise_disabled_exact(self):
        region = flat_region(lux=300.0)
        assert read_light_sensor(region, 5, noise_fraction=0.0) == 300.0

    def test_bounds(self):
        region = flat_region(lux=300.0)
        for seed in range(50):
            assert 294.0 <= read_light_sensor(region, seed) <= 306.0

    def test_deterministic(self):
        region = flat_region(lux=300.0)
        assert read_light_sensor(region, 9) == read_light_sensor(region, 9)


class TestPgm:
    def test_round_trip(self):
        region = Region("r", TextureSpec("speckle", frequency=0.5), 400.0)
        img = render_region(region, 3, 48, 36)
        back = SyntheticImage.from_pgm(img.to_pgm())
        assert back.pixels.shape == (36, 48)
        assert np.array_equal(back.pixels, img.pixels)

    def test_truncated_rejected(self):
        img = render_region(flat_region(), 1, 32, 32)
        with pytest.raises(InvalidArgumentError):
            SyntheticImage.from_pgm(img.to_pgm()[:-5])

    def test_bad_magic_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticImage.from_pgm(b"P2\n2 2\n255\nabcd")

    def test_header_comment_lines_are_skipped(self):
        # kills a parser that reads "#" as a field: malformed PGM header
        data = b"P5\n# by hand\n3 2\n# maxval next\n255\n" + bytes(range(6))
        pixels = SyntheticImage.from_pgm(data).pixels
        assert pixels.tolist() == [[0, 1, 2], [3, 4, 5]]

    def test_non_decimal_field_is_a_malformed_header(self):
        # kills dropping the ValueError map: int() of b"2a" escapes as is
        with pytest.raises(InvalidArgumentError, match="malformed PGM header"):
            SyntheticImage.from_pgm(b"P5 2a 2 255\n" + bytes(4))


class TestValidation:
    def test_lux_curve_monotone(self):
        with pytest.raises(InvalidArgumentError):
            LuxCurve([(0, 100), (50, 40), (100, 1000)])

    def test_texture_bounds(self):
        with pytest.raises(InvalidArgumentError):
            TextureSpec("flat", value=1.5)
        with pytest.raises(InvalidArgumentError):
            TextureSpec("checkerboard", cell=0)
        with pytest.raises(InvalidArgumentError):
            TextureSpec("speckle", frequency=0.0)

    def test_marker_bounds(self):
        with pytest.raises(InvalidArgumentError):
            MarkerSpec("binary-grid-A", 3)
        with pytest.raises(InvalidArgumentError):
            MarkerPlacement(MarkerSpec("binary-grid-A", 0), -5.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            MarkerPlacement(MarkerSpec("binary-grid-A", 0), 30.0, 90.0)
