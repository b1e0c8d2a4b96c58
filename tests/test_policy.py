import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambientd.characterize import MatchReport, TextureClass
from ambientd.errors import CalibrationError, InvalidArgumentError
from ambientd.policy import (ERROR_TABLE, LUX_BANDS, MAX_CALIBRATION_STEPS,
                             ControlConstraint, IlluminancePolicyState,
                             MarkerControllerState, MarkerPhase, PolicyConfig,
                             calibrate, illuminance_control_step, lux_band,
                             marker_control_step, predict_tracking,
                             resolve_constraints, select_optimal_lux)
from ambientd.scene import DEFAULT_LUX_CURVE, MARKER_PATTERNS, MarkerSpec

from oracles import reference_marker_step


CONFIG = PolicyConfig()


class TestOptimalLux:
    def test_by_texture_class(self):
        assert select_optimal_lux(TextureClass.COARSE) == 300.0
        assert select_optimal_lux(TextureClass.FINE) == 750.0


class TestIlluminanceControl:
    def step(self, state, measured_lux, now, optimal_lux=300.0):
        return illuminance_control_step(state, CONFIG, optimal_lux,
                                        measured_lux, DEFAULT_LUX_CURVE, now)

    def test_command_for_coarse_target(self):
        cmd = self.step(IlluminancePolicyState(), 80.0, now=0.0)
        assert cmd == pytest.approx(29.2929, abs=1e-3)

    def test_command_for_fine_target(self):
        cmd = self.step(IlluminancePolicyState(), 80.0, now=0.0,
                        optimal_lux=750.0)
        assert cmd == pytest.approx(74.7474, abs=1e-3)

    def test_deadband_suppresses_command(self):
        state = IlluminancePolicyState()
        assert self.step(state, 295.0, 0.0) is None
        assert self.step(state, 330.0, 1.0) is None

    def test_settle_window_suppresses_command(self):
        state = IlluminancePolicyState()
        assert self.step(state, 80.0, 0.0) is not None
        assert self.step(state, 80.0, 1.9) is None
        assert self.step(state, 80.0, 2.0) is not None

    def test_thousand_in_deadband_steps_never_command(self):
        state = IlluminancePolicyState()
        rng = random.Random(4)
        for i in range(1000):
            lux = 300.0 + rng.uniform(-30.0, 30.0)
            assert self.step(state, lux, float(i)) is None

    def test_deadband_fraction_validated(self):
        with pytest.raises(InvalidArgumentError):
            PolicyConfig(deadband_fraction=0.6)

    def test_max_size_index_validated(self):
        # a RegionConfig's policy is checked when it is built, not mid-run
        with pytest.raises(InvalidArgumentError):
            PolicyConfig(max_size_index=5)


class TestCalibration:
    def test_recovers_linear_actuator(self):
        rng = random.Random(11)

        def env(command):
            return 10.0 + 9.9 * command

        current = {"cmd": 0.0}
        curve = calibrate(lambda c: current.update(cmd=c),
                          lambda: env(current["cmd"]) * (1 + rng.uniform(-0.01, 0.01)),
                          steps=11)
        for command in (0.0, 25.0, 50.0, 75.0, 100.0):
            assert curve.lux_at(command) == pytest.approx(env(command), rel=0.02)

    def test_saturating_environment_unreachable(self):
        current = {"cmd": 0.0}
        curve = calibrate(lambda c: current.update(cmd=c),
                          lambda: min(10.0 + 9.9 * current["cmd"], 500.0),
                          steps=11)
        command, reachable = curve.invert(750.0)
        assert not reachable
        assert curve.lux_at(command) == pytest.approx(500.0, rel=0.01)

    def test_minimum_two_steps(self):
        with pytest.raises(CalibrationError):
            calibrate(lambda c: None, lambda: 100.0, steps=1)

    def test_maximum_steps(self):
        """A huge step count allocated its commands before it failed."""
        calls = []
        with pytest.raises(CalibrationError, match=str(MAX_CALIBRATION_STEPS)):
            calibrate(calls.append, lambda: 100.0,
                      steps=MAX_CALIBRATION_STEPS + 1)
        assert calls == []
        curve = calibrate(lambda c: None, lambda: 100.0,
                          steps=MAX_CALIBRATION_STEPS)
        assert len(curve.points) == MAX_CALIBRATION_STEPS

    def test_sensor_timeout_raises_calibration_error(self):
        def read():
            raise TimeoutError()

        with pytest.raises(CalibrationError):
            calibrate(lambda c: None, read, steps=3)

    def test_noisy_plateau_is_monotone(self):
        reads = iter([100.0, 310.0, 300.0, 305.0, 900.0])
        curve = calibrate(lambda c: None, lambda: next(reads), steps=5)
        luxes = [l for _, l in curve.points]
        assert all(b >= a for a, b in zip(luxes, luxes[1:]))

    def test_invert_plateau_returns_lowest_command(self):
        reads = iter([100.0, 300.0, 300.0, 300.0, 900.0])
        curve = calibrate(lambda c: None, lambda: next(reads), steps=5)
        command, reachable = curve.invert(300.0)
        assert reachable
        assert command == pytest.approx(25.0)


class TestMarkerController:
    def make_state(self):
        return MarkerControllerState(MarkerSpec("binary-grid-A", 0))

    def step(self, state, pct, now, lux=80.0, texture=TextureClass.COARSE,
             config=CONFIG):
        report = MatchReport(int(pct), 100)
        return marker_control_step(state, config, lambda: report,
                                   select_optimal_lux(texture), lux,
                                   DEFAULT_LUX_CURVE, now)

    def test_satisfied_immediately(self):
        state, intents = self.step(self.make_state(), 80, 0.0)
        assert state.phase is MarkerPhase.SATISFIED
        assert intents == []

    def test_full_escalation_sequence(self):
        state = self.make_state()
        now = 0.0
        seen = []
        for _ in range(10):
            state, intents = self.step(state, 10, now)
            now += 3.0
            seen.extend(intents)
            if state.phase is MarkerPhase.EXHAUSTED:
                break
        assert state.phase is MarkerPhase.EXHAUSTED
        assert [i.kind for i in seen] == [
            "set-brightness", "set-brightness", "set-marker", "set-marker",
            "set-marker", "set-marker", "set-marker"]
        sizes = [i.payload.size_index for i in seen if i.kind == "set-marker"]
        assert sizes[:2] == [1, 2]
        patterns = [i.payload.pattern for i in seen
                    if i.kind == "set-marker"][2:]
        assert patterns == ["binary-grid-B", "image-uniform", "image-nonuniform"]

    def test_light_skipped_when_in_deadband(self):
        state, intents = self.step(self.make_state(), 10, 0.0, lux=300.0)
        assert len(intents) == 1
        assert intents[0].kind == "set-marker"
        assert intents[0].payload.size_index == 1

    def test_at_most_one_actuation_per_observation(self):
        state = self.make_state()
        now = 0.0
        for _ in range(10):
            state, intents = self.step(state, 10, now)
            now += 3.0
            assert len(intents) <= 1

    def test_settle_window_defers_next_action(self):
        state = self.make_state()
        state, intents = self.step(state, 10, 0.0)
        assert len(intents) == 1
        state, intents = self.step(state, 10, 1.0)
        assert intents == []

    def test_size_cap_respected(self):
        state = self.make_state()
        state, intents = self.step(state, 10, 0.0, lux=300.0,
                                   config=PolicyConfig(max_size_index=0))
        # no enlargement possible; goes straight to pattern switching
        assert intents[0].kind == "set-marker"
        assert intents[0].payload.size_index == 0
        assert intents[0].payload.pattern == "binary-grid-B"

    def test_recovery_marks_satisfied(self):
        state = self.make_state()
        state, _ = self.step(state, 10, 0.0)
        state, intents = self.step(state, 70, 3.0)
        assert state.phase is MarkerPhase.SATISFIED
        assert intents == []


CONTROLLER_STATES = st.builds(
    MarkerControllerState,
    st.builds(MarkerSpec, st.sampled_from(MARKER_PATTERNS), st.integers(0, 2)),
    st.sampled_from(MarkerPhase),
    st.integers(0, 3),
    st.one_of(st.just(-math.inf), st.floats(0.0, 10.0)),
    st.lists(st.sampled_from(MARKER_PATTERNS), unique=True).map(tuple))
# a target above 0 %, so a 0 % and a 100 % match always differ at the target
POLICY_CONFIGS = st.builds(
    PolicyConfig, st.floats(0.01, 0.49), st.floats(0.0, 4.0),
    st.integers(1, 100).map(float), st.integers(0, 2))
STEPS = st.tuples(st.integers(0, 100), st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                  POLICY_CONFIGS, st.floats(0.0, 1500.0),
                  st.sampled_from([300.0, 750.0]))


class TestLazyMatch:
    """The marker step calls its match only where the percentage decides the
    outcome, and leaves the state and intents of the eager oracle step."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(CONTROLLER_STATES, st.lists(STEPS, min_size=1, max_size=12))
    def test_equals_the_eager_oracle_and_matches_only_when_read(self, state,
                                                                steps):
        # kills the early return also taken for Exhausted (an Exhausted
        # region no longer turns Satisfied) and a match called on a
        # settling or Satisfied step
        now = 0.0
        for pct, dt, config, lux, optimal in steps:
            now += dt
            before = replace(state)

            def eager(percent):
                return reference_marker_step(
                    replace(before), config, MatchReport(percent, 100),
                    optimal, lux, DEFAULT_LUX_CURVE, now)

            want = eager(pct)
            needs_match = eager(0) != eager(100)
            calls = []

            def match():
                calls.append(pct)
                return MatchReport(pct, 100)

            state, intents = marker_control_step(
                state, config, match, optimal, lux, DEFAULT_LUX_CURVE, now)
            assert (state, intents) == want
            assert len(calls) == needs_match


class TestConstraintResolution:
    def test_worked_example_clamp(self):
        tracking = ControlConstraint((250.0, 800.0), 750.0, "ar-tracking",
                                     priority=0)
        energy = ControlConstraint((100.0, 400.0), 200.0, "energy", priority=1)
        assert resolve_constraints([tracking, energy]) == 400.0

    def test_worked_example_disjoint_lower_tier_dropped(self):
        tracking = ControlConstraint((250.0, 800.0), 750.0, "ar-tracking",
                                     priority=0)
        energy = ControlConstraint((100.0, 200.0), 150.0, "energy", priority=1)
        assert resolve_constraints([tracking, energy]) == 750.0

    def test_single_constraint_returns_preferred(self):
        c = ControlConstraint((100.0, 500.0), 300.0, "only", priority=2)
        assert resolve_constraints([c]) == 300.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            resolve_constraints([])

    def test_preferred_must_be_in_range(self):
        with pytest.raises(InvalidArgumentError):
            ControlConstraint((100.0, 200.0), 300.0, "bad")

    def test_randomized_properties(self):
        rng = random.Random(21)
        for _ in range(500):
            constraints = []
            for i in range(rng.randint(1, 6)):
                lo = rng.uniform(0.0, 900.0)
                hi = lo + rng.uniform(1.0, 400.0)
                preferred = rng.uniform(lo, hi)
                constraints.append(ControlConstraint((lo, hi), preferred, f"c{i}",
                                                     rng.randint(0, 3)))
            result = resolve_constraints(constraints)
            top_tier = min(c.priority for c in constraints)
            top = [c for c in constraints if c.priority == top_tier]
            top_lo = max(c.range[0] for c in top)
            top_hi = min(c.range[1] for c in top)
            if top_lo <= top_hi:
                # a self-consistent top tier is always honoured
                assert top_lo - 1e-9 <= result <= top_hi + 1e-9
            full_lo = max(c.range[0] for c in constraints)
            full_hi = min(c.range[1] for c in constraints)
            if full_lo <= full_hi:
                # when everything intersects, every constraint is honoured
                assert full_lo - 1e-9 <= result <= full_hi + 1e-9
                want = min(c.preferred for c in top)
                assert result == pytest.approx(min(max(want, full_lo), full_hi))


class TestLuxBands:
    @pytest.mark.parametrize("lux,band", [
        (0.0, "low"), (50.0, "low"), (100.0, "low"),
        (120.0, "low"), (125.0, "low"), (126.0, "medium"),
        (150.0, "medium"), (300.0, "medium"), (450.0, "medium"),
        (460.0, "medium"), (475.0, "medium"), (476.0, "high"),
        (500.0, "high"), (1000.0, "high"), (2000.0, "high"),
    ])
    def test_band_assignment(self, lux, band):
        assert lux_band(lux) == band

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            lux_band(-1.0)

    @pytest.mark.parametrize("lux", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, lux):
        with pytest.raises(InvalidArgumentError):
            lux_band(lux)


class TestTrackingPrediction:
    def test_measured_checkerboard_medium(self):
        p = predict_tracking("checkerboard", 300.0)
        assert p.expected_error_cm == 4.1
        assert p.quality == "Good"
        assert not p.estimated
        assert p.guidance == ()

    def test_measured_fine_paper_medium(self):
        p = predict_tracking("fine-paper-like", 300.0)
        assert p.expected_error_cm == 12.0
        assert p.quality == "Poor"
        assert not p.estimated
        assert "Hologram drift likely - increase light level" in p.guidance
        assert "Add visual texture near placement point" in p.guidance

    def test_estimated_cells_flagged(self):
        assert predict_tracking("checkerboard", 50.0).estimated
        assert predict_tracking("checkerboard", 800.0).estimated
        assert predict_tracking("fine-paper-like", 50.0).estimated
        assert predict_tracking("fine-paper-like", 800.0).estimated

    def test_unknown_texture_rejected(self):
        with pytest.raises(InvalidArgumentError):
            predict_tracking("velvet", 300.0)

    def test_every_poor_cell_gets_guidance(self):
        # kills a mutant that drops the drift line: checkerboard/low has no
        # other
        band_lux = {name: lo for name, lo, _ in LUX_BANDS}
        qualities = set()
        for texture, band in ERROR_TABLE:
            p = predict_tracking(texture, band_lux[band])
            qualities.add(p.quality)
            assert p.quality == "Good" or p.guidance, (texture, band)
        assert qualities == {"Good", "Poor"}
