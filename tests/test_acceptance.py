"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with pytest -s or in captured output on failure).
"""
import functools
import json
import random
import time
import urllib.request
from threading import Thread

import numpy as np
import pytest

from ambientd.characterize import (ImageMetrics, TextureClass, classify_texture,
                                   detect_fast_corners)
from ambientd.edge import EdgeService, RegionConfig
from ambientd.httpapi import PGM_MEDIA_TYPE, READING_HEADER, make_server
from ambientd.policy import (ControlConstraint, IlluminancePolicyState,
                             PolicyConfig, illuminance_control_step,
                             predict_tracking, resolve_constraints)
from ambientd.scene import (DEFAULT_LUX_CURVE, MARKER_PATTERNS, MarkerPlacement,
                            MarkerSpec, Region, TextureSpec, render_region)
from ambientd.sim import (SERVE_POLL_S, RegionScenario, Scenario, Simulator,
                          run_scenario, sweep_marker_grid)

from oracles import fast_oracle


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {summary}")
                raise
            print(f"criterion {number}: PASS - {summary}")
        return run
    return wrap


def metrics_stub(corner_count):
    return ImageMetrics(100.0, 10.0, 50.0, corner_count)


COARSE = TextureSpec("checkerboard", cell=32, low=0.1, high=0.9)
FINE = TextureSpec("speckle", frequency=0.5)


def marker_scenario(max_lux=None, max_size_index=2):
    placement = MarkerPlacement(MarkerSpec("binary-grid-A", 0), 90.0, 0.0)
    return Scenario(
        regions=[RegionScenario("m", TextureSpec("flat", value=0.6), 60.0,
                                mode="marker", marker=placement,
                                max_lux=max_lux)],
        duration_s=60.0, policy=PolicyConfig(max_size_index=max_size_index))


@criterion(1, "coarse scenario converges to 300 lux and fine to 750 lux, "
              "both within 5 sensing periods and < 5 s wall time")
def test_criterion_1_illuminance_convergence():
    start = time.monotonic()
    for texture, target in ((COARSE, 300.0), (FINE, 750.0)):
        scenario = Scenario(regions=[RegionScenario("r", texture, 80.0)],
                            duration_s=40.0)
        sim = Simulator(scenario)
        sim.run()
        reads = [rec.metrics.illuminance
                 for rec in sim.service._runtime("r").records]
        assert len(reads) >= 6
        for lux in reads[5:]:  # from the 6th sample (5 periods elapsed)
            assert abs(lux - target) <= 0.10 * target
    assert time.monotonic() - start < 5.0


@criterion(2, "texture classifier boundary: 251 corners -> Fine, 250 -> Coarse")
def test_criterion_2_texture_rule_boundary():
    assert classify_texture(metrics_stub(251)) is TextureClass.FINE
    assert classify_texture(metrics_stub(250)) is TextureClass.COARSE


@criterion(3, "predictor returns 4.1 cm / 12.0 cm exactly in the medium band "
              "and flags non-measured cells as estimated")
def test_criterion_3_predictor_values():
    for lux in (150.0, 300.0, 450.0):
        checker = predict_tracking("checkerboard", lux)
        paper = predict_tracking("fine-paper-like", lux)
        assert checker.expected_error_cm == 4.1 and not checker.estimated
        assert paper.expected_error_cm == 12.0 and not paper.estimated
    for texture in ("checkerboard", "fine-paper-like"):
        for lux in (50.0, 800.0):
            assert predict_tracking(texture, lux).estimated


@criterion(4, "FAST detector is set-equal to the exhaustive oracle on 25 "
              "images in < 10 s")
def test_criterion_4_fast_oracle_equivalence():
    start = time.monotonic()
    images = []
    images.append(np.full((32, 32), 128, dtype=np.uint8))
    dot = np.full((24, 24), 60, dtype=np.uint8)
    dot[12, 12] = 220
    images.append(dot)
    for i, cell in enumerate((4, 6, 8)):
        img = render_region(
            Region("r", TextureSpec("checkerboard", cell=cell,
                                    low=0.1, high=0.9), 300.0),
            i, 40, 40)
        images.append(img.pixels)
    for i in range(10):
        img = render_region(Region("r", FINE, 300.0), i, 40, 40)
        images.append(img.pixels)
    rng = np.random.default_rng(42)
    while len(images) < 25:
        images.append(rng.integers(0, 256, size=(28, 28), dtype=np.uint8))
    assert len(images) == 25
    for pixels in images:
        got = set(map(tuple, detect_fast_corners(pixels, 20).tolist()))
        assert got == fast_oracle(pixels, 20)
    assert time.monotonic() - start < 10.0


@criterion(5, "sweep grid over 20 seeds: every pattern at every lux matches "
              "better at 20 cm/0 deg than 90 cm/60 deg, and better at the top "
              "lux level than the bottom; sweep < 60 s")
def test_criterion_5_marker_sweep_ordering():
    start = time.monotonic()
    near = sweep_marker_grid(distances=[20], angles=[0], trials=20, seed=0)
    far = sweep_marker_grid(distances=[90], angles=[60], trials=20, seed=0)

    def key(row):
        return (row["pattern"], row["lux"])

    near_by = {key(r): r["mean_match_percentage"] for r in near}
    far_by = {key(r): r["mean_match_percentage"] for r in far}
    assert set(near_by) == set(far_by)
    for k in near_by:
        assert near_by[k] > far_by[k], k
    lux_levels = sorted({lux for _, lux in near_by})
    for pattern in MARKER_PATTERNS:
        assert (near_by[(pattern, lux_levels[-1])]
                > near_by[(pattern, lux_levels[0])]), pattern
    assert time.monotonic() - start < 60.0


@criterion(6, "90 cm / 60 lux marker loop reaches Satisfied within 6 cycles "
              "with a logged escalation; the clamped loop ends Exhausted; "
              "both deterministic")
def test_criterion_6_marker_loop_outcomes():
    events_a, report_a = run_scenario(marker_scenario())
    events_b, report_b = run_scenario(marker_scenario())
    assert (events_a, report_a) == (events_b, report_b)
    region = report_a["regions"]["m"]
    assert region["marker_phase"] == "Satisfied"
    assert region["satisfied_after_cycles"] <= 6
    nodes = {e["node"] for e in events_a}
    assert "bulb/m" in nodes and "eink/m" in nodes  # escalation was logged
    _, clamped = run_scenario(marker_scenario(max_lux=50.0, max_size_index=0))
    assert clamped["regions"]["m"]["marker_phase"] == "Exhausted"


@criterion(7, "PUT->GET preserves the record bit-exactly, dispatch latency "
              "< 0.5 s, E-Ink visible change lands at +1.0 s of virtual time")
def test_criterion_7_protocol_conformance(tmp_path):
    service = EdgeService(tmp_path)
    service.register_region(RegionConfig("r1"))
    service.register_actuator("bulb1", lambda cmd: None)
    server = make_server(service)
    Thread(target=server.serve_forever,
           kwargs={"poll_interval": SERVE_POLL_S}, daemon=True).start()
    base = f"http://127.0.0.1:{server.server_port}"
    try:
        img = render_region(Region("r", COARSE, 200.0), 1, 320, 240)
        fields = {"region_id": "r1", "timestamp_ms": 1000, "lux": 200.0}

        def call(method, path, data=None, headers={}):
            req = urllib.request.Request(base + path, data=data, method=method,
                                         headers=headers)
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())

        _, stored = call("PUT", "/v1/sensors/s1/readings", img.to_pgm(),
                         {"Content-Type": PGM_MEDIA_TYPE,
                          READING_HEADER: json.dumps(fields)})
        _, latest = call("GET", "/v1/regions/r1/metrics/latest")
        assert latest == stored
        status, ack = call("POST", "/v1/actuators/bulb1/commands", json.dumps(
            {"kind": "set-brightness", "payload": 40.0}).encode())
        assert status == 202
        assert ack["dispatch_latency_ms"] < 500.0
    finally:
        server.shutdown()
        server.server_close()

    events, _ = run_scenario(marker_scenario())
    accepted = [e["t_ms"] for e in events
                if e["node"] == "eink/m" and e["kind"] == "command-accepted"]
    visible = [e["t_ms"] for e in events
               if e["node"] == "eink/m" and e["kind"] == "visible-change"]
    assert accepted and visible
    assert any(v - a == 1000 for a in accepted for v in visible)


@criterion(8, "1000 in-deadband steps emit zero commands and the converged "
              "run issues no further bulb commands")
def test_criterion_8_oscillation_guard():
    state = IlluminancePolicyState()
    rng = random.Random(8)
    for i in range(1000):
        lux = 300.0 + rng.uniform(-30.0, 30.0)
        assert illuminance_control_step(state, PolicyConfig(), 300.0, lux,
                                        DEFAULT_LUX_CURVE, float(i)) is None
    sim = Simulator(Scenario(regions=[RegionScenario("r", COARSE, 80.0)],
                             duration_s=60.0))
    _, report = sim.run()
    assert report["regions"]["r"]["converged"]
    commands = sim.service.region_commands("r")
    assert commands and max(c.issued_at_ms for c in commands) < 30_000


@criterion(9, "conflict resolver reproduces both worked examples and 500 "
              "randomized sets stay inside the surviving intersection")
def test_criterion_9_conflict_resolver():
    tracking = ControlConstraint((250.0, 800.0), 750.0, "ar-tracking", priority=0)
    energy_overlap = ControlConstraint((100.0, 400.0), 200.0, "energy", priority=1)
    energy_disjoint = ControlConstraint((100.0, 200.0), 150.0, "energy", priority=1)
    assert resolve_constraints([tracking, energy_overlap]) == 400.0
    assert resolve_constraints([tracking, energy_disjoint]) == 750.0
    rng = random.Random(9)
    for _ in range(500):
        constraints = []
        for i in range(rng.randint(1, 6)):
            lo = rng.uniform(0.0, 900.0)
            hi = lo + rng.uniform(1.0, 400.0)
            constraints.append(ControlConstraint(
                (lo, hi), rng.uniform(lo, hi), f"c{i}", rng.randint(0, 3)))
        result = resolve_constraints(constraints)
        # replay the tier descent to find the surviving intersection
        lo, hi = -float("inf"), float("inf")
        for tier in sorted({c.priority for c in constraints}):
            members = [c for c in constraints if c.priority == tier]
            new_lo = max([lo] + [c.range[0] for c in members])
            new_hi = min([hi] + [c.range[1] for c in members])
            if new_lo > new_hi:
                break
            lo, hi = new_lo, new_hi
        if lo <= hi:
            assert lo - 1e-9 <= result <= hi + 1e-9
        top_tier = min(c.priority for c in constraints)
        top = [c for c in constraints if c.priority == top_tier]
        top_lo = max(c.range[0] for c in top)
        top_hi = min(c.range[1] for c in top)
        if top_lo <= top_hi:
            assert top_lo - 1e-9 <= result <= top_hi + 1e-9


@criterion(10, "restart replays logs to an identical latest record and two "
               "runs of the same scenario are byte-identical")
def test_criterion_10_durability_and_determinism(tmp_path):
    svc = EdgeService(tmp_path / "edge")
    svc.register_region(RegionConfig("r1"))
    img = render_region(Region("r", COARSE, 200.0), 1, 320, 240)
    from ambientd.edge import SensorReading
    for ts in (1000, 2000, 3000):
        svc.ingest_reading(SensorReading("s1", "r1", ts, lux=200.0,
                                         image=img.pixels))
    latest = svc.get_latest_metrics("r1")
    svc2 = EdgeService(tmp_path / "edge")
    svc2.register_region(RegionConfig("r1"))
    assert svc2.get_latest_metrics("r1") == latest

    scenario = Scenario(regions=[RegionScenario("r", COARSE, 80.0)],
                        duration_s=30.0)
    run_scenario(scenario, out_dir=tmp_path / "a")
    run_scenario(Scenario(regions=[RegionScenario("r", COARSE, 80.0)],
                          duration_s=30.0), out_dir=tmp_path / "b")
    assert ((tmp_path / "a" / "events.jsonl").read_bytes()
            == (tmp_path / "b" / "events.jsonl").read_bytes())
