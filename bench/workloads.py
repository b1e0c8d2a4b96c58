"""The benchmark's three workloads: input generation, set-up, timed units of
work, span hooks and output checks.

Each workload object goes through the same steps:

- `generate()` writes the inputs the program reads; it is not timed.
- `setup(t0)` imports the package and builds everything up to the first timed
  op. It returns the set-up split measured from `t0`.
- `prepare(k)` builds what unit `k` starts from; it is not timed.
- `run_unit(k, tracer)` runs one unit of work and returns the latency of each
  op in it, in ms. Unit `k` depends only on the seed and `k`, and starts
  from the same state whatever ran before it, so repeating it must repeat
  its outputs and its amount of work.
- `cleanup()` tears down what the unit left running; it is not timed.
- `instrument(tracer)` wraps the lookup sites of the package's functions as
  spans (see spans.py).
- `problems` lists every failed output check; `failed` counts failed ops.

Only the inputs reach the program: the seed never does, except as the
scenario or sweep seed that the package itself takes.
"""
from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import os
import random
import shutil
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_source_path():
    """Make `import ambientd` load this checkout's source tree."""
    if not (SRC / "ambientd" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ambientd source tree under {SRC}")
    sys.path.insert(0, str(SRC))


def _import_package():
    import ambientd
    if Path(ambientd.__file__).resolve().parent != SRC / "ambientd":
        raise SystemExit(f"bench: ambientd was imported from {ambientd.__file__}")
    from ambientd import (characterize, edge, httpapi, markerpipe, policy,
                          scene, sim)
    return {"characterize": characterize, "edge": edge, "httpapi": httpapi,
            "markerpipe": markerpipe, "policy": policy, "scene": scene,
            "sim": sim}


def sub_seed(seed, *parts):
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


# -- spans common to every workload ------------------------------------------

SPAN_NAMES = (
    "scene.render_region",
    "scene.SyntheticImage.to_pgm",
    "scene.SyntheticImage.from_pgm",
    "scene.read_light_sensor",
    "characterize.compute_metrics",
    "characterize.detect_fast_corners.frame",
    "characterize.detect_fast_corners.roi",
    "characterize.crop_to_marker_roi",
    "characterize.extract_descriptors",
    "characterize.match_against_reference",
    "markerpipe.match_marker",
    "markerpipe.resize_bilinear",
    "markerpipe.normalize_contrast",
    "markerpipe.reference_descriptors",
    "policy.illuminance_control_step",
    "policy.marker_control_step",
    "edge.EdgeService.ingest_reading",
    "edge.EdgeService.get_trend",
    "edge.EdgeService.get_latest_metrics",
    "edge.EdgeService.dispatch_command",
    "edge.EdgeService.register_region",
    "httpapi.client.put_reading",
    "httpapi.client.trend",
    "httpapi.client.latest",
    "httpapi.handler.do_PUT",
    "httpapi.handler.do_GET",
    "sim.Simulator.run",
)


def _count_frame_corners(tracer, span, args, result):
    tracer.count("frame_corners", len(result))


def _count_matches(tracer, span, args, result):
    tracer.count("matched", result.matched)
    tracer.count("scene_descriptors", len(args[0]))


def _count_reference_hit(tracer, span, args, result):
    # a miss builds the reference through the traced pipeline
    tracer.count("reference_hits", span.children == 0)


def _count_bulb_step(tracer, span, args, result):
    tracer.count("policy_steps")
    tracer.count("policy_commands", result is not None)


def _count_marker_step(tracer, span, args, result):
    tracer.count("policy_steps")
    tracer.count("policy_commands", len(result[1]))


def instrument_package(tracer, pkg):
    """Wrap each function where its caller looks it up."""
    sim, scene, characterize, markerpipe, policy, edge = (
        pkg["sim"], pkg["scene"], pkg["characterize"], pkg["markerpipe"],
        pkg["policy"], pkg["edge"])
    wrap = tracer.wrap
    wrap(sim, "render_region", "scene.render_region")
    wrap(scene.SyntheticImage, "to_pgm", "scene.SyntheticImage.to_pgm")
    wrap(scene.SyntheticImage, "from_pgm", "scene.SyntheticImage.from_pgm")
    wrap(sim, "read_light_sensor", "scene.read_light_sensor")
    wrap(characterize, "compute_metrics", "characterize.compute_metrics")
    wrap(characterize, "detect_fast_corners",
         "characterize.detect_fast_corners.frame", observe=_count_frame_corners)
    wrap(markerpipe, "detect_fast_corners", "characterize.detect_fast_corners.roi")
    wrap(markerpipe, "crop_to_marker_roi", "characterize.crop_to_marker_roi")
    wrap(markerpipe, "extract_descriptors", "characterize.extract_descriptors")
    wrap(markerpipe, "match_against_reference",
         "characterize.match_against_reference", observe=_count_matches)
    wrap(markerpipe, "match_marker", "markerpipe.match_marker")
    wrap(sim, "match_marker", "markerpipe.match_marker")
    wrap(markerpipe, "resize_bilinear", "markerpipe.resize_bilinear")
    wrap(markerpipe, "normalize_contrast", "markerpipe.normalize_contrast")
    wrap(markerpipe, "reference_descriptors", "markerpipe.reference_descriptors",
         observe=_count_reference_hit)
    wrap(policy, "illuminance_control_step", "policy.illuminance_control_step",
         observe=_count_bulb_step)
    wrap(policy, "marker_control_step", "policy.marker_control_step",
         observe=_count_marker_step)
    for method in ("ingest_reading", "get_trend", "get_latest_metrics",
                   "dispatch_command", "register_region"):
        wrap(edge.EdgeService, method, f"edge.EdgeService.{method}")
    wrap(sim.Simulator, "run", "sim.Simulator.run")


def instrument_server(tracer, server):
    handler = server.RequestHandlerClass
    tracer.wrap(handler, "do_PUT", "httpapi.handler.do_PUT")
    tracer.wrap(handler, "do_GET", "httpapi.handler.do_GET")


class _Workload:
    name = ""

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.pkg = None
        self.problems = []
        self.failed = 0

    def generate(self):
        pass

    def prepare(self, k):
        pass

    def cleanup(self):
        pass

    def instrument(self, tracer):
        instrument_package(tracer, self.pkg)

    def finish(self):
        """Untimed work after the timed run, before the checks."""

    def close(self):
        pass

    def problem(self, message):
        if len(self.problems) < 20:
            self.problems.append(message)


# -- loop_mix3 -----------------------------------------------------------------


class LoopMix3(_Workload):
    """Closed loop over real HTTP: three regions, 1 s sensor period."""

    name = "loop_mix3"
    EPISODE_S = 20.0

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self._built = 0
        self._prebuilt = None        # episode 0's Simulator, built by set-up
        self._simulator = None       # the Simulator of the unit in hand
        self.digests = {}            # episode -> set of event-log digests

    def _scenario(self, episode):
        sim, scene = self.pkg["sim"], self.pkg["scene"]
        shelf = scene.MarkerPlacement(scene.MarkerSpec("binary-grid-A", 0),
                                      90.0, 0.0)
        return sim.Scenario(
            regions=[
                sim.RegionScenario("desk", scene.TextureSpec("checkerboard", cell=32), 80.0),
                sim.RegionScenario("wall", scene.TextureSpec("speckle", frequency=0.5), 80.0),
                sim.RegionScenario("shelf", scene.TextureSpec("flat", value=0.6), 60.0,
                                   mode="marker", marker=shelf),
            ],
            duration_s=self.EPISODE_S, sensor_period_s=1.0,
            seed=sub_seed(self.seed, "episode", episode))

    def _build(self, episode):
        data_dir = self.work_dir / f"episode-{os.getpid()}-{self._built}"
        self._built += 1
        return self.pkg["sim"].Simulator(self._scenario(episode), "real-http",
                                         data_dir=data_dir)

    def setup(self, t0):
        self.pkg = _import_package()
        t_import = perf_counter()
        self._prebuilt = self._build(0)
        t_built = perf_counter()
        markerpipe, scene = self.pkg["markerpipe"], self.pkg["scene"]
        threshold = self._prebuilt.scenario.marker_fast_threshold
        for pattern in scene.MARKER_PATTERNS:
            for size in (0, 1, 2):
                markerpipe.reference_descriptors(scene.MarkerSpec(pattern, size),
                                                 threshold)
        t_ready = perf_counter()
        return {"import_s": t_import - t0, "replay_s": t_built - t_import,
                "warmup_s": t_ready - t_built, "setup_s": t_ready - t0}

    def prepare(self, k):
        """Build the episode's Simulator (its edge service, HTTP server and
        server thread) outside the timed interval."""
        if k == 0 and self._prebuilt is not None:
            self._simulator, self._prebuilt = self._prebuilt, None
        else:
            self._simulator = self._build(k)
        # `Simulator.run` closes its transport when the episode ends; the
        # close waits for the server's poll interval (0.5 s), which is idle
        # time, so it is deferred to cleanup().
        self._simulator.transport.close = lambda: None

    def run_unit(self, k, tracer=None):
        simulator = self._simulator
        transport = simulator.transport
        put = transport.put_reading
        latencies = []

        def timed_put(sensor_id, body):
            start = perf_counter()
            try:
                put(sensor_id, body)
            except Exception:
                self.failed += 1
                raise
            latencies.append((perf_counter() - start) * 1000.0)

        transport.put_reading = timed_put
        if tracer is not None:
            tracer.wrap(transport, "put_reading", "httpapi.client.put_reading",
                        client=True)
            instrument_server(tracer, transport.server)
        try:
            events, report = simulator.run()
        except Exception as e:  # one failed reading ends the episode
            self.problem(f"episode {k}: {type(e).__name__}: {e}")
            return latencies
        self._check_report(k, report)
        digest = hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()
        self.digests.setdefault(k, set()).add(digest)
        return latencies

    def cleanup(self):
        if self._simulator is not None:
            transport = self._simulator.transport
            type(transport).close(transport)
            self._simulator = None

    def _check_report(self, k, report):
        regions = report["regions"]
        for rid in ("desk", "wall"):
            if not regions[rid]["converged"]:
                self.problem(f"episode {k}: {rid} did not converge "
                             f"(last {regions[rid]['converged_lux']} lux)")
        if regions["shelf"]["marker_phase"] != "Satisfied":
            self.problem(f"episode {k}: shelf ended {regions['shelf']['marker_phase']}")

    def finish(self):
        for k, digests in sorted(self.digests.items()):
            if len(digests) != 1:
                self.problem(f"episode {k}: event logs differ between repeats")

    def close(self):
        self.cleanup()
        if self._prebuilt is not None:
            self._prebuilt.transport.close()
            self._prebuilt = None


# -- edge_rw -------------------------------------------------------------------


class _Client:
    """One closed-loop HTTP client, one request in flight, one connection per
    request (as the simulator's HTTP transport does)."""

    def __init__(self, port):
        self.port = port

    def _request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def put_reading(self, sensor_id, doc):
        return self._request("PUT", f"/v1/sensors/{sensor_id}/readings",
                             json.dumps(doc).encode())

    def trend(self, region_id, window_s):
        return self._request(
            "GET", f"/v1/regions/{region_id}/metrics/trend?window_s={window_s}")

    def latest(self, region_id):
        return self._request("GET", f"/v1/regions/{region_id}/metrics/latest")

    def health(self):
        return self._request("GET", "/v1/health")


class EdgeRW(_Workload):
    """Lux-only readings, trend and latest queries over 16 markerless regions
    with a replayed history, served by `httpapi.make_server`.

    The request mix is an assumed synthetic one, not measured from real
    traffic: no serve log or trace exists to derive it from, and the only
    client in the package (the simulator) sends image readings only.

    Every unit starts from a fresh service over a fresh copy of the generated
    history, so each unit sees the same history size however many requests
    earlier units (or a faster build) got through."""

    name = "edge_rw"
    REGIONS = 16
    HISTORY = 5000
    PERIOD_MS = 1000
    T0_MS = 1_700_000_000_000
    WINDOW_S = 3600
    # assumed mix per 20 requests: 16 PUT readings, 3 trend, 1 latest
    MIX = "PPPPPTPPPPPLPPPPTPPT"
    UNIT_OPS = 3000
    # the serve thread is the benchmark's own, so it chooses how soon
    # `shutdown()` is noticed; requests are answered as they arrive either way
    POLL_S = 0.05

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.history_dir = self.work_dir / "history"
        self.data_dir = self.work_dir / "data"
        self.region_ids = [f"r{i:02d}" for i in range(self.REGIONS)]
        self.history = {}       # region -> (timestamps, change prefix counts, last record)
        self.optimal = {}
        self.commands = []
        self.service = self.server = self.client = self._thread = None
        self._used = False      # the running service has served a unit
        self.rng = self.ts = self.changes = self.latest_doc = None

    def generate(self):
        self.history_dir.mkdir(parents=True)
        rng = random.Random(sub_seed(self.seed, "edge_rw"))
        for rid in self.region_ids:
            texture = rng.choice(("Coarse", "Fine"))
            self.optimal[rid] = 300.0 if texture == "Coarse" else 750.0
            ts, changes = [], [0]
            with (self.history_dir / f"region_{rid}.jsonl").open("w") as fh:
                for i in range(self.HISTORY):
                    doc = {
                        "region_id": rid,
                        "timestamp_ms": self.T0_MS + i * self.PERIOD_MS,
                        "metrics": {
                            "brightness": rng.uniform(40.0, 220.0),
                            "contrast": rng.uniform(5.0, 80.0),
                            "edge_strength": rng.uniform(100.0, 9000.0),
                            "corner_count": rng.randrange(0, 900),
                            "illuminance": rng.uniform(40.0, 1000.0),
                        },
                        "texture_class": texture,
                        "scene_change": rng.random() < 0.02,
                    }
                    fh.write(json.dumps(doc) + "\n")
                    ts.append(doc["timestamp_ms"])
                    changes.append(changes[-1] + doc["scene_change"])
            self.history[rid] = (ts, changes, doc)
        shutil.copytree(self.history_dir, self.data_dir)

    def _start(self):
        edge, httpapi = self.pkg["edge"], self.pkg["httpapi"]
        self.service = edge.EdgeService(self.data_dir)
        for rid in self.region_ids:
            self.service.register_region(
                edge.RegionConfig(rid, bulb_actuator=f"bulb:{rid}"))
            self.service.register_actuator(f"bulb:{rid}", self.commands.append)
        self.server = httpapi.make_server(self.service)
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        kwargs={"poll_interval": self.POLL_S})
        self._thread.start()
        self.client = _Client(self.server.server_address[1])

    def _stop(self):
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._thread.join(timeout=30)
            self.server = self.service = self.client = self._thread = None

    def setup(self, t0):
        self.pkg = _import_package()
        t_import = perf_counter()
        self._start()
        t_built = perf_counter()
        status, _ = self.client.health()
        if status != 200:
            self.problem(f"health check answered {status}")
        t_ready = perf_counter()
        return {"import_s": t_import - t0, "replay_s": t_built - t_import,
                "warmup_s": t_ready - t_built, "setup_s": t_ready - t0}

    def prepare(self, k):
        """A fresh service over the generated history, and unit k's own
        request stream."""
        if self._used:
            self._stop()
            shutil.rmtree(self.data_dir)
            shutil.copytree(self.history_dir, self.data_dir)
            self._start()
        self._used = True
        self.rng = random.Random(sub_seed(self.seed, "edge_rw", k))
        self.ts = {rid: list(h[0]) for rid, h in self.history.items()}
        self.changes = {rid: list(h[1]) for rid, h in self.history.items()}
        self.latest_doc = {rid: h[2] for rid, h in self.history.items()}

    def instrument(self, tracer):
        super().instrument(tracer)
        for route in ("put_reading", "trend", "latest"):
            tracer.wrap(self.client, route, f"httpapi.client.{route}", client=True)
        instrument_server(tracer, self.server)

    def run_unit(self, k, tracer=None):
        rng, client = self.rng, self.client
        latencies = []
        for slot in range(self.UNIT_OPS):
            kind = self.MIX[slot % len(self.MIX)]
            rid = self.region_ids[rng.randrange(self.REGIONS)]
            if kind == "P":
                doc = {"region_id": rid, "timestamp_ms": self.ts[rid][-1] + self.PERIOD_MS,
                       "lux": self.optimal[rid] * rng.uniform(0.7, 1.3)}
                start = perf_counter()
                try:
                    status, reply = client.put_reading(f"sensor:{rid}", doc)
                except OSError as e:
                    self._fail(f"PUT {rid}: {e}")
                    continue
                elapsed = perf_counter() - start
                if self._check_put(rid, doc, status, reply):
                    latencies.append(elapsed * 1000.0)
            else:
                start = perf_counter()
                try:
                    if kind == "T":
                        status, reply = client.trend(rid, self.WINDOW_S)
                    else:
                        status, reply = client.latest(rid)
                except OSError as e:
                    self._fail(f"GET {rid}: {e}")
                    continue
                elapsed = perf_counter() - start
                ok = (self._check_trend(rid, status, reply) if kind == "T"
                      else self._check_latest(rid, status, reply))
                if ok:
                    latencies.append(elapsed * 1000.0)
        return latencies

    def _fail(self, message):
        self.failed += 1
        self.problem(message)

    def _check_put(self, rid, doc, status, reply):
        if status != 200:
            self._fail(f"PUT {rid} answered {status}: {reply}")
            return False
        if (reply.get("region_id") != rid
                or reply.get("timestamp_ms") != doc["timestamp_ms"]
                or reply.get("metrics", {}).get("illuminance") != doc["lux"]):
            self.problem(f"PUT {rid} reply does not echo the reading: {reply}")
        self.ts[rid].append(doc["timestamp_ms"])
        self.changes[rid].append(self.changes[rid][-1] + bool(reply.get("scene_change")))
        self.latest_doc[rid] = reply
        return True

    def _check_latest(self, rid, status, reply):
        if status != 200:
            self._fail(f"GET latest {rid} answered {status}: {reply}")
            return False
        if reply != self.latest_doc[rid]:
            self.problem(f"GET latest {rid} is not the last record written")
        return True

    def _check_trend(self, rid, status, reply):
        if status != 200:
            self._fail(f"GET trend {rid} answered {status}: {reply}")
            return False
        ts = self.ts[rid]
        first = bisect.bisect_left(ts, ts[-1] - self.WINDOW_S * 1000)
        count = len(ts) - first
        changes = self.changes[rid][-1] - self.changes[rid][first]
        if reply.get("count") != count or reply.get("change_events") != changes:
            self.problem(f"GET trend {rid}: count {reply.get('count')} / changes "
                         f"{reply.get('change_events')}, expected {count} / {changes}")
        return True

    def finish(self):
        for cmd in self.commands:
            if (cmd.kind != "set-brightness" or not 0.0 <= cmd.payload <= 100.0
                    or not cmd.actuator_id.startswith("bulb:r")):
                self.problem(f"unexpected command {cmd}")
                break

    def close(self):
        self._stop()


# -- marker_sweep --------------------------------------------------------------


class MarkerSweep(_Workload):
    """Open-loop marker match grid: 4 patterns x 3 poses x 3 lux levels, one
    trial per cell and unit."""

    name = "marker_sweep"
    POSES = ((20, 0), (55, 30), (90, 60))
    NEAR, FAR = POSES[0], POSES[-1]

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.lux_levels = ()
        self.rows = {}           # unit -> list of row lists, one per repeat
        self.sums = {}           # (pattern, pose, lux) -> [total %, trials]

    def setup(self, t0):
        self.pkg = _import_package()
        sim, scene, markerpipe = self.pkg["sim"], self.pkg["scene"], self.pkg["markerpipe"]
        t_import = perf_counter()
        levels = sim.default_sweep_lux_levels()
        self.lux_levels = (levels[0], levels[len(levels) // 2], levels[-1])
        t_built = perf_counter()
        for pattern in scene.MARKER_PATTERNS:
            markerpipe.reference_descriptors(scene.MarkerSpec(pattern, 0))
        t_ready = perf_counter()
        return {"import_s": t_import - t0, "replay_s": t_built - t_import,
                "warmup_s": t_ready - t_built, "setup_s": t_ready - t0}

    def run_unit(self, k, tracer=None):
        sweep = self.pkg["sim"].sweep_marker_grid
        seed = sub_seed(self.seed, "sweep", k)
        rows, latencies = [], []
        for pattern in self.pkg["scene"].MARKER_PATTERNS:
            for pose in self.POSES:
                for lux in self.lux_levels:
                    start = perf_counter()
                    row, = sweep(patterns=[pattern], distances=[pose[0]],
                                 angles=[pose[1]], lux_levels=[lux], trials=1,
                                 seed=seed)
                    latencies.append((perf_counter() - start) * 1000.0)
                    rows.append(row)
        self.rows.setdefault(k, []).append(rows)
        for row in rows:
            key = (row["pattern"], (row["distance_cm"], row["angle_deg"]), row["lux"])
            total = self.sums.setdefault(key, [0.0, 0])
            total[0] += row["mean_match_percentage"]
            total[1] += 1
        return latencies

    def finish(self):
        if len(self.rows.get(0, ())) == 1:
            self.run_unit(0)     # repeat unit 0 to check its rows repeat
        for k, repeats in sorted(self.rows.items()):
            if any(rows != repeats[0] for rows in repeats):
                self.problem(f"unit {k}: sweep rows differ between repeats")
        mean = {key: total / n for key, (total, n) in self.sums.items()}
        low, high = self.lux_levels[0], self.lux_levels[-1]
        for pattern in self.pkg["scene"].MARKER_PATTERNS:
            for lux in self.lux_levels:
                near, far = mean[(pattern, self.NEAR, lux)], mean[(pattern, self.FAR, lux)]
                if not near > far:
                    self.problem(f"{pattern} at {lux} lux: near {near:.1f}% "
                                 f"<= far {far:.1f}%")
            top, bottom = mean[(pattern, self.NEAR, high)], mean[(pattern, self.NEAR, low)]
            if not top > bottom:
                self.problem(f"{pattern} near: {high} lux {top:.1f}% <= "
                             f"{low} lux {bottom:.1f}%")


WORKLOADS = {w.name: w for w in (LoopMix3, EdgeRW, MarkerSweep)}
