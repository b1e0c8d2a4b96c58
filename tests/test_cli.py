import json
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from ambientd import cli, httpapi
from ambientd.httpapi import PGM_MEDIA_TYPE, READING_HEADER
from ambientd.edge import SensorReading
from ambientd.scene import Region, TextureSpec, render_region
from ambientd.sim import load_scenario

CLI = [sys.executable, "-m", "ambientd.cli"]
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, timeout=300):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=timeout)


REGION = {"id": "r", "illuminance": 80.0,
          "texture": {"kind": "checkerboard", "cell": 32, "low": 0.1, "high": 0.9}}


def write_scenario(path, **overrides):
    doc = {"duration_s": 30.0, "regions": [REGION]}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def regions(**fields):
    """The one region of write_scenario with fields replaced."""
    return [dict(REGION, **fields)]


def marker_regions(**marker):
    return regions(mode="marker", marker=dict(pattern="binary-grid-A", **marker))


def write_pgm(path, texture, lux=500.0, w=64, h=64):
    img = render_region(Region("r", texture, lux), 1, w, h, sigma0=0)
    path.write_bytes(img.to_pgm())
    return path


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        """Nor the HTTP client modules, which only the real-http transport
        needs."""
        probe = ("import sys, ambientd.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy' "
                 "or m in ('urllib.request', 'http.client')))")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_no_source_file_names_scipy(self):
        named = [path for path in sorted(SRC.rglob("*"))
                 if path.is_file() and path.suffix != ".pyc"
                 and b"scipy" in path.read_bytes().lower()]
        assert named == []


class TestRun:
    def test_successful_run_writes_artifacts(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json")
        out = tmp_path / "out"
        result = run_cli("run", str(scenario), "--out", str(out))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert "regions" in report and "r" in report["regions"]
        assert (out / "report.json").exists()
        assert (out / "events.jsonl").exists()
        assert (out / "metrics.csv").exists()

    def test_malformed_scenario_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"regions": [{"id": "r"}]}')
        result = run_cli("run", str(path))
        assert result.returncode == 2
        assert "illuminance" in result.stderr

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        result = run_cli("run", str(path))
        assert result.returncode == 2

    @pytest.mark.parametrize("overrides,names", [
        ({"lux_curve": [[0, 100], [50, 40], [100, 1000]]}, "lux_curve"),
        ({"lux_curve": [[0, 10]]}, "lux_curve"),
        ({"bulb_latency_s": -1}, "bulb_latency_s"),
        ({"eink_latency_s": -1}, "eink_latency_s"),
        ({"policy": {"deadband_fraction": 0.6}}, "deadband_fraction"),
        ({"policy": {"max_size_index": 5}}, "max_size_index"),
        ({"policy": [0.2]}, "policy"),
        # each of these exited 1 with a traceback
        ({"policy": {"marker_fast_threshold": -5}}, "marker_fast_threshold"),
        ({"policy": {"marker_fast_threshold": 0}}, "marker_fast_threshold"),
        ({"regions": [5]}, "regions[0]"),
        ({"trajectory": [5]}, "trajectory[0]"),
        ({"regions": regions(constraints=5)}, "constraints"),
        ({"duration_s": "nan"}, "duration_s"),
        ({"bulb_latency_s": "nan"}, "bulb_latency_s"),
        ({"duration_s": "inf"}, "duration_s"),
        ({"duration_s": "inf", "sensor_period_s": "inf"}, "duration_s"),
        ({"regions": regions(illuminance=-1)}, "illuminance"),
        ({"regions": regions(illuminance="nan")}, "illuminance"),
        ({"regions": regions(texture={"kind": "speckle", "frequency": "nan"})},
         "regions[0].texture"),
        ({"regions": marker_regions(distance_cm="nan")}, "regions[0].marker"),
        ({"trajectory": [{"t_s": "nan", "region": "r"}]}, "trajectory[0]"),
        ({"trajectory": [{"t_s": -1, "region": "r"}]}, "trajectory[0]"),
        ({"regions": marker_regions(),
          "trajectory": [{"t_s": 1, "region": "r", "distance_cm": 0}]},
         "trajectory[0]"),
        ({"regions": regions(id="a/b")}, "region_id"),
        ({"regions": regions(id="../x")}, "region_id"),
        ({"regions": regions(id="x" * 300)}, "region_id"),
        # each of these ran and exited 0 with a wrong result
        ({"regions": regions(max_lux="nan")}, "max_lux"),
        ({"camera_sigma0": "nan"}, "camera_sigma0"),
        ({"camera_sigma0": float("nan")}, "camera_sigma0"),
        ({"sensor_noise_fraction": -1}, "sensor_noise_fraction"),
        ({"policy": {"settle_s": "nan"}}, "settle_s"),
        ({"seed": 1.5}, "seed"),
        ({"regions": regions(texture={"kind": "checkerboard", "cell": 2.7})},
         "cell"),
        ({"regions": regions(id="")}, "region_id"),
        # a marker region died at the first empty reference descriptor set
        ({"policy": {"marker_fast_threshold": 25}}, "marker_fast_threshold"),
        # each of these typos ran with the default in place of the value
        ({"duraton_s": 10.0}, "scenario: 'duraton_s' is not a known key"),
        ({"regions": regions(texture={"kind": "flat", "valu": 0.2})},
         "regions[0].texture: 'valu' is not a known key"),
        ({"policy": {"deadband": 0.2}}, "policy: 'deadband' is not a known key"),
        ({"regions": marker_regions(size_idx=2)},
         "regions[0].marker: 'size_idx' is not a known key"),
        # the placement's nested `spec` parsed and was dropped
        ({"regions": marker_regions(spec=5)},
         "regions[0].marker: 'spec' is not a known key"),
        ({"regions": regions(constraints=[
            {"range": [50, 200], "preferred": 100, "priorty": 1}])},
         "regions[0].constraints[0]: 'priorty' is not a known key"),
        # the label must stay a string, though nothing reads it
        ({"regions": regions(constraints=[
            {"range": [50, 200], "preferred": 100, "source": 5}])},
         "regions[0].constraints[0]: source must be a string or null"),
        # the error named the list, not its entry
        ({"regions": regions(constraints=[
            {"range": [50, 200], "preferred": 300}])},
         "regions[0].constraints[0]: preferred lux must lie within the range"),
    ], ids=["non-monotone-curve", "single-point-curve", "negative-bulb-latency",
            "negative-eink-latency", "deadband-out-of-range",
            "max-size-index-out-of-range", "policy-not-an-object",
            "fast-threshold-negative", "fast-threshold-zero", "region-not-object",
            "trajectory-event-not-object", "constraints-not-list",
            "duration-nan", "bulb-latency-nan", "duration-inf",
            "duration-and-period-inf",
            "illuminance-negative", "illuminance-nan", "frequency-nan",
            "marker-distance-nan", "trajectory-t-nan", "trajectory-t-negative",
            "trajectory-distance-zero", "region-id-slash", "region-id-dotdot",
            "region-id-300-chars", "max-lux-nan", "camera-sigma0-nan-string",
            "camera-sigma0-nan", "sensor-noise-negative", "settle-nan",
            "seed-fraction", "texture-cell-fraction", "region-id-empty",
            "fast-threshold-above-cap", "duration-typo", "texture-typo",
            "policy-typo", "marker-typo", "marker-spec-key",
            "constraint-typo", "constraint-source-not-string",
            "constraint-preferred-outside-range"])
    def test_bad_actuation_config_exit_2(self, tmp_path, overrides, names):
        scenario = write_scenario(tmp_path / "s.json", **overrides)
        result = run_cli("run", str(scenario))
        assert result.returncode == 2
        assert result.stderr.startswith("ambientd: config error")
        assert names in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("transport", ["in-process", "real-http"])
    def test_used_out_dir_exit_2(self, tmp_path, capsys, transport):
        """A second run into one --out replayed the first run's region log,
        found its own t=0 reading stale and exited 1 with a traceback."""
        scenario = write_scenario(tmp_path / "s.json", duration_s=2.0,
                                  sensor_period_s=1.0)
        out = tmp_path / "out"
        argv = ["run", str(scenario), "--out", str(out),
                "--transport", transport]
        assert cli.main(argv) == 0
        log = out / "data" / "region_r.jsonl"
        first = log.read_bytes()
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ambientd: config error") and str(log) in err
        assert log.read_bytes() == first

    def test_require_convergence_exit_3(self, tmp_path):
        # a 400-lux cap makes the 750-lux fine-texture target unreachable
        scenario = write_scenario(
            tmp_path / "s.json",
            regions=[{"id": "r", "illuminance": 80.0, "max_lux": 400.0,
                      "texture": {"kind": "speckle", "frequency": 0.5}}])
        result = run_cli("run", str(scenario), "--require-convergence")
        assert result.returncode == 3


class TestExitMap:
    """`cli.main` maps every ambientd error to exit 2, whichever command
    raised it."""

    @pytest.mark.parametrize("argv", [
        ["run", "{tmp}/bad.json"],
        ["serve", "--bind", "127.0.0.1:65536", "--data-dir", "{tmp}/data"],
        ["characterize", "{tmp}/missing.pgm"],
        ["calibrate", "{tmp}/s.json", "--region", "ghost"],
        ["predict", "--texture", "checkerboard", "--lux", "nan"],
        ["sweep-markers", "--pattern", "velvet", "--out", "{tmp}/grid.csv"],
    ], ids=lambda argv: argv[0])
    def test_bad_input_exit_2(self, tmp_path, capsys, argv):
        (tmp_path / "bad.json").write_text('{"regions": [{"id": "r"}]}')
        write_scenario(tmp_path / "s.json")
        assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("ambientd: config error")
        assert "Traceback" not in err
        assert out == ""


def unreadable_scenario(tmp_path, kind):
    path = tmp_path / "s.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b'{"duration_s": 30.0, "note": "\xff"}')
    elif kind == "nested-too-deep":
        path.write_text("[" * 100_000 + "]" * 100_000)
    return path


class TestScenarioFile:
    # each of these exited 1 with a traceback
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8",
                                      "nested-too-deep"])
    @pytest.mark.parametrize("command", [
        ["run", "{path}"],
        ["calibrate", "{path}", "--region", "r"],
        ["serve", "--scenario", "{path}", "--bind", "127.0.0.1:0",
         "--data-dir", "{data}"]], ids=["run", "calibrate", "serve"])
    def test_unreadable_scenario_exit_2(self, tmp_path, command, kind):
        path = unreadable_scenario(tmp_path, kind)
        args = [a.format(path=path, data=tmp_path / "data") for a in command]
        result = run_cli(*args, timeout=60)
        assert result.returncode == 2
        assert str(path) in result.stderr
        assert "Traceback" not in result.stderr


DEEP = "[" * 100_000 + "]" * 100_000
LONG_INT = "9" * 5_000      # int() takes at most 4 300 digits


class TestJsonLimits:
    """JSON that Python cannot read, nested 100 000 deep or holding an
    integer of 5 000 digits, in a scenario file or a region log line."""

    @pytest.mark.parametrize("value", [LONG_INT, DEEP],
                             ids=["long-int", "deep"])
    def test_scenario_file_exit_2(self, tmp_path, capsys, value):
        # the long integer exited 1 with a ValueError traceback
        path = write_scenario(tmp_path / "s.json")
        path.write_text(path.read_text()[:-1] + f', "seed": {value}}}')
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"ambientd: config error: scenario file {path} is not valid JSON\n")

    @pytest.mark.parametrize("value", [LONG_INT, DEEP],
                             ids=["long-int", "deep"])
    def test_log_line_exit_2_before_binding(self, tmp_path, capsys,
                                            monkeypatch, value):
        # the deep line exited 1 with a RecursionError traceback
        log = tmp_path / "region_r.jsonl"
        log.write_text(f'{{"timestamp_ms": {value}}}\n')
        monkeypatch.setattr(httpapi, "make_server",
                            lambda *args: pytest.fail("serve bound a port"))
        argv = ["serve", "--data-dir", str(tmp_path), "--bind", "127.0.0.1:0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"ambientd: config error: {log}:1: bad record is not valid JSON\n")


class TestCharacterize:
    def test_uniform_image(self, tmp_path):
        path = write_pgm(tmp_path / "flat.pgm", TextureSpec("flat", value=0.5))
        result = run_cli("characterize", str(path))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["brightness"] == 128.0
        assert doc["contrast"] == 0.0
        assert doc["corner_count"] == 0
        assert doc["texture_class"] == "Coarse"

    def test_checkerboard_image(self, tmp_path):
        path = write_pgm(tmp_path / "cb.pgm",
                         TextureSpec("checkerboard", cell=8, low=0.1, high=0.9))
        result = run_cli("characterize", str(path), "--lux", "500")
        doc = json.loads(result.stdout)
        assert doc["edge_strength"] > 0
        assert doc["illuminance"] == 500.0

    @pytest.mark.parametrize("lux", ["nan", "inf", "-5", "1e9"])
    def test_bad_lux_exit_2(self, tmp_path, lux):
        path = write_pgm(tmp_path / "flat.pgm", TextureSpec("flat", value=0.5))
        result = run_cli("characterize", str(path), "--lux", lux)
        assert result.returncode == 2
        assert "illuminance" in result.stderr
        assert result.stdout == ""

    def test_truncated_file_exit_2(self, tmp_path):
        path = write_pgm(tmp_path / "t.pgm", TextureSpec("flat", value=0.5))
        path.write_bytes(path.read_bytes()[:-10])
        result = run_cli("characterize", str(path))
        assert result.returncode == 2
        assert result.stderr.strip()


class TestPredict:
    def test_known_values(self):
        result = run_cli("predict", "--texture", "checkerboard", "--lux", "300")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc == {"expected_error_cm": 4.1, "class": "Good",
                       "estimated": False, "guidance": []}

    def test_poor_prediction_has_guidance(self):
        result = run_cli("predict", "--texture", "fine-paper-like",
                         "--lux", "300")
        doc = json.loads(result.stdout)
        assert doc["class"] == "Poor"
        assert doc["guidance"]

    @pytest.mark.parametrize("lux", ["nan", "inf", "-5"])
    def test_bad_lux_exit_2(self, lux):
        result = run_cli("predict", "--texture", "checkerboard", "--lux", lux)
        assert result.returncode == 2
        assert "lux" in result.stderr

    def test_bogus_texture_exit_2(self):
        result = run_cli("predict", "--texture", "velvet", "--lux", "300")
        assert result.returncode == 2


class TestCalibrate:
    def test_curve_points(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json")
        result = run_cli("calibrate", str(scenario), "--region", "r",
                         "--steps", "5")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["region_id"] == "r"
        assert len(doc["points"]) == 5
        assert doc["points"][0][0] == 0.0
        assert doc["points"][-1][0] == 100.0

    def test_unknown_region_exit_2(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json")
        result = run_cli("calibrate", str(scenario), "--region", "ghost")
        assert result.returncode == 2


class TestSweepMarkers:
    def test_small_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        result = run_cli("sweep-markers", "--pattern", "binary-grid-A",
                         "--distance", "20", "--angle", "0",
                         "--lux", "300", "--trials", "2", "--out", str(out))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["cells"] == 1
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("pattern,distance_cm,angle_deg,lux")
        assert len(lines) == 2


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_health(port, proc, timeout=20.0):
    deadline = time.monotonic() + timeout
    url = f"http://127.0.0.1:{port}/v1/health"
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(f"server exited: {proc.stderr.read()}")
        try:
            with urllib.request.urlopen(url, timeout=1) as resp:
                if resp.status == 200:
                    return
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.1)
    raise AssertionError("server did not come up")


def http(method, url, doc=None):
    data = json.dumps(doc).encode() if doc is not None else None
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


class StopAtOnce:
    """A server that stops as soon as it starts serving."""

    def serve_forever(self):
        raise KeyboardInterrupt

    def server_close(self):
        pass


class TestServe:
    def serve(self, tmp_path, port, scenario=None):
        args = CLI + ["serve", "--bind", f"127.0.0.1:{port}",
                      "--data-dir", str(tmp_path / "data")]
        if scenario:
            args += ["--scenario", str(scenario)]
        # an ignored SIGINT is inherited, a handled one is reset to its
        # default by exec: so the child's Python raises KeyboardInterrupt on
        # SIGINT even where the suite runs with SIGINT ignored
        old = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            return subprocess.Popen(args, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
        finally:
            signal.signal(signal.SIGINT, old)

    @staticmethod
    def stop(proc):
        """Stop the server as ^C does; kill and reap it if it outlives that."""
        proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=10)   # also closes its pipes
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise

    def test_serve_ingest_restart_durability(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json")
        port = free_port()
        proc = self.serve(tmp_path, port, scenario)
        try:
            wait_health(port, proc)
            base = f"http://127.0.0.1:{port}"
            img = render_region(
                Region("r", TextureSpec("checkerboard", cell=32,
                                        low=0.1, high=0.9), 200.0),
                1, 320, 240)
            fields = {"region_id": "r", "timestamp_ms": 1000, "lux": 200.0}
            req = urllib.request.Request(
                f"{base}/v1/sensors/s1/readings", data=img.to_pgm(),
                method="PUT", headers={"Content-Type": PGM_MEDIA_TYPE,
                                       READING_HEADER: json.dumps(fields)})
            with urllib.request.urlopen(req, timeout=10) as resp:
                status, stored = resp.status, json.loads(resp.read())
            assert status == 200
        finally:
            self.stop(proc)

        port2 = free_port()
        proc = self.serve(tmp_path, port2)  # no scenario: replay from disk
        try:
            wait_health(port2, proc)
            base = f"http://127.0.0.1:{port2}"
            status, latest = http("GET", f"{base}/v1/regions/r/metrics/latest")
            assert status == 200
            assert latest == stored
        finally:
            self.stop(proc)

    def test_scenario_registers_its_region_configs(self, tmp_path,
                                                     monkeypatch):
        scenario = write_scenario(
            tmp_path / "s.json",
            policy={"marker_fast_threshold": 20, "max_size_index": 1,
                    "deadband_fraction": 0.2},
            regions=[
                {"id": "desk", "illuminance": 80.0,
                 "texture": {"kind": "checkerboard", "cell": 32},
                 "constraints": [{"range": [50, 200], "preferred": 150,
                                  "priority": 1}]},
                {"id": "shelf", "illuminance": 60.0, "mode": "marker",
                 "texture": {"kind": "flat", "value": 0.6},
                 "marker": {"pattern": "binary-grid-B", "size_index": 1}}],
            lux_curve=[[0, 20], [50, 300], [100, 900]])
        served = {}

        def make_server(service, host, port):
            served["service"] = service
            return StopAtOnce()

        monkeypatch.setattr(httpapi, "make_server", make_server)
        code = cli.main(["serve", "--scenario", str(scenario),
                         "--bind", "127.0.0.1:0",
                         "--data-dir", str(tmp_path / "data")])
        assert code == 0
        service = served["service"]
        registered = [runtime.config for runtime in service._regions.values()]
        assert registered == load_scenario(scenario).region_configs()
        assert [(c.bulb_actuator, c.eink_actuator) for c in registered] == [
            ("bulb:desk", "eink:desk"), ("bulb:shelf", "eink:shelf")]
        # the configs used to name no actuator, so a served region recorded
        # no command for a reading far from its optimum
        service.ingest_reading(SensorReading("s1", "desk", 1000, lux=80.0))
        assert [(c.actuator_id, c.kind) for c in service.region_commands(
            "desk")] == [("bulb:desk", "set-brightness")]

    def test_torn_last_line_reported(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        data.mkdir()
        record = (b'{"region_id": "r", "timestamp_ms": 1000, "metrics": '
                  b'{"brightness": 1.0, "contrast": 1.0, "edge_strength": 1.0,'
                  b' "corner_count": 0, "illuminance": 80.0}, '
                  b'"texture_class": "Coarse", "scene_change": false}\n')
        (data / "region_r.jsonl").write_bytes(record + record[:-7])
        monkeypatch.setattr(httpapi, "make_server",
                            lambda service, host, port: StopAtOnce())
        code = cli.main(["serve", "--bind", "127.0.0.1:0",
                         "--data-dir", str(data)])
        assert code == 0
        assert f"{len(record) - 7} bytes" in capsys.readouterr().err
        assert (data / "region_r.jsonl").read_bytes() == record

    def test_unparseable_log_line_exit_2(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "region_r.jsonl").write_text("not json\n")
        result = run_cli("serve", "--bind", "127.0.0.1:0",
                         "--data-dir", str(data))
        assert result.returncode == 2
        assert "region_r.jsonl:1:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_log_name_without_region_id_exit_2(self, tmp_path, monkeypatch,
                                               capsys):
        # the message named the rule and not the file that broke it
        log = tmp_path / "region_a b.jsonl"
        log.write_text("")
        monkeypatch.setattr(httpapi, "make_server",
                            lambda *args: pytest.fail("serve bound a port"))
        argv = ["serve", "--data-dir", str(tmp_path), "--bind", "127.0.0.1:0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"ambientd: config error: {log}: region_id must be")

    def test_occupied_port_exit_1(self, tmp_path):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            result = run_cli("serve", "--bind", f"127.0.0.1:{port}",
                             "--data-dir", str(tmp_path / "data"))
            assert result.returncode == 1
            assert "cannot bind" in result.stderr

    def test_bad_bind_exit_2(self, tmp_path):
        result = run_cli("serve", "--bind", "localhost:notaport",
                         "--data-dir", str(tmp_path / "data"))
        assert result.returncode == 2

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_out_of_range_port_exit_2(self, tmp_path, monkeypatch, capsys,
                                      port):
        """Each of these exited 1 with an OverflowError traceback."""
        def make_server(service, host, port):
            raise AssertionError("a server was made")

        monkeypatch.setattr(httpapi, "make_server", make_server)
        data = tmp_path / "data"
        code = cli.main(["serve", "--bind", f"127.0.0.1:{port}",
                         "--data-dir", str(data)])
        assert code == 2
        assert "bad bind address" in capsys.readouterr().err
        assert not data.exists()
