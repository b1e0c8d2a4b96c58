import base64
import json
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from ambientd import cli, httpapi
from ambientd.scene import Region, TextureSpec, render_region
from ambientd.sim import load_scenario

CLI = [sys.executable, "-m", "ambientd.cli"]


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
            "seed-fraction", "texture-cell-fraction", "region-id-empty"])
    def test_bad_actuation_config_exit_2(self, tmp_path, overrides, names):
        scenario = write_scenario(tmp_path / "s.json", **overrides)
        result = run_cli("run", str(scenario))
        assert result.returncode == 2
        assert result.stderr.startswith("ambientd: config error")
        assert names in result.stderr
        assert "Traceback" not in result.stderr

    def test_require_convergence_exit_3(self, tmp_path):
        # a 400-lux cap makes the 750-lux fine-texture target unreachable
        scenario = write_scenario(
            tmp_path / "s.json",
            regions=[{"id": "r", "illuminance": 80.0, "max_lux": 400.0,
                      "texture": {"kind": "speckle", "frequency": 0.5}}])
        result = run_cli("run", str(scenario), "--require-convergence")
        assert result.returncode == 3


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
        return subprocess.Popen(args, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

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
            body = {"region_id": "r", "timestamp_ms": 1000, "lux": 200.0,
                    "image_pgm_b64": base64.b64encode(img.to_pgm()).decode()}
            status, stored = http("PUT", f"{base}/v1/sensors/s1/readings", body)
            assert status == 200
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)   # also closes its pipes

        port2 = free_port()
        proc = self.serve(tmp_path, port2)  # no scenario: replay from disk
        try:
            wait_health(port2, proc)
            base = f"http://127.0.0.1:{port2}"
            status, latest = http("GET", f"{base}/v1/regions/r/metrics/latest")
            assert status == 200
            assert latest == stored
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)   # also closes its pipes

    def test_scenario_registers_its_region_configs(self, tmp_path,
                                                     monkeypatch):
        scenario = write_scenario(
            tmp_path / "s.json",
            policy={"marker_fast_threshold": 30, "max_size_index": 1,
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
        registered = [runtime.config
                      for runtime in served["service"]._regions.values()]
        assert registered == load_scenario(scenario).region_configs()

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
