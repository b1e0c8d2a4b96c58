"""The benchmark reaches into the package by name: bench/spans.py's tracer
wraps the functions that bench/workloads.py's `instrument_package` names, and
the workloads build their scenarios with positional calls. A package change
that renames one of those names or moves a positional field fails here, in
the tier-1 suite, rather than only in the benchmark's own smoke run. The
bench files are imported as they are, and the package is left as it was."""
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from spans import Tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return workloads._import_package()


def test_instrument_package_finds_every_name_it_wraps(pkg):
    render_region = pkg["sim"].render_region
    dispatch = vars(pkg["edge"].EdgeService)["dispatch_command"]
    tracer = Tracer()
    try:
        workloads.instrument_package(tracer, pkg)
        assert pkg["sim"].render_region is not render_region
    finally:
        tracer.restore()
    assert pkg["sim"].render_region is render_region
    assert vars(pkg["edge"].EdgeService)["dispatch_command"] is dispatch


def test_loop_mix3_builds_its_scenario(pkg, tmp_path):
    workload = workloads.LoopMix3(0, tmp_path)
    workload.pkg = pkg
    scenario = workload._scenario(0)
    assert [r.id for r in scenario.regions] == ["desk", "wall", "shelf"]
    assert [r.mode for r in scenario.regions] == ["markerless"] * 2 + ["marker"]
    assert [r.illuminance for r in scenario.regions] == [80.0, 80.0, 60.0]


def test_instrument_server_wraps_the_live_handler(pkg, tmp_path):
    service = pkg["edge"].EdgeService(tmp_path)
    service.register_region(pkg["edge"].RegionConfig("r"))
    server = pkg["httpapi"].make_server(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    handler = server.RequestHandlerClass
    put, get = handler.do_PUT, handler.do_GET
    tracer = Tracer()
    try:
        workloads.instrument_server(tracer, server)
        assert handler.do_PUT is not put and handler.do_GET is not get
        status, _ = workloads._Client(server.server_port).put_reading(
            "s1", {"region_id": "r", "timestamp_ms": 1000, "lux": 80.0})
        assert status == 200
        names = [span.name for span in tracer.spans]
        assert names == ["httpapi.handler.do_PUT"]
    finally:
        tracer.restore()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert handler.do_PUT is put and handler.do_GET is get
