"""Smoke tests of the benchmark: every workload at minimal size, untraced and
traced, emits every metric BENCHMARK.json names, with its unit. That includes
edge_rw, which runs by hand but is not in BENCHMARK.json (see layers.json).

    python3 -m pytest -q bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_package(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "marker_sweep", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_layer_map_names_every_span_once():
    layers = json.loads((HERE / "layers.json").read_text())
    spans = [s for layer in layers["layers"].values() for s in layer["spans"]]
    assert sorted(spans) == sorted(workloads.SPAN_NAMES)
    assert set(layers["workloads"]) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_self_time_excludes_children_and_restore_puts_back():
    class Owner:
        @staticmethod
        def leaf():
            return 1

        def outer(self):
            return self.leaf() + 1

    original_outer, original_leaf = Owner.outer, Owner.__dict__["leaf"]
    tracer = Tracer()
    tracer.wrap(Owner, "outer", "outer")
    tracer.wrap(Owner, "leaf", "leaf")
    assert Owner().outer() == 2
    tracer.restore()
    assert Owner.outer is original_outer and Owner.__dict__["leaf"] is original_leaf
    times = tracer.self_times()
    assert times["outer"][0] == 1 and times["leaf"][0] == 1
    outer, leaf = tracer.spans
    assert leaf.parent is outer
    whole = outer.end - outer.start
    assert times["outer"][1] == pytest.approx(whole - (leaf.end - leaf.start))
