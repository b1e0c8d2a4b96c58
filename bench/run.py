"""Benchmark of the ambientd sensing -> actuation loop.

    python3 bench/run.py --workload {loop_mix3,edge_rw,marker_sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from its `src/`.
The workload's inputs are generated from the seed, then units of work run
until their timed intervals add up to S seconds, and their outputs are
checked. The set-up is sampled in fresh interpreters between the units.

With `--trace 0` the last line of stdout is the end-to-end result; with
`--trace 1` it holds the per-layer metrics, from units run alternately with
and without spans. Earlier lines print every metric with its unit, the op
sample count, `failed_frac` and the host facts. The full result (and, when
traced, the spans) is also written under bench/out/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
LAYERS = json.loads((HERE / "layers.json").read_text())
SETUP_SAMPLES = 7

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {}
    for span in workloads.SPAN_NAMES:
        units[f"{span}.calls_per_op"] = "calls/op"
        units[f"{span}.self_ms"] = "ms"
        units[f"{span}.share"] = "fraction"
    units.update({
        "characterize.detect_fast_corners.frame.corners_per_call": "corners/call",
        "characterize.match_against_reference.matched_frac": "fraction",
        "markerpipe.reference_descriptors.hit_ratio": "fraction",
        "policy.commands_per_step": "cmds/step",
        "setup.import_s": "s",
        "setup.replay_s": "s",
        "setup.warmup_s": "s",
        "unattributed.share": "fraction",
        "trace_overhead_frac": "fraction",
    })
    return units


def host_facts(seed, allowed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (workloads.ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": os.cpu_count(), "cpus_allowed": len(allowed),
            "pinned_to_cpu": min(allowed), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "git_commit": commit, "seed": seed}


class SetupSampler:
    """SETUP_SAMPLES set-up splits, each from a fresh interpreter, spread
    evenly over the timed run, so that drift of the host's speed during the
    run reaches setup_s as it reaches the other metrics."""

    def __init__(self, name, seed, work_dir, seconds):
        self.args = [sys.executable, str(HERE / "probe.py"), name, str(seed),
                     str(work_dir)]
        self.seconds = seconds
        self.samples = []

    def take(self):
        done = subprocess.run(self.args, capture_output=True, text=True,
                              timeout=120, check=True)
        self.samples.append(json.loads(done.stdout.splitlines()[-1]))

    def due(self, timed):
        """Take the samples whose slot has come after `timed` seconds."""
        while (len(self.samples) < SETUP_SAMPLES
               and timed >= len(self.samples) * self.seconds / SETUP_SAMPLES):
            self.take()

    def finish(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return self.samples


def timed_unit(workload, k, before=None, tracer=None):
    """Unit k's latencies and its wall time. The unit's preparation,
    `before()`, a full garbage collection and the unit's cleanup fall outside
    the timed interval."""
    workload.prepare(k)
    if before is not None:
        before()
    gc.collect()
    if tracer is not None:
        workload.instrument(tracer)
    start = perf_counter()
    try:
        latencies = workload.run_unit(k, tracer)
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.restore()
        workload.cleanup()
    return latencies, elapsed


def run_plain(workload, seconds, sampler):
    """Units 0, 1, 2, ... until their timed intervals add up to `seconds`.

    ops/s is the median of the units' rates; the latency percentiles pool
    every op of the run."""
    latencies, rates = [], []
    timed = 0.0
    while not rates or timed < seconds:
        unit, elapsed = timed_unit(workload, len(rates),
                                   lambda: sampler.due(timed))
        latencies += unit
        rates.append(len(unit) / elapsed)
        timed += elapsed
    if len(latencies) < 2:
        workload.problem(f"only {len(latencies)} ops completed")
        latencies = [0.0, 0.0]
    return {"ops_per_s": statistics.median(rates),
            "op_ms_p50": statistics.median(latencies),
            "op_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            }, len(latencies), rates


def run_traced(workload, seconds, sampler):
    """Alternate plain and traced runs of unit 0 until their timed intervals
    add up to `seconds`."""
    plain, traced = [], []
    timed = 0.0
    while not traced or timed < seconds:
        unit, elapsed = timed_unit(workload, 0, lambda: sampler.due(timed))
        plain.append((len(unit), elapsed))
        timed += elapsed
        tracer = Tracer()
        unit, elapsed = timed_unit(workload, 0, tracer=tracer)
        traced.append((len(unit), elapsed, tracer))
        timed += elapsed
    return plain, traced


def layer_metrics(plain, traced, samples):
    """Counts come from the first traced unit, so they repeat exactly for a
    seed; times are pooled over every traced unit."""
    first_ops, _, first = traced[0]
    first_self = first.self_times()
    wall = sum(elapsed for _, elapsed, _ in traced)
    pooled = {}
    for _, _, tracer in traced:
        for name, (calls, seconds) in tracer.self_times().items():
            entry = pooled.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
    out = {}
    shares = 0.0
    for span in workloads.SPAN_NAMES:
        calls, seconds = pooled.get(span, (0, 0.0))
        out[f"{span}.calls_per_op"] = first_self.get(span, (0, 0.0))[0] / max(first_ops, 1)
        out[f"{span}.self_ms"] = seconds / calls * 1000.0 if calls else 0.0
        out[f"{span}.share"] = seconds / wall
        shares += seconds / wall

    def ratio(num, den):
        return num / den if den else 0.0

    counts = first.counts
    frame_calls = first_self.get("characterize.detect_fast_corners.frame", (0, 0))[0]
    ref_calls = first_self.get("markerpipe.reference_descriptors", (0, 0))[0]
    out.update({
        "characterize.detect_fast_corners.frame.corners_per_call":
            ratio(counts["frame_corners"], frame_calls),
        "characterize.match_against_reference.matched_frac":
            ratio(counts["matched"], counts["scene_descriptors"]),
        "markerpipe.reference_descriptors.hit_ratio":
            ratio(counts["reference_hits"], ref_calls),
        "policy.commands_per_step":
            ratio(counts["policy_commands"], counts["policy_steps"]),
        "unattributed.share": 1.0 - shares,
    })
    for part in ("import_s", "replay_s", "warmup_s"):
        out[f"setup.{part}"] = statistics.median(s[part] for s in samples)
    plain_rate = statistics.median(n / t for n, t in plain)
    traced_rate = statistics.median(n / t for n, t, _ in traced)
    out["trace_overhead_frac"] = 1.0 - traced_rate / plain_rate
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="default: the workload's default seed in layers.json")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads.add_source_path()
    # One CPU for the whole run, set-up samples included: the package is
    # GIL-bound, and thread handoffs between CPUs of a shared VM add more
    # scheduling noise (steal time) than the effects worth measuring.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    name = args.workload
    seed = LAYERS["workloads"][name]["default_seed"] if args.seed is None else args.seed

    out_dir = HERE / "out"
    work_dir = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, work_dir)
    try:
        workload.generate()
        main_setup = workload.setup(perf_counter())
        sampler = SetupSampler(name, seed, work_dir, args.seconds)
        if args.trace:
            plain, traced = run_traced(workload, args.seconds, sampler)
            attempted = sum(n for n, _ in plain) + sum(n for n, _, _ in traced)
        else:
            measured, n_samples, unit_rates = run_plain(workload, args.seconds,
                                                        sampler)
            attempted = n_samples
        samples = sampler.finish()
        workload.finish()
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted += workload.failed
    if args.trace:
        metrics = layer_metrics(plain, traced, samples)
        units = per_layer_units()
    else:
        measured["setup_s"] = statistics.median(s["setup_s"] for s in samples)
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, units = measured, END_TO_END_UNITS
    result = {"correct": not workload.problems, "attempted": attempted,
              "failed": workload.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}

    host = host_facts(seed, allowed)
    details = {"workload": name, "seconds": args.seconds, "trace": args.trace,
               "host": host, "problems": workload.problems,
               "failed_frac": workload.failed / attempted,
               "setup_samples": samples, "main_setup": main_setup, "result": result}
    print(f"bench {name} seed={seed} trace={args.trace} seconds={args.seconds}")
    print("host " + json.dumps(host, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"  {key:60s} {metric['value']:14.6f} {metric['unit']}")
    if not args.trace:
        details["op_samples"] = n_samples
        details["unit_ops_per_s"] = unit_rates
        print(f"  op samples {n_samples} ({n_samples - int(n_samples * 0.9)} above p90) "
              f"in {len(unit_rates)} units")
    print(f"  failed_frac {details['failed_frac']:.6f} ({workload.failed} of {attempted})")
    for message in workload.problems:
        print(f"  CHECK FAILED: {message}")
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1, sort_keys=True))
    if args.trace:
        with (out_dir / f"{stem}-spans.jsonl").open("w") as fh:
            for unit, (_, _, tracer) in enumerate(traced):
                tracer.write(fh, unit)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
