"""Operator CLI: run scenarios, serve the edge API, characterize images,
calibrate the bulb curve, query predictions, and sweep marker grids.

JSON results go to stdout; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import policy, sim
from .characterize import classify_texture, compute_metrics
from .edge import EdgeService, RegionConfig
from .errors import AmbientError, ConfigError, InvalidArgumentError
from .scene import SyntheticImage

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _err(message: str) -> None:
    print(f"ambientd: {message}", file=sys.stderr)


def cmd_run(args) -> int:
    try:
        scenario = sim.load_scenario(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
    except (ConfigError, InvalidArgumentError) as e:
        _err(f"config error: {e}")
        return EXIT_CONFIG
    _, report = sim.run_scenario(scenario, transport=args.transport,
                                 out_dir=args.out)
    print(json.dumps(report, sort_keys=True))
    if args.require_convergence:
        markerless = [r for r in report["regions"].values()
                      if r["marker_phase"] is None]
        if any(not r["converged"] for r in markerless):
            _err("one or more regions failed to converge")
            return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_serve(args) -> int:
    from .httpapi import make_server
    bind = args.bind or os.environ.get("AMBIENTD_BIND_ADDR", "127.0.0.1:8787")
    data_dir = args.data_dir or os.environ.get("AMBIENTD_DATA_DIR", "./ambientd-data")
    host, _, port_s = bind.rpartition(":")
    try:
        port = int(port_s)
    except ValueError:
        _err(f"bad bind address {bind!r}")
        return EXIT_CONFIG
    service = EdgeService(data_dir)
    try:
        if args.scenario:
            configs = sim.load_scenario(args.scenario).region_configs()
        else:
            # re-register any regions with persisted logs so GETs work after
            # restart
            configs = [RegionConfig(region_id=path.stem[len("region_"):])
                       for path in sorted(Path(data_dir).glob("region_*.jsonl"))]
        for config in configs:
            dropped = service.register_region(config)
            if dropped:
                _err(f"region {config.region_id}: dropped a torn last line "
                     f"of {dropped} bytes from its log")
    except (ConfigError, InvalidArgumentError) as e:
        _err(f"config error: {e}")
        return EXIT_CONFIG
    regions = ", ".join(config.region_id for config in configs)
    try:
        server = make_server(service, host or "127.0.0.1", port)
    except OSError as e:
        _err(f"cannot bind {bind}: {e}")
        return EXIT_ERROR
    _err(f"serving on {bind} (regions: {regions or 'none'})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def cmd_characterize(args) -> int:
    try:
        data = Path(args.image).read_bytes()
        image = SyntheticImage.from_pgm(data)
        metrics = compute_metrics(image, args.lux)
    except (OSError, InvalidArgumentError) as e:
        _err(str(e))
        return EXIT_CONFIG
    doc = dict(metrics.to_json(), texture_class=classify_texture(metrics).value)
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    try:
        scenario = sim.load_scenario(args.scenario)
        curve = sim.run_calibration(scenario, args.region, args.steps)
    except AmbientError as e:
        _err(str(e))
        return EXIT_CONFIG
    print(json.dumps({"region_id": args.region,
                      "points": [[c, l] for c, l in curve.points]}))
    return EXIT_OK


def cmd_predict(args) -> int:
    try:
        pred = policy.predict_tracking(args.texture, args.lux)
    except InvalidArgumentError as e:
        _err(str(e))
        return EXIT_CONFIG
    print(json.dumps(pred.to_json(), sort_keys=True))
    return EXIT_OK


def cmd_sweep_markers(args) -> int:
    try:
        rows = sim.sweep_marker_grid(
            patterns=args.pattern or None,
            distances=args.distance or None,
            angles=args.angle or None,
            lux_levels=args.lux or None,
            trials=args.trials,
            size_index=args.size_index,
            seed=args.seed or 0)
    except InvalidArgumentError as e:
        _err(str(e))
        return EXIT_CONFIG
    out = Path(args.out) if args.out else Path("marker_grid.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    sim.write_sweep_csv(rows, out)
    print(json.dumps({"cells": len(rows), "csv": str(out)}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambientd",
        description="Ambient environment optimization for AR")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario")
    p.add_argument("scenario")
    p.add_argument("--transport", choices=["in-process", "real-http"],
                   default="in-process")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--require-convergence", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("serve", help="start the edge service")
    p.add_argument("--bind", default=None, help="host:port")
    p.add_argument("--data-dir", default=None)
    p.add_argument("--scenario", default=None,
                   help="optional scenario file for region/policy config")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("characterize", help="characterize a PGM image")
    p.add_argument("image")
    p.add_argument("--lux", type=float, default=None)
    p.set_defaults(fn=cmd_characterize)

    p = sub.add_parser("calibrate", help="sweep the bulb and fit a lux curve")
    p.add_argument("scenario")
    p.add_argument("--region", required=True)
    p.add_argument("--steps", type=int, default=11)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("predict", help="predict tracking quality")
    p.add_argument("--texture", required=True)
    p.add_argument("--lux", type=float, required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("sweep-markers", help="open-loop marker match grid")
    p.add_argument("--pattern", action="append")
    p.add_argument("--distance", action="append", type=float)
    p.add_argument("--angle", action="append", type=float)
    p.add_argument("--lux", action="append", type=float)
    p.add_argument("--trials", type=int, default=sim.DEFAULT_SWEEP_TRIALS)
    p.add_argument("--size-index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep_markers)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
