"""The sha256 of every artifact of the golden corpus.

The corpus is mix4.json run at seed 0 in process and at seed 3 over real
HTTP (`events.jsonl`, `report.json`, `metrics.csv` and each region log), and
a small `sweep-markers` CSV. `expected.json` holds the digests;
`tests/test_golden.py` checks them.

    python tests/fixtures/golden/digests.py

prints the digests as JSON on stdout, names on stderr each artifact whose
digest differs from `expected.json`, and exits 1 if any does. A change that
moves a digest names the artifact and the reason in CHANGES.md, and commits
the new `expected.json`.
"""
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
if __name__ == "__main__":      # run from a checkout without an install
    sys.path.insert(0, str(HERE.parents[2] / "src"))

from ambientd import sim  # noqa: E402

RUNS = {"seed0-in-process": (0, "in-process"),
        "seed3-real-http": (3, "real-http")}
SWEEP = dict(patterns=["binary-grid-A", "image-uniform"], distances=[30, 60],
             angles=[0, 30], lux_levels=[60.0, 300.0], trials=1, seed=0)
NAMES = [*RUNS, "sweep-markers"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(name: str, work: Path) -> dict:
    """{artifact path: sha256} of one corpus entry, made under work."""
    if name == "sweep-markers":
        sim.write_sweep_csv(sim.sweep_marker_grid(**SWEEP), work / "sweep.csv")
        return {"sweep.csv": _sha256(work / "sweep.csv")}
    seed, transport = RUNS[name]
    scenario = replace(sim.load_scenario(HERE / "mix4.json"), seed=seed)
    sim.run_scenario(scenario, transport=transport, out_dir=work)
    return {path.relative_to(work).as_posix(): _sha256(path)
            for path in sorted(work.rglob("*")) if path.is_file()}


def differing(name: str, got: dict, want: dict) -> list:
    """`<entry>/<artifact>` of each artifact made or expected whose digest
    is not the expected one."""
    return [f"{name}/{artifact}" for artifact in sorted({*got, *want})
            if got.get(artifact) != want.get(artifact)]


def main() -> int:
    want = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    got, bad = {}, []
    for name in NAMES:
        with tempfile.TemporaryDirectory(prefix="ambientd-golden-") as work:
            got[name] = digests(name, Path(work))
        bad += differing(name, got[name], want.get(name, {}))
    print(json.dumps(got, indent=2, sort_keys=True))
    for artifact in bad:
        print(f"differs: {artifact}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
