import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# pyproject.toml puts src/ on this process's path; the CLI tests start
# `python -m ambientd.cli` in child processes, which need it too
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
