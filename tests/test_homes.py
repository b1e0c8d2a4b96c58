"""Each decision of the loop is spelled out in one module, its home; every
other module calls the home's name. A pattern below that shows up outside
its home is a second copy of that decision. Modules meet at public names, so
each can change its private names and fields alone."""
import ast
import re
from pathlib import Path

import pytest

import ambientd

SOURCES = {path.stem: path.read_text(encoding="utf-8")
           for path in Path(ambientd.__file__).parent.glob("*.py")}

# (pattern, its home): the reading request's header and media type, the ROI
# margin, the system lux constraint, the name of the Satisfied phase, the
# settle period, which decides whether a marker step reads its match, the
# two command kinds, which policy emits and edge and sim read by name, and the
# HTTP/1.1 message framing, which the server and the simulator's client share
HOMES = {
    "READING_HEADER": (r"\bREADING_HEADER\b", "httpapi"),
    "PGM_MEDIA_TYPE": (r"\bPGM_MEDIA_TYPE\b", "httpapi"),
    "ROI_MARGIN_PX": (r"\bROI_MARGIN_PX\b", "characterize"),
    "ControlConstraint-call": (r"\bControlConstraint\(", "policy"),
    "Satisfied-literal": (r"""(["'])Satisfied\1""", "policy"),
    "settle_until": (r"\bsettle_until\b", "policy"),
    "set-brightness-literal": (r"""(["'])set-brightness\1""", "policy"),
    "set-marker-literal": (r"""(["'])set-marker\1""", "policy"),
    "HTTP-version": (r"HTTP/1", "httpapi"),
    "Content-Length": (r"(?i)content-length", "httpapi"),
}


@pytest.mark.parametrize("pattern, home", HOMES.values(), ids=list(HOMES))
def test_a_decision_is_spelled_out_only_in_its_home(pattern, home):
    assert re.search(pattern, SOURCES[home]), f"{home} no longer holds {pattern}"
    strays = sorted(name for name, text in SOURCES.items()
                    if name != home and re.search(pattern, text))
    assert strays == [], f"{pattern} outside {home}"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_modules_meet_at_public_names():
    # flags a relative `from .x import _name` and an attribute `X._name`
    # whose base is not self or cls; tests may still read private names
    strays = []
    for module, text in sorted(SOURCES.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")):
                names = [node.attr]
            else:
                continue
            strays += [f"{module}.py:{node.lineno}: {name}"
                       for name in names if is_private(name)]
    assert strays == []
