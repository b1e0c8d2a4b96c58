"""Each decision of the loop is spelled out in one module, its home; every
other module calls the home's name. A pattern below that shows up outside
its home is a second copy of that decision."""
import re
from pathlib import Path

import pytest

import ambientd

SOURCES = {path.stem: path.read_text(encoding="utf-8")
           for path in Path(ambientd.__file__).parent.glob("*.py")}

# (pattern, its home): the reading request's header and media type, the ROI
# margin, the system lux constraint, the name of the Satisfied phase, and the
# settle period, which decides whether a marker step reads its match
HOMES = {
    "READING_HEADER": (r"\bREADING_HEADER\b", "httpapi"),
    "PGM_MEDIA_TYPE": (r"\bPGM_MEDIA_TYPE\b", "httpapi"),
    "ROI_MARGIN_PX": (r"\bROI_MARGIN_PX\b", "characterize"),
    "ControlConstraint-call": (r"\bControlConstraint\(", "policy"),
    "Satisfied-literal": (r"""(["'])Satisfied\1""", "policy"),
    "settle_until": (r"\bsettle_until\b", "policy"),
}


@pytest.mark.parametrize("pattern, home", HOMES.values(), ids=list(HOMES))
def test_a_decision_is_spelled_out_only_in_its_home(pattern, home):
    assert re.search(pattern, SOURCES[home]), f"{home} no longer holds {pattern}"
    strays = sorted(name for name, text in SOURCES.items()
                    if name != home and re.search(pattern, text))
    assert strays == [], f"{pattern} outside {home}"
