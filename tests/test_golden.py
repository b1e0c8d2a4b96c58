"""The golden corpus: each artifact of mix4.json at seed 0 in process and at
seed 3 over real HTTP, and a small sweep CSV, hash to `expected.json`.

It kills a reordered key in a region log line, a changed float repr of lux
and a reordered `metrics.csv` column, none of which `TestGolden` sees.
`python tests/fixtures/golden/digests.py` prints the digests.
"""
import json

import pytest

from fixtures.golden import digests


@pytest.mark.parametrize("name", digests.NAMES)
def test_corpus_artifacts_are_byte_identical(tmp_path, name):
    want = json.loads(digests.EXPECTED.read_text())[name]
    got = digests.digests(name, tmp_path)
    assert digests.differing(name, got, want) == []
