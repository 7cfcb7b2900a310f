"""The manifest of pinned output digests: one sorted file, and the only home of a digest."""

import json
import re
from pathlib import Path

from conftest import PINNED

ROOT = Path(__file__).parent.parent
MANIFEST = ROOT / "tests" / "digests.json"


def test_manifest_is_sorted_and_indented():
    # so that a moved digest is a one-line diff
    assert MANIFEST.read_text() == json.dumps(PINNED, indent=2, sort_keys=True) + "\n"


def test_values_are_distinct_sha256_digests():
    assert all(re.fullmatch(r"[0-9a-f]{64}", v) for v in PINNED.values())
    assert len(set(PINNED.values())) == len(PINNED)


def test_no_digest_literal_outside_the_manifest():
    files = [*sorted((ROOT / "tests").glob("*.py")), ROOT / ".github" / "workflows" / "tests.yml"]
    found = [f"{f.name}: {m}" for f in files for m in re.findall(r"\b[0-9a-f]{64}\b", f.read_text())]
    assert found == []
