"""The bundled runs' artifacts must match their pinned SHA-256 digests.

The digests live in the benchmark's ``perfbench/golden.json`` (its
``bundled`` section), so there is one copy of them.  A refactor that
changes one bit of ``trajectory.csv``, ``frames.csv`` or the isolation
CSVs of any bundled scenario fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from multiobserver import load_config, run_scenario

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["bundled"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_artifacts_match_golden_hashes(name, scenario_dir, tmp_path):
    run_scenario(load_config(scenario_dir / f"{name}.json"), out=str(tmp_path))
    got = {
        fname: hashlib.sha256((tmp_path / name / fname).read_bytes()).hexdigest()
        for fname in GOLDEN[name]
    }
    assert got == GOLDEN[name]
