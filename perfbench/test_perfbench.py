"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import brute  # noqa: E402
import workloads  # noqa: E402
from multiobserver import bank_index, run_estimator  # noqa: E402


def test_smoke_names_every_listed_metric_and_workload():
    p = subprocess.run([sys.executable, str(RUN), "--smoke"],
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    assert json.loads(p.stdout.splitlines()[-1]) == {"smoke": "ok", "problems": []}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-seeds",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_digest_mismatch_fails_the_run(tmp_path, monkeypatch):
    pinned = json.loads(json.dumps(workloads.GOLDEN))
    pinned["bundled"]["example1"]["frames.csv"] = "0" * 64
    monkeypatch.setattr(workloads, "GOLDEN", pinned)
    wl = workloads.BundledRun(0, workloads.SMOKE, tmp_path)
    wl.state = wl.setup()
    wl.run_pass()
    assert len(wl.mismatches) == 1 and "example1/frames.csv" in wl.mismatches[0]


def test_example1_observer_escape_is_a_known_outcome(tmp_path):
    wl = workloads.McSeeds(5070, replace(workloads.SMOKE, mc_block=1), tmp_path)
    wl.state = wl.setup()
    wl.run_pass()
    per = wl.finish()["per_config"]
    assert per["example1"]["starved"] == 1
    assert wl.mismatches == [] and wl.failed == 0 and wl.raised == 1


def test_brute_force_matches_run_estimator_bit_for_bit():
    rng = np.random.default_rng(5)
    p, q, n = 5, 2, 3
    idx = bank_index(p, q)
    est = rng.normal(size=(len(idx.all_subsets), 20, n)) * 10.0 ** rng.integers(-3, 3, (1, 20, 1))
    est[4, 7] = np.nan
    run = run_estimator(idx, idx.all_subsets, est)
    members = [s.members for s in idx.all_subsets]
    for k in range(20):
        pi = brute.pi_at_step({m: est[j, k].tolist() for j, m in enumerate(members)}, p, q)
        assert [pi[m] for m in brute.j_members(p, q)] == run.pi[k].tolist()
        assert idx.j_subsets[run.sigma_idx[k]].members == brute.argmin(pi)
