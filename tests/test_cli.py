import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import multiobserver
from multiobserver.cli import main


def _path(scenario_dir, name):
    return str(scenario_dir / f"{name}.json")


def test_validate_accepts_every_bundled_config(scenario_dir, capsys):
    for name in ("example1", "example2", "example3", "example4"):
        assert main(["validate", "--config", _path(scenario_dir, name)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"OK: {name}")
        assert "observers" in out


def test_validate_prints_slope_line_for_circle_family(scenario_dir, capsys):
    main(["validate", "--config", _path(scenario_dir, "example3")])
    assert "slope condition holds" in capsys.readouterr().out


def test_validate_rejects_broken_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"plant": {"family": "nope"}, "scenario": {"q": 1, "horizon": 5}}))
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "unknown family" in err


def _cli(*args):
    """Run the CLI in a fresh interpreter on this package; returns the process."""
    src = str(Path(multiobserver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "multiobserver.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_malformed_values_exit_1_without_traceback(scenario_dir, tmp_path):
    raw = json.loads((scenario_dir / "example3.json").read_text())
    raw["scenario"]["noise_bound"] = "x"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    raw = json.loads((scenario_dir / "example1.json").read_text())
    raw["observers"]["bundle"]["X:1,2"] = raw["observers"]["bundle"]["J:1,2"]
    bad_label = tmp_path / "bad_label.json"
    bad_label.write_text(json.dumps(raw))
    raw = json.loads((scenario_dir / "example1.json").read_text())
    raw["plant"]["A"] = [[1, 0], [0, 1]]
    unread = tmp_path / "unread.json"
    unread.write_text(json.dumps(raw))
    for args in (
        ["validate", "--config", str(bad)],
        ["validate", "--config", str(bad_label)],
        ["validate", "--config", str(unread)],
        ["run", "--config", _path(scenario_dir, "example1"), "--seed", "-1",
         "--out", str(tmp_path)],
    ):
        proc = _cli(*args)
        assert proc.returncode == 1, proc.stderr
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_validate_missing_file_exits_1(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_writes_artifacts_and_reports(scenario_dir, tmp_path, capsys):
    code = main(["run", "--config", _path(scenario_dir, "example1"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "run complete: example1" in out
    assert (tmp_path / "example1" / "metadata.json").exists()
    assert (tmp_path / "example1" / "trajectory.csv").exists()


def test_run_prints_isolation_verdicts(scenario_dir, tmp_path, capsys):
    code = main(["run", "--config", _path(scenario_dir, "example4"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "isolated per window:" in out
    assert "{3}" in out


def test_run_overrides_are_recorded(scenario_dir, tmp_path, capsys):
    code = main([
        "run", "--config", _path(scenario_dir, "example1"),
        "--seed", "3", "--horizon", "20", "--out", str(tmp_path),
    ])
    assert code == 0
    meta = json.loads((tmp_path / "example1" / "metadata.json").read_text())
    assert meta["overrides"] == {"seed": 3, "horizon": 20}
    assert meta["horizon"] == 20


def test_run_window_override_needs_isolation_section(scenario_dir, tmp_path, capsys):
    code = main([
        "run", "--config", _path(scenario_dir, "example1"),
        "--window", "10", "--out", str(tmp_path),
    ])
    assert code == 1
    assert "no isolation section" in capsys.readouterr().err


def test_run_window_override_changes_window_count(scenario_dir, tmp_path, capsys):
    code = main([
        "run", "--config", _path(scenario_dir, "example4"),
        "--window", "200", "--out", str(tmp_path),
    ])
    assert code == 0
    meta = json.loads((tmp_path / "example4" / "metadata.json").read_text())
    assert meta["isolation"]["window"] == 200
    windows = (tmp_path / "example4" / "isolation_windows.csv").read_text().strip().splitlines()
    assert len(windows) == 1 + 5  # header + floor(1000/200) windows


def test_run_divergence_exits_2(scenario_dir, tmp_path, capsys):
    # scan for a seed whose sampled initial state blows the plant up
    for seed in range(40):
        code = main([
            "run", "--config", _path(scenario_dir, "example1"),
            "--seed", str(seed), "--out", str(tmp_path),
        ])
        capt = capsys.readouterr()
        if code == 2:
            assert "runtime failure" in capt.err
            assert "divergence ceiling" in capt.err
            assert "config sha256" in capt.err
            return
        assert code == 0
    pytest.fail("no diverging seed found in 0..39")


def test_calibrate_writes_bundle(scenario_dir, tmp_path, capsys):
    out_file = tmp_path / "cal.json"
    code = main([
        "calibrate", "--config", _path(scenario_dir, "example4"),
        "--trials", "2", "--horizon", "30", "--out", str(out_file),
    ])
    assert code == 0
    assert "calibrated bundle written" in capsys.readouterr().out
    assert out_file.exists()
    bundle = json.loads(out_file.read_text())
    assert all("iss" in entry for entry in bundle["observers"]["bundle"].values())


def test_calibrate_with_a_starved_estimator_exits_2(scenario_dir, tmp_path, capsys, monkeypatch):
    # skip the per-observer fits so example1's estimator fit starves
    monkeypatch.setattr(multiobserver.harness, "calibrate_bank", lambda *args: ({}, []))
    code = main([
        "calibrate", "--config", _path(scenario_dir, "example1"),
        "--trials", "2", "--out", str(tmp_path / "cal.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "runtime failure" in err and "at step 5 of calibration trial 0" in err


def test_plots_emits_files(scenario_dir, tmp_path, capsys):
    main(["run", "--config", _path(scenario_dir, "example1"), "--out", str(tmp_path)])
    capsys.readouterr()
    code = main(["plots", "--in", str(tmp_path / "example1")])
    assert code == 0
    out = capsys.readouterr().out
    assert "states_fig.csv" in out and "error_fig.csv" in out


def test_plots_on_non_run_directory_exits_3(tmp_path, capsys):
    assert main(["plots", "--in", str(tmp_path)]) == 3
    assert "I/O error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def example4_run(scenario_dir, tmp_path_factory):
    """A short example4 run with isolation windows, to copy and break."""
    out = tmp_path_factory.mktemp("runs")
    args = ["--horizon", "30", "--window", "10", "--out", str(out)]
    assert main(["run", "--config", _path(scenario_dir, "example4"), *args]) == 0
    return out / "example4"


def _short_last_row(text):
    return text.rstrip("\n").rsplit(",", 1)[0] + "\n"


# run artifacts broken in a way `plots` must report, by case: the file and the edit
_BROKEN_ARTIFACTS = {
    "frames.csv without e_norm": ("frames.csv", lambda text: text.replace("e_norm", "e", 1)),
    "frames.csv without xhat": ("frames.csv", lambda text: text.replace("xhat", "estimate")),
    "frames.csv with a short row": ("frames.csv", _short_last_row),
    "trajectory.csv without x": ("trajectory.csv", lambda text: text.replace(",x", ",state")),
    "isolation_windows.csv without isolated_set": (
        "isolation_windows.csv", lambda text: text.replace("isolated_set", "isolated", 1)
    ),
    "isolation_windows.csv with a short row": ("isolation_windows.csv", _short_last_row),
}


@pytest.mark.parametrize(
    "case", ['{"files": ', "{}", '{"files": {"trajectory": 5}}', "[]", *_BROKEN_ARTIFACTS]
)
def test_plots_on_malformed_metadata_exits_3(example4_run, tmp_path, case):
    run = shutil.copytree(example4_run, tmp_path / "run")
    name, edit = _BROKEN_ARTIFACTS.get(case, ("metadata.json", lambda text: case))
    (run / name).write_text(edit((run / name).read_text()))
    proc = _cli("plots", "--in", str(run))
    assert proc.returncode == 3, proc.stderr
    assert "I/O error" in proc.stderr
    assert "Traceback" not in proc.stderr
