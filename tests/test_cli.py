import csv
import json
import os
import re
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


@pytest.mark.parametrize(
    "flag, problem",
    [("--window", "window length must be >= 1, got 0"),
     ("--horizon", "horizon must lie in 1..1000000, got 0")],
)
def test_a_bad_run_override_exits_1_and_writes_nothing(scenario_dir, tmp_path, capsys,
                                                       flag, problem):
    code = main(["run", "--config", _path(scenario_dir, "example4"), flag, "0",
                 "--out", str(tmp_path / "runs")])
    assert code == 1
    assert capsys.readouterr().err == f"configuration error (1 problem(s)):\n  - {problem}\n"
    assert list(tmp_path.iterdir()) == []


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


def test_calibrate_without_out_writes_beside_the_config(scenario_dir, tmp_path, capsys):
    config = tmp_path / "example4.json"
    shutil.copyfile(scenario_dir / "example4.json", config)
    before = config.read_bytes()
    code = main(["calibrate", "--config", str(config), "--trials", "2", "--horizon", "30"])
    assert code == 0
    written = tmp_path / "example4.calibrated.json"
    assert f"calibrated bundle written: {written}" in capsys.readouterr().out
    assert config.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "example4.calibrated.json", "example4.json",
    ]


def test_validate_lists_a_failed_slope_condition(scenario_dir, tmp_path, capsys):
    # sin's slope turns negative past pi/2, inside a box of [-2, 2]
    raw = json.loads((scenario_dir / "example3.json").read_text())
    raw["plant"]["slope_box"] = [-2, 2]
    config = tmp_path / "wide_box.json"
    config.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "configuration error (1 problem(s))" in err
    assert "  - slope condition failed on box (-2.0, 2.0)" in err


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


def test_calibrate_refuses_to_overwrite_its_config(scenario_dir, tmp_path, capsys):
    config = tmp_path / "example4.json"
    shutil.copyfile(scenario_dir / "example4.json", config)
    (tmp_path / "sub").mkdir()
    before = config.read_bytes()
    for out in (config, tmp_path / "sub" / ".." / "example4.json"):
        code = main(["calibrate", "--config", str(config), "--trials", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"output path {out} is the config itself" in err
        assert config.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["example4.json", "sub"]


def _stem(column):
    """A column without its trailing index: ``x1`` -> ``x``, ``pi_J:1,2,3`` -> ``pi_``."""
    return re.sub(r"(J:)?[\d,]+$", "", column)


def test_readme_names_every_artifact_column(scenario_dir, tmp_path):
    args = ["--horizon", "30", "--window", "10", "--out", str(tmp_path)]
    assert main(["run", "--config", _path(scenario_dir, "example4"), *args]) == 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Run artifacts\n", 1)[1].split("\n## ", 1)[0]
    named = {_stem(span) for span in re.findall(r"`([^`]+)`", section)}
    columns = set()
    for name in ("trajectory", "frames", "isolation_windows", "isolation_steps"):
        with (tmp_path / "example4" / f"{name}.csv").open(newline="") as fh:
            columns |= {_stem(col) for col in next(csv.reader(fh))}
    assert {"x", "xhat", "pi_", "isolated_set", "Wbar"} <= columns
    assert sorted(columns - named) == []
