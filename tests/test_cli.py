import csv
import json
import logging
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
    # the OK line names the least margin and the worst radius over the loops not
    # marked practical: example1's practical S:1 (radius 1) and example3's S loops
    # (no margin) are left out
    lines = {
        "example1": "OK: example1 (p=3, q=1, 6 observers; 5 certified: least margin 1.0000 "
                    "(J:1,2), worst radius 0.7500 (S:2))",
        "example2": "OK: example2 (p=3, q=1, 6 observers; 6 certified: least margin 0.2857 "
                    "(J:1,2), worst radius 0.9531 (S:3))",
        "example3": "OK: example3 (p=5, q=2, 15 observers; 10 certified: least margin 0.3770 "
                    "(J:1,2,3), worst radius 0.6866 (J:1,2,3))",
        "example4": "OK: example4 (p=4, q=1, 10 observers; 10 certified: least margin 0.1283 "
                    "(S:2,3), worst radius 0.8466 (S:2,3))",
    }
    for name, line in lines.items():
        assert main(["validate", "--config", _path(scenario_dir, name)]) == 0
        assert capsys.readouterr().out == line + "\n"


def test_validate_rejects_broken_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"plant": {"family": "nope"}, "scenario": {"q": 1, "horizon": 5}}))
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "unknown family" in err


def _cli(*args):
    """Run the CLI in a fresh interpreter on this package, every warning an error;
    returns the process."""
    src = str(Path(multiobserver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "multiobserver.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_malformed_values_exit_1_without_traceback(scenario_dir, tmp_path):
    raw = json.loads((scenario_dir / "example3.json").read_text())
    raw["scenario"]["horizon"] = "x"
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


@pytest.mark.parametrize(
    "name, label, key, gain, problem",
    [
        ("example1", "J:1,2", "K", [[1e308, 1e308], [1e308, 1e308]], "spectral radius inf"),
        ("example2", "J:1,2", "L", [[1e-310, 0, 0, 0], [0, 0, 0, 1]],
         "coordinate reconstruction for J:1,2 off by nan"),
        ("example3", "J:1,2,3", "L", [[1e308, 0, 0], [0, 0, 0]], "spectral radius inf"),
        ("example4", "J:1,2,3", "L", [[1e308, 0, 0], [0, 0, 0]], "spectral radius inf"),
    ],
    ids=["example1", "example2", "example3", "example4"],
)
def test_an_overflowing_gain_is_a_listed_problem(scenario_dir, tmp_path, name, label, key,
                                                 gain, problem):
    # a finite gain whose error loop or coordinate inverse overflows fails its
    # subset's check instead of reaching the eigenvalue solver
    raw = json.loads((scenario_dir / f"{name}.json").read_text())
    raw["observers"]["bundle"][label][key] = gain
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    proc = _cli("validate", "--config", str(bad))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "1 problem(s)" in proc.stderr and f"  - {label}: " in proc.stderr
    assert problem in proc.stderr


@pytest.mark.parametrize(
    "name, path, value, code",
    [
        # a nonlinearity gain overflows the folded update of a practical
        # observer: its certificate fails unlisted, its track diverges and the
        # run completes
        ("example3", ("observers", "bundle", "S:1", "K"), [[1e308]], 0),
        # an output row that overflows C x: the certificates fail and are listed
        ("example4", ("plant", "C", 0, 0), 1e308, 1),
    ],
    ids=["example3", "example4"],
)
def test_an_overflowing_run_raises_no_warning(scenario_dir, tmp_path, name, path, value, code):
    raw = json.loads((scenario_dir / f"{name}.json").read_text())
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    proc = _cli("run", "--config", str(bad), "--out", str(tmp_path))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / name / "metadata.json").exists() == (code == 0)
    if code:
        # a huge radius is printed in six significant digits
        assert ("  - J:1,2,4: sector certificate failed over slopes [-1, 1] "
                "(spectral radius 1.17845e+307, margin nan;" in proc.stderr), proc.stderr


def test_an_overflowing_threshold_exits_1_from_validate_and_run(scenario_dir, tmp_path):
    # 2*(eps + ...) overflows for every J: listed at load, before anything runs
    raw = json.loads((scenario_dir / "example4.json").read_text())
    raw["isolation"]["eps"] = 1e308
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    for command in (["validate"], ["run", "--out", str(tmp_path)]):
        proc = _cli(*command, "--config", str(bad))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert ("4 problem(s)" in proc.stderr and "  - isolation: threshold for J:1,2,3 must be "
                "finite and >= 0, got inf" in proc.stderr), proc.stderr
    assert not (tmp_path / "example4").exists()


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


def test_run_counts_steps_and_samples_alike(scenario_dir, tmp_path, capsys, caplog):
    # a horizon of T steps gives T+1 samples, x(0) .. x(T); the printed summary
    # and the log line say the same
    with caplog.at_level(logging.INFO, logger="multiobserver"):
        code = main(["run", "--config", _path(scenario_dir, "example2"), "--horizon", "1",
                     "--out", str(tmp_path)])
    assert code == 0
    assert "run complete: example2, 1 steps, 2 samples\n" in capsys.readouterr().out
    assert "run example2: 1 steps, 2 samples, artifacts in" in caplog.text
    rows = (tmp_path / "example2" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 2  # the header and one row per sample


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


_BAD_RUN_OVERRIDES = [
    ("--window", "0", "window length must be >= 1, got 0"),
    ("--horizon", "0", "horizon must lie in 1..1000000, got 0"),
    # 10 observers x 1000001 steps x 2 states passes the 2**24 cap
    ("--horizon", "1000000",
     "batch of 10 observers x 1 seeds x 1000001 steps x 2 states exceeds 16777216 estimates"),
]


@pytest.mark.parametrize(
    "flag, value, problem", _BAD_RUN_OVERRIDES,
    ids=[f"{flag}-{problem}" for flag, _, problem in _BAD_RUN_OVERRIDES],
)
def test_a_bad_run_override_exits_1_and_writes_nothing(scenario_dir, tmp_path, capsys,
                                                       flag, value, problem):
    code = main(["run", "--config", _path(scenario_dir, "example4"), flag, value,
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


def test_run_certifies_the_bank_before_the_plant_runs(scenario_dir, tmp_path, capsys):
    # example1 with a failing J:1,2 gain on seed 2, whose plant diverges at step
    # 4: the certificate is listed (exit 1), not the divergence (exit 2)
    raw = json.loads((scenario_dir / "example1.json").read_text())
    raw["observers"]["bundle"]["J:1,2"]["K"] = [[50, 0], [0, 50]]
    config = tmp_path / "bad_gain.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--seed", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "configuration error (1 problem(s)):\n  - J:1,2: sector certificate failed over slopes "
        "[0, 0] (spectral radius 99, margin 1; need radius < 0.999 and margin >= 0.001); "
        "mark the entry practical or redesign the gain\n"
    )
    assert not out.exists()


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
    # the slope condition is the circle criterion over the channel's sector:
    # example3's S:1 has none over sin's slopes [-1, 1] once it is not practical
    raw = json.loads((scenario_dir / "example3.json").read_text())
    del raw["observers"]["bundle"]["S:1"]["practical"]
    config = tmp_path / "uncertified.json"
    config.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "configuration error (1 problem(s)):\n  - S:1: sector certificate failed over slopes "
        "[-1, 1] (spectral radius 0.851939, margin -0.612403; need radius < 0.999 and "
        "margin >= 0.001); mark the entry practical or redesign the gain\n"
    )


def test_calibrate_with_a_starved_estimator_exits_2(scenario_dir, tmp_path, capsys, monkeypatch):
    # skip the bank's observer rows, not the fused one, so example1's estimator fit starves
    row_fits = multiobserver.calibration._row_fits
    monkeypatch.setattr(multiobserver.calibration, "_row_fits",
                        lambda est, *args: row_fits(est, *args) if len(est) == 1 else [])
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


def test_readme_library_use_block_runs():
    # the documented library calls, run as README shows them: from the
    # repository root, every warning an error
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("seeds finished")
