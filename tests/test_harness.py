import json
from dataclasses import replace
from pathlib import Path

import pytest

from multiobserver import (
    SimulationDivergedError,
    load_config,
    run_scenario,
)
from multiobserver.harness import calibrate, emit_plots, resolve_out_dir
from multiobserver.errors import PlumbingError


def _cfg(scenario_dir, name):
    return load_config(scenario_dir / f"{name}.json")


def test_run_scenario_writes_all_artifacts(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    art = run_scenario(cfg, out=str(tmp_path))
    assert art.out_dir == tmp_path / "example1"
    assert art.trajectory_csv.exists()
    assert art.frames_csv.exists()
    assert art.metadata_json.exists()
    assert art.isolation_windows_csv is None  # example1 has no isolation section
    assert art.isolation is None
    meta = json.loads(art.metadata_json.read_text())
    assert meta["name"] == "example1"
    assert meta["config_sha256"] == cfg.sha256
    assert meta["files"]["isolation_windows"] is None
    assert meta["seed"] == cfg.scenario.seed
    # horizon+2 lines: header plus T+1 steps
    assert len(art.trajectory_csv.read_text().strip().splitlines()) == cfg.scenario.horizon + 2


def test_repeated_runs_are_byte_identical(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    a = run_scenario(cfg, out=str(tmp_path / "a"))
    b = run_scenario(cfg, out=str(tmp_path / "b"))
    assert a.trajectory_csv.read_bytes() == b.trajectory_csv.read_bytes()
    assert a.frames_csv.read_bytes() == b.frames_csv.read_bytes()


def test_seed_override_changes_the_run(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    base = run_scenario(cfg, out=str(tmp_path / "a"))
    cfg2 = _cfg(scenario_dir, "example1")
    cfg2.scenario = replace(cfg2.scenario, seed=1)
    other = run_scenario(cfg2, out=str(tmp_path / "b"), overrides={"seed": 1})
    assert base.trajectory_csv.read_bytes() != other.trajectory_csv.read_bytes()
    meta = json.loads(other.metadata_json.read_text())
    assert meta["overrides"] == {"seed": 1}


def test_run_with_isolation_artifacts(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example4")
    art = run_scenario(cfg, out=str(tmp_path))
    assert art.isolation is not None
    assert art.isolation_windows_csv.exists()
    assert art.isolation_steps_csv.exists()
    meta = json.loads(art.metadata_json.read_text())
    assert meta["isolation"]["window"] == 100
    assert len(meta["isolation"]["thresholds"]) == 4  # one per J-class subset
    # the attacked sensor is found in every full window of this run
    assert art.isolation.windows != ()
    assert all(w.isolated == (3,) for w in art.isolation.windows)


def test_failed_write_leaves_no_tmp_file(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    # a directory where frames.csv belongs: the rename onto it fails
    (tmp_path / "example1" / "frames.csv").mkdir(parents=True)
    with pytest.raises(PlumbingError, match="frames.csv"):
        run_scenario(cfg, out=str(tmp_path))
    assert sorted(p.name for p in (tmp_path / "example1").iterdir()) == [
        "frames.csv", "trajectory.csv",
    ]
    assert not list(tmp_path.rglob("*.tmp"))


def test_divergence_carries_the_config_hash(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    diverged = None
    for seed in range(40):
        cfg.scenario = replace(cfg.scenario, seed=seed)
        try:
            run_scenario(cfg, out=str(tmp_path))
        except SimulationDivergedError as exc:
            diverged = exc
            break
    assert diverged is not None, "expected some seed to diverge on this plant"
    assert diverged.config_sha256 == cfg.sha256
    assert diverged.step > 0


def test_calibrate_writes_a_new_bundle(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example4")
    before = (scenario_dir / "example4.json").read_bytes()
    out = calibrate(cfg, trials=2, horizon=30, out_path=tmp_path / "ex4.cal.json")
    assert out == tmp_path / "ex4.cal.json"
    assert (scenario_dir / "example4.json").read_bytes() == before  # original untouched
    recal = load_config(out)
    models = recal.iss_models()
    assert set(models) == set(recal.bank.all_subsets)
    raw = json.loads(out.read_text())
    assert "iss" in raw["estimator"]
    assert raw["estimator"]["iss"]["k_star"] == 0  # truth-initialized estimator


def test_emit_plots_from_run_artifacts(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example4")
    art = run_scenario(cfg, out=str(tmp_path))
    produced = emit_plots(art.out_dir)
    names = {p.name for p in produced}
    assert names == {"states_fig.csv", "error_fig.csv", "isolation_fig.csv"}
    states = (art.out_dir / "states_fig.csv").read_text().strip().splitlines()
    assert states[0] == "k,x1,xhat1,x2,xhat2"
    assert len(states) == cfg.scenario.horizon + 2
    error = (art.out_dir / "error_fig.csv").read_text().strip().splitlines()
    assert error[0] == "k,e_norm"
    iso = (art.out_dir / "isolation_fig.csv").read_text().strip().splitlines()
    assert iso[0] == "window_i,isolated_sensor"
    assert all(line.endswith(",3") for line in iso[1:])


def test_emit_plots_without_isolation(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    art = run_scenario(cfg, out=str(tmp_path))
    produced = emit_plots(art.out_dir)
    assert {p.name for p in produced} == {"states_fig.csv", "error_fig.csv"}


def test_emit_plots_rejects_non_run_directory(tmp_path):
    with pytest.raises(PlumbingError):
        emit_plots(tmp_path)


def test_out_dir_resolution_precedence(scenario_dir, monkeypatch, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    monkeypatch.delenv("MULTIOBSERVER_OUT", raising=False)
    assert resolve_out_dir(cfg, "explicit") == Path("explicit/example1")
    monkeypatch.setenv("MULTIOBSERVER_OUT", str(tmp_path))
    assert resolve_out_dir(cfg, None) == tmp_path / "example1"
    monkeypatch.delenv("MULTIOBSERVER_OUT")
    assert str(resolve_out_dir(cfg, None)) == "runs/example1"