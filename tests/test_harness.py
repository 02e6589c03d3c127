import hashlib
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from _brute import luenberger_observer_track
from _toys import A2, C3, toy_bank
from test_golden import GOLDEN

from multiobserver import (
    ConfigurationError,
    EstimatorRun,
    EstimatorStarvedError,
    ObserverBank,
    SimulationDivergedError,
    build_bank,
    calibrate_estimator,
    load_config,
    run_estimator,
    run_scenario,
    run_seeds,
    simulate,
)
from multiobserver import harness
from multiobserver.config import parse_config
from multiobserver.cli import main as cli_main
from multiobserver.harness import calibrate, resolve_out_dir
from multiobserver.errors import InternalConsistencyError, PlumbingError
from multiobserver.model import MAX_BATCH


def _cfg(scenario_dir, name):
    return load_config(scenario_dir / f"{name}.json")


def test_run_scenario_writes_all_artifacts(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    art = run_scenario(cfg, out=str(tmp_path))
    assert art.out_dir == tmp_path / "example1"
    assert sorted(p.name for p in art.out_dir.iterdir()) == [
        "frames.csv", "metadata.json", "trajectory.csv",
    ]
    assert art.isolation is None  # example1 has no isolation section
    meta = json.loads(art.files["metadata"].read_text())
    assert meta["name"] == "example1"
    assert meta["config_sha256"] == cfg.sha256
    assert meta["files"] == {"trajectory": "trajectory.csv", "frames": "frames.csv",
                             "isolation_windows": None, "isolation_steps": None}
    assert art.files == {key: None if name is None else art.out_dir / name
                         for key, name in {**meta["files"], "metadata": "metadata.json"}.items()}
    assert meta["seed"] == cfg.scenario.seed
    # horizon+2 lines: header plus T+1 steps
    assert len(art.files["trajectory"].read_text().strip().splitlines()) == cfg.scenario.horizon + 2


def test_repeated_runs_are_byte_identical(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    a = run_scenario(cfg, out=str(tmp_path / "a"))
    b = run_scenario(cfg, out=str(tmp_path / "b"))
    for key in ("trajectory", "frames"):
        assert a.files[key].read_bytes() == b.files[key].read_bytes()


def test_seed_override_changes_the_run(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    base = run_scenario(cfg, out=str(tmp_path / "a"))
    cfg2 = _cfg(scenario_dir, "example1")
    cfg2.scenario = replace(cfg2.scenario, seed=1)
    other = run_scenario(cfg2, out=str(tmp_path / "b"), overrides={"seed": 1})
    assert base.files["trajectory"].read_bytes() != other.files["trajectory"].read_bytes()
    meta = json.loads(other.files["metadata"].read_text())
    assert meta["overrides"] == {"seed": 1}


def test_run_with_isolation_artifacts(scenario_dir, tmp_path):
    cfg = _cfg(scenario_dir, "example4")
    art = run_scenario(cfg, out=str(tmp_path))
    assert art.isolation is not None
    assert art.files["isolation_windows"].exists()
    assert art.files["isolation_steps"].exists()
    meta = json.loads(art.files["metadata"].read_text())
    assert list(meta["files"]) == ["trajectory", "frames", "isolation_windows", "isolation_steps"]
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


class _RecordingFile:
    """A text file that records the length of each ``write`` call."""

    def __init__(self, fh, sizes):
        self._fh, self._sizes = fh, sizes

    def write(self, text):
        self._sizes.append(len(text))
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_artifacts_stream_into_their_files(scenario_dir, tmp_path, monkeypatch):
    # each CSV is written a row block at a time, never as one whole-file string
    sizes = {}

    def recording_open(path, *args, **kwargs):
        name = Path(path).name.removesuffix(".tmp")
        return _RecordingFile(open(path, *args, **kwargs), sizes.setdefault(name, []))

    monkeypatch.setattr(harness, "open", recording_open, raising=False)
    run_scenario(_cfg(scenario_dir, "example4"), out=str(tmp_path))
    for name in ("trajectory.csv", "frames.csv"):
        written = sizes.get(name, [])
        assert len(written) > 1, name
        assert max(written) < sum(written) / 3, name
    golden = GOLDEN["example4"]
    got = {name: hashlib.sha256((tmp_path / "example4" / name).read_bytes()).hexdigest()
           for name in golden}
    assert got == golden
    assert sorted(sizes) == sorted([*golden, "metadata.json"])


def test_a_writer_failing_part_way_leaves_no_file(scenario_dir, tmp_path, monkeypatch):
    def fails_after_one_row(run, fh):
        fh.write("k,sigma\n")
        raise ValueError("writer failed")

    monkeypatch.setattr(harness, "frames_to_csv", fails_after_one_row)
    with pytest.raises(ValueError, match="writer failed") as err:
        run_scenario(_cfg(scenario_dir, "example1"), out=str(tmp_path))
    assert type(err.value) is ValueError  # not wrapped as a PlumbingError
    assert [p.name for p in (tmp_path / "example1").iterdir()] == ["trajectory.csv"]


def test_divergence_carries_the_config_hash(scenario_dir, tmp_path, capsys):
    # example1's plant diverges on seed 2, its bank starves on seed 5070, and
    # its 2-trial calibration fails: each exit-2 message ends with the
    # config's hash, and the run leaves no directory behind
    cfg = _cfg(scenario_dir, "example1")
    for seed, error in ((2, SimulationDivergedError), (5070, EstimatorStarvedError)):
        cfg.scenario = replace(cfg.scenario, seed=seed)
        with pytest.raises(error) as err:
            run_scenario(cfg, out=str(tmp_path))
        assert err.value.step > 0
    tag = f" [config sha256 {cfg.sha256[:12]}]\n"
    config = str(scenario_dir / "example1.json")
    for args, message in (
        (["run", "--seed", "2", "--out", str(tmp_path)],
         "plant state exceeded the divergence ceiling at step 4 (|x| = 1.168e+19)"),
        (["run", "--seed", "5070", "--out", str(tmp_path)],
         "all deviation scores are infinite at step 10"),
        (["calibrate", "--trials", "2", "--out", str(tmp_path / "cal.json")],
         "calibration failed for: J:1,2: plant diverged at step 4 of calibration trial 0"),
    ):
        assert cli_main([args[0], "--config", config, *args[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"runtime failure: {message}") and err.endswith(tag), err
    assert list(tmp_path.iterdir()) == []


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


def test_a_calibrated_config_records_its_trials_and_horizon(scenario_dir, tmp_path):
    # calibrating the written file again, with no override, fits the same models
    cfg = _cfg(scenario_dir, "example3")
    once = load_config(calibrate(cfg, trials=2, horizon=50, out_path=tmp_path / "once.json"))
    assert (once.calibration.trials, once.calibration.horizon) == (2, 50)
    again = load_config(calibrate(once, out_path=tmp_path / "again.json"))
    assert again.iss_models() == once.iss_models()
    assert again.estimator_iss == once.estimator_iss


def test_calibrate_lists_its_output_problems_before_fitting(scenario_dir, monkeypatch):
    # a config parsed from a dict has no path to write beside
    cfg = parse_config(json.loads((scenario_dir / "example4.json").read_text()))
    monkeypatch.setattr(harness, "calibrate_bundle", None)  # fitting would fail loudly
    with pytest.raises(ConfigurationError) as err:
        calibrate(cfg, trials=0)
    assert err.value.problems == [
        "calibration needs at least one trial, got 0",
        "no output path for the calibrated bundle",
    ]


def test_out_dir_resolution_precedence(scenario_dir, monkeypatch, tmp_path):
    cfg = _cfg(scenario_dir, "example1")
    monkeypatch.delenv("MULTIOBSERVER_OUT", raising=False)
    assert resolve_out_dir(cfg, "explicit") == Path("explicit/example1")
    monkeypatch.setenv("MULTIOBSERVER_OUT", str(tmp_path))
    assert resolve_out_dir(cfg, None) == tmp_path / "example1"
    monkeypatch.delenv("MULTIOBSERVER_OUT")
    assert str(resolve_out_dir(cfg, None)) == "runs/example1"

def _seed_alone(cfg, bank, scenario):
    """One seed's outcome from ``simulate``, ``bank.run`` and ``run_estimator``."""
    try:
        traj = simulate(cfg.plant, scenario, ceiling=cfg.ceiling)
        est = bank.run(traj.y, traj.u, cfg.initial_estimate(traj.x[0]))
        return run_estimator(cfg.bank, cfg.bank.all_subsets, est, truth=traj.x)
    except (SimulationDivergedError, EstimatorStarvedError) as exc:
        return exc


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_seed_runs_equal_each_seed_alone(cfg, seeds):
    """Check ``run_seeds`` against each seed alone, bit for bit; count outcomes by type."""
    bank, _ = build_bank(cfg)
    got = run_seeds(cfg, bank, seeds)
    assert len(got) == len(seeds)
    for seed, out in zip(seeds, got):
        want = _seed_alone(cfg, bank, replace(cfg.scenario, seed=seed))
        assert type(out) is type(want), seed
        if isinstance(want, EstimatorRun):
            assert out.est.base is None, seed  # its own array, not a view of the batch
            for name in ("est", "pi", "sigma_idx", "x_hat", "truth", "e_norm"):
                assert np.array_equal(_bits(getattr(out, name)), _bits(getattr(want, name))), \
                    (seed, name)
        else:
            assert (out.args, vars(out)) == (want.args, vars(want)), seed
    return Counter(type(out).__name__ for out in got)


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
def test_run_seeds_equals_each_seed_alone(scenario_dir, name):
    # example1's plant escapes on 36 of seeds 0-99, and its bank on seed 5070
    kinds = _assert_seed_runs_equal_each_seed_alone(_cfg(scenario_dir, name), [*range(100), 5070])
    if name == "example1":
        assert kinds == {"EstimatorRun": 64, "SimulationDivergedError": 36,
                         "EstimatorStarvedError": 1}
    else:
        assert kinds == {"EstimatorRun": 101}


def test_run_seeds_with_a_disturbance_input_and_a_low_ceiling(scenario_dir):
    # example3's circle plant with D and n_d = 1, which no bundled plant has, and
    # a divergence ceiling that the structured plant passes on seeds 13 and 14
    raw = json.loads((scenario_dir / "example3.json").read_text())
    raw["plant"]["D"] = [[0.05], [0.1]]
    raw["scenario"]["disturbance"] = [{"kind": "uniform", "low": -0.5, "high": 0.5}]
    cfg = parse_config(raw)
    cfg.ceiling = 3.5
    assert cfg.plant.n_d == 1
    kinds = _assert_seed_runs_equal_each_seed_alone(cfg, range(20))
    assert kinds == {"EstimatorRun": 18, "SimulationDivergedError": 2}


def test_a_bank_out_of_index_order_is_refused(scenario_dir):
    # selection reads the bank's own subset order, so a bank whose observers
    # run in another order than the index is refused rather than misread
    cfg = _cfg(scenario_dir, "example4")
    bank, _ = build_bank(cfg)
    reversed_bank = ObserverBank(dict(reversed(list(bank.items()))))
    with pytest.raises(InternalConsistencyError, match="all_subsets order"):
        run_seeds(cfg, reversed_bank, [0])
    settings = replace(cfg.calibration, trials=2, horizon=30)
    with pytest.raises(InternalConsistencyError, match="all_subsets order"):
        calibrate_estimator(reversed_bank, cfg.bank, cfg.plant, cfg.scenario.noise_bound,
                            cfg.scenario.disturbance_bound, cfg.scenario.x0, settings)


def test_run_seeds_validates_every_seed_as_simulate_does(scenario_dir):
    cfg = _cfg(scenario_dir, "example2")
    bank, _ = build_bank(cfg)
    with pytest.raises(ConfigurationError) as alone:
        simulate(cfg.plant, replace(cfg.scenario, seed=-1))
    with pytest.raises(ConfigurationError) as batch:
        run_seeds(cfg, bank, [0, -1, -1])
    assert batch.value.problems == alone.value.problems
    assert run_seeds(cfg, bank, []) == []


def test_run_seeds_refuses_a_batch_past_the_cap_before_drawing(scenario_dir, monkeypatch):
    # example4: 10 observers x 1000 steps x 2 states per seed, so the cap
    # admits 838 seeds and refuses 839
    cfg = _cfg(scenario_dir, "example4")
    bank, _ = build_bank(cfg)
    per_seed = len(bank) * (cfg.scenario.horizon + 1) * cfg.plant.n
    admitted = MAX_BATCH // per_seed
    assert admitted == 838

    def drawn(*args):
        raise RuntimeError("drawn")

    monkeypatch.setattr(harness, "draw_run", drawn)
    with pytest.raises(RuntimeError, match="drawn"):
        run_seeds(cfg, bank, range(admitted))
    with pytest.raises(ConfigurationError) as err:
        run_seeds(cfg, bank, range(admitted + 1))
    assert f"exceeds {MAX_BATCH} estimates" in str(err.value)


def test_run_scenario_holds_its_one_run_to_the_cap_before_simulating(scenario_dir, tmp_path,
                                                                      monkeypatch):
    # example4 at 10**6 steps: 10 observers x 1000001 steps x 2 states
    cfg = _cfg(scenario_dir, "example4")

    def drawn(*args):
        raise RuntimeError("drawn")

    monkeypatch.setattr(harness, "draw_run", drawn)
    with pytest.raises(RuntimeError, match="drawn"):
        run_scenario(cfg, out=str(tmp_path))
    long = replace(cfg, scenario=replace(cfg.scenario, horizon=10**6))
    with pytest.raises(ConfigurationError) as err:
        run_scenario(long, out=str(tmp_path))
    assert err.value.problems == [
        f"batch of 10 observers x 1 seeds x 1000001 steps x 2 states exceeds {MAX_BATCH} estimates"
    ]
    # the scenario's own problems come first, and the cap is not listed with them
    bad = replace(long, scenario=replace(long.scenario, seed=-1))
    with pytest.raises(ConfigurationError) as err:
        run_scenario(bad, out=str(tmp_path))
    assert err.value.problems == bad.scenario.validate(bad.plant) != []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("with_d", [False, True])
def test_the_linear_luenberger_plant_runs_like_the_reference(scenario_dir, tmp_path, with_d):
    # the luenberger family's `linear` dynamics: x+ = A x (+ D d), y = C x, with
    # the toy bank's dead-beat gains; every track is checked against each
    # observer stepped alone on the run's outputs by tests/_brute.py
    _, idx, toy = toy_bank()
    A, C, D = A2, C3, np.array([[1.0], [0.5]])
    raw = json.loads((scenario_dir / "example1.json").read_text())
    raw["plant"] = {"family": "luenberger", "dynamics": "linear", "A": A.tolist(),
                    "C": C.tolist()}
    raw["observers"]["bundle"] = {sub.label: {"K": obs.K.tolist()} for sub, obs in toy.items()}
    if with_d:
        raw["plant"]["D"] = D.tolist()
        raw["scenario"]["disturbance"] = [{"kind": "uniform", "low": -0.5, "high": 0.5}]

    def f(x, u, d, k):
        return A @ x + D @ d if with_d else A @ x

    def h(x, u):
        return C @ x

    cfg = parse_config(raw)
    assert (cfg.plant.name, cfg.plant.n_d) == ("linear", int(with_d))
    art = run_scenario(cfg, out=str(tmp_path))
    traj, run = art.trajectory, art.run
    assert np.any(traj.d != 0) == with_d
    for k in range(cfg.scenario.horizon):
        assert np.array_equal(traj.x[k + 1], f(traj.x[k], traj.u[k], traj.d[k], k))
    assert np.array_equal(traj.y, np.array([h(x, None) for x in traj.x]) + traj.m + traj.a)
    assert run.subsets == idx.all_subsets
    for sub, est in zip(run.subsets, run.est):
        K = np.array(raw["observers"]["bundle"][sub.label]["K"])
        want = luenberger_observer_track(f, h, K, sub.members, traj.y, traj.u, np.zeros(2),
                                         n_d=int(with_d))
        assert np.array_equal(est.view(np.uint64), want.view(np.uint64)), sub.label
