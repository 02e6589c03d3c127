import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from _toys import toy_bank

from multiobserver import (
    CalibrationError,
    CalibrationSettings,
    ConfigurationError,
    InitSpec,
    LuenbergerObserver,
    ObserverBank,
    PlantModel,
    SubsetIndex,
    build_bank,
    calibrate,
    calibrate_bank,
    calibrate_estimator,
    estimate_iss_gains,
    load_config,
)
from multiobserver.calibration import _fit_model

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["calibrate"]


def _scalar_plant(a=0.5, bias=0.0):
    def f(x, u, d, k):
        return np.array([a * x[0] + bias])

    def h(x, u):
        return np.array([x[0]])

    return PlantModel(name="scalar", n=1, p=1, f=f, h=h)


def _scalar_observer(plant, k_gain=0.2, model_bias=0.0, a=0.5):
    # the observer may deliberately model the plant wrong (model_bias)
    def f_hat(x, u, d, k):
        return np.array([a * x[0] + model_bias])

    return LuenbergerObserver(
        SubsetIndex("S", (1,)), f_hat, plant.h, np.array([[k_gain]]), n=1
    )


X0 = InitSpec(kind="fixed", value=(1.0,))
FAST = CalibrationSettings(trials=8, horizon=60, seed=0, safety=1.0, c_safety=1.0)


def test_fit_recovers_known_decay_rate():
    # error dynamics e+ = (0.5 - 0.2) e: a clean geometric decay at 0.3
    plant = _scalar_plant()
    obs = _scalar_observer(plant)
    model = estimate_iss_gains(obs, plant, m_bar=0.0, d_bar=0.0, x0_spec=X0, settings=FAST)
    assert model.validate() == []
    assert model.lam == pytest.approx(0.3, abs=1e-3)
    assert model.c == pytest.approx(1.0, abs=1e-2)
    assert model.gamma1 == 0.0 and model.gamma2 == 0.0
    assert model.nu < 1e-8
    assert model.k_star >= 1


def test_fit_noise_gain_matches_filter_dc_gain():
    # steady |e| under noise m is at most k m_bar / (1 - lam) = 0.2/0.7 m_bar
    plant = _scalar_plant()
    obs = _scalar_observer(plant)
    model = estimate_iss_gains(obs, plant, m_bar=0.5, d_bar=0.0, x0_spec=X0, settings=FAST)
    assert 0.05 < model.gamma1 < 0.5
    assert model.gamma2 == 0.0
    # declared steady bound covers the true worst case loosely from below
    assert model.steady_bound(0.5, 0.0) < 0.2 / 0.7 * 0.5 * 1.5


def test_calibration_is_deterministic():
    plant = _scalar_plant()
    a = estimate_iss_gains(_scalar_observer(plant), plant, 0.5, 0.0, X0, FAST)
    b = estimate_iss_gains(_scalar_observer(plant), plant, 0.5, 0.0, X0, FAST)
    assert a == b
    c = estimate_iss_gains(
        _scalar_observer(plant), plant, 0.5, 0.0, X0, CalibrationSettings(
            trials=8, horizon=60, seed=1, safety=1.0, c_safety=1.0
        )
    )
    assert a != c


def test_tail_statistics_are_ordered():
    plant = _scalar_plant()
    gammas = {}
    for stat in ("max", "rms", "median"):
        settings = CalibrationSettings(
            trials=10, horizon=80, seed=2, safety=1.0, c_safety=1.0, tail_stat=stat
        )
        model = estimate_iss_gains(_scalar_observer(plant), plant, 0.5, 0.0, X0, settings)
        gammas[stat] = model.gamma1
    assert gammas["max"] >= gammas["rms"] > 0.0
    assert gammas["max"] >= gammas["median"] > 0.0


def test_safety_factor_scales_the_gains():
    plant = _scalar_plant()
    tight = estimate_iss_gains(_scalar_observer(plant), plant, 0.5, 0.0, X0, FAST)
    inflated = estimate_iss_gains(
        _scalar_observer(plant), plant, 0.5, 0.0, X0,
        CalibrationSettings(trials=8, horizon=60, seed=0, safety=2.0, c_safety=1.0),
    )
    assert inflated.gamma1 == pytest.approx(2.0 * tight.gamma1)


def test_model_bias_shows_up_as_nu():
    # observer with a wrong drift term plateaus at a nonzero residual
    plant = _scalar_plant(bias=0.3)
    obs = _scalar_observer(plant, model_bias=0.0)
    model = estimate_iss_gains(obs, plant, 0.0, 0.0, X0, FAST)
    # steady error solves e = 0.3 e + 0.3: about 0.4286
    assert model.nu == pytest.approx(0.3 / 0.7, rel=0.05)


def test_settings_validation_lists_every_problem():
    bad = CalibrationSettings(trials=0, horizon=4, safety=0.5, eps_settle=0.0, tail_stat="mode")
    problems = bad.validate()
    assert len(problems) == 5
    plant = _scalar_plant()
    with pytest.raises(ConfigurationError):
        estimate_iss_gains(_scalar_observer(plant), plant, 0.0, 0.0, X0, bad)


def test_unstable_observer_raises_calibration_error():
    plant = _scalar_plant()
    # error grows by ~1e8 per step and overflows within the horizon
    runaway = _scalar_observer(plant, k_gain=1e8)
    with pytest.raises(CalibrationError):
        estimate_iss_gains(runaway, plant, 0.0, 0.0, X0, FAST)


def test_diverging_plant_raises_calibration_error():
    plant = _scalar_plant(a=2.0)
    obs = _scalar_observer(plant, a=2.0, k_gain=1.9)
    with pytest.raises(CalibrationError) as err:
        estimate_iss_gains(obs, plant, 0.0, 0.0, X0, FAST)
    assert "plant diverged" in str(err.value)


def test_zero_initial_error_degenerates_gracefully():
    plant = _scalar_plant()
    obs = _scalar_observer(plant)
    settings = CalibrationSettings(
        trials=4, horizon=30, seed=0, safety=1.0, c_safety=1.0, init_scale=0.0
    )
    model = estimate_iss_gains(obs, plant, 0.0, 0.0, X0, settings)
    assert (model.lam, model.c, model.k_star) == (0.5, 1.0, 0)


def test_fit_survives_track_starting_under_its_plateau():
    # one trial decays cleanly; the other starts below the plateau floor,
    # which must be skipped by the envelope fit rather than crash it
    ks = np.arange(41, dtype=float)
    decaying = 100.0 * 0.3**ks + 1e-12
    flat = np.full(41, 0.5)
    settings = CalibrationSettings(trials=2, horizon=40, safety=1.0, c_safety=1.0)
    model = _fit_model([decaying, flat], [], [], 0.0, 0.0, settings)
    assert model.lam == pytest.approx(0.3, abs=1e-3)
    assert model.nu >= 0.5  # the flat trial dominates the residual


def test_calibrate_bank_fits_every_subset():
    plant, idx, bank = toy_bank()
    settings = CalibrationSettings(trials=4, horizon=40, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    models, failures = calibrate_bank(bank, plant, 0.1, 0.0, x0, settings)
    assert failures == []
    assert set(models) == set(idx.all_subsets)
    for model in models.values():
        assert model.validate() == []
        assert model.gamma1 >= 0.0


def test_calibrate_bank_reports_failures_per_subset():
    plant, idx, bank = toy_bank()
    bad_sub = idx.s_subsets[0]
    bank.observers[bad_sub].K = np.array([[1e8], [1e8]])  # destabilize one
    settings = CalibrationSettings(trials=2, horizon=40, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    models, failures = calibrate_bank(bank, plant, 0.0, 0.0, x0, settings)
    assert len(failures) == 1 and bad_sub.label in failures[0]
    assert bad_sub not in models
    assert len(models) == 5


def test_calibrate_estimator_with_truth_init():
    plant, idx, bank = toy_bank()
    settings = CalibrationSettings(trials=4, horizon=40, seed=0, safety=1.0, c_safety=1.0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    fused = calibrate_estimator(bank, idx, plant, 0.1, 0.0, x0, settings, truth_init=True)
    assert fused.k_star == 0  # no transient when starting at the truth
    assert fused.validate() == []


def _counting(plant):
    """``plant`` with call counters on ``f`` and ``h``; the observers keep the bare maps."""
    calls = {"f": 0, "h": 0}

    def f(x, u, d, k):
        calls["f"] += 1
        return plant.f(x, u, d, k)

    def h(x, u):
        calls["h"] += 1
        return plant.h(x, u)

    return replace(plant, f=f, h=h), calls


def test_calibrate_bank_simulates_each_trial_once():
    plant, idx, bank = toy_bank()
    settings = CalibrationSettings(trials=3, horizon=20, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    kinds = 3  # noise-free, noisy (m_bar > 0) and disturbed (d_bar > 0) trials
    first = next(iter(bank.observers))
    for observers in (bank.observers, {first: bank.observers[first]}):
        counted, calls = _counting(plant)
        models, failures = calibrate_bank(ObserverBank(observers), counted, 0.1, 0.1, x0, settings)
        assert failures == [] and len(models) == len(observers)
        assert calls == {"f": 3 * kinds * 20, "h": 3 * kinds * 21}


def _per_observer(bank, plant, m_bar, d_bar, x0, settings):
    """``calibrate_bank``'s contract, one observer at a time."""
    models, failures = {}, []
    for subset, obs in bank.items():
        try:
            models[subset] = estimate_iss_gains(obs, plant, m_bar, d_bar, x0, settings)
        except CalibrationError as exc:
            failures.append(f"{subset.label}: {exc}")
    return models, failures


@pytest.mark.parametrize("name", ["example2", "example4"])
def test_calibrate_bank_equals_the_per_observer_fits(scenario_dir, name):
    cfg = load_config(scenario_dir / f"{name}.json")
    settings = replace(cfg.calibration, trials=2)
    args = (cfg.plant, cfg.scenario.noise_bound, cfg.scenario.disturbance_bound,
            cfg.scenario.x0, settings)
    models, failures = calibrate_bank(build_bank(cfg)[0], *args)
    want_models, want_failures = _per_observer(build_bank(cfg)[0], *args)
    assert failures == want_failures == []
    assert list(models.items()) == list(want_models.items())  # bit for bit, in bank order


def _fail_from_trial(obs, trial):
    """Make ``obs`` estimate NaN from its ``trial``-th reset (0-based) on."""
    resets, reset, step = [], obs.reset, obs.step

    def counted_reset(*args):
        resets.append(None)
        return reset(*args)

    obs.reset = counted_reset
    obs.step = lambda *args: step(*args) * (np.nan if len(resets) > trial else 1.0)


def _failing_bank():
    plant, idx, bank = toy_bank()
    bank.observers[idx.s_subsets[1]].K = np.array([[1e8], [1e8]])  # diverges in trial 0
    _fail_from_trial(bank.observers[idx.j_subsets[0]], 2)
    _fail_from_trial(bank.observers[idx.s_subsets[2]], 1)
    return plant, idx, bank


def test_calibrate_bank_failures_match_the_per_observer_path():
    settings = CalibrationSettings(trials=4, horizon=40, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    plant, idx, bank = _failing_bank()
    models, failures = calibrate_bank(bank, plant, 0.1, 0.0, x0, settings)
    want_models, want_failures = _per_observer(_failing_bank()[2], plant, 0.1, 0.0, x0, settings)
    assert failures == want_failures
    assert [f.split(": ")[0] for f in failures] == [
        idx.j_subsets[0].label, idx.s_subsets[1].label, idx.s_subsets[2].label
    ]  # bank order, not the order in which they failed
    assert [f.rsplit(" ", 1)[1] for f in failures] == ["2", "0", "1"]
    assert list(models.items()) == list(want_models.items())
    assert len(models) == 3


def test_example1_calibration_failure_matches_the_pinned_message(scenario_dir, tmp_path):
    cfg = load_config(scenario_dir / "example1.json")
    with pytest.raises(CalibrationError) as err:
        calibrate(cfg, trials=2, out_path=tmp_path / "example1.calibrated.json")
    assert str(err.value) == GOLDEN["failures"]["example1"]
