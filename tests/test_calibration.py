import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from _brute import calibration_plant_run, circle_observer_track, reduced_observer_track
from _toys import toy_bank

from multiobserver import (
    CalibrationError,
    CalibrationSettings,
    CircleCriterionObserver,
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
    signal_stream,
)
from multiobserver import calibration
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
    assert model.gamma1 * 0.5 + model.gamma2 * 0.0 + model.nu < 0.2 / 0.7 * 0.5 * 1.5


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


@pytest.mark.parametrize("a, step", [(10.0, 13), (1e10, 2)])
def test_plant_divergence_names_the_first_step_past_the_ceiling(a, step):
    # |x(k)| = a**k first exceeds the 1e12 ceiling at ``step`` (10**12 itself
    # does not); with a = 1e10 the run goes on to overflow, without a warning
    plant = _scalar_plant(a=a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CalibrationError) as err:
            estimate_iss_gains(_scalar_observer(plant, a=a), plant, 0.0, 0.0, X0, FAST)
    assert str(err.value) == f"plant diverged at step {step} of calibration trial 0"


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


def test_calibration_draws_match_the_per_step_reference(monkeypatch):
    # a disturbed plant: x(0), the initial estimate, one disturbance per step,
    # then the output noise, each trial kind from its own stream
    A = np.array([[0.5, 0.1], [0.0, 0.6]])
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    D = np.array([[1.0], [0.5]])
    plant = PlantModel(name="disturbed", n=2, p=3, n_d=1,
                       f=lambda x, u, d, k: A @ x + D @ d, h=lambda x, u: C @ x)
    mean, std = (0.5, -0.5), (1.0, 2.0)
    x0 = InitSpec(kind="normal", mean=mean, std=std)
    settings = CalibrationSettings(trials=2, horizon=30, seed=5, init_scale=0.8)

    def reference(noise_amp, dist_amp, stream):
        return calibration_plant_run(plant.f, plant.h, mean, std, noise_amp, dist_amp, 30,
                                     signal_stream(5, "calibration", stream), 0.8, n_d=1, p=3)

    # both signals in one run, so the order of their draws shows
    got = calibration._plant_run(plant, x0, 0.2, 0.3, 30, calibration._trial_rng(5, 7), 0.8, 7)
    for g, w in zip(got, reference(0.2, 0.3, 7)):
        assert np.array_equal(g, w)

    seen, run_trials = [], calibration.run_trials

    def recording(observers, y, u, x0_est):
        seen.append((y, x0_est))
        return run_trials(observers, y, u, x0_est)

    monkeypatch.setattr(calibration, "run_trials", recording)
    obs = LuenbergerObserver(SubsetIndex("S", (1, 2, 3)), plant.f, plant.h,
                             0.1 * C.T, n=2, n_d=1)
    estimate_iss_gains(obs, plant, 0.2, 0.3, x0, settings)
    kinds = [(0.0, 0.0), (0.2, 0.0), (0.0, 0.3)]  # noise-free, noisy, disturbed
    assert len(seen) == len(kinds)
    for block, ((y, x0_est), (noise_amp, dist_amp)) in enumerate(zip(seen, kinds)):
        for trial in range(2):
            _, want_y, _, want_x0_est = reference(noise_amp, dist_amp, 2 * block + trial)
            assert np.array_equal(y[trial], want_y)
            assert np.array_equal(x0_est[trial], want_x0_est)


def _per_observer(bank, plant, m_bar, d_bar, x0, settings):
    """``calibrate_bank``'s contract, one observer at a time."""
    models, failures = {}, []
    for subset, obs in bank.items():
        try:
            models[subset] = estimate_iss_gains(obs, plant, m_bar, d_bar, x0, settings)
        except CalibrationError as exc:
            failures.append(f"{subset.label}: {exc}")
    return models, failures


def _brute_trials(observers, y, u, x0_est):
    """``run_trials`` by the reference steppers: each observer alone on each run."""
    def track(obs, y, x0):
        st, members = obs.structure, obs.subset.members
        if isinstance(obs, CircleCriterionObserver):
            return circle_observer_track(st.A, st.G, st.H, st.C, st.channels, obs.K, obs.L,
                                         members, y, x0)
        return reduced_observer_track(st.A, st.C, st.g, obs.L, obs.K, members, y, x0)

    return np.array([[track(obs, *run) for run in zip(y, x0_est)] for obs in observers])


@pytest.mark.parametrize("name", ["example2", "example3", "example4"])
def test_calibrate_bank_equals_the_per_observer_fits(scenario_dir, name, monkeypatch):
    cfg = load_config(scenario_dir / f"{name}.json")
    settings = replace(cfg.calibration, trials=2)
    args = (cfg.plant, cfg.scenario.noise_bound, cfg.scenario.disturbance_bound,
            cfg.scenario.x0, settings)
    models, failures = calibrate_bank(build_bank(cfg)[0], *args)
    # the reference steps each observer alone, trial by trial, by tests/_brute.py
    monkeypatch.setattr(calibration, "run_trials", _brute_trials)
    want_models, want_failures = _per_observer(build_bank(cfg)[0], *args)
    assert failures == want_failures == []
    assert list(models.items()) == list(want_models.items())  # bit for bit, in bank order


class _NaNFromTrial(LuenbergerObserver):
    """A Luenberger observer whose tracks are NaN from its ``fail_from``-th run of a batch on."""

    fail_from = 0

    @classmethod
    def run_trials(cls, members, y, u, x0_est):
        est = super().run_trials(members, y, u, x0_est)
        for j, obs in enumerate(members):
            est[j, obs.fail_from:] = np.nan
        return est


def _fail_from_trial(bank, subset, trial):
    """Make ``bank``'s observer of ``subset`` estimate NaN from its ``trial``-th run (0-based) on."""
    obs = bank.observers[subset]
    bank.observers[subset] = failing = _NaNFromTrial(subset, obs.f, obs.h, obs.K, obs.n)
    failing.fail_from = trial


def _failing_bank():
    plant, idx, bank = toy_bank()
    bank.observers[idx.s_subsets[1]].K = np.array([[1e8], [1e8]])  # diverges in trial 0
    _fail_from_trial(bank, idx.j_subsets[0], 2)
    _fail_from_trial(bank, idx.s_subsets[2], 1)
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


def test_observer_failing_before_the_plant_keeps_its_own_trial():
    # x+ = x**2 diverges in the first trial that draws |x(0)| > 1 (trial 2 at
    # seed 1); an observer already failed in trial 0 keeps that message, and
    # the exact copy of the plant (no initial error) gets the plant's
    def f(x, u, d, k):
        return x * x

    def h(x, u):
        return x.copy()

    plant = PlantModel(name="square", n=1, p=1, f=f, h=h)
    x0 = InitSpec(kind="normal", mean=(0.0,), std=(1.0,))
    settings = CalibrationSettings(trials=4, horizon=60, seed=1, init_scale=0.0)
    exact = LuenbergerObserver(SubsetIndex("S", (1,)), f, h, np.array([[0.0]]), n=1)
    failing = _NaNFromTrial(SubsetIndex("J", (1,)), f, h, np.array([[0.0]]), n=1)
    bank = ObserverBank({exact.subset: exact, failing.subset: failing})
    models, failures = calibrate_bank(bank, plant, 0.0, 0.0, x0, settings)
    assert models == {}
    assert failures == [
        "S:1: plant diverged at step 9 of calibration trial 2",
        "J:1: observer diverged in calibration trial 0",
    ]


def test_example1_calibration_failure_matches_the_pinned_message(scenario_dir, tmp_path):
    cfg = load_config(scenario_dir / "example1.json")
    with pytest.raises(CalibrationError) as err:
        calibrate(cfg, trials=2, out_path=tmp_path / "example1.calibrated.json")
    assert str(err.value) == GOLDEN["failures"]["example1"]


def test_starved_estimator_calibration_names_the_trial(scenario_dir):
    # example1's selection starves in the first trial (every deviation score
    # is infinite); the error must be a CalibrationError naming step and trial
    cfg = load_config(scenario_dir / "example1.json")
    settings = replace(cfg.calibration, trials=2)
    with pytest.raises(CalibrationError) as err:
        calibrate_estimator(
            build_bank(cfg)[0], cfg.bank, cfg.plant, cfg.scenario.noise_bound,
            cfg.scenario.disturbance_bound, cfg.scenario.x0, settings,
        )
    assert str(err.value) == (
        "all deviation scores are infinite at step 5 of calibration trial 0"
    )
