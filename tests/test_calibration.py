import hashlib
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from _brute import calibration_plant_run, circle_observer_track, reduced_observer_track
from _toys import A2, times, toy_bank

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
    bank_index,
    build_bank,
    calibrate,
    calibrate_bundle,
    calibrate_estimator,
    estimate_iss_gains,
    load_config,
    signal_stream,
)
from multiobserver import calibration, observers
from multiobserver.calibration import C_SAFETY, _fit_model
from multiobserver.cli import main as cli_main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["calibrate"]


def _scalar_plant(a=0.5, bias=0.0):
    def f(x, u, d, k):
        return a * x + bias

    def h(x, u):
        return x.copy()

    return PlantModel(name="scalar", n=1, p=1, f=f, h=h)


def _scalar_observer(plant, k_gain=0.2, model_bias=0.0, a=0.5):
    # the observer may deliberately model the plant wrong (model_bias)
    def f_hat(x, u, d, k):
        return a * x + model_bias

    return LuenbergerObserver(
        SubsetIndex("S", (1,)), f_hat, plant.h, np.array([[k_gain]]), n=1
    )


X0 = InitSpec(kind="fixed", value=(1.0,))
FAST = CalibrationSettings(trials=8, horizon=60, seed=0, safety=1.0)


def test_fit_recovers_known_decay_rate():
    # error dynamics e+ = (0.5 - 0.2) e: a clean geometric decay at 0.3
    plant = _scalar_plant()
    obs = _scalar_observer(plant)
    model = estimate_iss_gains(obs, plant, m_bar=0.0, d_bar=0.0, x0_spec=X0, settings=FAST)
    assert model.validate() == []
    assert model.lam == pytest.approx(0.3, abs=1e-3)
    assert model.c / C_SAFETY == pytest.approx(1.0, abs=1e-2)
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
        _scalar_observer(plant), plant, 0.5, 0.0, X0,
        CalibrationSettings(trials=8, horizon=60, seed=1, safety=1.0),
    )
    assert a != c


def test_tail_statistics_are_ordered():
    plant = _scalar_plant()
    gammas = {}
    for stat in ("max", "median"):
        settings = CalibrationSettings(trials=10, horizon=80, seed=2, safety=1.0, tail_stat=stat)
        model = estimate_iss_gains(_scalar_observer(plant), plant, 0.5, 0.0, X0, settings)
        gammas[stat] = model.gamma1
    assert gammas["max"] >= gammas["median"] > 0.0


def test_safety_factor_scales_the_gains():
    plant = _scalar_plant()
    tight = estimate_iss_gains(_scalar_observer(plant), plant, 0.5, 0.0, X0, FAST)
    inflated = estimate_iss_gains(
        _scalar_observer(plant), plant, 0.5, 0.0, X0,
        CalibrationSettings(trials=8, horizon=60, seed=0, safety=2.0),
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
    bad = CalibrationSettings(trials=0, horizon=4, safety=0.5, tail_stat="mode")
    assert bad.validate() == [
        "calibration needs at least one trial, got 0",
        "calibration horizon too short to fit a decay: 4",
        "safety must be >= 1, got 0.5",
        "tail_stat must be 'max' or 'median', got 'mode'",
    ]
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
    # every trial starts error-free and stays so: any decay model fits
    settings = CalibrationSettings(trials=4, horizon=30, seed=0, safety=1.0)
    model = _fit_model(np.zeros((4, 31)), 0.0, 0.0, settings)
    assert (model.lam, model.c, model.k_star) == (0.5, 1.0, 0)


def test_fit_survives_track_starting_under_its_plateau():
    # one trial decays cleanly; the other starts below the plateau floor,
    # which must be skipped by the envelope fit rather than crash it
    ks = np.arange(41, dtype=float)
    decaying = 100.0 * 0.3**ks + 1e-12
    flat = np.full(41, 0.5)
    settings = CalibrationSettings(trials=2, horizon=40, safety=1.0)
    model = _fit_model(np.array([decaying, flat]), 0.0, 0.0, settings)
    assert model.lam == pytest.approx(0.3, abs=1e-3)
    assert model.nu >= 0.5  # the flat trial dominates the residual


def test_calibrate_bundle_fits_every_subset():
    plant, idx, bank = toy_bank()
    settings = CalibrationSettings(trials=4, horizon=40, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    models, _ = calibrate_bundle(bank, idx, plant, 0.1, 0.0, x0, settings)
    assert list(models) == list(idx.all_subsets)
    for model in models.values():
        assert model.validate() == []
        assert model.gamma1 >= 0.0


def test_calibrate_bundle_reports_failures_per_subset():
    plant, idx, bank = toy_bank()
    bad_sub = idx.s_subsets[0]
    bank.observers[bad_sub].K = np.array([[1e8], [1e8]])  # destabilize one
    settings = CalibrationSettings(trials=2, horizon=40, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    with pytest.raises(CalibrationError) as err:
        calibrate_bundle(bank, idx, plant, 0.0, 0.0, x0, settings)
    assert str(err.value) == (
        f"calibration failed for: {bad_sub.label}: observer diverged in calibration trial 0"
    )


def test_an_observer_whose_error_overflows_fails_before_its_estimate_does():
    # with K = 1e8 the observer's estimate stays finite through step 30, but its
    # error norm passes the largest float long before: the fit fails, where a
    # fit would give nu = inf, which no config can hold
    plant, idx, bank = toy_bank()
    bad_sub = idx.s_subsets[0]
    bank.observers[bad_sub].K = np.array([[1e8], [1e8]])
    settings = CalibrationSettings(trials=2, horizon=30, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    draws = calibration._draw_trials(plant, x0, 0.0, 0.0, settings, 1)
    ((runs, _),) = calibration._trial_runs(plant, settings.trials, draws)
    assert np.isfinite(observers.run_trials([bank.observers[bad_sub]], *runs[1:])).all()
    with pytest.raises(CalibrationError) as err:
        calibrate_bundle(bank, idx, plant, 0.0, 0.0, x0, settings)
    assert str(err.value) == (
        f"calibration failed for: {bad_sub.label}: observer diverged in calibration trial 0"
    )


def test_calibrate_estimator_with_truth_init():
    plant, idx, bank = toy_bank()
    settings = CalibrationSettings(trials=4, horizon=40, seed=0, safety=1.0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    fused = calibrate_estimator(bank, idx, plant, 0.1, 0.0, x0, settings, truth_init=True)
    assert fused.k_star == 0  # no transient when starting at the truth
    assert fused.validate() == []


def _counting(plant):
    """``plant`` with counters of the states its ``f`` and ``h`` map, over every
    row of each batched call; the observers keep the bare maps."""
    calls = {"f": 0, "h": 0}

    def f(x, u, d, k):
        calls["f"] += x.size // x.shape[-1]
        return plant.f(x, u, d, k)

    def h(x, u):
        calls["h"] += x.size // x.shape[-1]
        return plant.h(x, u)

    return replace(plant, f=f, h=h), calls


def test_calibrate_bundle_simulates_each_trial_once():
    plant, idx, bank = toy_bank()
    settings = CalibrationSettings(trials=3, horizon=20, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    kinds = 3  # noise-free, noisy (m_bar > 0) and disturbed (d_bar > 0) trials
    # the bank's observers share each trial's run; the estimator fit has its own
    counted, calls = _counting(plant)
    models, _ = calibrate_bundle(bank, idx, counted, 0.1, 0.1, x0, settings)
    assert len(models) == len(bank)
    assert calls == {"f": 2 * 3 * kinds * 20, "h": 2 * 3 * kinds * 21}
    counted, calls = _counting(plant)
    estimate_iss_gains(next(iter(bank.observers.values())), counted, 0.1, 0.1, x0, settings)
    assert calls == {"f": 3 * kinds * 20, "h": 3 * kinds * 21}


def test_calibration_draws_match_the_per_step_reference(monkeypatch):
    # a disturbed plant: x(0), the initial estimate, then one disturbance per
    # step or the output noise, each trial of each kind from its own stream
    A = np.array([[0.5, 0.1], [0.0, 0.6]])
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    D = np.array([[1.0], [0.5]])
    plant = PlantModel(name="disturbed", n=2, p=3, n_d=1,
                       f=lambda x, u, d, k: times(A, x) + times(D, d),
                       h=lambda x, u: times(C, x))
    mean, std = (0.5, -0.5), (1.0, 2.0)
    x0 = InitSpec(kind="normal", mean=mean, std=std)
    settings = CalibrationSettings(trials=2, horizon=30, seed=5)

    def reference(noise_amp, dist_amp, stream, init_scale=1.0):
        return calibration_plant_run(plant.f, plant.h, mean, std, noise_amp, dist_amp, 30,
                                     signal_stream(5, "calibration", stream), init_scale,
                                     n_d=1, p=3)

    kinds = [(0.0, 0.0), (0.2, 0.0), (0.0, 0.3)]  # noise-free, noisy, disturbed
    # under truth_init the initial error is still drawn, and scaled by 0
    for truth_init, init_scale in ((False, 1.0), (True, 0.0)):
        draws = calibration._draw_trials(plant, x0, 0.2, 0.3, settings, 1, 7, truth_init)
        ((got, plant_error),) = calibration._trial_runs(plant, 2, draws)
        assert plant_error is None
        for block, (noise_amp, dist_amp) in enumerate(kinds):
            for trial in range(2):
                run = 2 * block + trial  # the runs come kind by kind, in trial order
                for g, w in zip(got, reference(noise_amp, dist_amp, 7 + run, init_scale)):
                    assert np.array_equal(g[run], w)

    seen, run_trials = [], calibration.run_trials

    def recording(observers, y, u, x0_est):
        seen.append((y, x0_est))
        return run_trials(observers, y, u, x0_est)

    monkeypatch.setattr(calibration, "run_trials", recording)
    obs = LuenbergerObserver(SubsetIndex("S", (1, 2, 3)), plant.f, plant.h,
                             0.1 * C.T, n=2, n_d=1)
    estimate_iss_gains(obs, plant, 0.2, 0.3, x0, settings)
    assert len(seen) == 1  # one call steps every kind's trials
    y, x0_est = seen[0]
    assert len(y) == len(x0_est) == 2 * len(kinds)
    for block, (noise_amp, dist_amp) in enumerate(kinds):
        for trial in range(2):
            run = 2 * block + trial  # the runs come kind by kind, in trial order
            _, want_y, _, want_x0_est = reference(noise_amp, dist_amp, run)
            assert np.array_equal(y[run], want_y)
            assert np.array_equal(x0_est[run], want_x0_est)


def _per_observer(bank, plant, m_bar, d_bar, x0, settings):
    """The observer fits of ``calibrate_bundle``, one observer at a time: the
    models and the failure messages, each in bank order."""
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
def test_calibrate_bundle_equals_the_per_observer_fits(scenario_dir, name, monkeypatch):
    cfg = load_config(scenario_dir / f"{name}.json")
    settings = replace(cfg.calibration, trials=2)
    args = (cfg.plant, cfg.scenario.noise_bound, cfg.scenario.disturbance_bound,
            cfg.scenario.x0, settings)
    models, _ = calibrate_bundle(build_bank(cfg)[0], cfg.bank, *args)
    # the reference steps each observer alone, trial by trial, by tests/_brute.py
    monkeypatch.setattr(calibration, "run_trials", _brute_trials)
    want_models, want_failures = _per_observer(build_bank(cfg)[0], *args)
    assert want_failures == []
    assert list(models.items()) == list(want_models.items())  # bit for bit, in bank order


class _NaNFromTrial(LuenbergerObserver):
    """A Luenberger observer whose tracks are NaN from step ``fail_step`` of its
    ``fail_from``-th run of a batch on, in every run after that one."""

    fail_from = fail_step = 0

    @classmethod
    def run_group(cls, members, y, u, x0_est, out):
        super().run_group(members, y, u, x0_est, out)
        for j, obs in enumerate(members):
            out[j, obs.fail_from:, obs.fail_step:] = np.nan


def _fail_from_trial(bank, subset, trial, step=0):
    """Make ``bank``'s observer of ``subset`` estimate NaN from step ``step`` of its
    ``trial``-th run (0-based) on."""
    obs = bank.observers[subset]
    bank.observers[subset] = failing = _NaNFromTrial(subset, obs.f, obs.h, obs.K, obs.n)
    failing.fail_from, failing.fail_step = trial, step


def _failing_bank():
    plant, idx, bank = toy_bank()
    bank.observers[idx.s_subsets[1]].K = np.array([[1e8], [1e8]])  # diverges in trial 0
    _fail_from_trial(bank, idx.j_subsets[0], 2)
    _fail_from_trial(bank, idx.s_subsets[2], 1)
    return plant, idx, bank


def test_calibrate_bundle_failures_match_the_per_observer_path():
    settings = CalibrationSettings(trials=4, horizon=40, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    plant, idx, bank = _failing_bank()
    with pytest.raises(CalibrationError) as err:
        calibrate_bundle(bank, idx, plant, 0.1, 0.0, x0, settings)
    prefix, failures = str(err.value).split(": ", 1)
    failures = failures.split("; ")
    assert prefix == "calibration failed for"
    assert failures == _per_observer(_failing_bank()[2], plant, 0.1, 0.0, x0, settings)[1]
    assert [f.split(": ")[0] for f in failures] == [
        idx.j_subsets[0].label, idx.s_subsets[1].label, idx.s_subsets[2].label
    ]  # bank order, not the order in which they failed
    assert [f.rsplit(" ", 1)[1] for f in failures] == ["2", "0", "1"]


def test_observer_failing_before_the_plant_keeps_its_own_trial():
    # x+ = x**2 diverges in the first trial that draws |x(0)| > 1 (trial 2 at
    # seed 1); an observer already failed in trial 0 keeps that message, and
    # an observer that stays finite on the runs before gets the plant's
    def f(x, u, d, k):
        return x * x

    def h(x, u):
        return x.copy()

    plant = PlantModel(name="square", n=1, p=1, f=f, h=h)
    x0 = InitSpec(kind="normal", mean=(0.0,), std=(1.0,))
    settings = CalibrationSettings(trials=4, horizon=60, seed=1)
    finite = LuenbergerObserver(SubsetIndex("S", (1,)), lambda x, u, d, k: 0.5 * x, h,
                                np.array([[0.0]]), n=1)
    failing = _NaNFromTrial(SubsetIndex("J", (1,)), f, h, np.array([[0.0]]), n=1)
    bank = ObserverBank({finite.subset: finite, failing.subset: failing})
    with pytest.raises(CalibrationError) as err:
        calibrate_bundle(bank, bank_index(1, 0), plant, 0.0, 0.0, x0, settings)
    assert str(err.value) == (
        "calibration failed for: S:1: plant diverged at step 9 of calibration trial 2; "
        "J:1: observer diverged in calibration trial 0"
    )


def test_plant_diverging_first_in_a_later_kind_names_its_trial_and_step():
    # the toy plant with a strong disturbance input: only the disturbed kind
    # (the third, after noise-free and noisy) can pass the ceiling, first in
    # its trial 2 at seed 1 for the bank's streams and for the estimator's
    plant, idx, bank = toy_bank()
    D = np.array([[4e11], [0.0]])
    plant = replace(plant, n_d=1, f=lambda x, u, d, k: times(A2, x) + times(D, d))
    mean, std = (1.0, -2.0), (0.5, 0.5)
    x0 = InitSpec(kind="normal", mean=mean, std=std)
    settings = CalibrationSettings(trials=4, horizon=40, seed=1)

    def first_plant_failure(kind_offset):
        # the reference's runs of the disturbed kind, each stepped alone
        for trial in range(4):
            stream = signal_stream(1, "calibration", kind_offset + 2 * 4 + trial)
            x = calibration_plant_run(plant.f, plant.h, mean, std, 0.0, 1.0, 40, stream, 1.0,
                                      n_d=1, p=3)[0]
            past = np.flatnonzero(np.linalg.norm(x[1:], axis=1) > 1e12)
            if past.size:
                return f"plant diverged at step {past[0] + 1} of calibration trial {trial}"

    want = first_plant_failure(0)
    assert want == "plant diverged at step 34 of calibration trial 2"
    with pytest.raises(CalibrationError) as err:
        calibrate_bundle(bank, idx, plant, 0.1, 1.0, x0, settings)
    assert str(err.value) == "calibration failed for: " + "; ".join(
        f"{subset.label}: {want}" for subset in bank.observers)
    want = first_plant_failure(10_000)
    assert want == "plant diverged at step 11 of calibration trial 2"
    with pytest.raises(CalibrationError) as err:
        calibrate_estimator(bank, idx, plant, 0.1, 1.0, x0, settings)
    assert str(err.value) == want


def test_fused_fit_reports_starvation_before_a_later_plant_divergence():
    # the plant above fails at step 11 of the estimator's disturbed trial 2;
    # every observer turns NaN at step 5 of the noise-free trial 1, a run the
    # fit keeps, so selection starves there first and that is the fit's error
    plant, idx, bank = toy_bank()
    D = np.array([[4e11], [0.0]])
    plant = replace(plant, n_d=1, f=lambda x, u, d, k: times(A2, x) + times(D, d))
    for subset in idx.all_subsets:
        _fail_from_trial(bank, subset, 1, 5)
    x0 = InitSpec(kind="normal", mean=(1.0, -2.0), std=(0.5, 0.5))
    settings = CalibrationSettings(trials=4, horizon=40, seed=1)
    with pytest.raises(CalibrationError) as err:
        calibrate_estimator(bank, idx, plant, 0.1, 1.0, x0, settings)
    assert str(err.value) == "all deviation scores are infinite at step 5 of calibration trial 1"


def test_example2_calibrates_to_its_pinned_bytes(scenario_dir, tmp_path):
    # the reduced-order family at its bundled settings (30 trials, horizon
    # 200): every observer fit and the fused fit, from one shared bank pass
    cfg = load_config(scenario_dir / "example2.json")
    out = calibrate(cfg, out_path=tmp_path / "example2.calibrated.json")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e012867898d9c364666810418e13bfbfda94a36bfd09fad86030519764f32f8c"
    )


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


@pytest.mark.parametrize("run, step", [(9, 7), (6, 40)])
def test_starvation_in_a_later_kind_names_its_trial_and_step(run, step):
    # 4 trials per kind, 41 steps per run: run 9 is trial 1 of the disturbed
    # kind and run 6 trial 2 of the noisy one; every observer of the bank
    # turns NaN there, so selection first starves at that trial and step
    plant, idx, bank = toy_bank()
    for subset in idx.all_subsets:
        _fail_from_trial(bank, subset, run, step)
    settings = CalibrationSettings(trials=4, horizon=40, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    with pytest.raises(CalibrationError) as err:
        calibrate_estimator(bank, idx, plant, 0.1, 0.1, x0, settings)
    assert str(err.value) == (
        f"all deviation scores are infinite at step {step} of calibration trial {run % 4}"
    )


def test_estimator_fit_selects_every_trial_in_one_call(monkeypatch):
    plant, idx, bank = toy_bank()
    calls, run_estimator = [], calibration.run_estimator

    def counting(bank_idx, subsets, est, truth=None):
        calls.append(est.shape)
        return run_estimator(bank_idx, subsets, est, truth)

    monkeypatch.setattr(calibration, "run_estimator", counting)
    settings = CalibrationSettings(trials=3, horizon=20, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    calibrate_estimator(bank, idx, plant, 0.1, 0.1, x0, settings)
    # three kinds of three trials, laid end to end
    assert calls == [(len(bank), 3 * 3 * 21, plant.n)]


@pytest.mark.parametrize("flag, value", [("--horizon", "1000000"), ("--trials", "5001")])
def test_calibrate_past_the_batch_cap_exits_1(scenario_dir, tmp_path, capsys, monkeypatch,
                                               flag, value):
    assert CalibrationSettings(trials=5000, horizon=200).validate() == []
    assert CalibrationSettings(trials=5001, horizon=200).validate() == [
        "calibration trials x horizon (5001 x 200) exceeds 1000000 steps"
    ]
    # example3 calibrates 24 trials at horizon 400; either override takes a
    # batch past 10**6 steps, and no trial may be drawn before it is listed
    def no_draws(*args):
        pytest.fail("trials drawn past the cap")

    monkeypatch.setattr(calibration, "_trial_rng", no_draws)
    out = tmp_path / "cal.json"
    code = cli_main(["calibrate", "--config", str(scenario_dir / "example3.json"),
                     flag, value, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error (1 problem(s))" in err
    assert "calibration trials x horizon" in err
    assert not out.exists()


def test_calibrate_past_the_estimate_cap_exits_1(scenario_dir, tmp_path, capsys, monkeypatch):
    # 2500 x 400 steps pass validate(), but the observer fits would step
    # 15 observers x 2 kinds x 2500 trials x 401 steps x 2 states at once
    assert CalibrationSettings(trials=2500, horizon=400).validate() == []

    def no_draws(*args):
        pytest.fail("trials drawn past the cap")

    monkeypatch.setattr(calibration, "_trial_rng", no_draws)
    out = tmp_path / "cal.json"
    code = cli_main(["calibrate", "--config", str(scenario_dir / "example3.json"),
                     "--trials", "2500", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error (1 problem(s))" in err
    assert ("calibration batch of 15 observers x 2 trial kinds x 2500 trials x 401 steps "
            "x 2 states exceeds 16777216 estimates") in err
    assert not out.exists()


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("trials, refused", [(4614, False), (4615, True)])
def test_estimator_fit_checks_its_batch_before_drawing(monkeypatch, trials, refused):
    plant, idx, bank = toy_bank()

    def drawn(*args):
        raise _Drawn

    monkeypatch.setattr(calibration, "_trial_rng", drawn)
    # 6 observers x 3 kinds x 101 steps x 2 states = 3636 estimates per trial;
    # 2**24 of them hold 4614 trials
    settings = CalibrationSettings(trials=trials, horizon=100, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    with pytest.raises(ConfigurationError if refused else _Drawn) as err:
        calibrate_estimator(bank, idx, plant, 0.1, 0.1, x0, settings)
    if refused:
        assert err.value.problems == [
            f"calibration batch of 6 observers x 3 trial kinds x {trials} trials x 101 steps "
            "x 2 states exceeds 16777216 estimates"
        ]


def _fit_or_error(call):
    """``call()``'s models in bank order and the estimator's, or the message
    of the :class:`CalibrationError` it raises."""
    try:
        models, est_model = call()
    except CalibrationError as exc:
        return str(exc)
    return list(models.items()), est_model


def _apart(bank, idx, args, truth_init=False):
    """Each observer's fit alone and then ``calibrate_estimator``, each with its own passes."""
    models, failures = _per_observer(bank, *args)
    if failures:
        raise CalibrationError("calibration failed for: " + "; ".join(failures))
    return models, calibrate_estimator(bank, idx, *args, truth_init=truth_init)


def _both_ways(bank_of, idx, args, truth_init=False):
    """The bundle fit and the two fits run apart, each on a fresh bank from ``bank_of``."""
    together = _fit_or_error(lambda: calibrate_bundle(bank_of(), idx, *args,
                                                      truth_init=truth_init))
    return together, _fit_or_error(lambda: _apart(bank_of(), idx, args, truth_init))


def _config_fits(cfg, settings):
    args = (cfg.plant, cfg.scenario.noise_bound, cfg.scenario.disturbance_bound,
            cfg.scenario.x0, settings)
    return _both_ways(lambda: build_bank(cfg)[0], cfg.bank, args,
                      truth_init=cfg.estimator_init == "truth")


def _count_passes(monkeypatch):
    """Count ``plant_track`` calls and bank passes (one per ``_by_group``) from now on."""
    calls = {"plant": 0, "bank": 0}

    def counted(name, module, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        monkeypatch.setattr(module, func.__name__, wrapper)

    counted("plant", calibration, calibration.plant_track)
    counted("bank", observers, observers._by_group)
    return calls


@pytest.mark.parametrize("name, trials", [
    ("example1", 2), ("example2", 2), ("example3", 2), ("example4", 2), ("example2", None),
])
def test_calibrate_bundle_equals_the_fits_run_apart(scenario_dir, name, trials):
    cfg = load_config(scenario_dir / f"{name}.json")
    settings = replace(cfg.calibration, trials=trials or cfg.calibration.trials)
    together, apart = _config_fits(cfg, settings)
    assert together == apart  # bit for bit, and the same failure message
    assert isinstance(together, str) == (name == "example1")


@pytest.mark.parametrize("name, bank_passes", [("example2", 1), ("example3", 2), ("example4", 2)])
def test_calibrate_simulates_both_fits_in_one_plant_pass(scenario_dir, tmp_path, monkeypatch,
                                                         name, bank_passes):
    # reduced-order observers calibrate through their bank kernel, so the bank
    # steps both fits' runs at once; the circle family's unfolded kernel
    # steps the observer fits in a pass of their own
    cfg = load_config(scenario_dir / f"{name}.json")
    passes = _count_passes(monkeypatch)
    calibrate(cfg, trials=2, out_path=tmp_path / "cal.json")
    assert passes == {"plant": 1, "bank": bank_passes}


def test_example1_makes_one_plant_pass(scenario_dir, tmp_path, monkeypatch):
    # example1's plant fails the observer fits: both fits' runs are still
    # simulated in the one plant pass, and the bank steps the observer fits only
    cfg = load_config(scenario_dir / "example1.json")
    passes = _count_passes(monkeypatch)
    with pytest.raises(CalibrationError, match="J:1,2: plant diverged at step 4 of calibration "
                                               "trial 0"):
        calibrate(cfg, trials=2, out_path=tmp_path / "cal.json")
    assert passes == {"plant": 1, "bank": 1}


def test_a_union_past_the_estimate_cap_steps_one_bank_pass_per_fit(scenario_dir, monkeypatch):
    cfg = load_config(scenario_dir / "example2.json")
    args = (cfg.plant, cfg.scenario.noise_bound, cfg.scenario.disturbance_bound,
            cfg.scenario.x0, replace(cfg.calibration, trials=2))

    def fit():
        return _fit_or_error(lambda: calibrate_bundle(build_bank(cfg)[0], cfg.bank, *args))

    want = fit()
    # 6 observers x 1 trial kind x 2 trials x 201 steps x 4 states: 9648
    # estimates per fit, within the cap, and 19296 for both fits
    monkeypatch.setattr(calibration, "MAX_BATCH", 9648)
    passes = _count_passes(monkeypatch)
    assert fit() == want
    assert passes == {"plant": 1, "bank": 2}


def test_calibrate_bundle_failures_equal_the_fits_run_apart():
    settings = CalibrationSettings(trials=4, horizon=40, seed=0)
    x0 = InitSpec(kind="fixed", value=(1.0, -2.0))
    plant, idx, _ = _failing_bank()
    together, apart = _both_ways(lambda: _failing_bank()[2], idx, (plant, 0.1, 0.0, x0, settings))
    assert together == apart
    assert together.startswith(f"calibration failed for: {idx.j_subsets[0].label}: ")
    # only the estimator's runs pass the ceiling (its trial 0 at seed 3), so
    # the observer fits succeed and the estimator fit names its own trial
    plant, idx, bank = toy_bank()
    D = np.array([[4e11], [0.0]])
    plant = replace(plant, n_d=1, f=lambda x, u, d, k: times(A2, x) + times(D, d))
    x0 = InitSpec(kind="normal", mean=(1.0, -2.0), std=(0.5, 0.5))
    settings = CalibrationSettings(trials=4, horizon=40, seed=3)
    together, apart = _both_ways(lambda: bank, idx, (plant, 0.1, 1.0, x0, settings))
    assert together == apart == "plant diverged at step 28 of calibration trial 0"
