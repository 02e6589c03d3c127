import copy
import json
import operator
import random
import re
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from multiobserver import (
    CalibrationSettings,
    ConfigurationError,
    MultiObserverError,
    bank_index,
    build_bank,
    compute_thresholds,
    load_config,
    run_scenario,
)
from multiobserver import config
from multiobserver.calibration import TAIL_STATS
from multiobserver.config import parse_config

EXPECTED_BANKS = {
    "example1": ("luenberger", 3, 1, 6),
    "example2": ("reduced", 3, 1, 6),
    "example3": ("circle", 5, 2, 15),
    "example4": ("circle", 4, 1, 10),
}


def _raw(scenario_dir, name):
    return json.loads((scenario_dir / f"{name}.json").read_text())


def test_every_bundled_config_loads_and_certifies(scenario_dir):
    names = sorted(f.name[:-5] for f in scenario_dir.iterdir() if f.name.endswith(".json"))
    assert names == sorted(EXPECTED_BANKS)
    for name in names:
        cfg = load_config(scenario_dir / f"{name}.json")
        family, p, q, size = EXPECTED_BANKS[name]
        assert cfg.family == family
        assert cfg.plant.p == p
        assert cfg.scenario.q == q
        assert len(cfg.bank.all_subsets) == size
        bank, certificates = build_bank(cfg)
        assert len(bank.observers) == len(certificates) == size


def test_bundled_isolation_configs_have_full_iss(scenario_dir):
    cfg = load_config(scenario_dir / "example4.json")
    assert cfg.isolation is not None
    models = cfg.iss_models()
    assert set(models) == set(cfg.bank.all_subsets)
    for model in models.values():
        assert model.validate() == []


def test_unknown_sections_and_types_reported_together(scenario_dir):
    raw = _raw(scenario_dir, "example1")
    raw["surprise"] = {}
    raw["scenario"]["seed"] = "zero"
    raw["scenario"]["q"] = 1.5
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    text = "\n".join(err.value.problems)
    assert "surprise: unknown section" in text
    assert "scenario.seed: expected an integer" in text
    assert "scenario.q: expected an integer" in text
    assert len(err.value.problems) >= 3


def test_missing_bundle_entry_is_named(scenario_dir):
    raw = _raw(scenario_dir, "example1")
    removed = sorted(raw["observers"]["bundle"])[0]
    del raw["observers"]["bundle"][removed]
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert any(f"missing observer for {removed}" in p for p in err.value.problems)


def test_bad_gain_shape_is_reported(scenario_dir):
    raw = _raw(scenario_dir, "example1")
    key = sorted(raw["observers"]["bundle"])[0]
    raw["observers"]["bundle"][key]["K"] = [[1.0, 2.0, 3.0]]
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert any(key in p and "K" in p for p in err.value.problems)


@pytest.mark.parametrize(
    "alias, problem",
    [
        ("X:1,2", "has unknown role 'X'"),
        ("J:01,02", "must be written 'J:1,2'"),
        ("J: 1,2", "must be written 'J:1,2'"),
        ("J:1,+2", "must be written 'J:1,2'"),
    ],
)
def test_bundle_labels_must_be_canonical(scenario_dir, alias, problem):
    raw = _raw(scenario_dir, "example1")
    bundle = raw["observers"]["bundle"]
    listed = f"observers.bundle[{alias}]: subset label {alias!r} {problem}"
    bundle[alias] = copy.deepcopy(bundle["J:1,2"])  # beside the canonical entry
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [listed]
    del bundle["J:1,2"]  # in place of it
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [listed, "observers.bundle: missing observer for J:1,2"]


def test_isolation_requires_convergence_models(scenario_dir):
    raw = _raw(scenario_dir, "example1")  # bundle without iss entries
    raw["isolation"] = {"window": 10}
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    needing = [p for p in err.value.problems if "convergence model" in p]
    assert len(needing) == 6  # every subset is named


def test_redundancy_violation_reported(scenario_dir):
    raw = _raw(scenario_dir, "example1")
    raw["scenario"]["q"] = 2  # p = 3 sensors
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert any("q < p/2" in p for p in err.value.problems)


def test_top_level_must_be_an_object():
    with pytest.raises(ConfigurationError) as err:
        parse_config([1, 2, 3])
    assert err.value.problems == ["top level: expected a JSON object"]


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_config({"plant": {"family": "kalman"}, "scenario": {"q": 1, "horizon": 5}})
    assert any("unknown family" in p for p in err.value.problems)


def test_a_config_whose_plant_cannot_be_built_lists_every_other_fault(scenario_dir):
    # the scenario and the bank read as None, and every section that needs
    # neither is still read: one fault in each of four sections, four problems
    raw = _raw(scenario_dir, "example2")
    del raw["plant"]["A"]
    raw["calibration"] = {"trials": "x"}
    raw["isolation"] = {"window": 0}
    raw["output"] = {"dirr": "x"}
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [
        "plant.A: not a numeric matrix",
        "isolation.window: must be >= 1, got 0",
        "calibration.trials: expected an integer, got 'x'",
        "output.dirr: unknown field",
    ]


def test_a_config_whose_plant_cannot_be_built_lists_the_scenarios_own_faults(scenario_dir):
    # the scenario's checks that need neither n nor p run without the plant
    raw = _raw(scenario_dir, "example2")
    raw["plant"]["family"] = "kalman"
    raw["scenario"].update(horizon=-1, seed=-1)
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [
        "plant.family: unknown family 'kalman'; known: ['circle', 'luenberger', 'reduced']",
        "scenario: horizon must lie in 1..1000000, got -1",
        "scenario: seed must be >= 0, got -1",
    ]


def test_a_negative_q_and_a_malformed_attacked_are_one_problem_each(scenario_dir):
    # neither needs the plant to be wrong, so each is listed whether or not it loads
    raw = _raw(scenario_dir, "example2")
    raw["scenario"].update(q=-1, attacked="x")
    faults = ["scenario.attacked: expected a list of sensor indices, got 'x'",
              "scenario.q: assumption violated: need 0 <= q < p/2, got q=-1"]
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [faults[0], f"{faults[1]}, p=3"]
    raw["plant"]["family"] = "kalman"
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [
        "plant.family: unknown family 'kalman'; known: ['circle', 'luenberger', 'reduced']",
        *faults,
    ]


def test_derived_values_equal_what_the_bundled_configs_declared(scenario_dir):
    # the values the bundled configs stated before their keys were removed ...
    cfgs = [load_config(scenario_dir / f"{name}.json") for name in sorted(EXPECTED_BANKS)]
    assert [cfg.scenario.noise_bound for cfg in cfgs] == [0.0, 0.0, 0.1, 0.5]
    assert {cfg.scenario.disturbance_bound for cfg in cfgs} == {0.0}
    assert {cfg.calibration.seed for cfg in cfgs} == {1}
    assert {cfg.ceiling for cfg in cfgs} == {1e12}
    assert cfgs[3].isolation.k_star == 0
    # ... follow their sources
    raw = _raw(scenario_dir, "example4")
    raw["scenario"].update(seed=7, noise=[{"kind": "uniform", "low": -0.2, "high": 0.2},
                                          {"kind": "constant", "value": -0.7},
                                          {"kind": "zero"}, {"kind": "zero"}])
    cfg = parse_config(raw)
    assert (cfg.scenario.noise_bound, cfg.isolation.m_bar, cfg.calibration.seed) == (0.7, 0.7, 8)


def test_a_truth_start_settles_at_step_0(scenario_dir):
    # every observer starts at x(0), so e(0) = 0 and no transient term remains
    raw = _raw(scenario_dir, "example4")
    assert raw["estimator"]["init"] == {"kind": "truth"} and "k_star" not in raw["isolation"]
    cfg = parse_config(raw)
    iso, fitted = cfg.isolation, max(m.k_star for m in cfg.iss_models().values())
    assert iso.k_star == 0 < fitted
    table = compute_thresholds(cfg.iss_models(), cfg.bank, iso.m_bar, iso.d_bar, iso.eps,
                               k_star_override=iso.k_star)
    assert table.k_bar_star == 0
    # from a zero start compute_thresholds takes the largest fitted k_star
    raw["estimator"]["init"] = {"kind": "zero"}
    assert parse_config(raw).isolation.k_star is None


def _huge_eps(raw):
    raw["isolation"]["eps"] = 1e308


def _huge_gamma1(raw):
    raw["scenario"]["noise"] = {"kind": "uniform", "low": -2.0, "high": 2.0}
    raw["observers"]["bundle"]["S:1,2"]["iss"]["gamma1"] = 1e308


@pytest.mark.parametrize(
    "edit, labels",
    [
        (_huge_eps, ["J:1,2,3", "J:1,2,4", "J:1,3,4", "J:2,3,4"]),
        # S:1,2 is a cross-check of J:1,2,3 and J:1,2,4 only
        (_huge_gamma1, ["J:1,2,3", "J:1,2,4"]),
    ],
    ids=["eps", "gamma1"],
)
def test_an_overflowing_threshold_is_a_listed_problem(scenario_dir, edit, labels):
    raw = _raw(scenario_dir, "example4")
    edit(raw)
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [
        f"isolation: threshold for {label} must be finite and >= 0, got inf" for label in labels]


def test_the_isolation_thresholds_take_the_scenarios_bounds(scenario_dir):
    # the scenario's bounds are the only source: the section cannot override them
    cfg = load_config(scenario_dir / "example4.json")
    assert (cfg.isolation.m_bar, cfg.isolation.d_bar) == (
        cfg.scenario.noise_bound, cfg.scenario.disturbance_bound) == (0.5, 0.0)
    raw = _raw(scenario_dir, "example4")
    raw["isolation"].update(m_bar=0.01, d_bar=0.0)
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [
        "isolation.d_bar: unknown field", "isolation.m_bar: unknown field"]


def test_unknown_calibration_field_rejected(scenario_dir):
    raw = _raw(scenario_dir, "example4")
    raw["calibration"]["jitter"] = 3
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert any("calibration.jitter: unknown field" in p for p in err.value.problems)


def test_bad_tail_stat_rejected(scenario_dir):
    raw = _raw(scenario_dir, "example4")
    raw["calibration"]["tail_stat"] = "mode"
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert any("tail_stat" in p for p in err.value.problems)


def test_long_tail_stat_is_cut_like_every_echoed_value(scenario_dir):
    raw = _raw(scenario_dir, "example4")
    raw["calibration"]["tail_stat"] = "m" * 100
    message = f"tail_stat must be 'max' or 'median', got {'m' * 100!r:.40}"
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [f"calibration: {message}"]
    assert CalibrationSettings(tail_stat="m" * 100).validate() == [message]


def test_a_non_string_tail_stat_is_one_problem(scenario_dir):
    # the settings' own check lists it, and no reader lists it before
    raw = _raw(scenario_dir, "example4")
    for value in (5, True, [1], {"a": 1}):
        raw["calibration"]["tail_stat"] = value
        with pytest.raises(ConfigurationError) as err:
            parse_config(raw)
        assert err.value.problems == [
            f"calibration: tail_stat must be 'max' or 'median', got {value!r}"]


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("calibration", "c_safety"), 1.3, "calibration.c_safety: unknown field"),
        (("calibration", "init_scale"), 1.0, "calibration.init_scale: unknown field"),
        (("calibration", "eps_settle"), 1e-2, "calibration.eps_settle: unknown field"),
        (("calibration", "tail_stat"), "rms",
         "calibration: tail_stat must be 'max' or 'median', got 'rms'"),
        (("estimator", "init"), {"kind": "fixed", "value": [0.0, 0.0]},
         "estimator.init.kind: unknown kind 'fixed'; known: ['truth', 'zero']"),
        # values the loader derives: the bounds from the generators, k_star from
        # the estimator start, the seed from the scenario's; one ceiling for all
        (("scenario", "noise_bound"), 0.5, "scenario.noise_bound: unknown field"),
        (("scenario", "disturbance_bound"), 0.0, "scenario.disturbance_bound: unknown field"),
        (("isolation", "k_star"), 0, "isolation.k_star: unknown field"),
        (("calibration", "seed"), 1, "calibration.seed: unknown field"),
        (("divergence_ceiling",), 1e12, "divergence_ceiling: unknown section"),
    ],
)
def test_a_removed_setting_is_one_problem(scenario_dir, path, value, problem):
    with pytest.raises(ConfigurationError) as err:
        parse_config(_mutated(_raw(scenario_dir, "example4"), path, value))
    assert err.value.problems == [problem]


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError) as err:
        load_config(tmp_path / "nope.json")
    assert "cannot read" in err.value.problems[0]


def test_load_config_reports_json_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x",}')
    with pytest.raises(ConfigurationError) as err:
        load_config(bad)
    assert "JSON parse error at line 1" in err.value.problems[0]


def test_load_config_rejects_unreadable_json(tmp_path):
    for text in (b'{"name": "\xff"}', b"[" * 100_000 + b"]" * 100_000):
        bad = tmp_path / "unreadable.json"
        bad.write_bytes(text)
        with pytest.raises(ConfigurationError) as err:
            load_config(bad)
        assert "not a readable JSON document" in err.value.problems[0]


def test_config_carries_content_hash(scenario_dir):
    cfg = load_config(scenario_dir / "example1.json")
    assert len(cfg.sha256) == 64
    assert cfg.name == "example1"


def test_failed_certificate_blocks_enforced_build(scenario_dir):
    raw = _raw(scenario_dir, "example3")
    raw["observers"]["bundle"]["J:3,4,5"]["L"] = [[0.0] * 3] * 2  # leaves A + G sin(H .)
    with pytest.raises(ConfigurationError) as err:
        build_bank(parse_config(raw))
    assert any("J:3,4,5" in p and "certificate failed" in p for p in err.value.problems)


def test_practical_flag_waives_the_certificate(scenario_dir):
    raw = _raw(scenario_dir, "example3")
    raw["observers"]["bundle"]["J:3,4,5"]["L"] = [[0.0] * 3] * 2
    raw["observers"]["bundle"]["J:3,4,5"]["practical"] = True
    bank, certificates = build_bank(parse_config(raw))
    assert not next(c for s, c in certificates.items() if s.label == "J:3,4,5").passed
    assert len(bank.observers) == 15


def test_construction_faults_and_certificate_failures_list_in_bank_order(scenario_dir):
    # every subset's construction fault, then its certificate failure, in bank
    # order, although the certificates of one loop shape are computed together
    raw = _raw(scenario_dir, "example3")
    raw["observers"]["bundle"]["J:1,2,3"]["L"] = [[0.0] * 3, [0.0] * 3]  # leaves A + G sin(H .)
    raw["observers"]["bundle"]["J:3,4,5"]["L"] = [[0.0] * 3, [0.0] * 3]
    cfg = parse_config(raw)
    sub = next(s for s in cfg.specs if s.label == "J:1,2,4")
    cfg.specs[sub] = replace(cfg.specs[sub], K=np.zeros((2, 2)))  # past the loader's check
    failed = ("sector certificate failed over slopes [-1, 1] (spectral radius 0.927362, "
              "margin -1.4295; need radius < 0.999 and margin >= 0.001); "
              "mark the entry practical or redesign the gain")
    with pytest.raises(ConfigurationError) as err:
        build_bank(cfg)
    assert err.value.problems == [
        f"J:1,2,3: {failed}",
        "J:1,2,4: nonlinearity gain for J:1,2,4 has shape (2, 2), expected (1, 3)",
        f"J:3,4,5: {failed}",
    ]


def test_example1_marks_its_marginal_observer_practical(scenario_dir):
    cfg = load_config(scenario_dir / "example1.json")
    practical = {sub.label for sub, spec in cfg.specs.items() if spec.practical}
    assert practical == {"S:1"}
    _, certificates = build_bank(cfg)
    cert = [c for s, c in certificates.items() if s.label == "S:1"][0]
    assert not cert.passed  # the practical flag is what admits it


def test_a_gain_that_destabilises_the_identity_loop_is_refused():
    # x+ = 0.5 x - 0.2 x through the identity channel, three sensors reading x:
    # with L = 0 and K C_J = 9 on every subset, A + L C_J is 0.5 but the error
    # loop steps e+ = (0.5 - 0.2 (1 + 9)) e = -1.5 e
    bank = bank_index(3, 1)
    bundle = {sub.label: {"K": [[9.0 / len(sub)] * len(sub)], "L": [[0.0] * len(sub)]}
              for sub in bank.all_subsets}
    cfg = parse_config({
        "plant": {"family": "circle", "A": [[0.5]], "G": [[-0.2]], "H": [[1.0]],
                  "C": [[1.0], [1.0], [1.0]], "nonlinearity": {"name": "identity"}},
        "scenario": {"q": 1, "horizon": 60, "x0": {"kind": "fixed", "value": [1.0]}},
        "observers": {"bundle": bundle},
    })
    with pytest.raises(ConfigurationError) as err:
        build_bank(cfg)
    failed = ("sector certificate failed over slopes [1, 1] (spectral radius 1.5, margin 1; "
              "need radius < 0.999 and margin >= 0.001); "
              "mark the entry practical or redesign the gain")
    assert err.value.problems == [f"{sub.label}: {failed}" for sub in bank.all_subsets]


def _reduced_toy(nonlinearity, practical=False):
    """x+ = 0.5 x + g(x), every state measured, q = 1, each L the unit rows
    completing C_J and K = 0."""
    bank = bank_index(3, 1)
    return parse_config({
        "plant": {"family": "reduced", "A": (0.5 * np.eye(3)).tolist(), "C": np.eye(3).tolist(),
                  "nonlinearity": nonlinearity},
        "scenario": {"q": 1, "horizon": 60, "x0": {"kind": "fixed", "value": [1.0] * 3}},
        "observers": {"bundle": {
            sub.label: {"L": np.eye(3)[[i for i in range(3) if i + 1 not in sub.members]].tolist(),
                        "practical": practical} for sub in bank.all_subsets}},
    })


def test_a_channel_that_destabilises_the_reduced_loop_is_refused():
    # g = 3 sin(x3) e3: where z holds x3 its error steps e+ = 0.5 e + 3 psi(e),
    # psi's slopes in [-3, 3], unstable at slope -3 though the linear part is 0.5;
    # where x3 is measured the channel does not enter z's error, margin 1
    sin = {"name": "sin_channel", "params": {"gain": 3.0, "index": 3, "position": 3}}
    cfg = _reduced_toy(sin)
    with pytest.raises(ConfigurationError) as err:
        build_bank(cfg)
    failed = ("sector certificate failed over slopes [-3, 3] (spectral radius 2.5, margin -3; "
              "need radius < 0.999 and margin >= 0.001); "
              "mark the entry practical or redesign the gain")
    assert err.value.problems == [f"{label}: {failed}" for label in ("J:1,2", "S:1", "S:2")]
    _, certificates = build_bank(_reduced_toy(sin, practical=True))
    assert {sub.label: (cert.spectral_radius, cert.margin)
            for sub, cert in certificates.items() if cert.passed} == {
        "J:1,3": (0.5, 1.0), "J:2,3": (0.5, 1.0), "S:3": (0.5, 1.0)}


def test_a_polynomial_channel_has_no_sector_and_needs_practical():
    # x3^2 has no global sector: the loops it enters fail over [-inf, inf], and
    # those where x3 is measured (B H = 0) are A_cl alone, margin 1
    poly = {"name": "poly_channel", "params": {"index": 3, "position": 3,
                                               "coeffs": [1.0, 0.0, 0.0]}}
    with pytest.raises(ConfigurationError) as err:
        build_bank(_reduced_toy(poly))
    assert [p.split(" (")[0] for p in err.value.problems] == [
        f"{label}: sector certificate failed over slopes [-inf, inf]"
        for label in ("J:1,2", "S:1", "S:2")]
    _, certificates = build_bank(_reduced_toy(poly, practical=True))
    assert {sub.label: (cert.spectral_radius, cert.margin)
            for sub, cert in certificates.items() if cert.passed} == {
        "J:1,3": (0.5, 1.0), "J:2,3": (0.5, 1.0), "S:3": (0.5, 1.0)}


def test_a_polynomial_of_degree_one_has_its_slope_as_sector():
    # leading zeros dropped, 0.1 x3 + 0.2 has slope 0.1 everywhere: where x3 is
    # estimated the loop is 0.5 + 0.1; a constant has slope 0
    for coeffs, slope in (([0.1, 0.0], 0.1), ([0.0, 0.0, 0.1, 0.2], 0.1), ([0.3], 0.0)):
        cfg = _reduced_toy({"name": "poly_channel",
                            "params": {"index": 3, "position": 3, "coeffs": coeffs}})
        assert cfg.plant.structure.sector == (slope, slope)
        _, certificates = build_bank(cfg)
        assert {sub.label: (cert.spectral_radius, cert.passed, cert.margin)
                for sub, cert in certificates.items()} == pytest.approx({
            label: (0.5 + slope * (label in ("J:1,2", "S:1", "S:2")), True, 1.0)
            for label in ("J:1,2", "J:1,3", "J:2,3", "S:1", "S:2", "S:3")}, rel=1e-12)


def test_example3_without_its_practical_flags_is_refused(scenario_dir):
    # its single-sensor observers converge on the runs, but have no certificate
    # over sin's sector: each is listed, and only they are
    raw = _raw(scenario_dir, "example3")
    for entry in raw["observers"]["bundle"].values():
        entry.pop("practical", None)
    with pytest.raises(ConfigurationError) as err:
        build_bank(parse_config(raw))
    assert [p.split(" (")[0] for p in err.value.problems] == [
        f"S:{i}: sector certificate failed over slopes [-1, 1]" for i in range(1, 6)
    ]


# --- malformed values ---------------------------------------------------------

MUTANT_VALUES = ("x", None, float("nan"), -1, 1.5, [], {})


def _augmented(scenario_dir, name):
    """A bundled config plus the optional keys that no bundled config sets."""
    raw = _raw(scenario_dir, name)
    raw["output"] = {"dir": "runs"}
    raw["scenario"]["disturbance"] = []
    raw["estimator"]["init"] = {"kind": "truth"}
    return raw


def _paths(node, prefix=()):
    """The key path of every leaf and every non-root container below ``node``."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _mutated(raw, path, value):
    out = copy.deepcopy(raw)
    reduce(operator.getitem, path[:-1], out)[path[-1]] = copy.deepcopy(value)
    return out


def _mutants(raw):
    """Yield (path, value) while ``raw`` holds ``value`` at ``path``; restore it after."""
    for path in list(_paths(raw)):
        parent = reduce(operator.getitem, path[:-1], raw)
        original = parent[path[-1]]
        for value in MUTANT_VALUES:
            parent[path[-1]] = copy.deepcopy(value)
            yield path, value
        parent[path[-1]] = original


def test_every_mutated_value_loads_or_is_listed(scenario_dir, tmp_path):
    # Stage 1: each mutant either parses or raises ConfigurationError.
    accepted = []
    for name in sorted(EXPECTED_BANKS):
        raw = _augmented(scenario_dir, name)
        parse_config(raw)  # the augmented base itself loads
        for path, value in _mutants(raw):
            try:
                parse_config(raw)
            except ConfigurationError:
                continue
            except Exception as exc:  # any other exception is the failure under test
                pytest.fail(f"{name} {path} = {value!r}: {type(exc).__name__}: {exc}")
            accepted.append((name, path, value))
    assert len(accepted) >= 100

    # Stage 2: a seeded sample of the accepted mutants runs end to end
    # (short horizon); only the package's own errors may escape.
    for name, path, value in random.Random(0).sample(accepted, 100):
        cfg = parse_config(_mutated(_augmented(scenario_dir, name), path, value))
        cfg.scenario = replace(cfg.scenario, horizon=min(cfg.scenario.horizon, 20))
        try:
            run_scenario(cfg, out=str(tmp_path))
        except MultiObserverError:
            pass
        except Exception as exc:  # any other exception is the failure under test
            pytest.fail(f"{name} {path} = {value!r}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize(
    "name, path, value, needle",
    [
        ("example3", ("calibration", "safety"), float("nan"), "calibration.safety"),
        ("example3", ("calibration", "safety"), "1.2", "calibration.safety"),
        ("example3", ("calibration", "trials"), True, "calibration.trials"),
        ("example3", ("scenario", "x0", "std", 1), -1.0, "std >= 0"),
        ("example3", ("estimator", "iss", "k_star"), 1.5, "estimator.iss.k_star"),
        ("example1", ("scenario", "seed"), -1, "seed must be >= 0"),
        ("example1", ("scenario", "horizon"), 10**12, "horizon must lie in"),
        ("example3", ("calibration", "horizon"), 10**12, "calibration horizon"),
        ("example2", ("plant", "nonlinearity", "params", "gain"), float("nan"), "params.gain"),
        ("example2", ("plant", "nonlinearity", "params", "index"), 1.5, "params.index"),
        ("example1", ("name",), "../escaped", "name: expected a file name"),
        ("example3", ("scenario", "attacks", "9"), {"kind": "zero"},
         "scenario.attacks[9]: key must be a sensor index in 1..5"),
        ("example3", ("observers", "bundle", "J:1,2"), {"L": [[0.0], [0.0]]},
         "observers.bundle[J:1,2]: subset not in the bank for p=5, q=2"),
        # sensor 3 in another spelling, beside example4's own "3", and in Arabic-Indic digits
        ("example4", ("scenario", "attacks", "03"), {"kind": "zero"},
         "scenario.attacks[03]: key must be a sensor index in 1..4"),
        ("example3", ("scenario", "attacks", "\u0663"), {"kind": "zero"},
         "scenario.attacks[\u0663]: key must be a sensor index in 1..5"),
        # a key past the 4300 digits that int() converts from a string
        ("example4", ("scenario", "attacks", "1" * 5000), {"kind": "zero"},
         "key must be a sensor index in 1..4"),
        # only an absent or null name takes the file stem
        *(("example1", ("name",), bad, "name: expected a file name")
          for bad in (0, False, [], {}, "")),
    ],
)
def test_values_that_break_a_guarantee_are_rejected(scenario_dir, name, path, value, needle):
    with pytest.raises(ConfigurationError) as err:
        parse_config(_mutated(_raw(scenario_dir, name), path, value))
    assert any(needle in p for p in err.value.problems), err.value.problems


_LONG_LABEL = "J:" + ",".join(map(str, range(1, 2000)))  # canonical, but not in the bank


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("x" * 5000,), 1, f"{'x' * 40}: unknown section"),
        (("scenario", "x0", "k" * 5000), 1, f"scenario.x0.{'k' * 40}: unknown field"),
        (("scenario", "attacks", "1" * 5000), {"kind": "zero"},
         f"scenario.attacks[{'1' * 40}]: key must be a sensor index in 1..3"),
        (("observers", "bundle", "Q" * 5000), {},
         f"observers.bundle[{'Q' * 40}]: malformed subset label '{'Q' * 39}"),
        (("observers", "bundle", _LONG_LABEL), {},
         f"observers.bundle[{_LONG_LABEL[:40]}]: subset not in the bank for p=3, q=1"),
    ],
    ids=["section", "field", "attack", "label", "subset"],
)
def test_a_long_key_is_cut_as_values_are(scenario_dir, path, value, problem):
    # a key goes into its problem's path cut to 40 characters, as a quoted value is
    with pytest.raises(ConfigurationError) as err:
        parse_config(_mutated(_raw(scenario_dir, "example2"), path, value))
    assert err.value.problems == [problem]


def test_an_absent_or_null_name_is_the_file_stem(scenario_dir, tmp_path):
    raw = _raw(scenario_dir, "example1")
    raw["name"] = None
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(raw))
    assert load_config(path).name == "mine"
    del raw["name"]
    assert parse_config(raw).name == "scenario"  # a document read without a file


@pytest.mark.parametrize(
    "name, path, value, problem",
    [
        ("example4", ("isolation", "esp"), 0.5, "isolation.esp"),
        ("example4", ("scenario", "noise_bnd"), 0.5, "scenario.noise_bnd"),
        ("example4", ("plant", "nonlinearity", "params"), {"gain": 3},
         "plant.nonlinearity.params.gain"),
        ("example2", ("plant", "nonlinearity", "params", "coeffs"), [1.0],
         "plant.nonlinearity.params.coeffs"),
        ("example3", ("plant", "nonlinearity", "nmae"), "sin", "plant.nonlinearity.nmae"),
        ("example1", ("plant", "nonlinearity"), {"name": "sin"}, "plant.nonlinearity"),
        ("example1", ("scenario", "x0", "sd"), [1.0, 1.0], "scenario.x0.sd"),
        ("example3", ("estimator", "isss"), {}, "estimator.isss"),
        ("example1", ("estimator", "init", "value"), [0.0, 0.0], "estimator.init.value"),
        ("example1", ("output",), {"dri": "runs"}, "output.dri"),
        ("example1", ("observers", "bundel"), {}, "observers.bundel"),
        ("example3", ("estimator", "iss", "lamda"), 0.5, "estimator.iss.lamda"),
        ("example1", ("observers", "bundle", "J:1,2", "Q"), [[1.0]], "observers.bundle[J:1,2].Q"),
        ("example3", ("scenario", "noise", "lo"), -0.1, "scenario.noise.lo"),
    ],
)
def test_unknown_keys_are_listed(scenario_dir, name, path, value, problem):
    # a misspelt key would otherwise load silently as the default
    with pytest.raises(ConfigurationError) as err:
        parse_config(_mutated(_raw(scenario_dir, name), path, value))
    assert err.value.problems == [f"{problem}: unknown field"]


@pytest.mark.parametrize(
    "name, q, problem",
    [
        ("example3", None, "expected an integer, got None"),
        ("example2", 2, "assumption violated: need 0 <= q < p/2, got q=2, p=3"),
        ("example2", 5, "assumption violated: need 0 <= q < p/2, got q=5, p=3"),
        ("example2", -1, "assumption violated: need 0 <= q < p/2, got q=-1, p=3"),
    ],
)
def test_unreadable_q_is_one_problem(scenario_dir, name, q, problem):
    # no bank is built for a q that could not be read, so nothing cascades from it
    raw = _raw(scenario_dir, name)
    del raw["scenario"]["q"]
    if q is not None:
        raw["scenario"]["q"] = q
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [f"scenario.q: {problem}"]


@pytest.mark.parametrize(
    "name, path, value, problem",
    [
        ("example1", ("plant", "family"), "kalman",
         "plant.family: unknown family 'kalman'; known: ['circle', 'luenberger', 'reduced']"),
        ("example2", ("plant", "nonlinearity", "name"), "cos_channel",
         "plant.nonlinearity.name: unknown name 'cos_channel'; "
         "known: ['poly_channel', 'sin_channel', 'tanh_channel', 'zero']"),
        ("example3", ("scenario", "noise", "kind"), "gauss",
         "scenario.noise.kind: unknown kind 'gauss'; "
         "known: ['constant', 'normal', 'table', 'uniform', 'zero']"),
        ("example1", ("scenario", "x0", "kind"), "uniform",
         "scenario.x0.kind: unknown kind 'uniform'; known: ['fixed', 'normal']"),
        ("example1", ("estimator", "init", "kind"), "random",
         "estimator.init.kind: unknown kind 'random'; known: ['truth', 'zero']"),
    ],
)
def test_an_unknown_tag_is_one_problem(scenario_dir, name, path, value, problem):
    with pytest.raises(ConfigurationError) as err:
        parse_config(_mutated(_raw(scenario_dir, name), path, value))
    assert err.value.problems == [problem]


_HUGE_UNIFORM = {"kind": "uniform", "low": -1e308, "high": 1e308}


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("scenario", "noise"), {"kind": "uniform", "low": 1.0, "high": 0.0},
         "scenario.noise: uniform signal needs low < high, got (1.0, 0.0)"),
        (("scenario", "attacks", "2"), {"kind": "table", "values": [1.0]},
         "scenario.attacks[2]: table signal has 1 values but horizon 199 needs 200"),
        (("scenario", "x0", "std", 1), -1.0,
         "scenario.x0: normal init needs std >= 0, got [1.0, -1.0, 1.0, 1.0]"),
        # numpy cannot draw from a uniform generator whose high - low overflows
        (("scenario", "attacks", "3"), _HUGE_UNIFORM,
         "scenario.attacks[3]: uniform signal's high - low overflows, got (-1e+308, 1e+308)"),
        (("scenario", "noise"), _HUGE_UNIFORM,
         "scenario.noise: uniform signal's high - low overflows, got (-1e+308, 1e+308)"),
    ],
)
def test_a_bad_generator_or_x0_is_one_problem(scenario_dir, path, value, problem):
    # the spec reads as its fallback once listed, so the scenario's own checks
    # (per-sensor generators, the declared noise bound) do not list it again
    with pytest.raises(ConfigurationError) as err:
        parse_config(_mutated(_raw(scenario_dir, "example2"), path, value))
    assert err.value.problems == [problem]



_NORMAL = {"kind": "normal", "mean": 0, "std": 0.1}


@pytest.mark.parametrize(
    "scenario, problems",
    [
        ({"noise": _NORMAL}, [f"scenario: noise on sensor {i} is unbounded (normal); "
                              "noise must be bounded" for i in (1, 2, 3)]),
        ({"disturbance": [_NORMAL]},
         ["scenario: disturbance 1 is unbounded (normal); disturbances must be bounded"]),
        ({"noise": {"kind": "table", "values": []}}, ["scenario.noise: table signal has no values"]),
        ({"noise": [{"kind": "zero"}, _NORMAL, {"kind": "constant", "value": 0.5}]},
         ["scenario: noise on sensor 2 is unbounded (normal); noise must be bounded"]),
        ({"disturbance": [{"kind": "zero"}] * 2},
         ["scenario: 2 disturbance generators for plant with 1 disturbance channels"]),
    ],
)
def test_noise_and_disturbances_must_be_bounded(scenario_dir, scenario, problems):
    # example2 with one disturbance channel: a normal generator is refused for
    # being unbounded, as every bound is its generators'
    raw = _raw(scenario_dir, "example2")
    raw["plant"]["D"] = [[0.1], [0.0], [0.0], [0.0]]
    raw["scenario"].update({"disturbance": [{"kind": "zero"}]}, **scenario)
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == problems


_ABSENT = object()


@pytest.mark.parametrize(
    "name, path, value, problem",
    [
        ("example2", ("plant", "A"), "x", "plant.A: not a numeric matrix"),
        ("example2", ("plant", "A"), _ABSENT, "plant.A: not a numeric matrix"),
        ("example2", ("plant", "A"), [[1.0, 0.0]], "plant.A: expected a square matrix"),
        ("example2", ("plant", "A"), [[1.0, float("nan")]],
         "plant.A: contains non-finite entries"),
    ],
)
def test_a_value_its_reader_lists_is_not_checked_again(scenario_dir, name, path, value, problem):
    raw = _raw(scenario_dir, name)
    if value is _ABSENT:
        del reduce(operator.getitem, path[:-1], raw)[path[-1]]
    else:
        raw = _mutated(raw, path, value)
    with pytest.raises(ConfigurationError) as err:
        parse_config(raw)
    assert err.value.problems == [problem]


def _fields(cfg):
    """Every parsed field of ``cfg`` in a form that ``==`` compares."""
    specs = {sub.label: (None if spec.K is None else spec.K.tolist(),
                         None if spec.L is None else spec.L.tolist(), spec.iss, spec.practical)
             for sub, spec in cfg.specs.items()}
    plant = (cfg.plant.name, cfg.plant.n, cfg.plant.p, cfg.plant.n_d)
    return (cfg.name, cfg.family, plant, cfg.bank, specs, cfg.scenario, cfg.estimator_init,
            cfg.estimator_iss, cfg.isolation, cfg.calibration, cfg.ceiling, cfg.out_dir)


@pytest.mark.parametrize(
    "name, path",
    [
        ("example2", ("plant", "D")),
        ("example2", ("observers", "bundle", "J:1,2", "K")),
        ("example1", ("scenario", "seed")),
        ("example3", ("calibration", "trials")),
        ("example3", ("scenario", "noise")),
    ],
)
def test_null_reads_as_the_absent_key(scenario_dir, name, path):
    absent = _raw(scenario_dir, name)
    reduce(operator.getitem, path[:-1], absent).pop(path[-1], None)
    null = _mutated(absent, path, None)
    assert _fields(parse_config(null)) == _fields(parse_config(absent))


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("plant", "A"), [[1, 0], [0, 1]], "plant.A: named plant example1 has a fixed linearization A"),
        (("plant", "C"), [[1, 0]], "plant.C: named plant example1 has a fixed linearization C"),
        (("observers", "bundle", "J:1,2", "L"), [[1.0, 0.0], [0.0, 1.0]],
         "observers.bundle[J:1,2].L: unknown field"),
    ],
)
def test_keys_the_family_never_reads_are_listed(scenario_dir, path, value, problem):
    # a matrix that would have no effect is a problem, like plant.D on example1
    with pytest.raises(ConfigurationError) as err:
        parse_config(_mutated(_raw(scenario_dir, "example1"), path, value))
    assert err.value.problems == [problem]


def _table_keys(node):
    """Every key of every section table inside ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, config._Key):
                yield key
            else:
                yield from _table_keys(value)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _table_keys(item)


def _readme_configuration() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]


def _accepted_keys() -> set[str]:
    tables = [value for name, value in vars(config).items() if not name.startswith("__")]
    return set(_table_keys(tables))


def test_readme_names_every_key_the_schema_accepts():
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", _readme_configuration()))))
    keys = _accepted_keys()
    assert {"window", "H", "tail_stat", "k_star", "dir"} <= keys
    assert sorted(keys - named) == []


# the words README's schema bullets put in backticks that are neither a key nor
# a tag value: the tags, the named dynamics, the label roles, p and a JSON literal
_README_NON_KEYS = {"family", "kind", "name", "params", "example1", "linear", "J", "S", "p",
                    "true"}

# each top-level key's own words: the keys of the tables that read its section,
# and the tag values they accept
_SECTION_WORDS = {
    "name": set(),
    "plant": {*_table_keys([config._PLANTS, config.STATE_NONLINEARITY_REGISTRY]),
              *config._PLANTS, *config.CHANNEL_REGISTRY, *config.STATE_NONLINEARITY_REGISTRY},
    "scenario": {*_table_keys([config._SCENARIO, config._SCENARIO_SIGNALS, config._SIGNALS,
                               config._INITS]), *config._SIGNALS, *config._INITS},
    "estimator": {*_table_keys([config._ESTIMATOR, config._ISS]), *config._ESTIMATOR_INITS},
    "observers": {*_table_keys([config._OBSERVERS, config._GAINS, config._ENTRY, config._ISS]),
                  *config._GAINS},
    "isolation": set(_table_keys(config._ISOLATION)),
    "calibration": {*_table_keys(config._CALIBRATION), *TAIL_STATS},
    "output": set(_table_keys(config._OUTPUT)),
}


def _quoted_words(text: str) -> list[str]:
    """The words, dotted paths kept whole, that ``text`` puts in backticks."""
    return [w.rstrip(".") for q in re.findall(r"`([^`]+)`", text)
            for w in re.findall(r"[A-Za-z_][\w.]*", q)]


def test_readme_documents_only_what_the_schema_accepts():
    # the schema list: one bullet per top-level key, each naming only its own
    # section's words, and another section's as a dotted path from its key
    section = _readme_configuration()
    schema = re.search(r"^- `name`.*?(?=\n\n)", section, re.S | re.M).group()
    unknown = []
    heads = []
    for bullet in re.split(r"\n(?=- )", schema):
        head = _quoted_words(bullet)[0].split(".")[0]
        heads.append(head)
        own = _SECTION_WORDS.get(head, set()) | _README_NON_KEYS | {head}
        for word in _quoted_words(bullet):
            first, *rest = word.split(".")
            ok = (first in own if not rest else first in _SECTION_WORDS
                  and set(rest) <= _SECTION_WORDS[first] | _README_NON_KEYS)
            if not ok:
                unknown.append(f"{head}: {word}")
    assert heads == list(config._TOP) and set(_SECTION_WORDS) == set(config._TOP)
    # every other bullet, each with its continuation lines, against the whole schema
    bullets = re.findall(r"^ *- .*(?:\n(?! *- )[^\n]+)*", section.replace(schema, ""), re.M)
    quoted = re.findall(r"`([^`]+)`", "\n".join(bullets))
    named = set(re.findall(r"[A-Za-z_]\w*", " ".join(quoted)))
    unknown += sorted(named - _accepted_keys() - set().union(*_SECTION_WORDS.values())
                      - _README_NON_KEYS)
    assert unknown == []


# --- state channels -----------------------------------------------------------

def _channel_reference(kind, params, x):
    """g(x) of a registered state channel, one state row at a time in Python floats:
    the constant, plus the channel's term of state ``index`` at state ``position``."""
    constant = [float(c) for c in params["constant"]]
    index, position = params["index"] - 1, params["position"] - 1
    x = np.asarray(x, dtype=float)
    want = np.empty(x.shape)
    for row in np.ndindex(x.shape[:-1]):
        v = x[row][index]
        if kind == "tanh_channel":
            term = params["gain"] * float(np.tanh(v))
        elif kind == "sin_channel":
            term = params["gain"] * float(np.sin(v))
        elif kind == "poly_channel":
            term = 0.0
            for c in params["coeffs"]:
                term = term * float(v) + c
        else:
            term = None
        for j in range(x.shape[-1]):
            if kind == "zero":
                want[row + (j,)] = 0.0
            else:
                want[row + (j,)] = constant[j] + term if j == position else constant[j]
    return want


def test_state_channels_match_their_formula_on_every_input_shape():
    # every registered reduced-order nonlinearity returns float64, equal bit for
    # bit (NaN sign and payload aside) to its formula, on 1-D, (B, n) and
    # (B, G, n) inputs with +-inf and NaN entries, and on an integer input
    rng = np.random.default_rng(5)
    n = 4
    params = {"constant": list(rng.normal(size=n)), "index": 3, "position": 2,
              "gain": -1.25, "coeffs": [0.3, -0.2, 0.7]}
    inputs = [rng.normal(size=n), rng.normal(size=(5, n)), rng.normal(size=(3, 4, n))]
    for x in inputs:
        flat = x.reshape(-1)
        flat[rng.choice(flat.size, size=3, replace=False)] = [np.inf, -np.inf, np.nan]
    inputs[0][2] = np.nan  # the 1-D input reads its non-finite entry
    inputs.append(rng.integers(-3, 4, size=(2, 3, n)))
    for kind, (table, build) in config.STATE_NONLINEARITY_REGISTRY.items():
        g = build(**{key: params[key] for key in table})["g"]
        for x in inputs:
            with np.errstate(invalid="ignore"):  # sin(inf), 0 * inf
                got, want = g(x, None), _channel_reference(kind, params, x)
            assert got.dtype == np.float64 and got.shape == x.shape, (kind, x.shape)
            assert np.array_equal(np.isnan(got), np.isnan(want)), (kind, x.shape)
            same = np.where(np.isnan(got), 0.0, got).view(np.uint64)
            assert np.array_equal(same, np.where(np.isnan(want), 0.0, want).view(np.uint64)), (
                kind, x.shape)
