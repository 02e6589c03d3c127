"""Bit-for-bit agreement with a brute-force re-derivation.

A noisy attacked run of the toy dead-beat bank is pushed through the
whole pipeline twice: once with the package (``run_estimator`` and
``windowed_isolation``) and once with the explicit enumeration in
``_brute``.  The two sides share no code, so every score, selection,
union, and vote must agree exactly — no tolerances.
"""

from dataclasses import replace

import numpy as np

from _brute import (
    argmin_selection,
    example1_f,
    example1_h,
    luenberger_observer_track,
    pi_table,
    union_of_passing,
    windowed_votes,
)
from _toys import run_from_pi, toy_bank, toy_scenario
from multiobserver import (
    SimulationDivergedError,
    ThresholdTable,
    build_bank,
    load_config,
    run_estimator,
    run_seeds,
    simulate,
    windowed_isolation,
)
from multiobserver.model import draw_run, first_divergence

P, Q = 3, 1
HORIZON = 99  # k = 0..99: one hundred estimator steps
WINDOW = 7
K_BAR = 4

PLANT, IDX, BANK = toy_bank()
SCEN = toy_scenario(horizon=HORIZON, noise_bound=0.05, seed=7)
TRAJ = simulate(PLANT, SCEN)
EST = BANK.run(TRAJ.y, np.zeros((HORIZON + 1, PLANT.n_u)), np.zeros(PLANT.n))
RUN = run_estimator(IDX, BANK.subsets, EST, truth=TRAJ.x)
POS = {sub: j for j, sub in enumerate(BANK.subsets)}


def _estimates_at(k):
    est_j = {sub.members: EST[POS[sub], k] for sub in IDX.j_subsets}
    est_s = {sub.members: EST[POS[sub], k] for sub in IDX.s_subsets}
    return est_j, est_s


def _threshold_table():
    """Per-subset thresholds at the median of the realized scores.

    Medians make the pass/fail pattern vary step to step, which is what
    the union and vote comparisons need.  The guard below keeps every
    score a comfortable distance from its threshold so agreement cannot
    hinge on the last bit of a norm.
    """
    pi_bar = {}
    for j, J in enumerate(IDX.j_subsets):
        scores = RUN.pi[:, j]
        pi_bar[J] = float(np.median(scores))
        gap = np.abs(scores - pi_bar[J]).min()
        assert gap > 1e-9
    return ThresholdTable(pi_bar=pi_bar, eps=0.0, k_bar_star=K_BAR)


def test_run_produces_varied_scores():
    # sanity on the fixture itself: the attack bites and noise spreads
    # the scores, so the comparisons below are not vacuous
    assert TRAJ.a[:, 1].max() > 1.0
    distinct = {float(v) for v in RUN.pi.ravel()}
    assert len(distinct) > 150
    # every observer starts from the same guess, so step 0 is a perfect
    # three-way tie; afterwards the noise keeps all scores positive
    assert RUN.pi[0].max() == 0.0
    assert RUN.pi[2:].min() > 0.0


def test_deviation_scores_match_brute_force():
    for k in range(HORIZON + 1):
        brute = pi_table(*_estimates_at(k), P, Q)
        for j, J in enumerate(IDX.j_subsets):
            assert RUN.pi[k, j] == brute[J.members]


def test_selection_matches_brute_force():
    for k in range(HORIZON + 1):
        est_j, est_s = _estimates_at(k)
        brute_sigma = argmin_selection(pi_table(est_j, est_s, P, Q))
        assert RUN.bank.j_subsets[RUN.sigma_idx[k]].members == brute_sigma
        assert np.array_equal(RUN.x_hat[k], est_j[brute_sigma])


def test_unions_match_brute_force():
    table = _threshold_table()
    brute_bar = {J.members: table.pi_bar[J] for J in IDX.j_subsets}
    # from k = 0, so that every step's union is compared
    report = windowed_isolation(RUN, replace(table, k_bar_star=0), WINDOW)
    seen = set()
    for k in range(HORIZON + 1):
        brute = union_of_passing(pi_table(*_estimates_at(k), P, Q), brute_bar)
        assert report.step_unions[k] == tuple(sorted(brute))
        seen.add(brute)
    # the pass/fail pattern actually varies and some steps clear the
    # quorum, so the vote comparison below has real work to do
    assert len(seen) >= 2
    assert any(len(u) >= P - Q for u in seen)


def test_windowed_votes_match_brute_force():
    table = _threshold_table()
    brute_bar = {J.members: table.pi_bar[J] for J in IDX.j_subsets}
    unions = {}
    for k in range(K_BAR, HORIZON + 1):
        unions[k] = union_of_passing(pi_table(*_estimates_at(k), P, Q), brute_bar)
    brute = windowed_votes(unions, P, Q, K_BAR, WINDOW)

    report = windowed_isolation(RUN, table, WINDOW)
    assert report.k_bar_star == K_BAR
    assert len(report.windows) == len(brute) == 13
    assert report.step_unions == {
        k: tuple(sorted(u)) for k, u in unions.items()
    }
    for w, (k_start, k_end, counts, winner, isolated, no_quorum) in zip(
        report.windows, brute
    ):
        assert (w.k_start, w.k_end) == (k_start, k_end)
        assert w.counts == counts
        assert w.winner == winner
        assert w.isolated == isolated
        assert w.no_quorum == no_quorum


def test_stepwise_and_vectorized_paths_agree_end_to_end():
    # the same run, scored one step at a time, must carry the identical
    # verdicts through isolation
    table = _threshold_table()
    pi = np.concatenate(
        [run_estimator(IDX, BANK.subsets, EST[:, k : k + 1]).pi for k in range(HORIZON + 1)]
    )
    assert np.array_equal(pi, RUN.pi)
    stepwise = windowed_isolation(run_from_pi(IDX, pi), table, WINDOW)
    vectorized = windowed_isolation(RUN, table, WINDOW)
    assert stepwise.step_unions == vectorized.step_unions
    assert stepwise.windows == vectorized.windows


# --- example1's batched maps against its scalar maps --------------------------


def _example1_states(rng, size):
    """(size, 2) states: ordinary magnitudes, entries near 1e150 (whose cube
    overflows), and ±inf, NaN, signed zeros and subnormals."""
    ordinary = rng.normal(size=(size, 2)) * 10.0 ** rng.uniform(-3, 3, (size, 2))
    huge = rng.choice([-1.0, 1.0], (size, 2)) * 1e150 * rng.uniform(0.5, 2.0, (size, 2))
    special = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324], (size, 2))
    kind = rng.choice(3, (size, 2), p=[0.6, 0.2, 0.2])
    return np.choose(kind, [ordinary, huge, special])


def _same(got, want):
    """NaN at the same entries, and the same bits at every other (a NaN's sign
    is not an outcome: inf meeting NaN gives either sign)."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_example1_maps_equal_the_scalar_reference(scenario_dir):
    # np.float_power on arrays rounds as numpy's scalar ``**`` on every SIMD
    # dispatch; array ``**`` does not, so the maps must not use it
    plant = load_config(scenario_dir / "example1.json").plant
    x = _example1_states(np.random.default_rng(1), 100_000)
    with np.errstate(all="ignore"):
        want_f = np.array([example1_f(row, None, None, 0) for row in x])
        want_h = np.array([example1_h(row, None) for row in x])
        got_f, got_h = plant.f(x, None, None, 0), plant.h(x, None)
        # more leading axes, as a bank steps (observers, runs, n)
        assert _same(plant.f(x.reshape(100, 1000, 2), None, None, 0).reshape(-1, 2), got_f)
    assert not np.isfinite(want_f).all() and np.isfinite(want_f).any()
    assert _same(got_f, want_f)
    assert _same(got_h, want_h)
    finite = np.isfinite(x).all(axis=1)  # the only states the old maps were given
    assert np.array_equal(got_f[finite].view(np.uint64), want_f[finite].view(np.uint64))


def test_example1_run_seeds_equal_per_run_stepping_through_the_scalar_maps(scenario_dir):
    # each seed's plant run and every observer track, stepped alone on 1-D
    # states through the scalar maps, against the batched run_seeds
    cfg = load_config(scenario_dir / "example1.json")
    bank, _ = build_bank(cfg)
    outcomes = run_seeds(cfg, bank, range(200))
    diverged = 0
    for seed, out in enumerate(outcomes):
        x0, u, d, m, a = draw_run(cfg.plant, replace(cfg.scenario, seed=seed))
        x = [x0]
        with np.errstate(all="ignore"):
            for k in range(cfg.scenario.horizon):
                x.append(example1_f(x[k], u[k], d[k], k))
        x = np.array(x)
        hit = first_divergence(x, cfg.ceiling)
        if hit is not None:
            assert isinstance(out, SimulationDivergedError), seed
            assert (out.step, out.value) == hit, seed
            diverged += 1
            continue
        assert np.array_equal(out.truth.view(np.uint64), x.view(np.uint64)), seed
        y = np.array([example1_h(x_k, u_k) for x_k, u_k in zip(x, u)]) + m + a
        x0_est = cfg.initial_estimate(x[0])
        for j, (sub, obs) in enumerate(bank.items()):
            want = luenberger_observer_track(example1_f, example1_h, obs.K, sub.members, y, u,
                                             x0_est)
            assert np.array_equal(out.est[j].view(np.uint64), want.view(np.uint64)), (seed, sub)
    assert 0 < diverged < 200
