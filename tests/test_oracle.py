"""Bit-for-bit agreement with a brute-force re-derivation.

A noisy attacked run of the toy dead-beat bank is pushed through the
whole pipeline twice: once with the package (``run_estimator`` and
``windowed_isolation``) and once with the explicit enumeration in
``_brute``.  The two sides share no code, so every score, selection,
union, and vote must agree exactly — no tolerances.
"""

from dataclasses import replace

import numpy as np

from _brute import argmin_selection, pi_table, union_of_passing, windowed_votes
from _toys import run_from_pi, toy_bank, toy_scenario
from multiobserver import (
    ThresholdTable,
    run_estimator,
    simulate,
    windowed_isolation,
)

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
