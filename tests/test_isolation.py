import csv
import io

import numpy as np
import pytest
from _brute import thresholds, union_of_passing, windowed_votes
from _toys import run_from_pi, toy_bank, toy_scenario

from multiobserver import (
    ConfigurationError,
    ISSGainModel,
    SubsetIndex,
    ThresholdTable,
    bank_index,
    compute_thresholds,
    run_estimator,
    simulate,
    windowed_isolation,
)
from multiobserver.isolation import steps_to_csv, windows_to_csv

J12, J13, J23 = SubsetIndex("J", (1, 2)), SubsetIndex("J", (1, 3)), SubsetIndex("J", (2, 3))


def _gains(idx, **overrides):
    base = ISSGainModel(c=2.0, lam=0.5, gamma1=0.1, gamma2=0.0, nu=0.0, k_star=3)
    return {sub: overrides.get(sub.label, base) for sub in idx.all_subsets}


def test_threshold_formula_maximizes_over_contained():
    idx = bank_index(3, 1)
    gains = _gains(
        idx,
        **{
            "J:1,2": ISSGainModel(c=2, lam=0.5, gamma1=0.2, gamma2=0.5, nu=0.01, k_star=4),
            "S:1": ISSGainModel(c=2, lam=0.5, gamma1=0.7, gamma2=0.0, nu=0.00, k_star=9),
            "S:2": ISSGainModel(c=2, lam=0.5, gamma1=0.1, gamma2=1.0, nu=0.05, k_star=2),
        },
    )
    table = compute_thresholds(gains, idx, m_bar=0.5, d_bar=0.25, eps=0.03)
    # family of J:1,2 is {J:1,2, S:1, S:2}: worst gamma1 = 0.7, gamma2 = 1.0, nu = 0.05
    assert table.pi_bar[J12] == pytest.approx(2 * (0.03 + 0.7 * 0.5 + 1.0 * 0.25 + 0.05))
    # family of J:2,3 is {J:2,3, S:2, S:3} with the default model except S:2
    assert table.pi_bar[J23] == pytest.approx(2 * (0.03 + 0.1 * 0.5 + 1.0 * 0.25 + 0.05))
    assert table.k_bar_star == 9  # worst declared settling step in the bank
    assert table.eps == 0.03


@pytest.mark.parametrize("p, q", [(3, 1), (5, 2), (7, 3)])
def test_thresholds_equal_a_per_subset_scan(p, q):
    idx = bank_index(p, q)
    rows = np.random.default_rng(p).random((len(idx.all_subsets), 3)).tolist()
    gains = {sub: ISSGainModel(c=1.0, lam=0.5, gamma1=g1, gamma2=g2, nu=nu, k_star=0)
             for sub, (g1, g2, nu) in zip(idx.all_subsets, rows)}
    table = compute_thresholds(gains, idx, m_bar=0.3, d_bar=0.7, eps=0.05)
    want = thresholds({(sub.role, sub.members): row for sub, row in zip(idx.all_subsets, rows)},
                      p, q, 0.3, 0.7, 0.05)
    assert list(table.pi_bar) == list(idx.j_subsets)
    assert {J.members: v for J, v in table.pi_bar.items()} == want


def test_threshold_settling_override():
    idx = bank_index(3, 1)
    table = compute_thresholds(_gains(idx), idx, 0.1, 0.0, 0.0, k_star_override=0)
    assert table.k_bar_star == 0
    assert compute_thresholds(_gains(idx), idx, 0.1, 0.0, 0.0).k_bar_star == 3


def test_threshold_validation_collects_problems():
    idx = bank_index(3, 1)
    gains = _gains(idx)
    del gains[SubsetIndex("S", (2,))]
    gains[J12] = ISSGainModel(c=-1.0, lam=1.5, gamma1=0.1, k_star=3)
    with pytest.raises(ConfigurationError) as err:
        compute_thresholds(gains, idx, 0.1, 0.0, eps=-0.5)
    text = "\n".join(err.value.problems)
    assert "missing convergence models for S:2" in text
    assert "eps=-0.5" in text
    assert "J:1,2" in text  # the invalid model is named


def test_threshold_problems_are_listed_in_bank_order():
    idx = bank_index(5, 2)
    gains = _gains(idx, **{
        "S:4": ISSGainModel(c=2.0, lam=0.5, k_star=-1),
        "J:2,3,4": ISSGainModel(c=2.0, lam=1.0),
        "J:1,2,5": ISSGainModel(c=0.5, lam=0.5),
        "J:1,2,3": ISSGainModel(c=2.0, lam=0.5, gamma1=float("nan")),
    })
    del gains[SubsetIndex("J", (1, 3, 4))]
    with pytest.raises(ConfigurationError) as err:
        compute_thresholds(gains, idx, 0.1, 0.0, 0.0)
    assert err.value.problems == [
        "J:1,2,3: gamma1 must be nonnegative, got nan",
        "J:1,2,5: overshoot constant must be >= 1, got c=0.5",
        "J:2,3,4: decay rate must lie in (0, 1), got lam=1.0",
        "S:4: k_star must be nonnegative, got -1",
        "missing convergence models for J:1,3,4",
    ]


@pytest.mark.parametrize("k_star", [2**53 + 1, 10**400])
def test_the_settling_step_is_the_exact_declared_integer(k_star):
    idx = bank_index(3, 1)
    table = compute_thresholds(_gains(idx, **{"S:2": ISSGainModel(c=2.0, lam=0.5, gamma1=0.1,
                                                                  k_star=k_star)}),
                               idx, 0.1, 0.0, 0.0)
    assert type(table.k_bar_star) is int and table.k_bar_star == k_star
    assert table.pi_bar == compute_thresholds(_gains(idx), idx, 0.1, 0.0, 0.0).pi_bar


def test_threshold_table_rejects_negative_entries():
    with pytest.raises(ConfigurationError):
        ThresholdTable(pi_bar={J12: -0.1}, eps=0.0, k_bar_star=0)
    with pytest.raises(ConfigurationError) as err:
        ThresholdTable(pi_bar={J12: 0.1, J13: float("inf")}, eps=0.0, k_bar_star=0)
    assert err.value.problems == ["threshold for J:1,3 must be finite and >= 0, got inf"]
    with pytest.raises(ConfigurationError):
        ThresholdTable(pi_bar={J12: 0.1}, eps=0.0, k_bar_star=-1)


@pytest.mark.parametrize("name", ["gamma1", "gamma2", "nu"])
def test_a_nan_gain_is_rejected_before_it_reaches_a_threshold(name):
    # every comparison with NaN is false, so a NaN gain must fail the >= 0 check
    model = ISSGainModel(c=1.0, lam=0.5, **{name: float("nan")})
    assert model.validate() == [f"{name} must be nonnegative, got nan"]
    idx = bank_index(3, 1)
    with pytest.raises(ConfigurationError) as err:
        compute_thresholds(_gains(idx, **{"J:1,2": model}), idx, 0.1, 0.1, 0.0)
    assert err.value.problems == [f"J:1,2: {name} must be nonnegative, got nan"]
    with pytest.raises(ConfigurationError) as err:
        ThresholdTable(pi_bar={J12: 0.1, J13: float("nan")}, eps=0.0, k_bar_star=0)
    assert err.value.problems == ["threshold for J:1,3 must be finite and >= 0, got nan"]


def _table(k_bar_star=2):
    return ThresholdTable(
        pi_bar={J12: 1.0, J13: 1.0, J23: 1.0}, eps=0.0, k_bar_star=k_bar_star
    )


def test_step_unions_are_unions_of_passing_subsets():
    idx = bank_index(3, 1)
    pi = [
        [0.5, 2.0, 3.0],
        [0.5, 0.9, 3.0],
        [2.0, 2.0, 3.0],
        [1.0, 2.0, 3.0],  # the boundary counts as passing
        [np.inf, 0.2, np.inf],
    ]
    report = windowed_isolation(run_from_pi(idx, pi), _table(k_bar_star=0), window=5)
    assert report.step_unions == {0: (1, 2), 1: (1, 2, 3), 2: (), 3: (1, 2), 4: (1, 3)}


@pytest.mark.parametrize("p, q", [(7, 3), (9, 4)])  # 35 and 126 candidates: 5 and 16 bytes
def test_packed_unions_match_brute_force_across_bytes(p, q):
    idx = bank_index(p, q)
    n_j = len(idx.j_subsets)
    rng = np.random.default_rng(p)
    bars = rng.uniform(0.5, 1.5, n_j)
    table = ThresholdTable(pi_bar=dict(zip(idx.j_subsets, bars.tolist())), eps=0.0, k_bar_star=1)

    def only(j, score=0.0, rest=None):
        row = 2.0 * bars if rest is None else np.full(n_j, rest)
        row[j] = score
        return row

    mixed = rng.uniform(0.0, 1.6, (8, n_j))
    mixed[rng.random(mixed.shape) < 0.2] = np.nan
    mixed[rng.random(mixed.shape) < 0.2] = np.inf
    pi = np.array([
        0.5 * bars,  # before the settling step: never voted on
        0.5 * bars,  # every J passes
        2.0 * bars,  # no J passes
        *(only(j) for j in (0, 7, 8, n_j - 1)),  # one J passes, each side of a byte edge
        only(8, score=bars[8]),  # a score equal to its bar passes
        bars,
        only(0, rest=np.nan),  # NaN and +inf fail
        only(n_j - 1, rest=np.inf),
        *mixed,
    ])
    report = windowed_isolation(run_from_pi(idx, pi), table, window=4)
    by_members = {J.members: float(v) for J, v in zip(idx.j_subsets, bars)}
    want = {k: union_of_passing({J.members: float(v) for J, v in zip(idx.j_subsets, row)},
                                by_members)
            for k, row in enumerate(pi) if k >= 1}
    assert report.step_unions == {k: tuple(sorted(u)) for k, u in want.items()}
    assert report.step_unions[2] == ()
    assert report.step_unions[9] == idx.j_subsets[0].members
    assert report.step_unions[10] == idx.j_subsets[n_j - 1].members
    votes = windowed_votes(want, p, q, 1, 4)
    assert len(votes) == 4
    assert [(w.k_start, w.k_end, w.counts, w.winner, w.isolated, w.no_quorum)
            for w in report.windows] == votes


def _run_from_unions(unions_by_step):
    """A run whose passing subsets at step k are those inside unions_by_step[k].

    The realized union is then the union of those subsets — equal to the
    requested tuple whenever it has at least p - q members, and empty
    when the tuple is too small to contain any J.
    """
    pi = [
        [0.5 if set(J.members) <= set(union) else 5.0 for J in (J12, J13, J23)]
        for union in unions_by_step
    ]
    return run_from_pi(bank_index(3, 1), np.reshape(pi, (len(unions_by_step), 3)))


def test_windows_tile_after_the_settling_step():
    unions = [(1, 2, 3)] * 11  # steps 0..10
    report = windowed_isolation(_run_from_unions(unions), _table(k_bar_star=2), window=3)
    assert [(w.k_start, w.k_end) for w in report.windows] == [(2, 4), (5, 7), (8, 10)]
    assert sorted(report.step_unions) == list(range(2, 11))  # nothing before k_bar_star
    # one step shorter: the last (partial) window is dropped
    report = windowed_isolation(_run_from_unions(unions[:10]), _table(k_bar_star=2), window=3)
    assert [(w.k_start, w.k_end) for w in report.windows] == [(2, 4), (5, 7)]


def test_majority_vote_and_complement():
    unions = [(1, 2)] * 2 + [(1, 2, 3)] * 1 + [(1, 2)] * 2  # window of 5 from k=0
    report = windowed_isolation(
        _run_from_unions(unions), _table(k_bar_star=0), window=5
    )
    (w,) = report.windows
    assert w.counts == {(1, 2): 4, (1, 2, 3): 1}
    assert w.winner == (1, 2)
    assert w.isolated == (3,)
    assert not w.no_quorum


def test_full_union_vote_isolates_nothing():
    report = windowed_isolation(
        _run_from_unions([(1, 2, 3)] * 4), _table(k_bar_star=0), window=4
    )
    (w,) = report.windows
    assert w.winner == (1, 2, 3)
    assert w.isolated == ()
    assert not w.no_quorum


def test_vote_ties_break_lexicographically():
    unions = [(2, 3), (1, 2), (1,)]  # the singleton union is below quorum
    report = windowed_isolation(
        _run_from_unions(unions), _table(k_bar_star=0), window=3
    )
    (w,) = report.windows
    assert w.counts == {(2, 3): 1, (1, 2): 1}
    assert w.winner == (1, 2)
    assert w.isolated == (3,)


def test_no_quorum_window():
    unions = [(1,), (), (3,), (2,)]
    report = windowed_isolation(
        _run_from_unions(unions), _table(k_bar_star=0), window=4
    )
    (w,) = report.windows
    assert w.no_quorum
    assert w.winner is None
    assert w.isolated == ()
    assert w.counts == {}
    assert [w.isolated for w in report.windows] == [()]


def test_isolated_cardinality_never_exceeds_budget():
    rng = np.random.default_rng(7)
    for case in range(1000):
        p = int(rng.integers(3, 7))
        q = int(rng.integers(1, (p - 1) // 2 + 1))
        idx = bank_index(p, q)
        table = ThresholdTable(
            pi_bar={J: float(rng.uniform(0.2, 1.0)) for J in idx.j_subsets},
            eps=0.0,
            k_bar_star=0,
        )
        run = run_from_pi(idx, rng.uniform(0.0, 1.2, (6, len(idx.j_subsets))))
        report = windowed_isolation(run, table, window=3)
        for w in report.windows:
            assert len(w.isolated) <= q
            if w.winner is not None:
                assert len(w.winner) >= p - q
                assert w.counts[w.winner] == max(w.counts.values())


def test_bank_run_isolates_the_attacked_sensor():
    plant, idx, bank = toy_bank()
    traj = simulate(plant, toy_scenario(horizon=25, attacked=(2,), noise_bound=0.01, seed=3))
    est = bank.run(traj.y, traj.u, x0_est=np.zeros(2))
    run = run_estimator(idx, idx.all_subsets, est)
    table = ThresholdTable(
        pi_bar={J: 0.2 for J in idx.j_subsets}, eps=0.0, k_bar_star=4
    )
    report = windowed_isolation(run, table, window=7)
    assert [(w.k_start, w.k_end) for w in report.windows] == [(4, 10), (11, 17), (18, 24)]
    assert all(w.isolated == (2,) for w in report.windows)


def test_windowed_isolation_input_validation():
    run = _run_from_unions([(1, 2)] * 6)
    with pytest.raises(ConfigurationError):
        windowed_isolation(run, _table(), window=0)
    short = ThresholdTable(pi_bar={J12: 1.0}, eps=0.0, k_bar_star=0)
    with pytest.raises(ConfigurationError):
        windowed_isolation(run, short, window=5)
    reversed_order = ThresholdTable(pi_bar={J23: 1.0, J13: 1.0, J12: 1.0}, eps=0.0, k_bar_star=0)
    with pytest.raises(ConfigurationError, match="bank.j_subsets order"):
        windowed_isolation(run, reversed_order, window=5)


def test_empty_stream_is_an_empty_report():
    # a run that ends before the settling step leaves nothing to vote on
    run = _run_from_unions([(1, 2)] * 2)  # steps 0..1
    report = windowed_isolation(run, _table(k_bar_star=2), window=5)
    assert report.windows == ()
    assert report.step_unions == {}
    report = windowed_isolation(run, _table(k_bar_star=7), window=1)
    assert report.windows == ()
    assert report.step_unions == {}


def test_isolation_csv_schemas():
    unions = [(1, 2)] * 3 + [(1,)] * 3
    report = windowed_isolation(
        _run_from_unions(unions), _table(k_bar_star=0), window=3
    )
    buf = io.StringIO()
    windows_to_csv(report, buf)
    buf.seek(0)
    rows = list(csv.reader(buf))
    assert rows[0] == ["window_i", "k_start", "k_end", "winner_J", "isolated_set", "no_quorum"]
    assert len(rows) == 3  # header + 2 windows
    assert rows[1][0] == "1" and rows[1][5] == "0"
    assert rows[2][5] == "1"  # the second window had no quorum

    buf = io.StringIO()
    steps_to_csv(report, buf)
    buf.seek(0)
    rows = list(csv.reader(buf))
    assert rows[0][0] == "k"
    assert len(rows) == 7  # header + 6 steps
