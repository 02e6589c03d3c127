import csv
import io
import math

import numpy as np
import pytest
from _brute import argmin_selection, deviation, pi_table
from _toys import toy_bank, toy_scenario

from multiobserver import (
    EstimatorStarvedError,
    InternalConsistencyError,
    SubsetIndex,
    bank_index,
    run_estimator,
    simulate,
)
from multiobserver.estimator import _BLOCK_ELEMS, frames_to_csv

J12, J13, J23 = SubsetIndex("J", (1, 2)), SubsetIndex("J", (1, 3)), SubsetIndex("J", (2, 3))
S1, S2, S3 = SubsetIndex("S", (1,)), SubsetIndex("S", (2,)), SubsetIndex("S", (3,))
IDX = bank_index(3, 1)  # all_subsets: J12, J13, J23, S1, S2, S3


def _est(*steps):
    """(6, len(steps), n) bank estimates; each step maps subset -> vector."""
    return np.array(
        [[step[sub] for step in steps] for sub in IDX.all_subsets], dtype=float
    )


def test_pi_is_the_worst_contained_deviation():
    est = _est(
        {
            J12: [0.0, 0.0],
            J13: [1.0, 1.0],
            J23: [0.0, -1.0],
            S1: [3.0, 4.0],  # distance 5 from J12
            S2: [1.0, 0.0],  # distance 1 from J12
            S3: [0.0, 0.0],
        }
    )
    run = run_estimator(IDX, IDX.all_subsets, est)
    assert run.pi.shape == (1, 3)  # one column per J, in canonical order
    assert run.pi[0, 0] == 5.0
    # J13 contains S1 and S3: distances sqrt(13) and sqrt(2)
    assert run.pi[0, 1] == pytest.approx(math.sqrt(13.0))
    assert run.pi[0, 2] == pytest.approx(math.sqrt(2.0))
    assert run.bank.j_subsets[run.sigma_idx[0]] == J23


def test_nonfinite_estimates_score_infinite():
    zero = {sub: [0.0, 0.0] for sub in IDX.all_subsets}
    own_nan = {**zero, J12: [np.nan, 0.0]}
    child_inf = {**zero, S3: [np.inf, 0.0]}
    run = run_estimator(IDX, IDX.all_subsets, _est(zero, own_nan, child_inf))
    assert run.pi[1].tolist() == [math.inf, 0.0, 0.0]  # J12's own estimate is non-finite
    assert run.bank.j_subsets[run.sigma_idx[1]] == J13
    assert run.pi[2].tolist() == [0.0, math.inf, math.inf]  # both contain the diverged S3
    assert run.bank.j_subsets[run.sigma_idx[2]] == J12
    both = {**own_nan, S3: [np.inf, 0.0]}
    with pytest.raises(EstimatorStarvedError) as err:
        run_estimator(IDX, IDX.all_subsets, _est(*[zero] * 17, both))
    assert err.value.step == 17


def test_selection_breaks_ties_canonically():
    zero = {sub: [0.0] for sub in IDX.all_subsets}
    # children all at 0: J12, J13, J23 at 2, 1, 1 score 2, 1, 1
    spread = {**zero, J12: [2.0], J13: [1.0], J23: [-1.0]}
    run = run_estimator(IDX, IDX.all_subsets, _est(zero, spread))
    assert run.pi.tolist() == [[0.0, 0.0, 0.0], [2.0, 1.0, 1.0]]
    assert run.bank.j_subsets[run.sigma_idx[0]] == J12
    assert run.bank.j_subsets[run.sigma_idx[1]] == J13


def test_integer_estimates_score_like_floats():
    est = np.arange(6 * 3 * 2).reshape(6, 3, 2) ** 3
    run = run_estimator(IDX, IDX.all_subsets, est)
    assert np.array_equal(run.pi, run_estimator(IDX, IDX.all_subsets, est.astype(float)).pi)


def test_missing_estimate_is_an_internal_error():
    est = np.zeros((6, 4, 2))
    without_s2 = tuple(sub for sub in IDX.all_subsets if sub != S2)
    with pytest.raises(InternalConsistencyError, match="bank.all_subsets order"):
        run_estimator(IDX, without_s2, est[:5])
    with pytest.raises(InternalConsistencyError, match="5 estimate tracks for 6 subsets"):
        run_estimator(IDX, IDX.all_subsets, est[:5])
    for bad in (est[:, 0], est[:, :0], est[..., :0], est[..., None]):
        with pytest.raises(InternalConsistencyError, match="estimates must be"):
            run_estimator(IDX, IDX.all_subsets, bad)


def test_run_packages_selection():
    est = _est(
        {J12: [0.0, 0.0], J13: [1.0, 0.0], J23: [4.0, 0.0],
         S1: [1.1, 0.0], S2: [9.0, 9.0], S3: [0.8, 0.0]}
    )
    truth = np.array([[1.0, 1.0]])
    run = run_estimator(IDX, IDX.all_subsets, est, truth=truth)
    assert run.bank.j_subsets[run.sigma_idx[0]] == J13  # its children S1, S3 sit within 0.2 of it
    assert run.horizon == 0
    assert np.array_equal(run.x_hat[0], est[1, 0])
    assert run.e_norm is not None
    assert run.e_norm[0] == pytest.approx(float(np.linalg.norm(run.x_hat[0] - truth[0])))


def test_properties_hold_on_random_banks():
    rng = np.random.default_rng(42)
    for case in range(1000):
        p = int(rng.integers(3, 6))
        q = int(rng.integers(1, (p - 1) // 2 + 1))
        idx = bank_index(p, q)
        n = int(rng.integers(1, 4))
        est = rng.normal(size=(len(idx.all_subsets), 1, n))
        run = run_estimator(idx, idx.all_subsets, est)
        assert (run.pi >= 0.0).all()
        j = int(run.sigma_idx[0])
        assert run.pi[0, j] == run.pi[0].min()
        assert np.array_equal(run.x_hat[0], est[idx.all_subsets.index(idx.j_subsets[j]), 0])


def test_run_estimator_matches_stepwise_loop():
    plant, idx, bank = toy_bank()
    scen = toy_scenario(horizon=40, noise_bound=0.01, seed=5)
    traj = simulate(plant, scen)
    est = bank.run(traj.y, traj.u, x0_est=np.zeros(2))
    run = run_estimator(idx, idx.all_subsets, est, truth=traj.x)
    assert run.pi.shape == (41, 3)
    assert run.x_hat.shape == (41, 2)
    for k in range(41):
        est_j = {J.members: est[j, k] for j, J in enumerate(idx.all_subsets) if J.role == "J"}
        est_s = {S.members: est[j, k] for j, S in enumerate(idx.all_subsets) if S.role == "S"}
        pi = pi_table(est_j, est_s, 3, 1)
        assert run.pi[k].tolist() == [pi[J.members] for J in idx.j_subsets]
        sigma = argmin_selection(pi)
        assert run.bank.j_subsets[run.sigma_idx[k]].members == sigma
        assert np.array_equal(run.x_hat[k], est_j[sigma])
        assert run.e_norm[k] == deviation(est_j[sigma], traj.x[k])


@pytest.mark.parametrize(
    "p, q, n, steps",
    [
        (3, 1, 1, 9),
        (5, 2, 2, 9),
        (7, 3, 3, 9),
        (5, 2, 8, 9),
        (7, 3, 9, 9),
        (11, 5, 12, 12),  # 462 candidates at 144 elements each: three blocks
        (3, 1, 3, _BLOCK_ELEMS // 3 + 1),  # one candidate per block
        (13, 6, 2, 20),  # 1716 candidates at 40 elements each: blocks of 819
        (9, 4, 1, 512),  # 126 candidates at 512 elements each: 64, then a partial 62
    ],
)
def test_pi_matches_brute_force_bit_for_bit(p, q, n, steps):
    rng = np.random.default_rng(1000 * p + n)
    idx = bank_index(p, q)
    est = rng.normal(size=(len(idx.all_subsets), steps, n))
    # NaN, +-inf and square-overflowing entries everywhere except one
    # candidate per step and its cross-checks, so no step starves
    bad = rng.random(est.shape) < 0.05
    for k in range(steps):
        J = idx.j_subsets[k % len(idx.j_subsets)]
        for sub in (J, *idx.contained[J]):
            bad[idx.all_subsets.index(sub), k] = False
    est[bad] = rng.choice([np.nan, np.inf, -np.inf, 1e200], size=int(bad.sum()))
    perm = rng.permutation(len(idx.all_subsets))
    with pytest.raises(InternalConsistencyError, match="bank.all_subsets order"):
        run_estimator(idx, tuple(idx.all_subsets[i] for i in perm), est[perm])
    run = run_estimator(idx, idx.all_subsets, est)
    n_j = len(idx.j_subsets)
    for k in range(steps):
        est_j = {J.members: est[j, k] for j, J in enumerate(idx.j_subsets)}
        est_s = {S.members: est[n_j + i, k] for i, S in enumerate(idx.s_subsets)}
        pi = pi_table(est_j, est_s, p, q)
        assert run.pi[k].tolist() == [pi[J.members] for J in idx.j_subsets]
        sigma = argmin_selection(pi)
        assert run.bank.j_subsets[run.sigma_idx[k]].members == sigma
        assert np.array_equal(run.x_hat[k], est_j[sigma])


@pytest.mark.parametrize("n", [1, 3])
def test_run_estimator_leaves_the_estimates_untouched(n):
    # several blocks, each scored in buffers that must never alias est
    idx = bank_index(9, 4)
    rng = np.random.default_rng(n)
    steps = _BLOCK_ELEMS // (40 * n)  # blocks of 40 candidates
    est = rng.normal(size=(len(idx.all_subsets), steps, n))
    # non-finite and square-overflowing entries in the cross-check tracks only,
    # so no step starves
    bad = rng.random(est.shape) < 0.05
    bad[: len(idx.j_subsets)] = False
    est[bad] = rng.choice([np.nan, np.inf, -np.inf, 1e200], size=int(bad.sum()))
    before = est.tobytes()
    run = run_estimator(idx, idx.all_subsets, est)
    assert est.tobytes() == before
    assert run.est is est
    assert np.isinf(run.pi).any() and np.isfinite(run.pi).any()


def test_run_estimator_starves_on_all_nan_step():
    idx = bank_index(3, 1)
    est = np.zeros((6, 4, 2))
    est[:, 2, :] = np.nan  # every observer non-finite at k = 2
    with pytest.raises(EstimatorStarvedError) as err:
        run_estimator(idx, idx.all_subsets, est)
    assert err.value.step == 2


def test_selected_estimate_tracks_the_plant():
    # dead-beat bank, no noise: every clean observer is exact from k = 2,
    # so the clean pair scores pi = 0 and the fused error vanishes
    plant, idx, bank = toy_bank()
    scen = toy_scenario(horizon=30, attacked=(3,), seed=1)
    traj = simulate(plant, scen)
    est = bank.run(traj.y, traj.u, x0_est=np.zeros(2))
    run = run_estimator(idx, idx.all_subsets, est, truth=traj.x)
    assert run.e_norm is not None
    for k in range(3, 31):
        assert run.bank.j_subsets[run.sigma_idx[k]] == J12
        assert run.pi[k, 0] < 1e-12  # children agree up to roundoff
        assert run.e_norm[k] == 0.0  # the pair observer is exact


def test_frames_csv_schema():
    plant, idx, bank = toy_bank()
    traj = simulate(plant, toy_scenario(horizon=5))
    est = bank.run(traj.y, traj.u, x0_est=np.zeros(2))
    run = run_estimator(idx, idx.all_subsets, est, truth=traj.x)
    buf = io.StringIO()
    frames_to_csv(run, buf)
    buf.seek(0)
    rows = list(csv.reader(buf))
    header = rows[0]
    assert header[:2] == ["k", "sigma"]
    assert "pi_J:1,2" in header
    assert len(rows) == 7  # header + 6 steps
    assert rows[1][header.index("sigma")] in {J.label for J in idx.j_subsets}
    assert [int(float(r[0])) for r in rows[1:]] == list(range(6))
