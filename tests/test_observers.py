import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from _brute import (
    circle_folded_track,
    circle_observer_track,
    luenberger_observer_track,
    reduced_observer_track,
    sector_margin_on_grid,
)
from _toys import A2, C3, times, toy_bank, toy_plant, toy_scenario

from multiobserver import (
    CircleCriterionObserver,
    CircleStructure,
    ConfigurationError,
    InitSpec,
    LuenbergerObserver,
    ObserverBank,
    PlantModel,
    ReducedOrderObserver,
    ReducedStructure,
    SubsetIndex,
    bank_index,
    build_bank,
    certify_sector,
    load_config,
    simulate,
)
from multiobserver.config import CHANNEL_REGISTRY, parse_config
from multiobserver.observers import CERTIFICATE_MARGIN, run_trials


def test_luenberger_update_formula():
    # one hand-checked step of x_hat+ = f(x_hat) + K (y_J - h_J(x_hat))
    sub = SubsetIndex("J", (1, 3))
    plant = toy_plant()
    K = np.array([[0.5, 0.0], [0.0, 0.25]])
    obs = LuenbergerObserver(sub, plant.f, plant.h, K, n=2)
    x0 = np.array([1.0, 2.0])
    y = np.array([[2.0, 9.0, 4.0], [0.0, 0.0, 0.0]])  # sensor 2 is not read
    track = run_trials([obs], y[None], np.zeros((1, 2, 0)), x0[None])[0, 0]
    assert track.shape == (2, 2)
    assert np.array_equal(track[0], x0)
    y_J = np.array([2.0, 4.0])  # sensors 1 and 3
    h_hat = np.array([1.0, 3.0])  # rows 1 and 3 of C3 @ x0
    want = A2 @ x0 + K @ (y_J - h_hat)
    assert np.allclose(track[1], want)


def test_luenberger_divergence_is_sticky():
    sub = SubsetIndex("S", (1,))
    plant = toy_plant()
    calls = []

    def f(x, u, d, k):
        calls.append(k)
        return plant.f(x, u, d, k)

    obs = LuenbergerObserver(sub, f, plant.h, np.ones((2, 1)), n=2)
    y = np.zeros((4, 3))
    y[0, 0] = np.inf
    track = run_trials([obs], y[None], np.zeros((1, 4, 0)), np.zeros((1, 2)))[0, 0]
    assert np.isinf(track[1]).all()
    assert np.all(np.isnan(track[2:]))  # once diverged, always NaN
    assert calls == [0, 1, 2]  # one call per step, of every observer and run at once


def test_gain_shape_is_checked():
    plant = toy_plant()
    with pytest.raises(ConfigurationError):
        LuenbergerObserver(SubsetIndex("J", (1, 2)), plant.f, plant.h, np.zeros((2, 1)), n=2)


# --- reduced-order family ---------------------------------------------------

A4 = np.array(
    [
        [0.6, 0.1, 0.0, 0.0],
        [0.0, 0.5, 0.1, 0.0],
        [0.0, 0.0, 0.7, 0.1],
        [0.1, 0.0, 0.0, 0.4],
    ]
)
C4 = np.eye(4)[[1, 2, 3]]  # three sensors reading x2, x3, x4


def _reduced_structure(g=None):
    g = g or (lambda x, u: np.zeros(4))
    return ReducedStructure(A=A4, C=C4, g=g, read=0, write=0, sector=(0.0, 0.0))


def test_reduced_coordinate_identity():
    st = _reduced_structure()
    sub = SubsetIndex("J", (1, 2))  # sensors reading x2 and x3
    L = np.eye(4)[[0, 3]]  # complete with the unmeasured coordinates
    obs = ReducedOrderObserver(sub, st, L)
    ident = obs.N @ obs.L + obs.M @ obs.C_J
    assert np.allclose(ident, np.eye(4), atol=1e-8)
    assert obs.nz == 2


def test_reduced_coordinate_identity_randomized():
    # N L + M C_J = I for random plants, subsets, and completions
    rng = np.random.default_rng(11)
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n))
        card = int(rng.integers(1, p + 1))
        A = rng.normal(size=(n, n))
        C = rng.normal(size=(p, n))
        members = tuple(sorted(rng.choice(np.arange(1, p + 1), size=card, replace=False)))
        sub = SubsetIndex("J", members)
        L = rng.normal(size=(n - card, n))
        st = ReducedStructure(A=A, C=C, g=lambda x, u: np.zeros(n), read=0, write=0,
                              sector=(0.0, 0.0))
        try:
            obs = ReducedOrderObserver(sub, st, L)
        except ConfigurationError:
            continue  # randomly singular [L; C_J]; the constructor must catch it
        ident = obs.N @ obs.L + obs.M @ obs.C_J
        assert np.max(np.abs(ident - np.eye(n))) < 1e-6
        done += 1


def test_reduced_reconstruction_matches_measurements():
    # by construction C_J x_hat(k+1) = y_J(k+1) exactly
    st = _reduced_structure()
    sub = SubsetIndex("J", (1, 3))
    L = np.eye(4)[[0, 2]]
    obs = ReducedOrderObserver(sub, st, L, K=np.full((2, 2), 0.1))
    rng = np.random.default_rng(0)
    y = rng.normal(size=(6, 3))
    track = run_trials([obs], y[None], np.zeros((1, 6, 0)), rng.normal(size=4)[None])[0, 0]
    for k in range(1, 6):
        assert np.allclose(obs.C_J @ track[k], y[k, [0, 2]], atol=1e-10)


def test_reduced_observer_converges_on_linear_plant():
    st = _reduced_structure()

    def f(x, u, d, k):
        return times(A4, x)

    def h(x, u):
        return times(C4, x)

    plant = PlantModel(name="r", n=4, p=3, f=f, h=h)
    sub = SubsetIndex("J", (1, 2))
    obs = ReducedOrderObserver(sub, st, np.eye(4)[[0, 3]])
    scen = toy_scenario(
        p=3, horizon=60, attacked=(),
        x0=InitSpec(kind="fixed", value=(1.0, -1.0, 2.0, 0.5)),
    )
    traj = simulate(plant, scen)
    est = run_trials([obs], traj.y[None], traj.u[None], np.zeros((1, 4)))[0, 0]
    assert np.linalg.norm(est[60] - traj.x[60]) < 1e-6


def test_reduced_rejects_singular_completion():
    st = _reduced_structure()
    sub = SubsetIndex("J", (1, 2))
    bad = C4[[0, 1]]  # the same rows as C_J itself
    with pytest.raises(ConfigurationError):
        ReducedOrderObserver(sub, st, bad)


# --- circle-criterion family ------------------------------------------------

A_C = np.array([[1.0, 0.1], [0.0, 1.0]])
G_C = np.array([[0.0], [-0.3]])
H_C = np.array([[0.4, 0.0]])
C_C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.2, 12.0], [1.5, 15.0]])


def _circle_structure():
    return CircleStructure(A=A_C, G=G_C, H=H_C, C=C_C, channels=np.sin, sector=(-1.0, 1.0))


def _circle_bank(structure):
    idx = bank_index(5, 2)
    observers = {}
    for sub in idx.all_subsets:
        rows = np.asarray(sub.members, dtype=int) - 1
        card = len(sub)
        L = -0.2 * np.linalg.pinv(C_C[rows]).reshape(2, card)
        K = np.zeros((1, card))
        observers[sub] = CircleCriterionObserver(sub, structure, K, L)
    return idx, ObserverBank(observers)


def test_circle_update_formula():
    st = _circle_structure()
    sub = SubsetIndex("S", (2,))
    K = np.array([[0.3]])
    L = np.array([[0.0], [-0.5]])
    obs = CircleCriterionObserver(sub, st, K, L)
    x0 = np.array([0.5, -0.2])
    y = np.array([[9.0, 0.3, 9.0, 9.0, 9.0], np.zeros(5)])  # only sensor 2 is read
    track = run_trials([obs], y[None], np.zeros((1, 2, 0)), x0[None])[0, 0]
    assert np.array_equal(track[0], x0)
    y_J = np.array([0.3])
    innov = C_C[[1]] @ x0 - y_J
    want = A_C @ x0 + G_C @ np.sin(H_C @ x0 + K @ innov) + L @ innov
    assert np.allclose(track[1], want)


def _nan_rows(est):
    """Which tracks of a (G, T+1, n) estimate hold a non-finite entry."""
    return (~np.isfinite(est).all(axis=(1, 2))).tolist()


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_circle_vectorized_run_matches_loop():
    st = _circle_structure()
    idx, bank = _circle_bank(st)
    rng = np.random.default_rng(5)
    T = 40
    y = rng.normal(scale=0.5, size=(T + 1, 5))
    u = np.zeros((T + 1, 0))
    x0 = np.array([0.4, -0.3])
    fast = bank.run(y, u, x0_est=x0)

    # reference: every observer stepped alone, in the unfolded form
    slow = np.stack([run_trials([obs], y[None], u[None], x0[None])[0, 0]
                     for obs in bank.observers.values()])
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)
    # NaN rows agree too
    assert _nan_rows(fast) == _nan_rows(slow)


def test_mixed_family_bank_matches_per_observer_stepping():
    # Luenberger and reduced-order observers interleaved in one bank; the
    # reduced ones form an |J| = 2 group (no partial state) and an |J| = 1 group
    def g(x, u):
        out = np.zeros(np.shape(x))
        out[..., 1] = 0.2 * np.tanh(x[..., 0])
        return out

    plant, _, luen = toy_bank()
    st = ReducedStructure(A=A2, C=C3, g=g, read=0, write=1, sector=(0.0, 0.2))
    observers = {}
    for sub, obs in luen.items():
        if sub.label in ("J:1,3", "S:2"):
            observers[sub] = obs
        else:
            nz = 2 - len(sub)
            observers[sub] = ReducedOrderObserver(
                sub, st, np.eye(2)[[1]][:nz], K=np.full((nz, len(sub)), 0.3)
            )
    bank = ObserverBank(observers)

    rng = np.random.default_rng(2)
    T = 40
    y = rng.normal(size=(T + 1, 3))
    y[25, 2] = np.inf  # diverges the observers reading sensor 3
    u = np.zeros((T + 1, 0))
    x0 = np.array([0.3, -0.6])
    est = bank.run(y, u, x0)
    # reference: each observer stepped alone by the brute-force steppers
    want = np.stack([
        luenberger_observer_track(plant.f, plant.h, obs.K, sub.members, y, u, x0)
        if isinstance(obs, LuenbergerObserver)
        else reduced_observer_track(A2, C3, g, obs.L, obs.K, sub.members, y, x0)
        for sub, obs in bank.items()
    ])
    assert np.array_equal(_bits(est), _bits(want))
    hit = [3 in sub.members for sub in bank.subsets]
    assert np.isnan(est[:, -1]).any(axis=1).tolist() == hit
    assert _nan_rows(est) == _nan_rows(want) == hit


def test_reduced_group_kernel_matches_brute_force():
    # random reduced-order banks with mixed |J| and inf hits in the outputs
    # against a reference stepper that shares no code with the kernel
    from multiobserver.config import STATE_NONLINEARITY_REGISTRY

    rng = np.random.default_rng(7)
    diverged = 0
    for trial in range(40):
        n = int(rng.integers(2, 6))
        p = n + int(rng.integers(0, 3))
        A = rng.normal(size=(n, n))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        C = rng.normal(size=(p, n))
        kind = ("tanh_channel", "sin_channel", "poly_channel", "zero")[trial % 4]
        table, build = STATE_NONLINEARITY_REGISTRY[kind]
        params = {"constant": list(rng.normal(size=n)), "index": int(rng.integers(1, n + 1)),
                  "position": int(rng.integers(1, n + 1)), "gain": 0.5,
                  "coeffs": [0.1, -0.2, 0.3]}
        st = ReducedStructure(A=A, C=C, **build(**{key: params[key] for key in table}))
        g = st.g
        observers, gains = {}, {}
        for j in range(int(rng.integers(2, 9))):
            card = int(rng.integers(1, min(n, p) + 1))
            members = tuple(sorted(rng.choice(np.arange(1, p + 1), size=card, replace=False)))
            sub = SubsetIndex("J" if j % 2 else "S", members)
            L = rng.normal(size=(n - card, n))
            K = 0.3 * rng.normal(size=(n - card, card))
            observers[sub] = ReducedOrderObserver(sub, st, L, K)
            gains[sub] = (L, K)
        T = int(rng.integers(5, 30))
        y = rng.normal(size=(T + 1, p))
        for _ in range(int(rng.integers(0, 3))):
            y[rng.integers(0, T + 1), rng.integers(0, p)] = rng.choice([np.inf, -np.inf])
        x0 = rng.normal(size=n)
        est = ObserverBank(observers).run(y, np.zeros((T + 1, 0)), x0)
        for j, sub in enumerate(observers):
            want = reduced_observer_track(A, C, g, *gains[sub], sub.members, y, x0)
            assert np.array_equal(_bits(est[j]), _bits(want)), (trial, sub)
            diverged += bool(np.isnan(want[-1]).any())
    assert diverged >= 10  # the inf hits reach the sticky-NaN rule


def test_luenberger_group_and_circle_track_match_brute_force():
    # random Luenberger banks (through run_group) and circle observers (through
    # track), with inf hits in the outputs, against reference steppers that
    # share no code with the package
    from multiobserver.config import CHANNEL_REGISTRY

    rng = np.random.default_rng(13)
    diverged = {"luenberger": 0, "circle": 0}
    for trial in range(40):
        n = int(rng.integers(2, 6))
        p = n + int(rng.integers(0, 3))
        A = rng.normal(size=(n, n))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        C = rng.normal(size=(p, n))
        b = 0.01 * rng.normal(size=n)
        T = int(rng.integers(5, 30))
        y = rng.normal(size=(T + 1, p))
        for _ in range(int(rng.integers(0, 3))):
            y[rng.integers(0, T + 1), rng.integers(0, p)] = rng.choice([np.inf, -np.inf])
        u = rng.normal(size=(T + 1, 1))
        x0 = rng.normal(size=n)

        def f(x, u, d, k, A=A, b=b):
            return times(A, x) + b * x**3 + 0.1 * u[..., :1] + 0.01 * k

        def h(x, u, C=C):
            return times(C, x) + 0.05 * np.sin(x[..., :1])

        r = int(rng.integers(1, 4))
        G, H = rng.normal(size=(n, r)), rng.normal(size=(r, n))
        channels, sector = list(CHANNEL_REGISTRY.values())[trial % len(CHANNEL_REGISTRY)]
        st = CircleStructure(A=A, G=0.3 * G, H=H, C=C, channels=channels, sector=sector)

        observers = {}
        for j in range(int(rng.integers(2, 7))):
            card = int(rng.integers(1, p + 1))
            members = tuple(sorted(rng.choice(np.arange(1, p + 1), size=card, replace=False)))
            sub = SubsetIndex("J" if j % 2 else "S", members)
            observers[sub] = LuenbergerObserver(sub, f, h, 0.3 * rng.normal(size=(n, card)), n)
            circle = CircleCriterionObserver(
                sub, st, 0.3 * rng.normal(size=(r, card)), 0.3 * rng.normal(size=(n, card)))
            got = run_trials([circle], y[None], u[None], x0[None])[0, 0]
            want = circle_observer_track(A, st.G, H, C, channels, circle.K, circle.L,
                                         members, y, x0)
            assert np.array_equal(_bits(got), _bits(want)), (trial, sub)
            diverged["circle"] += bool(np.isnan(want[-1]).any())
        est = ObserverBank(observers).run(y, u, x0)
        for j, (sub, obs) in enumerate(observers.items()):
            want = luenberger_observer_track(f, h, obs.K, sub.members, y, u, x0)
            assert np.array_equal(_bits(est[j]), _bits(want)), (trial, sub)
            diverged["luenberger"] += bool(np.isnan(want[-1]).any())
    # the inf hits reach the sticky-NaN rule in both families
    assert min(diverged.values()) >= 10, diverged


def test_trial_batched_kernels_match_brute_force():
    # random circle and reduced-order observers of several |J|, mixed in one
    # call, stepped on a batch of runs with their own outputs, initial guesses
    # and inf hits, against reference steppers run on each trial alone
    from multiobserver.config import CHANNEL_REGISTRY, STATE_NONLINEARITY_REGISTRY

    rng = np.random.default_rng(17)
    diverged = {"circle": 0, "reduced": 0}
    for case in range(30):
        n = int(rng.integers(2, 6))
        p = n + int(rng.integers(0, 3))
        A = rng.normal(size=(n, n))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        C = rng.normal(size=(p, n))
        B, T = int(rng.integers(1, 5)), int(rng.integers(5, 30))
        y = rng.normal(size=(B, T + 1, p))
        for _ in range(int(rng.integers(0, 4))):
            y[rng.integers(0, B), rng.integers(0, T + 1), rng.integers(0, p)] = (
                rng.choice([np.inf, -np.inf]))
        u = np.zeros((B, T + 1, 0))
        x0 = rng.normal(size=(B, n))

        r = case % 3 + 1
        channels, sector = list(CHANNEL_REGISTRY.values())[case // 3 % len(CHANNEL_REGISTRY)]
        circle_st = CircleStructure(A=A, G=0.3 * rng.normal(size=(n, r)),
                                    H=rng.normal(size=(r, n)), C=C, channels=channels,
                                    sector=sector)
        kind = ("tanh_channel", "sin_channel", "poly_channel", "zero")[case % 4]
        table, build = STATE_NONLINEARITY_REGISTRY[kind]
        params = {"constant": list(rng.normal(size=n)), "index": int(rng.integers(1, n + 1)),
                  "position": int(rng.integers(1, n + 1)), "gain": 0.5,
                  "coeffs": [0.1, -0.2, 0.3]}
        reduced_st = ReducedStructure(A=A, C=C, **build(**{key: params[key] for key in table}))

        observers = []
        for j in range(int(rng.integers(2, 8))):
            card = int(rng.integers(1, n + 1))
            members = tuple(sorted(rng.choice(np.arange(1, p + 1), size=card, replace=False)))
            sub = SubsetIndex("J" if j % 2 else "S", members)
            observers.append(CircleCriterionObserver(
                sub, circle_st, 0.3 * rng.normal(size=(r, card)), 0.3 * rng.normal(size=(n, card))))
            observers.append(ReducedOrderObserver(
                sub, reduced_st, rng.normal(size=(n - card, n)),
                0.3 * rng.normal(size=(n - card, card))))
        est = run_trials(observers, y, u, x0)
        assert est.shape == (len(observers), B, T + 1, n)
        for j, obs in enumerate(observers):
            members = obs.subset.members
            for b in range(B):
                if isinstance(obs, CircleCriterionObserver):
                    family = "circle"
                    want = circle_observer_track(A, circle_st.G, circle_st.H, C, channels,
                                                 obs.K, obs.L, members, y[b], x0[b])
                else:
                    family = "reduced"
                    want = reduced_observer_track(A, C, reduced_st.g, obs.L, obs.K, members,
                                                  y[b], x0[b])
                assert np.array_equal(_bits(est[j, b]), _bits(want)), (case, j, b)
                diverged[family] += bool(np.isnan(want[-1]).any())
    # the inf hits reach the sticky-NaN rule in both families
    assert min(diverged.values()) >= 10, diverged


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_batched_bank_run_rows_equal_each_run_alone(layout):
    # banks mixing all three families, with inf hits in the outputs, stepped on
    # batches of B runs: each row equals that run stepped alone, bit for bit,
    # NaN rows included, and the Luenberger and reduced rows equal the reference
    # steppers too.
    # Strided outputs come from fancy indexing, which lays the sensor axis out
    # with a long stride; BLAS picks its dot kernel by that stride, so each run
    # alone is given in the layout it has in the batch.
    from multiobserver.config import CHANNEL_REGISTRY, STATE_NONLINEARITY_REGISTRY

    rng = np.random.default_rng(31)
    diverged = 0
    for case in range(12):
        n = int(rng.integers(2, 5))
        p = n + int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        C = rng.normal(size=(p, n))

        def f(x, u, d, k, A=A):
            return times(A, x) + 0.01 * x**3

        def h(x, u, C=C):
            return times(C, x)

        r = case % 2 + 1
        channels, sector = list(CHANNEL_REGISTRY.values())[case % len(CHANNEL_REGISTRY)]
        circle_st = CircleStructure(A=A, G=0.3 * rng.normal(size=(n, r)),
                                    H=rng.normal(size=(r, n)), C=C, channels=channels,
                                    sector=sector)
        kind = list(STATE_NONLINEARITY_REGISTRY)[case % len(STATE_NONLINEARITY_REGISTRY)]
        table, build = STATE_NONLINEARITY_REGISTRY[kind]
        params = {"constant": list(rng.normal(size=n)), "index": int(rng.integers(1, n + 1)),
                  "position": int(rng.integers(1, n + 1)), "gain": 0.5,
                  "coeffs": [0.1, -0.2, 0.3]}
        reduced_st = ReducedStructure(A=A, C=C, **build(**{key: params[key] for key in table}))
        observers = {}
        for j in range(6):
            card = int(rng.integers(1, n + 1))
            members = tuple(sorted(rng.choice(np.arange(1, p + 1), size=card, replace=False)))
            family, sub = j % 3, SubsetIndex(("J", "S")[j % 2], members)
            if sub in observers:
                continue
            if family == 0:
                observers[sub] = LuenbergerObserver(sub, f, h, 0.3 * rng.normal(size=(n, card)), n)
            elif family == 1:
                observers[sub] = ReducedOrderObserver(
                    sub, reduced_st, rng.normal(size=(n - card, n)),
                    0.3 * rng.normal(size=(n - card, card)))
            else:
                observers[sub] = CircleCriterionObserver(
                    sub, circle_st, 0.3 * rng.normal(size=(r, card)),
                    0.3 * rng.normal(size=(n, card)))
        bank = ObserverBank(observers)
        for B in (1, 2, 7):
            T = int(rng.integers(5, 30))
            y = rng.normal(size=(B, T + 1, p))
            for _ in range(int(rng.integers(0, 3))):
                y[rng.integers(0, B), rng.integers(0, T + 1), rng.integers(0, p)] = np.inf
            if layout == "strided":
                y = y[..., np.arange(p)]
                assert not y.flags.c_contiguous
            u = np.zeros((B, T + 1, 0))
            x0 = rng.normal(size=(B, n))
            est = bank.run(y, u, x0)
            assert est.shape == (len(bank), B, T + 1, n)
            diverged += int(np.isnan(est[:, :, -1]).any(axis=-1).sum())
            for b in range(B):
                alone = bank.run(y[b], u[b], x0[b])
                assert np.array_equal(_bits(est[:, b]), _bits(alone)), (case, B, b)
                for j, (sub, obs) in enumerate(bank.items()):
                    if isinstance(obs, LuenbergerObserver):
                        want = luenberger_observer_track(f, h, obs.K, sub.members, y[b], u[b],
                                                         x0[b])
                    elif isinstance(obs, ReducedOrderObserver):
                        want = reduced_observer_track(A, C, reduced_st.g, obs.L, obs.K,
                                                      sub.members, y[b], x0[b])
                    else:
                        continue
                    assert np.array_equal(_bits(est[j, b]), _bits(want)), (case, B, b, j)
    assert diverged >= 10, diverged  # the inf hits reach the sticky-NaN rule


def test_folded_circle_track_is_nan_after_its_first_non_finite_row():
    # one sensor, so no zero gain column meets the inf: tanh saturates and
    # A + L C_J > 0, so the folded update holds the state at +inf after the hit;
    # the bank keeps that first non-finite row and makes every later one NaN, as
    # in every family
    st = CircleStructure(A=np.array([[0.5]]), G=np.array([[0.1]]), H=np.array([[1.0]]),
                         C=np.array([[1.0]]), channels=np.tanh, sector=(0.0, 1.0))
    obs = CircleCriterionObserver(SubsetIndex("J", (1,)), st, np.array([[0.2]]),
                                  np.array([[-0.3]]))
    y = np.full((21, 1), 0.5)
    y[8] = np.inf
    u = np.zeros((21, 0))
    for est in (ObserverBank({obs.subset: obs}).run(y, u, np.zeros(1))[0],
                run_trials([obs], y[None], u[None], np.zeros((1, 1)))[0, 0]):
        assert np.isfinite(est[:9]).all() and est[9].tolist() == [np.inf]
        assert np.isnan(est[10:]).all()


def _first_non_finite(est):
    """{(track, run): first non-finite row} of the diverged tracks of a (G, B, T+1, n) estimate."""
    bad = ~np.isfinite(est).all(axis=-1)
    return {(j, b): int(np.argmax(bad[j, b])) for j, b in zip(*np.nonzero(bad.any(axis=-1)))}


def test_a_non_finite_output_reaches_only_the_circle_tracks_that_read_it():
    # a dropped sensor given as inf or NaN: the folded kernel reads it only in
    # the observers whose J holds it, as the unfolded one does, so both give the
    # same diverged tracks from the same first non-finite row, and only those
    _, bank = _circle_bank(_circle_structure())
    rng = np.random.default_rng(17)
    y = rng.normal(scale=0.5, size=(2, 30, 5))
    y[0, 12, 3], y[1, 20, 0] = np.inf, np.nan
    u, x0 = np.zeros((2, 30, 0)), rng.normal(scale=0.3, size=(2, 2))
    folded = bank.run(y, u, x0)
    unfolded = run_trials(list(bank.observers.values()), y, u, x0)
    want = {(j, b): row for j, sub in enumerate(bank.subsets)
            for b, (sensor, row) in enumerate([(4, 13), (1, 21)]) if sensor in sub.members}
    assert len(want) == 14
    assert _first_non_finite(folded) == _first_non_finite(unfolded) == want
    finite = np.isfinite(unfolded)
    assert np.allclose(folded[finite], unfolded[finite], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("gain", ["K", "L"])
def test_a_huge_circle_gain_folds_without_a_warning(scenario_dir, gain):
    # the constructor folds A + L C_J and H + K C_J under its own errstate: a
    # 1e308 gain entry times C_J's 3.0 overflows to inf without a RuntimeWarning,
    # and build_bank certifies the stored loops, so either overflow gets radius inf
    # (it is listed, and marked practical it is built with that certificate)
    raw = json.loads((scenario_dir / "example3.json").read_text())
    raw["observers"]["bundle"]["J:1,2,3"][gain][0][0] = 1e308
    sub = SubsetIndex("J", (1, 2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = parse_config(raw)
        obs = CircleCriterionObserver(sub, cfg.plant.structure, cfg.specs[sub].K, cfg.specs[sub].L)
        with pytest.raises(ConfigurationError) as err:
            build_bank(cfg)
        raw["observers"]["bundle"]["J:1,2,3"]["practical"] = True
        _, certificates = build_bank(parse_config(raw))
    assert np.isinf({"K": obs.H_KC, "L": obs.A_LC}[gain]).any()
    cert = certificates[sub]
    assert (cert.spectral_radius, cert.passed) == (np.inf, False)
    assert any(msg.startswith("J:1,2,3: sector certificate failed") for msg in err.value.problems)


def test_bank_run_raises_nothing_under_a_raising_errstate(scenario_dir):
    # _by_group ignores overflow and invalid operations around every kernel, so
    # a caller's errstate(all="raise") neither stops a diverging batch nor moves
    # a bit of it, in every family
    for name in ("example1", "example2", "example3", "example4"):
        cfg = load_config(scenario_dir / f"{name}.json")
        bank, _ = build_bank(cfg)
        run = simulate(cfg.plant, cfg.scenario, cfg.ceiling)
        y, u = np.stack([run.y] * 3), np.stack([run.u] * 3)
        y[1, 6:] *= 1e300
        y[2, 9, 0] = np.inf
        x0 = np.stack([cfg.initial_estimate(run.x[0])] * 3)
        x0[0] *= 1e200
        want = bank.run(y, u, x0)
        with np.errstate(all="raise"):
            got = bank.run(y, u, x0)
        assert np.array_equal(_bits(got), _bits(want)), name
        assert not np.isfinite(want).all(), name


def test_rows_do_not_depend_on_the_caller_order():
    # S before J with the three families interleaved: each group is stepped in
    # descending |J| order and every row is put back where the caller had it,
    # bit for bit the row the sorted order gives, through both kernels
    rng = np.random.default_rng(43)
    n, p, B, T = 3, 5, 3, 25
    A = rng.normal(size=(n, n))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    C = rng.normal(size=(p, n))

    def f(x, u, d, k):
        return times(A, x) + 0.01 * x**3

    def h(x, u):
        return times(C, x)

    def g(x, u):
        out = np.zeros(np.shape(x))
        out[..., 1] = 0.2 * np.tanh(x[..., 0])
        return out

    circle_st = CircleStructure(A=A, G=0.3 * rng.normal(size=(n, 1)),
                                H=rng.normal(size=(1, n)), C=C, channels=np.tanh,
                                sector=(0.0, 1.0))
    reduced_st = ReducedStructure(A=A, C=C, g=g, read=0, write=1, sector=(0.0, 0.2))
    families = [
        lambda sub, card: LuenbergerObserver(sub, f, h, 0.3 * rng.normal(size=(n, card)), n),
        lambda sub, card: ReducedOrderObserver(sub, reduced_st, rng.normal(size=(n - card, n)),
                                               0.3 * rng.normal(size=(n - card, card))),
        lambda sub, card: CircleCriterionObserver(sub, circle_st,
                                                  0.3 * rng.normal(size=(1, card)),
                                                  0.3 * rng.normal(size=(n, card))),
    ]
    subsets = ([SubsetIndex("S", m) for m in [(1,), (2,), (3,), (1, 5), (2, 4), (4,)]]
               + [SubsetIndex("J", m) for m in [(1, 2, 3), (2, 3, 4), (1, 3), (3, 4, 5),
                                                (1, 4, 5), (2, 5)]])
    observers = {sub: families[j % 3](sub, len(sub)) for j, sub in enumerate(subsets)}
    ranked = sorted(subsets, key=lambda sub: (subsets.index(sub) % 3, -len(sub)))
    assert ranked != subsets
    y = rng.normal(size=(B, T + 1, p))
    y[1, 12, 2] = np.inf
    u, x0 = np.zeros((B, T + 1, 0)), rng.normal(size=(B, n))
    for step in (lambda obs: ObserverBank(obs).run(y, u, x0),
                 lambda obs: run_trials(list(obs.values()), y, u, x0)):
        got = step(observers)
        want = step({sub: observers[sub] for sub in ranked})
        for j, sub in enumerate(subsets):
            assert np.array_equal(_bits(got[j]), _bits(want[ranked.index(sub)])), sub


def test_bank_run_peak_memory_stays_near_its_result(scenario_dir):
    # the kernels write into the one estimate array the bank allocates, so
    # example4's circle bank holds at most that array, the folded kernel's
    # up-front L y_J (as large) and K y_J (half that) at once
    cfg = load_config(scenario_dir / "example4.json")
    bank, _ = build_bank(cfg)
    runs = [simulate(cfg.plant, replace(cfg.scenario, seed=seed), cfg.ceiling)
            for seed in range(20)]
    y, u = np.stack([run.y for run in runs]), np.stack([run.u for run in runs])
    x0 = np.stack([cfg.initial_estimate(run.x[0]) for run in runs])
    tracemalloc.start()
    try:
        est = bank.run(y, u, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.shape == (len(bank), 20, cfg.scenario.horizon + 1, cfg.plant.n)
    assert peak <= 3.0 * est.nbytes, peak / est.nbytes


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_reduced_bank_predicts_the_plant_once_per_step(scenario_dir, layout):
    # example2's bank has a |J| = 2 and a |S| = 1 class of one structure: one
    # time loop steps both, with one call of the plant map g per step, and every
    # row still equals its observer stepped alone by the reference stepper
    cfg = load_config(scenario_dir / "example2.json")
    st = cfg.plant.structure
    calls = []

    def counted(x, u):
        calls.append(x.shape)
        return st.g(x, u)

    cfg.plant = replace(cfg.plant, structure=replace(st, g=counted))
    bank, _ = build_bank(cfg)
    assert len({len(sub) for sub in bank.subsets}) == 2
    rng = np.random.default_rng(3)
    T, p = 30, cfg.plant.p
    for B in (1, 2, 7):
        y = rng.normal(size=(B, T + 1, p))
        if layout == "strided":
            y = y[..., np.arange(p)]
            assert not y.flags.c_contiguous
        x0 = rng.normal(size=(B, cfg.plant.n))
        calls.clear()
        est = bank.run(y, np.zeros((B, T + 1, 0)), x0)
        assert calls == [(B, len(bank), cfg.plant.n)] * T
        for j, (sub, obs) in enumerate(bank.items()):
            for b in range(B):
                want = reduced_observer_track(st.A, st.C, st.g, obs.L, obs.K, sub.members,
                                              y[b], x0[b])
                assert np.array_equal(_bits(est[j, b]), _bits(want)), (B, sub, b)


# --- certificates -----------------------------------------------------------

def _no_channel(loops):
    """Certificates of a (G, m, m) stack of loops with no channel: B = 0 and H = 0,
    over the one-point sector [0, 0], as build_bank certifies a Luenberger loop."""
    G, m = loops.shape[:2]
    return certify_sector(loops, np.zeros((m, 1)), np.zeros((G, 1, m)), (0.0, 0.0))


def _one(loop):
    """The certificate of one loop with no channel, as a stack of one."""
    (cert,) = _no_channel(np.asarray(loop, dtype=float)[None])
    return cert


def test_certificates_pass_and_fail():
    # stable loop: dead-beat pair from the toy bank
    C_J = C3[[0, 1]]
    K = A2 @ np.linalg.pinv(C_J)
    cert = _one(A2 - K @ C_J)
    assert cert.passed and cert.spectral_radius < 1e-12
    assert cert.margin == 1.0  # a one-point sector's margin is exactly 1

    # a zero gain leaves the marginally stable A_C: radius 1 fails
    cert = _one(A_C)
    assert not cert.passed
    assert cert.spectral_radius == pytest.approx(1.0)

    # the margin: one radius on each side of 1 - CERTIFICATE_MARGIN
    edge = 1.0 - CERTIFICATE_MARGIN
    assert _one(np.array([[edge - 1e-6]])).passed
    assert not _one(np.array([[edge + 1e-6]])).passed

    # a loop with a non-finite entry has radius inf and fails
    for bad in (np.inf, np.nan):
        cert = _one(np.array([[0.5, bad], [0.0, 0.5]]))
        assert cert.spectral_radius == np.inf and not cert.passed


def test_stacked_certificates_equal_each_loop_alone(scenario_dir):
    # one stacked certificate gives each loop the radius it gets alone, bit for
    # bit: the bundled banks' loops at their sector's lower slope (build_bank
    # stacks each loop shape), and random loops with no channel of several
    # sizes with inf and NaN entries
    def alone(loop):
        finite = np.isfinite(loop).all()
        return float(np.max(np.abs(np.linalg.eigvals(loop)))) if finite else np.inf

    def same(cert, loop):
        rho = alone(loop)
        bits = (np.float64(r).view(np.uint64) for r in (cert.spectral_radius, rho))
        sector = cert.margin >= CERTIFICATE_MARGIN
        return len(set(bits)) == 1 and cert.passed == (rho < 1.0 - CERTIFICATE_MARGIN and sector)

    for name in ("example1", "example2", "example3", "example4"):
        cfg = load_config(scenario_dir / f"{name}.json")
        bank, certificates = build_bank(cfg)
        st = cfg.plant.structure
        for sub, obs in bank.items():
            loop = {  # the lower edge of the loop build_bank writes for each family
                "luenberger": lambda: cfg.lin_A - obs.K @ cfg.lin_C[obs._idx],
                "reduced": lambda: obs.A_L - obs.K @ (obs.C_J @ st.A @ obs.N) + st.sector[0] * (
                    (obs.L - obs.K @ obs.C_J)[:, [st.write]] @ obs.N[[st.read]]),
                "circle": lambda: obs.A_LC + st.sector[0] * (st.G @ obs.H_KC),
            }[cfg.family]()
            assert same(certificates[sub], loop), (name, sub)
    rng = np.random.default_rng(41)
    for m in (1, 2, 3, 5):
        loops = rng.normal(size=(12, m, m)) * rng.choice([0.1, 1.0, 1e3], size=(12, 1, 1))
        for j in range(0, 12, 3):
            loops[j][rng.random((m, m)) < 0.3] = rng.choice([np.inf, -np.inf, np.nan])
        stacked = _no_channel(loops)
        assert isinstance(stacked, list) and len(stacked) == len(loops)
        assert all(same(cert, loop) and cert == _one(loop)
                   for cert, loop in zip(stacked, loops)), m
    assert _no_channel(np.empty((0, 3, 3))) == []


def test_an_empty_loop_has_no_modes_and_passes():
    # the loop of a reduced-order observer with |J| = n is (0, 0), alone or
    # stacked, with no channel or over a channel's sector: P_b = P_a = 1
    st = ReducedStructure(A=A2, C=C3, g=lambda x, u: np.zeros(2), read=0, write=0,
                          sector=(0.0, 0.0))
    obs = ReducedOrderObserver(SubsetIndex("J", (1, 2)), st, np.zeros((0, 2)))
    loop = obs.A_L - obs.K @ (obs.C_J @ A2 @ obs.N)
    assert loop.shape == (0, 0)
    for closed in (loop, np.zeros((0, 0))):
        cert = _one(closed)
        assert (cert.spectral_radius, cert.passed, cert.margin) == (0.0, True, 1.0)
    stacked = _no_channel(np.zeros((2, 0, 0)))
    assert [(cert.spectral_radius, cert.passed) for cert in stacked] == [(0.0, True)] * 2
    sector = certify_sector(np.zeros((2, 0, 0)), np.zeros((2, 0, 1)), np.zeros((2, 1, 0)),
                            (-1.0, 1.0))
    assert [(c.spectral_radius, c.passed, c.margin) for c in sector] == [(0.0, True, 1.0)] * 2


def _family_loop(cfg, spec, idx):
    """The closed error loop of one bundle entry, from the config's own matrices,
    at its sector's lower slope."""
    if cfg.family == "luenberger":
        return cfg.lin_A - spec.K @ cfg.lin_C[idx]
    st = cfg.plant.structure
    if cfg.family == "circle":
        return st.A + spec.L @ st.C[idx] + st.sector[0] * st.G @ (st.H + spec.K @ st.C[idx])
    T_inv = np.linalg.inv(np.vstack([spec.L, st.C[idx]]))
    N = T_inv[:, : len(spec.L)]
    K = np.zeros((len(spec.L), len(idx))) if spec.K is None else spec.K
    LK = spec.L - K @ st.C[idx]
    return LK @ st.A @ N + st.sector[0] * LK[:, [st.write]] @ N[[st.read]]


def test_circle_certificate_uses_plus_sign(scenario_dir):
    # every family's certificate is the radius of the loop it steps at its
    # sector's lower slope a: A - K C_J, (L - K C_J)(A N + a e_write e_read^T N)
    # in partial coordinates, and A + L C_J + a G (H + K C_J) with the circle
    # family's plus signs
    for name in ("example1", "example2", "example3", "example4"):
        cfg = load_config(scenario_dir / f"{name}.json")
        _, certificates = build_bank(cfg)
        for sub, cert in certificates.items():
            loop = _family_loop(cfg, cfg.specs[sub], np.asarray(sub.members) - 1)
            rho = np.max(np.abs(np.linalg.eigvals(loop)))
            sector = cert.margin >= CERTIFICATE_MARGIN
            assert cert.spectral_radius == pytest.approx(rho, rel=1e-9, abs=1e-12), (name, sub)
            assert cert.passed == (rho < 1.0 - CERTIFICATE_MARGIN and sector), (name, sub)


def test_bundled_reduced_bank_is_certified_over_its_channel_sector(scenario_dir):
    # example2's tanh_channel of gain -1.25 has slopes in [-1.25, 0]; the channel
    # enters the error of J:1,2, S:1 and S:2, whose margin is 2/7, and leaves
    # the others' with margin 1
    cfg = load_config(scenario_dir / "example2.json")
    assert cfg.plant.structure.sector == (-1.25, 0.0)
    _, certificates = build_bank(cfg)
    margins = {sub.label: cert.margin for sub, cert in certificates.items()}
    assert all(cert.passed for cert in certificates.values())
    assert margins == pytest.approx({"J:1,2": 2 / 7, "J:1,3": 1.0, "J:2,3": 1.0,
                                     "S:1": 2 / 7, "S:2": 2 / 7, "S:3": 1.0}, rel=1e-12)
    radii = [cert.spectral_radius for cert in certificates.values()]
    assert 0.5 <= min(radii) and max(radii) < 0.96


# e+ = 0.5 e - 0.6 psi(e): certified over a nondecreasing channel's slopes,
# unstable at slope -1
_ONE_STATE_LOOP = np.array([[[0.5]]]), np.array([[-1.0]]), np.array([[[0.6]]])


def test_slope_condition_monotone_channel():
    # over tanh's slopes [0, 1] the margin is the least Re[1 + 0.6 / (z - 0.5)],
    # 0.6 at z = -1
    (cert,) = certify_sector(*_ONE_STATE_LOOP, CHANNEL_REGISTRY["tanh"][1])
    assert cert.passed and cert.spectral_radius == 0.5
    assert cert.margin == pytest.approx(0.6, rel=1e-12)


def test_slope_condition_catches_decreasing_channel():
    # sin's slopes reach -1, where the loop steps e+ = 1.1 e
    (cert,) = certify_sector(*_ONE_STATE_LOOP, CHANNEL_REGISTRY["sin"][1])
    assert not cert.passed and cert.spectral_radius == pytest.approx(1.1, rel=1e-12)


def test_a_loop_no_channel_enters_is_certified_on_its_linear_part():
    # with B H = 0 the loop is A_cl whatever the channel does: radius 0.5 and
    # margin 1 over any sector, an unbounded one too (where -inf * 0 is NaN),
    # beside a loop of the same stack that the channel enters
    A_cl, B, H = np.full((2, 1, 1), 0.5), np.array([[-1.0]]), np.array([[[0.0]], [[0.6]]])
    for sector, passed in (((-np.inf, np.inf), False), ((0.0, np.inf), False),
                           ((-1.0, 1.0), False), ((2.0, 2.0), True)):
        idle, entered = certify_sector(A_cl, B, H, sector)
        assert (idle.spectral_radius, idle.passed, idle.margin) == (0.5, True, 1.0), sector
        assert entered.passed == passed, sector


def test_slope_condition_is_deterministic(scenario_dir):
    # the sector certificate draws nothing: a bank built again gives every loop
    # the same radius and margin, bit for bit
    cfg = load_config(scenario_dir / "example4.json")
    first, second = (build_bank(cfg)[1] for _ in range(2))
    assert first == second


def _random_sector_loops(rng, count, ns, names=tuple(CHANNEL_REGISTRY), gain=0.5):
    """(A_LC, G, H_KC, channel, sector) of ``count`` random one-channel loops, their
    state counts ``ns`` and channels ``names`` taken in turn, G of scale ``gain``,
    each scaled so that its lower edge A_LC + a G H_KC has spectral radius 0.2-0.9."""
    for case in range(count):
        n = ns[case % len(ns)]
        channel, sector = CHANNEL_REGISTRY[names[case % len(names)]]
        A, G, H = rng.normal(size=(n, n)), gain * rng.normal(size=(n, 1)), rng.normal(size=(1, n))
        scale = rng.uniform(0.2, 0.9) / max(abs(np.linalg.eigvals(A + sector[0] * G @ H)))
        yield scale * A, G, scale * H, channel, sector


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sector_margin_agrees_with_a_dense_frequency_grid(n):
    # the exact margin, from the two edge loops' eigenvalues, against a linear
    # solve at 16385 frequencies: never above the grid's least value, and
    # within 1e-6 of it, which the grid misses by its spacing squared
    rng = np.random.default_rng(7 + n)
    passed = 0
    for A_LC, G, H_KC, _, sector in _random_sector_loops(rng, 30, [n], gain=2.0):
        (cert,) = certify_sector(A_LC[None], G, H_KC[None], sector)
        grid = sector_margin_on_grid(A_LC, G, H_KC, sector)
        assert grid - 1e-6 * max(1.0, abs(grid)) <= cert.margin <= grid + 1e-12, (sector, grid)
        assert cert.passed == (cert.margin >= CERTIFICATE_MARGIN)
        passed += cert.passed
    assert 0 < passed < 30  # both outcomes occur


@pytest.mark.parametrize("name", list(CHANNEL_REGISTRY))
def test_certified_loops_shrink_under_every_slope_sequence_in_their_sector(name):
    # the circle criterion's guarantee: a certified loop's error converges for
    # every time-varying slope in its sector; 16 errors per loop are stepped
    # 300 steps, on odd steps through a random slope in [a, b] and on even ones
    # through the channel's own increment at a random point of [-50, 50]
    rng = np.random.default_rng(11)
    worst, certified = 0.0, 0
    for A_LC, G, H_KC, channel, (a, b) in _random_sector_loops(rng, 40, [1, 2, 3, 4], [name]):
        (cert,) = certify_sector(A_LC[None], G, H_KC[None], (a, b))
        if not cert.passed:
            continue
        certified += 1
        e = rng.normal(size=(16, len(A_LC), 1))
        start = np.linalg.norm(e, axis=1)
        for k in range(300):
            v = H_KC @ e
            at = rng.uniform(-50.0, 50.0, size=v.shape)
            psi = rng.uniform(a, b, size=v.shape) * v if k % 2 else channel(at + v) - channel(at)
            e = A_LC @ e + G @ psi
        worst = max(worst, float(np.max(np.linalg.norm(e, axis=1) / start)))
    assert certified >= 20
    assert worst < 0.01


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300])
def test_a_non_finite_loop_fails_its_sector_certificate(bad):
    # a non-finite entry, or one whose products overflow, fails its own loop's
    # certificate with no warning, and leaves the certificate stacked with it as
    # it gets alone, radius and margin bit for bit
    rng = np.random.default_rng(5)
    for A_LC, G, H_KC, _, sector in _random_sector_loops(rng, 4, [1, 2, 3, 4], ["sin"]):
        for which in range(2):
            A_bad, H_bad = A_LC.copy(), H_KC.copy()
            (A_bad, H_bad)[which][0, -1] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                certs = certify_sector(np.stack((A_LC, A_bad)), G, np.stack((H_KC, H_bad)),
                                       sector)
            (alone,) = certify_sector(A_LC[None], G, H_KC[None], sector)
            assert not certs[1].passed
            assert certs[0] == alone


def test_a_loops_margin_does_not_depend_on_its_stack():
    # 200 random loops, certified in stacks of 25 (one channel and state count
    # each, every loop with its own G) and each alone: radius and margin bit for bit
    rng = np.random.default_rng(19)
    for name in ("sin", "tanh"):
        for n in (1, 2, 3, 4):
            A_LC, G, H_KC, _, sector = zip(*_random_sector_loops(rng, 25, [n], [name]))
            stacked = certify_sector(np.stack(A_LC), np.stack(G), np.stack(H_KC), sector[0])
            for j, cert in enumerate(stacked):
                (alone,) = certify_sector(A_LC[j][None], G[j], H_KC[j][None], sector[0])
                got = np.float64([cert.spectral_radius, cert.margin]).view(np.uint64)
                want = np.float64([alone.spectral_radius, alone.margin]).view(np.uint64)
                assert np.array_equal(got, want) and cert.passed == alone.passed, (name, n, j)


def test_a_plant_with_several_channels_has_no_sector_certificate():
    rng = np.random.default_rng(3)
    A_LC, G, H_KC = 0.1 * np.eye(3), 0.01 * rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
    (cert,) = certify_sector(A_LC[None], G, H_KC[None], (0.0, 1.0))
    assert cert.spectral_radius < 0.2 and math.isnan(cert.margin) and not cert.passed


def test_bundled_circle_banks_are_certified_over_the_sin_sector(scenario_dir):
    # sin's sector is [-1, 1]; example4's least margin is S:2,3's, example3's J
    # loops share one, and its S loops have none: at slope 1 their loop is unstable
    margins = {}
    for name in ("example3", "example4"):
        cfg = load_config(scenario_dir / f"{name}.json")
        st = cfg.plant.structure
        assert st.sector == (-1.0, 1.0)
        bank, certificates = build_bank(cfg)
        for sub, cert in certificates.items():
            margins[name, sub.label] = cert.margin
            assert cert.passed != cfg.specs[sub].practical, (name, sub)
            if not cert.passed:
                obs = bank.observers[sub]
                upper = obs.A_LC + st.G @ obs.H_KC
                assert np.max(np.abs(np.linalg.eigvals(upper))) > 1.0
    ex4 = {label: m for (name, label), m in margins.items() if name == "example4"}
    assert min(ex4, key=ex4.get) == "S:2,3" and ex4["S:2,3"] == pytest.approx(0.128, abs=5e-4)
    ex3 = [m for (name, label), m in margins.items() if name == "example3"]
    assert ex3[:10] == pytest.approx([0.377] * 10, abs=5e-4)
    assert all(-0.62 < m < -0.53 for m in ex3[10:])


def test_folded_circle_kernel_matches_brute_force_at_every_n():
    # the golden digests pin only n = 2 circle plants: random circle banks of
    # n = 1-5 states and r = 1-3 channels on B = 1-4 runs, each batch with one
    # non-finite output, against the folded update stepped for one observer on
    # one run; every bank has at least two observers, as the brute force assumes
    rng = np.random.default_rng(43)
    hit = {"read": 0, "off J": 0}
    for case in range(75):
        n, r, B = case % 5 + 1, case // 5 % 3 + 1, case // 15 % 4 + 1
        p, T = n + int(rng.integers(1, 4)), int(rng.integers(5, 25))
        A = rng.normal(size=(n, n))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        channels, sector = list(CHANNEL_REGISTRY.values())[case % len(CHANNEL_REGISTRY)]
        st = CircleStructure(A=A, G=0.3 * rng.normal(size=(n, r)), H=rng.normal(size=(r, n)),
                             C=rng.normal(size=(p, n)), channels=channels, sector=sector)
        observers = {sub: CircleCriterionObserver(sub, st, 0.3 * rng.normal(size=(r, len(sub))),
                                                  0.3 * rng.normal(size=(n, len(sub))))
                     for sub in bank_index(p, int(rng.integers(0, (p + 1) // 2))).all_subsets}
        y = rng.normal(size=(B, T + 1, p))
        b, k, s = int(rng.integers(0, B)), int(rng.integers(0, T)), int(rng.integers(0, p))
        y[b, k, s] = rng.choice([np.inf, -np.inf, np.nan])
        x0 = rng.normal(size=(B, n))
        est = ObserverBank(observers).run(y, np.zeros((B, T + 1, 0)), x0)
        for j, (sub, obs) in enumerate(observers.items()):
            hit["read" if s + 1 in sub.members else "off J"] += 1
            for run in range(B):
                want = circle_folded_track(A, st.G, st.H, st.C, channels, obs.K, obs.L,
                                           sub.members, y[run], x0[run])
                assert np.array_equal(_bits(est[j, run]), _bits(want)), (case, sub, run)
    assert min(hit.values()) >= 50, hit
