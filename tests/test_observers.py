import numpy as np
import pytest
from _brute import (
    circle_observer_track,
    luenberger_observer_track,
    pair_slope_minimum,
    reduced_observer_track,
)
from _toys import A2, C3, toy_bank, toy_plant, toy_scenario

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
    certify_linear_gain,
    check_slope_condition,
    simulate,
)
from multiobserver.config import CHANNEL_REGISTRY
from multiobserver.observers import _SLOPE_GRID, _SLOPE_TOL, run_trials


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
    assert calls == [0]  # the plant map never sees a non-finite estimate


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
    return ReducedStructure(A=A4, C=C4, g=g)


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
        st = ReducedStructure(A=A, C=C, g=lambda x, u: np.zeros(n))
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
        return A4 @ x

    def h(x, u):
        return C4 @ x

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
    return CircleStructure(A=A_C, G=G_C, H=H_C, C=C_C, channels=np.sin)


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


def _bits_but_nan(a):
    """``_bits`` with every NaN as one pattern: the folded circle kernel leaves
    the sign and payload of a NaN after a track's divergence undefined."""
    return _bits(np.where(np.isnan(a), np.nan, a))


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
    st = ReducedStructure(A=A2, C=C3, g=g)
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
        g = build(**{key: params[key] for key in table})
        st = ReducedStructure(A=A, C=C, g=g)
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
            return A @ x + b * x**3 + 0.1 * u[0] + 0.01 * k

        def h(x, u, C=C):
            return C @ x + 0.05 * np.sin(x[0])

        r = int(rng.integers(1, 4))
        G, H = rng.normal(size=(n, r)), rng.normal(size=(r, n))
        channels = list(CHANNEL_REGISTRY.values())[trial % len(CHANNEL_REGISTRY)]
        st = CircleStructure(A=A, G=0.3 * G, H=H, C=C, channels=channels)

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
        channels = list(CHANNEL_REGISTRY.values())[case // 3 % len(CHANNEL_REGISTRY)]
        circle_st = CircleStructure(A=A, G=0.3 * rng.normal(size=(n, r)),
                                    H=rng.normal(size=(r, n)), C=C, channels=channels)
        kind = ("tanh_channel", "sin_channel", "poly_channel", "zero")[case % 4]
        table, build = STATE_NONLINEARITY_REGISTRY[kind]
        params = {"constant": list(rng.normal(size=n)), "index": int(rng.integers(1, n + 1)),
                  "position": int(rng.integers(1, n + 1)), "gain": 0.5,
                  "coeffs": [0.1, -0.2, 0.3]}
        reduced_st = ReducedStructure(A=A, C=C, g=build(**{key: params[key] for key in table}))

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
    # and the Luenberger and reduced rows equal the reference steppers too.
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
            return A @ x + 0.01 * x**3

        def h(x, u, C=C):
            return C @ x

        r = case % 2 + 1
        channels = list(CHANNEL_REGISTRY.values())[case % len(CHANNEL_REGISTRY)]
        circle_st = CircleStructure(A=A, G=0.3 * rng.normal(size=(n, r)),
                                    H=rng.normal(size=(r, n)), C=C, channels=channels)
        kind = list(STATE_NONLINEARITY_REGISTRY)[case % len(STATE_NONLINEARITY_REGISTRY)]
        table, build = STATE_NONLINEARITY_REGISTRY[kind]
        params = {"constant": list(rng.normal(size=n)), "index": int(rng.integers(1, n + 1)),
                  "position": int(rng.integers(1, n + 1)), "gain": 0.5,
                  "coeffs": [0.1, -0.2, 0.3]}
        reduced_st = ReducedStructure(A=A, C=C, g=build(**{key: params[key] for key in table}))
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
                assert np.array_equal(_bits_but_nan(est[:, b]), _bits_but_nan(alone)), (case, B, b)
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
    assert diverged >= 10, diverged  # the inf hits reach the divergence rules


# --- certificates -----------------------------------------------------------

def test_certificates_pass_and_fail():
    # stable loop: dead-beat pair from the toy bank
    C_J = C3[[0, 1]]
    K = A2 @ np.linalg.pinv(C_J)
    cert = certify_linear_gain(A2, C_J, K, "luenberger")
    assert cert.passed and cert.spectral_radius < 1e-12

    # zero gain leaves the marginally stable A_C: radius 1 fails
    cert = certify_linear_gain(A_C, C_C[[0]], np.zeros((2, 1)), "circle")
    assert not cert.passed
    assert cert.spectral_radius == pytest.approx(1.0)

    # margin is respected: a radius just under 1 fails a wide margin
    shrink = np.array([[0.999]])
    cert = certify_linear_gain(shrink, np.zeros((1, 1)), np.zeros((1, 1)), "luenberger", margin=0.01)
    assert not cert.passed
    cert = certify_linear_gain(shrink, np.zeros((1, 1)), np.zeros((1, 1)), "luenberger", margin=1e-4)
    assert cert.passed

    with pytest.raises(ConfigurationError):
        certify_linear_gain(A2, C3[[0]], np.zeros((2, 1)), "kalman")


def test_circle_certificate_uses_plus_sign():
    A = np.array([[0.5]])
    C_J = np.array([[1.0]])
    L = np.array([[0.4]])
    assert certify_linear_gain(A, C_J, L, "circle").spectral_radius == pytest.approx(0.9)
    assert certify_linear_gain(A, C_J, L, "luenberger").spectral_radius == pytest.approx(0.1)


def test_slope_condition_monotone_channel():
    res = check_slope_condition(np.sin, (-1.5, 1.5))
    assert res.passed
    assert res.witness is None
    assert res.worst_quotient >= 0.0


def test_slope_condition_catches_decreasing_channel():
    res = check_slope_condition(np.sin, (-np.pi, np.pi))  # sin decreases past pi/2
    assert not res.passed
    assert res.witness is not None
    v, w = res.witness
    assert (np.sin(v) - np.sin(w)) * (v - w) < 0


def test_slope_condition_rejects_a_channel_that_returns_nan():
    res = check_slope_condition(lambda v: np.where(v > 0.5, np.nan, v), (0.0, 1.0))
    assert not res.passed
    assert res.witness is not None


def test_slope_condition_is_deterministic():
    # the grid check draws nothing, so repeated calls agree
    a = check_slope_condition(np.tanh, (-2.0, 2.0))
    b = check_slope_condition(np.tanh, (-2.0, 2.0))
    assert a == b


@pytest.mark.parametrize("name, box", [
    ("sin", (-1.5, 1.5)),
    ("tanh", (-2.0, 2.0)),
    ("identity", (-3.7, 11.3)),
    ("sin", (-np.pi, np.pi)),  # fails
    ("sin", (1.0, 1.0000000000000004)),  # a box narrower than the grid repeats points
])
def test_slope_grid_rejects_whatever_the_pair_check_rejects(name, box):
    channel = CHANNEL_REGISTRY[name]
    pair_min = pair_slope_minimum(channel, np.linspace(*box, _SLOPE_GRID))
    res = check_slope_condition(channel, box)
    assert res.worst_quotient <= pair_min
    # the grid rejects whatever the pair check rejects, and nothing else
    assert res.passed == (pair_min >= _SLOPE_TOL)
