"""Small hand-checkable systems shared across the test modules."""

import numpy as np

from multiobserver import (
    AttackScenario,
    EstimatorRun,
    InitSpec,
    LuenbergerObserver,
    ObserverBank,
    PlantModel,
    SignalSpec,
    bank_index,
)

# A two-state stable linear plant with three sensors.  With q = 1 the
# bank has three pair observers (J class) and three singleton observers
# (S class).  The off-diagonal coupling keeps every single sensor fully
# observable, so each observer can be made dead-beat.
A2 = np.array([[0.9, 0.1], [-0.1, 0.8]])
C3 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def times(M, x):
    """M x for every vector along the last axis of ``x``: a plant map's batched product."""
    return (M @ x[..., None])[..., 0]


def toy_plant(A=A2, C=C3, name="toy"):
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)

    def f(x, u, d, k):
        return times(A, x)

    def h(x, u):
        return times(C, x)

    return PlantModel(name=name, n=A.shape[0], p=C.shape[0], f=f, h=h)


def toy_bank(A=A2, C=C3, q=1):
    """Deadbeat Luenberger bank over every subset.

    Subsets with >= n sensors get K = A pinv(C_J) (error dies in one
    step); smaller subsets get a dead-beat gain placed through the
    observability matrix.  Clean observers therefore agree with the
    plant exactly after n steps of a noise-free run, which keeps the
    hand oracles in the tests crisp.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    n = A.shape[0]
    plant = toy_plant(A, C)
    idx = bank_index(C.shape[0], q)
    observers = {}
    for subset in idx.all_subsets:
        rows = np.asarray(subset.members, dtype=int) - 1
        C_J = C[rows]
        if len(rows) >= n:
            K = A @ np.linalg.pinv(C_J)
        else:
            # single sensor, n = 2: place both error poles at zero
            c = C_J[0]
            obs_mat = np.vstack([c, c @ A])
            K = (A @ A @ np.linalg.inv(obs_mat) @ np.array([0.0, 1.0])).reshape(n, 1)
        observers[subset] = LuenbergerObserver(
            subset, plant.f, plant.h, K, n=n, n_d=plant.n_d
        )
    return plant, idx, ObserverBank(observers)


def toy_scenario(
    p=3,
    q=1,
    attacked=(2,),
    horizon=30,
    seed=0,
    attack=SignalSpec(kind="uniform", low=-5.0, high=5.0),
    noise_bound=0.0,
    x0=InitSpec(kind="fixed", value=(1.0, -2.0)),
):
    noise = (
        SignalSpec(kind="zero")
        if noise_bound == 0.0
        else SignalSpec(kind="uniform", low=-noise_bound, high=noise_bound)
    )
    return AttackScenario(
        q=q,
        attacked=frozenset(attacked),
        attack_gens={s: attack for s in attacked},
        noise_gens=(noise,) * p,
        horizon=horizon,
        seed=seed,
        x0=x0,
    )


def run_from_pi(idx, pi):
    """An estimator run carrying the given (T+1, n_J) deviation scores.

    Isolation reads only the scores and the bank, so the estimate
    tracks are zeros and the selection is the plain argmin.
    """
    pi = np.asarray(pi, dtype=float)
    steps = pi.shape[0]
    return EstimatorRun(
        bank=idx,
        est=np.zeros((len(idx.all_subsets), steps, 1)),
        pi=pi,
        sigma_idx=np.argmin(pi, axis=1),
        x_hat=np.zeros((steps, 1)),
    )
