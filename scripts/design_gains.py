"""Design, tune, and freeze the observer gains of the bundled scenarios.

This is a development tool, not part of the installed package.  It
derives every gain matrix in ``src/multiobserver/scenarios/*.json``:

* ``probe-ex1`` .. ``probe-ex4``: sweep candidate pole placements and
  report how the acceptance-style metrics respond, so the shipped
  numbers are reproducible instead of hand-tuned magic.
* ``freeze``: write the chosen designs into the bundled JSON configs
  (running the package's own calibration for the examples that ship
  convergence models).

All placements are computed with plain numpy: subsets with as many
sensors as states use the exact solve L = (T - A) C^-1, single-sensor
subsets use Ackermann's formula on the dual system.
"""

from __future__ import annotations

import argparse
import itertools
import json
import time
from pathlib import Path

import numpy as np

from multiobserver import (
    AttackScenario,
    CalibrationSettings,
    CircleCriterionObserver,
    CircleStructure,
    InitSpec,
    LuenbergerObserver,
    ObserverBank,
    PlantModel,
    ReducedOrderObserver,
    ReducedStructure,
    SignalSpec,
    SubsetIndex,
    bank_index,
    calibrate_bank,
    calibrate_estimator,
    compute_thresholds,
    run_estimator,
    simulate,
    windowed_isolation,
)
from multiobserver.config import _example1_plant

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "multiobserver" / "scenarios"


def acker_observer_gain(A: np.ndarray, c: np.ndarray, poles) -> np.ndarray:
    """Single-output observer gain K (n x 1) placing eig(A - K c)."""
    n = A.shape[0]
    c = np.asarray(c, dtype=float).reshape(1, n)
    At, Bt = A.T, c.T
    ctrb = np.hstack([np.linalg.matrix_power(At, i) @ Bt for i in range(n)])
    coeffs = np.poly(np.asarray(poles, dtype=float))
    phi = np.zeros_like(A)
    for i, a in enumerate(coeffs):
        phi += a * np.linalg.matrix_power(At, len(coeffs) - 1 - i)
    last = np.zeros((1, n))
    last[0, -1] = 1.0
    Kt = last @ np.linalg.solve(ctrb, phi)
    return Kt.T


def place_exact(A: np.ndarray, C_sub: np.ndarray, target: np.ndarray) -> np.ndarray:
    """L with A + L C = target, for C_sub with full column rank n."""
    return (target - A) @ np.linalg.pinv(C_sub)


# ---------------------------------------------------------------- example 4

A_CIRCLE = np.array([[1.0, 0.1], [0.0, 1.0]])
G_CIRCLE = np.array([[0.05], [0.1]])
H_CIRCLE = np.array([[1.0, 1.0]])
C_EX3 = np.array([[3.0, 0.3], [3.0, 0.6], [6.0, 0.9], [1.2, 12.0], [1.5, 15.0]])
C_EX4 = C_EX3[:4]


def circle_plant(C: np.ndarray, name: str) -> PlantModel:
    struct = CircleStructure(A=A_CIRCLE, G=G_CIRCLE, H=H_CIRCLE, C=C,
                             channels=np.sin)

    def f(x, u, d, k):
        return A_CIRCLE @ x + G_CIRCLE @ np.sin(H_CIRCLE @ x)

    def h(x, u):
        return C @ x

    return PlantModel(name=name, n=2, p=C.shape[0], f=f, h=h, structure=struct)


def circle_bank(C: np.ndarray, p: int, q: int, targets: dict[str, np.ndarray]):
    """Bank of circle-criterion observers; targets keyed by class role."""
    idx = bank_index(p, q)
    struct = CircleStructure(A=A_CIRCLE, G=G_CIRCLE, H=H_CIRCLE, C=C,
                             channels=np.sin)
    gains = {}
    observers = {}
    for subset in idx.all_subsets:
        members = np.asarray(subset.members, dtype=int) - 1
        C_sub = C[members]
        target = targets[subset.role]
        if len(subset) >= 2:
            L = place_exact(A_CIRCLE, C_sub, target)
        else:
            poles = np.linalg.eigvals(target)
            L = -acker_observer_gain(A_CIRCLE, C_sub[0], poles.real)
        K = np.zeros((1, len(subset)))
        observers[subset] = CircleCriterionObserver(subset, struct, K, L)
        gains[subset] = (K, L)
    return idx, ObserverBank(observers), gains


def anchored_gain(C: np.ndarray, subset: SubsetIndex, design) -> np.ndarray:
    """L for one subset from a compact design spec.

    ``("single", s, (p1, p2))``: respond to member sensor s only,
    Ackermann poles (p1, p2) — zero columns for the other members.
    ``("pair", (s1, s2), delta)``: exact placement A - delta*I through
    the two named member sensors, zero columns elsewhere.
    """
    n = A_CIRCLE.shape[0]
    L = np.zeros((n, len(subset)))
    kind = design[0]
    if kind == "single":
        sensor, poles = design[1], design[2]
        col = -acker_observer_gain(A_CIRCLE, C[sensor - 1], poles)
        L[:, subset.members.index(sensor)] = col[:, 0]
    else:
        (s1, s2), delta = design[1], design[2]
        C_pair = C[[s1 - 1, s2 - 1]]
        L_pair = place_exact(A_CIRCLE, C_pair, A_CIRCLE - delta * np.eye(n))
        L[:, subset.members.index(s1)] = L_pair[:, 0]
        L[:, subset.members.index(s2)] = L_pair[:, 1]
    return L


def ex4_anchored_bank(designs: dict[tuple[int, ...], tuple]):
    idx = bank_index(4, 1)
    struct = CircleStructure(A=A_CIRCLE, G=G_CIRCLE, H=H_CIRCLE, C=C_EX4,
                             channels=np.sin)
    observers = {}
    gains = {}
    for subset in idx.all_subsets:
        L = anchored_gain(C_EX4, subset, designs[subset.members])
        K = np.zeros((1, len(subset)))
        observers[subset] = CircleCriterionObserver(subset, struct, K, L)
        gains[subset] = (K, L)
    return idx, ObserverBank(observers), gains


# Attacked-sensor-3 voting needs every J containing 3 to see several
# distinct responses to a_3: each such J estimates through sensor 3 at a
# medium speed, its S children through sensor 3 faster/slower, and the
# attack-free pairs through well-conditioned sensor pairs with tiny gains.
EX4_DESIGNS = {
    (1, 2, 3): ("single", 3, (0.60, 0.65)),
    (1, 3, 4): ("single", 3, (0.60, 0.65)),
    (2, 3, 4): ("single", 3, (0.60, 0.65)),
    (1, 2, 4): ("pair", (1, 4), 0.35),
    (1, 3): ("single", 3, (0.35, 0.40)),
    (2, 3): ("single", 3, (0.85, 0.80)),
    (3, 4): ("single", 3, (0.20, 0.25)),
    (1, 2): ("single", 1, (0.80, 0.75)),
    (1, 4): ("pair", (1, 4), 0.35),
    (2, 4): ("pair", (2, 4), 0.35),
}


def ex4_scenario(seed: int, attacked: bool) -> AttackScenario:
    gen = {3: SignalSpec("uniform", low=-2.0, high=2.0)} if attacked else {}
    return AttackScenario(
        p=4, q=1,
        attacked=frozenset({3}) if attacked else frozenset(),
        attack_gens=gen,
        noise_gens=tuple(SignalSpec("uniform", low=-0.5, high=0.5) for _ in range(4)),
        noise_bound=0.5,
        horizon=999,
        seed=seed,
        x0=InitSpec("normal", mean=(0.0, 0.0), std=(1.0, 1.0)),
    )


def probe_ex4(args):
    plant = circle_plant(C_EX4, "ex4")
    x0_spec = InitSpec("normal", mean=(0.0, 0.0), std=(1.0, 1.0))
    deltas_j = [float(v) for v in args.deltas_j.split(",")]
    deltas_s = [float(v) for v in args.deltas_s.split(",")]
    for style, dj, ds in itertools.product(args.styles.split(","), deltas_j, deltas_s):
        if style == "anchored":
            idx, bank, _ = ex4_anchored_bank(EX4_DESIGNS)
        else:
            if style == "shift":
                tj, ts = A_CIRCLE - dj * np.eye(2), A_CIRCLE - ds * np.eye(2)
            else:
                tj, ts = np.diag([1 - dj, 1 - dj - 0.05]), np.diag([1 - ds, 1 - ds - 0.05])
            idx, bank, _ = circle_bank(C_EX4, 4, 1, {"J": tj, "S": ts})
        settings = CalibrationSettings(trials=args.trials, horizon=args.cal_horizon,
                                       seed=1, tail_stat=args.stat, safety=args.safety)
        t0 = time.perf_counter()
        models, failures = calibrate_bank(bank, plant, 0.5, 0.0, x0_spec, settings)
        if failures:
            print(f"style={style} dj={dj} ds={ds}: calibration failed: {failures[:2]}")
            continue
        thresholds = compute_thresholds(models, idx, 0.5, 0.0, eps=0.0, k_star_override=0)
        stats = {100: [], 200: []}
        control_full_steps = []
        control_empty = []
        exceed = np.zeros(len(idx.j_subsets))
        for seed in range(args.seeds):
            traj = simulate(plant, ex4_scenario(seed, attacked=True))
            est = bank.run(traj.y, traj.u, traj.x[0])
            run = run_estimator(idx, idx.all_subsets, est, truth=traj.x)
            exceed += np.mean(
                run.pi[:, : len(idx.j_subsets)]
                > np.array([thresholds.pi_bar[J] for J in idx.j_subsets]),
                axis=0,
            )
            for N in (100, 200):
                rep = windowed_isolation(run, thresholds, N)
                isolated = [w.isolated for w in rep.windows]
                stats[N].append(np.mean([s == (3,) for s in isolated]))
            ctraj = simulate(plant, ex4_scenario(seed, attacked=False))
            cest = bank.run(ctraj.y, ctraj.u, ctraj.x[0])
            crun = run_estimator(idx, idx.all_subsets, cest, truth=ctraj.x)
            full = frozenset(range(1, 5))
            rep = windowed_isolation(crun, thresholds, 100)
            control_empty.append(np.mean([w.isolated == () for w in rep.windows]))
            control_full_steps.append(
                np.mean([frozenset(u) == full for u in rep.step_unions.values()])
            )
        dt = time.perf_counter() - t0
        exceed /= args.seeds
        labels = [J.label for J in idx.j_subsets]
        print(
            f"style={style} dj={dj:4} ds={ds:4} stat={args.stat}: "
            f"isolate3 N100={np.mean(stats[100]):.2f} N200={np.mean(stats[200]):.2f} "
            f"ctrl-empty={np.mean(control_empty):.2f} "
            f"ctrl-full-steps={np.mean(control_full_steps):.3f} ({dt:.1f}s)"
        )
        print("   attacked-run exceedance " +
              " ".join(f"{l}={e:.2f}" for l, e in zip(labels, exceed)))


# ---------------------------------------------------------------- example 3

def ex3_scenario(seed: int, amp: float) -> AttackScenario:
    return AttackScenario(
        p=5, q=2,
        attacked=frozenset({2, 5}),
        attack_gens={
            2: SignalSpec("uniform", low=-amp, high=amp),
            5: SignalSpec("uniform", low=-amp, high=amp),
        },
        noise_gens=tuple(SignalSpec("uniform", low=-0.1, high=0.1) for _ in range(5)),
        noise_bound=0.1,
        horizon=199,
        seed=seed,
        x0=InitSpec("normal", mean=(0.0, 0.0), std=(1.0, 1.0)),
    )


# Sensors 4 and 5 read mostly x2 (rows (1.2, 12) and (1.5, 15), exactly
# parallel), so single-sensor pole placement that moves the weakly
# observed x1 mode inserts a large direct x1 gain whose interplay with
# the sin coupling creates a spurious attractor: offsets of a few units
# never converge.  A direct gain-space search found the robust pocket —
# a *small* x1 gain next to an x2 gain near (1 - 0.35)/c2.  Sensor 5's
# gain is sensor 4's scaled by 1.2/1.5 (parallel rows, same closed loop).
EX3_SINGLE_POLES = {1: (0.95, 0.90), 2: (0.95, 0.90), 3: (0.95, 0.90)}
EX3_WEAK_GAINS = {4: (0.0167, 0.0542), 5: (0.01336, 0.04336)}


def ex3_designed_bank(target_j: np.ndarray):
    idx = bank_index(5, 2)
    struct = CircleStructure(A=A_CIRCLE, G=G_CIRCLE, H=H_CIRCLE, C=C_EX3,
                             channels=np.sin)
    observers, gains = {}, {}
    for subset in idx.all_subsets:
        members = np.asarray(subset.members, dtype=int) - 1
        if len(subset) >= 2:
            L = place_exact(A_CIRCLE, C_EX3[members], target_j)
        elif subset.members[0] in EX3_SINGLE_POLES:
            poles = list(EX3_SINGLE_POLES[subset.members[0]])
            L = -acker_observer_gain(A_CIRCLE, C_EX3[members[0]], poles)
        else:
            k1, k2 = EX3_WEAK_GAINS[subset.members[0]]
            L = np.array([[-k1], [-k2]])
        K = np.zeros((1, len(subset)))
        observers[subset] = CircleCriterionObserver(subset, struct, K, L)
        gains[subset] = (K, L)
    return idx, ObserverBank(observers), gains


def probe_ex3(args):
    plant = circle_plant(C_EX3, "ex3")
    x0_spec = InitSpec("normal", mean=(0.0, 0.0), std=(1.0, 1.0))
    for dj, ds in itertools.product(
        [float(v) for v in args.deltas_j.split(",")],
        [float(v) for v in args.deltas_s.split(",")],
    ):
        tj = np.diag([1 - dj, 1 - dj - 0.05])
        idx, bank, _ = ex3_designed_bank(tj)
        settings = CalibrationSettings(trials=args.trials, horizon=args.cal_horizon,
                                       seed=1, tail_stat="max")
        models, failures = calibrate_bank(bank, plant, 0.1, 0.0, x0_spec, settings)
        if failures:
            print(f"dj={dj} ds={ds}: calibration failed: {failures[:2]}")
            continue
        est_model = calibrate_estimator(bank, idx, plant, 0.1, 0.0, x0_spec, settings)
        bound = est_model.gamma1 * 0.1
        t0 = time.perf_counter()
        tails, passes = [], 0
        pair_diffs = []
        clean_j = next(i for i, J in enumerate(idx.j_subsets) if J.members == (1, 3, 4))
        clean_frac = []
        for seed in range(args.seeds):
            traj = simulate(plant, ex3_scenario(seed, 10.0))
            est = bank.run(traj.y, traj.u, np.zeros(2))
            run = run_estimator(idx, idx.all_subsets, est, truth=traj.x)
            tail = float(np.max(run.e_norm[150:]))
            tails.append(tail)
            passes += tail <= bound
            clean_frac.append(float(np.mean(run.sigma_idx[150:] == clean_j)))
            if seed < 20:
                traj2 = simulate(plant, ex3_scenario(seed, 100.0))
                est2 = bank.run(traj2.y, traj2.u, np.zeros(2))
                run2 = run_estimator(idx, idx.all_subsets, est2, truth=traj2.x)
                tail2 = float(np.max(run2.e_norm[150:]))
                pair_diffs.append(abs(tail2 - tail) / max(tail, 1e-30))
        dt = time.perf_counter() - t0
        print(
            f"dj={dj:4} ds={ds:4}: bound={bound:.4f} "
            f"tail med={np.median(tails):.4f} max={np.max(tails):.4f} "
            f"pass={passes}/{args.seeds} "
            f"pairdiff max={np.max(pair_diffs):.3%} "
            f"clean-sel min={np.min(clean_frac):.2f} ({dt:.1f}s)"
        )


# ---------------------------------------------------------------- example 1

def ex1_bank(lam_j: float, lam_s: float):
    plant, A, C = _example1_plant()
    idx = bank_index(3, 1)
    observers = {}
    for subset in idx.all_subsets:
        members = np.asarray(subset.members, dtype=int) - 1
        C_sub = C[members]
        if len(subset) == 2:
            target = np.diag([lam_j, -lam_j])
            K = (A - target) @ np.linalg.inv(C_sub)
        elif subset.members == (1,):
            K = np.array([[(1.0 - lam_s) / 2.0], [0.0]])
        else:
            K = acker_observer_gain(A, C_sub[0], [lam_s, -lam_s])
        observers[subset] = LuenbergerObserver(subset, plant.f, plant.h, K, n=2)
    return plant, idx, ObserverBank(observers)


def ex1_scenario(seed: int) -> AttackScenario:
    return AttackScenario(
        p=3, q=1,
        attacked=frozenset({2}),
        attack_gens={2: SignalSpec("uniform", low=-10.0, high=10.0)},
        noise_gens=tuple(SignalSpec("zero") for _ in range(3)),
        noise_bound=0.0,
        horizon=49,
        seed=seed,
        x0=InitSpec("normal", mean=(0.0, 0.0), std=(1.0, 1.0)),
    )


def probe_ex1(args):
    from multiobserver.errors import EstimatorStarvedError, SimulationDivergedError

    for lam_j, lam_s in itertools.product(
        [float(v) for v in args.lams_j.split(",")],
        [float(v) for v in args.lams_s.split(",")],
    ):
        plant, idx, bank = ex1_bank(lam_j, lam_s)
        ok = diverged = starved = 0
        worst = 0.0
        t0 = time.perf_counter()
        for seed in range(args.seeds):
            try:
                traj = simulate(plant, ex1_scenario(seed))
            except SimulationDivergedError:
                diverged += 1
                continue
            est = bank.run(traj.y, traj.u, np.zeros(2))
            try:
                run = run_estimator(idx, idx.all_subsets, est, truth=traj.x)
            except EstimatorStarvedError:
                starved += 1
                continue
            tail = float(np.max(run.e_norm[40:]))
            worst = max(worst, tail) if np.isfinite(tail) else worst
            ok += tail < 1e-2
        dt = time.perf_counter() - t0
        print(
            f"lam_j={lam_j:4} lam_s={lam_s:4}: pass={ok}/{args.seeds} "
            f"(plant diverged {diverged}, bank starved {starved}), "
            f"worst finished tail={worst:.2e} ({dt:.1f}s)"
        )


# ---------------------------------------------------------------- example 2

A_EX2 = np.array([
    [0.5, 0.0, 0.0, 0.0],
    [0.0, 0.8, 1.0, 0.0],
    [0.5, 0.1, 0.3, 0.0],
    [0.3, 1.0, 0.0, 0.5],
])
C_EX2 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])


def ex2_g(x, u):
    out = np.empty(np.shape(x))
    out[...] = (1.0, 0.0, 0.0, 0.0)
    out[..., 3] = -1.25 * np.tanh(x[..., 3]) - 0.6
    return out


def ex2_plant() -> PlantModel:
    struct = ReducedStructure(A=A_EX2, C=C_EX2, g=ex2_g)

    def f(x, u, d, k):
        return A_EX2 @ x + ex2_g(x, u)

    def h(x, u):
        return C_EX2 @ x

    return PlantModel(name="ex2", n=4, p=3, f=f, h=h, structure=struct)


def ex2_bank():
    plant = ex2_plant()
    idx = bank_index(3, 1)
    observers = {}
    for subset in idx.all_subsets:
        measured_states = {m + 1 for m in subset.members}   # sensor j reads x_{j+1}
        unmeasured = [i for i in range(4) if i + 1 not in measured_states]
        L = np.eye(4)[unmeasured]
        observers[subset] = ReducedOrderObserver(subset, plant.structure, L)
    return plant, idx, ObserverBank(observers)


def ex2_scenario(seed: int) -> AttackScenario:
    return AttackScenario(
        p=3, q=1,
        attacked=frozenset({2}),
        attack_gens={2: SignalSpec("uniform", low=-10.0, high=10.0)},
        noise_gens=tuple(SignalSpec("zero") for _ in range(3)),
        noise_bound=0.0,
        horizon=199,
        seed=seed,
        x0=InitSpec("normal", mean=(0.0,) * 4, std=(1.0,) * 4),
    )


def probe_ex2(args):
    plant, idx, bank = ex2_bank()
    ok = 0
    worst = 0.0
    t0 = time.perf_counter()
    for seed in range(args.seeds):
        traj = simulate(plant, ex2_scenario(seed))
        est = bank.run(traj.y, traj.u, np.zeros(4))
        run = run_estimator(idx, idx.all_subsets, est, truth=traj.x)
        tail = float(np.max(run.e_norm[160:]))
        worst = max(worst, tail)
        ok += tail < 1e-2
    dt = time.perf_counter() - t0
    print(f"pass={ok}/{args.seeds}, worst tail={worst:.2e} ({dt:.1f}s)")


# ---------------------------------------------------------------- freeze

def _mat(M) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def freeze(args):
    """Write the frozen designs into the four bundled scenario configs.

    Examples 3 and 4 ship convergence models fitted by the package's own
    calibration (example 4 additionally an isolation section); examples
    1 and 2 ship gains only — example 1's open plant escapes to infinity
    from a sizable share of random inits, which aborts Monte-Carlo
    fitting by design, and example 2 needs no thresholds.
    """
    from multiobserver import load_config
    from multiobserver.harness import calibrate

    SCENARIO_DIR.mkdir(parents=True, exist_ok=True)

    # ---- example 1: full-order bank on the polynomial plant
    _, idx1, bank1 = ex1_bank(0.6, 0.75)
    bundle1 = {}
    for sub in idx1.all_subsets:
        entry = {"K": _mat(bank1.observers[sub].K)}
        if sub.members == (1,):
            entry["practical"] = True
        bundle1[sub.label] = entry
    doc1 = {
        "name": "example1",
        "plant": {"family": "luenberger", "dynamics": "example1"},
        "scenario": {
            "q": 1,
            "horizon": 49,
            "seed": 0,
            "attacked": [2],
            "attacks": {"2": {"kind": "uniform", "low": -10.0, "high": 10.0}},
            "noise": {"kind": "zero"},
            "noise_bound": 0.0,
            "x0": {"kind": "normal", "mean": [0.0, 0.0], "std": [1.0, 1.0]},
        },
        "estimator": {"init": {"kind": "zero"}},
        "observers": {"bundle": bundle1},
    }
    _write_json(SCENARIO_DIR / "example1.json", doc1)

    # ---- example 2: reduced-order bank, prediction via the plant map
    plant2, idx2, bank2 = ex2_bank()
    bundle2 = {
        sub.label: {"L": _mat(bank2.observers[sub].L)} for sub in idx2.all_subsets
    }
    doc2 = {
        "name": "example2",
        "plant": {
            "family": "reduced",
            "A": _mat(A_EX2),
            "C": _mat(C_EX2),
            "nonlinearity": {
                "name": "tanh_channel",
                "params": {
                    "constant": [1.0, 0.0, 0.0, -0.6],
                    "gain": -1.25,
                    "index": 4,
                    "position": 4,
                },
            },
        },
        "scenario": {
            "q": 1,
            "horizon": 199,
            "seed": 0,
            "attacked": [2],
            "attacks": {"2": {"kind": "uniform", "low": -10.0, "high": 10.0}},
            "noise": {"kind": "zero"},
            "noise_bound": 0.0,
            "x0": {"kind": "normal", "mean": [0.0] * 4, "std": [1.0] * 4},
        },
        "estimator": {"init": {"kind": "zero"}},
        "observers": {"bundle": bundle2},
    }
    _write_json(SCENARIO_DIR / "example2.json", doc2)

    # ---- example 3: circle-criterion bank, calibrated for the error bound
    idx3, _, gains3 = ex3_designed_bank(np.diag([0.7, 0.65]))
    bundle3 = {
        sub.label: {"K": _mat(gains3[sub][0]), "L": _mat(gains3[sub][1])}
        for sub in idx3.all_subsets
    }
    doc3 = {
        "name": "example3",
        "plant": {
            "family": "circle",
            "A": _mat(A_CIRCLE),
            "G": _mat(G_CIRCLE),
            "H": _mat(H_CIRCLE),
            "C": _mat(C_EX3),
            "nonlinearity": {"name": "sin"},
            "slope_box": [-1.5, 1.5],
        },
        "scenario": {
            "q": 2,
            "horizon": 199,
            "seed": 0,
            "attacked": [2, 5],
            "attacks": {
                "2": {"kind": "uniform", "low": -10.0, "high": 10.0},
                "5": {"kind": "uniform", "low": -10.0, "high": 10.0},
            },
            "noise": {"kind": "uniform", "low": -0.1, "high": 0.1},
            "noise_bound": 0.1,
            "x0": {"kind": "normal", "mean": [0.0, 0.0], "std": [1.0, 1.0]},
        },
        "estimator": {"init": {"kind": "zero"}},
        "observers": {"bundle": bundle3},
        "calibration": {
            "trials": 24,
            "horizon": 400,
            "seed": 1,
            "safety": 1.2,
            "tail_stat": "max",
        },
    }
    tmp3 = SCENARIO_DIR / "example3.uncalibrated.json"
    _write_json(tmp3, doc3)
    calibrate(load_config(tmp3), out_path=SCENARIO_DIR / "example3.json")
    tmp3.unlink()

    # ---- example 4: anchored circle bank, calibrated, with isolation
    idx4, _, gains4 = ex4_anchored_bank(EX4_DESIGNS)
    bundle4 = {
        sub.label: {"K": _mat(gains4[sub][0]), "L": _mat(gains4[sub][1])}
        for sub in idx4.all_subsets
    }
    doc4 = {
        "name": "example4",
        "plant": {
            "family": "circle",
            "A": _mat(A_CIRCLE),
            "G": _mat(G_CIRCLE),
            "H": _mat(H_CIRCLE),
            "C": _mat(C_EX4),
            "nonlinearity": {"name": "sin"},
            "slope_box": [-1.5, 1.5],
        },
        "scenario": {
            "q": 1,
            "horizon": 999,
            "seed": 0,
            "attacked": [3],
            "attacks": {"3": {"kind": "uniform", "low": -2.0, "high": 2.0}},
            "noise": {"kind": "uniform", "low": -0.5, "high": 0.5},
            "noise_bound": 0.5,
            "x0": {"kind": "normal", "mean": [0.0, 0.0], "std": [1.0, 1.0]},
        },
        "estimator": {"init": {"kind": "truth"}},
        "observers": {"bundle": bundle4},
        "calibration": {
            "trials": 30,
            "horizon": 250,
            "seed": 1,
            "safety": 1.0,
            "tail_stat": "median",
        },
    }
    tmp4 = SCENARIO_DIR / "example4.uncalibrated.json"
    _write_json(tmp4, doc4)
    out4 = SCENARIO_DIR / "example4.json"
    calibrate(load_config(tmp4), out_path=out4)
    tmp4.unlink()
    # the isolation section goes in after calibration: validation demands
    # a convergence model on every subset the moment the section exists
    calibrated = json.loads(out4.read_text())
    calibrated["isolation"] = {"window": 100, "eps": 0.0, "k_star": 0}
    _write_json(out4, calibrated)

    # ---- verification pass over the shipped files
    from multiobserver import build_bank

    for name in ("example1", "example2", "example3", "example4"):
        cfg = load_config(SCENARIO_DIR / f"{name}.json")
        _, report = build_bank(cfg, enforce=True)
        worst = max(c.spectral_radius for c in report.certificates.values())
        print(
            f"{name}: {len(cfg.bank.all_subsets)} observers, "
            f"worst certificate radius {worst:.4f}, "
            f"estimator model {'yes' if cfg.estimator_iss else 'no'}, "
            f"isolation {'yes' if cfg.isolation else 'no'}"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p4 = sub.add_parser("probe-ex4")
    p4.add_argument("--deltas-j", default="0.35,0.5")
    p4.add_argument("--deltas-s", default="0.35,0.5")
    p4.add_argument("--styles", default="diag")
    p4.add_argument("--stat", default="rms")
    p4.add_argument("--safety", type=float, default=1.2)
    p4.add_argument("--trials", type=int, default=15)
    p4.add_argument("--cal-horizon", type=int, default=200)
    p4.add_argument("--seeds", type=int, default=10)
    p4.set_defaults(func=probe_ex4)

    p3 = sub.add_parser("probe-ex3")
    p3.add_argument("--deltas-j", default="0.25,0.3")
    p3.add_argument("--deltas-s", default="0.4,0.5")
    p3.add_argument("--trials", type=int, default=15)
    p3.add_argument("--cal-horizon", type=int, default=200)
    p3.add_argument("--seeds", type=int, default=100)
    p3.set_defaults(func=probe_ex3)

    p1 = sub.add_parser("probe-ex1")
    p1.add_argument("--lams-j", default="0.5,0.6")
    p1.add_argument("--lams-s", default="0.5,0.6")
    p1.add_argument("--seeds", type=int, default=100)
    p1.set_defaults(func=probe_ex1)

    p2 = sub.add_parser("probe-ex2")
    p2.add_argument("--seeds", type=int, default=100)
    p2.set_defaults(func=probe_ex2)

    pf = sub.add_parser("freeze")
    pf.set_defaults(func=freeze)

    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
