"""Design, tune, and freeze the observer gains of the bundled scenarios.

This is a development tool, not part of the installed package.  It
derives every gain matrix in ``src/multiobserver/scenarios/*.json``.
Each example is defined once, as a config document (``exampleN_doc``)
plus a gain designer that returns the document's ``observers.bundle``
entries; every command below parses the two with the package's own
``parse_config`` and builds the bank with ``build_bank``:

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
from dataclasses import replace
from pathlib import Path

import numpy as np

from multiobserver import (
    CalibrationError,
    EstimatorRun,
    EstimatorStarvedError,
    SimulationDivergedError,
    SubsetIndex,
    bank_index,
    build_bank,
    calibrate_bundle,
    compute_thresholds,
    run_seeds,
    windowed_isolation,
)
from multiobserver.config import _example1_plant, parse_config

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


def _mat(M) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]


def _example(doc: dict):
    """The parsed config of ``doc`` and its bank, built without enforcing the certificates."""
    cfg = parse_config(doc)
    bank, _ = build_bank(cfg, enforce=False)
    return cfg, bank


def _finished(outcomes: list) -> list[EstimatorRun]:
    """The outcomes of :func:`run_seeds`, raising the first seed's error if one failed."""
    for out in outcomes:
        if not isinstance(out, EstimatorRun):
            raise out
    return outcomes


# ---------------------------------------------------------------- example 4

A_CIRCLE = np.array([[1.0, 0.1], [0.0, 1.0]])
G_CIRCLE = np.array([[0.05], [0.1]])
H_CIRCLE = np.array([[1.0, 1.0]])
C_EX3 = np.array([[3.0, 0.3], [3.0, 0.6], [6.0, 0.9], [1.2, 12.0], [1.5, 15.0]])
C_EX4 = C_EX3[:4]


def circle_doc(name: str, C: np.ndarray, scenario: dict, init: str, bundle: dict,
               calibration: dict) -> dict:
    """A document for the sin-channel circle plant read through the sensor rows ``C``."""
    return {
        "name": name,
        "plant": {
            "family": "circle",
            "A": _mat(A_CIRCLE),
            "G": _mat(G_CIRCLE),
            "H": _mat(H_CIRCLE),
            "C": _mat(C),
            "nonlinearity": {"name": "sin"},
        },
        "scenario": scenario,
        "estimator": {"init": {"kind": init}},
        "observers": {"bundle": bundle},
        "calibration": calibration,
    }


def example4_doc(bundle: dict) -> dict:
    return circle_doc(
        "example4",
        C_EX4,
        {
            "q": 1,
            "horizon": 999,
            "seed": 0,
            "attacked": [3],
            "attacks": {"3": {"kind": "uniform", "low": -2.0, "high": 2.0}},
            "noise": {"kind": "uniform", "low": -0.5, "high": 0.5},
            "noise_bound": 0.5,
            "x0": {"kind": "normal", "mean": [0.0, 0.0], "std": [1.0, 1.0]},
        },
        "truth",
        bundle,
        {"trials": 30, "horizon": 250, "seed": 1, "safety": 1.0, "tail_stat": "median"},
    )


def _circle_entry(L: np.ndarray) -> dict:
    """A circle bundle entry: output gain L, no innovation into the nonlinearity."""
    return {"K": _mat(np.zeros((1, L.shape[1]))), "L": _mat(L)}


def circle_bundle(C: np.ndarray, p: int, q: int, targets: dict[str, np.ndarray]) -> dict:
    """Bundle of circle-criterion observers; targets keyed by class role."""
    bundle = {}
    for subset in bank_index(p, q).all_subsets:
        members = np.asarray(subset.members, dtype=int) - 1
        C_sub = C[members]
        target = targets[subset.role]
        if len(subset) >= 2:
            L = place_exact(A_CIRCLE, C_sub, target)
        else:
            poles = np.linalg.eigvals(target)
            L = -acker_observer_gain(A_CIRCLE, C_sub[0], poles.real)
        bundle[subset.label] = _circle_entry(L)
    return bundle


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


def ex4_anchored_bundle(designs: dict[tuple[int, ...], tuple]) -> dict:
    return {
        subset.label: _circle_entry(anchored_gain(C_EX4, subset, designs[subset.members]))
        for subset in bank_index(4, 1).all_subsets
    }


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


def ex4_designs(styles: str, deltas_j: str, deltas_s: str):
    """(style, dj, ds, bundle) of each design to probe, in style order.

    The anchored design takes no deltas, so it comes once, with dj and ds None.
    """
    for style in styles.split(","):
        if style == "anchored":
            yield style, None, None, ex4_anchored_bundle(EX4_DESIGNS)
            continue
        for dj, ds in itertools.product([float(v) for v in deltas_j.split(",")],
                                        [float(v) for v in deltas_s.split(",")]):
            if style == "shift":
                tj, ts = A_CIRCLE - dj * np.eye(2), A_CIRCLE - ds * np.eye(2)
            else:
                tj, ts = np.diag([1 - dj, 1 - dj - 0.05]), np.diag([1 - ds, 1 - ds - 0.05])
            yield style, dj, ds, circle_bundle(C_EX4, 4, 1, {"J": tj, "S": ts})


def probe_ex4(args):
    for style, dj, ds, bundle in ex4_designs(args.styles, args.deltas_j, args.deltas_s):
        fixed = dj is None
        cfg, bank = _example(example4_doc(bundle))
        idx, scen = cfg.bank, cfg.scenario
        settings = replace(cfg.calibration, trials=args.trials, horizon=args.cal_horizon,
                           tail_stat=args.stat, safety=args.safety)
        t0 = time.perf_counter()
        try:
            models, _ = calibrate_bundle(bank, idx, cfg.plant, scen.noise_bound,
                                         scen.disturbance_bound, scen.x0, settings,
                                         truth_init=cfg.estimator_init == "truth")
        except CalibrationError as exc:
            design = f"style={style}" if fixed else f"style={style} dj={dj} ds={ds}"
            print(f"{design}: {exc}")
            continue
        thresholds = compute_thresholds(models, idx, scen.noise_bound, scen.disturbance_bound,
                                        eps=0.0, k_star_override=0)
        unattacked = replace(scen, attacked=frozenset(), attack_gens={})
        runs = _finished(run_seeds(cfg, bank, range(args.seeds)))
        pi_bar = np.array(list(thresholds.pi_bar.values()))
        exceed = np.zeros(len(idx.j_subsets))
        for run in runs:
            exceed += np.mean(run.pi[:, : len(idx.j_subsets)] > pi_bar, axis=0)
        stats = {N: [np.mean([w.isolated == (3,) for w in rep.windows])
                     for rep in (windowed_isolation(run, thresholds, N) for run in runs)]
                 for N in (100, 200)}
        full = frozenset(range(1, 5))
        control_empty, control_full_steps = [], []
        for run in _finished(run_seeds(cfg, bank, range(args.seeds), unattacked)):
            rep = windowed_isolation(run, thresholds, 100)
            control_empty.append(np.mean([w.isolated == () for w in rep.windows]))
            control_full_steps.append(
                np.mean([frozenset(u) == full for u in rep.step_unions.values()])
            )
        dt = time.perf_counter() - t0
        exceed /= args.seeds
        labels = [J.label for J in idx.j_subsets]
        design = f"style={style}" if fixed else f"style={style} dj={dj:4} ds={ds:4}"
        print(
            f"{design} stat={args.stat}: "
            f"isolate3 N100={np.mean(stats[100]):.2f} N200={np.mean(stats[200]):.2f} "
            f"ctrl-empty={np.mean(control_empty):.2f} "
            f"ctrl-full-steps={np.mean(control_full_steps):.3f} ({dt:.1f}s)"
        )
        print("   attacked-run exceedance " +
              " ".join(f"{l}={e:.2f}" for l, e in zip(labels, exceed)))


# ---------------------------------------------------------------- example 3

def example3_doc(bundle: dict) -> dict:
    return circle_doc(
        "example3",
        C_EX3,
        {
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
        "zero",
        bundle,
        {"trials": 24, "horizon": 400, "seed": 1, "safety": 1.2, "tail_stat": "max"},
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
# The single-sensor observers converge on the runs, but no certificate over a
# sector that contains slope 1 exists for them: rho(A + L C_J + G H) > 1, and
# their margins over sin's [-1, 1] are -0.53 to -0.61.  So they are practical.


def ex3_bundle(target_j: np.ndarray) -> dict:
    bundle = {}
    for subset in bank_index(5, 2).all_subsets:
        members = np.asarray(subset.members, dtype=int) - 1
        if len(subset) >= 2:
            L = place_exact(A_CIRCLE, C_EX3[members], target_j)
        elif subset.members[0] in EX3_SINGLE_POLES:
            poles = list(EX3_SINGLE_POLES[subset.members[0]])
            L = -acker_observer_gain(A_CIRCLE, C_EX3[members[0]], poles)
        else:
            k1, k2 = EX3_WEAK_GAINS[subset.members[0]]
            L = np.array([[-k1], [-k2]])
        bundle[subset.label] = _circle_entry(L) | ({"practical": True} if len(subset) == 1 else {})
    return bundle


def probe_ex3(args):
    for dj in [float(v) for v in args.deltas_j.split(",")]:
        tj = np.diag([1 - dj, 1 - dj - 0.05])
        cfg, bank = _example(example3_doc(ex3_bundle(tj)))
        idx, scen = cfg.bank, cfg.scenario
        settings = replace(cfg.calibration, trials=args.trials, horizon=args.cal_horizon)
        try:
            _, est_model = calibrate_bundle(bank, idx, cfg.plant, scen.noise_bound,
                                            scen.disturbance_bound, scen.x0, settings,
                                            truth_init=cfg.estimator_init == "truth")
        except CalibrationError as exc:
            print(f"dj={dj}: {exc}")
            continue
        bound = est_model.gamma1 * scen.noise_bound
        # the same runs with the attacks ten times larger
        loud = replace(scen, attack_gens={
            i: replace(gen, low=-100.0, high=100.0) for i, gen in scen.attack_gens.items()
        })
        clean_j = next(i for i, J in enumerate(idx.j_subsets) if J.members == (1, 3, 4))
        t0 = time.perf_counter()
        runs = _finished(run_seeds(cfg, bank, range(args.seeds)))
        tails = [float(np.max(run.e_norm[150:])) for run in runs]
        passes = sum(tail <= bound for tail in tails)
        clean_frac = [float(np.mean(run.sigma_idx[150:] == clean_j)) for run in runs]
        loud_runs = _finished(run_seeds(cfg, bank, range(min(args.seeds, 20)), loud))
        pair_diffs = [abs(float(np.max(run.e_norm[150:])) - tail) / max(tail, 1e-30)
                      for run, tail in zip(loud_runs, tails)]
        dt = time.perf_counter() - t0
        print(
            f"dj={dj:4}: bound={bound:.4f} "
            f"tail med={np.median(tails):.4f} max={np.max(tails):.4f} "
            f"pass={passes}/{args.seeds} "
            f"pairdiff max={np.max(pair_diffs):.3%} "
            f"clean-sel min={np.min(clean_frac):.2f} ({dt:.1f}s)"
        )


# ---------------------------------------------------------------- example 1

def example1_doc(bundle: dict) -> dict:
    return {
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
        "observers": {"bundle": bundle},
    }


def ex1_bundle(lam_j: float, lam_s: float) -> dict:
    _, A, C = _example1_plant()
    bundle = {}
    for subset in bank_index(3, 1).all_subsets:
        members = np.asarray(subset.members, dtype=int) - 1
        C_sub = C[members]
        practical = {}
        if len(subset) == 2:
            target = np.diag([lam_j, -lam_j])
            K = (A - target) @ np.linalg.inv(C_sub)
        elif subset.members == (1,):
            K = np.array([[(1.0 - lam_s) / 2.0], [0.0]])
            # sensor 1 reads x1 alone: x2 keeps its open-loop pole -1
            practical = {"practical": True}
        else:
            K = acker_observer_gain(A, C_sub[0], [lam_s, -lam_s])
        bundle[subset.label] = {"K": _mat(K), **practical}
    return bundle


def probe_ex1(args):
    for lam_j, lam_s in itertools.product(
        [float(v) for v in args.lams_j.split(",")],
        [float(v) for v in args.lams_s.split(",")],
    ):
        cfg, bank = _example(example1_doc(ex1_bundle(lam_j, lam_s)))
        t0 = time.perf_counter()
        outcomes = run_seeds(cfg, bank, range(args.seeds))
        dt = time.perf_counter() - t0
        diverged = sum(isinstance(out, SimulationDivergedError) for out in outcomes)
        starved = sum(isinstance(out, EstimatorStarvedError) for out in outcomes)
        tails = [float(np.max(out.e_norm[40:])) for out in outcomes if isinstance(out, EstimatorRun)]
        ok = sum(tail < 1e-2 for tail in tails)
        worst = max([0.0, *filter(np.isfinite, tails)])
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


def example2_doc(bundle: dict) -> dict:
    return {
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
        "observers": {"bundle": bundle},
    }


def ex2_bundle() -> dict:
    bundle = {}
    for subset in bank_index(3, 1).all_subsets:
        measured_states = {m + 1 for m in subset.members}   # sensor j reads x_{j+1}
        unmeasured = [i for i in range(4) if i + 1 not in measured_states]
        bundle[subset.label] = {"L": _mat(np.eye(4)[unmeasured])}
    return bundle


def probe_ex2(args):
    cfg, bank = _example(example2_doc(ex2_bundle()))
    t0 = time.perf_counter()
    tails = [float(np.max(run.e_norm[160:]))
             for run in _finished(run_seeds(cfg, bank, range(args.seeds)))]
    dt = time.perf_counter() - t0
    ok = sum(tail < 1e-2 for tail in tails)
    worst = max([0.0, *tails])
    print(f"pass={ok}/{args.seeds}, worst tail={worst:.2e} ({dt:.1f}s)")


# ---------------------------------------------------------------- freeze

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
    _write_json(SCENARIO_DIR / "example1.json", example1_doc(ex1_bundle(0.6, 0.75)))

    # ---- example 2: reduced-order bank, prediction via the plant map
    _write_json(SCENARIO_DIR / "example2.json", example2_doc(ex2_bundle()))

    # ---- example 3: circle-criterion bank, calibrated for the error bound
    doc3 = example3_doc(ex3_bundle(np.diag([0.7, 0.65])))
    calibrate(parse_config(doc3), out_path=SCENARIO_DIR / "example3.json")

    # ---- example 4: anchored circle bank, calibrated, with isolation
    out4 = SCENARIO_DIR / "example4.json"
    calibrate(parse_config(example4_doc(ex4_anchored_bundle(EX4_DESIGNS))), out_path=out4)
    # the isolation section goes in after calibration: validation demands
    # a convergence model on every subset the moment the section exists
    calibrated = json.loads(out4.read_text())
    calibrated["isolation"] = {"window": 100, "eps": 0.0, "k_star": 0}
    _write_json(out4, calibrated)

    # ---- verification pass over the shipped files
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
