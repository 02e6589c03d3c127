"""Design, tune, and freeze the observer gains of the bundled scenarios.

This is a development tool, not part of the installed package.  Each
example is defined once, in its bundled config
``src/multiobserver/scenarios/exampleN.json``; this script owns only the
gain matrices of its ``observers.bundle`` and the fitted ``iss`` models.
Every command loads the bundled document without what the script
generates (every ``iss``, and example4's ``isolation``), designs a bundle
from the document's own plant matrices, and parses the two with the
package's own ``parse_config`` and builds the bank with ``build_bank``:

* ``probe-ex1`` .. ``probe-ex4``: sweep candidate pole placements and
  report how the acceptance-style metrics respond, so the shipped
  numbers are reproducible instead of hand-tuned magic.  Every candidate
  entry is marked ``practical``, so a design whose certificate fails
  still runs.  ``probe-ex3`` and ``probe-ex4`` calibrate each design as
  the document's ``calibration`` section says, and exit 1 if one fails.
* ``freeze``: write the chosen designs back into the bundled JSON configs
  (running the package's own calibration for the examples that ship
  convergence models), then print what ``multiobserver validate`` prints
  for each.

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
    BankIndex,
    CalibrationError,
    EstimatorRun,
    EstimatorStarvedError,
    SimulationDivergedError,
    SubsetIndex,
    bank_index,
    build_bank,
    calibrate_bundle,
    compute_thresholds,
    load_config,
    run_seeds,
    windowed_isolation,
)
from multiobserver.cli import main as multiobserver
from multiobserver.config import _example1_plant, parse_config
from multiobserver.harness import calibrate

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


def _load(name: str) -> tuple[dict, dict | None]:
    """The bundled document ``name`` without what this script generates, and its
    ``isolation`` section: every ``iss`` goes (the bundle is replaced whole), and so does
    the section, which needs an ``iss`` on every subset until ``freeze`` puts it back."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    doc["estimator"].pop("iss", None)
    return doc, doc.pop("isolation", None)


def _with(doc: dict, bundle: dict) -> dict:
    return {**doc, "observers": {"bundle": bundle}}


def _plant(doc: dict) -> tuple[np.ndarray, np.ndarray, BankIndex]:
    """The (A, C) that ``doc``'s gains are placed with, and the bank its q asks for."""
    if doc["plant"].get("dynamics") == "example1":  # the named plant's linearization
        _, A, C = _example1_plant()
    else:
        A, C = np.array(doc["plant"]["A"]), np.array(doc["plant"]["C"])
    return A, C, bank_index(len(C), doc["scenario"]["q"])


def _candidate(doc: dict, bundle: dict):
    """The parsed config of ``doc`` with ``bundle``, every entry marked ``practical``,
    and its bank."""
    cfg = parse_config(_with(doc, {label: {**entry, "practical": True}
                                   for label, entry in bundle.items()}))
    bank, _ = build_bank(cfg)
    return cfg, bank


def _finished(outcomes: list) -> list[EstimatorRun]:
    """The outcomes of :func:`run_seeds`, raising the first seed's error if one failed."""
    for out in outcomes:
        if not isinstance(out, EstimatorRun):
            raise out
    return outcomes


# ---------------------------------------------------------------- example 4

def _circle_entry(L: np.ndarray) -> dict:
    """A circle bundle entry: output gain L, no innovation into the nonlinearity."""
    return {"K": _mat(np.zeros((1, L.shape[1]))), "L": _mat(L)}


def circle_bundle(doc: dict, targets: dict[str, np.ndarray]) -> dict:
    """Bundle of circle-criterion observers; targets keyed by class role."""
    A, C, bank = _plant(doc)
    bundle = {}
    for subset in bank.all_subsets:
        members = np.asarray(subset.members, dtype=int) - 1
        C_sub = C[members]
        target = targets[subset.role]
        if len(subset) >= 2:
            L = place_exact(A, C_sub, target)
        else:
            poles = np.linalg.eigvals(target)
            L = -acker_observer_gain(A, C_sub[0], poles.real)
        bundle[subset.label] = _circle_entry(L)
    return bundle


def anchored_gain(A: np.ndarray, C: np.ndarray, subset: SubsetIndex, design) -> np.ndarray:
    """L for one subset from a compact design spec.

    ``("single", s, (p1, p2))``: respond to member sensor s only,
    Ackermann poles (p1, p2) — zero columns for the other members.
    ``("pair", (s1, s2), delta)``: exact placement A - delta*I through
    the two named member sensors, zero columns elsewhere.
    """
    n = A.shape[0]
    L = np.zeros((n, len(subset)))
    kind = design[0]
    if kind == "single":
        sensor, poles = design[1], design[2]
        col = -acker_observer_gain(A, C[sensor - 1], poles)
        L[:, subset.members.index(sensor)] = col[:, 0]
    else:
        (s1, s2), delta = design[1], design[2]
        C_pair = C[[s1 - 1, s2 - 1]]
        L_pair = place_exact(A, C_pair, A - delta * np.eye(n))
        L[:, subset.members.index(s1)] = L_pair[:, 0]
        L[:, subset.members.index(s2)] = L_pair[:, 1]
    return L


def ex4_anchored_bundle(doc: dict, designs: dict[tuple[int, ...], tuple]) -> dict:
    A, C, bank = _plant(doc)
    return {
        subset.label: _circle_entry(anchored_gain(A, C, subset, designs[subset.members]))
        for subset in bank.all_subsets
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


def ex4_designs(doc: dict, styles: str, deltas_j: str, deltas_s: str):
    """(style, dj, ds, bundle) of each design to probe, in style order.

    The anchored design takes no deltas, so it comes once, with dj and ds None.
    """
    A, _, _ = _plant(doc)
    for style in styles.split(","):
        if style == "anchored":
            yield style, None, None, ex4_anchored_bundle(doc, EX4_DESIGNS)
            continue
        for dj, ds in itertools.product([float(v) for v in deltas_j.split(",")],
                                        [float(v) for v in deltas_s.split(",")]):
            if style == "shift":
                tj, ts = A - dj * np.eye(len(A)), A - ds * np.eye(len(A))
            else:
                tj, ts = np.diag([1 - dj, 1 - dj - 0.05]), np.diag([1 - ds, 1 - ds - 0.05])
            yield style, dj, ds, circle_bundle(doc, {"J": tj, "S": ts})


def probe_ex4(args) -> bool:
    doc, _ = _load("example4")
    iso = load_config(SCENARIO_DIR / "example4.json").isolation
    window, failed = iso.window, False
    for style, dj, ds, bundle in ex4_designs(doc, args.styles, args.deltas_j, args.deltas_s):
        design = f"style={style}" if dj is None else f"style={style} dj={dj:4} ds={ds:4}"
        cfg, bank = _candidate(doc, bundle)
        idx, scen = cfg.bank, cfg.scenario
        t0 = time.perf_counter()
        try:
            models, _ = calibrate_bundle(bank, idx, cfg.plant, scen.noise_bound,
                                         scen.disturbance_bound, scen.x0, cfg.calibration,
                                         truth_init=cfg.estimator_init == "truth")
        except CalibrationError as exc:
            print(f"{design}: {exc}")
            failed = True
            continue
        thresholds = compute_thresholds(models, idx, iso.m_bar, iso.d_bar, eps=iso.eps,
                                        k_star_override=iso.k_star)
        unattacked = replace(scen, attacked=frozenset(), attack_gens={})
        runs = _finished(run_seeds(cfg, bank, range(args.seeds)))
        pi_bar = np.array(list(thresholds.pi_bar.values()))
        exceed = np.zeros(len(idx.j_subsets))
        for run in runs:
            exceed += np.mean(run.pi[:, : len(idx.j_subsets)] > pi_bar, axis=0)
        attacked = tuple(sorted(scen.attacked))
        stats = {N: [np.mean([w.isolated == attacked for w in rep.windows])
                     for rep in (windowed_isolation(run, thresholds, N) for run in runs)]
                 for N in (window, 2 * window)}
        full = frozenset(range(1, cfg.plant.p + 1))
        control_empty, control_full_steps = [], []
        for run in _finished(run_seeds(cfg, bank, range(args.seeds), unattacked)):
            rep = windowed_isolation(run, thresholds, window)
            control_empty.append(np.mean([w.isolated == () for w in rep.windows]))
            control_full_steps.append(
                np.mean([frozenset(u) == full for u in rep.step_unions.values()])
            )
        dt = time.perf_counter() - t0
        exceed /= args.seeds
        labels = [J.label for J in idx.j_subsets]
        hits = " ".join(f"N{N}={np.mean(share):.2f}" for N, share in stats.items())
        print(
            f"{design}: isolate{''.join(map(str, attacked))} {hits} "
            f"ctrl-empty={np.mean(control_empty):.2f} "
            f"ctrl-full-steps={np.mean(control_full_steps):.3f} ({dt:.1f}s)"
        )
        print("   attacked-run exceedance " +
              " ".join(f"{l}={e:.2f}" for l, e in zip(labels, exceed)))
    return failed


# ---------------------------------------------------------------- example 3

# Sensors 4 and 5 read mostly x2 (their rows of C are exactly
# parallel), so single-sensor pole placement that moves the weakly
# observed x1 mode inserts a large direct x1 gain whose interplay with
# the sin coupling creates a spurious attractor: offsets of a few units
# never converge.  A direct gain-space search found the robust pocket —
# a *small* x1 gain next to an x2 gain near (1 - 0.35)/c2.  Sensor 5's
# gain is sensor 4's scaled by the ratio of their rows (same closed loop).
EX3_SINGLE_POLES = {1: (0.95, 0.90), 2: (0.95, 0.90), 3: (0.95, 0.90)}
EX3_WEAK_GAINS = {4: (0.0167, 0.0542), 5: (0.01336, 0.04336)}
# The single-sensor observers converge on the runs, but no certificate over a
# sector that contains slope 1 exists for them: rho(A + L C_J + G H) > 1, and
# their margins over sin's [-1, 1] are -0.53 to -0.61.  So they are practical.


def ex3_bundle(doc: dict, target_j: np.ndarray) -> dict:
    A, C, bank = _plant(doc)
    bundle = {}
    for subset in bank.all_subsets:
        members = np.asarray(subset.members, dtype=int) - 1
        if len(subset) >= 2:
            L = place_exact(A, C[members], target_j)
        elif subset.members[0] in EX3_SINGLE_POLES:
            poles = list(EX3_SINGLE_POLES[subset.members[0]])
            L = -acker_observer_gain(A, C[members[0]], poles)
        else:
            k1, k2 = EX3_WEAK_GAINS[subset.members[0]]
            L = np.array([[-k1], [-k2]])
        bundle[subset.label] = _circle_entry(L) | ({"practical": True} if len(subset) == 1 else {})
    return bundle


def probe_ex3(args) -> bool:
    doc, _ = _load("example3")
    failed = False
    for dj in [float(v) for v in args.deltas_j.split(",")]:
        tj = np.diag([1 - dj, 1 - dj - 0.05])
        cfg, bank = _candidate(doc, ex3_bundle(doc, tj))
        idx, scen = cfg.bank, cfg.scenario
        try:
            _, est_model = calibrate_bundle(bank, idx, cfg.plant, scen.noise_bound,
                                            scen.disturbance_bound, scen.x0, cfg.calibration,
                                            truth_init=cfg.estimator_init == "truth")
        except CalibrationError as exc:
            print(f"dj={dj}: {exc}")
            failed = True
            continue
        bound = est_model.gamma1 * scen.noise_bound
        # the same runs with the attacks ten times larger
        loud = replace(scen, attack_gens={
            i: replace(gen, low=10 * gen.low, high=10 * gen.high)
            for i, gen in scen.attack_gens.items()
        })
        clean_j = next(i for i, J in enumerate(idx.j_subsets) if not scen.attacked & set(J.members))
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
    return failed


# ---------------------------------------------------------------- example 1

def ex1_bundle(doc: dict, lam_j: float, lam_s: float) -> dict:
    A, C, bank = _plant(doc)
    bundle = {}
    for subset in bank.all_subsets:
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
    doc, _ = _load("example1")
    for lam_j, lam_s in itertools.product(
        [float(v) for v in args.lams_j.split(",")],
        [float(v) for v in args.lams_s.split(",")],
    ):
        cfg, bank = _candidate(doc, ex1_bundle(doc, lam_j, lam_s))
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

def ex2_bundle(doc: dict) -> dict:
    """Each reduced-order observer estimates the states its sensors do not read."""
    _, C, bank = _plant(doc)
    bundle = {}
    for subset in bank.all_subsets:
        read = C[np.asarray(subset.members) - 1].any(axis=0)
        bundle[subset.label] = {"L": _mat(np.eye(len(read))[~read])}
    return bundle


def probe_ex2(args):
    doc, _ = _load("example2")
    cfg, bank = _candidate(doc, ex2_bundle(doc))
    t0 = time.perf_counter()
    tails = [float(np.max(run.e_norm[160:]))
             for run in _finished(run_seeds(cfg, bank, range(args.seeds)))]
    dt = time.perf_counter() - t0
    ok = sum(tail < 1e-2 for tail in tails)
    worst = max([0.0, *tails])
    print(f"pass={ok}/{args.seeds}, worst tail={worst:.2e} ({dt:.1f}s)")


# ---------------------------------------------------------------- freeze

# The frozen design of each example.
FROZEN = {
    "example1": lambda doc: ex1_bundle(doc, 0.6, 0.75),
    "example2": ex2_bundle,
    "example3": lambda doc: ex3_bundle(doc, np.diag([0.7, 0.65])),
    "example4": lambda doc: ex4_anchored_bundle(doc, EX4_DESIGNS),
}


def freeze(args):
    """Write the frozen designs into the four bundled scenario configs, then validate them.

    An example with a ``calibration`` section (example3 and example4) ships
    convergence models fitted by the package's own calibration; example1's
    open plant escapes to infinity from a sizable share of random inits,
    which aborts Monte-Carlo fitting by design, and example2 needs no
    thresholds.
    """
    for name, design in FROZEN.items():
        path = SCENARIO_DIR / f"{name}.json"
        doc, isolation = _load(name)
        doc = _with(doc, design(doc))
        if "calibration" in doc:
            calibrate(parse_config(doc), out_path=path)
            doc = json.loads(path.read_text())
        # the isolation section goes back after calibration: validation demands
        # a convergence model on every subset the moment the section exists
        if isolation is not None:
            doc["isolation"] = isolation
        path.write_text(json.dumps(doc, indent=2) + "\n")
    for name in FROZEN:
        if multiobserver(["validate", "--config", str(SCENARIO_DIR / f"{name}.json")]):
            raise SystemExit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p4 = sub.add_parser("probe-ex4")
    p4.add_argument("--deltas-j", default="0.35,0.5")
    p4.add_argument("--deltas-s", default="0.35,0.5")
    p4.add_argument("--styles", default="diag")
    p4.add_argument("--seeds", type=int, default=10)
    p4.set_defaults(func=probe_ex4)

    p3 = sub.add_parser("probe-ex3")
    p3.add_argument("--deltas-j", default="0.25,0.3")
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
    if args.func(args):  # a probe whose design failed to calibrate
        raise SystemExit(1)


if __name__ == "__main__":
    main()
