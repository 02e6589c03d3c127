"""The four benchmark workloads.

Every workload is a closed loop: one caller, one call at a time.  Each
has a set-up (timed several times, reported as ``setup_s``), a *pass*
(the unit whose wall time is ``pass_s_p50``), a *trace unit* (the work
the traced run replays), and correctness checks against the pinned
data in ``golden.json`` and against the brute-force oracle in
``brute.py``.  A mismatch is recorded in ``Workload.mismatches`` and
fails the run; it is never turned into a number.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from multiobserver import (
    CalibrationError,
    ConfigurationError,
    EstimatorStarvedError,
    ISSGainModel,
    SimulationDivergedError,
    bank_index,
    build_bank,
    calibrate_estimator,
    compute_thresholds,
    estimate_iss_gains,
    load_config,
    run_estimator,
    simulate,
    windowed_isolation,
)
from multiobserver.estimator import frames_to_csv
from multiobserver.harness import calibrate, run_scenario
from multiobserver.isolation import steps_to_csv, windows_to_csv

import brute
from refclock import NullClock
from tracing import NULL

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "src" / "multiobserver" / "scenarios"
GOLDEN = json.loads((HERE / "golden.json").read_text())
SETUP_REPS = 15  # at least this many set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 1.0
CAL_REL_TOL = GOLDEN["calibrate"]["rel_tol"]


@dataclass(frozen=True)
class Size:
    """How much work one pass does; ``SMOKE`` shrinks every workload."""

    mc_block: int = 100
    mc_pass: int = 10  # seeds per mc-seeds pass; the block is cycled in slices
    # calibration trials per fit (None: the config's own).  The bundled
    # 24-30 make example3's call take 13 s, one pass per run with no
    # host-speed sample inside it; 2 keep every fit and the pinned failure
    cal_trials: int | None = 2
    cal_horizon: int | None = None  # None: the config's own
    sweep_points: tuple = ((5, 2), (7, 3), (9, 4), (11, 5), (13, 6))
    # T=1000 makes the p=13 point one 2 s call, longer than the host's
    # speed spells, so the host-speed samples around it miss them
    sweep_T: int = 250
    sweep_window: int = 50
    bundled_min_passes: int = 100  # p90 needs ten samples above it
    full: bool = True


FULL = Size()
SMOKE = Size(mc_block=2, mc_pass=1, cal_trials=2, cal_horizon=20, sweep_points=((5, 2), (7, 3)),
             sweep_T=200, sweep_window=50, bundled_min_passes=1, full=False)


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= CAL_REL_TOL * max(abs(a), abs(b))


class Workload:
    name = ""
    configs: tuple[str, ...] = ()
    pass_label = "pass_s"  # the report's name for the pass-time figures

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.mismatches: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.raised = 0  # every operation that raised, expected or not
        self.state = None
        self.clock = NullClock()  # host-speed reference, sampled between operations

    def _order(self) -> list[str]:
        """The workload's configs in an order drawn from the seed."""
        return [self.configs[i] for i in self.rng.permutation(len(self.configs))]

    def mismatch(self, msg: str) -> None:
        if len(self.mismatches) < 50:
            self.mismatches.append(f"{self.name}: {msg}")

    # set-up -------------------------------------------------------------
    def setup(self, tr=NULL):
        """load_config + build_bank for the workload's configs."""
        cfgs, banks = {}, {}
        for name in self.configs:
            with tr.span("config.load", name):
                cfgs[name] = load_config(SCENARIOS / f"{name}.json")
            with tr.span("config.build_bank", name):
                banks[name], _ = build_bank(cfgs[name])
            tr.count("config.observers_built", len(banks[name]))
        return cfgs, banks

    def timed_setups(self) -> list[tuple[float, float, float]]:
        """Repeated set-ups; one (seconds, start, end) each."""
        runs = []
        while len(runs) < SETUP_REPS or sum(dt for dt, _, _ in runs) < SETUP_MIN_S:
            t0 = perf_counter()
            self.state = self.setup()
            t1 = perf_counter()
            runs.append((t1 - t0, t0, t1))
            self.clock.tick()
        return runs

    # hooks a workload fills in -------------------------------------------
    def run_pass(self) -> float:
        """One untraced pass; returns the wall time it counts."""
        return self.trace_unit(NULL)

    def min_passes(self) -> int:
        return 1

    def untraced_unit(self) -> float:
        """The work of one trace unit, untraced, for the tracing overhead."""
        return self.run_pass()

    def trace_unit(self, tr) -> float:
        """One unit of work, traced when ``tr`` is a Tracer; returns its wall time."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Post-run checks; returns the workload's own named figures."""
        return {}


# --- bundled-run --------------------------------------------------------------

class BundledRun(Workload):
    """``run_scenario`` on the four bundled configs; one pass is all four."""

    name = "bundled-run"
    configs = ("example1", "example2", "example3", "example4")

    def __init__(self, *args):
        super().__init__(*args)
        self.hits: dict[str, list[bool]] = {}  # per config, from its latest run

    def _check_digests(self, name: str, out_dir: Path, origin: str) -> None:
        for fname, want in GOLDEN["bundled"][name].items():
            path = out_dir / fname
            got = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            if got != want:
                self.mismatch(f"{origin} {name}/{fname} sha256 {got} != pinned {want}")

    def _isolation_hit(self, report, cfg) -> None:
        if report is not None:
            want = tuple(sorted(cfg.scenario.attacked))
            self.hits[cfg.name] = [w.isolated == want for w in report.windows]

    def min_passes(self) -> int:
        return self.size.bundled_min_passes

    def run_pass(self) -> float:
        cfgs, _ = self.state
        out = self.work_dir / "untraced"
        total = 0.0
        for name in self._order():
            self.attempted += 1
            t0 = perf_counter()
            art = run_scenario(cfgs[name], out=str(out))
            total += perf_counter() - t0
            self._check_digests(name, art.out_dir, "run_scenario")
            self._isolation_hit(art.isolation, cfgs[name])
        return total

    def trace_unit(self, tr) -> float:
        cfgs, _ = self.state
        out = self.work_dir / "replay"
        t0 = perf_counter()
        for name in self._order():
            self.attempted += 1
            self._replay(cfgs[name], out / name, tr)
            self._check_digests(name, out / name, "traced replay")
        return perf_counter() - t0

    def _replay(self, cfg, out_dir: Path, tr) -> None:
        """``run_scenario``'s stages, each in its own span."""
        with tr.span("harness.run_scenario", cfg.name):
            out_dir.mkdir(parents=True, exist_ok=True)
            with tr.span("model.simulate", cfg.name):
                trajectory = simulate(cfg.plant, cfg.scenario, ceiling=cfg.ceiling)
            tr.count("model.plant_steps", trajectory.horizon)
            with tr.span("config.build_bank", cfg.name):
                bank, _ = build_bank(cfg)
            tr.count("config.observers_built", len(bank))
            x0_est = cfg.initial_estimate(trajectory.x[0])
            est = _bank_run(bank, trajectory, x0_est, cfg.name, tr)
            run = _run_estimator(cfg.bank, est, trajectory.x, tr)
            if cfg.isolation is not None:
                iso = cfg.isolation
                m_bar = cfg.scenario.noise_bound if iso.m_bar is None else iso.m_bar
                d_bar = cfg.scenario.disturbance_bound if iso.d_bar is None else iso.d_bar
                with tr.span("isolation.compute_thresholds", cfg.name):
                    thresholds = compute_thresholds(
                        cfg.iss_models(), cfg.bank, m_bar, d_bar, iso.eps,
                        k_star_override=iso.k_star,
                    )
                report = _isolate(run, thresholds, iso.window, tr)
                self._isolation_hit(report, cfg)
            writers = {"trajectory.csv": trajectory.write_csv,
                       "frames.csv": lambda fh: frames_to_csv(run, fh)}
            if cfg.isolation is not None:
                writers["isolation_windows.csv"] = lambda fh: windows_to_csv(report, fh)
                writers["isolation_steps.csv"] = lambda fh: steps_to_csv(report, fh)
            texts = {}
            with tr.span("harness.write", cfg.name):
                for fname, write in writers.items():
                    buf = io.StringIO()
                    write(buf)
                    texts[fname] = buf.getvalue()
                    tmp = out_dir / (fname + ".tmp")
                    tmp.write_text(texts[fname])
                    os.replace(tmp, out_dir / fname)
            tr.count("harness.artifact_bytes", sum(len(t.encode()) for t in texts.values()))

    def finish(self) -> dict:
        hits = [h for per in self.hits.values() for h in per]
        return {"isolation_hit_frac": _frac(sum(hits), len(hits)), "isolation_windows": len(hits)}


# --- shared layer calls (traced or not) -----------------------------------------

def _bank_run(bank, trajectory, x0_est, tag, tr):
    with tr.span("observers.bank_run", tag):
        est = bank.run(trajectory.y, trajectory.u, x0_est)
    if tr is not NULL:
        tr.count("observers.observer_steps", est.shape[0] * (est.shape[1] - 1))
        tr.count("observers.diverged_tracks", int((~np.isfinite(est).all(axis=(1, 2))).sum()))
    return est


def _run_estimator(idx, est, truth, tr):
    with tr.span("estimator.run_estimator"):
        run = run_estimator(idx, idx.all_subsets, est, truth=truth)
    if tr is not NULL:
        pairs = sum(len(v) for v in idx.contained.values())
        tr.count("estimator.deviation_pairs", pairs * est.shape[1])
        tr.count("estimator.selection_switches", int(np.count_nonzero(np.diff(run.sigma_idx))))
    return run


def _isolate(run, thresholds, window, tr):
    with tr.span("isolation.windowed_isolation"):
        report = windowed_isolation(run, thresholds, window)
    tr.count("isolation.windows", len(report.windows))
    tr.count("isolation.no_quorum_windows", sum(w.no_quorum for w in report.windows))
    return report


def _frac(num: float, den: float) -> float | None:
    return None if den == 0 else num / den


def _check_selection(wl: Workload, run, steps) -> None:
    """Brute-force pi and argmin at ``steps``, compared bit for bit."""
    p, q = run.bank.p, run.bank.q
    members = [s.members for s in run.subsets]
    jm = brute.j_members(p, q)
    for k in steps:
        track = {m: run.est[j, k].tolist() for j, m in enumerate(members)}
        pi = brute.pi_at_step(track, p, q)
        got = run.pi[k].tolist()
        bad = [m for m, g in zip(jm, got) if pi[m] != g]
        if bad:
            wl.mismatch(f"p={p} q={q} step {k}: pi of {bad[0]} is {got[jm.index(bad[0])]!r}, "
                        f"brute force gives {pi[bad[0]]!r}")
        want = brute.argmin(pi)
        if jm[int(run.sigma_idx[k])] != want:
            wl.mismatch(f"p={p} q={q} step {k}: selected {jm[int(run.sigma_idx[k])]}, "
                        f"brute force selects {want}")


# --- mc-seeds -------------------------------------------------------------------

def _crit1(cfg, e):
    return float(e[40:].max()) < 1e-2


def _crit2(cfg, e):
    steps = cfg.scenario.horizon + 1
    return float(e[steps - steps // 5:].max()) < 1e-2


def _crit3(cfg, e):
    return float(e[150:200].max()) <= cfg.estimator_iss.gamma1 * 0.1


class McSeeds(Workload):
    """Monte-Carlo batches of acceptance criteria 1-3 over a seed block.

    The block is ``mc_block`` consecutive seeds starting at
    ``seed * mc_block``; seed 0 is the block the acceptance tests use.
    A pass is a slice of ``mc_pass`` seeds on all three configs; passes
    cycle through the block, and at least one whole block is run, so
    the counts always cover it.  A slice evens out ``example1``'s cost,
    which differs a lot between a diverging and a converging seed, and
    short passes give a median that rides out the host's speed swings.
    A trace unit is the whole block.  Plant divergence of
    ``example1`` is the documented outcome of those seeds: it is counted
    in ``failed_frac`` and checked against the pinned counts, but is
    not an unexpected failure.  The same holds for the rarer seed on
    which ``example1``'s plant stays bounded but its observers escape,
    so that every deviation score is infinite and ``run_estimator``
    raises ``EstimatorStarvedError`` (seed 5070, in block 50): such a
    run is counted as ``starved``.  On ``example2`` and ``example3``
    either outcome is an unexpected failure.
    """

    name = "mc-seeds"
    pass_label = "block_s"
    configs = ("example1", "example2", "example3")
    rules = {"example1": _crit1, "example2": _crit2, "example3": _crit3}

    def __init__(self, *args):
        super().__init__(*args)
        start = self.seed * self.size.mc_block
        self.block = list(range(start, start + self.size.mc_block))
        self.slices = [self.block[i:i + self.size.mc_pass]
                       for i in range(0, len(self.block), self.size.mc_pass)]
        self.passes = 0
        self.first: dict[tuple[str, int], tuple] = {}
        self.samples: dict[tuple[str, int], object] = {}
        picks = self.rng.choice(len(self.block), size=min(2, len(self.block)), replace=False)
        self.sample_seeds = {self.block[int(i)] for i in picks}
        self.seed_runs = 0
        self.seed_wall = 0.0

    def _one(self, name: str, seed: int, tr):
        cfgs, banks = self.state
        cfg = cfgs[name]
        self.attempted += 1
        try:
            with tr.span("model.simulate", name):
                traj = simulate(cfg.plant, replace(cfg.scenario, seed=seed), ceiling=cfg.ceiling)
        except SimulationDivergedError as exc:
            self.raised += 1
            tr.count("model.plant_steps", exc.step)
            tr.count("model.diverged_runs")
            if name != "example1":
                self.failed += 1
                self.mismatch(f"{name} seed {seed}: unexpected plant divergence")
            return ("diverged",)
        tr.count("model.plant_steps", traj.horizon)
        est = _bank_run(banks[name], traj, cfg.initial_estimate(traj.x[0]), name, tr)
        try:
            run = _run_estimator(cfg.bank, est, traj.x, tr)
        except EstimatorStarvedError as exc:
            self.raised += 1
            if name != "example1":
                self.failed += 1
                self.mismatch(f"{name} seed {seed}: unexpected {exc}")
            return ("starved",)
        e = run.e_norm
        outcome = ("ok" if self.rules[name](cfg, e) else "miss", e.tobytes())
        if seed in self.sample_seeds and (name, seed) not in self.samples:
            self.samples[(name, seed)] = run
        return outcome

    def _seed_pass(self, seed: int, tr) -> None:
        for name in self.configs:
            got = self._one(name, seed, tr)
            key = (name, seed)
            if key not in self.first:
                self.first[key] = got
            elif self.first[key] != got:
                self.mismatch(f"{name} seed {seed}: repeat run differs from the first")

    def min_passes(self) -> int:
        return len(self.slices)

    def run_pass(self) -> float:
        seeds = self.slices[self.passes % len(self.slices)]
        self.passes += 1
        dt = self._seeds(seeds, NULL)
        self.seed_runs += len(seeds) * len(self.configs)
        self.seed_wall += dt
        return dt

    def untraced_unit(self) -> float:
        return sum(self.run_pass() for _ in self.slices)

    def trace_unit(self, tr) -> float:
        return self._seeds(self.block, tr)

    def _seeds(self, seeds, tr) -> float:
        t0 = perf_counter()
        for seed in seeds:
            self._seed_pass(seed, tr)
        return perf_counter() - t0

    def finish(self) -> dict:
        per = {}
        for name in self.configs:
            outs = [self.first[(name, s)][0] for s in self.block]
            per[name] = {"pass": outs.count("ok"), "diverged": outs.count("diverged"),
                         "starved": outs.count("starved"), "attempted": len(outs)}
        if self.size.full and self.seed == 0 and per != GOLDEN["mc_seeds_block0"]:
            self.mismatch(f"counts at seed block 0 are {per}, pinned {GOLDEN['mc_seeds_block0']}")
        for _, run in sorted(self.samples.items()):
            steps = sorted({0, run.horizon} | {int(k) for k in
                            self.rng.integers(0, run.horizon + 1, size=3)})
            _check_selection(self, run, steps)
        n = sum(v["attempted"] for v in per.values())
        return {
            "mc_seeds_per_s": _frac(self.seed_runs, self.seed_wall),
            "fused_ok_frac": _frac(sum(v["pass"] for v in per.values()), n),
            "failed_frac": _frac(sum(v["diverged"] + v["starved"] for v in per.values()), n),
            "seed_block": [self.block[0], self.block[-1]],
            "per_config": per,
            "brute_checked_runs": len(self.samples),
        }


# --- calibrate ------------------------------------------------------------------

class Calibrate(Workload):
    """``harness.calibrate`` on example1-3 at ``Size.cal_trials`` trials.

    ``example1`` fails at once (its plant diverges at step 4 of trial 0);
    that failure is pinned, kept in the pass and in ``failed_frac``, and
    its near-zero time is left out of the pass time, which covers only
    the configs that calibrate.
    """

    name = "calibrate"
    pass_label = "calibrate_s"
    configs = ("example1", "example2", "example3")

    def _settings(self, cfg):
        s = cfg.calibration
        if self.size.cal_trials is not None:
            s = replace(s, trials=self.size.cal_trials)
        if self.size.cal_horizon is not None:
            s = replace(s, horizon=self.size.cal_horizon)
        return s

    def _expect_failure(self, name: str, exc: CalibrationError) -> None:
        want = GOLDEN["calibrate"]["failures"].get(name)
        if want is None:
            self.failed += 1
            self.mismatch(f"{name}: unexpected calibration failure: {exc}")
        elif str(exc) != want:
            self.mismatch(f"{name}: failure message {str(exc)!r} != pinned {want!r}")

    def _check_fit(self, name: str, path: Path) -> None:
        if name in GOLDEN["calibrate"]["failures"]:
            self.mismatch(f"{name}: calibrated, but the pinned outcome is a failure")
            return
        if not self.size.full:
            return
        raw = json.loads(path.read_text())
        got = {label: e["iss"] for label, e in raw["observers"]["bundle"].items()}
        got["estimator"] = raw["estimator"]["iss"]
        for label, want in GOLDEN["calibrate"]["models"][name].items():
            have = got.get(label)
            if have is None or have["k_star"] != want["k_star"] or not all(
                _close(have[k], want[k]) for k in ("c", "lam", "gamma1", "gamma2", "nu")
            ):
                self.mismatch(f"{name} {label}: fitted {have} != pinned {want}")

    def run_pass(self) -> float:
        return self._pass(lambda cfg, out: calibrate(
            cfg, trials=self.size.cal_trials, horizon=self.size.cal_horizon, out_path=out))

    def trace_unit(self, tr) -> float:
        return self._pass(lambda cfg, out: self._replay(cfg, out, tr))

    def _pass(self, call) -> float:
        """Calibrate each config with ``call``; time only those that succeed."""
        cfgs, _ = self.state
        total = 0.0
        for name in self._order():
            self.clock.tick(force=True)  # a pass is one or two long calls
            out = self.work_dir / f"{name}.calibrated.json"
            self.attempted += 1
            t0 = perf_counter()
            try:
                call(cfgs[name], out)
            except CalibrationError as exc:
                self.raised += 1
                self._expect_failure(name, exc)
                continue
            total += perf_counter() - t0
            self._check_fit(name, out)
        return total

    def _replay(self, cfg, out: Path, tr) -> None:
        """``harness.calibrate``'s stages, one span per observer fit."""
        settings = self._settings(cfg)
        if settings.validate():
            raise ConfigurationError(settings.validate())
        m_bar, d_bar = cfg.scenario.noise_bound, cfg.scenario.disturbance_bound
        kinds = 1 + (m_bar > 0) + (d_bar > 0)
        with tr.span("harness.calibrate", cfg.name):
            with tr.span("config.build_bank", cfg.name):
                bank, _ = build_bank(cfg)
            tr.count("config.observers_built", len(bank))
            models, failures = {}, []
            for subset, obs in bank.items():
                try:
                    with tr.span("calibration.estimate_iss_gains", cfg.name):
                        models[subset] = estimate_iss_gains(
                            obs, cfg.plant, m_bar, d_bar, cfg.scenario.x0, settings)
                except CalibrationError as exc:
                    failures.append(f"{subset.label}: {exc}")
                    continue
                tr.count("calibration.plant_sims", settings.trials * kinds)
                tr.count("calibration.observer_steps", settings.trials * kinds * settings.horizon)
            tr.count("calibration.failures", len(failures))
            if failures:
                raise CalibrationError("calibration failed for: " + "; ".join(failures))
            with tr.span("calibration.calibrate_estimator", cfg.name):
                est_model = calibrate_estimator(
                    bank, cfg.bank, cfg.plant, m_bar, d_bar, cfg.scenario.x0, settings,
                    truth_init=cfg.estimator_init == "truth",
                )
            tr.count("calibration.plant_sims", settings.trials * kinds)
            tr.count("calibration.observer_steps",
                     settings.trials * kinds * settings.horizon * len(bank))
            with tr.span("harness.write", cfg.name):
                raw = json.loads(json.dumps(cfg.raw))
                for sub, model in models.items():
                    raw["observers"]["bundle"][sub.label]["iss"] = _model_dict(model)
                raw.setdefault("estimator", {})["iss"] = _model_dict(est_model)
                text = json.dumps(raw, indent=2) + "\n"
                out.write_text(text)
            tr.count("harness.artifact_bytes", len(text.encode()))

    def finish(self) -> dict:
        return {"known_failures": sorted(GOLDEN["calibrate"]["failures"])}


def _model_dict(m: ISSGainModel) -> dict:
    return {"c": m.c, "lam": m.lam, "gamma1": m.gamma1, "gamma2": m.gamma2,
            "nu": m.nu, "k_star": m.k_star}


# --- subset-sweep ---------------------------------------------------------------

_SWEEP_N = 2
_SWEEP_NOISE = 0.05  # clean tracks stay within this distance of the truth


class SubsetSweep(Workload):
    """Selection and isolation alone over growing (p, q) banks.

    Synthetic estimate tracks: sensors 1..q are attacked, every subset
    containing one of them drifts away from the truth, and clean
    subsets stay within ``_SWEEP_NOISE`` of it.  With every declared
    noise level at 1.5 times that bound, the one clean candidate always
    passes its threshold and every other one fails, so each window must
    isolate exactly 1..q.  No simulation and no observer stepping.
    """

    name = "subset-sweep"
    pass_label = "sweep_s"

    def __init__(self, *args):
        super().__init__(*args)
        self.inputs = [self._make_point(p, q) for p, q in self.size.sweep_points]
        self.first_pass: str | None = None
        self.hits: list[bool] = []

    def _make_point(self, p: int, q: int):
        idx = bank_index(p, q)
        T, n, rng = self.size.sweep_T, _SWEEP_N, self.rng
        k = np.arange(T + 1)[:, None]
        truth = rng.uniform(0.5, 2.0, n) * np.sin(rng.uniform(0.01, 0.1, n) * k
                                                   + rng.uniform(0, np.pi, n))
        est = np.empty((len(idx.all_subsets), T + 1, n))
        attacked = set(range(1, q + 1))
        for j, sub in enumerate(idx.all_subsets):
            noise = rng.uniform(-1.0, 1.0, (T + 1, n)) * (_SWEEP_NOISE / math.sqrt(n))
            est[j] = truth + noise
            if attacked & set(sub.members):
                direction = rng.normal(size=n)
                direction /= np.linalg.norm(direction)
                est[j] += (1.0 + 4.0 * k / T) * direction
        gains = {
            sub: ISSGainModel(c=1.0, lam=0.5, nu=1.5 * _SWEEP_NOISE,
                              k_star=int(rng.integers(0, 25)))
            for sub in idx.all_subsets
        }
        return p, q, est, truth, gains

    def setup(self, tr=NULL):
        """bank_index + compute_thresholds for every sweep point."""
        out = []
        for p, q, _, _, gains in self.inputs:
            with tr.span("combinatorics.bank_index", f"p{p}"):
                idx = bank_index(p, q)
            tr.count("combinatorics.subsets", len(idx.all_subsets))
            tr.count("combinatorics.containment_pairs",
                     sum(len(v) for v in idx.contained.values()))
            with tr.span("isolation.compute_thresholds", f"p{p}"):
                thr = compute_thresholds(gains, idx, 0.0, 0.0, 0.0)
            out.append((idx, thr))
        return out

    def trace_unit(self, tr) -> float:
        """All points; each timed alone, with the host reference sampled between them."""
        dt = 0.0
        results = []
        for (idx, thr), (_, _, est, truth, _) in zip(self.state, self.inputs):
            self.clock.tick()
            self.attempted += 1
            t0 = perf_counter()
            run = _run_estimator(idx, est, truth, tr)
            report = _isolate(run, thr, self.size.sweep_window, tr)
            dt += perf_counter() - t0
            results.append((run, report))
        self._record(results)
        return dt

    def _record(self, results) -> None:
        """The first pass is checked by brute force; later ones must repeat it."""
        h = hashlib.sha256()
        for run, report in results:
            h.update(run.pi.tobytes())
            h.update(run.sigma_idx.tobytes())
            h.update(repr(report.windows).encode())
        digest = h.hexdigest()
        if self.first_pass is None:
            self.first_pass = digest
            self._check(results)
        elif digest != self.first_pass:
            self.mismatch("a repeated sweep pass differs from the first")

    def _check(self, results) -> None:
        """Brute-force pi/argmin on sampled steps, unions and votes on every step."""
        for (run, report), (p, q, _, _, gains) in zip(results, self.inputs):
            steps = sorted({0, run.horizon} | {int(k) for k in
                            self.rng.integers(0, run.horizon + 1, size=2)})
            _check_selection(self, run, steps)
            jm = brute.j_members(p, q)
            bars = brute.thresholds({(s.role, s.members): g for s, g in gains.items()},
                                    p, q, 0.0, 0.0, 0.0)
            k_bar = max(g.k_star for g in gains.values())
            unions = {
                k: brute.union_of_passing(dict(zip(jm, run.pi[k].tolist())), bars)
                for k in range(k_bar, run.horizon + 1)
            }
            votes = brute.window_votes(unions, p, q, k_bar, self.size.sweep_window)
            got = [(w.k_start, w.k_end, w.counts, w.winner, w.isolated, w.no_quorum)
                   for w in report.windows]
            if got != votes:
                self.mismatch(f"p={p} q={q}: isolation windows differ from brute force")
            if report.step_unions != unions:
                self.mismatch(f"p={p} q={q}: per-step unions differ from brute force")
            planted = tuple(range(1, q + 1))
            hits = [w.isolated == planted for w in report.windows]
            self.hits += hits
            if not all(hits):
                self.mismatch(f"p={p} q={q}: {hits.count(False)} windows miss the planted set")

    def finish(self) -> dict:
        return {"isolation_hit_frac": _frac(sum(self.hits), len(self.hits)),
                "isolation_windows": len(self.hits),
                "points": [list(pq) for pq in self.size.sweep_points]}


WORKLOADS = {w.name: w for w in (BundledRun, McSeeds, Calibrate, SubsetSweep)}


def percentile_report(samples: list[float]) -> dict:
    """Median, and p90 only when at least ten samples lie above it."""
    out = {"samples": len(samples), "p50": statistics.median(samples)}
    if len(samples) >= 100:
        out["p90"] = float(np.percentile(samples, 90))
        out["above_p90"] = sum(s > out["p90"] for s in samples)
    return out
