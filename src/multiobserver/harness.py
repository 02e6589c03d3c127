"""End-to-end experiment runner and artifact plumbing.

``run_seeds`` runs plant → bank → selection on many seeds of a scenario
as one batch.  ``run_scenario`` runs its one seed through that batch,
isolates, and writes its artifacts; ``calibrate`` writes a new config
with fitted convergence models, leaving the original file untouched.
Each file streams into ``<name>.tmp``, ``trajectory.csv`` and ``frames.csv``
a row block at a time, and is renamed onto ``<name>`` when complete.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import platform
import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import calibrate_bundle
from .config import ScenarioConfig, build_bank
from .errors import (
    ConfigurationError,
    EstimatorStarvedError,
    PlumbingError,
    SimulationDivergedError,
)
from .estimator import EstimatorRun, frames_to_csv, run_estimator
from .isolation import (
    IsolationReport,
    compute_thresholds,
    steps_to_csv,
    windowed_isolation,
    windows_to_csv,
)
from .model import (
    MAX_BATCH,
    AttackScenario,
    Trajectory,
    draw_run,
    first_divergence,
    output_track,
    plant_track,
)
from .observers import ObserverBank

log = logging.getLogger(__name__)

OUT_DIR_ENV = "MULTIOBSERVER_OUT"

__all__ = ["RunArtifacts", "run_scenario", "run_seeds", "calibrate", "OUT_DIR_ENV"]


@dataclass
class RunArtifacts:
    """Where one scenario run wrote its artifacts, plus its in-memory results.

    ``files`` maps each key of the metadata's ``files``, and ``metadata``,
    to the path written (None for an artifact the run has not).
    """

    out_dir: Path
    files: dict[str, Path | None]
    trajectory: Trajectory
    run: EstimatorRun
    isolation: IsolationReport | None


def _atomic_write(path: Path, write) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise PlumbingError(f"cannot write {path}: {exc}") from None
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def resolve_out_dir(cfg: ScenarioConfig, out: str | None) -> Path:
    base = out or cfg.out_dir or os.environ.get(OUT_DIR_ENV) or "runs"
    return Path(base) / cfg.name


def run_scenario(
    cfg: ScenarioConfig,
    out: str | None = None,
    overrides: dict | None = None,
) -> RunArtifacts:
    """Simulate, estimate, isolate, and persist one scenario.

    The bank is built and certified, then the seed runs as a one-seed
    ``run_seeds`` batch: validated and held to ``MAX_BATCH`` estimates
    before anything is drawn; a divergence or starvation is raised.  The
    run directory is made after isolation, so a failed run leaves none.
    """
    started = time.perf_counter()
    bank, _ = build_bank(cfg)
    outcome = _run_batch(cfg, bank, [cfg.scenario])[0]
    if isinstance(outcome, Exception):
        raise outcome
    trajectory, run = outcome
    thresholds = isolation = None
    if cfg.isolation is not None:
        iso = cfg.isolation
        thresholds = compute_thresholds(
            cfg.iss_models(), cfg.bank, iso.m_bar, iso.d_bar, iso.eps,
            k_star_override=iso.k_star,
        )
        isolation = windowed_isolation(run, thresholds, iso.window)

    # metadata "files" key -> (file, writer, what it writes), in the order the
    # files are written; a file with nothing to write is not written and is null
    table = {
        "trajectory": ("trajectory.csv", Trajectory.write_csv, trajectory),
        "frames": ("frames.csv", frames_to_csv, run),
        "isolation_windows": ("isolation_windows.csv", windows_to_csv, isolation),
        "isolation_steps": ("isolation_steps.csv", steps_to_csv, isolation),
    }
    files = {key: None if result is None else name for key, (name, _, result) in table.items()}
    out_dir = resolve_out_dir(cfg, out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PlumbingError(f"cannot create {out_dir}: {exc}") from None
    for name, write, result in table.values():
        if result is not None:
            _atomic_write(out_dir / name, partial(write, result))

    metadata = {
        "name": cfg.name,
        "config_path": None if cfg.path is None else str(cfg.path),
        "config_sha256": cfg.sha256,
        "seed": cfg.scenario.seed,
        "horizon": cfg.scenario.horizon,
        "overrides": overrides or {},
        "versions": {
            "multiobserver": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": time.perf_counter() - started,
        "files": files,
    }
    if thresholds is not None:
        metadata["isolation"] = {
            "window": cfg.isolation.window,
            "k_bar_star": thresholds.k_bar_star,
            "eps": thresholds.eps,
            "thresholds": {J.label: v for J, v in thresholds.pi_bar.items()},
        }
    paths = {key: None if name is None else out_dir / name
             for key, name in {**files, "metadata": "metadata.json"}.items()}
    _atomic_write(paths["metadata"], lambda fh: fh.write(json.dumps(metadata, indent=2) + "\n"))
    T = cfg.scenario.horizon
    log.info("run %s: %d steps, %d samples, artifacts in %s", cfg.name, T, T + 1, out_dir)
    return RunArtifacts(out_dir, paths, trajectory, run, isolation)


def _run_batch(cfg: ScenarioConfig, bank: ObserverBank, scenarios: list[AttackScenario]) -> list:
    """Each scenario's ``(Trajectory, EstimatorRun)``, or its run's error, stepped as one batch."""
    plant = cfg.plant
    problems = list(dict.fromkeys(msg for scen in scenarios for msg in scen.validate(plant)))
    if not problems and scenarios:
        steps = scenarios[0].horizon + 1
        if len(bank) * len(scenarios) * steps * plant.n > MAX_BATCH:
            problems.append(
                f"batch of {len(bank)} observers x {len(scenarios)} seeds x "
                f"{steps} steps x {plant.n} states exceeds {MAX_BATCH} estimates"
            )
    if problems:
        raise ConfigurationError(problems)
    if not scenarios:
        return []
    x0, u, d, m, a = (np.array(signal) for signal in zip(*(draw_run(plant, s) for s in scenarios)))
    x = plant_track(plant, x0, u, d, cfg.ceiling)
    outcomes = [None if out is None else SimulationDivergedError(*out)
                for out in (first_divergence(row, cfg.ceiling) for row in x)]
    finite = [i for i, out in enumerate(outcomes) if out is None]
    if finite:
        y = output_track(plant, x[finite], u[finite]) + m[finite] + a[finite]
        x0_est = np.array([cfg.initial_estimate(x[i, 0]) for i in finite])
        est = bank.run(y, u[finite], x0_est)
    for row, i in enumerate(finite):
        try:
            outcomes[i] = (Trajectory(x[i], y[row], u[i], d[i], m[i], a[i]),
                           run_estimator(cfg.bank, bank.subsets, est[:, row].copy(), truth=x[i]))
        except EstimatorStarvedError as exc:
            outcomes[i] = exc
    return outcomes


def run_seeds(
    cfg: ScenarioConfig,
    bank: ObserverBank,
    seeds,
    scenario: AttackScenario | None = None,
) -> list[EstimatorRun | SimulationDivergedError | EstimatorStarvedError]:
    """Each seed's run of ``scenario`` (the config's by default), stepped as one batch.

    The outcome of a seed is what ``simulate``, ``bank.run`` and
    ``run_estimator`` give on that seed alone, bit for bit: its
    :class:`EstimatorRun`, or the :class:`SimulationDivergedError` or
    :class:`EstimatorStarvedError` that path raises, returned rather than
    raised; a run's ``est`` is its own array, not a view of the batch.
    Every seed's scenario is validated as ``simulate`` validates it, and a
    batch whose bank estimates would pass ``MAX_BATCH`` entries is
    refused, before anything is drawn.
    """
    base = cfg.scenario if scenario is None else scenario
    outcomes = _run_batch(cfg, bank, [replace(base, seed=seed) for seed in seeds])
    return [out[1] if isinstance(out, tuple) else out for out in outcomes]


def calibrate(
    cfg: ScenarioConfig,
    trials: int | None = None,
    horizon: int | None = None,
    out_path: str | Path | None = None,
) -> Path:
    """Fit convergence models for the whole bank and write a new config.

    The new file sits next to the original with a ``.calibrated.json``
    suffix (unless ``out_path`` names it) and carries the fitted model
    of every observer plus the fused estimator, and the ``trials`` and
    ``horizon`` overrides in its ``calibration`` section; the original
    config is never modified.
    """
    overrides = {k: v for k, v in {"trials": trials, "horizon": horizon}.items() if v is not None}
    settings = replace(cfg.calibration, **overrides)
    if out_path is None and cfg.path is not None:
        out_path = cfg.path.with_name(cfg.path.stem + ".calibrated.json")
    problems = settings.validate()
    if out_path is None:
        problems.append("no output path for the calibrated bundle")
    elif cfg.path is not None and Path(out_path).resolve() == cfg.path.resolve():
        problems.append(f"output path {out_path} is the config itself, which is never modified")
    if problems:
        raise ConfigurationError(problems)

    bank, _ = build_bank(cfg)
    models, est_model = calibrate_bundle(
        bank, cfg.bank, cfg.plant, cfg.scenario.noise_bound, cfg.scenario.disturbance_bound,
        cfg.scenario.x0, settings, truth_init=cfg.estimator_init == "truth",
    )

    raw = json.loads(json.dumps(cfg.raw))  # deep copy
    if overrides:  # the written config records the settings it was fitted with
        raw["calibration"] = {**(raw.get("calibration") or {}), **overrides}
    for sub, model in models.items():
        raw["observers"]["bundle"][sub.label]["iss"] = asdict(model)
    raw.setdefault("estimator", {})["iss"] = asdict(est_model)

    out_path = Path(out_path)
    _atomic_write(out_path, lambda fh: fh.write(json.dumps(raw, indent=2) + "\n"))
    log.info("calibrated %d observers -> %s", len(models), out_path)
    return out_path
