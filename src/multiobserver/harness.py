"""End-to-end experiment runner and artifact plumbing.

``run_scenario`` wires plant → bank → selection → isolation and writes
every artifact atomically (temp file + rename) so a crashed run never
leaves a half-written CSV behind.  ``run_seeds`` runs plant → bank →
selection on many seeds of a scenario as one batch.  ``calibrate``
produces a new config with fitted convergence models, leaving the
original file untouched.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import platform
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import calibrate_bank, calibrate_estimator
from .config import ScenarioConfig, build_bank
from .errors import (
    CalibrationError,
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
    simulate,
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


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise PlumbingError(f"cannot write {path}: {exc}") from None


def resolve_out_dir(cfg: ScenarioConfig, out: str | None) -> Path:
    base = out or cfg.out_dir or os.environ.get(OUT_DIR_ENV) or "runs"
    return Path(base) / cfg.name


def run_scenario(
    cfg: ScenarioConfig,
    out: str | None = None,
    overrides: dict | None = None,
) -> RunArtifacts:
    """Simulate, estimate, isolate, and persist one scenario.

    The run directory is made once selection and isolation have
    succeeded, so a failed run leaves none behind.
    """
    started = time.perf_counter()
    trajectory = simulate(cfg.plant, cfg.scenario, ceiling=cfg.ceiling)
    bank, _ = build_bank(cfg)
    est = bank.run(trajectory.y, trajectory.u, cfg.initial_estimate(trajectory.x[0]))
    run = run_estimator(cfg.bank, bank.subsets, est, truth=trajectory.x)
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
            buf = io.StringIO()
            write(result, buf)
            _atomic_write_text(out_dir / name, buf.getvalue())

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
    _atomic_write_text(out_dir / "metadata.json", json.dumps(metadata, indent=2) + "\n")
    log.info("run %s: %d steps, artifacts in %s", cfg.name, cfg.scenario.horizon, out_dir)
    paths = {key: None if name is None else out_dir / name
             for key, name in {**files, "metadata": "metadata.json"}.items()}
    return RunArtifacts(out_dir, paths, trajectory, run, isolation)


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
    plant = cfg.plant
    base = cfg.scenario if scenario is None else scenario
    scenarios = [replace(base, seed=seed) for seed in seeds]
    problems = list(dict.fromkeys(msg for scen in scenarios for msg in scen.validate(plant)))
    entries = len(bank) * len(scenarios) * (base.horizon + 1) * plant.n
    if not problems and entries > MAX_BATCH:
        problems.append(
            f"batch of {len(bank)} observers x {len(scenarios)} seeds x "
            f"{base.horizon + 1} steps x {plant.n} states exceeds {MAX_BATCH} estimates"
        )
    if problems:
        raise ConfigurationError(problems)
    if not scenarios:
        return []
    x0, u, d, m, a = (np.array(signal) for signal in zip(*(draw_run(plant, s) for s in scenarios)))
    x = plant_track(plant, x0, u, d, cfg.ceiling)
    outcomes = [first_divergence(row, cfg.ceiling) for row in x]
    finite = [i for i, diverged in enumerate(outcomes) if diverged is None]
    if finite:
        y = output_track(plant, x[finite], u[finite]) + m[finite] + a[finite]
        x0_est = np.array([cfg.initial_estimate(x[i, 0]) for i in finite])
        est = bank.run(y, u[finite], x0_est)
    for row, i in enumerate(finite):
        try:
            outcomes[i] = run_estimator(cfg.bank, bank.subsets, est[:, row].copy(), truth=x[i])
        except EstimatorStarvedError as exc:
            outcomes[i] = exc
    return [SimulationDivergedError(*out) if isinstance(out, tuple) else out for out in outcomes]


def calibrate(
    cfg: ScenarioConfig,
    trials: int | None = None,
    horizon: int | None = None,
    out_path: str | Path | None = None,
) -> Path:
    """Fit convergence models for the whole bank and write a new config.

    The new file sits next to the original with a ``.calibrated.json``
    suffix (unless ``out_path`` names it) and carries the fitted model
    of every observer plus the fused estimator; the original config is
    never modified.
    """
    settings = cfg.calibration
    if trials is not None:
        settings = replace(settings, trials=trials)
    if horizon is not None:
        settings = replace(settings, horizon=horizon)
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
    m_bar = cfg.scenario.noise_bound
    d_bar = cfg.scenario.disturbance_bound
    models, failures = calibrate_bank(
        bank, cfg.plant, m_bar, d_bar, cfg.scenario.x0, settings
    )
    if failures:
        raise CalibrationError(
            "calibration failed for: " + "; ".join(failures)
        )
    est_model = calibrate_estimator(
        bank, cfg.bank, cfg.plant, m_bar, d_bar, cfg.scenario.x0, settings,
        truth_init=cfg.estimator_init == "truth",
    )

    raw = json.loads(json.dumps(cfg.raw))  # deep copy
    for sub, model in models.items():
        raw["observers"]["bundle"][sub.label]["iss"] = asdict(model)
    raw.setdefault("estimator", {})["iss"] = asdict(est_model)

    out_path = Path(out_path)
    _atomic_write_text(out_path, json.dumps(raw, indent=2) + "\n")
    log.info("calibrated %d observers -> %s", len(models), out_path)
    return out_path
