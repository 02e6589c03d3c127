"""End-to-end experiment runner and artifact plumbing.

``run_scenario`` wires plant → bank → selection → isolation and writes
every artifact atomically (temp file + rename) so a crashed run never
leaves a half-written CSV behind.  ``calibrate`` produces a new config
with fitted convergence models, leaving the original file untouched.
"""

from __future__ import annotations

import csv
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
from .config import BankBuildReport, ScenarioConfig, build_bank
from .errors import CalibrationError, ConfigurationError, PlumbingError
from .estimator import EstimatorRun, frames_to_csv, run_estimator
from .isolation import (
    IsolationReport,
    ThresholdTable,
    compute_thresholds,
    steps_to_csv,
    windowed_isolation,
    windows_to_csv,
)
from .model import Trajectory, simulate

log = logging.getLogger(__name__)

OUT_DIR_ENV = "MULTIOBSERVER_OUT"

__all__ = ["RunArtifacts", "run_scenario", "calibrate", "emit_plots", "OUT_DIR_ENV"]


@dataclass
class RunArtifacts:
    """Paths plus in-memory results of one scenario run."""

    out_dir: Path
    trajectory_csv: Path
    frames_csv: Path
    metadata_json: Path
    isolation_windows_csv: Path | None
    isolation_steps_csv: Path | None
    trajectory: Trajectory
    run: EstimatorRun
    thresholds: ThresholdTable | None
    isolation: IsolationReport | None
    bank_report: BankBuildReport
    wall_time_s: float


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise PlumbingError(f"cannot write {path}: {exc}") from None


def resolve_out_dir(cfg: ScenarioConfig, out: str | None) -> Path:
    base = out or cfg.out_dir or os.environ.get(OUT_DIR_ENV) or "runs"
    return Path(base) / cfg.name


def run_scenario(
    cfg: ScenarioConfig,
    out: str | None = None,
    overrides: dict | None = None,
) -> RunArtifacts:
    """Simulate, estimate, isolate, and persist one scenario."""
    started = time.perf_counter()
    out_dir = resolve_out_dir(cfg, out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PlumbingError(f"cannot create {out_dir}: {exc}") from None

    try:
        trajectory = simulate(cfg.plant, cfg.scenario, ceiling=cfg.ceiling)
        bank, bank_report = build_bank(cfg)
        x0_est = cfg.initial_estimate(trajectory.x[0])
        est = bank.run(trajectory.y, trajectory.u, x0_est)
        run = run_estimator(cfg.bank, cfg.bank.all_subsets, est, truth=trajectory.x)

        thresholds = None
        isolation = None
        if cfg.isolation is not None:
            iso = cfg.isolation
            m_bar = cfg.scenario.noise_bound if iso.m_bar is None else iso.m_bar
            d_bar = cfg.scenario.disturbance_bound if iso.d_bar is None else iso.d_bar
            thresholds = compute_thresholds(
                cfg.iss_models(), cfg.bank, m_bar, d_bar, iso.eps,
                k_star_override=iso.k_star,
            )
            isolation = windowed_isolation(run, thresholds, iso.window)
    except Exception as exc:
        exc.config_sha256 = cfg.sha256
        raise

    # (file, writer, what it writes), in the order the files are written
    artifacts = [
        ("trajectory.csv", Trajectory.write_csv, trajectory),
        ("frames.csv", frames_to_csv, run),
    ]
    if isolation is not None:
        artifacts += [
            ("isolation_windows.csv", windows_to_csv, isolation),
            ("isolation_steps.csv", steps_to_csv, isolation),
        ]
    paths = {}
    for name, write, result in artifacts:
        buf = io.StringIO()
        write(result, buf)
        paths[name] = out_dir / name
        _atomic_write_text(paths[name], buf.getvalue())

    wall = time.perf_counter() - started
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
        "wall_time_s": wall,
        "files": {
            "trajectory": "trajectory.csv",
            "frames": "frames.csv",
            "isolation_windows": None if isolation is None else "isolation_windows.csv",
            "isolation_steps": None if isolation is None else "isolation_steps.csv",
        },
    }
    if thresholds is not None:
        metadata["isolation"] = {
            "window": cfg.isolation.window,
            "k_bar_star": thresholds.k_bar_star,
            "eps": thresholds.eps,
            "thresholds": {J.label: v for J, v in thresholds.pi_bar.items()},
        }
    metadata_json = out_dir / "metadata.json"
    _atomic_write_text(metadata_json, json.dumps(metadata, indent=2) + "\n")
    log.info("run %s: %d steps, artifacts in %s", cfg.name, cfg.scenario.horizon, out_dir)

    return RunArtifacts(
        out_dir=out_dir,
        trajectory_csv=paths["trajectory.csv"],
        frames_csv=paths["frames.csv"],
        metadata_json=metadata_json,
        isolation_windows_csv=paths.get("isolation_windows.csv"),
        isolation_steps_csv=paths.get("isolation_steps.csv"),
        trajectory=trajectory,
        run=run,
        thresholds=thresholds,
        isolation=isolation,
        bank_report=bank_report,
        wall_time_s=wall,
    )


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
    problems = settings.validate()
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

    if out_path is None:
        if cfg.path is None:
            raise ConfigurationError(["no output path for the calibrated bundle"])
        out_path = cfg.path.with_name(cfg.path.stem + ".calibrated.json")
    out_path = Path(out_path)
    _atomic_write_text(out_path, json.dumps(raw, indent=2) + "\n")
    log.info("calibrated %d observers -> %s", len(models), out_path)
    return out_path


def _read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise PlumbingError(f"cannot read {path}: {exc}") from None
    if not rows:
        return [], []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(rows[0]):
            raise PlumbingError(f"{path}: row {i} has {len(row)} fields, header {len(rows[0])}")
    return rows[0], rows[1:]


def _columns(path: Path, header: list[str], name: str, prefix: bool = False) -> list[int]:
    """Indices of the header's ``name`` column (every column starting with it, for a prefix)."""
    cols = [i for i, col in enumerate(header) if (col.startswith(name) if prefix else col == name)]
    if not cols:
        raise PlumbingError(f"{path}: no {name}{'*' if prefix else ''} column")
    return cols


def emit_plots(artifacts_dir: str | Path) -> list[Path]:
    """Produce plot-ready columnar files from a run's artifacts.

    ``states_fig.csv`` interleaves true and estimated states per step;
    ``error_fig.csv`` is the error-norm track; ``isolation_fig.csv``
    has one row per window and isolated sensor, with 0 standing for
    the empty set so the verdict track plots as a scatter.
    """
    out_dir = Path(artifacts_dir)
    meta_path = out_dir / "metadata.json"
    if not meta_path.exists():
        raise PlumbingError(f"no metadata.json under {out_dir}; not a run directory?")
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise PlumbingError(f"cannot read {meta_path}: {exc}") from None
    files = meta.get("files") if isinstance(meta, dict) else None
    if not (
        isinstance(files, dict)
        and isinstance(files.get("trajectory"), str)
        and isinstance(files.get("frames"), str)
        and isinstance(files.get("isolation_windows"), (str, type(None)))
    ):
        raise PlumbingError(f"{meta_path} does not name the run's artifact files")
    produced: list[Path] = []

    trajectory, frames = out_dir / files["trajectory"], out_dir / files["frames"]
    header, rows = _read_csv_rows(trajectory)
    f_header, f_rows = _read_csv_rows(frames)
    states_path = out_dir / "states_fig.csv"
    error_path = out_dir / "error_fig.csv"
    if not rows or not f_rows:
        log.warning("empty run artifacts in %s; emitting empty plot files", out_dir)
        _atomic_write_text(states_path, "")
        _atomic_write_text(error_path, "")
        produced += [states_path, error_path]
    else:
        x_cols = _columns(trajectory, header, "x", prefix=True)
        xh_cols = _columns(frames, f_header, "xhat", prefix=True)
        e_col = _columns(frames, f_header, "e_norm")[0]
        lines = ["k," + ",".join(
            f"x{i + 1},xhat{i + 1}" for i in range(len(x_cols))
        )]
        for row, f_row in zip(rows, f_rows):
            pairs = []
            for xc, xhc in zip(x_cols, xh_cols):
                pairs += [row[xc], f_row[xhc]]
            lines.append(row[0] + "," + ",".join(pairs))
        _atomic_write_text(states_path, "\n".join(lines) + "\n")
        e_lines = ["k,e_norm"] + [f"{r[0]},{r[e_col]}" for r in f_rows]
        _atomic_write_text(error_path, "\n".join(e_lines) + "\n")
        produced += [states_path, error_path]

    if files.get("isolation_windows"):
        windows = out_dir / files["isolation_windows"]
        w_header, w_rows = _read_csv_rows(windows)
        iso_col = _columns(windows, w_header, "isolated_set")[0] if w_rows else None
        lines = ["window_i,isolated_sensor"]
        for row in w_rows:
            window_i, isolated = row[0], row[iso_col]
            if isolated:
                for sensor in isolated.split(","):
                    lines.append(f"{window_i},{sensor}")
            else:
                lines.append(f"{window_i},0")
        iso_path = out_dir / "isolation_fig.csv"
        _atomic_write_text(iso_path, "\n".join(lines) + "\n")
        produced.append(iso_path)
    for path in produced:
        log.info("wrote %s", path)
    return produced
