"""Command-line interface.

Subcommands: ``run`` (simulate + estimate + isolate), ``calibrate``
(fit convergence models into a new bundle), and ``validate`` (load and
certify a config).
Exit codes: 0 success, 1 validation problem, 2 runtime failure
(divergence, starvation, calibration), 3 I/O problem.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from .config import build_bank, load_config
from .errors import (
    CalibrationError,
    ConfigurationError,
    EstimatorStarvedError,
    PlumbingError,
    SimulationDivergedError,
)
from .harness import OUT_DIR_ENV, calibrate, run_scenario

log = logging.getLogger("multiobserver")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiobserver",
        description="Multi-observer state estimation under sensor attacks",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario end to end")
    run.add_argument("--config", required=True, help="scenario config JSON")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--horizon", type=int, help="override the horizon")
    run.add_argument("--window", type=int, help="override the isolation window length")
    run.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")

    cal = sub.add_parser("calibrate", help="fit convergence models into a new bundle")
    cal.add_argument("--config", required=True)
    cal.add_argument("--trials", type=int, help="override calibration trial count")
    cal.add_argument("--horizon", type=int, help="override calibration horizon")
    cal.add_argument("--out", help="path of the calibrated config to write")

    val = sub.add_parser("validate", help="load, dimension-check, and certify a config")
    val.add_argument("--config", required=True)
    return parser


def _apply_run_overrides(cfg, args) -> dict:
    """Apply the run's overrides to ``cfg``; ``run_scenario`` checks the seed
    and horizon before drawing and the window before writing anything."""
    overrides = {}
    if args.seed is not None:
        cfg.scenario = replace(cfg.scenario, seed=args.seed)
        overrides["seed"] = args.seed
    if args.horizon is not None:
        cfg.scenario = replace(cfg.scenario, horizon=args.horizon)
        overrides["horizon"] = args.horizon
    if args.window is not None:
        if cfg.isolation is None:
            raise ConfigurationError(
                ["--window given but the config has no isolation section"]
            )
        cfg.isolation = replace(cfg.isolation, window=args.window)
        overrides["window"] = args.window
    return overrides


def _cmd_run(cfg, args) -> int:
    overrides = _apply_run_overrides(cfg, args)
    artifacts = run_scenario(cfg, out=args.out, overrides=overrides)
    T = cfg.scenario.horizon
    print(f"run complete: {cfg.name}, {T} steps, {T + 1} samples")
    print(f"artifacts: {artifacts.out_dir}")
    if artifacts.isolation is not None:
        verdicts = [
            "{" + ",".join(map(str, w.isolated)) + "}" if w.isolated else
            ("no-quorum" if w.no_quorum else "{}")
            for w in artifacts.isolation.windows
        ]
        print(f"isolated per window: {' '.join(verdicts) if verdicts else '(no windows)'}")
    return 0


def _cmd_calibrate(cfg, args) -> int:
    out_path = calibrate(cfg, trials=args.trials, horizon=args.horizon, out_path=args.out)
    print(f"calibrated bundle written: {out_path}")
    return 0


def _cmd_validate(cfg, args) -> int:
    _, certificates = build_bank(cfg)
    # the loops not marked practical, rounded as printed: a tie names the first in bank order
    held = [(round(cert.margin, 4), round(cert.spectral_radius, 4), sub.label)
            for sub, cert in certificates.items() if not cfg.specs[sub].practical]
    summary = f"{len(held)} certified"
    if held:
        (m, _, least), (_, r, worst) = min(held, key=lambda h: h[0]), max(held, key=lambda h: h[1])
        summary += f": least margin {m:.4f} ({least}), worst radius {r:.4f} ({worst})"
    print(f"OK: {cfg.name} (p={cfg.plant.p}, q={cfg.scenario.q}, "
          f"{len(cfg.bank.all_subsets)} observers; {summary})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handlers = {
        "run": _cmd_run,
        "calibrate": _cmd_calibrate,
        "validate": _cmd_validate,
    }
    try:
        cfg = load_config(args.config)
        return handlers[args.command](cfg, args)
    except ConfigurationError as exc:
        print(f"configuration error ({len(exc.problems)} problem(s)):", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    except (SimulationDivergedError, EstimatorStarvedError, CalibrationError) as exc:
        # raised only after the config loaded
        print(f"runtime failure: {exc} [config sha256 {cfg.sha256[:12]}]", file=sys.stderr)
        return 2
    except (PlumbingError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
