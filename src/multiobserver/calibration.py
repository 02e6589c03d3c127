"""Monte-Carlo estimation of observer convergence models.

The declared error model |e(k)| <= c lam^k |e(0)| + gamma1 m_bar +
gamma2 d_bar + nu is fitted from repeated attack-free simulations:

* noise-free trials give the decay envelope (c, lam) — lam from a
  log-linear fit of the decaying segment, c from the worst envelope
  ratio — plus the steady residual nu (practical observers plateau);
* noise-only trials at amplitude m_bar give gamma1 from the worst tail
  error beyond that residual, and disturbance-only trials give gamma2
  the same way.

Every fitted quantity is inflated by a safety factor.  Three tail
statistics are supported: ``"max"`` fits an envelope (worst tail error
across trials — the default, suitable when the model must upper-bound
individual runs); ``"rms"`` fits the nominal response level (median
across trials of the tail RMS); ``"median"`` fits the per-step level
(pooled median of tail errors).  The non-envelope statistics suit
isolation thresholds, which must sit close to typical deviations to
stay sensitive to small attacks.  The procedure is deterministic for
a fixed seed: each trial draws from its own counter-based stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .combinatorics import BankIndex, SubsetIndex
from .errors import CalibrationError, ConfigurationError, EstimatorStarvedError
from .estimator import run_estimator
from .model import (
    DIVERGENCE_CEILING,
    MAX_HORIZON,
    InitSpec,
    PlantModel,
    first_divergence,
    output_track,
    plant_track,
    signal_stream,
)
from .observers import ISSGainModel, Observer, ObserverBank, run_trials

__all__ = [
    "CalibrationSettings",
    "estimate_iss_gains",
    "calibrate_estimator",
    "calibrate_bank",
]

TAIL_STATS = ("max", "rms", "median")
_TAIL_FRACTION = 0.25


@dataclass(frozen=True)
class CalibrationSettings:
    """Shared knobs of the fitting procedure.

    ``init_scale`` is the radius of the random initial estimation
    error; ``eps_settle`` defines the declared settling step k_star as
    the first k with c lam^k max|e(0)| <= eps_settle.
    """

    trials: int = 30
    horizon: int = 200
    seed: int = 0
    safety: float = 1.2
    c_safety: float = 1.3
    init_scale: float = 1.0
    eps_settle: float = 1e-2
    tail_stat: str = "max"

    def validate(self) -> list[str]:
        problems = []
        if self.trials < 1:
            problems.append(f"calibration needs at least one trial, got {self.trials}")
        if self.horizon < 8:
            problems.append(f"calibration horizon too short to fit a decay: {self.horizon}")
        if self.horizon > MAX_HORIZON:
            problems.append(f"calibration horizon {self.horizon} exceeds {MAX_HORIZON} steps")
        if self.seed < 0:
            problems.append(f"calibration seed must be >= 0, got {self.seed}")
        if self.safety < 1.0 or self.c_safety < 1.0:
            problems.append("safety factors must be >= 1")
        if self.init_scale < 0 or self.eps_settle <= 0:
            problems.append("init_scale must be >= 0 and eps_settle > 0")
        if self.tail_stat not in TAIL_STATS:
            problems.append(
                f"tail_stat must be 'max', 'rms', or 'median', got {self.tail_stat!r:.40}"
            )
        return problems


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return signal_stream(seed, "calibration", trial)


def _plant_run(
    plant: PlantModel,
    x0_spec: InitSpec,
    noise_amp: float,
    dist_amp: float,
    horizon: int,
    rng: np.random.Generator,
    init_scale: float,
    trial: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One attack-free plant run: the (x, y, u) tracks and the initial estimate.

    Draws x(0), the initial estimate, the disturbances and the output
    noise, in that order.  Raises :class:`CalibrationError` naming the
    first step after 0 at which the plant state is non-finite or leaves
    the ceiling.
    """
    u = np.zeros((horizon + 1, plant.n_u))
    x0 = x0_spec.sample(rng)
    x0_est = x0 + init_scale * rng.standard_normal(plant.n)
    d = np.zeros((horizon, plant.n_d))
    if dist_amp > 0:
        d = dist_amp * rng.uniform(-1.0, 1.0, d.shape)
    x = plant_track(plant, x0, u, d, DIVERGENCE_CEILING)
    diverged = first_divergence(x[1:])
    if diverged is not None:
        raise CalibrationError(
            f"plant diverged at step {diverged[0] + 1} of calibration trial {trial}"
        )
    y = output_track(plant, x, u)
    if noise_amp > 0:
        y = y + noise_amp * rng.uniform(-1.0, 1.0, y.shape)
    return x, y, u, x0_est


def _error_tracks(est: np.ndarray, x: np.ndarray) -> np.ndarray | CalibrationError:
    """The |e(k)| series (B, T+1) of one fit's estimates (B, T+1, n) on B plant runs.

    Returns the :class:`CalibrationError` of the first run whose
    estimates are not all finite instead.
    """
    diverged = ~np.isfinite(est).all(axis=(1, 2))
    if diverged.any():
        return CalibrationError(
            f"observer diverged in calibration trial {int(np.argmax(diverged))}"
        )
    return np.linalg.norm(est - x, axis=-1)


def _observer_tracks(observers: list[Observer]):
    """``_collect``'s stepping for observers: every live one on all runs of a kind at once."""

    def track_kind(live, x, y, u, x0_est):
        est = run_trials([observers[i] for i in live], y, u, x0_est)
        return [_error_tracks(e, x) for e in est]

    return track_kind


def _fit_model(
    noise_free: list[np.ndarray],
    noisy: list[np.ndarray],
    disturbed: list[np.ndarray],
    m_bar: float,
    d_bar: float,
    settings: CalibrationSettings,
) -> ISSGainModel:
    tail_at = int((1.0 - _TAIL_FRACTION) * (len(noise_free[0]) - 1))
    if settings.tail_stat == "max":
        def tail_level(tracks):
            return max(float(np.max(e[tail_at:])) for e in tracks)
    elif settings.tail_stat == "rms":
        def tail_level(tracks):
            return float(np.median([np.sqrt(np.mean(e[tail_at:] ** 2)) for e in tracks]))
    else:  # "median": per-step level, pooled across trials
        def tail_level(tracks):
            return float(np.median(np.concatenate([e[tail_at:] for e in tracks])))
    plateaus = [float(np.max(e[tail_at:])) for e in noise_free]
    nu_raw = tail_level(noise_free)
    e0_max = max(float(e[0]) for e in noise_free)

    # each trial's decaying segment: its steps before it first reaches its floor
    segments = []
    for e, plateau in zip(noise_free, plateaus):
        if e[0] <= 0:
            continue
        floor = max(10.0 * plateau, e[0] * 1e-10, 1e-300)
        below = np.nonzero(e <= floor)[0]
        cut = int(below[0]) if below.size else len(e)
        if cut:
            segments.append(e[:cut])

    lam_fits = []
    for seg in segments:
        if len(seg) < 4:
            continue
        slope = np.polyfit(np.arange(len(seg)), np.log(seg), 1)[0]
        lam_fits.append(float(np.clip(np.exp(slope), 1e-6, 0.9999)))
    if lam_fits:
        lam = max(lam_fits)
        c = 1.0
        for seg in segments:
            ks = np.arange(len(seg))
            with np.errstate(divide="ignore"):
                ratios = seg / (lam**ks * seg[0])
            c = max(c, float(np.max(ratios)))
        c *= settings.c_safety
    else:
        # Degenerate: every trial started error-free; any decay model works.
        lam, c = 0.5, 1.0

    nu = settings.safety * nu_raw
    gamma1 = 0.0
    if m_bar > 0 and noisy:
        gamma1 = settings.safety * max(tail_level(noisy) - nu_raw, 0.0) / m_bar
    gamma2 = 0.0
    if d_bar > 0 and disturbed:
        gamma2 = settings.safety * max(tail_level(disturbed) - nu_raw, 0.0) / d_bar

    if e0_max <= 0 or c * e0_max <= settings.eps_settle:
        k_star = 0
    else:
        k_star = int(np.ceil(np.log(settings.eps_settle / (c * e0_max)) / np.log(lam)))
        k_star = max(0, min(k_star, 100 * settings.horizon))
    return ISSGainModel(c=c, lam=lam, gamma1=gamma1, gamma2=gamma2, nu=nu, k_star=k_star)


def _collect(plant, fits, track_kind, x0_spec, m_bar, d_bar, settings, kind_offset=0):
    """Fit ``fits`` models, each (kind, trial) plant run simulated once.

    The plant runs of a kind are simulated in trial order up to the first
    that diverges.  ``track_kind(live, x, y, u, x0_est)`` then gets the
    indices of the fits that have not failed yet and those runs, stacked
    with the trial as the leading axis, and returns for each live fit its
    |e(k)| tracks (B, T+1) or the :class:`CalibrationError` of its first
    failing trial.  Returns, per fit, its model or the error of the first
    trial in which the plant diverged or that fit diverged or starved.
    """
    problems = settings.validate()
    if problems:
        raise ConfigurationError(problems)
    # (stream block, noise amplitude, disturbance amplitude) per trial kind
    kinds = [(0, 0.0, 0.0)]
    if m_bar > 0:
        kinds.append((1, m_bar, 0.0))
    if d_bar > 0:
        kinds.append((2, 0.0, d_bar))
    tracks = [([], [], []) for _ in range(fits)]
    errors: list[CalibrationError | None] = [None] * fits
    for block, noise_amp, dist_amp in kinds:
        live = [i for i, err in enumerate(errors) if err is None]
        if not live:
            break
        runs, plant_error = [], None
        for trial in range(settings.trials):
            rng = _trial_rng(settings.seed, kind_offset + block * settings.trials + trial)
            try:
                runs.append(_plant_run(plant, x0_spec, noise_amp, dist_amp, settings.horizon,
                                       rng, settings.init_scale, trial))
            except CalibrationError as exc:
                plant_error = exc
                break
        if runs:
            for i, result in zip(live, track_kind(live, *map(np.stack, zip(*runs)))):
                if isinstance(result, CalibrationError):
                    errors[i] = result
                else:
                    tracks[i][block].extend(result)
        if plant_error is not None:
            for i in live:
                if errors[i] is None:
                    errors[i] = plant_error
    return [
        _fit_model(*kind_tracks, m_bar, d_bar, settings) if err is None else err
        for err, kind_tracks in zip(errors, tracks)
    ]


def _fitted(result: ISSGainModel | CalibrationError) -> ISSGainModel:
    if isinstance(result, CalibrationError):
        raise result
    return result


def estimate_iss_gains(
    obs: Observer,
    plant: PlantModel,
    m_bar: float,
    d_bar: float,
    x0_spec: InitSpec,
    settings: CalibrationSettings = CalibrationSettings(),
) -> ISSGainModel:
    """Fit the convergence model of a single observer by simulation.

    All trials are attack-free with zero input; each trial's track
    starts at a perturbed copy of the true initial state.  Raises
    :class:`CalibrationError` when a trial diverges — the observer is
    then not usable on the sampled operating region.
    """
    (result,) = _collect(plant, 1, _observer_tracks([obs]), x0_spec, m_bar, d_bar, settings)
    return _fitted(result)


def calibrate_estimator(
    bank: ObserverBank,
    bank_idx: BankIndex,
    plant: PlantModel,
    m_bar: float,
    d_bar: float,
    x0_spec: InitSpec,
    settings: CalibrationSettings = CalibrationSettings(),
    truth_init: bool = False,
) -> ISSGainModel:
    """Fit a convergence model for the fused (selected) estimate.

    Runs the whole bank plus selection attack-free and fits the same
    model shape to |x_hat(k) - x(k)|.  ``truth_init`` starts the bank
    at the true state (then the transient term is degenerate and the
    fit reduces to the steady terms).
    """
    subsets = bank_idx.all_subsets

    def track_kind(live, x, y, u, x0_est):
        tracks = []
        for trial in range(len(x)):
            try:
                est = run_estimator(bank_idx, subsets, bank.run(y[trial], u[trial], x0_est[trial]))
            except EstimatorStarvedError as exc:
                return [CalibrationError(f"all deviation scores are infinite at step {exc.step} "
                                         f"of calibration trial {trial}")]
            if not np.all(np.isfinite(est.x_hat)):
                return [CalibrationError(f"observer diverged in calibration trial {trial}")]
            tracks.append(np.linalg.norm(est.x_hat - x[trial], axis=-1))
        return [tracks]

    eff = settings if not truth_init else replace(settings, init_scale=0.0)
    (result,) = _collect(plant, 1, track_kind, x0_spec, m_bar, d_bar, eff, kind_offset=10_000)
    return _fitted(result)


def calibrate_bank(
    bank: ObserverBank,
    plant: PlantModel,
    m_bar: float,
    d_bar: float,
    x0_spec: InitSpec,
    settings: CalibrationSettings = CalibrationSettings(),
) -> tuple[dict[SubsetIndex, ISSGainModel], list[str]]:
    """Fit every observer in the bank; collect failures per subset.

    The observers share each trial's plant run, and each one's fit is
    the one :func:`estimate_iss_gains` gives it alone.  Returns the
    fitted models plus a list of per-subset failure messages in bank
    order (empty when all succeeded).
    """
    observers = list(bank.observers.values())
    results = _collect(plant, len(observers), _observer_tracks(observers), x0_spec,
                       m_bar, d_bar, settings)
    models: dict[SubsetIndex, ISSGainModel] = {}
    failures: list[str] = []
    for (subset, _), result in zip(bank.items(), results):
        if isinstance(result, CalibrationError):
            failures.append(f"{subset.label}: {result}")
        else:
            models[subset] = result
    return models, failures
