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
from .errors import CalibrationError, ConfigurationError
from .estimator import run_estimator
from .model import MAX_HORIZON, InitSpec, PlantModel, signal_stream
from .observers import ISSGainModel, Observer, ObserverBank

__all__ = [
    "CalibrationSettings",
    "estimate_iss_gains",
    "calibrate_estimator",
    "calibrate_bank",
]

TAIL_STATS = ("max", "rms", "median")
_TAIL_FRACTION = 0.25
_CEILING = 1e12


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

    Raises :class:`CalibrationError` when the plant state turns non-finite
    or leaves the ceiling.
    """
    T = horizon
    u = np.zeros((T + 1, plant.n_u))
    x = np.zeros((T + 1, plant.n))
    x[0] = x0_spec.sample(rng)
    x0_est = x[0] + init_scale * rng.standard_normal(plant.n)
    for k in range(T):
        d = dist_amp * rng.uniform(-1.0, 1.0, plant.n_d) if dist_amp > 0 else np.zeros(plant.n_d)
        x[k + 1] = plant.f(x[k], u[k], d, k)
        if not np.all(np.isfinite(x[k + 1])) or np.linalg.norm(x[k + 1]) > _CEILING:
            raise CalibrationError(
                f"plant diverged at step {k + 1} of calibration trial {trial}"
            )
    y = np.stack([np.asarray(plant.h(x[k], u[k]), dtype=float) for k in range(T + 1)])
    if noise_amp > 0:
        y = y + noise_amp * rng.uniform(-1.0, 1.0, y.shape)
    return x, y, u, x0_est


def _error_track(stepper, x, y, u, x0_est, trial: int) -> np.ndarray:
    """The |e(k)| series of ``stepper`` on one plant run.

    ``stepper`` abstracts over a single observer and a full bank: it
    gets (x0_est, y track, u track) and returns the estimate track.
    """
    est = stepper(x0_est, y, u)
    if not np.all(np.isfinite(est)):
        raise CalibrationError(f"observer diverged in calibration trial {trial}")
    return np.linalg.norm(est - x, axis=1)


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


def _collect(plant, steppers, x0_spec, m_bar, d_bar, settings, kind_offset=0):
    """Fit one model per stepper, each (kind, trial) plant run simulated once.

    Every stepper that has not failed yet is run on each plant run, so
    its tracks are the ones it would get alone.  Returns, per stepper,
    its fitted model or the :class:`CalibrationError` of the first trial
    in which the plant or that stepper diverged.
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
    tracks = [([], [], []) for _ in steppers]
    errors: list[CalibrationError | None] = [None] * len(steppers)
    for block, noise_amp, dist_amp in kinds:
        for trial in range(settings.trials):
            live = [i for i, err in enumerate(errors) if err is None]
            if not live:
                break
            rng = _trial_rng(settings.seed, kind_offset + block * settings.trials + trial)
            try:
                run = _plant_run(plant, x0_spec, noise_amp, dist_amp, settings.horizon,
                                 rng, settings.init_scale, trial)
            except CalibrationError as exc:
                for i in live:
                    errors[i] = exc
                continue
            for i in live:
                try:
                    tracks[i][block].append(_error_track(steppers[i], *run, trial))
                except CalibrationError as exc:
                    errors[i] = exc
    return [
        _fit_model(*kind_tracks, m_bar, d_bar, settings) if err is None else err
        for err, kind_tracks in zip(errors, tracks)
    ]


def _observer_stepper(obs: Observer, n: int):
    """Steps one observer over a plant run, on its own sensors' outputs."""
    idx = np.asarray(obs.subset.members, dtype=int) - 1

    def stepper(x0_est, y, u):
        y_J = y[:, idx]
        track = np.empty((y.shape[0], n))
        track[0] = obs.reset(x0_est, y_J[0], u[0])
        for k in range(y.shape[0] - 1):
            track[k + 1] = obs.step(y_J[k], y_J[k + 1], u[k])
        return track

    return stepper


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

    All trials are attack-free with zero input; the observer is reset
    at a perturbed copy of the true initial state each trial.  Raises
    :class:`CalibrationError` when a trial diverges — the observer is
    then not usable on the sampled operating region.
    """
    (result,) = _collect(plant, [_observer_stepper(obs, plant.n)], x0_spec, m_bar, d_bar, settings)
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

    def stepper(x0_est, y, u):
        est = bank.run(y, u, x0_est)
        run = run_estimator(bank_idx, subsets, est)
        return run.x_hat

    eff = settings if not truth_init else replace(settings, init_scale=0.0)
    (result,) = _collect(plant, [stepper], x0_spec, m_bar, d_bar, eff, kind_offset=10_000)
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
    steppers = [_observer_stepper(obs, plant.n) for _, obs in bank.items()]
    results = _collect(plant, steppers, x0_spec, m_bar, d_bar, settings)
    models: dict[SubsetIndex, ISSGainModel] = {}
    failures: list[str] = []
    for (subset, _), result in zip(bank.items(), results):
        if isinstance(result, CalibrationError):
            failures.append(f"{subset.label}: {result}")
        else:
            models[subset] = result
    return models, failures
