"""Monte-Carlo estimation of observer convergence models.

The declared error model |e(k)| <= c lam^k |e(0)| + gamma1 m_bar +
gamma2 d_bar + nu is fitted from repeated attack-free simulations:

* noise-free trials give the decay envelope (c, lam) — lam from a
  log-linear fit of the decaying segment, c from the worst envelope
  ratio — plus the steady residual nu (practical observers plateau);
* noise-only trials at amplitude m_bar give gamma1 from the worst tail
  error beyond that residual, and disturbance-only trials give gamma2
  the same way.

Every fitted quantity is inflated by a safety factor (c by ``C_SAFETY``).
Two tail statistics are supported: ``"max"`` fits an envelope (worst
tail error across trials — the default, suitable when the model must
upper-bound individual runs); ``"median"`` fits the per-step level
(pooled median of tail errors), which suits isolation thresholds: they
must sit close to typical deviations to stay sensitive to small attacks.
The procedure is deterministic for a fixed seed: each trial draws from
its own counter-based stream.

:func:`calibrate_bundle` runs both fits of a bundle: one per observer,
and one of the fused estimator on its own stream block.  It simulates
both fits' runs in one ``plant_track`` batch, and one tail fits every
row: each observer's estimates, and the fused estimate as one more row.
Every row of a batch equals its run alone, so each observer's model is
the one :func:`estimate_iss_gains` gives it and the estimator's the one
:func:`calibrate_estimator` gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .combinatorics import BankIndex, SubsetIndex
from .errors import CalibrationError, ConfigurationError, EstimatorStarvedError
from .estimator import run_estimator
from .model import (
    DIVERGENCE_CEILING,
    MAX_BATCH,
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
    "calibrate_bundle",
]

TAIL_STATS = ("max", "median")
_TAIL_FRACTION = 0.25
_ESTIMATOR_BLOCK = 10_000  # the estimator fit's first stream, after the observer fits'
C_SAFETY = 1.3  # the safety factor of the envelope constant c
EPS_SETTLE = 1e-2  # k_star is the first k with c lam^k max|e(0)| <= EPS_SETTLE


@dataclass(frozen=True)
class CalibrationSettings:
    """Shared knobs of the fitting procedure."""

    trials: int = 30
    horizon: int = 200
    seed: int = 0
    safety: float = 1.2
    tail_stat: str = "max"

    def validate(self) -> list[str]:
        problems = []
        if self.trials < 1:
            problems.append(f"calibration needs at least one trial, got {self.trials}")
        if self.horizon < 8:
            problems.append(f"calibration horizon too short to fit a decay: {self.horizon}")
        if self.horizon > MAX_HORIZON:
            problems.append(f"calibration horizon {self.horizon} exceeds {MAX_HORIZON} steps")
        elif self.trials * self.horizon > MAX_HORIZON:
            # every trial of a kind is stepped in one batch
            problems.append(f"calibration trials x horizon ({self.trials} x {self.horizon}) "
                            f"exceeds {MAX_HORIZON} steps")
        if self.seed < 0:
            problems.append(f"calibration seed must be >= 0, got {self.seed}")
        if self.safety < 1.0:
            problems.append(f"safety must be >= 1, got {self.safety}")
        if self.tail_stat not in TAIL_STATS:
            problems.append(f"tail_stat must be 'max' or 'median', got {self.tail_stat!r:.40}")
        return problems


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return signal_stream(seed, "calibration", trial)


def _fit_model(tracks, m_bar: float, d_bar: float, settings: CalibrationSettings) -> ISSGainModel:
    """One row's model from its |e(k)| ``tracks``, one per run of every kind: the
    noise-free trials, then the noisy ones if ``m_bar > 0``, then the disturbed
    ones if ``d_bar > 0``."""
    n = settings.trials
    noise_free = list(tracks[:n])
    noisy = list(tracks[n:2 * n]) if m_bar > 0 else []
    disturbed = list(tracks[-n:]) if d_bar > 0 else []
    tail_at = int((1.0 - _TAIL_FRACTION) * (len(noise_free[0]) - 1))
    if settings.tail_stat == "max":
        def tail_level(tracks):
            return max(float(np.max(e[tail_at:])) for e in tracks)
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

    # logs, exps and powers go through math and Python floats: numpy's SIMD
    # kernels for them round differently on different hosts
    lam_fits = []
    for seg in segments:
        if len(seg) < 4:
            continue
        slope = float(np.polyfit(np.arange(len(seg)), list(map(math.log, seg.tolist())), 1)[0])
        # a rising segment clips to 0.9999 either way; capped, exp cannot overflow
        lam_fits.append(min(max(math.exp(min(slope, 0.0)), 1e-6), 0.9999))
    if lam_fits:
        lam = max(lam_fits)
        c = 1.0
        for seg in segments:
            powers = np.array([lam**k for k in range(len(seg))])
            with np.errstate(divide="ignore"):
                ratios = seg / (powers * seg[0])
            c = max(c, float(np.max(ratios)))
        c *= C_SAFETY
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

    if e0_max <= 0 or c * e0_max <= EPS_SETTLE:
        k_star = 0
    else:
        k_star = math.ceil(math.log(EPS_SETTLE / (c * e0_max)) / math.log(lam))
        k_star = max(0, min(k_star, 100 * settings.horizon))
    return ISSGainModel(c=c, lam=lam, gamma1=gamma1, gamma2=gamma2, nu=nu, k_star=k_star)


def _draw_trials(plant, x0_spec, m_bar, d_bar, settings, observers, kind_offset=0,
                 truth_init=False):
    """The draws of one fit's attack-free runs, as arrays along a leading run axis.

    The fit is refused before anything is drawn when stepping ``observers``
    on every run at once would pass ``MAX_BATCH`` estimates.  The runs come
    kind by kind, each in trial order; each draws from its own stream, in
    this order: x(0), the initial error N(0, I) (drawn under ``truth_init``
    too, where the initial estimate is x(0) itself), the disturbances and
    the output noise.  Returns (x0, x0_est, d, noise), noise a list with
    None for a noise-free run.
    """
    problems = settings.validate()
    kinds = [(0, 0.0, 0.0)]  # (stream block, noise amplitude, disturbance amplitude)
    if m_bar > 0:
        kinds.append((1, m_bar, 0.0))
    if d_bar > 0:
        kinds.append((2, 0.0, d_bar))
    entries = observers * len(kinds) * settings.trials * (settings.horizon + 1) * plant.n
    if not problems and entries > MAX_BATCH:
        problems.append(
            f"calibration batch of {observers} observers x {len(kinds)} trial kinds x "
            f"{settings.trials} trials x {settings.horizon + 1} steps x {plant.n} states "
            f"exceeds {MAX_BATCH} estimates"
        )
    if problems:
        raise ConfigurationError(problems)
    T, trials = settings.horizon, settings.trials
    x0, x0_est, d, noise = [], [], [], []
    for block, noise_amp, dist_amp in kinds:
        for trial in range(trials):
            rng = _trial_rng(settings.seed, kind_offset + block * trials + trial)
            x0.append(x0_spec.sample(rng))
            error = rng.standard_normal(plant.n)
            x0_est.append(x0[-1] if truth_init else x0[-1] + error)
            d.append(dist_amp * rng.uniform(-1.0, 1.0, (T, plant.n_d)) if dist_amp > 0
                     else np.zeros((T, plant.n_d)))
            noise.append(noise_amp * rng.uniform(-1.0, 1.0, (T + 1, plant.p)) if noise_amp > 0
                         else None)
    return np.array(x0), np.array(x0_est), np.array(d), noise


def _trial_runs(plant, trials, *fits):
    """The runs of every fit, drawn by :func:`_draw_trials`, simulated as one batch.

    Per fit, its kept runs and its plant error.  A fit keeps its runs before
    the first whose plant state is non-finite or leaves the ceiling at a step
    after 0, as (x, y, u, x0_est) along a leading run axis; that run's
    :class:`CalibrationError` names its step.  ``plant_track`` steps each row
    as that run alone, so a fit's runs do not depend on the other fits.
    """
    x0, d = (np.concatenate([fit[i] for fit in fits]) for i in (0, 2))
    u = np.zeros((len(x0), d.shape[1] + 1, plant.n_u))
    x_all = plant_track(plant, x0, u, d, DIVERGENCE_CEILING)
    results, lo = [], 0
    for _, x0_est, _, noise in fits:
        x, u_fit = x_all[lo:lo + len(x0_est)], u[lo:lo + len(x0_est)]
        lo += len(x0_est)
        diverged = ((run, hit) for run, row in enumerate(x)
                    if (hit := first_divergence(row[1:])) is not None)
        first, hit = next(diverged, (len(x), None))
        plant_error = None if hit is None else CalibrationError(
            f"plant diverged at step {hit[0] + 1} of calibration trial {first % trials}")
        y = output_track(plant, x[:first], u_fit[:first])
        for y_run, noise_run in zip(y, noise):
            if noise_run is not None:
                y_run += noise_run
        results.append(((x[:first], y, u_fit[:first], x0_est[:first]), plant_error))
    return results


def _row_fits(est, runs, plant_error, m_bar, d_bar, settings):
    """Per row of ``est``, an observer's or the fused estimator's estimates on the
    fit's kept ``runs``, its model or its :class:`CalibrationError`: the row's own
    divergence first, then ``plant_error``.  A row diverges in a run where its error
    norm is not finite at some step: its estimate is, or is too large for the norm.
    A run is a trial of its kind, ``run % settings.trials``: the kinds come one
    after another, each in trial order."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm reads as inf
        norms = np.linalg.norm(est - runs[0], axis=-1)
    diverged = ~np.isfinite(norms).all(axis=2)
    results = []
    for tracks, bad in zip(norms, diverged):
        if bad.any():
            results.append(CalibrationError(
                f"observer diverged in calibration trial {np.argmax(bad) % settings.trials}"))
        else:
            results.append(plant_error or _fit_model(tracks, m_bar, d_bar, settings))
    return results


def _estimator_fit(bank, bank_idx, runs, plant_error, m_bar, d_bar, settings, est=None):
    """The fused estimator's model, or its error, on the fit's kept ``runs``, from the
    bank's estimates ``est`` on them (stepped here when not given).  The selected track
    is fitted as one more row: a selection that does not starve is finite at every step."""
    x = runs[0]
    x_hat = x[None]  # no run kept: an empty row, which falls to plant_error
    if len(x):
        if est is None:
            (est,) = _bank_estimates(bank, runs)
        # pi(k) and sigma(k) read step k alone, so one selection over the
        # runs laid end to end scores each run as it alone would be scored
        B, T1, n = x.shape
        try:
            x_hat = run_estimator(bank_idx, bank.subsets, est.reshape(len(bank), B * T1, n)).x_hat
        except EstimatorStarvedError as exc:
            run, step = divmod(exc.step, T1)
            return CalibrationError(f"all deviation scores are infinite at step {step} "
                                    f"of calibration trial {run % settings.trials}")
        x_hat = x_hat.reshape(1, *x.shape)
    (result,) = _row_fits(x_hat, runs, plant_error, m_bar, d_bar, settings)
    return result


def _bank_estimates(bank, *runs):
    """The bank's estimates on each fit's kept ``runs``, stepped in one ``bank.run``."""
    y, u, x0_est = (np.concatenate([run[i] for run in runs]) for i in (1, 2, 3))
    return np.split(bank.run(y, u, x0_est), list(accumulate(len(r[0]) for r in runs[:-1])),
                    axis=1)


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
    then not usable on the sampled operating region.  It remains for the
    benchmark's per-fit replay and as the tests' per-observer reference.
    """
    draws = _draw_trials(plant, x0_spec, m_bar, d_bar, settings, 1)
    ((runs, plant_error),) = _trial_runs(plant, settings.trials, draws)
    (result,) = _row_fits(run_trials([obs], *runs[1:]), runs, plant_error,
                          m_bar, d_bar, settings)
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
    fit reduces to the steady terms).  It remains, as
    :func:`estimate_iss_gains` does, for the benchmark and the tests.
    """
    draws = _draw_trials(plant, x0_spec, m_bar, d_bar, settings, len(bank), _ESTIMATOR_BLOCK,
                         truth_init)
    ((runs, plant_error),) = _trial_runs(plant, settings.trials, draws)
    return _fitted(_estimator_fit(bank, bank_idx, runs, plant_error, m_bar, d_bar, settings))


def calibrate_bundle(
    bank: ObserverBank,
    bank_idx: BankIndex,
    plant: PlantModel,
    m_bar: float,
    d_bar: float,
    x0_spec: InitSpec,
    settings: CalibrationSettings = CalibrationSettings(),
    truth_init: bool = False,
) -> tuple[dict[SubsetIndex, ISSGainModel], ISSGainModel]:
    """Every observer's model, as :func:`estimate_iss_gains` fits it alone, and
    the fused estimator's, as :func:`calibrate_estimator` fits it, bit for bit.

    The bank is stepped once over both fits' kept runs when every observer
    calibrates through its bank kernel (Luenberger and reduced-order), the
    union stays within ``MAX_BATCH`` estimates and the observer fits kept
    every run.  Otherwise the observer fits are finished, and their
    estimates dropped, before the estimator's fit steps the bank.  Raises
    :class:`CalibrationError` naming every failed observer fit in bank
    order, else the estimator fit's.
    """
    observers = list(bank.observers.values())
    draws = _draw_trials(plant, x0_spec, m_bar, d_bar, settings, len(bank))
    est_draws = _draw_trials(plant, x0_spec, m_bar, d_bar, settings, len(bank), _ESTIMATOR_BLOCK,
                             truth_init)
    (runs, plant_error), (est_runs, est_error) = _trial_runs(plant, settings.trials,
                                                             draws, est_draws)
    # a family that keeps Observer.run_trials calibrates through its run_group
    shared_kernel = all(type(obs).run_trials.__func__ is Observer.run_trials.__func__
                        for obs in observers)
    if shared_kernel and plant_error is None and MAX_BATCH >= (
            len(bank) * (len(runs[0]) + len(est_runs[0])) * (settings.horizon + 1) * plant.n):
        est, bank_est = _bank_estimates(bank, runs, est_runs)
    else:
        est, bank_est = run_trials(observers, *runs[1:]), None
    models, failures = {}, []
    for subset, result in zip(bank.subsets, _row_fits(est, runs, plant_error,
                                                      m_bar, d_bar, settings)):
        if isinstance(result, CalibrationError):
            failures.append(f"{subset.label}: {result}")
        else:
            models[subset] = result
    del est
    if failures:
        raise CalibrationError("calibration failed for: " + "; ".join(failures))
    return models, _fitted(_estimator_fit(bank, bank_idx, est_runs, est_error,
                                          m_bar, d_bar, settings, bank_est))
