"""Observer families, their certificates, and the bank container.

Every observer estimates the full plant state from one sensor subset.
An observer holds only its parameters.  Each family has two group
kernels, both classmethods over a list of its observers that map the
outputs y(0..T), the inputs u and the initial guess of each of a batch
of runs to the estimate tracks x_hat(0..T) of the group on each run:

* ``run_group``: :meth:`ObserverBank.run` steps a bank through it;
* ``run_trials``: calibration steps its Monte-Carlo trials through it
  (:func:`run_trials`).

Each row of a batch equals its run stepped alone, bit for bit.  The two
kernels are one except in the circle family, whose ``run_group`` folds
each gain pair into one update while ``run_trials`` keeps the unfolded
arithmetic the calibrated fits are pinned to.  All families share a
one-step schedule: x_hat(k+1) may use both y_J(k) and y_J(k+1), which
keeps estimates from different families aligned on the same time index.

Divergence is never fatal: the selection stage discounts a track with
non-finite estimates.  Tracks keep their first non-finite estimate and
are NaN after it, except the circle family's folded ``run_group``, whose
values after a track's first non-finite estimate are not defined.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .combinatorics import SubsetIndex
from .errors import ConfigurationError
from .model import CircleStructure, ReducedStructure

__all__ = [
    "ISSGainModel",
    "Observer",
    "LuenbergerObserver",
    "ReducedOrderObserver",
    "CircleCriterionObserver",
    "ObserverBank",
    "run_trials",
    "certify_linear_gain",
    "check_slope_condition",
    "CertificateResult",
    "SlopeCheckResult",
]


@dataclass(frozen=True)
class ISSGainModel:
    """Declared convergence behaviour of one observer.

    The error obeys |e(k)| <= c * lam**k * |e(0)| + gamma1 * m_bar +
    gamma2 * d_bar + nu on the operating region, with ``k_star`` the
    declared settling step of the transient term.  ``nu`` > 0 marks a
    practical (biased) observer; the gamma terms are kept linear in the
    bounds, which is all the examples need.
    """

    c: float
    lam: float
    gamma1: float = 0.0
    gamma2: float = 0.0
    nu: float = 0.0
    k_star: int = 0

    def validate(self) -> list[str]:
        problems = []
        if not self.c >= 1.0:
            problems.append(f"overshoot constant must be >= 1, got c={self.c}")
        if not 0.0 < self.lam < 1.0:
            problems.append(f"decay rate must lie in (0, 1), got lam={self.lam}")
        for name in ("gamma1", "gamma2", "nu"):
            if not getattr(self, name) >= 0:  # NaN included
                problems.append(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.k_star < 0:
            problems.append(f"k_star must be nonnegative, got {self.k_star}")
        return problems


class Observer(ABC):
    """Interface every observer family implements.

    ``run_group`` and ``run_trials`` map a batch of B runs, the outputs
    y (B, T+1, p), the inputs u (B, T+1, n_u) and the initial guesses
    x0_est (B, n), to the estimates of ``members``, shape
    (len(members), B, T+1, n).
    """

    subset: SubsetIndex
    n: int

    def __init__(self, subset: SubsetIndex, n: int):
        self.subset = subset
        self.n = n
        self._idx = np.asarray(subset.members, dtype=int) - 1

    def group_key(self) -> tuple:
        """Observers with equal keys are stepped together by one ``run_group``."""
        return (type(self),)

    @classmethod
    @abstractmethod
    def run_group(cls, members: list[Observer], y, u, x0_est) -> np.ndarray: ...

    @classmethod
    def run_trials(cls, members: list[Observer], y, u, x0_est) -> np.ndarray:
        """Estimates of ``members`` on a batch of runs, as calibration steps them."""
        return cls.run_group(members, y, u, x0_est)


def _sticky_nan(est: np.ndarray) -> np.ndarray:
    """Set every estimate after a track's first non-finite one to NaN, in place.

    ``est`` holds tracks along its last two axes, (..., T+1, n).
    """
    bad = np.logical_or.accumulate(~np.isfinite(est).all(axis=-1), axis=-1)
    est[..., 1:, :][bad[..., :-1]] = np.nan
    return est


class LuenbergerObserver(Observer):
    """Full-order copy of the plant with output-injection gain K.

    x_hat(k+1) = f(x_hat(k), u(k)) + K (y_J(k) - h_J(x_hat(k), u(k))).
    Convergence is a local property around the plant's operating
    region; the gain is certified against the linearization.
    """

    def __init__(
        self,
        subset: SubsetIndex,
        f: Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray],
        h: Callable[[np.ndarray, np.ndarray], np.ndarray],
        K: np.ndarray,
        n: int,
        n_d: int = 0,
    ):
        super().__init__(subset, n)
        self.f = f
        self.h = h
        self.K = np.asarray(K, dtype=float)
        if self.K.shape != (n, len(subset)):
            raise ConfigurationError(
                f"gain for {subset} has shape {self.K.shape}, expected ({n}, {len(subset)})"
            )
        self._d0 = np.zeros(n_d)

    @classmethod
    def run_group(cls, members, y, u, x0_est):
        """Step each observer alone on each run, on 1-D states.

        Stacking them would change the bits: numpy's array ``x**3`` can
        take a SIMD ``pow`` that rounds differently from the scalar one.
        ``f`` and ``h`` are never called on a non-finite estimate; the
        rest of that track is NaN.
        """
        T = y.shape[1] - 1
        est = np.full((len(members), len(y), T + 1, members[0].n), np.nan)
        x0 = np.asarray(x0_est, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, obs in enumerate(members):
                for b, (y_b, u_b) in enumerate(zip(y, u)):
                    y_J = y_b[:, obs._idx]
                    x = est[j, b, 0] = x0[b].copy()
                    for k in range(T):
                        if not np.isfinite(x).all():
                            break
                        h_hat = np.asarray(obs.h(x, u_b[k]), dtype=float)[obs._idx]
                        x = np.asarray(obs.f(x, u_b[k], obs._d0, k) + obs.K @ (y_J[k] - h_hat),
                                       dtype=float)
                        est[j, b, k + 1] = x
        return est


_RECONSTRUCTION_TOL = 1e-8


class ReducedOrderObserver(Observer):
    """Observer in partial coordinates z = L x for plants x+ = A x + g(x, u).

    With T = [L; C_J] invertible and (N, M) the blocks of T^-1, the
    update integrates the z-dynamics and rebuilds the estimate from the
    newest measurement:

        z(k+1)      = (A_L - K C_eq) z(k) + (B_L + K ...) terms via the
                      innovation y_J(k+1) - C_J x_pred(k+1),
        x_hat(k+1)  = N z(k+1) + M y_J(k+1),

    where x_pred(k+1) = A x_hat(k) + g(x_hat(k), u(k)) is the one-step
    prediction through the plant map and A_L = L A N, B_L = L A M.
    Correcting z against the predicted output keeps K meaningful: the
    reconstruction itself already matches y_J(k+1) exactly.

    Construction raises :class:`ConfigurationError` when [L; C_J] is
    singular, or when the reconstruction N (L v) + M (C_J v) = v misses
    by more than 1e-8 on n seeded random vectors: the inverse is then too
    ill-conditioned to trust.
    """

    def __init__(
        self,
        subset: SubsetIndex,
        structure: ReducedStructure,
        L: np.ndarray,
        K: np.ndarray | None = None,
    ):
        n = structure.A.shape[0]
        super().__init__(subset, n)
        self.structure = structure
        self.L = np.asarray(L, dtype=float)
        card = len(subset)
        self.nz = n - card
        if self.L.shape != (self.nz, n):
            raise ConfigurationError(
                f"coordinate map for {subset} has shape {self.L.shape}, "
                f"expected ({self.nz}, {n})"
            )
        self.C_J = structure.C[self._idx]
        T = np.vstack([self.L, self.C_J])
        try:
            T_inv = np.linalg.inv(T)
        except np.linalg.LinAlgError:
            raise ConfigurationError(
                f"[L; C_J] is singular for {subset}; pick rows completing C_J to a basis"
            ) from None
        self.N = T_inv[:, : self.nz]
        self.M = T_inv[:, self.nz :]
        rng = np.random.default_rng(0)
        for _ in range(n):
            v = rng.standard_normal(n)
            err = float(np.max(np.abs(self.N @ (self.L @ v) + self.M @ (self.C_J @ v) - v)))
            if err > _RECONSTRUCTION_TOL:
                raise ConfigurationError(
                    f"coordinate reconstruction for {subset} off by {err:.2e} "
                    f"(tol {_RECONSTRUCTION_TOL:.0e}); [L; C_J] is numerically singular"
                )
        self.A_L = self.L @ structure.A @ self.N
        self.B_L = self.L @ structure.A @ self.M
        self.K = (
            np.zeros((self.nz, card)) if K is None else np.asarray(K, dtype=float)
        )
        if self.K.shape != (self.nz, card):
            raise ConfigurationError(
                f"innovation gain for {subset} has shape {self.K.shape}, "
                f"expected ({self.nz}, {card})"
            )

    def group_key(self) -> tuple:
        return (type(self), id(self.structure), self.nz)

    @classmethod
    def run_group(cls, members, y, u, x0_est):
        """Step observers sharing a structure and |J| as one stacked partial state.

        This is also the family's ``run_trials``.  The state has shape
        (B, G, nz), kept as (B, G, nz, 1) columns, so every product is a
        stacked ``np.matmul``, which rounds like each observer's own
        ``2-D @ 1-D`` product (``einsum`` does not).  Rows never interact, so
        each one reproduces the observer stepped alone on its run bit for
        bit.  The terms that depend only on the measurements, B_L y_J(k) and
        M y_J(k+1), are computed for the whole run up front.  ``structure.g``
        receives the (B, G, n) estimates and the (B, 1, n_u) inputs.
        """
        st = members[0].structure
        A_L, B_L, L, K, C_J, N, M = (
            np.stack([getattr(obs, name) for obs in members])
            for name in ("A_L", "B_L", "L", "K", "C_J", "N", "M")
        )
        # (T+1, B, G, |J|, 1); from a C-ordered y, indexing lays it out as
        # (G, |J|, B, T+1), as each observer's own y[:, idx], and BLAS picks its
        # dot kernel by the stride of the sensor axis, so a copy to unit stride
        # changes bits
        y_J = y[..., np.stack([obs._idx for obs in members])].swapaxes(0, -3)[..., None]
        u_k = u.swapaxes(0, -2)[..., None, :]  # (T+1, B, 1, n_u)
        T = y.shape[-2] - 1
        est = np.empty((len(members),) + y.shape[:-1] + (members[0].n,))
        out = est.swapaxes(0, -3)  # (B, G, T+1, n) view
        with np.errstate(over="ignore", invalid="ignore"):
            By, My = B_L @ y_J, M @ y_J
            z = L @ np.asarray(x0_est, dtype=float)[..., None, :, None]
            x = N @ z + My[0]
            out[..., 0, :] = x[..., 0]
            for k in range(T):
                g_val = st.g(x[..., 0], u_k[k])[..., None]
                z_pred = A_L @ z + By[k] + L @ g_val
                x_pred = st.A @ x + g_val
                z = z_pred + K @ (y_J[k + 1] - C_J @ x_pred)
                x = N @ z + My[k + 1]
                out[..., k + 1, :] = x[..., 0]
        return _sticky_nan(est)


class CircleCriterionObserver(Observer):
    """Observer for x+ = A x + G f(H x) with slope-restricted f.

    x_hat(k+1) = A x_hat + G f(H x_hat + K (C_J x_hat - y_J(k)))
                 + L (C_J x_hat - y_J(k)).
    Feeding the innovation into the nonlinearity (via K) is what lets a
    nondecreasing f help rather than hurt convergence.
    """

    def __init__(
        self,
        subset: SubsetIndex,
        structure: CircleStructure,
        K: np.ndarray,
        L: np.ndarray,
    ):
        n = structure.A.shape[0]
        super().__init__(subset, n)
        self.structure = structure
        card = len(subset)
        r = structure.H.shape[0]
        self.K = np.asarray(K, dtype=float)
        self.L = np.asarray(L, dtype=float)
        if self.K.shape != (r, card):
            raise ConfigurationError(
                f"nonlinearity gain for {subset} has shape {self.K.shape}, expected ({r}, {card})"
            )
        if self.L.shape != (n, card):
            raise ConfigurationError(
                f"output gain for {subset} has shape {self.L.shape}, expected ({n}, {card})"
            )
        self.C_J = structure.C[self._idx]

    def group_key(self) -> tuple:
        return (type(self), id(self.structure))

    @classmethod
    def run_trials(cls, members, y, u, x0_est):
        """Step observers sharing a structure on a batch of runs, in the unfolded form above.

        Observers of one |J| advance as one (G_J, B, n) state kept as
        (·, ·, n, 1) columns, so every product is a stacked ``np.matmul``
        that rounds like each observer's own ``2-D @ 1-D`` product: each row
        reproduces the observer stepped alone on its run bit for bit.  The
        calibrated fits (through ``freeze``, the bundled configs' ``iss``) are
        pinned to this form; ROADMAP item 4 step b, a benchmark change,
        moves calibration to the folded ``run_group``.
        """
        st = members[0].structure
        est = np.empty((len(members), y.shape[0], y.shape[1], members[0].n))
        by_card: dict[int, list[int]] = {}
        for j, obs in enumerate(members):
            by_card.setdefault(len(obs.subset), []).append(j)
        x0 = np.asarray(x0_est, dtype=float)[..., None]  # (B, n, 1)
        for rows in by_card.values():
            group = [members[j] for j in rows]
            C_J, K, L = (np.stack([getattr(obs, name) for obs in group])[:, None]
                         for name in ("C_J", "K", "L"))
            y_J = y[..., np.stack([obs._idx for obs in group])].transpose(1, 2, 0, 3)[..., None]
            part = np.empty((len(group),) + est.shape[1:])
            part[:, :, 0] = x0[..., 0]
            x = x0
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(y.shape[1] - 1):
                    innov = C_J @ x - y_J[k]
                    arg = st.H @ x + K @ innov
                    x = st.A @ x + st.G @ st.channels(arg) + L @ innov
                    part[:, :, k + 1] = x[..., 0]
            est[rows] = part
        return _sticky_nan(est)

    @classmethod
    def run_group(cls, members, y, u, x0_est):
        """Step observers sharing a structure together, each gain pair folded into one update.

        The state of all runs is one (B, G, n) array, advanced by
        ``einsum`` through each observer's A + L C_J and H + K C_J.  The
        measurement terms K y_J(k) and L y_J(k) are computed for the whole
        batch up front, each a stacked ``np.matmul`` of the observer's gain
        on one step's outputs.  Rows never interact, so each one equals its
        run stepped alone, bit for bit.  This agrees with ``run_trials`` up
        to rounding, not bit for bit: the two differ by up to 1.3e-14 on the
        bundled example3 and example4 runs.
        """
        st = members[0].structure
        n, r, p = members[0].n, st.H.shape[0], st.C.shape[0]
        nobs = len(members)
        AQ = np.empty((nobs, n, n))
        HP = np.empty((nobs, r, n))
        Lt = np.zeros((nobs, n, p))
        Kt = np.zeros((nobs, r, p))
        for j, obs in enumerate(members):
            AQ[j] = st.A + obs.L @ obs.C_J
            HP[j] = st.H + obs.K @ obs.C_J
            Lt[j][:, obs._idx] = obs.L
            Kt[j][:, obs._idx] = obs.K
        B, T = y.shape[0], y.shape[1] - 1
        est = np.empty((nobs, B, T + 1, n))
        out = est.swapaxes(0, 1)  # (B, G, T+1, n) view
        X = np.repeat(np.asarray(x0_est, dtype=float)[:, None], nobs, axis=1)  # (B, G, n)
        out[:, :, 0] = X
        with np.errstate(over="ignore", invalid="ignore"):
            y_k = y[:, :, None, :, None]  # (B, T+1, 1, p, 1)
            Ky, Ly = (Kt @ y_k)[..., 0], (Lt @ y_k)[..., 0]  # (B, T+1, G, r) and (.., n)
            for k in range(T):
                arg = np.einsum("jrn,bjn->bjr", HP, X) - Ky[:, k]
                X = np.einsum("jmn,bjn->bjm", AQ, X) + st.channels(arg) @ st.G.T - Ly[:, k]
                out[:, :, k + 1] = X
        return est


@dataclass(frozen=True)
class CertificateResult:
    spectral_radius: float
    passed: bool
    margin: float


def certify_linear_gain(
    A: np.ndarray, C_J: np.ndarray, gain: np.ndarray, kind: str, margin: float = 1e-3
) -> CertificateResult:
    """Spectral-radius certificate for the linear part of the error loop.

    kind ``"luenberger"``/``"reduced"`` checks rho(A - gain C_J) — for
    the reduced family pass the partial-coordinate matrices.  kind
    ``"circle"`` checks rho(A + gain C_J), matching that family's
    correction sign.  Passing means the radius clears 1 by ``margin``.
    """
    A = np.asarray(A, dtype=float)
    C_J = np.asarray(C_J, dtype=float)
    gain = np.asarray(gain, dtype=float)
    if kind in ("luenberger", "reduced"):
        closed = A - gain @ C_J
    elif kind == "circle":
        closed = A + gain @ C_J
    else:
        raise ConfigurationError(f"unknown certificate kind {kind!r}")
    rho = float(np.max(np.abs(np.linalg.eigvals(closed))))
    return CertificateResult(rho, rho < 1.0 - margin, margin)


# Points of the sorted grid the slope check evaluates a channel on, both ends included.
_SLOPE_GRID = 4097
# Difference quotient below which the slope check fails: room for rounding.
_SLOPE_TOL = -1e-12


@dataclass(frozen=True)
class SlopeCheckResult:
    passed: bool
    worst_quotient: float
    witness: tuple[float, float] | None


def check_slope_condition(
    channel: Callable[[np.ndarray], np.ndarray],
    box: tuple[float, float],
) -> SlopeCheckResult:
    """Check on a sorted grid that a scalar channel is nondecreasing on a box.

    Evaluates the channel once on ``_SLOPE_GRID`` evenly spaced points
    from lo to hi and requires every quotient (f(w) - f(v)) / (w - v) of
    consecutive points v < w to clear ``_SLOPE_TOL``; the worst such pair
    is returned as the witness of a failure.  The quotient of any pair of
    grid points is a weighted mean of the consecutive quotients between
    them, so no pair of grid points falls below the grid's minimum.
    """
    lo, hi = box
    if not lo < hi:
        raise ConfigurationError(f"slope-check box must have lo < hi, got ({lo}, {hi})")
    v = np.unique(np.linspace(lo, hi, _SLOPE_GRID))  # a narrow box repeats points
    quotients = np.diff(np.asarray(channel(v), dtype=float)) / np.diff(v)
    worst = int(np.argmin(quotients))
    worst_q = float(quotients[worst])
    if not worst_q >= _SLOPE_TOL:  # a NaN quotient fails too
        return SlopeCheckResult(False, worst_q, (float(v[worst]), float(v[worst + 1])))
    return SlopeCheckResult(True, worst_q, None)


class ObserverBank:
    """All observers of a run, keyed by subset, stepped in lockstep."""

    def __init__(self, observers: dict[SubsetIndex, Observer]):
        if not observers:
            raise ConfigurationError("observer bank is empty")
        self.observers = dict(observers)
        dims = {obs.n for obs in observers.values()}
        if len(dims) != 1:
            raise ConfigurationError(f"observers disagree on state dimension: {sorted(dims)}")
        self.n = dims.pop()
        self.subsets = tuple(observers.keys())

    def __len__(self) -> int:
        return len(self.observers)

    def items(self) -> Iterator[tuple[SubsetIndex, Observer]]:
        return iter(self.observers.items())

    def run(self, y: np.ndarray, u: np.ndarray, x0_est: np.ndarray) -> np.ndarray:
        """Estimates for the whole run: array of shape (len(bank), T+1, n).

        With a leading run axis, y (B, T+1, p), u (B, T+1, n_u) and
        x0_est (B, n) map to (len(bank), B, T+1, n), each row as that run
        alone gives it.  Observers with equal ``group_key`` are stepped
        together by their family's ``run_group``: the reduced-order family
        as one stacked state per |J|, the circle family folded, and the
        Luenberger family one observer and one run at a time.
        """
        if y.ndim == 2:
            x0 = np.asarray(x0_est, dtype=float)
            return self.run(y[None], u[None], x0[None])[:, 0]
        return _by_group(list(self.observers.values()), "run_group", y, u, x0_est)


def run_trials(observers: list[Observer], y, u, x0_est) -> np.ndarray:
    """Estimates of ``observers`` on a batch of B runs.

    Each row is its observer stepped alone on that run.  y (B, T+1, p),
    u (B, T+1, n_u) and x0_est (B, n) map to estimates of shape
    (len(observers), B, T+1, n).  Observers with equal ``group_key`` are
    stepped together by their family's ``run_trials``.
    """
    return _by_group(observers, "run_trials", y, u, x0_est)


def _by_group(observers: list[Observer], kernel: str, y, u, x0_est) -> np.ndarray:
    """Step each group of observers with equal ``group_key`` through its family's ``kernel``."""
    groups: dict[tuple, list[int]] = {}
    for j, obs in enumerate(observers):
        groups.setdefault(obs.group_key(), []).append(j)
    est = np.empty((len(observers),) + y.shape[:-1] + (observers[0].n,))
    for rows in groups.values():
        group = [observers[j] for j in rows]
        est[rows] = getattr(type(group[0]), kernel)(group, y, u, x0_est)
    return est
