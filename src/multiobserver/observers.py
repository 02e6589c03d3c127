"""Observer families, their certificates, and the bank container.

Every observer estimates the full plant state from one sensor subset.
All families share a one-step schedule: after y(k+1) is measured, the
bank produces x_hat(k+1) for every subset.  ``step`` therefore receives
both y_J(k) and y_J(k+1); families that only need one of them ignore
the other, which keeps estimates from different families aligned on
the same time index.

A diverged observer (non-finite internal state) is never fatal: it
keeps returning a NaN estimate and the selection stage discounts it.
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
    "build_reduced_observer",
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
            if getattr(self, name) < 0:
                problems.append(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.k_star < 0:
            problems.append(f"k_star must be nonnegative, got {self.k_star}")
        return problems

    def steady_bound(self, m_bar: float, d_bar: float) -> float:
        """Post-transient error bound gamma1*m_bar + gamma2*d_bar + nu."""
        return self.gamma1 * m_bar + self.gamma2 * d_bar + self.nu


class Observer(ABC):
    """Interface every observer family implements.

    ``reset`` installs the initial estimate (given a prior guess of
    x(0) plus the first measurement) and returns x_hat(0); ``step``
    advances one step and returns x_hat(k+1).
    """

    subset: SubsetIndex
    n: int
    iss: ISSGainModel | None

    def __init__(self, subset: SubsetIndex, n: int, iss: ISSGainModel | None = None):
        self.subset = subset
        self.n = n
        self.iss = iss
        self.diverged = False

    @abstractmethod
    def reset(self, x0_est: np.ndarray, y0_J: np.ndarray, u0: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def step(self, y_J: np.ndarray, y_next_J: np.ndarray, u: np.ndarray) -> np.ndarray: ...

    def _finalize(self, estimate: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(estimate)):
            self.diverged = True
        return estimate

    def _nan(self) -> np.ndarray:
        return np.full(self.n, np.nan)

    def group_key(self) -> tuple:
        """Observers with equal keys are stepped together by one ``run_group``."""
        return (type(self),)

    @classmethod
    def run_group(cls, members: list[Observer], y, u, x0_est) -> np.ndarray:
        """Estimates of ``members`` over a run: array of shape (len(members), T+1, n).

        The default steps each observer alone on its own sensors' outputs.
        """
        T = y.shape[0] - 1
        est = np.empty((len(members), T + 1, members[0].n))
        for j, obs in enumerate(members):
            idx = np.asarray(obs.subset.members, dtype=int) - 1
            est[j, 0] = obs.reset(x0_est, y[0, idx], u[0])
            for k in range(T):
                est[j, k + 1] = obs.step(y[k, idx], y[k + 1, idx], u[k])
        return est


def _leave_states(members: list[Observer], est: np.ndarray) -> None:
    """Leave each observer's last estimate and divergence flag after a group run."""
    for j, obs in enumerate(members):
        obs._x_hat = est[j, -1].copy()
        obs.diverged = not np.all(np.isfinite(est[j]))


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
        iss: ISSGainModel | None = None,
    ):
        super().__init__(subset, n, iss)
        self.f = f
        self.h = h
        self.K = np.asarray(K, dtype=float)
        if self.K.shape != (n, len(subset)):
            raise ConfigurationError(
                f"gain for {subset} has shape {self.K.shape}, expected ({n}, {len(subset)})"
            )
        self._idx = np.asarray(subset.members, dtype=int) - 1
        self._d0 = np.zeros(n_d)
        self._x_hat = np.zeros(n)
        self._k = 0

    @property
    def estimate(self) -> np.ndarray:
        return self._x_hat.copy()

    def reset(self, x0_est, y0_J, u0):
        self._x_hat = np.asarray(x0_est, dtype=float).copy()
        self._k = 0
        self.diverged = False
        return self._finalize(self._x_hat.copy())

    def step(self, y_J, y_next_J, u):
        if self.diverged:
            return self._nan()
        with np.errstate(over="ignore", invalid="ignore"):
            h_hat = np.asarray(self.h(self._x_hat, u), dtype=float)[self._idx]
            x_next = self.f(self._x_hat, u, self._d0, self._k) + self.K @ (y_J - h_hat)
        self._k += 1
        self._x_hat = np.asarray(x_next, dtype=float)
        return self._finalize(self._x_hat.copy())


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
    """

    def __init__(
        self,
        subset: SubsetIndex,
        structure: ReducedStructure,
        L: np.ndarray,
        K: np.ndarray | None = None,
        iss: ISSGainModel | None = None,
    ):
        n = structure.A.shape[0]
        super().__init__(subset, n, iss)
        self.structure = structure
        self.L = np.asarray(L, dtype=float)
        card = len(subset)
        self.nz = n - card
        if self.L.shape != (self.nz, n):
            raise ConfigurationError(
                f"coordinate map for {subset} has shape {self.L.shape}, "
                f"expected ({self.nz}, {n})"
            )
        self._idx = np.asarray(subset.members, dtype=int) - 1
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
        self._z = np.zeros(self.nz)
        self._x_hat = np.zeros(n)

    @property
    def z(self) -> np.ndarray:
        return self._z.copy()

    @property
    def estimate(self) -> np.ndarray:
        return self._x_hat.copy()

    def reset(self, x0_est, y0_J, u0):
        self._z = self.L @ np.asarray(x0_est, dtype=float)
        self._x_hat = self.N @ self._z + self.M @ y0_J
        self.diverged = False
        return self._finalize(self._x_hat.copy())

    def step(self, y_J, y_next_J, u):
        if self.diverged:
            return self._nan()
        st = self.structure
        with np.errstate(over="ignore", invalid="ignore"):
            x_hat = self._x_hat
            g_val = st.g(x_hat, u)
            z_pred = self.A_L @ self._z + self.B_L @ y_J + self.L @ g_val
            x_pred = st.A @ x_hat + g_val
            self._z = z_pred + self.K @ (y_next_J - self.C_J @ x_pred)
            self._x_hat = self.N @ self._z + self.M @ y_next_J
        return self._finalize(self._x_hat.copy())

    def group_key(self) -> tuple:
        return (type(self), id(self.structure), self.nz)

    @classmethod
    def run_group(cls, members, y, u, x0_est):
        """Step observers sharing a structure and |J| as one (G, nz) partial state.

        States are kept as (G, ·, 1) columns, so every product is a stacked
        ``np.matmul``, which rounds like each observer's own ``2-D @ 1-D``
        product (``einsum`` does not).  Rows never interact, so each one
        reproduces ``step`` bit for bit; a row is NaN after its first
        non-finite estimate, as a diverged observer's ``step`` returns.
        The terms that depend only on the measurements, B_L y_J(k) and
        M y_J(k+1), are computed for the whole run up front.
        ``structure.g`` receives the (G, n) estimates.
        """
        st = members[0].structure
        A_L, B_L, L, K, C_J, N, M = (
            np.stack([getattr(obs, name) for obs in members])
            for name in ("A_L", "B_L", "L", "K", "C_J", "N", "M")
        )
        y_J = y[:, np.stack([obs._idx for obs in members]), None]  # (T+1, G, |J|, 1)
        T = y.shape[0] - 1
        est = np.empty((len(members), T + 1, members[0].n))
        with np.errstate(over="ignore", invalid="ignore"):
            By, My = B_L @ y_J, M @ y_J
            z = L @ np.asarray(x0_est, dtype=float)[:, None]
            x = N @ z + My[0]
            est[:, 0] = x[..., 0]
            for k in range(T):
                g_val = st.g(x[..., 0], u[k])[..., None]
                z_pred = A_L @ z + By[k] + L @ g_val
                x_pred = st.A @ x + g_val
                z = z_pred + K @ (y_J[k + 1] - C_J @ x_pred)
                x = N @ z + My[k + 1]
                est[:, k + 1] = x[..., 0]
        bad = np.logical_or.accumulate(~np.isfinite(est).all(axis=2), axis=1)
        est[:, 1:][bad[:, :-1]] = np.nan
        _leave_states(members, est)
        return est


def build_reduced_observer(
    structure: ReducedStructure,
    subset: SubsetIndex,
    L: np.ndarray,
    K: np.ndarray | None = None,
    iss: ISSGainModel | None = None,
    rng: np.random.Generator | None = None,
    tol: float = 1e-8,
) -> ReducedOrderObserver:
    """Construct a reduced-order observer and check its coordinate change.

    After inverting [L; C_J] the reconstruction N (L v) + M (C_J v) = v
    is verified on n random vectors to ``tol``; failure means the
    inverse is too ill-conditioned to trust.
    """
    obs = ReducedOrderObserver(subset, structure, L, K, iss)
    rng = rng or np.random.default_rng(0)
    n = structure.A.shape[0]
    for _ in range(n):
        v = rng.standard_normal(n)
        rebuilt = obs.N @ (obs.L @ v) + obs.M @ (obs.C_J @ v)
        err = float(np.max(np.abs(rebuilt - v)))
        if err > tol:
            raise ConfigurationError(
                f"coordinate reconstruction for {subset} off by {err:.2e} (tol {tol:.0e}); "
                f"[L; C_J] is numerically singular"
            )
    return obs


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
        iss: ISSGainModel | None = None,
    ):
        n = structure.A.shape[0]
        super().__init__(subset, n, iss)
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
        self._idx = np.asarray(subset.members, dtype=int) - 1
        self.C_J = structure.C[self._idx]
        self._x_hat = np.zeros(n)

    @property
    def estimate(self) -> np.ndarray:
        return self._x_hat.copy()

    def reset(self, x0_est, y0_J, u0):
        self._x_hat = np.asarray(x0_est, dtype=float).copy()
        self.diverged = False
        return self._finalize(self._x_hat.copy())

    def step(self, y_J, y_next_J, u):
        if self.diverged:
            return self._nan()
        st = self.structure
        with np.errstate(over="ignore", invalid="ignore"):
            innov = self.C_J @ self._x_hat - y_J
            arg = st.H @ self._x_hat + self.K @ innov
            x_next = st.A @ self._x_hat + st.G @ st.channels(arg) + self.L @ innov
        self._x_hat = np.asarray(x_next, dtype=float)
        return self._finalize(self._x_hat.copy())

    def group_key(self) -> tuple:
        return (type(self), id(self.structure))

    @classmethod
    def run_group(cls, members, y, u, x0_est):
        """Step observers sharing a structure together, each gain pair folded into one update.

        This agrees with ``step`` up to rounding, not bit for bit: the two
        differ by up to 1.3e-14 on the bundled example3 and example4 runs.
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
        T = y.shape[0] - 1
        est = np.empty((nobs, T + 1, n))
        X = np.broadcast_to(np.asarray(x0_est, dtype=float), (nobs, n)).copy()
        est[:, 0] = X
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(T):
                arg = np.einsum("jrn,jn->jr", HP, X) - Kt @ y[k]
                X = np.einsum("jmn,jn->jm", AQ, X) + st.channels(arg) @ st.G.T - Lt @ y[k]
                est[:, k + 1] = X
        _leave_states(members, est)
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


@dataclass(frozen=True)
class SlopeCheckResult:
    passed: bool
    worst_quotient: float
    witness: tuple[float, float] | None


def check_slope_condition(
    channel: Callable[[np.ndarray], np.ndarray],
    box: tuple[float, float],
    samples: int = 100_000,
    seed: int = 0,
    tol: float = -1e-12,
) -> SlopeCheckResult:
    """Monte-Carlo check that a scalar channel is nondecreasing on a box.

    Samples pairs (v, w) from the box and requires every difference
    quotient (f(v) - f(w)) / (v - w) to clear ``tol``; a violating pair
    is returned as the witness.
    """
    lo, hi = box
    if not lo < hi:
        raise ConfigurationError(f"slope-check box must have lo < hi, got ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    v = rng.uniform(lo, hi, size=samples)
    w = rng.uniform(lo, hi, size=samples)
    keep = v != w
    v, w = v[keep], w[keep]
    quotients = (np.asarray(channel(v)) - np.asarray(channel(w))) / (v - w)
    worst = int(np.argmin(quotients))
    worst_q = float(quotients[worst])
    if worst_q < tol:
        return SlopeCheckResult(False, worst_q, (float(v[worst]), float(w[worst])))
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

    def __getitem__(self, subset: SubsetIndex) -> Observer:
        return self.observers[subset]

    def items(self) -> Iterator[tuple[SubsetIndex, Observer]]:
        return iter(self.observers.items())

    def run(self, y: np.ndarray, u: np.ndarray, x0_est: np.ndarray) -> np.ndarray:
        """Estimates for the whole run: array of shape (len(bank), T+1, n).

        Observers with equal ``group_key`` are stepped together by their
        family's ``run_group``: the reduced-order family as one stacked
        state per |J|, the circle family folded, and the Luenberger family
        one observer at a time.
        """
        members = list(self.observers.values())
        groups: dict[tuple, list[int]] = {}
        for j, obs in enumerate(members):
            groups.setdefault(obs.group_key(), []).append(j)
        est = np.empty((len(members), y.shape[0], self.n))
        for rows in groups.values():
            group = [members[j] for j in rows]
            est[rows] = type(group[0]).run_group(group, y, u, x0_est)
        return est
