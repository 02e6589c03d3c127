"""Observer families, their certificates, and the bank container.

Every observer estimates the full plant state from one sensor subset.
An observer holds its parameters and what its family derives from them
once: A_L, B_L, N and M in the reduced-order family, the folded update in
the circle family.  Each family has two group kernels, classmethods over
a list of its observers that only step: they step the outputs y(0..T),
the inputs u and the initial guess of each of a batch of runs and write
the estimate tracks x_hat(0..T) of the group on each run into ``out``,
the group's block of the bank's estimate array:

* ``run_group``: :meth:`ObserverBank.run` steps a bank through it;
* ``run_trials``: calibration steps its Monte-Carlo trials through it
  (:func:`run_trials`).

A group is every observer with one ``group_key``: in the Luenberger
family, every observer of one ``f`` and ``h``; in the reduced-order and
circle families, every observer of one plant structure.  Every kernel
steps its group in one time loop, so a bank makes one call of each plant
map (or of the circle channels) per step for all its |J| classes.  Each
row of a batch equals its run stepped alone, bit for bit.  The two kernels
are one except in the circle family, whose ``run_group`` folds each gain
pair into one update while ``run_trials`` keeps the unfolded arithmetic
the calibrated fits are pinned to.  All
families share a one-step schedule: x_hat(k+1) may use both y_J(k) and
y_J(k+1), which keeps estimates from different families aligned on the
same time index.

Divergence is never fatal: the selection stage discounts a track with
non-finite estimates.  :func:`_by_group` drives every kernel and owns
what all families share: the float initial guess, one ``errstate`` that
ignores overflow and invalid operations, the estimate array, and the rule
that a track keeps its first non-finite estimate and is NaN after it.
"""

from __future__ import annotations

import functools
import math
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
    "certify_sector",
    "CertificateResult",
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

    ``run_group`` and ``run_trials`` step a batch of B runs, the outputs
    y (B, T+1, p), the inputs u (B, T+1, n_u) and the float initial guesses
    x0_est (B, n), and write the estimates of ``members``, which come in
    descending |J| order, into ``out`` (len(members), B, T+1, n), inside the
    ``errstate`` of :func:`_by_group`.  Entries after a track's first
    non-finite estimate need not be written.
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
    def run_group(cls, members: list[Observer], y, u, x0_est, out: np.ndarray) -> None: ...

    @classmethod
    def run_trials(cls, members: list[Observer], y, u, x0_est, out: np.ndarray) -> None:
        """Estimates of ``members`` on a batch of runs, as calibration steps them."""
        cls.run_group(members, y, u, x0_est, out)


def _sticky_nan(est: np.ndarray) -> None:
    """Set every estimate after a track's first non-finite one to NaN, in place.

    ``est`` holds tracks along its last two axes, (..., T+1, n).
    """
    if not np.isfinite(est).all():  # one pass: reducing over n alone is many times slower
        bad = np.logical_or.accumulate(~np.isfinite(est).all(axis=-1), axis=-1)
        est[..., 1:, :][bad[..., :-1]] = np.nan


def _by_card(members: list[Observer], y, names: tuple[str, ...]) -> Iterator[tuple]:
    """(rows, observers, inputs) of each |J| class of ``members`` (in descending |J| order).

    The inputs are the outputs y_J (T+1, G_J, B, |J|, 1), then each of ``names``
    stacked (G_J, 1, ., .).  From a C-ordered y, the fancy index lays y_J out as
    (G_J, |J|, B, T+1), as each observer's own y[:, idx]; BLAS picks its dot
    kernel by the stride of the sensor axis, so a copy to unit stride changes bits.
    """
    cards = [len(obs.subset) for obs in members]
    starts = [j for j, card in enumerate(cards) if j == 0 or card != cards[j - 1]] + [len(cards)]
    for a, b in zip(starts, starts[1:]):
        group = members[a:b]
        y_J = y[..., np.stack([obs._idx for obs in group])].transpose(1, 2, 0, 3)[..., None]
        yield slice(a, b), group, [y_J] + [np.stack([getattr(obs, name) for obs in group])[:, None]
                                           for name in names]


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

    def group_key(self) -> tuple:
        return (type(self), self.f, self.h)

    @classmethod
    def run_group(cls, members, y, u, x0_est, out):
        """Step every observer of one ``f`` and ``h`` on every run in one time loop.

        The estimates are one observer-major state of G·B rows, (G·B, n), and
        the inputs are repeated to match.  Each step makes one call of ``f``
        and one of ``h`` on it, gathers every observer's h_J through one flat
        index built up front, and forms each |J| class's K (y_J(k) - h_J) as
        one stacked ``np.matmul``, which rounds like each observer's own
        ``2-D @ 1-D`` product.  Rows never interact, so each equals its
        observer stepped alone on its run, bit for bit.
        """
        f, h, d0 = members[0].f, members[0].h, members[0]._d0
        G, (B, T1, p), n = len(members), y.shape, members[0].n
        classes = []  # (rows, y_J, K, flat index of h_J (G_J, B, |J|, 1)) per |J| class
        for rows, _, (y_J, K, idx) in _by_card(members, y, ("K", "_idx")):
            run_row = np.arange(rows.start, rows.stop)[:, None, None] * B + np.arange(B)[:, None]
            classes.append((rows, y_J, K, (run_row * p + idx)[..., None]))
        X, u = np.tile(x0_est, (G, 1)), np.tile(u, (G, 1, 1))
        KI = np.empty((G, B, n, 1))  # K (y_J - h_J) of every row, class by class
        out[:, :, 0] = x0_est
        for k in range(T1 - 1):
            h_X = np.asarray(h(X, u[:, k]), dtype=float)
            for rows, y_J, K, at in classes:
                np.matmul(K, y_J[k] - h_X.take(at), KI[rows])
            X = np.asarray(f(X, u[:, k], d0, k), dtype=float) + KI.reshape(G * B, n)
            out[:, :, k + 1] = X.reshape(G, B, n)


_RECONSTRUCTION_TOL = 1e-8


class ReducedOrderObserver(Observer):
    """Observer in partial coordinates z = L x for plants x+ = A x + g(x, u).

    With T = [L; C_J] invertible and (N, M) the blocks of T^-1, the
    update integrates the z-dynamics, corrects them with the innovation of
    the newest measurement and rebuilds the estimate from it:

        z(k+1)      = A_L z(k) + B_L y_J(k) + L g(x_hat(k), u(k))
                      + K (y_J(k+1) - C_J x_pred(k+1)),
        x_hat(k+1)  = N z(k+1) + M y_J(k+1),

    where x_pred(k+1) = A x_hat(k) + g(x_hat(k), u(k)) is the one-step
    prediction through the plant map and A_L = L A N, B_L = L A M.
    Correcting z against the predicted output keeps K meaningful: the
    reconstruction itself already matches y_J(k+1) exactly.

    Construction raises :class:`ConfigurationError` when [L; C_J] is
    singular, or when N L + M C_J misses the identity by more than 1e-8
    in some entry (or is not finite): the inverse is then too
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
        with np.errstate(over="ignore", invalid="ignore"):
            err = float(np.max(np.abs(self.N @ self.L + self.M @ self.C_J - np.eye(n))))
            self.A_L = self.L @ structure.A @ self.N
            self.B_L = self.L @ structure.A @ self.M
        if not err <= _RECONSTRUCTION_TOL:  # a NaN fails too
            raise ConfigurationError(
                f"coordinate reconstruction for {subset} off by {err:.2e} "
                f"(tol {_RECONSTRUCTION_TOL:.0e}); [L; C_J] is numerically singular"
            )
        self.K = (
            np.zeros((self.nz, card)) if K is None else np.asarray(K, dtype=float)
        )
        if self.K.shape != (self.nz, card):
            raise ConfigurationError(
                f"innovation gain for {subset} has shape {self.K.shape}, "
                f"expected ({self.nz}, {card})"
            )

    def group_key(self) -> tuple:
        return (type(self), id(self.structure))

    @classmethod
    def run_group(cls, members, y, u, x0_est, out):
        """Step every observer of one structure in one time loop.

        This is also the family's ``run_trials``.  Each step makes one call
        of ``structure.g`` on the (B, G, n) estimates of all G observers and
        the (B, 1, n_u) inputs, and one prediction A x_hat + g for all of
        them.  Every state is kept observer-major as (G, B, ., 1) columns, so
        each |J| class is one contiguous block: every product is one stacked
        ``np.matmul`` per class, which rounds like each observer's own
        ``2-D @ 1-D`` product (``einsum`` does not), and every sum is one
        elementwise step over all classes.  Rows never interact, so each one
        reproduces the observer stepped alone on its run bit for bit.  The
        terms that depend only on the measurements, B_L y_J(k) and
        M y_J(k+1), are computed for the whole run up front.
        """
        A, g = members[0].structure.A, members[0].structure.g
        names = ("A_L", "B_L", "L", "K", "C_J", "N", "M")
        cols, classes, inputs = zip(*_by_card(members, y, names))  # rows of X, per class
        G, B, T, n = len(members), y.shape[0], y.shape[-2] - 1, members[0].n
        # per class, the partial states (G_J, B, nz, 1) and the innovations
        # y_J - C_J x_pred (G_J, B, |J|, 1), each one block of a flat buffer
        shape_z = [(len(c), B, c[0].nz, 1) for c in classes]
        shape_y = [(len(c), B, len(c[0].subset), 1) for c in classes]
        (Z, z), (Z_pred, z_pred), (dZ, dz) = (_blocks(shape_z) for _ in range(3))
        (innov, innov_J), (By, By_J) = _blocks(shape_y), _blocks(shape_z, T + 1)
        Y_next, y_next = _blocks(shape_y, T)
        X, X_pred, g_X, NZ = (np.empty((G, B, n, 1)) for _ in range(4))
        My = np.empty((T + 1, G, B, n, 1))
        u_k = list(u.swapaxes(0, 1)[..., None, :])  # T+1 views (B, 1, n_u)
        # each step's products, (operator, operand, destination), in three phases
        predict, correct, rebuild = [], [], []
        for c, (y_J, A_L, B_L, L, K, C_J, N, M) in enumerate(inputs):
            np.matmul(B_L, y_J, By_J[c])
            np.matmul(M, y_J, My[:, cols[c]])
            y_next[c][...] = y_J[1:]  # a copy: it is only subtracted from
            np.matmul(L, x0_est[..., None], z[c])
            np.matmul(N, z[c], NZ[cols[c]])
            predict += [(A_L, z[c], z_pred[c]), (L, g_X[cols[c]], dz[c]),
                        (C_J, X_pred[cols[c]], innov_J[c])]
            correct.append((K, innov_J[c], dz[c]))
            rebuild.append((N, z[c], NZ[cols[c]]))
        np.add(NZ, My[0], X)
        x_hat, g_x_hat = X[..., 0].swapaxes(0, 1), g_X[..., 0].swapaxes(0, 1)  # (B, G, n)
        out[:, :, 0] = X[..., 0]
        for k in range(T):
            g_x_hat[...] = g(x_hat, u_k[k])
            np.add(A @ X, g_X, X_pred)
            for a, b, dst in predict:
                np.matmul(a, b, dst)
            Z_pred += By[k]
            Z_pred += dZ  # z_pred = A_L z + B_L y_J(k) + L g
            np.subtract(Y_next[k], innov, innov)  # y_J(k+1) - C_J x_pred
            for a, b, dst in correct:
                np.matmul(a, b, dst)
            np.add(Z_pred, dZ, Z)  # z = z_pred + K innov
            for a, b, dst in rebuild:
                np.matmul(a, b, dst)
            np.add(NZ, My[k + 1], X)  # x_hat = N z + M y_J(k+1)
            out[:, :, k + 1] = X[..., 0]


def _blocks(shapes: list[tuple], *lead: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """One flat buffer (*lead, total) and a view (*lead, *shape) of each consecutive block."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.empty(lead + (sum(sizes),))
    ends = np.cumsum(sizes).tolist()
    return flat, [flat[..., end - size:end].reshape(lead + shape)
                  for size, end, shape in zip(sizes, ends, shapes)]


class CircleCriterionObserver(Observer):
    """Observer for x+ = A x + G f(H x), the slopes of f in its channel's sector.

    x_hat(k+1) = A x_hat + G f(H x_hat + K (C_J x_hat - y_J(k)))
                 + L (C_J x_hat - y_J(k)).
    Feeding the innovation into the nonlinearity (via K) is what lets a
    nondecreasing f help rather than hurt convergence.  ``run_group`` steps
    the update folded once here: A + L C_J (``A_LC``) and H + K C_J
    (``H_KC``), the loop :func:`certify_sector` certifies, and the gains
    over all p outputs, zero off J.
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
        r, p = structure.H.shape[0], structure.C.shape[0]
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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the certificate
            self.A_LC = structure.A + self.L @ self.C_J
            self.H_KC = structure.H + self.K @ self.C_J
        self.L_p, self.K_p = np.zeros((n, p)), np.zeros((r, p))
        self.L_p[:, self._idx], self.K_p[:, self._idx] = self.L, self.K

    def group_key(self) -> tuple:
        return (type(self), id(self.structure))

    @classmethod
    def run_trials(cls, members, y, u, x0_est, out):
        """Step observers sharing a structure on a batch of runs, in the unfolded form above.

        All G observers advance in one time loop as one observer-major
        (G, B, n) state kept as (·, ·, n, 1) columns, so every product is a
        stacked ``np.matmul`` that rounds like each observer's own
        ``2-D @ 1-D`` product: each row reproduces the observer stepped alone
        on its run bit for bit.  A x, H x, the channels and G f(.) are one call
        each for all observers; only the innovation C_J x - y_J(k) and its
        products K e and L e are taken per |J| class, into two (G, B, ., 1)
        buffers.  The calibrated fits (through ``freeze``, the bundled
        configs' ``iss``) are pinned to this form; ROADMAP item 4 step b, a
        benchmark change, moves calibration to the folded ``run_group``.
        """
        st, G, (B, n) = members[0].structure, len(members), x0_est.shape
        classes = list(_by_card(members, y, ("C_J", "K", "L")))
        KE, LE = np.empty((G, B, st.H.shape[0], 1)), np.empty((G, B, n, 1))  # K innov, L innov
        X = np.repeat(x0_est[None, ..., None], G, axis=0)  # (G, B, n, 1)
        out[:, :, 0] = x0_est
        for k in range(y.shape[1] - 1):
            for rows, _, (y_J, C_J, K, L) in classes:
                innov = C_J @ X[rows] - y_J[k]
                np.matmul(K, innov, KE[rows])
                np.matmul(L, innov, LE[rows])
            X = st.A @ X + st.G @ st.channels(st.H @ X + KE) + LE
            out[:, :, k + 1] = X[..., 0]

    @classmethod
    def run_group(cls, members, y, u, x0_est, out):
        """Step observers sharing a structure together, each gain pair folded into one update.

        The state of all runs is one (B, G, n) array.  Each observer's
        H + K C_J is stacked over its A + L C_J once per call, so one
        ``einsum`` per step gives both products of the state; ``einsum``
        sums each entry alike whatever the number of rows, so this equals
        one call per product bit for bit.  The measurement terms K y_J(k)
        and L y_J(k) are computed for the whole batch up front, each a
        stacked ``np.matmul`` of the observer's gain on one step's outputs;
        an observer whose J leaves out a non-finite output reads it as 0, as
        ``run_trials`` never reads it.  Rows never interact, so each one
        equals its run stepped alone, bit for bit.
        This agrees with ``run_trials`` up to rounding, not bit for bit: the
        two differ by up to 1.3e-14 on the bundled example3 and example4 runs.
        """
        st = members[0].structure
        Lp, Kp = (np.stack([getattr(obs, name) for obs in members]) for name in ("L_p", "K_p"))
        W = np.stack([np.vstack((obs.H_KC, obs.A_LC)) for obs in members])  # (G, r + n, n)
        est = out.swapaxes(0, 1)  # (B, G, T+1, n) view
        X = est[:, :, 0] = np.repeat(x0_est[:, None], len(members), axis=1)  # (B, G, n)
        channels, GT, r = st.channels, st.G.T, len(st.H)
        # K y_J(k) and L y_J(k), (B, T+1, G, ., 1)
        Ky, Ly = (gain @ y[:, :, None, :, None] for gain in (Kp, Lp))
        bad = ~np.isfinite(y)
        if bad.any():  # only then: a finite y keeps its strides, and so its bits
            hit = bad.any(axis=-1)  # (B, T+1): the steps with a non-finite output
            off = ~np.stack([bad[hit][:, obs._idx].any(axis=-1) for obs in members], axis=-1)
            y0 = np.where(bad[hit], 0.0, y[hit])[:, None, :, None]  # (R, 1, p, 1)
            for prod, gain in ((Ky, Kp), (Ly, Lp)):  # zeroed where J leaves every bad output out
                prod[hit] = np.where(off[..., None, None], gain @ y0, prod[hit])
        Ky, Ly = (list(prod[..., 0].swapaxes(0, 1)) for prod in (Ky, Ly))  # T+1 views (B, G, .)
        for k in range(y.shape[1] - 1):
            WX = np.einsum("jmn,bjn->bjm", W, X)  # H_KC x over A_LC x, (B, G, r + n)
            X = WX[..., r:] + channels(WX[..., :r] - Ky[k]) @ GT - Ly[k]
            est[:, :, k + 1] = X


# How far a certified spectral radius must stay below 1, and a sector margin above 0.
CERTIFICATE_MARGIN = 1e-3


@dataclass(frozen=True)
class CertificateResult:
    spectral_radius: float
    passed: bool
    margin: float  # the sector margin: 1 over a one-point sector


def _spectra(loops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and spectral radii of a (..., m, m) stack of loops, from one ``eigvals``
    call: each radius is its loop's alone, bit for bit, and a non-finite loop's is inf."""
    finite = np.isfinite(loops).all(axis=(-2, -1))
    eig = np.linalg.eigvals(loops if finite.all() else np.where(finite[..., None, None], loops, 0))
    rho = np.abs(eig).max(axis=-1, initial=0.0)
    if not finite.all():
        eig[~finite], rho[~finite] = np.nan, np.inf
    return eig, rho


def certify_sector(A_cl: np.ndarray, B: np.ndarray, H: np.ndarray,
                   sector: tuple[float, float]) -> list[CertificateResult]:
    """Circle-criterion certificates of a (G, m, m) stack of Lur'e loops e+ = A_cl e + B psi(H e),
    B (m, r) or (G, m, r), H (G, r, m).

    When psi's slopes lie in ``sector`` [a, b], a loop's error converges globally
    if A_a = A_cl + a B H has spectral radius below 1 - ``CERTIFICATE_MARGIN``
    and its margin, the least Re[1 - (b - a) H (zI - A_a)^-1 B] over |z| = 1,
    is at least ``CERTIFICATE_MARGIN``.  By the matrix determinant lemma that is
    P_b(z) / P_a(z), with P_s the characteristic polynomial of A_cl + s B H,
    so one stacked ``eigvals`` call on both edges gives the margin exactly: 1 when
    P_b = P_a (a one-point sector, or a loop with no state or with B H = 0, which
    is A_cl whatever the sector), which needs no upper edge.  With r > 1 channels
    there is no such certificate: a loop they enter has margin NaN and fails.
    """
    with np.errstate(all="ignore"):  # an overflow or a pole on |z| = 1 fails
        BH = B @ H
        idle = ~BH.any(axis=(-2, -1))  # no channel enters the loop (an empty one included)
        lo, hi = (np.where(idle[:, None, None], A_cl, A_cl + s * BH) for s in sector)
        if sector[0] == sector[1] or idle.all():
            rho, margin = _spectra(lo)[1], np.ones(len(A_cl))
        else:
            eig, (rho, _) = _spectra(np.stack([lo, hi]))
            margin = _least_ratio(eig) if B.shape[-1] == 1 else np.full(len(rho), np.nan)
            margin[idle] = 1.0
    ok = (rho < 1.0 - CERTIFICATE_MARGIN) & (margin >= CERTIFICATE_MARGIN)
    return [CertificateResult(*cert) for cert in zip(rho.tolist(), ok.tolist(), margin.tolist())]


@functools.cache
def _ratio_fit(n: int) -> tuple[np.ndarray, ...]:
    """2n points z = x + j sqrt(1 - x^2); the maps from a polynomial's values at their x
    to its derivative's (degree n) and to its coefficients (degree 2n - 2); the companion
    matrix's shifted identity."""
    x = np.cos(np.pi * (np.arange(2 * n) + 0.5) / (2 * n))
    V = [np.vander(x, deg + 1, increasing=True) for deg in (n - 1, n, 2 * n - 2)]
    fit = [np.linalg.solve(v.T @ v, v.T) for v in V[1:]]  # least squares, exact here
    diff = V[0] @ (np.arange(1, n + 1)[:, None] * fit[0][1:])
    shift = np.eye(2 * n - 2, max(2 * n - 3, 0), k=-1)
    return x + 1j * np.sqrt(1.0 - x * x), diff.T, fit[1].T, shift


def _least_ratio(eig: np.ndarray) -> np.ndarray:
    """The least Re[P_b / P_a] over |z| = 1, from the roots (2, B, n) of each monic P_a, P_b.

    On z = x + j sqrt(1 - x^2), N = Re[P_b conj(P_a)] and D = |P_a|^2 have degree
    n in x, so N / D is least at x = +-1 or at a root of N' D - N D'.  Its roots
    come from a companion matrix, its leading coefficient moved 1e-12 of the
    largest away from 0; the ratio is evaluated at each root's real part in [-1, 1].
    The two fits are ``einsum`` products, which sum each entry alike at any B, so a
    loop's margin does not depend on its stack (BLAS's GEMM and GEMV round apart).
    """
    _, B, n = eig.shape
    z, diff, fit, shift = _ratio_fit(n)
    P = np.prod(z[:, None] - eig[:, :, None], axis=-1)  # (2, B, 2n)
    N, D = ND = (P * P[0].conj()).real[::-1]
    dN, dD = np.einsum("cbi,ij->cbj", ND, diff)
    w = np.einsum("bi,ij->bj", dN * D - N * dD, fit)
    x = np.broadcast_to([-1.0, 1.0], (B, 2))
    if n > 1:
        lead = w[:, -1:] + np.copysign(np.abs(w).max(axis=-1, keepdims=True) * 1e-12
                                       + np.finfo(float).tiny, w[:, -1:])
        companion = np.concatenate((np.broadcast_to(shift, (B,) + shift.shape),
                                    (w[:, :-1] / -lead)[..., None]), axis=-1)
        x = np.concatenate((x, _spectra(companion)[0].real.clip(-1.0, 1.0)), axis=1)
    P = np.prod(np.exp(1j * np.arccos(x))[..., None] - eig[:, :, None], axis=-1)
    return (P[1] / P[0]).real.min(axis=-1)


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
        together by their family's ``run_group``, which writes straight into
        its block of the one result.  Every track is NaN after its first
        non-finite estimate.
        """
        if y.ndim == 2:
            return self.run(y[None], u[None], np.asarray(x0_est)[None])[:, 0]
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
    """Step each group of observers with equal ``group_key`` through its family's ``kernel``.

    Each kernel gets its group in descending |J| order, the float initial
    guesses and that group's block of one estimate array; rows go back to
    the caller's order only when it differs, which ``build_bank``'s never does.
    """
    groups: dict[tuple, list[int]] = {}
    for j, obs in enumerate(observers):
        groups.setdefault(obs.group_key(), []).append(j)
    order = [j for rows in groups.values()
             for j in sorted(rows, key=lambda i: -len(observers[i].subset))]
    est = np.empty((len(observers),) + y.shape[:-1] + (observers[0].n,))
    x0 = np.asarray(x0_est, dtype=float)
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging track is no error
        for rows in groups.values():
            group = [observers[j] for j in order[lo:lo + len(rows)]]
            getattr(type(group[0]), kernel)(group, y, u, x0, est[lo:lo + len(rows)])
            lo += len(rows)
    _sticky_nan(est)
    return est if order == list(range(len(order))) else est[np.argsort(order)]
