"""Deviation-minimizing selection over the observer bank.

Each candidate subset J gets a deviation score: the largest distance
between its estimate and the estimates of the cross-check subsets
contained in it.  Under the sparse-attack assumption at least one J is
attack-free and scores low, while every badly corrupted J is betrayed
by one of its clean cross-checks, so selecting the argmin yields an
estimate whose error is bounded by attack-free observer errors alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvtext import ROW_BLOCK, float_rows, quote
from .combinatorics import BankIndex, SubsetIndex
from .errors import EstimatorStarvedError, InternalConsistencyError

__all__ = ["EstimatorRun", "run_estimator", "frames_to_csv"]

# Elements of est gathered per candidate block: a (block, T+1, n) slab of
# 256 KiB stays in cache while each cross-check slot is subtracted from it.
# One such slab and two (block, T+1) score arrays are allocated per call and
# reused for every block and slot: a fresh array per operation page-faults
# its memory in anew, which cost more than the arithmetic on it.
_BLOCK_ELEMS = 2**15


@dataclass
class EstimatorRun:
    """Whole-run estimator output in dense array form.

    ``est`` is (n_subsets, T+1, n) in the order ``subsets`` reads from the
    bank, ``bank.all_subsets`` (J class first, then S class, each canonical); ``pi`` is
    (T+1, n_J) in the J order; ``sigma_idx[k]`` indexes into the J class.
    """

    bank: BankIndex
    est: np.ndarray
    pi: np.ndarray
    sigma_idx: np.ndarray
    x_hat: np.ndarray
    truth: np.ndarray | None = None

    @property
    def subsets(self) -> tuple[SubsetIndex, ...]:
        return self.bank.all_subsets

    @property
    def horizon(self) -> int:
        return self.x_hat.shape[0] - 1

    @property
    def e_norm(self) -> np.ndarray | None:
        if self.truth is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.norm(self.x_hat - self.truth, axis=1)


def run_estimator(
    bank: BankIndex,
    subsets: tuple[SubsetIndex, ...],
    est: np.ndarray,
    truth: np.ndarray | None = None,
) -> EstimatorRun:
    """Vectorized selection over a full run of bank estimates.

    ``subsets`` must be ``bank.all_subsets`` and ``est[j]`` the (T+1, n)
    estimate track of ``subsets[j]``.  Each score is the largest
    Euclidean distance between J's estimate and those of its contained
    cross-check subsets, each distance the square root of a left-to-right
    sum of squares over the state components, for every n.  The root is
    taken once per score, of the largest sum over the cross-checks: sqrt
    is monotone and correctly rounded, so this equals the largest of the
    per-cross-check roots bit for bit.  A non-finite score becomes +inf,
    so a diverged observer loses every argmin.  Ties go to the first
    (canonical) J.  Candidates are scored in blocks of ``_BLOCK_ELEMS``
    elements, each cross-check gathered into one buffer that is reused for
    every block and slot, as are the running sum and maximum; none of them
    is a view of ``est``, which is never written.
    """
    order = bank.all_subsets
    if tuple(subsets) != order:
        raise InternalConsistencyError("bank estimates must be in bank.all_subsets order")
    est = np.asarray(est, dtype=float)
    if est.ndim != 3 or 0 in est.shape[1:]:
        raise InternalConsistencyError(
            f"estimates must be (n_subsets, T+1, n) with T+1 >= 1 and n >= 1, "
            f"got shape {est.shape}"
        )
    if est.shape[0] != len(order):
        raise InternalConsistencyError(
            f"{est.shape[0]} estimate tracks for {len(order)} subsets"
        )
    _, T1, n = est.shape
    n_j = len(bank.j_subsets)
    block = max(1, _BLOCK_ELEMS // (T1 * n))
    rows = min(block, n_j)
    # d holds a gathered cross-check, then its squared difference; acc and
    # worst hold the running sum and maximum
    d = np.empty((rows, T1, n))
    acc = np.empty((rows, T1))
    worst = np.empty((rows, T1))
    pi = np.empty((T1, n_j))
    # squares of diverged tracks overflow by design and collapse to +inf
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_j, block):
            hi = min(lo + block, n_j)
            x_J = est[lo:hi]
            d_b, acc_b, worst_b = d[: hi - lo], acc[: hi - lo], worst[: hi - lo]
            for s, slot in enumerate(bank.cross_check_pos[lo:hi].T):
                # positions are in range by construction; "raise" would copy out
                np.take(est, slot, axis=0, out=d_b, mode="clip")
                np.subtract(x_J, d_b, out=d_b)
                d_b *= d_b
                # left to right: np.sum would pair up the terms once n >= 8
                total = worst_b if s == 0 else acc_b
                if n > 1:
                    np.add(d_b[..., 0], d_b[..., 1], out=total)
                else:
                    total[...] = d_b[..., 0]
                for i in range(2, n):
                    total += d_b[..., i]
                if s:
                    np.maximum(worst_b, acc_b, out=worst_b)
            # one root per score, after the max; a NaN survives np.maximum
            np.sqrt(worst_b, out=worst_b)
            worst_b[~np.isfinite(worst_b)] = np.inf
            pi[:, lo:hi] = worst_b.T
    # every non-finite score is +inf, so a step starves when its argmin is
    sigma_idx = np.argmin(pi, axis=1)
    starved = np.flatnonzero(pi[np.arange(T1), sigma_idx] == np.inf)
    if starved.size:
        raise EstimatorStarvedError(int(starved[0]))
    x_hat = est[sigma_idx, np.arange(T1)]
    return EstimatorRun(bank=bank, est=est, pi=pi, sigma_idx=sigma_idx, x_hat=x_hat, truth=truth)


def frames_to_csv(run: EstimatorRun, fh) -> None:
    """One row per step: selection, fused estimate, error, all pi scores."""
    n = run.x_hat.shape[1]
    labels = [quote(J.label) for J in run.bank.j_subsets]
    header = (
        ["k", "sigma"]
        + [f"xhat{i}" for i in range(1, n + 1)]
        + ["e_norm"]
        + [quote(f"pi_{J.label}") for J in run.bank.j_subsets]
    )
    fh.write(",".join(header) + "\n")
    e_norm = run.e_norm
    for lo in range(0, run.x_hat.shape[0], ROW_BLOCK):
        hi = lo + ROW_BLOCK
        x_hat = float_rows(run.x_hat[lo:hi])
        e = [""] * len(x_hat) if e_norm is None else float_rows(e_norm[lo:hi, None])
        rows = zip(range(lo, hi), run.sigma_idx[lo:hi].tolist(), x_hat, e,
                   float_rows(run.pi[lo:hi]))
        fh.write("".join(f"{k},{labels[s]},{x},{en},{pi}\n" for k, s, x, en, pi in rows))
