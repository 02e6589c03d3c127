"""Attack isolation from deviation scores.

A subset J whose deviation score stays under a calibrated threshold
behaved like an attack-free bank member; the union of all such J at a
step is a set of sensors exonerated at that step.  Counting, over a
window, how often each sufficiently large union occurs and taking the
majority vote yields a per-window guess of the attack-free set — its
complement is the isolated (suspected) sensor set.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .combinatorics import BankIndex, SubsetIndex
from .errors import ConfigurationError
from .estimator import EstimatorRun
from .observers import ISSGainModel

__all__ = [
    "ThresholdTable",
    "compute_thresholds",
    "windowed_isolation",
    "IsolationWindow",
    "IsolationReport",
    "windows_to_csv",
    "steps_to_csv",
]


@dataclass(frozen=True)
class ThresholdTable:
    """Per-J deviation thresholds plus the shared transient horizon.

    ``k_bar_star`` is the step from which every observer's transient
    term has settled (the max of the declared settling steps); scores
    before it are not meaningful for isolation.
    """

    pi_bar: dict[SubsetIndex, float]
    eps: float
    k_bar_star: int

    def __post_init__(self):
        problems = [f"negative threshold for {J.label}" for J, v in self.pi_bar.items() if v < 0]
        if self.k_bar_star < 0:
            problems.append(f"settling step must be >= 0, got {self.k_bar_star}")
        if problems:
            raise ConfigurationError(problems)


def compute_thresholds(
    gains: dict[SubsetIndex, ISSGainModel],
    bank: BankIndex,
    m_bar: float,
    d_bar: float,
    eps: float,
    k_star_override: int | None = None,
) -> ThresholdTable:
    """Thresholds from the declared convergence models.

    The score of an attack-free J is at most the sum of its own error
    and the worst contained cross-check error, each bounded after the
    transient by eps + gamma1*m_bar + gamma2*d_bar + nu.  Taking each
    gain's max over {J} and its cross-checks and doubling gives the
    threshold 2*(eps + g1'*m_bar + g2'*d_bar + nu').  The settling step
    is the max declared k_star over the whole bank, unless overridden
    (e.g. to 0 when observers start at the true state).
    """
    missing = []
    problems = []
    for sub in bank.all_subsets:
        model = gains.get(sub)
        if model is None:
            missing.append(sub.label)
        else:
            problems += [f"{sub.label}: {msg}" for msg in model.validate()]
    if missing:
        problems.append("missing convergence models for " + ", ".join(missing))
    if eps < 0:
        problems.append(f"transient allowance must be nonnegative, got eps={eps}")
    if problems:
        raise ConfigurationError(problems)
    pi_bar = {}
    for J in bank.j_subsets:
        family = (J,) + bank.contained[J]
        g1 = max(gains[t].gamma1 for t in family)
        g2 = max(gains[t].gamma2 for t in family)
        nu = max(gains[t].nu for t in family)
        pi_bar[J] = 2.0 * (eps + g1 * m_bar + g2 * d_bar + nu)
    if k_star_override is not None:
        k_bar_star = int(k_star_override)
    else:
        k_bar_star = max(gains[sub].k_star for sub in bank.all_subsets)
    return ThresholdTable(pi_bar=pi_bar, eps=eps, k_bar_star=k_bar_star)


@dataclass(frozen=True)
class IsolationWindow:
    """Vote tally and verdict for one isolation window."""

    index: int
    k_start: int
    k_end: int
    counts: dict[tuple[int, ...], int]
    winner: tuple[int, ...] | None
    isolated: tuple[int, ...]
    no_quorum: bool


@dataclass(frozen=True)
class IsolationReport:
    """Per-step unions plus the per-window verdicts."""

    p: int
    window: int
    k_bar_star: int
    step_unions: dict[int, tuple[int, ...]]
    windows: tuple[IsolationWindow, ...]


def windowed_isolation(
    run: EstimatorRun, thresholds: ThresholdTable, window: int
) -> IsolationReport:
    """Vote over consecutive windows of attack-free unions.

    From the table's settling step on, the union at step k holds the
    members of every J whose score is at most its threshold.  Windows
    of fixed length start at the settling step; a partial window at the
    end of the run is dropped.  Within a window, each step whose union
    has at least p - q members casts a vote for that exact member set
    (the full sensor set included); the most frequent set wins, ties to
    lexicographic order, and its complement is reported as isolated.  A
    window with no votes has no quorum and isolates nothing.

    A run that ends before the settling step produces an empty report.
    """
    if window < 1:
        raise ConfigurationError(f"window length must be >= 1, got {window}")
    bank = run.bank
    for J in bank.j_subsets:
        if J not in thresholds.pi_bar:
            raise ConfigurationError(f"no threshold for subset {J.label}")
    k_bar = thresholds.k_bar_star

    bars = np.array([thresholds.pi_bar[J] for J in bank.j_subsets])
    # members[j, s - 1] is set for each sensor s of J; every J has p - q
    # members, so the member tuples stack into one index array
    cols = np.array([J.members for J in bank.j_subsets]) - 1
    members = np.zeros((len(cols), bank.p), dtype=bool)
    members[np.arange(len(cols))[:, None], cols] = True
    # row t: the sensors exonerated at step k_bar + t
    unions = ((run.pi[k_bar:] <= bars) @ members).tolist()
    step_seq = [tuple(i for i, hit in enumerate(row, start=1) if hit) for row in unions]
    step_unions = dict(enumerate(step_seq, start=k_bar))
    quorum = bank.p - bank.q

    all_sensors = tuple(range(1, bank.p + 1))
    windows = []
    for i in range(1, len(step_seq) // window + 1):
        k_start = k_bar + (i - 1) * window
        k_end = k_bar + i * window - 1
        voters = step_seq[(i - 1) * window : i * window]
        counts = dict(Counter(u for u in voters if len(u) >= quorum))
        if counts:
            top = max(counts.values())
            winner = min(s for s, c in counts.items() if c == top)
            isolated = tuple(s for s in all_sensors if s not in winner)
            windows.append(
                IsolationWindow(i, k_start, k_end, counts, winner, isolated, False)
            )
        else:
            windows.append(IsolationWindow(i, k_start, k_end, counts, None, (), True))
    return IsolationReport(
        p=bank.p, window=window, k_bar_star=k_bar,
        step_unions=step_unions, windows=tuple(windows),
    )


def _member_str(members) -> str:
    return ",".join(str(i) for i in members)


def windows_to_csv(report: IsolationReport, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["window_i", "k_start", "k_end", "winner_J", "isolated_set", "no_quorum"])
    for w in report.windows:
        writer.writerow([
            w.index, w.k_start, w.k_end,
            "" if w.winner is None else _member_str(w.winner),
            _member_str(w.isolated), int(w.no_quorum),
        ])


def steps_to_csv(report: IsolationReport, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["k", "Wbar"])
    for k in sorted(report.step_unions):
        writer.writerow([k, _member_str(report.step_unions[k])])
