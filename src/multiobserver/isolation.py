"""Attack isolation from deviation scores.

A subset J whose deviation score stays under a calibrated threshold
behaved like an attack-free bank member; the union of all such J at a
step is a set of sensors exonerated at that step.  Counting, over a
window, how often each sufficiently large union occurs and taking the
majority vote yields a per-window guess of the attack-free set — its
complement is the isolated (suspected) sensor set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._csvtext import quote
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

    ``pi_bar`` is keyed by every J in ``bank.j_subsets`` order, as
    :func:`compute_thresholds` builds it.  ``k_bar_star`` is the step
    from which every observer's transient term has settled (the max of
    the declared settling steps); scores before it are not meaningful
    for isolation.
    """

    pi_bar: dict[SubsetIndex, float]
    eps: float
    k_bar_star: int

    def __post_init__(self):
        problems = [f"threshold for {J.label} must be finite and >= 0, got {v}"
                    for J, v in self.pi_bar.items() if not 0 <= v < np.inf]  # NaN included
        if self.k_bar_star < 0:
            problems.append(f"settling step must be >= 0, got {self.k_bar_star}")
        if problems:
            raise ConfigurationError(problems)


# what compute_thresholds reads in place of a missing model, which is listed once
_VALID = (1.0, 0.5, 0.0, 0.0, 0.0, 0)


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
    threshold 2*(eps + g1'*m_bar + g2'*d_bar + nu'), which the table
    refuses when it overflows.  The settling step is the max declared
    k_star over the whole bank, unless overridden (0 when the observers
    start at the true state).
    """
    subsets = bank.all_subsets
    models = [gains.get(sub) for sub in subsets]
    # one column per field, one entry per subset, a missing model read as a
    # valid one; each column keeps its values exactly (an int beyond int64
    # makes it an object column rather than a rounded float one)
    c, lam, g1, g2, nu, k_star = map(np.array, zip(*[
        _VALID if m is None else (m.c, m.lam, m.gamma1, m.gamma2, m.nu, m.k_star)
        for m in models]))
    # the rows ISSGainModel.validate faults (NaN fails every >=), whose
    # messages it alone spells
    bad = ~((c >= 1) & (lam > 0) & (lam < 1) & (g1 >= 0) & (g2 >= 0) & (nu >= 0)) | (k_star < 0)
    problems = [f"{subsets[i].label}: {msg}"
                for i in np.flatnonzero(bad).tolist() for msg in models[i].validate()]
    missing = [sub.label for sub, model in zip(subsets, models) if model is None]
    if missing:
        problems.append("missing convergence models for " + ", ".join(missing))
    if not eps >= 0:
        problems.append(f"transient allowance must be nonnegative, got eps={eps}")
    if problems:
        raise ConfigurationError(problems)
    # each J's worst gain over itself and its cross-checks (positions in all_subsets)
    n_j, pos = len(bank.j_subsets), bank.cross_check_pos
    g1, g2, nu = (np.maximum(g[:n_j], g[pos].max(axis=1)) for g in (g1, g2, nu))
    with np.errstate(over="ignore"):  # the table lists each threshold that overflows
        bars = 2.0 * (eps + g1 * m_bar + g2 * d_bar + nu)
    k_bar_star = int(k_star.max() if k_star_override is None else k_star_override)
    return ThresholdTable(dict(zip(bank.j_subsets, bars.tolist())), eps, k_bar_star)


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
    if tuple(thresholds.pi_bar) != bank.j_subsets:
        raise ConfigurationError("thresholds must hold every J subset, in bank.j_subsets order")
    k_bar = thresholds.k_bar_star

    bars = np.array(list(thresholds.pi_bar.values()))
    # the p bytes of row t flag the sensors exonerated at step k_bar + t: the
    # pass mask is packed to bits over the candidates, and sensor s is flagged
    # when those bits share one with its member bits; each distinct row
    # becomes its member tuple once
    passed = np.packbits(run.pi[k_bar:] <= bars, axis=1)
    flags = np.stack([(passed & bits).any(axis=1) for bits in bank.member_bits],
                     axis=1).tobytes()
    unions = [flags[i:i + bank.p] for i in range(0, len(flags), bank.p)]
    member_sets = {u: tuple(s for s, hit in enumerate(u, start=1) if hit) for u in set(unions)}
    step_seq = [member_sets[u] for u in unions]
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
    return IsolationReport(k_bar_star=k_bar, step_unions=step_unions, windows=tuple(windows))


def _member_fields(sets) -> dict[tuple[int, ...], str]:
    """Each distinct member set once, as its CSV field."""
    return {m: quote(",".join(map(str, m))) for m in set(sets)}


def windows_to_csv(report: IsolationReport, fh) -> None:
    # a window without quorum has no winner: its field is empty
    field = _member_fields(m for w in report.windows for m in (w.winner or (), w.isolated))
    fh.write("window_i,k_start,k_end,winner_J,isolated_set,no_quorum\n")
    fh.write("".join(
        f"{w.index},{w.k_start},{w.k_end},{field[w.winner or ()]},{field[w.isolated]},"
        f"{int(w.no_quorum)}\n"
        for w in report.windows
    ))


def steps_to_csv(report: IsolationReport, fh) -> None:
    unions = report.step_unions
    field = _member_fields(unions.values())
    fh.write("k,Wbar\n")
    fh.write("".join(f"{k},{field[unions[k]]}\n" for k in sorted(unions)))
