"""Independent brute-force re-derivation of selection and isolation.

Written from the method's definition with plain Python scans: subsets
by direct enumeration, deviations as a left-to-right sum of squares
under ``math.sqrt`` (which rounds exactly like numpy's row-wise norm),
argmins by explicit scans, unions by set arithmetic and votes by
hand-counted dictionaries.  It shares no code with the program, so its
results can be compared with the program's bit for bit.
"""

from __future__ import annotations

import math
from itertools import combinations


def j_members(p: int, q: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, p + 1), p - q))


def deviation(a, b) -> float:
    acc = 0.0
    for u, v in zip(a, b):
        d = u - v
        acc += d * d
    r = math.sqrt(acc) if acc == acc else math.inf
    return r if math.isfinite(r) else math.inf


def pi_at_step(track, p: int, q: int) -> dict[tuple[int, ...], float]:
    """Deviation score of every candidate; ``track[members]`` is a vector."""
    out = {}
    for jm in j_members(p, q):
        worst = -math.inf
        for sm in combinations(jm, p - 2 * q):
            d = deviation(track[jm], track[sm])
            if d > worst:
                worst = d
        out[jm] = worst
    return out


def argmin(pi: dict[tuple[int, ...], float]):
    best, best_val = None, math.inf
    for jm in sorted(pi):
        if pi[jm] < best_val:
            best, best_val = jm, pi[jm]
    return best


def thresholds(gains, p: int, q: int, m_bar: float, d_bar: float, eps: float) -> dict:
    """Per-candidate threshold 2 (eps + g1 m_bar + g2 d_bar + nu).

    ``gains`` maps ("J" or "S", members) to a convergence model; each
    gain is maxed over the candidate and its cross-check subsets.
    """
    out = {}
    for jm in j_members(p, q):
        family = [gains[("J", jm)]] + [gains[("S", sm)] for sm in combinations(jm, p - 2 * q)]
        g1 = max(g.gamma1 for g in family)
        g2 = max(g.gamma2 for g in family)
        nu = max(g.nu for g in family)
        out[jm] = 2.0 * (eps + g1 * m_bar + g2 * d_bar + nu)
    return out


def union_of_passing(pi: dict, bars: dict) -> tuple[int, ...]:
    out = set()
    for jm, score in pi.items():
        if score <= bars[jm]:
            out |= set(jm)
    return tuple(sorted(out))


def window_votes(unions: dict[int, tuple[int, ...]], p: int, q: int, k_bar: int, window: int):
    """(k_start, k_end, counts, winner, isolated, no_quorum) per full window."""
    last = max(unions) if unions else k_bar - 1
    out = []
    i = 1
    while k_bar + i * window - 1 <= last:
        k_start = k_bar + (i - 1) * window
        k_end = k_bar + i * window - 1
        counts = {}
        for k in range(k_start, k_end + 1):
            u = unions.get(k)
            if u is not None and len(u) >= p - q:
                counts[u] = counts.get(u, 0) + 1
        if counts:
            top, winner = -1, None
            for u in sorted(counts):
                if counts[u] > top:
                    top, winner = counts[u], u
            isolated = tuple(s for s in range(1, p + 1) if s not in winner)
            out.append((k_start, k_end, counts, winner, isolated, False))
        else:
            out.append((k_start, k_end, {}, None, (), True))
        i += 1
    return out
