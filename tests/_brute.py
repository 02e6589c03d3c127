"""Independent brute-force reference for observers, selection and isolation.

Everything here re-derives the pipeline from first principles: subsets
by direct enumeration, deviations as a left-to-right sum of squares
under ``math.sqrt`` (which, for the short state vectors used here,
rounds exactly like numpy's row-wise norm), worst deviations and
argmins by explicit scans, unions by set arithmetic, votes by
hand-counted dictionaries.  Nothing is shared with the package, so
agreement can be checked bit for bit.
"""

import math
from itertools import combinations

import numpy as np


def enumerate_members(p, size):
    return list(combinations(range(1, p + 1), size))


def deviation(a, b):
    acc = 0.0
    for u, v in zip(map(float, a), map(float, b)):
        d = u - v
        acc += d * d
    return math.sqrt(acc) if math.isfinite(acc) else math.inf


def pi_table(est_j, est_s, p, q):
    """Deviation score of every (p-q)-subset: dict members -> float."""
    s_size = p - 2 * q
    table = {}
    for jm in enumerate_members(p, p - q):
        worst = -math.inf
        for sm in combinations(jm, s_size):
            d = deviation(est_j[jm], est_s[sm])
            if d > worst:
                worst = d
        table[jm] = worst
    return table

def argmin_selection(pi_by_members):
    """First strict minimum in lexicographic member order; None if all inf."""
    best, best_val = None, math.inf
    for jm in sorted(pi_by_members):
        if pi_by_members[jm] < best_val:
            best, best_val = jm, pi_by_members[jm]
    return best


def union_of_passing(pi_by_members, thresholds_by_members):
    out = set()
    for jm, score in pi_by_members.items():
        if score <= thresholds_by_members[jm]:
            out |= set(jm)
    return frozenset(out)


def windowed_votes(unions_by_step, p, q, k_bar_star, window):
    """Replicate the vote: list of dicts per window plus verdicts.

    Returns a list of (k_start, k_end, counts, winner, isolated,
    no_quorum) tuples covering every full window after k_bar_star.
    """
    quorum = p - q
    usable = {k: u for k, u in unions_by_step.items() if k >= k_bar_star}
    last = max(usable) if usable else k_bar_star - 1
    out = []
    i = 1
    while k_bar_star + i * window - 1 <= last:
        k_start = k_bar_star + (i - 1) * window
        k_end = k_bar_star + i * window - 1
        counts = {}
        for k in range(k_start, k_end + 1):
            u = tuple(sorted(usable.get(k, ())))
            if k in usable and len(u) >= quorum:
                counts[u] = counts.get(u, 0) + 1
        if counts:
            top = -1
            winner = None
            for u in sorted(counts):
                if counts[u] > top:
                    top, winner = counts[u], u
            isolated = tuple(s for s in range(1, p + 1) if s not in winner)
            out.append((k_start, k_end, counts, winner, isolated, False))
        else:
            out.append((k_start, k_end, {}, None, (), True))
        i += 1
    return out


def reduced_observer_track(A, C, g, L, K, members, y, x0):
    """One reduced-order observer stepped alone over the outputs ``y``.

    Rebuilds the partial coordinates from [L; C_J] and applies the update
    one step at a time on 1-D vectors; once an estimate turns non-finite,
    every later estimate is NaN.
    """
    idx = [s - 1 for s in members]
    C_J = C[idx]
    nz = L.shape[0]
    T_inv = np.linalg.inv(np.vstack([L, C_J]))
    N, M = T_inv[:, :nz], T_inv[:, nz:]
    A_L, B_L = L @ A @ N, L @ A @ M
    y_J = y[:, idx]
    track = np.full((y.shape[0], A.shape[0]), np.nan)
    z = L @ x0
    x = N @ z + M @ y_J[0]
    track[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(y.shape[0] - 1):
            if not all(math.isfinite(v) for v in track[k]):
                break
            gx = g(x, None)
            z_pred = A_L @ z + B_L @ y_J[k] + L @ gx
            x_pred = A @ x + gx
            z = z_pred + K @ (y_J[k + 1] - C_J @ x_pred)
            x = N @ z + M @ y_J[k + 1]
            track[k + 1] = x
    return track


def luenberger_observer_track(f, h, K, members, y, u, x0, n_d=0):
    """One Luenberger observer stepped alone over the outputs ``y``.

    x(k+1) = f(x(k), u(k)) + K (y_J(k) - h_J(x(k), u(k))) on 1-D vectors;
    once an estimate turns non-finite, f and h are not called again and
    every later estimate is NaN.
    """
    idx = [s - 1 for s in members]
    d0 = np.zeros(n_d)
    track = np.full((y.shape[0], len(x0)), np.nan)
    x = np.array(x0, dtype=float)
    track[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(y.shape[0] - 1):
            if not all(math.isfinite(v) for v in x):
                break
            innov = y[k, idx] - np.asarray(h(x, u[k]), dtype=float)[idx]
            x = np.asarray(f(x, u[k], d0, k) + K @ innov, dtype=float)
            track[k + 1] = x
    return track


def circle_observer_track(A, G, H, C, channels, K, L, members, y, x0):
    """One circle-criterion observer stepped alone, in the unfolded form.

    x(k+1) = A x + G f(H x + K e) + L e with e = C_J x - y_J(k); once an
    estimate turns non-finite, every later estimate is NaN.
    """
    idx = [s - 1 for s in members]
    C_J = C[idx]
    track = np.full((y.shape[0], len(x0)), np.nan)
    x = np.array(x0, dtype=float)
    track[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(y.shape[0] - 1):
            if not all(math.isfinite(v) for v in x):
                break
            e = C_J @ x - y[k, idx]
            x = A @ x + G @ channels(H @ x + K @ e) + L @ e
            track[k + 1] = x
    return track


def calibration_plant_run(f, h, mean, std, noise_amp, dist_amp, horizon, rng, init_scale,
                          n_d, p):
    """One calibration plant run, every signal drawn step by step.

    The draws come in this order: x(0) from the normal init (mean, std),
    the initial estimate x(0) + init_scale N(0, I), one disturbance of
    ``n_d`` uniform draws per step, then ``p`` uniform output-noise draws
    per step.  Returns (x, y, u, x0_est), as ``calibration._plant_run`` does.
    """
    n = len(mean)
    u = np.zeros((horizon + 1, 0))
    x0 = np.array(mean, dtype=float) + np.array(std, dtype=float) * rng.standard_normal(n)
    x0_est = x0 + init_scale * rng.standard_normal(n)
    x = [x0]
    for k in range(horizon):
        d = dist_amp * rng.uniform(-1.0, 1.0, n_d) if dist_amp > 0 else np.zeros(n_d)
        x.append(np.asarray(f(x[k], u[k], d, k), dtype=float))
    y = []
    for k in range(horizon + 1):
        y_k = np.asarray(h(x[k], u[k]), dtype=float)
        if noise_amp > 0:
            y_k = y_k + noise_amp * rng.uniform(-1.0, 1.0, p)
        y.append(y_k)
    return np.array(x), np.array(y), u, x0_est
