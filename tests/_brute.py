"""Independent brute-force reference for observers, selection and isolation.

Everything here re-derives the pipeline from first principles: subsets
by direct enumeration, deviations as a left-to-right sum of squares
under ``math.sqrt`` (the package sums the squares in the same order
for every state dimension n, so the scores agree bit for bit), worst
deviations and argmins by explicit scans, unions by set arithmetic,
votes by hand-counted dictionaries, artifact text by ``csv.writer``
with one ``repr(float(v))`` per field.  Nothing is shared with the
package, so agreement can be checked bit for bit.
"""

import csv
import io
import math
from itertools import combinations

import numpy as np


def enumerate_members(p, size):
    return list(combinations(range(1, p + 1), size))


def bank_geometry(p, q):
    """The J members, the S members, and each J's cross-checks as the
    positions in ``all_subsets`` (J first, then S) of every S whose members
    all lie in J, by a scan of the whole S class."""
    j_class, s_class = enumerate_members(p, p - q), enumerate_members(p, p - 2 * q)
    s_sets = [frozenset(sm) for sm in s_class]
    inside = []
    for jm in j_class:
        js = frozenset(jm)
        inside.append([len(j_class) + i for i, ss in enumerate(s_sets) if ss <= js])
    return j_class, s_class, inside


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


def guarantee_check(est, members, x_hat, truth, attacked):
    """The selection's own guarantee, e_sigma(k) <= 3 max e_K(k), at every step.

    e_K is |x_K - x|, and K ranges over the subsets whose ``members`` miss
    the ``attacked`` sensors.  Some J* with p - q sensors misses them, and
    sigma's p - q sensors hold a clean S with p - 2q, so e_sigma <= pi_sigma
    + e_S <= pi_J* + e_S <= 3 max e_K by the argmin rule alone, for any
    attack and any observer.  ``est`` holds one (T+1, n) track per entry of
    ``members``.  A step at which a clean track is non-finite makes the
    bound vacuous: it is counted, not checked.  Returns the worst ratio
    e_sigma / max e_K, the steps that break the bound (with a slack of
    1 + 1e-12 for rounding) and the vacuous steps.
    """
    clean = [j for j, m in enumerate(members) if not set(m) & set(attacked)]
    with np.errstate(over="ignore", invalid="ignore"):
        e_clean = np.linalg.norm(np.asarray(est)[clean] - truth, axis=-1)
        e_sigma = np.linalg.norm(x_hat - truth, axis=-1)
    vacuous = ~np.isfinite(e_clean).all(axis=0)
    e_max, e_sigma = e_clean.max(axis=0)[~vacuous], e_sigma[~vacuous]
    broken = int(np.count_nonzero(~(e_sigma <= 3.0 * (1.0 + 1e-12) * e_max)))
    settled = e_max > 0.0
    worst = float(np.max(e_sigma[settled] / e_max[settled], initial=0.0))
    return worst, broken, int(np.count_nonzero(vacuous))


def union_of_passing(pi_by_members, thresholds_by_members):
    out = set()
    for jm, score in pi_by_members.items():
        if score <= thresholds_by_members[jm]:
            out |= set(jm)
    return frozenset(out)


def thresholds(gains, p, q, m_bar, d_bar, eps):
    """Threshold 2 (eps + g1 m_bar + g2 d_bar + nu) of every (p-q)-subset, each
    gain the worst over the subset and every (p-2q)-subset inside it, by a
    per-subset scan.  ``gains`` maps (role, members) to (gamma1, gamma2, nu);
    returns dict members -> float."""
    table = {}
    for jm in enumerate_members(p, p - q):
        family = [gains["J", jm]] + [gains["S", sm] for sm in combinations(jm, p - 2 * q)]
        g1 = max(g[0] for g in family)
        g2 = max(g[1] for g in family)
        nu = max(g[2] for g in family)
        table[jm] = 2.0 * (eps + g1 * m_bar + g2 * d_bar + nu)
    return table


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


def example1_f(x, u, d, k):
    """example1's plant map on one 1-D state, as written before the maps took
    batch axes: numpy scalar ``**``, which rounds as C's ``pow``."""
    x1, x2 = x
    return np.array([x1 - x1**3 + x2 * x1**2 - x2**2 * x1**3, -x2])


def example1_h(x, u):
    """example1's output map on one 1-D state, with scalar ``**`` as in :func:`example1_f`."""
    x1, x2 = x
    return np.array([2.0 * x1 + x1**2, x1 + x2, 2.0 * x1 + x2])


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


def circle_folded_track(A, G, H, C, channels, K, L, members, y, x0):
    """One circle-criterion observer stepped alone on one run, in the folded form.

    With A + L C_J and H + K C_J folded once and the gains widened to all p
    outputs (zero off J), x(k+1) = (A + L C_J) x + G f((H + K C_J) x - K y(k))
    - L y(k), each product of x one ``einsum`` call.  G f(.) is taken as
    one row of a two-row matrix product, as in a group of two or more
    observers: BLAS rounds that (gemm) unlike a lone vector-matrix product
    (gemv) once r >= 2.  A non-finite output off J is read as 0 when J reads
    no non-finite output of that step; once an estimate turns non-finite,
    every later estimate is NaN.
    """
    idx = [s - 1 for s in members]
    C_J = C[idx]
    A_LC, H_KC = A + L @ C_J, H + K @ C_J
    K_p, L_p = np.zeros((K.shape[0], C.shape[0])), np.zeros((L.shape[0], C.shape[0]))
    K_p[:, idx], L_p[:, idx] = K, L
    track = np.full((y.shape[0], len(x0)), np.nan)
    x = np.array(x0, dtype=float)
    track[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(y.shape[0] - 1):
            if not all(math.isfinite(v) for v in x):
                break
            bad = [not math.isfinite(v) for v in y[k]]
            y_k = y[k] if any(bad[i] for i in idx) else np.where(bad, 0.0, y[k])
            Ky, Ly = ((gain @ y_k[:, None])[:, 0] for gain in (K_p, L_p))
            arg = np.einsum("jrn,bjn->bjr", H_KC[None], x[None, None])[0, 0] - Ky
            x = (np.einsum("jmn,bjn->bjm", A_LC[None], x[None, None])[0, 0]
                 + (np.stack([channels(arg)] * 2) @ G.T)[0] - Ly)
            track[k + 1] = x
    return track


def structure_plant_track(st, D, x0, u, d):
    """B plant runs stepped through the structure ``st`` and the disturbance
    input ``D`` (None for none), as (B, T+1, n) with T = u.shape[1] - 1.

    The runs step as one (B, n, 1) column state: A x + G f(H x) for a circle
    structure, A x + g(x, u) for a reduced-order one, then D d(k), each
    product one stacked ``np.matmul``.  No stop rule: every step is taken.
    """
    X = np.array(x0, dtype=float)[..., None]
    track = [X[..., 0]]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(u.shape[1] - 1):
            if hasattr(st, "G"):
                X = st.A @ X + st.G @ st.channels(st.H @ X)
            else:
                X = st.A @ X + st.g(X[..., 0], u[:, k])[..., None]
            if D is not None:
                X = X + D @ d[:, k, :, None]
            track.append(X[..., 0])
    return np.stack(track, axis=1)


def calibration_plant_run(f, h, mean, std, noise_amp, dist_amp, horizon, rng, init_scale,
                          n_d, p):
    """One calibration plant run, every signal drawn step by step.

    The draws come in this order: x(0) from the normal init (mean, std),
    the initial estimate x(0) + init_scale N(0, I), one disturbance of
    ``n_d`` uniform draws per step, then ``p`` uniform output-noise draws
    per step.  Returns (x, y, u, x0_est), as one run of ``calibration._trial_runs``.
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


def sample_signal(gen, k, rng):
    """The value of signal ``gen`` at step ``k``, one stream draw per stochastic step.

    Sampling k = 0, 1, 2, ... in order gives the signal's path; a uniform
    draw on an endpoint is redrawn, so every value is inside (low, high).
    """
    if gen.kind == "zero":
        return 0.0
    if gen.kind == "constant":
        return gen.value
    if gen.kind == "uniform":
        v = rng.uniform(gen.low, gen.high)
        while not gen.low < v < gen.high:
            v = rng.uniform(gen.low, gen.high)
        return float(v)
    if gen.kind == "normal":
        return float(gen.mean + gen.std * rng.standard_normal())
    if gen.kind == "table":
        return float(gen.values[k])
    raise ValueError(f"unknown signal kind {gen.kind!r}")


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _floats(values):
    return [repr(float(v)) for v in values]


def trajectory_csv(traj):
    """The text of ``Trajectory.write_csv``: one row per step."""
    x, y, a, m, d = traj.x, traj.y, traj.a, traj.m, traj.d
    header = (["k"] + [f"x{i}" for i in range(1, x.shape[1] + 1)]
              + [f"{c}{i}" for c in "yam" for i in range(1, y.shape[1] + 1)]
              + [f"d{i}" for i in range(1, d.shape[1] + 1)])
    rows = [[k] + _floats(x[k]) + _floats(y[k]) + _floats(a[k]) + _floats(m[k]) + _floats(d[k])
            for k in range(x.shape[0])]
    return _csv_text(header, rows)


def frames_csv(run):
    """The text of ``frames_to_csv``: selection, x-hat, error and scores per step."""
    labels = [J.label for J in run.bank.j_subsets]
    header = (["k", "sigma"] + [f"xhat{i}" for i in range(1, run.x_hat.shape[1] + 1)]
              + ["e_norm"] + [f"pi_{label}" for label in labels])
    e_norm = run.e_norm
    rows = [[k, labels[int(run.sigma_idx[k])]] + _floats(run.x_hat[k])
            + ["" if e_norm is None else repr(float(e_norm[k]))] + _floats(run.pi[k])
            for k in range(run.x_hat.shape[0])]
    return _csv_text(header, rows)


def windows_csv(report):
    """The text of ``windows_to_csv``: one row per isolation window."""
    rows = [[w.index, w.k_start, w.k_end,
             "" if w.winner is None else ",".join(map(str, w.winner)),
             ",".join(map(str, w.isolated)), int(w.no_quorum)]
            for w in report.windows]
    return _csv_text(["window_i", "k_start", "k_end", "winner_J", "isolated_set", "no_quorum"],
                     rows)


def steps_csv(report):
    """The text of ``steps_to_csv``: the union of passing subsets per step."""
    rows = [[k, ",".join(map(str, report.step_unions[k]))] for k in sorted(report.step_unions)]
    return _csv_text(["k", "Wbar"], rows)


def sector_margin_on_grid(A_LC, G, H_KC, sector, points=1 << 14):
    """The least Re[1 - (b - a) H_KC (zI - A_a)^-1 G], A_a = A_LC + a G H_KC, over
    ``points`` + 1 evenly spaced z = e^{jw}, w in [0, pi], by one linear solve per
    frequency; the real part at -w is the same."""
    a, b = sector
    A_a = A_LC + a * (G @ H_KC)
    z = np.exp(1j * np.linspace(0.0, np.pi, points + 1))
    X = np.linalg.solve(z[:, None, None] * np.eye(len(A_a)) - A_a, G.astype(complex))
    return float(np.min((1.0 - (b - a) * (H_KC @ X)[:, 0, 0]).real))
