"""End-to-end acceptance gate: ten numbered criteria, one test each.

Every test prints a single verdict line of the form

    [criterion N] label: PASS/FAIL — detail

and then asserts it, so ``pytest -s tests/test_acceptance.py`` shows
the whole scorecard at once.

Criterion 1 measures the estimator on the seeds whose plant trajectory
exists.  The first bundled scenario draws the initial plant state from
a unit normal, and its cubic plant has a bounded basin: on roughly a
third of the draws the true state escapes to infinity within a few
steps, ``simulate`` raises :class:`SimulationDivergedError`, and there
is no state left to estimate.  Those seeds are excluded from the
population, but only after the plant map alone, iterated from the same
initial state without sensors, attacks or the divergence ceiling, is
seen to turn non-finite on exactly those seeds.  The 95% floor then
applies to the remaining seeds, with a run whose whole bank escapes
(:class:`EstimatorStarvedError`) counted as a miss, and at least half
of the 100 seeds must keep a finite plant.  The verdict line reports
the population, the exclusions, the starved count and the batch time.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from _brute import (
    argmin_selection,
    guarantee_check,
    pi_table,
    union_of_passing,
    windowed_votes,
)
from _toys import run_from_pi, toy_bank, toy_plant, toy_scenario
from multiobserver import (
    ConfigurationError,
    EstimatorRun,
    EstimatorStarvedError,
    SignalSpec,
    SimulationDivergedError,
    ThresholdTable,
    bank_index,
    build_bank,
    compute_thresholds,
    load_config,
    run_estimator,
    run_seeds,
    signal_stream,
    simulate,
    windowed_isolation,
)
from multiobserver.config import parse_config


def _verdict(num, label, ok, detail):
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def _plant_map_escapes(cfg, seed):
    """Whether the bare plant map, iterated from the seed's x0, turns non-finite.

    No sensor, attack, observer or divergence ceiling is involved, so
    this confirms a plant divergence independently of ``simulate``.
    """
    x = cfg.scenario.x0.sample(signal_stream(seed, "init"))
    u = np.zeros(cfg.plant.n_u)
    d = np.zeros(cfg.plant.n_d)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.scenario.horizon):
            x = np.asarray(cfg.plant.f(x, u, d, k), dtype=float)
            if not np.all(np.isfinite(x)):
                return True
    return False


def _guarantee(runs, attacked, need_finite=True):
    """Whether e_sigma <= 3 max e_K over the clean K held on every step of the
    finished ``runs``, and a report of it.  ``attacked`` is the attacked set of
    every run, or a list of one per run.  A step with a non-finite clean track
    is vacuous: counted, and allowed only when not ``need_finite``."""
    worst = broken = vacuous = 0
    per_run = attacked if isinstance(attacked, list) else [attacked] * len(runs)
    for run, attacked_set in zip(runs, per_run):
        if isinstance(run, EstimatorRun):
            members = [sub.members for sub in run.bank.all_subsets]
            w, b, v = guarantee_check(run.est, members, run.x_hat, run.truth, attacked_set)
            worst, broken, vacuous = max(worst, w), broken + b, vacuous + v
    return broken == 0 and (vacuous == 0 or not need_finite), (
        f"; e_sigma <= 3 max clean e_K broken on {broken} steps (need 0), worst ratio "
        f"{worst:.2f}, {vacuous} steps with a non-finite clean track "
        f"({'need 0' if need_finite else 'reported'})"
    )


def test_criterion_1_short_horizon_convergence(scenario_dir):
    cfg = load_config(scenario_dir / "example1.json")
    bank, _ = build_bank(cfg)
    seeds = range(100)
    started = time.perf_counter()
    outcomes = run_seeds(cfg, bank, seeds)
    elapsed = time.perf_counter() - started
    excluded = {seed for seed, out in zip(seeds, outcomes)
                if isinstance(out, SimulationDivergedError)}
    # a finite plant the bank lost: a miss, not an exclusion
    starved = sum(isinstance(out, EstimatorStarvedError) for out in outcomes)
    passes = sum(isinstance(out, EstimatorRun) and float(out.e_norm[40:].max()) < 1e-2
                 for out in outcomes)

    escaped = {seed for seed in seeds if _plant_map_escapes(cfg, seed)}
    finite = len(seeds) - len(excluded)
    need = (95 * finite + 99) // 100  # ceil(0.95 * finite), in exact integers
    if excluded == escaped:
        confirmed = "all confirmed divergent by the plant map"
    else:
        confirmed = f"plant map disagrees on seeds {sorted(excluded ^ escaped)}"
    bounded, guarantee = _guarantee(outcomes, cfg.scenario.attacked)
    ok = excluded == escaped and finite >= 50 and passes >= need and elapsed < 1.0 and bounded
    line = _verdict(
        1,
        "short-horizon convergence, 3 sensors / 1 attacked",
        ok,
        f"{passes}/{finite} finite-plant seeds below 1e-2 for k >= 40 "
        f"(need {need}; at least 50 finite); {len(excluded)}/{len(seeds)} excluded, "
        f"{confirmed}; {starved} starved; batch {elapsed:.2f}s (limit 1s){guarantee}",
    )
    assert ok, line


def test_criterion_2_reduced_bank_tail(scenario_dir):
    cfg = load_config(scenario_dir / "example2.json")
    bank, _ = build_bank(cfg)
    steps = cfg.scenario.horizon + 1
    start = steps - steps // 5  # final 20% of the run
    runs = run_seeds(cfg, bank, range(100))
    passes = sum(isinstance(run, EstimatorRun) and float(run.e_norm[start:].max()) < 1e-2
                 for run in runs)
    bounded, guarantee = _guarantee(runs, cfg.scenario.attacked)
    ok = passes >= 95 and bounded
    line = _verdict(
        2,
        "reduced-order bank tail error",
        ok,
        f"{passes}/100 seeds with tail max below 1e-2 over k >= {start} (need 95){guarantee}",
    )
    assert ok, line


def test_criterion_3_noise_gain_bound(scenario_dir):
    cfg = load_config(scenario_dir / "example3.json")
    bank, _ = build_bank(cfg)
    bound = cfg.estimator_iss.gamma1 * 0.1  # calibrated gain times the noise bound
    started = time.perf_counter()
    runs = run_seeds(cfg, bank, range(100))
    passes = sum(isinstance(run, EstimatorRun) and float(run.e_norm[150:200].max()) <= bound
                 for run in runs)
    elapsed = time.perf_counter() - started
    bounded, guarantee = _guarantee(runs, cfg.scenario.attacked)
    ok = passes >= 95 and elapsed < 5.0 and bounded
    line = _verdict(
        3,
        "5-sensor circle bank within calibrated noise bound",
        ok,
        f"{passes}/100 seeds with tail max over k in [150,199] within {bound:.4f} "
        f"(need 95); batch {elapsed:.2f}s (limit 5s){guarantee}",
    )
    assert ok, line


def test_criterion_4_attack_magnitude_independence(scenario_dir):
    cfg = load_config(scenario_dir / "example3.json")
    bank, _ = build_bank(cfg)
    scaled_gens = {
        s: replace(g, low=10.0 * g.low, high=10.0 * g.high)
        for s, g in cfg.scenario.attack_gens.items()
    }
    worst = 0.0
    pairs = 0
    loud = replace(cfg.scenario, attack_gens=scaled_gens)
    base_runs, big_runs = run_seeds(cfg, bank, range(20)), run_seeds(cfg, bank, range(20), loud)
    for run_base, run_big in zip(base_runs, big_runs):
        if not (isinstance(run_base, EstimatorRun) and isinstance(run_big, EstimatorRun)):
            continue
        t_base = float(run_base.e_norm[150:200].max())
        t_big = float(run_big.e_norm[150:200].max())
        worst = max(worst, abs(t_big - t_base) / t_base)
        pairs += 1
    bounded, guarantee = _guarantee(base_runs + big_runs, cfg.scenario.attacked)
    ok = pairs == 20 and worst <= 0.10 and bounded
    line = _verdict(
        4,
        "tail error independent of attack magnitude",
        ok,
        f"scaling attacks x10 moved the tail max by at most {100 * worst:.3f}% "
        f"across {pairs} seed pairs (limit 10%){guarantee}",
    )
    assert ok, line


def test_criterion_5_windowed_isolation(scenario_dir):
    cfg = load_config(scenario_dir / "example4.json")
    bank, _ = build_bank(cfg)
    iso = cfg.isolation
    started = time.perf_counter()
    thresholds = compute_thresholds(
        cfg.iss_models(), cfg.bank, iso.m_bar, iso.d_bar, iso.eps, k_star_override=iso.k_star
    )
    (run,) = run_seeds(cfg, bank, [cfg.scenario.seed])
    rep100 = windowed_isolation(run, thresholds, 100)
    rep200 = windowed_isolation(run, thresholds, 200)
    clean_scen = replace(cfg.scenario, attacked=frozenset(), attack_gens={})
    (run_clean,) = run_seeds(cfg, bank, [cfg.scenario.seed], clean_scen)
    rep_clean = windowed_isolation(run_clean, thresholds, 100)
    elapsed = time.perf_counter() - started

    hit100 = np.mean([w.isolated == (3,) for w in rep100.windows])
    hit200 = np.mean([w.isolated == (3,) for w in rep200.windows])
    empty = np.mean(
        [w.isolated == () and not w.no_quorum for w in rep_clean.windows]
    )
    ok = hit100 >= 0.70 and hit200 >= 0.80 and empty >= 0.90 and elapsed < 10.0
    line = _verdict(
        5,
        "windowed attack isolation",
        ok,
        f"sensor 3 isolated in {100 * hit100:.0f}% of N=100 windows (need 70) and "
        f"{100 * hit200:.0f}% of N=200 windows (need 80); attack-free run empty in "
        f"{100 * empty:.0f}% (need 90); {elapsed:.2f}s (limit 10s)",
    )
    assert ok, line


def test_criterion_6_bank_sizes():
    expected = {(3, 1): 6, (5, 2): 15, (4, 1): 10}
    got = {pq: len(bank_index(*pq).all_subsets) for pq in expected}
    ok = got == expected
    line = _verdict(
        6,
        "combinatorial bank sizes",
        ok,
        f"(p,q) -> observer count: {sorted(got.items())} (expected 6 / 15 / 10)",
    )
    assert ok, line


def test_criterion_7_brute_force_oracle():
    plant, idx, bank = toy_bank()
    scen = toy_scenario(horizon=99, noise_bound=0.05, seed=7)
    traj = simulate(plant, scen)
    est = bank.run(traj.y, np.zeros((100, plant.n_u)), np.zeros(plant.n))
    pos = {sub: j for j, sub in enumerate(bank.subsets)}
    run = run_estimator(idx, bank.subsets, est)
    # thresholds at the per-subset median keep both outcomes of every
    # comparison populated
    pi_bar = {J: float(np.median(run.pi[:, j])) for j, J in enumerate(idx.j_subsets)}
    table = ThresholdTable(pi_bar=pi_bar, eps=0.0, k_bar_star=4)
    brute_bar = {J.members: v for J, v in pi_bar.items()}
    # settled from k = 0, so that every step's union is reported
    step_unions = windowed_isolation(run, replace(table, k_bar_star=0), 7).step_unions

    mismatches = scores = 0
    unions = {}
    for k in range(100):
        est_j = {sub.members: est[pos[sub], k] for sub in idx.j_subsets}
        est_s = {sub.members: est[pos[sub], k] for sub in idx.s_subsets}
        brute = pi_table(est_j, est_s, 3, 1)
        for j, J in enumerate(idx.j_subsets):
            scores += 1
            mismatches += run.pi[k, j] != brute[J.members]
        mismatches += run.bank.j_subsets[run.sigma_idx[k]].members != argmin_selection(brute)
        u = union_of_passing(brute, brute_bar)
        mismatches += step_unions[k] != tuple(sorted(u))
        if k >= table.k_bar_star:
            unions[k] = u
    votes = windowed_votes(unions, 3, 1, table.k_bar_star, 7)
    report = windowed_isolation(run, table, 7)
    mismatches += len(report.windows) != len(votes)
    for w, (k_start, k_end, counts, winner, isolated, no_quorum) in zip(
        report.windows, votes
    ):
        mismatches += (
            w.k_start,
            w.k_end,
            w.counts,
            w.winner,
            w.isolated,
            w.no_quorum,
        ) != (k_start, k_end, counts, winner, isolated, no_quorum)

    ok = mismatches == 0
    line = _verdict(
        7,
        "brute-force oracle equivalence",
        ok,
        f"{scores} deviation scores, 100 selections, 100 unions, and "
        f"{len(votes)} vote windows agree bit-for-bit ({mismatches} mismatches)",
    )
    assert ok, line


def test_criterion_8_invariant_battery(scenario_dir):
    cases = 1000
    rng = np.random.default_rng(2024)

    # selection invariants on random estimate banks (NaNs included)
    done = 0
    while done < cases:
        p = int(rng.integers(3, 6))
        q = int(rng.integers(1, (p - 1) // 2 + 1))
        n = int(rng.integers(1, 4))
        idx = bank_index(p, q)
        est = np.array(
            [[rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)] for _ in idx.all_subsets]
        )  # (subsets, 1 step, n)
        if rng.random() < 0.1:
            est[int(rng.integers(0, len(idx.all_subsets)))] = np.nan
        try:
            run = run_estimator(idx, idx.all_subsets, est)
        except EstimatorStarvedError:
            continue
        assert (run.pi >= 0.0).all()
        assert run.pi[0, run.sigma_idx[0]] == run.pi[0].min()
        chosen = idx.j_subsets[run.sigma_idx[0]]
        assert np.array_equal(run.x_hat[0], est[idx.all_subsets.index(chosen), 0])
        done += 1

    # attack support: the injected attack never leaves its declared support
    plant = toy_plant()
    for case in range(cases):
        attacked = (int(rng.integers(1, 4)),)
        traj = simulate(
            plant, toy_scenario(attacked=attacked, seed=case, horizon=2)
        )
        off = [i for i in range(3) if (i + 1) not in attacked]
        assert np.all(traj.a[:, off] == 0.0)

    # isolation cardinality: never more sensors accused than the budget
    for case in range(cases):
        p = int(rng.integers(3, 6))
        q = int(rng.integers(1, (p - 1) // 2 + 1))
        idx = bank_index(p, q)
        table = ThresholdTable(
            pi_bar={J: 1.0 for J in idx.j_subsets}, eps=0.0, k_bar_star=0
        )
        pi = [[float(rng.choice([0.5, 5.0])) for _ in idx.j_subsets] for _ in range(3)]
        report = windowed_isolation(run_from_pi(idx, pi), table, 3)
        for w in report.windows:
            assert len(w.isolated) <= q
            if w.winner is not None:
                assert len(w.winner) >= p - q

    # reduced-order coordinate identity within 1e-8
    from multiobserver import SubsetIndex
    from multiobserver.errors import ConfigurationError
    from multiobserver.observers import ReducedOrderObserver, ReducedStructure

    done = 0
    while done < cases:
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n))
        card = int(rng.integers(1, p + 1))
        A = rng.normal(size=(n, n))
        C = rng.normal(size=(p, n))
        members = tuple(
            sorted(rng.choice(np.arange(1, p + 1), size=card, replace=False))
        )
        L = rng.normal(size=(n - card, n))
        st = ReducedStructure(A=A, C=C, g=lambda x, u: np.zeros(n), read=0, write=0,
                              sector=(0.0, 0.0))
        try:
            obs = ReducedOrderObserver(SubsetIndex("J", members), st, L)
        except ConfigurationError:
            continue  # randomly singular completion, rejected by contract
        assert np.max(np.abs(obs.N @ obs.L + obs.M @ obs.C_J - np.eye(n))) < 1e-8
        done += 1

    # the selection's guarantee on random banks: clean tracks near the truth,
    # each track that reads an attacked sensor pushed by up to 1e6 (in half the
    # cases all of them by one fake offset), NaNs included
    worst, vacuous, done = 0.0, 0, 0
    while done < cases:
        p = int(rng.integers(3, 9))
        q = int(rng.integers(1, (p - 1) // 2 + 1))
        n = int(rng.integers(1, 4))
        idx = bank_index(p, q)
        members = [sub.members for sub in idx.all_subsets]
        attacked = set(rng.choice(np.arange(1, p + 1), size=int(rng.integers(0, q + 1)),
                                  replace=False).tolist())
        truth = rng.normal(size=(4, n))
        est = truth + rng.normal(size=(len(members), 4, n)) * 10.0 ** rng.integers(-3, 1)
        coherent, scale = rng.random() < 0.5, 10.0 ** rng.integers(-3, 7)
        fake = rng.normal(size=(4, n)) * scale
        for j, m in enumerate(members):
            if attacked & set(m):
                est[j] += fake if coherent else rng.normal(size=(4, n)) * scale
        if rng.random() < 0.1:
            est[int(rng.integers(0, len(members))), int(rng.integers(0, 4))] = np.nan
        try:
            run = run_estimator(idx, idx.all_subsets, est)
        except EstimatorStarvedError:
            continue
        w, broken, v = guarantee_check(est, members, run.x_hat, truth, attacked)
        assert broken == 0, (p, q, n, attacked, est, w)
        worst, vacuous = max(worst, w), vacuous + v
        done += 1

    # sector certificates for the bundled circle scenarios: each builds with
    # every observer not marked practical certified over sin's sector [-1, 1],
    # and with the marks dropped the practical ones, and only they, are listed
    sectors = []
    for name in ("example3", "example4"):
        cfg = load_config(scenario_dir / f"{name}.json")
        assert cfg.family == "circle" and cfg.plant.structure.sector == (-1.0, 1.0)
        _, certificates = build_bank(cfg)
        practical = [sub.label for sub, spec in cfg.specs.items() if spec.practical]
        assert [sub.label for sub, cert in certificates.items()
                if not cert.passed] == practical
        for entry in cfg.raw["observers"]["bundle"].values():
            entry.pop("practical", None)
        refused = []
        try:
            build_bank(parse_config(cfg.raw))
        except ConfigurationError as err:
            refused = err.problems
        assert [p.split(": ")[0] for p in refused] == practical
        assert all("sector certificate failed" in p for p in refused)
        sectors.append(name)

    # determinism: the same seed reproduces a full run bit for bit
    cfg = load_config(scenario_dir / "example1.json")
    bank, _ = build_bank(cfg)
    t1, t2 = (simulate(cfg.plant, cfg.scenario, ceiling=cfg.ceiling) for _ in range(2))
    (r1,), (r2,) = (run_seeds(cfg, bank, [cfg.scenario.seed]) for _ in range(2))
    assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.y, t2.y)
    assert np.array_equal(r1.pi, r2.pi) and np.array_equal(r1.x_hat, r2.x_hat)

    line = _verdict(
        8,
        "invariant battery",
        True,
        f"5 randomized property families x {cases} cases (e_sigma <= 3 max clean e_K: "
        f"worst ratio {worst:.2f}, {vacuous} steps with a non-finite clean track), "
        f"sector certificates for "
        f"{'/'.join(sectors)}, and bit-identical repeated runs",
    )
    assert line

def test_criterion_9_isolation_over_a_seed_block(scenario_dir):
    # criterion 5 over example4's seeds 0-99; each floor is the seed block's
    # measured rate less a small margin (957/1000, 497/500 and 1000/1000 windows)
    cfg = load_config(scenario_dir / "example4.json")
    bank, _ = build_bank(cfg)
    iso = cfg.isolation
    started = time.perf_counter()
    thresholds = compute_thresholds(
        cfg.iss_models(), cfg.bank, iso.m_bar, iso.d_bar, iso.eps, k_star_override=iso.k_star
    )
    clean_scen = replace(cfg.scenario, attacked=frozenset(), attack_gens={})
    runs = run_seeds(cfg, bank, range(100))
    clean_runs = run_seeds(cfg, bank, range(100), clean_scen)
    attacked = {N: [w for run in runs for w in windowed_isolation(run, thresholds, N).windows]
                for N in (100, 200)}
    clean = [w for run in clean_runs for w in windowed_isolation(run, thresholds, 100).windows]
    elapsed = time.perf_counter() - started

    wrong = sum(not set(w.isolated) <= {3} for w in attacked[100] + attacked[200] + clean)
    hit100 = np.mean([w.isolated == (3,) for w in attacked[100]])
    hit200 = np.mean([w.isolated == (3,) for w in attacked[200]])
    empty = np.mean([w.isolated == () and not w.no_quorum for w in clean])
    bounded, guarantee = _guarantee(runs + clean_runs, [cfg.scenario.attacked] * len(runs)
                                    + [frozenset()] * len(clean_runs), need_finite=False)
    ok = (wrong == 0 and hit100 >= 0.95 and hit200 >= 0.99 and empty >= 0.99
          and elapsed < 10.0 and bounded)
    line = _verdict(
        9,
        "windowed attack isolation over seeds 0-99",
        ok,
        f"sensor 3 isolated in {100 * hit100:.1f}% of {len(attacked[100])} N=100 windows "
        f"(need 95) and {100 * hit200:.1f}% of {len(attacked[200])} N=200 windows (need 99); "
        f"attack-free runs empty in {100 * empty:.1f}% of {len(clean)} (need 99); "
        f"{wrong} windows isolate a sensor other than 3 (need 0); {elapsed:.2f}s (limit 10s)"
        f"{guarantee}",
    )
    assert ok, line


def _table(values):
    return SignalSpec("table", values=tuple(values))


def test_criterion_10_adversarial_attack_battery(scenario_dir):
    # An attack is added to h(x) and never feeds back into the plant, so a table
    # computed from a seed's attack-free state track attacks that same run.  On
    # example4, seeds 0-19, sensor 3 reads a fake state (3 C_3 x), only its noise
    # (C_3 x removed), or a replay of seed s+1000's clean output.  Pinned: no
    # window names a clean sensor, and the fused error for k >= 100 stays within
    # 1.2x the attack-free maximum over the same seeds.  Replay hides once the
    # stable plant settles (Mo and Sinopoli, Allerton 2009), so its isolation
    # rate is reported, not required.  Also pinned: a geometric ramp from 1 to
    # 1e12 on example2 and example3 leaves each seed's tail error (criteria 2
    # and 4's tails) as the bundled uniform attack leaves it.
    started = time.perf_counter()
    cfg = load_config(scenario_dir / "example4.json")
    bank, _ = build_bank(cfg)
    iso = cfg.isolation
    thresholds = compute_thresholds(
        cfg.iss_models(), cfg.bank, iso.m_bar, iso.d_bar, iso.eps, k_star_override=iso.k_star
    )
    seeds = range(20)
    clean_scen = replace(cfg.scenario, attacked=frozenset(), attack_gens={})
    clean = run_seeds(cfg, bank, seeds, clean_scen)
    replayed = run_seeds(cfg, bank, range(1000, 1020), clean_scen)
    C3 = cfg.plant.structure.C[2]
    limit = 1.2 * max(float(run.e_norm[100:].max()) for run in clean)
    attacks = {
        "fake state": [2 * run.truth @ C3 for run in clean],
        "noise only": [-(run.truth @ C3) for run in clean],
        "replay": [(other.truth - run.truth) @ C3 for run, other in zip(clean, replayed)],
    }
    # every run, with its attacked set, for the selection's own guarantee
    checked = [(run, frozenset()) for run in clean + replayed]
    wrong, named, worst = {}, {}, {}
    for name, tables in attacks.items():
        runs = [run_seeds(cfg, bank, [seed], replace(cfg.scenario, attack_gens={3: _table(a)}))[0]
                for seed, a in zip(seeds, tables)]
        checked += [(run, cfg.scenario.attacked) for run in runs]
        windows = [w for run in runs for w in windowed_isolation(run, thresholds, iso.window).windows]
        wrong[name] = sum(not set(w.isolated) <= {3} for w in windows)
        named[name] = f"{sum(w.isolated == (3,) for w in windows)}/{len(windows)}"
        worst[name] = max(float(run.e_norm[100:].max()) for run in runs)

    ramps, same = {}, []
    for name, start in (("example2", 160), ("example3", 150)):
        cfg = load_config(scenario_dir / f"{name}.json")
        bank, _ = build_bank(cfg)
        ramp = _table(np.geomspace(1.0, 1e12, cfg.scenario.horizon + 1))
        loud = replace(cfg.scenario, attack_gens=dict.fromkeys(cfg.scenario.attacked, ramp))
        base_runs, big_runs = (run_seeds(cfg, bank, seeds, scen) for scen in (cfg.scenario, loud))
        checked += [(run, cfg.scenario.attacked) for run in base_runs + big_runs]
        base, big = ([float(run.e_norm[start:].max()) for run in runs]
                     for runs in (base_runs, big_runs))
        same.append(np.allclose(big, base, rtol=1e-9, atol=1e-12))
        ramps[name] = f"{'equal' if same[-1] else 'NOT equal'} (max {max(big):.6f})"
    elapsed = time.perf_counter() - started

    def each(values, fmt="{}"):
        return ", ".join(f"{name} {fmt.format(v)}" for name, v in values.items())

    bounded, guarantee = _guarantee([run for run, _ in checked], [w for _, w in checked],
                                    need_finite=False)
    ok = (not any(wrong.values()) and max(worst.values()) <= limit and all(same)
          and elapsed < 10.0 and bounded)
    line = _verdict(
        10,
        "adversarial attacks on example4's sensor 3 and 1e12 ramps",
        ok,
        f"windows naming a clean sensor: {each(wrong)} (need 0); fused error for k >= 100: "
        f"{each(worst, '{:.4f}')} (limit {limit:.4f}, 1.2x attack-free); sensor 3 named in "
        f"{each(named)} windows (reported); ramp tail error against the uniform attack's: "
        f"{each(ramps)}; {elapsed:.2f}s (limit 10s){guarantee}",
    )
    assert ok, line
