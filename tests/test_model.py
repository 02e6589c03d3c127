import io
from dataclasses import replace

import numpy as np
import pytest
from _brute import sample_signal
from _toys import C3, times, toy_plant, toy_scenario

from multiobserver import (
    AttackScenario,
    CircleStructure,
    ConfigurationError,
    InitSpec,
    PlantModel,
    ReducedStructure,
    SignalSpec,
    SimulationDivergedError,
    load_config,
    sample_block,
    signal_stream,
    simulate,
)
from multiobserver.config import CHANNEL_REGISTRY, STATE_NONLINEARITY_REGISTRY
from multiobserver.model import (
    _STOP_STRIDE,
    DIVERGENCE_CEILING,
    first_divergence,
    output_track,
    plant_track,
)


def _path(spec, seed, kind="attack", index=0, steps=50):
    rng = signal_stream(seed, kind, index)
    return np.array([sample_signal(spec, k, rng) for k in range(steps)])


def test_streams_are_deterministic_and_independent():
    spec = SignalSpec(kind="uniform", low=-1.0, high=1.0)
    a = _path(spec, seed=7)
    assert np.array_equal(a, _path(spec, seed=7))
    # different seed, kind, or index each give a different path
    assert not np.array_equal(a, _path(spec, seed=8))
    assert not np.array_equal(a, _path(spec, seed=7, kind="noise"))
    assert not np.array_equal(a, _path(spec, seed=7, index=1))


def test_unknown_stream_kind_rejected():
    with pytest.raises(ConfigurationError):
        signal_stream(0, "weather")


def test_uniform_samples_stay_in_open_interval():
    spec = SignalSpec(kind="uniform", low=-2.0, high=3.0)
    draws = _path(spec, seed=0, steps=5000)
    assert np.all(draws > -2.0) and np.all(draws < 3.0)
    assert np.array_equal(sample_block(spec, 5000, signal_stream(0, "attack")), draws)
    assert spec.bound() == 3.0


def test_signal_kinds_evaluate():
    rng = signal_stream(0, "noise")
    assert sample_signal(SignalSpec(kind="zero"), 3, rng) == 0.0
    assert sample_signal(SignalSpec(kind="constant", value=2.5), 9, rng) == 2.5
    table = SignalSpec(kind="table", values=(1.0, -1.0, 0.5))
    assert [sample_signal(table, k, rng) for k in range(3)] == [1.0, -1.0, 0.5]
    draws = [sample_signal(SignalSpec(kind="normal", mean=5.0, std=0.0), k, rng) for k in range(4)]
    assert draws == [5.0] * 4
    assert sample_block(SignalSpec(kind="zero"), 3, rng).tolist() == [0.0] * 3
    assert sample_block(SignalSpec(kind="constant", value=2.5), 2, rng).tolist() == [2.5] * 2
    assert sample_block(table, 3, rng).tolist() == [1.0, -1.0, 0.5]
    with pytest.raises(ConfigurationError, match="unknown signal kind 'ramp'"):
        sample_block(SignalSpec(kind="ramp"), 3, rng)


def test_signal_validation_reports_each_problem():
    assert SignalSpec(kind="ramp").validate()
    assert SignalSpec(kind="uniform", low=1.0, high=1.0).validate()
    assert SignalSpec(kind="normal", std=-1.0).validate()
    # a table shorter than the horizon cannot drive a run
    assert SignalSpec(kind="table", values=(1.0,)).validate(horizon=5)
    assert SignalSpec(kind="table", values=tuple(range(6))).validate(horizon=5) == []


def test_scenario_validation_collects_problems():
    scen = toy_scenario(attacked=(1, 2, 9), horizon=0, noise_bound=0.0)
    problems = scen.validate(toy_plant())
    text = "\n".join(problems)
    assert "exceed the budget" in text
    assert "outside 1..3" in text
    assert "horizon" in text


def test_scenario_rejects_attack_outside_support():
    scen = replace(
        toy_scenario(attacked=(2,)),
        attack_gens={3: SignalSpec(kind="constant", value=1.0)},
    )
    assert any("not in W" in msg for msg in scen.validate())


def test_scenario_rejects_noise_above_declared_bound():
    loud = replace(
        toy_scenario(noise_bound=0.1),
        noise_gens=(SignalSpec(kind="uniform", low=-1, high=1),) * 3,
    )
    assert any("above the declared bound" in msg for msg in loud.validate())


def test_a_bad_noise_generator_is_listed_once():
    # a generator whose own check fails is not also called unbounded or too loud
    scen = replace(toy_scenario(noise_bound=0.1),
                   noise_gens=(SignalSpec(kind="ramp"), SignalSpec(kind="uniform", low=1, high=0),
                               SignalSpec(kind="normal")))
    assert scen.validate() == [
        "noise on sensor 1: unknown signal kind 'ramp'",
        "noise on sensor 2: uniform signal needs low < high, got (1, 0)",
        "noise on sensor 3 is unbounded (normal); noise must be bounded",
    ]


def test_attack_support_is_respected():
    plant = toy_plant()
    for seed in range(20):
        traj = simulate(plant, toy_scenario(attacked=(2,), seed=seed, horizon=15))
        assert np.all(traj.a[:, [0, 2]] == 0.0)
        assert np.any(traj.a[:, 1] != 0.0)


def test_attack_support_property_randomized():
    # many small runs with random supports: a(k) is zero off the support
    plant = toy_plant()
    rng = np.random.default_rng(0)
    for case in range(1000):
        attacked = (int(rng.integers(1, 4)),)
        traj = simulate(
            plant, toy_scenario(attacked=attacked, seed=case, horizon=2, noise_bound=0.0)
        )
        off = [i for i in range(3) if (i + 1) not in attacked]
        assert np.all(traj.a[:, off] == 0.0)


def test_simulation_is_deterministic_in_the_seed():
    plant = toy_plant()
    scen = toy_scenario(seed=3, noise_bound=0.05, x0=InitSpec(kind="normal", mean=(0, 0), std=(1, 1)))
    t1, t2 = simulate(plant, scen), simulate(plant, scen)
    for field in ("x", "y", "m", "a", "d", "u"):
        assert np.array_equal(getattr(t1, field), getattr(t2, field))
    t3 = simulate(plant, toy_scenario(seed=4, noise_bound=0.05, x0=scen.x0))
    assert not np.array_equal(t1.x, t3.x)


def test_simulate_checks_map_shapes_at_every_step():
    # the maps get a batch of one run: f's rows from step 3 on, and h's,
    # have the wrong length; a map that drops the batch axis is listed too
    plant = toy_plant()

    def f(x, u, d, k):
        return plant.f(x, u, d, k) if k < 3 else np.zeros(x.shape[:-1] + (3,))

    def h(x, u):
        return np.zeros(x.shape[:-1] + (2,))

    def f_1d(x, u, d, k):
        return plant.f(x, u, d, k)[0]

    scen = toy_scenario(horizon=10, x0=InitSpec(kind="fixed", value=(1.0, 0.0)))
    with pytest.raises(ConfigurationError,
                       match=r"dynamics returned shape \(1, 3\), expected \(1, 2\)"):
        simulate(replace(plant, f=f), scen)
    with pytest.raises(ConfigurationError,
                       match=r"dynamics returned shape \(2,\), expected \(1, 2\)"):
        simulate(replace(plant, f=f_1d), scen)
    with pytest.raises(ConfigurationError,
                       match=r"output map returned shape \(1, 11, 2\), expected \(1, 11, 3\)"):
        simulate(replace(plant, h=h), scen)


def test_divergence_raises_with_step():
    def f(x, u, d, k):
        return 3.0 * x

    plant = toy_plant()
    hot = type(plant)(name="hot", n=2, p=3, f=f, h=plant.h)
    with pytest.raises(SimulationDivergedError) as err:
        simulate(hot, toy_scenario(horizon=100), ceiling=1e6)
    assert 0 < err.value.step <= 100


@pytest.mark.parametrize(
    "bad_at, ceiling, step, norm", [(2, 1e12, 3, np.nan), (0, 1e12, 1, np.inf), (0, 1e300, 1, np.inf)]
)
def test_dynamics_never_see_a_non_finite_state(bad_at, ceiling, step, norm):
    # at step ``bad_at`` f returns NaN (then x(3) is NaN) or 1e200 x (then
    # |x(1)| overflows, past any ceiling); f may then be called on the
    # non-finite state, but the error names the first such step and its norm
    plant = toy_plant()

    def f(x, u, d, k):
        if k == bad_at:
            return np.full(x.shape, np.nan) if np.isnan(norm) else 1e200 * x
        return plant.f(x, u, d, k)

    with pytest.raises(SimulationDivergedError) as err:
        simulate(replace(plant, f=f), toy_scenario(horizon=10), ceiling=ceiling)
    assert err.value.step == step
    assert np.array_equal(err.value.value, norm, equal_nan=True)


def test_a_finite_state_past_the_ceiling_ends_the_plant_loop():
    # x(1) is finite but past the ceiling: the loop checks every stride steps,
    # so f runs at most a stride more, and the error still names step 1 with its norm
    plant = toy_plant()
    calls = []

    def f(x, u, d, k):
        calls.append(k)
        return x + 1e13

    with pytest.raises(SimulationDivergedError) as err:
        simulate(replace(plant, f=f), toy_scenario(horizon=100_000))
    assert len(calls) <= _STOP_STRIDE + 1
    assert err.value.step == 1
    assert err.value.value == float(np.linalg.norm(np.array([1.0, -2.0]) + 1e13))


@pytest.mark.parametrize("seed, step", [(2, 4), (26, 6)])
def test_a_plant_diverging_in_its_first_steps_stops_at_the_next_power_of_two(scenario_dir,
                                                                               seed, step):
    # example1's plant leaves the ceiling at step 4 (seed 2) or 6 (seed 26) of
    # its 49: the loop checks at steps 1, 2, 4, 8, ..., so f runs at most 8 times
    cfg = load_config(scenario_dir / "example1.json")
    calls = []

    def f(x, u, d, k):
        calls.append(k)
        return cfg.plant.f(x, u, d, k)

    with pytest.raises(SimulationDivergedError) as err:
        simulate(replace(cfg.plant, f=f), replace(cfg.scenario, seed=seed))
    assert err.value.step == step
    assert len(calls) <= 8 < cfg.scenario.horizon


def _structured(st: CircleStructure | ReducedStructure) -> PlantModel:
    """A plant stepped through ``st``, with the matching batched maps as its ``f`` and ``h``."""

    def f(x, u, d, k):
        if isinstance(st, CircleStructure):
            x_next = times(st.A, x) + (st.G @ st.channels(st.H @ x[..., None]))[..., 0]
        else:
            x_next = times(st.A, x) + st.g(x, u)
        return x_next if st.D is None else x_next + times(st.D, d)

    def h(x, u):
        return times(st.C, x)

    n_d = 0 if st.D is None else st.D.shape[1]
    return PlantModel(name="structured", n=len(st.A), p=len(st.C), f=f, h=h, n_d=n_d,
                      structure=st)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_batched_plant_rows_equal_the_per_row_loop(scenario_dir):
    # the bundled structured plants, then random plants of every circle channel
    # and every reduced nonlinearity with a disturbance input (n_d = 1, which no
    # bundled plant has): each row of a batch equals its run stepped alone,
    # through the structure and through f
    rng = np.random.default_rng(23)
    plants = [load_config(scenario_dir / f"{name}.json").plant
              for name in ("example2", "example3", "example4")]
    for case in range(14):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        C, D = rng.normal(size=(n + 1, n)), rng.normal(size=(n, 1))
        if case % 2:
            r = int(rng.integers(1, 3))
            channels = list(CHANNEL_REGISTRY.values())[case // 2 % len(CHANNEL_REGISTRY)]
            st = CircleStructure(A=A, G=0.3 * rng.normal(size=(n, r)), H=rng.normal(size=(r, n)),
                                 C=C, channels=channels, D=D)
        else:
            kind = list(STATE_NONLINEARITY_REGISTRY)[case // 2 % len(STATE_NONLINEARITY_REGISTRY)]
            table, build = STATE_NONLINEARITY_REGISTRY[kind]
            params = {"constant": list(rng.normal(size=n)), "index": int(rng.integers(1, n + 1)),
                      "position": int(rng.integers(1, n + 1)), "gain": 0.5,
                      "coeffs": [0.05, -0.2, 0.3]}
            st = ReducedStructure(A=A, C=C, g=build(**{key: params[key] for key in table}), D=D)
        plants.append(_structured(st))
    for plant in plants:
        alone = replace(plant, structure=None)  # stepped through f
        for B in (1, 2, 7):
            T = 40
            x0 = rng.normal(size=(B, plant.n))
            u = np.zeros((B, T + 1, plant.n_u))
            d = rng.uniform(-1.0, 1.0, size=(B, T, plant.n_d))
            x = plant_track(plant, x0, u, d, DIVERGENCE_CEILING)
            y = output_track(plant, x, u)
            for model in (plant, alone):
                want = np.concatenate([plant_track(model, x0[b:b + 1], u[b:b + 1], d[b:b + 1],
                                                   DIVERGENCE_CEILING) for b in range(B)])
                assert [first_divergence(row) for row in want] == [None] * B, plant.name
                assert np.array_equal(_bits(x), _bits(want)), (plant.name, B)
                assert np.array_equal(_bits(y), _bits(np.concatenate(
                    [output_track(model, row[None], u[:1]) for row in want]))), (plant.name, B)


def test_a_diverging_row_leaves_the_others_and_names_its_own_step():
    # x1+ = x1**2 diverges from |x1(0)| > 1 and decays from |x1(0)| < 1; the
    # rows are the initial states simulate draws for seeds 0..6, over a
    # horizon that passes several checks of the stop rule
    g = STATE_NONLINEARITY_REGISTRY["poly_channel"][1](
        constant=[0.0, 0.0], index=1, position=1, coeffs=[1.0, 0.0, 0.0])
    plant = _structured(ReducedStructure(A=np.diag([0.0, 0.5]), C=C3, g=g))
    T = 3 * _STOP_STRIDE
    scen = toy_scenario(horizon=T, x0=InitSpec(kind="normal", mean=(0.0, 0.0), std=(1.0, 1.0)))
    x0 = np.array([scen.x0.sample(signal_stream(seed, "init")) for seed in range(7)])
    x = plant_track(plant, x0, np.zeros((7, T + 1, 0)), np.zeros((7, T, 0)), DIVERGENCE_CEILING)
    diverged = 0
    for seed, row in enumerate(x):
        try:
            traj = simulate(plant, replace(scen, seed=seed))
        except SimulationDivergedError as exc:
            assert first_divergence(row) == (exc.step, exc.value)
            diverged += 1
        else:
            assert first_divergence(row) is None
            assert np.array_equal(_bits(row), _bits(traj.x))
    assert 0 < diverged < 7


def test_a_structured_plant_past_the_ceiling_stops_within_a_stride():
    # x(1) is finite but past the ceiling: the batched loop checks every
    # stride steps, so the nonlinearity runs at most a stride more; the error
    # still names step 1 with the norm the per-row loop gives
    calls = []

    def channels(v):
        calls.append(v)
        return np.sin(v)

    plant = _structured(CircleStructure(A=1e13 * np.eye(2), G=np.array([[0.05], [0.1]]),
                                        H=np.array([[1.0, 1.0]]), C=C3, channels=channels))
    errors = []
    for model in (plant, replace(plant, structure=None)):
        calls.clear()
        with pytest.raises(SimulationDivergedError) as err:
            simulate(model, toy_scenario(horizon=100_000))
        assert len(calls) <= _STOP_STRIDE + 1
        errors.append((err.value.step, err.value.value))
    assert errors[0] == errors[1]
    assert errors[0][0] == 1


def test_trajectory_shapes_and_csv():
    plant = toy_plant()
    traj = simulate(plant, toy_scenario(horizon=10))
    assert traj.x.shape == (11, 2)
    assert traj.y.shape == traj.m.shape == traj.a.shape == (11, 3)
    assert traj.horizon == 10
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "k"
    assert "x1" in header and "y3" in header and "a2" in header
    assert len(lines) == 12  # header + T+1 rows
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["k"]) == 0
    assert float(first["x1"]) == traj.x[0, 0]


def test_init_spec_sampling():
    rng = signal_stream(0, "init")
    fixed = InitSpec(kind="fixed", value=(1.0, 2.0))
    assert np.array_equal(fixed.sample(rng), [1.0, 2.0])
    normal = InitSpec(kind="normal", mean=(0.0, 0.0), std=(0.0, 0.0))
    assert np.array_equal(normal.sample(rng), [0.0, 0.0])
    assert InitSpec(kind="spiral").validate(2)
    assert InitSpec(kind="fixed", value=(1.0,)).validate(2)


# --- whole-run signal blocks ---------------------------------------------------

class _EndpointStream:
    """A stream whose draws at the given positions land on an endpoint.

    Positions count every uniform draw, in a block or alone, so a block
    sampler and a per-step one meet the same endpoints at the same draws.
    """

    def __init__(self, rng, endpoints):
        self.rng, self.endpoints, self.draws = rng, endpoints, 0

    def uniform(self, low, high, size=None):
        v = np.atleast_1d(self.rng.uniform(low, high, size))
        for i in range(v.size):
            side = self.endpoints.get(self.draws + i)
            if side is not None:
                v[i] = low if side == "low" else high
        self.draws += v.size
        return v if size is not None else v[0]


def test_uniform_block_drops_endpoint_draws_as_per_step_draws_do():
    spec = SignalSpec(kind="uniform", low=-1.0, high=1.0)
    # the 4th draw alone, then also the last block draw and the first top-up draw
    for endpoints in ({3: "low"}, {3: "low", 29: "high", 30: "low"}):
        fake = _EndpointStream(signal_stream(9, "attack", 1), endpoints)
        block = sample_block(spec, 30, fake)
        ref = _EndpointStream(signal_stream(9, "attack", 1), endpoints)
        want = np.array([sample_signal(spec, k, ref) for k in range(30)])
        assert np.array_equal(block, want)
        assert np.all((block > -1.0) & (block < 1.0))
        # each endpoint cost one extra draw, and both streams stand at the same next draw
        assert fake.draws == ref.draws == 30 + len(endpoints)
        assert fake.uniform(-1.0, 1.0) == ref.uniform(-1.0, 1.0)


def test_short_table_block_names_the_exhausted_step():
    with pytest.raises(ConfigurationError, match=r"table signal exhausted: step 3 >= 3 values"):
        sample_block(SignalSpec(kind="table", values=(1.0, 2.0, 3.0)), 5, signal_stream(0, "noise"))


def test_simulate_draws_every_signal_kind_as_per_step_sampling():
    A = np.array([[0.5, 0.1], [0.0, 0.6]])
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0]])
    D = np.array([[1.0, 0.0], [0.5, 1.0]])
    plant = PlantModel(
        name="disturbed", n=2, p=5, n_d=2,
        f=lambda x, u, d, k: times(A, x) + times(D, d), h=lambda x, u: times(C, x),
    )
    table = SignalSpec(kind="table", values=tuple(0.01 * k for k in range(31)))
    noise = (
        SignalSpec(kind="zero"),
        SignalSpec(kind="constant", value=0.1),
        SignalSpec(kind="uniform", low=-0.2, high=0.2),
        SignalSpec(kind="uniform", low=-0.1, high=0.3),
        table,
    )
    scen = AttackScenario(
        p=5, q=2, attacked=frozenset({1, 4}),
        attack_gens={1: SignalSpec(kind="normal", mean=1.0, std=2.0), 4: table},
        noise_gens=noise, noise_bound=0.3, horizon=30, seed=11,
        x0=InitSpec(kind="normal", mean=(0.0, 0.0), std=(1.0, 1.0)),
        disturbance_gens=(SignalSpec(kind="uniform", low=-0.05, high=0.05),
                          SignalSpec(kind="constant", value=0.02)),
        disturbance_bound=0.05,
    )
    traj = simulate(plant, scen)
    for i in range(5):
        assert np.array_equal(traj.m[:, i], _path(noise[i], 11, "noise", i + 1, 31))
        assert np.array_equal(traj.a[:, i], _path(scen.attack_gen(i + 1), 11, "attack", i + 1, 31))
    for j in range(2):
        want = _path(scen.disturbance_gens[j], 11, "disturbance", j + 1, 31)
        assert np.array_equal(traj.d[:, j], want)
    x = traj.x[0]
    for k in range(30):
        x = A @ x + D @ traj.d[k]
        assert np.array_equal(traj.x[k + 1], x)
    assert np.array_equal(traj.y, [C @ x + m + a for x, m, a in zip(traj.x, traj.m, traj.a)])


def test_example1_divergence_step_and_norm_are_pinned(scenario_dir):
    cfg = load_config(scenario_dir / "example1.json")
    with pytest.raises(SimulationDivergedError) as err:
        simulate(cfg.plant, replace(cfg.scenario, seed=2), ceiling=cfg.ceiling)
    assert (err.value.step, err.value.value) == (4, 1.1683492195202695e19)
