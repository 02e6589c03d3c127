import io
from dataclasses import replace

import numpy as np
import pytest
from _toys import toy_plant, toy_scenario

from multiobserver import (
    AttackScenario,
    ConfigurationError,
    InitSpec,
    PlantModel,
    SignalSpec,
    SimulationDivergedError,
    load_config,
    sample_block,
    sample_signal,
    signal_stream,
    simulate,
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
    assert spec.bound() == 3.0


def test_signal_kinds_evaluate():
    rng = signal_stream(0, "noise")
    assert sample_signal(SignalSpec(kind="zero"), 3, rng) == 0.0
    assert sample_signal(SignalSpec(kind="constant", value=2.5), 9, rng) == 2.5
    table = SignalSpec(kind="table", values=(1.0, -1.0, 0.5))
    assert [sample_signal(table, k, rng) for k in range(3)] == [1.0, -1.0, 0.5]
    draws = [sample_signal(SignalSpec(kind="normal", mean=5.0, std=0.0), k, rng) for k in range(4)]
    assert draws == [5.0] * 4


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
    plant = toy_plant()

    def f(x, u, d, k):
        return plant.f(x, u, d, k) if k < 3 else np.zeros(3)

    def h(x, u):  # right at x(0) only
        return plant.h(x, u) if list(x) == [1.0, 0.0] else np.zeros(2)

    scen = toy_scenario(horizon=10, x0=InitSpec(kind="fixed", value=(1.0, 0.0)))
    with pytest.raises(ConfigurationError, match=r"dynamics returned shape \(3,\), expected \(2,\)"):
        simulate(replace(plant, f=f), scen)
    with pytest.raises(ConfigurationError, match=r"output map returned shape \(2,\), expected \(3,\)"):
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
    # |x(1)| overflows, past any ceiling); a map that rejects non-finite
    # input is never given one
    plant = toy_plant()

    def f(x, u, d, k):
        if not np.isfinite(x).all():
            raise AssertionError(f"f called on {x} at step {k}")
        if k == bad_at:
            return np.full(2, np.nan) if np.isnan(norm) else 1e200 * x
        return plant.f(x, u, d, k)

    with pytest.raises(SimulationDivergedError) as err:
        simulate(replace(plant, f=f), toy_scenario(horizon=10), ceiling=ceiling)
    assert err.value.step == step
    assert np.array_equal(err.value.value, norm, equal_nan=True)


def test_a_finite_state_past_the_ceiling_ends_the_plant_loop():
    # x(1) is finite but past the ceiling: f is not stepped to the horizon,
    # and the error still names step 1 with its norm
    plant = toy_plant()
    calls = []

    def f(x, u, d, k):
        calls.append(k)
        return x + 1e13

    with pytest.raises(SimulationDivergedError) as err:
        simulate(replace(plant, f=f), toy_scenario(horizon=100_000))
    assert len(calls) <= 2
    assert err.value.step == 1
    assert err.value.value == float(np.linalg.norm(np.array([1.0, -2.0]) + 1e13))


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

class _EndpointBlock:
    """A stream whose block draws put the low endpoint at position 3."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.blocks = rng, rng.bit_generator, 0

    def uniform(self, low, high, size=None):
        v = self.rng.uniform(low, high, size)
        if size is not None:
            self.blocks += 1
            v[3] = low
        return v


def test_uniform_block_on_an_endpoint_falls_back_to_per_step_draws():
    spec = SignalSpec(kind="uniform", low=-1.0, high=1.0)
    fake = _EndpointBlock(signal_stream(9, "attack", 1))
    block = sample_block(spec, 30, fake)
    assert fake.blocks == 1  # the block was drawn once, then discarded
    want = _path(spec, seed=9, kind="attack", index=1, steps=30)
    assert np.array_equal(block, want)  # the stream was rewound before the per-step draws
    assert np.all((block > -1.0) & (block < 1.0))


def test_simulate_draws_every_signal_kind_as_per_step_sampling():
    A = np.array([[0.5, 0.1], [0.0, 0.6]])
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0]])
    D = np.array([[1.0, 0.0], [0.5, 1.0]])
    plant = PlantModel(
        name="disturbed", n=2, p=5, n_d=2,
        f=lambda x, u, d, k: A @ x + D @ d, h=lambda x, u: C @ x,
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
