"""Plant models, attack scenarios, and the simulation loop.

A plant is a discrete-time system x(k+1) = f(x(k), u(k), d(k), k) with
p sensor outputs y(k) = h(x(k), u(k)) + m(k) + a(k), where m is bounded
measurement noise and a is the sparse attack vector.  Scenarios describe
the stochastic signals; every signal draws from its own counter-based
stream so that changing one signal's parameters never perturbs the
draws of another.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, SimulationDivergedError

__all__ = [
    "SignalSpec",
    "InitSpec",
    "CircleStructure",
    "ReducedStructure",
    "PlantModel",
    "AttackScenario",
    "Trajectory",
    "sample_signal",
    "sample_block",
    "signal_stream",
    "step_plant",
    "measure",
    "simulate",
]

# Stream-kind identifiers folded into the seed material.  Each (seed,
# kind, index) triple owns an independent Philox stream.
_STREAM_KINDS = {"init": 0, "attack": 1, "noise": 2, "disturbance": 3, "calibration": 4}

# Longest run, in steps, that a scenario or a calibration may ask for.
# ``simulate`` allocates (T+1, n) arrays and the observer bank
# (n_obs, T+1, n), so an unchecked horizon becomes an unbounded allocation.
MAX_HORIZON = 10**6


def signal_stream(seed: int, kind: str, index: int = 0) -> np.random.Generator:
    """A dedicated counter-based generator for one signal of a scenario."""
    try:
        kind_id = _STREAM_KINDS[kind]
    except KeyError:
        raise ConfigurationError(f"unknown stream kind {kind!r}") from None
    ss = np.random.SeedSequence((int(seed), kind_id, int(index)))
    return np.random.Generator(np.random.Philox(seed=ss))


@dataclass(frozen=True)
class SignalSpec:
    """A named scalar signal generator.

    Kinds: ``zero``; ``constant`` (value); ``uniform`` (open interval
    (low, high), endpoints redrawn); ``normal`` (mean, std); ``table``
    (explicit values indexed by step).
    """

    kind: str
    value: float = 0.0
    low: float = 0.0
    high: float = 0.0
    mean: float = 0.0
    std: float = 1.0
    values: tuple[float, ...] = ()

    def validate(self, horizon: int | None = None) -> list[str]:
        problems = []
        if self.kind not in ("zero", "constant", "uniform", "normal", "table"):
            problems.append(f"unknown signal kind {self.kind!r}")
        if self.kind == "uniform" and not self.low < self.high:
            problems.append(f"uniform signal needs low < high, got ({self.low}, {self.high})")
        if self.kind == "normal" and self.std < 0:
            problems.append(f"normal signal needs std >= 0, got {self.std}")
        if self.kind == "table":
            if not self.values:
                problems.append("table signal has no values")
            elif horizon is not None and len(self.values) < horizon + 1:
                problems.append(
                    f"table signal has {len(self.values)} values but horizon {horizon} "
                    f"needs {horizon + 1}"
                )
        return problems

    def bound(self) -> float | None:
        """Worst-case magnitude, or None when unbounded (normal)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return abs(self.value)
        if self.kind == "uniform":
            return max(abs(self.low), abs(self.high))
        if self.kind == "table":
            return max(abs(v) for v in self.values) if self.values else 0.0
        return None

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "constant" and self.value == 0.0)


ZERO_SIGNAL = SignalSpec("zero")


def sample_signal(gen: SignalSpec, k: int, rng: np.random.Generator) -> float:
    """Draw the value of ``gen`` at step ``k`` from its stream.

    Stochastic kinds consume exactly one draw per call regardless of k,
    so sampling k = 0, 1, 2, ... in order reproduces the signal path.
    The uniform kind redraws on (measure-zero) endpoint hits so the
    sample always lies in the open interval.
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
        if k >= len(gen.values):
            raise ConfigurationError(
                f"table signal exhausted: step {k} >= {len(gen.values)} values"
            )
        return float(gen.values[k])
    raise ConfigurationError(f"unknown signal kind {gen.kind!r}")


def sample_block(gen: SignalSpec, steps: int, rng: np.random.Generator) -> np.ndarray:
    """The values of ``gen`` at steps 0 .. steps-1, as ``sample_signal`` draws them.

    Stochastic kinds draw the whole block at once, which consumes the
    stream exactly as ``steps`` single draws do.  A uniform block that
    touches an endpoint is discarded: the stream is rewound and drawn
    step by step, so the endpoint redraws happen where they would.
    """
    if gen.kind == "zero":
        return np.zeros(steps)
    if gen.kind == "constant":
        return np.full(steps, gen.value)
    if gen.kind == "normal":
        return gen.mean + gen.std * rng.standard_normal(steps)
    if gen.kind == "uniform":
        state = rng.bit_generator.state
        block = rng.uniform(gen.low, gen.high, steps)
        if np.all((gen.low < block) & (block < gen.high)):
            return block
        rng.bit_generator.state = state
    elif gen.kind == "table" and len(gen.values) >= steps:
        return np.array(gen.values[:steps], dtype=float)
    return np.array([sample_signal(gen, k, rng) for k in range(steps)], dtype=float)


@dataclass(frozen=True)
class InitSpec:
    """Initial-state distribution: a fixed vector or an axis-wise normal."""

    kind: str
    value: tuple[float, ...] = ()
    mean: tuple[float, ...] = ()
    std: tuple[float, ...] = ()

    def validate(self, n: int) -> list[str]:
        problems = []
        if self.kind == "fixed":
            if len(self.value) != n:
                problems.append(f"fixed init has {len(self.value)} entries, state dim is {n}")
        elif self.kind == "normal":
            if len(self.mean) != n or len(self.std) != n:
                problems.append(f"normal init mean/std must both have length {n}")
            if any(s < 0 for s in self.std):
                problems.append(f"normal init needs std >= 0, got {list(self.std)}")
        else:
            problems.append(f"unknown init kind {self.kind!r}")
        return problems

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "fixed":
            return np.asarray(self.value, dtype=float)
        return np.asarray(self.mean, dtype=float) + np.asarray(self.std, dtype=float) * (
            rng.standard_normal(len(self.mean))
        )


@dataclass(frozen=True)
class CircleStructure:
    """Structural data of a plant x+ = A x + G f(H x).

    ``channels`` applies the scalar nonlinearity slope-restricted to
    [0, inf) componentwise.
    """

    A: np.ndarray
    G: np.ndarray
    H: np.ndarray
    C: np.ndarray
    channels: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ReducedStructure:
    """Structural data of a plant x+ = A x + g(x, u) with linear outputs C x."""

    A: np.ndarray
    C: np.ndarray
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PlantModel:
    """A simulatable plant with optional structural payload for observers."""

    name: str
    n: int
    p: int
    f: Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]
    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_u: int = 0
    n_d: int = 0
    structure: CircleStructure | ReducedStructure | None = None


def step_plant(
    model: PlantModel, x: np.ndarray, u: np.ndarray, d: np.ndarray, k: int
) -> np.ndarray:
    """One step of the state recursion.  Pure: no stored state anywhere."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise ConfigurationError(f"state has shape {x.shape}, expected ({model.n},)")
    x_next = np.asarray(model.f(x, u, d, k), dtype=float)
    if x_next.shape != (model.n,):
        raise ConfigurationError(
            f"dynamics returned shape {x_next.shape}, expected ({model.n},)"
        )
    return x_next


def measure(
    model: PlantModel,
    x: np.ndarray,
    u: np.ndarray,
    m: np.ndarray,
    a: np.ndarray,
) -> np.ndarray:
    """Sensor reading y = h(x, u) + m + a."""
    m = np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    if m.shape != (model.p,) or a.shape != (model.p,):
        raise ConfigurationError(
            f"noise/attack have shapes {m.shape}/{a.shape}, expected ({model.p},)"
        )
    y = np.asarray(model.h(x, u), dtype=float)
    if y.shape != (model.p,):
        raise ConfigurationError(f"output map returned shape {y.shape}, expected ({model.p},)")
    return y + m + a


@dataclass(frozen=True)
class AttackScenario:
    """Everything stochastic about one run: who is attacked, and how.

    ``attacked`` is the fixed support W of the attack; only its members
    may carry a non-zero generator.  ``q`` is the redundancy budget the
    bank is sized for, so card(W) <= q < p/2 must hold; a None budget
    (one that could not be read) is not checked.
    """

    p: int
    q: int
    attacked: frozenset[int]
    attack_gens: dict[int, SignalSpec]
    noise_gens: tuple[SignalSpec, ...]
    noise_bound: float
    horizon: int
    seed: int
    x0: InitSpec
    disturbance_gens: tuple[SignalSpec, ...] = ()
    disturbance_bound: float = 0.0

    def validate(self, model: PlantModel | None = None) -> list[str]:
        """Return every violated invariant (empty list means valid)."""
        problems = []
        p = self.p
        if self.q is not None and not 2 * self.q < p:
            problems.append(f"assumption violated: need q < p/2, got q={self.q}, p={p}")
        if self.q is not None and len(self.attacked) > self.q:
            problems.append(
                f"assumption violated: {len(self.attacked)} attacked sensors "
                f"exceed the budget q={self.q}"
            )
        bad = sorted(i for i in self.attacked if not 1 <= i <= p)
        if bad:
            problems.append(f"attacked sensors {bad} outside 1..{p}")
        for i, gen in sorted(self.attack_gens.items()):
            if i not in self.attacked and not gen.is_zero:
                problems.append(f"sensor {i} has an attack generator but is not in W")
            problems += [f"attack on sensor {i}: {msg}" for msg in gen.validate(self.horizon)]
        if len(self.noise_gens) != p:
            problems.append(f"{len(self.noise_gens)} noise generators for {p} sensors")
        for i, gen in enumerate(self.noise_gens, start=1):
            problems += [f"noise on sensor {i}: {msg}" for msg in gen.validate(self.horizon)]
            b = gen.bound()
            if b is None:
                problems.append(f"noise on sensor {i} is unbounded but a noise bound is declared")
            elif b > self.noise_bound + 1e-12:
                problems.append(
                    f"noise on sensor {i} can reach {b}, above the declared bound "
                    f"{self.noise_bound}"
                )
        for j, gen in enumerate(self.disturbance_gens, start=1):
            problems += [f"disturbance {j}: {msg}" for msg in gen.validate(self.horizon)]
            b = gen.bound()
            if b is None:
                problems.append(f"disturbance {j} is unbounded but a disturbance bound is declared")
            elif b > self.disturbance_bound + 1e-12:
                problems.append(
                    f"disturbance {j} can reach {b}, above the declared bound "
                    f"{self.disturbance_bound}"
                )
        if not 1 <= self.horizon <= MAX_HORIZON:
            problems.append(f"horizon must lie in 1..{MAX_HORIZON}, got {self.horizon}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if model is not None:
            if model.p != p:
                problems.append(f"scenario says p={p} but plant has {model.p} outputs")
            problems += [f"x0: {msg}" for msg in self.x0.validate(model.n)]
            if len(self.disturbance_gens) != model.n_d:
                problems.append(
                    f"{len(self.disturbance_gens)} disturbance generators for "
                    f"plant with {model.n_d} disturbance channels"
                )
        return problems

    def attack_gen(self, sensor: int) -> SignalSpec:
        return self.attack_gens.get(sensor, ZERO_SIGNAL)


@dataclass
class Trajectory:
    """Dense record of one simulated run, all arrays indexed by step k."""

    x: np.ndarray  # (T+1, n)
    y: np.ndarray  # (T+1, p)
    u: np.ndarray  # (T+1, n_u)
    d: np.ndarray  # (T+1, n_d)
    m: np.ndarray  # (T+1, p)
    a: np.ndarray  # (T+1, p)

    @property
    def horizon(self) -> int:
        return self.x.shape[0] - 1

    def write_csv(self, fh) -> None:
        """Stream the run as one row per step with flat named columns."""
        n, p = self.x.shape[1], self.y.shape[1]
        n_d = self.d.shape[1]
        header = (
            ["k"]
            + [f"x{i}" for i in range(1, n + 1)]
            + [f"y{i}" for i in range(1, p + 1)]
            + [f"a{i}" for i in range(1, p + 1)]
            + [f"m{i}" for i in range(1, p + 1)]
            + [f"d{i}" for i in range(1, n_d + 1)]
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(self.x.shape[0]):
            row = [k]
            for block in (self.x[k], self.y[k], self.a[k], self.m[k], self.d[k]):
                row.extend(repr(float(v)) for v in block)
            writer.writerow(row)


def _scenario_streams(scenario: AttackScenario, n_d: int):
    seed = scenario.seed
    return {
        "init": signal_stream(seed, "init"),
        "attack": [signal_stream(seed, "attack", i) for i in range(1, scenario.p + 1)],
        "noise": [signal_stream(seed, "noise", i) for i in range(1, scenario.p + 1)],
        "disturbance": [signal_stream(seed, "disturbance", j) for j in range(1, n_d + 1)],
    }


def simulate(
    model: PlantModel,
    scenario: AttackScenario,
    u_seq: np.ndarray | Sequence | None = None,
    ceiling: float = 1e12,
) -> Trajectory:
    """Run the plant over the scenario horizon and record everything.

    Raises :class:`SimulationDivergedError` when |x(k)| crosses
    ``ceiling`` — that is a genuine unbounded trajectory, not an
    estimator problem, so it aborts the run with the offending step.
    """
    problems = scenario.validate(model)
    if problems:
        raise ConfigurationError(problems)
    T = scenario.horizon
    if u_seq is None:
        u = np.zeros((T + 1, model.n_u))
    else:
        u = np.asarray(u_seq, dtype=float).reshape(T + 1, model.n_u)
    streams = _scenario_streams(scenario, model.n_d)

    x = np.zeros((T + 1, model.n))
    y = np.zeros((T + 1, model.p))
    d = np.zeros((T + 1, model.n_d))
    m = np.zeros((T + 1, model.p))
    a = np.zeros((T + 1, model.p))

    x[0] = scenario.x0.sample(streams["init"])
    # Every signal owns its stream, so drawing past a divergence changes nothing.
    for i in range(model.p):
        m[:, i] = sample_block(scenario.noise_gens[i], T + 1, streams["noise"][i])
        a[:, i] = sample_block(scenario.attack_gen(i + 1), T + 1, streams["attack"][i])
    for j in range(model.n_d):
        d[:, j] = sample_block(scenario.disturbance_gens[j], T + 1, streams["disturbance"][j])
    for k in range(T + 1):
        norm = float(np.linalg.norm(x[k]))
        if not np.isfinite(norm) or norm > ceiling:
            raise SimulationDivergedError(k, norm)
        y[k] = measure(model, x[k], u[k], m[k], a[k])
        if k < T:
            x[k + 1] = step_plant(model, x[k], u[k], d[k], k)
    return Trajectory(x=x, y=y, u=u, d=d, m=m, a=a)
