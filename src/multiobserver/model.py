"""Plant models, attack scenarios, and the simulation loop.

A plant is a discrete-time system x(k+1) = f(x(k), u(k), d(k), k) with
p sensor outputs y(k) = h(x(k), u(k)) + m(k) + a(k), where m is bounded
measurement noise and a is the sparse attack vector.  Scenarios describe
the stochastic signals; every signal draws from its own counter-based
stream so that changing one signal's parameters never perturbs the
draws of another.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._csvtext import ROW_BLOCK, float_rows
from .errors import ConfigurationError, SimulationDivergedError

__all__ = [
    "SignalSpec",
    "InitSpec",
    "CircleStructure",
    "ReducedStructure",
    "PlantModel",
    "AttackScenario",
    "Trajectory",
    "sample_block",
    "signal_stream",
    "plant_track",
    "output_track",
    "first_divergence",
    "draw_run",
    "simulate",
]

# Stream-kind identifiers folded into the seed material.  Each (seed,
# kind, index) triple owns an independent Philox stream.
_STREAM_KINDS = {"init": 0, "attack": 1, "noise": 2, "disturbance": 3, "calibration": 4}

# Longest run, in steps, that a scenario or a calibration may ask for.
# ``simulate`` allocates (T+1, n) arrays and the observer bank
# (n_obs, T+1, n), so an unchecked horizon becomes an unbounded allocation.
MAX_HORIZON = 10**6
# float64 entries in one batch of bank estimates (observers, runs, T+1, n): 128 MiB
MAX_BATCH = 2**24

# Plant-state norm past which a run counts as diverged, unless a config sets
# its own ``divergence_ceiling`` (calibration always uses this one).
DIVERGENCE_CEILING = 1e12
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)  # a larger entry overflows the norm
# Steps between the batched plant loop's checks of its stop rule: at one run,
# checking the (B, n) state on every step costs more than the step itself.
# Before the first stride the loop also checks at steps 1, 2, 4, ..., so a run
# that diverges within a few steps stops within a few more.
_STOP_STRIDE = 64


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


def sample_block(gen: SignalSpec, steps: int, rng: np.random.Generator) -> np.ndarray:
    """The values of ``gen`` at steps 0 .. steps-1, drawn from its stream.

    Stochastic kinds take one draw per step, all in one block.  A uniform
    draw on an endpoint (measure zero) is dropped and the block topped up
    from the same stream, so the values stay in the open interval (low,
    high) and each step takes the stream's next inside draw.
    """
    if gen.kind == "zero":
        return np.zeros(steps)
    if gen.kind == "constant":
        return np.full(steps, gen.value)
    if gen.kind == "normal":
        return gen.mean + gen.std * rng.standard_normal(steps)
    if gen.kind == "uniform":
        block = rng.uniform(gen.low, gen.high, steps)
        while not np.all(inside := (gen.low < block) & (block < gen.high)):
            kept = block[inside]
            block = np.concatenate((kept, rng.uniform(gen.low, gen.high, steps - kept.size)))
        return block
    if gen.kind == "table":
        if len(gen.values) < steps:
            raise ConfigurationError(
                f"table signal exhausted: step {len(gen.values)} >= {len(gen.values)} values"
            )
        return np.array(gen.values[:steps], dtype=float)
    raise ConfigurationError(f"unknown signal kind {gen.kind!r}")


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
    """Structural data of a plant x+ = A x + G f(H x) + D d with outputs C x.

    ``channels`` applies the scalar nonlinearity slope-restricted to
    [0, inf) componentwise.  ``D`` is None when the plant has no
    disturbance input.
    """

    A: np.ndarray
    G: np.ndarray
    H: np.ndarray
    C: np.ndarray
    channels: Callable[[np.ndarray], np.ndarray]
    D: np.ndarray | None = None


@dataclass(frozen=True)
class ReducedStructure:
    """Structural data of a plant x+ = A x + g(x, u) + D d with outputs C x."""

    A: np.ndarray
    C: np.ndarray
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    D: np.ndarray | None = None


@dataclass(frozen=True)
class PlantModel:
    """A simulatable plant with optional structural payload for observers.

    ``f`` and ``h`` take states with leading batch axes, (..., n), and
    their inputs broadcast against them; they may be called on non-finite
    rows, under the caller's ``errstate``.  A plant with a ``structure`` is
    stepped through it, so ``f`` must be its map.
    """

    name: str
    n: int
    p: int
    f: Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]
    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_u: int = 0
    n_d: int = 0
    structure: CircleStructure | ReducedStructure | None = None


def plant_track(
    model: PlantModel, x0: np.ndarray, u: np.ndarray, d: np.ndarray, ceiling: float
) -> np.ndarray:
    """B plant runs x(0) .. x(T) of x(k+1) = f(x(k), u(k), d(k), k), as (B, T+1, n).

    ``x0`` holds the initial states (B, n), ``u`` the T+1 inputs of each
    run (B, T+1, n_u) and ``d`` at least T disturbances of each (B, ·, n_d).
    All runs step as one batch: through one call of ``f`` per step or, for
    a plant with a ``structure``, as one (B, n, 1) column state, so every
    product is a stacked ``np.matmul`` that rounds like ``f``'s own
    product.  Each row equals its run stepped alone, bit for bit.  The loop
    checks the runs at steps 0, 1, 2, 4, ... and then every ``_STOP_STRIDE``
    steps, and stops once all of them are surely past ``ceiling``.

    A run stops only after the step :func:`first_divergence` names with
    ``ceiling``.  Its values after that step are not defined.
    """
    n, steps = model.n, u.shape[1] - 1
    # |x|_1 <= sqrt(n) |x|_2, so a state whose 1-norm passes the limit is past
    # the ceiling; capped at the largest float, the limit also stops on inf and NaN
    limit = min(2.0 * ceiling * math.sqrt(n), sys.float_info.max)
    x = np.full((len(x0), steps + 1, n), np.nan)
    x[:, 0] = x0
    st, X = model.structure, x[:, 0, :, None].copy()
    circle, D = isinstance(st, CircleStructure), getattr(st, "D", None)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            due = k % _STOP_STRIDE == 0 or (k & (k - 1)) == 0  # a power of two
            if due and not (np.abs(X).sum(axis=(1, 2)) <= limit).any():
                break
            if st is None:
                x_k = np.asarray(model.f(X[..., 0], u[:, k], d[:, k], k), dtype=float)
                if x_k.shape != X.shape[:2]:
                    raise ConfigurationError(
                        f"dynamics returned shape {x_k.shape}, expected {X.shape[:2]}")
                X = x_k[..., None]
            elif circle:
                X = st.A @ X + st.G @ st.channels(st.H @ X)
            else:
                X = st.A @ X + st.g(X[..., 0], u[:, k])[..., None]
            if D is not None:
                X = X + D @ d[:, k, :, None]
            x[:, k + 1] = X[..., 0]
    return x


def output_track(model: PlantModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The noise-free outputs h(x(k), u(k)) of B plant runs ``x``, as (B, T+1, p),
    from one call of ``h``."""
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run overflows
        y = np.asarray(model.h(x, u), dtype=float)
    if y.shape != x.shape[:-1] + (model.p,):
        raise ConfigurationError(
            f"output map returned shape {y.shape}, expected {x.shape[:-1] + (model.p,)}")
    return y


def first_divergence(
    x: np.ndarray, ceiling: float = DIVERGENCE_CEILING
) -> tuple[int, float] | None:
    """The first step k of the run ``x`` whose norm |x(k)| is not finite or
    passes ``ceiling``, with that norm; None when there is none."""
    # such a norm needs an entry past min(ceiling, sqrt(max float)) / sqrt(n);
    # the halved bound leaves room for rounding, and each suspect is checked exactly
    bound = 0.5 * min(ceiling, _SQRT_FLOAT_MAX) / math.sqrt(x.shape[1])
    suspect = ~(np.abs(x).max(axis=1) <= bound)  # a NaN entry makes its step suspect
    with np.errstate(over="ignore"):  # an overflowing norm reads as inf
        for k in np.flatnonzero(suspect):
            norm = float(np.linalg.norm(x[k]))
            if not math.isfinite(norm) or norm > ceiling:
                return int(k), norm
    return None


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
        for name, noun, gens, bound in (
            ("noise on sensor", "noise", self.noise_gens, self.noise_bound),
            ("disturbance", "disturbances", self.disturbance_gens, self.disturbance_bound),
        ):
            for i, gen in enumerate(gens, start=1):
                faults = [f"{name} {i}: {msg}" for msg in gen.validate(self.horizon)]
                b = gen.bound()
                if faults:  # a generator already listed is not checked against its bound
                    problems += faults
                elif b is None:
                    problems.append(f"{name} {i} is unbounded ({gen.kind}); {noun} must be bounded")
                elif b > bound + 1e-12:
                    problems.append(
                        f"{name} {i} can reach {b}, above the declared bound {bound}"
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
        """Stream the run as one row per step with flat named columns.

        Every float is written as its shortest round-trip ``repr``.
        """
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
        fh.write(",".join(header) + "\n")
        tracks = (self.x, self.y, self.a, self.m, self.d)
        for lo in range(0, self.x.shape[0], ROW_BLOCK):
            block = np.concatenate([t[lo:lo + ROW_BLOCK] for t in tracks], axis=1)
            fh.write("".join(f"{k},{row}\n"
                             for k, row in enumerate(float_rows(block), start=lo)))


def draw_run(model: PlantModel, scenario: AttackScenario):
    """The signals of one run of ``scenario``: x(0), u, d, m and a.

    Each signal draws from its own stream, so drawing past a divergence
    changes nothing.  ``simulate`` and ``harness.run_seeds`` both draw
    through this, so a seed gives the same run on either path.
    """
    T, seed = scenario.horizon, scenario.seed
    u = np.zeros((T + 1, model.n_u))
    d = np.zeros((T + 1, model.n_d))
    m = np.zeros((T + 1, model.p))
    a = np.zeros((T + 1, model.p))
    signals = [(m, "noise", scenario.noise_gens), (d, "disturbance", scenario.disturbance_gens),
               (a, "attack", [scenario.attack_gen(i) for i in range(1, model.p + 1)])]
    for track, kind, gens in signals:
        for i, gen in enumerate(gens):
            if gen.kind != "zero":  # a zero signal leaves its stream unused
                track[:, i] = sample_block(gen, T + 1, signal_stream(seed, kind, i + 1))
    return scenario.x0.sample(signal_stream(seed, "init")), u, d, m, a


def simulate(
    model: PlantModel,
    scenario: AttackScenario,
    ceiling: float = DIVERGENCE_CEILING,
) -> Trajectory:
    """Run the plant over the scenario horizon and record everything.

    Raises :class:`SimulationDivergedError` when |x(k)| crosses
    ``ceiling`` — that is a genuine unbounded trajectory, not an
    estimator problem, so it aborts the run with the offending step.
    """
    problems = scenario.validate(model)
    if problems:
        raise ConfigurationError(problems)
    x0, u, d, m, a = draw_run(model, scenario)
    x = plant_track(model, x0[None], u[None], d[None], ceiling)[0]
    diverged = first_divergence(x, ceiling)
    if diverged is not None:
        raise SimulationDivergedError(*diverged)
    y = output_track(model, x[None], u[None])[0] + m + a
    return Trajectory(x=x, y=y, u=u, d=d, m=m, a=a)
