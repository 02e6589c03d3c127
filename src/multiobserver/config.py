"""Scenario configuration: schema, registries, validation, bank building.

Configs are JSON.  Validation is total: ``load_config`` walks the whole
document and raises one :class:`ConfigurationError` carrying *every*
problem found, so a bad config is fixed in one round trip.  Each section
of the document is declared once, as a table that maps each of its keys
to a typed reader of ``_Collector`` (or the reader of a nested section),
the value an absent or null key stands for, and the reader's bounds; a
section with a tag key (``family``, ``name`` or ``kind``) has one table per
tag value.  The same table reads the section and lists every key it does
not name, so a malformed value or a misspelt key becomes a listed problem,
never a Python exception or a silent default.  Plant nonlinearities come
from a registry of named closures rather than an expression language.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .combinatorics import BankIndex, SubsetIndex, bank_index, parse_label
from .calibration import TAIL_STATS, CalibrationSettings
from .errors import ConfigurationError
from .model import (
    DIVERGENCE_CEILING,
    AttackScenario,
    CircleStructure,
    InitSpec,
    PlantModel,
    ReducedStructure,
    SignalSpec,
)
from .observers import (
    CertificateResult,
    CircleCriterionObserver,
    ISSGainModel,
    LuenbergerObserver,
    Observer,
    ObserverBank,
    ReducedOrderObserver,
    SlopeCheckResult,
    certify_linear_gain,
    check_slope_condition,
)

__all__ = [
    "ScenarioConfig",
    "ObserverSpec",
    "IsolationOptions",
    "load_config",
    "parse_config",
    "build_bank",
    "BankBuildReport",
    "CHANNEL_REGISTRY",
    "STATE_NONLINEARITY_REGISTRY",
]


# --- the schema machinery ----------------------------------------------------

_FLOAT_MAX = sys.float_info.max
_UNSET = object()  # as a default: an absent or null key is not read and gives None


class _Done(Exception):
    """Ends the read of a section early; the read returns the exception's argument."""


class _Key:
    """One key of a section table: its reader, its default and its bounds.

    The reader is called as ``read(col, path, value, **bounds)``.  An absent
    or null key reads as ``default``, so a key without one is required and its
    reader reports the null; a nonzero numeric default is also what a bad value
    reads as.  A callable default or bound is called with the read's context:
    the values its caller passed and the keys read before.  A value that its
    reader did not list but that fails ``check`` (a predicate and its message)
    is listed and reads as None, and a ``needed`` key that reads as None ends
    the read of its section.
    """

    __slots__ = ("read", "default", "needed", "check", "bounds", "context")

    def __init__(self, read: Callable, default=None, /, needed=False, check=None, **bounds):
        if type(default) in (int, float) and default:  # the readers' own fallback is zero
            bounds.setdefault("default", default)
        self.read, self.default, self.needed, self.check = read, default, needed, check
        self.bounds = {k: b for k, b in bounds.items() if not callable(b)}
        self.context = tuple((k, b) for k, b in bounds.items() if callable(b))


def _section(table: dict, build: Callable = dict) -> Callable:
    """The reader of a nested section: its keys, read through ``table`` after
    its unknown keys are listed, make ``build``, whose own ``validate``
    problems are listed too."""

    validate = hasattr(build, "validate")

    def read(col, path, val, **ctx):
        obj = col.section(path, val) or {}
        col.known(path, obj, table)
        out = build(**col.read(path, obj, table, **ctx))
        for msg in out.validate() if validate else ():
            col.add(path, msg)
        return out

    return read


class _Collector:
    """Accumulates problems with dotted field paths.

    Its readers are the one place that decides how a JSON value becomes
    a checked one.  A bad value records a single ``path: message``
    problem and yields ``default``, so one pass still finds every problem.
    """

    def __init__(self):
        self.problems: list[str] = []

    def add(self, path: str, msg: str):
        self.problems.append(f"{path}: {msg}")

    def read(self, path: str, obj: dict, table: dict, **ctx) -> dict:
        """The keys of ``table`` read from the object ``obj``, in table order.

        A null value reads as an absent key.  ``ctx``, with the keys read so
        far, is the context of the read.  A reader that raises ``_Done`` ends
        the read, which then returns the exception's argument.
        """
        prefix = f"{path}." if path else ""
        out = {}
        for key, spec in table.items():
            val = obj.get(key)
            if val is None:
                val = spec.default(ctx) if callable(spec.default) else spec.default
            if val is _UNSET:
                out[key] = ctx[key] = None
                continue
            bounds = spec.bounds.copy()
            for k, b in spec.context:
                bounds[k] = b(ctx)
            listed = len(self.problems)
            try:
                got = spec.read(self, prefix + key, val, **bounds)
            except _Done as done:
                return done.args[0]
            # a value the reader listed is not checked again
            if spec.check and len(self.problems) == listed and not spec.check[0](got):
                self.add(prefix + key, spec.check[1])
                got = None
            if spec.needed and got is None:
                return None
            out[key] = ctx[key] = got
        return out

    def known(self, path: str, obj: dict, table: dict, also=()):
        """List every key of the object ``obj`` that neither ``table`` nor ``also`` names,
        as an unknown field (an unknown section at the top level)."""
        if obj.keys() <= table.keys():
            return
        for key in sorted((obj.keys() - table.keys()).difference(also)):
            self.add(f"{path}.{key}" if path else key, "unknown field" if path else "unknown section")

    def tagged(self, path: str, val, tag: str, tables: dict, **ctx) -> dict | None:
        """An object whose ``tag`` key names the table that reads it, read like a
        section: the tag and the table's keys.  An object without a known tag
        is listed and reads as None, for which the caller has a fallback."""
        obj = self.section(path, val)
        if obj is None:
            return None
        name = obj.get(tag)
        if not isinstance(name, str) or name not in tables:
            self.add(f"{path}.{tag}", f"unknown {tag} {name!r:.40}; known: {sorted(tables)}")
            return None
        self.known(path, obj, tables[name], also=(tag,))
        got = self.read(path, obj, tables[name], **ctx)
        return None if got is None else {tag: name, **got}

    def number(self, path: str, val, lo: float | None = None, default=0.0) -> float:
        """A finite JSON number (not a bool), at least ``lo`` when given."""
        # type() excludes bool; the bounds fail for NaN, +-inf and ints beyond float range
        if type(val) not in (float, int) or not -_FLOAT_MAX <= val <= _FLOAT_MAX:
            self.add(path, f"expected a finite number, got {val!r:.40}")
            return default
        if lo is not None and val < lo:
            self.add(path, f"must be >= {lo}, got {val}")
            return default
        return float(val)

    def integer(self, path: str, val, lo: int | None = None, hi: int | None = None, default=0):
        """A JSON integer (not a bool, not a float such as 2.0) in [lo, hi]."""
        if type(val) is not int:
            self.add(path, f"expected an integer, got {val!r:.40}")
            return default
        if (lo is not None and val < lo) or (hi is not None and val > hi):
            bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            self.add(path, f"must be {bound}, got {val}")
            return default
        return val

    def flag(self, path: str, val) -> bool | None:
        """A JSON true or false."""
        if type(val) is not bool:
            self.add(path, f"expected true or false, got {val!r:.40}")
            return None
        return val

    def text(self, path: str, val) -> str | None:
        """A JSON string."""
        if type(val) is not str:
            self.add(path, f"expected a string, got {val!r:.40}")
            return None
        return val

    def choice(self, path: str, val, options: tuple[str, ...], default: str) -> str:
        """One of the strings ``options``; a bad value is reported on the enclosing section."""
        if isinstance(val, str) and val in options:
            return val
        section, _, key = path.rpartition(".")
        *head, last = map(repr, options)
        self.add(section, f"{key} must be {', '.join(head)}, or {last}, got {val!r:.40}")
        return default

    def section(self, path: str, val) -> dict | None:
        """A JSON object, null reading as an empty one; anything else is listed
        and reads as None."""
        if val is None:
            return {}
        if not isinstance(val, dict):
            self.add(path, f"expected an object, got {type(val).__name__}")
            return None
        return val

    def vector(self, path: str, val, n: int | None = None) -> tuple[float, ...]:
        """A list of finite numbers, of length ``n`` when given."""
        if not isinstance(val, list):
            self.add(path, f"expected a list of numbers, got {val!r:.40}")
        elif n is not None and len(val) != n:
            self.add(path, f"expected {n} entries, got {len(val)}")
        else:
            return tuple([self.number(path, v) for v in val])
        return (0.0,) * (n or 0)

    def sensors(self, path: str, val, p: int) -> frozenset[int]:
        """A list of sensor indices: JSON integers in 1..p."""
        if not isinstance(val, list):
            self.add(path, f"expected a list of sensor indices, got {val!r:.40}")
            return frozenset()
        read = [self.integer(path, v, 1, p, default=None) for v in val]
        return frozenset(read) - {None}

    def matrix(self, path: str, val, shape: tuple[int | None, int | None] = (None, None)):
        """A 2-D matrix of finite JSON numbers; ``shape`` may fix rows and columns."""
        try:
            arr = np.asarray(val)
        except ValueError:  # ragged rows
            arr = None
        if arr is None or arr.dtype.kind not in "iuf":
            self.add(path, "not a numeric matrix")
            return None
        if arr.dtype.kind != "f":
            arr = arr.astype(float)
        if arr.ndim != 2:
            self.add(path, f"expected a 2-D matrix, got ndim={arr.ndim}")
            return None
        for want, got, axis in zip(shape, arr.shape, ("rows", "columns")):
            if want is not None and got != want:
                self.add(path, f"expected {want} {axis}, got {got}")
                return None
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            self.add(path, "contains non-finite entries")
            return None
        return arr


_N, _P = itemgetter("n"), itemgetter("p")


# --- nonlinearity registries -------------------------------------------------

# Channelwise nonlinearities for the circle-criterion family: numpy-vectorized
# callables applied elementwise to H x + K(...).  They take no params.
CHANNEL_REGISTRY: dict[str, Callable] = {
    "sin": np.sin,
    "tanh": np.tanh,
    "identity": lambda v: v,
}

# The params of every state channel: its constant term, and the state the
# channel reads and the state it adds to, as indices from 1.
_CHANNEL = {
    "constant": _Key(_Collector.vector, lambda c: [0.0] * c["n"], n=_N),
    "index": _Key(_Collector.integer, lo=1, hi=_N, default=1),
    "position": _Key(_Collector.integer, lo=1, hi=_N, default=1),
}
_GAIN_CHANNEL = {**_CHANNEL, "gain": _Key(_Collector.number, 1.0)}


def _channel(constant, index, position, term):
    """g(x, u): the constant term plus ``term`` of state ``index`` at state ``position``.

    ``x`` may carry leading batch axes; g then returns one row per state.
    """
    constant, index, position = np.array(constant), index - 1, position - 1

    def g(x, u):
        out = np.empty(np.shape(x))
        out[...] = constant
        out[..., position] += term(x[..., index])
        return out

    return g


def _make_state_channel(transform):
    def build(gain, **channel):
        return _channel(**channel, term=lambda v: gain * transform(v))

    return build


def _make_poly_channel(coeffs, **channel):
    coeffs = np.array(coeffs)
    return _channel(**channel, term=lambda v: np.polyval(coeffs, v))


def _zero_state(x, u):
    return np.zeros(np.shape(x))


# Additive state nonlinearities g(x, u) for the reduced-order family: each
# entry is its params table and the builder called with the read params.
# Every g accepts estimates with leading batch axes, as ``run_group`` passes.
STATE_NONLINEARITY_REGISTRY: dict[str, tuple[dict, Callable]] = {
    "tanh_channel": (_GAIN_CHANNEL, _make_state_channel(np.tanh)),
    "sin_channel": (_GAIN_CHANNEL, _make_state_channel(np.sin)),
    "poly_channel": ({**_CHANNEL, "coeffs": _Key(_Collector.vector)}, _make_poly_channel),
    "zero": ({}, lambda: _zero_state),
}


# --- named plants (luenberger family) ----------------------------------------

def _example1_plant() -> tuple[PlantModel, np.ndarray, np.ndarray]:
    """A 2-state polynomial plant with one quadratic and two linear-ish outputs.

    Returns the model plus the Jacobians (A, C) at the origin used to
    certify output-injection gains.
    """

    def f(x, u, d, k):
        x1, x2 = x
        return np.array([x1 - x1**3 + x2 * x1**2 - x2**2 * x1**3, -x2])

    def h(x, u):
        x1, x2 = x
        return np.array([2.0 * x1 + x1**2, x1 + x2, 2.0 * x1 + x2])

    model = PlantModel(name="example1", n=2, p=3, f=f, h=h)
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    C = np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    return model, A, C


# --- config dataclasses ------------------------------------------------------

@dataclass(frozen=True)
class ObserverSpec:
    """Raw per-subset bundle entry: gains plus declared convergence model."""

    subset: SubsetIndex
    K: np.ndarray | None = None
    L: np.ndarray | None = None
    iss: ISSGainModel | None = None
    practical: bool = False


@dataclass(frozen=True)
class IsolationOptions:
    """The ``isolation`` section; ``m_bar``/``d_bar`` default to the scenario's bounds."""

    window: int
    eps: float
    k_star: int | None
    m_bar: float
    d_bar: float


@dataclass
class ScenarioConfig:
    """A fully validated scenario, ready to run."""

    name: str
    family: str
    plant: PlantModel
    bank: BankIndex
    specs: dict[SubsetIndex, ObserverSpec]
    scenario: AttackScenario
    estimator_init: str
    estimator_init_value: np.ndarray | None
    estimator_iss: ISSGainModel | None
    isolation: IsolationOptions | None
    calibration: CalibrationSettings
    ceiling: float
    out_dir: str | None
    path: Path | None
    sha256: str
    raw: dict = field(repr=False)
    lin_A: np.ndarray | None = field(default=None, repr=False)
    lin_C: np.ndarray | None = field(default=None, repr=False)
    slope_box: tuple[float, float] | None = None

    def initial_estimate(self, x0: np.ndarray) -> np.ndarray:
        """The bank's shared initial estimate for a run starting at x0."""
        if self.estimator_init == "zero":
            return np.zeros(self.plant.n)
        if self.estimator_init == "truth":
            return np.asarray(x0, dtype=float).copy()
        return self.estimator_init_value.copy()

    def iss_models(self) -> dict[SubsetIndex, ISSGainModel]:
        return {sub: spec.iss for sub, spec in self.specs.items() if spec.iss is not None}


# --- signals, initial states and convergence models --------------------------

_SIGNALS = {
    "zero": {},
    "constant": {"value": _Key(_Collector.number)},
    "uniform": {"low": _Key(_Collector.number), "high": _Key(_Collector.number)},
    "normal": {"mean": _Key(_Collector.number), "std": _Key(_Collector.number)},
    "table": {"values": _Key(_Collector.vector)},
}


def _signal(col: _Collector, path: str, obj, horizon: int | None) -> SignalSpec:
    got = col.tagged(path, obj, "kind", _SIGNALS)
    zero = SignalSpec("zero")
    spec = zero if got is None else SignalSpec(**got)
    problems = spec.validate(horizon)
    for msg in problems:
        col.add(path, msg)
    return zero if problems else spec  # listed here, so the scenario's checks see the fallback


_INITS = {
    "fixed": {"value": _Key(_Collector.vector, n=_N)},
    "normal": {"mean": _Key(_Collector.vector, n=_N), "std": _Key(_Collector.vector, n=_N)},
}


def _init_spec(col: _Collector, path: str, obj, n: int) -> InitSpec:
    got = col.tagged(path, obj, "kind", _INITS, n=n)
    zero = InitSpec("fixed", value=(0.0,) * n)
    spec = zero if got is None else InitSpec(**got)
    problems = spec.validate(n)
    for msg in problems:
        col.add(path, msg)
    return zero if problems else spec


_ISS = {
    "c": _Key(_Collector.number, 1.0),
    "lam": _Key(_Collector.number, 0.5),
    "gamma1": _Key(_Collector.number, 0.0),
    "gamma2": _Key(_Collector.number, 0.0),
    "nu": _Key(_Collector.number, 0.0),
    "k_star": _Key(_Collector.integer, 0),
}
_iss_model = _section(_ISS, ISSGainModel)


# --- plant -------------------------------------------------------------------

def _dynamics(col: _Collector, path: str, val, section: dict):
    """``linear`` goes on to read the matrices; ``example1`` is the named plant."""
    if val == "example1":
        for key, msg in (("A", "has a fixed linearization A"),
                         ("C", "has a fixed linearization C"),
                         ("D", "has no disturbance input")):
            if section.get(key) is not None:
                col.add(f"plant.{key}", f"named plant example1 {msg}")
        raise _Done(dict(zip(("plant", "lin_A", "lin_C"), _example1_plant())))
    if val != "linear":
        col.add(path, f"unknown named dynamics {val!r:.40}")
        raise _Done(None)
    return val


def _nonlinearity(registry: dict) -> _Key:
    """The ``nonlinearity`` key: an object tagged by a registered ``name``,
    whose ``params`` (read through the entry's table) build the callable."""
    tables = {name: {"params": _Key(_section(table, build), n=_N)}
              for name, (table, build) in registry.items()}
    return _Key(_Collector.tagged, needed=True, tag="name", tables=tables, n=lambda c: len(c["A"]))


# A comes first: the others are shaped by its n rows.
_LINEAR = {
    "A": _Key(_Collector.matrix, needed=True, check=(
        lambda A: A.shape[0] == A.shape[1], "expected a square matrix")),
    "C": _Key(_Collector.matrix, needed=True, shape=lambda c: (None, len(c["A"]))),
    "D": _Key(_Collector.matrix, _UNSET, needed=True, shape=lambda c: (len(c["A"]), None)),
}
_PLANTS = {
    "luenberger": {"dynamics": _Key(_dynamics, section=itemgetter("section")), **_LINEAR},
    "reduced": {**_LINEAR, "nonlinearity": _nonlinearity(STATE_NONLINEARITY_REGISTRY)},
    "circle": {
        **_LINEAR,
        # circle channels take no params
        "nonlinearity": _nonlinearity(
            {name: ({}, lambda fn=fn: fn) for name, fn in CHANNEL_REGISTRY.items()}),
        "G": _Key(_Collector.matrix, needed=True, shape=lambda c: (len(c["A"]), None)),
        "H": _Key(_Collector.matrix, needed=True, shape=lambda c: (c["G"].shape[1], len(c["A"]))),
        "slope_box": _Key(_Collector.vector, n=2, check=(
            lambda box: box[0] < box[1], "circle family needs slope_box [lo, hi] with lo < hi")),
    },
}


def _plant(col: _Collector, path: str, val) -> dict | None:
    """The plant model, the (A, C) its gains are certified with, and the slope box."""
    got = col.tagged(path, val, "family", _PLANTS, section=val)
    if got is None or "plant" in got:  # no plant, or the named one
        return got
    family, A, C, D = got["family"], got["A"], got["C"], got["D"]
    name, term, structure = "linear", None, None
    if family == "reduced":
        name, term = got["nonlinearity"].values()
        structure = ReducedStructure(A=A, C=C, g=term, D=D)
    elif family == "circle":
        (name, channels), G, H = got["nonlinearity"].values(), got["G"], got["H"]
        structure = CircleStructure(A=A, G=G, H=H, C=C, channels=channels, D=D)

        def term(x, u):
            return G @ channels(H @ x)

    def f(x, u, d, k):
        x_next = A @ x if term is None else A @ x + term(x, u)
        return x_next if D is None else x_next + D @ d

    def h(x, u):
        return C @ x

    model = PlantModel(
        name=name if term is None else f"{family}[{name}]", n=len(A), p=len(C), f=f, h=h,
        n_d=0 if D is None else D.shape[1], structure=structure,
    )
    return dict(family=family, plant=model, lin_A=A, lin_C=C, slope_box=got.get("slope_box"))


# --- scenario and estimator --------------------------------------------------

def _attacks(col: _Collector, path: str, val, p: int, horizon: int) -> dict[int, SignalSpec]:
    attacks = {}
    for key, obj in (col.section(path, val) or {}).items():
        sensor = int(key) if key.isdecimal() else 0
        if not 1 <= sensor <= p:
            col.add(f"{path}[{key}]", f"key must be a sensor index in 1..{p}")
            continue
        attacks[sensor] = _signal(col, f"{path}[{key}]", obj, horizon)
    return attacks


def _noise(col: _Collector, path: str, val, p: int, horizon: int) -> tuple[SignalSpec, ...]:
    """One generator for every sensor, or a list of one per sensor."""
    if not isinstance(val, list):
        one = _signal(col, path, val, horizon)
        return tuple(one for _ in range(p))
    if len(val) != p:
        col.add(path, f"expected {p} per-sensor entries, got {len(val)}")
    noise = tuple(_signal(col, f"{path}[{i}]", obj, horizon) for i, obj in enumerate(val, start=1))
    return noise if len(noise) == p else tuple(SignalSpec("zero") for _ in range(p))


def _disturbances(col: _Collector, path: str, val, horizon: int) -> tuple[SignalSpec, ...]:
    if not isinstance(val, list):
        col.add(path, f"expected a list of signals, got {val!r:.40}")
        val = []
    return tuple(_signal(col, f"{path}[{j}]", obj, horizon) for j, obj in enumerate(val, start=1))


# Read whether or not the plant could be built ...
_SCENARIO = {
    "q": _Key(_Collector.integer, default=None),
    "horizon": _Key(_Collector.integer, default=1),
    "seed": _Key(_Collector.integer, 0),
}
# ... and against the plant's p outputs and n states.
_SCENARIO_SIGNALS = {
    "attacked": _Key(_Collector.sensors, [], p=_P),
    "attacks": _Key(_attacks, {}, p=_P, horizon=itemgetter("horizon")),
    "noise": _Key(_noise, {"kind": "zero"}, p=_P, horizon=itemgetter("horizon")),
    "disturbance": _Key(_disturbances, [], horizon=itemgetter("horizon")),
    "x0": _Key(_init_spec, n=_N),
    "noise_bound": _Key(_Collector.number, 0.0, lo=0.0),
    "disturbance_bound": _Key(_Collector.number, 0.0, lo=0.0),
}


def _scenario(col: _Collector, path: str, val, plant: dict | None) -> dict:
    """The attack scenario, and the bank geometry its q asks for."""
    scen = col.section(path, val) or {}
    col.known(path, scen, _SCENARIO, also=_SCENARIO_SIGNALS)
    head = col.read(path, scen, _SCENARIO)
    if plant is None:
        raise ConfigurationError(col.problems or ["plant: could not be constructed"])
    model, q = plant["plant"], head["q"]
    # an unreadable q is listed once: no bank is built and nothing is checked against it
    bank = bank_index(model.p, q) if q is not None and 0 <= 2 * q < model.p else None
    if bank is None and q is not None:
        col.add(f"{path}.q", f"assumption violated: need 0 <= q < p/2, got q={q}, p={model.p}")
        head["q"] = None  # so the scenario does not check a budget against it again
    run = col.read(path, scen, _SCENARIO_SIGNALS, p=model.p, n=model.n, **head)
    scenario = AttackScenario(
        p=model.p,
        **head,
        attack_gens=run.pop("attacks"),
        noise_gens=run.pop("noise"),
        disturbance_gens=run.pop("disturbance"),
        **run,
    )
    for msg in scenario.validate(model):
        col.add(path, msg)
    return dict(scenario=scenario, bank=bank)


_ESTIMATOR_INITS = {"zero": {}, "truth": {}, "fixed": {"value": _Key(_Collector.vector, n=_N)}}


def _estimator_init(col: _Collector, path: str, val, n: int):
    """The initial-estimate mode, and its vector for ``fixed``."""
    got = col.tagged(path, val, "kind", _ESTIMATOR_INITS, n=n) or {"kind": "zero"}
    return got["kind"], np.array(got["value"]) if "value" in got else None


_ESTIMATOR = {"init": _Key(_estimator_init, {"kind": "zero"}, n=_N), "iss": _Key(_iss_model, _UNSET)}


# --- observer bundle ---------------------------------------------------------

def _gain_shapes(family: str, n: int, card: int, r: int | None):
    """Expected (K shape, L shape) per family; None marks an absent gain."""
    if family == "luenberger":
        return (n, card), None
    if family == "reduced":
        return (n - card, card), (n - card, n)
    return (r, card), (n, card)


def _gain(col: _Collector, path: str, val, shape):
    """A gain matrix of ``shape``; None where the entry has no such gain, which
    an entry may then not give."""
    if shape is None:
        if val is not None:
            col.add(path, "luenberger observers have no gain L")
        return None
    return col.matrix(path, val, shape)


_BUNDLE_ENTRY = {
    "K": _Key(_gain, shape=itemgetter("k_shape")),
    "L": _Key(_gain, shape=itemgetter("l_shape")),
    "iss": _Key(_iss_model, _UNSET),
    "practical": _Key(_Collector.flag, False),
}


def _bundle(col: _Collector, path: str, val, plant: dict, bank: BankIndex) -> dict:
    """One observer spec per subset of the bank, in the bank's order."""
    family, model = plant["family"], plant["plant"]
    r = model.structure.H.shape[0] if family == "circle" else None
    bundle = col.section(path, val) or {}
    canonical = {sub.label: sub for sub in bank.all_subsets}
    outside = set()
    for label in bundle:
        if label not in canonical:
            try:
                outside.add(parse_label(label))
            except ConfigurationError as exc:
                col.add(f"{path}[{label}]", str(exc))
    for sub in sorted(outside):
        col.add(f"{path}[{sub.label}]", f"subset not in the bank for p={bank.p}, q={bank.q}")
    specs = {}
    for label, sub in canonical.items():  # the bank's order, so specs come out sorted
        entry, at = bundle.get(label), f"{path}[{label}]"
        if entry is None:
            col.add(path, f"missing observer for {label}")
        elif not isinstance(entry, dict):
            col.add(at, "expected an object")
        else:
            k_shape, l_shape = _gain_shapes(family, model.n, len(sub), r)
            if family == "reduced" and entry.get("K") is None:  # the reduced family's K is optional
                k_shape = None
            col.known(at, entry, _BUNDLE_ENTRY)
            got = col.read(at, entry, _BUNDLE_ENTRY, k_shape=k_shape, l_shape=l_shape)
            specs[sub] = ObserverSpec(sub, **got)
    return specs


_OBSERVERS = {"bundle": _Key(_bundle, plant=itemgetter("plant"), bank=itemgetter("bank"))}
_observers_section = _section(_OBSERVERS)


def _observers(col: _Collector, path: str, val, plant: dict, bank: BankIndex | None) -> dict:
    """The bundle's specs; without a bank (a bad ``q``) the section is not read."""
    if bank is None:
        return {}
    return _observers_section(col, path, val, plant=plant, bank=bank)["bundle"]


# --- isolation, calibration, output and the document -------------------------

_ISOLATION = {
    "window": _Key(_Collector.integer, lo=1, default=1),
    "eps": _Key(_Collector.number, 0.0, lo=0.0),
    "k_star": _Key(_Collector.integer, _UNSET, lo=0),
    # the scenario's bounds, which the document passes
    "m_bar": _Key(_Collector.number, itemgetter("noise_bound"), lo=0.0),
    "d_bar": _Key(_Collector.number, itemgetter("disturbance_bound"), lo=0.0),
}
_isolation_section = _section(_ISOLATION, IsolationOptions)


def _isolation(col: _Collector, path: str, val, specs: dict, **bounds) -> IsolationOptions:
    options = _isolation_section(col, path, val, **bounds)
    for sub, spec in specs.items():
        if spec.iss is None:
            col.add(
                f"observers.bundle[{sub.label}].iss",
                "isolation needs a convergence model for every subset (run calibrate first)",
            )
    return options


_CALIBRATION = {
    "trials": _Key(_Collector.integer, 30),
    "horizon": _Key(_Collector.integer, 200),
    # by default the scenario seed + 1, which the document passes as ``seed``
    "seed": _Key(_Collector.integer, itemgetter("seed"), default=itemgetter("seed")),
    "safety": _Key(_Collector.number, 1.2),
    "c_safety": _Key(_Collector.number, 1.3),
    "init_scale": _Key(_Collector.number, 1.0),
    "eps_settle": _Key(_Collector.number, 1e-2),
    "tail_stat": _Key(_Collector.choice, "max", options=TAIL_STATS, default="max"),
}
_OUTPUT = {"dir": _Key(_Collector.text, _UNSET)}


def _name(col: _Collector, path: str, val, stem: str) -> str:
    name = val or stem
    # the name becomes the artifact subdirectory, so it may not leave the output directory:
    # no path separator, not ``.`` or ``..``
    if not isinstance(name, str) or name in (".", "..") or "/" in name or "\\" in name:
        col.add(path, f"expected a file name without path separators, got {name!r:.40}")
    return name


# The document: its sections in the order they are read, each reader taking
# what it needs from the sections read before it.
_TOP = {
    "name": _Key(_name, stem=itemgetter("stem")),
    "plant": _Key(_plant),
    "scenario": _Key(_scenario, plant=itemgetter("plant")),
    "estimator": _Key(_section(_ESTIMATOR), n=lambda c: c["plant"]["plant"].n),
    "observers": _Key(_observers, plant=itemgetter("plant"), bank=lambda c: c["scenario"]["bank"]),
    "isolation": _Key(
        _isolation, _UNSET, specs=itemgetter("observers"),
        noise_bound=lambda c: c["scenario"]["scenario"].noise_bound,
        disturbance_bound=lambda c: c["scenario"]["scenario"].disturbance_bound,
    ),
    "calibration": _Key(
        _section(_CALIBRATION, CalibrationSettings),
        seed=lambda c: c["scenario"]["scenario"].seed + 1,
    ),
    "divergence_ceiling": _Key(
        _Collector.number, DIVERGENCE_CEILING, check=(lambda v: v > 0, "must be positive")
    ),
    "output": _Key(_section(_OUTPUT)),
}


def parse_config(raw: dict, path: Path | None = None, sha256: str = "") -> ScenarioConfig:
    """Validate a parsed JSON document; raise with every problem found."""
    if not isinstance(raw, dict):
        raise ConfigurationError(["top level: expected a JSON object"])
    col = _Collector()
    col.known("", raw, _TOP)
    doc = col.read("", raw, _TOP, stem=path.stem if path else "scenario")
    if col.problems:
        raise ConfigurationError(col.problems)
    (init, init_value), estimator_iss = doc["estimator"].values()
    return ScenarioConfig(
        name=doc["name"],
        **doc["plant"],
        **doc["scenario"],
        specs=doc["observers"],
        estimator_init=init,
        estimator_init_value=init_value,
        estimator_iss=estimator_iss,
        isolation=doc["isolation"],
        calibration=doc["calibration"],
        ceiling=doc["divergence_ceiling"],
        out_dir=doc["output"]["dir"],
        path=path,
        sha256=sha256,
        raw=raw,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Read, parse, and fully validate a scenario config file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError([f"cannot read {path}: {exc}"]) from None
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            [f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None
    except (UnicodeDecodeError, RecursionError) as exc:  # bad encoding, nesting too deep
        raise ConfigurationError([f"{path}: not a readable JSON document: {exc}"]) from None
    return parse_config(raw, path=path, sha256=hashlib.sha256(data).hexdigest())


# --- bank construction -------------------------------------------------------

@dataclass
class BankBuildReport:
    """Numeric health of a constructed bank: certificates and slope check."""

    certificates: dict[SubsetIndex, CertificateResult]
    slope: SlopeCheckResult | None
    problems: list[str]


def build_bank(cfg: ScenarioConfig, enforce: bool = True) -> tuple[ObserverBank, BankBuildReport]:
    """Construct every observer and certify the gains.

    Certificate failures on subsets not marked ``practical`` are
    collected and (when ``enforce``) raised as one error.  The circle
    family additionally gets its slope certificate checked over the
    configured box.
    """
    observers: dict[SubsetIndex, Observer] = {}
    certificates: dict[SubsetIndex, CertificateResult] = {}
    problems: list[str] = []
    plant = cfg.plant
    for sub in cfg.bank.all_subsets:
        spec = cfg.specs[sub]
        idx = np.asarray(sub.members, dtype=int) - 1
        try:
            if cfg.family == "luenberger":
                obs = LuenbergerObserver(sub, plant.f, plant.h, spec.K, plant.n, plant.n_d)
                cert = certify_linear_gain(cfg.lin_A, cfg.lin_C[idx], spec.K, "luenberger")
            elif cfg.family == "reduced":
                obs = ReducedOrderObserver(sub, plant.structure, spec.L, spec.K)
                c_eq = obs.C_J @ plant.structure.A @ obs.N
                cert = certify_linear_gain(obs.A_L, c_eq, obs.K, "reduced")
            else:
                obs = CircleCriterionObserver(sub, plant.structure, spec.K, spec.L)
                cert = certify_linear_gain(
                    plant.structure.A, plant.structure.C[idx], spec.L, "circle"
                )
        except ConfigurationError as exc:
            problems += [f"{sub.label}: {msg}" for msg in exc.problems]
            continue
        observers[sub] = obs
        certificates[sub] = cert
        if not cert.passed and not spec.practical:
            problems.append(
                f"{sub.label}: linear certificate failed "
                f"(spectral radius {cert.spectral_radius:.6f} >= {1 - cert.margin}); "
                f"mark the entry practical or redesign the gain"
            )
    slope = None
    if cfg.family == "circle" and cfg.slope_box is not None:
        slope = check_slope_condition(plant.structure.channels, cfg.slope_box)
        if not slope.passed:
            problems.append(
                f"slope condition failed on box {cfg.slope_box}: quotient "
                f"{slope.worst_quotient:.3e} at witness {slope.witness}"
            )
    report = BankBuildReport(certificates=certificates, slope=slope, problems=problems)
    if enforce and problems:
        raise ConfigurationError(problems)
    if len(observers) != len(cfg.bank.all_subsets):
        raise ConfigurationError(problems or ["bank incomplete after construction"])
    return ObserverBank(observers), report
