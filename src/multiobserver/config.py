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
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .combinatorics import BankIndex, SubsetIndex, bank_index, parse_label
from .calibration import CalibrationSettings
from .errors import ConfigurationError
from .isolation import compute_thresholds
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
    CERTIFICATE_MARGIN,
    CertificateResult,
    CircleCriterionObserver,
    ISSGainModel,
    LuenbergerObserver,
    Observer,
    ObserverBank,
    ReducedOrderObserver,
    certify_sector,
)

__all__ = [
    "ScenarioConfig",
    "ObserverSpec",
    "IsolationOptions",
    "load_config",
    "parse_config",
    "build_bank",
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
    the values its caller passed and the keys read before.  A ``needed`` key
    that reads as None ends the read of its section.
    """

    __slots__ = ("read", "default", "needed", "bounds", "context")

    def __init__(self, read: Callable, default=None, /, needed=False, **bounds):
        if type(default) in (int, float) and default:  # the readers' own fallback is zero
            bounds.setdefault("default", default)
        self.read, self.default, self.needed = read, default, needed
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
            try:
                got = spec.read(self, prefix + key, val, **bounds)
            except _Done as done:
                return done.args[0]
            if spec.needed and got is None:
                return None
            out[key] = ctx[key] = got
        return out

    def known(self, path: str, obj: dict, table: dict, also=()):
        """List every key of the object ``obj`` that neither ``table`` nor ``also`` names,
        as an unknown field (an unknown section at the top level), cut as values are."""
        if obj.keys() <= table.keys():
            return
        for key in sorted((obj.keys() - table.keys()).difference(also)):
            self.add(f"{path}.{key:.40}" if path else f"{key:.40}",
                     "unknown field" if path else "unknown section")

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

    def sensors(self, path: str, val, p: int | None) -> frozenset[int] | None:
        """A list of sensor indices: JSON integers in 1..p, or at least 1 when p is None;
        anything but a list reads as None."""
        if not isinstance(val, list):
            self.add(path, f"expected a list of sensor indices, got {val!r:.40}")
            return None
        read = [self.integer(path, v, 1, p, default=None) for v in val]
        return frozenset(read) - {None}

    def matrix(self, path: str, val, shape: tuple[int | None, int | None] = (None, None),
               square: bool = False):
        """A 2-D matrix of finite JSON numbers; ``shape`` or ``square`` may fix rows and columns."""
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
        if square and arr.shape[0] != arr.shape[1]:
            self.add(path, "expected a square matrix")
            return None
        return arr


_N, _P = itemgetter("n"), itemgetter("p")


# --- nonlinearity registries -------------------------------------------------

# Channelwise nonlinearities for the circle-criterion family: numpy-vectorized
# callables applied elementwise to H x + K(...), each with its global slope
# sector [a, b], the one its observers are certified over.  They take no params.
CHANNEL_REGISTRY: dict[str, tuple[Callable, tuple[float, float]]] = {
    "sin": (np.sin, (-1.0, 1.0)),
    "tanh": (np.tanh, (0.0, 1.0)),
    "identity": (lambda v: v, (1.0, 1.0)),
}

# The params of every state channel: its constant term, and the state the
# channel reads and the state it adds to, as indices from 1.
_CHANNEL = {
    "constant": _Key(_Collector.vector, lambda c: [0.0] * c["n"], n=_N),
    "index": _Key(_Collector.integer, lo=1, hi=_N, default=1),
    "position": _Key(_Collector.integer, lo=1, hi=_N, default=1),
}
_GAIN_CHANNEL = {**_CHANNEL, "gain": _Key(_Collector.number, 1.0)}


def _channel(constant, index, position, term, sector):
    """A ``ReducedStructure``'s g(x, u), the constant plus ``term`` of state ``index`` at
    state ``position`` (x may have batch axes), the two states (from 0) and the sector."""
    constant, read, write = np.array(constant), index - 1, position - 1

    def g(x, u):
        out = np.empty(x.shape)  # float64 whatever the dtype of x
        out[...] = constant
        out[..., write] += term(x[..., read])
        return out

    return dict(g=g, read=read, write=write, sector=sector)


def _make_state_channel(transform, sector):
    def build(gain, **channel):
        def term(v):
            t = transform(v)
            t *= gain  # on the 0-d scalar of a 1-D x this rebinds t
            return t

        return _channel(**channel, term=term, sector=tuple(sorted(gain * s + 0.0 for s in sector)))

    return build


def _make_poly_channel(coeffs, **channel):
    coeffs = np.array(coeffs)
    lead = np.trim_zeros(coeffs, "f")  # of degree <= 1 the slope is c1 everywhere
    slope = float(lead[0]) if len(lead) == 2 else 0.0
    sector = (slope, slope) if len(lead) <= 2 else (-np.inf, np.inf)
    return _channel(**channel, term=lambda v: np.polyval(coeffs, v), sector=sector)


# Additive state nonlinearities g(x, u) for the reduced-order family: each entry is
# its params table and the builder of g and its channel's fields from the read params.
# A sector is its function's global one times the gain, + 0.0 so that no bound reads
# -0; a polynomial of degree 2 or more has none.  Every g takes estimates with batch
# axes, as ``run_group`` does.
STATE_NONLINEARITY_REGISTRY: dict[str, tuple[dict, Callable]] = {
    "tanh_channel": (_GAIN_CHANNEL, _make_state_channel(np.tanh, (0.0, 1.0))),
    "sin_channel": (_GAIN_CHANNEL, _make_state_channel(np.sin, (-1.0, 1.0))),
    "poly_channel": ({**_CHANNEL, "coeffs": _Key(_Collector.vector)}, _make_poly_channel),
    "zero": ({}, lambda: dict(g=lambda x, u: np.zeros(np.shape(x)), read=0, write=0,
                              sector=(0.0, 0.0))),
}


# --- named plants (luenberger family) ----------------------------------------

def _example1_plant() -> tuple[PlantModel, np.ndarray, np.ndarray]:
    """A 2-state polynomial plant with one quadratic and two linear-ish outputs.

    Returns the model plus the Jacobians (A, C) at the origin used to
    certify output-injection gains.  Every power goes through
    ``np.float_power``, which rounds as a scalar ``**`` does on every SIMD
    dispatch; array ``**`` does not, nor ``**2``, which is ``x * x``.
    """

    def f(x, u, d, k):
        x1, x2 = x[..., 0], x[..., 1]
        x1_3, out = np.float_power(x1, 3.0), np.empty(x.shape)
        out[..., 0] = x1 - x1_3 + x2 * np.float_power(x1, 2.0) - np.float_power(x2, 2.0) * x1_3
        np.negative(x2, out=out[..., 1])
        return out

    def h(x, u):
        x1, x2, out = x[..., 0], x[..., 1], np.empty(x.shape[:-1] + (3,))
        out[..., 0] = 2.0 * x1 + np.float_power(x1, 2.0)
        out[..., 1], out[..., 2] = x1 + x2, 2.0 * x1 + x2
        return out

    model = PlantModel(name="example1", n=2, p=3, f=f, h=h)
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    C = np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    return model, A, C


# --- config dataclasses ------------------------------------------------------

@dataclass(frozen=True)
class ObserverSpec:
    """Raw per-subset bundle entry: gains plus declared convergence model."""

    K: np.ndarray | None = None
    L: np.ndarray | None = None
    iss: ISSGainModel | None = None
    practical: bool = False


@dataclass(frozen=True)
class IsolationOptions:
    """The ``isolation`` section, with the scenario's bounds as ``m_bar`` and ``d_bar`` and
    the estimator start's ``k_star``: 0 from x(0), else None for the largest fitted one."""

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
    estimator_iss: ISSGainModel | None
    isolation: IsolationOptions | None
    calibration: CalibrationSettings
    out_dir: str | None
    path: Path | None
    sha256: str
    raw: dict = field(repr=False)
    ceiling: float = DIVERGENCE_CEILING
    lin_A: np.ndarray | None = field(default=None, repr=False)
    lin_C: np.ndarray | None = field(default=None, repr=False)

    def initial_estimate(self, x0: np.ndarray) -> np.ndarray:
        """The bank's shared initial estimate for a run starting at x0: zero, or x0 itself."""
        if self.estimator_init == "zero":
            return np.zeros(self.plant.n)
        return np.asarray(x0, dtype=float).copy()

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
    whose ``params`` (read through the entry's table) build its value."""
    tables = {name: {"params": _Key(_section(table, build), n=_N)}
              for name, (table, build) in registry.items()}
    return _Key(_Collector.tagged, needed=True, tag="name", tables=tables, n=lambda c: len(c["A"]))


# A comes first: the others are shaped by its n rows.
_LINEAR = {
    "A": _Key(_Collector.matrix, needed=True, square=True),
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
            {name: ({}, lambda entry=entry: entry) for name, entry in CHANNEL_REGISTRY.items()}),
        "G": _Key(_Collector.matrix, needed=True, shape=lambda c: (len(c["A"]), None)),
        "H": _Key(_Collector.matrix, needed=True, shape=lambda c: (c["G"].shape[1], len(c["A"]))),
    },
}


def _plant(col: _Collector, path: str, val) -> dict | None:
    """The plant model and the (A, C) its gains are certified with."""
    got = col.tagged(path, val, "family", _PLANTS, section=val)
    if got is None or "plant" in got:  # no plant, or the named one
        return got
    family, A, C, D = got["family"], got["A"], got["C"], got["D"]
    name, g, structure = "linear", None, None
    if family == "reduced":
        name, channel = got["nonlinearity"].values()
        structure, g = ReducedStructure(A=A, C=C, **channel), channel["g"]
    elif family == "circle":
        (name, (channels, sector)), G, H = got["nonlinearity"].values(), got["G"], got["H"]
        structure = CircleStructure(A=A, G=G, H=H, C=C, channels=channels, sector=sector)

    def f(x, u, d, k):
        col = x[..., None]
        x_next = A @ col
        if family == "circle":
            x_next = x_next + G @ channels(H @ col)
        elif g is not None:
            x_next = x_next + g(x, u)[..., None]
        return (x_next if D is None else x_next + D @ d[..., None])[..., 0]

    def h(x, u):
        return (C @ x[..., None])[..., 0]

    model = PlantModel(
        name=name if structure is None else f"{family}[{name}]", n=len(A), p=len(C), f=f, h=h,
        n_d=0 if D is None else D.shape[1], structure=structure,
    )
    return dict(family=family, plant=model, lin_A=A, lin_C=C)


# --- scenario and estimator --------------------------------------------------

def _attacks(col: _Collector, path: str, val, p: int, horizon: int) -> dict[int, SignalSpec]:
    attacks = {}
    for key, obj in (col.section(path, val) or {}).items():
        # only the canonical spelling names a sensor: not "03", nor another script's digits
        if key not in [str(i) for i in range(1, p + 1)]:
            col.add(f"{path}[{key:.40}]", f"key must be a sensor index in 1..{p}")
            continue
        attacks[int(key)] = _signal(col, f"{path}[{key}]", obj, horizon)
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


# Read whether or not the plant could be built (the attacked sensors against
# its p outputs when it was) ...
_SCENARIO = {
    "q": _Key(_Collector.integer, default=None),
    "horizon": _Key(_Collector.integer, default=1),
    "seed": _Key(_Collector.integer, 0),
    "attacked": _Key(_Collector.sensors, [], p=_P),
}
# ... and against the plant's p outputs and n states.
_SCENARIO_SIGNALS = {
    "attacks": _Key(_attacks, {}, p=_P, horizon=itemgetter("horizon")),
    "noise": _Key(_noise, {"kind": "zero"}, p=_P, horizon=itemgetter("horizon")),
    "disturbance": _Key(_disturbances, [], horizon=itemgetter("horizon")),
    "x0": _Key(_init_spec, n=_N),
}


def _scenario(col: _Collector, path: str, val, plant: dict | None) -> dict:
    """The attack scenario, and the bank geometry its q asks for; without a plant,
    which is listed, both read as None once the keys and checks that need no plant are."""
    scen = col.section(path, val) or {}
    col.known(path, scen, _SCENARIO, also=_SCENARIO_SIGNALS)
    model = plant and plant["plant"]
    p = model and model.p
    head = col.read(path, scen, _SCENARIO, p=p)
    q = head["q"]
    # an unreadable q is listed once: no bank is built and nothing is checked against it
    if q is not None and (q < 0 or p is not None and 2 * q >= p):
        col.add(f"{path}.q", f"assumption violated: need 0 <= q < p/2, got q={q}"
                + ("" if p is None else f", p={p}"))
        head["q"] = None  # so the scenario does not check a budget against it again
    if model is None:
        for msg in AttackScenario.horizon_and_seed_problems(head["horizon"], head["seed"]):
            col.add(path, msg)
        return dict(scenario=None, bank=None)
    bank = None if head["q"] is None else bank_index(p, head["q"])
    run = col.read(path, scen, _SCENARIO_SIGNALS, p=p, n=model.n, **head)
    scenario = AttackScenario(
        **head,
        attack_gens=run.pop("attacks"),
        noise_gens=run.pop("noise"),
        disturbance_gens=run.pop("disturbance"),
        **run,
    )
    for msg in scenario.validate(model):
        col.add(path, msg)
    return dict(scenario=scenario, bank=bank)


_ESTIMATOR_INITS = {"zero": {}, "truth": {}}


def _estimator_init(col: _Collector, path: str, val) -> str:
    """The initial-estimate mode."""
    return (col.tagged(path, val, "kind", _ESTIMATOR_INITS) or {"kind": "zero"})["kind"]


_ESTIMATOR = {"init": _Key(_estimator_init, {"kind": "zero"}), "iss": _Key(_iss_model, _UNSET)}


# --- observer bundle ---------------------------------------------------------

# Each family's gains, shaped by the plant's n states, the entry's |J|
# sensors and the circle plant's r channels; the reduced family's K is optional.
_GAINS = {
    "luenberger": {"K": _Key(_Collector.matrix, shape=lambda c: (c["n"], c["card"]))},
    "reduced": {
        "K": _Key(_Collector.matrix, _UNSET, shape=lambda c: (c["n"] - c["card"], c["card"])),
        "L": _Key(_Collector.matrix, shape=lambda c: (c["n"] - c["card"], c["n"])),
    },
    "circle": {
        "K": _Key(_Collector.matrix, shape=lambda c: (c["r"], c["card"])),
        "L": _Key(_Collector.matrix, shape=lambda c: (c["n"], c["card"])),
    },
}
_ENTRY = {"iss": _Key(_iss_model, _UNSET), "practical": _Key(_Collector.flag, False)}


def _bundle(col: _Collector, path: str, val, plant: dict, bank: BankIndex) -> dict:
    """One observer spec per subset of the bank, in the bank's order."""
    family, model = plant["family"], plant["plant"]
    r = model.structure.H.shape[0] if family == "circle" else None
    table = {**_GAINS[family], **_ENTRY}
    bundle = col.section(path, val) or {}
    canonical = {sub.label: sub for sub in bank.all_subsets}
    outside = set()
    for label in bundle:
        if label not in canonical:
            try:
                outside.add(parse_label(label))
            except ConfigurationError as exc:
                col.add(f"{path}[{label:.40}]", str(exc))
    for sub in sorted(outside):
        col.add(f"{path}[{sub.label:.40}]", f"subset not in the bank for p={bank.p}, q={bank.q}")
    specs = {}
    for label, sub in canonical.items():  # the bank's order, so specs come out sorted
        entry, at = bundle.get(label), f"{path}[{label}]"
        if entry is None:
            col.add(path, f"missing observer for {label}")
        elif not isinstance(entry, dict):
            col.add(at, "expected an object")
        else:
            col.known(at, entry, table)
            got = col.read(at, entry, table, n=model.n, card=len(sub), r=r)
            specs[sub] = ObserverSpec(**got)
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
}
_isolation_section = _section(_ISOLATION)


def _isolation(col: _Collector, path: str, val, specs: dict, bank: BankIndex | None, scenario,
               truth: bool) -> IsolationOptions:
    """The section's keys, the scenario's bounds as m_bar and d_bar (zero without one), and
    k_star 0 under a ``truth`` start: every error starts at 0, so no transient remains."""
    options = IsolationOptions(**_isolation_section(col, path, val), k_star=0 if truth else None,
                               m_bar=getattr(scenario, "noise_bound", 0.0),
                               d_bar=getattr(scenario, "disturbance_bound", 0.0))
    models = {sub: spec.iss for sub, spec in specs.items()}
    for sub, model in models.items():
        if model is None:
            col.add(
                f"observers.bundle[{sub.label}].iss",
                "isolation needs a convergence model for every subset (run calibrate first)",
            )
    # the thresholds' own faults, once every model reads: the others are listed above
    if bank is not None and len(models) == len(bank.all_subsets) and all(
            model is not None and not model.validate() for model in models.values()):
        try:
            compute_thresholds(models, bank, options.m_bar, options.d_bar, options.eps,
                               options.k_star)
        except ConfigurationError as exc:
            for msg in exc.problems:
                col.add(path, msg)
    return options


_CALIBRATION = {
    "trials": _Key(_Collector.integer, 30),
    "horizon": _Key(_Collector.integer, 200),
    "safety": _Key(_Collector.number, 1.2),
    # any value: the settings' own ``validate`` lists one that is not a known statistic
    "tail_stat": _Key(lambda col, path, val: val, "max"),
}
_OUTPUT = {"dir": _Key(_Collector.text, _UNSET)}


def _name(col: _Collector, path: str, val) -> str:
    # the name becomes the artifact subdirectory, so it may not leave the output directory
    # nor be it: not empty, no path separator, not ``.`` or ``..``
    if not isinstance(val, str) or val in ("", ".", "..") or "/" in val or "\\" in val:
        col.add(path, f"expected a file name without path separators, got {val!r:.40}")
    return val


# The document: its sections in the order they are read, each reader taking
# what it needs from the sections read before it.
_TOP = {
    "name": _Key(_name, itemgetter("stem")),
    "plant": _Key(_plant),
    "scenario": _Key(_scenario, plant=itemgetter("plant")),
    "estimator": _Key(_section(_ESTIMATOR)),
    "observers": _Key(_observers, plant=itemgetter("plant"), bank=lambda c: c["scenario"]["bank"]),
    "isolation": _Key(_isolation, _UNSET, specs=itemgetter("observers"),
                      bank=lambda c: c["scenario"]["bank"],
                      scenario=lambda c: c["scenario"]["scenario"],
                      truth=lambda c: c["estimator"]["init"] == "truth"),
    "calibration": _Key(_section(_CALIBRATION, CalibrationSettings)),
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
    estimator_init, estimator_iss = doc["estimator"].values()
    return ScenarioConfig(
        name=doc["name"],
        **doc["plant"],
        **doc["scenario"],
        specs=doc["observers"],
        estimator_init=estimator_init,
        estimator_iss=estimator_iss,
        isolation=doc["isolation"],
        calibration=replace(doc["calibration"], seed=doc["scenario"]["scenario"].seed + 1),
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

def build_bank(cfg: ScenarioConfig) -> tuple[ObserverBank, dict[SubsetIndex, CertificateResult]]:
    """Construct every observer and certify the gains: the bank and each subset's certificate.

    Each family's error loop e+ = A_cl e + B psi(H e) is certified over its
    channel's slope sector, one :func:`certify_sector` call per loop shape:
    A - K C_J at the fixed Jacobian with no channel (Luenberger, local);
    (L - K C_J) A N, (L - K C_J) e_write, e_read^T N (reduced-order); A + L C_J,
    G, H + K C_J (circle).  Every observer that cannot be built, and every failed
    certificate of a subset not marked ``practical``, is raised as one error.
    """
    observers: dict[SubsetIndex, Observer] = {}
    loops: dict[tuple, dict[SubsetIndex, tuple]] = {}  # by shape: one stack each
    faults: dict[SubsetIndex, list[str]] = {}
    plant, st = cfg.plant, cfg.plant.structure
    sector = (0.0, 0.0) if st is None else st.sector
    no_channel = np.zeros((plant.n, 1)), np.zeros((1, plant.n))  # B and H of a Luenberger loop
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the certificate
        for sub in cfg.bank.all_subsets:
            spec = cfg.specs[sub]
            try:
                if cfg.family == "luenberger":
                    obs = LuenbergerObserver(sub, plant.f, plant.h, spec.K, plant.n, plant.n_d)
                    loop = cfg.lin_A - obs.K @ cfg.lin_C[obs._idx], *no_channel
                elif cfg.family == "reduced":
                    obs = ReducedOrderObserver(sub, st, spec.L, spec.K)
                    loop = (obs.A_L - obs.K @ (obs.C_J @ st.A @ obs.N),
                            (obs.L - obs.K @ obs.C_J)[:, st.write, None], obs.N[None, st.read])
                else:
                    obs = CircleCriterionObserver(sub, st, spec.K, spec.L)
                    loop = obs.A_LC, st.G, obs.H_KC
            except ConfigurationError as exc:
                faults[sub] = exc.problems
                continue
            observers[sub] = obs
            loops.setdefault(loop[0].shape, {})[sub] = loop
        certified = {}
        for group in loops.values():
            A_cl, B, H = map(np.stack, zip(*group.values()))
            certified.update(zip(group, certify_sector(A_cl, B, H, sector)))
    problems: list[str] = []
    for sub in cfg.bank.all_subsets:  # each subset's faults, then its certificate's
        cert = certified.get(sub)
        if cert is None:
            problems += [f"{sub.label}: {msg}" for msg in faults[sub]]
        elif not cert.passed and not cfg.specs[sub].practical:
            problems.append(
                f"{sub.label}: sector certificate failed over slopes [{sector[0]:g}, {sector[1]:g}]"
                f" (spectral radius {cert.spectral_radius:.6g}, margin {cert.margin:.6g}; "
                f"need radius < {1.0 - CERTIFICATE_MARGIN} and margin >= {CERTIFICATE_MARGIN}); "
                "mark the entry practical or redesign the gain")
    if problems:
        raise ConfigurationError(problems)
    return ObserverBank(observers), {sub: certified[sub] for sub in cfg.bank.all_subsets}
