"""Scenario configuration: schema, registries, validation, bank building.

Configs are JSON.  Validation is total: ``load_config`` walks the whole
document and raises one :class:`ConfigurationError` carrying *every*
problem found, so a bad config is fixed in one round trip.  Every JSON
leaf is read through one of the typed readers of ``_Collector``, so a
malformed value becomes a listed problem, never a Python exception.
Plant nonlinearities come from a registry of named closures rather than
an expression language.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .combinatorics import BankIndex, SubsetIndex, bank_index, parse_label
from .calibration import CalibrationSettings
from .errors import ConfigurationError
from .model import (
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
    SlopeCheckResult,
    build_reduced_observer,
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


# --- nonlinearity registries -------------------------------------------------

# Channelwise nonlinearities for the circle-criterion family: numpy-vectorized
# callables applied elementwise to H x + K(...).  They take no params.
CHANNEL_REGISTRY: dict[str, Callable] = {
    "sin": np.sin,
    "tanh": np.tanh,
    "identity": lambda v: v,
}

# A state-nonlinearity builder is called as builder(col, params, n): it reads
# its ``params`` object through the collector's readers, for state dimension n.
_PARAMS = "plant.nonlinearity.params"


def _channel_params(col, params, n, own: str):
    """The constant term and the 0-based (index, position) of a state channel.

    ``own`` is the one further param the channel reads; any other key is listed.
    """
    col.known(_PARAMS, params, ("constant", "index", "position", own))
    constant = np.zeros(n)
    if "constant" in params:
        constant = np.array(col.vector(f"{_PARAMS}.constant", params["constant"], n))
    index = col.integer(f"{_PARAMS}.index", params.get("index"), 1, n, default=1) - 1
    position = col.integer(f"{_PARAMS}.position", params.get("position"), 1, n, default=1) - 1
    return constant, index, position


def _make_state_channel(transform):
    def build(col, params, n):
        constant, index, position = _channel_params(col, params, n, "gain")
        gain = col.number(f"{_PARAMS}.gain", params.get("gain", 1.0))

        def g(x, u):
            out = constant.copy()
            out[position] += gain * transform(x[index])
            return out

        return g

    return build


def _make_poly_channel(col, params, n):
    constant, index, position = _channel_params(col, params, n, "coeffs")
    coeffs = np.array(col.vector(f"{_PARAMS}.coeffs", params.get("coeffs")))

    def g(x, u):
        out = constant.copy()
        out[position] += float(np.polyval(coeffs, x[index]))
        return out

    return g


def _make_zero_state(col, params, n):
    col.known(_PARAMS, params, ())

    def g(x, u):
        return np.zeros(len(x))

    return g


# Additive state nonlinearities g(x, u) for the reduced-order family.
STATE_NONLINEARITY_REGISTRY: dict[str, Callable] = {
    "tanh_channel": _make_state_channel(np.tanh),
    "sin_channel": _make_state_channel(np.sin),
    "poly_channel": _make_poly_channel,
    "zero": _make_zero_state,
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
    window: int
    eps: float = 0.0
    k_star: int | None = None
    m_bar: float | None = None
    d_bar: float | None = None


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


# --- parsing helpers ---------------------------------------------------------

_FLOAT_MAX = sys.float_info.max


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

    def section(self, path: str, val, default):
        """A JSON object; an absent (null) one gives ``default``."""
        if val is None:
            return default
        if not isinstance(val, dict):
            self.add(path, f"expected an object, got {type(val).__name__}")
            return default
        return val

    def known(self, path: str, obj: dict, keys) -> None:
        """List every key of the object ``obj`` outside ``keys`` as an unknown field."""
        for key in sorted(set(obj) - set(keys), key=str):
            self.add(f"{path}.{key}", "unknown field")

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
        if not np.isfinite(arr).all():
            self.add(path, "contains non-finite entries")
            return None
        return arr


_SIGNAL_KEYS = {
    "zero": set(),
    "constant": {"value"},
    "uniform": {"low", "high"},
    "normal": {"mean", "std"},
    "table": {"values"},
}


def _signal(col: _Collector, obj, path: str, horizon: int | None) -> SignalSpec:
    if not isinstance(obj, dict):
        col.add(path, f"expected an object, got {type(obj).__name__}")
        return SignalSpec("zero")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _SIGNAL_KEYS:
        col.add(path, f"unknown signal kind {kind!r:.40}")
        return SignalSpec("zero")
    extra = set(obj) - _SIGNAL_KEYS[kind] - {"kind"}
    if extra:
        col.add(path, f"unexpected keys for {kind} signal: {sorted(extra)}")
    kwargs = {}
    for key in _SIGNAL_KEYS[kind]:
        if key not in obj:
            col.add(path, f"{kind} signal missing {key!r}")
        elif key == "values":
            kwargs[key] = col.vector(f"{path}.values", obj[key])
        else:
            kwargs[key] = col.number(f"{path}.{key}", obj[key])
    spec = SignalSpec(kind, **kwargs)
    for msg in spec.validate(horizon):
        col.add(path, msg)
    return spec


def _init_spec(col: _Collector, obj, path: str, n: int) -> InitSpec:
    if not isinstance(obj, dict) or obj.get("kind") not in ("fixed", "normal"):
        col.add(path, "expected {kind: fixed|normal, ...}")
        return InitSpec("fixed", value=(0.0,) * n)
    if obj["kind"] == "fixed":
        col.known(path, obj, ("kind", "value"))
        spec = InitSpec("fixed", value=col.vector(f"{path}.value", obj.get("value"), n))
    else:
        col.known(path, obj, ("kind", "mean", "std"))
        spec = InitSpec(
            "normal",
            mean=col.vector(f"{path}.mean", obj.get("mean"), n),
            std=col.vector(f"{path}.std", obj.get("std"), n),
        )
    for msg in spec.validate(n):
        col.add(path, msg)
    return spec


_ISS_KEYS = {"c", "lam", "gamma1", "gamma2", "nu", "k_star"}


def _iss_model(col: _Collector, obj, path: str) -> ISSGainModel | None:
    obj = col.section(path, obj, None)
    if obj is None:
        return None
    extra = set(obj) - _ISS_KEYS
    if extra:
        col.add(path, f"unexpected keys {sorted(extra)}")
    model = ISSGainModel(
        c=col.number(f"{path}.c", obj.get("c", 1.0), default=1.0),
        lam=col.number(f"{path}.lam", obj.get("lam", 0.5), default=0.5),
        gamma1=col.number(f"{path}.gamma1", obj.get("gamma1", 0.0)),
        gamma2=col.number(f"{path}.gamma2", obj.get("gamma2", 0.0)),
        nu=col.number(f"{path}.nu", obj.get("nu", 0.0)),
        k_star=col.integer(f"{path}.k_star", obj.get("k_star", 0)),
    )
    for msg in model.validate():
        col.add(path, msg)
    return model


# --- plant construction ------------------------------------------------------

_PLANT_KEYS = {
    "luenberger": {"family", "dynamics", "A", "C", "D"},
    "reduced": {"family", "A", "C", "D", "nonlinearity"},
    "circle": {"family", "A", "C", "D", "nonlinearity", "G", "H", "slope_box"},
}


def _build_plant(col: _Collector, section: dict):
    family = section.get("family")
    if not isinstance(family, str) or family not in _PLANT_KEYS:
        col.add("plant.family", f"unknown family {family!r:.40}")
        return None, None, None
    col.known("plant", section, _PLANT_KEYS[family])
    if family == "luenberger":
        dyn = section.get("dynamics")
        if dyn == "example1":
            if "D" in section:
                col.add("plant.D", "named plant example1 has no disturbance input")
            return _example1_plant()
        if dyn != "linear":
            col.add("plant.dynamics", f"unknown named dynamics {dyn!r:.40}")
            return None, None, None

    A = col.matrix("plant.A", section.get("A"))
    if A is None or A.shape[0] != A.shape[1]:
        col.add("plant.A", "expected a square matrix")
        return None, None, None
    n = A.shape[0]
    C = col.matrix("plant.C", section.get("C"), (None, n))
    D = col.matrix("plant.D", section["D"], (n, None)) if "D" in section else None
    if C is None or (D is None and "D" in section):
        return None, None, None
    n_d = 0 if D is None else D.shape[1]

    def h(x, u, C=C):
        return C @ x

    if family == "luenberger":

        def f(x, u, d, k, A=A, Dm=D):
            x_next = A @ x
            return x_next if Dm is None else x_next + Dm @ d

        model = PlantModel(name="linear", n=n, p=C.shape[0], f=f, h=h, n_d=n_d)
        return model, A, C

    nl = section.get("nonlinearity")
    if not isinstance(nl, dict) or not isinstance(nl.get("name"), str):
        col.add("plant.nonlinearity", "expected {name, params?}")
        return None, None, None
    col.known("plant.nonlinearity", nl, ("name", "params"))
    params = col.section(_PARAMS, nl.get("params"), {})
    registry = STATE_NONLINEARITY_REGISTRY if family == "reduced" else CHANNEL_REGISTRY
    nonlinearity = registry.get(nl["name"])
    if nonlinearity is None:
        kind = "state" if family == "reduced" else "channel"
        col.add(
            "plant.nonlinearity.name",
            f"unknown {kind} nonlinearity {nl['name']!r}; known: {sorted(registry)}",
        )
        return None, None, None

    if family == "reduced":
        g = nonlinearity(col, params, n)
        structure = ReducedStructure(A=A, C=C, g=g)

        def f(x, u, d, k, A=A, g=g, Dm=D):
            x_next = A @ x + g(x, u)
            return x_next if Dm is None else x_next + Dm @ d

    else:
        col.known(_PARAMS, params, ())  # circle channels take no params
        G = col.matrix("plant.G", section.get("G"), (n, None))
        if G is None:
            return None, None, None
        H = col.matrix("plant.H", section.get("H"), (G.shape[1], n))
        if H is None:
            return None, None, None
        channels = nonlinearity
        structure = CircleStructure(A=A, G=G, H=H, C=C, channels=channels)

        def f(x, u, d, k, A=A, G=G, H=H, channels=channels, Dm=D):
            x_next = A @ x + G @ channels(H @ x)
            return x_next if Dm is None else x_next + Dm @ d

    model = PlantModel(
        name=f"{family}[{nl['name']}]", n=n, p=C.shape[0], f=f, h=h,
        n_d=n_d, structure=structure,
    )
    return model, A, C


# --- bundle parsing ----------------------------------------------------------

def _gain_shapes(family: str, n: int, card: int, r: int | None, nz: int):
    """Expected (K shape, L shape) per family; None marks an absent gain."""
    if family == "luenberger":
        return (n, card), None
    if family == "reduced":
        return (nz, card), (nz, n)
    return (r, card), (n, card)


def _parse_bundle(col: _Collector, section, family: str, bank: BankIndex, plant: PlantModel):
    specs: dict[SubsetIndex, ObserverSpec] = {}
    observers = col.section("observers", section, {})
    bundle = col.section("observers.bundle", observers.get("bundle"), {})
    seen = {}
    for label, entry in bundle.items():
        try:
            sub = parse_label(label)
        except ConfigurationError as exc:
            col.add(f"observers.bundle[{label}]", str(exc))
            continue
        seen[sub] = entry
    for sub in sorted(set(seen) - set(bank.all_subsets)):
        col.add(
            f"observers.bundle[{sub.label}]",
            f"subset not in the bank for p={bank.p}, q={bank.q}",
        )
    n = plant.n
    r = None
    if isinstance(plant.structure, CircleStructure):
        r = plant.structure.H.shape[0]
    for sub in bank.all_subsets:  # canonical order, so specs come out sorted
        if sub not in seen:
            col.add("observers.bundle", f"missing observer for {sub.label}")
            continue
        entry = seen[sub]
        path = f"observers.bundle[{sub.label}]"
        if not isinstance(entry, dict):
            col.add(path, "expected an object")
            continue
        card = len(sub)
        k_shape, l_shape = _gain_shapes(family, n, card, r, n - card)
        K = L = None
        if family in ("luenberger", "circle") or "K" in entry:
            K = col.matrix(f"{path}.K", entry.get("K"), k_shape)
        if l_shape is not None:
            L = col.matrix(f"{path}.L", entry.get("L"), l_shape)
        iss = _iss_model(col, entry.get("iss"), f"{path}.iss")
        practical = entry.get("practical", False)
        if not isinstance(practical, bool):
            col.add(f"{path}.practical", f"expected true or false, got {practical!r:.40}")
        extra = set(entry) - {"K", "L", "iss", "practical"}
        if extra:
            col.add(path, f"unexpected keys {sorted(extra)}")
        specs[sub] = ObserverSpec(subset=sub, K=K, L=L, iss=iss, practical=practical)
    return specs


# --- top-level parse ---------------------------------------------------------

_SECTIONS = {
    "name", "plant", "scenario", "estimator", "observers",
    "isolation", "calibration", "divergence_ceiling", "output",
}
_SCENARIO_KEYS = {
    "q", "horizon", "seed", "attacked", "attacks", "noise", "noise_bound",
    "disturbance", "disturbance_bound", "x0",
}
_ISOLATION_KEYS = {f.name for f in fields(IsolationOptions)}
_CALIBRATION_KEYS = {f.name for f in fields(CalibrationSettings)}


def parse_config(raw: dict, path: Path | None = None, sha256: str = "") -> ScenarioConfig:
    """Validate a parsed JSON document; raise with every problem found."""
    col = _Collector()
    if not isinstance(raw, dict):
        raise ConfigurationError(["top level: expected a JSON object"])
    name = raw.get("name") or (path.stem if path else "scenario")
    # the name becomes the artifact subdirectory, so it may not leave the output directory
    if not isinstance(name, str) or name in (".", "..") or "/" in name or "\\" in name:
        col.add("name", f"expected a file name without path separators, got {name!r:.40}")
    for key in set(raw) - _SECTIONS:
        col.add(key, "unknown section")

    plant_section = col.section("plant", raw.get("plant"), {})
    model, lin_A, lin_C = _build_plant(col, plant_section)
    family = plant_section.get("family")

    scen = col.section("scenario", raw.get("scenario"), {})
    col.known("scenario", scen, _SCENARIO_KEYS)
    q = col.integer("scenario.q", scen.get("q"))
    horizon = col.integer("scenario.horizon", scen.get("horizon"), default=1)
    seed = col.integer("scenario.seed", scen.get("seed", 0))

    if model is None:
        raise ConfigurationError(col.problems or ["plant: could not be constructed"])
    p, n = model.p, model.n

    bank = None
    if 0 <= 2 * q < p:
        bank = bank_index(p, q)
    else:
        col.add("scenario.q", f"assumption violated: need 0 <= q < p/2, got q={q}, p={p}")

    attacked = col.sensors("scenario.attacked", scen.get("attacked", []), p)
    attacks = {}
    for key, obj in col.section("scenario.attacks", scen.get("attacks"), {}).items():
        sensor = int(key) if key.isdecimal() else 0
        if not 1 <= sensor <= p:
            col.add(f"scenario.attacks[{key}]", f"key must be a sensor index in 1..{p}")
            continue
        attacks[sensor] = _signal(col, obj, f"scenario.attacks[{key}]", horizon)

    noise_raw = scen.get("noise", {"kind": "zero"})
    if isinstance(noise_raw, list):
        if len(noise_raw) != p:
            col.add("scenario.noise", f"expected {p} per-sensor entries, got {len(noise_raw)}")
        noise = tuple(
            _signal(col, obj, f"scenario.noise[{i}]", horizon)
            for i, obj in enumerate(noise_raw, start=1)
        )
        if len(noise) != p:
            noise = tuple(SignalSpec("zero") for _ in range(p))
    else:
        one = _signal(col, noise_raw, "scenario.noise", horizon)
        noise = tuple(one for _ in range(p))

    dist_raw = scen.get("disturbance", [])
    if not isinstance(dist_raw, list):
        col.add("scenario.disturbance", f"expected a list of signals, got {dist_raw!r:.40}")
        dist_raw = []
    disturbance = tuple(
        _signal(col, obj, f"scenario.disturbance[{j}]", horizon)
        for j, obj in enumerate(dist_raw, start=1)
    )

    x0 = _init_spec(col, scen.get("x0"), "scenario.x0", n)
    scenario = AttackScenario(
        p=p,
        q=q,
        attacked=attacked,
        attack_gens=attacks,
        noise_gens=noise,
        noise_bound=col.number("scenario.noise_bound", scen.get("noise_bound", 0.0), lo=0.0),
        horizon=horizon,
        seed=seed,
        x0=x0,
        disturbance_gens=disturbance,
        disturbance_bound=col.number(
            "scenario.disturbance_bound", scen.get("disturbance_bound", 0.0), lo=0.0
        ),
    )
    for msg in scenario.validate(model):
        col.add("scenario", msg)

    est = col.section("estimator", raw.get("estimator"), {})
    col.known("estimator", est, ("init", "iss"))
    init_raw = col.section("estimator.init", est.get("init"), {"kind": "zero"})
    init_mode = init_raw.get("kind")
    col.known("estimator.init", init_raw, ("kind", "value") if init_mode == "fixed" else ("kind",))
    init_value = None
    if init_mode not in ("zero", "truth", "fixed"):
        col.add("estimator.init.kind", f"expected zero|truth|fixed, got {init_mode!r:.40}")
        init_mode = "zero"
    elif init_mode == "fixed":
        init_value = np.array(col.vector("estimator.init.value", init_raw.get("value"), n))
    estimator_iss = _iss_model(col, est.get("iss"), "estimator.iss")

    specs = {}
    if bank is not None:
        specs = _parse_bundle(col, raw.get("observers"), family, bank, model)

    iso = None
    iso_raw = col.section("isolation", raw.get("isolation"), None)
    if iso_raw is not None:
        col.known("isolation", iso_raw, _ISOLATION_KEYS)
        k_star, m_bar, d_bar = (iso_raw.get(key) for key in ("k_star", "m_bar", "d_bar"))
        iso = IsolationOptions(
            window=col.integer("isolation.window", iso_raw.get("window"), lo=1, default=1),
            eps=col.number("isolation.eps", iso_raw.get("eps", 0.0), lo=0.0),
            k_star=None if k_star is None else col.integer("isolation.k_star", k_star, lo=0),
            m_bar=None if m_bar is None else col.number("isolation.m_bar", m_bar, lo=0.0),
            d_bar=None if d_bar is None else col.number("isolation.d_bar", d_bar, lo=0.0),
        )
        for sub, spec in specs.items():
            if spec.iss is None:
                col.add(
                    f"observers.bundle[{sub.label}].iss",
                    "isolation needs a convergence model for every subset (run calibrate first)",
                )

    cal_raw = col.section("calibration", raw.get("calibration"), {})
    col.known("calibration", cal_raw, _CALIBRATION_KEYS)

    def cal(read, key, default):
        return read(f"calibration.{key}", cal_raw.get(key, default), default=default)

    calibration = CalibrationSettings(
        trials=cal(col.integer, "trials", 30),
        horizon=cal(col.integer, "horizon", 200),
        seed=cal(col.integer, "seed", seed + 1),
        safety=cal(col.number, "safety", 1.2),
        c_safety=cal(col.number, "c_safety", 1.3),
        init_scale=cal(col.number, "init_scale", 1.0),
        eps_settle=cal(col.number, "eps_settle", 1e-2),
        tail_stat=cal_raw.get("tail_stat", "max"),
    )
    for msg in calibration.validate():
        col.add("calibration", msg)

    ceiling = col.number("divergence_ceiling", raw.get("divergence_ceiling", 1e12), default=1e12)
    if ceiling <= 0:
        col.add("divergence_ceiling", "must be positive")

    output = col.section("output", raw.get("output"), {})
    col.known("output", output, ("dir",))
    out_dir = output.get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        col.add("output.dir", f"expected a string, got {out_dir!r:.40}")

    slope_box = None
    if family == "circle":
        box = col.vector("plant.slope_box", plant_section.get("slope_box"), 2)
        if box[0] < box[1]:
            slope_box = box
        else:
            col.add("plant.slope_box", "circle family needs slope_box [lo, hi] with lo < hi")

    if col.problems:
        raise ConfigurationError(col.problems)
    return ScenarioConfig(
        name=name,
        family=family,
        plant=model,
        bank=bank,
        specs=specs,
        scenario=scenario,
        estimator_init=init_mode,
        estimator_init_value=init_value,
        estimator_iss=estimator_iss,
        isolation=iso,
        calibration=calibration,
        ceiling=ceiling,
        out_dir=out_dir,
        path=path,
        sha256=sha256,
        raw=raw,
        lin_A=lin_A,
        lin_C=lin_C,
        slope_box=slope_box,
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
                obs = LuenbergerObserver(
                    sub, plant.f, plant.h, spec.K, plant.n, plant.n_d, iss=spec.iss
                )
                cert = certify_linear_gain(cfg.lin_A, cfg.lin_C[idx], spec.K, "luenberger")
            elif cfg.family == "reduced":
                obs = build_reduced_observer(
                    plant.structure, sub, spec.L,
                    spec.K if spec.K is not None else None, iss=spec.iss,
                )
                c_eq = obs.C_J @ plant.structure.A @ obs.N
                cert = certify_linear_gain(obs.A_L, c_eq, obs.K, "reduced")
            else:
                obs = CircleCriterionObserver(
                    sub, plant.structure, spec.K, spec.L, iss=spec.iss
                )
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
