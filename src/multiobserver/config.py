"""Scenario configuration: schema, registries, validation, bank building.

Configs are JSON.  Validation is total: ``load_config`` walks the whole
document and raises one :class:`ConfigurationError` carrying *every*
problem found, so a bad config is fixed in one round trip.  Plant
nonlinearities come from a registry of named closures rather than an
expression language.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
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

def _make_sin(params):
    return np.sin


def _make_tanh(params):
    return np.tanh


def _make_identity(params):
    return lambda v: v


# Channelwise nonlinearities for the circle-criterion family.  Each entry
# returns a numpy-vectorized callable applied elementwise to H x + K(...).
CHANNEL_REGISTRY: dict[str, Callable] = {
    "sin": _make_sin,
    "tanh": _make_tanh,
    "identity": _make_identity,
}


def _make_state_channel(transform):
    def build(params):
        constant = np.asarray(params.get("constant", ()), dtype=float)
        gain = float(params.get("gain", 1.0))
        index = int(params["index"]) - 1
        position = int(params["position"]) - 1

        def g(x, u):
            out = constant.copy() if constant.size else np.zeros(len(x))
            out[position] += gain * transform(x[index])
            return out

        return g

    return build


def _make_poly_channel(params):
    coeffs = np.asarray(params["coeffs"], dtype=float)
    constant = np.asarray(params.get("constant", ()), dtype=float)
    index = int(params["index"]) - 1
    position = int(params["position"]) - 1

    def g(x, u):
        out = constant.copy() if constant.size else np.zeros(len(x))
        out[position] += float(np.polyval(coeffs, x[index]))
        return out

    return g


def _make_zero_state(params):
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

class _Collector:
    """Accumulates problems with dotted field paths."""

    def __init__(self):
        self.problems: list[str] = []

    def add(self, path: str, msg: str):
        self.problems.append(f"{path}: {msg}")

    def require(self, obj: dict, path: str, key: str, types, default=None, required=True):
        if key not in obj:
            if required:
                self.add(f"{path}.{key}", "missing")
            return default
        val = obj[key]
        if types is not None and not isinstance(val, types):
            self.add(f"{path}.{key}", f"expected {types}, got {type(val).__name__}")
            return default
        return val


def _matrix(col: _Collector, obj, path: str, shape: tuple[int | None, int | None] | None):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        col.add(path, "not a numeric matrix")
        return None
    if arr.ndim != 2:
        col.add(path, f"expected a 2-D matrix, got ndim={arr.ndim}")
        return None
    if shape is not None:
        rows, cols = shape
        if rows is not None and arr.shape[0] != rows:
            col.add(path, f"expected {rows} rows, got {arr.shape[0]}")
            return None
        if cols is not None and arr.shape[1] != cols:
            col.add(path, f"expected {cols} columns, got {arr.shape[1]}")
            return None
    if not np.all(np.isfinite(arr)):
        col.add(path, "contains non-finite entries")
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
    if kind not in _SIGNAL_KEYS:
        col.add(path, f"unknown signal kind {kind!r}")
        return SignalSpec("zero")
    extra = set(obj) - _SIGNAL_KEYS[kind] - {"kind"}
    if extra:
        col.add(path, f"unexpected keys for {kind} signal: {sorted(extra)}")
    kwargs = {}
    for key in _SIGNAL_KEYS[kind]:
        if key not in obj:
            col.add(path, f"{kind} signal missing {key!r}")
        elif key == "values":
            kwargs[key] = tuple(float(v) for v in obj[key])
        else:
            kwargs[key] = float(obj[key])
    spec = SignalSpec(kind, **kwargs)
    for msg in spec.validate(horizon):
        col.add(path, msg)
    return spec


def _init_spec(col: _Collector, obj, path: str, n: int) -> InitSpec:
    if not isinstance(obj, dict) or obj.get("kind") not in ("fixed", "normal"):
        col.add(path, "expected {kind: fixed|normal, ...}")
        return InitSpec("fixed", value=tuple(0.0 for _ in range(n)))
    if obj["kind"] == "fixed":
        spec = InitSpec("fixed", value=tuple(float(v) for v in obj.get("value", ())))
    else:
        spec = InitSpec(
            "normal",
            mean=tuple(float(v) for v in obj.get("mean", ())),
            std=tuple(float(v) for v in obj.get("std", ())),
        )
    for msg in spec.validate(n):
        col.add(path, msg)
    return spec


def _iss_model(col: _Collector, obj, path: str) -> ISSGainModel | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        col.add(path, "expected an object")
        return None
    known = {"c", "lam", "gamma1", "gamma2", "nu", "k_star"}
    extra = set(obj) - known
    if extra:
        col.add(path, f"unexpected keys {sorted(extra)}")
    try:
        model = ISSGainModel(
            c=float(obj.get("c", 1.0)),
            lam=float(obj.get("lam", 0.5)),
            gamma1=float(obj.get("gamma1", 0.0)),
            gamma2=float(obj.get("gamma2", 0.0)),
            nu=float(obj.get("nu", 0.0)),
            k_star=int(obj.get("k_star", 0)),
        )
    except (TypeError, ValueError):
        col.add(path, "non-numeric convergence model fields")
        return None
    for msg in model.validate():
        col.add(path, msg)
    return model


# --- plant construction ------------------------------------------------------

def _build_plant(col: _Collector, section: dict):
    family = section.get("family")
    if family not in ("luenberger", "reduced", "circle"):
        col.add("plant.family", f"unknown family {family!r}")
        return None, None, None
    D = None
    n_d = 0
    if "D" in section:
        D = _matrix(col, section["D"], "plant.D", None)
        n_d = 0 if D is None else D.shape[1]

    if family == "luenberger":
        dyn = section.get("dynamics")
        if dyn == "example1":
            model, A, C = _example1_plant()
            if D is not None:
                col.add("plant.D", "named plant example1 has no disturbance input")
            return model, A, C
        if dyn == "linear":
            A = _matrix(col, section.get("A"), "plant.A", None)
            if A is None or A.shape[0] != A.shape[1]:
                col.add("plant.A", "expected a square matrix")
                return None, None, None
            n = A.shape[0]
            C = _matrix(col, section.get("C"), "plant.C", (None, n))
            if C is None:
                return None, None, None
            if D is not None and D.shape[0] != n:
                col.add("plant.D", f"expected {n} rows, got {D.shape[0]}")
                return None, None, None
            Dm = D

            def f(x, u, d, k, A=A, Dm=Dm):
                x_next = A @ x
                return x_next if Dm is None else x_next + Dm @ d

            def h(x, u, C=C):
                return C @ x

            model = PlantModel(name="linear", n=n, p=C.shape[0], f=f, h=h, n_d=n_d)
            return model, A, C
        col.add("plant.dynamics", f"unknown named dynamics {dyn!r}")
        return None, None, None

    A = _matrix(col, section.get("A"), "plant.A", None)
    if A is None or A.shape[0] != A.shape[1]:
        col.add("plant.A", "expected a square matrix")
        return None, None, None
    n = A.shape[0]
    C = _matrix(col, section.get("C"), "plant.C", (None, n))
    if C is None:
        return None, None, None
    if D is not None and D.shape[0] != n:
        col.add("plant.D", f"expected {n} rows, got {D.shape[0]}")
        return None, None, None
    nl = section.get("nonlinearity")
    if not isinstance(nl, dict) or "name" not in nl:
        col.add("plant.nonlinearity", "expected {name, params?}")
        return None, None, None
    params = nl.get("params", {})

    if family == "reduced":
        builder = STATE_NONLINEARITY_REGISTRY.get(nl["name"])
        if builder is None:
            col.add(
                "plant.nonlinearity.name",
                f"unknown state nonlinearity {nl['name']!r}; "
                f"known: {sorted(STATE_NONLINEARITY_REGISTRY)}",
            )
            return None, None, None
        try:
            g = builder(params)
            g(np.zeros(n), np.zeros(0))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            col.add("plant.nonlinearity.params", f"invalid for {nl['name']}: {exc}")
            return None, None, None
        structure = ReducedStructure(A=A, C=C, g=g)
        Dm = D

        def f(x, u, d, k, A=A, g=g, Dm=Dm):
            x_next = A @ x + g(x, u)
            return x_next if Dm is None else x_next + Dm @ d

        def h(x, u, C=C):
            return C @ x

        model = PlantModel(
            name=f"reduced[{nl['name']}]", n=n, p=C.shape[0], f=f, h=h,
            n_d=n_d, structure=structure,
        )
        return model, A, C

    # circle family
    G = _matrix(col, section.get("G"), "plant.G", (n, None))
    if G is None:
        return None, None, None
    H = _matrix(col, section.get("H"), "plant.H", (G.shape[1], n))
    if H is None:
        return None, None, None
    builder = CHANNEL_REGISTRY.get(nl["name"])
    if builder is None:
        col.add(
            "plant.nonlinearity.name",
            f"unknown channel nonlinearity {nl['name']!r}; known: {sorted(CHANNEL_REGISTRY)}",
        )
        return None, None, None
    channels = builder(params)
    structure = CircleStructure(A=A, G=G, H=H, C=C, channels=channels)
    Dm = D

    def f(x, u, d, k, A=A, G=G, H=H, channels=channels, Dm=Dm):
        x_next = A @ x + G @ channels(H @ x)
        return x_next if Dm is None else x_next + Dm @ d

    def h(x, u, C=C):
        return C @ x

    model = PlantModel(
        name=f"circle[{nl['name']}]", n=n, p=C.shape[0], f=f, h=h,
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
    if not isinstance(section, dict) or not isinstance(section.get("bundle"), dict):
        col.add("observers.bundle", "missing observer bundle")
        return specs
    bundle = section["bundle"]
    seen = {}
    for label, entry in bundle.items():
        try:
            sub = parse_label(label)
        except ConfigurationError as exc:
            col.add(f"observers.bundle[{label}]", str(exc))
            continue
        seen[sub] = entry
    wanted = set(bank.all_subsets)
    for sub in sorted(wanted - set(seen)):
        col.add("observers.bundle", f"missing observer for {sub.label}")
    for sub in sorted(set(seen) - wanted):
        col.add(
            f"observers.bundle[{sub.label}]",
            f"subset not in the bank for p={bank.p}, q={bank.q}",
        )
    n = plant.n
    r = None
    if isinstance(plant.structure, CircleStructure):
        r = plant.structure.H.shape[0]
    for sub in sorted(wanted & set(seen)):
        entry = seen[sub]
        path = f"observers.bundle[{sub.label}]"
        if not isinstance(entry, dict):
            col.add(path, "expected an object")
            continue
        card = len(sub)
        k_shape, l_shape = _gain_shapes(family, n, card, r, n - card)
        K = L = None
        if family in ("luenberger", "circle") or "K" in entry:
            K = _matrix(col, entry.get("K"), f"{path}.K", k_shape)
        if l_shape is not None:
            L = _matrix(col, entry.get("L"), f"{path}.L", l_shape)
        iss = _iss_model(col, entry.get("iss"), f"{path}.iss")
        practical = bool(entry.get("practical", False))
        extra = set(entry) - {"K", "L", "iss", "practical"}
        if extra:
            col.add(path, f"unexpected keys {sorted(extra)}")
        specs[sub] = ObserverSpec(subset=sub, K=K, L=L, iss=iss, practical=practical)
    return specs


# --- top-level parse ---------------------------------------------------------

def parse_config(raw: dict, path: Path | None = None, sha256: str = "") -> ScenarioConfig:
    """Validate a parsed JSON document; raise with every problem found."""
    col = _Collector()
    if not isinstance(raw, dict):
        raise ConfigurationError(["top level: expected a JSON object"])
    name = raw.get("name") or (path.stem if path else "scenario")
    known_sections = {
        "name", "plant", "scenario", "estimator", "observers",
        "isolation", "calibration", "divergence_ceiling", "output",
    }
    for key in set(raw) - known_sections:
        col.add(key, "unknown section")

    plant_section = col.require(raw, "top level", "plant", dict, default={})
    model, lin_A, lin_C = _build_plant(col, plant_section or {})

    scen = col.require(raw, "top level", "scenario", dict, default={}) or {}
    q = scen.get("q")
    horizon = scen.get("horizon")
    if not isinstance(q, int) or isinstance(q, bool):
        col.add("scenario.q", "expected an integer")
        q = 0
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        col.add("scenario.horizon", "expected an integer")
        horizon = 1
    seed = scen.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        col.add("scenario.seed", "expected an integer")
        seed = 0

    if model is None:
        raise ConfigurationError(col.problems or ["plant: could not be constructed"])
    p, n = model.p, model.n

    bank = None
    if 0 <= 2 * q < p:
        bank = bank_index(p, q)
    else:
        col.add("scenario.q", f"assumption violated: need 0 <= q < p/2, got q={q}, p={p}")

    attacked = frozenset(scen.get("attacked", ()))
    attacks = {}
    for key, obj in (scen.get("attacks") or {}).items():
        try:
            sensor = int(key)
        except (TypeError, ValueError):
            col.add(f"scenario.attacks[{key}]", "key must be a sensor index")
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
        noise_bound=float(scen.get("noise_bound", 0.0)),
        horizon=horizon,
        seed=seed,
        x0=x0,
        disturbance_gens=disturbance,
        disturbance_bound=float(scen.get("disturbance_bound", 0.0)),
    )
    for msg in scenario.validate(model):
        col.add("scenario", msg)

    est = raw.get("estimator") or {}
    init_raw = est.get("init", {"kind": "zero"})
    init_mode = init_raw.get("kind") if isinstance(init_raw, dict) else None
    init_value = None
    if init_mode not in ("zero", "truth", "fixed"):
        col.add("estimator.init.kind", f"expected zero|truth|fixed, got {init_mode!r}")
        init_mode = "zero"
    elif init_mode == "fixed":
        value = init_raw.get("value", ())
        if len(value) != n:
            col.add("estimator.init.value", f"expected {n} entries, got {len(value)}")
            init_value = np.zeros(n)
        else:
            init_value = np.asarray(value, dtype=float)
    estimator_iss = _iss_model(col, est.get("iss"), "estimator.iss")

    specs = {}
    if bank is not None:
        specs = _parse_bundle(col, raw.get("observers"), plant_section.get("family"), bank, model)

    iso = None
    iso_raw = raw.get("isolation")
    if iso_raw is not None:
        if not isinstance(iso_raw, dict):
            col.add("isolation", "expected an object or null")
        else:
            window = iso_raw.get("window")
            if not isinstance(window, int) or isinstance(window, bool) or window < 1:
                col.add("isolation.window", "expected a positive integer")
                window = 1
            eps = float(iso_raw.get("eps", 0.0))
            if eps < 0:
                col.add("isolation.eps", "must be nonnegative")
            k_star = iso_raw.get("k_star")
            if k_star is not None and (not isinstance(k_star, int) or k_star < 0):
                col.add("isolation.k_star", "expected null or a nonnegative integer")
                k_star = None
            m_bar = iso_raw.get("m_bar")
            d_bar = iso_raw.get("d_bar")
            iso = IsolationOptions(
                window=window, eps=eps, k_star=k_star,
                m_bar=None if m_bar is None else float(m_bar),
                d_bar=None if d_bar is None else float(d_bar),
            )
            if bank is not None:
                for sub in sorted(set(specs)):
                    if specs[sub].iss is None:
                        col.add(
                            f"observers.bundle[{sub.label}].iss",
                            "isolation needs a convergence model for every subset "
                            "(run calibrate first)",
                        )

    cal_raw = raw.get("calibration") or {}
    cal_known = {"trials", "horizon", "seed", "safety", "c_safety", "init_scale",
                 "eps_settle", "tail_stat"}
    for key in set(cal_raw) - cal_known:
        col.add(f"calibration.{key}", "unknown field")
    calibration = CalibrationSettings(
        trials=int(cal_raw.get("trials", 30)),
        horizon=int(cal_raw.get("horizon", 200)),
        seed=int(cal_raw.get("seed", seed + 1)),
        safety=float(cal_raw.get("safety", 1.2)),
        c_safety=float(cal_raw.get("c_safety", 1.3)),
        init_scale=float(cal_raw.get("init_scale", 1.0)),
        eps_settle=float(cal_raw.get("eps_settle", 1e-2)),
        tail_stat=str(cal_raw.get("tail_stat", "max")),
    )
    for msg in calibration.validate():
        col.add("calibration", msg)

    ceiling = float(raw.get("divergence_ceiling", 1e12))
    if ceiling <= 0:
        col.add("divergence_ceiling", "must be positive")

    out_dir = (raw.get("output") or {}).get("dir")

    slope_box = None
    if plant_section.get("family") == "circle":
        box = plant_section.get("slope_box")
        if (
            not isinstance(box, (list, tuple))
            or len(box) != 2
            or not float(box[0]) < float(box[1])
        ):
            col.add("plant.slope_box", "circle family needs slope_box [lo, hi] with lo < hi")
        else:
            slope_box = (float(box[0]), float(box[1]))

    if col.problems:
        raise ConfigurationError(col.problems)
    return ScenarioConfig(
        name=str(name),
        family=plant_section["family"],
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
