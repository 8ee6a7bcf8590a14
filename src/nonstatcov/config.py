"""JSON experiment configuration: schema validation and model (de)serialization.

Matrices are row-major nested arrays; coefficient functions are tagged
unions keyed on ``form`` and models on ``family``.  ``MODEL_FAMILIES``,
``models.COEFFICIENT_FORMS`` and ``experiments.EXPERIMENTS`` are the schema.
Validation errors carry a JSON-pointer-style path to the offending field.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .errors import ConfigError, InputError
from .experiments import EXPERIMENT_KINDS, EXPERIMENTS, GridField, partial_gaps_apply
from .models import (COEFFICIENT_FORMS, SRE, CoefficientFn, ModelSpec, TvARCH,
                     TvVAR, TvVMA)
from .reference import REFERENCE_BUILDERS, get_reference_model
from .verification import ALL_CHECKS


class ModelField(NamedTuple):
    """The constructor argument ``attr`` and its ``kind``: ``"dim"`` (integer
    >= 1), ``"number"``, ``"matrix"``, ``"fn"`` (a coefficient function) or
    ``"fns"`` (a non-empty list of them).  A ``REQUIRED`` field must be given;
    one whose default is ``None`` may be ``null`` and is then not written."""

    attr: str
    kind: str
    default: Any = None


REQUIRED = object()
_P = ModelField("p", "dim", REQUIRED)

#: family -> (model class, JSON key -> ModelField), the keys in the order
#: they are read and written.
MODEL_FAMILIES: dict[str, tuple[type, dict[str, ModelField]]] = {
    "tv_vma": (TvVMA, {"p": _P, "coefficients": ModelField("psis", "fns", REQUIRED),
                       "kappa": ModelField("kappa", "number"),
                       "n_correction": ModelField("n_correction", "fns")}),
    "tv_var": (TvVAR, {"p": _P, "coefficients": ModelField("phis", "fns", REQUIRED),
                       "innovation_variance": ModelField("sigma", "fn", REQUIRED)}),
    "tv_arch": (TvARCH, {"coefficients": ModelField("coeffs", "fns", REQUIRED)}),
    "sre": (SRE, {"p": _P, "a_scale": ModelField("a_scale", "fn", REQUIRED),
                  "a_noise": ModelField("a_noise", "number", 0.0),
                  "a_matrix": ModelField("a_matrix", "matrix", REQUIRED),
                  "b_scale": ModelField("b_scale", "fn", REQUIRED)}),
}

def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ConfigError(message, path=path)


def _is_int(val: Any) -> bool:
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


def _is_number(val: Any) -> bool:
    """A finite number, not a bool; the bound refuses NaN, infinities and
    integers beyond float range."""
    return (isinstance(val, (int, float, np.integer, np.floating))
            and not isinstance(val, bool) and abs(val) <= sys.float_info.max)


def _number(val: Any, what: str, path: str) -> float:
    _expect(_is_number(val), f"{what} must be a finite number", path)
    return float(val)


def _known_fields(obj: dict, known, owner: str, path: str) -> None:
    for key in obj:
        _expect(key in known, f"unknown field {key!r}; {owner} takes {list(known)}",
                f"{path}/{key}")


def _matrix(obj: Any, path: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=object)
    except ValueError:              # ragged nesting
        raise ConfigError("expected a numeric matrix", path=path) from None
    _expect(arr.ndim == 2 and arr.shape[0] == arr.shape[1],
            f"expected a square matrix, got shape {arr.shape}", path)
    _expect(all(_is_number(x) for x in arr.flat),
            "matrix entries must be finite numbers", path)
    return arr.astype(float)


def coefficient_fn_from_json(obj: Any, path: str) -> CoefficientFn:
    _expect(isinstance(obj, dict), "coefficient function must be an object", path)
    form = obj.get("form")
    _expect(isinstance(form, str) and form in COEFFICIENT_FORMS,
            f"unknown coefficient form {form!r}", f"{path}/form")
    spec = COEFFICIENT_FORMS[form]
    _known_fields(obj, ("form", *spec.arrays, *spec.scalars), f"the {form} form", path)
    if form != "piecewise":
        payload = {key: _matrix(obj.get(key), f"{path}/{key}") for key in spec.arrays}
        for key, default in spec.scalars.items():
            payload[key] = _number(obj.get(key, default), key, f"{path}/{key}")
        return CoefficientFn(form, payload)
    knots = obj.get("knots")
    values = obj.get("values")
    _expect(isinstance(knots, list) and len(knots) >= 2
            and all(_is_number(k) for k in knots),
            "piecewise form needs >= 2 knots, each a finite number", f"{path}/knots")
    _expect(isinstance(values, list), "piecewise values must be a list", f"{path}/values")
    mats = [_matrix(v, f"{path}/values/{i}") for i, v in enumerate(values)]
    for i, m in enumerate(mats):
        _expect(m.shape == mats[0].shape, "piecewise values must share one shape",
                f"{path}/values/{i}")
    try:
        return CoefficientFn("piecewise", {"knots": knots, "values": mats})
    except InputError as exc:
        if exc.key is None:
            raise
        raise ConfigError(str(exc), path=f"{path}/{exc.key}") from None


def coefficient_fn_to_json(fn: CoefficientFn) -> dict:
    return {"form": fn.form, **{key: val.tolist() if isinstance(val, np.ndarray) else val
                                for key, val in fn.payload.items()}}


def model_from_json(obj: Any, path: str = "/model") -> ModelSpec:
    """Build a model from its JSON form.

    Raises:
        ConfigError: at the offending field, or at ``path`` when the parts
            do not fit together (such as coefficient matrices of different
            sizes) and the model constructor refuses them.
    """
    _expect(isinstance(obj, dict), "model must be an object", path)
    if "reference" in obj:
        _known_fields(obj, ("reference",), "a reference model", path)
        name = obj["reference"]
        _expect(isinstance(name, str) and name in REFERENCE_BUILDERS,
                f"unknown reference model {name!r}", f"{path}/reference")
        return get_reference_model(name)
    family = obj.get("family")
    _expect(isinstance(family, str) and family in MODEL_FAMILIES,
            f"unknown family {family!r}", f"{path}/family")
    cls, fields = MODEL_FAMILIES[family]
    _known_fields(obj, ("family", *fields), f"the {family} family", path)
    try:
        return cls(**{fld.attr: _model_value(key, fld, obj.get(key, fld.default),
                                             f"{path}/{key}")
                      for key, fld in fields.items()})
    except InputError as exc:
        raise ConfigError(str(exc), path=path) from None


def _model_value(key: str, fld: ModelField, val: Any, path: str):
    _expect(val is not REQUIRED, f"{key} is required", path)
    if val is None and fld.default is None:
        return None
    if fld.kind == "dim":
        _expect(_is_int(val) and val >= 1, f"{key} must be a positive integer", path)
        return int(val)
    if fld.kind == "number":
        return _number(val, key, path)
    if fld.kind == "matrix":
        return _matrix(val, path)
    if fld.kind == "fn":
        return coefficient_fn_from_json(val, path)
    _expect(isinstance(val, list) and val,
            f"{key} must be a non-empty list of coefficient functions", path)
    return tuple(coefficient_fn_from_json(c, f"{path}/{i}") for i, c in enumerate(val))


def model_to_json(model: ModelSpec) -> dict:
    family, fields = next((family, fields) for family, (cls, fields)
                          in MODEL_FAMILIES.items() if isinstance(model, cls))
    out = {"family": family}
    for key, fld in fields.items():
        val = getattr(model, fld.attr)
        if val is not None:
            out[key] = _WRITERS[fld.kind](val)
    return out


_WRITERS = {"dim": int, "number": lambda x: x, "matrix": np.ndarray.tolist,
            "fn": coefficient_fn_to_json,
            "fns": lambda fns: [coefficient_fn_to_json(f) for f in fns]}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``grid`` holds every grid field of
    the experiment's ``EXPERIMENTS`` entry, checked, with the defaults filled
    in, and ``companions`` every companion model of that entry."""

    experiment: str
    seed: int
    model: ModelSpec
    grid: dict
    companions: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        return config_digest(self.raw)

    @property
    def model_hash(self) -> str:
        return config_digest(model_to_json(self.model))[:12]


def config_digest(obj: Any) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_config(obj_or_path, default_experiment: str | None = None) -> ExperimentConfig:
    """Parse and validate a config from a dict or a file path.

    ``default_experiment`` fills in a missing ``experiment`` field (the CLI
    passes the subcommand); a conflicting explicit field is an error.

    Raises:
        ConfigError: with a JSON-pointer path to the offending field.
    """
    if isinstance(obj_or_path, dict):
        obj = obj_or_path
    else:
        text = None
        try:
            with open(obj_or_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", path="") from None
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", path="") from None
    _expect(isinstance(obj, dict), "config must be a JSON object", "")
    experiment = obj.get("experiment", default_experiment)
    if default_experiment is not None and obj.get("experiment") is not None:
        _expect(obj["experiment"] == default_experiment,
                f"config experiment {obj['experiment']!r} conflicts with the "
                f"{default_experiment!r} subcommand", "/experiment")
    _expect(experiment in EXPERIMENT_KINDS,
            f"experiment must be one of {EXPERIMENT_KINDS}", "/experiment")
    _expect(_is_int(obj.get("seed")) and obj["seed"] >= 0,
            "seed is mandatory and a non-negative integer", "/seed")
    _expect("model" in obj, "model is mandatory", "/model")
    model = model_from_json(obj["model"], "/model")
    grid = obj.get("grid", {})
    _expect(isinstance(grid, dict), "grid must be an object", "/grid")
    grid = _checked_grid(experiment, grid, model)
    raw_companions = obj.get("companions", {})
    _expect(isinstance(raw_companions, dict), "companions must be an object",
            "/companions")
    defaults = EXPERIMENTS[experiment].companions
    _known_fields(raw_companions, defaults, f"the {experiment} companions object",
                  "/companions")
    companions = {key: model_from_json(raw_companions.get(key, {"reference": name}),
                                       f"/companions/{key}")
                  for key, name in defaults.items()}
    # the smoothness and coherence checks measure the partial-covariance
    # gaps of var_model; the physical-dependence check reads the contraction
    # bound of an SRE
    _expect("var_model" not in companions or partial_gaps_apply(companions["var_model"]),
            "the var_model companion must be a TvVMA or TvVAR model with p >= 2",
            "/companions/var_model")
    _expect(isinstance(companions.get("sre_model"), (SRE, type(None))),
            "the sre_model companion must be an sre model", "/companions/sre_model")
    return ExperimentConfig(experiment=experiment, seed=obj["seed"],
                            model=model, grid=grid,
                            companions=companions, raw=obj)


def _grid_value(key: str, spec: GridField, val: Any):
    """``val`` as the field's kind, or ConfigError at ``/grid/<key>``."""
    path = f"/grid/{key}"
    if val is None and spec.default is None:
        return None
    if spec.kind == "int":
        _expect(_is_int(val), f"grid field {key!r} must be an integer", path)
        _expect(spec.least is None or val >= spec.least,
                f"grid field {key!r} must be >= {spec.least}, got {val}", path)
        return int(val)
    if spec.kind == "number":
        return _number(val, f"grid field {key!r}", path)
    if spec.kind == "ints":
        _expect(isinstance(val, (list, tuple)) and len(val) >= spec.min_len
                and all(_is_int(v) for v in val),
                f"grid field {key!r} must be a list of integers "
                f"(at least {spec.min_len})", path)
        _expect(all(v >= spec.least for v in val),
                f"grid field {key!r} entries must be >= {spec.least}", path)
        _expect(not spec.increasing or list(val) == sorted(set(val)),
                f"grid field {key!r} must be strictly increasing", path)
        return tuple(int(v) for v in val)
    known = [name for name, _, _ in ALL_CHECKS]
    _expect(isinstance(val, list) and all(n in known for n in val),
            f"grid field {key!r} must be a list of check names from {known}", path)
    return list(val)


def _checked_grid(experiment: str, raw: dict, model: ModelSpec) -> dict:
    """Every grid field of the experiment's ``EXPERIMENTS`` entry, checked, with
    the defaults filled in, then its rule and the rules that tie fields together."""
    entry = EXPERIMENTS[experiment]
    _known_fields(raw, entry.grid, f"the {experiment} grid", "/grid")
    grid: dict = {}
    for key, spec in entry.grid.items():
        default = spec.default(grid) if callable(spec.default) else spec.default
        grid[key] = _grid_value(key, spec, raw.get(key, default))
    if entry.rule is not None:
        entry.rule(grid, raw, model)
    if "t_hi" in grid:
        _expect(grid["t_hi"] >= grid["t_lo"], f"grid field 't_hi' must be >= "
                f"{grid['t_lo']}, got {grid['t_hi']}", "/grid/t_hi")
    if "a" in grid and model.p >= 2:
        for key in ("a", "b"):
            _expect(grid[key] < model.p, f"grid field {key!r} must be < p = {model.p}, "
                    f"got {grid[key]}", f"/grid/{key}")
        _expect(grid["a"] != grid["b"], f"grid field 'b' must differ from 'a', "
                f"got {grid['b']}", "/grid/b")
    return grid
