"""JSON experiment configuration: schema validation and model (de)serialization.

Matrices are row-major nested arrays; coefficient functions are tagged
unions keyed on ``form``.  Validation errors carry a JSON-pointer-style
path to the offending field.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .errors import ConfigError, InputError
from .models import (SRE, CoefficientFn, ModelSpec, TvARCH, TvVAR, TvVMA)
from .reference import REFERENCE_BUILDERS, get_reference_model
from .verification import ALL_CHECKS


class GridField(NamedTuple):
    """A grid field: ``kind`` is ``"int"`` (not a bool), ``"number"`` (finite),
    ``"ints"`` (a list of at least ``min_len`` integers) or ``"checks"``
    (``verify-all`` check names); ``least`` bounds the value or each entry.
    A callable default is worked out from the fields before it; a ``None``
    default (also given as ``null``) is left for the runner to fill."""

    kind: str
    default: Any = None
    least: int | None = None
    min_len: int = 1


_N = GridField("int", 200, 1)
_HALF_N = GridField("int", lambda grid: grid["N"] // 2)

#: experiment -> field -> GridField, in the order the fields are checked.
#: Each least value is the smallest one the numerics accept.
GRID_FIELDS: dict[str, dict[str, GridField]] = {
    "simulate": {"N": _N, "t_lo": GridField("int", 0),
                 "t_hi": GridField("int", lambda grid: grid["t_lo"] + grid["N"] - 1)},
    "decay": {"N": _N, "t_lo": GridField("int", 60), "t_hi": GridField("int", 140),
              "kappa": GridField("number")},
    "invert": {"N": _N, "window": GridField("int", 240, 20), "pad": GridField("int", 60, 0)},
    "neumann": {"count": GridField("int", 50, 1), "N": _N},
    "var": {"N": _N, "t": _HALF_N, "orders": GridField("ints", (1, 2, 4, 8), 0),
            "kappa": GridField("number")},
    "baxter": {"N": _N, "t": GridField("int", 100),
               "orders": GridField("ints", (5, 10, 20, 40), 1, 2)},
    "smoothness": {"Ns": GridField("ints", (100, 200, 400), 1, 2)},
    "partial": {"count": GridField("int", 100, 1), "p": GridField("int", 3, 2),
                "length": GridField("int", 20, 1), "N": _N, "a": GridField("int", 0, 0),
                "b": GridField("int", 1, 0), "t": _HALF_N, "kappa": GridField("number", 4.0)},
    "coherence": {"a": GridField("int", 0, 0), "b": GridField("int", 1, 0),
                  "Ns": GridField("ints", (200, 400), 1, 2), "u": GridField("number", 0.3),
                  "max_lag": GridField("int", 40, 0), "omega_points": GridField("int", 65, 1)},
    "physical": {"N": _N, "t": GridField("int", 100), "reps": GridField("int", 5000, 100),
                 "js": GridField("ints", tuple(range(1, 9)), 0)},
    "verify-all": {"checks": GridField("checks")},
}

EXPERIMENT_KINDS = tuple(GRID_FIELDS)


def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ConfigError(message, path=path)


def _matrix(obj: Any, path: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("expected a numeric matrix", path=path) from None
    _expect(arr.ndim == 2 and arr.shape[0] == arr.shape[1],
            f"expected a square matrix, got shape {arr.shape}", path)
    _expect(bool(np.all(np.isfinite(arr))), "matrix has non-finite entries", path)
    return arr


def coefficient_fn_from_json(obj: Any, path: str) -> CoefficientFn:
    _expect(isinstance(obj, dict), "coefficient function must be an object", path)
    form = obj.get("form")
    _expect(form in ("constant", "affine", "sinusoidal", "piecewise"),
            f"unknown coefficient form {form!r}", f"{path}/form")
    if form == "constant":
        return CoefficientFn("constant", {"value": _matrix(obj.get("value"), f"{path}/value")})
    if form == "affine":
        return CoefficientFn("affine", {
            "base": _matrix(obj.get("base"), f"{path}/base"),
            "slope": _matrix(obj.get("slope"), f"{path}/slope")})
    if form == "sinusoidal":
        return CoefficientFn("sinusoidal", {
            "base": _matrix(obj.get("base"), f"{path}/base"),
            "amplitude": _matrix(obj.get("amplitude"), f"{path}/amplitude"),
            "frequency": float(obj.get("frequency", 1.0)),
            "phase": float(obj.get("phase", 0.0))})
    knots = obj.get("knots")
    values = obj.get("values")
    _expect(isinstance(knots, list) and len(knots) >= 2,
            "piecewise form needs >= 2 knots", f"{path}/knots")
    _expect(isinstance(values, list) and len(values) == len(knots),
            "piecewise values must match knots", f"{path}/values")
    ks = np.asarray(knots, dtype=float)
    _expect(bool(np.all(np.diff(ks) > 0)), "knots must be strictly increasing",
            f"{path}/knots")
    mats = [_matrix(v, f"{path}/values/{i}") for i, v in enumerate(values)]
    for i, m in enumerate(mats):
        _expect(m.shape == mats[0].shape, "piecewise values must share one shape",
                f"{path}/values/{i}")
    vals = np.stack(mats)
    # a knot gap near the float minimum makes a slope, and so the derivative
    # and the Lipschitz constant, overflow
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(vals, axis=0) / np.diff(ks)[:, None, None]
    _expect(bool(np.all(np.isfinite(slopes))),
            "piecewise segment slopes must be finite", f"{path}/knots")
    return CoefficientFn("piecewise", {"knots": ks, "values": vals})


def coefficient_fn_to_json(fn: CoefficientFn) -> dict:
    p = fn.payload
    if fn.form == "constant":
        return {"form": "constant", "value": np.atleast_2d(p["value"]).tolist()}
    if fn.form == "affine":
        return {"form": "affine", "base": np.atleast_2d(p["base"]).tolist(),
                "slope": np.atleast_2d(p["slope"]).tolist()}
    if fn.form == "sinusoidal":
        return {"form": "sinusoidal",
                "base": np.atleast_2d(p["base"]).tolist(),
                "amplitude": np.atleast_2d(p["amplitude"]).tolist(),
                "frequency": float(p.get("frequency", 1.0)),
                "phase": float(p.get("phase", 0.0))}
    return {"form": "piecewise", "knots": np.asarray(p["knots"]).tolist(),
            "values": np.asarray(p["values"]).tolist()}


def model_from_json(obj: Any, path: str = "/model") -> ModelSpec:
    """Build a model from its JSON form.

    Raises:
        ConfigError: at the offending field, or at ``path`` when the parts
            do not fit together (such as coefficient matrices of different
            sizes) and the model constructor refuses them.
    """
    try:
        return _model_from_json(obj, path)
    except InputError as exc:
        raise ConfigError(str(exc), path=path) from None


def _model_from_json(obj: Any, path: str) -> ModelSpec:
    _expect(isinstance(obj, dict), "model must be an object", path)
    if "reference" in obj:
        name = obj["reference"]
        _expect(name in REFERENCE_BUILDERS,
                f"unknown reference model {name!r}", f"{path}/reference")
        return get_reference_model(name)
    family = obj.get("family")
    _expect(family in ("tv_vma", "tv_var", "tv_arch", "sre"),
            f"unknown family {family!r}", f"{path}/family")
    if family == "tv_vma":
        p = obj.get("p")
        _expect(isinstance(p, int) and p >= 1, "p must be a positive integer",
                f"{path}/p")
        coeffs = obj.get("coefficients")
        _expect(isinstance(coeffs, list) and coeffs,
                "tv_vma needs a nonempty coefficient list", f"{path}/coefficients")
        psis = tuple(coefficient_fn_from_json(c, f"{path}/coefficients/{i}")
                     for i, c in enumerate(coeffs))
        corr = obj.get("n_correction")
        n_corr = None
        if corr is not None:
            _expect(isinstance(corr, list) and len(corr) == len(coeffs),
                    "n_correction must match coefficients", f"{path}/n_correction")
            n_corr = tuple(coefficient_fn_from_json(c, f"{path}/n_correction/{i}")
                           for i, c in enumerate(corr))
        kappa = obj.get("kappa")
        return TvVMA(p=p, psis=psis, kappa=None if kappa is None else float(kappa),
                     n_correction=n_corr)
    if family == "tv_var":
        p = obj.get("p")
        _expect(isinstance(p, int) and p >= 1, "p must be a positive integer",
                f"{path}/p")
        coeffs = obj.get("coefficients")
        _expect(isinstance(coeffs, list) and coeffs,
                "tv_var needs a nonempty coefficient list", f"{path}/coefficients")
        phis = tuple(coefficient_fn_from_json(c, f"{path}/coefficients/{i}")
                     for i, c in enumerate(coeffs))
        _expect("innovation_variance" in obj, "tv_var needs innovation_variance",
                f"{path}/innovation_variance")
        sigma = coefficient_fn_from_json(obj["innovation_variance"],
                                         f"{path}/innovation_variance")
        return TvVAR(p=p, phis=phis, sigma=sigma)
    if family == "tv_arch":
        coeffs = obj.get("coefficients")
        _expect(isinstance(coeffs, list) and coeffs,
                "tv_arch needs a nonempty coefficient list", f"{path}/coefficients")
        return TvARCH(coeffs=tuple(
            coefficient_fn_from_json(c, f"{path}/coefficients/{i}")
            for i, c in enumerate(coeffs)))
    p = obj.get("p")
    _expect(isinstance(p, int) and p >= 1, "p must be a positive integer", f"{path}/p")
    for key in ("a_scale", "a_matrix", "b_scale"):
        _expect(key in obj, f"sre needs {key}", f"{path}/{key}")
    return SRE(p=p,
               a_scale=coefficient_fn_from_json(obj["a_scale"], f"{path}/a_scale"),
               a_noise=float(obj.get("a_noise", 0.0)),
               a_matrix=_matrix(obj["a_matrix"], f"{path}/a_matrix"),
               b_scale=coefficient_fn_from_json(obj["b_scale"], f"{path}/b_scale"))


def model_to_json(model: ModelSpec) -> dict:
    if isinstance(model, TvVMA):
        out = {"family": "tv_vma", "p": model.p,
               "coefficients": [coefficient_fn_to_json(f) for f in model.psis]}
        if model.kappa is not None:
            out["kappa"] = model.kappa
        if model.n_correction is not None:
            out["n_correction"] = [coefficient_fn_to_json(f)
                                   for f in model.n_correction]
        return out
    if isinstance(model, TvVAR):
        return {"family": "tv_var", "p": model.p,
                "coefficients": [coefficient_fn_to_json(f) for f in model.phis],
                "innovation_variance": coefficient_fn_to_json(model.sigma)}
    if isinstance(model, TvARCH):
        return {"family": "tv_arch",
                "coefficients": [coefficient_fn_to_json(f) for f in model.coeffs]}
    return {"family": "sre", "p": model.p,
            "a_scale": coefficient_fn_to_json(model.a_scale),
            "a_noise": model.a_noise,
            "a_matrix": model.a_matrix.tolist(),
            "b_scale": coefficient_fn_to_json(model.b_scale)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``grid`` holds every field of the
    experiment's ``GRID_FIELDS`` entry, checked, with the defaults filled in."""

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
    _expect(isinstance(obj.get("seed"), int), "seed is mandatory and integer",
            "/seed")
    _expect("model" in obj, "model is mandatory", "/model")
    model = model_from_json(obj["model"], "/model")
    grid = obj.get("grid", {})
    _expect(isinstance(grid, dict), "grid must be an object", "/grid")
    grid = _checked_grid(experiment, grid, model)
    companions = {}
    for key, val in obj.get("companions", {}).items():
        companions[key] = model_from_json(val, f"/companions/{key}")
    return ExperimentConfig(experiment=experiment, seed=obj["seed"],
                            model=model, grid=grid,
                            companions=companions, raw=obj)


def _is_int(val: Any) -> bool:
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


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
        # the bound refuses NaN, infinities and integers beyond float range
        _expect(isinstance(val, (int, float, np.integer, np.floating))
                and not isinstance(val, bool) and abs(val) <= sys.float_info.max,
                f"grid field {key!r} must be a finite number", path)
        return float(val)
    if spec.kind == "ints":
        _expect(isinstance(val, (list, tuple)) and len(val) >= spec.min_len
                and all(_is_int(v) for v in val),
                f"grid field {key!r} must be a list of integers "
                f"(at least {spec.min_len})", path)
        _expect(all(v >= spec.least for v in val),
                f"grid field {key!r} entries must be >= {spec.least}", path)
        return tuple(int(v) for v in val)
    known = [name for name, _, _ in ALL_CHECKS]
    _expect(isinstance(val, list) and all(n in known for n in val),
            f"grid field {key!r} must be a list of check names from {known}", path)
    return list(val)


def _checked_grid(experiment: str, raw: dict, model: ModelSpec) -> dict:
    """Every field of the experiment's ``GRID_FIELDS`` entry, checked, with
    the defaults filled in; unknown fields are refused."""
    fields = GRID_FIELDS[experiment]
    for key in raw:
        _expect(key in fields, f"unknown grid field {key!r}; {experiment} "
                f"takes {list(fields)}", f"/grid/{key}")
    grid: dict = {}
    for key, spec in fields.items():
        default = spec.default(grid) if callable(spec.default) else spec.default
        grid[key] = _grid_value(key, spec, raw.get(key, default))
    if "t_hi" in grid:
        _expect(grid["t_hi"] >= grid["t_lo"], f"grid field 't_hi' must be >= "
                f"{grid['t_lo']}, got {grid['t_hi']}", "/grid/t_hi")
    p = getattr(model, "p", 1)
    if experiment == "coherence":
        _expect(p >= 2, "coherence requires a model with p >= 2", "/model")
    if "a" in grid and p >= 2:
        for key in ("a", "b"):
            _expect(grid[key] < p, f"grid field {key!r} must be < p = {p}, "
                    f"got {grid[key]}", f"/grid/{key}")
        _expect(grid["a"] != grid["b"], f"grid field 'b' must differ from 'a', "
                f"got {grid['b']}", "/grid/b")
    if experiment == "baxter":
        _expect(list(grid["orders"]) == sorted(set(grid["orders"])),
                "grid field 'orders' must be strictly increasing", "/grid/orders")
    if experiment == "physical" and isinstance(model, SRE):
        _expect(len(set(grid["js"])) >= 2, "grid field 'js' needs at least two "
                "distinct entries to fit a slope on an SRE model", "/grid/js")
    return grid
