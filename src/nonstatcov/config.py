"""JSON experiment configuration: schema validation and model (de)serialization.

Matrices are row-major nested arrays; coefficient functions are tagged
unions keyed on ``form``.  Validation errors carry a JSON-pointer-style
path to the offending field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError, InputError
from .models import (SRE, CoefficientFn, ModelSpec, TvARCH, TvVAR, TvVMA)
from .reference import REFERENCE_BUILDERS, get_reference_model

EXPERIMENT_KINDS = ("simulate", "decay", "invert", "neumann", "var", "baxter",
                    "smoothness", "partial", "coherence", "physical",
                    "verify-all")


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
    """Validated experiment description."""

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
    companions = {}
    for key, val in obj.get("companions", {}).items():
        companions[key] = model_from_json(val, f"/companions/{key}")
    return ExperimentConfig(experiment=experiment, seed=obj["seed"],
                            model=model, grid=dict(grid),
                            companions=companions, raw=obj)
