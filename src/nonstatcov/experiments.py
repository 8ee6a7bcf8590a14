"""Experiment kinds: config in, CSV/JSON report out.

``EXPERIMENTS`` is the one table of experiment kinds: each kind's runner,
grid fields, companion models and cross-field rule.  The config reader, the
CLI subcommands and :func:`run_experiment` all read it.

Every runner emits rows in one uniform schema
``(experiment, model_hash, N, kind, i, j, measured, envelope, constant)``
and a list of pass/fail verdicts that are pure functions of those rows.
Reruns with an identical config are byte-identical except for
``metadata.json``: its timestamp, peak memory, BLAS threads and (for
``verify-all``) per-check wall times.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np
import scipy

from . import __version__ as _pkg_version
from . import models as md
from . import operator_core as oc
from . import partial_cov as pc
from . import var_extraction as vx
from . import verification as vf
from .errors import ConfigError, InputError
from .models import SRE, ModelSpec, TvVAR, TvVMA
from .verification import CheckResult

if TYPE_CHECKING:
    from .config import ExperimentConfig

try:
    import resource
except ImportError:  # not on every platform
    resource = None

COLUMNS = ("experiment", "model_hash", "N", "kind", "i", "j",
           "measured", "envelope", "constant")


@dataclass
class Report:
    experiment: str
    metadata: dict
    rows: list
    verdicts: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def table_csv(self) -> str:
        lines = [",".join(COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[c]) for c in COLUMNS))
        return "\r\n".join(lines) + "\r\n"

    def verdicts_json(self) -> str:
        payload = {"all_passed": bool(self.all_passed),
                   "verdicts": [{"name": v.name, "passed": bool(v.passed),
                                 "details": _jsonable(v.details)}
                                for v in self.verdicts]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    text = str(value)
    if any(ch in text for ch in ",\"\r\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def _openblas_libraries(maps: str = "/proc/self/maps") -> dict:
    """The OpenBLAS libraries loaded in this process, opened with ctypes, by
    file name; empty where ``maps`` cannot be read, and a library that
    cannot be opened is left out."""
    try:
        with open(maps, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return {}
    paths = set()
    for line in lines:
        # address, perms, offset, dev, inode and the path, which may hold spaces
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
            paths.add(fields[5])
    libraries = {}
    for path in sorted(paths):
        try:
            libraries[os.path.basename(path)] = ctypes.CDLL(path)
        except OSError:
            continue
    return libraries


def _openblas_function(lib, verb: str):
    """The ``<verb>`` entry point of an OpenBLAS library (``get_num_threads``,
    ``set_num_threads``) under whichever of its builds' names it exports,
    or ``None``."""
    for name in (f"scipy_openblas_{verb}64_", f"openblas_{verb}64_",
                 f"scipy_openblas_{verb}", f"openblas_{verb}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def _blas_threads(maps: str = "/proc/self/maps") -> dict:
    """Threads of each OpenBLAS library loaded in this process, by file
    name; empty where ``maps`` cannot be read, and a library that cannot be
    opened is left out."""
    threads = {}
    for name, lib in _openblas_libraries(maps).items():
        getter = _openblas_function(lib, "get_num_threads")
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            threads[name] = getter()
    return threads


def _finalize(config: ExperimentConfig, rows, verdicts, timings: dict | None = None) -> Report:
    experiment = config.experiment
    model_hash = config.model_hash  # serialises the whole model: once per report
    for i, row in enumerate(rows):
        row.setdefault("experiment", experiment)
        row.setdefault("model_hash", model_hash)
        if set(row) != set(COLUMNS):
            raise InputError(f"report row {i} violates the column schema: {sorted(row)}")
    metadata = {
        "experiment": experiment,
        "config_sha256": config.config_hash,
        "model_hash": model_hash,
        "seed": config.seed,
        "package_version": _pkg_version,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "kolmogorov_convention": "classical log-det identity, unnormalized "
                                 "spectral density (no 1/2pi in f)",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "blas_threads": _blas_threads(),
    }
    if timings is not None:
        metadata["timings"] = timings
    if resource is not None:
        # the process's peak resident memory so far; ru_maxrss counts KiB,
        # or bytes on macOS
        scale = 2.0**20 if sys.platform == "darwin" else 2.0**10
        metadata["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale, 1)
    return Report(experiment=experiment, metadata=metadata, rows=rows,
                  verdicts=verdicts)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(report: Report, out_dir: str) -> dict:
    """Write table/verdicts/metadata files atomically; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "table": os.path.join(out_dir, f"{report.experiment.replace('-', '_')}_table.csv"),
        "verdicts": os.path.join(out_dir, "verdicts.json"),
        "metadata": os.path.join(out_dir, "metadata.json"),
    }
    _atomic_write(paths["table"], report.table_csv())
    _atomic_write(paths["verdicts"], report.verdicts_json())
    _atomic_write(paths["metadata"],
                  json.dumps(report.metadata, indent=2, sort_keys=True) + "\n")
    return paths


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _check(result: CheckResult):
    """The rows of one check, and the check as the only verdict."""
    return result.rows, [result]


def _run_simulate(config: ExperimentConfig):
    n, t_lo, t_hi = config.grid["N"], config.grid["t_lo"], config.grid["t_hi"]
    path = md.simulate_path(config.model, n, t_lo, t_hi, config.seed)
    again = md.simulate_path(config.model, n, t_lo, t_hi, config.seed)
    rows = [vf.table_row("path", int(t), comp, path.data[i, comp], n=n)
            for i, t in enumerate(path.times) for comp in range(path.data.shape[1])]
    deterministic = bool(np.array_equal(path.data, again.data))
    return rows, [CheckResult("deterministic_replay", deterministic, {})]


def _run_decay(config: ExperimentConfig):
    grid = config.grid
    n, t_lo, t_hi = grid["N"], grid["t_lo"], grid["t_hi"]
    lag_norms = md.cov_window(config.model, n, t_lo, t_hi).lag_max_norms()
    try:
        fit = md.assumption_fit(config.model, n, t_lo, t_hi, kappa=grid["kappa"])
    except md.FitError:
        fit = None
    rows = []
    for lag, norm in enumerate(lag_norms):
        shape = float(oc.gu(lag)) ** (-fit.decay.exponent) if fit else 0.0
        const = fit.decay.constant if fit else 0.0
        rows.append(vf.table_row("lag_norm", lag, 0, norm, shape, const, n=n))
    verdicts = []
    degenerate_is_fine = isinstance(config.model, TvVMA) and config.model.order == 0
    if degenerate_is_fine:
        off = float(lag_norms[1:].max(initial=0.0))
        verdicts.append(CheckResult("white_noise_offdiagonal", off <= 1e-12,
                                    {"max_offdiagonal": off}))
    if fit is not None:
        rows.append(vf.table_row("smoothness_constant", t_lo, t_hi,
                            fit.smoothness_constant, 0.0, fit.kappa_used, n=n))
        declared = getattr(config.model, "kappa", None)
        if declared is not None:
            ok = abs(fit.decay.exponent - declared) <= 1.0
            verdicts.append(CheckResult("decay_exponent_window", ok,
                                        {"fitted": fit.decay.exponent,
                                         "declared": declared}))
        verdicts.append(CheckResult("smoothness_constant_finite",
                                    math.isfinite(fit.smoothness_constant),
                                    {"constant": fit.smoothness_constant}))
    elif not degenerate_is_fine:
        verdicts.append(CheckResult("decay_fit_available", False,
                                    {"reason": "fewer than 4 usable lags"}))
    return rows, verdicts


def _run_var(config: ExperimentConfig):
    grid = config.grid
    n, t_index, orders = grid["N"], grid["t"], grid["orders"]
    kappa = (grid["kappa"] if grid["kappa"] is not None
             else getattr(config.model, "kappa", None))
    rows = []
    sigmas = {}
    for d in orders:
        coeffs = vx.var_coeffs_finite(config.model, n, t_index, d)
        sigmas[d] = coeffs.sigma
        for j, phi_norm in enumerate(coeffs.phi_norms(), start=1):
            shape = float(oc.zeta(j)) ** ((kappa - 1.0) if kappa else 1.0)
            rows.append(vf.table_row("phi_norm", d, j, float(phi_norm), shape, n=n))
        rows.append(vf.table_row("sigma_logdet", d, 0,
                            float(np.linalg.slogdet(coeffs.sigma)[1]), n=n))
    ordered = sorted(sigmas)
    worst = 0.0
    for lo, hi in zip(ordered, ordered[1:]):
        slack = float(np.linalg.eigvalsh(sigmas[lo] - sigmas[hi])[0])
        worst = min(worst, slack)
    verdicts = [CheckResult("innovation_variance_nesting", worst >= -1e-9,
                            {"worst_slack": worst})]
    kol = vx.kolmogorov_gap(config.model, n, t_index)
    rows.append(vf.table_row("kolmogorov_gap", t_index, 0, kol.gap, 10.0 / n, n=n))
    verdicts.append(CheckResult("kolmogorov_gap_order", kol.gap <= 10.0 / n,
                                {"lhs": kol.lhs, "rhs": kol.rhs, "gap": kol.gap}))
    return rows, verdicts


def _baxter_verdicts(result: CheckResult):
    """The rows of ``check_baxter``, and its verdict split in two."""
    d = result.details
    window = {k: d[k] for k in ("slope", "slope_window_lo", "slope_window_hi")}
    return result.rows, [
        CheckResult("baxter_sums_decreasing", bool(d["decreasing"]), {"sums": d["sums"]}),
        CheckResult("baxter_slope_window",
                    d["slope_window_lo"] <= d["slope"] <= d["slope_window_hi"], window)]


#: The ``partial`` fields read only by the model's partial-covariance gaps.
PARTIAL_GAP_FIELDS = ("N", "a", "b", "t", "kappa")


def partial_gaps_apply(model: ModelSpec) -> bool:
    """Whether ``partial`` measures the model's partial-covariance gaps:
    only TvVMA and TvVAR models with ``p >= 2`` have them."""
    return isinstance(model, (TvVMA, TvVAR)) and model.p >= 2


def _run_partial(config: ExperimentConfig):
    grid = config.grid
    res = vf.check_partial_oracle(seed=config.seed, count=grid["count"],
                                  p=grid["p"], length=grid["length"])
    rows = list(res.rows)
    verdicts = [res]
    model = config.model
    if partial_gaps_apply(model):
        n, a, b, t = grid["N"], grid["a"], grid["b"], grid["t"]
        rep = pc.partial_smoothness_gap(model, n, a, b, t - 2, t + 2,
                                        kappa=grid["kappa"])
        for (ti, tj), meas, env in zip(rep.pair_gaps.indices,
                                       rep.pair_gaps.measured,
                                       rep.pair_gaps.bound):
            rows.append(vf.table_row("partial_gap", ti, tj, meas, env,
                                rep.pair_gaps.constant_estimate, n=n))
        verdicts.append(CheckResult("partial_gap_constant_finite",
                                    math.isfinite(rep.pair_gaps.constant_estimate),
                                    {"constant": rep.pair_gaps.constant_estimate}))
    return rows, verdicts


def _run_physical(config: ExperimentConfig):
    grid = config.grid
    n, t_index, reps, js = grid["N"], grid["t"], grid["reps"], grid["js"]
    model = config.model
    if isinstance(model, SRE):
        return _check(vf.check_physical_dependence(model, n=n, t_index=t_index, js=js,
                                                   reps=reps, seed=config.seed))
    rows = []
    beyond_ok = True
    memory = md.effective_memory(model)
    for j in js:
        est = md.physical_dep_estimate(model, n, t_index, j, reps=reps,
                                       seed=config.seed + j)
        rows.append(vf.table_row("physical_dep", j, 0, est.value, est.stderr, n=n))
        if isinstance(model, TvVMA) and j > model.order:
            beyond_ok = beyond_ok and est.value <= 3.0 * max(est.stderr, 1e-300)
    return rows, [CheckResult("beyond_memory_null", beyond_ok, {"memory": memory})]


def _run_verify_all(config: ExperimentConfig):
    """Rows and verdicts of the battery, and the wall seconds of each check."""
    from .config import load_config

    results = vf.run_all(model=config.model, names=config.grid["checks"],
                         **config.companions)
    rows = [row for res in results for row in res.rows]
    timings = {res.name: round(res.wall_s, 4) for res in results}
    # byte-level determinism of a table assembly, run twice in process
    start = time.perf_counter()
    sub = load_config({"experiment": "decay", "seed": config.seed,
                       "model": {"reference": "tvvma_kappa4_p2"},
                       "grid": {"N": 100, "t_lo": 30, "t_hi": 70}})
    rep1 = run_experiment(sub)
    rep2 = run_experiment(sub)
    same = rep1.table_csv() == rep2.table_csv()
    verdicts = [*results, CheckResult("determinism", same,
                                      {"bytes": len(rep1.table_csv())})]
    timings["determinism"] = round(time.perf_counter() - start, 4)
    return rows, verdicts, timings


def _closed_form(grid: dict, raw: dict, model: ModelSpec) -> None:
    """Refuse an SRE model, which has no closed-form covariance to read."""
    if isinstance(model, SRE):
        raise ConfigError("this experiment reads the model's closed-form covariance, "
                          "which an sre model does not have", path="/model")


def _coherence_rule(grid: dict, raw: dict, model: ModelSpec) -> None:
    """Coherence measures the model as the other checks measure a ``var_model``."""
    if not partial_gaps_apply(model):
        raise ConfigError("coherence needs a TvVMA or TvVAR model with p >= 2", path="/model")


def _partial_rule(grid: dict, raw: dict, model: ModelSpec) -> None:
    """Refuse a gap field given for a model without partial-covariance gaps."""
    for key in () if partial_gaps_apply(model) else PARTIAL_GAP_FIELDS:
        if key in raw:
            raise ConfigError(f"grid field {key!r} applies only to the partial-covariance "
                              "gaps, which need a TvVMA or TvVAR model with p >= 2; "
                              f"{type(model).__name__} with p = {model.p} runs the "
                              "random oracle alone", path=f"/grid/{key}")


def _physical_rule(grid: dict, raw: dict, model: ModelSpec) -> None:
    if isinstance(model, SRE) and len(set(grid["js"])) < 2:
        raise ConfigError("grid field 'js' needs at least two distinct entries to fit "
                          "a slope on an SRE model", path="/grid/js")


def _verify_all_rule(grid: dict, raw: dict, model: ModelSpec) -> None:
    """Refuse an SRE model when a selected check reads ``model`` (every such
    check reads its closed-form covariance); ``physical_dependence`` alone
    reads only the ``sre_model`` companion."""
    if not isinstance(model, SRE):
        return
    names = grid["checks"]
    reading = [name for name, _, wants in vf.ALL_CHECKS
               if "model" in wants and (names is None or name in names)]
    if reading:
        raise ConfigError(f"the checks {reading} read the model's closed-form "
                          "covariance, which an sre model does not have", path="/model")


# ---------------------------------------------------------------------------
# the table of experiment kinds
# ---------------------------------------------------------------------------

class GridField(NamedTuple):
    """A grid field: ``kind`` is ``"int"`` (not a bool), ``"number"`` (finite),
    ``"ints"`` (a list of at least ``min_len`` integers, strictly increasing
    if ``increasing``) or ``"checks"`` (``verify-all`` check names); ``least``
    bounds the value or each entry and is the smallest the numerics accept.
    A callable default is worked out from the fields before it; a ``None``
    default (also given as ``null``) is left for the runner to fill."""

    kind: str
    default: Any = None
    least: int | None = None
    min_len: int = 1
    increasing: bool = False


class Experiment(NamedTuple):
    """An experiment kind: ``run(config)`` gives ``(rows, verdicts)``, and
    ``verify-all`` also the per-check wall times; ``grid`` maps each field to
    its :class:`GridField` in the order they are checked; ``companions`` maps
    each companion model to its default reference model; ``rule(grid, raw,
    model)`` refuses with :class:`ConfigError` what no one field can check."""

    run: Callable
    grid: dict
    companions: dict = {}
    rule: Callable | None = None


_N = GridField("int", 200, 1)
_HALF_N = GridField("int", lambda grid: grid["N"] // 2)

EXPERIMENTS: dict[str, Experiment] = {
    "simulate": Experiment(_run_simulate, {
        "N": _N, "t_lo": GridField("int", 0),
        "t_hi": GridField("int", lambda grid: grid["t_lo"] + grid["N"] - 1)}),
    "decay": Experiment(_run_decay, {
        "N": _N, "t_lo": GridField("int", 60), "t_hi": GridField("int", 140),
        "kappa": GridField("number")}, rule=_closed_form),
    "invert": Experiment(lambda c: _check(vf.check_inverse_decay(
        c.model, n=c.grid["N"], window=c.grid["window"], pad=c.grid["pad"])), {
        "N": _N, "window": GridField("int", 240, 20), "pad": GridField("int", 60, 0)},
        rule=_closed_form),
    "neumann": Experiment(lambda c: _check(vf.check_neumann_certificates(
        c.model, seed=c.seed, count=c.grid["count"], n=c.grid["N"])), {
        "count": GridField("int", 50, 1), "N": _N}, rule=_closed_form),
    "var": Experiment(_run_var, {
        "N": _N, "t": _HALF_N, "orders": GridField("ints", (1, 2, 4, 8), 0),
        "kappa": GridField("number")}, rule=_closed_form),
    "baxter": Experiment(lambda c: _baxter_verdicts(vf.check_baxter(
        c.model, n=c.grid["N"], t_index=c.grid["t"], orders=c.grid["orders"])), {
        "N": _N, "t": GridField("int", 100),
        "orders": GridField("ints", (5, 10, 20, 40), 1, 2, increasing=True)},
        rule=_closed_form),
    "smoothness": Experiment(lambda c: _check(vf.check_smoothness(
        c.model, c.companions["var_model"], ns=c.grid["Ns"])), {
        "Ns": GridField("ints", (100, 200, 400), 1, 2, increasing=True)},
        companions={"var_model": "tvvar1_p3"}, rule=_closed_form),
    "partial": Experiment(_run_partial, {
        "count": GridField("int", 100, 1), "p": GridField("int", 3, 2),
        "length": GridField("int", 20, 1), "N": _N, "a": GridField("int", 0, 0),
        "b": GridField("int", 1, 0), "t": _HALF_N, "kappa": GridField("number", 4.0)},
        rule=_partial_rule),
    "coherence": Experiment(lambda c: _check(vf.check_coherence(
        var_model=c.model, ns=c.grid["Ns"], u=c.grid["u"], a=c.grid["a"], b=c.grid["b"],
        max_lag=c.grid["max_lag"], omega_points=c.grid["omega_points"])), {
        "a": GridField("int", 0, 0), "b": GridField("int", 1, 0),
        "Ns": GridField("ints", (200, 400), 1, 2, increasing=True),
        "u": GridField("number", 0.3), "max_lag": GridField("int", 40, 0),
        "omega_points": GridField("int", 65, 1)}, rule=_coherence_rule),
    "physical": Experiment(_run_physical, {
        "N": _N, "t": GridField("int", 100), "reps": GridField("int", 5000, 100),
        "js": GridField("ints", tuple(range(1, 9)), 0)}, rule=_physical_rule),
    "verify-all": Experiment(_run_verify_all, {"checks": GridField("checks")},
                             companions={"var_model": "tvvar1_p3", "sre_model": "sre_p2"},
                             rule=_verify_all_rule),
}

EXPERIMENT_KINDS = tuple(EXPERIMENTS)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> Report:
    """Execute one experiment; deterministic given (config, seed).

    Numeric failures inside a check become failed verdicts where the
    runner is structured to continue; hard errors (singular inputs, config
    contradictions) propagate as :class:`NonstatcovError`.

    Every experiment runs serially.  ``threads`` is kept only for callers
    that still pass ``threads=1`` (the benchmark harness); it accepts ``1``
    and refuses any other value with :class:`InputError`, and goes once the
    harness stops passing it.
    """
    if isinstance(threads, bool) or threads != 1:
        raise InputError(f"run_experiment: threads must be 1, got {threads!r}")
    entry = EXPERIMENTS.get(config.experiment)
    if entry is None:
        raise ConfigError(f"unknown experiment {config.experiment!r}",
                          path="/experiment")
    return _finalize(config, *entry.run(config))
