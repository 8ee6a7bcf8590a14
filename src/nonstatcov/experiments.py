"""Experiment runners: config in, CSV/JSON report out.

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

import numpy as np
import scipy

from . import __version__ as _pkg_version
from . import models as md
from . import operator_core as oc
from . import partial_cov as pc
from . import var_extraction as vx
from . import verification as vf
from .config import ExperimentConfig, load_config, partial_gaps_apply
from .errors import ConfigError, InputError
from .models import SRE, TvVMA

try:
    import resource
except ImportError:  # not on every platform
    resource = None

COLUMNS = ("experiment", "model_hash", "N", "kind", "i", "j",
           "measured", "envelope", "constant")


@dataclass
class Verdict:
    name: str
    passed: bool
    details: dict


@dataclass
class Report:
    experiment: str
    metadata: dict
    rows: list
    verdicts: list

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


def _check_schema(rows) -> None:
    for i, row in enumerate(rows):
        if set(row) != set(COLUMNS):
            raise InputError(f"report row {i} violates the column schema: "
                             f"{sorted(row)}")


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


def _finalize(experiment: str, config: ExperimentConfig, rows, verdicts,
              timings: dict | None = None) -> Report:
    model_hash = config.model_hash  # serialises the whole model: once per report
    for row in rows:
        row.setdefault("experiment", experiment)
        row.setdefault("model_hash", model_hash)
    _check_schema(rows)
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

def _run_simulate(config: ExperimentConfig):
    n, t_lo, t_hi = config.grid["N"], config.grid["t_lo"], config.grid["t_hi"]
    path = md.simulate_path(config.model, n, t_lo, t_hi, config.seed)
    again = md.simulate_path(config.model, n, t_lo, t_hi, config.seed)
    rows = []
    for i, t in enumerate(path.times):
        for comp in range(path.data.shape[1]):
            rows.append(vf.table_row("path", int(t), comp, path.data[i, comp], n=n))
    deterministic = bool(np.array_equal(path.data, again.data))
    return rows, [Verdict("deterministic_replay", deterministic, {})]


def _run_decay(config: ExperimentConfig):
    grid = config.grid
    n, t_lo, t_hi = grid["N"], grid["t_lo"], grid["t_hi"]
    w = md.cov_window(config.model, n, t_lo, t_hi)
    lag_norms = w.lag_max_norms()
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
    order = getattr(config.model, "order", None)
    degenerate_is_fine = isinstance(config.model, TvVMA) and order == 0
    if degenerate_is_fine:
        off = float(lag_norms[1:].max(initial=0.0))
        verdicts.append(Verdict("white_noise_offdiagonal", off <= 1e-12,
                                {"max_offdiagonal": off}))
    if fit is not None:
        rows.append(vf.table_row("smoothness_constant", t_lo, t_hi,
                            fit.smoothness_constant, 0.0, fit.kappa_used, n=n))
        declared = getattr(config.model, "kappa", None)
        if declared is not None:
            ok = abs(fit.decay.exponent - declared) <= 1.0
            verdicts.append(Verdict("decay_exponent_window", ok,
                                    {"fitted": fit.decay.exponent,
                                     "declared": declared}))
        verdicts.append(Verdict("smoothness_constant_finite",
                                math.isfinite(fit.smoothness_constant),
                                {"constant": fit.smoothness_constant}))
    elif not degenerate_is_fine:
        verdicts.append(Verdict("decay_fit_available", False,
                                {"reason": "fewer than 4 usable lags"}))
    return rows, verdicts


def _run_invert(config: ExperimentConfig):
    n, window, pad = config.grid["N"], config.grid["window"], config.grid["pad"]
    res = vf.check_inverse_decay(config.model, n=n, window=window, pad=pad)
    return res.rows, [Verdict(res.name, res.passed, res.details)]


def _run_neumann(config: ExperimentConfig):
    res = vf.check_neumann_certificates(config.model, seed=config.seed,
                                        count=config.grid["count"], n=config.grid["N"])
    return res.rows, [Verdict(res.name, res.passed, res.details)]


def _run_var(config: ExperimentConfig):
    grid = config.grid
    n, t_index, orders = grid["N"], grid["t"], grid["orders"]
    kappa = grid["kappa"]
    if kappa is None:
        kappa = getattr(config.model, "kappa", None)
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
    verdicts = [Verdict("innovation_variance_nesting", worst >= -1e-9,
                        {"worst_slack": worst})]
    kol = vx.kolmogorov_gap(config.model, n, t_index)
    rows.append(vf.table_row("kolmogorov_gap", t_index, 0, kol.gap, 10.0 / n, n=n))
    verdicts.append(Verdict("kolmogorov_gap_order", kol.gap <= 10.0 / n,
                            {"lhs": kol.lhs, "rhs": kol.rhs, "gap": kol.gap}))
    return rows, verdicts


def _run_baxter(config: ExperimentConfig):
    res = vf.check_baxter(config.model, n=config.grid["N"], t_index=config.grid["t"],
                          orders=config.grid["orders"])
    return res.rows, [
        Verdict("baxter_sums_decreasing", bool(res.details["decreasing"]),
                {"sums": res.details["sums"]}),
        Verdict("baxter_slope_window",
                res.details["slope_window_lo"] <= res.details["slope"]
                <= res.details["slope_window_hi"],
                {k: res.details[k] for k in
                 ("slope", "slope_window_lo", "slope_window_hi")}),
    ]


def _run_smoothness(config: ExperimentConfig):
    res = vf.check_smoothness(config.model, config.companions["var_model"],
                              ns=config.grid["Ns"])
    return res.rows, [Verdict(res.name, res.passed, res.details)]


def _run_partial(config: ExperimentConfig):
    grid = config.grid
    res = vf.check_partial_oracle(seed=config.seed, count=grid["count"],
                                  p=grid["p"], length=grid["length"])
    rows = list(res.rows)
    verdicts = [Verdict(res.name, res.passed, res.details)]
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
        verdicts.append(Verdict("partial_gap_constant_finite",
                                math.isfinite(rep.pair_gaps.constant_estimate),
                                {"constant": rep.pair_gaps.constant_estimate}))
    return rows, verdicts


def _run_coherence(config: ExperimentConfig):
    grid = config.grid
    res = vf.check_coherence(var_model=config.model, ns=grid["Ns"], u=grid["u"],
                             a=grid["a"], b=grid["b"], max_lag=grid["max_lag"],
                             omega_points=grid["omega_points"])
    return res.rows, [Verdict(res.name, res.passed, res.details)]


def _run_physical(config: ExperimentConfig):
    grid = config.grid
    n, t_index, reps, js = grid["N"], grid["t"], grid["reps"], grid["js"]
    model = config.model
    if isinstance(model, SRE):
        res = vf.check_physical_dependence(model, n=n, t_index=t_index,
                                           js=js, reps=reps, seed=config.seed)
        return res.rows, [Verdict(res.name, res.passed, res.details)]
    rows = []
    beyond_ok = True
    memory = md.effective_memory(model)
    for j in js:
        est = md.physical_dep_estimate(model, n, t_index, j, reps=reps,
                                       seed=config.seed + j)
        rows.append(vf.table_row("physical_dep", j, 0, est.value, est.stderr, n=n))
        if isinstance(model, TvVMA) and j > model.order:
            beyond_ok = beyond_ok and est.value <= 3.0 * max(est.stderr, 1e-300)
    return rows, [Verdict("beyond_memory_null", beyond_ok, {"memory": memory})]


def _run_verify_all(config: ExperimentConfig):
    """Rows and verdicts of the battery, and the wall seconds of each check."""
    results = vf.run_all(model=config.model, names=config.grid["checks"],
                         **config.companions)
    rows = []
    verdicts = []
    timings = {}
    for res in results:
        rows.extend(res.rows)
        verdicts.append(Verdict(res.name, res.passed, res.details))
        timings[res.name] = round(res.wall_s, 4)
    # byte-level determinism of a table assembly, run twice in process
    start = time.perf_counter()
    sub = load_config({"experiment": "decay", "seed": config.seed,
                       "model": {"reference": "tvvma_kappa4_p2"},
                       "grid": {"N": 100, "t_lo": 30, "t_hi": 70}})
    rep1 = run_experiment(sub)
    rep2 = run_experiment(sub)
    same = rep1.table_csv() == rep2.table_csv()
    verdicts.append(Verdict("determinism", same,
                            {"bytes": len(rep1.table_csv())}))
    timings["determinism"] = round(time.perf_counter() - start, 4)
    return rows, verdicts, timings


_RUNNERS = {
    "simulate": _run_simulate,
    "decay": _run_decay,
    "invert": _run_invert,
    "neumann": _run_neumann,
    "var": _run_var,
    "baxter": _run_baxter,
    "smoothness": _run_smoothness,
    "partial": _run_partial,
    "coherence": _run_coherence,
    "physical": _run_physical,
    "verify-all": _run_verify_all,
}


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
    runner = _RUNNERS.get(config.experiment)
    if runner is None:
        raise ConfigError(f"unknown experiment {config.experiment!r}",
                          path="/experiment")
    return _finalize(config.experiment, config, *runner(config))
