"""The benchmark's three workloads: seeded inputs, one timed pass, output checks.

* ``verify_all`` runs the bundled ``verify_all_tvvma`` config through
  ``load_config`` -> ``run_experiment`` -> ``write_report``, the
  paper-reproduction run users make.  Mixed, model-bound.  The seed does not
  change it.
* ``large_sections`` inverts seeded finite sections at ``L*p`` in
  {720, 1200}: dense O((Lp)^3) kernels dominate.
* ``frozen_grid`` makes many small seeded frozen-time, small-window and
  Monte Carlo calls: per-call Python overhead dominates.

A seed moves window positions, array lengths ``N``, rescaled times,
frequencies, bandwidths and simulation seeds, never the amount of work, so
every seed times the same operation counts and sizes.

Every operation is checked after it ran, outside the timed region; see
:mod:`oracles`.  A check returns ``(op, ok, note)`` triples.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

import nonstatcov
from nonstatcov import config as cf
from nonstatcov import experiments as ex
from nonstatcov import inverse_analysis as ia
from nonstatcov import models as md
from nonstatcov import partial_cov as pc
from nonstatcov import var_extraction as vx

import oracles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

#: Tolerance of a numeric ``verify_all`` table cell against the golden table
#: taken at one BLAS thread: ``|got - want| <= RTOL*|want| + ATOL``.  Running
#: with the default two BLAS threads moves 392 cells by at most 1e-9
#: relative, 1e-12 absolute on small cells.
TABLE_RTOL = 1e-7
TABLE_ATOL = 1e-10
TABLE_TEXT_COLUMNS = ("experiment", "model_hash", "kind")


def task_digest(tasks) -> str:
    """SHA-256 of the canonical JSON of a task list."""
    canon = json.dumps(tasks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class Inputs:
    """What set-up hands to the timed phase: the task list and built objects."""

    def __init__(self, tasks, models=None, config=None):
        self.tasks = tasks
        self.models = models or {}
        self.config = config
        self.digest = task_digest(tasks)


def _build_models(names) -> dict:
    built = {name: nonstatcov.get_reference_model(name) for name in names}
    for model in built.values():
        md.validate_model(model)
    return built


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

def _golden():
    with open(os.path.join(GOLDEN_DIR, "verify_all_verdicts.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    with open(os.path.join(GOLDEN_DIR, "verify_all_table.csv"),
              encoding="utf-8", newline="") as fh:
        record["rows"] = list(csv.DictReader(fh))
    return record


def table_mismatches(text: str, golden_rows) -> list[str]:
    """Cells of a ``verify_all`` table that differ from the golden table."""
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    if len(rows) != len(golden_rows):
        return [f"row count {len(rows)} != {len(golden_rows)}"]
    bad = []
    for index, (got, want) in enumerate(zip(rows, golden_rows)):
        if set(got) != set(want):
            return [f"columns {sorted(got)} != {sorted(want)}"]
        for column, expected in want.items():
            if column in TABLE_TEXT_COLUMNS:
                ok = got[column] == expected
            else:
                g, w = float(got[column]), float(expected)
                ok = abs(g - w) <= TABLE_RTOL * abs(w) + TABLE_ATOL or g == w
            if not ok:
                bad.append(f"row {index} {column}: {got[column]} != {expected}")
    return bad


class VerifyAll:
    name = "verify_all"
    check_batch = 1

    def setup(self, seed: int) -> Inputs:
        path = os.path.join(os.path.dirname(nonstatcov.__file__),
                            "reference_configs", "verify_all_tvvma.json")
        config = cf.load_config(path, default_experiment="verify-all")
        for model in (config.model, *config.companions.values()):
            md.validate_model(model)
        return Inputs([{"op": "verify_all", "config": "verify_all_tvvma"}],
                      config=config)

    def execute(self, task, inputs: Inputs, workdir: str, out: dict) -> None:
        report = ex.run_experiment(inputs.config, threads=1)
        out["verdicts"] = [(v.name, bool(v.passed)) for v in report.verdicts]
        paths = ex.write_report(report, workdir)
        with open(paths["table"], encoding="utf-8", newline="") as fh:
            out["table"] = fh.read()

    def check(self, task, inputs: Inputs, out: dict) -> list:
        golden = _golden()
        results = []
        got = dict(out.get("verdicts", []))
        for name, passed in golden["verdicts"]:
            ok = got.get(name) == passed
            results.append((f"verdict.{name}", ok,
                            "" if ok else f"got {got.get(name)}, want {passed}"))
        table = out.get("table")
        if table is None:
            results.append(("table", False, "no table written"))
            return results
        bad = table_mismatches(table, golden["rows"])
        results.append(("table", not bad, "; ".join(bad[:5])))
        identical = hashlib.sha256(table.encode()).hexdigest() == golden["table_sha256"]
        results.append(("flag.table_bytes_identical", identical, ""))
        return results


# ---------------------------------------------------------------------------
# large_sections
# ---------------------------------------------------------------------------

LARGE_MODELS = ("tvvma_kappa4_p2", "tvvar1_p3")
LARGE_SIZES = (720, 1200)              # L*p of the window handed to the kernels
LARGE_TERMS = (6, 12)                  # Neumann terms, dealt to the models per size
LARGE_BANDWIDTHS = (6, 8, 10, 12)


class LargeSections:
    name = "large_sections"
    check_batch = 1

    def setup(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        models = _build_models(LARGE_MODELS)
        tasks = []
        for size in LARGE_SIZES:
            terms = rng.permutation(LARGE_TERMS).tolist()
            for name, t in zip(LARGE_MODELS, terms):
                p = models[name].p
                task = {"op": "section", "model": name, "p": p,
                        "n": int(rng.integers(200, 801)),
                        "t_lo": int(rng.integers(-100, 201)),
                        "length": size // p, "pad": md.cov_pad(models[name]),
                        "bandwidth": int(rng.choice(LARGE_BANDWIDTHS)),
                        "terms": int(t)}
                if p >= 3:
                    task["pair"] = sorted(rng.choice(p, size=2, replace=False).tolist())
                tasks.append(task)
        return Inputs(tasks, models=models)

    def execute(self, task, inputs: Inputs, workdir: str, out: dict) -> None:
        model = inputs.models[task["model"]]
        t_lo = task["t_lo"]
        c = md.cov_window(model, task["n"], t_lo, t_lo + task["length"] - 1)
        out["cov_window"] = c
        out["finite_section_inverse"] = ia.finite_section_inverse(c, task["pad"])
        out["neumann_inverse"] = ia.neumann_inverse(c, task["bandwidth"], task["terms"])
        if "pair" in task:
            a, b = task["pair"]
            out["partial_cov_pair"] = pc.partial_cov_pair(c, a, b, pad=task["pad"])

    def check(self, task, inputs: Inputs, out: dict) -> list:
        model = inputs.models[task["model"]]
        ops = ["cov_window", "finite_section_inverse", "neumann_inverse"]
        if "pair" in task:
            ops.append("partial_cov_pair")
        results = []
        c = out.get("cov_window")
        inv = oracles.dense_inverse(c) if c is not None else None
        for op in ops:
            got = out.get(op)
            if got is None:
                results.append((op, False, "raised or not reached"))
                continue
            if op == "cov_window":
                err = oracles.window_error(model, task["n"], got)
                ok, note = err <= oracles.WINDOW_RTOL, f"rel_err={err:.3g}"
            elif op == "finite_section_inverse":
                err = oracles.interior_inverse_error(c, task["pad"], got.base, inv)
                ok, note = err <= oracles.INVERSE_RTOL, f"rel_err={err:.3g}"
            elif op == "neumann_inverse":
                true_err = oracles.neumann_true_error(got.approx, inv)
                ok = true_err <= got.certificate
                note = f"true_err={true_err:.3g} certificate={got.certificate:.3g}"
            else:
                err = oracles.partial_pair_error(c, got, task["pad"])
                ok, note = err <= oracles.PARTIAL_RTOL, f"rel_err={err:.3g}"
            results.append((op, bool(ok), note))
        return results


# ---------------------------------------------------------------------------
# frozen_grid
# ---------------------------------------------------------------------------

FROZEN_MODELS = ("tvvma_kappa4_p2", "tvvar1_p3", "tvarch_order2", "sre_p2")
#: (op, model, tasks per pass); small windows have L*p = 120.
FROZEN_MIX = (
    ("spectral_eig_range", "tvvma_kappa4_p2", 6),
    ("spectral_eig_range", "tvvar1_p3", 6),
    ("partial_spectral_coherence", "tvvar1_p3", 8),
    ("kolmogorov_gap", "tvvar1_p3", 2),
    ("cov_window", "tvvma_kappa4_p2", 6),
    ("cov_window", "tvvar1_p3", 6),
    ("cov_window", "tvarch_order2", 6),
    ("stationary_cov_sequence", "tvvma_kappa4_p2", 6),
    ("stationary_cov_sequence", "tvvar1_p3", 6),
    ("stationary_cov_sequence", "tvarch_order2", 6),
    ("simulate_ensemble", "sre_p2", 4),
    ("physical_dep_estimate", "sre_p2", 4),
)
SMALL_WINDOW_LP = 120
U_PATCH = 4           # rescaled times per spectral patch
OMEGA_PATCH = 24      # frequencies per spectral patch
COHERENCE_POINTS = 64
STATIONARY_LAGS = 30
#: Past depth of ``kolmogorov_gap``'s one-sided inverse: the smallest the
#: package accepts for an order-1 model, so the call stays bound by its 4096
#: spectral-density evaluations and not by the dense inverse.
KOLMOGOROV_DEPTH = 51


def _frozen_task(rng, op: str, name: str, p: int) -> dict:
    task = {"op": op, "model": name}
    if op == "spectral_eig_range":
        u0 = float(rng.uniform(0.0, 0.9))
        w0 = float(rng.uniform(0.0, 2.0 * math.pi))
        task["u"] = [u0 + 0.1 * k / U_PATCH for k in range(U_PATCH)]
        task["omega"] = [w0 + 2.0 * math.pi * k / 128 for k in range(OMEGA_PATCH)]
    elif op == "partial_spectral_coherence":
        task["u"] = float(rng.uniform(0.0, 1.0))
        task["pair"] = sorted(rng.choice(p, size=2, replace=False).tolist())
        w0 = float(rng.uniform(0.0, 2.0 * math.pi / COHERENCE_POINTS))
        task["omega"] = [w0 + 2.0 * math.pi * k / COHERENCE_POINTS
                         for k in range(COHERENCE_POINTS)]
    elif op == "kolmogorov_gap":
        n = int(rng.integers(200, 801))
        task.update(n=n, t=int(rng.integers(n // 4, 3 * n // 4)))
    elif op == "cov_window":
        n = int(rng.integers(100, 801))
        task.update(n=n, t_lo=int(rng.integers(-50, n)), length=SMALL_WINDOW_LP // p)
    elif op == "stationary_cov_sequence":
        task.update(u=float(rng.uniform(0.0, 1.0)), max_lag=STATIONARY_LAGS)
    elif op == "simulate_ensemble":
        n = int(rng.integers(100, 801))
        t_lo = int(rng.integers(0, n))
        task.update(n=n, t_lo=t_lo, t_hi=t_lo + 59, reps=200,
                    seed=int(rng.integers(0, 2**31)))
    else:
        n = int(rng.integers(100, 801))
        task.update(n=n, t=int(rng.integers(0, n)), j=int(rng.integers(1, 9)),
                    reps=1000, seed=int(rng.integers(0, 2**31)))
    return task


class FrozenGrid:
    name = "frozen_grid"
    check_batch = None      # results are small: check the whole pass at once

    def setup(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        models = _build_models(FROZEN_MODELS)
        tasks = [_frozen_task(rng, op, name, getattr(models[name], "p", 1))
                 for op, name, count in FROZEN_MIX for _ in range(count)]
        return Inputs(tasks, models=models)

    def execute(self, task, inputs: Inputs, workdir: str, out: dict) -> None:
        model = inputs.models[task["model"]]
        op = task["op"]
        if op == "spectral_eig_range":
            result = md.spectral_eig_range(model, task["u"], task["omega"])
        elif op == "partial_spectral_coherence":
            a, b = task["pair"]
            result = pc.partial_spectral_coherence(model, task["u"], a, b,
                                                   task["omega"])
        elif op == "kolmogorov_gap":
            result = vx.kolmogorov_gap(model, task["n"], task["t"],
                                       depth=KOLMOGOROV_DEPTH)
        elif op == "cov_window":
            t_lo = task["t_lo"]
            result = md.cov_window(model, task["n"], t_lo, t_lo + task["length"] - 1)
        elif op == "stationary_cov_sequence":
            result = md.stationary_cov_sequence(model, task["u"], task["max_lag"])
        elif op == "simulate_ensemble":
            result = md.simulate_ensemble(model, task["n"], task["t_lo"],
                                          task["t_hi"], task["reps"], task["seed"])
        else:
            result = md.physical_dep_estimate(model, task["n"], task["t"], task["j"],
                                              task["reps"], task["seed"])
        out[op] = result

    def check(self, task, inputs: Inputs, out: dict) -> list:
        model = inputs.models[task["model"]]
        op = task["op"]
        got = out.get(op)
        if got is None:
            return [(op, False, "raised")]
        if op == "spectral_eig_range":
            lo, hi = oracles.eig_range(model, task["u"], np.asarray(task["omega"]))
            err = max(abs(got.lambda_min - lo), abs(got.lambda_max - hi)) / max(hi, 1.0)
            ok, note = err <= oracles.SPECTRAL_RTOL, f"rel_err={err:.3g}"
        elif op == "partial_spectral_coherence":
            a, b = task["pair"]
            want = oracles.coherence(model, task["u"], a, b, np.asarray(task["omega"]))
            err = float(np.abs(got - want).max())
            ok, note = err <= oracles.SPECTRAL_RTOL, f"abs_err={err:.3g}"
        elif op == "kolmogorov_gap":
            # For a stable autoregression (2 pi)^-1 int log det f = log det Sigma(u).
            want = float(np.linalg.slogdet(model.sigma_at(task["t"] / task["n"]))[1])
            err = abs(got.rhs - want)
            ok = err <= oracles.SPECTRAL_RTOL and got.gap <= 10.0 / task["n"] \
                and got.gap == abs(got.lhs - got.rhs)
            note = f"rhs_err={err:.3g} gap={got.gap:.3g}"
        elif op == "cov_window":
            err = oracles.window_error(model, task["n"], got)
            ok, note = err <= oracles.WINDOW_RTOL, f"rel_err={err:.3g}"
        elif op == "stationary_cov_sequence":
            want = oracles.frozen_lags(model, task["u"], task["max_lag"])
            err = oracles.rel_err(got, want)
            ok, note = err <= oracles.WINDOW_RTOL, f"rel_err={err:.3g}"
        elif op == "simulate_ensemble":
            again = md.simulate_ensemble(model, task["n"], task["t_lo"], task["t_hi"],
                                         task["reps"], task["seed"])
            shape = (task["reps"], task["t_hi"] - task["t_lo"] + 1, model.p)
            ok = got.shape == shape and bool(np.all(np.isfinite(got))) \
                and np.array_equal(got, again)
            note = "replay" if ok else "replay differs or bad shape"
        else:
            again = md.physical_dep_estimate(model, task["n"], task["t"], task["j"],
                                             task["reps"], task["seed"])
            ok = (got.value, got.stderr) == (again.value, again.stderr) \
                and math.isfinite(got.value) and got.value >= 0.0
            note = f"value={got.value:.3g}"
        return [(op, bool(ok), note)]


WORKLOADS = {w.name: w for w in (VerifyAll(), LargeSections(), FrozenGrid())}
