"""Span recorder and the wrappers a traced benchmark pass installs.

The wrappers live here, not in the package: a traced pass replaces the
listed public functions in every ``nonstatcov`` module namespace that binds
them (``from .models import cov_window`` makes a second binding), counts
``CoefficientFn.__call__``, and puts everything back when the pass ends.
Untraced passes install nothing.

Spans are kept in memory as tuples and written as JSON lines at the end.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

#: (module, function, metric group).  A group sums the calls and self time
#: of its functions; most groups hold one function.
TRACED_FUNCTIONS = (
    ("models", "cov_window", "models.cov_window"),
    ("models", "validate_model", "models.validate_model"),
    ("models", "local_spectral_density", "models.spectral"),
    ("models", "spectral_eig_range", "models.spectral"),
    ("models", "stationary_cov_sequence", "models.stationary"),
    ("models", "stationary_cov", "models.stationary"),
    ("models", "stationary_window", "models.stationary"),
    ("models", "simulate_path", "models.simulate"),
    ("models", "simulate_ensemble", "models.simulate"),
    ("models", "physical_dep_estimate", "models.simulate"),
    ("inverse_analysis", "finite_section_inverse",
     "inverse_analysis.finite_section_inverse"),
    ("inverse_analysis", "neumann_inverse", "inverse_analysis.neumann_inverse"),
    ("inverse_analysis", "stationary_inverse_sequence",
     "inverse_analysis.stationary_inverse_sequence"),
    ("operator_core", "spectral_norm", "operator_core.spectral_norm"),
    ("operator_core", "sym_eig_range", "operator_core.sym_eig_range"),
    ("operator_core", "band_truncate", "operator_core.band_truncate"),
    ("partial_cov", "partial_cov_pair", "partial_cov.partial_cov_pair"),
    ("partial_cov", "self_partial_cov", "partial_cov.self_partial_cov"),
    ("partial_cov", "stationary_partial_pair", "partial_cov.stationary_partial_pair"),
    ("partial_cov", "partial_spectral_coherence",
     "partial_cov.partial_spectral_coherence"),
    ("partial_cov", "coherence_consistency_gap",
     "partial_cov.coherence_consistency_gap"),
    ("var_extraction", "var_coeffs_finite", "var_extraction.var_coeffs_finite"),
    ("var_extraction", "var_coeffs_infinite", "var_extraction.var_coeffs_infinite"),
    ("var_extraction", "baxter_gaps", "var_extraction.baxter_gaps"),
    ("var_extraction", "kolmogorov_gap", "var_extraction.kolmogorov_gap"),
    ("config", "load_config", "config.load_config"),
    ("experiments", "write_report", "experiments.write_report"),
)

#: Groups reported as ``<group>.calls`` and ``<group>.self_s``.
CALL_GROUPS = tuple(dict.fromkeys(g for _, _, g in TRACED_FUNCTIONS
                                  if not g.startswith(("config.", "experiments."))))

#: The checks of the verification battery, in ``verification.ALL_CHECKS`` order.
CHECK_NAMES = ("inverse_decay", "banded_inverse_soundness",
               "neumann_certificates", "ar1_analytic", "baxter_gaps",
               "smoothness_transfer", "partial_oracle", "coherence_consistency",
               "eigenvalue_sandwich", "physical_dependence", "lemma_utilities")


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = ["models.coefficient_eval.calls"]
    for group in CALL_GROUPS:
        names += [f"{group}.calls", f"{group}.self_s"]
        if group == "models.validate_model":
            names.append("models.validate_model.repeat_ratio")
    names.append("inverse_analysis.dense_flops")
    names += [f"verification.{c}.wall_s" for c in CHECK_NAMES]
    names += ["config.load_config.self_s", "experiments.write_report.self_s",
              "experiments.write_report.bytes", "trace.overhead_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".repeat_ratio"):
        return "ratio"
    if name.endswith(".dense_flops"):
        return "n3"
    return "count"


def _dense_order(fn, args, kwargs) -> int:
    """Matrix order ``n`` of the dense O(n^3) work an inverse-analysis call does."""
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    if "c" in bound:
        return bound["c"].length * bound["c"].p
    model = bound["model"]
    pad = bound.get("pad")
    if pad is None:
        from nonstatcov.models import cov_pad
        pad = cov_pad(model)
    return (2 * (bound["max_lag"] + pad) + 1) * model.p


class Recorder:
    """In-memory spans of one traced pass, with per-group aggregates."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans = []            # (span_id, parent_id, name, start, end)
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.coefficient_calls = 0
        self.validated = []        # model objects passed to validate_model
        self.dense_flops = 0
        self.report_bytes = 0
        self._stack = []           # [span_id, child_seconds]
        self._next_id = 1

    @contextmanager
    def span(self, name: str, group: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((span_id, parent, name, start, end))
            self.calls[group] = self.calls.get(group, 0) + 1
            self.self_s[group] = self.self_s.get(group, 0.0) + duration - frame[1]
            self.total_s[group] = self.total_s.get(group, 0.0) + duration

    def metrics(self) -> dict:
        """Counts and self times of this pass, keyed by metric name."""
        out = {"models.coefficient_eval.calls": self.coefficient_calls}
        for group in CALL_GROUPS:
            out[f"{group}.calls"] = self.calls.get(group, 0)
            out[f"{group}.self_s"] = self.self_s.get(group, 0.0)
            if group == "models.validate_model":
                distinct = len({id(m) for m in self.validated})
                out["models.validate_model.repeat_ratio"] = \
                    len(self.validated) / distinct if distinct else 0.0
        out["inverse_analysis.dense_flops"] = self.dense_flops
        for check in CHECK_NAMES:
            out[f"verification.{check}.wall_s"] = self.total_s.get(
                f"verification.{check}", 0.0)
        out["config.load_config.self_s"] = self.self_s.get("config.load_config", 0.0)
        out["experiments.write_report.self_s"] = self.self_s.get(
            "experiments.write_report", 0.0)
        out["experiments.write_report.bytes"] = self.report_bytes
        return out

    def write_jsonl(self, fh) -> None:
        for span_id, parent, name, start, end in self.spans:
            fh.write(json.dumps({"trace": self.trace_id, "span": span_id,
                                 "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "nonstatcov"
                                  or name.startswith("nonstatcov."))]


def _rebind(original, wrapper, undo: list) -> None:
    """Replace ``original`` by ``wrapper`` in every package namespace."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))


def _span_wrapper(rec: Recorder, fn, name: str, group: str):
    func = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if func == "validate_model":
            rec.validated.append(args[0] if args else kwargs["model"])
        elif group.startswith("inverse_analysis."):
            rec.dense_flops += _dense_order(fn, args, kwargs) ** 3
        with rec.span(name, group):
            result = fn(*args, **kwargs)
        if func == "write_report":
            rec.report_bytes += sum(os.path.getsize(p) for p in result.values())
        return result
    wrapper.bench_wrapper = True
    return wrapper


@contextmanager
def installed(rec: Recorder):
    """Wrap the traced functions, checks and coefficient evaluation for one pass."""
    import nonstatcov
    from nonstatcov import models, verification

    undo = []
    call = models.CoefficientFn.__call__
    checks = verification.ALL_CHECKS
    try:
        for mod_name, func, group in TRACED_FUNCTIONS:
            original = getattr(getattr(nonstatcov, mod_name), func)
            _rebind(original, _span_wrapper(rec, original, f"{mod_name}.{func}",
                                            group), undo)
        wrapped_checks = []
        for check, fn, wants in checks:
            name = f"verification.{check}"
            wrapper = _span_wrapper(rec, fn, name, name)
            _rebind(fn, wrapper, undo)
            wrapped_checks.append((check, wrapper, wants))
        verification.ALL_CHECKS = tuple(wrapped_checks)

        @functools.wraps(call)
        def counted(self, u):
            rec.coefficient_calls += 1
            return call(self, u)
        counted.bench_wrapper = True
        models.CoefficientFn.__call__ = counted
        yield rec
    finally:
        models.CoefficientFn.__call__ = call
        verification.ALL_CHECKS = checks
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def wrapped_bindings() -> list[str]:
    """Package bindings that currently hold a benchmark wrapper (empty when clean)."""
    from nonstatcov import models, verification
    found = [f"{module.__name__}.{attr}" for module in _package_modules()
             for attr, value in vars(module).items()
             if getattr(value, "bench_wrapper", False)]
    if getattr(models.CoefficientFn.__call__, "bench_wrapper", False):
        found.append("nonstatcov.models.CoefficientFn.__call__")
    found += [f"nonstatcov.verification.ALL_CHECKS[{name}]"
              for name, fn, _ in verification.ALL_CHECKS
              if getattr(fn, "bench_wrapper", False)]
    return found
