"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import re
import signal
import sys
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import nonstatcov  # noqa: E402
from nonstatcov import models as md  # noqa: E402
from nonstatcov.operator_core import BlockWindow  # noqa: E402

import hostclock  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _small_section(model_name="tvvar1_p3"):
    """A large_sections task at a size a test can afford."""
    inputs = workloads.Inputs([], models=workloads._build_models([model_name]))
    task = {"op": "section", "model": model_name, "p": 3, "n": 300, "t_lo": 40,
            "length": 40, "pad": 8, "bandwidth": 6, "terms": 6, "pair": [0, 2]}
    return task, inputs


def test_same_seed_same_digest():
    for name in ("large_sections", "frozen_grid"):
        w = workloads.WORKLOADS[name]
        first, again, other = w.setup(5), w.setup(5), w.setup(6)
        assert first.tasks == again.tasks
        assert first.digest == again.digest
        assert first.digest != other.digest


def test_seed_does_not_change_the_amount_of_work():
    def shape(t):
        size = (t["op"], t["model"], t.get("length"), len(t.get("omega", ())),
                np.size(t.get("u", 0)), t.get("reps"), t.get("max_lag"))
        # Neumann terms are dealt to the models; per size their multiset is fixed.
        terms = (t["p"] * t["length"], t["terms"]) if t["op"] == "section" else None
        return repr(size), repr(terms)
    for name in ("large_sections", "frozen_grid"):
        w = workloads.WORKLOADS[name]
        a, b = w.setup(1).tasks, w.setup(2).tasks
        for part in (0, 1):
            assert sorted(shape(t)[part] for t in a) == sorted(shape(t)[part] for t in b)


def test_clean_section_passes_and_corrupted_inverse_fails():
    task, inputs = _small_section()
    w = workloads.WORKLOADS["large_sections"]
    out = {}
    w.execute(task, inputs, "", out)
    clean = worker.Tally()
    clean.add(worker.check_in_child(w, inputs, [(task, out)]))
    assert clean.attempted == 4 and clean.failed == 0, clean.notes

    inv = out["finite_section_inverse"]
    blocks = np.array(inv.base.blocks)
    blocks[3, 5] += 1e-3
    out["finite_section_inverse"] = dataclasses.replace(
        inv, base=BlockWindow(t_lo=inv.base.t_lo, p=inv.base.p, blocks=blocks))
    corrupt = worker.Tally()
    corrupt.add(worker.check_in_child(w, inputs, [(task, out)]))
    assert corrupt.attempted == 4 and corrupt.failed == 1
    assert corrupt.notes[0].startswith("finite_section_inverse")


def test_raising_operation_counts_as_failed(tmp_path):
    task, inputs = _small_section()
    task["pad"] = 100           # leaves no interior: finite_section_inverse raises
    tally = worker.Tally()
    worker.timed_pass(workloads.WORKLOADS["large_sections"],
                      workloads.Inputs([task], models=inputs.models), str(tmp_path),
                      tally)
    assert tally.failed >= 1


def test_table_tolerance_accepts_thread_drift_and_rejects_errors():
    path = os.path.join(workloads.GOLDEN_DIR, "verify_all_table.csv")
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    golden = workloads._golden()["rows"]
    assert workloads.table_mismatches(text, golden) == []
    header, first, rest = text.split("\r\n", 2)
    cells = first.split(",")
    measured = header.split(",").index("measured")
    value = float(cells[measured])
    for factor, expect_ok in ((1 + 1e-12, True), (1 + 1e-5, False)):
        cells[measured] = f"{value * factor:.17g}"
        edited = "\r\n".join([header, ",".join(cells), rest])
        assert (workloads.table_mismatches(edited, golden) == []) is expect_ok


def test_metric_names_and_declared_layers():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert [m["name"] for m in spec["per_layer"]] == spans.per_layer_names()
    for m in spec["per_layer"]:
        assert m["unit"] == spans.metric_unit(m["name"])
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_untraced_pass_installs_no_wrappers_and_traced_pass_restores(tmp_path):
    original = md.cov_window
    call = md.CoefficientFn.__call__
    w = workloads.WORKLOADS["frozen_grid"]
    inputs = w.setup(3)
    inputs.tasks = [t for t in inputs.tasks if t["op"] in ("cov_window",
                                                           "simulate_ensemble")][:4]
    tally = worker.Tally()
    worker.timed_pass(w, inputs, str(tmp_path), tally)
    assert spans.wrapped_bindings() == []
    assert md.cov_window is original and md.CoefficientFn.__call__ is call

    rec = spans.Recorder(trace_id=1)
    with spans.installed(rec):
        bound = spans.wrapped_bindings()
        assert "nonstatcov.models.cov_window" in bound
        assert "nonstatcov.inverse_analysis.cov_window" in bound
        assert "nonstatcov.models.CoefficientFn.__call__" in bound
    assert spans.wrapped_bindings() == []
    assert nonstatcov.cov_window is original

    rec = spans.Recorder(trace_id=2)
    worker.timed_pass(w, inputs, str(tmp_path), tally, rec)
    metrics = rec.metrics()
    assert metrics["models.cov_window.calls"] == sum(
        t["op"] == "cov_window" for t in inputs.tasks)
    assert metrics["models.coefficient_eval.calls"] > 0
    assert spans.wrapped_bindings() == [] and tally.failed == 0


def test_rescale_divides_out_the_reference_speed():
    clock = hostclock.HostClock()
    nominal = hostclock.NOMINAL_S
    # Kernel runs of 1x, 2x and 2x nominal around two stretches of 1 s each.
    clock.samples = [(0.0, nominal), (1.0 + nominal, 1.0 + 3 * nominal),
                     (2.0 + 3 * nominal, 2.0 + 5 * nominal)]
    raw, rescaled = clock.rescale(nominal, 2.0 + 3 * nominal, 0)
    assert abs(raw - 2.0) < 1e-12
    assert abs(rescaled - (1.0 / 1.5 + 1.0 / 2.0)) < 1e-12


def test_host_clock_times_a_task_without_its_own_kernel():
    clock = hostclock.HostClock()
    handler = signal.getsignal(signal.SIGALRM)
    busy = 4 * hostclock.INTERVAL_S
    with clock.task():
        end = time.perf_counter() + busy
        while time.perf_counter() < end:
            sum(range(1000))
    [(raw, rescaled)] = clock.resolve()
    inner = clock.samples[1:-1]             # the kernel runs inside the task
    assert len(inner) >= 2
    assert abs(raw - (busy - sum(e - s for s, e in inner))) < 0.02
    assert rescaled > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
