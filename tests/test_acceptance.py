"""Acceptance battery: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Criterion 5's slope clause is a documented red: the
measured summed projection gaps of the reference model decay at the l2
row-tail rate d^(-3.5), faster than the envelope window assumes (details
in the README); the companion monotonicity clause passes and is tested
separately.
"""

import importlib.util
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from nonstatcov import cli
from nonstatcov import operator_core as oc
from nonstatcov import verification as vf


def _emit(number, res, elapsed=None, budget=None):
    status = "PASS" if res.passed else "FAIL"
    timing = f" [{elapsed:.1f}s/{budget:.0f}s]" if budget else ""
    print(f"criterion {number:02d} {res.name}: {status}{timing}")
    for key, val in res.details.items():
        print(f"    {key} = {val}")


def _timed(fn, *args, **kwargs):
    start = time.monotonic()
    res = fn(*args, **kwargs)
    return res, time.monotonic() - start


def test_criterion_01_inverse_decay():
    res, dt = _timed(vf.check_inverse_decay)
    _emit(1, res, dt, 60)
    assert res.details["slope"] >= 2.5
    assert res.details["constant_change"] <= 0.10
    assert dt <= 60


def test_criterion_02_banded_inverse_soundness():
    res, dt = _timed(vf.check_banded_inverse_soundness)
    _emit(2, res, dt, 30)
    assert res.details["instances"] == 200
    assert res.details["violations"] == 0
    assert dt <= 30


def test_criterion_03_neumann_certificates():
    res, dt = _timed(vf.check_neumann_certificates)
    _emit(3, res, dt, 60)
    assert res.details["instances"] == 50
    assert res.details["violations"] == 0
    assert dt <= 60


def test_criterion_04_ar1_analytic_oracle():
    res, dt = _timed(vf.check_ar1_analytic)
    _emit(4, res, dt)
    assert res.details["worst_abs_error"] <= 1e-8


def test_criterion_05a_baxter_sums_decreasing():
    res, dt = _timed(vf.check_baxter)
    _emit(5, res, dt, 120)
    assert res.details["decreasing"]
    assert dt <= 120


def test_criterion_05b_baxter_slope_window():
    """Documented red: the measured two-point slope against the
    log-corrected weight sits near 5.3 for any honest polynomial-decay
    reference model, above the stated window [kappa-5/2, kappa-1/2]; the
    envelope the window presumes is loose by about d^-1 log^2.5(d)."""
    res, _ = _timed(vf.check_baxter)
    assert res.details["slope_window_lo"] <= res.details["slope"] \
        <= res.details["slope_window_hi"]


def test_criterion_06_smoothness_transfer():
    res, dt = _timed(vf.check_smoothness)
    _emit(6, res, dt)
    assert res.details["halving_ok"]
    assert res.details["constants_stable"]


def test_criterion_07_partial_covariance_oracle():
    res, dt = _timed(vf.check_partial_oracle)
    _emit(7, res, dt)
    assert res.details["worst_diff"] <= 1e-8
    assert res.details["worst_spd_slack"] >= -1e-10


def test_criterion_08_coherence_consistency():
    res, dt = _timed(vf.check_coherence)
    _emit(8, res, dt)
    assert res.details["sup_gap"] <= 2.0 * res.details["baseline"]
    assert 1.4 <= res.details["ratio"] <= 2.8


def test_criterion_09_eigenvalue_sandwiches():
    res, dt = _timed(vf.check_eigenvalue_sandwich)
    _emit(9, res, dt)
    assert res.passed


def test_criterion_10_physical_dependence():
    res, dt = _timed(vf.check_physical_dependence)
    _emit(10, res, dt, 120)
    assert res.details["slope"] <= res.details["limit"]
    assert dt <= 120


def test_criterion_11_norm_inequalities():
    res, dt = _timed(vf.check_lemma_utilities)
    _emit(11, res, dt)
    assert res.details["worst_cs_excess"] <= 1e-12
    assert res.details["worst_convolution_ratio"] <= 1.0



def test_lemma_grid_streams_the_materialised_sums():
    # 2 * 3000 + 1 grid points: two full chunks and a partial one
    half, reach = 3000, 50
    assert (2 * half + 1) % vf._SHIFT_CHUNK
    grid = np.arange(-half - reach, half + reach + 1, dtype=float)
    width = grid.size - 2 * reach
    for weight, exponents in ((oc.gu, (-2, -3, -4)), (oc.zeta, (2, 3, 4))):
        got = vf._shifted_dots(weight, exponents, half, reach)
        values = weight(grid)
        for row, exponent in zip(got, exponents):
            x = values ** exponent
            want = np.zeros(2 * reach + 1)
            for lo in range(0, width, vf._SHIFT_CHUNK):
                hi = min(lo + vf._SHIFT_CHUNK, width)
                want += np.correlate(x[lo:hi + 2 * reach], x[reach + lo:reach + hi],
                                     "valid")
            assert np.array_equal(row, want)


def test_lemma_check_memory_does_not_grow_with_the_grid():
    # the 2,000,101-point grid as one array would take 16 MB
    tracemalloc.start()
    try:
        res = vf.check_lemma_utilities()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 4 * 2**20

def _bench_workloads(monkeypatch):
    """``bench/workloads.py``, loaded with ``bench/`` on the path so its
    ``import oracles`` resolves."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_criterion_12_verify_all_determinism(tmp_path, monkeypatch):
    start = time.monotonic()
    outs = [tmp_path / "run1", tmp_path / "run2"]
    codes = [cli.main(["verify-all", "--config", "verify_all_tvvma",
                       "--out", str(out)]) for out in outs]
    tables = [(out / "verify_all_table.csv").read_bytes() for out in outs]
    verdicts = [(out / "verdicts.json").read_bytes() for out in outs]
    same = tables[0] == tables[1] and verdicts[0] == verdicts[1]
    status = "PASS" if same else "FAIL"
    print(f"criterion 12 determinism: {status} "
          f"[{time.monotonic() - start:.1f}s, table {len(tables[0])} bytes, "
          f"exit codes {codes}]")
    assert same
    # numeric failures surface as verdicts, not crashes: the documented
    # baxter red makes the exit code 1, never 2 or 3
    assert codes == [1, 1]
    payload = json.loads(verdicts[0])
    by_name = {v["name"]: v["passed"] for v in payload["verdicts"]}
    assert by_name["determinism"]
    assert not by_name["baxter_gaps"]
    failing = [k for k, v in by_name.items() if not v]
    assert failing == ["baxter_gaps"]
    # the table matches the benchmark's golden table cell by cell
    workloads = _bench_workloads(monkeypatch)
    assert workloads.table_mismatches(tables[0].decode("utf-8"),
                                      workloads._golden()["rows"]) == []
