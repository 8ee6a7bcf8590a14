"""Peak memory of the inverse path, measured with ``tracemalloc``.

numpy reports every array allocation to ``tracemalloc``, so these peaks are
deterministic: they count the arrays a call holds at once, not the BLAS
library's own workspace or the allocator's layout.

The finite-section inverse holds its window and strips of at most
``operator_core._STRIP_ROWS`` (64) rows beside it: building the 1200-row
reference window holds it and one copy of the coefficients, the SPD kernel's
norms, residual and residual bound hold one or two strips, and the interior is
compacted in strips that do not overlap their source.  The Neumann sum holds
at most four sections.
"""

import tracemalloc

import numpy as np
import pytest

import nonstatcov as nc
from nonstatcov import operator_core as oc
from nonstatcov import verification as vf
from nonstatcov.reference import reference_tvvma

MIB = 2**20


def traced_peak(fn):
    """Bytes ``fn()`` holds at its peak above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_model_inverse_window_holds_one_window_and_strips():
    # check_inverse_decay's doubled window: 480 interior times, padded by
    # 60 on each side, p = 2, so 1200 rows
    model = reference_tvvma()
    call = lambda: nc.model_inverse_window(model, 200, -140, 339, pad=60)  # noqa: E731
    call()   # the first call fills the model's caches
    peak, inv = traced_peak(call)
    assert inv.base.flatten().shape == (960, 960)
    assert peak <= 1.15 * 1200**2 * 8


def test_cov_window_holds_its_window_and_one_coefficient_copy():
    # the same 1200-row window; the coefficient stacks (L, J + 1, p, p) are
    # copied for the lag products and dropped before the window is made
    model = reference_tvvma()
    call = lambda: nc.cov_window(model, 200, -200, 399)  # noqa: E731
    call()
    peak, c = traced_peak(call)
    assert peak - c.flatten().nbytes <= 1.3 * MIB


def test_inverse_decay_check_peak():
    vf.run_all(names=["inverse_decay"])
    peak, (result,) = traced_peak(lambda: vf.run_all(names=["inverse_decay"]))
    assert result.passed
    assert peak <= 13.5 * MIB


@pytest.mark.parametrize("name,call", [
    ("norm", lambda a: oc._row_sum_norm(a)),
    ("norm_lower", lambda a: oc._row_sum_norm(a.T, lower=True)),
    ("residual", lambda a: oc._inverse_residual(a, np.diagonal(a), a.T, None)),
])
def test_kernel_norms_and_residual_hold_two_strips(name, call):
    # a strip is 64 rows of 1200 columns; rebuilding rows from a triangle
    # also copies the 64 x 64 diagonal tile it mirrors
    rows = 1200
    rng = np.random.default_rng(rows)
    a = rng.standard_normal((rows, rows))
    a += a.T
    call(a)
    peak, _ = traced_peak(lambda: call(a))
    strip = oc._STRIP_ROWS * rows * 8
    assert peak <= 2 * strip + oc._STRIP_ROWS**2 * 8 + 8192


def test_kernel_bound_passes_hold_two_strips():
    # the a priori residual bound reads the factor and its inverse between
    # the LAPACK steps in strips, beside the buffer the steps overwrite
    rows = 1200
    mat = nc.cov_window(reference_tvvma(), 400, 0, rows // 2 - 1).flatten()

    def call(buf):
        return oc._invert_upper(buf, np.diagonal(buf).copy(), oc._row_sum_norm(buf), "m",
                                None)
    call(mat.copy())
    buf = mat.copy()
    peak, bound = traced_peak(lambda: call(buf))
    assert bound <= oc.SPD_RESIDUAL_TOL
    assert peak <= 2 * oc._STRIP_ROWS * rows * 8


@pytest.mark.parametrize("rows,terms", [(1200, 6), (1200, 12), (720, 12)])
def test_neumann_inverse_holds_four_sections(rows, terms):
    # the reference TvVMA sections of the large-section benchmark at
    # bandwidth 12; 6 and 12 terms split with b = 2 and b = 3, so the sum
    # holds R, x, x^2, x^3 and then R, y, Q, H, besides strips
    c = nc.cov_window(reference_tvvma(), 400, 0, rows // 2 - 1)
    call = lambda: nc.neumann_inverse(c, 12, terms)  # noqa: E731
    call()
    peak, res = traced_peak(call)
    assert res.approx.flatten().shape == (rows, rows)
    assert peak <= 4.5 * c.flatten().nbytes
