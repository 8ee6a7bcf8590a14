"""Peak memory of the inverse path, measured with ``tracemalloc``.

numpy reports every array allocation to ``tracemalloc``, so these peaks are
deterministic: they count the arrays a call holds at once, not the BLAS
library's own workspace or the allocator's layout.
"""

import tracemalloc

import pytest

import nonstatcov as nc
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
    assert peak <= 1.5 * 1200**2 * 8


def test_inverse_decay_check_peak():
    vf.run_all(names=["inverse_decay"])
    peak, (result,) = traced_peak(lambda: vf.run_all(names=["inverse_decay"]))
    assert result.passed
    assert peak <= 21 * MIB


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
