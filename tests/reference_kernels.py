"""Fresh-buffer references of the Neumann series kernels, kept as the tests'
oracle of the in-place kernels of ``operator_core`` and ``inverse_analysis``.

``neumann_sum`` is the split Neumann sum with a fresh array for ``A``, for
every power and for every Horner step, each product a full-matrix
``symmetric_product``; it is the sum the package computed before its series
was held in two buffers.  The in-place kernels must give its bits: they run
every product on the same operand values, in the same row blocks.
"""

import numpy as np

from nonstatcov import inverse_analysis as ia

ROW_BLOCK = 256


def symmetric_product(a, b):
    """``a @ b`` for square factors whose product is known to be symmetric:
    the lower triangle in ``ROW_BLOCK``-row blocks ``a[i:j] @ b[:, :j]``,
    in one fresh array, mirrored."""
    n = a.shape[0]
    out = np.empty((n, n))
    for i in range(0, n, ROW_BLOCK):
        j = min(i + ROW_BLOCK, n)
        np.matmul(a[i:j], b[:, :j], out=out[i:j, :j])
    upper = np.triu_indices(n, 1)
    out[upper] = out.T[upper]
    return out


def flush_tiny(a):
    """Zero the entries of ``a`` below ``1e-150`` of the largest, in place."""
    floor = 1e-150 * max(a.max(initial=0.0), -a.min(initial=0.0))
    a[(a < floor) & (a > -floor)] = 0.0
    return a


def neumann_sum(x, terms):
    """``sum_{s<=terms} x^s`` for the exactly symmetric ``x``, flushed as the
    caller of the sum flushed it, by the split sum in fresh buffers."""
    n = x.shape[0]
    if terms == 0:
        return np.eye(n)
    x = flush_tiny(x.copy())
    b = ia._split_length(terms)
    acc = power = x
    for _ in range(b - 1):
        power = flush_tiny(symmetric_product(x, power))
        acc = acc + power
    if b > 1:
        flush_tiny(acc)
    h = acc
    for _ in range(terms // b - 1):
        h = symmetric_product(power, flush_tiny(h)) + acc
    h[np.diag_indices(n)] += 1.0
    return h
