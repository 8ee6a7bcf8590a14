"""Print the peak memory of the large-section kernels in section units.

For each bundled reference model of the large-section benchmark
(``tvvma_kappa4_p2`` and ``tvvar1_p3``) at 720 and 1200 rows, it builds one
covariance window and runs ``cov_window``, ``finite_section_inverse``,
``neumann_inverse`` (bandwidth 12, with 6 and 12 terms) and
``partial_cov_pair`` (components 0 and 1) once to fill the caches and once
under ``tracemalloc``.  A call's peak is the most bytes it held at once above
what was held before it, over the bytes of the window (the section): numpy
reports every array allocation to ``tracemalloc``, so the figures repeat
exactly and count the arrays a call holds, not the BLAS library's workspace
or the allocator's layout.

Run: python tools/section_peaks.py
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nonstatcov as nc  # noqa: E402

MODELS = ("tvvma_kappa4_p2", "tvvar1_p3")
ROWS = (720, 1200)
TERMS = (6, 12)
BANDWIDTH = 12


def traced_peak(fn) -> int:
    """Bytes ``fn()`` holds at its peak above what was held before it."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def section_peaks(name: str, rows: int) -> list[tuple[str, float]]:
    """``(call, peak / window bytes)`` for each kernel on one window."""
    model = nc.get_reference_model(name)
    n, length = 400, rows // model.p
    c = nc.cov_window(model, n, 0, length - 1)
    section = c.flatten().nbytes
    calls = [("cov_window", lambda: nc.cov_window(model, n, 0, length - 1)),
             ("finite_section_inverse",
              lambda: nc.finite_section_inverse(c, nc.cov_pad(model)))]
    calls += [(f"neumann_inverse terms={terms}",
               lambda terms=terms: nc.neumann_inverse(c, BANDWIDTH, terms))
              for terms in TERMS]
    calls.append(("partial_cov_pair", lambda: nc.partial_cov_pair(c, 0, 1)))
    return [(label, traced_peak(call) / section) for label, call in calls]


def main() -> None:
    print(f"{'model':<16} {'rows':>5}  {'call':<26} {'sections':>8}")
    for name in MODELS:
        for rows in ROWS:
            for label, ratio in section_peaks(name, rows):
                print(f"{name:<16} {rows:>5}  {label:<26} {ratio:>8.2f}")


if __name__ == "__main__":
    main()
