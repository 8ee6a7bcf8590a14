"""Result containers shared by the fitting and gap-measuring operations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .operator_core import block_norms


@dataclass(frozen=True)
class DecayProfile:
    """Fitted polynomial-decay profile of per-lag block norms.

    ``constant`` is the smallest K with ``measured <= K * shape`` at every
    fitted lag (a sup-bound constant, not a regression intercept);
    ``exponent`` is the least-squares slope of log-norm against the
    log decay weight.  ``band_limited`` is set when the norms vanish beyond
    a finite lag, in which case the regression may be degenerate (NaN slope).
    """

    constant: float
    exponent: float
    lags: np.ndarray
    residuals: np.ndarray
    band_limited: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lags", np.asarray(self.lags))
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))


@dataclass(frozen=True)
class GapReport:
    """Per-index measured discrepancies paired with a theoretical envelope.

    ``bound`` holds the envelope *shape* evaluated at the same indices (no
    leading constant); ``constant_estimate`` is derived from them: the
    smallest multiplier making ``measured <= constant * bound`` everywhere.
    """

    indices: list
    measured: np.ndarray
    bound: np.ndarray
    constant_estimate: float = field(init=False)

    def __post_init__(self):
        measured = np.asarray(self.measured, dtype=float)
        bound = np.asarray(self.bound, dtype=float)
        if len(self.indices) != measured.size or measured.shape != bound.shape:
            raise InputError("GapReport: indices, measured and bound sizes differ")
        if np.any(measured < 0) or np.any(bound < 0):
            raise InputError("GapReport: measured and bound must be nonnegative")
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "constant_estimate", envelope_constant(measured, bound))

    @property
    def max_measured(self) -> float:
        return float(self.measured.max(initial=0.0))


def two_sided(seq: np.ndarray) -> np.ndarray:
    """Lags ``r = -R..R`` of one-sided sequences ``seq[..., r, :, :]``,
    ``r = 0..R``, of a symmetric operator: ``out[..., R + r, :, :]`` is
    ``seq[..., r, :, :]`` for ``r >= 0`` and ``seq[..., -r, :, :]^T`` below."""
    return np.concatenate([seq[..., :0:-1, :, :].swapaxes(-1, -2), seq], axis=-3)


def pair_gaps(times: np.ndarray, array: np.ndarray, frozen: np.ndarray,
              envelope) -> GapReport:
    """Array values against their frozen-time approximations over a window.

    ``array[i, j]`` is the block at ``(times[i], times[j])``; ``frozen[i]``
    holds the two-sided frozen lags at the rescaled time of ``times[i]``,
    lag ``r = -(L-1)..L-1`` at index ``r + L - 1``.  Each pair ``(t, tau)``
    is measured as ``||array[t, tau] - frozen[t][t - tau]||`` against
    ``envelope(t - tau)``, in row-major order.
    """
    length = len(times)
    lag = times[:, None] - times[None, :]
    target = frozen[np.arange(length)[:, None], lag + length - 1]
    return GapReport(indices=[(int(t), int(tau)) for t in times for tau in times],
                     measured=block_norms(array - target).ravel(),
                     bound=envelope(lag.ravel()))


def envelope_constant(measured: np.ndarray, shape: np.ndarray) -> float:
    """Smallest K with ``measured <= K * shape`` (inf if shape vanishes
    where measured does not)."""
    measured = np.asarray(measured, dtype=float)
    shape = np.asarray(shape, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(shape > 0, measured / shape,
                         np.where(measured > 0, np.inf, 0.0))
    return float(np.max(ratio, initial=0.0))


def fit_decay_profile(lags: np.ndarray, norms: np.ndarray, shape: np.ndarray,
                      log_abscissa: np.ndarray) -> DecayProfile:
    """Least-squares decay fit of ``log norms`` against ``log log_abscissa``.

    ``shape`` is the envelope evaluated at the lags; the reported constant is
    the max ratio ``norms/shape``.  Lags with norms at numerical zero (at
    most ``1e-14``, or ``1e-13`` of the largest norm) are dropped; if every
    lag is dropped the profile is flagged band-limited and the slope is NaN.
    """
    lags = np.asarray(lags)
    norms = np.asarray(norms, dtype=float)
    scale = max(float(norms.max(initial=0.0)), 1e-300)
    usable = norms > max(1e-14, 1e-13 * scale)
    band_limited = bool((~usable).any())
    if usable.sum() == 0:
        return DecayProfile(constant=0.0, exponent=float("nan"),
                            lags=lags[:0], residuals=norms[:0], band_limited=True)
    x = np.log(np.asarray(log_abscissa, dtype=float)[usable])
    y = np.log(norms[usable])
    if usable.sum() < 2 or np.ptp(x) < 1e-12:
        slope = float("nan")
        resid = np.zeros(int(usable.sum()))
    else:
        coeffs = np.polyfit(x, y, 1)
        slope = float(coeffs[0])
        resid = y - np.polyval(coeffs, x)
    constant = envelope_constant(norms[usable], np.asarray(shape, dtype=float)[usable])
    return DecayProfile(constant=constant, exponent=slope, lags=lags[usable],
                        residuals=resid, band_limited=band_limited)
