"""Finite-section inversion, certified banded/Neumann approximations, and
empirical decay/smoothness measurements on inverse covariance windows.

Finite sections approximate the bi-infinite inverse only away from the
window edges, so every model-facing operation here inverts a padded window
and reports the interior.  The default pad follows the covariance assembly
pad of :func:`nonstatcov.models.cov_pad`.  The frozen-time inverse lags of
the gap measurements need no window: they are one FFT of the inverse
spectral density (:func:`_frozen_inverse_lags`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConditioningError, DegenerateFitError, DivergenceError,
                     DomainError, InputError)
from .models import (ModelSpec, _inverse_spectrum, _transfer_order, cov_pad,
                     cov_window, stationary_cov_derivative, stationary_window)
from .operator_core import (BlockWindow, SPD_RTOL, block_norms, block_toeplitz,
                            block_view, gu, krylov_norm, outside_band, spd_inverse,
                            sym_eig_range, symmetric_product, zeta)
from .reports import (DecayProfile, GapReport, envelope_constant, fit_decay_profile,
                      pair_gaps, two_sided)


@dataclass(frozen=True)
class InverseWindow:
    """Interior section of the inverse of a (padded) covariance window.

    ``condition_bound`` is the certified upper bound on the spectral
    condition number of the inverted window that :func:`spd_inverse`
    returns; ``residual`` is its inversion residual.
    """

    base: BlockWindow
    source_pad: int
    condition_bound: float
    residual: float

    def block(self, t: int, tau: int) -> np.ndarray:
        return self.base.block(t, tau)


@dataclass(frozen=True)
class NeumannResult:
    """Banded-plus-series approximate inverse with a geometric certificate.

    ``certificate`` bounds the spectral-norm distance to the exact inverse:
    the geometric series tail (``tail``) plus a roundoff allowance
    (``roundoff``), so it stays sound in floating point even when the tail
    underflows the arithmetic noise floor.
    """

    approx: BlockWindow
    certificate: float
    contraction_norm: float
    banded_inverse_norm: float
    tail: float
    roundoff: float


def finite_section_inverse(c: BlockWindow, pad: int) -> InverseWindow:
    """Invert a symmetric SPD window and discard ``pad`` times on each side.

    The caller supplies the window *including* the pad; the returned interior
    approximates the bi-infinite inverse away from the original edges.

    Raises:
        ConditioningError: singular window or residual above 1e-8.
    """
    if not c.symmetric:
        raise InputError("finite_section_inverse: window must be symmetric")
    if pad < 0:
        raise DomainError("finite_section_inverse: pad must be >= 0")
    if c.length - 2 * pad < 1:
        raise InputError("finite_section_inverse: pad leaves no interior")
    inv, bound, residual = spd_inverse(c.flatten(), "finite_section_inverse: window")
    lo, hi = pad * c.p, (c.length - pad) * c.p
    interior = BlockWindow.from_flat(inv[lo:hi, lo:hi], c.p, t_lo=c.t_lo + pad,
                                     symmetrize=True)
    return InverseWindow(base=interior, source_pad=pad, condition_bound=bound,
                         residual=residual)


def model_inverse_window(model: ModelSpec, n: int, t_lo: int, t_hi: int,
                         pad: int | None = None) -> InverseWindow:
    """Interior inverse-covariance section of a model over ``[t_lo, t_hi]``."""
    pad = cov_pad(model) if pad is None else pad
    c = cov_window(model, n, t_lo - pad, t_hi + pad)
    return finite_section_inverse(c, pad)


def _flush_tiny(a: np.ndarray) -> np.ndarray:
    """Zero the entries below ``1e-150`` of the largest, in place.

    Away from the diagonal, banded inverses decay geometrically far below
    that level; products of such entries underflow to subnormal numbers,
    which slow a dense product several times.  The change is far below the
    rounding error of the matrix.
    """
    scale = max(a.max(initial=0.0), -a.min(initial=0.0))
    a[np.abs(a) < 1e-150 * scale] = 0.0
    return a


def neumann_inverse(c: BlockWindow, m: int, terms: int) -> NeumannResult:
    """Approximate ``C^{-1}`` by a Neumann series around the banded truncation.

    Writes ``C = B_M + E`` and sums ``sum_{s<=terms} (-B_M^{-1} E)^s B_M^{-1}``
    by Horner's rule, one product per term, and stops early once an iterate
    repeats.  The certificate bounds the dropped tail by the geometric series
    ``||B_M^{-1}|| q^{terms+1} / (1 - q)`` with ``q = ||B_M^{-1} E||_2``
    computed on the window; ``q`` and ``||E||_2`` come from
    :func:`krylov_norm`, the extremes of ``B_M`` from its band.

    Raises:
        DivergenceError: if the banded truncation is singular or ``q >= 1``
            (the offending product norm is attached).
    """
    if not c.symmetric:
        raise InputError("neumann_inverse: window must be symmetric")
    if terms < 0:
        raise DomainError("neumann_inverse: terms must be >= 0")
    flat = c.flatten()
    outside = outside_band(c.length, c.p, m)
    # B_M and E = C - B_M split by the block-lag mask (inside the band
    # x - x == +0.0, so E is exactly what the subtraction would give)
    bf = np.where(outside, 0.0, flat)
    err = np.where(outside, flat, 0.0)
    del outside
    bandwidth = (m + 1) * c.p - 1
    try:
        b_inv, _, _ = spd_inverse(bf, f"neumann_inverse: banded truncation "
                                      f"at bandwidth {m}", bandwidth=bandwidth)
    except ConditioningError:
        # Banding can destroy positive definiteness while B_M stays
        # invertible and the series still contracts; such a truncation (or
        # an SPD one too ill-conditioned for the Cholesky residual check)
        # is inverted by LU, guarded by its smallest |eigenvalue|.
        vals = np.abs(np.linalg.eigvalsh(bf))
        amin, amax = float(vals.min()), float(vals.max())
        if amin <= SPD_RTOL * max(amax, 1e-300):
            raise DivergenceError(
                f"neumann_inverse: banded truncation at bandwidth {m} is singular",
                contraction_norm=math.inf) from None
        b_inv = np.linalg.inv(bf)
        b_inv = 0.5 * (b_inv + b_inv.T)
    else:
        # the certificate reads the exact extremes of B_M
        rng = sym_eig_range(bf, bandwidth)
        amin, amax = rng.lambda_min, rng.lambda_max
    b_inv_norm = 1.0 / amin
    _flush_tiny(b_inv)
    prod = _flush_tiny(b_inv @ err)
    n = bf.shape[0]
    del bf
    q = krylov_norm(prod)
    if q >= 1.0:
        raise DivergenceError(
            f"neumann_inverse: series does not contract, ||B^-1 (C - B)|| = {q:.4f}",
            contraction_norm=q)
    # Horner: X <- B^-1 - P X, from X = B^-1, gives sum_{s<=terms} (-P)^s B^-1.
    # Every partial sum is symmetric, hence so is P X = B^-1 - X_next.  Once
    # an iterate repeats its predecessor bit for bit, so does every later one.
    approx_flat = b_inv
    for _ in range(terms):
        step = symmetric_product(prod, approx_flat)
        np.subtract(b_inv, step, out=step)
        if np.array_equal(step, approx_flat):
            break
        approx_flat = step
    approx = BlockWindow.from_flat(approx_flat, c.p, t_lo=c.t_lo, symmetrize=True)
    tail = b_inv_norm * q ** (terms + 1) / (1.0 - q)
    # ||C^-1|| <= ||B^-1||/(1-q), so a conservative allowance for the
    # rounding of the series products and of any dense reference inverse is
    inv_bound = b_inv_norm / (1.0 - q)
    # E is exactly symmetric, so its spectral norm is its largest |eigenvalue|
    c_norm = amax + krylov_norm(err, symmetric=True)
    roundoff = n * np.finfo(float).eps * inv_bound \
        * (1.0 + c_norm * inv_bound)
    return NeumannResult(approx=approx, certificate=tail + roundoff,
                         contraction_norm=q, banded_inverse_norm=b_inv_norm,
                         tail=tail, roundoff=roundoff)


def inverse_decay_fit(d: InverseWindow, kappa_ref: float) -> DecayProfile:
    """Fit the interior inverse decay against the log-corrected weight.

    Regresses ``log max_{|t-tau|=l} ||D_{t,tau}||`` on ``log zeta(l)`` over
    ``l in [2, L//3]`` and reports the sup-bound constant
    ``max ||D|| / zeta(lag)^(kappa_ref - 1)`` over *all* interior lags.

    Raises:
        InputError: interior shorter than 20.
        DegenerateFitError: every interior norm at numerical zero.
    """
    w = d.base
    if w.length < 20:
        raise InputError("inverse_decay_fit: interior window shorter than 20")
    lag_norms = w.lag_max_norms()
    if np.all(lag_norms < 1e-14):
        raise DegenerateFitError("inverse_decay_fit: all interior norms below 1e-14")
    hi = max(3, w.length // 3)
    lags = np.arange(2, hi + 1)
    fitted = fit_decay_profile(lags, lag_norms[2:hi + 1],
                               np.asarray(zeta(lags)) ** (kappa_ref - 1.0),
                               np.asarray(zeta(lags)))
    all_lags = np.arange(w.length)
    constant = envelope_constant(lag_norms, np.asarray(zeta(all_lags)) ** (kappa_ref - 1.0))
    return DecayProfile(constant=constant, exponent=fitted.exponent,
                        lags=fitted.lags, residuals=fitted.residuals,
                        band_limited=fitted.band_limited)


def _centre_row(flat: np.ndarray, p: int, half: int, max_lag: int) -> np.ndarray:
    """Blocks ``(0, -r)``, ``r = 0..max_lag``, of a flat window over
    ``[-half, half]``, shape ``(max_lag + 1, p, p)``."""
    return block_view(flat, p)[half, half - np.arange(max_lag + 1)]


def stationary_inverse_sequence(model: ModelSpec, u: float, max_lag: int,
                                pad: int | None = None) -> np.ndarray:
    """``D_r(u)`` for ``r = 0..max_lag`` from a long Toeplitz section.

    The section has half-width ``max_lag + pad``; the centered row of its
    inverse approximates the bi-infinite Toeplitz inverse.
    """
    pad = cov_pad(model) if pad is None else pad
    half = max_lag + pad
    w = stationary_window(model, u, -half, half)
    inv, _, _ = spd_inverse(w.flatten(), "stationary_inverse_sequence: window")
    return _centre_row(inv, w.p, half, max_lag)


#: The FFT grid of :func:`_frozen_inverse_lags` is accepted once its mid-band
#: lags fall below this fraction of the largest lag-0 entry.
_ALIAS_RTOL = 1e-14
#: Largest grid :func:`_frozen_inverse_lags` doubles to.
_MAX_GRID = 2**16


def _wiener_lags(model: ModelSpec, us: np.ndarray, m: int):
    """The ``m`` aliased lags ``sum_j D_{r + jm}(u)``, ``r = 0..m-1``, at
    every ``u`` (shape ``(len(us), m, p, p)``), the mask of the ``u`` whose
    symbol passed the screen of ``_inverse_spectrum``, and the mask of
    those whose mid-band lags ``m/4 <= r <= 3m/4`` stay within
    ``_ALIAS_RTOL`` of the largest entry of ``D_0``."""
    g, screened = _inverse_spectrum(model, us, m)
    # D_r = m^-1 sum_k f(omega_k)^-1 e^{-i r omega_k}: the inverse real FFT
    # of the conjugate, whose Hermitian extension covers k > m/2
    lags = np.fft.irfft(g.conj(), n=m, axis=1)
    mid = np.abs(lags[:, m // 4:3 * m // 4 + 1]).max(axis=(1, 2, 3))
    clean = screened & (mid <= _ALIAS_RTOL * np.abs(lags[:, 0]).max(axis=(1, 2)))
    return lags, screened, clean


def _frozen_inverse_lags(model: ModelSpec, us, max_lag: int) -> np.ndarray:
    """``D_r(u)`` for ``r = 0..max_lag`` at every ``u`` of ``us``, shape
    ``(len(us), max_lag + 1, p, p)``, by one FFT of the inverse symbol.

    The bi-infinite Toeplitz inverse has the symbol ``f(.; u)^-1``, so
    ``D_r(u) = (2 pi)^-1 int f(omega; u)^-1 e^{-i r omega} d omega``; on the
    grid ``omega_k = 2 pi k / M`` the sum ``M^-1 sum_k f(omega_k; u)^-1
    e^{-i r omega_k}`` gives the aliased lags ``sum_j D_{r + jM}``
    (:func:`_wiener_lags`).  ``M`` is the least power of two
    ``>= 8 (J + max_lag + 1)``, ``J`` the transfer order, doubled (up to
    ``2**16``) until at every ``u`` the largest entry of the mid-band lags
    ``M/4 <= r <= 3M/4``, which estimate the aliasing of the lags up to
    ``max_lag``, is at most ``1e-14`` of the largest entry of ``D_0``.  No
    pad and no dense inverse.

    A ``u`` whose symbol the screen refuses, or whose lags still alias at
    ``2**16``, is left to the dense :func:`stationary_inverse_sequence`,
    which decides with its own refusals.

    Raises:
        UnsupportedFamilyError: for SRE models.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    m = 1 << (8 * (_transfer_order(model) + max_lag + 1) - 1).bit_length()
    lags, screened, clean = _wiener_lags(model, us, m)
    while np.any(screened & ~clean) and m < _MAX_GRID:
        m *= 2
        lags, screened, clean = _wiener_lags(model, us, m)
    out = lags[:, :max_lag + 1]
    for i in np.flatnonzero(~clean):
        out[i] = stationary_inverse_sequence(model, us[i], max_lag)
    return out


def _kappa_or_raise(model: ModelSpec, kappa: float | None) -> float:
    if kappa is not None:
        return float(kappa)
    model_kappa = getattr(model, "kappa", None)
    if model_kappa is None:
        raise InputError("a decay exponent kappa is required for the envelope; "
                         "pass kappa= or use a model that declares one")
    return float(model_kappa)


def inverse_smoothness_gap(model: ModelSpec, n: int, t_lo: int, t_hi: int,
                           kappa: float | None = None) -> GapReport:
    """Gap between the array inverse and its frozen-time approximation.

    Measures ``||[D^(N) - D(t/N)]_{t,tau}||`` over the interior window
    against the envelope ``zeta(t-tau)^(kappa-2) * min(1/N, 2*zeta(t-tau))``.
    The variant with ``min(1/N, 2/gu(t-tau))`` is reported as ``alt_bound``.
    """
    kappa = _kappa_or_raise(model, kappa)
    dn = model_inverse_window(model, n, t_lo, t_hi)
    length = dn.base.length
    times = np.arange(t_lo, t_lo + length)
    # one frozen sequence per row time t, two-sided over r = t - tau
    frozen = two_sided(_frozen_inverse_lags(model, times / n, length - 1))
    return pair_gaps(
        times, dn.base.blocks, frozen,
        lambda r: zeta(r) ** (kappa - 2.0) * np.minimum(1.0 / n, 2.0 * zeta(r)),
        lambda r: zeta(r) ** (kappa - 2.0) * np.minimum(1.0 / n, 2.0 / gu(r)))


def inverse_lipschitz_gap(model: ModelSpec, u: float, v: float, max_lag: int,
                          kappa: float | None = None) -> GapReport:
    """Lipschitz gap ``||D_r(u) - D_r(v)||`` against ``|u-v| zeta(r)^(kappa-1)``."""
    kappa = _kappa_or_raise(model, kappa)
    seq_u, seq_v = two_sided(_frozen_inverse_lags(model, [u, v], max_lag))
    lags = np.arange(-max_lag, max_lag + 1)
    return GapReport(indices=lags.tolist(),
                     measured=block_norms(seq_u - seq_v),
                     bound=abs(u - v) * zeta(lags) ** (kappa - 1.0))


def inverse_derivative_gap(model: ModelSpec, u: float, max_lag: int,
                           h: float = 1e-4, pad: int | None = None):
    """Forward difference of ``D_r(u)`` against the sandwich derivative.

    The derivative identity assembles ``-D(u) C'(u) D(u)`` on a long
    Toeplitz section, where ``C'`` is the analytic covariance derivative
    (moving-average models).  Returns ``(fd, assembled, max_rel_err)`` with
    per-lag arrays for ``r = 0..max_lag``.
    """
    pad = cov_pad(model) if pad is None else pad
    half = max_lag + pad
    w = stationary_window(model, u, -half, half)
    inv, _, _ = spd_inverse(w.flatten(), "inverse_derivative_gap: window")
    dseq = stationary_cov_derivative(model, u, 2 * half)
    assembled_flat = -inv @ block_toeplitz(dseq, 2 * half + 1) @ inv
    assembled = _centre_row(0.5 * (assembled_flat + assembled_flat.T), w.p,
                            half, max_lag)

    seq_u = _centre_row(inv, w.p, half, max_lag)
    seq_uh = stationary_inverse_sequence(model, u + h, max_lag, pad=pad)
    fd = (seq_uh - seq_u) / h
    scale = max(float(np.abs(assembled).max()), 1e-300)
    max_rel_err = float(np.abs(fd - assembled).max()) / scale
    return fd, assembled, max_rel_err
