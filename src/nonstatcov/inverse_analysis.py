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
                     InputError, check_count, check_size)
from .models import (ModelSpec, _check_us, _check_window, _inverse_spectrum,
                     _transfer_order, cov_pad, cov_window, stationary_window)
from .operator_core import (_KRYLOV_MIN_N, _ROW_BLOCK, _STRIP_ROWS, _TILE_UPPER,
                            BlockWindow, _band_extremes, _BandCholesky, _lanczos_norm,
                            _lower_band, _mirror_lower, _spd_inverse_in_place, _sym_rows,
                            _symmetric_matvec, _symmetric_product_into,
                            _transpose_in_place, block_norms, block_view, krylov_norm,
                            zeta)
from .reports import (DecayProfile, GapReport, envelope_constant, fit_decay_profile,
                      pair_gaps, two_sided)


@dataclass(frozen=True)
class InverseWindow:
    """Interior section of the inverse of a (padded) covariance window.

    ``condition_bound`` is the certified upper bound on the spectral
    condition number of the inverted window that :func:`spd_inverse`
    returns; ``residual`` is its certified bound on the inversion residual
    ``||C X - I||_inf``: the O(n^2) a priori bound, or the computed residual
    where that bound does not pass the kernel's gates.
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

    ``approx`` is the exactly symmetric sum of :func:`neumann_inverse`,
    formed in the whitened coordinates of the band Cholesky factor of the
    SPD truncation ``B_M``.  ``certificate`` bounds the spectral-norm
    distance to the exact inverse: the geometric series tail (``tail``)
    plus a roundoff allowance (``roundoff``), so it stays sound in floating
    point even when the tail underflows the arithmetic noise floor.
    ``contraction_norm`` is ``q = ||B_M^-1 E||_2`` and
    ``banded_inverse_norm`` is ``||B_M^-1||_2 = 1 / lambda_min(B_M)``;
    neither depends on how the series is summed.
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
        InputError: a non-symmetric window, a ``bool`` or non-integer
            ``pad``, or a pad that leaves no interior.
        DomainError: a negative ``pad``.
        ConditioningError: singular window or residual above 1e-8.
    """
    return _interior_inverse(c, pad, own=False)


def _interior_inverse(c: BlockWindow, pad: int, own: bool) -> InverseWindow:
    """:func:`finite_section_inverse` of the window ``c``, inverted in place.

    With ``own``, the caller built ``c`` for this call alone and hands its
    matrix over (:meth:`BlockWindow._release`); otherwise a copy is
    inverted.  The interior is then moved to the front of the same buffer
    and the rest released, so the inverse and the interior are never held
    together.
    """
    if not c.symmetric:
        raise InputError("finite_section_inverse: window must be symmetric")
    check_count(pad, "pad", "finite_section_inverse")
    if c.length - 2 * pad < 1:
        raise InputError("finite_section_inverse: pad leaves no interior")
    p, t_lo = c.p, c.t_lo
    buf = c._release() if own else np.array(c.flatten())
    del c
    bound, residual = _spd_inverse_in_place(buf, "finite_section_inverse: window")
    n = buf.shape[0]
    lo, m = pad * p, n - 2 * pad * p
    # strips of rows in order: a strip is read before any later one
    # overwrites it, and it ends before its source begins, at the flat
    # offset (lo + i) n + lo, so numpy copies no source
    front = buf.reshape(-1)
    i = 0
    while lo and i < m:
        j = min(i + _STRIP_ROWS, m, ((lo + i) * n + lo) // m)
        front[i * m:j * m].reshape(j - i, m)[...] = buf[lo + i:lo + j, lo:lo + m]
        i = j
    del front
    try:
        buf.resize((m, m))
    except ValueError:
        # numpy resizes only an array that owns its data and that nothing
        # else references (a tracer holding this frame's locals does)
        buf = buf.reshape(-1)[:m * m].reshape(m, m).copy()
    interior = BlockWindow._adopt(buf, p, t_lo=t_lo + pad)
    return InverseWindow(base=interior, source_pad=pad, condition_bound=bound,
                         residual=residual)


def model_inverse_window(model: ModelSpec, n: int, t_lo: int, t_hi: int,
                         pad: int | None = None) -> InverseWindow:
    """Interior inverse-covariance section of a model over ``[t_lo, t_hi]``.

    The padded covariance window is built for this call alone and inverted
    in its own buffer: at the peak the call holds that buffer and
    O(strip * n) temporaries, then only the interior.

    Raises:
        InputError: a ``bool`` or non-integer ``n``, ``pad``, ``t_lo`` or
            ``t_hi``.
        DomainError: ``n < 1`` or a negative ``pad``.
    """
    check_size(n, "model_inverse_window")
    check_count(t_lo, "t_lo", "model_inverse_window", signed=True)
    check_count(t_hi, "t_hi", "model_inverse_window", signed=True)
    if pad is None:
        pad = cov_pad(model)
    check_count(pad, "pad", "model_inverse_window")
    return _interior_inverse(cov_window(model, n, t_lo - pad, t_hi + pad), pad, own=True)


def _flush_tiny(a: np.ndarray, diag: np.ndarray | None = None) -> np.ndarray:
    """Zero the entries below ``1e-150`` of the largest, in place.

    Away from the diagonal, banded inverses decay geometrically far below
    that level; products of such entries underflow to subnormal numbers,
    which slow a dense product several times.  The change is far below the
    rounding error of the matrix.  Works in row blocks with boolean masks,
    so no float temporary is made.  With ``diag``, the matrix is the
    symmetric one held in the strict lower triangle of the square ``a`` and
    in ``diag``, both flushed in place; the upper triangle of ``a`` is
    neither read nor changed.
    """
    n = a.shape[0]
    if diag is None:
        parts = [(a[i:i + _ROW_BLOCK], True) for i in range(0, n, _ROW_BLOCK)]
    else:
        parts = [(diag, True)]
        for i in range(0, n, _ROW_BLOCK):
            j = min(i + _ROW_BLOCK, n)
            parts += [(a[i:j, :i], True), (a[i:j, i:j], _TILE_UPPER.T[:j - i, :j - i])]
    floor = 1e-150 * max(max(part.max(initial=0.0, where=mask),
                             -part.min(initial=0.0, where=mask)) for part, mask in parts)
    for part, mask in parts:
        tiny = part < floor
        tiny &= part > -floor
        if mask is not True:
            tiny &= mask
        part[tiny] = 0.0
    return a


def _split_length(terms: int) -> int:
    """The inner length ``b`` of the split Neumann sum: the divisor of
    ``terms >= 1`` with the fewest products, ``b - 1`` for the powers and
    ``terms / b - 1`` for Horner's rule; ties go to the smaller ``b``."""
    return min((b for b in range(1, terms + 1) if terms % b == 0),
               key=lambda b: (b - 1) + (terms // b - 1))


def _add_upper(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add the strict upper triangle of the square ``b`` onto that of ``a``,
    in place, in row blocks; returns ``a``."""
    n = a.shape[0]
    for i in range(0, n, _ROW_BLOCK):
        j = min(i + _ROW_BLOCK, n)
        np.add(a[i:j, j:], b[i:j, j:], out=a[i:j, j:])
        np.add(a[i:j, i:j], b[i:j, i:j], out=a[i:j, i:j], where=_TILE_UPPER[:j - i, :j - i])
    return a


def _neumann_sum(operands: list, terms: int) -> np.ndarray:
    """``sum_{s<=terms} x^s`` for the exactly symmetric ``x = operands.pop()``.

    Takes ``x`` out of ``operands``, so that it holds the only reference,
    and flushes it (:func:`_flush_tiny`).  With ``terms = g * b`` (``b`` from
    :func:`_split_length`) the sum is ``I + (1 + y + ... + y^{g-1}) A`` with
    ``y = x^b`` and ``A = x + ... + x^b``: ``b - 1`` products for the powers
    and ``g - 1`` for Horner's rule ``H <- A + y H`` from ``H = A``.  Every
    product is a polynomial in ``x``, hence exactly symmetric.

    Two n x n arrays hold the sum.  ``x``'s own buffer keeps ``x``, later
    ``y``, in its strict lower triangle and the running sum, later ``A``, in
    its strict upper one, with their diagonals in two vectors.  ``H`` holds
    the current power and then Horner's sum, the right-hand side of every
    product: :func:`_symmetric_product_into` rebuilds the rows of the left
    operand from its triangle and writes the product over ``H``'s upper
    triangle.  Each power is added into the running sum before the next
    product overwrites it, and a Horner step adds ``A`` to the product's
    upper triangle before mirroring it.  Besides the two arrays the sum
    holds two ``_ROW_BLOCK``-row strips while a product runs.  The flushed
    operands are ``x``, each power, ``A`` once summed and ``H`` before every
    Horner step but the first, whose ``H = A`` is flushed already.
    """
    x = operands.pop()
    if terms == 0:
        x.fill(0.0)
        np.fill_diagonal(x, 1.0)
        return x
    pair = _flush_tiny(x)
    del x
    n = pair.shape[0]
    sum_diag = np.diagonal(pair).copy()
    power_diag = sum_diag.copy()
    h = pair.copy()
    b = _split_length(terms)
    for _ in range(b - 1):
        _mirror_lower(_symmetric_product_into(pair, power_diag, h).T)
        _add_upper(pair, _flush_tiny(h))
        sum_diag += np.diagonal(h)
    if b > 1:
        _flush_tiny(pair.T, sum_diag)
        # y = x^b takes the place of x, and H starts from A
        power_diag[:] = np.diagonal(h)
        for i in range(0, n, _ROW_BLOCK):
            j = min(i + _ROW_BLOCK, n)
            pair[i:j, :i] = h[i:j, :i]
            np.copyto(pair[i:j, i:j], h[i:j, i:j], where=_TILE_UPPER.T[:j - i, :j - i])
            _sym_rows(pair.T, i, j, sum_diag, out=h[i:j])
    for step in range(terms // b - 1):
        if step:
            _flush_tiny(h)
        _add_upper(_symmetric_product_into(pair, power_diag, h), pair)
        h.reshape(-1)[::n + 1] += sum_diag
        _mirror_lower(h.T)
    del pair
    h.reshape(-1)[::n + 1] += 1.0
    return h


def _whitened_contraction(err: np.ndarray, chol: _BandCholesky, e_norm: float,
                          b_inv_norm: float) -> float:
    """``q = ||B^-1 E||_2`` for ``B = L L^T`` (``chol``) and ``E = err``.

    From ``_KRYLOV_MIN_N`` rows up, Lanczos on the implicit operator
    ``v -> B^-1 (E v)``, ``u -> E (B^-1 u)``: one product with ``E`` (from
    one triangle, :func:`_symmetric_matvec`) and one band solve
    (``dpbtrs``) each way.  Below it, or if ARPACK fails,
    :func:`krylov_norm` of ``B^-1 E`` formed by the two blocked solves of a
    copy of ``E``.
    """
    if e_norm == 0.0:
        return 0.0
    n = err.shape[0]
    if n >= _KRYLOV_MIN_N:
        err_times = _symmetric_matvec(err)
        q = _lanczos_norm(n, lambda v: chol.solve_vector(err_times(v)),
                          lambda u: err_times(chol.solve_vector(u)), e_norm * b_inv_norm)
        if q is not None:
            return q
    prod = chol.solve(chol.solve(err.copy()), upper=True)
    return krylov_norm(_flush_tiny(prod))


def neumann_inverse(c: BlockWindow, m: int, terms: int) -> NeumannResult:
    """Approximate ``C^{-1}`` by a Neumann series around the banded truncation.

    Writes ``C = B_M + E`` straight from the window: ``E`` is a copy of it
    with the blocks within ``m`` lags zeroed, and ``B_M`` is read into LAPACK
    lower band storage (:func:`_lower_band`); no dense ``B_M`` is formed.
    It sums ``sum_{s<=terms} (-B_M^{-1} E)^s B_M^{-1}`` in the whitened
    coordinates of the band Cholesky factor ``B_M = L L^T`` (``dpbtrf``):
    ``K = L^-1 E L^-T`` is formed in ``E``'s own buffer by
    blocked banded solves, ``P = sum_{s<=terms} (-K)^s`` is a split sum
    (Paterson and Stockmeyer's baby steps and giant steps,
    :func:`_neumann_sum`) with symmetric products only, ``(b - 1) + (terms /
    b - 1)`` of them for the divisor ``b`` of ``terms`` that makes them
    fewest, 3 for 6 terms, 5 for 12 and 7 for 20, where Horner's rule takes
    one per term but the first (a prime count falls back to Horner), and the
    result is ``L^-T P L^-1``, from two more solves in ``P``'s buffer.  No
    dense ``B_M^-1`` is formed, and the sum keeps its running sum and its
    power in the two triangles of one buffer, so besides the window the call
    holds two n x n arrays and a few strips at once, for every term count.

    The truncation must be SPD.  For an SPD window ``C`` that is no loss:
    ``B_M^-1 C`` is similar to ``C^1/2 B_M^-1 C^1/2``, which by Sylvester's
    law of inertia has a negative eigenvalue when ``B_M`` has one, so
    ``B_M^-1 E = B_M^-1 C - I`` has one below ``-1`` and the series cannot
    contract.  An indefinite truncation is refused when ``dpbtrf`` breaks
    down, or else from the extremes of its band, before any O(n^3) step.

    The certificate bounds the dropped tail by the geometric series
    ``||B_M^{-1}|| q^{terms+1} / (1 - q)`` with ``q = ||B_M^{-1} E||_2``
    computed on the window; ``||E||_2`` comes from Lanczos
    (:func:`krylov_norm`, one triangle of ``E`` a product), ``q`` from
    Lanczos on an implicit operator on the factor, the extremes of ``B_M``
    from its band and factor (:func:`_band_extremes`: Lanczos on ``B_M`` and
    on ``B_M^-1`` from 512 rows up, one band eigensolve below).  None of
    them depends on how the series is summed.

    Raises:
        InputError: if the window is not symmetric or ``m`` or ``terms`` is
            not an integer.
        DomainError: if ``m`` or ``terms`` is negative.
        DivergenceError: if the banded truncation is not positive definite
            (``contraction_norm`` is ``inf``) or ``q >= 1`` (the offending
            product norm is attached).
    """
    if not c.symmetric:
        raise InputError("neumann_inverse: window must be symmetric")
    check_count(m, "m", "neumann_inverse")
    check_count(terms, "terms", "neumann_inverse")
    flat = c.flatten()
    p = c.p
    # E = C - B_M: the window with its blocks within m lags zeroed block row
    # by block row (+0.0, as the subtraction x - x gives)
    err = flat.copy()
    for i in range(c.length):
        err[i * p:(i + 1) * p, max(i - m, 0) * p:(i + m + 1) * p] = 0.0
    band = _lower_band(flat, p, m)
    chol = _BandCholesky.factor(band)
    # the certificate reads the extremes of B_M, taken from its band
    rng = _band_extremes(band, chol) if chol is not None else None
    del band
    if rng is None or not rng.is_spd():
        raise DivergenceError(
            f"neumann_inverse: banded truncation at bandwidth {m} is not positive definite",
            contraction_norm=math.inf)
    n = flat.shape[0]
    b_inv_norm = 1.0 / rng.lambda_min
    # ||E|| and q are taken before E is overwritten by K; E is exactly
    # symmetric, so its spectral norm is its largest |eigenvalue|
    e_norm = krylov_norm(err, symmetric=True)
    q = _whitened_contraction(err, chol, e_norm, b_inv_norm)
    if q >= 1.0:
        raise DivergenceError(
            f"neumann_inverse: series does not contract, ||B^-1 (C - B)|| = {q:.4f}",
            contraction_norm=q)
    # K = L^-1 E L^-T = L^-1 (L^-1 E)^T, in E's buffer, made exactly
    # symmetric from one triangle, and negated into x = -K
    _transpose_in_place(chol.solve(err))
    _mirror_lower(chol.solve(err))
    operands = [np.negative(err, out=err)]
    del err
    approx_flat = _neumann_sum(operands, terms)
    # L^-T P L^-1 = L^-T (L^-T P)^T, in P's buffer
    _transpose_in_place(chol.solve(approx_flat, upper=True))
    _mirror_lower(chol.solve(approx_flat, upper=True))
    c_norm = rng.lambda_max + e_norm
    approx = BlockWindow._adopt(approx_flat, c.p, t_lo=c.t_lo)
    tail = b_inv_norm * q ** (terms + 1) / (1.0 - q)
    # ||C^-1|| <= ||B^-1||/(1-q), so a conservative allowance for the
    # rounding of the factor of B_M, of the series products and of any
    # dense reference inverse is
    inv_bound = b_inv_norm / (1.0 - q)
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

    Raises:
        InputError: a nan or non-numeric ``u``, or a ``bool`` or non-integer
            ``max_lag`` or ``pad``.
        DomainError: a negative ``max_lag`` or ``pad``.
    """
    _check_us(u, "stationary_inverse_sequence")
    check_count(max_lag, "max_lag", "stationary_inverse_sequence")
    if pad is None:
        pad = cov_pad(model)
    check_count(pad, "pad", "stationary_inverse_sequence")
    half = max_lag + pad
    window = stationary_window(model, u, -half, half)
    p = window.p
    inv = window._release()
    _spd_inverse_in_place(inv, "stationary_inverse_sequence: window")
    return _centre_row(inv, p, half, max_lag)


#: The FFT grid of :func:`_fft_lags` is accepted once its mid-band lags fall
#: below this fraction of the largest lag-0 entry.
_ALIAS_RTOL = 1e-14
#: Largest grid :func:`_fft_lags` doubles to.
_MAX_GRID = 2**16


def _wiener_lags(model: ModelSpec, us: np.ndarray, m: int, symbol=None):
    """The ``m`` aliased lags ``sum_j D_{r + jm}(u)``, ``r = 0..m-1``, of the
    symbol ``f^-1`` or, when given, of ``symbol(f^-1)`` at every ``u``
    (shape ``(len(us), m) + trailing``), the mask of the ``u`` whose symbol
    passed the screen of ``_inverse_spectrum``, and the mask of those whose
    mid-band lags ``m/4 <= r <= 3m/4`` stay within ``_ALIAS_RTOL`` of the
    largest entry of ``D_0``.

    ``symbol`` maps the ``(len(us), m//2 + 1, p, p)`` stack of ``f^-1`` on
    the half grid to a stack of the same two leading axes."""
    g, screened = _inverse_spectrum(model, us, m)
    if symbol is not None:
        g = symbol(g)
    # D_r = m^-1 sum_k g(omega_k) e^{-i r omega_k}: the inverse real FFT of
    # the conjugate, whose Hermitian extension covers k > m/2
    lags = np.fft.irfft(g.conj(), n=m, axis=1)
    mid = np.abs(lags[:, m // 4:3 * m // 4 + 1]).reshape(us.size, -1).max(axis=1)
    lag0 = np.abs(lags[:, 0]).reshape(us.size, -1).max(axis=1)
    clean = screened & (mid <= _ALIAS_RTOL * lag0)
    return lags, screened, clean


def _fft_lags(model: ModelSpec, us, max_lag: int, dense, symbol=None) -> np.ndarray:
    """Lags ``r = 0..max_lag`` of a frozen symbol built from ``f(.; u)^-1``
    at every ``u`` of ``us``, shape ``(len(us), max_lag + 1) + trailing``,
    by one inverse FFT on the grid ``omega_k = 2 pi k / M``
    (:func:`_wiener_lags`, which also says what ``symbol`` is).

    The sum gives the aliased lags ``sum_j D_{r + jM}``.  ``M`` is the least
    power of two ``>= 8 (J + max_lag + 1)``, ``J`` the transfer order,
    doubled (up to ``2**16``) until at every ``u`` the largest entry of the
    mid-band lags ``M/4 <= r <= 3M/4``, which estimate the aliasing of the
    lags up to ``max_lag``, is at most ``1e-14`` of the largest entry of
    ``D_0``.  No pad and no dense inverse.

    A ``u`` whose symbol the screen of ``_inverse_spectrum`` refuses, or
    whose lags still alias at ``2**16``, is left to ``dense(u)``, the dense
    path, which returns its lags or decides with its own refusals.

    Raises:
        UnsupportedFamilyError: for SRE models.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    m = 1 << (8 * (_transfer_order(model) + max_lag + 1) - 1).bit_length()
    lags, screened, clean = _wiener_lags(model, us, m, symbol)
    while np.any(screened & ~clean) and m < _MAX_GRID:
        m *= 2
        lags, screened, clean = _wiener_lags(model, us, m, symbol)
    out = lags[:, :max_lag + 1]
    for i in np.flatnonzero(~clean):
        out[i] = dense(us[i])
    return out


def _frozen_inverse_lags(model: ModelSpec, us, max_lag: int) -> np.ndarray:
    """``D_r(u)`` for ``r = 0..max_lag`` at every ``u`` of ``us``, shape
    ``(len(us), max_lag + 1, p, p)``, by one FFT of the inverse symbol.

    The bi-infinite Toeplitz inverse has the symbol ``f(.; u)^-1``, so
    ``D_r(u) = (2 pi)^-1 int f(omega; u)^-1 e^{-i r omega} d omega``; the
    grid and its doubling are those of :func:`_fft_lags`.  A ``u`` the FFT
    path leaves is taken by the dense :func:`stationary_inverse_sequence`.

    Raises:
        UnsupportedFamilyError: for SRE models.
    """
    return _fft_lags(model, us, max_lag,
                     lambda u: stationary_inverse_sequence(model, u, max_lag))


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
    """
    _check_window(n, t_lo, t_hi, "inverse_smoothness_gap")
    kappa = _kappa_or_raise(model, kappa)
    dn = model_inverse_window(model, n, t_lo, t_hi)
    length = dn.base.length
    times = np.arange(t_lo, t_lo + length)
    # one frozen sequence per row time t, two-sided over r = t - tau
    frozen = two_sided(_frozen_inverse_lags(model, times / n, length - 1))
    return pair_gaps(
        times, dn.base.blocks, frozen,
        lambda r: zeta(r) ** (kappa - 2.0) * np.minimum(1.0 / n, 2.0 * zeta(r)))


def inverse_lipschitz_gap(model: ModelSpec, u: float, v: float, max_lag: int,
                          kappa: float | None = None) -> GapReport:
    """Lipschitz gap ``||D_r(u) - D_r(v)||`` against ``|u-v| zeta(r)^(kappa-1)``;
    a nan or non-numeric ``u`` or ``v`` raises :class:`InputError`."""
    _check_us([u, v], "inverse_lipschitz_gap")
    check_count(max_lag, "max_lag", "inverse_lipschitz_gap")
    kappa = _kappa_or_raise(model, kappa)
    seq_u, seq_v = two_sided(_frozen_inverse_lags(model, [u, v], max_lag))
    lags = np.arange(-max_lag, max_lag + 1)
    return GapReport(indices=lags.tolist(),
                     measured=block_norms(seq_u - seq_v),
                     bound=abs(u - v) * zeta(lags) ** (kappa - 1.0))
