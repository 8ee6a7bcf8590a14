"""Schur-complement partial covariances and local partial spectral
coherence.

The partial covariance of components ``(a, b)`` conditions on every lag of
every other component.  On a finite window the conditioning set is the
restriction of those components to the padded window; decay of the inverse
makes the edge contamination negligible in the reported interior.
Component indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InputError, ModelError, check_count, check_size
from .inverse_analysis import _fft_lags, _kappa_or_raise
from .models import (ModelSpec, _check_omegas, _check_us, _check_window, _densities,
                     cov_pad, cov_window, stationary_window)
from .operator_core import (BlockWindow, SPD_RTOL, block_norms, schur_complement,
                            zeta)
from .reports import GapReport, pair_gaps, two_sided


@dataclass(frozen=True)
class PartialPair:
    """Partial covariance of a component pair over an interior window.

    ``deltas[i, j]`` is the 2x2 partial covariance matrix between times
    ``t_lo + i`` and ``t_lo + j`` of the residual pair ``(a, b)``.
    """

    a: int
    b: int
    t_lo: int
    deltas: np.ndarray
    conditioning_set: tuple[int, ...]

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        if d.ndim != 4 or d.shape[0] != d.shape[1] or d.shape[2:] != (2, 2):
            raise InputError(f"PartialPair: bad delta shape {d.shape}")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "deltas", d)

    @property
    def length(self) -> int:
        return self.deltas.shape[0]

    def delta(self, t: int, tau: int) -> np.ndarray:
        return self.deltas[t - self.t_lo, tau - self.t_lo]


def _component_rows(length: int, p: int, components) -> np.ndarray:
    """Rows of ``components`` in a time-major window, component by component."""
    return (np.asarray(components, dtype=int)[:, None]
            + np.arange(length) * p).ravel()


def _schur_on_rows(flat: np.ndarray, keep: np.ndarray,
                   drop: np.ndarray) -> np.ndarray:
    """Schur complement of the ``keep`` rows with the ``drop`` rows
    projected out; symmetric, as ``flat`` is."""
    css = flat[np.ix_(keep, keep)]
    if drop.size == 0:
        return css
    return schur_complement(css, flat[np.ix_(keep, drop)], flat[np.ix_(drop, drop)],
                            what="partial covariance: conditioning block")


def _check_components(components: tuple[int, ...], p: int, what: str) -> None:
    for x in components:
        check_count(x, "component", what, signed=True)
    if not all(0 <= x < p for x in components) or \
            len(set(components)) < len(components):
        label = ", ".join(str(x) for x in components)
        label = f"pair ({label})" if len(components) == 2 else label
        raise InputError(f"{what}: bad component {label} for p={p}")


def _partial_schur(c: BlockWindow, components: tuple[int, ...], pad: int,
                   what: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Partial covariance of ``components`` given every other component.

    Returns the ``(k, L', k, L')`` array, ``k = len(components)`` and ``L'``
    the interior length after ``pad`` times are cut on each side, whose
    entry ``[i, t, j, tau]`` pairs ``components[i]`` at interior time ``t``
    with ``components[j]`` at ``tau``; and the conditioning components.
    ``what`` names the caller in error messages.
    """
    p, length = c.p, c.length
    _check_components(components, p, what)
    if not c.symmetric:
        raise InputError(f"{what}: window must be symmetric")
    check_count(pad, "pad", what)
    if length - 2 * pad < 1:
        raise InputError(f"{what}: pad leaves no interior")
    others = tuple(sorted(set(range(p)) - set(components)))
    schur = _schur_on_rows(c.flatten(), _component_rows(length, p, components),
                           _component_rows(length, p, others))
    k = len(components)
    interior = slice(pad, length - pad)
    return (schur.reshape(k, length, k, length)[:, interior, :, interior],
            others)


def partial_cov_pair(c: BlockWindow, a: int, b: int, pad: int = 0) -> PartialPair:
    """Partial covariance of components ``(a, b)`` given all the others.

    With ``p = 2`` the conditioning set is empty and the raw pair
    covariance is returned.  ``pad`` interior times are discarded on each
    side of the window.

    Raises:
        InputError: a bad component, a non-symmetric window, a ``bool`` or
            non-integer ``pad``, or a pad that leaves no interior.
        DomainError: a negative ``pad``.
        ConditioningError: singular conditioning block.
    """
    schur, others = _partial_schur(c, (a, b), pad, "partial_cov_pair")
    return PartialPair(a=a, b=b, t_lo=c.t_lo + pad,
                       deltas=schur.transpose(1, 3, 0, 2),
                       conditioning_set=others)


def self_partial_cov(c: BlockWindow, a: int, pad: int = 0) -> np.ndarray:
    """Partial autocovariance of component ``a`` given all other components.

    Returns the interior ``L x L`` matrix of
    ``cov[residual a at t, residual a at tau]``; with ``p = 1`` this is the
    raw autocovariance.
    """
    return _partial_schur(c, (a,), pad, "self_partial_cov")[0][0, :, 0]


@dataclass(frozen=True)
class StationaryPartialPair:
    """Lag-indexed partial covariance of the frozen process at ``u``."""

    a: int
    b: int
    u: float
    max_lag: int
    deltas: np.ndarray          # (2*max_lag + 1, 2, 2), lag r = index - max_lag
    toeplitz_drift: float

    def delta(self, r: int) -> np.ndarray:
        if abs(r) > self.max_lag:
            raise InputError(f"StationaryPartialPair: lag {r} beyond {self.max_lag}")
        return self.deltas[r + self.max_lag]


def stationary_partial_pair(model: ModelSpec, u: float, a: int, b: int,
                            max_lag: int) -> StationaryPartialPair:
    """Partial covariance lags of the frozen process from a long section.

    ``toeplitz_drift`` records how far the interior of the windowed Schur
    complement is from exactly Toeplitz; it should sit at the pad
    truncation level (<= 1e-8 for the bundled models).

    Raises:
        InputError: a nan or non-numeric ``u``, a bad component pair, or a
            ``bool`` or non-integer ``max_lag``.
        DomainError: a negative ``max_lag``.
    """
    _check_us(u, "stationary_partial_pair")
    _check_components((a, b), model.p, "stationary_partial_pair")
    check_count(max_lag, "max_lag", "stationary_partial_pair")
    pad = cov_pad(model)
    half = max_lag + pad
    d = partial_cov_pair(stationary_window(model, u, -half, half), a, b,
                         pad=pad).deltas
    # lag convention r = t - tau: Delta_r sits at times (max_lag + r, max_lag);
    # the drift compares each with the same lag moved back by 1, 2 or 3 times
    drift = 0.0
    for shift in range(1, min(3, max_lag) + 1):
        moved = d[:2 * (max_lag - shift) + 1, max_lag - shift]
        ref = d[shift:2 * max_lag - shift + 1, max_lag]
        drift = max(drift, float(np.abs(moved - ref).max()))
    return StationaryPartialPair(a=a, b=b, u=u, max_lag=max_lag,
                                 deltas=d[:, max_lag].copy(), toeplitz_drift=drift)


def _partial_symbol(a: int, b: int):
    """The frozen partial spectral densities of ``(a, b)`` and of ``a`` from
    a stack ``g`` of ``f^-1``, packed along one last axis of 5: the four
    entries of ``inv(g[[a, b], [a, b]])`` (Dahlhaus, Metrika 51, 2000) in
    row-major order, then ``1 / g[a, a]``.

    The 2 x 2 inverse is the closed form ``[[g_bb, -g_ab], [-g_ba, g_aa]] /
    det`` from the diagonal and one off-diagonal entry, so it is exactly
    Hermitian.  Where the screen zeroed ``g`` the densities are zero too;
    those ``u`` go to the dense path."""
    def symbol(g: np.ndarray) -> np.ndarray:
        gaa, gbb, gab = g[..., a, a].real, g[..., b, b].real, g[..., a, b]
        det = gaa * gbb - (gab.real ** 2 + gab.imag ** 2)
        ok = det > 0.0
        inv_det = np.divide(1.0, det, out=np.zeros_like(det), where=ok)
        inv_aa = np.divide(1.0, gaa, out=np.zeros_like(gaa), where=ok)
        return np.stack([gbb * inv_det, -gab * inv_det, -gab.conj() * inv_det,
                         gaa * inv_det, inv_aa], axis=-1)
    return symbol


def _dense_partial_lags(model: ModelSpec, u: float, a: int, b: int,
                        max_lag: int) -> np.ndarray:
    """The dense path of :func:`_frozen_partial_lags` at one ``u``: the
    lags ``r = 0..max_lag`` of the centre column of the pair and self
    partials of one padded frozen window, packed as the FFT path packs them."""
    pad = cov_pad(model)
    half = max_lag + pad
    w = stationary_window(model, u, -half, half)
    pair = partial_cov_pair(w, a, b, pad=pad).deltas[max_lag:, max_lag]
    self_a = self_partial_cov(w, a, pad=pad)[max_lag:, max_lag]
    return np.concatenate([pair.reshape(-1, 4), self_a[:, None]], axis=1)


def _frozen_partial_lags(model: ModelSpec, us, a: int, b: int,
                         max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Frozen partial covariance lags at every ``u`` of ``us``, by one FFT
    of the partial spectral densities (:func:`_partial_symbol`) on the grid
    of :func:`~nonstatcov.inverse_analysis._fft_lags`.

    Returns the two-sided lags ``r = t - tau = -max_lag..max_lag`` (index
    ``r + max_lag``; negative lags are the transposes of positive ones) of
    the pair ``(a, b)`` given the other components, shape
    ``(len(us), 2 max_lag + 1, 2, 2)``, and of ``a`` given all the others,
    shape ``(len(us), 2 max_lag + 1, 1, 1)``.  A ``u`` the FFT path leaves
    goes to :func:`_dense_partial_lags`, which decides with its own refusals.

    Raises:
        UnsupportedFamilyError: for SRE models.
    """
    lags = _fft_lags(model, us, max_lag,
                     lambda u: _dense_partial_lags(model, u, a, b, max_lag),
                     _partial_symbol(a, b))
    lead = lags.shape[:2]
    return (two_sided(lags[..., :4].reshape(lead + (2, 2))),
            two_sided(lags[..., 4:].reshape(lead + (1, 1))))


@dataclass(frozen=True)
class PartialSmoothnessReport:
    """Array-versus-frozen and Lipschitz gaps of the partial covariances."""

    pair_gaps: GapReport
    self_gaps: GapReport
    pair_lipschitz: GapReport
    self_lipschitz: GapReport
    u_pair: tuple[float, float]


def partial_smoothness_gap(model: ModelSpec, n: int, a: int, b: int,
                           t_lo: int, t_hi: int,
                           kappa: float | None = None) -> PartialSmoothnessReport:
    """Partial-covariance smoothness gaps over an interior window.

    The array partials come from one padded covariance window: the pair
    ``(a, b)`` given the other components and ``a`` given all the others,
    each one Schur step.  Their frozen-time counterparts at every row time
    ``t/n`` and at the Lipschitz times ``u_pair``, the first and last row
    times, come in one batch from the FFT of the frozen partial
    spectral densities (:func:`_frozen_partial_lags`), with no window; a
    time the FFT path leaves is taken from one dense frozen window, as
    :func:`stationary_partial_pair` does.

    Pair and self gaps are measured against
    ``zeta(t-tau)^(kappa-2) * min(1/N, zeta(t-tau))``; the Lipschitz gaps
    between two rescaled times against ``|u-v| * zeta(r)^(kappa-1)``.

    Raises:
        InputError: a bad component pair, refused before any window is built.
    """
    _check_window(n, t_lo, t_hi, "partial_smoothness_gap")
    _check_components((a, b), model.p, "partial_smoothness_gap")
    kappa = _kappa_or_raise(model, kappa)
    pad = cov_pad(model)
    c = cov_window(model, n, t_lo - pad, t_hi + pad)
    pair = partial_cov_pair(c, a, b, pad=pad)
    # the self partials as 1 x 1 blocks, whose block norm is |x|
    self_a = self_partial_cov(c, a, pad=pad)[:, :, None, None]
    length = pair.length
    max_lag = length - 1

    u, v = t_lo / n, t_hi / n
    times = np.arange(t_lo, t_lo + length)
    frozen_pair, frozen_self = _frozen_partial_lags(model, [*times / n, u, v],
                                                    a, b, max_lag)

    def envelope(r):
        return zeta(r) ** (kappa - 2.0) * np.minimum(1.0 / n, zeta(r))

    pair_gap = pair_gaps(times, pair.deltas, frozen_pair[:length], envelope)
    self_gap = pair_gaps(times, self_a, frozen_self[:length], envelope)

    (pu, pv), (su, sv) = frozen_pair[length:], frozen_self[length:]
    lags = list(range(-max_lag, max_lag + 1))
    lip_bound = abs(u - v) * zeta(np.asarray(lags)) ** (kappa - 1.0)
    return PartialSmoothnessReport(
        pair_gaps=pair_gap, self_gaps=self_gap,
        pair_lipschitz=GapReport(indices=lags, measured=block_norms(pu - pv),
                                 bound=lip_bound),
        self_lipschitz=GapReport(indices=lags, measured=block_norms(su - sv),
                                 bound=lip_bound),
        u_pair=(u, v))


def partial_spectral_coherence(model: ModelSpec, u: float, a: int, b: int,
                               omega_grid) -> np.ndarray:
    """Local partial spectral coherence
    ``g_{a,b}(omega; u) = -G_ab / sqrt(G_aa G_bb)`` with ``G = f^{-1}``.

    Raises:
        InputError: a bad component pair, a nan or non-numeric ``u``, or a
            non-finite ``omega``.
        ModelError: if the spectral density is singular on the grid.
    """
    _check_components((a, b), model.p, "partial_spectral_coherence")
    fs = _densities(model, [u], omega_grid, "partial_spectral_coherence")[0]
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    vals = np.linalg.eigvalsh(fs)
    singular = vals[:, 0] <= SPD_RTOL * np.maximum(vals[:, -1], 1e-300)
    if np.any(singular):
        raise ModelError(f"partial_spectral_coherence: f singular at "
                         f"omega={omega_grid[np.argmax(singular)]:.4f}")
    gamma = np.linalg.inv(fs)
    return -gamma[:, a, b] / np.sqrt(gamma[:, a, a].real * gamma[:, b, b].real)


@dataclass(frozen=True)
class CoherenceGapReport:
    """Fourier-assembled partial coherence against the frozen coherence."""

    omega_grid: np.ndarray
    assembled: np.ndarray
    frozen: np.ndarray
    gaps: GapReport
    imag_residue: float
    truncation_tail: float

    @property
    def sup_gap(self) -> float:
        return float(self.gaps.measured.max())


def coherence_consistency_gap(model: ModelSpec, n: int, t_index: int,
                              a: int, b: int, omega_grid,
                              max_lag: int | None = None) -> CoherenceGapReport:
    """Assemble the local partial coherence from nonstationary partial
    covariances and compare with the frozen-coherence closed form.

    The assembled curve is
    ``sum_r rho^(ab)_{t,t+r} e^{i r omega}`` normalized by the principal
    square root of the product of the self sums; its gap to
    ``g_{a,b}(omega; t/N)`` is O(1/N) plus the Fourier truncation.

    Raises:
        InputError: a ``bool`` or non-integer ``n``, ``t_index`` or
            ``max_lag``, an empty ``omega_grid``, or a non-finite or
            non-numeric ``omega``.
        DomainError: ``n < 1`` or a negative ``max_lag``.
        ConditioningError: a denominator sum within 1e-8 of zero.
    """
    check_size(n, "coherence_consistency_gap")
    check_count(t_index, "t_index", "coherence_consistency_gap", signed=True)
    if max_lag is not None:
        check_count(max_lag, "max_lag", "coherence_consistency_gap")
    omega_grid = _check_omegas(omega_grid, "coherence_consistency_gap")
    if not omega_grid.size:
        raise InputError("coherence_consistency_gap: omega_grid must be nonempty")
    pad = cov_pad(model)
    if max_lag is None:
        max_lag = _default_fourier_lag(model, n, t_index, a, b, pad)
    c = cov_window(model, n, t_index - max_lag - pad, t_index + max_lag + pad)
    pair = partial_cov_pair(c, a, b, pad=pad)
    center = max_lag
    lags = np.arange(-max_lag, max_lag + 1)
    rho = np.stack([pair.deltas[center, center + r] for r in lags])
    tail = float(block_norms(rho[[0, -1]]).sum())

    phases = np.exp(1j * np.outer(omega_grid, lags))
    num = phases @ rho[:, 0, 1]
    da = phases @ rho[:, 0, 0]
    db = phases @ rho[:, 1, 1]
    imag_residue = float(max(np.abs(da.imag).max(), np.abs(db.imag).max()))
    den = np.sqrt(da * db)
    if np.any(np.abs(den) < 1e-8):
        raise ConditioningError("coherence_consistency_gap: denominator "
                                "Fourier sum vanishes")
    assembled = num / den
    # the sums run over pairs (t, t + r), i.e. lag -r in the t - tau
    # convention, so the frozen coherence enters at reversed frequency sign
    frozen = np.conj(partial_spectral_coherence(model, t_index / n, a, b,
                                                omega_grid))
    gap = np.abs(assembled - frozen)
    bound = np.full(omega_grid.shape, 1.0 / n + tail)
    gaps = GapReport(indices=list(omega_grid), measured=gap, bound=bound)
    return CoherenceGapReport(omega_grid=omega_grid, assembled=assembled,
                              frozen=frozen, gaps=gaps,
                              imag_residue=imag_residue, truncation_tail=tail)


def _default_fourier_lag(model: ModelSpec, n: int, t_index: int, a: int,
                         b: int, pad: int, cap: int = 80) -> int:
    """Smallest lag where the partial covariance norm drops below 1e-8."""
    c = cov_window(model, n, t_index - cap - pad, t_index + cap + pad)
    pair = partial_cov_pair(c, a, b, pad=pad)
    center = cap
    norms = block_norms(pair.deltas[center])
    # the larger norm at lags +r and -r, for r = 1..cap
    tails = np.maximum(norms[center + 1:], norms[:center][::-1])
    small = np.flatnonzero(tails < 1e-8 * max(float(norms[center]), 1e-300))
    return int(small[0]) + 1 if small.size else cap
