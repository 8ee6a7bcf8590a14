"""Autoregressive representations extracted from covariance windows.

The one-step prediction coefficients of the process live in the bottom row
of the inverse of the one-sided covariance section: with
``D = C([T-L, T])^{-1}``, the lag-``j`` coefficient is
``-(D_{T,T})^{-1} D_{T,T-j}`` and the innovation variance is
``(D_{T,T})^{-1}``.  Finite-order projections use the ``(d+1)``-block
section ``C([T-d, T])`` and are cross-checked against the block normal
equations on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, NonstatcovError
from .inverse_analysis import _kappa_or_raise
from .models import ModelSpec, _log_det_integral, cov_window, stationary_window
from .operator_core import BlockWindow, block_norms, block_view, spd_inverse, zeta
from .reports import GapReport

_DUAL_PATH_TOL = 1e-8
_KOLMOGOROV_POINTS = 4096     # quadrature nodes of the spectral log-integral


@dataclass(frozen=True)
class VarCoefficients:
    """Projection coefficients of one time point on its (finite) past."""

    t_index: int | None
    order: int
    phis: tuple[np.ndarray, ...]
    sigma: np.ndarray

    def __post_init__(self):
        sig = 0.5 * (self.sigma + self.sigma.T)
        vals = np.linalg.eigvalsh(sig)
        if vals[0] <= 0:
            raise ConditioningError("VarCoefficients: innovation variance "
                                    "is not positive definite")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "phis", tuple(np.asarray(p, dtype=float)
                                               for p in self.phis))

    @property
    def phi_stack(self) -> np.ndarray:
        """The coefficients as one ``(order, p, p)`` array."""
        return np.array(self.phis).reshape(self.order, *self.sigma.shape)

    def phi_norms(self) -> np.ndarray:
        return block_norms(self.phi_stack)


def _bottom_row_coeffs(window: BlockWindow, t_end: int, order: int,
                       t_index: int | None) -> VarCoefficients:
    inv, _, _ = spd_inverse(window.flatten(), "var coefficients: window")
    d = block_view(inv, window.p)
    i = t_end - window.t_lo
    sigma = np.linalg.inv(d[i, i])
    phis = tuple(-sigma @ d[i, i - j] for j in range(1, order + 1))
    return VarCoefficients(t_index=t_index, order=order, phis=phis, sigma=sigma)


def _normal_equation_coeffs(window: BlockWindow, t_end: int, order: int,
                            t_index: int | None) -> VarCoefficients:
    p = window.p
    gram = np.zeros((order * p, order * p))
    cross = np.zeros((p, order * p))
    for k in range(1, order + 1):
        cross[:, (k - 1) * p:k * p] = window.block(t_end, t_end - k)
        for j in range(1, order + 1):
            gram[(k - 1) * p:k * p, (j - 1) * p:j * p] = \
                window.block(t_end - k, t_end - j)
    try:
        phi_stack = np.linalg.solve(gram.T, cross.T).T
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("var_coeffs_finite: singular regressor "
                                "covariance") from exc
    sigma = window.block(t_end, t_end) - phi_stack @ cross.T
    phis = tuple(phi_stack[:, (j - 1) * p:j * p] for j in range(1, order + 1))
    return VarCoefficients(t_index=t_index, order=order, phis=phis, sigma=sigma)


def _check_dual_path(a: VarCoefficients, b: VarCoefficients) -> None:
    scale = 1.0 + block_norms(np.concatenate([a.sigma[None], a.phi_stack])).max()
    worst = block_norms(np.concatenate([(a.sigma - b.sigma)[None],
                                        a.phi_stack - b.phi_stack])).max()
    if worst > _DUAL_PATH_TOL * scale:
        raise NonstatcovError(
            f"var_coeffs_finite: inverse-row and normal-equation paths "
            f"disagree by {worst:.3e}")


def _finite_projection(name: str, window_of, t_end: int, order: int,
                       t_index: int | None) -> VarCoefficients:
    """Projection on the ``order`` lags before ``t_end``, by both paths."""
    if order < 0:
        raise DomainError(f"{name}: order must be >= 0")
    window = window_of(t_end - order, t_end)
    if order == 0:
        return VarCoefficients(t_index=t_index, order=0, phis=(),
                               sigma=window.block(t_end, t_end).copy())
    a = _bottom_row_coeffs(window, t_end, order, t_index)
    _check_dual_path(a, _normal_equation_coeffs(window, t_end, order, t_index))
    return a


def _past_depth(name: str, order: int, depth: int | None) -> int:
    depth = order + 100 if depth is None else depth
    if depth < order + 50:
        raise DomainError(f"{name}: depth must be >= order + 50")
    return depth


def var_coeffs_infinite(model: ModelSpec, n: int, t_index: int, order: int,
                        depth: int | None = None) -> VarCoefficients:
    """Leading coefficients of the infinite-past projection at ``t_index``.

    ``depth`` is the truncation of the semi-infinite past (default
    ``order + 100``); bottom-row blocks converge geometrically in it.

    Raises:
        DomainError: if ``depth < order + 50``.
    """
    depth = _past_depth("var_coeffs_infinite", order, depth)
    window = cov_window(model, n, t_index - depth, t_index)
    return _bottom_row_coeffs(window, t_index, order, t_index)


def var_coeffs_finite(model: ModelSpec, n: int, t_index: int, order: int) -> VarCoefficients:
    """Projection of ``X_T`` onto its ``order`` most recent lags.

    Computed from the bottom row of the inverse of the ``(order+1)``-block
    section and, independently, from the block normal equations; the two
    paths must agree to 1e-8.

    With ``order = 0`` the projection is empty and ``sigma = C_{T,T}``.
    """
    return _finite_projection("var_coeffs_finite",
                              lambda lo, hi: cov_window(model, n, lo, hi),
                              t_index, order, t_index)


def stationary_var_coeffs(model: ModelSpec, u: float, order: int) -> VarCoefficients:
    """Finite-order projection coefficients of the frozen process at ``u``."""
    return _finite_projection("stationary_var_coeffs",
                              lambda lo, hi: stationary_window(model, u, lo, hi),
                              0, order, None)


def stationary_var_coeffs_infinite(model: ModelSpec, u: float, order: int,
                                   depth: int | None = None) -> VarCoefficients:
    """Leading infinite-past coefficients of the frozen process at ``u``."""
    depth = _past_depth("stationary_var_coeffs_infinite", order, depth)
    window = stationary_window(model, u, -depth, 0)
    return _bottom_row_coeffs(window, 0, order, None)


@dataclass(frozen=True)
class BaxterReport:
    """Finite-order versus infinite-order coefficient gaps at one time."""

    order: int
    per_lag: GapReport
    summed: GapReport
    kappa_used: float


def baxter_gaps(model: ModelSpec, n: int, t_index: int, order: int,
                ref_order: int | None = None,
                kappa: float | None = None) -> BaxterReport:
    """Gaps between the order-``d`` projection and the infinite projection.

    Per-lag gaps are paired with the envelope
    ``zeta(d)^(kappa-3/2) * zeta(d-j)^(kappa-3/2)``; the summed gap with
    ``zeta(d)^(kappa-3/2)``.

    Raises:
        DomainError: if ``ref_order < order`` or the decay exponent is too
            small for the envelopes (``kappa <= 3/2``).
    """
    kappa = _kappa_or_raise(model, kappa)
    if kappa <= 1.5:
        raise DomainError("baxter_gaps: envelopes require kappa > 3/2")
    ref_order = max(order, 40) if ref_order is None else ref_order
    if ref_order < order:
        raise DomainError("baxter_gaps: ref_order must be >= order")
    finite = var_coeffs_finite(model, n, t_index, order)
    infinite = var_coeffs_infinite(model, n, t_index, ref_order)
    zd = float(zeta(order)) ** (kappa - 1.5)
    lags = np.arange(1, order + 1)
    measured = block_norms(finite.phi_stack - infinite.phi_stack[:order])
    bound = zd * zeta(order - lags) ** (kappa - 1.5)
    per_lag = GapReport(indices=lags.tolist(), measured=measured, bound=bound)
    summed = GapReport(indices=[order], measured=np.array([float(measured.sum())]),
                       bound=np.array([zd]))
    return BaxterReport(order=order, per_lag=per_lag, summed=summed,
                        kappa_used=kappa)


@dataclass(frozen=True)
class VarSmoothnessReport:
    """Innovation-variance and coefficient gaps to the frozen process."""

    t_index: int
    n: int
    sigma_gap: float
    sigma_constant: float       # sigma_gap * n
    phi_gaps: GapReport


def var_smoothness_gap(model: ModelSpec, n: int, t_index: int, order: int,
                       kappa: float | None = None) -> VarSmoothnessReport:
    """Distance from the array projection to the frozen-time projection.

    The innovation-variance gap is paired with the ``1/N`` envelope, the
    per-lag coefficient gaps with ``zeta(j)^(kappa-2) * min(2*zeta(j), 1/N)``.
    """
    kappa = _kappa_or_raise(model, kappa)
    array_fit = var_coeffs_infinite(model, n, t_index, order)
    frozen_fit = stationary_var_coeffs_infinite(model, t_index / n, order)
    sigma_gap = float(block_norms(array_fit.sigma - frozen_fit.sigma))
    lags = np.arange(1, order + 1)
    measured = block_norms(array_fit.phi_stack - frozen_fit.phi_stack)
    zj = zeta(lags)
    bound = zj ** (kappa - 2.0) * np.minimum(2.0 * zj, 1.0 / n)
    phi_gaps = GapReport(indices=lags.tolist(), measured=measured, bound=bound)
    return VarSmoothnessReport(t_index=t_index, n=n, sigma_gap=sigma_gap,
                               sigma_constant=sigma_gap * n, phi_gaps=phi_gaps)


@dataclass(frozen=True)
class KolmogorovGap:
    """Log-determinant of the innovation variance versus its spectral form."""

    lhs: float     # log det of the extracted innovation variance
    rhs: float     # (2 pi)^-1 integral of log det f(omega; T/N)
    gap: float


def kolmogorov_gap(model: ModelSpec, n: int, t_index: int,
                   depth: int | None = None) -> KolmogorovGap:
    """Innovation log-determinant against the spectral log-integral.

    Implements the classical identity
    ``log det Sigma = (2 pi)^{-1} int_0^{2 pi} log det f(omega; u) d omega``
    for the frozen process, evaluated against the array innovation variance
    at ``t_index``; the gap is O(1/N).  The integral is the mean of
    ``log det f`` over 4096 equispaced frequencies, from the transfer
    function on that grid (one FFT): for a TvVAR
    ``log det Sigma(u) - 2 log |det A(omega)|``, otherwise the Cholesky
    factors of ``f``.
    """
    depth = 150 if depth is None else depth
    coeffs = var_coeffs_infinite(model, n, t_index, order=1, depth=depth)
    sign, logdet = np.linalg.slogdet(coeffs.sigma)
    if sign <= 0:
        raise ConditioningError("kolmogorov_gap: innovation variance not SPD")
    rhs = _log_det_integral(model, t_index / n, _KOLMOGOROV_POINTS, "kolmogorov_gap")
    return KolmogorovGap(lhs=float(logdet), rhs=rhs, gap=abs(float(logdet) - rhs))
