"""Independent oracles for the outputs of the benchmark's generated workloads.

Each oracle reaches its answer by another route than the package: Cholesky
solves instead of ``inv``, the moving-average design matrix instead of the
lag convolution, Yule-Walker and mean-square recursions, the Lyapunov
solution of a frozen autoregression, and discrete Fourier inversion of the
transfer function.  They run outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from nonstatcov.models import TvARCH, TvVAR, TvVMA
from nonstatcov.verification import regression_residual_oracle

#: Relative tolerances, stated once.  Round-off of the compared paths sits
#: near 1e-13; the tolerances leave room for BLAS kernels and thread counts.
WINDOW_RTOL = 1e-9
INVERSE_RTOL = 1e-8
PARTIAL_RTOL = 1e-8
SPECTRAL_RTOL = 1e-8


def rel_err(got, want) -> float:
    """Max absolute difference relative to the largest reference entry."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    return float(np.abs(got - want).max(initial=0.0)) / scale


# ---------------------------------------------------------------------------
# covariance windows of the observed array
# ---------------------------------------------------------------------------

def _vma_design(model: TvVMA, n: int, t_lo: int, length: int) -> np.ndarray:
    """Design matrix ``M`` with ``X = M eps`` over the window; ``C = M M^T``."""
    p, j_max = model.p, model.order
    m = np.zeros((length * p, (length + j_max) * p))
    for i in range(length):
        stack = model.psi_stack_array((t_lo + i) / n, n)
        for j in range(j_max + 1):
            col = i - j + j_max
            m[i * p:(i + 1) * p, col * p:(col + 1) * p] = stack[j]
    return m


def window_error(model, n: int, window) -> float:
    """Relative error of a covariance window against its family's oracle."""
    length, p, t_lo = window.length, window.p, window.t_lo
    blocks = window.blocks
    if isinstance(model, TvVMA):
        design = _vma_design(model, n, t_lo, length)
        return rel_err(window.flatten(), design @ design.T)
    if isinstance(model, TvVAR):
        # Yule-Walker: C[t, tau] = sum_j Phi_j(t) C[t-j, tau] for tau < t,
        # and the same plus Sigma(t) at tau = t.
        d = model.order
        scale = max(float(np.abs(blocks).max()), 1e-300)
        worst = 0.0
        for i in range(d, length):
            phi = model.phi_stack((t_lo + i) / n)
            pred = sum(np.einsum("ab,jbc->jac", phi[j - 1], blocks[i - j, :i + 1])
                       for j in range(1, d + 1))
            pred[i] += model.sigma_at((t_lo + i) / n)
            worst = max(worst, float(np.abs(blocks[i, :i + 1] - pred).max()))
        return worst / scale
    if isinstance(model, TvARCH):
        d = model.order
        diag = blocks[np.arange(length), np.arange(length), 0, 0]
        off = blocks[..., 0, 0] - np.diag(diag)
        worst = float(np.abs(off).max())
        for i in range(d, length):
            a = model.a_values((t_lo + i) / n)
            want = a[0] + sum(a[j] * diag[i - j] for j in range(1, d + 1))
            worst = max(worst, abs(diag[i] - want))
        return worst / max(float(diag.max()), 1e-300)
    raise TypeError(f"no window oracle for {type(model).__name__}")


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def dense_inverse(window) -> np.ndarray:
    """Inverse of a symmetric positive definite window through Cholesky."""
    flat = window.flatten()
    factor = scipy.linalg.cho_factor(flat)
    inv = scipy.linalg.cho_solve(factor, np.eye(flat.shape[0]))
    return 0.5 * (inv + inv.T)


def interior_inverse_error(window, pad: int, interior, inv: np.ndarray) -> float:
    """Relative error of the returned interior against the Cholesky inverse."""
    p = window.p
    lo, hi = pad * p, (window.length - pad) * p
    return rel_err(interior.flatten(), inv[lo:hi, lo:hi])


def neumann_true_error(approx, inv: np.ndarray) -> float:
    """Spectral-norm distance of the Neumann approximation to the inverse."""
    diff = approx.flatten() - inv
    return float(np.abs(scipy.linalg.eigvalsh(0.5 * (diff + diff.T))).max())


def partial_pair_error(window, pair, pad: int) -> float:
    """Schur partial covariance against the regression-residual oracle."""
    length, p = window.length, window.p
    a, b = pair.a, pair.b
    keep = np.concatenate([np.arange(length) * p + a, np.arange(length) * p + b])
    others = [o for o in range(p) if o not in (a, b)]
    drop = np.concatenate([np.arange(length) * p + o for o in others]) \
        if others else np.array([], dtype=int)
    oracle = regression_residual_oracle(window.flatten(), keep, drop)
    inner = slice(pad, length - pad)
    want = np.empty(pair.deltas.shape)
    for i in range(2):
        for j in range(2):
            quad = oracle[i * length:(i + 1) * length, j * length:(j + 1) * length]
            want[:, :, i, j] = quad[inner, inner]
    return rel_err(pair.deltas, want)


# ---------------------------------------------------------------------------
# frozen-time quantities
# ---------------------------------------------------------------------------

def _var1_lyapunov_lags(model: TvVAR, u: float, max_lag: int) -> np.ndarray:
    """``C_r(u) = Phi^r C_0`` with ``C_0`` from the discrete Lyapunov equation."""
    if model.order != 1:
        raise TypeError("Lyapunov oracle covers first-order autoregressions")
    phi = model.phi_stack(u)[0]
    out = np.empty((max_lag + 1, model.p, model.p))
    out[0] = scipy.linalg.solve_discrete_lyapunov(phi, model.sigma_at(u))
    for r in range(1, max_lag + 1):
        out[r] = phi @ out[r - 1]
    return out


def _vma_fourier_lags(model: TvVMA, u: float, max_lag: int) -> np.ndarray:
    """``C_r(u)`` by discrete Fourier inversion of ``T(w) T(w)^H``.

    ``f`` is a trigonometric polynomial of degree ``J``; with more than
    ``2 J + max_lag`` nodes the inversion is exact up to round-off.
    """
    stack = model.psi_stack(u)
    nodes = 2 * (model.order + max_lag) + 2
    omegas = 2.0 * math.pi * np.arange(nodes) / nodes
    phases = np.exp(1j * np.outer(omegas, np.arange(stack.shape[0])))
    transfer = np.einsum("wj,jab->wab", phases, stack)
    dens = transfer @ transfer.conj().transpose(0, 2, 1)
    back = np.exp(-1j * np.outer(np.arange(max_lag + 1), omegas)) / nodes
    return np.einsum("rw,wab->rab", back, dens).real


def frozen_lags(model, u: float, max_lag: int) -> np.ndarray:
    """Frozen autocovariances ``C_r(u)``, ``r = 0..max_lag``."""
    if isinstance(model, TvVMA):
        return _vma_fourier_lags(model, u, max_lag)
    if isinstance(model, TvVAR):
        return _var1_lyapunov_lags(model, u, max_lag)
    if isinstance(model, TvARCH):
        a = model.a_values(u)
        m = a[0]
        for _ in range(2000):
            m = a[0] + float(np.sum(a[1:])) * m
        out = np.zeros((max_lag + 1, 1, 1))
        out[0, 0, 0] = m
        return out
    raise TypeError(f"no frozen-lag oracle for {type(model).__name__}")


def _density_from_lags(model, u: float, omegas) -> np.ndarray:
    """``f(w; u) = sum_r C_r(u) e^{i r w}`` from the lag convolution / Lyapunov lags."""
    if isinstance(model, TvVMA):
        stack = model.psi_stack(u)
        k = stack.shape[0]
        lags = np.stack([np.einsum("jab,jcb->ac", stack[r:], stack[:k - r])
                         for r in range(k)])
    else:
        lags = _var1_lyapunov_lags(model, u, 200)
    r = np.arange(1, lags.shape[0])
    z = np.exp(1j * np.outer(omegas, r))
    pos = np.einsum("wr,rab->wab", z, lags[1:])
    return lags[0] + pos + np.conj(pos).transpose(0, 2, 1)


def eig_range(model, u_grid, omega_grid) -> tuple[float, float]:
    lo, hi = math.inf, -math.inf
    for u in u_grid:
        vals = np.linalg.eigvalsh(_density_from_lags(model, u, omega_grid))
        lo = min(lo, float(vals[:, 0].min()))
        hi = max(hi, float(vals[:, -1].max()))
    return lo, hi


def coherence(model, u: float, a: int, b: int, omegas) -> np.ndarray:
    gamma = np.linalg.inv(_density_from_lags(model, u, omegas))
    return -gamma[:, a, b] / np.sqrt(gamma[:, a, a].real * gamma[:, b, b].real)
