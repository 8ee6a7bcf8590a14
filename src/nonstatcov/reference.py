"""Bundled reference models used by the verification battery and demos.

Every builder is deterministic, so experiments referencing these models by
name reproduce byte-identically.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InputError
from .models import (SRE, TvARCH, TvVAR, TvVMA, affine_fn, constant_fn,
                     sinusoidal_fn)


def vma_truncation(kappa: float, tail_tol: float = 1e-13) -> int:
    """Smallest J with a certified covariance tail below ``tail_tol``.

    The lag-j coefficient envelope ``gu(j)^(-kappa)`` gives a covariance
    tail ``sum_{j>J} j^(-2 kappa) <= J^(1-2 kappa)/(2 kappa - 1)``.

    Raises:
        DomainError: if ``kappa <= 1``, where the tail does not converge.
    """
    if kappa <= 1:
        raise DomainError("vma_truncation: requires kappa > 1")
    j = 4.0
    while j ** (1.0 - 2.0 * kappa) / (2.0 * kappa - 1.0) > tail_tol:
        j += 1.0
    return int(j)


def reference_tvvma(p: int = 2, kappa: float = 4.0, scale: float = 0.5,
                    with_correction: bool = True) -> TvVMA:
    """Sinusoidally modulated vector moving average with a polynomial
    coefficient envelope of exponent ``kappa``.

    Lag 0 is the identity; lag ``j >= 1`` is
    ``(0.9 + 0.1 sin(2 pi u)) * scale * j^(-kappa) * R`` with a fixed mixing
    matrix ``R``.  With ``with_correction`` the observed array additionally
    carries a ``cos(2 pi u)/N`` adjustment of the lag-0 coefficient, so the
    innovation variance genuinely differs from its frozen-time limit at
    rate 1/N.
    """
    mix = np.array([[0.8, 0.3], [-0.3, 0.8]])
    if p == 1:
        mix = np.array([[1.0]])
    elif p != 2:
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        mix = 0.85 * q
    j_max = vma_truncation(kappa)
    psis = [constant_fn(np.eye(p))]
    corrections = [sinusoidal_fn(np.zeros((p, p)), 0.3 * np.eye(p), phase=0.25)]
    for j in range(1, j_max + 1):
        amp = scale * float(j) ** (-kappa)
        psis.append(sinusoidal_fn(0.9 * amp * mix, 0.1 * amp * mix))
        corrections.append(constant_fn(np.zeros((p, p))))
    return TvVMA(p=p, psis=tuple(psis), kappa=kappa,
                 n_correction=tuple(corrections) if with_correction else None)


def reference_tvvar3() -> TvVAR:
    """p = 3 first-order autoregression with sinusoidal cross-coupling.

    Built for the partial-coherence checks: components 0 and 1 interact
    both directly and through component 2.
    """
    base = np.array([
        [0.30, 0.12, 0.08],
        [0.00, 0.25, 0.10],
        [0.10, 0.05, 0.30],
    ])
    amp = np.array([
        [0.05, 0.06, 0.00],
        [0.04, 0.05, 0.03],
        [0.00, 0.04, 0.05],
    ])
    sigma_base = np.array([
        [1.00, 0.20, 0.00],
        [0.20, 1.00, 0.15],
        [0.00, 0.15, 1.00],
    ])
    sigma_amp = 0.15 * np.eye(3)
    return TvVAR(p=3,
                 phis=(sinusoidal_fn(base, amp),),
                 sigma=sinusoidal_fn(sigma_base, sigma_amp))


def reference_sre(p: int = 2) -> SRE:
    """Random-coefficient recurrence with second-moment bound 0.25.

    ``sup_u ||E[A(u, e) A(u, e)^T]||_2 = sup_u (a(u)^2 + 0.15^2) <= 0.225``
    since the fixed matrix has unit spectral norm.
    """
    a0 = np.array([[0.9, 0.3], [-0.2, 0.8]]) if p == 2 else np.eye(p)
    a0 = a0 / np.linalg.norm(a0, 2)
    return SRE(p=p,
               a_scale=sinusoidal_fn([[0.35]], [[0.10]]),
               a_noise=0.15,
               a_matrix=a0,
               b_scale=affine_fn([[0.8]], [[0.2]]))


def reference_tvarch(order: int = 2) -> TvARCH:
    """Univariate ARCH with slowly varying intercept and load 0.45."""
    coeffs = [sinusoidal_fn([[0.5]], [[0.2]])]
    weights = np.array([0.30, 0.15, 0.10, 0.05])[:order]
    weights = 0.45 * weights / weights.sum()
    for w in weights:
        coeffs.append(affine_fn([[w]], [[0.0]]))
    return TvARCH(coeffs=tuple(coeffs))


def ar1_model(phi: float = 0.5, sigma2: float = 1.0) -> TvVAR:
    """Frozen scalar AR(1); the analytic oracle of the test suite."""
    return TvVAR(p=1, phis=(constant_fn([[phi]]),),
                 sigma=constant_fn([[sigma2]]))


def white_noise_model(p: int = 2, sigma: np.ndarray | None = None) -> TvVMA:
    """Order-0 moving average: independent Gaussian vectors."""
    root = np.eye(p) if sigma is None else np.linalg.cholesky(np.asarray(sigma))
    return TvVMA(p=p, psis=(constant_fn(root),))


REFERENCE_BUILDERS = {
    "tvvma_kappa4_p2": lambda: reference_tvvma(),
    "tvvma_kappa4_p1": lambda: reference_tvvma(p=1),
    "tvvma_plain_p2": lambda: reference_tvvma(with_correction=False),
    "tvvar1_p3": reference_tvvar3,
    "sre_p2": reference_sre,
    "tvarch_order2": reference_tvarch,
    "ar1_phi05": ar1_model,
    "white_noise_p2": lambda: white_noise_model(2),
}


def get_reference_model(name: str):
    """A fresh instance of the bundled model ``name``.

    Raises:
        InputError: if ``name`` is not in :data:`REFERENCE_BUILDERS`.
    """
    try:
        return REFERENCE_BUILDERS[name]()
    except KeyError:
        raise InputError(f"unknown reference model {name!r}; available: "
                         f"{sorted(REFERENCE_BUILDERS)}") from None
