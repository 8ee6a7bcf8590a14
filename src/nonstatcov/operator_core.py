"""Block-matrix containers, norms, banding, Schur complements and the SPD
kernels that every symmetric inversion goes through.

Everything in this package manipulates finite sections of doubly infinite
block matrices.  A section is a :class:`BlockWindow` of real ``p x p``
blocks indexed by a pair of absolute integer times.  It is stored as one
flat ``(L*p, L*p)`` matrix in time-major order (block row ``t`` occupies
rows ``(t - t_lo)*p .. (t - t_lo + 1)*p - 1``), the form every eigensolve
and inversion reads: ``flatten()`` returns it without a copy, and
``blocks`` is an ``(L, L, p, p)`` view of it (:func:`block_view`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConditioningError, DomainError, InputError, check_count

#: Relative eigenvalue threshold below which a symmetric matrix is treated
#: as singular (guards Schur complements and inverses against blowup).
SPD_RTOL = 1e-12

#: Largest accepted residual ``||C X - I||_inf`` of a computed SPD inverse.
SPD_RESIDUAL_TOL = 1e-8

#: Factor by which the certified condition bound of :func:`spd_inverse`, and
#: the certified eigenvalue ratio of :func:`_certified_cholesky`, must clear
#: ``SPD_RTOL`` to stand in for the exact eigenvalue guard.  It covers the
#: ``n * eps`` backward error of a Cholesky factorisation that succeeded (so
#: the matrix cannot be indefinite) and the rounding of the bound itself.
_BOUND_MARGIN = 1e3


def gu(j) -> np.ndarray | float:
    """max(1, |j|), the polynomial decay weight. Vectorized."""
    return np.maximum(1.0, np.abs(j))


def zeta(j) -> np.ndarray | float:
    """max(1, log max(1,|j|)) / max(1,|j|), the log-corrected decay weight.

    This is the clamped variant: the numerator never drops below 1, so
    ``zeta(0) == zeta(1) == 1`` and ``zeta(2) == 0.5``.  It is monotone
    nonincreasing in ``|j|`` from ``|j| = 1`` on.
    """
    g = gu(j)
    return np.maximum(1.0, np.log(g)) / g


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a real or complex matrix.

    Raises:
        InputError: if ``a`` contains non-finite entries.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        raise InputError("spectral_norm: non-finite entries in input")
    if a.ndim != 2:
        raise InputError(f"spectral_norm: expected a matrix, got ndim={a.ndim}")
    return float(np.linalg.norm(a, 2))


#: Blocks per chunk of :func:`block_norms`; its temporaries scale with it.
_NORM_CHUNK = 1 << 14


def block_norms(blocks: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of blocks, shape ``(..., p, q) -> (...)``.

    The one block spectral norm of the package.  A ``1 x 1`` block gives
    ``|a|``.  A larger block is first scaled by the power of two ``2**-e``
    that brings its largest ``|entry|`` into ``[1/2, 1)`` (exact), so no step
    can overflow, and its norm is scaled back at the end (to ``inf`` only if
    the norm itself exceeds the largest double).  Then:

    - ``2 x 2``: the closed form
      ``(hypot(a + d, b - c) + hypot(a - d, b + c)) / 2``, which squares no
      entry (so decayed entries cannot underflow) and gives the same bits
      for a block and its transpose;
    - larger: the square root of the top eigenvalue of the Gram matrix
      ``B^T B``, from one batched ``eigvalsh``.

    A batch of more than ``_NORM_CHUNK`` blocks goes in chunks of rows of
    its first axis, so the temporaries stay small; each block is computed
    alone, so chunking changes no bit.  Agrees with the largest singular
    value from an SVD to a few ulps.

    Raises:
        InputError: if a block holds a non-finite entry.
    """
    blocks = np.asarray(blocks, dtype=float)
    lead = blocks.shape[:-2]
    if math.prod(lead) <= _NORM_CHUNK:
        return _block_norms(blocks)
    rows = max(1, _NORM_CHUNK // math.prod(lead[1:]))
    out = np.empty(lead)
    for i in range(0, lead[0], rows):
        out[i:i + rows] = _block_norms(blocks[i:i + rows])
    return out


def _block_norms(blocks: np.ndarray) -> np.ndarray:
    """:func:`block_norms` of one chunk."""
    rows, cols = blocks.shape[-2:]
    # entry by entry over the batch: a reduction over the two short trailing
    # axes costs far more per block
    entries = [blocks[..., i, j] for i in range(rows) for j in range(cols)]
    top = functools.reduce(np.maximum, map(np.abs, entries))
    if not np.all(np.isfinite(top)):
        raise InputError("block_norms: non-finite entries")
    if rows == cols == 1:
        return top
    exponent = np.frexp(top)[1]
    if rows == cols == 2:
        a, b, c, d = (np.ldexp(entry, -exponent) for entry in entries)
        norms = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    else:
        scaled = np.ldexp(blocks, -exponent[..., None, None])
        gram = np.matmul(scaled.swapaxes(-1, -2), scaled)
        norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    return np.ldexp(norms, exponent)


@dataclass(frozen=True)
class EigRange:
    """Extremal eigenvalues of a symmetric operator section."""

    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        if self.lambda_min > self.lambda_max + 1e-15:
            raise InputError("EigRange: lambda_min exceeds lambda_max")

    def is_spd(self) -> bool:
        return self.lambda_min > SPD_RTOL * max(abs(self.lambda_max), 1e-300)

    @property
    def condition(self) -> float:
        if self.lambda_min <= 0:
            return math.inf
        return self.lambda_max / self.lambda_min


def block_view(flat: np.ndarray, p: int) -> np.ndarray:
    """``(L, L, p, p)`` view of a time-major ``(L*p, L*p)`` matrix:
    ``view[i, j]`` is the ``p x p`` block in block row ``i``, block column ``j``.

    Writing to the view writes to ``flat``.
    """
    length = flat.shape[0] // p
    return flat.reshape(length, p, length, p).transpose(0, 2, 1, 3)


def outside_band(length: int, p: int, m: int) -> np.ndarray:
    """Mask of the entries of a flat ``(L*p, L*p)`` window whose blocks lie
    more than ``m`` block lags off the diagonal."""
    block_of = np.arange(length * p) // p
    return np.abs(block_of[:, None] - block_of[None, :]) > m


def block_toeplitz(seq: np.ndarray, length: int) -> np.ndarray:
    """Flat ``(L*p, L*p)`` block Toeplitz matrix of a lag sequence.

    Block ``(t, tau)`` is ``seq[t - tau]`` on and below the diagonal and
    ``seq[tau - t].T`` above it; ``seq`` has shape ``(>= L, p, p)``.
    """
    p = seq.shape[1]
    # the lags from L-1 down to -(L-1); sliding window i holds the lags L-1-i
    # down to -i, which are the blocks of block row t = L-1-i in column order
    lags = np.concatenate([seq[length - 1::-1], seq[1:length].transpose(0, 2, 1)])
    windows = np.lib.stride_tricks.sliding_window_view(lags, length, axis=0)
    flat = np.empty((length * p, length * p))
    block_view(flat, p)[...] = windows[::-1].transpose(0, 3, 1, 2)
    return flat


def _check_flat_shape(flat: np.ndarray, p: int) -> None:
    n = flat.shape[0] if flat.ndim else 0
    if flat.shape != (n, n) or n % p:
        raise InputError(f"from_flat: shape {flat.shape} incompatible with p={p}")
    if n == 0:
        raise InputError("BlockWindow: window must hold at least one block")


@dataclass(frozen=True)
class BlockWindow:
    """A finite section of an infinite block matrix.

    The window stores one read-only, C-contiguous ``(L*p, L*p)`` matrix in
    time-major order; :meth:`flatten` returns it without a copy.  The
    constructor takes the ``(L, L, p, p)`` block array, copies it (never
    keeping the caller's array) and checks its shape, finiteness and, when
    ``symmetric`` is set, exact symmetry.

    Attributes:
        t_lo: first absolute time index of the window.
        p: block dimension.
        blocks: read-only ``(L, L, p, p)`` view of the stored matrix;
            ``blocks[i, j]`` is the block at absolute times
            ``(t_lo + i, t_lo + j)``.
        symmetric: whether ``blocks[i, j] == blocks[j, i].T`` exactly.
            Validated at construction.
    """

    t_lo: int
    p: int
    blocks: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2:] != (self.p, self.p):
            raise InputError(f"BlockWindow: bad block array shape {b.shape}")
        if b.size == 0:
            raise InputError("BlockWindow: window must hold at least one block")
        n = b.shape[0] * self.p
        # the one copy, in time-major order; a block view of a flat matrix
        # (as from_flat passes) is copied without reordering
        flat = np.array(b.transpose(0, 2, 1, 3), order="C").reshape(n, n)
        if not _all_finite(flat):
            raise InputError("BlockWindow: non-finite entries")
        if self.symmetric and not np.array_equal(flat, flat.T):
            raise InputError("BlockWindow: symmetric flag set but blocks[t,tau] != blocks[tau,t]^T")
        flat.flags.writeable = False
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "blocks", block_view(flat, self.p))

    @property
    def length(self) -> int:
        return self.blocks.shape[0]

    @property
    def t_hi(self) -> int:
        return self.t_lo + self.length - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.t_lo, self.t_hi + 1)

    def block(self, t: int, tau: int) -> np.ndarray:
        """Block at absolute times ``(t, tau)``."""
        if not (self.t_lo <= t <= self.t_hi and self.t_lo <= tau <= self.t_hi):
            raise InputError(f"BlockWindow.block: ({t},{tau}) outside [{self.t_lo},{self.t_hi}]")
        return self.blocks[t - self.t_lo, tau - self.t_lo]

    def flatten(self) -> np.ndarray:
        """The stored read-only ``(L*p, L*p)`` matrix in time-major order."""
        return self._flat

    @classmethod
    def from_flat(cls, flat: np.ndarray, p: int, t_lo: int = 0,
                  symmetrize: bool = False) -> "BlockWindow":
        """Window over a copy of a flat time-major matrix.

        With ``symmetrize=True`` the matrix is replaced by ``(M + M^T)/2``
        first (which leaves an exactly symmetric matrix unchanged), so the
        result carries the exact-symmetry flag.
        """
        if symmetrize:
            return cls._adopt(np.array(flat, dtype=float, order="C"), p, t_lo)
        flat = np.asarray(flat, dtype=float)
        _check_flat_shape(flat, p)
        return cls(t_lo=t_lo, p=p, blocks=block_view(flat, p))

    @classmethod
    def _adopt(cls, flat: np.ndarray, p: int, t_lo: int = 0,
               what: str = "BlockWindow") -> "BlockWindow":
        """``from_flat(flat, p, t_lo, symmetrize=True)`` without the copy.

        The window takes over ``flat``, a fresh array that nothing else
        writes to, and makes it read-only; only a matrix that is not
        C-contiguous float is copied (once).  The checks are the same: the
        shape, one exact-symmetry comparison (a matrix that fails it is
        replaced by ``(M + M^T)/2``) and finiteness, refused with
        ``InputError("<what>: non-finite entries")``.
        """
        flat = np.ascontiguousarray(flat, dtype=float)
        _check_flat_shape(flat, p)
        if not _exactly_symmetric(flat):
            # each entry of M + M^T and its mirror add the same two numbers,
            # so the average is exactly symmetric; averaging keeps every
            # non-finite entry non-finite, and an overflow is refused below
            with np.errstate(over="ignore", invalid="ignore"):
                flat = 0.5 * (flat + flat.T)
        if not _all_finite(flat):
            raise InputError(f"{what}: non-finite entries")
        flat.flags.writeable = False
        window = object.__new__(cls)
        for name, value in (("t_lo", t_lo), ("p", p), ("symmetric", True),
                            ("_flat", flat), ("blocks", block_view(flat, p))):
            object.__setattr__(window, name, value)
        return window

    def norms(self) -> np.ndarray:
        """Spectral norm of every block, shape ``(L, L)``."""
        return block_norms(self.blocks)

    def lag_max_norms(self) -> np.ndarray:
        """``m[l] = max over |t - tau| = l of ||blocks[t, tau]||_2``."""
        norms = self.norms()
        return np.array([max(np.diagonal(norms, lag).max(), np.diagonal(norms, -lag).max())
                         for lag in range(self.length)])

    def _release(self) -> np.ndarray:
        """Hand the window's own matrix over, writable, and empty the window.

        For a caller that built this window for one use and overwrites its
        matrix: the window holds nothing afterwards, so no reader of it can
        see what the caller writes.  The matrix passed ``_adopt``'s or the
        constructor's symmetry and finiteness checks when the window was
        made.
        """
        flat = self._flat
        object.__setattr__(self, "_flat", None)
        object.__setattr__(self, "blocks", None)
        flat.flags.writeable = True
        return flat


@dataclass(frozen=True)
class BandedBlockWindow:
    """A window together with a certified block bandwidth."""

    base: BlockWindow
    bandwidth: int

    def __post_init__(self):
        if self.bandwidth < 0:
            raise DomainError("BandedBlockWindow: bandwidth must be >= 0")
        mask = outside_band(self.base.length, self.base.p, self.bandwidth)
        if np.any(self.base.flatten()[mask]):
            raise InputError("BandedBlockWindow: nonzero block outside the band")


def _lower_band(flat: np.ndarray, bandwidth: int) -> np.ndarray:
    """LAPACK lower band storage: row ``k`` holds diagonal ``-k`` of ``flat``."""
    n = flat.shape[0]
    band = np.zeros((bandwidth + 1, n))
    for k in range(bandwidth + 1):
        band[k, :n - k] = np.diagonal(flat, -k)
    return band


def sym_eig_range(w: BlockWindow | np.ndarray,
                  bandwidth: int | None = None) -> EigRange:
    """Extremal eigenvalues of a symmetric window or of a symmetric matrix.

    A window must be flagged symmetric and is flattened; a matrix is taken
    as given (only its lower triangle is read).  A matrix that is exactly
    zero beyond ``bandwidth`` diagonals (counted in rows, not blocks) may
    say so: its extremes then come from the band alone (one LAPACK
    ``dsbevd``, whose band reduction costs O(n^2 * bandwidth) instead of
    O(n^3)).

    Raises:
        InputError: if a window is not flagged symmetric.
    """
    if isinstance(w, BlockWindow):
        if not w.symmetric:
            raise InputError("sym_eig_range: window must be symmetric")
        w = w.flatten()
    if bandwidth is None:
        vals = scipy.linalg.eigvalsh(w)
        return EigRange(float(vals[0]), float(vals[-1]))
    band = _lower_band(w, min(bandwidth, w.shape[0] - 1))
    try:
        vals = scipy.linalg.eigvals_banded(band, lower=True)
    except np.linalg.LinAlgError:
        # the band eigensolver can fail to converge on a tight cluster of
        # eigenvalues (a nearly scalar matrix); the dense solver then decides
        return sym_eig_range(w)
    return EigRange(float(vals[0]), float(vals[-1]))


#: Below this order :func:`krylov_norm`, and ``neumann_inverse`` for its
#: ``q``, use the dense solver.  Timed with one BLAS thread on the matrices
#: ``neumann_inverse`` hands it, the dense solve is faster below about 180
#: rows (so the 100-180 row ``verify_all`` windows stay dense), the two tie
#: at 180-200 rows, and Lanczos is 1.3-2x faster at 220-300 rows and 1.5-4x
#: at 720-1200.  On the implicit operator ``v -> B_M^-1 (E v)`` of the
#: whitened Neumann branch (one ``dpbtrs`` band solve more per product) against
#: ``B_M^-1 E`` from two blocked solves and the dense Gram eigensolve
#: (reference TvVMA windows at ``m`` = 8 and 12, median of 9 calls), the
#: dense path is 2.1-2.7x faster at 100 rows and 1.3-1.7x at 140; at
#: 180-260 rows either wins by up to 1.8x, as the Lanczos step count
#: varies; Lanczos is 2.0-2.4x faster at 300 rows, 1.5-2.7x at 720 and
#: 2.6-3.6x at 1200.  So one threshold serves both.
_KRYLOV_MIN_N = 200

#: Seed of the Krylov start vector, so that repeated calls agree bit for bit.
_KRYLOV_SEED = 20220

#: Restart cycles ARPACK may take before the dense solver decides instead.
#: Converging calls take a few; ARPACK's default of ``10 n`` would let a
#: call that cannot converge cost far more than the dense solve.
_KRYLOV_MAXITER = 200


def krylov_norm(a: np.ndarray, symmetric: bool = False) -> float:
    """Spectral norm ``||a||_2`` of a square matrix, from ``_KRYLOV_MIN_N``
    rows up without a dense tridiagonal reduction.

    Runs :func:`_lanczos_norm` on ``v -> a v`` and ``u -> a^T u``, or, when
    the caller knows ``a`` is exactly ``symmetric``, on ``v -> a v`` alone;
    O(n^2) per product.  Matrices below ``_KRYLOV_MIN_N`` rows, and any
    ARPACK failure, go to the dense ``eigvalsh``.  An exactly zero matrix
    gives ``0.0``.

    Raises:
        InputError: if ``a`` is not a finite square matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"krylov_norm: expected a square matrix, got {a.shape}")
    hi, lo = float(a.max(initial=0.0)), float(a.min(initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise InputError("krylov_norm: non-finite entries")
    top = max(hi, -lo)
    if top == 0.0:
        return 0.0
    n = a.shape[0]
    if n >= _KRYLOV_MIN_N:
        norm = _lanczos_norm(n, a.__matmul__, None if symmetric else a.T.__matmul__, top)
        if norm is not None:
            return norm
    if symmetric:
        return float(np.max(np.abs(scipy.linalg.eigvalsh(a))))
    # syrk fills the upper triangle of a^T a, computed as (a^T)(a^T)^T on
    # the Fortran-ordered view a^T; one selected eigenvalue is its top
    gram = scipy.linalg.blas.dsyrk(1.0, a.T)
    return math.sqrt(max(0.0, float(scipy.linalg.eigvalsh(
        gram, lower=False, subset_by_index=[n - 1, n - 1])[0])))


def _lanczos_norm(n: int, matvec, rmatvec, top: float) -> float | None:
    """``||a||_2`` of a square operator ``a`` of order ``n``, given by
    ``matvec`` (``v -> a v``) and ``rmatvec`` (``u -> a^T u``), or ``None``
    when ARPACK fails.

    Runs Lanczos (ARPACK ``eigsh``, ``k=1``, ``tol=0``, so converged to
    machine precision) on ``v -> a^T (a v)`` for the top eigenvalue of
    ``a^T a``, or, when ``rmatvec`` is ``None`` because ``a`` is exactly
    symmetric, on ``v -> a v`` for its largest ``|eigenvalue|``.  The start
    vector is seeded and random, never ``ones``: the top eigenvector of a
    persymmetric (Toeplitz) window can be antisymmetric and hence orthogonal
    to ``ones``.  The products are scaled by the power of two that brings
    ``top``, a positive estimate of the size of ``a``, into ``[1/2, 1)``, so
    that ARPACK's relative stopping test sees values near one.
    """
    # imported here: a module-level import slows the package import
    import scipy.sparse.linalg as spla
    exponent = math.frexp(top)[1]
    scale = math.ldexp(1.0, -exponent)

    def product(v):
        av = matvec(v) * scale
        return av if rmatvec is None else rmatvec(av) * scale

    op = spla.LinearOperator((n, n), matvec=product, dtype=float)
    rng = np.random.default_rng(_KRYLOV_SEED)
    try:
        # a^T a is positive semidefinite: its largest eigenvalue is the top
        val = spla.eigsh(op, k=1, which="LM" if rmatvec is None else "LA", tol=0,
                         v0=rng.standard_normal(n), maxiter=_KRYLOV_MAXITER,
                         rng=rng, return_eigenvectors=False)[0]
    except (spla.ArpackNoConvergence, spla.ArpackError):
        return None
    if rmatvec is None:
        return abs(math.ldexp(float(val), exponent))
    return math.sqrt(max(0.0, math.ldexp(float(val), 2 * exponent)))


def band_truncate(w: BlockWindow, m: int) -> BandedBlockWindow:
    """Zero every block with ``|t - tau| > m``; the input is unchanged.

    Raises:
        InputError: a ``bool`` or non-integer ``m``.
        DomainError: a negative ``m``.
    """
    check_count(m, "m", "band_truncate")
    flat = np.where(outside_band(w.length, w.p, m), 0.0, w.flatten())
    base = BlockWindow.from_flat(flat, w.p, t_lo=w.t_lo, symmetrize=w.symmetric)
    return BandedBlockWindow(base=base, bandwidth=m)


def demko_bound(a: float, b: float, m: int, lag) -> float | np.ndarray:
    """Geometric bound on off-diagonal inverse blocks of an SPD banded operator.

    For an SPD operator with bandwidth ``m`` and spectrum in ``[a, b]``,
    every inverse block at ``lag != 0`` satisfies
    ``||(B^-1)_{t,tau}||_2 <= (1 + sqrt(r))**2 / b * rho**ceil(|lag|/m)``
    with ``r = b/a`` and ``rho = (sqrt(r) - 1)/(sqrt(r) + 1)``.

    The exponent is the polynomial-approximation degree bookkeeping: a
    degree-``n`` polynomial of a bandwidth-``m`` matrix reaches block lag
    ``n*m`` inclusive, so lag ``l`` admits degree ``ceil(l/m) - 1`` and the
    best-approximation error exponent ``ceil(l/m)``.  The diagonal
    (``lag = 0``) is not covered; there ``1/a`` is the sharp bound.

    ``lag`` may be an integer array; the bound is then returned per lag.

    Raises:
        InputError: a ``bool`` or non-integer ``m``, a non-finite or
            non-numeric ``lag``, or a ``bool``, non-numeric, nan or infinite
            ``a`` or ``b``.
        DomainError: if ``a <= 0``, ``b < a`` or ``m < 1``.
    """
    check_count(m, "m", "demko_bound")
    lag = np.asarray(lag)
    if lag.dtype.kind not in "iuf" or not np.isfinite(lag).all():
        raise InputError("demko_bound: every lag must be a finite number")
    for name, value in (("a", a), ("b", b)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not math.isfinite(value):
            raise InputError(f"demko_bound: {name} must be a finite number, got {value!r}")
    if a <= 0:
        raise DomainError("demko_bound: requires a > 0")
    if b < a:
        raise DomainError("demko_bound: requires b >= a")
    if m < 1:
        raise DomainError("demko_bound: requires m >= 1")
    r = b / a
    sr = math.sqrt(r)
    rho = (sr - 1.0) / (sr + 1.0)
    bound = (1.0 + sr) ** 2 / b * rho ** (-(-np.abs(lag) // m))
    return float(bound) if bound.ndim == 0 else bound


def _exact_guard(flat: np.ndarray, what: str) -> EigRange:
    """The exact guard: raise unless ``lambda_min > SPD_RTOL * lambda_max``."""
    rng = sym_eig_range(flat)
    if not rng.is_spd():
        raise ConditioningError(
            f"{what} is numerically singular "
            f"(lambda_min={rng.lambda_min:.3e}, lambda_max={rng.lambda_max:.3e})")
    return rng


#: Unit roundoff and smallest positive (subnormal) double.
_UNIT_ROUNDOFF = 2.0**-53
_ETA = 2.0**-1074


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _certified_cholesky(flat: np.ndarray, what: str) -> np.ndarray:
    """Dense lower Cholesky factor (``dpotrf``, upper triangle zero) of a
    symmetric matrix ``E`` that passes the exact guard, with exact
    eigenvalues computed only on refusal.

    A factor is accepted on Rump's shifted-Cholesky test (S. M. Rump,
    "Verification of positive definiteness", BIT 46, 2006): ``E - sI`` is
    factored too, with ``g = gamma_{n+1}`` and

        ``s = _BOUND_MARGIN * SPD_RTOL * ||E||_inf + 2 g/(1 - g) tr(E)``

    plus the rounding of forming ``E - sI`` and, for gradual underflow,
    ``n + 1`` times Rump's entrywise allowance.  If that
    succeeds, ``L L^T = fl(E - sI) + dA`` with ``|dA| <= g |L| |L^T|``
    (Higham, Accuracy and Stability, Thm 10.3), so
    ``||dA||_2 <= g ||L||_F^2 <= g/(1 - g) tr(fl(E - sI))`` and
    ``lambda_min(E) > _BOUND_MARGIN * SPD_RTOL * ||E||_inf``, which is at
    least ``_BOUND_MARGIN * SPD_RTOL * lambda_max(E)``.  The margin covers
    the rounding of the shift and of computed eigenvalues, so the exact
    guard accepts every matrix the test accepts.  When either factorisation
    fails, :func:`_exact_guard` decides: a matrix it refuses raises its
    "numerically singular" error, and a failure of the factor of ``E``
    itself raises next.

    Raises:
        ConditioningError: if the matrix is numerically singular or
            indefinite, or its factorisation breaks down.
    """
    n = flat.shape[0]
    factor, info = scipy.linalg.lapack.dpotrf(flat, lower=1, clean=1)
    if info:
        _exact_guard(flat, what)
        raise ConditioningError(f"{what}: Cholesky factorisation failed "
                                f"(LAPACK info={info})")
    # the factor succeeded, so every diagonal entry is positive
    diag = np.diagonal(flat)
    gamma = _gamma(n + 1)
    top = float(diag.max())
    shift = (_BOUND_MARGIN * SPD_RTOL * _row_sum_norm(flat)
             + 2.0 * gamma / (1.0 - gamma) * float(diag.sum())
             + 2.0 * _UNIT_ROUNDOFF * top + 4.0 * (n + 1) * (2.0 * (n + 1) + top) * _ETA)
    # the one temporary: LAPACK factors this Fortran-ordered copy in place
    shifted = np.array(flat, order="F")
    shifted[np.diag_indices(n)] -= shift
    if scipy.linalg.lapack.dpotrf(shifted, lower=1, clean=1, overwrite_a=1)[1]:
        _exact_guard(flat, what)
    return factor


#: Rows per block in the blocked triangle kernels below.
_ROW_BLOCK = 256

#: Rows per strip of the SPD kernel's residual, residual bound and norms, of
#: the finiteness check, of the interior compaction and of the blocked banded
#: solves: the temporaries that live beside an n x n buffer are strips of
#: this height.
_STRIP_ROWS = 64


#: The strict upper triangle of one diagonal tile of :func:`_mirror_lower`;
#: a smaller tile reads its leading corner.
_TILE_UPPER = np.triu(np.ones((_ROW_BLOCK, _ROW_BLOCK), dtype=bool), 1)
_TILE_UPPER.flags.writeable = False


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the 2-d array ``a`` is finite, checked in
    strips of rows, so no mask of its full size is made."""
    return all(np.isfinite(a[i:i + _STRIP_ROWS]).all()
               for i in range(0, a.shape[0], _STRIP_ROWS))


def _exactly_symmetric(a: np.ndarray) -> bool:
    """Whether the 2-d array ``a`` is square and equal to its transpose,
    compared in row blocks (a ``nan`` entry equals nothing)."""
    n = a.shape[0]
    return a.shape == (n, n) and all(
        np.array_equal(a[i:i + _ROW_BLOCK], a[:, i:i + _ROW_BLOCK].T)
        for i in range(0, n, _ROW_BLOCK))


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the lower triangle of a square array onto its upper one, in place.

    Works in row blocks, so no temporary of the full size is made.
    """
    n = a.shape[0]
    for i in range(0, n, _ROW_BLOCK):
        j = min(i + _ROW_BLOCK, n)
        diag = a[i:j, i:j]
        np.copyto(diag, diag.T, where=_TILE_UPPER[:j - i, :j - i])
        a[i:j, j:] = a[j:, i:j].T


def symmetric_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for square factors whose product is known to be symmetric.

    Only the lower triangle is multiplied out, in row blocks (a little over
    half the flops of the full product), and then mirrored, so the result
    is exactly symmetric.
    """
    n = a.shape[0]
    out = np.empty((n, n))
    for i in range(0, n, _ROW_BLOCK):
        j = min(i + _ROW_BLOCK, n)
        np.matmul(a[i:j], b[:, :j], out=out[i:j, :j])
    _mirror_lower(out)
    return out


def _symmetric_product_into(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`symmetric_product` ``a @ b`` written over ``b``, a C-contiguous
    array that ``a`` does not share; the same bits, one strip of temporary.

    The lower-triangle row blocks go from the bottom up.  Block ``i:j`` is
    the strip ``a[i:j] @ b[:, :j]``, the operands and layout of
    :func:`symmetric_product`, and is written transposed over ``b[:j, i:j]``.
    The blocks above it read only the columns left of ``i``, which no block
    overwrites, so the upper triangle ends up holding the product and is
    mirrored down.
    """
    n = a.shape[0]
    strip = np.empty((min(_ROW_BLOCK, n), n))
    for i in reversed(range(0, n, _ROW_BLOCK)):
        j = min(i + _ROW_BLOCK, n)
        rows = np.matmul(a[i:j], b[:, :j], out=strip[:j - i, :j])
        b[:j, i:j] = rows.T
    del strip, rows
    _mirror_lower(b.T)
    return b


def _transpose_in_place(a: np.ndarray) -> None:
    """Transpose a square array in place, one tile pair at a time, so the
    only temporary is one ``_ROW_BLOCK`` square tile."""
    n = a.shape[0]
    for i in range(0, n, _ROW_BLOCK):
        j = min(i + _ROW_BLOCK, n)
        a[i:j, i:j] = a[i:j, i:j].T.copy()
        for k in range(j, n, _ROW_BLOCK):
            tile = a[i:j, k:k + _ROW_BLOCK].copy()
            a[i:j, k:k + _ROW_BLOCK] = a[k:k + _ROW_BLOCK, i:j].T
            a[k:k + _ROW_BLOCK, i:j] = tile.T


class _BandCholesky:
    """``B = L L^T`` for a symmetric matrix ``B`` that is exactly zero
    beyond ``bandwidth`` diagonals, with ``L`` in LAPACK lower band storage
    (``dpbtrf``, O(n bandwidth^2) flops), and the blocked triangular solves
    with ``L`` and ``L^T``.

    :meth:`solve` works in place on the rows of a C-contiguous matrix, in
    strips of ``_STRIP_ROWS`` rows: per strip one ``dgemm`` subtracts the
    band part from the rows already solved and one ``dtrsm`` solves with the
    strip's diagonal tile of ``L``, both on the strip's transposed view,
    which is Fortran-contiguous, so neither copies it.  The dense pieces of
    ``L`` that the strips read are cut from the band once.
    """

    def __init__(self, band: np.ndarray):
        self.band = band
        w, n = band.shape[0] - 1, band.shape[1]
        self.strips = []
        for i in range(0, n, _STRIP_ROWS):
            j = min(i + _STRIP_ROWS, n)
            lo, hi = max(0, i - w), min(n, j + w)
            # L[i:j, lo:i], L[i:j, i:j] and, Fortran-ordered, L[j:hi, i:j]
            self.strips.append((i, j, lo, hi, self._dense(i, j, lo, i),
                                self._dense(i, j, i, j),
                                np.asfortranarray(self._dense(j, hi, i, j))))

    @classmethod
    def factor(cls, flat: np.ndarray, bandwidth: int) -> "_BandCholesky | None":
        """The factor of ``flat``, read from its band, or ``None`` when
        ``dpbtrf`` breaks down."""
        band = _lower_band(flat, min(bandwidth, flat.shape[0] - 1))
        factor, info = scipy.linalg.lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        return None if info else cls(factor)

    def _dense(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """``L[r0:r1, c0:c1]`` as a dense C-contiguous array."""
        w = self.band.shape[0] - 1
        rows, cols = np.arange(r0, r1)[:, None], np.arange(c0, c1)[None, :]
        lag = rows - cols
        inside = (lag >= 0) & (lag <= w)
        return np.where(inside, self.band[np.clip(lag, 0, w), cols], 0.0)

    def solve(self, b: np.ndarray, upper: bool = False) -> np.ndarray:
        """``b <- L^-1 b``, or ``L^-T b`` with ``upper``, in place on the
        C-contiguous ``(n, k)`` array ``b``; returns ``b``."""
        blas = scipy.linalg.blas
        for i, j, lo, hi, left, diag, below in (reversed(self.strips) if upper
                                                 else self.strips):
            rows = b[i:j].T
            if upper and hi > j:
                # b[i:j] -= L[j:hi, i:j]^T b[j:hi]
                blas.dgemm(-1.0, b[j:hi].T, below, beta=1.0, c=rows, overwrite_c=1)
            elif not upper and i > lo:
                # b[i:j] -= L[i:j, lo:i] b[lo:i]
                blas.dgemm(-1.0, b[lo:i].T, left.T, beta=1.0, c=rows, overwrite_c=1)
            # rows^T = D^-1 rows^T (or D^-T): rows <- rows D^-T (or D^-1);
            # diag.T is the upper triangular D^T in Fortran order
            blas.dtrsm(1.0, diag.T, rows, side=1, lower=0, trans_a=int(upper),
                       overwrite_b=1)
        return b

    def solve_vector(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v`` for a vector ``v`` (``dpbtrs``)."""
        return scipy.linalg.lapack.dpbtrs(self.band, v, lower=1)[0]


def _sym_rows(low: np.ndarray, i: int, j: int, diag: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``i:j`` of the symmetric matrix held in the lower triangle of
    ``low``, with the diagonal ``diag`` instead of that of ``low`` when
    given; written to ``out``, a C-contiguous ``(j - i, n)`` array, or to a
    fresh one."""
    rows = np.empty((j - i, low.shape[0])) if out is None else out
    rows[:, :i] = low[i:j, :i]
    rows[:, j:] = low[j:, i:j].T
    tile = rows[:, i:j]
    tile[...] = low[i:j, i:j]
    _mirror_lower(tile)
    if diag is not None:
        np.fill_diagonal(tile, diag[i:j])
    return rows


def _inverse_residual(c: np.ndarray, c_diag: np.ndarray, x: np.ndarray) -> float:
    """``||C X - I||_inf`` for symmetric ``C`` and ``X`` of order ``n``, read
    from one triangle each: ``C`` from the strict lower triangle of ``c`` and
    ``c_diag``, ``X`` from the lower triangle of ``x`` (which may be the
    Fortran view ``c.T`` of the same buffer).

    Works in strips of ``_STRIP_ROWS`` rows of ``C X``, one ``dsymm`` each:
    row ``t`` of ``C X`` is column ``t`` of ``X C``, so ``X`` multiplies
    columns of ``C`` straight from its triangle; the rows of ``C`` and the
    product go to two strip buffers that every strip reuses.
    """
    n = c.shape[0]
    rows = np.empty((min(_STRIP_ROWS, n), n))
    product = np.empty((n, rows.shape[0]), order="F")
    worst = 0.0
    for i in range(0, n, _STRIP_ROWS):
        j = min(i + _STRIP_ROWS, n)
        idx = np.arange(i, j)
        c_rows = _sym_rows(c, i, j, c_diag, out=rows[:j - i])
        check = scipy.linalg.blas.dsymm(1.0, x, c_rows.T, lower=1,
                                        c=product[:, :j - i], overwrite_c=1)
        check[idx, idx - i] -= 1.0
        worst = max(worst, float(np.abs(check, out=check).sum(axis=0).max()))
    return worst


def _row_sum_norm(a: np.ndarray, lower: bool = False) -> float:
    """``||a||_inf``, the largest absolute row sum, in strips of
    ``_STRIP_ROWS`` rows; with ``lower``, that of the symmetric matrix held
    in the lower triangle of ``a``, whose rows are rebuilt and made absolute
    in one strip.  Each row is summed on its own, so the strip height
    changes no bit."""
    n = a.shape[0]
    worst = 0.0
    for i in range(0, n, _STRIP_ROWS):
        j = min(i + _STRIP_ROWS, n)
        if lower:
            rows = _sym_rows(a, i, j)
            np.abs(rows, out=rows)
        else:
            rows = np.abs(a[i:j])
        worst = max(worst, float(rows.sum(axis=1).max()))
        del rows
    return worst


#: The strict lower triangle of the diagonal tile of a strip of
#: :func:`_triangle_strips`; a shorter last strip reads its leading corner.
_STRIP_LOWER = np.tril(np.ones((_STRIP_ROWS, _STRIP_ROWS), dtype=bool), -1)
_STRIP_LOWER.flags.writeable = False


def _triangle_strips(buf: np.ndarray, strip: np.ndarray):
    """``|T^T|`` for the lower triangular ``T`` held in the lower triangle of
    the Fortran view ``buf.T``, in strips: yields ``(i, j, rows)`` with
    ``rows = |buf[i:j, i:]|`` and the strict lower part of its diagonal
    tile zero, so that ``rows.sum(axis=1)`` is ``(|T^T| 1)[i:j]``, ``v[i:j]
    @ rows`` adds strip ``i:j``'s share of ``(|T| v)[i:]`` and ``rows @
    v[i:]`` is ``(|T^T| v)[i:j]``.  Every strip is written to ``strip``, a
    ``(_STRIP_ROWS, n)`` buffer (fewer rows for a smaller ``n``)."""
    n = buf.shape[0]
    for i in range(0, n, _STRIP_ROWS):
        j = min(i + _STRIP_ROWS, n)
        rows = np.abs(buf[i:j, i:], out=strip[:j - i, :n - i])
        np.copyto(rows[:, :j - i], 0.0, where=_STRIP_LOWER[:j - i, :j - i])
        yield i, j, rows


def _residual_bound(n: int, c_norm: float, factor: tuple, inverse: tuple) -> float:
    """A priori bound ``r_bar >= ||C X - I||_inf`` on the residual of the
    inverse ``X`` that ``dpotrf``, ``dtrtri`` and ``dlauum`` compute from
    ``C`` in floating point with unit roundoff ``u``.

    With ``L`` the computed factor, ``Y`` the computed ``L^-1`` and ``X =
    fl(Y^T Y)``:

    - ``L L^T = C + dC``, ``|dC| <= gamma_{n+1} |L||L^T|`` (Higham,
      Accuracy and Stability, Thm 10.3);
    - ``Y L = I + E``, ``|E| <= e_t |Y||L|``, ``e_t = gamma_{2n+2}``: the
      left residual of the triangular inverse (Du Croz and Higham, IMA J.
      Numer. Anal. 12, 1992; Higham ch. 14);
    - ``X = Y^T Y + dX``, ``|dX| <= gamma_n |Y^T||Y|`` (inner products).

    Then ``L L^T Y^T Y = L (Y L)^T Y = I + F + L E^T Y``, where the right
    residual ``F = L Y - I``, which no theorem bounds componentwise for this
    inverse, is the similarity ``L E L^-1 = L E (I + E)^-1 Y`` and enters
    normwise.  Hence ``C X - I = C dX - dC Y^T Y + L E^T Y + F`` and

        ``r_bar = 1.01 (gamma_n ||C|| B + (gamma_{n+1} + e_t) A B
        + ||L|| ||Y|| e / (1 - e))``

    with ``A = || |L||L^T| ||``, ``B = || |Y^T||Y| ||`` and ``e = e_t
    || |Y||L| ||``, all ``inf``-norms; ``factor`` is ``(A, ||L||)`` and
    ``inverse`` is ``(B, ||Y||, || |Y||L| ||)``.  The factor ``1.01``
    covers the rounding of these sums of nonnegative terms, and of their
    underflow while ``||C||`` lies in ``[2^-500, 2^500]``; outside it, and
    where ``e >= 1``, the bound is ``inf``.
    """
    (a_norm, l_norm), (b_norm, y_norm, yl_norm) = factor, inverse
    e = _gamma(2 * n + 2) * yl_norm
    if not (2.0**-500 <= c_norm <= 2.0**500 and e < 1.0):
        return math.inf
    return 1.01 * (_gamma(n) * c_norm * b_norm
                   + (_gamma(n + 1) + _gamma(2 * n + 2)) * a_norm * b_norm
                   + l_norm * y_norm * e / (1.0 - e))


def _invert_upper(buf: np.ndarray, diag: np.ndarray, c_norm: float, what: str) -> float:
    """Overwrite the upper triangle of ``buf``, an exactly symmetric SPD
    matrix with the saved diagonal ``diag`` and ``||.||_inf`` ``c_norm``, by
    that of its inverse; returns :func:`_residual_bound`.

    ``dpotrf``, ``dtrtri`` and ``dlauum`` (``dpotri``'s two steps, the same
    bits) run in place on ``buf.T``, the Fortran view of the same matrix,
    and write only its lower triangle; the strict lower triangle of ``buf``
    keeps the matrix.  Between the steps one strip pass over the factor
    ``L`` and two over its inverse ``Y`` read the norms of the bound.  A
    LAPACK failure puts the matrix back and is reported after
    :func:`_exact_guard`.
    """
    n = buf.shape[0]
    strip = np.empty((min(_STRIP_ROWS, n), n))
    low = buf.T
    low, info = scipy.linalg.lapack.dpotrf(low, lower=1, clean=0, overwrite_a=1)
    step = "Cholesky factorisation"
    if not info:
        # |L| 1 and |L| (|L^T| 1), one strip at a time
        sums = np.zeros((2, n))
        for i, j, rows in _triangle_strips(buf, strip):
            sums[:, i:] += np.stack([np.ones(j - i), rows.sum(axis=1)]) @ rows
        l_sums = sums[0]
        factor = (float(sums[1].max()), float(l_sums.max()))
        low, info = scipy.linalg.lapack.dtrtri(low, lower=1, overwrite_c=1)
        step = "inversion of the Cholesky factor"
    if not info:
        # |Y| 1 and |Y| (|L| 1), then |Y^T| (|Y| 1)
        sums = np.zeros((2, n))
        for i, j, rows in _triangle_strips(buf, strip):
            sums[:, i:] += np.stack([np.ones(j - i), l_sums[i:j]]) @ rows
        y_sums = sums[0]
        b_norm = max(float((rows @ y_sums[i:]).max())
                      for i, _, rows in _triangle_strips(buf, strip))
        inverse = (b_norm, float(y_sums.max()), float(sums[1].max()))
        low, info = scipy.linalg.lapack.dlauum(low, lower=1, overwrite_c=1)
    if info:
        _restore(buf, diag)
        _exact_guard(buf, what)
        raise ConditioningError(f"{what}: {step} failed (LAPACK info={info})")
    return _residual_bound(n, c_norm, factor, inverse)


def _restore(buf: np.ndarray, diag: np.ndarray) -> None:
    """Put the matrix held in the strict lower triangle of ``buf`` and in
    ``diag`` back over all of ``buf``, bit for bit."""
    _mirror_lower(buf)
    np.fill_diagonal(buf, diag)


def _spd_inverse_in_place(buf: np.ndarray, what: str) -> tuple[float, float]:
    """:func:`spd_inverse` of ``buf``, a writable, C-contiguous and exactly
    symmetric matrix that it overwrites with the inverse; returns
    ``(condition_bound, residual)``.

    The one SPD inverse of the package.  The inverse builds up in the upper
    triangle of ``buf`` while its strict lower triangle and a saved diagonal
    keep the matrix (:func:`_invert_upper`), and the norms are read from
    those triangles, so nothing of the order of the matrix is allocated.
    ``residual`` is a certified bound on ``||C X - I||_inf``: the O(n^2)
    a priori bound of :func:`_residual_bound` when it passes both gates,
    and otherwise the computed residual (:func:`_inverse_residual`, 2n^3
    flops), which then decides alone.  Before the exact guard or a refusal
    reads it, ``buf`` holds the matrix again, bit for bit; an inverse
    accepted only by the guard is then computed once more.
    """
    diag = np.diagonal(buf).copy()
    c_norm = _row_sum_norm(buf)
    residual = _invert_upper(buf, diag, c_norm, what)
    x_norm = _row_sum_norm(buf.T, lower=True)

    def gated(residual):
        bound = c_norm * x_norm / (1.0 - residual) if residual < 1.0 else math.inf
        return bound, residual <= SPD_RESIDUAL_TOL and bound * _BOUND_MARGIN < 1.0 / SPD_RTOL

    bound, accepted = gated(residual)
    if not accepted:
        # the a priori bound does not pass: the computed residual decides
        residual = _inverse_residual(buf, diag, buf.T)
        bound, accepted = gated(residual)
    if not accepted:
        _restore(buf, diag)
        _exact_guard(buf, what)
        if not residual <= SPD_RESIDUAL_TOL:
            raise ConditioningError(f"{what}: inversion residual {residual:.3e} "
                                    f"exceeds {SPD_RESIDUAL_TOL:g}")
        _invert_upper(buf, diag, c_norm, what)
    _mirror_lower(buf.T)
    return bound, residual


def spd_inverse(flat: np.ndarray, what: str) -> tuple[np.ndarray, float, float]:
    """Inverse of an exactly symmetric SPD matrix, certified without an
    eigensolve; ``flat`` is left unchanged.

    Every dense SPD inverse of the package is this one: a copy, inverted in
    place by ``_spd_inverse_in_place``.  It factors ``flat = L L^T``
    (``dpotrf``), inverts the factor in place (``dtrtri``, then ``dlauum``:
    ``dpotri``'s two steps), mirrors the result so it is exactly symmetric
    and bounds the residual ``r >= ||flat @ inv - I||_inf``: a priori, in
    O(n^2) from norms of the factor and its inverse read between the steps,
    or, when that bound does not pass the two gates below, by the computed
    residual (a 2n^3-flop product).  For symmetric matrices
    ``||.||_2 <= ||.||_inf``, and ``inv (I + R)^-1`` is the exact inverse, so

        ``kappa_2(flat) <= ||flat||_inf ||inv||_inf / (1 - r)``,

    an O(n^2) certified bound.  The inverse is accepted on it when
    ``r <= SPD_RESIDUAL_TOL`` and the bound clears ``1/SPD_RTOL`` by the
    factor ``_BOUND_MARGIN``.  Otherwise (a failed factorisation, a large
    residual, a bound that does not clear) the exact extremal eigenvalues
    decide as :func:`_exact_guard` does, and the refusals keep their order:
    "numerically singular" first, then the LAPACK failures or the residual.

    Returns ``(inv, condition_bound, residual)``; ``inv`` is C-contiguous,
    and ``residual`` is the a priori bound or, where that did not pass, the
    computed residual.

    Raises:
        InputError: if ``flat`` is not a square matrix whose two triangles
            are exactly equal.
        ConditioningError: if the matrix is numerically singular or
            indefinite, a LAPACK step fails, or the residual exceeds
            ``SPD_RESIDUAL_TOL``.
    """
    inv = np.array(flat, dtype=float, order="C")
    if inv.ndim != 2 or not _exactly_symmetric(inv):
        raise InputError(f"spd_inverse: {what} is not an exactly symmetric matrix")
    bound, residual = _spd_inverse_in_place(inv, what)
    return inv, bound, residual


def schur_complement(a: np.ndarray, b: np.ndarray, e: np.ndarray,
                     what: str = "schur_complement: E") -> np.ndarray:
    """``A - B E^{-1} B^T`` with ``E`` an exactly symmetric SPD matrix.

    The result is the covariance of the ``A`` coordinates after projecting
    out the coordinates carried by ``E``.  With ``E = L L^T`` it is formed
    as ``A - W^T W``, ``W = L^-1 B^T`` (``dtrsm``), whose product ``dsyrk``
    computes in one triangle, mirrored; so the result is exactly symmetric
    whenever ``A`` is.  ``what`` names ``E`` in error messages.

    Raises:
        ConditioningError: if ``E`` is numerically singular.
        InputError: on dimension mismatch or a non-symmetric ``E``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ef = np.asarray(e, dtype=float)
    if ef.ndim != 2 or not np.array_equal(ef, ef.T):
        raise InputError("schur_complement: E must be symmetric")
    if b.shape != (a.shape[0], ef.shape[0]) or a.shape[0] != a.shape[1]:
        raise InputError(f"schur_complement: non-conformable shapes {a.shape}, "
                         f"{b.shape}, {ef.shape}")
    factor = _certified_cholesky(ef, what)
    w = scipy.linalg.blas.dtrsm(1.0, factor, b.T, lower=1)
    gram = scipy.linalg.blas.dsyrk(1.0, w, trans=1, lower=1)
    _mirror_lower(gram)
    return a - gram
