"""Locally stationary process families with closed-form covariances.

Four families are implemented:

* :class:`TvVMA` -- time-varying vector moving average with coefficient
  functions of rescaled time; covariances are exact truncated convolution
  sums.
* :class:`TvVAR` -- time-varying vector autoregression; covariance windows
  are obtained by assembling the exactly banded precision operator on a
  padded window, inverting, and discarding the pad.
* :class:`TvARCH` -- univariate time-varying ARCH; the observed process is
  white with a smoothly varying variance.
* :class:`SRE` -- random-coefficient stochastic recurrence model; no closed
  forms, Monte Carlo only.

Coefficient functions are defined on rescaled time ``u in [0, 1]`` and
extended constantly outside, which keeps every form bounded and Lipschitz
on the whole real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (DomainError, FitError, InputError, ModelError,
                     UnsupportedFamilyError)
from .operator_core import (BlockWindow, EigRange, block_norms, block_toeplitz,
                            block_view, gu, spd_inverse_section)
from .reports import (DecayProfile, GapReport, envelope_constant,
                      fit_decay_profile)

_COV_TAIL_TOL = 1e-12      # relative truncation tolerance of MA tails
_VALIDATION_US = np.linspace(0.0, 1.0, 33)   # where invariants are checked
_VALIDATION_US.flags.writeable = False


def _clamp_u(us) -> np.ndarray:
    us = np.asarray(us, dtype=float)
    return np.where(us < 0.0, 0.0, np.where(us > 1.0, 1.0, us))


def _readonly_copy(v) -> np.ndarray:
    a = np.array(v, dtype=float)
    a.flags.writeable = False
    return a


class CoefficientFamily:
    """A tuple of square coefficient functions of one shape, evaluated
    together.

    The payloads are stacked by form once, at construction, and :meth:`at`
    evaluates every function of a form in one array expression, with the
    operations of the one-function formulas in the same order, so each value
    has the same bits as its function alone.
    """

    def __init__(self, fns):
        self.size = len(fns)
        self.shape = fns[0].matrix_shape
        if any(fn.matrix_shape != self.shape for fn in fns):
            raise InputError("CoefficientFamily: functions differ in shape")
        self._groups = []          # (form, indices, stacked payload)
        for form in ("constant", "affine", "sinusoidal", "piecewise"):
            idx = [k for k, fn in enumerate(fns) if fn.form == form]
            if idx:
                payloads = [fns[k].payload for k in idx]
                self._groups.append((form, np.array(idx), self._stack(form, payloads)))

    def _stack(self, form: str, payloads: list) -> dict:
        def mats(key):
            return np.stack([np.atleast_2d(p[key]) for p in payloads])
        if form == "constant":
            return {"value": mats("value")}
        if form == "affine":
            return {"base": mats("base"), "slope": mats("slope")}
        if form == "sinusoidal":
            def scalars(key, default):
                return np.array([float(p.get(key, default)) for p in payloads])
            return {"base": mats("base"), "amplitude": mats("amplitude"),
                    "frequency": scalars("frequency", 1.0), "phase": scalars("phase", 0.0)}
        # knots padded with +inf, which no clamped time reaches; values with 0
        counts = np.array([len(p["knots"]) for p in payloads])
        knots = np.full((len(payloads), counts.max()), np.inf)
        values = np.zeros((len(payloads), counts.max()) + self.shape)
        for row, vals, p, m in zip(knots, values, payloads, counts):
            row[:m] = p["knots"]
            vals[:m] = np.reshape(p["values"], (m,) + self.shape)
        return {"knots": knots, "last": counts - 2, "values": values}

    def at(self, us) -> np.ndarray:
        """Values at every point of the 1-d array ``us``, shape
        ``(len(us), size, p, p)``, as a fresh array; ``u`` is clamped into
        ``[0, 1]``."""
        u = _clamp_u(us)
        if u.ndim != 1:
            raise InputError("CoefficientFn.at: expects a 1-d array of times")
        parts = [(idx, self._evaluate(form, g, u)) for form, idx, g in self._groups]
        if len(parts) == 1:
            return parts[0][1]
        out = np.empty((u.size, self.size) + self.shape)
        for idx, vals in parts:
            out[:, idx] = vals
        return out

    @staticmethod
    def _evaluate(form: str, g: dict, u: np.ndarray) -> np.ndarray:
        if form == "constant":
            return np.repeat(g["value"][None], u.size, axis=0)
        if form == "affine":
            return g["base"] + u[:, None, None, None] * g["slope"]
        if form == "sinusoidal":
            s = np.sin(2.0 * math.pi * (g["frequency"] * u[:, None] + g["phase"]))
            return g["base"] + s[:, :, None, None] * g["amplitude"]
        knots = g["knots"]
        # the segment of u in each function: the number of knots not above
        # u, less one, as searchsorted(knots, u, side="right") - 1 counts it
        # (a nan u counts every knot, as searchsorted sorts nan last)
        i = np.sum(~(knots > u[:, None, None]), axis=2) - 1
        i = np.clip(i, 0, g["last"])
        k = np.arange(knots.shape[0])
        lo, hi = knots[k, i], knots[k, i + 1]
        # the end values hold outside [knots[0], knots[-1]], as in np.interp
        width = hi - lo
        w = (np.clip(u[:, None] - lo, 0.0, width) / width)[:, :, None, None]
        return (1.0 - w) * g["values"][k, i] + w * g["values"][k, i + 1]


@dataclass(frozen=True, eq=False)
class CoefficientFn:
    """A matrix-valued function of rescaled time.

    Supported forms:

    * ``constant``: ``value``
    * ``affine``: ``base + slope * u``
    * ``sinusoidal``: ``base + amplitude * sin(2*pi*(frequency*u + phase))``
    * ``piecewise``: linear interpolation of ``values`` over ``knots``,
      held at the end values outside ``[knots[0], knots[-1]]``

    All payload matrices must share one square shape.  Evaluation clamps
    ``u`` into ``[0, 1]``.  Payload arrays are read-only copies, so a
    function (and a model built from it) cannot change after construction.
    """

    form: str
    payload: dict

    def __post_init__(self):
        if self.form not in ("constant", "affine", "sinusoidal", "piecewise"):
            raise InputError(f"CoefficientFn: unknown form {self.form!r}")
        payload = {k: (_readonly_copy(v) if not np.isscalar(v) else float(v))
                   for k, v in self.payload.items()}
        object.__setattr__(self, "payload", payload)
        shape = self.matrix_shape  # validates
        if shape[0] != shape[1]:
            raise InputError("CoefficientFn: payload matrices must be square")
        mats = [payload[k] for k in ("value", "base", "slope", "amplitude")
                if k in payload]
        mats += list(payload.get("values", ()))
        if any(np.atleast_2d(m).shape != shape for m in mats):
            raise InputError("CoefficientFn: payload matrices differ in shape")
        object.__setattr__(self, "_family", CoefficientFamily((self,)))

    @property
    def matrix_shape(self) -> tuple[int, int]:
        if self.form == "constant":
            return np.atleast_2d(self.payload["value"]).shape
        if self.form == "affine":
            return np.atleast_2d(self.payload["base"]).shape
        if self.form == "sinusoidal":
            return np.atleast_2d(self.payload["base"]).shape
        return np.atleast_2d(self.payload["values"][0]).shape

    @property
    def dim(self) -> int:
        return self.matrix_shape[0]

    def at(self, us) -> np.ndarray:
        """Values at every point of the 1-d array ``us``, shape ``(len(us), p, p)``.

        The one-function case of :class:`CoefficientFamily`; the result is
        always a fresh array, never a view of the payload.
        """
        return self._family.at(us)[:, 0]

    def __call__(self, u: float) -> np.ndarray:
        return self.at(np.array([float(u)]))[0]

    def derivative(self, u: float) -> np.ndarray:
        """d/du at an interior point of [0, 1] (zero outside, and zero
        outside the knots of a ``piecewise`` form)."""
        uf = float(u)
        if uf < 0.0 or uf > 1.0:
            return np.zeros(self.matrix_shape)
        p = self.payload
        if self.form == "constant":
            return np.zeros(self.matrix_shape)
        if self.form == "affine":
            return np.atleast_2d(p["slope"]).copy()
        if self.form == "sinusoidal":
            freq = p.get("frequency", 1.0)
            phase = p.get("phase", 0.0)
            return (2.0 * math.pi * freq
                    * math.cos(2.0 * math.pi * (freq * uf + phase))
                    * np.atleast_2d(p["amplitude"]))
        knots = p["knots"]
        values = p["values"]
        if uf < knots[0] or uf > knots[-1]:
            return np.zeros(self.matrix_shape)
        i = int(np.clip(np.searchsorted(knots, uf, side="right") - 1, 0, len(knots) - 2))
        return (values[i + 1] - values[i]) / (knots[i + 1] - knots[i])

    def lipschitz_constant(self) -> float:
        """Explicit spectral-norm Lipschitz constant of the form."""
        p = self.payload
        if self.form == "constant":
            return 0.0
        if self.form == "affine":
            return float(np.linalg.norm(np.atleast_2d(p["slope"]), 2))
        if self.form == "sinusoidal":
            freq = p.get("frequency", 1.0)
            return float(2.0 * math.pi * abs(freq)
                         * np.linalg.norm(np.atleast_2d(p["amplitude"]), 2))
        knots = p["knots"]
        values = p["values"]
        slopes = [np.linalg.norm(values[i + 1] - values[i], 2) / (knots[i + 1] - knots[i])
                  for i in range(len(knots) - 1)]
        return float(max(slopes))


def constant_fn(value) -> CoefficientFn:
    return CoefficientFn("constant", {"value": np.atleast_2d(value)})


def affine_fn(base, slope) -> CoefficientFn:
    return CoefficientFn("affine", {"base": np.atleast_2d(base),
                                    "slope": np.atleast_2d(slope)})


def sinusoidal_fn(base, amplitude, frequency=1.0, phase=0.0) -> CoefficientFn:
    return CoefficientFn("sinusoidal", {"base": np.atleast_2d(base),
                                        "amplitude": np.atleast_2d(amplitude),
                                        "frequency": float(frequency),
                                        "phase": float(phase)})


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TvVMA:
    """Time-varying vector moving average of finite truncation order.

    ``psis[j]`` is the lag-``j`` coefficient function; the observed array
    uses ``psis[j](t/N) + n_correction[j](t/N)/N`` when a correction is
    present, so the array genuinely differs from its frozen-time
    approximation at rate ``1/N``.
    """

    p: int
    psis: tuple[CoefficientFn, ...]
    kappa: float | None = None
    n_correction: tuple[CoefficientFn, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "psis", tuple(self.psis))
        if not self.psis:
            raise InputError("TvVMA: needs at least the lag-0 coefficient")
        for fn in self.psis:
            if fn.dim != self.p:
                raise InputError("TvVMA: coefficient dimension mismatch")
        if self.n_correction is not None:
            corr = tuple(self.n_correction)
            if len(corr) != len(self.psis):
                raise InputError("TvVMA: n_correction length must match psis")
            if any(fn.dim != self.p for fn in corr):
                raise InputError("TvVMA: n_correction dimension mismatch")
            object.__setattr__(self, "n_correction", corr)
        object.__setattr__(self, "_psi_family", CoefficientFamily(self.psis))
        object.__setattr__(self, "_correction_family", None if self.n_correction is None
                           else CoefficientFamily(self.n_correction))

    @property
    def order(self) -> int:
        return len(self.psis) - 1

    def psi_stacks(self, us) -> np.ndarray:
        """Smooth coefficients at each ``u``, shape ``(len(us), order+1, p, p)``."""
        return self._psi_family.at(us)

    def psi_stacks_array(self, ts, n: int) -> np.ndarray:
        """Array coefficients at the integer times ``ts``, including the 1/N
        term, shape ``(len(ts), order+1, p, p)``."""
        return self._array_stacks(np.asarray(ts) / n, n)

    def _array_stacks(self, us, n: int) -> np.ndarray:
        out = self.psi_stacks(us)
        if self._correction_family is not None:
            out = out + self._correction_family.at(us) / n
        return out

    def psi_stack(self, u: float) -> np.ndarray:
        """Smooth coefficients at ``u``, shape ``(order+1, p, p)``."""
        return self.psi_stacks([u])[0]

    def psi_stack_array(self, u: float, n: int) -> np.ndarray:
        """Array coefficients at time ``t = u*n``, including the 1/N term."""
        return self._array_stacks([u], n)[0]

    def psi_stack_derivative(self, u: float) -> np.ndarray:
        return np.stack([fn.derivative(u) for fn in self.psis])


@dataclass(frozen=True, eq=False)
class TvVAR:
    """Time-varying vector autoregression with SPD innovation variance."""

    p: int
    phis: tuple[CoefficientFn, ...]
    sigma: CoefficientFn

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(self.phis))
        if not self.phis:
            raise InputError("TvVAR: needs at least one lag coefficient")
        for fn in self.phis:
            if fn.dim != self.p:
                raise InputError("TvVAR: coefficient dimension mismatch")
        if self.sigma.dim != self.p:
            raise InputError("TvVAR: sigma dimension mismatch")
        object.__setattr__(self, "_phi_family", CoefficientFamily(self.phis))

    @property
    def order(self) -> int:
        return len(self.phis)

    def phi_stacks(self, us) -> np.ndarray:
        """Lag coefficients at each ``u``, shape ``(len(us), order, p, p)``."""
        return self._phi_family.at(us)

    def sigma_stacks(self, us) -> np.ndarray:
        """Symmetrised innovation variances at each ``u``, ``(len(us), p, p)``."""
        s = self.sigma.at(us)
        return 0.5 * (s + s.transpose(0, 2, 1))

    def phi_stack(self, u: float) -> np.ndarray:
        return self.phi_stacks([u])[0]

    def sigma_at(self, u: float) -> np.ndarray:
        return self.sigma_stacks([u])[0]


@dataclass(frozen=True, eq=False)
class TvARCH:
    """Univariate time-varying ARCH; ``coeffs[0]`` is the intercept."""

    coeffs: tuple[CoefficientFn, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) < 1:
            raise InputError("TvARCH: needs the intercept coefficient")
        for fn in self.coeffs:
            if fn.dim != 1:
                raise InputError("TvARCH: coefficients must be scalar")
        object.__setattr__(self, "_coeff_family", CoefficientFamily(self.coeffs))

    @property
    def p(self) -> int:
        return 1

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def a_values(self, u) -> np.ndarray:
        """Coefficients ``(a_0, ..., a_d)`` at ``u``; for a 1-d array of
        times, one row per time, shape ``(len(u), order+1)``."""
        us = np.asarray(u, dtype=float)
        rows = self._coeff_family.at(np.atleast_1d(us))[:, :, 0, 0]
        return rows if us.ndim else rows[0]


@dataclass(frozen=True, eq=False)
class SRE:
    """Stochastic recurrence model ``X_t = A(u, e_t) X_{t-1} + b(u, e_t)``.

    ``A(u, e) = (a_scale(u) + a_noise * e_0) * a_matrix`` and
    ``b(u, e) = b_scale(u) * e_{1..p}``, with ``e_t`` a standard Gaussian
    vector of dimension ``p + 1``.  Monte Carlo only: no closed-form
    covariances.
    """

    p: int
    a_scale: CoefficientFn
    a_noise: float
    a_matrix: np.ndarray
    b_scale: CoefficientFn

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        if a.shape != (self.p, self.p):
            raise InputError("SRE: a_matrix must be p x p")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "a_matrix", a)
        if self.a_scale.dim != 1 or self.b_scale.dim != 1:
            raise InputError("SRE: scale functions must be scalar")

    def contraction_bound(self) -> float:
        """sup over u of ``||E[A A^T]||_2``; must be below one."""
        m2 = float(np.linalg.norm(self.a_matrix @ self.a_matrix.T, 2))
        vals = [(float(a) ** 2 + self.a_noise**2) * m2
                for a in self.a_scale.at(_VALIDATION_US)[:, 0, 0]]
        return max(vals)


ModelSpec = Union[TvVMA, TvVAR, TvARCH, SRE]


@dataclass(frozen=True)
class SamplePath:
    """A simulated stretch of the process, deterministic given the seed."""

    data: np.ndarray       # (length, p)
    t_lo: int
    n: int
    seed: int

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.t_lo, self.t_lo + self.data.shape[0])


@dataclass(frozen=True)
class PhysicalDepEstimate:
    """Monte Carlo coupled-difference variance norm with a batch stderr."""

    value: float
    stderr: float
    reps: int


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _companion_radius(phi_stack: np.ndarray) -> float:
    """Spectral radius of the companion matrix of a VAR coefficient stack."""
    d, p, _ = phi_stack.shape
    comp = np.zeros((d * p, d * p))
    comp[:p, :] = np.concatenate(phi_stack, axis=1)
    if d > 1:
        comp[p:, :-p] = np.eye((d - 1) * p)
    return float(np.max(np.abs(np.linalg.eigvals(comp)))) if comp.size else 0.0


_RADIUS_ATTR = "_stability_radius"


def stability_radius(model: ModelSpec) -> float:
    """Worst-case one-step contraction factor of the recursion over ``u``.

    TvVAR: companion spectral radius.  TvARCH: sup of the coefficient sum.
    SRE: sqrt of the second-moment contraction bound.  TvVMA has no
    recursion and returns 0.  Like :func:`validate_model`, the radius is
    computed once per model instance and kept on it; failures are not kept.
    """
    radius = getattr(model, _RADIUS_ATTR, None)
    if radius is None:
        radius = _stability_radius(model)
        object.__setattr__(model, _RADIUS_ATTR, radius)
    return radius


def _stability_radius(model: ModelSpec) -> float:
    if isinstance(model, TvVMA):
        return 0.0
    if isinstance(model, TvVAR):
        return max(_companion_radius(phi) for phi in model.phi_stacks(_VALIDATION_US))
    if isinstance(model, TvARCH):
        return max(float(np.sum(a[1:])) for a in model.a_values(_VALIDATION_US))
    if isinstance(model, SRE):
        return math.sqrt(model.contraction_bound())
    raise UnsupportedFamilyError(f"unknown family {type(model).__name__}")


def effective_memory(model: ModelSpec) -> int:
    """e-folding time of the recursion (exact order for moving averages)."""
    if isinstance(model, TvVMA):
        return max(1, model.order)
    rho = stability_radius(model)
    if rho >= 1.0:
        raise ModelError(f"{type(model).__name__}: recursion does not contract "
                         f"(radius {rho:.4f} >= 1)")
    if rho <= 1e-12:
        return 1
    return max(1, math.ceil(-1.0 / math.log(rho)))


_VALIDATED_ATTR = "_validated_info"


def validate_model(model: ModelSpec) -> dict:
    """Check the family invariants; raises ModelError on violation.

    Returns a dict of measured margins (stability radius, filter minimum,
    eigenvalue floors) for reporting.  The check runs once per model
    instance: models are immutable, so a passing result is kept on the
    instance and later calls return a copy of it.  Failures are not kept
    and raise again on every call.
    """
    info = getattr(model, _VALIDATED_ATTR, None)
    if info is None:
        info = _check_invariants(model)
        # Concurrent first calls may both compute; the results are equal.
        object.__setattr__(model, _VALIDATED_ATTR, info)
    return dict(info)


def _check_invariants(model: ModelSpec) -> dict:
    info: dict = {"family": type(model).__name__}
    omegas = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)

    if isinstance(model, TvVAR):
        radius = stability_radius(model)
        info["stability_radius"] = radius
        if radius >= 1.0 / 1.02:
            raise ModelError(f"TvVAR: companion radius {radius:.4f} leaves no "
                             "stability margin")
        z = (1.0 + 0.02) * np.exp(1j * omegas)
        margin = math.inf
        powers = z[:, None] ** np.arange(1, model.order + 1)[None, :]
        for u, phi, sigma in zip(_VALIDATION_US, model.phi_stacks(_VALIDATION_US),
                                 model.sigma_stacks(_VALIDATION_US)):
            a = np.eye(model.p) - np.einsum("wj,jab->wab", powers, phi)
            margin = min(margin, float(np.linalg.svd(a, compute_uv=False)[..., -1].min()))
            svals = np.linalg.eigvalsh(sigma)
            if svals[0] <= 0:
                raise ModelError(f"TvVAR: innovation variance not SPD at u={u:.3f}")
        info["stability_margin"] = margin
        if margin <= 1e-8:
            raise ModelError("TvVAR: transfer function nearly singular inside "
                             "the stability disc")
        return info

    if isinstance(model, TvVMA):
        phases = np.exp(1j * omegas[:, None] * np.arange(model.order + 1)[None, :])
        filt_min = math.inf
        env_const = 0.0
        for stack in model.psi_stacks(_VALIDATION_US):
            transfer = np.einsum("wj,jab->wab", phases, stack)
            filt_min = min(filt_min, float(
                np.linalg.svd(transfer, compute_uv=False)[..., -1].min()))
            if model.kappa is not None:
                shape = gu(np.arange(model.order + 1)) ** (-model.kappa)
                env_const = max(env_const,
                                envelope_constant(block_norms(stack), shape))
        info["filter_min_singular_value"] = filt_min
        if model.kappa is not None:
            info["envelope_constant"] = env_const
        if filt_min <= 1e-8:
            raise ModelError("TvVMA: moving-average filter vanishes on the "
                             "unit circle")
        return info

    if isinstance(model, TvARCH):
        rows = model.a_values(_VALIDATION_US)
        a0_min = min(float(a[0]) for a in rows)
        info["a0_min"] = a0_min
        if a0_min <= 0:
            raise ModelError("TvARCH: intercept must be bounded away from zero")
        if np.any(rows[:, 1:] < 0):
            raise ModelError("TvARCH: lag coefficients must be nonnegative")
        # fourth-moment condition with Gaussian innovations: sqrt(E Z^4) = sqrt(3)
        load = max(math.sqrt(3.0) * float(np.sum(a[1:])) for a in rows)
        info["fourth_moment_load"] = load
        if load >= 1.0:
            raise ModelError(f"TvARCH: fourth-moment condition fails "
                             f"(sqrt(E Z^4) * sum a_j = {load:.4f} >= 1)")
        return info

    if isinstance(model, SRE):
        rho = model.contraction_bound()
        info["second_moment_bound"] = rho
        if rho >= 1.0:
            raise ModelError(f"SRE: ||E[A A^T]|| bound {rho:.4f} >= 1")
        return info

    raise UnsupportedFamilyError(f"unknown family {type(model).__name__}")


# ---------------------------------------------------------------------------
# covariances of the observed array
# ---------------------------------------------------------------------------

def _lag_products(left: np.ndarray, right: np.ndarray, max_lag: int, step: int):
    """Lag convolutions of two coefficient stacks, one batched matmul per lag.

    ``left`` and ``right`` have shape ``(T, K, p, q)``: ``left[t, j]`` is the
    lag-``j`` coefficient at time ``t``.  Yields ``(r, prod)`` for
    ``r = 0 .. min(max_lag, K - 1)``, where
    ``prod[t] = sum_j left[t, j] @ right[t + step*r, j + r].T`` for the
    ``T - step*r`` times ``t`` that keep ``t + step*r`` inside the stack
    (``step`` is 1 for a window of the array, 0 for frozen-time sequences).

    Each stack is copied once into the layout ``(T, p, K, q)``; there the sum
    over ``(j, b)`` of every lag is a contiguous run of each row, so both
    operands of the ``(T', p, (K-r) q) @ (T', (K-r) q, p)`` product are views.
    """
    rows_l = np.ascontiguousarray(np.swapaxes(left, 1, 2))
    rows_r = rows_l if right is left else np.ascontiguousarray(np.swapaxes(right, 1, 2))
    times, p, k, q = rows_l.shape
    for r in range(min(max_lag, k - 1) + 1):
        m = times - step * r
        a = rows_l[:m, :, :k - r].reshape(m, p, (k - r) * q)
        b = rows_r[step * r:, :, r:].reshape(m, rows_r.shape[1], (k - r) * q)
        yield r, a @ b.transpose(0, 2, 1)


def _vma_cov_window(model: TvVMA, n: int, t_lo: int, t_hi: int) -> BlockWindow:
    length, p = t_hi - t_lo + 1, model.p
    stacks = model.psi_stacks_array(np.arange(t_lo, t_hi + 1), n)  # (L, J+1, p, p)
    flat = np.zeros((length * p, length * p))
    blocks = block_view(flat, p)
    # C_{t,t+delta} = sum_j Psi_{t,j} Psi_{t+delta,j+delta}^T
    for delta, vals in _lag_products(stacks, stacks, length - 1, step=1):
        idx = np.arange(length - delta)
        if delta == 0:
            # sum_j Psi Psi^T is symmetric; the mirror makes it exactly so
            # (a no-op when the product already is)
            vals = 0.5 * (vals + vals.transpose(0, 2, 1))
        blocks[idx, idx + delta] = vals
        if delta:
            blocks[idx + delta, idx] = vals.transpose(0, 2, 1)
    return BlockWindow.from_flat(flat, p, t_lo=t_lo, symmetrize=True)


def _var_precision_flat(model: TvVAR, n: int, t_lo: int, t_hi: int) -> np.ndarray:
    """Flattened section of the exactly banded precision ``B^T S^-1 B``.

    Block row ``i`` of the lower-triangular ``B`` holds ``I`` at lag 0 and
    ``-Phi_j(t_i/n)`` at lag ``j <= d``; ``S`` is block diagonal.  Block
    ``(i - j, i - k)`` of the product collects ``B_ij^T S_i^-1 B_ik`` over
    the ``d + 1`` nonzero blocks of each row, so every block beyond
    bandwidth ``d`` stays exactly zero.  Each term is added to its block and
    its transpose to the mirrored block, so the result is exactly symmetric.
    """
    length = t_hi - t_lo + 1
    p, d = model.p, model.order
    us = np.arange(t_lo, t_hi + 1) / n
    si = np.linalg.inv(model.sigma_stacks(us))
    si = 0.5 * (si + si.transpose(0, 2, 1))
    rows = np.empty((length, d + 1, p, p))     # rows[i, j]: block of B at (i, i - j)
    rows[:, 0] = np.eye(p)
    rows[:, 1:] = -model.phi_stacks(us)
    prec = np.zeros((length, p, length, p))
    for j in range(d + 1):
        for k in range(j, d + 1):
            i = np.arange(k, length)
            term = np.einsum("iab,iac,icd->ibd", rows[k:, j], si[k:], rows[k:, k])
            if j == k:
                prec[i - j, :, i - j, :] += 0.5 * (term + term.transpose(0, 2, 1))
            else:
                prec[i - j, :, i - k, :] += term
                prec[i - k, :, i - j, :] += term.transpose(0, 2, 1)
    return prec.reshape(length * p, length * p)


def cov_pad(model: ModelSpec) -> int:
    """Default pad for covariance assembly and finite-section inversion.

    Recursive families pad by 25 effective memory lengths (edge effects die
    geometrically); moving averages decay polynomially with a known
    exponent, where 50 suffices at desk scale.
    """
    if isinstance(model, TvVMA):
        kappa = model.kappa if model.kappa is not None else 4.0
        return max(50, 10 * math.ceil(kappa))
    mem = effective_memory(model)
    order = getattr(model, "order", 1)
    return max(50, 25 * mem, 4 * order)


def cov_window(model: ModelSpec, n: int, t_lo: int, t_hi: int,
               pad: int | None = None) -> BlockWindow:
    """Covariance section ``(C_{t,tau}; t_lo <= t, tau <= t_hi)``.

    Exact up to the MA truncation tolerance (TvVMA) or the geometric pad
    truncation of the banded-precision inversion (TvVAR).

    Raises:
        ModelError: if the family invariants fail.
        UnsupportedFamilyError: for SRE models (Monte Carlo only).
    """
    if n < 1:
        raise DomainError("cov_window: requires n >= 1")
    if t_hi < t_lo:
        raise InputError("cov_window: empty window")
    validate_model(model)
    if isinstance(model, TvVMA):
        return _vma_cov_window(model, n, t_lo, t_hi)
    if isinstance(model, TvVAR):
        pad = cov_pad(model) if pad is None else pad
        prec = _var_precision_flat(model, n, t_lo - pad, t_hi + pad)
        lo, hi = pad * model.p, (pad + t_hi - t_lo + 1) * model.p
        cov = spd_inverse_section(prec, (model.order + 1) * model.p - 1, lo, hi,
                                  "cov_window: TvVAR precision")
        return BlockWindow.from_flat(cov, model.p, t_lo=t_lo, symmetrize=True)
    if isinstance(model, TvARCH):
        m = _arch_mean_square(model, n, t_lo, t_hi)
        return BlockWindow.from_flat(np.diag(m), 1, t_lo=t_lo, symmetrize=True)
    raise UnsupportedFamilyError(
        "cov_window: stochastic recurrence models have no closed-form "
        "covariance; use simulate_path / physical_dep_estimate")


def _arch_mean_square(model: TvARCH, n: int, t_lo: int, t_hi: int) -> np.ndarray:
    d = model.order
    burn = 10 * effective_memory(model) + d
    start = t_lo - burn
    rows = model.a_values(np.arange(start, t_hi + 1) / n)
    denom = 1.0 - float(np.sum(rows[0, 1:]))
    state = [rows[0, 0] / denom] * max(d, 1)
    out = np.zeros(t_hi - t_lo + 1)
    for t, a in zip(range(start, t_hi + 1), rows):
        m = a[0] + float(np.dot(a[1:], state[:d][::-1])) if d else a[0]
        if d:
            state = state[1:] + [m] if len(state) >= d else state + [m]
            state = state[-d:]
        if t >= t_lo:
            out[t - t_lo] = m
    return out


# ---------------------------------------------------------------------------
# stationary approximations
# ---------------------------------------------------------------------------

def _var_ma_expansion(model: TvVAR, u: float, tol: float = _COV_TAIL_TOL) -> np.ndarray:
    """MA coefficients (including the innovation square root) of the frozen
    process at ``u``, truncated when the certified tail drops below ``tol``."""
    phi = model.phi_stack(u)
    d, p = model.order, model.p
    radius = _companion_radius(phi)
    if radius >= 1.0:
        raise ModelError(f"TvVAR: frozen process unstable at u={u:.4f}")
    sig = model.sigma_at(u)
    try:
        chol = np.linalg.cholesky(sig)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"TvVAR: innovation variance not SPD at u={u:.4f}") from exc
    rho = min(0.999, radius + 1e-6)
    k_max = max(3 * d + 20, int(math.log(tol) / math.log(rho)) + 3 * d) if radius > 1e-12 else d + 1
    psis = np.zeros((k_max + 1, p, p))
    psis[0] = chol
    for k in range(1, k_max + 1):
        acc = np.zeros((p, p))
        for j in range(1, min(d, k) + 1):
            acc += phi[j - 1] @ psis[k - j]
        psis[k] = acc
    norms = block_norms(psis)
    keep = int(np.max(np.nonzero(norms > tol * max(norms.max(), 1e-300))[0])) + 1
    return psis[:keep + 1]


def _stationary_psi_stacks(model: ModelSpec, us: np.ndarray) -> np.ndarray:
    """MA coefficients of the frozen process at each ``u``, shape
    ``(len(us), K, p, p)``; TvVAR expansions are zero-padded to the longest."""
    if isinstance(model, TvVMA):
        return model.psi_stacks(us)
    if isinstance(model, TvVAR):
        expansions = [_var_ma_expansion(model, u) for u in us]
        out = np.zeros((len(us), max(e.shape[0] for e in expansions),
                        model.p, model.p))
        for row, e in zip(out, expansions):
            row[:e.shape[0]] = e
        return out
    raise UnsupportedFamilyError(
        f"{type(model).__name__} has no moving-average representation here")


def _stationary_cov_sequences(model: ModelSpec, us, max_lag: int) -> np.ndarray:
    """``C_r(u)`` for every ``u`` of ``us`` and ``r = 0..max_lag``, shape
    ``(len(us), max_lag+1, p, p)``."""
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if isinstance(model, TvARCH):
        a = model.a_values(us)
        out = np.zeros((us.size, max_lag + 1, 1, 1))
        out[:, 0, 0, 0] = a[:, 0] / (1.0 - np.sum(a[:, 1:], axis=1))
        return out
    psis = _stationary_psi_stacks(model, us)
    out = np.zeros((us.size, max_lag + 1) + psis.shape[2:])
    # C_r = sum_j Psi_{j+r} Psi_j^T, the transpose of the lag product
    for r, prod in _lag_products(psis, psis, max_lag, step=0):
        out[:, r] = prod.transpose(0, 2, 1)
    _require_finite(out, "stationary_cov_sequence")
    return out


def _require_finite(out: np.ndarray, what: str) -> None:
    """Refuse a sum that overflowed, as a non-finite window is refused."""
    if not np.all(np.isfinite(out)):
        raise InputError(f"{what}: non-finite entries")


def stationary_cov_sequence(model: ModelSpec, u: float, max_lag: int) -> np.ndarray:
    """``C_r(u)`` for ``r = 0..max_lag``, shape ``(max_lag+1, p, p)``.

    Negative lags follow from ``C_{-r}(u) = C_r(u)^T``.

    Raises:
        InputError: if a lag sum overflows.
    """
    return _stationary_cov_sequences(model, [u], max_lag)[0]


def stationary_cov(model: ModelSpec, u: float, r: int) -> np.ndarray:
    """Autocovariance ``C_r(u)`` of the frozen process at rescaled time ``u``."""
    seq = stationary_cov_sequence(model, u, abs(int(r)))
    c = seq[abs(int(r))]
    return c.T.copy() if r < 0 else c.copy()


def stationary_window(model: ModelSpec, u: float, t_lo: int, t_hi: int) -> BlockWindow:
    """Block Toeplitz section of the frozen-process covariance at ``u``."""
    length = t_hi - t_lo + 1
    seq = stationary_cov_sequence(model, u, length - 1)
    # C_{t,tau} = C_{t-tau}(u)
    return BlockWindow.from_flat(block_toeplitz(seq, length), seq.shape[1],
                                 t_lo=t_lo, symmetrize=True)


def stationary_cov_derivative(model: ModelSpec, u: float, max_lag: int) -> np.ndarray:
    """``d C_r(u)/du`` for ``r = 0..max_lag`` (moving-average models only).

    Raises:
        InputError: if a lag sum overflows, as with a ``piecewise`` slope
            near the float range.
        UnsupportedFamilyError: for other families.
    """
    if not isinstance(model, TvVMA):
        raise UnsupportedFamilyError("analytic covariance derivative is only "
                                     "available for moving-average models")
    psis = model.psi_stack(u)[None]
    dpsis = model.psi_stack_derivative(u)[None]
    # [Psi_j | Psi'_j] [Psi'_{j+r} | Psi_{j+r}]^T = Psi_j Psi'_{j+r}^T + Psi'_j Psi_{j+r}^T,
    # the transpose of the lag-r term of the product rule
    left = np.concatenate([psis, dpsis], axis=3)
    right = np.concatenate([dpsis, psis], axis=3)
    out = np.zeros((max_lag + 1, model.p, model.p))
    for r, prod in _lag_products(left, right, max_lag, step=0):
        out[r] = prod[0].T
    _require_finite(out, "stationary_cov_derivative")
    return out


# ---------------------------------------------------------------------------
# local spectral density
# ---------------------------------------------------------------------------

def local_spectral_density(model: ModelSpec, u: float, omega: float) -> np.ndarray:
    """Hermitian local spectral density ``f(omega; u) = sum_r C_r(u) e^{i r omega}``.

    No ``1/(2*pi)`` factor: the inversion back to lag space is
    ``C_r(u) = (2*pi)^{-1} \\int_0^{2*pi} f(omega; u) e^{-i r omega} d omega``.

    Raises:
        ModelError: if a TvVAR transfer function is singular at ``(u, omega)``.
    """
    return local_spectral_densities(model, u, [omega])[0]


def local_spectral_densities(model: ModelSpec, u: float, omega_grid) -> np.ndarray:
    """``f(omega; u)`` at every ``omega`` of a grid, shape ``(len, p, p)``.

    The coefficients at ``u`` are evaluated once and the whole grid is
    computed by stacked kernels; see :func:`local_spectral_density`.

    Raises:
        ModelError: naming the first ``omega`` of the grid, in grid order, at
            which a TvVAR transfer function is singular.
    """
    omegas = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    coeffs = _frozen_coefficients(model, [u])
    return _densities(model, u, omegas, _transfer_powers(model, omegas),
                      [c[0] for c in coeffs])


def _frozen_coefficients(model: ModelSpec, us) -> tuple:
    """What the density kernel reads, for every ``u`` of ``us``: ``C_0(u)``
    (TvARCH), the MA stack (TvVMA), or the lag stack and the innovation
    variance (TvVAR)."""
    if isinstance(model, TvARCH):
        return (_stationary_cov_sequences(model, us, 0)[:, 0],)
    if isinstance(model, TvVMA):
        return (model.psi_stacks(us),)
    if isinstance(model, TvVAR):
        return model.phi_stacks(us), model.sigma_stacks(us)
    raise UnsupportedFamilyError("no spectral density for this family")


def _transfer_powers(model: ModelSpec, omegas: np.ndarray):
    """``e^{i j omega}`` for every ``omega`` and every lag ``j`` of the
    transfer function, shape ``(len(omegas), J)``; None for TvARCH."""
    if isinstance(model, TvVMA):
        lags = np.arange(model.order + 1)
    elif isinstance(model, TvVAR):
        lags = np.arange(1, model.order + 1)
    else:
        return None
    return np.exp(1j * omegas)[:, None] ** lags


def _densities(model: ModelSpec, u: float, omegas: np.ndarray, powers,
               coeffs) -> np.ndarray:
    """``f(omega; u)`` over the grid from the coefficients ``coeffs`` at
    ``u`` (one entry of :func:`_frozen_coefficients` each)."""
    if isinstance(model, TvARCH):
        return np.repeat(coeffs[0].astype(complex)[None], omegas.size, axis=0)
    transfer = np.einsum("wj,jab->wab", powers, coeffs[0])
    if isinstance(model, TvVMA):
        f = transfer @ transfer.conj().transpose(0, 2, 1)
    else:
        ainv = _transfer_inverse(np.eye(model.p) - transfer, u, omegas)
        f = ainv @ coeffs[1] @ ainv.conj().transpose(0, 2, 1)
    return 0.5 * (f + f.conj().transpose(0, 2, 1))


_TRANSFER_RTOL = 1e-10     # singular: sigma_min < _TRANSFER_RTOL * max(sigma_max, 1)


def _transfer_inverse(a: np.ndarray, u: float, omegas: np.ndarray) -> np.ndarray:
    """Inverses of the TvVAR transfer matrices ``A(omega)``, shape ``(W, p, p)``.

    A matrix is refused when ``sigma_min < 1e-10 * max(sigma_max, 1)``.  The
    batched inverse ``X``, which the density needs anyway, is accepted
    without a singular value decomposition when at every ``omega``
    ``||AX - I||_F <= 1/2`` and ``2 ||X||_F max(||A||_F, 1) < 1e10``: then
    ``A^-1 = X (I + R)^-1`` with ``||R||_2 <= 1/2`` gives
    ``sigma_min >= 1/(2 ||X||_F)``, and ``sigma_max <= ||A||_F``, so the
    refusal test passes.  The residual of an accepted ``X`` is about
    ``eps * kappa <= 1e-5``, so ``sigma_min`` is about ``1/||X||_2``, twice
    the bound: a computed SVD, accurate to ``eps * sigma_max``, passes too.
    Otherwise, or when ``inv`` fails, the batched SVD decides.

    Raises:
        ModelError: naming the first singular ``omega`` in grid order.
    """
    try:
        ainv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        ainv = None
    if ainv is not None:
        with np.errstate(all="ignore"):
            resid = np.linalg.norm(a @ ainv - np.eye(a.shape[-1]), axis=(1, 2))
            bound = 2.0 * np.linalg.norm(ainv, axis=(1, 2)) \
                * np.maximum(np.linalg.norm(a, axis=(1, 2)), 1.0)
        if np.all(resid <= 0.5) and np.all(bound < 1.0 / _TRANSFER_RTOL):
            return ainv
    svals = np.linalg.svd(a, compute_uv=False)
    singular = svals[:, -1] < _TRANSFER_RTOL * np.maximum(svals[:, 0], 1.0)
    if singular.any():
        omega = omegas[np.argmax(singular)]
        raise ModelError(f"TvVAR: transfer singular at u={u}, omega={omega}")
    # a failed inv that the SVD passes raises its own error again
    return np.linalg.inv(a) if ainv is None else ainv


def spectral_eig_range(model: ModelSpec, u_grid, omega_grid) -> EigRange:
    """Extremal eigenvalues of ``f(omega; u)`` over the given grids.

    The coefficients are evaluated once for the whole ``u`` grid; the
    densities at each ``u`` are those of :func:`local_spectral_densities`.
    """
    u_grid = np.atleast_1d(np.asarray(u_grid, dtype=float))
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if u_grid.size == 0 or omega_grid.size == 0:
        raise InputError("spectral_eig_range: grids must be nonempty")
    coeffs = _frozen_coefficients(model, u_grid)
    powers = _transfer_powers(model, omega_grid)
    lo, hi = math.inf, -math.inf
    for i, u in enumerate(u_grid):
        vals = np.linalg.eigvalsh(_densities(model, u, omega_grid, powers,
                                             [c[i] for c in coeffs]))
        lo = min(lo, float(vals[:, 0].min()))
        hi = max(hi, float(vals[:, -1].max()))
    return EigRange(lo, hi)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _innovation_width(model: ModelSpec) -> int:
    if isinstance(model, TvARCH):
        return 1
    if isinstance(model, SRE):
        return model.p + 1
    return model.p


def _psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric square root, tolerating semidefinite matrices."""
    s = 0.5 * (s + s.T)
    vals, vecs = np.linalg.eigh(s)
    if vals[0] < -1e-10 * max(abs(vals[-1]), 1.0):
        raise ModelError("innovation variance has a negative eigenvalue")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _validate_for_simulation(model: ModelSpec) -> None:
    """The subset of invariants a recursion needs: contraction, nonnegative
    variances.  Invertibility of the filter is not required to simulate."""
    if isinstance(model, TvVMA):
        return
    rho = stability_radius(model)
    if rho >= 1.0:
        raise ModelError(f"{type(model).__name__}: recursion does not "
                         f"contract (radius {rho:.4f})")
    if isinstance(model, TvARCH):
        if np.any(model.a_values(_VALIDATION_US) < 0):
            raise ModelError("TvARCH: coefficients must be nonnegative")


def _burn_in(model: ModelSpec) -> int:
    order = getattr(model, "order", 1)
    if isinstance(model, TvVMA):
        return model.order
    return 10 * effective_memory(model) + order


def _run_from_innovations(model: ModelSpec, n: int, start: int,
                          eps: np.ndarray) -> np.ndarray:
    """Drive the recursion with a given innovation array.

    ``eps`` has shape ``(reps, T, width)`` for innovations at times
    ``start .. start + T - 1``; returns the paths ``(reps, T, p)``.
    Recursions start from zero state at ``start``.
    """
    reps, steps, _ = eps.shape
    ts = np.arange(start, start + steps)
    us = ts / n
    if isinstance(model, TvVMA):
        j_max = model.order
        p = model.p
        out = np.zeros((reps, steps, p))
        stacks = model.psi_stacks_array(ts, n)
        # X_t = sum_j Psi_{t,j} eps_{t-j}: one GEMM per step of the innovations
        # at t-jj..t, read as rows of length (jj+1)p, against the transposed
        # coefficients in reverse lag order, w[i, m] = Psi_{t_i, j_max-m}^T
        w = np.ascontiguousarray(stacks[:, ::-1].transpose(0, 1, 3, 2))
        for i in range(steps):
            jj = min(j_max, i)
            out[:, i] = (eps[:, i - jj:i + 1].reshape(reps, -1)
                         @ w[i, j_max - jj:].reshape(-1, p))
        return out
    if isinstance(model, TvVAR):
        p, d = model.p, model.order
        out = np.zeros((reps, steps, p))
        phis, sigmas = model.phi_stacks(us), model.sigma_stacks(us)
        for i, (phi, sigma) in enumerate(zip(phis, sigmas)):
            chol = _psd_sqrt(sigma)
            acc = eps[:, i] @ chol.T
            for j in range(1, min(d, i) + 1):
                acc = acc + out[:, i - j] @ phi[j - 1].T
            out[:, i] = acc
        return out
    if isinstance(model, TvARCH):
        d = model.order
        out = np.zeros((reps, steps, 1))
        for i, a in enumerate(model.a_values(us)):
            var = np.full(reps, a[0])
            for j in range(1, min(d, i) + 1):
                var = var + a[j] * out[:, i - j, 0] ** 2
            out[:, i, 0] = np.sqrt(var) * eps[:, i, 0]
        return out
    if isinstance(model, SRE):
        p = model.p
        out = np.zeros((reps, steps, p))
        state = np.zeros((reps, p))
        a_scale = model.a_scale.at(us)[:, 0, 0]
        b_scale = model.b_scale.at(us)[:, 0, 0]
        for i in range(steps):
            scale = float(a_scale[i]) + model.a_noise * eps[:, i, 0]
            drive = float(b_scale[i]) * eps[:, i, 1:]
            state = scale[:, None] * (state @ model.a_matrix.T) + drive
            out[:, i] = state
        return out
    raise UnsupportedFamilyError(f"cannot simulate {type(model).__name__}")


def simulate_path(model: ModelSpec, n: int, t_lo: int, t_hi: int,
                  seed: int) -> SamplePath:
    """Simulate ``X_{t,N}`` for ``t_lo <= t <= t_hi`` with Gaussian innovations.

    Recursive families are burnt in over at least ten effective memory
    lengths; the result is bitwise reproducible for a fixed seed.
    """
    _validate_for_simulation(model)
    burn = _burn_in(model)
    start = t_lo - burn
    steps = t_hi - start + 1
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((1, steps, _innovation_width(model)))
    path = _run_from_innovations(model, n, start, eps)[0, burn:]
    return SamplePath(data=path, t_lo=t_lo, n=n, seed=seed)


def simulate_ensemble(model: ModelSpec, n: int, t_lo: int, t_hi: int,
                      reps: int, seed: int) -> np.ndarray:
    """Independent replications of a path, shape ``(reps, length, p)``.

    Used by Monte Carlo oracles; shares the burn-in policy of
    :func:`simulate_path`.
    """
    _validate_for_simulation(model)
    burn = _burn_in(model)
    start = t_lo - burn
    steps = t_hi - start + 1
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((reps, steps, _innovation_width(model)))
    return _run_from_innovations(model, n, start, eps)[:, burn:]


def physical_dep_estimate(model: ModelSpec, n: int, t: int, j: int,
                          reps: int, seed: int) -> PhysicalDepEstimate:
    """Coupled-process dependence measure at time ``t`` and lag ``j``.

    Reruns the recursion with the innovation at ``t - j`` replaced by an
    independent copy (identical innovations elsewhere) and returns the
    spectral norm of the Monte Carlo variance of ``X_t - X_t'``, with a
    10-batch standard error.

    Raises:
        DomainError: if ``j < 0`` or ``reps < 100``.
    """
    if j < 0:
        raise DomainError("physical_dep_estimate: requires j >= 0")
    if reps < 100:
        raise DomainError("physical_dep_estimate: requires reps >= 100")
    _validate_for_simulation(model)
    burn = _burn_in(model)
    start = t - j - burn
    steps = t - start + 1
    rng = np.random.default_rng(seed)
    width = _innovation_width(model)
    eps = rng.standard_normal((reps, steps, width))
    swap = rng.standard_normal((reps, width))
    base = _run_from_innovations(model, n, start, eps)
    eps_c = eps.copy()
    eps_c[:, steps - 1 - j] = swap
    coupled = _run_from_innovations(model, n, start, eps_c)
    diff = base[:, -1] - coupled[:, -1]

    n_batches = 10
    sizes = np.full(n_batches, reps // n_batches)
    sizes[:reps % n_batches] += 1
    batches = np.split(diff, np.cumsum(sizes)[:-1])
    batch_norms = block_norms(np.stack([d.T @ d / len(d) for d in batches]))
    value = float(block_norms(diff.T @ diff / reps))
    stderr = float(batch_norms.std(ddof=1) / math.sqrt(n_batches))
    return PhysicalDepEstimate(value=value, stderr=stderr, reps=reps)


# ---------------------------------------------------------------------------
# assumption verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionFit:
    """Measured decay and smoothness constants of a covariance window."""

    decay: DecayProfile
    smoothness_constant: float
    kappa_used: float
    gaps: GapReport
    max_gap: float


def assumption_fit(model: ModelSpec, n: int, t_lo: int, t_hi: int,
                   kappa: float | None = None) -> AssumptionFit:
    """Fit the covariance decay and measure the local-stationarity constant.

    The decay exponent comes from regressing the per-lag maximum block norm
    on ``log gu(lag)`` over lags >= 2.  The smoothness constant is the
    smallest K with ``||C_{t,tau} - C_{t-tau}(t/N)|| <= K * gu(t-tau)^{1-kappa}
    * min(1/N, 2/gu(t-tau))`` over the window.

    Raises:
        FitError: if fewer than 4 lags carry a nonzero norm.
    """
    w = cov_window(model, n, t_lo, t_hi)
    length = w.length
    lag_norms = w.lag_max_norms()
    lags = np.arange(2, length)
    if lags.size < 4:
        raise FitError("assumption_fit: window too short for a decay fit")
    norms = lag_norms[2:]
    usable = norms > 1e-14
    if usable.sum() < 4:
        raise FitError("assumption_fit: fewer than 4 usable lags")
    kappa_used = kappa if kappa is not None else getattr(model, "kappa", None)
    fitted = fit_decay_profile(lags, norms, gu(lags) ** 0.0, np.asarray(gu(lags)))
    kappa_hat = -fitted.exponent
    if kappa_used is None:
        kappa_used = kappa_hat
    shape_decay = gu(lags) ** (-kappa_hat)
    k_hat = envelope_constant(norms[usable], shape_decay[usable])
    decay = DecayProfile(constant=k_hat, exponent=kappa_hat, lags=fitted.lags,
                         residuals=fitted.residuals, band_limited=fitted.band_limited)

    # per-pair smoothness gaps against the stationary approximation
    times = np.arange(t_lo, t_hi + 1)
    seqs = _stationary_cov_sequences(model, times / n, length - 1)   # (L, L, p, p)
    lag = times[:, None] - times[None, :]                             # t - tau
    target = seqs[np.arange(length)[:, None], np.abs(lag)]
    upper = lag < 0                                   # C_{-r}(u) = C_r(u)^T
    target[upper] = target[upper].transpose(0, 2, 1)
    measured = block_norms(w.blocks - target).ravel()
    g = gu(lag).ravel()
    envelope = g ** (-(kappa_used - 1.0)) * np.minimum(1.0 / n, 2.0 / g)
    indices = [(int(t), int(tau)) for t in times for tau in times]
    gaps = GapReport(indices=indices, measured=measured, bound=envelope,
                     constant_estimate=envelope_constant(measured, envelope))
    return AssumptionFit(decay=decay, smoothness_constant=gaps.constant_estimate,
                         kappa_used=float(kappa_used), gaps=gaps,
                         max_gap=float(np.max(measured)))
