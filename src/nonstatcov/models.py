"""Locally stationary process families with closed-form covariances.

Four families are implemented:

* :class:`TvVMA` -- time-varying vector moving average with coefficient
  functions of rescaled time; covariances are exact truncated convolution
  sums.
* :class:`TvVAR` -- time-varying vector autoregression; a covariance window
  is the covariance of the recursion started from zero a pad before it,
  carried forward in companion form, which also gives the frozen lags.
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
from typing import NamedTuple, Union

import numpy as np

from .errors import (ConditioningError, DomainError, FitError, InputError,
                     ModelError, UnsupportedFamilyError, check_count, check_size)
from .operator_core import (_BOUND_MARGIN, SPD_RTOL, BlockWindow, EigRange,
                            _mirror_lower, block_norms, block_toeplitz, block_view, gu)
from .reports import (DecayProfile, GapReport, envelope_constant,
                      fit_decay_profile, pair_gaps, two_sided)

_VALIDATION_US = np.linspace(0.0, 1.0, 33)   # where invariants are checked
_VALIDATION_US.flags.writeable = False


def _clamp_u(us) -> np.ndarray:
    us = np.asarray(us, dtype=float)
    return np.where(us < 0.0, 0.0, np.where(us > 1.0, 1.0, us))


def _check_us(us, what: str) -> np.ndarray:
    """``us`` as a 1-d float array, refusing a nan or non-numeric ``u``
    under ``what``; an infinite ``u`` is left for clamping."""
    us = np.atleast_1d(np.asarray(us))
    if us.dtype.kind not in "iuf" or np.isnan(us).any():
        raise InputError(f"{what}: every u must be a number other than nan")
    return us.astype(float)


def _readonly_copy(v) -> np.ndarray:
    a = np.array(v, dtype=float)
    a.flags.writeable = False
    return a


class CoefficientForm(NamedTuple):
    """Payload keys: required ``arrays`` and finite ``scalars`` with defaults."""

    arrays: tuple[str, ...]
    scalars: dict = {}


#: form -> payload keys; the one statement of what each form's payload holds.
COEFFICIENT_FORMS = {
    "constant": CoefficientForm(("value",)),
    "affine": CoefficientForm(("base", "slope")),
    "sinusoidal": CoefficientForm(("base", "amplitude"), {"frequency": 1.0, "phase": 0.0}),
    "piecewise": CoefficientForm(("knots", "values")),
}


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
        for form in COEFFICIENT_FORMS:
            idx = [k for k, fn in enumerate(fns) if fn.form == form]
            if idx:
                payloads = [fns[k].payload for k in idx]
                self._groups.append((form, np.array(idx), self._stack(form, payloads)))

    def _stack(self, form: str, payloads: list) -> dict:
        if form != "piecewise":
            return {key: np.array([p[key] for p in payloads]) for key in payloads[0]}
        # knots padded with +inf, which no clamped time reaches; values with 0
        counts = np.array([len(p["knots"]) for p in payloads])
        knots = np.full((len(payloads), counts.max()), np.inf)
        values = np.zeros((len(payloads), counts.max()) + self.shape)
        for row, vals, p, m in zip(knots, values, payloads, counts):
            row[:m] = p["knots"]
            vals[:m] = p["values"]
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


def _check_piecewise(knots: np.ndarray, values: np.ndarray) -> None:
    """Refuse a ``piecewise`` payload that does not define a bounded,
    Lipschitz function, naming the payload key at fault."""
    if knots.ndim != 1 or knots.size < 2 or not np.all(np.isfinite(knots)):
        raise InputError("piecewise form needs >= 2 knots, each a finite number",
                         key="knots")
    if values.ndim == 0 or values.shape[0] != knots.size:
        raise InputError("piecewise values must match knots", key="values")
    if not np.all(np.diff(knots) > 0):
        raise InputError("piecewise knots must be strictly increasing", key="knots")
    # a knot gap near the float minimum makes a slope overflow; the function
    # then has no Lipschitz constant, which every smoothness envelope assumes
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(values, axis=0) \
            / np.diff(knots).reshape((-1,) + (1,) * (values.ndim - 1))
    if not np.all(np.isfinite(slopes)):
        raise InputError("piecewise segment slopes must be finite", key="knots")


@dataclass(frozen=True, eq=False)
class CoefficientFn:
    """A matrix-valued function of rescaled time.

    Supported forms:

    * ``constant``: ``value``
    * ``affine``: ``base + slope * u``
    * ``sinusoidal``: ``base + amplitude * sin(2*pi*(frequency*u + phase))``
    * ``piecewise``: linear interpolation of ``values`` over ``knots``,
      held at the end values outside ``[knots[0], knots[-1]]``

    ``COEFFICIENT_FORMS`` lists each form's payload keys; the scalar keys
    default when left out.  All payload matrices must share one square
    shape (a scalar is a ``1 x 1`` matrix).  Evaluation clamps
    ``u`` into ``[0, 1]``.  Payload arrays are read-only copies, so a
    function (and a model built from it) cannot change after construction.
    """

    form: str
    payload: dict

    def __post_init__(self):
        spec = COEFFICIENT_FORMS.get(self.form) if isinstance(self.form, str) else None
        if spec is None or set(spec.arrays) - set(self.payload) \
                or set(self.payload) - {*spec.arrays, *spec.scalars}:
            raise InputError(f"CoefficientFn: form {self.form!r} with payload keys "
                             f"{list(self.payload)} is not in COEFFICIENT_FORMS")
        piecewise = self.form == "piecewise"
        payload = {key: _readonly_copy(self.payload[key] if piecewise
                                       else np.atleast_2d(self.payload[key]))
                   for key in spec.arrays}
        payload.update((key, float(self.payload.get(key, default)))
                       for key, default in spec.scalars.items())
        if not all(math.isfinite(payload[key]) for key in spec.scalars):
            raise InputError("CoefficientFn: scalar payload entries must be finite")
        object.__setattr__(self, "payload", payload)
        if piecewise:
            _check_piecewise(payload["knots"], payload["values"])
        shape = self.matrix_shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise InputError("CoefficientFn: payload matrices must be square")
        if not piecewise and any(payload[key].shape != shape for key in spec.arrays):
            raise InputError("CoefficientFn: payload matrices differ in shape")
        object.__setattr__(self, "_family", CoefficientFamily((self,)))

    @property
    def matrix_shape(self) -> tuple[int, ...]:
        if self.form == "piecewise":
            return self.payload["values"].shape[1:]
        return self.payload[COEFFICIENT_FORMS[self.form].arrays[0]].shape

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


def constant_fn(value) -> CoefficientFn:
    return CoefficientFn("constant", {"value": value})


def affine_fn(base, slope) -> CoefficientFn:
    return CoefficientFn("affine", {"base": base, "slope": slope})


def sinusoidal_fn(base, amplitude, frequency=1.0, phase=0.0) -> CoefficientFn:
    return CoefficientFn("sinusoidal", {"base": base, "amplitude": amplitude,
                                        "frequency": frequency, "phase": phase})


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
        a = _readonly_copy(self.a_matrix)
        if a.shape != (self.p, self.p):
            raise InputError("SRE: a_matrix must be p x p")
        object.__setattr__(self, "a_matrix", a)
        if self.a_scale.dim != 1 or self.b_scale.dim != 1:
            raise InputError("SRE: scale functions must be scalar")

    def contraction_bound(self) -> float:
        """sup over u of ``||E[A A^T]||_2``; must be below one."""
        m2 = float(np.linalg.norm(self.a_matrix @ self.a_matrix.T, 2))
        a = self.a_scale.at(_VALIDATION_US)[:, 0, 0]
        return float(((a * a + self.a_noise**2) * m2).max())


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

def _companions(phis: np.ndarray) -> np.ndarray:
    """Companion matrices ``(U, d p, d p)`` of the lag stacks ``(U, d, p, p)``:
    ``Phi_1 .. Phi_d`` over a shifted identity."""
    count, d, p, _ = phis.shape
    comp = np.zeros((count, d * p, d * p))
    comp[:, :p] = phis.transpose(0, 2, 1, 3).reshape(count, p, d * p)
    comp[:, p:, :-p] = np.eye((d - 1) * p)
    return comp


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
        comps = _companions(model.phi_stacks(_VALIDATION_US))
        return float(np.abs(np.linalg.eigvals(comps)).max())
    if isinstance(model, TvARCH):
        return float(model.a_values(_VALIDATION_US)[:, 1:].sum(axis=1).max())
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
    # transfers on the half of the grid omega_k = 2 pi k / 128, which holds
    # the singular values of the whole grid for real coefficients
    info: dict = {"family": type(model).__name__}

    if isinstance(model, TvVAR):
        radius = stability_radius(model)
        info["stability_radius"] = radius
        if radius >= 1.0 / 1.02:
            raise ModelError(f"TvVAR: companion radius {radius:.4f} leaves no "
                             "stability margin")
        not_spd = np.linalg.eigvalsh(model.sigma_stacks(_VALIDATION_US))[:, 0] <= 0
        if not_spd.any():
            raise ModelError("TvVAR: innovation variance not SPD at "
                             f"u={_VALIDATION_US[np.argmax(not_spd)]:.3f}")
        # A(z) on the circle |z| = 1.02: lag j scaled by 1.02^j
        scaled = model.phi_stacks(_VALIDATION_US) \
            * (1.02 ** np.arange(1, model.order + 1))[:, None, None]
        a = _grid_transfer(_var_transfer_lags(scaled), 128)
        margin = float(np.linalg.svd(a, compute_uv=False)[..., -1].min())
        info["stability_margin"] = margin
        if margin <= 1e-8:
            raise ModelError("TvVAR: transfer function nearly singular inside "
                             "the stability disc")
        return info

    if isinstance(model, TvVMA):
        stacks = model.psi_stacks(_VALIDATION_US)
        transfer = _grid_transfer(stacks, 128)
        filt_min = float(np.linalg.svd(transfer, compute_uv=False)[..., -1].min())
        info["filter_min_singular_value"] = filt_min
        if model.kappa is not None:
            shape = gu(np.arange(model.order + 1)) ** (-model.kappa)
            info["envelope_constant"] = envelope_constant(block_norms(stacks), shape)
        if filt_min <= 1e-8:
            raise ModelError("TvVMA: moving-average filter vanishes on the "
                             "unit circle")
        return info

    if isinstance(model, TvARCH):
        rows = model.a_values(_VALIDATION_US)
        a0_min = float(rows[:, 0].min())
        info["a0_min"] = a0_min
        if a0_min <= 0:
            raise ModelError("TvARCH: intercept must be bounded away from zero")
        if np.any(rows[:, 1:] < 0):
            raise ModelError("TvARCH: lag coefficients must be nonnegative")
        # fourth-moment condition with Gaussian innovations: sqrt(E Z^4) = sqrt(3)
        load = float(math.sqrt(3.0) * rows[:, 1:].sum(axis=1).max())
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

def _lag_products(stacks: np.ndarray, max_lag: int, step: int):
    """Lag convolutions of a coefficient stack with itself, one batched
    matmul per lag.

    ``stacks`` has shape ``(T, K, p, p)``: ``stacks[t, j]`` is the lag-``j``
    coefficient at time ``t``.  Returns an iterator of ``(r, prod)`` for
    ``r = 0 .. min(max_lag, K - 1)``, where
    ``prod[t] = sum_j stacks[t, j] @ stacks[t + step*r, j + r].T`` for the
    ``T - step*r`` times ``t`` that keep ``t + step*r`` inside the stack
    (``step`` is 1 for a window of the array, 0 for frozen-time sequences).

    The stack is copied once, before this returns, into the layout
    ``(T, p, K, p)``, so a caller may drop it before it iterates; there the
    sum over ``(j, b)`` of every lag is a contiguous run of each row, so both
    operands of the ``(T', p, (K-r) p) @ (T', (K-r) p, p)`` product are views.
    """
    rows = np.ascontiguousarray(np.swapaxes(stacks, 1, 2))
    return ((r, _lag_product(rows, r, step))
            for r in range(min(max_lag, rows.shape[2] - 1) + 1))


def _lag_product(rows: np.ndarray, r: int, step: int) -> np.ndarray:
    """The lag-``r`` product of :func:`_lag_products` from its row layout."""
    times, p, k, _ = rows.shape
    m = times - step * r
    a = rows[:m, :, :k - r].reshape(m, p, (k - r) * p)
    b = rows[step * r:, :, r:].reshape(m, p, (k - r) * p)
    with np.errstate(over="ignore", invalid="ignore"):   # callers refuse overflow
        return a @ b.transpose(0, 2, 1)


def _vma_cov_window(model: TvVMA, n: int, t_lo: int, t_hi: int) -> BlockWindow:
    length, p = t_hi - t_lo + 1, model.p
    stacks = model.psi_stacks_array(np.arange(t_lo, t_hi + 1), n)  # (L, J+1, p, p)
    # the products' copy of the stacks is made now, and the stacks dropped,
    # before the window is allocated
    products = _lag_products(stacks, length - 1, step=1)
    del stacks
    flat = np.zeros((length * p, length * p))
    blocks = block_view(flat, p)
    # C_{t,t+delta} = sum_j Psi_{t,j} Psi_{t+delta,j+delta}^T
    for delta, vals in products:
        idx = np.arange(length - delta)
        if delta == 0:
            # sum_j Psi Psi^T is symmetric; the mirror makes it exactly so
            # (a no-op when the product already is)
            vals = 0.5 * (vals + vals.transpose(0, 2, 1))
        blocks[idx, idx + delta] = vals
        if delta:
            blocks[idx + delta, idx] = vals.transpose(0, 2, 1)
    del products
    return BlockWindow._adopt(flat, p, t_lo=t_lo)


def _var_cov_window(model: TvVAR, n: int, t_lo: int, t_hi: int, pad: int) -> np.ndarray:
    """Flat covariance window of the recursion started from zero at
    ``t_lo - pad``, exactly symmetric.

    In companion form ``Y_t = (X_t, ..., X_{t-d+1}) = A_t Y_{t-1} + e_t``,
    with ``e_t = (eps_t, 0, ..., 0)``.  Over the pad only
    ``V_t = Cov(Y_t) = A_t V_{t-1} A_t^T + diag(Sigma_t, 0)`` is carried;
    over the window also ``K = Cov(Y_t, X_s)`` for ``t_lo <= s <= t``:
    ``e_t`` is independent of the past, so the columns ``s < t`` become
    ``A_t K`` and the new column is ``V_t[:, :p]``.  Block row ``t`` of the
    window is ``K[:p]``; the lower triangle is filled and mirrored once.
    """
    length, p, d = t_hi - t_lo + 1, model.p, model.order
    us = np.arange(t_lo - pad, t_hi + 1) / n
    sigma = model.sigma_stacks(us)
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ConditioningError(
            f"cov_window: TvVAR innovation variance not SPD at some u in "
            f"[{us[0]:.4f}, {us[-1]:.4f}]") from None
    comp = _companions(model.phi_stacks(us))
    v = np.zeros((d * p, d * p))
    k = np.empty((d * p, length * p))
    flat = np.zeros((length * p, length * p))
    with np.errstate(over="ignore", invalid="ignore"):   # the caller refuses overflow
        for i, (a, s) in enumerate(zip(comp, sigma)):
            v = a @ v @ a.T
            v[:p, :p] += s
            col = (i - pad) * p
            if col >= 0:
                k[:, :col] = a @ k[:, :col]
                k[:, col:col + p] = v[:, :p]
                flat[col:col + p, :col + p] = k[:p, :col + p]
    _mirror_lower(flat)
    return flat


def _check_window(n, t_lo, t_hi, what: str) -> None:
    """Refuse, under the entry point's name ``what``, a bad sample size
    ``n``, then what :func:`_check_times` refuses."""
    check_size(n, what)
    _check_times(t_lo, t_hi, what)


def _check_times(t_lo, t_hi, what: str) -> None:
    """Refuse, under the entry point's name ``what``, a ``bool`` or
    non-integer time, or an empty window."""
    check_count(t_lo, "t_lo", what, signed=True)
    check_count(t_hi, "t_hi", what, signed=True)
    if t_hi < t_lo:
        raise InputError(f"{what}: empty window")


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

    Exact up to the MA truncation tolerance (TvVMA).  A TvVAR window is the
    exact covariance of the recursion started from zero ``pad`` steps
    before ``t_lo`` (default :func:`cov_pad`); the start's effect dies
    geometrically, and no pad follows the window.  ``pad`` is read only for
    a TvVAR.

    Raises:
        InputError: a ``bool`` or non-integer ``n``, ``t_lo``, ``t_hi`` or
            ``pad``, an empty window, or non-finite entries.
        DomainError: ``n < 1`` or a negative ``pad``.
        ConditioningError: a TvVAR innovation variance that is not SPD at a
            time the recursion uses.
        ModelError: if the family invariants fail.
        UnsupportedFamilyError: for SRE models (Monte Carlo only).
    """
    _check_window(n, t_lo, t_hi, "cov_window")
    if pad is not None:
        check_count(pad, "pad", "cov_window")
    validate_model(model)
    if isinstance(model, TvVMA):
        return _vma_cov_window(model, n, t_lo, t_hi)
    if isinstance(model, TvVAR):
        pad = cov_pad(model) if pad is None else pad
        return BlockWindow._adopt(_var_cov_window(model, n, t_lo, t_hi, pad),
                                  model.p, t_lo=t_lo, what="cov_window")
    if isinstance(model, TvARCH):
        m = _arch_mean_square(model, n, t_lo, t_hi)
        return BlockWindow._adopt(np.diag(m), 1, t_lo=t_lo)
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

#: Doublings before the frozen TvVAR covariance is refused: 2^64 terms, so a
#: radius 1 - 2^-53 leaves rho^(2^64) <= e^-2048, below any polynomial transient
_DOUBLINGS = 64


def _no_ma_representation(model: ModelSpec) -> UnsupportedFamilyError:
    return UnsupportedFamilyError(
        f"{type(model).__name__} has no moving-average representation here")


def _var_frozen_lags(model: TvVAR, us: np.ndarray, max_lag: int) -> np.ndarray:
    """``C_r(u) = [A^r V]_{:p,:p}`` at every ``u`` of ``us``, with the
    companion-form covariance ``V = A V A^T + diag(Sigma, 0)`` from Smith's
    doubling ``V <- V + P V P^T``, ``P <- P^2``, stopped at each ``u`` once
    ``V`` repeats bit for bit.  A refusal names the first ``u`` that fails,
    checking the radius before ``Sigma``."""
    p = model.p
    comps, sigmas = _companions(model.phi_stacks(us)), model.sigma_stacks(us)
    unstable = np.abs(np.linalg.eigvals(comps)).max(axis=1) >= 1.0
    bad = unstable | (np.linalg.eigvalsh(sigmas)[:, 0] <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        what = "frozen process unstable" if unstable[i] else "innovation variance not SPD"
        raise ModelError(f"TvVAR: {what} at u={us[i]:.4f}")
    v = np.zeros_like(comps)
    v[:, :p, :p] = sigmas
    power, active = comps, np.ones(us.size, dtype=bool)
    # an overflowing sum stops its u and is refused by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_DOUBLINGS):
            nxt = v + power @ v @ power.transpose(0, 2, 1)
            active &= np.any(nxt != v, axis=(1, 2))
            v[active] = nxt[active]
            active &= np.isfinite(nxt).all(axis=(1, 2))
            if not active.any():
                break
            power = power @ power
        else:
            raise ModelError("TvVAR: frozen covariance does not settle at "
                             f"u={us[np.argmax(active)]:.4f}")
        # V[:, :p] of the exactly symmetric V
        cols = np.ascontiguousarray(0.5 * (v + v.transpose(0, 2, 1))[:, :, :p])
        out = np.empty((us.size, max_lag + 1, p, p))
        for r in range(max_lag + 1):
            out[:, r] = cols[:, :p]
            cols = comps @ cols
    return out


def _stationary_cov_sequences(model: ModelSpec, us, max_lag: int) -> np.ndarray:
    """``C_r(u)`` for every ``u`` of ``us`` and ``r = 0..max_lag``, shape
    ``(len(us), max_lag+1, p, p)``."""
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if isinstance(model, TvARCH):
        a = model.a_values(us)
        out = np.zeros((us.size, max_lag + 1, 1, 1))
        out[:, 0, 0, 0] = a[:, 0] / (1.0 - np.sum(a[:, 1:], axis=1))
        return out
    if isinstance(model, TvVAR):
        out = _var_frozen_lags(model, us, max_lag)
    elif isinstance(model, TvVMA):
        psis = model.psi_stacks(us)
        out = np.zeros((us.size, max_lag + 1, model.p, model.p))
        # C_r = sum_j Psi_{j+r} Psi_j^T, the transpose of the lag product
        for r, prod in _lag_products(psis, max_lag, step=0):
            out[:, r] = prod.transpose(0, 2, 1)
    else:
        raise _no_ma_representation(model)
    # a sum that overflowed is refused, as a non-finite window is
    if not np.all(np.isfinite(out)):
        raise InputError("stationary_cov_sequence: non-finite entries")
    return out


def stationary_cov_sequence(model: ModelSpec, u: float, max_lag: int) -> np.ndarray:
    """``C_r(u)`` for ``r = 0..max_lag``, shape ``(max_lag+1, p, p)``.

    Negative lags follow from ``C_{-r}(u) = C_r(u)^T``.

    Raises:
        InputError: a nan or non-numeric ``u``, a ``bool`` or non-integer
            ``max_lag``, or a lag sum that overflows.
        DomainError: a negative ``max_lag``.
        ModelError: a TvVAR whose frozen process at ``u`` is unstable, whose
            innovation variance is not SPD there, or whose covariance
            doubling does not settle.
    """
    _check_us(u, "stationary_cov_sequence")
    check_count(max_lag, "max_lag", "stationary_cov_sequence")
    return _stationary_cov_sequences(model, [u], max_lag)[0]


def stationary_cov(model: ModelSpec, u: float, r: int) -> np.ndarray:
    """Autocovariance ``C_r(u)`` of the frozen process at rescaled time ``u``."""
    seq = stationary_cov_sequence(model, u, abs(int(r)))
    c = seq[abs(int(r))]
    return c.T.copy() if r < 0 else c.copy()


def stationary_window(model: ModelSpec, u: float, t_lo: int, t_hi: int) -> BlockWindow:
    """Block Toeplitz section of the frozen-process covariance at ``u``;
    a nan or non-numeric ``u``, a ``bool`` or non-integer time, or an empty
    window is refused with :class:`InputError`."""
    _check_us(u, "stationary_window")
    _check_times(t_lo, t_hi, "stationary_window")
    length = t_hi - t_lo + 1
    seq = stationary_cov_sequence(model, u, length - 1)
    # C_{t,tau} = C_{t-tau}(u)
    return BlockWindow._adopt(block_toeplitz(seq, length), seq.shape[1], t_lo=t_lo)


# ---------------------------------------------------------------------------
# local spectral density
# ---------------------------------------------------------------------------

def local_spectral_density(model: ModelSpec, u: float, omega: float) -> np.ndarray:
    """Hermitian local spectral density ``f(omega; u) = sum_r C_r(u) e^{i r omega}``.

    No ``1/(2*pi)`` factor: the inversion back to lag space is
    ``C_r(u) = (2*pi)^{-1} \\int_0^{2*pi} f(omega; u) e^{-i r omega} d omega``.

    Raises:
        InputError: a nan or non-numeric ``u``, or a non-finite ``omega``.
        ModelError: if a TvVAR transfer function is singular at ``(u, omega)``.
    """
    return _densities(model, [u], [omega], "local_spectral_density")[0, 0]


def local_spectral_densities(model: ModelSpec, u: float, omega_grid) -> np.ndarray:
    """``f(omega; u)`` at every ``omega`` of a grid, shape ``(len, p, p)``:
    the one-``u`` row of :func:`_densities`.

    Raises:
        InputError: a nan or non-numeric ``u``, or a non-finite ``omega``.
        ModelError: naming the first ``omega`` of the grid, in grid order, at
            which a TvVAR transfer function is singular.
    """
    return _densities(model, [u], omega_grid, "local_spectral_densities")[0]


def _check_omegas(omegas, what: str) -> np.ndarray:
    """``omegas`` as a 1-d float array, refusing a non-finite or non-numeric
    ``omega`` under ``what``."""
    omegas = np.atleast_1d(np.asarray(omegas))
    if omegas.dtype.kind not in "iuf" or not np.isfinite(omegas).all():
        raise InputError(f"{what}: every omega must be a finite number")
    return omegas.astype(float)


def _densities(model: ModelSpec, us, omegas, what: str) -> np.ndarray:
    """``f(omega; u)`` for every ``u`` of ``us`` and every ``omega``, shape
    ``(U, W, p, p)``, from stacked kernels; the transfer, its inverse and the
    densities each hold ``U W p^2`` complex numbers.  An infinite ``u`` is
    clamped to ``[0, 1]``, as by every coefficient function.

    Raises:
        InputError: naming ``what``, a nan or non-numeric ``u`` or a
            non-finite or non-numeric ``omega``.
        ModelError: naming the first singular ``(u, omega)`` of a TvVAR
            transfer, ``u`` first.
        UnsupportedFamilyError: for SRE models.
    """
    us, omegas = _check_us(us, what), _check_omegas(omegas, what)
    if isinstance(model, TvARCH):
        c0 = _stationary_cov_sequences(model, us, 0)[:, 0]
        return np.repeat(c0.astype(complex)[:, None], omegas.size, axis=1)
    if isinstance(model, TvVMA):
        lags, coeffs = np.arange(model.order + 1), model.psi_stacks(us)
    elif isinstance(model, TvVAR):
        lags, coeffs = np.arange(1, model.order + 1), model.phi_stacks(us)
    else:
        raise UnsupportedFamilyError("no spectral density for this family")
    transfer = np.einsum("wj,ujab->uwab", np.exp(1j * omegas)[:, None] ** lags, coeffs)
    if isinstance(model, TvVMA):
        f = transfer @ transfer.conj().swapaxes(-2, -1)
    else:
        ainv = _transfer_inverse(np.eye(model.p) - transfer, us, omegas)
        f = ainv @ model.sigma_stacks(us)[:, None] @ ainv.conj().swapaxes(-2, -1)
    return 0.5 * (f + f.conj().swapaxes(-2, -1))


_TRANSFER_RTOL = 1e-10     # singular: sigma_min < _TRANSFER_RTOL * max(sigma_max, 1)


def _screened_inverse(a: np.ndarray):
    """Batched inverse ``X`` of the matrices ``a`` (``(..., p, p)``) and the
    mask of those on which ``||aX - I||_F <= 1/2``, so that
    ``a^-1 = X (I + R)^-1`` with ``||R||_2 <= 1/2`` and
    ``sigma_min(a) >= 1/(2 ||X||_F)``.  ``X`` is None when ``inv`` fails."""
    try:
        ainv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None, np.zeros(a.shape[:-2], dtype=bool)
    with np.errstate(all="ignore"):
        resid = np.linalg.norm(a @ ainv - np.eye(a.shape[-1]), axis=(-2, -1))
    return ainv, resid <= 0.5


def _transfer_guard(a: np.ndarray, us, omegas: np.ndarray,
                    screened: np.ndarray) -> None:
    """The singular-transfer refusal, decided by a batched SVD at the
    ``(u, omega)`` that a certified screen did not accept.

    ``a`` stacks the transfer matrices at ``(W,)`` omegas of one ``u`` or
    at ``(U, W)`` pairs.  One is singular when
    ``sigma_min < 1e-10 * max(sigma_max, 1)``; ``screened`` marks the
    matrices that a screen has shown are not.

    Raises:
        ModelError: naming the first singular ``(u, omega)``, ``u`` first.
    """
    rest = np.flatnonzero(~screened)
    if rest.size == 0:
        return
    svals = np.linalg.svd(a.reshape((-1,) + a.shape[-2:])[rest], compute_uv=False)
    singular = svals[:, -1] < _TRANSFER_RTOL * np.maximum(svals[:, 0], 1.0)
    if singular.any():
        k = rest[np.argmax(singular)]
        u = np.broadcast_to(np.asarray(us)[..., None], screened.shape).flat[k]
        omega = np.broadcast_to(omegas, screened.shape).flat[k]
        raise ModelError(f"TvVAR: transfer singular at u={u}, omega={omega}")


def _transfer_inverse(a: np.ndarray, us, omegas: np.ndarray) -> np.ndarray:
    """Inverses of the TvVAR transfer matrices ``A(omega)`` of a stack as
    :func:`_transfer_guard` takes it.

    The batched inverse ``X``, which the density needs anyway, passes the
    singular-transfer screen at an ``omega`` where ``||AX - I||_F <= 1/2``
    and ``2 ||X||_F max(||A||_F, 1) < 1e10``: then
    ``sigma_min >= 1/(2 ||X||_F)`` (:func:`_screened_inverse`) and
    ``sigma_max <= ||A||_F``, so the refusal test passes.  The residual of
    an accepted ``X`` is about ``eps * kappa <= 1e-5``, so ``sigma_min`` is
    about ``1/||X||_2``, twice the bound: a computed SVD, accurate to
    ``eps * sigma_max``, passes too.  :func:`_transfer_guard` decides at
    the other ``omega``.

    Raises:
        ModelError: naming the first singular ``(u, omega)``, ``u`` first.
    """
    ainv, screened = _screened_inverse(a)
    if ainv is not None:
        with np.errstate(all="ignore"):
            bound = 2.0 * _frobenius(ainv) * np.maximum(_frobenius(a), 1.0)
        screened &= bound < 1.0 / _TRANSFER_RTOL
    _transfer_guard(a, us, omegas, screened)
    # a failed inv that the SVD passes raises its own error again
    return np.linalg.inv(a) if ainv is None else ainv


def spectral_eig_range(model: ModelSpec, u_grid, omega_grid) -> EigRange:
    """Extremal eigenvalues of ``f(omega; u)`` over the given grids: one
    batched ``eigvalsh`` of the stack :func:`_densities` gives.

    Raises:
        InputError: an empty grid, or a grid that :func:`_densities` refuses.
    """
    if np.size(u_grid) == 0 or np.size(omega_grid) == 0:
        raise InputError("spectral_eig_range: grids must be nonempty")
    vals = np.linalg.eigvalsh(_densities(model, u_grid, omega_grid,
                                         "spectral_eig_range"))
    return EigRange(float(vals[..., 0].min()), float(vals[..., -1].max()))


# ---------------------------------------------------------------------------
# the frozen spectrum on the FFT grid
# ---------------------------------------------------------------------------
#
# On the grid omega_k = 2 pi k / m the transfer function is one FFT of its
# lag stack, exactly, and for real coefficients f(omega_{m-k}) is the
# complex conjugate of f(omega_k), so the half grid k = 0..m/2 carries it.

def _transfer_order(model: ModelSpec) -> int:
    """Highest lag ``J`` of the frozen transfer function: the MA order of a
    TvVMA, the AR order of a TvVAR, 0 for TvARCH.

    Raises:
        UnsupportedFamilyError: for SRE models.
    """
    if isinstance(model, (TvVMA, TvVAR)):
        return model.order
    if isinstance(model, TvARCH):
        return 0
    raise _no_ma_representation(model)


def _half_grid(m: int) -> np.ndarray:
    """``omega_k = 2 pi k / m`` for ``k = 0..m//2``."""
    return 2.0 * math.pi * np.arange(m // 2 + 1) / m


def _grid_transfer(lags: np.ndarray, m: int) -> np.ndarray:
    """``sum_j lags[:, j] e^{i j omega_k}`` on :func:`_half_grid`, shape
    ``(U, m//2 + 1, p, p)`` for a ``(U, J + 1, p, p)`` stack.

    The lags are folded modulo ``m`` first, which is exact on the grid
    (``rfft(x, n=m)`` would truncate a stack longer than ``m``).
    """
    count, k = lags.shape[:2]
    if k > m:
        folded = np.zeros((count, -(-k // m) * m) + lags.shape[2:])
        folded[:, :k] = lags
        lags = folded.reshape((count, -1, m) + lags.shape[2:]).sum(axis=1)
    return np.fft.rfft(lags, n=m, axis=1).conj()


def _var_transfer_lags(phis: np.ndarray) -> np.ndarray:
    """Lag stack ``I, -Phi_1, .., -Phi_d`` of ``A(omega)``, for every ``u``."""
    count, d, p, _ = phis.shape
    lags = np.empty((count, d + 1, p, p))
    lags[:, 0] = np.eye(p)
    lags[:, 1:] = -phis
    return lags


def _frobenius(a: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a, axis=(-2, -1))


def _log_det_bounds(a: np.ndarray):
    """``log |det a|``, ``||a||_F`` and ``log(|det a| / ||a||_F^(p-1))`` of
    a stack of ``p x p`` matrices.  The last is a lower bound on
    ``log sigma_min``: ``|det a|`` is the product of the singular values,
    each at most ``sigma_max <= ||a||_F``."""
    logdet = np.linalg.slogdet(a)[1]
    fro = _frobenius(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        return logdet, fro, logdet - (a.shape[-1] - 1) * np.log(fro)


def _transfer_log_abs_det(a: np.ndarray, u: float, omegas: np.ndarray) -> np.ndarray:
    """``log |det A(omega)|`` of TvVAR transfer matrices ``(W, p, p)``, with
    the singular-transfer refusal of :func:`_transfer_inverse`.

    The screen accepts where the bound ``|det A| / ||A||_F^(p-1)`` on
    ``sigma_min`` (:func:`_log_det_bounds`) clears the threshold
    ``1e-10 * max(||A||_F, 1)``, which bounds the refusal's from above,
    twice over, the margin of :func:`_transfer_inverse`: an accepted matrix
    has a condition number below about ``5e9``, so the computed determinant
    is correct to a relative ``1e-5`` and a computed SVD passes too.
    :func:`_transfer_guard` decides at the other ``omega``.

    Raises:
        ModelError: naming the first singular ``omega`` in grid order.
    """
    logdet, fro, lower = _log_det_bounds(a)
    with np.errstate(invalid="ignore"):
        screened = lower >= np.log(2.0 * _TRANSFER_RTOL * np.maximum(fro, 1.0))
    _transfer_guard(a, u, omegas, screened)
    return logdet


def _log_det_integral(model: ModelSpec, u: float, m: int, what: str) -> float:
    """``(2 pi)^-1 int_0^{2 pi} log det f(omega; u) d omega`` as the mean of
    ``log det f`` over the ``m``-point grid ``omega_k = 2 pi k / m``.

    TvVAR: ``log det f = log det Sigma(u) - 2 log |det A(omega)|``, with the
    transfer refused as by :func:`local_spectral_densities`; TvVMA and TvARCH:
    one batched Cholesky factor of ``f``.  No eigensolve and no inverse.

    Raises:
        ModelError: naming the first ``omega`` of the grid at which a TvVAR
            transfer function is singular.
        ConditioningError: ``"{what}: spectral density not SPD"`` when a
            Cholesky factor of ``Sigma(u)`` or of ``f`` fails.
        UnsupportedFamilyError: for SRE models.
    """
    omegas = _half_grid(m)
    if isinstance(model, TvVAR):
        a = _grid_transfer(_var_transfer_lags(model.phi_stacks([u])), m)[0]
        log_abs = _transfer_log_abs_det(a, u, omegas)
        f, shift = model.sigma_stacks([u]), -2.0 * log_abs
    elif isinstance(model, TvVMA):
        t = _grid_transfer(model.psi_stacks([u]), m)[0]
        f, shift = t @ t.conj().transpose(0, 2, 1), 0.0
    elif isinstance(model, TvARCH):
        f, shift = _stationary_cov_sequences(model, [u], 0)[:, 0], 0.0
    else:
        raise UnsupportedFamilyError("no spectral density for this family")
    try:
        chol = np.linalg.cholesky(f)
    except np.linalg.LinAlgError:
        raise ConditioningError(f"{what}: spectral density not SPD") from None
    log_f = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2).real).sum(axis=1) + shift
    log_f = np.broadcast_to(log_f, omegas.shape)
    # the interior of the half grid stands for both omega_k and omega_{m-k}
    weights = np.full(omegas.size, 2.0)
    weights[[0, -1]] = 1.0
    return float(weights @ log_f) / m


def _inverse_spectrum(model: ModelSpec, us, m: int):
    """``f(omega_k; u)^-1`` on :func:`_half_grid` for every ``u`` of ``us``,
    shape ``(len(us), m//2 + 1, p, p)``, and the mask of the ``u`` whose
    symbol passed the screen below (zero where it did not).

    TvVMA: ``f^-1 = T^-* T^-1``, from the batched inverse ``X`` of the
    transfer ``T``.  TvVAR: ``f^-1 = A^* Sigma^-1 A``, no inverse of ``A``.
    TvARCH: ``1 / C_0(u)``.

    A ``u`` passes when its factorisations succeed, a TvVAR's companion
    radius is below one (the frozen process is causal), and the bound
    ``max_k lambda_max(f) * max_k lambda_max(f^-1)`` on the condition of
    every Toeplitz section of the symbol clears ``1/SPD_RTOL`` by the factor
    ``1e3``, as :func:`~nonstatcov.operator_core.spd_inverse` asks of a
    section.  The bounds: ``||T||_F^2`` and ``4 ||X||_F^2`` (where
    ``||TX - I||_F <= 1/2``); ``tr Sigma * ||A||_F^(2(p-1)) / |det A|^2``
    and ``tr(A^* Sigma^-1 A)``; ``C_0`` and ``1/C_0``.

    Raises:
        UnsupportedFamilyError: for SRE models.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if isinstance(model, TvARCH):
        c0 = _stationary_cov_sequences(model, us, 0)[:, 0, 0, 0]
        ok = c0 > 0.0
        with np.errstate(divide="ignore"):
            inv_c0 = np.where(ok, 1.0 / c0, 0.0)
        ub_f, ub_g = c0[:, None], inv_c0[:, None]
        g = np.broadcast_to(inv_c0[:, None, None, None],
                            (us.size, m // 2 + 1, 1, 1)).astype(complex)
    elif isinstance(model, TvVMA):
        t = _grid_transfer(model.psi_stacks(us), m)
        x, screened = _screened_inverse(t)
        if x is None:
            return np.zeros(t.shape, dtype=complex), np.zeros(us.size, dtype=bool)
        ok = screened.all(axis=1)
        g = x.conj().swapaxes(-2, -1) @ x
        ub_f, ub_g = _frobenius(t) ** 2, 4.0 * _frobenius(x) ** 2
    elif isinstance(model, TvVAR):
        phis, sigmas = model.phi_stacks(us), model.sigma_stacks(us)
        ok = (np.abs(np.linalg.eigvals(_companions(phis))).max(axis=1) < 1.0) \
            & (np.linalg.eigvalsh(sigmas)[:, 0] > 0.0)
        sigmas = np.where(ok[:, None, None], sigmas, np.eye(model.p))
        a = _grid_transfer(_var_transfer_lags(phis), m)
        g = a.conj().swapaxes(-2, -1) @ np.linalg.inv(sigmas)[:, None] @ a
        with np.errstate(all="ignore"):
            # lambda_max(f) <= tr Sigma / sigma_min(A)^2
            ub_f = np.trace(sigmas, axis1=1, axis2=2)[:, None] \
                * np.exp(-2.0 * _log_det_bounds(a)[2])
        ub_g = np.trace(g, axis1=2, axis2=3).real
    else:
        raise _no_ma_representation(model)
    with np.errstate(all="ignore"):
        bound = ub_f.max(axis=1) * ub_g.max(axis=1)
    ok &= bound * _BOUND_MARGIN < 1.0 / SPD_RTOL
    g = np.where(ok[:, None, None, None], g, 0.0)
    return g, ok


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
    """Symmetric square roots of a ``(..., p, p)`` stack, tolerating
    semidefinite matrices."""
    s = 0.5 * (s + s.swapaxes(-2, -1))
    vals, vecs = np.linalg.eigh(s)
    if np.any(vals[..., 0] < -1e-10 * np.maximum(np.abs(vals[..., -1]), 1.0)):
        raise ModelError("innovation variance has a negative eigenvalue")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ vecs.swapaxes(-2, -1)


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


def _memory(model: ModelSpec) -> int:
    """How many earlier steps one step of :func:`_run_from_innovations`
    reads: innovations for a TvVMA, outputs for the recursive families."""
    return 1 if isinstance(model, SRE) else model.order


def _run_from_innovations(model: ModelSpec, n: int, start: int,
                          eps: np.ndarray, prior: np.ndarray | None = None) -> np.ndarray:
    """Drive the recursion with a given innovation array.

    ``eps`` has shape ``(reps, T, width)`` for innovations at times
    ``start .. start + T - 1``; returns the paths ``(reps, T, p)``.
    Recursions start from zero state at ``start``.

    With ``prior``, the outputs of an earlier run at the first
    ``h = prior.shape[1]`` times, the recursion resumes that run: those
    outputs are copied, and the steps from ``start + h`` on read them as
    history (a TvVMA reads the innovations ``eps[:, :h]`` instead).  The
    steps are bit for bit those of the earlier run when ``h`` is
    :func:`_memory`, or when the earlier run started at ``start``.
    """
    reps, steps, _ = eps.shape
    first = 0 if prior is None else prior.shape[1]
    ts = np.arange(start + first, start + steps)
    us = ts / n
    out = np.zeros((reps, steps, model.p))
    if first:
        out[:, :first] = prior
    if isinstance(model, TvVMA):
        j_max = model.order
        p = model.p
        stacks = model.psi_stacks_array(ts, n)
        # X_t = sum_j Psi_{t,j} eps_{t-j}: one GEMM per step of the innovations
        # at t-jj..t, read as rows of length (jj+1)p, against the transposed
        # coefficients in reverse lag order, w[i, m] = Psi_{t_i, j_max-m}^T
        w = np.ascontiguousarray(stacks[:, ::-1].transpose(0, 1, 3, 2))
        for i in range(first, steps):
            jj = min(j_max, i)
            out[:, i] = (eps[:, i - jj:i + 1].reshape(reps, -1)
                         @ w[i - first, j_max - jj:].reshape(-1, p))
        return out
    if isinstance(model, TvVAR):
        d = model.order
        phis, roots = model.phi_stacks(us), _psd_sqrt(model.sigma_stacks(us))
        for i, phi, root in zip(range(first, steps), phis, roots):
            acc = eps[:, i] @ root.T
            for j in range(1, min(d, i) + 1):
                acc = acc + out[:, i - j] @ phi[j - 1].T
            out[:, i] = acc
        return out
    if isinstance(model, TvARCH):
        d = model.order
        for i, a in zip(range(first, steps), model.a_values(us)):
            var = np.full(reps, a[0])
            for j in range(1, min(d, i) + 1):
                var = var + a[j] * out[:, i - j, 0] ** 2
            out[:, i, 0] = np.sqrt(var) * eps[:, i, 0]
        return out
    if isinstance(model, SRE):
        state = out[:, first - 1].copy() if first else np.zeros((reps, model.p))
        a_scale = model.a_scale.at(us)[:, 0, 0]
        b_scale = model.b_scale.at(us)[:, 0, 0]
        for i in range(first, steps):
            scale = float(a_scale[i - first]) + model.a_noise * eps[:, i, 0]
            drive = float(b_scale[i - first]) * eps[:, i, 1:]
            state = scale[:, None] * (state @ model.a_matrix.T) + drive
            out[:, i] = state
        return out
    raise UnsupportedFamilyError(f"cannot simulate {type(model).__name__}")


def simulate_path(model: ModelSpec, n: int, t_lo: int, t_hi: int,
                  seed: int) -> SamplePath:
    """Simulate ``X_{t,N}`` for ``t_lo <= t <= t_hi`` with Gaussian innovations.

    The one-replication case of :func:`simulate_ensemble`; bitwise
    reproducible for a fixed seed.

    Raises:
        InputError: a ``bool`` or non-integer ``n``, ``t_lo``, ``t_hi`` or
            ``seed``, or an empty window.
        DomainError: ``n < 1`` or a negative ``seed``.
    """
    _check_window(n, t_lo, t_hi, "simulate_path")
    check_count(seed, "seed", "simulate_path")
    path = simulate_ensemble(model, n, t_lo, t_hi, reps=1, seed=seed)[0]
    return SamplePath(data=path, t_lo=t_lo, n=n, seed=seed)


def simulate_ensemble(model: ModelSpec, n: int, t_lo: int, t_hi: int,
                      reps: int, seed: int) -> np.ndarray:
    """Independent replications of a path, shape ``(reps, length, p)``.

    Recursive families are burnt in over at least ten effective memory
    lengths; the result is bitwise reproducible for a fixed seed.

    Raises:
        InputError: a ``bool`` or non-integer ``n``, ``t_lo``, ``t_hi``,
            ``reps`` or ``seed``, or an empty window.
        DomainError: ``n < 1`` or a negative ``reps`` or ``seed``.
    """
    _check_window(n, t_lo, t_hi, "simulate_ensemble")
    check_count(reps, "reps", "simulate_ensemble")
    check_count(seed, "seed", "simulate_ensemble")
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
        InputError: a ``bool`` or non-integer ``n``, ``t``, ``j``, ``reps``
            or ``seed``.
        DomainError: ``n < 1``, ``j < 0``, ``reps < 100`` or ``seed < 0``.
    """
    check_size(n, "physical_dep_estimate")
    check_count(t, "t", "physical_dep_estimate", signed=True)
    check_count(j, "j", "physical_dep_estimate")
    check_count(reps, "reps", "physical_dep_estimate")
    check_count(seed, "seed", "physical_dep_estimate")
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
    # the coupled path equals the base path before the swap at step k, so
    # it resumes there from the base path's last h outputs, with a copy of
    # the innovations from k - h on
    k = steps - 1 - j
    h = min(k, _memory(model))
    eps_c = eps[:, k - h:].copy()
    eps_c[:, h] = swap
    coupled = _run_from_innovations(model, n, start + k - h, eps_c,
                                    prior=base[:, k - h:k])
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
        InputError: a ``bool`` or non-integer ``n``, ``t_lo`` or ``t_hi``,
            or an empty window.
        DomainError: ``n < 1``.
        FitError: if fewer than 4 lags carry a nonzero norm.
    """
    _check_window(n, t_lo, t_hi, "assumption_fit")
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
    frozen = two_sided(_stationary_cov_sequences(model, times / n, length - 1))
    gaps = pair_gaps(times, w.blocks, frozen,
                     lambda r: gu(r) ** (-(kappa_used - 1.0))
                     * np.minimum(1.0 / n, 2.0 / gu(r)))
    return AssumptionFit(decay=decay, smoothness_constant=gaps.constant_estimate,
                         kappa_used=float(kappa_used), gaps=gaps,
                         max_gap=float(np.max(gaps.measured)))
