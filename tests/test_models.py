import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import nonstatcov as nc
from nonstatcov import models
from nonstatcov.errors import (ConditioningError, DomainError, InputError,
                               ModelError, UnsupportedFamilyError)
from nonstatcov.models import (CoefficientFamily, _log_det_integral,
                               _transfer_inverse, _transfer_log_abs_det)
from nonstatcov.reference import (ar1_model, reference_sre, reference_tvarch,
                                  reference_tvvar3, reference_tvvma,
                                  white_noise_model)


def scalar_ar1(phi=0.5, sigma2=1.0):
    return ar1_model(phi, sigma2)


def affine_ar1(n_slope=0.2):
    return nc.TvVAR(p=1, phis=(nc.affine_fn([[0.3]], [[n_slope]]),),
                    sigma=nc.constant_fn([[1.0]]))


class TestCoefficientFn:
    def test_constant(self):
        fn = nc.constant_fn([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(fn(0.3), [[1.0, 2.0], [3.0, 4.0]])
        assert np.all(fn.derivative(0.3) == 0)
        assert fn.lipschitz_constant() == 0.0

    def test_affine_clamps_outside_unit_interval(self):
        fn = nc.affine_fn([[1.0]], [[2.0]])
        assert fn(0.5)[0, 0] == pytest.approx(2.0)
        assert fn(-3.0)[0, 0] == pytest.approx(1.0)
        assert fn(7.0)[0, 0] == pytest.approx(3.0)
        assert fn.lipschitz_constant() == pytest.approx(2.0)

    def test_piecewise_holds_end_values_outside_the_knots(self):
        got = INNER_KNOTS.at(np.array([-1.0, 0.0, 0.1, 0.35, 0.6, 1.0, 2.0]))[:, 0, 0]
        assert got.tolist() == [0.0, 0.0, 0.0, INNER_KNOTS(0.35)[0, 0], 0.3, 0.3, 0.3]
        assert INNER_KNOTS(0.35)[0, 0] == pytest.approx(0.15)
        assert TINY_KNOTS.at(np.array([0.0, 0.5, 1.0]))[:, 0, 0].tolist() == [0.5, -0.25, -0.25]
        for u in (0.0, 0.1, 0.6, 1.0):
            assert np.array_equal(INNER_KNOTS.derivative(u), np.zeros((1, 1)))
        assert INNER_KNOTS.derivative(0.35)[0, 0] == pytest.approx(1.0)
        # the held form is 1-Lipschitz: its slope is 1 between the knots, 0 outside
        us = np.linspace(-0.5, 1.5, 401)
        vals = INNER_KNOTS.at(us)[:, 0, 0]
        assert np.all(np.abs(np.diff(vals)) <= INNER_KNOTS.lipschitz_constant()
                      * np.diff(us) + 1e-15)

    def test_sinusoidal_derivative(self):
        fn = nc.sinusoidal_fn([[0.0]], [[1.0]])
        h = 1e-7
        for u in (0.1, 0.33, 0.61):
            fd = (fn(u + h)[0, 0] - fn(u - h)[0, 0]) / (2 * h)
            assert fn.derivative(u)[0, 0] == pytest.approx(fd, abs=1e-6)

    def test_payload_matrices_must_share_one_shape(self):
        with pytest.raises(nc.InputError):
            nc.affine_fn(np.eye(2), np.eye(3))
        with pytest.raises(nc.InputError):
            nc.sinusoidal_fn(np.eye(2), [[0.1]])
        assert nc.affine_fn(np.eye(2), np.zeros((2, 2))).dim == 2

    def test_payload_keys_and_scalars_follow_the_form_table(self):
        sinusoidal = {"base": [[1.0]], "amplitude": [[0.1]]}
        for form, payload in (("affine", {"base": [[1.0]]}),
                              ("sinusoidal", {**sinusoidal, "frequncy": 2.0}),
                              ("sinusoidal", {**sinusoidal, "phase": math.nan}),
                              ("sinusoidal", {**sinusoidal, "frequency": math.inf}),
                              ("spline", {"value": [[1.0]]})):
            with pytest.raises(nc.InputError):
                nc.CoefficientFn(form, payload)
        fn = nc.CoefficientFn("sinusoidal", {"base": 1.0, "amplitude": [[0.1]]})
        assert (fn.payload["frequency"], fn.payload["phase"], fn.dim) == (1.0, 0.0, 1)

    @pytest.mark.parametrize("payload,key,message", [
        ({"knots": [0.8, 0.2], "values": [[[1.0]], [[0.0]]]}, "knots",
         "piecewise knots must be strictly increasing"),
        ({"knots": [0.0, 0.5, 1.0], "values": [[[1.0]], [[0.0]]]}, "values",
         "piecewise values must match knots"),
        ({"knots": [0.0, 5e-324], "values": [[[0.0]], [[1.0]]]}, "knots",
         "piecewise segment slopes must be finite"),
        ({"knots": [0.0, math.inf], "values": [[[0.0]], [[1.0]]]}, "knots",
         "piecewise form needs >= 2 knots, each a finite number"),
    ], ids=["unordered-knots", "three-knots-two-values", "infinite-slope",
            "infinite-knot"])
    def test_piecewise_payload_is_checked(self, payload, key, message):
        # knots [0.8, 0.2] used to be accepted and to evaluate to 0 at
        # u = 0, 0.5 and 1; three knots with two values ended in a bare
        # ValueError from the family stack
        with pytest.raises(nc.InputError) as err:
            nc.CoefficientFn("piecewise", payload)
        assert (str(err.value), err.value.key) == (message, key)

    def test_piecewise_interpolation(self):
        fn = nc.CoefficientFn("piecewise", {
            "knots": np.array([0.0, 0.5, 1.0]),
            "values": np.array([[[0.0]], [[1.0]], [[0.0]]])})
        assert fn(0.25)[0, 0] == pytest.approx(0.5)
        assert fn(0.5)[0, 0] == pytest.approx(1.0)
        assert fn.lipschitz_constant() == pytest.approx(2.0)


def scalar_reference(fn, u):
    """One-point evaluation as the package did it before grids: the oracle
    that ``CoefficientFn.at`` must match bit for bit."""
    u = float(u)
    u = 0.0 if u < 0.0 else (1.0 if u > 1.0 else u)
    p = fn.payload
    if fn.form == "constant":
        return np.atleast_2d(p["value"]).copy()
    if fn.form == "affine":
        return np.atleast_2d(p["base"]) + u * np.atleast_2d(p["slope"])
    if fn.form == "sinusoidal":
        freq = p.get("frequency", 1.0)
        phase = p.get("phase", 0.0)
        return (np.atleast_2d(p["base"])
                + math.sin(2.0 * math.pi * (freq * u + phase))
                * np.atleast_2d(p["amplitude"]))
    knots = p["knots"]
    values = p["values"]
    i = int(np.clip(np.searchsorted(knots, u, side="right") - 1, 0, len(knots) - 2))
    width = knots[i + 1] - knots[i]
    w = min(max(u - knots[i], 0.0), width) / width
    return (1.0 - w) * values[i] + w * values[i + 1]


_entries = st.floats(-5.0, 5.0, allow_nan=False)


def _matrix(p):
    return st.lists(_entries, min_size=p * p, max_size=p * p).map(
        lambda v: np.array(v).reshape(p, p))


@st.composite
def coefficient_fns(draw, p=None):
    p = draw(st.integers(1, 3)) if p is None else p
    form = draw(st.sampled_from(["constant", "affine", "sinusoidal", "piecewise"]))
    if form == "constant":
        return nc.constant_fn(draw(_matrix(p)))
    if form == "affine":
        return nc.affine_fn(draw(_matrix(p)), draw(_matrix(p)))
    if form == "sinusoidal":
        return nc.sinusoidal_fn(draw(_matrix(p)), draw(_matrix(p)),
                                frequency=draw(st.floats(-8.0, 8.0)),
                                phase=draw(st.floats(-1.0, 1.0)))
    knots = sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=2, max_size=6)))
    values = np.stack([draw(_matrix(p)) for _ in knots])
    try:
        return nc.CoefficientFn("piecewise", {"knots": np.array(knots), "values": values})
    except nc.InputError:
        reject()        # a knot gap so narrow that a segment slope is infinite


def pointwise_density(model, u, w):
    """``f(w; u)`` at one frequency, as the package computed it before the
    omega grids were batched."""
    z = np.exp(1j * float(w))
    if isinstance(model, nc.TvVMA):
        stack = model.psi_stack(u)
        tr = np.einsum("j,jab->ab", z ** np.arange(stack.shape[0]), stack)
        f = tr @ tr.conj().T
    else:
        a = np.eye(model.p) - np.einsum(
            "j,jab->ab", z ** np.arange(1, model.order + 1), model.phi_stack(u))
        ainv = np.linalg.inv(a)
        f = ainv @ model.sigma_at(u) @ ainv.conj().T
    return 0.5 * (f + f.conj().T)


#: A piecewise function whose knots do not reach 0 and 1 (it used to be
#: extrapolated linearly to -0.2 and 0.8 there), and one whose last segment
#: is 4.3e-269 wide (extrapolated to about 2e268 at u = 1).
INNER_KNOTS = nc.CoefficientFn("piecewise", {
    "knots": np.array([0.2, 0.5]), "values": np.array([[[0.0]], [[0.3]]])})
TINY_KNOTS = nc.CoefficientFn("piecewise", {
    "knots": np.array([0.0, 4.3e-269]), "values": np.array([[[0.5]], [[-0.25]]])})
#: A slope of -2**1023, whose product with 2 overflows to -inf: the
#: covariance derivative refuses it.  (A slope of 1/5e-324 = inf is refused
#: when the function is built.)
STEEP_KNOTS = nc.CoefficientFn("piecewise", {
    "knots": np.array([0.0, 2.0 ** -1022]), "values": np.array([[[2.0]], [[0.0]]])})


class TestGridEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(fn=coefficient_fns(),
           us=st.lists(st.one_of(st.floats(-2.0, 3.0), st.sampled_from(
               [-0.0, 0.0, 1.0, -1e-300, 1.0 + 1e-15])), max_size=12))
    @example(fn=INNER_KNOTS, us=[0.0, 0.1, 0.35, 0.7, 1.0])
    @example(fn=TINY_KNOTS, us=[0.0, 1e-300, 0.5, 1.0])
    def test_at_matches_scalar_path_bitwise(self, fn, us):
        if fn.form == "piecewise":
            us = us + list(fn.payload["knots"])    # exact knots, the last included
        got = fn.at(np.array(us, dtype=float))
        p = fn.dim
        want = np.stack([scalar_reference(fn, u) for u in us]) if us \
            else np.zeros((0, p, p))
        assert got.shape == (len(us), p, p)
        assert np.array_equal(got, want)
        for u, row in zip(us, want):
            assert np.array_equal(fn(u), row)

    def test_at_rejects_non_vector_input(self):
        with pytest.raises(nc.InputError):
            nc.constant_fn([[1.0]]).at(np.zeros((2, 2)))

    def test_payload_is_read_only_and_at_returns_fresh_arrays(self):
        base = np.eye(2)
        fn = nc.affine_fn(base, 0.5 * np.eye(2))
        base[0, 0] = 7.0                          # the caller's array stays theirs
        assert fn(0.0)[0, 0] == 1.0
        with pytest.raises(ValueError):
            fn.payload["base"][0, 0] = 3.0
        const = nc.constant_fn([[2.0]])
        with pytest.raises(ValueError):
            const.payload["value"][0, 0] = 3.0
        out = const.at([0.1, 0.9])
        assert out.flags.writeable
        assert not np.shares_memory(out, const.payload["value"])
        out[:] = 0.0
        assert const(0.5)[0, 0] == 2.0

    def test_psi_stacks_array_matches_per_time_stack(self):
        model = reference_tvvma()
        n = 137
        ts = np.arange(-20, 160)
        want = np.stack([model.psi_stack_array(t / n, n) for t in ts])
        assert np.array_equal(model.psi_stacks_array(ts, n), want)
        plain = reference_tvvma(with_correction=False)
        assert np.array_equal(plain.psi_stacks(ts / n),
                              np.stack([plain.psi_stack(t / n) for t in ts]))

    def test_var_and_arch_stacks_match_per_point(self):
        us = np.linspace(-0.2, 1.2, 29)
        var = reference_tvvar3()
        assert np.array_equal(var.phi_stacks(us), np.stack([var.phi_stack(u) for u in us]))
        assert np.array_equal(var.sigma_stacks(us), np.stack([var.sigma_at(u) for u in us]))
        arch = reference_tvarch(3)
        assert np.array_equal(arch.a_values(us), np.stack([arch.a_values(u) for u in us]))

    @pytest.mark.parametrize("model", [reference_tvvma(), reference_tvvar3()],
                             ids=["tvvma", "tvvar"])
    def test_spectral_eig_range_matches_pointwise_densities(self, model):
        # the densities written out per (u, omega), as before the grids
        us = np.linspace(0.0, 1.0, 5)
        omegas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        lo, hi = math.inf, -math.inf
        for u in us:
            fs = [pointwise_density(model, u, w) for w in omegas]
            assert np.array_equal(nc.local_spectral_densities(model, u, omegas),
                                  np.stack(fs))
            vals = np.linalg.eigvalsh(np.stack(fs))
            lo, hi = min(lo, float(vals[:, 0].min())), max(hi, float(vals[:, -1].max()))
        got = nc.spectral_eig_range(model, us, omegas)
        assert (got.lambda_min, got.lambda_max) == (lo, hi)


@st.composite
def coefficient_families(draw):
    p = draw(st.integers(1, 3))
    return tuple(draw(st.lists(coefficient_fns(p=p), min_size=1, max_size=6)))


class TestCoefficientFamily:
    @settings(max_examples=200, deadline=None)
    @given(fns=coefficient_families(),
           us=st.lists(st.one_of(st.floats(-2.0, 3.0), st.sampled_from(
               [-0.0, 0.0, 1.0, -1e-300, 1.0 + 1e-15])), max_size=12))
    @example(fns=(INNER_KNOTS, TINY_KNOTS, nc.constant_fn([[2.0]]),
                  nc.affine_fn([[1.0]], [[-3.0]]), STEEP_KNOTS,
                  nc.sinusoidal_fn([[0.5]], [[0.25]], frequency=3.0, phase=0.1)),
             us=[-1.0, 0.0, 1e-300, 0.2, 0.35, 0.5, 1.0, 2.5])
    def test_family_matches_each_function_bitwise(self, fns, us):
        # every knot of every piecewise member, so each segment end is hit exactly
        us = us + [k for fn in fns if fn.form == "piecewise" for k in fn.payload["knots"]]
        got = CoefficientFamily(fns).at(np.array(us, dtype=float))
        p = fns[0].dim
        want = np.array([[scalar_reference(fn, u) for fn in fns] for u in us]) \
            if us else np.zeros((0, len(fns), p, p))
        assert got.shape == (len(us), len(fns), p, p)
        assert np.array_equal(got, want)
        model = nc.TvVMA(p=p, psis=fns, n_correction=fns[::-1])
        n = 7
        assert np.array_equal(model.psi_stacks(us), want)
        assert np.array_equal(model._array_stacks(us, n), want + want[:, ::-1] / n)

    def test_functions_of_different_shapes_are_refused(self):
        with pytest.raises(nc.InputError):
            CoefficientFamily((nc.constant_fn(np.eye(2)), nc.constant_fn([[1.0]])))
        with pytest.raises(nc.InputError, match="n_correction dimension"):
            nc.TvVMA(p=2, psis=(nc.constant_fn(np.eye(2)),),
                     n_correction=(nc.constant_fn([[1.0]]),))


@st.composite
def tvvma_models(draw):
    p = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8))
    psis = tuple(draw(coefficient_fns(p)) for _ in range(order + 1))
    corr = None
    if draw(st.booleans()):
        corr = tuple(draw(coefficient_fns(p)) for _ in range(order + 1))
    return nc.TvVMA(p=p, psis=psis, n_correction=corr)


@st.composite
def small_tvvar_models(draw):
    # entries below 0.3/(p d) keep ||sum_j Phi_j|| < 1, so I - sum z^j Phi_j
    # stays well conditioned on the unit circle
    p = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3))
    scale = 0.3 / (p * order)
    phis = tuple(nc.affine_fn(scale * draw(_unit_matrix(p)),
                              scale * draw(_unit_matrix(p)))
                 for _ in range(order))
    root = draw(_unit_matrix(p))
    return nc.TvVAR(p=p, phis=phis, sigma=nc.constant_fn(root @ root.T + np.eye(p)))


def _unit_matrix(p):
    return st.lists(st.floats(-1.0, 1.0), min_size=p * p, max_size=p * p).map(
        lambda v: np.array(v).reshape(p, p))


@st.composite
def small_tvarch_models(draw):
    # nonnegative coefficients whose lag sum stays below 1/2
    order = draw(st.integers(0, 3))
    weights = st.floats(0.0, 0.5 / max(order, 1))
    coeffs = [nc.affine_fn([[draw(st.floats(0.1, 2.0))]], [[draw(st.floats(0.0, 0.5))]])]
    coeffs += [nc.affine_fn([[draw(weights)]], [[0.0]]) for _ in range(order)]
    return nc.TvARCH(coeffs=tuple(coeffs))


def per_u_densities(model, u, omegas):
    """``f(omega; u)`` over a grid at one ``u``, as the package computed it
    one ``u`` at a time before the ``u`` grids were batched."""
    if isinstance(model, nc.TvARCH):
        c0 = models._stationary_cov_sequences(model, [u], 0)[0, 0]
        return np.repeat(c0.astype(complex)[None], omegas.size, axis=0)
    if isinstance(model, nc.TvVMA):
        lags, coeffs = np.arange(model.order + 1), model.psi_stacks([u])[0]
    else:
        lags, coeffs = np.arange(1, model.order + 1), model.phi_stacks([u])[0]
    transfer = np.einsum("wj,jab->wab", np.exp(1j * omegas)[:, None] ** lags, coeffs)
    if isinstance(model, nc.TvVMA):
        f = transfer @ transfer.conj().transpose(0, 2, 1)
    else:
        ainv = np.linalg.inv(np.eye(model.p) - transfer)
        f = ainv @ model.sigma_stacks([u])[0] @ ainv.conj().transpose(0, 2, 1)
    return 0.5 * (f + f.conj().transpose(0, 2, 1))


def per_matrix_psd_sqrt(s):
    """The symmetric square root of one matrix, from its own ``eigh``."""
    vals, vecs = np.linalg.eigh(0.5 * (s + s.T))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def einsum_lag_sum(left, right):
    """``sum_j left[..., j] right[..., j]^T`` with the error scale of that sum,
    ``sum_j |left_j| |right_j|^T`` (a dot product of k terms is accurate to
    about k*eps times it)."""
    return (np.einsum("...jab,...jcb->...ac", left, right),
            np.einsum("...jab,...jcb->...ac", np.abs(left), np.abs(right)))


def companion(phi):
    """Companion matrix of one lag stack ``(d, p, p)``, written out block by block."""
    d, p, _ = phi.shape
    comp = np.zeros((d * p, d * p))
    for j in range(d):
        comp[:p, j * p:(j + 1) * p] = phi[j]
        if j:
            comp[j * p:(j + 1) * p, (j - 1) * p:j * p] = np.eye(p)
    return comp


def var_ma_expansion(model, u):
    """Moving-average coefficients ``Psi_0 = chol Sigma(u)``,
    ``Psi_k = sum_j Phi_j(u) Psi_{k-j}`` of the frozen process at ``u``,
    summed until a run of ``d`` of them is exactly zero (then every later
    one is)."""
    phi, d = model.phi_stack(u), model.order
    psis = [np.linalg.cholesky(model.sigma_at(u))]
    zeros = 0
    while zeros < d:
        k = len(psis)
        psis.append(sum(phi[j - 1] @ psis[k - j] for j in range(1, min(d, k) + 1)))
        zeros = 0 if psis[-1].any() else zeros + 1
    return np.stack(psis)


def companion_rounding_scale(model, u, max_lag):
    """``(|A|^r V_abs)_{:p,:p}`` for ``r = 0..max_lag``, with
    ``V_abs = sum_k |A|^k |diag(Sigma, 0)| |A|^kT``, summed until it repeats
    (``|A|`` contracts for the models drawn here)."""
    p = model.p
    a = np.abs(companion(model.phi_stack(u)))
    term = np.zeros_like(a)
    term[:p, :p] = np.abs(model.sigma_at(u))
    v = term.copy()
    while True:
        term = a @ term @ a.T
        if np.array_equal(v + term, v):
            break
        v = v + term
    out = np.empty((max_lag + 1, p, p))
    for r in range(max_lag + 1):
        out[r] = v[:p, :p]
        v = a @ v
    return out


def assert_close_to_scale(got, want, scale):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


class TestStackedKernels:
    """The batched lag convolutions and omega grids against the einsum and
    per-omega formulas they replaced, to 1e-13 of each sum's scale."""

    @settings(max_examples=60, deadline=None)
    @given(model=tvvma_models(), n=st.integers(1, 400), t_lo=st.integers(-50, 400),
           length=st.integers(1, 14))
    @example(model=nc.TvVMA(p=1, psis=(TINY_KNOTS, INNER_KNOTS)), n=7, t_lo=-2,
             length=12)
    def test_vma_window_matches_per_lag_einsum(self, model, n, t_lo, length):
        t_hi = t_lo + length - 1
        stacks = model.psi_stacks_array(np.arange(t_lo, t_hi + 1), n)
        want = np.zeros((length, length, model.p, model.p))
        scale = np.zeros_like(want)
        for delta in range(min(length - 1, model.order) + 1):
            vals, mag = einsum_lag_sum(stacks[:length - delta, :model.order + 1 - delta],
                                       stacks[delta:, delta:])
            idx = np.arange(length - delta)
            want[idx, idx + delta], scale[idx, idx + delta] = vals, mag
            want[idx + delta, idx] = vals.transpose(0, 2, 1)
            scale[idx + delta, idx] = mag.transpose(0, 2, 1)
        # random filters may vanish on the unit circle, which cov_window's
        # validation refuses; the convolution itself is defined for any filter
        w = nc.models._vma_cov_window(model, n, t_lo, t_hi)
        assert_close_to_scale(w.blocks, want, scale)
        assert w.symmetric
        assert np.array_equal(w.blocks, w.blocks.transpose(1, 0, 3, 2))
        assert not w.blocks.flags.writeable

    def test_reference_window_keeps_exact_symmetry(self):
        w = nc.cov_window(reference_tvvma(), 200, -30, 170)
        assert w.symmetric
        assert np.array_equal(w.blocks, w.blocks.transpose(1, 0, 3, 2))
        assert np.array_equal(w.flatten(), w.flatten().T)

    @settings(max_examples=60, deadline=None)
    @given(model=tvvma_models(), u=st.floats(-0.2, 1.2), max_lag=st.integers(0, 12))
    @example(model=nc.TvVMA(p=1, psis=(STEEP_KNOTS,)), u=0.0, max_lag=0)
    @example(model=nc.TvVMA(p=1, psis=(STEEP_KNOTS, TINY_KNOTS)), u=0.0, max_lag=1)
    def test_stationary_sequence_and_derivative_match_einsum(self, model, u, max_lag):
        psis, dpsis = model.psi_stack(u), model.psi_stack_derivative(u)
        k, p = psis.shape[0], model.p
        seq, seq_scale = np.zeros((2, max_lag + 1, p, p))
        der, der_scale = np.zeros((2, max_lag + 1, p, p))
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(min(max_lag, k - 1) + 1):
                seq[r], seq_scale[r] = einsum_lag_sum(psis[r:], psis[:k - r])
                a, a_mag = einsum_lag_sum(dpsis[r:], psis[:k - r])
                b, b_mag = einsum_lag_sum(psis[r:], dpsis[:k - r])
                der[r], der_scale[r] = a + b, a_mag + b_mag
        assert_close_to_scale(nc.stationary_cov_sequence(model, u, max_lag), seq,
                              seq_scale)
        try:
            got = nc.models.stationary_cov_derivative(model, u, max_lag)
        except nc.InputError:
            # refused only where a piecewise slope near the float range makes
            # some order of the sum overflow
            assert not np.all(np.isfinite(der_scale))
        else:
            assert_close_to_scale(got, der, der_scale)

    @pytest.mark.parametrize("psis", [(STEEP_KNOTS,)], ids=["overflowing-product"])
    def test_overflowing_derivative_is_refused(self, psis):
        model = nc.TvVMA(p=1, psis=psis)
        with pytest.raises(nc.InputError,
                           match="^stationary_cov_derivative: non-finite entries$"):
            nc.models.stationary_cov_derivative(model, 0.0, len(psis) - 1)

    @settings(max_examples=30, deadline=None)
    @given(model=small_tvvar_models(), u=st.floats(0.0, 1.0),
           max_lag=st.integers(0, 40))
    def test_var_stationary_sequence_matches_einsum(self, model, u, max_lag):
        """The companion-form lags against the moving-average sums
        ``C_r = sum_j Psi_{j+r} Psi_j^T``.

        The package rounds at the scale of its recursion: the doubling adds
        terms of ``V = sum_k A^k Q A^kT`` and ``C_r = [A^r V]_{:p,:p}`` takes
        ``r`` products, so each entry is off by at most a few dozen ulps of
        ``(|A|^r V_abs)_{:p,:p}``, ``V_abs = sum_k |A|^k |Q| |A|^kT`` (every
        rounded term is bounded by a term of that series).  The oracle rounds
        at the scale of its sums.  Below the normal range rounding is
        absolute, at most one subnormal per product.
        """
        psis = var_ma_expansion(model, u)
        k = psis.shape[0]
        want, scale = np.zeros((2, max_lag + 1, model.p, model.p))
        for r in range(min(max_lag, k - 1) + 1):
            want[r], scale[r] = einsum_lag_sum(psis[r:], psis[:k - r])
        scale += companion_rounding_scale(model, u, max_lag)
        got = nc.stationary_cov_sequence(model, u, max_lag)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale
                      + psis.size * np.finfo(float).smallest_subnormal)

    @settings(max_examples=40, deadline=None)
    @given(model=st.one_of(tvvma_models(), small_tvvar_models()),
           u=st.floats(-0.2, 1.2),
           omegas=st.lists(st.floats(-10.0, 10.0), max_size=20))
    def test_spectral_grid_matches_per_omega_formula(self, model, u, omegas):
        got = nc.local_spectral_densities(model, u, omegas)
        assert got.shape == (len(omegas), model.p, model.p)
        for w, f in zip(omegas, got):
            want = pointwise_density(model, u, w)
            assert np.all(np.abs(f - want) <= 1e-13 * np.abs(want).max())
            assert np.array_equal(f, f.conj().T)

    @staticmethod
    def transfer_with_sigma_min(rng, p, sigma_max, sigma_min):
        def unitary():
            q, _ = np.linalg.qr(rng.standard_normal((p, p))
                                + 1j * rng.standard_normal((p, p)))
            return q
        s = np.geomspace(sigma_max, sigma_min, p)
        return (unitary() * s) @ unitary()

    @classmethod
    def threshold_case(cls, seed, factor, sigma_max):
        """Four 3 x 3 transfer matrices, the third with sigma_min at
        ``factor`` times the refusal threshold 1e-10 max(sigma_max, 1), and
        the SVD's refusal of each."""
        rng = np.random.default_rng(seed)
        sigma_min = factor * 1e-10 * max(sigma_max, 1.0)
        good = [cls.transfer_with_sigma_min(rng, 3, sigma_max, 0.5 * sigma_max)
                for _ in range(3)]
        a = np.stack(good[:2] + [cls.transfer_with_sigma_min(rng, 3, sigma_max,
                                                             sigma_min)] + good[2:])
        svals = np.linalg.svd(a, compute_uv=False)
        refuse = svals[:, -1] < 1e-10 * np.maximum(svals[:, 0], 1.0)
        assert not refuse[[0, 1, 3]].any()
        if factor != 1.0:
            assert refuse[2] == (factor < 1.0)
        return a, refuse

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0, 1e6])
    @pytest.mark.parametrize("sigma_max", [0.25, 3.0])
    def test_transfer_guard_decides_as_the_svd(self, monkeypatch, factor, sigma_max):
        a, refuse = self.threshold_case(int(factor * 7 + sigma_max * 13), factor, sigma_max)
        omegas = np.array([0.1, 0.2, 0.3, 0.4])
        calls = TestValidationMemo.counting_svd(monkeypatch)
        if refuse[2]:
            with pytest.raises(ModelError, match=r"at u=0.5, omega=0.3$"):
                _transfer_inverse(a, 0.5, omegas)
        else:
            assert np.array_equal(_transfer_inverse(a, 0.5, omegas), np.linalg.inv(a))
        # the screen on the inverse accepts far from the threshold and leaves
        # the decision to the SVD up to it (it proves sigma_min >= 1/(2||X||_F),
        # half the computed minimum, so at twice the threshold it may do either)
        if factor <= 1.0:
            assert calls
        if factor > 2.0:
            assert not calls

    def test_singular_transfer_names_first_singular_omega(self):
        # 1 - Phi z = 1 + z vanishes at z = -1: omega = pi (mod 2 pi)
        model = nc.TvVAR(p=1, phis=(nc.constant_fn([[-1.0]]),),
                         sigma=nc.constant_fn([[1.0]]))
        grid = [0.5, 3.0 * math.pi, 2.0, math.pi]
        with pytest.raises(ModelError) as err:
            nc.local_spectral_densities(model, 0.25, grid)
        assert str(err.value) == \
            f"TvVAR: transfer singular at u=0.25, omega={3.0 * math.pi}"
        with pytest.raises(ModelError, match=f"omega={math.pi}$"):
            nc.local_spectral_density(model, 0.25, math.pi)
        assert nc.local_spectral_densities(model, 0.25, [0.5, 2.0]).shape == (2, 1, 1)

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0, 1e6])
    @pytest.mark.parametrize("sigma_max", [0.25, 3.0])
    def test_log_det_screen_decides_as_the_svd(self, monkeypatch, factor, sigma_max):
        # the log-determinant path's screen, sigma_min >= |det A| / ||A||_F^(p-1)
        # with the factor-2 margin, against the SVD refusal
        a, refuse = self.threshold_case(int(factor * 11 + sigma_max * 5), factor, sigma_max)
        omegas = np.array([0.1, 0.2, 0.3, 0.4])
        calls = TestValidationMemo.counting_svd(monkeypatch)
        if refuse[2]:
            with pytest.raises(ModelError, match=r"at u=0.5, omega=0.3$"):
                _transfer_log_abs_det(a, 0.5, omegas)
        else:
            got = _transfer_log_abs_det(a, 0.5, omegas)
            assert np.array_equal(got, np.linalg.slogdet(a)[1])
        # the bound is at most sigma_min, so the screen refuses up to twice
        # the threshold and the SVD decides; far above it the SVD never runs
        if factor <= 2.0:
            assert calls
        if factor > 2.0:
            assert not calls

    def test_log_det_path_names_the_first_singular_omega(self):
        # 1 + z + z^2 + z^3 = (1 + z)(1 + z^2) vanishes at omega = pi/2, pi
        # and 3 pi/2: both paths name pi/2, the first in grid order
        model = nc.TvVAR(p=1, phis=tuple(nc.constant_fn([[-1.0]]) for _ in range(3)),
                         sigma=nc.constant_fn([[1.0]]))
        omegas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        with pytest.raises(ModelError) as dense:
            nc.local_spectral_densities(model, 0.25, omegas)
        with pytest.raises(ModelError) as fft:
            _log_det_integral(model, 0.25, 4096, "kolmogorov_gap")
        assert str(fft.value) == str(dense.value) == \
            f"TvVAR: transfer singular at u=0.25, omega={math.pi / 2}"

    @pytest.mark.parametrize("model", [
        nc.TvVAR(p=1, phis=(nc.constant_fn([[0.5]]),), sigma=nc.constant_fn([[-1.0]])),
        nc.TvVMA(p=1, psis=(nc.constant_fn([[1.0]]), nc.constant_fn([[1.0]]))),
        nc.TvARCH(coeffs=(nc.constant_fn([[-0.5]]), nc.constant_fn([[0.2]]))),
    ], ids=["var-sigma", "vma-zero-at-pi", "arch-intercept"])
    def test_log_det_path_refuses_a_density_that_is_not_spd(self, model):
        with pytest.raises(ConditioningError,
                           match="^kolmogorov_gap: spectral density not SPD$"):
            _log_det_integral(model, 0.5, 4096, "kolmogorov_gap")

    def test_assumption_fit_gaps_match_pair_loop(self):
        model, n, t_lo, t_hi = reference_tvvma(), 100, 30, 70
        fit = nc.assumption_fit(model, n, t_lo, t_hi)
        w = nc.cov_window(model, n, t_lo, t_hi)
        indices, measured, bound = [], [], []
        for t in range(t_lo, t_hi + 1):
            seq = nc.stationary_cov_sequence(model, t / n, t_hi - t_lo)
            for tau in range(t_lo, t_hi + 1):
                r = t - tau
                target = seq[r] if r >= 0 else seq[-r].T
                indices.append((t, tau))
                measured.append(np.linalg.norm(w.block(t, tau) - target, 2))
                g = float(nc.gu(r))
                bound.append(g ** (-(fit.kappa_used - 1.0)) * min(1.0 / n, 2.0 / g))
        assert fit.gaps.indices == indices
        assert np.array_equal(fit.gaps.bound, bound)
        scale = np.abs(w.blocks).max()
        assert np.all(np.abs(fit.gaps.measured - measured) <= 1e-13 * scale)
        assert fit.max_gap == pytest.approx(max(measured), rel=1e-12)


class TestValidationMemo:
    @staticmethod
    def counting_svd(monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    def test_second_call_does_no_work(self, monkeypatch):
        calls = self.counting_svd(monkeypatch)
        model = reference_tvvma()
        first = nc.validate_model(model)
        assert calls
        calls.clear()
        assert nc.validate_model(model) == first
        assert not calls
        nc.validate_model(reference_tvvma())      # a new instance is checked anew
        assert calls

    def test_failures_raise_on_every_call(self, monkeypatch):
        calls = self.counting_svd(monkeypatch)
        bad = nc.TvVMA(p=1, psis=(nc.constant_fn([[0.0]]),))
        for _ in range(2):
            calls.clear()
            with pytest.raises(ModelError):
                nc.validate_model(bad)
            assert calls
        with pytest.raises(ModelError):
            nc.cov_window(bad, 100, 0, 5)

    def test_concurrent_first_calls_agree(self):
        want = nc.validate_model(reference_tvvma())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                model = reference_tvvma()
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(nc.validate_model, model)
                               for _ in range(16)]
                    results = [f.result(timeout=60) for f in futures]
                assert all(r == want for r in results)
                assert nc.validate_model(model) == want
        finally:
            sys.setswitchinterval(interval)

    def test_returned_dict_is_a_copy(self):
        model = reference_tvvma()
        info = nc.validate_model(model)
        want = dict(info)
        info["family"] = "changed"
        info["extra"] = 1.0
        assert nc.validate_model(model) == want

    @pytest.mark.parametrize("build", [reference_tvvar3, reference_tvarch, reference_sre],
                             ids=["tvvar", "tvarch", "sre"])
    def test_stability_radius_is_kept(self, monkeypatch, build):
        model = build()
        first = nc.stability_radius(model)
        nc.cov_pad(model)
        nc.simulate_ensemble(model, 100, 0, 5, reps=4, seed=1)
        eigvals, radii = [], []
        eig, radius = np.linalg.eigvals, models._stability_radius
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda *a, **k: eigvals.append(1) or eig(*a, **k))
        monkeypatch.setattr(models, "_stability_radius",
                            lambda *a: radii.append(1) or radius(*a))
        nc.cov_pad(model)
        nc.simulate_ensemble(model, 100, 0, 5, reps=4, seed=1)
        assert nc.stability_radius(model) == first
        assert not eigvals and not radii

    def test_stability_radius_failures_are_not_kept(self, monkeypatch):
        model = reference_tvvar3()
        radius = models._stability_radius

        def refuse(m):
            raise ModelError("refused")
        monkeypatch.setattr(models, "_stability_radius", refuse)
        with pytest.raises(ModelError, match="refused"):
            nc.stability_radius(model)
        monkeypatch.setattr(models, "_stability_radius", radius)
        assert nc.stability_radius(model) == radius(model)


class TestValidation:
    def test_unstable_var_rejected(self):
        bad = nc.TvVAR(p=1, phis=(nc.constant_fn([[1.05]]),),
                       sigma=nc.constant_fn([[1.0]]))
        with pytest.raises(ModelError):
            nc.validate_model(bad)

    def test_arch_needs_nonnegative_coefficients(self):
        bad = nc.TvARCH(coeffs=(nc.constant_fn([[0.5]]),
                                nc.constant_fn([[-0.1]])))
        with pytest.raises(ModelError):
            nc.validate_model(bad)

    def test_arch_fourth_moment_load(self):
        bad = nc.TvARCH(coeffs=(nc.constant_fn([[0.5]]),
                                nc.constant_fn([[0.7]])))
        with pytest.raises(ModelError):
            nc.validate_model(bad)

    def test_reference_models_valid(self):
        for name in ("tvvma_kappa4_p2", "tvvar1_p3", "sre_p2", "tvarch_order2"):
            nc.validate_model(nc.get_reference_model(name))

    @pytest.mark.parametrize("build", [lambda: reference_tvarch(1), reference_tvarch,
                                       lambda: reference_tvarch(4), reference_sre],
                             ids=["tvarch1", "tvarch2", "tvarch4", "sre"])
    def test_arch_and_sre_margins_match_the_per_u_loops(self, build):
        # the arithmetic is unchanged, so the values are equal
        model = build()
        info = nc.validate_model(model)
        us = np.linspace(0.0, 1.0, 33)
        if isinstance(model, nc.SRE):
            m2 = float(np.linalg.norm(model.a_matrix @ model.a_matrix.T, 2))
            want = max((float(model.a_scale(u)[0, 0]) ** 2 + model.a_noise ** 2) * m2
                       for u in us)
            assert info["second_moment_bound"] == want
            return
        rows = [model.a_values(u) for u in us]
        assert info["a0_min"] == min(float(a[0]) for a in rows)
        assert info["fourth_moment_load"] == max(math.sqrt(3.0) * float(np.sum(a[1:]))
                                                 for a in rows)
        assert nc.stability_radius(model) == max(float(np.sum(a[1:])) for a in rows)

    @pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "tvvma_kappa3", "tvvar1_p3",
                                      "var2", "var3"])
    def test_margins_match_the_per_u_transfer_sums(self, monkeypatch, name):
        """The validation margins, from one grid transfer and one SVD, against
        the transfer summed lag by lag at each validation ``u`` over the
        whole 128-point grid, to 1e-12 relative."""
        builders = {"tvvma_kappa3": lambda: reference_tvvma(kappa=3.0),
                    "var2": var2_model, "var3": var3_model}
        model = builders[name]() if name in builders else nc.get_reference_model(name)
        calls = TestValidationMemo.counting_svd(monkeypatch)
        info = nc.validate_model(model)
        assert len(calls) == 1
        omegas = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        if isinstance(model, nc.TvVAR):
            z = 1.02 * np.exp(1j * omegas)
            stacks = [np.eye(model.p) - sum(z[:, None, None] ** j * model.phi_stack(u)[j - 1]
                                            for j in range(1, model.order + 1))
                      for u in np.linspace(0.0, 1.0, 33)]
            key = "stability_margin"
        else:
            phases = np.exp(1j * np.outer(omegas, np.arange(model.order + 1)))
            stacks = [np.einsum("wj,jab->wab", phases, model.psi_stack(u))
                      for u in np.linspace(0.0, 1.0, 33)]
            key = "filter_min_singular_value"
        want = min(float(np.linalg.svd(a, compute_uv=False)[:, -1].min()) for a in stacks)
        assert info[key] == pytest.approx(want, rel=1e-12)


class TestCovBlock:
    def test_white_noise(self):
        model = white_noise_model(2)
        assert np.array_equal(nc.cov_window(model, 100, 5, 5).block(5, 5).copy(), np.eye(2))
        assert np.all(nc.cov_window(model, 100, 5, 8).block(5, 8).copy() == 0.0)

    def test_symmetry_exact(self):
        model = reference_tvvma()
        for (t, tau) in [(3, 7), (10, 4), (0, 0)]:
            lo, hi = min(t, tau), max(t, tau)
            a = nc.cov_window(model, 100, lo, hi).block(t, tau).copy()
            b = nc.cov_window(model, 100, lo, hi).block(tau, t).copy()
            assert np.array_equal(a, b.T)

    def test_constant_ar1_interior(self):
        model = scalar_ar1()
        c0 = 1.0 / (1 - 0.25)
        for r in range(0, 6):
            got = nc.cov_window(model, 50, 20, 20 + r).block(20, 20 + r).copy()[0, 0]
            assert got == pytest.approx(0.5**r * c0, abs=1e-10)

    def test_sre_unsupported(self):
        with pytest.raises(UnsupportedFamilyError):
            nc.cov_window(reference_sre(), 100, 0, 0).block(0, 0).copy()

    def test_arch_is_white_with_recursion_variance(self):
        model = reference_tvarch()
        w = nc.cov_window(model, 200, 90, 110)
        off = np.abs(np.triu(w.flatten(), 1)).max()
        assert off == 0.0
        assert np.all(np.diag(w.flatten()) > 0)

    def test_affine_tvvar_matches_monte_carlo(self):
        # sample covariance over many replications, 3 standard errors
        model = affine_ar1()
        n, t = 200, 100
        reps = 100_000
        sims = nc.simulate_ensemble(model, n, t, t + 3, reps=reps, seed=909)
        for (i, j) in [(0, 0), (0, 1), (0, 3)]:
            prods = sims[:, i, 0] * sims[:, j, 0]
            mc = prods.mean()
            se = prods.std(ddof=1) / math.sqrt(reps)
            exact = nc.cov_window(model, n, t, t + j).block(t + i, t + j).copy()[0, 0]
            assert abs(mc - exact) <= 3 * se

    def test_var_cov_window_matches_banded_precision_identity(self):
        # the inverse of a wide section must be block-banded at the order
        model = nc.get_reference_model("tvvar1_p3")
        inv = nc.model_inverse_window(model, 200, 90, 120)
        norms = inv.base.norms()
        for t in range(inv.base.length):
            for tau in range(inv.base.length):
                if abs(t - tau) > model.order:
                    assert norms[t, tau] <= 1e-9



def dense_var_precision(model, n, t_lo, t_hi):
    """``B^T blockdiag(S^-1) B`` formed densely, the reference assembly."""
    import scipy.linalg
    length, p = t_hi - t_lo + 1, model.p
    us = np.arange(t_lo, t_hi + 1) / n
    big = np.eye(length * p)
    for i, phi in enumerate(model.phi_stacks(us)):
        for j in range(1, min(model.order, i) + 1):
            big[i * p:(i + 1) * p, (i - j) * p:(i - j + 1) * p] = -phi[j - 1]
    si = np.linalg.inv(model.sigma_stacks(us))
    sinv = scipy.linalg.block_diag(*(0.5 * (si + si.transpose(0, 2, 1))))
    return big.T @ sinv @ big


def var_precision_flat(model, n, t_lo, t_hi):
    """Flattened section of the exactly banded precision ``B^T S^-1 B``, the
    independent oracle of the TvVAR covariance window.

    Block row ``i`` of the lower-triangular ``B`` holds ``I`` at lag 0 and
    ``-Phi_j(t_i/n)`` at lag ``j <= d``; ``S`` is block diagonal.  Block
    ``(i - j, i - k)`` of the product collects ``B_ij^T S_i^-1 B_ik`` over
    the ``d + 1`` nonzero blocks of each row, so every block beyond
    bandwidth ``d`` stays exactly zero.  Each term is added to its block and
    its transpose to the mirrored block, so the result is exactly symmetric.
    Its inverse is ``B^-1 S B^-T``, the covariance of the recursion started
    from zero at ``t_lo``.
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


def var2_model():
    return nc.TvVAR(p=2, phis=(
        nc.affine_fn([[0.3, 0.1], [-0.05, 0.2]], [[0.1, 0.0], [0.05, -0.1]]),
        nc.sinusoidal_fn([[0.1, 0.0], [0.02, 0.1]], [[0.05, 0.02], [0.0, 0.05]],
                         frequency=1.0, phase=0.1)),
        sigma=nc.affine_fn([[1.0, 0.2], [0.2, 0.8]], [[0.3, 0.0], [0.0, 0.2]]))


def scalar_var2():
    return nc.TvVAR(p=1, phis=(nc.affine_fn([[0.4]], [[0.2]]),
                               nc.sinusoidal_fn([[-0.2]], [[0.1]])),
                    sigma=nc.affine_fn([[1.0]], [[0.5]]))


class TestVarPrecision:
    @pytest.mark.parametrize("name", ["tvvar1_p3", "var2", "ar1"])
    def test_blockwise_assembly_matches_dense_reference(self, name):
        model = {"tvvar1_p3": nc.get_reference_model("tvvar1_p3"),
                 "var2": var2_model(), "ar1": scalar_ar1()}[name]
        got = var_precision_flat(model, 150, -20, 40)
        ref = dense_var_precision(model, 150, -20, 40)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(got, got.T)
        length, p = 61, model.p
        lags = np.abs(np.subtract.outer(np.arange(length), np.arange(length)))
        block = np.ones((p, p), dtype=bool)
        assert np.all(got[np.kron(lags > model.order, block)] == 0.0)
        assert np.any(got[np.kron(lags == model.order, block)] != 0.0)

    def test_cov_window_inverts_the_precision(self):
        model = var2_model()
        pad = nc.cov_pad(model)
        w = nc.cov_window(model, 150, 10, 40)
        prec = var_precision_flat(model, 150, 10 - pad, 40 + pad)
        ref = np.linalg.inv(prec)[pad * 2:(pad + 31) * 2, pad * 2:(pad + 31) * 2]
        assert np.allclose(w.flatten(), ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @settings(max_examples=40, deadline=None)
    @given(model=st.one_of(small_tvvar_models(), st.sampled_from(
               [nc.get_reference_model("tvvar1_p3"), scalar_ar1(), var2_model(),
                scalar_var2()])),
           n=st.integers(20, 600), t_lo=st.integers(-100, 300),
           length=st.integers(1, 60), pad=st.one_of(st.none(), st.integers(0, 80)))
    @example(model=scalar_var2(), n=100, t_lo=10, length=1, pad=0)
    @example(model=var2_model(), n=100, t_lo=-5, length=1, pad=0)
    @example(model=scalar_var2(), n=100, t_lo=10, length=30, pad=0)
    @example(model=var2_model(), n=37, t_lo=3, length=45, pad=None)
    def test_banded_window_matches_dense_spd_inverse(self, model, n, t_lo, length,
                                                     pad):
        """The recursion against the full dense inverse of the oracle's
        precision, padded by ``pad`` on both sides, to 1e-13 relative, and
        exactly symmetric."""
        p = model.p
        t_hi = t_lo + length - 1
        w = nc.cov_window(model, n, t_lo, t_hi, pad=pad)
        pad = nc.cov_pad(model) if pad is None else pad
        inv, _, _ = nc.spd_inverse(var_precision_flat(model, n, t_lo - pad, t_hi + pad),
                                   "dense")
        ref = inv[pad * p:(pad + length) * p, pad * p:(pad + length) * p]
        got = w.flatten()
        assert w.symmetric and np.array_equal(got, got.T)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("model,pad", [
        (nc.get_reference_model("tvvar1_p3"), 0), (nc.get_reference_model("tvvar1_p3"), 50),
        (var2_model(), 7), (scalar_var2(), 0), (scalar_ar1(), 20)])
    def test_trailing_pad_adds_nothing(self, model, pad):
        """``B`` is unit block lower-triangular, so the leading rows of the
        padded precision's inverse are the inverse of its leading block: a
        pad after the window changes nothing but rounding."""
        n, t_lo, t_hi, p = 120, 30, 69, model.p
        both, _, _ = nc.spd_inverse(
            var_precision_flat(model, n, t_lo - pad, t_hi + 40), "both")
        leading, _, _ = nc.spd_inverse(
            var_precision_flat(model, n, t_lo - pad, t_hi), "leading")
        rows = slice(pad * p, (pad + t_hi - t_lo + 1) * p)
        ref = leading[rows, rows]
        assert np.abs(both[rows, rows] - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_sigma_indefinite_between_validation_points_is_refused(self):
        """``Sigma(u) = 1 + 2 sin(64 pi u)`` is 1 on every validation point
        ``k/32`` and negative between them: validation passes, and the
        window refuses with a ConditioningError, never a bare LinAlgError
        or a window."""
        for p in (1, 2):
            model = nc.TvVAR(p=p, phis=(nc.constant_fn(0.3 * np.eye(p)),),
                             sigma=nc.sinusoidal_fn(np.eye(p), 2.0 * np.eye(p),
                                                    frequency=32.0))
            nc.validate_model(model)
            with pytest.raises(ConditioningError, match="innovation variance not SPD"):
                nc.cov_window(model, 200, 40, 60)
            with pytest.raises(ConditioningError):
                nc.model_inverse_window(model, 200, 40, 60)


    def test_overflowing_window_is_refused(self):
        # Sigma / (1 - 0.81) is beyond the float range
        model = nc.TvVAR(p=1, phis=(nc.constant_fn([[0.9]]),),
                         sigma=nc.constant_fn([[8e307]]))
        with pytest.raises(InputError, match="^cov_window: non-finite entries$"):
            nc.cov_window(model, 200, 0, 5)


class TestCovWindowArguments:
    def test_times_must_be_integers(self):
        model = nc.get_reference_model("tvvar1_p3")
        for t_lo, t_hi in [(0.5, 10), (0, 10.0), (True, 10), (0, np.float64(3))]:
            with pytest.raises(InputError, match="t_lo|t_hi"):
                nc.cov_window(model, 200, t_lo, t_hi)
        with pytest.raises(InputError, match="t_lo must be an integer"):
            nc.cov_window(reference_tvvma(), 200, 0.5, 10)
        # negative and numpy times are times
        ref = nc.cov_window(model, 200, -5, 4).flatten()
        got = nc.cov_window(model, 200, np.int64(-5), np.int32(4)).flatten()
        assert np.array_equal(got, ref)

    def test_pad_follows_the_count_rule(self):
        model = nc.get_reference_model("tvvar1_p3")
        for pad in (2.5, True, 3.0):
            with pytest.raises(InputError, match="pad must be an integer"):
                nc.cov_window(model, 200, 0, 10, pad=pad)
        with pytest.raises(DomainError, match="pad must be >= 0"):
            nc.cov_window(model, 200, 0, 10, pad=-1)
        assert np.array_equal(nc.cov_window(model, 200, 0, 10, pad=np.int64(4)).flatten(),
                              nc.cov_window(model, 200, 0, 10, pad=4).flatten())


    def test_sections_cut_from_a_longer_window_are_bitwise_equal(self):
        # a moving-average window entry depends only on its two times, so a
        # section cut from a window over a longer range is the section's own
        model = reference_tvvma()
        full = nc.cov_window(model, 200, -36, 234).flatten()
        for t0, length in ((-36, 50), (0, 77), (144, 91), (100, 60)):
            lo = (t0 + 36) * model.p
            cut = full[lo:lo + length * model.p, lo:lo + length * model.p]
            assert np.array_equal(cut, nc.cov_window(model, 200, t0, t0 + length - 1)
                                  .flatten())


class TestWindowHandOver:
    """The package's window builders hand their fresh matrix to the window;
    the result keeps the checks and the storage contract of ``from_flat``."""

    @pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "tvvar1_p3", "tvarch_order2"])
    def test_cov_window_is_symmetric_read_only_and_owned(self, name):
        model = nc.get_reference_model(name)
        w = nc.cov_window(model, 200, 10, 40)
        flat = w.flatten()
        assert w.symmetric and np.array_equal(flat, flat.T)
        assert flat.flags.c_contiguous and not flat.flags.writeable
        assert np.shares_memory(w.blocks, flat)
        with pytest.raises(ValueError):
            flat[0, 0] = 1.0
        again = nc.cov_window(model, 200, 10, 40).flatten()
        assert np.array_equal(again, flat) and not np.shares_memory(again, flat)

    def test_stationary_window_is_symmetric_read_only(self):
        w = nc.stationary_window(reference_tvvma(), 0.3, 0, 30)
        assert w.symmetric and not w.flatten().flags.writeable
        assert np.array_equal(w.flatten(), w.flatten().T)

    def test_overflowing_moving_average_window_is_refused(self):
        # the filter 1e200 (1 + z / 2) does not vanish on the unit circle, so
        # validation passes; (1e200, 1e200) vanishes at omega = pi
        model = nc.TvVMA(p=1, psis=(nc.constant_fn([[1e200]]),
                                    nc.constant_fn([[0.5e200]])))
        with pytest.raises(InputError, match="^BlockWindow: non-finite entries$"):
            nc.cov_window(model, 100, 0, 4)
        vanishing = nc.TvVMA(p=1, psis=(nc.constant_fn([[1e200]]),
                                        nc.constant_fn([[1e200]])))
        with pytest.raises(ModelError, match="filter vanishes on the unit circle"):
            nc.cov_window(vanishing, 100, 0, 4)

    def test_adopt_averages_and_refuses_as_from_flat(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((6, 6))
        w = nc.BlockWindow._adopt(a.copy(), 2, t_lo=4)
        assert w.symmetric and w.t_lo == 4
        assert np.array_equal(w.flatten(), nc.BlockWindow.from_flat(
            a, 2, symmetrize=True).flatten())
        sym = a + a.T
        owned = sym.copy()
        assert nc.BlockWindow._adopt(owned, 3).flatten() is owned
        for bad in (np.inf, np.nan):
            m = sym.copy()
            m[1, 2] = bad
            with pytest.raises(InputError, match="^cov_window: non-finite entries$"):
                nc.BlockWindow._adopt(m, 2, what="cov_window")
        # finite entries whose average overflows
        m = np.array([[1.0, 1.5e308], [1.5e308, 1.0]])
        m[1, 0] = 1.7e308
        with pytest.raises(InputError, match="^BlockWindow: non-finite entries$"):
            nc.BlockWindow._adopt(m, 1)
        with pytest.raises(InputError, match="incompatible with p=4"):
            nc.BlockWindow._adopt(sym, 4)


class TestStationaryCov:
    def test_decay_beyond_support(self):
        model = reference_tvvma()
        far = nc.stationary_cov(model, 0.4, model.order + 5)
        assert np.linalg.norm(far, 2) <= 1e-10

    def test_analytic_ar1(self):
        model = scalar_ar1()
        for r in range(5):
            got = nc.stationary_cov(model, 0.2, r)[0, 0]
            assert got == pytest.approx(0.5**r * (4.0 / 3.0), abs=1e-10)

    def test_transpose_relation(self):
        model = nc.get_reference_model("tvvar1_p3")
        for r in (1, 2, 5):
            a = nc.stationary_cov(model, 0.6, r)
            b = nc.stationary_cov(model, 0.6, -r)
            assert np.allclose(a, b.T, atol=1e-14)

    def test_max_lag_follows_the_count_rule(self):
        model = reference_tvvma()
        for bad in (2.5, True, "3"):
            with pytest.raises(InputError, match="max_lag must be an integer"):
                nc.stationary_cov_sequence(model, 0.3, bad)
        with pytest.raises(DomainError, match="max_lag must be >= 0"):
            nc.stationary_cov_sequence(model, 0.3, -1)
        assert np.array_equal(nc.stationary_cov_sequence(model, 0.3, np.int64(4)),
                              nc.stationary_cov_sequence(model, 0.3, 4))

    def test_quadrature_inversion_cross_check(self):
        # C_r(u) = (2 pi)^-1 integral f(w; u) e^{-i r w} dw on a 2^12 grid
        model = nc.get_reference_model("tvvar1_p3")
        u = 0.45
        omegas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        fs = np.stack([nc.local_spectral_density(model, u, w) for w in omegas])
        for r in (0, 1, 3):
            phases = np.exp(-1j * r * omegas)
            quad = (fs * phases[:, None, None]).mean(axis=0)
            direct = nc.stationary_cov(model, u, r)
            assert np.allclose(quad.real, direct, atol=1e-8)
            assert np.abs(quad.imag).max() < 1e-10


def radius_099_var():
    """A non-normal first-order model of companion radius 0.99."""
    return nc.TvVAR(p=2, phis=(nc.constant_fn([[0.99, 0.5], [0.0, 0.9]]),),
                    sigma=nc.constant_fn([[1.0, 0.3], [0.3, 0.5]]))


def var3_model():
    return nc.TvVAR(p=2, phis=(
        nc.affine_fn([[0.5, 0.1], [-0.1, 0.3]], [[0.1, 0.0], [0.05, -0.1]]),
        nc.sinusoidal_fn([[0.1, 0.0], [0.02, 0.2]], [[0.05, 0.02], [0.0, 0.05]]),
        nc.constant_fn([[-0.2, 0.05], [0.0, 0.15]])),
        sigma=nc.affine_fn([[1.0, 0.2], [0.2, 0.8]], [[0.3, 0.0], [0.0, 0.2]]))


class TestFrozenVarLags:
    """The frozen TvVAR lags from the doubled companion-form covariance."""

    @pytest.mark.parametrize("name", ["tvvar1_p3", "radius_099", "order_3"])
    def test_lags_match_scipy_lyapunov_solver(self, name):
        """``C_r = [A^r V]_{:p,:p}`` with ``V`` from scipy's discrete
        Lyapunov solver and ``A^r`` from ``matrix_power``.  Both solve a
        system whose condition is about ``1/(1 - rho^2)``, so they agree to
        a few ulps of ``max |V|`` times it."""
        import scipy.linalg
        model = {"tvvar1_p3": reference_tvvar3(), "radius_099": radius_099_var(),
                 "order_3": var3_model()}[name]
        us, max_lag, p = np.linspace(0.0, 1.0, 81), 100, model.p
        got = models._stationary_cov_sequences(model, us, max_lag)
        for u, lags in zip(us, got):
            a = companion(model.phi_stack(u))
            q = np.zeros_like(a)
            q[:p, :p] = model.sigma_at(u)
            v = scipy.linalg.solve_discrete_lyapunov(a, q)
            want = np.stack([(np.linalg.matrix_power(a, r) @ v)[:p, :p]
                             for r in range(max_lag + 1)])
            rho = np.abs(np.linalg.eigvals(a)).max()
            tol = 16 * np.finfo(float).eps * np.abs(v).max() / (1.0 - rho ** 2)
            assert np.abs(lags - want).max() <= tol
        assert np.array_equal(got[:, 0], got[:, 0].transpose(0, 2, 1))

    @pytest.mark.parametrize("build", [reference_tvvar3, radius_099_var, var3_model,
                                       scalar_ar1], ids=["p3", "r099", "d3", "ar1"])
    def test_batched_lags_and_radii_equal_the_per_u_values(self, build):
        model = build()
        us = np.linspace(-0.1, 1.1, 25)
        batched = models._stationary_cov_sequences(model, us, 30)
        comps = models._companions(model.phi_stacks(us))
        radii = np.abs(np.linalg.eigvals(comps)).max(axis=1)
        for i, u in enumerate(us):
            assert np.array_equal(batched[i], nc.stationary_cov_sequence(model, u, 30))
            assert np.array_equal(comps[i], companion(model.phi_stack(u)))
            assert radii[i] == np.max(np.abs(np.linalg.eigvals(comps[i])))
        # the radius of the validation grid, from one batched eigvals
        assert nc.stability_radius(model) == max(
            np.max(np.abs(np.linalg.eigvals(companion(model.phi_stack(u)))))
            for u in np.linspace(0.0, 1.0, 33))

    def test_tiny_coefficients_keep_their_lags(self):
        # C_r = phi^r / (1 - phi^2); no tail rule may cut them
        got = nc.stationary_cov_sequence(scalar_ar1(3e-14), 0.5, 3)[:, 0, 0]
        assert got[0] == 1.0
        assert got[3] == pytest.approx(2.7e-41, rel=1e-15)

    def test_refusals_name_the_first_offending_u(self):
        # unstable for u > 0.625, innovation variance not SPD from u = 0.5
        model = nc.TvVAR(p=1, phis=(nc.affine_fn([[0.5]], [[0.8]]),),
                         sigma=nc.affine_fn([[1.0]], [[-2.0]]))
        for us, message in (([0.2, 0.55, 0.7], "innovation variance not SPD at u=0.5500"),
                            ([0.2, 0.7, 0.55], "frozen process unstable at u=0.7000")):
            with pytest.raises(ModelError, match=f"^TvVAR: {message}$"):
                models._stationary_cov_sequences(model, us, 2)
        with pytest.raises(ModelError, match="^TvVAR: frozen process unstable at u=0.9000$"):
            nc.stationary_cov_sequence(model, 0.9, 2)

    def test_doubling_cap_refuses(self, monkeypatch):
        # two doublings sum four terms of the series, which does not settle
        monkeypatch.setattr(models, "_DOUBLINGS", 2)
        with pytest.raises(ModelError,
                           match="^TvVAR: frozen covariance does not settle at u=0.3000$"):
            nc.stationary_cov_sequence(reference_tvvar3(), 0.3, 2)

    def test_overflow_is_refused(self):
        # Sigma / (1 - 0.81) is beyond the float range
        model = nc.TvVAR(p=1, phis=(nc.constant_fn([[0.9]]),),
                         sigma=nc.constant_fn([[8e307]]))
        with pytest.raises(InputError, match="^stationary_cov_sequence: non-finite entries$"):
            nc.stationary_cov_sequence(model, 0.5, 2)


class TestSpectralDensity:
    def test_white_noise_flat(self):
        model = white_noise_model(2)
        f = nc.local_spectral_density(model, 0.5, 1.234)
        assert np.allclose(f, np.eye(2), atol=1e-14)

    def test_ar1_at_zero_frequency(self):
        f = nc.local_spectral_density(scalar_ar1(), 0.1, 0.0)
        assert f[0, 0].real == pytest.approx(4.0, abs=1e-12)

    def test_hermitian_and_fourier_consistency(self):
        model = reference_tvvma()
        u = 0.3
        seq = nc.stationary_cov_sequence(model, u, model.order + 1)
        for omega in (0.7, 2.1, 4.4):
            f = nc.local_spectral_density(model, u, omega)
            assert np.allclose(f, f.conj().T, atol=1e-13)
            total = seq[0].astype(complex)
            for r in range(1, seq.shape[0]):
                total += seq[r] * np.exp(1j * r * omega)
                total += seq[r].T * np.exp(-1j * r * omega)
            assert np.allclose(f, total, atol=1e-8)

    def test_spectral_eig_range(self):
        model = white_noise_model(2)
        rng = nc.spectral_eig_range(model, [0.2, 0.8], [0.0, 1.0, 2.0])
        assert rng.lambda_min == pytest.approx(1.0)
        assert rng.lambda_max == pytest.approx(1.0)
        ar = nc.spectral_eig_range(scalar_ar1(), [0.5],
                                   np.linspace(0, 2 * math.pi, 512, endpoint=False))
        assert ar.lambda_min == pytest.approx(4.0 / 9.0, abs=1e-3)
        assert ar.lambda_max == pytest.approx(4.0, abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(model=st.one_of(tvvma_models(), small_tvvar_models(), small_tvarch_models()),
           us=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=6),
           omegas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
    def test_batched_densities_match_the_per_u_kernel_bitwise(self, model, us, omegas):
        omegas = np.array(omegas)
        want = np.stack([per_u_densities(model, u, omegas) for u in us])
        got = models._densities(model, us, omegas, "test")
        assert got.shape == want.shape and np.array_equal(got, want)
        for u, row in zip(us, want):
            assert np.array_equal(nc.local_spectral_densities(model, u, omegas), row)
        vals = np.linalg.eigvalsh(want)
        got = nc.spectral_eig_range(model, us, omegas)
        assert (got.lambda_min, got.lambda_max) == (vals[..., 0].min(), vals[..., -1].max())

    def test_singular_transfer_names_the_first_u_then_the_first_omega(self):
        # 1 - Phi(u) z with Phi(u) = 2u - 1 vanishes at z = 1 for u = 1
        # (omega = 0 and, to rounding, 2 pi) and at z = -1 for u = 0
        # (omega = pi); the u grid comes first, then the omega grid
        model = nc.TvVAR(p=1, phis=(nc.affine_fn([[-1.0]], [[2.0]]),),
                         sigma=nc.constant_fn([[1.0]]))
        us, omegas = [0.25, 1.0, 0.0], [0.5, math.pi, 2.0 * math.pi, 0.0]
        message = f"TvVAR: transfer singular at u=1.0, omega={2.0 * math.pi}"
        for call in (lambda: nc.spectral_eig_range(model, us, omegas),
                     lambda: models._densities(model, us, omegas, "test"),
                     lambda: nc.local_spectral_densities(model, 1.0, omegas)):
            with pytest.raises(ModelError) as err:
                call()
            assert str(err.value) == message
        with pytest.raises(ModelError) as err:
            nc.spectral_eig_range(model, [0.25, 0.0, 1.0], omegas)
        assert str(err.value) == f"TvVAR: transfer singular at u=0.0, omega={math.pi}"

    @pytest.mark.parametrize("call,message", [
        (lambda: nc.spectral_eig_range(nc.get_reference_model("tvvar1_p3"),
                                       [math.nan], [0.1]),
         "spectral_eig_range: every u must be a number other than nan"),
        (lambda: nc.local_spectral_densities(nc.get_reference_model("tvvar1_p3"),
                                             0.3, [math.nan]),
         "local_spectral_densities: every omega must be a finite number"),
        (lambda: nc.partial_spectral_coherence(nc.get_reference_model("tvvar1_p3"),
                                               math.nan, 0, 1, [0.1]),
         "partial_spectral_coherence: every u must be a number other than nan"),
        (lambda: nc.local_spectral_densities(nc.get_reference_model("tvvma_kappa4_p2"),
                                             0.3, [math.inf]),
         "local_spectral_densities: every omega must be a finite number"),
        (lambda: nc.spectral_eig_range(nc.get_reference_model("tvvma_kappa4_p2"),
                                       [0.3], [0.1, -math.inf]),
         "spectral_eig_range: every omega must be a finite number"),
        (lambda: nc.spectral_eig_range(nc.get_reference_model("tvarch_order2"),
                                       [0.3, math.nan], [0.1]),
         "spectral_eig_range: every u must be a number other than nan"),
        (lambda: nc.partial_spectral_coherence(nc.get_reference_model("tvvar1_p3"),
                                               0.3, 0, 5, [0.1]),
         "partial_spectral_coherence: bad component pair (0, 5) for p=3"),
        (lambda: nc.partial_spectral_coherence(nc.get_reference_model("tvvar1_p3"),
                                               0.3, 2.5, 1, [0.1]),
         "partial_spectral_coherence: component must be an integer, got 2.5"),
        (lambda: nc.partial_spectral_coherence(nc.get_reference_model("tvvar1_p3"),
                                               0.3, 1, 1, [0.1]),
         "partial_spectral_coherence: bad component pair (1, 1) for p=3"),
        (lambda: nc.local_spectral_densities(nc.get_reference_model("tvvar1_p3"),
                                             "x", [0.1]),
         "local_spectral_densities: every u must be a number other than nan"),
        (lambda: nc.local_spectral_density(nc.get_reference_model("tvvar1_p3"),
                                           0.3, "x"),
         "local_spectral_density: every omega must be a finite number"),
    ], ids=["range_nan_u", "densities_nan_omega", "coherence_nan_u",
            "vma_inf_omega", "range_inf_omega", "arch_nan_u", "coherence_pair_out_of_range",
            "coherence_float_component", "coherence_equal_pair", "densities_string_u",
            "density_string_omega"])
    def test_spectral_entry_points_refuse_bad_grids_by_name(self, call, message):
        # these ended in a bare LinAlgError, IndexError or ValueError, in NaN
        # densities, or (a == b) in a coherence near -1
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == message

    def test_an_infinite_u_is_clamped(self):
        model, omegas = reference_tvvar3(), [0.1, 2.0]
        assert nc.spectral_eig_range(model, [math.inf, -math.inf], omegas) == \
            nc.spectral_eig_range(model, [1.0, 0.0], omegas)

    def test_section_eigenvalues_inside_spectral_range(self):
        model = reference_tvvma()
        spec = nc.spectral_eig_range(model, np.linspace(0, 1, 21),
                                     np.linspace(0, 2 * math.pi, 64, endpoint=False))
        sec = nc.sym_eig_range(nc.stationary_window(model, 0.37, 0, 219))
        assert sec.lambda_min >= spec.lambda_min - 0.05
        assert sec.lambda_max <= spec.lambda_max + 0.05


class TestSimulation:
    def test_zero_model_zero_path(self):
        model = nc.TvVMA(p=2, psis=(nc.constant_fn(np.zeros((2, 2))),))
        path = nc.simulate_path(model, 100, 0, 50, seed=1)
        assert np.all(path.data == 0.0)

    def test_seed_determinism(self):
        model = reference_tvvma()
        a = nc.simulate_path(model, 100, 0, 40, seed=77)
        b = nc.simulate_path(model, 100, 0, 40, seed=77)
        assert np.array_equal(a.data, b.data)
        c = nc.simulate_path(model, 100, 0, 40, seed=78)
        assert not np.array_equal(a.data, c.data)

    def test_lag0_matches_closed_form(self):
        model = affine_ar1()
        n, t = 100, 60
        reps = 100_000
        sims = nc.simulate_ensemble(model, n, t, t, reps=reps, seed=31)
        prods = sims[:, 0, 0] ** 2
        se = prods.std(ddof=1) / math.sqrt(reps)
        exact = nc.cov_window(model, n, t, t).block(t, t).copy()[0, 0]
        assert abs(prods.mean() - exact) <= 3 * se

    def test_simulator_consistency_small_lags(self):
        # every (t, tau) with |t - tau| <= 5 within 3 standard errors
        model = reference_tvvma(p=1)
        n, t0 = 100, 50
        reps = 60_000
        sims = nc.simulate_ensemble(model, n, t0, t0 + 5, reps=reps, seed=13)
        for i in range(6):
            for j in range(6):
                prods = sims[:, i, 0] * sims[:, j, 0]
                se = prods.std(ddof=1) / math.sqrt(reps)
                lo, hi = t0 + min(i, j), t0 + max(i, j)
                exact = nc.cov_window(model, n, lo, hi).block(t0 + i, t0 + j).copy()[0, 0]
                assert abs(prods.mean() - exact) <= 3 * se

    def test_vma_paths_match_the_lag_sum(self):
        # X_t = sum_j Psi_{t,j} eps_{t-j}, written out per lag; the simulator
        # takes it as one product per step, so only the last bits may move
        model, n, t_lo, t_hi, reps = reference_tvvma(), 90, -3, 70, 50
        got = nc.simulate_ensemble(model, n, t_lo, t_hi, reps=reps, seed=5)
        start = t_lo - model.order
        eps = np.random.default_rng(5).standard_normal(
            (reps, t_hi - start + 1, model.p))
        stacks = model.psi_stacks_array(np.arange(start, t_hi + 1), n)
        want = np.zeros_like(eps)
        for i in range(eps.shape[1]):
            for j in range(min(model.order, i) + 1):
                want[:, i] += eps[:, i - j] @ stacks[i, j].T
        assert_close_to_scale(got, want[:, model.order:], np.abs(want).max())

    def test_var_paths_match_the_per_step_recursion_bitwise(self):
        # one square root of Sigma(u) per step, from its own eigh, against the
        # simulator's one batched square root per path
        model, n, t_lo, t_hi, reps = reference_tvvar3(), 120, -5, 60, 7
        got = nc.simulate_ensemble(model, n, t_lo, t_hi, reps=reps, seed=11)
        burn = models._burn_in(model)
        start = t_lo - burn
        eps = np.random.default_rng(11).standard_normal(
            (reps, t_hi - start + 1, model.p))
        want = np.zeros_like(eps)
        for i in range(eps.shape[1]):
            u = (start + i) / n
            acc = eps[:, i] @ per_matrix_psd_sqrt(model.sigma_at(u)).T
            for j in range(1, min(model.order, i) + 1):
                acc = acc + want[:, i - j] @ model.phi_stack(u)[j - 1].T
            want[:, i] = acc
        assert np.array_equal(got, want[:, burn:])

    def test_batched_psd_sqrt_matches_one_eigh_per_matrix(self):
        roots = np.random.default_rng(3).standard_normal((6, 3, 3))
        s = roots @ roots.transpose(0, 2, 1)
        s[2] = np.diag([1.0, 0.0, 2.0])
        got = models._psd_sqrt(s)
        assert np.array_equal(got, np.stack([per_matrix_psd_sqrt(m) for m in s]))
        s[4] = np.diag([1.0, -1e-3, 2.0])
        with pytest.raises(ModelError) as err:
            models._psd_sqrt(s)
        assert str(err.value) == "innovation variance has a negative eigenvalue"

    def test_positive_definiteness_of_assembled_windows(self):
        for name in ("tvvma_kappa4_p2", "tvvar1_p3"):
            model = nc.get_reference_model(name)
            w = nc.cov_window(model, 200, 0, 239)
            assert nc.sym_eig_range(w).lambda_min > 0


class TestPhysicalDependence:
    def test_beyond_memory_is_null(self):
        model = reference_tvvma(p=1)
        est = nc.physical_dep_estimate(model, 100, 40, model.order + 3,
                                       reps=400, seed=5)
        assert est.value <= 3 * max(est.stderr, 1e-300)

    def test_white_noise_difference_variance(self):
        model = white_noise_model(2, sigma=np.diag([2.0, 0.5]))
        est = nc.physical_dep_estimate(model, 100, 10, 0, reps=60_000, seed=8)
        assert est.value == pytest.approx(2 * 2.0, abs=4 * est.stderr + 0.05)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            nc.physical_dep_estimate(reference_sre(), 100, 10, -1, reps=500, seed=1)
        with pytest.raises(DomainError):
            nc.physical_dep_estimate(reference_sre(), 100, 10, 1, reps=10, seed=1)

    @staticmethod
    def full_rerun_estimate(model, n, t, j, reps, seed):
        """The estimate with the coupled path rerun from the first step."""
        burn = models._burn_in(model)
        start = t - j - burn
        steps = t - start + 1
        rng = np.random.default_rng(seed)
        width = models._innovation_width(model)
        eps = rng.standard_normal((reps, steps, width))
        swap = rng.standard_normal((reps, width))
        base = models._run_from_innovations(model, n, start, eps)
        eps_c = eps.copy()
        eps_c[:, steps - 1 - j] = swap
        coupled = models._run_from_innovations(model, n, start, eps_c)
        diff = base[:, -1] - coupled[:, -1]
        batches = np.split(diff, np.cumsum(np.full(9, reps // 10)))
        batch_norms = nc.block_norms(np.stack([d.T @ d / len(d) for d in batches]))
        return (float(nc.block_norms(diff.T @ diff / reps)),
                float(batch_norms.std(ddof=1) / math.sqrt(10)))

    @pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "var2", "tvarch_order2", "sre_p2"])
    def test_resumed_coupled_path_is_bitwise_the_full_rerun(self, name):
        if name == "var2":
            model = nc.TvVAR(p=2, phis=(nc.sinusoidal_fn([[0.4, 0.1], [0.0, 0.3]],
                                                         0.05 * np.eye(2)),
                                        nc.constant_fn([[0.2, 0.0], [0.1, -0.1]])),
                             sigma=nc.constant_fn([[1.0, 0.3], [0.3, 0.8]]))
        else:
            model = nc.get_reference_model(name)
        order = models._memory(model)
        # j = burn + 3 swaps an innovation older than the whole burn-in
        for j in sorted({0, 1, order, models._burn_in(model) + 3}):
            est = nc.physical_dep_estimate(model, 200, 60, j, reps=100, seed=17 + j)
            assert (est.value, est.stderr) == \
                self.full_rerun_estimate(model, 200, 60, j, 100, 17 + j)

    def test_sre_geometric_decay(self):
        model = reference_sre()
        vals = [nc.physical_dep_estimate(model, 200, 80, j, reps=2000, seed=40 + j).value
                for j in range(1, 7)]
        slope = np.polyfit(np.arange(1, 7), np.log(vals), 1)[0]
        assert slope <= math.log(math.sqrt(0.25)) + 0.2


class TestAssumptionFit:
    def test_frozen_model_has_no_smoothness_gap(self):
        frozen = nc.TvVAR(p=1, phis=(nc.constant_fn([[0.5]]),),
                          sigma=nc.constant_fn([[1.0]]))
        fit = nc.assumption_fit(frozen, 100, 40, 70, kappa=4.0)
        assert fit.max_gap <= 1e-8

    def test_kappa_recovered_for_power_law_model(self):
        # scalar envelope model: psi_j(u) = (0.9 + 0.1 sin 2 pi u) gu(j)^-4
        kappa = 4.0
        psis = [nc.sinusoidal_fn([[0.9 * float(nc.gu(j)) ** -kappa]],
                                 [[0.1 * float(nc.gu(j)) ** -kappa]])
                for j in range(0, 49)]
        model = nc.TvVMA(p=1, psis=tuple(psis), kappa=kappa)
        fit = nc.assumption_fit(model, 200, 70, 130)
        assert 3.5 <= fit.decay.exponent <= 4.5

    def test_doubling_n_halves_gap(self):
        model = reference_tvvma()
        fits = {n: nc.assumption_fit(model, n, int(0.3 * n), int(0.7 * n))
                for n in (100, 200)}
        ratio = fits[100].max_gap / fits[200].max_gap
        assert 1.5 <= ratio <= 2.7

    def test_too_short_window_raises(self):
        with pytest.raises(nc.FitError):
            nc.assumption_fit(reference_tvvma(), 100, 10, 13)


class TestArchRecursion:
    def test_spectral_range_tracks_variance_band(self):
        model = reference_tvarch()
        us = np.linspace(0, 1, 33)
        c0 = np.array([nc.stationary_cov(model, u, 0)[0, 0] for u in us])
        rng = nc.spectral_eig_range(model, us, [0.0, 1.0, 2.5])
        assert rng.lambda_min == pytest.approx(c0.min(), rel=1e-12)
        assert rng.lambda_max == pytest.approx(c0.max(), rel=1e-12)

    def test_mean_square_matches_monte_carlo(self):
        model = reference_tvarch()
        n, t = 100, 60
        reps = 60_000
        sims = nc.simulate_ensemble(model, n, t, t, reps=reps, seed=63)
        prods = sims[:, 0, 0] ** 2
        se = prods.std(ddof=1) / math.sqrt(reps)
        exact = nc.cov_window(model, n, t, t).block(t, t).copy()[0, 0]
        assert abs(prods.mean() - exact) <= 4 * se


class TestReferenceRefusals:
    """The bundled builders refuse with the package's errors."""

    def test_kappa_at_most_one_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^vma_truncation: requires kappa > 1$") as err:
            reference_tvvma(kappa=1.0)
        assert isinstance(err.value, ValueError)

    def test_unknown_name_is_an_input_error(self):
        with pytest.raises(InputError) as err:
            nc.get_reference_model("nope")
        assert str(err.value) == ("unknown reference model 'nope'; available: "
                                  f"{sorted(nc.REFERENCE_BUILDERS)}")
