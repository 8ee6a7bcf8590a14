import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonstatcov as nc
from nonstatcov import inverse_analysis as ia
from nonstatcov.errors import (ConditioningError, DegenerateFitError,
                               DivergenceError, DomainError, InputError,
                               ModelError, UnsupportedFamilyError)
from nonstatcov.inverse_analysis import _frozen_inverse_lags, _wiener_lags
from nonstatcov.models import _grid_transfer, _half_grid, _inverse_spectrum
from nonstatcov.reference import ar1_model, reference_sre, reference_tvvma


def cov_sequence_derivative(model, u, max_lag, h_c=1e-5):
    """``C'_r(u)``, ``r = 0..max_lag``, by a central difference of the frozen
    covariance sequence; its O(h_c^2) error is far below the O(h) of the
    forward difference it is compared with."""
    return (nc.stationary_cov_sequence(model, u + h_c, max_lag)
            - nc.stationary_cov_sequence(model, u - h_c, max_lag)) / (2.0 * h_c)


def inverse_derivative_gap(model, u, max_lag, h=1e-4, pad=None):
    """Forward difference of ``D_r(u)`` against the sandwich derivative,
    the oracle of the derivative identity ``dD = -D C' D``.

    The identity is assembled on a long Toeplitz section from the central
    difference ``C'`` of :func:`cov_sequence_derivative`.  Returns
    ``(fd, assembled, max_rel_err)`` with per-lag arrays for
    ``r = 0..max_lag``.
    """
    pad = nc.cov_pad(model) if pad is None else pad
    half = max_lag + pad
    w = nc.stationary_window(model, u, -half, half)
    inv, _, _ = nc.spd_inverse(w.flatten(), "inverse_derivative_gap: window")
    dseq = cov_sequence_derivative(model, u, 2 * half)
    assembled_flat = -inv @ nc.operator_core.block_toeplitz(dseq, 2 * half + 1) @ inv
    assembled = ia._centre_row(0.5 * (assembled_flat + assembled_flat.T), w.p,
                               half, max_lag)
    seq_u = ia._centre_row(inv, w.p, half, max_lag)
    seq_uh = nc.stationary_inverse_sequence(model, u + h, max_lag, pad=pad)
    fd = (seq_uh - seq_u) / h
    scale = max(float(np.abs(assembled).max()), 1e-300)
    return fd, assembled, float(np.abs(fd - assembled).max()) / scale


class TestFiniteSectionInverse:
    def test_identity_any_pad(self):
        w = nc.BlockWindow.from_flat(np.eye(20), p=2, symmetrize=True)
        for pad in (0, 2, 4):
            inv = nc.finite_section_inverse(w, pad)
            assert np.allclose(inv.base.flatten(),
                               np.eye((10 - 2 * pad) * 2), atol=1e-14)
            assert inv.source_pad == pad

    def test_ar1_precision_structure(self):
        model = ar1_model(0.5, 1.0)
        c = nc.cov_window(model, 100, -60, 99)
        inv = nc.finite_section_inverse(c, 60)
        for t in range(5, 35):
            assert inv.block(t, t)[0, 0] == pytest.approx(1.25, abs=1e-8)
            assert inv.block(t, t + 1)[0, 0] == pytest.approx(-0.5, abs=1e-8)
            assert abs(inv.block(t, t + 3)[0, 0]) <= 1e-8

    def test_pad_stability(self):
        model = reference_tvvma()
        small = nc.model_inverse_window(model, 200, 40, 79, pad=50)
        large = nc.model_inverse_window(model, 200, 40, 79, pad=100)
        drift = np.abs(small.base.blocks - large.base.blocks).max()
        assert drift <= 1e-6

    def test_residual_recorded_and_small(self):
        model = reference_tvvma()
        inv = nc.model_inverse_window(model, 200, 0, 59)
        assert inv.residual <= 1e-8

    def test_interior_is_the_exact_slice_of_the_inverse(self):
        c = nc.cov_window(reference_tvvma(), 200, 0, 59)
        inv, _, _ = nc.spd_inverse(c.flatten(), "window")
        got = nc.finite_section_inverse(c, 10).base
        assert got.symmetric and (got.t_lo, got.length) == (10, 40)
        assert np.array_equal(got.flatten(), inv[20:100, 20:100])

    def test_interior_is_read_only_and_leaves_the_window_intact(self):
        c = nc.cov_window(reference_tvvma(), 200, 0, 59)
        before = c.flatten().copy()
        for pad in (0, 10):
            got = nc.finite_section_inverse(c, pad).base.flatten()
            assert got.flags.c_contiguous and not got.flags.writeable
            assert not np.shares_memory(got, c.flatten())
        assert np.array_equal(c.flatten(), before)

    def test_model_inverse_window_frees_the_padded_window(self, monkeypatch):
        # the padded window is gone by the time the interior is handed over
        windows, alive = [], []
        real_cov, real_adopt = ia.cov_window, nc.BlockWindow._adopt.__func__

        def recording_cov(*args, **kwargs):
            w = real_cov(*args, **kwargs)
            windows.append(weakref.ref(w))
            return w

        def recording_adopt(cls, flat, p, t_lo=0, what="BlockWindow"):
            if windows:
                alive.append(windows[0]() is not None)
            return real_adopt(cls, flat, p, t_lo, what)

        monkeypatch.setattr(ia, "cov_window", recording_cov)
        monkeypatch.setattr(nc.BlockWindow, "_adopt", classmethod(recording_adopt))
        got = nc.model_inverse_window(reference_tvvma(), 200, 40, 79, pad=20)
        assert alive == [False]
        monkeypatch.undo()
        want = nc.finite_section_inverse(
            nc.cov_window(reference_tvvma(), 200, 20, 99), 20).base.flatten()
        assert np.array_equal(got.base.flatten(), want)

    def test_interior_under_a_tracer_that_holds_locals(self):
        # a tracer that reads f_locals holds the frame's buffer, which then
        # cannot be resized in place; the interior is copied out instead
        model = reference_tvvma()
        want = nc.model_inverse_window(model, 200, 10, 49, pad=10)

        def tracer(frame, event, arg):
            frame.f_locals
            return tracer
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            got = nc.model_inverse_window(model, 200, 10, 49, pad=10)
        finally:
            sys.settrace(previous)
        assert np.array_equal(got.base.flatten(), want.base.flatten())
        assert (got.condition_bound, got.residual) == (want.condition_bound, want.residual)

    def test_requires_symmetric(self):
        blocks = np.random.default_rng(0).standard_normal((4, 4, 1, 1))
        w = nc.BlockWindow(t_lo=0, p=1, blocks=blocks)
        with pytest.raises(InputError):
            nc.finite_section_inverse(w, 0)

    def test_singular_window_raises(self):
        w = nc.BlockWindow.from_flat(np.zeros((6, 6)), p=1, symmetrize=True)
        with pytest.raises(ConditioningError):
            nc.finite_section_inverse(w, 0)


def _indefinite_window() -> nc.BlockWindow:
    """A symmetric window whose bandwidth-2 truncation is indefinite while
    its Neumann series contracts (q < 1 keeps the inertia of B_M, so the
    window is indefinite too): the LU branch of ``neumann_inverse``."""
    rng = np.random.default_rng(12)
    length, m = 30, 2
    lag = np.abs(np.subtract.outer(np.arange(length), np.arange(length)))
    raw = rng.standard_normal((length, length))
    sym = 0.5 * (raw + raw.T)
    signs = np.where(np.arange(length) % 3 == 0, -1.0, 1.0)
    banded = 0.2 * sym * (lag <= m) + np.diag(signs * rng.uniform(3.0, 4.0, length))
    tail = 0.02 * sym * (lag > m)
    return nc.BlockWindow.from_flat(banded + tail, p=1, symmetrize=True)


class TestNeumannInverse:
    def test_exact_for_already_banded(self):
        rng = np.random.default_rng(4)
        from nonstatcov.verification import random_spd_banded
        mat, _, _ = random_spd_banded(rng, 2, 2, 20)
        w = nc.BlockWindow.from_flat(mat, p=2, symmetrize=True)
        res = nc.neumann_inverse(w, m=3, terms=0)
        assert res.tail == 0.0
        assert res.contraction_norm == 0.0
        assert np.allclose(res.approx.flatten(), np.linalg.inv(mat), atol=1e-10)

    def test_certificate_dominates_true_error(self):
        model = reference_tvvma()
        c = nc.cov_window(model, 200, 30, 109)
        dense = np.linalg.inv(c.flatten())
        for m, terms in [(8, 20), (6, 3), (12, 1)]:
            res = nc.neumann_inverse(c, m, terms)
            err = np.linalg.norm(res.approx.flatten() - dense, 2)
            assert err <= res.certificate

    def test_approximation_is_symmetric_and_read_only(self):
        c = nc.cov_window(reference_tvvma(), 200, 30, 79)
        for terms in (0, 6):
            approx = nc.neumann_inverse(c, 10, terms).approx
            flat = approx.flatten()
            assert approx.symmetric and np.array_equal(flat, flat.T)
            assert flat.flags.c_contiguous and not flat.flags.writeable

    def test_zero_terms_is_banded_inverse(self):
        model = reference_tvvma()
        c = nc.cov_window(model, 200, 30, 79)
        res = nc.neumann_inverse(c, 10, 0)
        banded = nc.band_truncate(c, 10).base.flatten()
        assert np.allclose(res.approx.flatten(), np.linalg.inv(banded), atol=1e-12)
        q, nb = res.contraction_norm, res.banded_inverse_norm
        assert res.tail == pytest.approx(nb * q / (1 - q))

    def test_contraction_norm_matches_dense_svd(self):
        model = reference_tvvma()
        c = nc.cov_window(model, 200, 10, 89)
        for m in (4, 8, 12):
            res = nc.neumann_inverse(c, m, 2)
            bf = nc.band_truncate(c, m).base.flatten()
            ref = np.linalg.norm(np.linalg.solve(bf, c.flatten() - bf), 2)
            assert res.contraction_norm == pytest.approx(ref, rel=1e-12)

    def test_split_sum_matches_power_sum(self):
        # the SPD branch and the LU branch (an indefinite truncation)
        cases = [(nc.cov_window(reference_tvvma(), 200, -20, 49), 6),
                 (_indefinite_window(), 2)]
        for c, m in cases:
            bf = nc.band_truncate(c, m).base.flatten()
            b_inv = np.linalg.inv(bf)
            prod = b_inv @ (c.flatten() - bf)
            power, total = b_inv, b_inv.copy()
            for terms in range(42):
                if terms:
                    power = -prod @ power
                    total += power
                res = nc.neumann_inverse(c, m, terms)
                scale = np.abs(total).max()
                assert np.abs(res.approx.flatten() - total).max() <= 1e-13 * scale
                assert res.approx.symmetric

    def test_split_sum_product_count(self, monkeypatch):
        from nonstatcov import inverse_analysis as ia
        from nonstatcov import operator_core as oc
        # b - 1 products for the powers and r = terms / b for Q and Horner
        assert {t: ia._split_length(t) for t in (1, 6, 7, 12, 20)} == {
            1: 1, 6: 2, 7: 1, 12: 3, 20: 4}
        for terms, products in [(6, 4), (12, 6), (20, 8), (7, 7)]:
            b = ia._split_length(terms)
            assert (b - 1) + terms // b == products
        for terms in range(1, 42):
            b = ia._split_length(terms)
            assert (b - 1) + terms // b == min(
                d - 1 + terms // d for d in range(1, terms + 1) if terms % d == 0)
        products = []

        def counting(kernel):
            def count(a, b):
                products.append(kernel.__name__)
                return kernel(a, b)
            return count
        # the first product of its kind is fresh, the later Horner steps
        # multiply into H's own buffer
        for name in ("symmetric_product", "_symmetric_product_into"):
            monkeypatch.setattr(ia, name, counting(getattr(oc, name)))
        whitened = nc.cov_window(reference_tvvma(), 200, 30, 109), 12
        lu = _indefinite_window(), 2
        for terms in (0, 1, 6, 7, 12, 20):
            b = ia._split_length(terms) if terms else 1
            horner = max(terms // b - 1, 0)
            # whitened: the b - 1 powers are symmetric products and Q = A is
            # free; LU: the powers are plain products and Q = A R is one more
            for (c, m), first in [(whitened, b - 1), (lu, 1)]:
                products.clear()
                nc.neumann_inverse(c, m, terms)
                if not terms:
                    assert products == []
                    continue
                assert len(products) == first + horner
                assert products.count("symmetric_product") == first + min(horner, 1)

    def test_whitened_branch_inverts_no_dense_matrix(self, monkeypatch):
        from nonstatcov import operator_core as oc
        calls = []

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped
        for module in (oc, ia):
            monkeypatch.setattr(module, "_spd_inverse_in_place",
                                counting("spd", oc._spd_inverse_in_place))
        monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
        monkeypatch.setattr(oc._BandCholesky, "factor",
                            counting("factor", oc._BandCholesky.factor))
        c = nc.cov_window(reference_tvvma(), 200, 0, 299)
        for terms in (0, 6, 12):
            nc.neumann_inverse(c, 8, terms)
        assert calls == ["factor"] * 3
        calls.clear()
        nc.neumann_inverse(_indefinite_window(), 2, 6)
        assert calls == ["inv"]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 600), terms=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    @example(n=600, terms=12, seed=0)
    @example(n=513, terms=16, seed=1)
    @example(n=257, terms=30, seed=2)
    @example(n=256, terms=6, seed=3)
    def test_split_sum_keeps_the_bits_of_fresh_buffers(self, n, terms, seed):
        """The in-place sum against the split sum with a fresh array for
        ``A`` and for every Horner step, bit for bit."""
        from nonstatcov import operator_core as oc

        def fresh_buffer_sum(r, x, terms):
            if terms == 0:
                return r
            b = ia._split_length(terms)
            acc = power = x
            for _ in range(b - 1):
                power = ia._flush_tiny(x @ power)
                acc = acc + power if acc is x else np.add(acc, power, out=acc)
            if b > 1:
                ia._flush_tiny(acc)
            q = oc.symmetric_product(acc, r)
            h = q
            for _ in range(terms // b - 1):
                h = oc.symmetric_product(power, ia._flush_tiny(h))
                np.add(h, q, out=h)
            return np.add(h, r, out=h)

        # R and E decay off the diagonal as banded inverses do, so that the
        # products reach the flush level of _flush_tiny on wide matrices
        rng = np.random.default_rng(seed)
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        noise = rng.standard_normal((2, n, n))
        noise += noise.transpose(0, 2, 1)
        r = rng.uniform(0.05, 0.9) ** lag * (1.0 + 0.05 * noise[0])
        e = 0.2 * rng.uniform(0.05, 0.9) ** lag * noise[1] / math.sqrt(n)
        x = -(r @ e)
        want = fresh_buffer_sum(r.copy(), x.copy(), terms)
        got = ia._neumann_sum(r.copy(), [x.copy()], terms)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lu", [False, True])
    def test_certificate_fields_independent_of_the_series(self, lu):
        import scipy.linalg
        from nonstatcov.operator_core import _KRYLOV_MIN_N, _lanczos_norm, krylov_norm
        # the extremes of B_M, q and ||E|| taken apart from the series: for
        # the LU branch from B_M^-1 and P = B_M^-1 E with one full-size mask
        # per flush; for the whitened branch by Lanczos on v -> B_M^-1 (E v),
        # u -> E (B_M^-1 u) with scipy's banded Cholesky and solve
        def flush(a):
            scale = max(a.max(initial=0.0), -a.min(initial=0.0))
            a[np.abs(a) < 1e-150 * scale] = 0.0
            return a
        if lu:
            c, m = _indefinite_window(), 2
        else:
            c, m = nc.cov_window(reference_tvvma(), 200, 0, 109), 8
        bf = nc.band_truncate(c, m).base.flatten()
        err = c.flatten() - bf
        n = bf.shape[0]
        e_norm = krylov_norm(err, symmetric=True)
        if lu:
            vals = np.abs(np.linalg.eigvalsh(bf))
            amin, amax = float(vals.min()), float(vals.max())
            b_inv = np.linalg.inv(bf)
            b_inv = 0.5 * (b_inv + b_inv.T)
            flush(b_inv)
            q = krylov_norm(flush(b_inv @ err))
        else:
            assert n >= _KRYLOV_MIN_N
            bandwidth = (m + 1) * c.p - 1
            rng = nc.sym_eig_range(bf, bandwidth)
            amin, amax = rng.lambda_min, rng.lambda_max
            band = np.array([np.pad(np.diagonal(bf, -k), (0, k))
                             for k in range(bandwidth + 1)])
            factor = scipy.linalg.cholesky_banded(band, lower=True)

            def solve(v):
                return scipy.linalg.cho_solve_banded((factor, True), v)
            q = _lanczos_norm(n, lambda v: solve(err @ v), lambda u: err @ solve(u),
                              e_norm * (1.0 / amin))
        inv_bound = (1.0 / amin) / (1.0 - q)
        c_norm = amax + e_norm
        roundoff = n * np.finfo(float).eps * inv_bound * (1.0 + c_norm * inv_bound)
        for terms in (0, 5, 6, 12):
            res = nc.neumann_inverse(c, m, terms)
            tail = (1.0 / amin) * q ** (terms + 1) / (1.0 - q)
            assert (res.contraction_norm, res.banded_inverse_norm) == (q, 1.0 / amin)
            assert (res.tail, res.roundoff, res.certificate) == (
                tail, roundoff, tail + roundoff)

    @pytest.mark.parametrize("seed", range(6))
    def test_certificate_dominates_on_random_windows(self, seed):
        from nonstatcov.verification import random_spd_banded
        rng = np.random.default_rng(900 + seed)
        p = int(rng.integers(1, 4))
        length = int(rng.integers(12, 40))
        m = int(rng.integers(1, 4))
        banded, _, _ = random_spd_banded(rng, p, m, length)
        dim = length * p
        lag = np.abs(np.subtract.outer(np.arange(length), np.arange(length)))
        outside = np.kron((lag > m).astype(float), np.ones((p, p)))
        raw = rng.standard_normal((dim, dim))
        tail = 0.5 * (raw + raw.T) * outside
        # scale the out-of-band part so that q lands in (0.05, 0.6)
        scale = rng.uniform(0.05, 0.6) / np.linalg.norm(np.linalg.solve(banded, tail), 2)
        w = nc.BlockWindow.from_flat(banded + scale * tail, p, symmetrize=True)
        dense = np.linalg.inv(w.flatten())
        for terms in (0, 3, 8):
            res = nc.neumann_inverse(w, m, terms)
            err = np.linalg.norm(res.approx.flatten() - dense, 2)
            assert err <= res.certificate

    def test_indefinite_truncation_takes_lu_branch(self):
        w, m = _indefinite_window(), 2
        assert np.linalg.eigvalsh(nc.band_truncate(w, m).base.flatten())[0] < 0
        assert not nc.sym_eig_range(nc.band_truncate(w, m).base.flatten()).is_spd()
        dense = np.linalg.inv(w.flatten())
        for terms in (0, 2, 6, 12):
            res = nc.neumann_inverse(w, m, terms)
            assert 0.0 < res.contraction_norm < 1.0
            err = np.linalg.norm(res.approx.flatten() - dense, 2)
            assert err <= res.certificate

    @pytest.mark.parametrize("cond", [1e9, 3e9, 1e10])
    def test_ill_conditioned_spd_truncation_is_whitened(self, monkeypatch, cond):
        """An SPD ``B_M`` with condition ``1e9``-``1e10``, beyond the SPD
        kernel's a priori bound, goes through its band factor, and the
        certificate still dominates the true error."""
        from nonstatcov import operator_core as oc
        n, m = 80, 3
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        raw = np.random.default_rng(5).standard_normal((2, n, n))
        sym = raw + raw.transpose(0, 2, 1)
        banded = sym[0] * (lag <= m)
        vals = np.linalg.eigvalsh(banded)
        banded += ((vals[-1] - vals[0]) / (cond - 1.0) - vals[0]) * np.eye(n)
        # the out-of-band part scaled so that q = 0.3
        tail = sym[1] * (lag > m)
        tail *= 0.3 / np.linalg.norm(np.linalg.solve(banded, tail), 2)
        w = nc.BlockWindow.from_flat(banded + tail, 1, symmetrize=True)
        rng = nc.sym_eig_range(banded, m)
        assert rng.is_spd() and 0.5 * cond <= rng.condition <= 2.0 * cond
        dense = np.linalg.inv(w.flatten())
        factors = []
        real = oc._BandCholesky.factor
        monkeypatch.setattr(oc._BandCholesky, "factor",
                            lambda *args: factors.append(real(*args)) or factors[-1])
        monkeypatch.setattr(np.linalg, "inv", None)   # the LU branch would fail
        for terms in (0, 6, 13, 40):
            res = nc.neumann_inverse(w, m, terms)
            assert res.contraction_norm == pytest.approx(0.3, rel=1e-6)
            assert np.linalg.norm(res.approx.flatten() - dense, 2) <= res.certificate
        assert len(factors) == 4 and all(f is not None for f in factors)

    @pytest.mark.parametrize("terms", [0, 1, 7, 20])
    def test_exactly_banded_window_has_no_contraction(self, terms):
        """``E = 0``: ``q = 0`` and no tail, the result is ``B_M^-1`` for any
        number of terms, a prime count and ``b = 4`` (20 terms) included,
        below and above the Lanczos threshold; a 1 x 1 window too."""
        from nonstatcov.verification import random_spd_banded
        rng = np.random.default_rng(terms)
        for length in (20, 110):
            mat, _, _ = random_spd_banded(rng, 2, 2, length)
            w = nc.BlockWindow.from_flat(mat, p=2, symmetrize=True)
            res = nc.neumann_inverse(w, 3, terms)
            assert (res.contraction_norm, res.tail) == (0.0, 0.0)
            assert np.allclose(res.approx.flatten(), np.linalg.inv(mat), rtol=0,
                               atol=1e-13 * np.abs(np.linalg.inv(mat)).max())
        one = nc.BlockWindow.from_flat(np.array([[4.0]]), p=1, symmetrize=True)
        res = nc.neumann_inverse(one, 0, terms)
        assert res.approx.flatten().tolist() == [[0.25]]
        assert (res.contraction_norm, res.tail, res.banded_inverse_norm) == (0.0, 0.0, 0.25)

    def test_divergence_reports_product_norm(self):
        flat = np.array([[1.0, 1.2], [1.2, 1.0]])
        w = nc.BlockWindow.from_flat(flat, p=1, symmetrize=True)
        with pytest.raises(DivergenceError) as err:
            nc.neumann_inverse(w, 0, 5)
        assert err.value.contraction_norm >= 1.0

    def test_count_arguments_are_checked(self):
        c = nc.cov_window(reference_tvvma(), 200, 0, 29)
        for m in (-1, -5):
            with pytest.raises(DomainError, match="m must be >= 0"):
                nc.neumann_inverse(c, m, 2)
        for m, terms in [(2.5, 2), (True, 2), (3.0, 2), ("3", 2), (None, 2),
                         (3, 2.5), (3, True), (3, False), (3, np.float64(2.0))]:
            with pytest.raises(InputError, match="must be an integer"):
                nc.neumann_inverse(c, m, terms)
        for pad in (2.5, True, 3.0):
            with pytest.raises(InputError, match="pad must be an integer"):
                nc.finite_section_inverse(c, pad)
        with pytest.raises(DomainError, match="pad must be >= 0"):
            nc.finite_section_inverse(c, -1)
        # numpy integers are integers
        ref = nc.neumann_inverse(c, 3, 2)
        got = nc.neumann_inverse(c, np.int64(3), np.int32(2))
        assert np.array_equal(got.approx.flatten(), ref.approx.flatten())
        assert nc.finite_section_inverse(c, np.int64(2)).source_pad == 2

    def test_model_inverse_window_pad_follows_the_count_rule(self):
        model = nc.get_reference_model("tvvar1_p3")
        for pad in (2.5, True, 3.0):
            with pytest.raises(InputError, match="model_inverse_window: pad must be"):
                nc.model_inverse_window(model, 200, 0, 10, pad=pad)
        with pytest.raises(DomainError, match="model_inverse_window: pad must be >= 0"):
            nc.model_inverse_window(model, 200, 0, 10, pad=-1)
        with pytest.raises(InputError, match="t_lo must be an integer"):
            nc.model_inverse_window(model, 200, 0.5, 10, pad=3)
        assert nc.model_inverse_window(model, 200, 0, 10, pad=np.int64(3)).source_pad == 3


class TestInverseDecayFit:
    def test_band_limited_flag_for_var(self):
        model = nc.get_reference_model("tvvar1_p3")
        inv = nc.model_inverse_window(model, 200, 60, 140)
        profile = nc.inverse_decay_fit(inv, kappa_ref=4.0)
        assert profile.band_limited

    def test_slope_exceeds_reference(self):
        model = reference_tvvma()
        inv = nc.model_inverse_window(model, 200, 40, 139, pad=60)
        profile = nc.inverse_decay_fit(inv, kappa_ref=4.0)
        assert profile.exponent >= 2.5

    def test_scaling_homogeneity(self):
        model = reference_tvvma()
        c = nc.cov_window(model, 200, -10, 129)
        scale = 3.0
        scaled = nc.BlockWindow(t_lo=c.t_lo, p=c.p, blocks=scale * c.blocks,
                                symmetric=True)
        f1 = nc.inverse_decay_fit(nc.finite_section_inverse(c, 50), 4.0)
        f2 = nc.inverse_decay_fit(nc.finite_section_inverse(scaled, 50), 4.0)
        assert f2.constant == pytest.approx(f1.constant / scale, rel=1e-9)
        assert f2.exponent == pytest.approx(f1.exponent, abs=1e-9)

    def test_degenerate_fit_error(self):
        w = nc.BlockWindow.from_flat(np.zeros((24, 24)), p=1, symmetrize=True)
        inv = nc.InverseWindow(base=w, source_pad=0,
                               condition_bound=1.0, residual=0.0)
        with pytest.raises(DegenerateFitError):
            nc.inverse_decay_fit(inv, 4.0)

    def test_short_interior_rejected(self):
        w = nc.BlockWindow.from_flat(np.eye(10), p=1, symmetrize=True)
        inv = nc.InverseWindow(base=w, source_pad=0,
                               condition_bound=1.0, residual=0.0)
        with pytest.raises(InputError):
            nc.inverse_decay_fit(inv, 4.0)


class TestCentreRowReads:
    """The frozen inverse lags read block row 0 of the flat inverse; they
    must equal the blocks ``(0, -r)`` of the window rebuilt from it."""

    @pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "tvvar1_p3"])
    def test_stationary_inverse_sequence_reads_centre_row(self, name):
        model = nc.get_reference_model(name)
        max_lag, pad = 6, 12
        half = max_lag + pad
        w = nc.stationary_window(model, 0.3, -half, half)
        inv, _, _ = nc.spd_inverse(w.flatten(), "window")
        full = nc.BlockWindow.from_flat(inv, w.p, t_lo=-half, symmetrize=True)
        want = np.stack([full.block(0, -r) for r in range(max_lag + 1)])
        got = nc.stationary_inverse_sequence(model, 0.3, max_lag, pad=pad)
        assert np.array_equal(got, want)

    def test_derivative_sandwich_reads_centre_row(self):
        model = reference_tvvma()
        max_lag, pad, u = 5, 10, 0.4
        half = max_lag + pad
        w = nc.stationary_window(model, u, -half, half)
        inv, _, _ = nc.spd_inverse(w.flatten(), "window")
        dseq = cov_sequence_derivative(model, u, 2 * half)
        p, length = w.p, 2 * half + 1
        cprime = np.zeros((length * p, length * p))
        for i in range(length):
            for j in range(length):
                r = i - j
                cprime[i * p:(i + 1) * p, j * p:(j + 1) * p] = \
                    dseq[r] if r >= 0 else dseq[-r].T
        a = -inv @ cprime @ inv
        full = nc.BlockWindow.from_flat(0.5 * (a + a.T), p, t_lo=-half,
                                        symmetrize=True)
        want = np.stack([full.block(0, -r) for r in range(max_lag + 1)])
        _, assembled, _ = inverse_derivative_gap(model, u, max_lag, pad=pad)
        assert np.array_equal(assembled, want)


def start_grid(model, max_lag):
    """The kernel's first grid: the least power of two >= 8 (J + max_lag + 1)."""
    want = 8 * (nc.models._transfer_order(model) + max_lag + 1)
    return 1 << (want - 1).bit_length()


class TestFrozenInverseKernel:
    """The FFT frozen inverse against the dense Toeplitz section it replaced
    and against itself on a finer grid."""

    US = np.array([0.0, 0.3, 0.62, 1.0])

    @pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "tvvar1_p3", "tvarch_order2"])
    def test_matches_dense_section_and_twice_the_grid(self, name):
        model = nc.get_reference_model(name)
        max_lag = 12
        got = _frozen_inverse_lags(model, self.US, max_lag)
        want = np.stack([nc.stationary_inverse_sequence(model, u, max_lag)
                         for u in self.US])
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-13 * scale
        m = start_grid(model, max_lag)
        lags, screened, clean = _wiener_lags(model, self.US, m)
        assert screened.all() and clean.all()      # no doubling was needed
        assert np.array_equal(got, lags[:, :max_lag + 1])
        finer = _wiener_lags(model, self.US, 2 * m)[0][:, :max_lag + 1]
        assert np.abs(got - finer).max() <= 1e-13 * scale

    def test_long_memory_vma_matches_padded_dense_section(self):
        # kappa = 3 truncates at J = 289; the default pad of 50 leaves the
        # dense section about 1e-11 off here, so it gets a pad of 300
        model = reference_tvvma(kappa=3.0)
        assert model.order == 289
        got = _frozen_inverse_lags(model, [0.3], 20)[0]
        want = nc.stationary_inverse_sequence(model, 0.3, 20, pad=300)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_inverse_spectrum_matches_inverted_densities(self):
        for name in ("tvvma_kappa4_p2", "tvvar1_p3", "tvarch_order2"):
            model = nc.get_reference_model(name)
            g, ok = _inverse_spectrum(model, [0.3], 64)
            want = np.linalg.inv(nc.local_spectral_densities(model, 0.3, _half_grid(64)))
            assert ok.all()
            assert np.abs(g[0] - want).max() <= 1e-13 * np.abs(want).max()

    def test_transfer_folds_a_stack_longer_than_the_grid(self):
        rng = np.random.default_rng(3)
        lags = rng.standard_normal((2, 150, 2, 2))
        omegas = _half_grid(64)
        powers = np.exp(1j * omegas[:, None] * np.arange(150))
        want = np.einsum("wj,ujab->uwab", powers, lags)
        assert np.abs(_grid_transfer(lags, 64) - want).max() <= 1e-12

    def test_sre_keeps_its_unsupported_family_error(self):
        model = reference_sre()
        with pytest.raises(UnsupportedFamilyError) as fft:
            _frozen_inverse_lags(model, [0.5], 4)
        with pytest.raises(UnsupportedFamilyError) as dense:
            nc.stationary_inverse_sequence(model, 0.5, 4)
        assert str(fft.value) == str(dense.value)
        with pytest.raises(UnsupportedFamilyError):
            nc.inverse_lipschitz_gap(model, 0.4, 0.6, 4, kappa=4.0)

    def test_unstable_frozen_var_keeps_the_dense_refusal(self):
        model = nc.TvVAR(p=1, phis=(nc.constant_fn([[1.5]]),),
                         sigma=nc.constant_fn([[1.0]]))
        with pytest.raises(ModelError) as fft:
            _frozen_inverse_lags(model, [0.5], 4)
        with pytest.raises(ModelError) as dense:
            nc.stationary_inverse_sequence(model, 0.5, 4)
        assert str(fft.value) == str(dense.value)

    def test_screened_out_symbol_is_left_to_the_dense_section(self):
        # 1 + z vanishes at omega = pi: the symbol has no bounded inverse,
        # so the screen refuses and the dense section decides
        model = nc.TvVMA(p=1, psis=(nc.constant_fn([[1.0]]), nc.constant_fn([[1.0]])))
        assert not _inverse_spectrum(model, [0.5], 64)[1].any()
        assert np.array_equal(_frozen_inverse_lags(model, [0.5], 5)[0],
                              nc.stationary_inverse_sequence(model, 0.5, 5))


class TestInverseSmoothness:
    def test_frozen_model_gap_vanishes(self):
        frozen = nc.TvVAR(p=2,
                          phis=(nc.constant_fn([[0.4, 0.1], [0.0, 0.3]]),),
                          sigma=nc.constant_fn(np.eye(2)))
        rep = nc.inverse_smoothness_gap(frozen, 100, 48, 52, kappa=4.0)
        assert rep.max_measured <= 1e-8

    def test_constant_stable_across_n(self):
        model = reference_tvvma()
        consts = {}
        for n in (100, 200):
            rep = nc.inverse_smoothness_gap(model, n, n // 2 - 3, n // 2 + 3)
            consts[n] = rep.constant_estimate
        assert max(consts.values()) / min(consts.values()) <= 2.0

    def test_lag0_ratio(self):
        model = reference_tvvma()
        gap = {}
        for n in (100, 200):
            rep = nc.inverse_smoothness_gap(model, n, n // 2 - 2, n // 2 + 2)
            gap[n] = max(m for (t, tau), m in zip(rep.indices, rep.measured)
                         if t == tau)
        assert 0.7 <= math.log2(gap[100] / gap[200]) <= 1.3


class TestInverseLipschitz:
    def test_equal_points_zero(self):
        model = reference_tvvma()
        rep = nc.inverse_lipschitz_gap(model, 0.4, 0.4, max_lag=6)
        assert rep.max_measured == 0.0

    def test_halving_distance_halves_gap(self):
        model = reference_tvvma()
        wide = nc.inverse_lipschitz_gap(model, 0.40, 0.60, max_lag=6)
        narrow = nc.inverse_lipschitz_gap(model, 0.40, 0.50, max_lag=6)
        ratio = wide.max_measured / narrow.max_measured
        assert 1.6 <= ratio <= 2.5

    def test_derivative_identity(self):
        # forward-difference truncation is O(h); the sandwich identity is
        # met at 1e-4 relative once h is below the curvature scale
        model = reference_tvvma()
        fd, assembled, rel4 = inverse_derivative_gap(model, 0.37, max_lag=5, h=1e-4)
        assert fd.shape == assembled.shape
        assert rel4 <= 1e-3
        _, _, rel5 = inverse_derivative_gap(model, 0.37, max_lag=5, h=1e-5)
        assert rel5 <= 1e-4
        assert rel5 <= 0.2 * rel4


class TestAPrioriResidualGuard:
    """The SPD kernel accepts every inverse of the paper's battery and of the
    large sections on its O(n^2) residual bound: a change that falls back to
    the 2n^3 residual product on them fails here.  The Neumann truncations
    ``B_M`` are SPD and go through their band factor, not this kernel."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from nonstatcov import operator_core as oc
        counts = {"kernel": 0, "residual": 0}

        def counting(key, real):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(oc, "_invert_upper", counting("kernel", oc._invert_upper))
        monkeypatch.setattr(oc, "_inverse_residual",
                            counting("residual", oc._inverse_residual))
        return counts

    def test_battery_takes_no_residual_product(self, counts):
        from nonstatcov.verification import run_all
        results = run_all()
        # the finite-section and stationary inverses; the 50 Neumann
        # truncations B_M take their band factor instead
        assert counts == {"kernel": 21, "residual": 0}
        assert [res.name for res in results] == [
            "inverse_decay", "banded_inverse_soundness", "neumann_certificates",
            "ar1_analytic", "baxter_gaps", "smoothness_transfer", "partial_oracle",
            "coherence_consistency", "eigenvalue_sandwich", "physical_dependence",
            "lemma_utilities"]

    @pytest.mark.parametrize("name,bandwidth", [("tvvma_kappa4_p2", 12), ("tvvar1_p3", 6)])
    def test_large_sections_take_no_residual_product(self, counts, name, bandwidth):
        # one 1200-row window of each large-section model, through the
        # finite-section inverse; its Neumann truncation B_M takes no SPD
        # inverse at all
        model = nc.get_reference_model(name)
        c = nc.cov_window(model, 500, 0, 1200 // model.p - 1)
        nc.finite_section_inverse(c, nc.cov_pad(model))
        nc.neumann_inverse(c, bandwidth, 1)
        assert counts == {"kernel": 1, "residual": 0}
