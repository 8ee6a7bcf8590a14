import math

import numpy as np
import pytest

import nonstatcov as nc
from nonstatcov.errors import (ConditioningError, DegenerateFitError,
                               DivergenceError, InputError)
from nonstatcov.reference import ar1_model, reference_tvvma


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

    def test_requires_symmetric(self):
        blocks = np.random.default_rng(0).standard_normal((4, 4, 1, 1))
        w = nc.BlockWindow(t_lo=0, p=1, blocks=blocks)
        with pytest.raises(InputError):
            nc.finite_section_inverse(w, 0)

    def test_singular_window_raises(self):
        w = nc.BlockWindow.from_flat(np.zeros((6, 6)), p=1, symmetrize=True)
        with pytest.raises(ConditioningError):
            nc.finite_section_inverse(w, 0)


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

    def test_horner_sum_matches_power_sum(self):
        model = reference_tvvma()
        c = nc.cov_window(model, 200, -20, 49)
        m = 6
        bf = nc.band_truncate(c, m).base.flatten()
        b_inv = np.linalg.inv(bf)
        prod = b_inv @ (c.flatten() - bf)
        for terms in (0, 1, 5, 12):
            power, total = b_inv, b_inv.copy()
            for _ in range(terms):
                power = -prod @ power
                total += power
            res = nc.neumann_inverse(c, m, terms)
            scale = np.abs(total).max()
            assert np.abs(res.approx.flatten() - total).max() <= 1e-13 * scale

    def test_horner_stops_at_a_fixed_point_with_the_full_loop_bits(self, monkeypatch):
        from nonstatcov import inverse_analysis as ia
        from nonstatcov import operator_core as oc
        c = nc.cov_window(reference_tvvma(), 200, 30, 109)
        m, terms = 12, 40
        # the full-terms loop, on B_M and E taken through band_truncate
        bf = nc.band_truncate(c, m).base.flatten()
        b_inv, _, _ = nc.spd_inverse(bf, "B_M", bandwidth=(m + 1) * c.p - 1)
        ia._flush_tiny(b_inv)
        prod = ia._flush_tiny(b_inv @ (c.flatten() - bf))
        full = b_inv
        for _ in range(terms):
            full = b_inv - oc.symmetric_product(prod, full)
        products = []

        def counting(a, b):
            products.append(a.shape)
            return oc.symmetric_product(a, b)
        monkeypatch.setattr(ia, "symmetric_product", counting)
        res = nc.neumann_inverse(c, m, terms)
        assert 0 < len(products) < terms
        assert np.array_equal(res.approx.flatten(), full)

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
        # q < 1 keeps the inertia of B_M, so an indefinite truncation belongs
        # to an indefinite (symmetric) window
        rng = np.random.default_rng(12)
        length, m = 30, 2
        lag = np.abs(np.subtract.outer(np.arange(length), np.arange(length)))
        raw = rng.standard_normal((length, length))
        sym = 0.5 * (raw + raw.T)
        signs = np.where(np.arange(length) % 3 == 0, -1.0, 1.0)
        banded = 0.2 * sym * (lag <= m) + np.diag(signs * rng.uniform(3.0, 4.0, length))
        tail = 0.02 * sym * (lag > m)
        w = nc.BlockWindow.from_flat(banded + tail, p=1, symmetrize=True)
        assert np.linalg.eigvalsh(nc.band_truncate(w, m).base.flatten())[0] < 0
        assert not nc.sym_eig_range(nc.band_truncate(w, m).base.flatten()).is_spd()
        dense = np.linalg.inv(w.flatten())
        for terms in (0, 2, 6):
            res = nc.neumann_inverse(w, m, terms)
            assert 0.0 < res.contraction_norm < 1.0
            err = np.linalg.norm(res.approx.flatten() - dense, 2)
            assert err <= res.certificate

    def test_divergence_reports_product_norm(self):
        flat = np.array([[1.0, 1.2], [1.2, 1.0]])
        w = nc.BlockWindow.from_flat(flat, p=1, symmetrize=True)
        with pytest.raises(DivergenceError) as err:
            nc.neumann_inverse(w, 0, 5)
        assert err.value.contraction_norm >= 1.0


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
        dseq = nc.models.stationary_cov_derivative(model, u, 2 * half)
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
        _, assembled, _ = nc.inverse_derivative_gap(model, u, max_lag, pad=pad)
        assert np.array_equal(assembled, want)


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

    def test_alt_envelope_reported(self):
        model = reference_tvvma()
        rep = nc.inverse_smoothness_gap(model, 100, 48, 52)
        assert rep.alt_bound is not None
        assert rep.alt_constant is not None


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
        fd, assembled, rel4 = nc.inverse_derivative_gap(model, 0.37, max_lag=5,
                                                        h=1e-4)
        assert fd.shape == assembled.shape
        assert rel4 <= 1e-3
        _, _, rel5 = nc.inverse_derivative_gap(model, 0.37, max_lag=5, h=1e-5)
        assert rel5 <= 1e-4
        assert rel5 <= 0.2 * rel4
