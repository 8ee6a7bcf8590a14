import itertools
import math

import numpy as np
import pytest

import nonstatcov as nc
from nonstatcov.errors import (ConditioningError, DomainError, InputError, ModelError,
                               UnsupportedFamilyError)
from nonstatcov.inverse_analysis import _wiener_lags
from nonstatcov.models import _inverse_spectrum
from nonstatcov.partial_cov import _frozen_partial_lags, _partial_symbol
from nonstatcov.reference import reference_sre, reference_tvvma
from nonstatcov.verification import regression_residual_oracle


def seeded_spd_window(seed, p=3, length=12):
    rng = np.random.default_rng(seed)
    dim = length * p
    raw = rng.standard_normal((dim, dim + 6))
    flat = raw @ raw.T / dim + 0.5 * np.eye(dim)
    return nc.BlockWindow.from_flat(flat, p=p, symmetrize=True)


def independent_pair_model():
    """p = 3 autoregression where components (0, 1) never see component 2."""
    phi = np.array([[0.4, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.5]])
    sigma = np.diag([1.0, 0.8, 1.3])
    sigma[0, 1] = sigma[1, 0] = 0.2
    return nc.TvVAR(p=3, phis=(nc.constant_fn(phi),),
                    sigma=nc.constant_fn(sigma))


class TestPartialCovPair:
    def test_pad_follows_the_count_rule(self):
        c = nc.cov_window(reference_tvvma(), 200, 0, 29)
        for pad in (2.5, True, 3.0):
            with pytest.raises(InputError, match="pad must be an integer"):
                nc.partial_cov_pair(c, 0, 1, pad=pad)
            with pytest.raises(InputError, match="pad must be an integer"):
                nc.self_partial_cov(c, 0, pad=pad)
        with pytest.raises(DomainError, match="pad must be >= 0"):
            nc.partial_cov_pair(c, 0, 1, pad=-1)
        got = nc.partial_cov_pair(c, 0, 1, pad=np.int64(3)).deltas
        assert np.array_equal(got, nc.partial_cov_pair(c, 0, 1, pad=3).deltas)

    def test_p2_returns_raw_pair(self):
        w = seeded_spd_window(4, p=2, length=8)
        pair = nc.partial_cov_pair(w, 0, 1)
        for t in range(8):
            for tau in range(8):
                raw = w.blocks[t, tau]
                assert np.allclose(pair.deltas[t, tau], raw, atol=1e-14)

    def test_block_diagonal_decoupling(self):
        # components (0, 1) independent of component 2: conditioning away
        # component 2 changes nothing
        length = 8
        rng = np.random.default_rng(9)
        raw01 = rng.standard_normal((2 * length, 2 * length + 4))
        c01 = raw01 @ raw01.T / length + 0.5 * np.eye(2 * length)
        raw2 = rng.standard_normal((length, length + 4))
        c2 = raw2 @ raw2.T / length + 0.5 * np.eye(length)
        blocks = np.zeros((length, length, 3, 3))
        for t in range(length):
            for tau in range(length):
                blocks[t, tau, :2, :2] = c01[2 * t:2 * t + 2, 2 * tau:2 * tau + 2]
                blocks[t, tau, 2, 2] = c2[t, tau]
        blocks = 0.5 * (blocks + blocks.transpose(1, 0, 3, 2))
        w = nc.BlockWindow(t_lo=0, p=3, blocks=blocks, symmetric=True)
        pair = nc.partial_cov_pair(w, 0, 1)
        for t in range(length):
            for tau in range(length):
                assert np.allclose(pair.deltas[t, tau],
                                   w.blocks[t, tau][:2, :2], atol=1e-10)

    def test_matches_regression_oracle(self):
        for seed in range(8):
            w = seeded_spd_window(100 + seed, p=3, length=10)
            length = w.length
            pair = nc.partial_cov_pair(w, 0, 2)
            keep = np.concatenate([np.arange(length) * 3,
                                   np.arange(length) * 3 + 2])
            drop = np.arange(length) * 3 + 1
            oracle = regression_residual_oracle(w.flatten(), keep, drop)
            got = np.block([[pair.deltas[:, :, 0, 0], pair.deltas[:, :, 0, 1]],
                            [pair.deltas[:, :, 1, 0], pair.deltas[:, :, 1, 1]]])
            assert np.abs(got - oracle).max() <= 1e-8

    def test_pair_symmetry(self):
        w = seeded_spd_window(55)
        pair = nc.partial_cov_pair(w, 0, 1)
        for t in range(w.length):
            for tau in range(w.length):
                assert np.array_equal(pair.deltas[t, tau],
                                      pair.deltas[tau, t].T)

    def test_spd_domination(self):
        w = seeded_spd_window(56)
        pair = nc.partial_cov_pair(w, 1, 2)
        for t in range(w.length):
            raw = w.blocks[t, t][np.ix_([1, 2], [1, 2])]
            assert np.linalg.eigvalsh(raw - pair.deltas[t, t])[0] >= -1e-10

    def test_bad_components(self):
        w = seeded_spd_window(57)
        with pytest.raises(InputError):
            nc.partial_cov_pair(w, 0, 0)
        with pytest.raises(InputError):
            nc.partial_cov_pair(w, 0, 5)
        # components follow the integer rule of every count and time
        for a, b in ((1.5, 2), (0, 2.0), (True, 2), (0, "1")):
            with pytest.raises(InputError, match="component must be an integer"):
                nc.partial_cov_pair(w, a, b)
        with pytest.raises(InputError, match="component must be an integer"):
            nc.self_partial_cov(w, 0.5)
        assert np.array_equal(nc.partial_cov_pair(w, np.int64(0), np.int32(2)).deltas,
                              nc.partial_cov_pair(w, 0, 2).deltas)

    def test_singular_conditioning(self):
        length = 6
        blocks = np.zeros((length, length, 3, 3))
        for t in range(length):
            blocks[t, t] = np.diag([1.0, 1.0, 0.0])
        w = nc.BlockWindow(t_lo=0, p=3, blocks=blocks, symmetric=True)
        with pytest.raises(ConditioningError):
            nc.partial_cov_pair(w, 0, 1)


class TestSelfPartial:
    def test_p1_raw_autocovariance(self):
        w = seeded_spd_window(60, p=1, length=9)
        rho = nc.self_partial_cov(w, 0)
        assert np.allclose(rho, w.flatten(), atol=1e-14)

    def test_matches_regression_oracle(self):
        w = seeded_spd_window(61, p=3, length=10)
        rho = nc.self_partial_cov(w, 1)
        keep = np.arange(w.length) * 3 + 1
        drop = np.concatenate([np.arange(w.length) * 3,
                               np.arange(w.length) * 3 + 2])
        oracle = regression_residual_oracle(w.flatten(), keep, drop)
        assert np.abs(rho - oracle).max() <= 1e-8

    def test_independent_component_keeps_raw_autocovariance(self):
        # component 2 of this model never couples with (0, 1)
        model = independent_pair_model()
        w = nc.cov_window(model, 100, 40, 55)
        rho = nc.self_partial_cov(w, 2)
        raw = w.blocks[:, :, 2, 2]
        assert np.abs(rho - raw).max() <= 1e-10


class TestStationaryPartial:
    def test_p2_equals_raw_lags(self):
        model = nc.TvVAR(p=2,
                         phis=(nc.constant_fn([[0.4, 0.2], [0.1, 0.3]]),),
                         sigma=nc.constant_fn(np.eye(2)))
        rep = nc.stationary_partial_pair(model, 0.5, 0, 1, max_lag=5)
        for r in range(-5, 6):
            raw = nc.stationary_cov(model, 0.5, r)
            assert np.allclose(rep.delta(r), raw, atol=1e-8)

    def test_frozen_model_cross_check(self):
        model = independent_pair_model()
        rep = nc.stationary_partial_pair(model, 0.4, 0, 1, max_lag=4)
        pad = nc.cov_pad(model)
        w = nc.cov_window(model, 10_000_000, 4_000_000 - 4 - pad,
                          4_000_000 + 4 + pad)
        pair = nc.partial_cov_pair(w, 0, 1, pad=pad)
        center = 4_000_000
        for r in range(-4, 5):
            assert np.allclose(rep.delta(r), pair.delta(center + r, center),
                               atol=1e-6)

    def test_lag_reversal_transpose(self):
        model = nc.get_reference_model("tvvar1_p3")
        rep = nc.stationary_partial_pair(model, 0.6, 0, 1, max_lag=6)
        for r in range(7):
            assert np.allclose(rep.delta(-r), rep.delta(r).T, atol=1e-10)

    def test_toeplitz_drift_small(self):
        model = nc.get_reference_model("tvvar1_p3")
        rep = nc.stationary_partial_pair(model, 0.25, 0, 2, max_lag=6)
        assert rep.toeplitz_drift <= 1e-8

    @pytest.mark.parametrize("name,u,a,b,max_lag", [
        ("tvvar1_p3", 0.25, 0, 2, 6), ("tvvar1_p3", 0.6, 2, 1, 0),
        ("tvvar1_p3", 0.6, 1, 2, 1), ("tvvma_kappa4_p2", 0.5, 0, 1, 2),
        ("tvvma_kappa4_p2", 0.35, 1, 0, 9)])
    def test_lags_and_drift_match_lag_loop(self, name, u, a, b, max_lag):
        # the per-lag list and the double loop over shifts and lags, as the
        # oracle; a maximum of absolute differences does not depend on order
        model = nc.get_reference_model(name)
        pad = nc.cov_pad(model)
        half = max_lag + pad
        pair = nc.partial_cov_pair(nc.stationary_window(model, u, -half, half),
                                   a, b, pad=pad)
        center = max_lag
        deltas = np.stack([pair.deltas[center + r, center]
                           for r in range(-max_lag, max_lag + 1)])
        drift = 0.0
        for shift in (1, 2, 3):
            if center - shift < 0:
                break
            for r in range(-max_lag + shift, max_lag - shift + 1):
                ref = deltas[r + max_lag]
                moved = pair.deltas[center + r - shift, center - shift]
                drift = max(drift, float(np.abs(moved - ref).max()))
        rep = nc.stationary_partial_pair(model, u, a, b, max_lag)
        assert np.array_equal(rep.deltas, deltas)
        assert rep.toeplitz_drift == drift


def order2_var_p3():
    """p = 3 second-order autoregression with time-varying coupling."""
    phi1 = np.array([[0.30, 0.10, 0.05], [0.05, 0.25, 0.10], [0.10, 0.00, 0.20]])
    phi2 = np.array([[0.15, 0.00, 0.05], [0.05, -0.10, 0.00], [0.00, 0.05, 0.10]])
    sigma = np.array([[1.0, 0.3, 0.1], [0.3, 1.2, 0.2], [0.1, 0.2, 0.9]])
    return nc.TvVAR(p=3, phis=(nc.sinusoidal_fn(phi1, 0.05 * np.eye(3)),
                               nc.constant_fn(phi2)),
                    sigma=nc.constant_fn(sigma))


def dense_partial_lags(model, us, a, b, max_lag):
    """The two-sided frozen pair and self lags from the dense second path:
    ``stationary_partial_pair`` and the centre column of the self partial
    of the same padded frozen window."""
    pad = nc.cov_pad(model)
    half = max_lag + pad
    pairs = np.stack([nc.stationary_partial_pair(model, u, a, b, max_lag).deltas
                      for u in us])
    selfs = np.stack([nc.self_partial_cov(nc.stationary_window(model, u, -half, half),
                                          a, pad)[:, max_lag] for u in us])
    return pairs, selfs[:, :, None, None]


class TestFrozenPartialKernel:
    """The FFT frozen partial lags against the dense frozen windows they
    replaced and against themselves on a grid twice as fine."""

    US = np.array([0.0, 0.3, 0.62, 1.0])

    def assert_matches_dense(self, model, a, b, max_lag):
        got = _frozen_partial_lags(model, self.US, a, b, max_lag)
        want = dense_partial_lags(model, self.US, a, b, max_lag)
        scale = np.abs(want[0]).max()
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-13 * scale

    @pytest.mark.parametrize("a,b", list(itertools.permutations(range(3), 2)))
    def test_matches_dense_path_on_every_pair_of_the_var(self, a, b):
        self.assert_matches_dense(nc.get_reference_model("tvvar1_p3"), a, b, 6)

    def test_matches_dense_path_on_a_p3_vma(self):
        self.assert_matches_dense(reference_tvvma(p=3), 0, 2, 6)

    def test_matches_dense_path_on_an_order2_var(self):
        self.assert_matches_dense(order2_var_p3(), 1, 0, 5)

    @pytest.mark.parametrize("name,a,b", [("tvvar1_p3", 0, 1), ("tvvma_kappa4_p2", 1, 0)])
    def test_twice_the_grid_agrees(self, name, a, b):
        model = nc.get_reference_model(name)
        max_lag = 8
        symbol = _partial_symbol(a, b)
        # the grid the kernel settles on, by its own doubling rule
        m = 1 << (8 * (nc.models._transfer_order(model) + max_lag + 1) - 1).bit_length()
        while not _wiener_lags(model, self.US, m, symbol)[2].all():
            m *= 2
        got = _frozen_partial_lags(model, self.US, a, b, max_lag)
        lags = _wiener_lags(model, self.US, m, symbol)[0][:, :max_lag + 1]
        assert np.array_equal(got[0][:, max_lag:].reshape(lags.shape[:2] + (4,)),
                              lags[..., :4])
        finer = _wiener_lags(model, self.US, 2 * m, symbol)[0][:, :max_lag + 1]
        assert np.abs(lags - finer).max() <= 1e-13 * np.abs(lags).max()

    def test_negative_lags_are_transposes(self):
        pair, self_a = _frozen_partial_lags(nc.get_reference_model("tvvar1_p3"),
                                            [0.4], 2, 0, 5)
        assert np.array_equal(pair[0, :5], pair[0, :5:-1].swapaxes(1, 2))
        assert np.array_equal(self_a[0, :5], self_a[0, :5:-1])

    def test_sre_raises_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            _frozen_partial_lags(reference_sre(), [0.5], 0, 1, 4)

    def test_scalar_model_has_no_pair(self):
        # refused by name in the one caller of the frozen partial lags
        with pytest.raises(InputError, match="^partial_smoothness_gap: bad component pair"):
            nc.partial_smoothness_gap(nc.get_reference_model("ar1_phi05"), 100, 0, 1,
                                      48, 52, kappa=4.0)

    def test_unstable_frozen_var_falls_back_to_the_dense_refusal(self):
        model = nc.TvVAR(p=2, phis=(nc.constant_fn(1.5 * np.eye(2)),),
                         sigma=nc.constant_fn(np.eye(2)))
        assert not _inverse_spectrum(model, [0.5], 64)[1].any()
        with pytest.raises(ModelError) as fft:
            _frozen_partial_lags(model, [0.5], 0, 1, 4)
        with pytest.raises(ModelError) as dense:
            nc.stationary_partial_pair(model, 0.5, 0, 1, 4)
        assert str(fft.value) == str(dense.value)

    def test_screened_out_symbol_is_left_to_the_dense_window(self):
        # 1 + z vanishes at omega = pi in both components: the symbol has no
        # bounded inverse, so the screen refuses and the dense window decides
        model = nc.TvVMA(p=2, psis=(nc.constant_fn(np.eye(2)),
                                    nc.constant_fn([[1.0, 0.0], [0.2, 1.0]])))
        assert not _inverse_spectrum(model, [0.5], 64)[1].any()
        got = _frozen_partial_lags(model, [0.5], 0, 1, 3)
        pad = nc.cov_pad(model)
        w = nc.stationary_window(model, 0.5, -3 - pad, 3 + pad)
        want = nc.partial_cov_pair(w, 0, 1, pad=pad).deltas[3:, 3]
        assert np.array_equal(got[0][0, 3:], want)


class TestPartialSmoothness:
    def test_frozen_times_share_one_fft_batch(self, monkeypatch):
        from nonstatcov import inverse_analysis, partial_cov
        windows, batches = [], []

        def counting_window(model, u, t_lo, t_hi):
            windows.append(u)
            return nc.stationary_window(model, u, t_lo, t_hi)

        def counting_spectrum(model, us, m):
            batches.append(list(us))
            return _inverse_spectrum(model, us, m)

        monkeypatch.setattr(partial_cov, "stationary_window", counting_window)
        monkeypatch.setattr(inverse_analysis, "_inverse_spectrum", counting_spectrum)
        model = nc.get_reference_model("tvvar1_p3")
        n, t_lo, t_hi = 200, 98, 102
        rep = nc.partial_smoothness_gap(model, n, 0, 1, t_lo, t_hi, kappa=4.0)
        # the row times and the Lipschitz pair, the first and last of them, in
        # one batch on each grid the doubling tries; no frozen window
        assert windows == []
        assert rep.u_pair == (t_lo / n, t_hi / n)
        want = [t / n for t in range(t_lo, t_hi + 1)] + list(rep.u_pair)
        assert batches and all(batch == want for batch in batches)

    def test_frozen_model_gaps_vanish(self):
        model = independent_pair_model()
        rep = nc.partial_smoothness_gap(model, 100, 0, 1, 48, 52, kappa=4.0)
        assert rep.pair_gaps.max_measured <= 1e-7
        assert rep.self_gaps.max_measured <= 1e-7

    def test_lag0_gap_halves(self):
        model = nc.get_reference_model("tvvar1_p3")
        gaps = {}
        for n in (100, 200):
            rep = nc.partial_smoothness_gap(model, n, 0, 1, n // 2 - 1,
                                            n // 2 + 1, kappa=4.0)
            gaps[n] = max(m for (t, tau), m in zip(rep.pair_gaps.indices,
                                                   rep.pair_gaps.measured)
                          if t == tau)
        assert 0.7 <= math.log2(gaps[100] / gaps[200]) <= 1.3


class TestCoherence:
    def test_batched_grid_matches_per_omega_loop_bitwise(self):
        model = nc.get_reference_model("tvvar1_p3")
        omegas = np.linspace(-1.0, 2 * math.pi, 257)
        fs = nc.local_spectral_densities(model, 0.37, omegas)
        want = np.empty(omegas.shape, dtype=complex)
        for i, f in enumerate(fs):
            gamma = np.linalg.inv(f)
            want[i] = -gamma[0, 2] / math.sqrt(gamma[0, 0].real * gamma[2, 2].real)
        got = nc.partial_spectral_coherence(model, 0.37, 0, 2, omegas)
        assert np.array_equal(got, want)

    def test_singular_density_names_the_first_omega_in_grid_order(self):
        # component 0 has transfer 1 + e^{i omega}, which vanishes at odd
        # multiples of pi; 3*pi comes first on this grid
        model = nc.TvVMA(p=2, psis=(nc.constant_fn(np.eye(2)),
                                    nc.constant_fn(np.diag([1.0, 0.0]))))
        omegas = np.array([0.5, 3.0 * math.pi, 1.0, math.pi])
        with pytest.raises(ModelError, match=r"f singular at omega=9\.4248$"):
            nc.partial_spectral_coherence(model, 0.5, 0, 1, omegas)

    def test_independent_components_zero(self):
        model = independent_pair_model()
        omegas = np.linspace(0, 2 * math.pi, 17, endpoint=False)
        g02 = nc.partial_spectral_coherence(model, 0.3, 0, 2, omegas)
        assert np.abs(g02).max() <= 1e-12

    def test_p2_no_cross_coupling(self):
        model = nc.TvVAR(p=2,
                         phis=(nc.constant_fn(np.diag([0.5, 0.3])),),
                         sigma=nc.constant_fn(np.eye(2)))
        g = nc.partial_spectral_coherence(model, 0.5, 0, 1,
                                          np.linspace(0, 6.0, 13))
        assert np.abs(g).max() <= 1e-12

    def test_magnitude_bounded_by_one(self):
        model = nc.get_reference_model("tvvar1_p3")
        omegas = np.linspace(0, 2 * math.pi, 101, endpoint=False)
        for (a, b) in [(0, 1), (0, 2), (1, 2)]:
            g = nc.partial_spectral_coherence(model, 0.42, a, b, omegas)
            assert np.abs(g).max() <= 1.0 + 1e-8

    def test_matches_time_domain_fourier_oracle(self):
        # assemble Gamma_SS^{-1} from the stationary partial lags and invert:
        # an independent pipeline through the time domain
        model = nc.get_reference_model("tvvar1_p3")
        u, a, b = 0.55, 0, 1
        max_lag = 60
        rep = nc.stationary_partial_pair(model, u, a, b, max_lag=max_lag)
        omegas = np.linspace(0, 2 * math.pi, 33, endpoint=False)
        direct = nc.partial_spectral_coherence(model, u, a, b, omegas)
        for i, w in enumerate(omegas):
            s = rep.delta(0).astype(complex)
            for r in range(1, max_lag + 1):
                s += rep.delta(r) * np.exp(1j * r * w)
                s += rep.delta(-r) * np.exp(-1j * r * w)
            gamma_ss = np.linalg.inv(s)
            oracle = -gamma_ss[0, 1] / math.sqrt(gamma_ss[0, 0].real
                                                 * gamma_ss[1, 1].real)
            assert abs(direct[i] - oracle) <= 1e-6


class TestCoherenceConsistency:
    def test_frozen_model_gap_at_truncation_level(self):
        model = independent_pair_model()
        omegas = np.linspace(0, 2 * math.pi, 25, endpoint=False)
        rep = nc.coherence_consistency_gap(model, 100, 50, 0, 1, omegas,
                                           max_lag=40)
        assert rep.sup_gap <= 1e-6

    def test_gap_shrinks_with_n(self):
        model = nc.get_reference_model("tvvar1_p3")
        omegas = np.linspace(0, 2 * math.pi, 33, endpoint=False)
        sup = {}
        for n in (200, 400):
            rep = nc.coherence_consistency_gap(model, n, int(0.3 * n), 0, 1,
                                               omegas, max_lag=40)
            sup[n] = rep.sup_gap
        assert 1.4 <= sup[200] / sup[400] <= 2.8
