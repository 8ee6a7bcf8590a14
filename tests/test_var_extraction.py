import math

import numpy as np
import pytest

import nonstatcov as nc
from nonstatcov.reference import (ar1_model, reference_sre, reference_tvvma,
                                  white_noise_model)
from nonstatcov.var_extraction import (_bottom_row_coeffs,
                                       _normal_equation_coeffs)


def frozen_var2():
    phi1 = np.array([[0.4, 0.1], [0.05, 0.3]])
    phi2 = np.array([[0.1, 0.0], [0.0, -0.15]])
    sigma = np.array([[1.0, 0.2], [0.2, 0.8]])
    return nc.TvVAR(p=2, phis=(nc.constant_fn(phi1), nc.constant_fn(phi2)),
                    sigma=nc.constant_fn(sigma))


class TestVarCoeffsInfinite:
    def test_white_noise(self):
        model = white_noise_model(2, sigma=np.diag([1.5, 0.5]))
        coeffs = nc.var_coeffs_infinite(model, 100, 30, order=5)
        for phi in coeffs.phis:
            assert np.abs(phi).max() <= 1e-10
        assert np.allclose(coeffs.sigma, np.diag([1.5, 0.5]), atol=1e-10)

    def test_ar1_analytic(self):
        coeffs = nc.var_coeffs_infinite(ar1_model(0.5, 1.0), 100, 40, order=5)
        assert coeffs.phis[0][0, 0] == pytest.approx(0.5, abs=1e-8)
        for phi in coeffs.phis[1:]:
            assert abs(phi[0, 0]) <= 1e-8
        assert coeffs.sigma[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_decay_envelope_stable_under_depth(self):
        model = reference_tvvma()
        kappa = model.kappa
        consts = []
        for depth in (120, 240):
            coeffs = nc.var_coeffs_infinite(model, 200, 100, order=20,
                                            depth=depth)
            shape = np.asarray(nc.zeta(np.arange(1, 21))) ** (kappa - 1)
            consts.append(nc.envelope_constant(coeffs.phi_norms(), shape))
        assert abs(consts[1] - consts[0]) <= 0.1 * consts[0]

    def test_depth_precondition(self):
        with pytest.raises(nc.DomainError):
            nc.var_coeffs_infinite(ar1_model(), 100, 0, order=30, depth=60)


class TestVarCoeffsFinite:
    def test_yule_walker_by_hand(self):
        # d = 1: phi = C_1 / C_0 for the scalar AR(1)
        coeffs = nc.var_coeffs_finite(ar1_model(0.5, 1.0), 100, 40, 1)
        assert coeffs.phis[0][0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_exact_projection_recovers_frozen_var(self):
        model = frozen_var2()
        for d in (2, 4):
            coeffs = nc.var_coeffs_finite(model, 100, 50, d)
            assert np.allclose(coeffs.phis[0], model.phi_stack(0.5)[0], atol=1e-8)
            assert np.allclose(coeffs.phis[1], model.phi_stack(0.5)[1], atol=1e-8)
            for phi in coeffs.phis[2:]:
                assert np.abs(phi).max() <= 1e-8
            assert np.allclose(coeffs.sigma, model.sigma_at(0.5), atol=1e-8)

    def test_dual_paths_agree(self):
        model = reference_tvvma()
        window = nc.cov_window(model, 200, 92, 100)
        a = _bottom_row_coeffs(window, 100, 8, 100, own=False)
        b = _normal_equation_coeffs(window, 100, 8, 100)
        assert np.allclose(a.sigma, b.sigma, atol=1e-8)
        for pa, pb in zip(a.phis, b.phis):
            assert np.allclose(pa, pb, atol=1e-8)

    def test_degenerate_order_zero(self):
        model = reference_tvvma()
        coeffs = nc.var_coeffs_finite(model, 200, 70, 0)
        assert coeffs.phis == ()
        assert np.allclose(coeffs.sigma, nc.cov_window(model, 200, 70, 70).block(70, 70).copy())

    def test_innovation_variance_nesting(self):
        model = reference_tvvma()
        sigmas = [nc.var_coeffs_finite(model, 200, 100, d).sigma
                  for d in (1, 2, 4, 8)]
        for lo, hi in zip(sigmas, sigmas[1:]):
            assert np.linalg.eigvalsh(lo - hi)[0] >= -1e-9

    def test_projection_orthogonality_monte_carlo(self):
        # residual uncorrelated with every regressor, within 3 MC stderr
        model = reference_tvvma()
        n, t, d, reps = 100, 60, 4, 40_000
        coeffs = nc.var_coeffs_finite(model, n, t, d)
        sims = nc.simulate_ensemble(model, n, t - d, t, reps=reps, seed=2024)
        resid = sims[:, -1].copy()
        for j in range(1, d + 1):
            resid -= sims[:, -1 - j] @ coeffs.phis[j - 1].T
        for j in range(1, d + 1):
            prods = resid[:, :, None] * sims[:, -1 - j][:, None, :]
            mean = prods.mean(axis=0)
            se = prods.std(axis=0, ddof=1) / math.sqrt(reps)
            assert np.all(np.abs(mean) <= 3 * se + 1e-12)


class TestBaxterGaps:
    def test_frozen_var_has_no_gap(self):
        model = frozen_var2()
        rep = nc.baxter_gaps(model, 100, 50, 4, ref_order=30, kappa=4.0)
        assert rep.per_lag.max_measured <= 1e-8

    def test_summed_gaps_decrease(self):
        model = reference_tvvma()
        sums = [nc.baxter_gaps(model, 200, 100, d, ref_order=50).summed.measured[0]
                for d in (5, 10, 20)]
        assert sums[0] > sums[1] > sums[2]

    def test_ref_order_precondition(self):
        with pytest.raises(nc.DomainError):
            nc.baxter_gaps(reference_tvvma(), 200, 100, 20, ref_order=10)


class TestStationaryVarCoeffs:
    def test_recovers_frozen_var(self):
        model = frozen_var2()
        coeffs = nc.stationary_var_coeffs(model, 0.3, 2)
        assert np.allclose(coeffs.phis[0], model.phi_stack(0.3)[0], atol=1e-8)
        assert np.allclose(coeffs.phis[1], model.phi_stack(0.3)[1], atol=1e-8)
        assert np.allclose(coeffs.sigma, model.sigma_at(0.3), atol=1e-8)

    def test_ar1_analytic(self):
        model = nc.TvVAR(p=1, phis=(nc.affine_fn([[0.2]], [[0.3]]),),
                         sigma=nc.affine_fn([[1.0]], [[0.5]]))
        for u in (0.0, 0.4, 1.0):
            coeffs = nc.stationary_var_coeffs(model, u, 1)
            assert coeffs.phis[0][0, 0] == pytest.approx(0.2 + 0.3 * u, abs=1e-10)
            assert coeffs.sigma[0, 0] == pytest.approx(1.0 + 0.5 * u, abs=1e-10)

    def test_lipschitz_in_u(self):
        model = reference_tvvma()
        kappa = model.kappa
        j_max = 10
        u, v = 0.35, 0.45
        a = nc.stationary_var_coeffs_infinite(model, u, j_max)
        b = nc.stationary_var_coeffs_infinite(model, v, j_max)
        shape = abs(u - v) * np.asarray(nc.zeta(np.arange(1, j_max + 1))) ** (kappa - 1)
        gaps = np.array([np.linalg.norm(pa - pb, 2)
                         for pa, pb in zip(a.phis, b.phis)])
        const = nc.envelope_constant(gaps, shape)
        assert math.isfinite(const)
        # halving |u - v| roughly halves the constant-scale gaps
        c = nc.stationary_var_coeffs_infinite(model, 0.40, j_max)
        gaps_half = np.array([np.linalg.norm(pa - pc, 2)
                              for pa, pc in zip(a.phis, c.phis)])
        ratio = gaps.max() / gaps_half.max()
        assert 1.5 <= ratio <= 2.7


class TestVarSmoothness:
    def test_frozen_model_no_gap(self):
        model = frozen_var2()
        rep = nc.var_smoothness_gap(model, 100, 50, order=6, kappa=4.0)
        assert rep.sigma_gap <= 1e-8
        assert rep.phi_gaps.max_measured <= 1e-8

    def test_sigma_gap_scales_inversely_with_n(self):
        model = reference_tvvma()
        gaps = {n: nc.var_smoothness_gap(model, n, n // 2, order=8).sigma_gap
                for n in (100, 200)}
        assert 0.7 <= math.log2(gaps[100] / gaps[200]) <= 1.3

    def test_combined_finite_order_triangle(self):
        model = reference_tvvma()
        n, t, d = 200, 100, 8
        finite = nc.var_coeffs_finite(model, n, t, d)
        frozen_fin = nc.stationary_var_coeffs(model, t / n, d)
        lhs = sum(np.linalg.norm(a - b, 2)
                  for a, b in zip(finite.phis, frozen_fin.phis))
        infinite = nc.var_coeffs_infinite(model, n, t, d)
        frozen_inf = nc.stationary_var_coeffs_infinite(model, t / n, d)
        piece1 = sum(np.linalg.norm(a - b, 2)
                     for a, b in zip(finite.phis, infinite.phis))
        piece2 = sum(np.linalg.norm(a - b, 2)
                     for a, b in zip(infinite.phis, frozen_inf.phis))
        piece3 = sum(np.linalg.norm(a - b, 2)
                     for a, b in zip(frozen_inf.phis, frozen_fin.phis))
        assert lhs <= piece1 + piece2 + piece3 + 1e-12
        shape = 1.0 / n + float(nc.zeta(d)) ** (model.kappa - 1.5)
        assert lhs / shape < 10.0


class TestKolmogorov:
    @pytest.mark.parametrize("name", ["tvvar1_p3", "tvvma_kappa4_p2", "tvarch_order2"])
    def test_log_integral_matches_per_omega_eigvalsh_loop(self, name):
        # The FFT path and this loop round differently.  Each loop term is a
        # sum of p log-eigenvalues, accurate to about p eps cond(f) <= 3e-15
        # here (cond(f) <= 3.6), and the 4096-term running sum adds about
        # sqrt(4096) eps max |log det f| <= 4e-14 more; the FFT path's own
        # rounding is of the order eps.  So the two agree to 1e-13 absolute.
        model = nc.get_reference_model(name)
        rep = nc.kolmogorov_gap(model, 200, 90)
        omegas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        acc = 0.0
        for f in nc.local_spectral_densities(model, 90 / 200, omegas):
            acc += float(np.sum(np.log(np.linalg.eigvalsh(f))))
        assert abs(rep.rhs - acc / 4096) <= 1e-13

    @pytest.mark.parametrize("t", [20, 90, 150])
    def test_stable_var_integral_is_log_det_sigma(self, t):
        # For a stable VAR, log|det A(z)| is harmonic on the closed unit disc
        # with A(0) = I, so its mean over the circle is 0 (Jensen) and
        # (2 pi)^-1 int log det f = log det Sigma(u); the 4096-point mean of
        # this analytic periodic integrand is exact up to rounding.
        model = nc.get_reference_model("tvvar1_p3")
        rep = nc.kolmogorov_gap(model, 200, t)
        want = np.linalg.slogdet(model.sigma_at(t / 200))[1]
        assert abs(rep.rhs - want) <= 1e-13

    def test_white_noise_zero_both_sides(self):
        model = white_noise_model(2)
        rep = nc.kolmogorov_gap(model, 100, 30)
        assert abs(rep.lhs) <= 1e-9
        assert abs(rep.rhs) <= 1e-9

    def test_ar1_innovation_variance_one(self):
        rep = nc.kolmogorov_gap(ar1_model(0.5, 1.0), 100, 40)
        assert abs(rep.lhs) <= 1e-8
        assert abs(rep.rhs) <= 1e-8

    def test_gap_halves_when_n_doubles(self):
        model = reference_tvvma()
        gaps = {n: nc.kolmogorov_gap(model, n, n // 2).gap for n in (100, 200)}
        ratio = gaps[100] / gaps[200]
        assert 1.5 <= ratio <= 2.7


class TestInputContract:
    """Counts and times are integers, refused at the entry point by name."""

    @pytest.mark.parametrize("call,message", [
        (lambda m: nc.var_coeffs_finite(m, 200, 100, True),
         "var_coeffs_finite: order must be an integer, got True"),
        (lambda m: nc.var_coeffs_finite(m, 200, 100, 2.5),
         "var_coeffs_finite: order must be an integer, got 2.5"),
        (lambda m: nc.var_coeffs_finite(m, 200, 100.5, 2),
         "var_coeffs_finite: t_index must be an integer, got 100.5"),
        (lambda m: nc.kolmogorov_gap(m, 200, 100, depth=2.5),
         "kolmogorov_gap: depth must be an integer, got 2.5"),
        (lambda m: nc.var_coeffs_finite(m, 200.5, 100, 2),
         "var_coeffs_finite: n must be an integer, got 200.5"),
        (lambda m: nc.cov_window(m, 2.5, 0, 5),
         "cov_window: n must be an integer, got 2.5"),
        (lambda m: nc.model_inverse_window(m, math.nan, 0, 5),
         "model_inverse_window: n must be an integer, got nan"),
    ], ids=["bool_order", "float_order", "float_t_index", "float_depth",
            "float_n", "cov_window_float_n", "model_inverse_window_nan_n"])
    def test_reported_cases(self, call, message):
        with pytest.raises(nc.InputError) as err:
            call(reference_tvvma())
        assert str(err.value) == message

    @pytest.mark.parametrize("call,error,message", [
        (lambda m: nc.model_inverse_window(m, 200, 0.5, 5), nc.InputError,
         "model_inverse_window: t_lo must be an integer, got 0.5"),
        (lambda m: nc.model_inverse_window(m, 200, 0, 5.5), nc.InputError,
         "model_inverse_window: t_hi must be an integer, got 5.5"),
        (lambda m: nc.stationary_inverse_sequence(m, 0.5, -1), nc.DomainError,
         "stationary_inverse_sequence: max_lag must be >= 0"),
        (lambda m: nc.stationary_inverse_sequence(m, 0.5, 2.5), nc.InputError,
         "stationary_inverse_sequence: max_lag must be an integer, got 2.5"),
        (lambda m: nc.stationary_inverse_sequence(m, 0.5, 2, pad=1.5), nc.InputError,
         "stationary_inverse_sequence: pad must be an integer, got 1.5"),
    ], ids=["float_t_lo", "float_t_hi", "negative_max_lag", "float_max_lag", "float_pad"])
    def test_padded_counts_are_refused_before_padding(self, call, error, message):
        # refused by the entry point, not by the window it would build with
        # the pad added (cov_window's "got -49.5" or an empty sequence)
        with pytest.raises(error) as err:
            call(reference_tvvma())
        assert str(err.value) == message

    @pytest.mark.parametrize("call,error,message", [
        (lambda m: nc.simulate_ensemble(m, 0, 0, 10, 5, 1), nc.DomainError,
         "simulate_ensemble: requires n >= 1"),
        (lambda m: nc.simulate_ensemble(m, 2.5, 0, 10, 5, 1), nc.InputError,
         "simulate_ensemble: n must be an integer, got 2.5"),
        (lambda m: nc.simulate_ensemble(m, 100, 10, 0, 5, 1), nc.InputError,
         "simulate_ensemble: empty window"),
        (lambda m: nc.physical_dep_estimate(m, 0, 50, 2, 100, 1), nc.DomainError,
         "physical_dep_estimate: requires n >= 1"),
        (lambda m: nc.physical_dep_estimate(m, True, 50, 2, 100, 1), nc.InputError,
         "physical_dep_estimate: n must be an integer, got True"),
        (lambda m: nc.physical_dep_estimate(m, 100, 50, 2.5, 100, 1), nc.InputError,
         "physical_dep_estimate: j must be an integer, got 2.5"),
        (lambda m: nc.simulate_ensemble(m, 100, 0, 5, 4, 2.5), nc.InputError,
         "simulate_ensemble: seed must be an integer, got 2.5"),
        (lambda m: nc.simulate_ensemble(m, 100, 0, 5, 4, -1), nc.DomainError,
         "simulate_ensemble: seed must be >= 0"),
        (lambda m: nc.simulate_path(m, 100, 0, 5, True), nc.InputError,
         "simulate_path: seed must be an integer, got True"),
    ], ids=["ensemble_zero_n", "ensemble_float_n", "ensemble_empty_window",
            "dependence_zero_n", "dependence_bool_n", "dependence_float_j",
            "ensemble_float_seed", "ensemble_negative_seed", "path_bool_seed"])
    def test_simulators_refuse_before_any_work(self, call, error, message):
        # these ran (a zero n after a divide-by-zero warning, an empty window
        # as a (5, 0, 2) array, a seed of True as 1) or ended in a bare
        # TypeError or ValueError (a float or negative seed, left to numpy)
        with pytest.raises(error) as err:
            call(reference_sre())
        assert str(err.value) == message

    ENTRY_POINTS = {
        "var_coeffs_infinite": (nc.var_coeffs_infinite,
                                dict(n=200, t_index=100, order=2, depth=60)),
        "var_coeffs_finite": (nc.var_coeffs_finite, dict(n=200, t_index=100, order=2)),
        "stationary_var_coeffs": (nc.stationary_var_coeffs, dict(u=0.5, order=2)),
        "stationary_var_coeffs_infinite": (nc.stationary_var_coeffs_infinite,
                                           dict(u=0.5, order=2, depth=60)),
        "baxter_gaps": (nc.baxter_gaps, dict(n=200, t_index=100, order=2, ref_order=4)),
        "var_smoothness_gap": (nc.var_smoothness_gap, dict(n=200, t_index=100, order=2)),
        "kolmogorov_gap": (nc.kolmogorov_gap, dict(n=200, t_index=100, depth=60)),
        "cov_window": (nc.cov_window, dict(n=200, t_lo=0, t_hi=5)),
        "model_inverse_window": (nc.model_inverse_window,
                                 dict(n=200, t_lo=0, t_hi=5, pad=10)),
        "stationary_inverse_sequence": (nc.stationary_inverse_sequence,
                                        dict(u=0.5, max_lag=5, pad=10)),
        "simulate_path": (nc.simulate_path, dict(n=200, t_lo=0, t_hi=5, seed=1)),
        "simulate_ensemble": (nc.simulate_ensemble,
                              dict(n=200, t_lo=0, t_hi=5, reps=4, seed=1)),
        "physical_dep_estimate": (nc.physical_dep_estimate,
                                  dict(n=200, t=50, j=2, reps=100, seed=1)),
        "inverse_smoothness_gap": (nc.inverse_smoothness_gap, dict(n=200, t_lo=90, t_hi=95)),
        "inverse_lipschitz_gap": (nc.inverse_lipschitz_gap, dict(u=0.3, v=0.4, max_lag=5)),
        "partial_smoothness_gap": (nc.partial_smoothness_gap,
                                   dict(n=200, a=0, b=1, t_lo=90, t_hi=95)),
        "coherence_consistency_gap": (nc.coherence_consistency_gap,
                                      dict(n=200, t_index=100, a=0, b=1,
                                           omega_grid=[0.1], max_lag=5)),
        "assumption_fit": (nc.assumption_fit, dict(n=200, t_lo=0, t_hi=5)),
    }
    COUNTS = {"n", "order", "depth", "ref_order", "max_lag", "pad", "j", "reps", "seed"}
    TIMES = {"t_index", "t_lo", "t_hi", "t"}

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [2.5, True, math.nan, np.float64(3.0), "4", -1, 0])
    def test_every_count_is_refused_by_name(self, name, bad):
        fn, good = self.ENTRY_POINTS[name]
        for param in set(good) & (self.COUNTS | self.TIMES):
            if isinstance(bad, int) and not isinstance(bad, bool) and (
                    param in self.TIMES or (bad == 0 and param != "n")):
                continue   # a signed time, or a count that may be 0
            with pytest.raises(nc.NonstatcovError) as err:
                fn(reference_tvvma(), **{**good, param: bad})
            text = str(err.value)
            assert text.startswith(f"{name}: ")
            assert (f" {param} " in text if param != "n" or bad != 0 else
                    text == f"{name}: requires n >= 1")
