
import contextlib
import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonstatcov as nc
from nonstatcov import experiments
from nonstatcov import operator_core as oc
from nonstatcov.errors import ConditioningError, DomainError, InputError

import reference_kernels


@contextlib.contextmanager
def one_blas_thread():
    """Every loaded OpenBLAS library at one thread, its old count restored
    afterwards: a threaded product may split two layouts of the same
    operands differently, so only one thread makes them agree bit for bit."""
    threads, restore = experiments._blas_threads(), []
    for name, lib in experiments._openblas_libraries().items():
        setter = experiments._openblas_function(lib, "set_num_threads")
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            restore.append((setter, threads[name]))
            setter(1)
    try:
        yield
    finally:
        for setter, count in restore:
            setter(count)


def toeplitz_ar1_window(phi, sigma2, length):
    c0 = sigma2 / (1 - phi**2)
    row = c0 * phi ** np.arange(length)
    flat = scipy.linalg.toeplitz(row)
    return nc.BlockWindow.from_flat(flat, p=1, symmetrize=True)


class TestDecayWeights:
    def test_values_at_zero(self):
        assert (nc.gu(0), nc.zeta(0)) == (1.0, 1.0)

    def test_log_clamp_at_two(self):
        # log 2 < 1 so the numerator clamps
        assert (nc.gu(2), nc.zeta(2)) == (2.0, 0.5)

    def test_value_at_ten(self):
        g, z = nc.gu(10), nc.zeta(10)
        assert g == 10.0
        assert z == pytest.approx(0.23025850929940458, abs=1e-16)

    def test_symmetry_and_monotonicity(self):
        lags = np.arange(1, 200)
        z = np.asarray(oc.zeta(lags))
        assert np.all(np.diff(z) <= 0)
        assert np.allclose(oc.zeta(-lags), z)


class TestSpectralNorm:
    def test_identity(self):
        for n in (1, 3, 7):
            assert nc.spectral_norm(np.eye(n)) == 1.0

    def test_diagonal(self):
        assert nc.spectral_norm(np.diag([3.0, -5.0])) == 5.0

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 4))
        oracle = np.linalg.svd(a, compute_uv=False)[0]
        assert nc.spectral_norm(a) == pytest.approx(oracle, rel=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            nc.spectral_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))


def _svd_tolerance(want, p):
    """Tolerance of ``block_norms`` against the SVD oracle: ``4 p`` ulps of the
    norm (the kernel and LAPACK each round O(p) times), plus four units of the
    smallest subnormal for norms that are themselves subnormal."""
    return 4 * p * np.finfo(float).eps * want + 4 * 2.0**-1074


class TestBlockNorms:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1, 2, 3, 4]),
           kind=st.sampled_from(["random", "zero", "rank_one", "rotation"]),
           exponent=st.integers(-1074, 1000), spread=st.integers(0, 60))
    @example(seed=0, p=2, kind="random", exponent=-1074, spread=0)
    @example(seed=1, p=3, kind="rotation", exponent=1000, spread=0)
    @example(seed=2, p=4, kind="rank_one", exponent=-1060, spread=20)
    def test_matches_svd(self, seed, p, kind, exponent, spread):
        # entries are standard normal (or a zero, rank-one or orthogonal
        # block, the last with sigma_1 = sigma_2) times 2**(exponent - k),
        # k in [0, spread] per entry, so from subnormal up to about 2**1002
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((6, p, p))
        if kind == "zero":
            base[:] = 0.0
        elif kind == "rank_one":
            base = rng.standard_normal((6, p, 1)) * rng.standard_normal((6, 1, p))
        elif kind == "rotation":
            base = np.linalg.qr(base)[0] * rng.uniform(0.5, 2.0, (6, 1, 1))
        blocks = np.ldexp(base, exponent - rng.integers(0, spread + 1, base.shape))
        want = np.linalg.svd(blocks, compute_uv=False)[..., 0]
        got = oc.block_norms(blocks)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= _svd_tolerance(want, p))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-1074, 1000))
    def test_two_by_two_transpose_bit_identical(self, seed, exponent):
        blocks = np.ldexp(np.random.default_rng(seed).standard_normal((50, 2, 2)),
                          exponent)
        assert np.array_equal(oc.block_norms(blocks),
                              oc.block_norms(blocks.swapaxes(-1, -2)))

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, p, bad):
        blocks = np.ones((3, p, p))
        blocks[1, p - 1, 0] = bad
        with pytest.raises(InputError):
            oc.block_norms(blocks)

    @pytest.mark.parametrize("block,want", [
        ([[1e308, 0.0], [0.0, -1e308]], 1e308),
        ([[1e308, 1e308], [-1e308, 1e308]], np.sqrt(2.0) * 1e308),
        ([[-1e308, 1e308], [1e308, 1e308]], np.sqrt(2.0) * 1e308),
        ([[1e308, 0.0, 0.0], [0.0, -1e308, 0.0], [0.0, 0.0, 0.5e308]], 1e308),
        ([[0.5e308, 0.5e308, 0.0], [0.5e308, 0.5e308, 0.0], [0.0, 0.0, 1.0]], 1e308),
    ])
    def test_no_overflow_near_largest_double(self, block, want):
        block = np.array(block)
        with np.errstate(over="raise"):
            got = oc.block_norms(block)
        assert np.isfinite(got)
        assert abs(got - want) <= _svd_tolerance(want, block.shape[0])

    def test_single_block_and_empty_batch(self):
        assert oc.block_norms(np.diag([3.0, -5.0])) == 5.0
        for p in (1, 2, 3):
            assert oc.block_norms(np.zeros((0, p, p))).shape == (0,)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("shape,chunk", [((130, 130), None), ((23,), 5),
                                             ((7, 6), 5), ((9, 4, 3), 7)])
    def test_chunked_equals_unchunked_bit_for_bit(self, monkeypatch, p, shape, chunk):
        # (130, 130) blocks pass the default chunk; the others a patched one
        if chunk is not None:
            monkeypatch.setattr(oc, "_NORM_CHUNK", chunk)
        assert np.prod(shape) > oc._NORM_CHUNK
        rng = np.random.default_rng(p + len(shape))
        blocks = rng.standard_normal(shape + (p, p)) \
            * 2.0 ** rng.integers(-60, 60, shape + (p, p))
        got = oc.block_norms(blocks)
        assert got.shape == shape
        assert np.array_equal(got, oc._block_norms(blocks))


class TestSymEigRange:
    def test_identity_window(self):
        w = nc.BlockWindow.from_flat(np.eye(8), p=2, symmetrize=True)
        rng = nc.sym_eig_range(w)
        assert rng.lambda_min == pytest.approx(1.0)
        assert rng.lambda_max == pytest.approx(1.0)

    def test_ar1_section_inside_spectral_band(self):
        # spectrum of the AR(1) symbol: sigma^2/|1 - phi e^{i w}|^2 in [4/9, 4]
        w = toeplitz_ar1_window(0.5, 1.0, 50)
        rng = nc.sym_eig_range(w)
        assert rng.lambda_min > 4.0 / 9.0 - 1e-12
        assert rng.lambda_max < 4.0 + 1e-12

    def test_block_diagonal_constant(self):
        blocks = np.zeros((4, 4, 2, 2))
        for i in range(4):
            blocks[i, i] = 2.0 * np.eye(2)
        w = nc.BlockWindow(t_lo=0, p=2, blocks=blocks, symmetric=True)
        rng = nc.sym_eig_range(w)
        assert rng.lambda_min == pytest.approx(2.0)
        assert rng.lambda_max == pytest.approx(2.0)

    def test_requires_symmetric(self):
        blocks = np.random.default_rng(0).standard_normal((3, 3, 1, 1))
        w = nc.BlockWindow(t_lo=0, p=1, blocks=blocks)
        with pytest.raises(InputError):
            nc.sym_eig_range(w)


class TestBandExtremes:
    """``_band_extremes``: Lanczos on ``B`` and ``B^-1`` from
    ``_BAND_LANCZOS_MIN_N`` rows up, the band eigensolver below it and
    whenever Lanczos gives no ordered pair."""

    @staticmethod
    def truncation(name, rows, m):
        """The Neumann truncation of a reference window of ``rows`` rows:
        its band, its factor and the dense ``B_M``."""
        model = nc.get_reference_model(name)
        c = nc.cov_window(model, 400, 0, rows // model.p - 1)
        band = oc._lower_band(c.flatten(), c.p, m)
        return band, oc._BandCholesky.factor(band), nc.band_truncate(c, m).base.flatten()

    @pytest.mark.parametrize("name,rows,m", [
        ("tvvma_kappa4_p2", 510, 8), ("tvvma_kappa4_p2", 514, 8),
        ("tvvar1_p3", 510, 6), ("tvvar1_p3", 513, 6)])
    def test_windows_at_the_threshold_match_dense(self, monkeypatch, name, rows, m):
        calls = []
        real = scipy.linalg.eigvals_banded
        monkeypatch.setattr(scipy.linalg, "eigvals_banded",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        band, chol, bf = self.truncation(name, rows, m)
        got = oc._band_extremes(band, chol)
        vals = scipy.linalg.eigvalsh(bf)
        assert got.lambda_min == pytest.approx(vals[0], rel=1e-13, abs=0)
        assert got.lambda_max == pytest.approx(vals[-1], rel=1e-13, abs=0)
        assert len(calls) == (rows < oc._BAND_LANCZOS_MIN_N)

    def test_arpack_failure_gives_the_band_eigensolver_bits(self, monkeypatch):
        band, chol, _ = self.truncation("tvvma_kappa4_p2", 600, 10)
        vals = scipy.linalg.eigvals_banded(band, lower=True)
        lanczos = oc._band_extremes(band, chol)
        monkeypatch.setattr(oc, "_lanczos_norm", lambda *args: None)
        got = oc._band_extremes(band, chol)
        assert (got.lambda_min, got.lambda_max) == (vals[0], vals[-1])
        assert got.lambda_min == pytest.approx(lanczos.lambda_min, rel=1e-13)

    @pytest.mark.parametrize("scale,ordered", [(73.0, True), (7.3, False)])
    def test_scalar_matrix_above_the_threshold(self, scale, ordered):
        """Two separate Lanczos runs can put ``lambda_min`` an ulp above
        ``lambda_max`` on ``c I`` (at ``c = 7.3`` and 600 rows they do), which
        ``EigRange`` would refuse; the band eigensolver then decides."""
        n = 600
        band = oc._lower_band(scale * np.eye(n), 2, 4)
        chol = oc._BandCholesky.factor(band)
        k = band.shape[0] - 1
        top = oc._lanczos_norm(n, lambda v: scipy.linalg.blas.dsbmv(k, 1.0, band, v, lower=1),
                               None, scale)
        inv = oc._lanczos_norm(n, chol.solve_vector, None, 1.0 / scale)
        assert (1.0 / inv <= top) == ordered
        got = oc._band_extremes(band, chol)
        assert got.lambda_min <= got.lambda_max
        assert got.lambda_max == pytest.approx(scale, rel=1e-15)
        if not ordered:
            assert (got.lambda_min, got.lambda_max) == (scale, scale)


def symmetric_with_spectrum(seed, vals):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(vals),) * 2))
    mat = (q * np.asarray(vals, dtype=float)) @ q.T
    return 0.5 * (mat + mat.T)


@contextlib.contextmanager
def forced_lanczos():
    """Context in which :func:`krylov_norm` runs Lanczos from two rows up."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oc, "_KRYLOV_MIN_N", 2)
        yield


class TestKrylovNorm:
    """``krylov_norm`` against the SVD norm, to 1e-12 relative, on the dense
    path (the default below ``_KRYLOV_MIN_N`` rows) and on Lanczos (forced
    down to two rows)."""

    @staticmethod
    def assert_matches_svd(mat, symmetric):
        ref = np.linalg.norm(mat, 2)
        assert abs(oc.krylov_norm(mat, symmetric) - ref) <= 1e-12 * ref
        with forced_lanczos():
            assert abs(oc.krylov_norm(mat, symmetric) - ref) <= 1e-12 * ref

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 90),
           log_scale=st.floats(-100.0, 100.0), symmetric=st.booleans(),
           band=st.integers(0, 90))
    def test_matches_svd_on_random_matrices(self, seed, n, log_scale, symmetric, band):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        mat = 10.0 ** log_scale * (0.5 * (raw + raw.T) if symmetric else raw) * (lag <= band)
        self.assert_matches_svd(mat, symmetric)

    def test_persymmetric_toeplitz_window(self):
        # negatively correlated lags at an even order: the top eigenvector is
        # antisymmetric, so orthogonal to ones, and a Krylov space started
        # from ones never sees it
        n = 64
        mat = scipy.linalg.toeplitz(np.concatenate([[2.0], -0.3 ** np.arange(n - 1)]))
        top = np.linalg.eigh(mat)[1][:, -1]
        assert np.allclose(top, -top[::-1], atol=1e-10)
        for symmetric in (True, False):
            self.assert_matches_svd(mat, symmetric)

    def test_opposite_extremes(self):
        # lambda_max = -lambda_min up to 1e-14
        vals = np.linspace(-1.0, 1.0 - 1e-14, 60)
        mat = symmetric_with_spectrum(3, vals)
        for sign in (1.0, -1.0):
            for symmetric in (True, False):
                self.assert_matches_svd(sign * mat, symmetric)

    def test_repeated_top_eigenvalue(self):
        vals = np.concatenate([np.linspace(-0.5, 1.5, 47), [2.0, 2.0, 2.0]])
        mat = symmetric_with_spectrum(4, vals)
        for symmetric in (True, False):
            self.assert_matches_svd(mat, symmetric)
            with forced_lanczos():
                assert oc.krylov_norm(mat, symmetric) == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 250])
    def test_zero_matrix(self, n):
        for symmetric in (True, False):
            assert oc.krylov_norm(np.zeros((n, n)), symmetric) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_orders(self, n):
        mat = symmetric_with_spectrum(n, [-3.0, 0.5, 2.0][:n])
        for symmetric in (True, False):
            self.assert_matches_svd(mat, symmetric)

    def test_lanczos_from_the_threshold_up(self, monkeypatch):
        import scipy.sparse.linalg as spla
        calls = []
        eigsh = spla.eigsh

        def spy(*args, **kwargs):
            calls.append(args[0].shape[0])
            return eigsh(*args, **kwargs)
        monkeypatch.setattr(spla, "eigsh", spy)
        for n in (oc._KRYLOV_MIN_N - 1, oc._KRYLOV_MIN_N):
            raw = np.random.default_rng(n).standard_normal((n, n))
            assert oc.krylov_norm(raw) == pytest.approx(np.linalg.norm(raw, 2), rel=1e-12)
        assert calls == [oc._KRYLOV_MIN_N]

    @pytest.mark.parametrize("error", ["no_convergence", "arpack_error"])
    def test_arpack_failure_falls_back_to_dense(self, monkeypatch, error):
        import scipy.sparse.linalg as spla

        def failing(*args, **kwargs):
            if error == "no_convergence":
                raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
            raise spla.ArpackError(-9999)
        mat = symmetric_with_spectrum(5, np.linspace(-2.0, 1.0, 50))
        dense = {sym: oc.krylov_norm(mat, sym) for sym in (True, False)}
        monkeypatch.setattr(spla, "eigsh", failing)
        monkeypatch.setattr(oc, "_KRYLOV_MIN_N", 2)
        for symmetric in (True, False):
            assert oc.krylov_norm(mat, symmetric) == dense[symmetric]

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            oc.krylov_norm(np.ones((3, 4)))
        with pytest.raises(InputError):
            oc.krylov_norm(np.diag([1.0, np.nan]))

    def test_package_import_leaves_arpack_unloaded(self):
        code = ("import sys, nonstatcov; "
                "sys.exit(1 if 'scipy.sparse.linalg' in sys.modules else 0)")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestBandTruncate:
    def _seeded_window(self, length=9, p=2, seed=3):
        rng = np.random.default_rng(seed)
        flat = rng.standard_normal((length * p, length * p))
        return nc.BlockWindow.from_flat(flat + flat.T, p=p, symmetrize=True)

    def test_wide_band_is_identity(self):
        w = self._seeded_window()
        banded = nc.band_truncate(w, w.length)
        assert np.array_equal(banded.base.blocks, w.blocks)

    def test_bandwidth_zero_keeps_diagonal(self):
        w = self._seeded_window()
        banded = nc.band_truncate(w, 0)
        for t in range(w.length):
            for tau in range(w.length):
                if t == tau:
                    assert np.array_equal(banded.base.blocks[t, tau], w.blocks[t, tau])
                else:
                    assert np.all(banded.base.blocks[t, tau] == 0.0)

    def test_equals_mask_oracle(self):
        w = self._seeded_window(seed=11)
        m = 2
        lags = np.abs(np.subtract.outer(w.times, w.times))
        masked = np.where((lags <= m)[:, :, None, None], w.blocks, 0.0)
        banded = nc.band_truncate(w, m)
        assert np.array_equal(banded.base.blocks, masked)

    def test_idempotent(self):
        w = self._seeded_window(seed=7)
        once = nc.band_truncate(w, 2).base
        twice = nc.band_truncate(once, 2).base
        assert np.array_equal(once.blocks, twice.blocks)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(DomainError):
            nc.band_truncate(self._seeded_window(), -1)

    def test_bandwidth_follows_the_count_rule(self):
        w = self._seeded_window()
        for m in (2.5, True, 2.0):
            with pytest.raises(InputError, match="m must be an integer"):
                nc.band_truncate(w, m)
        assert nc.band_truncate(w, np.int64(2)).bandwidth == 2


class TestDemkoBound:
    def test_zero_for_equal_endpoints(self):
        assert nc.demko_bound(2.0, 2.0, 1, 3) == 0.0

    def test_direct_formula(self):
        # r = 4, rho = 1/3, exponent ceil(2/1) = 2
        assert nc.demko_bound(1.0, 4.0, 1, 2) == pytest.approx(9.0 / 36.0)
        # non-multiple lag matches the floor+1 form: ceil(3/2) = 2
        assert nc.demko_bound(1.0, 4.0, 2, 3) == pytest.approx(9.0 / 4.0 * (1.0 / 9.0))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nc.demko_bound(0.0, 1.0, 1, 1)
        with pytest.raises(DomainError):
            nc.demko_bound(2.0, 1.0, 1, 1)
        with pytest.raises(DomainError):
            nc.demko_bound(1.0, 2.0, 0, 1)

    def test_sound_on_seeded_instances(self):
        from nonstatcov.verification import random_spd_banded
        rng = np.random.default_rng(77)
        for _ in range(25):
            p = int(rng.integers(1, 4))
            bw = int(rng.choice([1, 2, 4]))
            length = int(rng.integers(bw + 2, 40))
            mat, a, b = random_spd_banded(rng, p, bw, length)
            inv = np.linalg.inv(mat)
            norms = nc.BlockWindow.from_flat(inv, p, symmetrize=True).norms()
            for t in range(length):
                for tau in range(length):
                    if t != tau:
                        assert norms[t, tau] <= nc.demko_bound(a, b, bw, t - tau) * (1 + 1e-12)

    def test_array_lags_match_scalar_calls(self):
        lags = np.arange(-30, 31)
        for a, b, m in [(1.0, 4.0, 1), (0.3, 7.5, 2), (2.0, 2.0, 4), (0.05, 40.0, 3)]:
            vec = nc.demko_bound(a, b, m, lags)
            assert vec.shape == lags.shape
            scalar = [nc.demko_bound(a, b, m, int(lag)) for lag in lags]
            assert np.allclose(vec, scalar, rtol=4 * np.finfo(float).eps, atol=0.0)


class TestSchurComplement:
    def test_zero_coupling_returns_a(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        out = nc.schur_complement(a, np.zeros((2, 6)), np.eye(6))
        assert np.allclose(out, a)

    def test_diagonal_arithmetic(self):
        a = np.eye(2)
        b = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = nc.schur_complement(a, b, 2.0 * np.eye(2))
        assert np.allclose(out, np.diag([0.5, 1.0]))

    def test_matches_full_inverse_oracle(self):
        rng = np.random.default_rng(23)
        raw = rng.standard_normal((6, 6))
        full = raw @ raw.T + 6 * np.eye(6)
        full = 0.5 * (full + full.T)
        a, b, e = full[:2, :2], full[:2, 2:], full[2:, 2:]
        out = nc.schur_complement(a, b, e)
        oracle = np.linalg.inv(np.linalg.inv(full)[:2, :2])
        assert np.allclose(out, oracle, atol=1e-9)

    def test_singular_conditioning_error(self):
        with pytest.raises(ConditioningError):
            nc.schur_complement(np.eye(2), np.zeros((2, 3)), np.zeros((3, 3)))


def spd_with_condition(seed, n, cond):
    """Exactly symmetric SPD matrix with condition number ``cond``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.geomspace(1.0, cond, n) * 10.0 ** rng.uniform(-3, 3)
    mat = (q * vals) @ q.T
    return 0.5 * (mat + mat.T)


def banded_with_condition(seed, n, bandwidth, cond, indefinite=False):
    """Symmetric matrix, exactly zero beyond ``bandwidth`` diagonals, with a
    shifted spectrum: ``lambda_max / lambda_min`` is about ``cond`` (for
    ``cond`` near 1, about ``1.001``), or with ``indefinite`` the smallest
    eigenvalue is about ``-lambda_max / cond``."""
    rng = np.random.default_rng(seed)
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    raw = rng.standard_normal((n, n)) * (lag <= bandwidth)
    sym = (raw + raw.T) * 10.0 ** rng.uniform(-3, 3)
    vals = scipy.linalg.eigvalsh(sym)
    spread = vals[-1] - vals[0] if vals[-1] > vals[0] else abs(vals[0]) + 1.0
    low = spread / max(cond - 1.0, 1e-3)
    return sym + ((-low if indefinite else low) - vals[0]) * np.eye(n)


def exact_guard(mat, what):
    """The exact eigenvalue guard, written out: raise unless
    ``lambda_min > SPD_RTOL * lambda_max``."""
    rng = oc.sym_eig_range(mat)
    if not rng.is_spd():
        raise ConditioningError(
            f"{what} is numerically singular "
            f"(lambda_min={rng.lambda_min:.3e}, lambda_max={rng.lambda_max:.3e})")


def exact_guard_schur(a, b, e, what):
    """``schur_complement`` as it decided before the certified factor: the
    exact guard first, then Cholesky and ``A - W^T W``, ``W = L^-1 B^T``."""
    exact_guard(e, what)
    factor, info = scipy.linalg.lapack.dpotrf(e, lower=1, clean=1)
    if info:
        raise ConditioningError(f"{what}: Cholesky factorisation failed "
                                f"(LAPACK info={info})")
    w = scipy.linalg.blas.dtrsm(1.0, factor, np.asarray(b).T, lower=1)
    gram = scipy.linalg.blas.dsyrk(1.0, w, trans=1, lower=1)
    return a - (np.tril(gram) + np.tril(gram, -1).T)


def exact_guard_inverse(mat, what):
    """``spd_inverse`` as it decided before the certified bound: the exact
    extremal eigenvalues first, then Cholesky, inversion and residual.
    Returns ``(inv, residual)``."""
    exact_guard(mat, what)
    factor, info = scipy.linalg.lapack.dpotrf(mat, lower=1, clean=1)
    if info:
        raise ConditioningError(f"{what}: Cholesky factorisation failed "
                                f"(LAPACK info={info})")
    inv, info = scipy.linalg.lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info:
        raise ConditioningError(f"{what}: inversion of the Cholesky factor "
                                f"failed (LAPACK info={info})")
    inv = np.tril(inv) + np.tril(inv, -1).T
    residual = oc._inverse_residual(mat, np.diagonal(mat), inv)
    if residual > oc.SPD_RESIDUAL_TOL:
        raise ConditioningError(f"{what}: inversion residual {residual:.3e} "
                                f"exceeds {oc.SPD_RESIDUAL_TOL:g}")
    return inv, residual


class TestSpdKernel:
    def test_factor_reproduces_matrix(self):
        mat = spd_with_condition(3, 12, 1e3)
        factor = oc._certified_cholesky(mat, "test matrix")
        rng = oc.sym_eig_range(mat)
        assert np.array_equal(factor, np.tril(factor))
        assert np.allclose(factor @ factor.T, mat, rtol=0, atol=1e-12 * rng.lambda_max)
        assert rng.condition == pytest.approx(1e3, rel=1e-6)

    @pytest.mark.parametrize("n,bandwidth", [(1, 0), (7, 0), (40, 3), (60, 11), (9, 20),
                                             (80, 12), (150, 25), (600, 20), (700, 40)])
    def test_banded_guard_matches_dense(self, n, bandwidth):
        # the band extremes below _BAND_LANCZOS_MIN_N (band eigensolve) and
        # above it (Lanczos on B and on B^-1) against the dense solver
        rng = np.random.default_rng(n + bandwidth)
        raw = rng.standard_normal((n, n))
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        sym = 0.5 * (raw + raw.T) * (lag <= bandwidth)
        mat = sym + (np.abs(np.linalg.eigvalsh(sym)[0]) + 0.5) * np.eye(n)
        band = oc._lower_band(mat, 1, bandwidth)
        rng_b = oc._band_extremes(band, oc._BandCholesky.factor(band))
        rng_d = oc.sym_eig_range(mat)
        scale = rng_d.lambda_max
        assert abs(rng_b.lambda_min - rng_d.lambda_min) <= 1e-13 * scale
        assert abs(rng_b.lambda_max - rng_d.lambda_max) <= 1e-13 * scale

    def test_banded_extremes_fall_back_to_the_dense_solver(self, monkeypatch):
        # a rotated multiple of the identity: some LAPACK builds report no
        # convergence of the band eigensolver on it
        mat = spd_with_condition(1004, 27, 1.0)
        dense = oc.sym_eig_range(mat)
        band = oc._lower_band(mat, 1, 26)
        chol = oc._BandCholesky.factor(band)
        banded = oc._band_extremes(band, chol)
        assert abs(banded.lambda_min - dense.lambda_min) <= 1e-13 * dense.lambda_max
        assert abs(banded.lambda_max - dense.lambda_max) <= 1e-13 * dense.lambda_max

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")
        monkeypatch.setattr(scipy.linalg, "eigvals_banded", failing)
        assert oc._band_extremes(band, chol) == dense

    def test_singular_raises(self):
        mat = np.diag([2.0, 1.0, 0.0])
        with pytest.raises(ConditioningError, match="test matrix is numerically singular"):
            nc.schur_complement(np.eye(1), np.ones((1, 3)), mat, what="test matrix")
        with pytest.raises(ConditioningError, match="numerically singular"):
            nc.spd_inverse(mat, "test matrix")

    def test_indefinite_raises(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mat = (q * np.array([-0.5, 1.0, 2.0, 3.0, 4.0, 5.0])) @ q.T
        with pytest.raises(ConditioningError, match="lambda_min=-5"):
            nc.schur_complement(np.eye(2), np.ones((2, 6)), 0.5 * (mat + mat.T),
                                what="test matrix")

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           log_cond=st.floats(0.0, 8.0))
    def test_inverse_matches_lu_and_residual_is_checked(self, seed, n, log_cond):
        cond = 10.0 ** log_cond if n > 1 else 1.0
        mat = spd_with_condition(seed, n, cond)
        try:
            inv, _, residual = nc.spd_inverse(mat, "test matrix")
        except ConditioningError as err:
            # near cond 1e8 the 1e-8 residual guard may refuse an inverse
            assert cond > 1e6 and "residual" in str(err)
            return
        assert np.array_equal(inv, inv.T)
        assert inv.flags.c_contiguous
        assert residual <= oc.SPD_RESIDUAL_TOL
        # recomputed in another summation order, the residual moves at roundoff level
        assert np.linalg.norm(mat @ inv - np.eye(n), np.inf) <= 2 * oc.SPD_RESIDUAL_TOL
        ref = np.linalg.inv(mat)
        # two backward-stable inverses agree to about n * eps * cond
        tol = 1e-12 + 4 * n * np.finfo(float).eps * cond
        assert np.linalg.norm(inv - ref, 2) <= tol * np.linalg.norm(ref, 2)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           log_cond=st.floats(0.0, 14.0), flip=st.booleans())
    @example(seed=5, n=20, log_cond=12.0, flip=False)
    @example(seed=6, n=30, log_cond=11.999, flip=False)
    @example(seed=7, n=25, log_cond=12.001, flip=False)
    @example(seed=0, n=20, log_cond=8.0, flip=False)
    @example(seed=1, n=8, log_cond=8.5, flip=False)
    @example(seed=0, n=30, log_cond=6.9, flip=False)
    @example(seed=3, n=12, log_cond=2.0, flip=True)
    @example(seed=1004, n=27, log_cond=0.0, flip=False)
    def test_certified_bound_decides_as_the_exact_guard(self, seed, n, log_cond, flip):
        """Accepts and refuses exactly as the exact-eigenvalue guard does,
        with the same exception and message (``flip`` makes the matrix
        indefinite)."""
        mat = spd_with_condition(seed, n, 10.0 ** log_cond if n > 1 else 1.0)
        if flip:
            vals, vecs = np.linalg.eigh(mat)
            vals[0] = -vals[0]
            mat = (vecs * vals) @ vecs.T
            mat = 0.5 * (mat + mat.T)
        try:
            want = exact_guard_inverse(mat, "test matrix")
        except ConditioningError as err:
            want = str(err)
        try:
            got = nc.spd_inverse(mat, "test matrix")
        except ConditioningError as err:
            got = str(err)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        inv, bound, residual = got
        # the residual is the a priori bound or the computed one: never below
        # the oracle's
        assert np.array_equal(inv, want[0]) and want[1] <= residual <= oc.SPD_RESIDUAL_TOL
        rng = oc.sym_eig_range(mat)
        # the bound is certified: it is never below the condition number,
        # which eigvalsh gives to about n * eps * cond relative
        eps = np.finfo(float).eps
        assert bound >= rng.condition * (1.0 - 1e-12 - 4 * n * eps * rng.condition)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           bandwidth=st.integers(0, 30), log_cond=st.floats(0.0, 14.0),
           indefinite=st.booleans())
    @example(seed=2, n=20, bandwidth=3, log_cond=11.0, indefinite=False)
    @example(seed=3, n=25, bandwidth=30, log_cond=12.001, indefinite=False)
    @example(seed=4, n=30, bandwidth=1, log_cond=11.999, indefinite=False)
    @example(seed=5, n=12, bandwidth=4, log_cond=2.0, indefinite=True)
    @example(seed=6, n=1, bandwidth=0, log_cond=0.0, indefinite=False)
    def test_certified_cholesky_decides_as_the_exact_guard(self, seed, n, bandwidth,
                                                           log_cond, indefinite):
        """``schur_complement`` returns the bits of the exact-guard-first
        oracle, or raises its error with the same message."""
        mat = banded_with_condition(seed, n, bandwidth, 10.0 ** log_cond, indefinite)
        rng = np.random.default_rng(seed)
        a, b = 3.0 * np.eye(2), rng.standard_normal((2, n))
        try:
            want = exact_guard_schur(a, b, mat, "E")
        except ConditioningError as err:
            want = str(err)
        try:
            got = nc.schur_complement(a, b, mat, what="E")
        except ConditioningError as err:
            got = str(err)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_refused_certificate_leaves_the_decision_to_the_exact_guard(self, monkeypatch):
        # at condition 1e11 the certificate (lambda_min above 1e-9 lambda_max)
        # refuses and the exact guard (above 1e-12 lambda_max) accepts
        guards = []
        real = oc._exact_guard

        def counting(*args):
            guards.append(args[1])
            return real(*args)
        monkeypatch.setattr(oc, "_exact_guard", counting)
        e = spd_with_condition(9, 12, 1e11)
        a, b = np.eye(2), np.ones((2, 12))
        assert np.array_equal(nc.schur_complement(a, b, e, what="E"),
                              exact_guard_schur(a, b, e, "E"))
        assert guards == ["E"]

    def test_accepted_factorisations_make_no_eigensolve(self, monkeypatch):
        calls = []
        real = oc.sym_eig_range

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)
        monkeypatch.setattr(oc, "sym_eig_range", counting)
        c = nc.cov_window(nc.get_reference_model("tvvar1_p3"), 200, 40, 99)
        assert calls == []
        nc.partial_cov_pair(c, 0, 2, pad=10)
        assert calls == []

    @pytest.mark.parametrize("cond,accepted", [(1e6, True), (1e10, True), (1e13, False)])
    def test_exact_inverses_beyond_the_bound_go_to_the_exact_guard(self, cond, accepted):
        # diagonal matrices invert to rounding (a computed residual <= eps),
        # so only the eigenvalue guard can refuse them; from 1e9 on the
        # bound no longer clears and the exact extremes decide
        mat = np.diag([2.0, 2.0 / cond, 1.0])
        if accepted:
            inv, bound, residual = nc.spd_inverse(mat, "m")
            oracle = oc._inverse_residual(mat, np.diagonal(mat), inv)
            assert oracle <= np.finfo(float).eps
            assert oracle <= residual <= oc.SPD_RESIDUAL_TOL
            assert bound == pytest.approx(cond / (1.0 - residual), rel=1e-12)
            assert np.allclose(inv, np.diag(1.0 / np.diag(mat)), rtol=1e-15, atol=0)
        else:
            with pytest.raises(ConditioningError, match="m is numerically singular"):
                nc.spd_inverse(mat, "m")

    def test_lapack_failures_are_reported_only_after_the_guard(self, monkeypatch):
        def failing(a, **kwargs):
            return a, 2
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", failing)
        with pytest.raises(ConditioningError, match=r"^m: Cholesky factorisation "
                                                    r"failed \(LAPACK info=2\)$"):
            nc.spd_inverse(spd_with_condition(2, 6, 10.0), "m")
        with pytest.raises(ConditioningError, match="m is numerically singular"):
            nc.spd_inverse(np.diag([2.0, 1.0, 0.0]), "m")

    @pytest.mark.parametrize("n,bandwidth,first,k", [
        (1, 0, 0, 1), (50, 0, 0, 50), (90, 4, 10, 70), (200, 9, 0, 200),
        (300, 17, 37, 200), (130, 200, 5, 60), (600, 150, 100, 300)])
    def test_residual_matches_dense(self, n, bandwidth, first, k):
        """``||C X - I||_inf`` read from the triangles, against numpy on the
        full matrices, for ``X`` the inverse with rows and columns
        ``first:first + k`` perturbed symmetrically, ``C`` zero beyond
        ``bandwidth`` diagonals; also with ``C`` and ``X`` sharing one buffer
        as the kernel keeps them."""
        rng = np.random.default_rng(n + bandwidth + first)
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        raw = rng.standard_normal((n, n))
        mat = 0.5 * (raw + raw.T) * (lag <= bandwidth) + 3.0 * np.eye(n)
        noise = np.zeros((n, n))
        noise[:, first:first + k] = 1e-6 * rng.standard_normal((n, k))
        x = np.linalg.inv(mat)
        x = 0.5 * (x + x.T) + noise + noise.T
        check = mat @ x - np.eye(n)
        dense = np.abs(check).sum(axis=1).max()
        scale = np.abs(mat).sum(axis=1).max() * np.abs(x).sum(axis=0).max()
        shared = np.tril(mat, -1) + np.triu(x)
        got = oc._inverse_residual(mat, np.diagonal(mat), x)
        assert abs(got - dense) <= 4 * n * np.finfo(float).eps * scale
        with one_blas_thread():
            assert (oc._inverse_residual(shared, np.diagonal(mat), shared.T)
                    == oc._inverse_residual(mat, np.diagonal(mat), x))

    @pytest.mark.parametrize("i,j", [(0, 1), (0, 600), (100, 400), (300, 364)])
    def test_sym_rows_reads_the_symmetric_matrix(self, i, j):
        """Rows of the matrix held in a lower triangle, with its own or a
        given diagonal, for strips of any height."""
        rng = np.random.default_rng(j)
        a = rng.standard_normal((600, 600))
        full = np.tril(a) + np.tril(a, -1).T
        assert np.array_equal(oc._sym_rows(a, i, j), full[i:j])
        diag = rng.standard_normal(600)
        full[np.diag_indices(600)] = diag
        got = oc._sym_rows(a, i, j, diag)
        assert got.flags.c_contiguous and np.array_equal(got, full[i:j])

    @staticmethod
    def commuting_factors(n):
        """Commuting symmetric ``a`` and ``b``, and ``a`` held in the lower
        triangle of an array whose strict upper triangle and diagonal are
        noise, with its diagonal apart."""
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((n, n))
        s = 0.5 * (raw + raw.T)
        low = np.tril(s, -1) + np.triu(rng.standard_normal((n, n)))
        return s, s @ s + np.eye(n), low, np.diagonal(s).copy()

    @pytest.mark.parametrize("n", [1, 20, 256, 300, 600])
    def test_symmetric_product_matches_full_product(self, n):
        a, b, low, diag = self.commuting_factors(n)
        ref = a @ b
        out = oc._symmetric_product_into(low, diag, b.copy())
        oc._mirror_lower(out.T)
        assert np.array_equal(out, out.T)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 20, 255, 256, 257, 513, 600])
    def test_symmetric_product_into_overwrites_with_the_same_bits(self, n):
        """The product of the triangle-held ``a`` written over the upper
        triangle of ``b`` and mirrored down has the bits of the fresh-buffer
        product of the full ``a``; ``low`` and ``diag`` are left unchanged."""
        a, b, low, diag = self.commuting_factors(n)
        want = reference_kernels.symmetric_product(a, b)
        kept = low.copy(), diag.copy()
        got = oc._symmetric_product_into(low, diag, b)
        oc._mirror_lower(got.T)
        assert got is b and got.tobytes() == want.tobytes()
        assert np.array_equal(low, kept[0]) and np.array_equal(diag, kept[1])

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
    def test_mirror_lower_copies_the_lower_triangle_exactly(self, n):
        # the diagonal tiles of every size read one cached 256 x 256 mask
        a = np.random.default_rng(n).standard_normal((n, n))
        want = np.tril(a) + np.tril(a, -1).T
        oc._mirror_lower(a)
        assert np.array_equal(a, want)
        assert not oc._TILE_UPPER.flags.writeable

    def test_schur_on_rows_agrees_with_schur_complement(self):
        from nonstatcov.partial_cov import _schur_on_rows
        rng = np.random.default_rng(31)
        raw = rng.standard_normal((15, 15))
        flat = raw @ raw.T + np.eye(15)
        flat = 0.5 * (flat + flat.T)
        keep = np.array([0, 3, 6, 9, 12, 1, 4, 7, 10, 13])
        drop = np.array([2, 5, 8, 11, 14])
        out = _schur_on_rows(flat, keep, drop)
        ref = nc.schur_complement(flat[np.ix_(keep, keep)], flat[np.ix_(keep, drop)],
                                  flat[np.ix_(drop, drop)])
        assert np.array_equal(out, ref)
        oracle = np.linalg.inv(np.linalg.inv(flat)[np.ix_(keep, keep)])
        assert np.allclose(out, oracle, atol=1e-10)

    @pytest.mark.parametrize("k,m", [(1, 1), (6, 20), (400, 200)])
    def test_schur_complement_leaves_its_operands_and_keeps_the_bits(self, k, m):
        """``A - W^T W`` is taken in the ``dsyrk`` buffer: ``A``, ``B`` and
        ``E`` are left unchanged, and the result has the bits of ``A``
        minus the mirrored ``W^T W`` in a fresh array, C-ordered."""
        rng = np.random.default_rng(k * m)
        raw = rng.standard_normal((k + m, k + m))
        full = raw @ raw.T / (k + m) + np.eye(k + m)
        full = 0.5 * (full + full.T)
        a, b, e = full[:k, :k].copy(), full[:k, k:].copy(), full[k:, k:].copy()
        kept = [x.copy() for x in (a, b, e)]
        got = nc.schur_complement(a, b, e)
        w = scipy.linalg.blas.dtrsm(1.0, oc._certified_cholesky(e, "E"), b.T, lower=1)
        gram = scipy.linalg.blas.dsyrk(1.0, w, trans=1, lower=1)
        upper = np.triu_indices(k, 1)
        gram[upper] = gram.T[upper]
        assert got.flags.c_contiguous
        assert got.tobytes() == (a - gram).tobytes()
        assert all(np.array_equal(x, y) for x, y in zip((a, b, e), kept))

    def test_schur_complement_rejects_nonsymmetric_flat_e(self):
        e = np.array([[2.0, 0.1], [0.0, 2.0]])
        with pytest.raises(InputError):
            nc.schur_complement(np.eye(1), np.ones((1, 2)), e)

    @pytest.mark.parametrize("k,m", [(1, 1), (6, 20), (200, 400), (400, 200)])
    def test_schur_complement_is_symmetric_and_matches_the_solve(self, k, m):
        """``A - W^T W`` is exactly symmetric for a symmetric ``A`` and within
        a few ulps of ``A - B E^-1 B^T`` by ``cho_solve``; a non-symmetric
        ``A`` is kept as it is."""
        rng = np.random.default_rng(k + m)
        raw = rng.standard_normal((k + m, k + m))
        full = raw @ raw.T / (k + m) + np.eye(k + m)
        full = 0.5 * (full + full.T)
        a, b, e = full[:k, :k], full[:k, k:], full[k:, k:]
        got = nc.schur_complement(a, b, e)
        factor = scipy.linalg.cho_factor(e, lower=True)
        want = a - b @ scipy.linalg.cho_solve(factor, b.T)
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()
        skew = a + np.triu(np.ones((k, k)), 1)
        moved = nc.schur_complement(skew, b, e) - got
        assert np.abs(moved - (skew - a)).max() <= 8 * np.finfo(float).eps * np.abs(skew).max()


class TestBandCholesky:
    @staticmethod
    def banded_spd(seed, n, bandwidth):
        rng = np.random.default_rng(seed)
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        raw = rng.standard_normal((n, n)) * (lag <= bandwidth)
        sym = 0.5 * (raw + raw.T)
        return sym + (np.abs(sym).sum(axis=1).max() + 1.0) * np.eye(n)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
           bandwidth=st.integers(0, 150), columns=st.integers(1, 40))
    @example(seed=0, n=300, bandwidth=64, columns=300)
    @example(seed=1, n=257, bandwidth=100, columns=7)
    @example(seed=2, n=129, bandwidth=63, columns=1)
    @example(seed=3, n=1, bandwidth=0, columns=1)
    @example(seed=4, n=65, bandwidth=0, columns=65)
    def test_blocked_solves_match_the_dense_triangular_solve(self, seed, n, bandwidth,
                                                              columns):
        """``L^-1 b`` and ``L^-T b`` in place, in 64-row strips, against
        ``solve_triangular`` on the same factor in dense form, for orders
        that are and are not a multiple of the strip and bandwidths below
        and above it."""
        bandwidth = min(bandwidth, n - 1)
        mat = self.banded_spd(seed, n, bandwidth)
        band = oc._lower_band(mat, 1, bandwidth)
        chol = oc._BandCholesky.factor(band)
        assert np.array_equal(band, oc._lower_band(mat, 1, bandwidth))
        dense = np.zeros((n, n))
        for k in range(bandwidth + 1):
            dense[np.arange(k, n), np.arange(n - k)] = chol.band[k, :n - k]
        assert np.allclose(dense @ dense.T, mat, rtol=0, atol=1e-13 * np.abs(mat).max())
        rhs = np.random.default_rng(seed + 1).standard_normal((n, columns))
        for upper in (False, True):
            want = scipy.linalg.solve_triangular(dense, rhs, lower=True, trans=int(upper))
            buf = rhs.copy()
            assert chol.solve(buf, upper=upper) is buf
            assert np.abs(buf - want).max() <= 1e-13 * np.abs(want).max()
        v = rhs[:, 0].copy()
        want = scipy.linalg.solve(mat, v, assume_a="pos")
        assert np.abs(chol.solve_vector(v) - want).max() <= 1e-13 * np.abs(want).max()

    def test_indefinite_matrix_has_no_factor(self):
        mat = self.banded_spd(7, 40, 3)
        mat[10, 10] = -5.0
        assert oc._BandCholesky.factor(oc._lower_band(mat, 1, 3)) is None

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
    def test_transpose_in_place(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        want = a.T.copy()
        oc._transpose_in_place(a)
        assert np.array_equal(a, want)


def copying_inverse(mat):
    """The SPD inverse on a Fortran copy, as ``spd_inverse`` computed it
    before it worked in place: ``dpotrf``, ``dpotri`` and the mirror, the
    residual from numpy's product of the full matrices.  Returns
    ``(inv, ||mat||_inf, ||inv||_inf, residual)``."""
    factor, info = scipy.linalg.lapack.dpotrf(mat, lower=1, clean=1)
    assert not info
    inv, info = scipy.linalg.lapack.dpotri(factor, lower=1, overwrite_c=1)
    assert not info
    inv = np.tril(inv) + np.tril(inv, -1).T
    residual = np.abs(mat @ inv - np.eye(len(mat))).sum(axis=1).max()
    return inv, np.abs(mat).sum(axis=1).max(), np.abs(inv).sum(axis=1).max(), residual


class TestInPlaceKernel:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 60),
           p=st.integers(1, 3), bandwidth=st.integers(0, 60),
           log_cond=st.floats(0.0, 7.0))
    @example(seed=0, length=100, p=3, bandwidth=100, log_cond=3.0)
    @example(seed=1, length=140, p=2, bandwidth=4, log_cond=5.0)
    @example(seed=2, length=120, p=3, bandwidth=60, log_cond=4.0)
    def test_matches_the_copying_path(self, seed, length, p, bandwidth, log_cond):
        """Inverse and the norms of the condition bound bit for bit, on
        matrices zero beyond ``bandwidth`` blocks; the
        residual is a bound, never below the copying path's residual, which
        is summed in another order, less the rounding of that product
        (``4 n eps ||C|| ||X||``, the same order as the residual itself)."""
        n = length * p
        rows = min((bandwidth + 1) * p - 1, n - 1)
        mat = banded_with_condition(seed, n, rows, 10.0 ** log_cond)
        inv, c_norm, x_norm, residual = copying_inverse(mat)
        buf = mat.copy()
        bound, got = oc._spd_inverse_in_place(buf, "m")
        assert np.array_equal(buf, inv)
        assert bound == c_norm * x_norm / (1.0 - got)
        assert residual - 4 * n * np.finfo(float).eps * c_norm * x_norm <= got
        assert got <= oc.SPD_RESIDUAL_TOL
        public = nc.spd_inverse(mat, "m")
        assert np.array_equal(public[0], inv) and public[1:] == (bound, got)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           bandwidth=st.integers(0, 150), log_cond=st.floats(0.0, 10.0),
           banded=st.booleans())
    @example(seed=0, n=400, bandwidth=400, log_cond=6.0, banded=False)
    @example(seed=1, n=600, bandwidth=20, log_cond=4.0, banded=True)
    @example(seed=2, n=60, bandwidth=60, log_cond=10.0, banded=False)
    def test_a_priori_bound_is_never_below_the_computed_residual(self, seed, n,
                                                                 bandwidth, log_cond,
                                                                 banded):
        """``_residual_bound`` against ``_inverse_residual`` as the oracle,
        on dense and banded SPD matrices from well conditioned to past the
        point where the bound stops clearing ``SPD_RESIDUAL_TOL``."""
        cond = 10.0 ** log_cond
        if banded:
            mat = banded_with_condition(seed, n, min(bandwidth, n - 1), cond)
        else:
            mat = spd_with_condition(seed, n, cond)
        buf = mat.copy()
        try:
            bound = oc._invert_upper(buf, np.diagonal(mat).copy(), oc._row_sum_norm(mat),
                                     "m")
        except ConditioningError:
            return
        oc._mirror_lower(buf.T)
        assert bound >= oc._inverse_residual(mat, np.diagonal(mat), buf)
        if log_cond <= 1.0:
            # a well conditioned matrix is accepted on the bound
            assert bound <= oc.SPD_RESIDUAL_TOL

    @pytest.mark.parametrize("threads", ["one", "default"])
    @pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "tvvar1_p3"])
    def test_trtri_then_lauum_gives_the_bits_of_dpotri(self, name, threads):
        """``dpotri`` is ``dtrtri`` and then ``dlauum``: the kernel's two
        calls give its bits on the 1200-row reference windows, at one BLAS
        thread and at the default count."""
        model = nc.get_reference_model(name)
        mat = nc.cov_window(model, 500, 0, 1200 // model.p - 1).flatten()
        factor, info = scipy.linalg.lapack.dpotrf(mat, lower=1, clean=0)
        assert not info
        with one_blas_thread() if threads == "one" else contextlib.nullcontext():
            want, info = scipy.linalg.lapack.dpotri(factor, lower=1)
            assert not info
            got, info = scipy.linalg.lapack.dtrtri(factor, lower=1)
            assert not info
            got, info = scipy.linalg.lapack.dlauum(got, lower=1, overwrite_c=1)
            assert not info
        assert np.array_equal(np.tril(got), np.tril(want))

    @staticmethod
    def block_row_sum_norm(a, lower=False):
        """``_row_sum_norm`` in 256-row blocks, each a fresh absolute copy of
        the rows, the way it was computed before it worked in strips."""
        worst = 0.0
        for i in range(0, a.shape[0], 256):
            j = min(i + 256, a.shape[0])
            rows = np.abs(oc._sym_rows(a, i, j) if lower else a[i:j])
            worst = max(worst, float(rows.sum(axis=1).max()))
        return worst

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1),
           order=st.sampled_from("CF"), lower=st.booleans())
    @example(n=1200, seed=0, order="F", lower=True)
    @example(n=1200, seed=1, order="C", lower=False)
    def test_row_sum_norm_keeps_the_bits_of_row_blocks(self, n, seed, order, lower):
        """Strip height and the in-place absolute value change no bit: each
        row is summed on its own, on C and Fortran layouts (the kernel reads
        ``||X||_inf`` from the Fortran view of its buffer)."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 9, (n, n))
        a = np.asarray(a, order=order)
        assert oc._row_sum_norm(a, lower) == self.block_row_sum_norm(a, lower)

    def test_works_in_the_buffer_it_is_handed(self, monkeypatch):
        shared = []
        for name in ("dtrtri", "dlauum"):
            def recording(c, real=getattr(scipy.linalg.lapack, name), **kwargs):
                shared.append(np.shares_memory(c, buf))
                return real(c, **kwargs)
            monkeypatch.setattr(scipy.linalg.lapack, name, recording)
        buf = spd_with_condition(3, 300, 1e4)
        oc._spd_inverse_in_place(buf, "m")
        assert shared == [True, True]

    def test_public_inverse_leaves_its_input_unchanged(self):
        mat = spd_with_condition(4, 40, 1e3)
        before = mat.copy()
        inv, _, _ = nc.spd_inverse(mat, "m")
        assert np.array_equal(mat, before) and not np.shares_memory(inv, mat)
        mat.flags.writeable = False
        assert np.array_equal(nc.spd_inverse(mat, "m")[0], inv)
        fortran = np.asfortranarray(before)
        assert np.array_equal(nc.spd_inverse(fortran, "m")[0], inv)
        assert np.array_equal(fortran, before)

    @pytest.mark.parametrize("case", ["singular", "indefinite", "dpotrf", "dtrtri",
                                      "dlauum", "residual"])
    def test_refusals_restore_the_matrix_first(self, monkeypatch, case):
        """Every refusal raises the copying path's message, in the same
        order, and leaves the buffer holding the matrix bit for bit."""
        mat = spd_with_condition(5, 30, 1e2)
        if case == "singular":
            mat = np.diag([2.0, 1.0, 0.0])
            want = "m is numerically singular"
        elif case == "indefinite":
            vals, vecs = np.linalg.eigh(mat)
            vals[0] = -vals[0]
            mat = (vecs * vals) @ vecs.T
            mat = 0.5 * (mat + mat.T)
            want = "m is numerically singular"
        elif case == "residual":
            # both the a priori bound and the computed residual fail
            monkeypatch.setattr(oc, "_residual_bound", lambda *args: 2e-6)
            monkeypatch.setattr(oc, "_inverse_residual", lambda *args: 1e-6)
            want = "m: inversion residual 1.000e-06 exceeds 1e-08"
        else:
            real = getattr(scipy.linalg.lapack, case)

            def failing(a, **kwargs):
                out, _ = real(a, **kwargs)
                out[np.tril_indices(len(out))] = np.nan   # a failure may scribble
                return out, 3
            monkeypatch.setattr(scipy.linalg.lapack, case, failing)
            step = ("Cholesky factorisation" if case == "dpotrf"
                    else "inversion of the Cholesky factor")
            want = f"m: {step} failed (LAPACK info=3)"
        seen = []
        real_guard = oc._exact_guard

        def guard(flat, *args):
            seen.append(np.array_equal(flat, mat))
            return real_guard(flat, *args)
        monkeypatch.setattr(oc, "_exact_guard", guard)
        buf = mat.copy()
        with pytest.raises(ConditioningError) as err:
            oc._spd_inverse_in_place(buf, "m")
        assert str(err.value).startswith(want)
        assert seen == [True]
        assert np.array_equal(buf, mat)

    @pytest.mark.parametrize("n,row,col", [(40, 3, 17), (300, 280, 5)])
    def test_public_inverse_refuses_a_matrix_symmetric_only_to_rounding(self, n, row,
                                                                        col):
        """Triangles one ulp apart, in the first or a later row block."""
        mat = spd_with_condition(6, n, 1e3)
        mat[row, col] = np.nextafter(mat[row, col], np.inf)
        before = mat.copy()
        with pytest.raises(InputError, match="^spd_inverse: m is not an exactly "
                                             "symmetric matrix$"):
            nc.spd_inverse(mat, "m")
        assert np.array_equal(mat, before)
        for bad in (np.ones((3, 4)), np.ones(3)):
            with pytest.raises(InputError, match="not an exactly symmetric"):
                nc.spd_inverse(bad, "m")

    def test_release_hands_the_matrix_over_and_empties_the_window(self):
        model = nc.get_reference_model("tvvma_kappa4_p2")
        window = nc.cov_window(model, 200, 0, 29)
        own = window.flatten()
        want = own.copy()
        got = window._release()
        assert got is own and got.flags.writeable and np.array_equal(got, want)
        assert window.flatten() is None and window.blocks is None


class TestBlockWindow:
    def test_flatten_round_trip(self):
        rng = np.random.default_rng(13)
        blocks = rng.standard_normal((4, 4, 3, 3))
        w = nc.BlockWindow(t_lo=-2, p=3, blocks=blocks)
        back = nc.BlockWindow.from_flat(w.flatten(), p=3, t_lo=-2)
        assert np.array_equal(back.blocks, blocks)

    def test_from_flat_symmetrize_and_subwindow(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12))
        sym = a + a.T
        w = nc.BlockWindow.from_flat(sym, p=2, t_lo=3, symmetrize=True)
        assert w.symmetric and np.array_equal(w.flatten(), sym)
        averaged = nc.BlockWindow.from_flat(a, p=2, symmetrize=True)
        assert averaged.symmetric
        assert np.array_equal(averaged.flatten(), 0.5 * (a + a.T))
        bad = sym.copy()
        bad[0, 1] = bad[1, 0] = np.inf
        with pytest.raises(InputError):
            nc.BlockWindow.from_flat(bad, p=2, symmetrize=True)
        with pytest.raises(InputError):
            nc.BlockWindow.from_flat(np.zeros((0, 0)), p=2)

    def test_stores_one_read_only_flat_matrix(self):
        rng = np.random.default_rng(17)
        w = nc.BlockWindow(t_lo=1, p=3, blocks=rng.standard_normal((4, 4, 3, 3)))
        flat = w.flatten()
        assert flat is w.flatten()
        assert flat.flags.c_contiguous and not flat.flags.writeable
        assert np.shares_memory(w.blocks, flat)
        assert not w.blocks.flags.writeable
        assert np.shares_memory(w.block(2, 4), flat)
        with pytest.raises(ValueError):
            flat[0, 0] = 1.0

    def test_constructors_copy_the_callers_array(self):
        rng = np.random.default_rng(19)
        blocks = rng.standard_normal((3, 3, 2, 2))
        flat = rng.standard_normal((6, 6))
        from_blocks = nc.BlockWindow(t_lo=0, p=2, blocks=blocks)
        from_flat = nc.BlockWindow.from_flat(flat, p=2)
        want_blocks, want_flat = blocks.copy(), flat.copy()
        blocks[1, 2] += 1.0
        flat[3, 4] += 1.0
        assert np.array_equal(from_blocks.blocks, want_blocks)
        assert np.array_equal(from_flat.flatten(), want_flat)
        assert not np.shares_memory(from_blocks.flatten(), blocks)
        assert not np.shares_memory(from_flat.flatten(), flat)

    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(1, 9), p=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_block_toeplitz_matches_block_loop(self, length, p, seed):
        seq = np.random.default_rng(seed).standard_normal((length + 2, p, p))
        want = np.zeros((length * p, length * p))
        for i in range(length):
            for j in range(length):
                r = i - j
                want[i * p:(i + 1) * p, j * p:(j + 1) * p] = \
                    seq[r] if r >= 0 else seq[-r].T
        assert np.array_equal(oc.block_toeplitz(seq, length), want)

    def test_symmetric_flag_validated(self):
        blocks = np.random.default_rng(1).standard_normal((3, 3, 2, 2))
        with pytest.raises(InputError):
            nc.BlockWindow(t_lo=0, p=2, blocks=blocks, symmetric=True)

    def test_time_major_flattening_order(self):
        blocks = np.zeros((2, 2, 2, 2))
        blocks[1, 0] = np.arange(4).reshape(2, 2)
        w = nc.BlockWindow(t_lo=5, p=2, blocks=blocks)
        flat = w.flatten()
        assert np.array_equal(flat[2:4, 0:2], blocks[1, 0])
        assert np.array_equal(w.block(6, 5), blocks[1, 0])

    def test_lag_max_norms(self):
        rng = np.random.default_rng(2)
        blocks = rng.standard_normal((5, 5, 2, 2))
        w = nc.BlockWindow(t_lo=0, p=2, blocks=blocks)
        norms = w.norms()
        for lag in range(5):
            expected = max(norms[t, tau] for t in range(5) for tau in range(5)
                           if abs(t - tau) == lag)
            assert w.lag_max_norms()[lag] == pytest.approx(expected)

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(1, 30), p=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_lag_max_norms_match_diagonal_loop(self, length, p, seed):
        blocks = np.random.default_rng(seed).standard_normal((length, length, p, p))
        w = nc.BlockWindow(t_lo=0, p=p, blocks=blocks)
        norms = w.norms()
        want = [max(np.diagonal(norms, lag).max(), np.diagonal(norms, -lag).max())
                for lag in range(length)]
        assert np.array_equal(w.lag_max_norms(), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 199], ids=["first_strip", "last_strip"])
    def test_adopt_refuses_non_finite_in_any_strip(self, bad, row):
        """Finiteness is checked strip by strip; a diagonal entry in the
        first or the last of the four strips of a 200-row matrix is found,
        with the message of the whole-matrix check."""
        rng = np.random.default_rng(31)
        a = rng.standard_normal((200, 200))
        flat = a + a.T
        flat[row, row] = bad
        with pytest.raises(InputError, match=r"^cov_window: non-finite entries$"):
            nc.BlockWindow._adopt(flat.copy(), 2, what="cov_window")
        with pytest.raises(InputError, match=r"^BlockWindow: non-finite entries$"):
            nc.BlockWindow._adopt(flat, 2)

    def test_from_flat_compares_once(self, monkeypatch):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((12, 12))
        calls = []
        real = np.array_equal

        def counting(x, y, *args, **kwargs):
            calls.append(x.shape)
            return real(x, y, *args, **kwargs)

        monkeypatch.setattr(oc.np, "array_equal", counting)
        for flat in (a + a.T, a):
            calls.clear()
            w = nc.BlockWindow.from_flat(flat, p=3, symmetrize=True)
            assert w.symmetric and real(w.flatten(), w.flatten().T)
            assert len(calls) == 1


class TestBandedBlockWindow:
    def test_rejects_out_of_band_content(self):
        blocks = np.zeros((4, 4, 1, 1))
        blocks[0, 3, 0, 0] = 1.0
        blocks[3, 0, 0, 0] = 1.0
        w = nc.BlockWindow(t_lo=0, p=1, blocks=blocks, symmetric=True)
        with pytest.raises(InputError):
            nc.BandedBlockWindow(base=w, bandwidth=1)
        nc.BandedBlockWindow(base=w, bandwidth=3)


class TestRowAggregationBounds:
    def test_stacked_row_norm_bound(self):
        # operator norm of [A_1 ... A_k] never exceeds sqrt(sum_l ||A_l||_2^2)
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = int(rng.integers(1, 5))
            k = int(rng.integers(1, 12))
            stack = rng.standard_normal((k, p, p))
            row = np.concatenate(list(stack), axis=1)
            actual = np.linalg.svd(row, compute_uv=False)[0]
            assert actual <= np.sqrt(np.sum(nc.block_norms(stack) ** 2)) + 1e-12

    def test_symmetric_row_sum_bound(self):
        rng = np.random.default_rng(37)
        for seed in range(20):
            length, p = int(rng.integers(3, 9)), int(rng.integers(1, 4))
            flat = rng.standard_normal((length * p, length * p))
            w = nc.BlockWindow.from_flat(flat + flat.T, p=p, symmetrize=True)
            row_sums = w.norms().sum(axis=1)
            assert nc.spectral_norm(w.flatten()) <= row_sums.max() + 1e-12
