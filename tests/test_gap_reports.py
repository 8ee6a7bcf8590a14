"""The batched gap reports against the per-pair and per-lag loops they
replaced, written out here as oracles.

Each oracle takes every block norm from an SVD (``np.linalg.norm(., 2)``)
and every envelope from scalar Python arithmetic.  Indices must be equal.
Measured values may differ from the oracle by the tolerance of
``block_norms`` against the SVD, ``4 p`` ulps; envelopes and constants by
4 ulps (array and scalar ``log`` / ``pow`` may round differently).  The
frozen inverse lags come from the FFT kernel the reports read;
``test_inverse_analysis`` compares that kernel with the dense path.
"""

import numpy as np
import pytest

import nonstatcov as nc
from nonstatcov.inverse_analysis import _frozen_inverse_lags
from nonstatcov.operator_core import gu, zeta
from nonstatcov.reports import GapReport, envelope_constant

EPS = np.finfo(float).eps


def assert_ulps(got, want, ulps):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= ulps * EPS * np.abs(want) + 4 * 2.0**-1074)


def assert_report(rep, indices, measured, bound, p):
    assert rep.indices == indices
    assert_ulps(rep.measured, measured, 4 * p)
    assert_ulps(rep.bound, bound, 4)
    assert_ulps(rep.constant_estimate, envelope_constant(measured, bound), 4 * p + 4)


@pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "tvvar1_p3"])
def test_inverse_smoothness_gap_matches_pair_loop(name):
    model = nc.get_reference_model(name)
    n, t_lo, t_hi, kappa = 100, 47, 52, 4.0
    rep = nc.inverse_smoothness_gap(model, n, t_lo, t_hi, kappa=kappa)
    dn = nc.model_inverse_window(model, n, t_lo, t_hi)
    length = dn.base.length
    # the frozen lags of every row time, from the one kernel the gap reads
    frozen = _frozen_inverse_lags(model, np.arange(t_lo, t_lo + length) / n, length - 1)
    indices, measured, bound, alt = [], [], [], []
    for ti in range(length):
        t = t_lo + ti
        seq = frozen[ti]
        for tj in range(length):
            tau = t_lo + tj
            r = t - tau
            target = seq[r] if r >= 0 else seq[-r].T
            zr, gr = float(zeta(r)), float(gu(r))
            indices.append((t, tau))
            measured.append(np.linalg.norm(dn.base.blocks[ti, tj] - target, 2))
            bound.append(zr ** (kappa - 2.0) * min(1.0 / n, 2.0 * zr))
            alt.append(zr ** (kappa - 2.0) * min(1.0 / n, 2.0 / gr))
    assert_report(rep, indices, measured, bound, model.p)
    assert_ulps(rep.alt_bound, alt, 4)
    assert_ulps(rep.alt_constant, envelope_constant(measured, alt), 4 * model.p + 4)


@pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "tvvar1_p3"])
def test_inverse_lipschitz_gap_matches_lag_loop(name):
    model = nc.get_reference_model(name)
    u, v, max_lag, kappa = 0.35, 0.6, 8, 4.0
    rep = nc.inverse_lipschitz_gap(model, u, v, max_lag, kappa=kappa)
    seq_u, seq_v = _frozen_inverse_lags(model, [u, v], max_lag)
    indices, measured, bound = [], [], []
    for r in range(-max_lag, max_lag + 1):
        du = seq_u[r] if r >= 0 else seq_u[-r].T
        dv = seq_v[r] if r >= 0 else seq_v[-r].T
        indices.append(r)
        measured.append(np.linalg.norm(du - dv, 2))
        bound.append(abs(u - v) * float(zeta(r)) ** (kappa - 1.0))
    assert_report(rep, indices, measured, bound, model.p)


@pytest.mark.parametrize("name,a,b", [("tvvma_kappa4_p2", 0, 1), ("tvvar1_p3", 2, 0)])
def test_partial_smoothness_gap_matches_pair_loop(name, a, b):
    model = nc.get_reference_model(name)
    n, t_lo, t_hi, kappa = 200, 98, 102, 4.0
    rep = nc.partial_smoothness_gap(model, n, a, b, t_lo, t_hi, kappa=kappa)
    c = nc.cov_window(model, n, t_lo - nc.cov_pad(model), t_hi + nc.cov_pad(model))
    pair = nc.partial_cov_pair(c, a, b, pad=nc.cov_pad(model))
    self_a = nc.self_partial_cov(c, a, pad=nc.cov_pad(model))
    length = pair.length
    max_lag = length - 1
    pad = nc.cov_pad(model)
    half = max_lag + pad

    def frozen_self_lags(u):
        w = nc.stationary_window(model, u, -half, half)
        return nc.self_partial_cov(w, a, pad)[:, max_lag]

    idx, meas_pair, meas_self, bound = [], [], [], []
    for ti in range(length):
        t = t_lo + ti
        frozen_pair = nc.stationary_partial_pair(model, t / n, a, b, max_lag)
        frozen_self = frozen_self_lags(t / n)
        for tj in range(length):
            tau = t_lo + tj
            r = t - tau
            zr = float(zeta(r))
            idx.append((t, tau))
            meas_pair.append(np.linalg.norm(pair.deltas[ti, tj] - frozen_pair.delta(r), 2))
            meas_self.append(abs(float(self_a[ti, tj]) - float(frozen_self[r + max_lag])))
            bound.append(zr ** (kappa - 2.0) * min(1.0 / n, zr))
    assert_report(rep.pair_gaps, idx, meas_pair, bound, 2)
    assert_report(rep.self_gaps, idx, meas_self, bound, 1)

    u, v = rep.u_pair
    assert (u, v) == (t_lo / n, t_hi / n)
    pu = nc.stationary_partial_pair(model, u, a, b, max_lag)
    pv = nc.stationary_partial_pair(model, v, a, b, max_lag)
    su = frozen_self_lags(u)
    sv = frozen_self_lags(v)
    lags = list(range(-max_lag, max_lag + 1))
    lip_bound = [abs(u - v) * float(zeta(r)) ** (kappa - 1.0) for r in lags]
    pair_lip = [np.linalg.norm(pu.delta(r) - pv.delta(r), 2) for r in lags]
    assert_report(rep.pair_lipschitz, lags, pair_lip, lip_bound, 2)
    assert_report(rep.self_lipschitz, lags, np.abs(su - sv), lip_bound, 1)


@pytest.mark.parametrize("order", [0, 1, 6])
def test_baxter_gaps_match_lag_loop(order):
    model = nc.get_reference_model("tvvma_kappa4_p2")
    n, t_index, kappa = 200, 100, 4.0
    rep = nc.baxter_gaps(model, n, t_index, order, kappa=kappa)
    finite = nc.var_coeffs_finite(model, n, t_index, order)
    infinite = nc.var_coeffs_infinite(model, n, t_index, max(order, 40))
    zd = float(zeta(order)) ** (kappa - 1.5)
    indices, measured, bound = [], [], []
    for j in range(1, order + 1):
        indices.append(j)
        measured.append(np.linalg.norm(finite.phis[j - 1] - infinite.phis[j - 1], 2))
        bound.append(zd * float(zeta(order - j)) ** (kappa - 1.5))
    assert_report(rep.per_lag, indices, measured, bound, 2)
    assert rep.summed.indices == [order]
    assert_ulps(rep.summed.measured, [sum(measured)], 8 + order)
    assert_ulps(rep.summed.bound, [zd], 0)


@pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "tvvar1_p3"])
def test_var_smoothness_gap_matches_lag_loop(name):
    model = nc.get_reference_model(name)
    n, t_index, order, kappa = 200, 100, 5, 4.0
    rep = nc.var_smoothness_gap(model, n, t_index, order, kappa=kappa)
    array_fit = nc.var_coeffs_infinite(model, n, t_index, order, depth=order + 100)
    frozen_fit = nc.stationary_var_coeffs_infinite(model, t_index / n, order,
                                                   depth=order + 100)
    sigma_gap = np.linalg.norm(array_fit.sigma - frozen_fit.sigma, 2)
    indices, measured, bound = [], [], []
    for j in range(1, order + 1):
        zj = float(zeta(j))
        indices.append(j)
        measured.append(np.linalg.norm(array_fit.phis[j - 1] - frozen_fit.phis[j - 1], 2))
        bound.append(zj ** (kappa - 2.0) * min(2.0 * zj, 1.0 / n))
    assert_ulps(rep.sigma_gap, sigma_gap, 4 * model.p)
    assert_ulps(rep.sigma_constant, sigma_gap * n, 4 * model.p + 1)
    assert_report(rep.phi_gaps, indices, measured, bound, model.p)


def test_gap_report_derives_its_constants():
    measured, bound = np.array([0.5, 2.0, 0.0]), np.array([1.0, 4.0, 0.0])
    rep = GapReport(indices=[0, 1, 2], measured=measured, bound=bound)
    assert rep.constant_estimate == envelope_constant(measured, bound) == 0.5
    assert rep.alt_bound is None and rep.alt_constant is None
    alt = np.array([0.25, 1.0, 1.0])
    rep = GapReport(indices=[0, 1, 2], measured=measured, bound=bound, alt_bound=alt)
    assert rep.alt_constant == envelope_constant(measured, alt) == 2.0


def test_gap_report_constant_is_inf_where_the_bound_vanishes():
    rep = GapReport(indices=[0, 1], measured=[1e-3, 1.0], bound=[0.0, 1.0])
    assert rep.constant_estimate == np.inf


def test_gap_report_refuses_a_handed_in_constant():
    with pytest.raises(TypeError):
        GapReport(indices=[0], measured=[1.0], bound=[1.0], constant_estimate=1.0)
    with pytest.raises(TypeError):
        GapReport(indices=[0], measured=[1.0], bound=[1.0], alt_bound=[1.0],
                  alt_constant=1.0)
