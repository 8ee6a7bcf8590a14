"""Desk-scale verification battery.

One function per acceptance check, shared by the test suite and the
``verify-all`` CLI experiment so both report identical measurements.  Every
function is deterministic given its seed and returns a :class:`CheckResult`
with the pass verdict, the measured quantities, and flat table rows in the
report schema.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import models as md
from . import operator_core as oc
from . import partial_cov as pc
from . import inverse_analysis as ia
from . import var_extraction as vx
from .errors import DegenerateFitError
from .reference import ar1_model, reference_sre, reference_tvvar3, reference_tvvma


@dataclass
class CheckResult:
    """``wall_s`` is the check's wall time, set by :func:`run_all`; it is
    not part of the result's value."""

    name: str
    passed: bool
    details: dict
    rows: list = field(default_factory=list)
    wall_s: float = field(default=0.0, compare=False)


def table_row(kind: str, i, j, measured, envelope=0.0, constant=0.0, n=0) -> dict:
    return {"N": n, "kind": kind, "i": i, "j": j, "measured": float(measured),
            "envelope": float(envelope), "constant": float(constant)}


# ---------------------------------------------------------------------------
# criterion 1: interior inverse decay and window-stable envelope constant
# ---------------------------------------------------------------------------

def check_inverse_decay(model=None, n: int = 200, window: int = 240,
                        pad: int = 60) -> CheckResult:
    model = reference_tvvma() if model is None else model
    kappa = getattr(model, "kappa", None) or 4.0
    t_lo = -(window - n) // 2
    inv1 = ia.model_inverse_window(model, n, t_lo, t_lo + window - 1, pad=pad)
    fit1 = ia.inverse_decay_fit(inv1, kappa_ref=kappa)
    del inv1   # not held beside the doubled window
    t_lo2 = t_lo - window // 2
    inv2 = ia.model_inverse_window(model, n, t_lo2, t_lo2 + 2 * window - 1, pad=pad)
    fit2 = ia.inverse_decay_fit(inv2, kappa_ref=kappa)
    change = abs(fit2.constant - fit1.constant) / fit1.constant
    rows = [table_row("inv_decay_slope", window, 0, fit1.exponent, 2.5,
                 fit1.constant, n=n),
            table_row("inv_decay_slope", 2 * window, 0, fit2.exponent, 2.5,
                 fit2.constant, n=n),
            table_row("inv_decay_const_change", window, 2 * window, change, 0.10, n=n)]
    passed = fit1.exponent >= 2.5 and change <= 0.10
    return CheckResult("inverse_decay", passed,
                       {"slope": fit1.exponent, "constant": fit1.constant,
                        "doubled_constant": fit2.constant,
                        "constant_change": change}, rows)


# ---------------------------------------------------------------------------
# criterion 2: geometric bound on inverses of SPD block-banded instances
# ---------------------------------------------------------------------------

def random_spd_banded(rng, p: int, bandwidth: int, length: int):
    """Seeded SPD block-banded matrix and its eigenvalue range."""
    dim = length * p
    raw = rng.standard_normal((dim, dim))
    sym = 0.5 * (raw + raw.T)
    lag = np.abs(np.subtract.outer(np.arange(length), np.arange(length)))
    mask = np.kron((lag <= bandwidth).astype(float), np.ones((p, p)))
    banded = sym * mask
    vals = np.linalg.eigvalsh(banded)
    shift = abs(vals[0]) + rng.uniform(0.05, 1.0) * max(1.0, vals[-1] - vals[0])
    return banded + shift * np.eye(dim), float(vals[0] + shift), float(vals[-1] + shift)


def check_banded_inverse_soundness(seed: int = 20240811,
                                   count: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(count):
        p = int(rng.integers(1, 4))
        bw = int(rng.choice([1, 2, 4]))
        length = int(rng.integers(max(bw + 2, 10), 120 // p + 1))
        mat, a, b = random_spd_banded(rng, p, bw, length)
        inv = np.linalg.inv(mat)
        norms = oc.BlockWindow.from_flat(inv, p, symmetrize=True).norms()
        lags = np.subtract.outer(np.arange(length), np.arange(length))
        off = lags != 0
        measured = norms[off]
        bound = oc.demko_bound(a, b, bw, lags[off])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(bound > 0, measured / bound,
                             np.where(measured > 1e-13, math.inf, 0.0))
        worst = max(worst, float(ratio.max()))
        violations += int(np.count_nonzero(ratio > 1.0 + 1e-12))
    rows = [table_row("demko_violations", count, 0, violations, 0.0, worst)]
    return CheckResult("banded_inverse_soundness", violations == 0,
                       {"instances": count, "violations": violations,
                        "worst_ratio": worst}, rows)


# ---------------------------------------------------------------------------
# criterion 3: Neumann certificates dominate the true error
# ---------------------------------------------------------------------------

def check_neumann_certificates(model=None, seed: int = 7011,
                               count: int = 50, n: int = 200) -> CheckResult:
    model = reference_tvvma() if model is None else model
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        t0 = int(rng.integers(-40, 160))
        length = int(rng.integers(50, 91))
        bw = int(rng.choice([6, 8, 10, 12]))
        terms = int(rng.choice([3, 6, 10, 20]))
        draws.append((t0, length, bw, terms))
    # every section is cut from one window over their union; for a moving
    # average an entry depends only on its two times, so the cut equals the
    # section's own window (a recursive family's is started further back)
    t_lo = min(t0 for t0, *_ in draws)
    t_hi = max(t0 + length - 1 for t0, length, *_ in draws)
    union = md.cov_window(model, n, t_lo, t_hi)
    full, p = union.flatten(), union.p
    violations = 0
    worst = 0.0
    rows = []
    for i, (t0, length, bw, terms) in enumerate(draws):
        lo = (t0 - t_lo) * p
        c = oc.BlockWindow.from_flat(full[lo:lo + length * p, lo:lo + length * p], p,
                                     t_lo=t0, symmetrize=True)
        res = ia.neumann_inverse(c, bw, terms)
        dense = np.linalg.inv(c.flatten())
        true_err = float(np.linalg.norm(res.approx.flatten() - dense, 2))
        ratio = true_err / res.certificate
        worst = max(worst, ratio)
        if true_err > res.certificate:
            violations += 1
        rows.append(table_row("neumann_error", i, bw, true_err, res.certificate,
                         res.contraction_norm, n=n))
    return CheckResult("neumann_certificates", violations == 0,
                       {"instances": count, "violations": violations,
                        "worst_ratio": worst}, rows)


# ---------------------------------------------------------------------------
# criterion 4: analytic scalar AR(1) oracle
# ---------------------------------------------------------------------------

def check_ar1_analytic(phi: float = 0.5, sigma2: float = 1.0) -> CheckResult:
    model = ar1_model(phi, sigma2)
    inv = ia.model_inverse_window(model, 100, 0, 39, pad=60)
    diag_err = max(abs(inv.block(t, t)[0, 0] - (1 + phi**2) / sigma2)
                   for t in range(5, 35))
    off_err = max(abs(inv.block(t, t + 1)[0, 0] - (-phi / sigma2))
                  for t in range(5, 34))
    far_err = max(abs(inv.block(t, t + 2)[0, 0]) for t in range(5, 33))
    coeffs = vx.var_coeffs_infinite(model, 100, 20, order=6)
    phi_err = abs(coeffs.phis[0][0, 0] - phi)
    phi_tail = max(float(np.abs(p).max()) for p in coeffs.phis[1:])
    sigma_err = abs(coeffs.sigma[0, 0] - sigma2)
    worst = max(diag_err, off_err, far_err, phi_err, phi_tail, sigma_err)
    rows = [table_row("ar1_precision_diag", 0, 0, diag_err, 1e-8),
            table_row("ar1_precision_off", 0, 1, off_err, 1e-8),
            table_row("ar1_phi", 1, 0, phi_err, 1e-8),
            table_row("ar1_sigma", 0, 0, sigma_err, 1e-8)]
    return CheckResult("ar1_analytic", worst <= 1e-8,
                       {"worst_abs_error": worst}, rows)


# ---------------------------------------------------------------------------
# criterion 5: finite-projection gaps decrease; slope against the envelope
# ---------------------------------------------------------------------------

def check_baxter(model=None, n: int = 200, t_index: int = 100,
                 orders=(5, 10, 20, 40)) -> CheckResult:
    model = reference_tvvma() if model is None else model
    kappa = getattr(model, "kappa", None) or 4.0
    sums = {}
    rows = []
    for d in orders:
        rep = vx.baxter_gaps(model, n, t_index, d, ref_order=max(orders) + 20)
        sums[d] = float(rep.summed.measured[0])
        rows.append(table_row("baxter_sum", d, 0, sums[d], rep.summed.bound[0],
                         rep.summed.constant_estimate, n=n))
    ordered = [sums[d] for d in orders]
    decreasing = all(x > y for x, y in zip(ordered, ordered[1:]))
    d1, d2 = orders[-2], orders[-1]
    slope = math.log(sums[d1] / sums[d2]) / math.log(
        float(oc.zeta(d1)) / float(oc.zeta(d2)))
    lo, hi = kappa - 1.5 - 1.0, kappa - 1.5 + 1.0
    slope_ok = lo <= slope <= hi
    rows.append(table_row("baxter_slope", d1, d2, slope, hi, lo, n=n))
    return CheckResult("baxter_gaps", decreasing and slope_ok,
                       {"decreasing": decreasing, "slope": slope,
                        "slope_window_lo": lo, "slope_window_hi": hi,
                        "sums": {d: sums[d] for d in orders}}, rows)


# ---------------------------------------------------------------------------
# criterion 6: smoothness gaps halve in N; envelope constants stable
# ---------------------------------------------------------------------------

def check_smoothness(model=None, var_model=None,
                     ns=(100, 200, 400)) -> CheckResult:
    model = reference_tvvma() if model is None else model
    var_model = reference_tvvar3() if var_model is None else var_model
    rows = []
    sigma_gap, d_gap, delta_gap = {}, {}, {}
    d_const, p_const = {}, {}
    for n in ns:
        t = n // 2
        vrep = vx.var_smoothness_gap(model, n, t, order=10)
        sigma_gap[n] = vrep.sigma_gap
        irep = ia.inverse_smoothness_gap(model, n, t - 3, t + 3)
        d_gap[n] = max(m for (a, b), m in zip(irep.indices, irep.measured)
                       if a == b)
        d_const[n] = irep.constant_estimate
        prep = pc.partial_smoothness_gap(var_model, n, 0, 1, t - 2, t + 2,
                                         kappa=4.0)
        delta_gap[n] = max(m for (a, b), m in
                           zip(prep.pair_gaps.indices, prep.pair_gaps.measured)
                           if a == b)
        p_const[n] = prep.pair_gaps.constant_estimate
        rows += [table_row("sigma_gap", t, 0, sigma_gap[n], 1.0 / n,
                      vrep.sigma_constant, n=n),
                 table_row("inverse_gap_lag0", t, t, d_gap[n], 1.0 / n,
                      d_const[n], n=n),
                 table_row("partial_gap_lag0", t, t, delta_gap[n], 1.0 / n,
                      p_const[n], n=n)]
    ratios = {}
    for name, gaps in (("sigma", sigma_gap), ("inverse", d_gap),
                       ("partial", delta_gap)):
        for n1, n2 in zip(ns, ns[1:]):
            ratios[f"{name}_{n1}_{n2}"] = gaps[n1] / gaps[n2]
    halving = all(1.5 <= r <= 2.7 for r in ratios.values())
    stability = {}
    for name, consts in (("inverse", d_const), ("partial", p_const)):
        vals = [consts[n] for n in ns]
        stability[name] = max(vals) / min(vals)
    stable = all(s <= 2.0 for s in stability.values())
    details = {"halving_ok": halving, "constants_stable": stable}
    details.update({f"ratio_{k}": v for k, v in ratios.items()})
    details.update({f"stability_{k}": v for k, v in stability.items()})
    return CheckResult("smoothness_transfer", halving and stable, details, rows)


# ---------------------------------------------------------------------------
# criterion 7: Schur partial covariance against the regression oracle
# ---------------------------------------------------------------------------

def regression_residual_oracle(flat: np.ndarray, keep: np.ndarray,
                               drop: np.ndarray) -> np.ndarray:
    """Population least squares via lstsq and the expanded quadratic.

    Independent of the Schur-complement code path: no block identity is
    used, only the projection normal equations.
    """
    if drop.size == 0:
        return flat[np.ix_(keep, keep)]
    g = flat[np.ix_(drop, drop)]
    cyx = flat[np.ix_(keep, drop)]
    beta = np.linalg.lstsq(g, cyx.T, rcond=None)[0].T
    cyy = flat[np.ix_(keep, keep)]
    return cyy - beta @ cyx.T - cyx @ beta.T + beta @ g @ beta.T


def check_partial_oracle(seed: int = 3407, count: int = 100, p: int = 3,
                         length: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_diff = 0.0
    worst_slack = 0.0
    for _ in range(count):
        dim = length * p
        raw = rng.standard_normal((dim, dim + 8))
        flat = raw @ raw.T / dim + 0.5 * np.eye(dim)
        w = oc.BlockWindow.from_flat(flat, p, symmetrize=True)
        a, b = sorted(rng.choice(p, size=2, replace=False).tolist())
        pair = pc.partial_cov_pair(w, a, b)
        keep = np.concatenate([np.arange(length) * p + a,
                               np.arange(length) * p + b])
        others = sorted(set(range(p)) - {a, b})
        drop = np.concatenate([np.arange(length) * p + o for o in others]) \
            if others else np.array([], dtype=int)
        oracle = regression_residual_oracle(w.flatten(), keep, drop)
        got = np.empty_like(oracle)
        got[:length, :length] = pair.deltas[:, :, 0, 0]
        got[:length, length:] = pair.deltas[:, :, 0, 1]
        got[length:, :length] = pair.deltas[:, :, 1, 0]
        got[length:, length:] = pair.deltas[:, :, 1, 1]
        worst_diff = max(worst_diff, float(np.abs(got - oracle).max()))
        times = np.arange(length)
        raw22 = w.blocks[times, times][:, [[a], [b]], [a, b]]
        slack = float(np.linalg.eigvalsh(raw22 - pair.deltas[times, times])[:, 0].min())
        worst_slack = min(worst_slack, slack)
    passed = worst_diff <= 1e-8 and worst_slack >= -1e-10
    rows = [table_row("partial_oracle_diff", count, 0, worst_diff, 1e-8),
            table_row("partial_spd_slack", count, 0, abs(worst_slack), 1e-10)]
    return CheckResult("partial_oracle", passed,
                       {"worst_diff": worst_diff, "worst_spd_slack": worst_slack},
                       rows)


# ---------------------------------------------------------------------------
# criterion 8: assembled partial coherence tracks the frozen coherence
# ---------------------------------------------------------------------------

def check_coherence(var_model=None, ns=(200, 400), u: float = 0.3,
                    a: int = 0, b: int = 1, max_lag: int = 40,
                    omega_points: int = 65) -> CheckResult:
    var_model = reference_tvvar3() if var_model is None else var_model
    omegas = np.linspace(0.0, 2.0 * math.pi, omega_points, endpoint=False)
    sup = {}
    rows = []
    for n in ns:
        rep = pc.coherence_consistency_gap(var_model, n, int(round(u * n)),
                                           a, b, omegas, max_lag=max_lag)
        sup[n] = rep.sup_gap
        rows.append(table_row("coherence_sup_gap", a, b, sup[n], 1.0 / n,
                         rep.imag_residue, n=n))
        for w, val in zip(omegas, rep.assembled):
            rows.append(table_row("coherence_re", float(w), 0, val.real, n=n))
            rows.append(table_row("coherence_im", float(w), 0, val.imag, n=n))
            rows.append(table_row("coherence_abs", float(w), 0, abs(val), n=n))
    if sup[ns[1]] == 0.0:
        raise DegenerateFitError(f"check_coherence: no rate, the gap at N={ns[1]} is 0")
    ratio = sup[ns[0]] / sup[ns[1]]
    within_baseline = sup[ns[0]] <= 2.0 * sup[ns[1]]
    ratio_ok = 1.4 <= ratio <= 2.8
    rows.append(table_row("coherence_ratio", ns[0], ns[1], ratio, 2.8, 1.4))
    return CheckResult("coherence_consistency", within_baseline and ratio_ok,
                       {"sup_gap": sup[ns[0]], "baseline": sup[ns[1]],
                        "ratio": ratio}, rows)


# ---------------------------------------------------------------------------
# criterion 9: eigenvalue range of long sections inside the spectral range
# ---------------------------------------------------------------------------

def check_eigenvalue_sandwich(model=None, var_model=None, n: int = 200,
                              length: int = 220) -> CheckResult:
    model = reference_tvvma() if model is None else model
    var_model = reference_tvvar3() if var_model is None else var_model
    u_grid = np.linspace(0.0, 1.0, 41)
    omega_grid = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    rows = []
    ok = True
    margins = {}
    for tag, m in (("ma", model), ("ar", var_model)):
        srange = md.spectral_eig_range(m, u_grid, omega_grid)
        sec = oc.sym_eig_range(md.cov_window(m, n, 0, length - 1))
        froz = oc.sym_eig_range(md.stationary_window(m, 0.37, 0, length - 1))
        lo_ok = min(sec.lambda_min, froz.lambda_min) >= srange.lambda_min - 0.1
        hi_ok = max(sec.lambda_max, froz.lambda_max) <= srange.lambda_max + 0.1
        ok = ok and lo_ok and hi_ok
        margins[f"{tag}_low_margin"] = min(sec.lambda_min, froz.lambda_min) \
            - (srange.lambda_min - 0.1)
        margins[f"{tag}_high_margin"] = (srange.lambda_max + 0.1) \
            - max(sec.lambda_max, froz.lambda_max)
        rows += [table_row(f"eig_section_{tag}", 0, 0, sec.lambda_min,
                      srange.lambda_min, srange.lambda_max, n=n),
                 table_row(f"eig_section_{tag}", 0, 1, sec.lambda_max,
                      srange.lambda_min, srange.lambda_max, n=n)]
    return CheckResult("eigenvalue_sandwich", ok, margins, rows)


# ---------------------------------------------------------------------------
# criterion 10: coupled-difference decay of the recurrence model
# ---------------------------------------------------------------------------

def check_physical_dependence(sre_model=None, n: int = 200, t_index: int = 100,
                              js=tuple(range(1, 9)), reps: int = 5000,
                              seed: int = 515) -> CheckResult:
    sre_model = reference_sre() if sre_model is None else sre_model
    rho = sre_model.contraction_bound()
    values = []
    rows = []
    for j in js:
        est = md.physical_dep_estimate(sre_model, n, t_index, j, reps=reps,
                                       seed=seed + j)
        values.append(est.value)
        rows.append(table_row("physical_dep", j, 0, est.value, est.stderr, n=n))
    slope = float(np.polyfit(js, np.log(values), 1)[0])
    limit = math.log(math.sqrt(0.25)) + 0.2
    rows.append(table_row("physical_slope", js[0], js[-1], slope, limit, rho, n=n))
    return CheckResult("physical_dependence", slope <= limit,
                       {"slope": slope, "limit": limit,
                        "contraction_bound": rho}, rows)


# ---------------------------------------------------------------------------
# criterion 11: matrix Cauchy-Schwarz and convolution bounds
# ---------------------------------------------------------------------------

#: Chunk length of :func:`_shifted_dots`: a chunk of the grid and its
#: powers stays in cache across all the shifts.
_SHIFT_CHUNK = 4096


def _shifted_dots(weight, exponents, half: int, reach: int) -> np.ndarray:
    """``s[i, k] = x[reach:-reach] . x[k:k + 2*half + 1]`` for
    ``x = weight(j)**exponents[i]`` on the integers ``|j| <= half + reach``
    and every ``k = 0..2*reach``, accumulated over cache-sized chunks.

    Each chunk builds only its own slice of the grid, so the memory does not
    grow with ``half``; the weight is evaluated once per chunk for all the
    exponents.
    """
    width = 2 * half + 1
    sums = np.zeros((len(exponents), 2 * reach + 1))
    for lo in range(0, width, _SHIFT_CHUNK):
        hi = min(lo + _SHIFT_CHUNK, width)
        values = weight(np.arange(lo - half - reach, hi - half + reach, dtype=float))
        for row, exponent in zip(sums, exponents):
            x = values ** exponent
            row += np.correlate(x, x[reach:reach + hi - lo], "valid")
    return sums


def check_lemma_utilities(seed: int = 99, trials: int = 200,
                          grid_half: int = 10**6) -> CheckResult:
    rng = np.random.default_rng(seed)
    # (C_yx, V_x, V_y) of every trial, grouped by (px, py) so that each
    # group's norms come from one stacked block_norms call per matrix kind
    groups = {}
    for _ in range(trials):
        px = int(rng.integers(1, 5))
        py = int(rng.integers(1, 5))
        nsamp = int(rng.integers(20, 200))
        x = rng.standard_normal((nsamp, px)) @ rng.standard_normal((px, px))
        y = x @ rng.standard_normal((px, py)) + rng.standard_normal((nsamp, py))
        x -= x.mean(0)
        y -= y.mean(0)
        groups.setdefault((px, py), []).append(
            (y.T @ x / nsamp, x.T @ x / nsamp, y.T @ y / nsamp))
    worst_cs = -math.inf
    for group in groups.values():
        cxy, vx_, vy = (oc.block_norms(np.stack(kind)) for kind in zip(*group))
        worst_cs = max(worst_cs, float(np.max(cxy**2 - vx_ * vy)))
    cs_ok = worst_cs <= 1e-12

    powers = (2, 3, 4)
    gu_sums = _shifted_dots(oc.gu, [-k for k in powers], grid_half, 50)
    zeta_sums = _shifted_dots(oc.zeta, powers, grid_half, 50)
    worst_conv = 0.0
    for power, gu_row, zeta_row in zip(powers, gu_sums, zeta_sums):
        tail = 2.0 * (grid_half - 50.0) ** (1 - 2 * power) / (2 * power - 1)
        sums_gu = gu_row + tail
        sums_z = zeta_row + tail
        for y in range(-50, 51):
            s_gu, s_z = float(sums_gu[50 + y]), float(sums_z[50 + y])
            r1 = s_gu / ((math.pi**2 + 3) * float(oc.gu(abs(y) - 1)) ** (-power))
            r2 = s_z / (20.0 * float(oc.zeta(abs(y) - 1)) ** power)
            worst_conv = max(worst_conv, r1, r2)
    conv_ok = worst_conv <= 1.0
    rows = [table_row("cauchy_schwarz_excess", trials, 0, max(worst_cs, 0.0), 1e-12),
            table_row("convolution_ratio", 2 * grid_half + 1, 0, worst_conv, 1.0)]
    return CheckResult("lemma_utilities", cs_ok and conv_ok,
                       {"worst_cs_excess": worst_cs,
                        "worst_convolution_ratio": worst_conv}, rows)


ALL_CHECKS = (
    ("inverse_decay", check_inverse_decay, ("model",)),
    ("banded_inverse_soundness", check_banded_inverse_soundness, ()),
    ("neumann_certificates", check_neumann_certificates, ("model",)),
    ("ar1_analytic", check_ar1_analytic, ()),
    ("baxter_gaps", check_baxter, ("model",)),
    ("smoothness_transfer", check_smoothness, ("model", "var_model")),
    ("partial_oracle", check_partial_oracle, ()),
    ("coherence_consistency", check_coherence, ("var_model",)),
    ("eigenvalue_sandwich", check_eigenvalue_sandwich, ("model", "var_model")),
    ("physical_dependence", check_physical_dependence, ("sre_model",)),
    ("lemma_utilities", check_lemma_utilities, ()),
)


def run_all(model=None, var_model=None, sre_model=None, threads: int = 1,
            names=None) -> list[CheckResult]:
    """Run the verification battery (deterministic, order-preserving); each
    result carries its check's wall time in ``wall_s``."""
    kwargs_all = {"model": model, "var_model": var_model, "sre_model": sre_model}
    jobs = []
    for name, fn, wants in ALL_CHECKS:
        if names is not None and name not in names:
            continue
        kwargs = {k: kwargs_all[k] for k in wants if kwargs_all.get(k) is not None}
        jobs.append((name, fn, kwargs))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_timed, fn, kw) for _, fn, kw in jobs]
            return [f.result() for f in futures]
    return [_timed(fn, kw) for _, fn, kw in jobs]


def _timed(fn, kwargs: dict) -> CheckResult:
    start = time.perf_counter()
    result = fn(**kwargs)
    result.wall_s = time.perf_counter() - start
    return result
