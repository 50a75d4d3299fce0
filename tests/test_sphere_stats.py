"""Closed-form spread estimates, quantile approximations, Monte-Carlo
nearest-neighbor check, and the spread trackers."""

import math

import numpy as np
import pytest

from lh2.errors import DomainError, RangeError
from lh2.sphere_stats import (EvtEstimate, evt_estimate, half_quarter_cosines,
                              min_quantile, monte_carlo_pairwise,
                              normal_quantile_approx, proxy_spread_trackers,
                              sns_tracker)
from lh2.uamf import EmbeddingBatch, ProxyMatrix

import oracles

# minimum-angle estimate at (C, d) = (70722, 512), frozen from mpmath
EVT_COS = 0.20885207064315192
EVT_DEG = 77.9449108604106
EVT_STD = 0.04419417382415922
EVT_HALF = 0.7774484132864224
EVT_QUARTER = 0.942721701587065


# ---------------------------------------------------------------------------
# closed-form estimate

def test_evt_reference_point():
    est = evt_estimate(70722, 512)
    assert est.cos_min == pytest.approx(EVT_COS, rel=1e-12)
    assert est.theta_min_deg == pytest.approx(EVT_DEG, rel=1e-12)
    assert est.std_cos == pytest.approx(EVT_STD, rel=1e-12)
    assert est.theta_min_rad == pytest.approx(math.radians(est.theta_min_deg),
                                              rel=1e-12)
    assert math.cos(est.theta_min_rad) == pytest.approx(est.cos_min, rel=1e-12)
    # headline bands
    assert abs(est.cos_min - 0.2089) <= 0.0005
    assert abs(est.theta_min_deg - 77.94) <= 0.05
    assert abs(est.std_cos - 0.0442) <= 0.0001


def test_half_quarter_reference_point():
    half, quarter = half_quarter_cosines(evt_estimate(70722, 512))
    assert half == pytest.approx(EVT_HALF, rel=1e-12)
    assert quarter == pytest.approx(EVT_QUARTER, rel=1e-12)
    assert abs(half - 0.78) <= 0.01
    assert abs(quarter - 0.94) <= 0.005


def test_half_quarter_degenerate_angles():
    flat = EvtEstimate(C=2, d=2, cos_min=1.0, theta_min_rad=0.0,
                       theta_min_deg=0.0, std_cos=1.0)
    assert half_quarter_cosines(flat) == (1.0, 1.0)
    wide = EvtEstimate(C=2, d=2, cos_min=-1.0, theta_min_rad=math.pi,
                       theta_min_deg=180.0, std_cos=1.0)
    half, quarter = half_quarter_cosines(wide)
    assert half == pytest.approx(0.0, abs=1e-15)
    assert quarter == pytest.approx(math.cos(math.pi / 4.0), rel=1e-15)


def test_evt_out_of_range():
    with pytest.raises(RangeError):
        evt_estimate(3, 2)                    # 2 ln 3 > 2
    with pytest.raises(DomainError):
        evt_estimate(1, 128)
    with pytest.raises(DomainError):
        evt_estimate(100, 1)


def test_evt_monotonicity():
    d = 256
    cs = [10, 100, 1000, 10000]
    vals = [evt_estimate(c, d).cos_min for c in cs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    C = 100
    ds = [16, 64, 256, 1024]
    vals = [evt_estimate(C, d).cos_min for d in ds]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_std_cos_closed_form():
    for d in (2, 32, 512):
        assert evt_estimate(2, d).std_cos == math.sqrt(1.0 / d)


# ---------------------------------------------------------------------------
# quantile approximations

def test_quantile_exact_point():
    assert normal_quantile_approx(1.0 - math.exp(-2.0)) == \
        pytest.approx(2.0, rel=1e-12)


def test_quantile_tail_value_and_honest_gap():
    got = normal_quantile_approx(0.999)
    assert got == pytest.approx(oracles.TAIL_Q_999, rel=1e-12)
    # the tail formula overshoots the exact 0.999 quantile by ~20%; the
    # gap is a property of the formula, so pin it rather than hide it
    rel = got / oracles.PPF_999_EXACT - 1.0
    assert rel == pytest.approx(oracles.TAIL_Q_999_REL_ERR, rel=1e-10)
    assert 0.19 <= rel <= 0.21
    assert got > oracles.normal_ppf(0.999)


def test_quantile_monotone_and_domain():
    ps = [0.5, 0.9, 0.99, 0.999, 0.99999]
    vals = [normal_quantile_approx(p) for p in ps]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            normal_quantile_approx(p)


def test_min_quantile_reductions():
    for p in (0.01, 0.2, 0.7):
        assert min_quantile(p, 1) == -normal_quantile_approx(1.0 - p)
    for p, C in [(0.001, 1000), (0.05, 64), (0.4, 7)]:
        closed = -math.sqrt(2.0 * math.log(C / p))
        assert min_quantile(p, C) == pytest.approx(closed, rel=1e-9)
    # p -> 1 with large C approaches -sqrt(2 ln C)
    C = 10 ** 6
    assert min_quantile(0.999999, C) == \
        pytest.approx(-math.sqrt(2.0 * math.log(C)), rel=1e-6)
    with pytest.raises(DomainError):
        min_quantile(0.0, 10)
    with pytest.raises(DomainError):
        min_quantile(0.5, 0)


def test_min_quantile_against_exact_order_statistic():
    # exact p-quantile of min of C iid N(0,1): q with 1 - (1-Phi(q))^C = p.
    # the tail formula overshoots in magnitude; the gap stays under 12%
    # for these deep-tail points
    C = 1000
    for p in (1e-5, 1e-4, 1e-3):
        q_exact = oracles.normal_ppf(1.0 - (1.0 - p) ** (1.0 / C))
        back = 1.0 - (1.0 - oracles.normal_cdf(q_exact)) ** C
        assert abs(back - p) / p <= 1e-6          # oracle self-consistency
        q_app = min_quantile(p, C)
        assert q_app < q_exact
        assert abs(q_app - q_exact) / abs(q_exact) <= 0.12


# ---------------------------------------------------------------------------
# Monte-Carlo nearest-neighbor check

def test_mc_matches_closed_form_bands():
    res = monte_carlo_pairwise(1000, 128, 10, 0)
    formula = math.sqrt(2.0 * math.log(1000) / 128)
    assert abs(res["max_cos_mean"] - formula) / formula <= 0.15
    assert abs(res["std_cos_emp"] - math.sqrt(1.0 / 128)) / \
        math.sqrt(1.0 / 128) <= 0.07


def test_mc_std_and_mean_at_high_dim():
    res = monte_carlo_pairwise(200, 512, 10, 1)
    assert abs(res["std_cos_emp"] - math.sqrt(1.0 / 512)) <= 0.003
    assert abs(res["mean_cos_emp"]) <= 1e-3
    assert res["pairs"] == 10 * 200 * 199 // 2


def test_mc_tiny_case_bounds():
    res = monte_carlo_pairwise(2, 2, 3, 0)
    assert 0.0 <= res["max_cos_mean"] <= 1.0
    assert res["pairs"] == 3


def test_mc_determinism():
    a = monte_carlo_pairwise(50, 16, 4, 7)
    b = monte_carlo_pairwise(50, 16, 4, 7)
    assert a == b
    c = monte_carlo_pairwise(50, 16, 4, 8)
    assert c["max_cos_mean"] != a["max_cos_mean"]


def test_mc_agrees_with_direct_replay():
    # replay the documented sampling scheme naively and compare
    C, d, trials, seed = 50, 8, 2, 3
    res = monte_carlo_pairwise(C, d, trials, seed)
    nn_acc, cos_all = 0.0, []
    for trial_seed in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(trial_seed)
        x = rng.standard_normal((C, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        gram = x @ x.T
        for i in range(C):
            nn_acc += max(abs(gram[i, j]) for j in range(C) if j != i) / C
        cos_all.extend(gram[i, j] for i in range(C) for j in range(i + 1, C))
    assert res["max_cos_mean"] == pytest.approx(nn_acc / trials, rel=1e-12)
    assert res["std_cos_emp"] == pytest.approx(float(np.std(cos_all)), rel=1e-9)
    assert res["mean_cos_emp"] == pytest.approx(float(np.mean(cos_all)),
                                                rel=1e-9, abs=1e-12)
    assert res["pairs"] == trials * C * (C - 1) // 2


def test_mc_domain_errors():
    with pytest.raises(DomainError):
        monte_carlo_pairwise(100, 8, 0, 0)
    with pytest.raises(DomainError):
        monte_carlo_pairwise(1, 8, 2, 0)
    with pytest.raises(DomainError):
        monte_carlo_pairwise(10000, 1000, 11, 0)      # 1.1e8 scalars


# ---------------------------------------------------------------------------
# spread trackers

def _equal_cos_rows(k: int, d: int, t: float) -> np.ndarray:
    # v_i = sqrt(t) u + sqrt(1-t) e_i gives v_i . v_j = t for all i != j
    rows = np.zeros((k, d))
    rows[:, 0] = math.sqrt(t)
    for i in range(k):
        rows[i, 1 + i] = math.sqrt(1.0 - t)
    return rows


def test_trackers_orthogonal_selection():
    out = proxy_spread_trackers(ProxyMatrix(np.eye(6)), 6, 6, np.arange(4))
    assert out == {"std": 0.0, "std_mean": 0.0}


def test_trackers_all_pairs_at_threshold():
    C, d = 16, 8
    thr = math.sqrt(min(2.0 * math.log(C) / d, 1.0))
    rows = _equal_cos_rows(5, d, thr)
    out = proxy_spread_trackers(ProxyMatrix(rows), C, d, np.arange(5))
    assert out["std"] == pytest.approx(thr, rel=1e-12)
    assert out["std_mean"] <= 1e-7


def test_trackers_single_pair_above_threshold():
    C, d = 16, 8
    thr = math.sqrt(min(2.0 * math.log(C) / d, 1.0))
    rows = _equal_cos_rows(2, d, 0.95)
    out = proxy_spread_trackers(ProxyMatrix(rows), C, d, np.arange(2))
    assert out["std"] == pytest.approx(0.95, rel=1e-12)
    assert out["std_mean"] == pytest.approx(0.95 - thr, rel=1e-9)


def test_trackers_threshold_clamps_at_one():
    # 2 ln C / d > 1 clamps the threshold to 1, so nothing can exceed it
    rows = _equal_cos_rows(3, 8, 0.99)
    out = proxy_spread_trackers(ProxyMatrix(rows), 200, 2, np.arange(3))
    assert out["std_mean"] == 0.0


def test_trackers_small_selection():
    assert proxy_spread_trackers(ProxyMatrix(np.eye(4)), 4, 4, [2]) == \
        {"std": 0.0, "std_mean": 0.0}


def test_trackers_uniform_high_dim_std():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((1000, 512))
    out = proxy_spread_trackers(ProxyMatrix.from_rows(w), 1000, 512, np.arange(1000))
    assert abs(out["std"] - math.sqrt(1.0 / 512)) <= 0.005
    assert 0.0 <= out["std_mean"] <= 0.01


def test_sns_tracker_cases():
    orth = EmbeddingBatch(np.array([[2.0, 0.0], [0.0, 5.0]]), np.array([0, 1]))
    assert sns_tracker(orth) == 0.0
    same_dir = EmbeddingBatch(np.array([[1.0, 0.0], [3.0, 0.0]]),
                              np.array([0, 1]))
    assert sns_tracker(same_dir) == pytest.approx(1.0, rel=1e-12)
    one_label = EmbeddingBatch(np.random.default_rng(0).standard_normal((4, 3)),
                               np.zeros(4, dtype=int))
    assert sns_tracker(one_label) == 0.0


def test_sns_tracker_matches_direct_loop():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((7, 4)) * rng.uniform(0.5, 5.0, (7, 1))
    labels = rng.integers(0, 3, 7)
    zhat = z / np.linalg.norm(z, axis=1, keepdims=True)
    sq, n = 0.0, 0
    for i in range(7):
        for j in range(i + 1, 7):
            if labels[i] != labels[j]:
                sq += float(np.dot(zhat[i], zhat[j])) ** 2
                n += 1
    want = math.sqrt(sq / n)
    got = sns_tracker(EmbeddingBatch(z, labels))
    assert got == pytest.approx(want, rel=1e-12)
    scaled = sns_tracker(EmbeddingBatch(4.0 * z, labels))
    assert scaled == got


def test_proxy_spread_trackers_match_direct_loop():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        C, d = int(rng.integers(2, 40)), int(rng.integers(2, 12))
        # a shared offset puts some pairs above the threshold
        w = (rng.standard_normal((C, d)) + rng.uniform(0.0, 1.5)) \
            * rng.uniform(0.5, 5.0, (C, 1))
        sel = np.sort(rng.choice(C, size=int(rng.integers(2, C + 1)), replace=False))
        thr = math.sqrt(min(2.0 * math.log(C) / d, 1.0))
        wn = w / np.linalg.norm(w, axis=1, keepdims=True)
        sq = ex = 0.0
        n = 0
        for a in range(len(sel)):
            for b in range(a + 1, len(sel)):
                cos = float(np.dot(wn[sel[a]], wn[sel[b]]))
                sq += cos ** 2
                ex += max(cos - thr, 0.0) ** 2
                n += 1
        out = proxy_spread_trackers(ProxyMatrix.from_rows(w), C, d, sel)
        assert out["std"] == pytest.approx(math.sqrt(sq / n), rel=1e-12)
        assert out["std_mean"] == pytest.approx(math.sqrt(ex / n), rel=1e-12, abs=1e-15)
