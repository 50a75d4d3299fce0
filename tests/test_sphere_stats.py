"""Closed-form spread estimates, Monte-Carlo nearest-neighbor check, and
the spread trackers."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from lh2.errors import DomainError
from lh2.sphere_stats import (evt_estimate, monte_carlo_pairwise,
                              proxy_spread_trackers, sns_tracker)
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
    assert est["cos_min"] == pytest.approx(EVT_COS, rel=1e-12)
    assert est["theta_min_deg"] == pytest.approx(EVT_DEG, rel=1e-12)
    assert est["std_cos"] == pytest.approx(EVT_STD, rel=1e-12)
    assert est["theta_min_rad"] == pytest.approx(math.radians(est["theta_min_deg"]),
                                                 rel=1e-12)
    assert math.cos(est["theta_min_rad"]) == pytest.approx(est["cos_min"], rel=1e-12)
    # headline bands
    assert abs(est["cos_min"] - 0.2089) <= 0.0005
    assert abs(est["theta_min_deg"] - 77.94) <= 0.05
    assert abs(est["std_cos"] - 0.0442) <= 0.0001


def test_half_quarter_reference_point():
    est = evt_estimate(70722, 512)
    half, quarter = est["cos_half"], est["cos_quarter"]
    assert half == pytest.approx(EVT_HALF, rel=1e-12)
    assert quarter == pytest.approx(EVT_QUARTER, rel=1e-12)
    assert abs(half - 0.78) <= 0.01
    assert abs(quarter - 0.94) <= 0.005


def test_half_quarter_degenerate_angles():
    # 2 ln C / d is exactly 1 here: the minimum angle closes to zero
    flat = evt_estimate(int(math.exp(50)), 100)
    assert flat["theta_min_rad"] == 0.0
    assert (flat["cos_min"], flat["cos_half"], flat["cos_quarter"]) == (1.0, 1.0, 1.0)


def test_evt_out_of_range():
    with pytest.raises(DomainError, match="breaks down"):
        evt_estimate(3, 2)                    # 2 ln 3 > 2
    with pytest.raises(DomainError):
        evt_estimate(1, 128)
    with pytest.raises(DomainError):
        evt_estimate(100, 1)


def test_evt_monotonicity():
    d = 256
    cs = [10, 100, 1000, 10000]
    vals = [evt_estimate(c, d)["cos_min"] for c in cs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    C = 100
    ds = [16, 64, 256, 1024]
    vals = [evt_estimate(C, d)["cos_min"] for d in ds]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_std_cos_closed_form():
    for d in (2, 32, 512):
        assert evt_estimate(2, d)["std_cos"] == math.sqrt(1.0 / d)


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


def test_mc_across_row_blocks_matches_whole_gram():
    # 2 000 000 // 1500 = 1333 rows a block: two blocks, the second partial
    res = monte_carlo_pairwise(1500, 4, 2, 5)
    want = oracles.whole_gram_pairwise(1500, 4, 2, 5)
    assert res["max_cos_mean"] == pytest.approx(want["max_cos_mean"], rel=1e-12)
    assert res["std_cos_emp"] == pytest.approx(want["std_cos_emp"], rel=1e-9)
    assert res["mean_cos_emp"] == pytest.approx(want["mean_cos_emp"], abs=1e-12)
    assert res["pairs"] == want["pairs"]


def test_mc_memory_does_not_grow_with_trials():
    monte_carlo_pairwise(2, 2, 2, 0)                  # warm-up: imports, caches
    tracemalloc.start()
    try:
        monte_carlo_pairwise(2, 2, 2000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_mc_domain_errors():
    with pytest.raises(DomainError):
        monte_carlo_pairwise(100, 8, 0, 0)
    with pytest.raises(DomainError):
        monte_carlo_pairwise(1, 8, 2, 0)
    with pytest.raises(DomainError):
        monte_carlo_pairwise(10000, 1000, 11, 0)      # 1.1e8 scalars
    # one error names each product over its cap, and only those
    for C, d, trials, over in (
            (3_000_000, 30, 1, ["C*d", "trials*C^2", "trials*C^2*d"]),  # 9e12 cosines
            (20_000, 2, 100, ["trials*C^2"]),           # 4e10 cosines at d = 2
            (65_536, 256, 1, ["trials*C^2*d"]),         # 2^40 multiply-adds only
            (2, 8_388_609, 1, ["C*d"])):                # one sample over MAX_WORK only
        with pytest.raises(DomainError) as info:
            monte_carlo_pairwise(C, d, trials, 0)
        assert re.findall(r"(\S+) = \d+ exceeds", str(info.value)) == over


def test_mc_rejects_over_cap_work_before_allocating(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            monte_carlo_pairwise(3_000_000, 30, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("C, d, trials", [
    (5000, 256, 10),        # the acceptance test's largest case: 2.5e8 cosines
    (1000, 128, 10),        # the README's
    (4096, 4096, 1),        # one sample of exactly MAX_WORK
    (65_536, 2, 1),         # exactly 2^32 cosines
    (8192, 2048, 1),        # exactly 2^37 multiply-adds
])
def test_mc_accepts_work_up_to_every_cap(monkeypatch, C, d, trials):
    # the caps are checked before the seed is expanded: stop the run there
    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(np.random, "SeedSequence", started)
    with pytest.raises(Started):
        monte_carlo_pairwise(C, d, trials, 0)


# ---------------------------------------------------------------------------
# spread trackers

def _equal_cos_rows(k: int, d: int, t: float) -> np.ndarray:
    # v_i = sqrt(t) u + sqrt(1-t) e_i gives v_i . v_j = t for all i != j
    rows = np.zeros((k, d))
    rows[:, 0] = math.sqrt(t)
    for i in range(k):
        rows[i, 1 + i] = math.sqrt(1.0 - t)
    return rows


def _padded(rows: np.ndarray, C: int) -> ProxyMatrix:
    """The given unit rows, then random unit rows up to C proxies."""
    rest = np.random.default_rng(0).standard_normal((C - len(rows), rows.shape[1]))
    return ProxyMatrix(np.vstack([rows, rest / np.linalg.norm(rest, axis=1, keepdims=True)]))


def _spread(proxies: ProxyMatrix, sel) -> dict:
    """The spread trackers over the Gram of the selected proxies."""
    return proxy_spread_trackers(proxies, proxies.selection_gram(np.asarray(sel))[1])


def test_trackers_orthogonal_selection():
    out = _spread(ProxyMatrix(np.eye(6)), np.arange(4))
    assert out == {"std": 0.0, "std_mean": 0.0}


def test_trackers_all_pairs_at_threshold():
    C, d = 16, 8
    thr = math.sqrt(min(2.0 * math.log(C) / d, 1.0))
    out = _spread(_padded(_equal_cos_rows(5, d, thr), C), np.arange(5))
    assert out["std"] == pytest.approx(thr, rel=1e-12)
    assert out["std_mean"] <= 1e-7


def test_trackers_single_pair_above_threshold():
    C, d = 16, 8
    thr = math.sqrt(min(2.0 * math.log(C) / d, 1.0))
    out = _spread(_padded(_equal_cos_rows(2, d, 0.95), C), np.arange(2))
    assert out["std"] == pytest.approx(0.95, rel=1e-12)
    assert out["std_mean"] == pytest.approx(0.95 - thr, rel=1e-9)


def test_trackers_threshold_clamps_at_one():
    # 2 ln 200 / 8 > 1 clamps the threshold to 1, so nothing can exceed it
    out = _spread(_padded(_equal_cos_rows(3, 8, 0.99), 200), np.arange(3))
    assert out["std_mean"] == 0.0


def test_trackers_small_selection():
    assert _spread(ProxyMatrix(np.eye(4)), [2]) == \
        {"std": 0.0, "std_mean": 0.0}


def test_trackers_uniform_high_dim_std():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((1000, 512))
    out = _spread(ProxyMatrix.from_rows(w), np.arange(1000))
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
        out = _spread(ProxyMatrix.from_rows(w), sel)
        assert out["std"] == pytest.approx(math.sqrt(sq / n), rel=1e-12)
        assert out["std_mean"] == pytest.approx(math.sqrt(ex / n), rel=1e-12, abs=1e-15)
