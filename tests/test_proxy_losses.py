"""Absolute-distance regularizers, epoch-mid schedule, combined total."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lh2 import proxy_losses
from lh2.errors import ConfigError
from lh2.io_formats import RunConfig
from lh2.proxy_losses import (EpochMidState, end_epoch, observe_positive_cosines,
                              pns_loss, pp_loss, pp_selection, positive_cosines,
                              pps_loss, proxy_based_total, sns_loss)
from lh2.uamf import EmbeddingBatch, ProxyMatrix

import oracles

CFG = RunConfig()
SNS_CFG = RunConfig(lambda_sns=150.0)      # sns is off at the default 0


def _unit_rows(rng, c, d):
    w = rng.standard_normal((c, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _random_instance(seed, N=4, C=5, d=4):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((N, d)) * rng.uniform(0.5, 10.0, (N, 1))
    y = rng.integers(0, C, N)
    W = _unit_rows(rng, C, d)
    return EmbeddingBatch(z, y), ProxyMatrix(W)


# ---------------------------------------------------------------------------
# config and mid state

def test_config_validation():
    # the losses read the run config itself, so a bad weight fails wherever
    # the config is built, not only when it comes from a file
    assert proxy_losses.ProxyLossConfig is RunConfig
    with pytest.raises(ConfigError, match="cos_min .* cos_max"):
        RunConfig(cos_min=0.9, cos_max=0.5)
    with pytest.raises(ConfigError, match="bad value for 'cos_max'"):
        RunConfig(cos_max=1.5)
    with pytest.raises(ConfigError, match="bad value for 'lambda_pp'"):
        RunConfig(lambda_pp=-1.0)
    with pytest.raises(ConfigError, match="bad value for 'lambda_pps'"):
        RunConfig(lambda_pps=-1.0)
    with pytest.raises(ConfigError, match="bad value for 'lambda_sns'"):
        RunConfig(lambda_sns=float("nan"))


def test_initial_mid_is_cos_min():
    assert EpochMidState.initial(CFG).mid == 0.5
    assert EpochMidState.initial(RunConfig(cos_min=0.6)).mid == 0.6


def test_end_epoch_clipping():
    low = EpochMidState(mid=0.5, acc_sum=0.3, acc_count=1)
    assert end_epoch(low, CFG).mid == 0.5
    high = EpochMidState(mid=0.5, acc_sum=0.95, acc_count=1)
    assert end_epoch(high, CFG).mid == 0.9
    inside = EpochMidState(mid=0.5, acc_sum=1.4, acc_count=2)
    assert end_epoch(inside, CFG).mid == pytest.approx(0.7)


def test_end_epoch_empty_accumulator_keeps_mid():
    state = end_epoch(EpochMidState(mid=0.73), CFG)
    assert state.mid == 0.73
    assert state.acc_count == 0


@given(st.floats(-2.0, 2.0), st.integers(1, 100))
def test_end_epoch_always_in_band(mean, count):
    state = EpochMidState(mid=0.5, acc_sum=mean * count, acc_count=count)
    assert 0.5 <= end_epoch(state, CFG).mid <= 0.9


def test_observe_modes():
    batch, proxies = _random_instance(0)
    state = EpochMidState.initial(CFG)
    cos = pps_loss(batch, proxies, state, CFG).stats["positive_cos"]
    np.testing.assert_array_equal(cos, positive_cosines(batch, proxies))
    full = observe_positive_cosines(state, cos)
    assert full.acc_count == 4
    assert full.acc_sum == pytest.approx(float(np.sum(cos)))


# ---------------------------------------------------------------------------
# pps

def test_pps_single_sample_example():
    # cos(z, W_0) = 0.4 below mid 0.5
    z = np.array([[0.4, np.sqrt(1.0 - 0.16), 0.0]]) * 3.0
    batch = EmbeddingBatch(z, np.array([0]))
    proxies = ProxyMatrix(np.eye(3)[:1])
    rep = pps_loss(batch, proxies, EpochMidState(mid=0.5), CFG)
    assert rep.total == pytest.approx(0.05, rel=1e-12)
    assert set(rep.stats) == {"below_frac", "positive_cos"}
    assert rep.stats["below_frac"] == 1.0
    assert rep.stats["positive_cos"] == pytest.approx([0.4], rel=1e-12)


def test_pps_zero_when_all_above_mid():
    z = np.array([[5.0, 0.1], [4.0, -0.2]])
    batch = EmbeddingBatch(z, np.array([0, 0]))
    rep = pps_loss(batch, ProxyMatrix(np.array([[1.0, 0.0]])),
                   EpochMidState(mid=0.5), CFG)
    assert rep.total == 0.0
    assert rep.stats["below_frac"] == 0.0
    np.testing.assert_array_equal(rep.grad_z, np.zeros_like(z))


def test_pps_matches_scalar_oracle():
    for seed in range(10):
        batch, proxies = _random_instance(seed)
        state = EpochMidState(mid=0.6)
        rep = pps_loss(batch, proxies, state, CFG)
        cos = positive_cosines(batch, proxies)
        want = oracles.scalar_pps(cos, state.mid, CFG.lambda_pps)
        assert rep.total == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert rep.stats["below_frac"] == np.mean(cos < state.mid)


# ---------------------------------------------------------------------------
# pns

def test_pns_orthogonal_is_zero():
    batch = EmbeddingBatch(np.array([[3.0, 0.0, 0.0]]), np.array([0]))
    proxies = ProxyMatrix(np.eye(3)[:2])               # negative proxy is e1
    assert pns_loss(batch, proxies, CFG).total == 0.0


def test_pns_single_negative_example():
    # cos to the only negative proxy = 0.5
    z = np.array([[np.sqrt(1.0 - 0.25), 0.5, 0.0]]) * 7.0
    batch = EmbeddingBatch(z, np.array([0]))
    rep = pns_loss(batch, ProxyMatrix(np.eye(3)[:2]), CFG)
    assert rep.total == pytest.approx(5.0, rel=1e-12)


def test_pns_degenerate_single_class():
    batch = EmbeddingBatch(np.ones((2, 3)), np.zeros(2, dtype=int))
    rep = pns_loss(batch, ProxyMatrix(np.eye(3)[:1]), CFG)
    assert rep.total == 0.0
    assert rep.stats == {}
    np.testing.assert_array_equal(rep.grad_z, np.zeros((2, 3)))


def test_pns_matches_scalar_oracle():
    for seed in range(10):
        batch, proxies = _random_instance(seed)
        rep = pns_loss(batch, proxies, CFG)
        want = oracles.scalar_pns(batch.z, batch.labels, proxies.W,
                                  CFG.lambda_pns)
        assert rep.total == pytest.approx(want, rel=1e-12)


def test_pns_gradients_50_seeds():
    for seed in range(50):
        batch, proxies = _random_instance(seed, N=3, C=4, d=3)
        rep = pns_loss(batch, proxies, CFG)
        fd_z = oracles.fd_grad(
            lambda zz: pns_loss(EmbeddingBatch(zz, batch.labels), proxies,
                                CFG).total, batch.z)
        fd_W = oracles.fd_grad(
            lambda ww: pns_loss(batch, ProxyMatrix.from_rows(ww), CFG).total, proxies.W)
        assert oracles.rel_err(rep.grad_z, fd_z) <= 1e-6
        assert oracles.rel_err(rep.grad_W, fd_W) <= 1e-6


# ---------------------------------------------------------------------------
# pp

def test_pp_orthogonal_pair_zero():
    rep = pp_loss(np.array([0, 1]), ProxyMatrix(np.eye(2)), CFG,
                  np.random.default_rng(0))
    assert rep.total == 0.0
    assert rep.grad_z is None


def test_pp_identical_direction_pair():
    w = np.array([[0.6, 0.8], [0.6, 0.8]])             # distinct rows, same axis
    rep = pp_loss(np.array([0, 1]), ProxyMatrix(w), CFG,
                  np.random.default_rng(0))
    assert rep.total == pytest.approx(CFG.lambda_pp, rel=1e-12)


def test_pp_selection_union_semantics():
    C = 40
    labels = np.array([3, 3, 17])
    rng = np.random.default_rng(5)
    sel = pp_selection(labels, C, rng)
    assert np.array_equal(sel, np.unique(sel))         # sorted, deduplicated
    assert {3, 17}.issubset(set(sel.tolist()))
    assert len(sel) <= len(labels) + 2


def test_pp_selection_is_the_union_of_labels_and_one_draw():
    for seed in range(200):
        rng = np.random.default_rng([seed, 7])
        C = int(rng.choice([2, 3, 5, 40]))
        N = int(rng.integers(1, 2 * C + 1))
        labels = (np.full(N, rng.integers(0, C)) if seed % 4 == 0
                  else rng.integers(0, C, N))
        sampled = np.random.default_rng(seed).choice(C, size=min(N, C), replace=False)
        sel = pp_selection(labels, C, np.random.default_rng(seed))
        np.testing.assert_array_equal(sel, np.union1d(np.unique(labels), sampled))
        assert sel.dtype == np.int64


def test_pp_pair_count_disjoint_sets():
    # labels supply 2 proxies; find a seed whose 3 samples miss them, then
    # the pair count is the full (3+2 choose 2)
    C, labels = 30, np.array([0, 1, 0])
    proxies = ProxyMatrix(_unit_rows(np.random.default_rng(2), C, 8))
    for seed in range(100):
        probe = pp_selection(labels, C, np.random.default_rng(seed))
        if len(probe) == 5:
            rep = pp_loss(labels, proxies, CFG, np.random.default_rng(seed))
            assert len(rep.stats["pp_gram"]) == 5
            rows = proxies.W[probe]
            cos = (rows @ rows.T)[np.triu_indices(5, 1)]
            assert rep.total == pytest.approx(CFG.lambda_pp * float(cos @ cos) / 10,
                                              rel=1e-12)
            break
    else:
        pytest.fail("no disjoint selection found in 100 seeds")


def test_pp_degenerate_cases():
    rep = pp_loss(np.array([0]), ProxyMatrix(np.eye(1)), CFG,
                  np.random.default_rng(0))
    assert rep.total == 0.0
    assert len(rep.stats["pp_gram"]) == 1
    # C = 2 with a single label can sample that same proxy: selection of 1
    for seed in range(50):
        if len(pp_selection(np.array([0]), 2, np.random.default_rng(seed))) == 1:
            rep = pp_loss(np.array([0]), ProxyMatrix(np.eye(2)), CFG,
                          np.random.default_rng(seed))
            assert rep.total == 0.0
            assert len(rep.stats["pp_gram"]) == 1
            break
    else:
        pytest.fail("no singleton selection found in 50 seeds")


def test_pp_matches_scalar_oracle_and_grad():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        C, d = 6, 4
        labels = rng.integers(0, C, 3)
        proxies = ProxyMatrix(_unit_rows(rng, C, d))
        rep = pp_loss(labels, proxies, CFG, np.random.default_rng(seed))
        sel = pp_selection(labels, C, np.random.default_rng(seed))
        want = oracles.scalar_pp(proxies.W, sel, CFG.lambda_pp)
        assert rep.total == pytest.approx(want, rel=1e-12, abs=1e-15)
        fd_W = oracles.fd_grad(
            lambda ww: pp_loss(labels, ProxyMatrix.from_rows(ww), CFG,
                               np.random.default_rng(seed)).total, proxies.W)
        assert oracles.rel_err(rep.grad_W, fd_W) <= 1e-6


# ---------------------------------------------------------------------------
# sns

def test_sns_orthogonal_zero():
    batch = EmbeddingBatch(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([0, 1]))
    assert sns_loss(batch, SNS_CFG).total == 0.0


def test_sns_identical_direction_pair():
    batch = EmbeddingBatch(np.array([[2.0, 0.0], [5.0, 0.0]]), np.array([0, 1]))
    rep = sns_loss(batch, SNS_CFG)
    assert rep.total == pytest.approx(150.0, rel=1e-12)
    assert rep.grad_W is None


def test_sns_single_label_zero():
    batch = EmbeddingBatch(np.ones((3, 2)), np.zeros(3, dtype=int))
    rep = sns_loss(batch, SNS_CFG)
    assert rep.total == 0.0
    assert rep.stats == {}


def test_sns_matches_scalar_oracle_and_grad():
    for seed in range(10):
        batch, _ = _random_instance(seed, N=5, C=3)
        rep = sns_loss(batch, SNS_CFG)
        want = oracles.scalar_sns(batch.z, batch.labels, 150.0)
        assert rep.total == pytest.approx(want, rel=1e-12, abs=1e-15)
        fd_z = oracles.fd_grad(
            lambda zz: sns_loss(EmbeddingBatch(zz, batch.labels), SNS_CFG).total,
            batch.z)
        assert oracles.rel_err(rep.grad_z, fd_z) <= 1e-6


# ---------------------------------------------------------------------------
# rescale invariance: cosines only

def test_rescale_invariance_power_of_two_exact():
    batch, proxies = _random_instance(42)
    doubled = EmbeddingBatch(2.0 * batch.z, batch.labels)
    state = EpochMidState(mid=0.6)
    assert pps_loss(doubled, proxies, state, CFG).total == \
        pps_loss(batch, proxies, state, CFG).total
    assert pns_loss(doubled, proxies, CFG).total == \
        pns_loss(batch, proxies, CFG).total
    assert sns_loss(doubled, SNS_CFG).total == sns_loss(batch, SNS_CFG).total


def test_rescale_invariance_general_factor():
    batch, proxies = _random_instance(43)
    tripled = EmbeddingBatch(3.0 * batch.z, batch.labels)
    state = EpochMidState(mid=0.6)
    for fn in (lambda b: pps_loss(b, proxies, state, CFG).total,
               lambda b: pns_loss(b, proxies, CFG).total,
               lambda b: sns_loss(b, SNS_CFG).total):
        assert fn(tripled) == pytest.approx(fn(batch), rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# combined total

def test_total_constructed_example():
    # one sample at cos 0.4 to its proxy and 0.5 to the lone negative:
    # pps = 5 (0.4 - 0.5)^2 = 0.05, pns = 20 * 0.25 / 1 = 5.0; orthogonal
    # proxies make pp zero whatever the selection
    z = np.array([[0.4, 0.5, np.sqrt(1.0 - 0.16 - 0.25)]]) * 9.0
    batch = EmbeddingBatch(z, np.array([0]))
    proxies = ProxyMatrix(np.eye(3)[:2])
    rep = proxy_based_total(batch, proxies, EpochMidState(mid=0.5), CFG,
                            np.random.default_rng(0))
    assert rep.terms["pps"] == pytest.approx(0.05, rel=1e-12)
    assert rep.terms["pns"] == pytest.approx(5.0, rel=1e-12)
    assert rep.terms["pp"] == 0.0
    assert rep.total == pytest.approx(5.05, rel=1e-12)
    assert "sns" not in rep.terms                      # lambda_sns is 0 by default


def test_total_additivity_and_sns_toggle():
    batch, proxies = _random_instance(7)
    state = EpochMidState(mid=0.6)
    rep = proxy_based_total(batch, proxies, state, SNS_CFG,
                            np.random.default_rng(11))
    parts = [pps_loss(batch, proxies, state, SNS_CFG),
             pns_loss(batch, proxies, SNS_CFG),
             pp_loss(batch.labels, proxies, SNS_CFG, np.random.default_rng(11)),
             sns_loss(batch, SNS_CFG)]
    assert rep.total == pytest.approx(sum(p.total for p in parts), rel=1e-14)
    assert rep.terms["sns"] == parts[3].total
    grad_z = parts[0].grad_z + parts[1].grad_z + parts[3].grad_z
    grad_W = parts[0].grad_W + parts[1].grad_W + parts[2].grad_W
    np.testing.assert_allclose(rep.grad_z, grad_z, rtol=1e-14, atol=0)
    np.testing.assert_allclose(rep.grad_W, grad_W, rtol=1e-14, atol=0)
    assert "pp_gram" in rep.stats
