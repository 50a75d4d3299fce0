"""Adaptive-margin softmax over vMF similarities and the norm tracker."""

import collections
import math

import numpy as np
import pytest

from lh2 import proxy_losses, sphere_math, uamf
from lh2.errors import DomainError
from lh2.uamf import (EmbeddingBatch, NormTracker, ProxyMatrix,
                      update_norm_tracker, uamf_loss)
from lh2.train_harness import _raw_proxies

import oracles


def _unit_rows(rng, c, d):
    w = rng.standard_normal((c, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# containers

def test_embedding_batch_validation():
    with pytest.raises(DomainError):
        EmbeddingBatch(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(DomainError):
        EmbeddingBatch(np.array([[1.0, np.nan]]), np.array([0]))
    with pytest.raises(DomainError):
        EmbeddingBatch(np.ones((2, 3)), np.array([0]))
    with pytest.raises(DomainError):
        EmbeddingBatch(np.ones((1, 3)), np.array([-1]))


def test_proxy_matrix_validation():
    with pytest.raises(DomainError):
        ProxyMatrix(np.array([[2.0, 0.0]]))
    with pytest.raises(DomainError):
        ProxyMatrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(DomainError):
        ProxyMatrix.from_rows(np.array([[0.0, 0.0]]))
    w = ProxyMatrix.from_rows(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(w.W, [[0.6, 0.8]])


# ---------------------------------------------------------------------------
# norm tracker

def test_tracker_alpha_one_copies_batch_mean():
    batch = EmbeddingBatch(np.diag([30.0, 30.0, 30.0]), np.arange(3))
    new, margin = update_norm_tracker(NormTracker(mu_norm=20.0, alpha=1.0), batch)
    assert new.mu_norm == 30.0
    assert margin == pytest.approx(10.5)


def test_tracker_alpha_zero_keeps_prior():
    batch = EmbeddingBatch(np.array([[123.0, 0.0]]), np.array([0]))
    new, margin = update_norm_tracker(NormTracker(mu_norm=20.0, alpha=0.0), batch)
    assert new.mu_norm == 20.0
    assert margin == pytest.approx(7.0)


def test_tracker_ema_step():
    batch = EmbeddingBatch(np.array([[30.0, 0.0]]), np.array([0]))
    new, margin = update_norm_tracker(NormTracker(mu_norm=20.0, alpha=0.1), batch)
    assert new.mu_norm == pytest.approx(21.0)
    assert margin == pytest.approx(7.35)
    assert new.alpha == 0.1


def test_tracker_validation():
    with pytest.raises(DomainError):
        NormTracker(mu_norm=20.0, alpha=1.5)
    with pytest.raises(DomainError):
        NormTracker(mu_norm=20.0, alpha=-0.1)
    with pytest.raises(DomainError):
        NormTracker(mu_norm=0.0)


# ---------------------------------------------------------------------------
# uamf_loss values

def test_single_class_loss_zero():
    batch = EmbeddingBatch(np.array([[5.0, 1.0]]), np.array([0]))
    rep = uamf_loss(batch, ProxyMatrix(np.array([[1.0, 0.0]])), 0.5, 1.0, 8)
    assert rep.total == 0.0
    np.testing.assert_array_equal(rep.grad_z, np.zeros((1, 2)))
    np.testing.assert_array_equal(rep.grad_W, np.zeros((1, 2)))


def test_two_class_hand_value():
    # aligned z, orthogonal negative: logit gap is exactly ||z|| = 10
    batch = EmbeddingBatch(np.array([[10.0, 0.0]]), np.array([0]))
    proxies = ProxyMatrix(np.eye(2))
    rep = uamf_loss(batch, proxies, 0.0, 1.0, 2)
    assert rep.total == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        N, C, d = 3, 5, 4
        n = int(rng.integers(2, 20))
        z = rng.standard_normal((N, d)) * rng.uniform(1.0, 15.0, (N, 1))
        y = rng.integers(0, C, N)
        W = _unit_rows(rng, C, d)
        margin = float(rng.uniform(0.0, 2.0))
        tau = float(rng.uniform(0.5, 2.0))
        rep = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W), margin, tau, n)
        want = oracles.scalar_margin_softmax(z, y, W, margin, tau, n)
        assert rep.total == pytest.approx(want, rel=1e-10)
        assert rep.stats["clamped_rows"] == 0
        assert 0.0 < rep.stats["mean_target_prob"] < 1.0


def test_loss_increases_with_margin():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 3)) * 5.0
    y = np.array([0, 1, 2, 0])
    W = _unit_rows(rng, 3, 3)
    batch = EmbeddingBatch(z, y)
    losses = [uamf_loss(batch, ProxyMatrix(W), m, 1.0, 6).total
              for m in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_nontarget_permutation_invariance():
    rng = np.random.default_rng(21)
    z = rng.standard_normal((3, 4)) * 8.0
    y = np.zeros(3, dtype=int)
    W = _unit_rows(rng, 5, 4)
    base = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W), 0.3, 1.0, 8).total
    perm = np.array([0, 3, 1, 4, 2])                   # fixes the target row 0
    swapped = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W[perm]), 0.3, 1.0, 8).total
    assert swapped == pytest.approx(base, rel=1e-14)


def test_logit_shift_invariance():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((3, 4)) * 8.0
    y = np.array([0, 1, 2])
    batch = EmbeddingBatch(z, y)
    proxies = ProxyMatrix(_unit_rows(rng, 4, 4))
    base = uamf_loss(batch, proxies, 0.3, 1.0, 8)
    shifted = uamf_loss(batch, proxies, 0.3, 1.0, 8, _logit_shift=100.0)
    assert shifted.total == pytest.approx(base.total, rel=1e-12)
    np.testing.assert_allclose(shifted.grad_z, base.grad_z, rtol=1e-9, atol=1e-12)


def test_monotone_link_to_target_cosine():
    # two antipodal proxies reduce the loss to -log sigmoid(2 kappa cos/tau):
    # with kappa fixed, per-sample losses rank exactly by -cos(theta)
    proxies = ProxyMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    kappa = 8.0
    angles = np.array([0.2, 0.9, 1.4, 2.2])
    z = kappa * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    batch = EmbeddingBatch(z, np.zeros(4, dtype=int))
    per_sample = []
    for i in range(4):
        rep = uamf_loss(EmbeddingBatch(z[i:i + 1], batch.labels[i:i + 1]),
                        proxies, 0.0, 1.0, 4)
        per_sample.append(rep.total)
    assert np.array_equal(np.argsort(per_sample), np.argsort(-np.cos(angles)))


def test_grad_W_is_dense():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((2, 3)) * 6.0
    rep = uamf_loss(EmbeddingBatch(z, np.array([0, 0])),
                    ProxyMatrix(_unit_rows(rng, 6, 3)), 0.2, 1.0, 6)
    assert np.all(np.linalg.norm(rep.grad_W, axis=1) > 0.0)


def test_uamf_validation():
    batch = EmbeddingBatch(np.ones((1, 2)), np.array([0]))
    proxies = ProxyMatrix(np.array([[1.0, 0.0]]))
    with pytest.raises(DomainError):
        uamf_loss(batch, proxies, 0.0, 0.0, 4)
    with pytest.raises(DomainError):
        uamf_loss(batch, proxies, -0.1, 1.0, 4)
    with pytest.raises(DomainError):
        uamf_loss(EmbeddingBatch(np.ones((1, 2)), np.array([1])), proxies, 0.0, 1.0, 4)


def test_clamped_rows_reported():
    z = np.array([[0.0, 0.0], [4.0, 1.0]])
    rep = uamf_loss(EmbeddingBatch(z, np.array([0, 1])),
                    ProxyMatrix(np.eye(2)), 0.0, 1.0, 4)
    assert rep.stats["clamped_rows"] == 1
    assert np.all(np.isfinite(rep.grad_z))


# ---------------------------------------------------------------------------
# gradients

def test_gradients_vs_finite_differences_50_instances():
    checked = 0
    for seed in range(200):
        if checked == 50:
            break
        rng = np.random.default_rng(1000 + seed)
        N = int(rng.integers(1, 5))
        C = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        n = int(rng.integers(2, 33))
        z = rng.standard_normal((N, d)) * rng.uniform(2.0, 20.0, (N, 1))
        y = rng.integers(0, C, N)
        W = _unit_rows(rng, C, d)
        margin = float(rng.uniform(0.0, 2.0))
        tau = float(rng.uniform(0.5, 2.0))
        rep = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W), margin, tau, n)
        if rep.total < 1e-3:
            # saturated softmax: the gradient falls below what an h = 1e-5
            # central difference resolves, so the comparison is meaningless
            continue
        checked += 1

        fd_z = oracles.fd_grad(
            lambda zz: uamf_loss(EmbeddingBatch(zz, y), ProxyMatrix(W),
                                 margin, tau, n).total, z)
        fd_W = oracles.fd_grad(
            lambda ww: uamf_loss(EmbeddingBatch(z, y), _raw_proxies(ww),
                                 margin, tau, n).total, W)
        assert oracles.rel_err(rep.grad_z, fd_z) <= 1e-5
        assert oracles.rel_err(rep.grad_W, fd_W) <= 1e-5
    assert checked == 50


def test_similarity_and_cosine_gradients_each_come_from_one_helper(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    sim = counted("similarity", sphere_math._similarity_grads)
    monkeypatch.setattr(sphere_math, "_similarity_grads", sim)
    monkeypatch.setattr(uamf, "_similarity_grads", sim)
    monkeypatch.setattr(proxy_losses, "_quotient_rule",
                        counted("quotient", proxy_losses._quotient_rule))
    rng = np.random.default_rng(11)
    batch = EmbeddingBatch(rng.standard_normal((6, 4)) * 5.0, np.arange(6) % 3)
    proxies = ProxyMatrix(_unit_rows(rng, 3, 4))

    uamf_loss(batch, proxies, 0.5, 1.0, 8)
    assert calls == {"similarity": 1}
    sphere_math.vmf_similarity_grad(proxies.W[0], batch.z[0], 8)
    assert calls == {"similarity": 2}
    cfg = proxy_losses.ProxyLossConfig(sns_enabled=True)
    proxy_losses.proxy_based_total(batch, proxies, proxy_losses.EpochMidState(mid=0.9),
                                   cfg, rng)
    # both sides of the sample-to-proxy cosines, pp's selection, sns
    assert calls == {"similarity": 2, "quotient": 4}
