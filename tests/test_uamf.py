"""Adaptive-margin softmax over vMF similarities and the norm tracker."""

import collections
import math

import numpy as np
import pytest

from lh2 import proxy_losses, sphere_math, train_harness, uamf
from lh2.errors import ConfigError, DomainError
from lh2.io_formats import RunConfig
from lh2.uamf import EmbeddingBatch, ProxyMatrix, update_norm_tracker, uamf_loss
from lh2.train_harness import _raw_proxies, _similarity_sum

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "norm_overflow"])
def test_embedding_batch_rejects_a_row_without_a_finite_norm(bad):
    # 1e200 is finite, but its square is not: the row's norm reads inf
    z = np.ones((3, 2))
    z[1, 0] = bad
    with pytest.raises(DomainError, match="^z has a row whose norm is not finite or overflows$"):
        EmbeddingBatch(z, np.zeros(3, dtype=int))


def test_proxy_matrix_validation():
    with pytest.raises(DomainError):
        ProxyMatrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(DomainError):
        ProxyMatrix(np.array([[0.0, 0.0]]))
    with pytest.raises(DomainError, match="nonempty C x d"):
        ProxyMatrix(np.ones(3))
    w = ProxyMatrix(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(w.W, [[0.6, 0.8]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, 0.0, 1e-160],
                         ids=["nan", "inf", "-inf", "norm_overflow", "zero", "subnormal_norm"])
def test_from_rows_rejects_a_row_without_a_finite_normal_norm_by_its_index(bad):
    rows = np.random.default_rng(2).standard_normal((5, 3))
    rows[3] = [bad, 0.0, 0.0]
    rows[4] = [bad, 0.0, 0.0]
    # from_rows is the constructor under its older name
    for make in (ProxyMatrix, ProxyMatrix.from_rows):
        with pytest.raises(DomainError, match=r"^proxy row 3 has norm "):
            make(rows)


def test_from_rows_rows_are_unit_by_construction():
    rows = np.random.default_rng(3).standard_normal((40, 16)) * np.logspace(-150, 150, 40)[:, None]
    proxies = ProxyMatrix(rows)
    np.testing.assert_allclose(np.linalg.norm(proxies.W, axis=1), 1.0, rtol=0.0, atol=4e-16)
    assert np.array_equal(ProxyMatrix.from_rows(rows).W, proxies.W)


@pytest.mark.parametrize("N, C, d", [(128, 64, 32), (1024, 64, 32), (3, 5, 6), (127, 63, 31),
                                     (256, 4096, 64)])
def test_proxy_product_S_is_z_times_W_transpose_bitwise(N, C, d):
    rng = np.random.default_rng(N + C)
    z = rng.standard_normal((N, d)) * 20.0
    proxies = ProxyMatrix(_unit_rows(rng, C, d))
    product = EmbeddingBatch(z, rng.integers(0, C, N)).product(proxies)
    assert np.array_equal(product.S, z @ proxies.W.T)


def _desk_instance(rng, N=128, C=64, d=32):
    """A batch at the desk preset's sizes and feature norms (1 to 60), its
    labels and unit proxies, two of them equal so that rows tie."""
    z = rng.standard_normal((N, d)) * rng.uniform(1.0, 60.0, (N, 1))
    W = _unit_rows(rng, C, d)
    W[1] = W[0]
    return z, rng.integers(0, C, N), W


def test_uamf_row_maximum_is_the_max_along_rows_bitwise():
    # the oracle shifts by max(axis=1); uamf_loss reads the maximum at the
    # row's argmax.  At desk norms no lane underflows, so both take the plain exp.
    rng = np.random.default_rng(6)
    for _ in range(10):
        z, y, W = _desk_instance(rng)
        margin, tau = float(rng.uniform(0.0, 20.0)), float(rng.uniform(0.5, 2.0))
        logits = z @ W.T / tau
        assert (logits - logits.max(axis=1, keepdims=True)).min() > uamf._EXP_ZERO
        proxies = ProxyMatrix(W)     # the oracle reads the normalized rows
        rep = uamf_loss(EmbeddingBatch(z, y), proxies, margin, tau)
        loss, grad_z, grad_W = oracles.plain_exp_margin_softmax(z, y, proxies.W,
                                                                  margin, tau)
        assert rep.total == loss
        assert np.array_equal(rep.grad_z, grad_z)
        assert np.array_equal(rep.grad_W, grad_W)


def test_plain_and_masked_exp_agree_bitwise_at_desk_norms():
    rng = np.random.default_rng(7)
    # numpy's exp with and without the mask, on shifted desk logits
    for N, C in [(128, 64), (3, 5), (127, 63), (1000, 64)]:
        z, _, W = _desk_instance(rng, N, C)
        logits = z @ W.T
        logits -= logits.max(axis=1, keepdims=True)
        masked = np.zeros(logits.shape)
        np.exp(logits, out=masked, where=logits > uamf._EXP_ZERO)
        assert np.array_equal(masked, np.exp(logits))
    # one row at norm 1e4 sends the whole batch through the masked exp; the
    # desk rows then match the oracle's plain exp bit for bit
    for _ in range(5):
        z, y, W = _desk_instance(rng)
        z[0] *= 1e4 / np.linalg.norm(z[0])
        logits = z @ W.T
        assert (logits - logits.max(axis=1, keepdims=True)).min() <= uamf._EXP_ZERO
        proxies = ProxyMatrix(W)     # the oracle reads the normalized rows
        rep = uamf_loss(EmbeddingBatch(z, y), proxies, 3.0, 1.0)
        loss, grad_z, grad_W = oracles.plain_exp_margin_softmax(z, y, proxies.W,
                                                                  3.0, 1.0)
        assert rep.total == loss
        assert np.array_equal(rep.grad_z, grad_z)
        assert np.array_equal(rep.grad_W, grad_W)


def test_distinct_labels_beyond_int32_do_not_wrap():
    # 0 and 2^32 are equal as int32: labels that do not fit compare as int64
    for labels, want in (([0, 2 ** 32, 0], [[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
                         ([3, 1, 3], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])):
        batch = EmbeddingBatch(np.ones((3, 2)), np.array(labels))
        assert np.array_equal(batch.distinct_labels, np.array(want, dtype=bool))


def test_selection_gram_is_the_zero_diagonal_gram_of_the_selected_rows():
    rng = np.random.default_rng(13)
    proxies = ProxyMatrix(_unit_rows(rng, 6, 4))
    for sel in (np.array([0, 2, 5]), np.array([1, 2, 5]), np.arange(6)):
        rows, gram = proxies.selection_gram(sel)
        np.testing.assert_array_equal(rows, proxies.W[sel])
        want = proxies.W[sel] @ proxies.W[sel].T
        np.fill_diagonal(want, 0.0)
        np.testing.assert_allclose(gram, want, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# norm tracker

def test_tracker_alpha_one_copies_batch_mean():
    batch = EmbeddingBatch(np.diag([30.0, 30.0, 30.0]), np.arange(3))
    mu, margin = update_norm_tracker(20.0, batch, 1.0, 0.35)
    assert mu == 30.0
    assert margin == pytest.approx(10.5)


def test_tracker_alpha_zero_keeps_prior():
    batch = EmbeddingBatch(np.array([[123.0, 0.0]]), np.array([0]))
    mu, margin = update_norm_tracker(20.0, batch, 0.0, 0.35)
    assert mu == 20.0
    assert margin == pytest.approx(7.0)


def test_tracker_ema_step():
    batch = EmbeddingBatch(np.array([[30.0, 0.0]]), np.array([0]))
    mu, margin = update_norm_tracker(20.0, batch, 0.1, 0.35)
    assert mu == pytest.approx(21.0)
    assert margin == pytest.approx(7.35)


def test_tracker_validation():
    # the tracker's values are checked by RunConfig itself
    for key, bad in (("ema_alpha", 1.5), ("ema_alpha", -0.1), ("mu_norm_init", 0.0)):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            RunConfig(**{key: bad})


# ---------------------------------------------------------------------------
# uamf_loss values

def test_single_class_loss_zero():
    batch = EmbeddingBatch(np.array([[5.0, 1.0]]), np.array([0]))
    rep = uamf_loss(batch, ProxyMatrix(np.array([[1.0, 0.0]])), 0.5, 1.0)
    assert rep.total == 0.0
    np.testing.assert_array_equal(rep.grad_z, np.zeros((1, 2)))
    np.testing.assert_array_equal(rep.grad_W, np.zeros((1, 2)))


def test_two_class_hand_value():
    # aligned z, orthogonal negative: logit gap is exactly ||z|| = 10
    batch = EmbeddingBatch(np.array([[10.0, 0.0]]), np.array([0]))
    proxies = ProxyMatrix(np.eye(2))
    rep = uamf_loss(batch, proxies, 0.0, 1.0)
    assert rep.total == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)


def test_loss_matches_scalar_oracle():
    # the oracle keeps the vMF normalizer g(||z||) in every similarity, which
    # the softmax cancels: desk-scale norms, then norms up to about 1e4 at n
    # up to 256 (train_highkappa's range), where g is largest
    rng = np.random.default_rng(3)
    for norm_hi, n_hi in [(15.0, 20)] * 10 + [(5e3, 257)] * 10:
        N, C, d = 3, 5, 4
        n = int(rng.integers(2, n_hi))
        z = rng.standard_normal((N, d)) * rng.uniform(1.0, norm_hi, (N, 1))
        y = rng.integers(0, C, N)
        W = _unit_rows(rng, C, d)
        margin = float(rng.uniform(0.0, 2.0))
        tau = float(rng.uniform(0.5, 2.0))
        rep = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W), margin, tau)
        want = oracles.scalar_margin_softmax(z, y, W, margin, tau, n)
        assert rep.total == pytest.approx(want, rel=1e-10)
        # at tau = 1e-3 the logits run to thousands in magnitude, where an
        # exp without the row-max shift overflows or underflows
        sharp = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W), margin, 1e-3)
        want = oracles.scalar_margin_softmax(z, y, W, margin, 1e-3, n)
        assert sharp.total == pytest.approx(want, rel=1e-10)


def test_exp_zero_is_where_exp_rounds_to_zero():
    assert np.exp(uamf._EXP_ZERO) == 0.0
    # just above -745.1332 exp still rounds to the least subnormal
    assert np.exp(-745.13) > 0.0


def test_loss_matches_plain_exp_bitwise_where_most_lanes_underflow():
    # norms about 1e4, train_highkappa's range: the skipped lanes are the
    # ones whose exp is exactly 0
    rng = np.random.default_rng(5)
    N, C, d = 64, 32, 8
    for _ in range(5):
        z = rng.standard_normal((N, d)) * rng.lognormal(math.log(1e4), 0.3, (N, 1))
        y = rng.integers(0, C, N)
        W = _unit_rows(rng, C, d)
        margin = float(rng.uniform(0.0, 1e3))
        tau = float(rng.uniform(0.5, 2.0))
        S = z @ W.T / tau
        assert np.mean(S - S.max(axis=1, keepdims=True) <= uamf._EXP_ZERO) > 0.5
        proxies = ProxyMatrix(W)     # the oracle reads the normalized rows
        rep = uamf_loss(EmbeddingBatch(z, y), proxies, margin, tau)
        loss, grad_z, grad_W = oracles.plain_exp_margin_softmax(z, y, proxies.W,
                                                                  margin, tau)
        assert rep.total == loss
        assert np.array_equal(rep.grad_z, grad_z)
        assert np.array_equal(rep.grad_W, grad_W)


def test_loss_increases_with_margin():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 3)) * 5.0
    y = np.array([0, 1, 2, 0])
    W = _unit_rows(rng, 3, 3)
    batch = EmbeddingBatch(z, y)
    losses = [uamf_loss(batch, ProxyMatrix(W), m, 1.0).total
              for m in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_nontarget_permutation_invariance():
    rng = np.random.default_rng(21)
    z = rng.standard_normal((3, 4)) * 8.0
    y = np.zeros(3, dtype=int)
    W = _unit_rows(rng, 5, 4)
    base = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W), 0.3, 1.0).total
    perm = np.array([0, 3, 1, 4, 2])                   # fixes the target row 0
    swapped = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W[perm]), 0.3, 1.0).total
    assert swapped == pytest.approx(base, rel=1e-14)


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
                        proxies, 0.0, 1.0)
        per_sample.append(rep.total)
    assert np.array_equal(np.argsort(per_sample), np.argsort(-np.cos(angles)))


def test_grad_W_is_dense():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((2, 3)) * 6.0
    rep = uamf_loss(EmbeddingBatch(z, np.array([0, 0])),
                    ProxyMatrix(_unit_rows(rng, 6, 3)), 0.2, 1.0)
    assert np.all(np.linalg.norm(rep.grad_W, axis=1) > 0.0)


def test_uamf_validation():
    batch = EmbeddingBatch(np.ones((1, 2)), np.array([0]))
    proxies = ProxyMatrix(np.array([[1.0, 0.0]]))
    with pytest.raises(DomainError):
        uamf_loss(batch, proxies, 0.0, 0.0)
    with pytest.raises(DomainError):
        uamf_loss(batch, proxies, -0.1, 1.0)
    with pytest.raises(DomainError):
        uamf_loss(EmbeddingBatch(np.ones((1, 2)), np.array([1])), proxies, 0.0, 1.0)


def test_zero_norm_row_gives_uniform_logits_and_finite_gradient():
    # a zero row, below KAPPA_MIN: its logits are all zero, a uniform softmax
    z = np.array([[0.0, 0.0], [4.0, 1.0]])
    assert np.linalg.norm(z[0]) < sphere_math.KAPPA_MIN
    rep = uamf_loss(EmbeddingBatch(z, np.array([0, 1])), ProxyMatrix(np.eye(2)), 0.0, 1.0)
    assert rep.total == pytest.approx(
        (math.log(2.0) + 3.0 + math.log1p(math.exp(-3.0))) / 2.0, rel=1e-14)
    assert np.all(np.isfinite(rep.grad_z))


def test_tiny_norm_row_gradients_match_finite_differences():
    # row 1 sits at ||z|| = 5e-7, below KAPPA_MIN; steps of 1e-10 keep it there
    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 4)) * 5.0
    z[1] *= 5e-7 / np.linalg.norm(z[1])
    y = np.array([0, 1, 2])
    W = _unit_rows(rng, 4, 4)
    assert np.linalg.norm(z[1]) < sphere_math.KAPPA_MIN
    rep = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W), 0.3, 1.0)
    fd_z = oracles.fd_grad(
        lambda zz: uamf_loss(EmbeddingBatch(zz, y), ProxyMatrix(W), 0.3, 1.0).total,
        z, h=1e-10)
    fd_W = oracles.fd_grad(
        lambda ww: uamf_loss(EmbeddingBatch(z, y), _raw_proxies(ww), 0.3, 1.0).total, W)
    assert oracles.rel_err(rep.grad_z[1], fd_z[1]) <= 1e-4
    assert oracles.rel_err(rep.grad_z, fd_z) <= 1e-4
    assert oracles.rel_err(rep.grad_W, fd_W) <= 1e-5


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
        z = rng.standard_normal((N, d)) * rng.uniform(2.0, 20.0, (N, 1))
        y = rng.integers(0, C, N)
        W = _unit_rows(rng, C, d)
        margin = float(rng.uniform(0.0, 2.0))
        tau = float(rng.uniform(0.5, 2.0))
        rep = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W), margin, tau)
        if rep.total < 1e-3:
            # saturated softmax: the gradient falls below what an h = 1e-5
            # central difference resolves, so the comparison is meaningless
            continue
        checked += 1

        fd_z = oracles.fd_grad(
            lambda zz: uamf_loss(EmbeddingBatch(zz, y), ProxyMatrix(W),
                                 margin, tau).total, z)
        fd_W = oracles.fd_grad(
            lambda ww: uamf_loss(EmbeddingBatch(z, y), _raw_proxies(ww),
                                 margin, tau).total, W)
        assert oracles.rel_err(rep.grad_z, fd_z) <= 1e-5
        assert oracles.rel_err(rep.grad_W, fd_W) <= 1e-5
    assert checked == 50


def test_gradients_match_the_50_digit_oracle_at_norm_scales_up_to_1e4():
    # the grad-check's instance shape, at the feature norms training reaches:
    # there the softmax saturates, and gradients of about 1e-11 fall under
    # the finite differences' noise, which the oracle does not have.  Each
    # row of d loss / d S sums to at most 2 / (N tau) in absolute value, so
    # 2 max|W| / (N tau) bounds grad_z and max|z| / tau bounds grad_W; the
    # errors are taken relative to those bounds.  Norm scales are
    # log-uniform, so that unsaturated draws occur too.
    rng = np.random.default_rng(2024)
    N, C, d = 3, 5, 6
    worst = 0.0
    for _ in range(200):
        scale = np.exp(rng.uniform(math.log(2.0), math.log(1e4), (N, 1)))
        z = rng.standard_normal((N, d)) * scale
        y = rng.integers(0, C, N)
        W = _unit_rows(rng, C, d)
        margin, tau = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.5, 2.0))
        rep = uamf_loss(EmbeddingBatch(z, y), ProxyMatrix(W), margin, tau)
        want_z, want_W = oracles.margin_softmax_grads(z, y, W, margin, tau)
        worst = max(worst,
                    np.abs(rep.grad_z - want_z).max() * N * tau / (2.0 * np.abs(W).max()),
                    np.abs(rep.grad_W - want_W).max() * tau / np.abs(z).max())
    assert worst <= 1e-9


def _count_backward(monkeypatch):
    """Count the calls of the one backward, sphere_math.adjoint_grads, and
    of the adjoints it reads, ProxyProduct.cos_adjoint and
    sphere_math._similarity_adjoint, also where other modules import them."""
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for attr, name, mods in (("adjoint_grads", "backward", (sphere_math, uamf)),
                             ("_similarity_adjoint", "similarity",
                              (sphere_math, train_harness))):
        counted = counting(name, getattr(sphere_math, attr))
        for mod in mods:
            monkeypatch.setattr(mod, attr, counted)
    monkeypatch.setattr(uamf.ProxyProduct, "cos_adjoint",
                        counting("cos", uamf.ProxyProduct.cos_adjoint))
    return calls


def test_gradients_take_one_backward_per_report_and_none_for_the_total(monkeypatch):
    calls = _count_backward(monkeypatch)
    rng = np.random.default_rng(11)
    batch = EmbeddingBatch(rng.standard_normal((6, 4)) * 5.0, np.arange(6) % 3)
    proxies = ProxyMatrix(_unit_rows(rng, 3, 4))
    cfg = RunConfig(lambda_sns=150.0)
    state = proxy_losses.EpochMidState(mid=0.9)
    losses = {
        "uamf": lambda: uamf_loss(batch, proxies, 0.5, 1.0),
        "similarity_sum": lambda: _similarity_sum(batch, proxies, 8),
        "pps": lambda: proxy_losses.pps_loss(batch, proxies, state, cfg),
        "pns": lambda: proxy_losses.pns_loss(batch, proxies, cfg),
        "pp": lambda: proxy_losses.pp_loss(batch, proxies, cfg, rng),
        "sns": lambda: proxy_losses.sns_loss(batch, cfg),
        "proxy_based_total": lambda: proxy_losses.proxy_based_total(batch, proxies, state,
                                                                    cfg, rng),
        # the step's report: pps and pns sum their d loss / d cos, so the
        # cosine chain rule runs once
        "step": lambda: (uamf_loss(batch, proxies, 0.5, 1.0)
                         + proxy_losses.proxy_based_total(batch, proxies, state, cfg, rng)),
    }
    # (backward, cos_adjoint, _similarity_adjoint) calls of one gradient read;
    # pp and sns take their gradients directly, and uamf's adjoint is its
    # softmax gradient in S
    expected = {"uamf": (1, 0, 0), "similarity_sum": (1, 0, 1), "pps": (1, 1, 0),
                "pns": (1, 1, 0), "pp": (0, 0, 0), "sns": (0, 0, 0),
                "proxy_based_total": (1, 1, 0), "step": (1, 1, 0)}

    # a finite-difference probe reads the total only and forms no adjoint
    for make in losses.values():
        make().total
    assert calls == {}

    for name, make in losses.items():
        calls.clear()
        rep = make()
        rep.grad_z, rep.grad_W, rep.grad_z
        assert (calls["backward"], calls["cos"], calls["similarity"]) == expected[name], name


def test_reports_of_different_batches_or_proxies_do_not_add():
    rng = np.random.default_rng(12)
    z, y = rng.standard_normal((4, 3)) * 5.0, np.arange(4) % 2
    batch, proxies = EmbeddingBatch(z, y), ProxyMatrix(_unit_rows(rng, 2, 3))
    cfg = RunConfig()
    rep = uamf_loss(batch, proxies, 0.5, 1.0)
    with pytest.raises(DomainError):
        rep + proxy_losses.pns_loss(EmbeddingBatch(z, y), proxies, cfg)
    with pytest.raises(DomainError):
        rep + proxy_losses.pns_loss(batch, ProxyMatrix(proxies.W.copy()), cfg)
    with pytest.raises(DomainError):
        rep + proxy_losses.sns_loss(EmbeddingBatch(z, y), cfg)
    with pytest.raises(DomainError):
        rep + proxy_losses.pp_loss(batch, ProxyMatrix(proxies.W.copy()), cfg, rng)
    # pp reads only the labels and sns no proxies, so each adds to either side
    total = (rep + proxy_losses.pp_loss(EmbeddingBatch(z, y), proxies, cfg, rng)
             + proxy_losses.sns_loss(batch, cfg))
    assert set(total.terms) == {"uamf", "pp", "sns"}
