"""Synthetic-experiment driver: spherical class data with a controlled
quality (norm) signal, a linear embedder plus proxies trained with the
full loss stack, spread trackers, histograms, and finite-difference
gradient checks.

The dataset places one ground-truth direction per class uniformly on the
input sphere; samples are that direction perturbed by Gaussian angular
noise and scaled by a log-normal norm, so low-norm samples play the role
of low-quality images.  A linear embedder stands in for a backbone: the
point is to isolate the losses, not to model capacity.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Optional

import numpy as np

from .errors import ConfigError
from .io_formats import MAX_WORK, RunConfig, emit_metrics, read_tensor, write_tensor
from .proxy_losses import (EpochMidState, end_epoch, observe_positive_cosines,
                           positive_cosines, pp_loss, pns_loss, pps_loss,
                           proxy_based_total, sns_loss)
from .recon_losses import (PerceptualExtractor, laplace_nll, laplace_nll_grad,
                           perceptual_nll, perceptual_nll_grad, smoothness_grad,
                           smoothness_loss, view_variance_grad, view_variance_loss)
from .depth_renderer import DepthMap
from .sphere_math import _row_norms, _similarity_adjoint, vmf_similarity_batch
from .sphere_stats import proxy_spread_trackers, sns_tracker
from .uamf import EmbeddingBatch, LossReport, ProxyMatrix, uamf_loss, update_norm_tracker


# elements of one block of row-wise work: 512 KB of float64, which stays in
# cache between the passes over it
_BLOCK = 2 ** 16


def _block_rows(width: int) -> int:
    """Rows of a block of row-wise work on rows of the given width: at most
    _BLOCK and MAX_WORK elements, and at least one row."""
    return max(1, min(MAX_WORK, _BLOCK) // width)


def generate_dataset(cfg: RunConfig):
    """Returns (X raw inputs M x d_in, labels M) of the configured synthetic
    dataset; fully determined by the config's seed.  X is the tangent draw,
    turned into the samples in place one block of rows at a time."""
    rng = np.random.default_rng(cfg.seed)
    dirs = rng.standard_normal((cfg.C, cfg.d_in))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    m = cfg.C * cfg.samples_per_class
    labels = np.repeat(np.arange(cfg.C), cfg.samples_per_class)
    X = rng.standard_normal((m, cfg.d_in))
    phi = rng.normal(0.0, np.radians(cfg.noise_angle_deg), m) if cfg.noise_angle_deg > 0 \
        else np.zeros(m)
    norms = rng.lognormal(cfg.norm_logmean, cfg.norm_logstd, m)

    rows = _block_rows(cfg.d_in)
    for lo in range(0, m, rows):
        hi = lo + rows
        tang, base, ph = X[lo:hi], dirs[labels[lo:hi]], phi[lo:hi, None]
        # the tangent's part across its class direction, at unit length
        tang -= np.sum(tang * base, axis=1, keepdims=True) * base
        tang /= np.linalg.norm(tang, axis=1, keepdims=True)
        # turned phi away from the direction, then scaled to its norm
        tang *= np.sin(ph)
        base *= np.cos(ph)
        tang += base
        tang *= norms[lo:hi, None]
    return X, labels


@dataclasses.dataclass
class TrainState:
    embedder: np.ndarray            # d_in x d
    proxies: ProxyMatrix
    mu_norm: float                  # EMA of the batch-mean feature norm
    mid_state: EpochMidState
    vel_emb: np.ndarray
    vel_W: np.ndarray
    step: int
    rng: np.random.Generator


def init_state(cfg: RunConfig) -> TrainState:
    rng_init = np.random.default_rng([cfg.seed, 1])
    emb = rng_init.standard_normal((cfg.d_in, cfg.d)) / np.sqrt(cfg.d_in)
    proxies = ProxyMatrix.from_rows(rng_init.standard_normal((cfg.C, cfg.d)))
    return TrainState(embedder=emb, proxies=proxies,
                      mu_norm=cfg.mu_norm_init,
                      mid_state=EpochMidState.initial(cfg),
                      vel_emb=np.zeros_like(emb),
                      vel_W=np.zeros_like(proxies.W),
                      step=0, rng=np.random.default_rng([cfg.seed, 2]))


def train_accuracy(X, labels, embedder, proxies: ProxyMatrix) -> float:
    """Fraction of samples whose nearest proxy by cosine is their class,
    scored in blocks of _block_rows(max(C, d)) rows."""
    # the proxies are unit rows, so dividing each row of scores by its
    # sample's norm would not move the argmax
    rows = _block_rows(max(proxies.W.shape))
    hits = 0
    for lo in range(0, len(labels), rows):
        pred = np.argmax((X[lo:lo + rows] @ embedder) @ proxies.W.T, axis=1)
        hits += int(np.count_nonzero(pred == labels[lo:lo + rows]))
    return hits / len(labels)


def _checkpoint(out_dir, tag, state: TrainState):
    path = os.path.join(out_dir, "checkpoints")
    os.makedirs(path, exist_ok=True)
    write_tensor(os.path.join(path, f"{tag}.embedder.lh2t"), state.embedder)
    write_tensor(os.path.join(path, f"{tag}.proxies.lh2t"), state.proxies.W)


def load_checkpoint(path):
    """Load an (embedder, proxies) pair given either file of the pair or
    their common stem."""
    for suffix in (".embedder.lh2t", ".proxies.lh2t"):
        if path.endswith(suffix):
            path = path[:-len(suffix)]
            break
    emb = read_tensor(path + ".embedder.lh2t").astype(np.float64)
    w = read_tensor(path + ".proxies.lh2t").astype(np.float64)
    return emb, ProxyMatrix.from_rows(w)


@dataclasses.dataclass
class TrainResult:
    final_accuracy: float
    epochs_run: int
    metrics_path: str
    reason: Optional[str] = None    # the check that stopped a diverged run, or None


class _Diverged(Exception):
    """A training step failed a check; the message names the check."""


def _require(ok, reason: str) -> None:
    if not ok:
        raise _Diverged(reason)


def train(cfg: RunConfig, out_dir: str) -> TrainResult:
    """Mini-batch SGD with momentum on the margin softmax plus the proxy
    regularizers; per-step metrics, per-epoch mid/accuracy updates, and
    checkpoints under out_dir.  Each epoch's metrics rows are appended to
    metrics.csv as the epoch ends, so a stopped run keeps the epochs it
    finished.  Non-finite features (an entry or a row norm), loss or update
    abort the run with the failed check as the reason, the diverged epoch's
    rows written and the newest state whose loss evaluated finite saved."""
    X, labels = generate_dataset(cfg)
    m = len(labels)
    state = init_state(cfg)
    _checkpoint(out_dir, "epoch_000", state)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    emit_metrics([], metrics_path)      # empty until an epoch appends its rows

    acc = train_accuracy(X, labels, state.embedder, state.proxies)
    reason = None
    epochs_run = 0
    # the newest parameters whose loss evaluated finite; updates build new
    # arrays rather than writing into these, so no copy is needed
    good = state.embedder, state.proxies
    try:
        for epoch in range(1, cfg.epochs + 1):
            lr = cfg.lr * 0.5 ** ((epoch - 1) // cfg.lr_halve_every)
            records = []
            perm = state.rng.permutation(m)
            for lo in range(0, m, cfg.batch_size):
                idx = perm[lo:lo + cfg.batch_size]
                xb = X[idx]
                zb = xb @ state.embedder
                _require(np.isfinite(zb).all(), "non-finite features")
                batch = EmbeddingBatch(zb, labels[idx])
                # a finite row whose norm overflows fails the same check
                with np.errstate(over="ignore"):
                    _require(np.isfinite(batch.norms).all(), "non-finite features")
                state.mu_norm, margin = update_norm_tracker(state.mu_norm, batch,
                                                            cfg.ema_alpha, cfg.margin_coeff)
                # one report of the whole step: its gradients take one backward
                step = (uamf_loss(batch, state.proxies, margin, cfg.tau)
                        + proxy_based_total(batch, state.proxies, state.mid_state,
                                            cfg, state.rng))
                state.mid_state = observe_positive_cosines(state.mid_state,
                                                           step.stats["positive_cos"])
                _require(np.isfinite(step.total), "non-finite loss")
                good = state.embedder, state.proxies

                state.vel_emb = cfg.momentum * state.vel_emb - lr * (xb.T @ step.grad_z)
                emb = state.embedder + state.vel_emb
                state.vel_W = cfg.momentum * state.vel_W - lr * step.grad_W
                w = state.proxies.W + state.vel_W
                w_norms = _row_norms(w)
                # a proxy row norm that overflows fails like a non-finite entry
                _require(np.isfinite(emb).all() and np.isfinite(w_norms).all(),
                         "non-finite update")
                state.embedder = emb
                state.proxies = ProxyMatrix.from_rows(w, w_norms)
                state.step += 1

                spread = proxy_spread_trackers(state.proxies, cfg.C, cfg.d,
                                               step.stats["pp_selection"])
                records.append({
                    "step": state.step, "epoch": epoch, "lr": lr,
                    "loss_total": step.total, **step.terms,   # uamf, pps, pns, pp
                    "sns": step.terms.get("sns", 0.0),
                    "margin": margin, "mu_norm": state.mu_norm,
                    "mid": state.mid_state.mid,
                    "below_mid_frac": step.stats["below_frac"],
                    "std": spread["std"], "std_mean": spread["std_mean"],
                    "std_sns": sns_tracker(batch), "train_acc": acc,
                })
            emit_metrics(records, metrics_path, append=True)
            state.mid_state = end_epoch(state.mid_state, cfg)
            acc = train_accuracy(X, labels, state.embedder, state.proxies)
            epochs_run = epoch
            _checkpoint(out_dir, f"epoch_{epoch:03d}", state)
    except _Diverged as exc:
        reason = str(exc)
        emit_metrics(records, metrics_path, append=True)
        state.embedder, state.proxies = good

    _checkpoint(out_dir, "final", state)
    return TrainResult(final_accuracy=acc, epochs_run=epochs_run,
                       metrics_path=metrics_path, reason=reason)


def _merge_moments(acc, values):
    """(count, mean, sum of squared deviations) of the values behind acc
    and the array values together (Chan, Golub and LeVeque's update)."""
    n_a, mean_a, m2_a = acc
    n_b = values.size
    mean_b = float(values.mean()) if n_b else 0.0
    dev = values - mean_b
    m2_b = float((dev * dev).sum())
    if n_a == 0:
        return n_b, mean_b, m2_b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def histogram_dump(embedder, proxies: ProxyMatrix, X, labels):
    """Histograms (64 bins over [-1, 1]) of the positive and negative
    cosines of the samples X @ embedder against the proxies, scored in
    blocks of _block_rows(max(C, d)) rows; returns (records, summary with
    means/stds/counts)."""
    edges = np.linspace(-1.0, 1.0, 65)
    counts = np.zeros((2, 64), dtype=np.int64)         # pad, nad
    moments = [(0, 0.0, 0.0), (0, 0.0, 0.0)]
    rows = _block_rows(max(proxies.W.shape))
    for lo in range(0, len(labels), rows):
        batch = EmbeddingBatch(X[lo:lo + rows] @ embedder, labels[lo:lo + rows])
        product = batch.product(proxies)
        neg = np.ones(product.cos.shape, dtype=bool)
        neg.ravel()[product.target] = False
        for k, cos in enumerate((positive_cosines(batch, proxies), product.cos[neg])):
            # clipped for binning only: a cosine at 1 + ulp misses the last bin
            counts[k] += np.histogram(np.clip(cos, -1.0, 1.0), edges)[0]
            moments[k] = _merge_moments(moments[k], cos)
    records = [{"bin_lo": lo, "bin_hi": hi, "pad_count": int(p), "nad_count": int(q)}
               for lo, hi, p, q in zip(edges[:-1], edges[1:], *counts)]
    summary = {}
    for name, (n, mean, m2) in zip(("pad", "nad"), moments):
        summary.update({f"{name}_mean": mean if n else math.nan,
                        f"{name}_std": math.sqrt(m2 / n) if n else math.nan,
                        f"{name}_count": n})
    return records, summary


# ---------------------------------------------------------------------------
# finite-difference gradient checking

def _central_diff(f, x, h: float = 1e-5) -> np.ndarray:
    """Componentwise central differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        xp = x.copy()
        xp[ix] += h
        fp = f(xp)
        xp[ix] -= 2.0 * h
        fm = f(xp)
        g[ix] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def _error_scale(analytic, fd) -> float:
    """The scale _max_rel_err divides by: the larger gradient's largest
    entry, at least 1e-8."""
    return max(float(np.abs(fd).max()), float(np.abs(analytic).max()), 1e-8)


def _max_rel_err(analytic, fd) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    return float(np.abs(analytic - fd).max()) / _error_scale(analytic, fd)


def _away_from(values, kinks, margin):
    return np.all(np.abs(np.asarray(values)[..., None]
                         - np.asarray(kinks)[None, :]) > margin)


# the ops _gradcheck_cases yields, in its order
GRADCHECK_OPS = ("vmf_similarity", "uamf_loss", "pps_loss", "pns_loss", "pp_loss", "sns_loss",
                 "laplace_nll", "perceptual_nll", "smoothness_loss", "view_variance_loss")


def _z_and_W_pairs(loss, z, y, W, h):
    """The (analytic, finite-difference) gradient pairs in z and in W of
    loss(batch, proxies) on unit proxy rows W, one for each side whose
    analytic gradient is not None; the probes read totals only."""
    batch, proxies = EmbeddingBatch(z, y), ProxyMatrix(W)
    rep = loss(batch, proxies)
    pairs = []
    if rep.grad_z is not None:
        pairs.append((rep.grad_z, _central_diff(
            lambda zz: loss(EmbeddingBatch(zz, y), proxies).total, z, h)))
    if rep.grad_W is not None:
        pairs.append((rep.grad_W, _central_diff(
            lambda ww: loss(batch, _raw_proxies(ww)).total, W, h)))
    return pairs


def _similarity_sum(batch: EmbeddingBatch, proxies: ProxyMatrix, n: int) -> LossReport:
    """The sum of the vMF similarities of the batch to the proxies as a
    loss, with the adjoint of sphere_math._similarity_adjoint."""
    S = batch.z @ proxies.W.T
    sims, _, ratio, scale = vmf_similarity_batch(S, batch.norms, n)
    total = float(sims.sum())
    return LossReport(total, {"vmf_similarity": total}, batch=batch, proxies=proxies,
                      adjoint=(lambda: _similarity_adjoint(np.ones_like(S), S, ratio, scale),))


def _gradcheck_cases(rng: np.random.Generator):
    """One random small instance per differentiable op; each case yields
    (name, [(analytic_grad, fd_grad), ...])."""
    h = 1e-5
    margin = 100 * h
    cases = []

    # vmf similarity of one sample to one unit proxy
    d, n = 6, 8
    proxy = rng.standard_normal(d)
    proxy /= np.linalg.norm(proxy)
    # norms of about 5 to 250
    z = rng.standard_normal(d) * rng.uniform(2.0, 100.0)
    cases.append(("vmf_similarity", _z_and_W_pairs(
        lambda b, p: _similarity_sum(b, p, n), z[None], np.zeros(1, np.int64),
        proxy[None], h)))

    # margin softmax over similarities.  Wider norm scales saturate the
    # softmax, whose gradients (about 1e-11) then fall under the
    # finite-difference noise.
    N, C, d = 3, 5, 6
    z = rng.standard_normal((N, d)) * rng.uniform(2.0, 20.0, (N, 1))
    y = rng.integers(0, C, N)
    W = rng.standard_normal((C, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    mgn, tau = rng.uniform(0.0, 2.0), rng.uniform(0.5, 2.0)
    cases.append(("uamf_loss", _z_and_W_pairs(lambda b, p: uamf_loss(b, p, mgn, tau),
                                              z, y, W, h)))

    cfg = RunConfig(lambda_sns=150.0)

    # pps: keep every cosine away from the mid kink
    mid = 0.5
    state = EpochMidState(mid=mid)
    proxies = ProxyMatrix(W)
    while True:
        z = rng.standard_normal((N, d)) * rng.uniform(2.0, 20.0, (N, 1))
        y = rng.integers(0, C, N)
        if _away_from(positive_cosines(EmbeddingBatch(z, y), proxies), [mid], margin):
            break
    cases.append(("pps_loss", _z_and_W_pairs(lambda b, p: pps_loss(b, p, state, cfg),
                                             z, y, W, h)))
    # pns: smooth everywhere
    cases.append(("pns_loss", _z_and_W_pairs(lambda b, p: pns_loss(b, p, cfg), z, y, W, h)))

    # pp: freeze the random selection by reseeding per evaluation
    sel_seed = int(rng.integers(0, 2 ** 31))
    cases.append(("pp_loss", _z_and_W_pairs(
        lambda b, p: pp_loss(y, p, cfg, np.random.default_rng(sel_seed)), z, y, W, h)))

    # sns: linear in the cosines, smooth
    cases.append(("sns_loss", _z_and_W_pairs(lambda b, p: sns_loss(b, cfg),
                                             z, np.arange(N) % 2, W, h)))

    # reconstruction losses on a small image
    hgt, wid = 4, 5
    sigma = rng.uniform(0.5, 1.5, (hgt, wid, 3))
    mask = rng.uniform(size=(hgt, wid)) < 0.8
    mask.flat[0] = True
    while True:
        img = rng.uniform(0.0, 1.0, (hgt, wid, 3))
        img_hat = img + rng.uniform(-0.4, 0.4, img.shape)
        if np.all(np.abs(img_hat - img) > margin):
            break
    val, grad = laplace_nll_grad(img_hat, img, sigma, mask)
    cases.append(("laplace_nll", [
        (grad, _central_diff(lambda a: laplace_nll(a, img, sigma, mask), img_hat, h)),
    ]))

    extractor = PerceptualExtractor.from_seed(int(rng.integers(0, 2 ** 31)),
                                              (hgt, wid, 3), features=16)
    fsig = rng.uniform(0.5, 1.5, 16)
    while True:
        img_hat = img + rng.uniform(-0.4, 0.4, img.shape)
        de = extractor.extract(img_hat) - extractor.extract(img)
        if np.all(np.abs(de) > margin):
            break
    val, grad = perceptual_nll_grad(img_hat, img, extractor, fsig)
    cases.append(("perceptual_nll", [
        (grad, _central_diff(lambda a: perceptual_nll(a, img, extractor, fsig),
                             img_hat, h)),
    ]))

    # smoothness: adjacent values kept apart, stored range kept constant
    while True:
        v = rng.uniform(1.0, 3.0, (hgt, wid))
        if np.all(np.abs(np.diff(v, axis=0)) > margin) \
                and np.all(np.abs(np.diff(v, axis=1)) > margin):
            break
    lo, hi = 0.5, 3.5
    dm = DepthMap(values=v, min_depth=lo, max_depth=hi)
    val, grad = smoothness_grad(dm)
    cases.append(("smoothness_loss", [
        (grad, _central_diff(
            lambda vv: smoothness_loss(DepthMap(values=vv, min_depth=lo,
                                                max_depth=hi)), v, h)),
    ]))

    # view variance: variances kept away from the hinge thresholds
    thr = (0.01, 0.04, 0.01)
    while True:
        views = rng.normal(0.0, 0.15, (5, 3))
        if _away_from(views.var(axis=0), thr, 10 * margin):
            break
    val, grad = view_variance_grad(views, thr)
    cases.append(("view_variance_loss", [
        (grad, _central_diff(lambda a: view_variance_loss(a, thr), views, h)),
    ]))
    return cases


def _raw_proxies(w):
    """Bypass the unit-norm validation for finite-difference probes."""
    p = ProxyMatrix.__new__(ProxyMatrix)
    p.W = np.asarray(w, dtype=np.float64)
    return p


def grad_check(repeats: int = 5, corrupt_op: Optional[str] = None, seed: int = 0):
    """Run central finite-difference checks on every differentiable loss
    op at random small instances drawn from the seed; returns (rows, ok)
    with one row per op, passing at a max relative error of 1e-4.
    corrupt_op deliberately biases one analytic gradient to prove the
    detector fires; a name outside GRADCHECK_OPS is a ConfigError."""
    if corrupt_op is not None and corrupt_op not in GRADCHECK_OPS:
        raise ConfigError(f"--corrupt (corrupt_op) must be one of "
                          f"{', '.join(GRADCHECK_OPS)}, got {corrupt_op!r}")
    worst: dict[str, float] = {}
    rng = np.random.default_rng(seed)
    for _ in range(repeats):
        for name, pairs in _gradcheck_cases(rng):
            for k, (analytic, fd) in enumerate(pairs):
                analytic = np.asarray(analytic, dtype=np.float64)
                if corrupt_op == name and k == 0:
                    # 1e-3 of the error scale: ten times the gate, whatever
                    # the gradient's size
                    analytic = analytic.copy()
                    analytic.flat[0] += 1e-3 * _error_scale(analytic, fd)
                err = _max_rel_err(analytic, fd)
                worst[name] = max(worst.get(name, 0.0), err)
    rows = [{"op": name, "max_rel_err": err, "pass": err <= 1e-4}
            for name, err in worst.items()]
    return rows, all(r["pass"] for r in rows)
