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

from .errors import ConfigError, DomainError, FormatError
from .io_formats import RunConfig, _row_blocks, emit_metrics, read_tensor, write_tensor
from .proxy_losses import (EpochMidState, end_epoch, observe_positive_cosines,
                           positive_cosines, pp_loss, pns_loss, pps_loss,
                           proxy_based_total, sns_loss)
from .recon_losses import (PerceptualExtractor, laplace_nll, laplace_nll_grad,
                           perceptual_nll, perceptual_nll_grad, smoothness_grad,
                           smoothness_loss, view_variance_grad, view_variance_loss)
from .sphere_math import _similarity_adjoint, vmf_similarity_batch
from .sphere_stats import proxy_spread_trackers, sns_tracker
from .uamf import EmbeddingBatch, LossReport, ProxyMatrix, uamf_loss, update_norm_tracker


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
    if not np.isfinite(norms).all():
        raise ConfigError(f"norm_logmean = {cfg.norm_logmean} and norm_logstd = "
                          f"{cfg.norm_logstd} draw a sample norm that overflows to inf")

    for rows in _row_blocks(m, cfg.d_in):
        tang, base, ph = X[rows], dirs[labels[rows]], phi[rows, None]
        # the tangent's part across its class direction, at unit length
        tang -= np.sum(tang * base, axis=1, keepdims=True) * base
        tang /= np.linalg.norm(tang, axis=1, keepdims=True)
        # turned phi away from the direction, then scaled to its norm
        tang *= np.sin(ph)
        base *= np.cos(ph)
        tang += base
        tang *= norms[rows, None]
    return X, labels


@dataclasses.dataclass
class TrainState:
    embedder: np.ndarray            # d_in x d
    proxies: ProxyMatrix
    # the newest (embedder, proxies) whose loss evaluated finite; updates
    # build new arrays rather than writing into these, so no copy is needed
    good: tuple
    mu_norm: float                  # EMA of the batch-mean feature norm
    mid_state: EpochMidState
    vel_emb: np.ndarray
    vel_W: np.ndarray
    step: int
    rng: np.random.Generator


def init_state(cfg: RunConfig) -> TrainState:
    rng_init = np.random.default_rng([cfg.seed, 1])
    emb = rng_init.standard_normal((cfg.d_in, cfg.d)) / np.sqrt(cfg.d_in)
    proxies = ProxyMatrix(rng_init.standard_normal((cfg.C, cfg.d)))
    return TrainState(embedder=emb, proxies=proxies, good=(emb, proxies),
                      mu_norm=cfg.mu_norm_init,
                      mid_state=EpochMidState(mid=cfg.cos_min),
                      vel_emb=np.zeros_like(emb),
                      vel_W=np.zeros_like(proxies.W),
                      step=0, rng=np.random.default_rng([cfg.seed, 2]))


def _scored_blocks(X, labels, embedder, proxies: ProxyMatrix):
    """(features X[rows] @ embedder, labels[rows]) of each of the _row_blocks
    of the samples, max(C, d) wide: the width of their scores against the
    proxies and of the features.  Each block's features overwrite the
    previous block's in one buffer, so no caller may keep them past its
    loop body, and two blocks are never alive at once."""
    z = None
    for rows in _row_blocks(len(labels), max(proxies.W.shape)):
        n = rows.stop - rows.start
        if z is None:           # the first block is the largest
            z = np.empty((n, embedder.shape[1]), np.result_type(X, embedder))
        yield np.matmul(X[rows], embedder, out=z[:n]), labels[rows]


def train_accuracy(X, labels, embedder, proxies: ProxyMatrix) -> float:
    """Fraction of samples whose nearest proxy by cosine is their class,
    scored in _scored_blocks."""
    # the proxies are unit rows, so dividing each row of scores by its
    # sample's norm would not move the argmax
    hits = 0
    for z, y in _scored_blocks(X, labels, embedder, proxies):
        hits += int(np.count_nonzero(np.argmax(z @ proxies.W.T, axis=1) == y))
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
    if emb.ndim != 2 or w.ndim != 2 or emb.shape[1] != w.shape[1]:
        raise FormatError(f"checkpoint embedder {emb.shape} and proxies {w.shape} "
                          f"do not share one feature width")
    return emb, ProxyMatrix(w)


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


def train_step(state: TrainState, xb, yb, cfg: RunConfig, lr: float) -> dict:
    """One momentum-SGD step on inputs xb with labels yb; returns its metrics
    record (lr to std_sns).  The forward pass, the losses and the diagnostics
    read the parameters the step starts from; the backward and the update come
    last, so a failed check raises _Diverged with the parameters unchanged:
    "non-finite features" when EmbeddingBatch rejects the features' norms,
    "non-finite update" when ProxyMatrix rejects an updated proxy row or the
    updated embedder, which the step checks itself, holds a non-finite entry."""
    try:
        batch = EmbeddingBatch(xb @ state.embedder, yb)
    except DomainError:
        raise _Diverged("non-finite features") from None
    state.mu_norm, margin = update_norm_tracker(state.mu_norm, batch,
                                                cfg.ema_alpha, cfg.margin_coeff)
    # one report of the whole step: its gradients take one backward
    step = (uamf_loss(batch, state.proxies, margin, cfg.tau)
            + proxy_based_total(batch, state.proxies, state.mid_state, cfg, state.rng))
    state.mid_state = observe_positive_cosines(state.mid_state, step.stats["positive_cos"])
    _require(math.isfinite(step.total), "non-finite loss")
    state.good = state.embedder, state.proxies

    record = {"lr": lr, "loss_total": step.total, **step.terms,   # uamf, pps, pns, pp
              "sns": step.terms.get("sns", 0.0),
              "margin": margin, "mu_norm": state.mu_norm, "mid": state.mid_state.mid,
              "below_mid_frac": step.stats["below_frac"],
              **proxy_spread_trackers(state.proxies, step.stats["pp_gram"]),  # std, std_mean
              "std_sns": sns_tracker(batch)}

    state.vel_emb *= cfg.momentum              # in place: vel <- m vel - lr g
    state.vel_emb -= lr * (xb.T @ step.grad_z)
    emb = state.embedder + state.vel_emb
    state.vel_W *= cfg.momentum
    state.vel_W -= lr * step.grad_W
    _require(np.isfinite(emb).all(), "non-finite update")
    try:
        proxies = ProxyMatrix(state.proxies.W + state.vel_W)
    except DomainError:
        raise _Diverged("non-finite update") from None
    state.embedder, state.proxies = emb, proxies
    state.step += 1
    return record


def train(cfg: RunConfig, out_dir: str) -> TrainResult:
    """Mini-batch SGD with momentum, one train_step per batch; per-epoch
    mid/accuracy updates and checkpoints under out_dir.  Each epoch's rows
    (a step's record with its step, epoch and the epoch's starting
    accuracy) are appended to metrics.csv as the epoch ends, so a stopped
    run keeps the epochs it finished.  A failed check aborts the run with
    the check as the reason, the diverged epoch's rows written and the
    newest state whose loss evaluated finite saved."""
    X, labels = generate_dataset(cfg)
    m = len(labels)
    state = init_state(cfg)
    _checkpoint(out_dir, "epoch_000", state)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    emit_metrics([], metrics_path)      # empty until an epoch appends its rows

    acc = train_accuracy(X, labels, state.embedder, state.proxies)
    reason = None
    epochs_run = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            lr = cfg.lr * 0.5 ** ((epoch - 1) // cfg.lr_halve_every)
            records = []
            perm = state.rng.permutation(m)
            for lo in range(0, m, cfg.batch_size):
                idx = perm[lo:lo + cfg.batch_size]
                record = train_step(state, X[idx], labels[idx], cfg, lr)
                records.append({"step": state.step, "epoch": epoch, **record,
                                "train_acc": acc})
            emit_metrics(records, metrics_path, append=True)
            state.mid_state = end_epoch(state.mid_state, cfg)
            acc = train_accuracy(X, labels, state.embedder, state.proxies)
            epochs_run = epoch
            _checkpoint(out_dir, f"epoch_{epoch:03d}", state)
    except _Diverged as exc:
        reason = str(exc)
        emit_metrics(records, metrics_path, append=True)
        state.embedder, state.proxies = state.good

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
    _scored_blocks; returns (records, summary with means/stds/counts)."""
    edges = np.linspace(-1.0, 1.0, 65)
    counts = np.zeros((2, 64), dtype=np.int64)         # pad, nad
    moments = [(0, 0.0, 0.0), (0, 0.0, 0.0)]
    # features that overflow in a block's product are not finite, and the
    # batch rejects them with its own message in place of numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        for z, y in _scored_blocks(X, labels, embedder, proxies):
            batch = EmbeddingBatch(z, y)
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

def _central_diff(f, x) -> np.ndarray:
    """Componentwise central differences of a scalar function, probing one
    float64 copy of x in place: each entry is set to x + h, then 2 h
    lower, then restored, with h = _FD_STEP."""
    h = _FD_STEP
    xp = np.array(x, dtype=np.float64)
    g = np.zeros_like(xp)
    for ix in np.ndindex(xp.shape):
        x0 = xp[ix]
        xp[ix] += h
        fp = f(xp)
        xp[ix] -= 2.0 * h
        g[ix] = (fp - f(xp)) / (2.0 * h)
        xp[ix] = x0
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


# the ops _gradcheck_cases yields, in its order, and the step of every probe
GRADCHECK_OPS = ("vmf_similarity", "uamf_loss", "pps_loss", "pns_loss", "pp_loss", "sns_loss",
                 "laplace_nll", "perceptual_nll", "smoothness_loss", "view_variance_loss")
_FD_STEP = 1e-5


def _z_and_W_pairs(loss, z, y, W, proxies_of):
    """The (analytic, finite-difference) gradient pairs in z and in W of
    loss(batch, proxies) on the rows W put on the sphere, one for each side
    whose analytic gradient is not None; the probes read totals only.  The W
    probes step off the sphere and hand their rows to proxies_of: a loss of
    the proxies' cosines takes ProxyMatrix, which puts them back as the
    training update does, and a loss of S alone takes _raw_proxies."""
    batch, proxies = EmbeddingBatch(z, y), ProxyMatrix(W)
    rep = loss(batch, proxies)
    pairs = []
    if rep.grad_z is not None:
        pairs.append((rep.grad_z, _central_diff(
            lambda zz: loss(EmbeddingBatch(zz, y), proxies).total, z)))
    if rep.grad_W is not None:
        pairs.append((rep.grad_W, _central_diff(
            lambda ww: loss(batch, proxies_of(ww)).total, proxies.W)))
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
    margin = 100 * _FD_STEP
    cases = []

    # vmf similarity of one sample to one unit proxy
    d, n = 6, 8
    proxy = rng.standard_normal(d)
    # norms of about 5 to 250
    z = rng.standard_normal(d) * rng.uniform(2.0, 100.0)
    cases.append(("vmf_similarity", _z_and_W_pairs(
        lambda b, p: _similarity_sum(b, p, n), z[None], np.zeros(1, np.int64), proxy[None],
        _raw_proxies)))

    # margin softmax over similarities.  Wider norm scales saturate the
    # softmax, whose gradients (about 1e-11) then fall under the
    # finite-difference noise.
    N, C, d = 3, 5, 6
    z = rng.standard_normal((N, d)) * rng.uniform(2.0, 20.0, (N, 1))
    y = rng.integers(0, C, N)
    W = rng.standard_normal((C, d))
    mgn, tau = rng.uniform(0.0, 2.0), rng.uniform(0.5, 2.0)
    cases.append(("uamf_loss", _z_and_W_pairs(lambda b, p: uamf_loss(b, p, mgn, tau), z, y, W,
                                              _raw_proxies)))

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
    cases.append(("pps_loss", _z_and_W_pairs(
        lambda b, p: pps_loss(b, p, state, cfg), z, y, W, ProxyMatrix)))
    # pns: smooth everywhere
    cases.append(("pns_loss", _z_and_W_pairs(
        lambda b, p: pns_loss(b, p, cfg), z, y, W, ProxyMatrix)))

    # pp: freeze the random selection by reseeding per evaluation
    sel_seed = int(rng.integers(0, 2 ** 31))
    cases.append(("pp_loss", _z_and_W_pairs(
        lambda b, p: pp_loss(b, p, cfg, np.random.default_rng(sel_seed)),
        z, y, W, ProxyMatrix)))

    # sns: linear in the cosines, smooth
    cases.append(("sns_loss", _z_and_W_pairs(lambda b, p: sns_loss(b, cfg),
                                             z, np.arange(N) % 2, W, ProxyMatrix)))

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
    cases.append(("laplace_nll", [
        (laplace_nll_grad(img_hat, img, sigma, mask),
         _central_diff(lambda a: laplace_nll(a, img, sigma, mask), img_hat)),
    ]))

    extractor = PerceptualExtractor.from_seed(int(rng.integers(0, 2 ** 31)),
                                              (hgt, wid, 3), features=16)
    fsig = rng.uniform(0.5, 1.5, 16)
    while True:
        img_hat = img + rng.uniform(-0.4, 0.4, img.shape)
        de = extractor.extract(img_hat) - extractor.extract(img)
        if np.all(np.abs(de) > margin):
            break
    cases.append(("perceptual_nll", [
        (perceptual_nll_grad(img_hat, img, extractor, fsig),
         _central_diff(lambda a: perceptual_nll(a, img, extractor, fsig), img_hat)),
    ]))

    # smoothness: adjacent values kept apart, the depth range a constant
    while True:
        v = rng.uniform(1.0, 3.0, (hgt, wid))
        if np.all(np.abs(np.diff(v, axis=0)) > margin) \
                and np.all(np.abs(np.diff(v, axis=1)) > margin):
            break
    cases.append(("smoothness_loss", [
        (smoothness_grad(v, 3.0), _central_diff(lambda vv: smoothness_loss(vv, 3.0), v)),
    ]))

    # view variance: variances kept away from the hinge thresholds
    thr = (0.01, 0.04, 0.01)
    while True:
        views = rng.normal(0.0, 0.15, (5, 3))
        if _away_from(views.var(axis=0), thr, 10 * margin):
            break
    cases.append(("view_variance_loss", [
        (view_variance_grad(views, thr),
         _central_diff(lambda a: view_variance_loss(a, thr), views)),
    ]))
    return cases


def _raw_proxies(w):
    """Proxies with rows off the sphere, unchecked, for the W probes of
    uamf_loss and the vMF similarity, which read S alone and probe the rows
    as they are: the package's one object built without its constructor."""
    p = ProxyMatrix.__new__(ProxyMatrix)
    p.W = np.asarray(w, dtype=np.float64)
    return p


def grad_check(repeats: int = 5, corrupt_op: Optional[str] = None, seed: int = 0):
    """Run central finite-difference checks on every differentiable loss
    op at random small instances drawn from the seed; returns (rows, ok)
    with one row per op, passing at a max relative error of 1e-4.
    corrupt_op deliberately biases one analytic gradient to prove the
    detector fires; a name outside GRADCHECK_OPS is a ConfigError.

    The error of an (analytic a, finite-difference fd) pair is
    max|a - fd| / max(max|fd|, max|a|, 1e-8): relative to the larger
    gradient's largest entry, and absolute below the 1e-8 floor, which
    keeps a vanishing gradient from dividing by zero.  So a correct
    gradient whose true size is about 1e-11 fails on finite-difference
    noise alone.  That is why the uamf_loss instances draw their norm
    scales from [2, 20]: from [2, 100], the softmax saturates, and
    grad_check(repeats=20) failed a correct uamf_loss on 6 of the seeds
    0-259 (seed 135: a grad_z entry of 4.0e-11 against a central
    difference of 0)."""
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
