"""Synthetic data, training loop, checkpoints, histogram dump, gradient check."""

import collections
import copy
import csv
import dataclasses
import functools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lh2 import io_formats, proxy_losses, sphere_math, train_harness, uamf
from lh2.errors import ConfigError
from lh2.io_formats import RunConfig, parse_config
from lh2.proxy_losses import (EpochMidState, pns_loss, pp_loss, pp_selection, pps_loss,
                              proxy_based_total, sns_loss)
from lh2.sphere_stats import proxy_spread_trackers
from lh2.train_harness import (GRADCHECK_OPS, _gradcheck_cases, _raw_proxies,
                               generate_dataset, grad_check, histogram_dump, init_state,
                               load_checkpoint, train, train_accuracy)
from lh2.uamf import EmbeddingBatch, ProxyMatrix, uamf_loss

import oracles

HEADER = ("step,epoch,lr,loss_total,uamf,pps,pns,pp,sns,margin,mu_norm,"
          "mid,below_mid_frac,std,std_mean,std_sns,train_acc")

TINY = dict(seed=1, C=8, d=8, n=8, d_in=16, samples_per_class=20,
            noise_angle_deg=10.0, epochs=3, batch_size=32, lr=0.05,
            lr_halve_every=2)
# more proxies than a batch holds: pp selects a subset of them
WIDE = dict(TINY, C=40, samples_per_class=8, batch_size=16, epochs=1)


def _class_dirs(seed, C, d_in):
    dirs = np.random.default_rng(seed).standard_normal((C, d_in))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _read_metrics(path):
    with open(path, newline="") as fh:
        return fh.readline().rstrip("\n"), list(csv.DictReader(fh, fieldnames=HEADER.split(",")))


# ---------------------------------------------------------------- dataset

def test_generate_dataset_deterministic():
    cfg = RunConfig(seed=7, C=4, d_in=12, samples_per_class=9)
    Xa, la = generate_dataset(cfg)
    Xb, lb = generate_dataset(cfg)
    assert np.array_equal(Xa, Xb)
    assert np.array_equal(la, lb)
    assert Xa.shape == (36, 12)


def test_generate_dataset_labels_layout():
    _, labels = generate_dataset(RunConfig(seed=7, C=5, d_in=6, samples_per_class=11))
    assert np.array_equal(labels, np.repeat(np.arange(5), 11))


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("shape", [
    # 2100 rows of 64: two blocks of 1024 rows, then a partial one
    dict(C=3, samples_per_class=700, d_in=64, noise_angle_deg=10.0),
    dict(C=3, samples_per_class=700, d_in=64, noise_angle_deg=0.0),
    # 40000 rows of 2: one block of 32768 rows, then a partial one
    dict(C=4, samples_per_class=10000, d_in=2, noise_angle_deg=10.0),
], ids=["partial_block", "no_noise", "d_in_2"])
def test_generate_dataset_matches_the_whole_array_formula(seed, shape):
    cfg = RunConfig(seed=seed, norm_logmean=2.0, norm_logstd=0.5, **shape)
    X, labels = generate_dataset(cfg)
    want_X, want_labels = oracles.whole_array_dataset(
        seed, cfg.C, cfg.samples_per_class, cfg.d_in, cfg.noise_angle_deg,
        cfg.norm_logmean, cfg.norm_logstd)
    assert np.array_equal(X, want_X)
    assert np.array_equal(labels, want_labels)


def test_generate_dataset_peaks_at_the_dataset_plus_a_block():
    # the desk dataset, 32000 x 64 (16.4 MB); the whole-array formula peaks
    # at about four times that
    cfg = RunConfig(C=64, samples_per_class=500, d_in=64)
    tracemalloc.start()
    try:
        X, _ = generate_dataset(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= X.nbytes + 4 * 2 ** 20


def test_zero_noise_samples_collinear_with_class_dirs():
    X, labels = generate_dataset(RunConfig(seed=4, C=5, d_in=16, samples_per_class=3,
                                           noise_angle_deg=0.0))
    dirs = _class_dirs(4, 5, 16)
    U = X / np.linalg.norm(X, axis=1, keepdims=True)
    cos = (U * dirs[labels]).sum(axis=1)
    assert cos.min() >= 1.0 - 1e-12


def test_noisy_class_means_recover_directions():
    X, labels = generate_dataset(RunConfig(seed=4, C=5, d_in=16, samples_per_class=200,
                                           noise_angle_deg=10.0))
    dirs = _class_dirs(4, 5, 16)
    for c in range(5):
        m = X[labels == c].mean(axis=0)
        m /= np.linalg.norm(m)
        angle = math.degrees(math.acos(min(1.0, float(m @ dirs[c]))))
        assert angle < 5.0


def test_lognormal_norms_match_config():
    X, _ = generate_dataset(RunConfig(seed=9, C=5, d_in=16, samples_per_class=200,
                                      norm_logmean=3.0, norm_logstd=0.25))
    ln = np.log(np.linalg.norm(X, axis=1))
    assert abs(ln.mean() - 3.0) < 0.1
    assert abs(ln.std() - 0.25) < 0.05


def test_generate_dataset_reads_noise_angle_in_degrees():
    # each sample lies |phi| from its class direction, phi ~ N(0, 10 degrees)
    X, labels = generate_dataset(RunConfig(seed=5, C=2, d_in=16, samples_per_class=2000,
                                           noise_angle_deg=10.0))
    U = X / np.linalg.norm(X, axis=1, keepdims=True)
    angles = np.arccos(np.clip((U * _class_dirs(5, 2, 16)[labels]).sum(axis=1), -1.0, 1.0))
    assert math.sqrt(np.mean(angles ** 2)) == pytest.approx(math.radians(10.0), rel=0.03)


def test_run_config_rejects_bad_dataset_values():
    # the dataset's values are checked by RunConfig itself
    for bad in ({"samples_per_class": 0}, {"noise_angle_deg": -1.0}, {"d_in": 1}):
        with pytest.raises(ConfigError, match=f"bad value for '{next(iter(bad))}'"):
            RunConfig(**bad)


# ------------------------------------------------------------ init state

def test_init_state_shapes_and_invariants():
    cfg = RunConfig(seed=4, C=3, d=6, d_in=8, mu_norm_init=20.0)
    st = init_state(cfg)
    assert st.embedder.shape == (8, 6)
    assert st.proxies.W.shape == (3, 6)
    assert np.abs(np.linalg.norm(st.proxies.W, axis=1) - 1.0).max() < 1e-12
    assert st.step == 0
    assert not st.vel_emb.any() and not st.vel_W.any()
    assert st.mu_norm == 20.0
    st2 = init_state(cfg)
    assert np.array_equal(st.embedder, st2.embedder)
    assert np.array_equal(st.proxies.W, st2.proxies.W)


# -------------------------------------------------------------- training

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = RunConfig(**TINY)
    res = train(cfg, str(out))
    return cfg, res, out


def test_train_completes_with_metrics(tiny_run):
    cfg, res, _ = tiny_run
    assert res.reason is None
    assert res.epochs_run == 3
    header, rows = _read_metrics(res.metrics_path)
    assert header == HEADER
    assert len(rows) == 15    # 160 samples, batch 32: 5 steps per epoch
    assert [int(r["step"]) for r in rows] == list(range(1, 16))
    for r in rows:
        lr = 0.05 * 0.5 ** ((int(r["epoch"]) - 1) // 2)
        assert float(r["lr"]) == lr


def test_train_acc_column_lags_one_epoch(tiny_run):
    cfg, res, _ = tiny_run
    X, labels = generate_dataset(cfg)
    st = init_state(cfg)
    acc0 = train_accuracy(X, labels, st.embedder, st.proxies)
    _, rows = _read_metrics(res.metrics_path)
    assert float(rows[0]["train_acc"]) == pytest.approx(acc0, rel=1e-8)
    assert res.final_accuracy > acc0


def test_train_accuracy_scores_in_blocks_under_the_work_cap(monkeypatch):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8000, 4))
    embedder = rng.standard_normal((4, 3))
    proxies = ProxyMatrix.from_rows(rng.standard_normal((128, 3)))
    one_shot = np.argmax((X @ embedder) @ proxies.W.T, axis=1)
    # blocks of 60 rows, the last one partial; the one-shot scores take 8 MB
    cap = 128 * 60
    monkeypatch.setattr(io_formats, "MAX_WORK", cap)
    tracemalloc.start()
    try:
        # the one-shot predictions as labels: accuracy 1 means every block
        # predicts each of its rows as the one-shot argmax does
        acc = train_accuracy(X, one_shot, embedder, proxies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acc == 1.0
    labels = one_shot.copy()
    labels[::1000] = (labels[::1000] + 1) % 128
    assert train_accuracy(X, labels, embedder, proxies) == 1.0 - 8 / 8000
    assert peak < 2 * 8 * cap


def test_train_accuracy_extra_memory_does_not_grow_with_the_dataset():
    rng = np.random.default_rng(0)
    embedder = rng.standard_normal((16, 32))
    proxies = ProxyMatrix.from_rows(rng.standard_normal((64, 32)))
    extra = []
    for m in (4096, 65536):
        X = rng.standard_normal((m, 16))
        labels = rng.integers(0, 64, m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_accuracy(X, labels, embedder, proxies)
            extra.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    # blocks of 1024 rows whatever m: 1024 x 64 scores take 512 KB
    assert extra[1] <= extra[0] + 4096
    assert extra[1] < 2 ** 20


def test_train_loss_decreases_across_epochs(tiny_run):
    _, res, _ = tiny_run
    _, rows = _read_metrics(res.metrics_path)
    mean = lambda e: np.mean([float(r["loss_total"]) for r in rows if r["epoch"] == str(e)])
    assert mean(3) < mean(1)    # measured 1.31 vs 12.29


def test_checkpoint_layout_and_loading(tiny_run):
    cfg, res, out = tiny_run
    ckpt = out / "checkpoints"
    tags = ["epoch_000", "epoch_001", "epoch_002", "epoch_003", "final"]
    for tag in tags:
        assert (ckpt / f"{tag}.embedder.lh2t").is_file()
        assert (ckpt / f"{tag}.proxies.lh2t").is_file()
    for suffix in ("embedder", "proxies"):
        final = (ckpt / f"final.{suffix}.lh2t").read_bytes()
        assert final == (ckpt / f"epoch_003.{suffix}.lh2t").read_bytes()
    base = ckpt / "final"
    forms = [load_checkpoint(str(base)),
             load_checkpoint(str(ckpt / "final.embedder.lh2t")),
             load_checkpoint(str(ckpt / "final.proxies.lh2t"))]
    for emb, proxies in forms[1:]:
        assert np.array_equal(emb, forms[0][0])
        assert np.array_equal(proxies.W, forms[0][1].W)
    emb, proxies = forms[0]
    assert np.abs(np.linalg.norm(proxies.W, axis=1) - 1.0).max() < 1e-6
    X, labels = generate_dataset(cfg)
    assert train_accuracy(X, labels, emb, proxies) == pytest.approx(res.final_accuracy, rel=1e-12)
    _, rows = _read_metrics(res.metrics_path)
    assert (rows[-1]["step"], rows[-1]["epoch"]) == ("15", "3")


def test_train_deterministic_bytes(tmp_path):
    cfg = RunConfig(**TINY)
    ra = train(cfg, str(tmp_path / "a"))
    rb = train(cfg, str(tmp_path / "b"))
    assert open(ra.metrics_path, "rb").read() == open(rb.metrics_path, "rb").read()
    for suffix in ("embedder", "proxies"):
        fa = tmp_path / "a" / "checkpoints" / f"final.{suffix}.lh2t"
        fb = tmp_path / "b" / "checkpoints" / f"final.{suffix}.lh2t"
        assert fa.read_bytes() == fb.read_bytes()


def _metrics_lines(path):
    with open(path, "rb") as fh:
        return fh.read().splitlines(keepends=True)


def test_a_stopped_run_keeps_the_metrics_of_its_finished_epochs(tiny_run, tmp_path,
                                                                monkeypatch):
    # the third accuracy pass closes epoch 2; the run dies inside it
    calls = []
    scored = train_harness.train_accuracy

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("killed")
        return scored(*args)

    monkeypatch.setattr(train_harness, "train_accuracy", failing)
    with pytest.raises(RuntimeError, match="killed"):
        train(RunConfig(**TINY), str(tmp_path))
    # the header and the 5 + 5 rows of epochs 1 and 2, as the full run wrote them
    full = _metrics_lines(tiny_run[1].metrics_path)
    assert _metrics_lines(tmp_path / "metrics.csv") == full[:11]


def test_a_diverged_run_writes_the_rows_of_its_last_epoch(tiny_run, tmp_path, monkeypatch):
    # the loss check fails on step 7, the second step of epoch 2
    checks = []
    require = train_harness._require

    def failing(ok, reason):
        if reason == "non-finite loss":
            checks.append(1)
            ok = ok and len(checks) < 7
        require(ok, reason)

    monkeypatch.setattr(train_harness, "_require", failing)
    res = train(RunConfig(**TINY), str(tmp_path))
    assert (res.reason, res.epochs_run) == ("non-finite loss", 1)
    full = _metrics_lines(tiny_run[1].metrics_path)
    assert _metrics_lines(res.metrics_path) == full[:7]


def test_train_divergence_restores_last_good_state(tmp_path):
    cfg = RunConfig(**{**TINY, "lr": 1e308})
    with np.errstate(over="ignore", invalid="ignore"):
        res = train(cfg, str(tmp_path))
    assert res.reason == "non-finite update"    # the first step's update overflows
    assert res.epochs_run < cfg.epochs
    emb, proxies = load_checkpoint(str(tmp_path / "checkpoints" / "final"))
    assert np.isfinite(emb).all() and np.isfinite(proxies.W).all()
    X, labels = generate_dataset(cfg)
    st = init_state(cfg)
    assert res.final_accuracy == pytest.approx(
        train_accuracy(X, labels, st.embedder, st.proxies), rel=1e-12)


def test_a_zero_norm_proxy_row_after_an_update_is_a_divergence():
    # the momentum step lands proxy row 0 on exactly 0: no direction to divide onto
    cfg = RunConfig(**{**TINY, "momentum": 0.5})
    X, labels = generate_dataset(cfg)
    state = init_state(cfg)
    state.vel_W[0] = -2.0 * state.proxies.W[0]
    embedder, proxies = state.embedder, state.proxies
    before = embedder.copy(), proxies.W.copy()
    with pytest.raises(train_harness._Diverged, match="^non-finite update$"):
        train_harness.train_step(state, X[:32], labels[:32], cfg, 0.0)
    assert state.embedder is embedder and state.proxies is proxies
    assert np.array_equal(embedder, before[0]) and np.array_equal(proxies.W, before[1])


def test_train_takes_positive_cosines_once_per_step(tmp_path, monkeypatch):
    calls = []
    counted = proxy_losses.positive_cosines

    def counting(batch, proxies):
        calls.append(1)
        return counted(batch, proxies)

    monkeypatch.setattr(proxy_losses, "positive_cosines", counting)
    res = train(RunConfig(**TINY), str(tmp_path))
    assert len(_read_metrics(res.metrics_path)[1]) == 15
    assert len(calls) == 15


def _count_step_builds(tmp_path, monkeypatch, cfg, steps):
    """Train on cfg and check that each of its steps builds one product,
    one proxy Gram and one backward, measures row norms twice (the batch's
    and the updated proxies'; init_state measures its proxies once),
    evaluates no Bessel function and scans no N x d array for finiteness:
    the package's one 2-d np.isfinite call of a step is the updated
    embedder's (d_in x d)."""
    counts = collections.Counter()
    scanned = []
    isfinite = np.isfinite

    def scanning(x, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"].startswith("lh2") and np.ndim(x) == 2:
            scanned.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", scanning)

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # rebind every module attribute that refers to the function, so calls
    # through any import of it are seen
    for fn in (uamf.uamf_loss, sphere_math._log_bessel, sphere_math._row_norms):
        wrapper = counting(fn.__name__, fn)
        for name, mod in list(sys.modules.items()):
            if name.startswith("lh2") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapper)
    monkeypatch.setattr(uamf.ProxyProduct, "__init__",
                        counting("ProxyProduct", uamf.ProxyProduct.__init__))
    monkeypatch.setattr(uamf.ProxyMatrix, "selection_gram",
                        counting("selection_gram", uamf.ProxyMatrix.selection_gram))
    # the one backward of a step's adjoint, however it is bound
    backward = sphere_math.adjoint_grads
    for name, mod in list(sys.modules.items()):
        if name.startswith("lh2") and getattr(mod, "adjoint_grads", None) is backward:
            monkeypatch.setattr(mod, "adjoint_grads", counting("backward", backward))
    res = train(RunConfig(**cfg), str(tmp_path))
    assert len(_read_metrics(res.metrics_path)[1]) == steps
    assert counts == {"uamf_loss": steps, "ProxyProduct": steps, "backward": steps,
                      "selection_gram": steps, "_row_norms": 2 * steps + 1}
    assert counts["_log_bessel"] == 0
    assert scanned == [(cfg["d_in"], cfg["d"])] * steps


def test_train_step_builds_one_product_one_backward_and_no_bessel(tmp_path, monkeypatch):
    # the margin softmax reads S alone: no Bessel function in a training step;
    # the pp loss and the spread tracker read one proxy Gram
    _count_step_builds(tmp_path, monkeypatch, TINY, 15)


def test_a_step_selecting_a_subset_of_proxies_builds_one_proxy_gram(tmp_path, monkeypatch):
    _count_step_builds(tmp_path, monkeypatch, WIDE, 20)


def test_the_first_row_reads_the_spread_of_the_initial_proxies(tmp_path, monkeypatch):
    cfg = RunConfig(**TINY)
    records = []
    step = train_harness.train_step

    def recording(*args):
        records.append(step(*args))
        return records[-1]

    monkeypatch.setattr(train_harness, "train_step", recording)
    res = train(cfg, str(tmp_path))
    # C = 8 <= batch_size: every proxy is selected
    proxies = init_state(cfg).proxies
    want = proxy_spread_trackers(proxies, proxies.selection_gram(np.arange(cfg.C))[1])
    assert {key: records[0][key] for key in want} == want
    row = _read_metrics(res.metrics_path)[1][0]
    assert (row["std"], row["std_mean"]) == (f"{want['std']:.9g}", f"{want['std_mean']:.9g}")


def _assert_rel(got, want, rel=1e-12):
    np.testing.assert_allclose(got, want, rtol=rel,
                               atol=rel * float(np.max(np.abs(want), initial=0.0)))


def _check_step_matches_standalone(z, labels, W, mid, plcfg, rng_seed, raw=False):
    """The training step's calls on one batch (uamf_loss then
    proxy_based_total, which share the batch's product) against every
    public loss called on its own fresh batch and proxies."""
    margin, tau = 0.7, 0.8
    make = _raw_proxies if raw else ProxyMatrix
    state = EpochMidState(mid=mid)
    batch, proxies = EmbeddingBatch(z, labels), make(W)
    rep_u = uamf_loss(batch, proxies, margin, tau)
    rep_p = proxy_based_total(batch, proxies, state, plcfg,
                              np.random.default_rng(rng_seed))

    def fresh():
        return EmbeddingBatch(z, labels), make(W)

    parts = {"uamf": uamf_loss(*fresh(), margin, tau),
             "pps": pps_loss(*fresh(), state, plcfg),
             "pns": pns_loss(*fresh(), plcfg),
             "pp": pp_loss(labels, make(W), plcfg, np.random.default_rng(rng_seed))}
    if plcfg.lambda_sns > 0:
        parts["sns"] = sns_loss(fresh()[0], plcfg)
    assert {**rep_u.terms, **rep_p.terms} == {k: p.total for k, p in parts.items()}
    _assert_rel(rep_u.total + rep_p.total, sum(p.total for p in parts.values()))
    _assert_rel(rep_u.grad_z + rep_p.grad_z,
                sum(p.grad_z for p in parts.values() if p.grad_z is not None))
    _assert_rel(rep_u.grad_W + rep_p.grad_W,
                sum(p.grad_W for p in parts.values() if p.grad_W is not None))
    return rep_p


def test_training_step_losses_equal_the_standalone_losses():
    cfg = RunConfig()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        N, C, d = 12, 6, 5
        y = rng.integers(0, C, N)
        W = rng.standard_normal((C, d))
        unit = W / np.linalg.norm(W, axis=1, keepdims=True)
        # samples near their proxies, so positive cosines fall on both sides
        # of the mid, at norms of about 1 to 100
        z = (unit[y] + 0.6 * rng.standard_normal((N, d))) * rng.uniform(0.5, 60.0, (N, 1))
        rep = _check_step_matches_standalone(z, y, unit, 0.5, cfg, seed)
        assert 0 < rep.stats["below_frac"] < 1
        # raw proxies off the sphere, as the grad-check's uamf and vMF probes pass them
        _check_step_matches_standalone(z, y, W * rng.uniform(0.5, 2.0, (C, 1)),
                                       0.5, cfg, seed, raw=True)
        # a zero row and a row below KAPPA_MIN
        zc = z.copy()
        zc[0] = 0.0
        zc[1] *= 1e-9 / np.linalg.norm(zc[1])
        _check_step_matches_standalone(zc, y, unit, 0.5, cfg, seed)
        # no sample below the mid
        rep = _check_step_matches_standalone(z, y, unit, -1.5, cfg, seed)
        assert rep.stats["below_frac"] == 0
        # sns switched on
        _check_step_matches_standalone(z, y, unit, 0.5,
                                       RunConfig(lambda_sns=150.0), seed)
        # one class and two classes
        rep = _check_step_matches_standalone(z, np.zeros(N, dtype=int), unit[:1],
                                             0.5, cfg, seed)
        assert rep.terms["pns"] == rep.terms["pp"] == 0.0
        _check_step_matches_standalone(z, y % 2, unit[:2], 0.5, cfg, seed)


def test_training_step_with_a_single_proxy_pp_selection():
    # one sample and C = 2: the sampled proxy can be the sample's own
    seed = next(s for s in range(50)
                if len(pp_selection(np.array([1]), 2, np.random.default_rng(s))) == 1)
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((2, 3))
    rep = _check_step_matches_standalone(rng.standard_normal((1, 3)) * 5.0,
                                         np.array([1]),
                                         W / np.linalg.norm(W, axis=1, keepdims=True),
                                         0.5, RunConfig(), seed)
    assert len(rep.stats["pp_gram"]) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_train_step_matches_the_reference_desk_step(seed):
    # from one state per batch, train_step and the plain-formula step agree
    cfg = dataclasses.replace(
        parse_config(Path(__file__).resolve().parent.parent / "configs" / "default.cfg"),
        seed=seed)
    X, labels = generate_dataset(cfg)
    state = init_state(cfg)
    perm = state.rng.permutation(len(labels))
    for lo in range(0, 20 * cfg.batch_size, cfg.batch_size):
        idx = perm[lo:lo + cfg.batch_size]
        ref = copy.deepcopy(state)
        want = oracles.reference_desk_step(ref, X[idx], labels[idx], cfg, cfg.lr)
        got = train_harness.train_step(state, X[idx], labels[idx], cfg, cfg.lr)
        assert got.keys() == want.keys()
        for key in want:
            _assert_rel(got[key], want[key])
        for name in ("embedder", "vel_emb", "vel_W", "mu_norm"):
            _assert_rel(getattr(state, name), getattr(ref, name))
        _assert_rel(state.proxies.W, ref.proxies.W)
        assert state.mid_state.acc_count == ref.mid_state.acc_count
        _assert_rel(state.mid_state.acc_sum, ref.mid_state.acc_sum)
        assert state.rng.bit_generator.state == ref.rng.bit_generator.state


# -------------------------------------------------------- histogram dump

def test_histogram_untrained_matches_random_direction_stats():
    cfg = RunConfig(seed=2, C=30, d=512, n=64, d_in=64, samples_per_class=40)
    X, labels = generate_dataset(cfg)
    st = init_state(cfg)
    records, summary = histogram_dump(st.embedder, st.proxies, X, labels)
    M = 30 * 40
    assert summary["pad_count"] == M
    assert summary["nad_count"] == M * 29
    assert abs(summary["nad_mean"]) < 0.01
    assert summary["nad_std"] == pytest.approx(math.sqrt(1 / 512), abs=0.01)
    assert len(records) == 64
    edges = np.linspace(-1.0, 1.0, 65)
    for i, rec in enumerate(records):
        assert rec["bin_lo"] == pytest.approx(edges[i], abs=1e-12)
        assert rec["bin_hi"] == pytest.approx(edges[i + 1], abs=1e-12)


def test_histogram_collinear_positives_land_in_top_bin():
    cfg = RunConfig(seed=3, C=6, d=10, n=10, d_in=10, samples_per_class=4)
    st = init_state(cfg)
    X = np.repeat(st.proxies.W, 4, axis=0) * 7.0
    labels = np.repeat(np.arange(6), 4)
    records, summary = histogram_dump(np.eye(10), st.proxies, X, labels)
    assert summary["pad_mean"] == pytest.approx(1.0, abs=1e-12)
    assert summary["pad_count"] == 24
    # rounding can push cos to 1 + ulp; binning clips it into the top bin
    assert sum(r["pad_count"] for r in records[:-1]) == 0
    assert records[-1]["pad_count"] == 24
    assert sum(r["nad_count"] for r in records) == summary["nad_count"]


def test_histogram_scores_in_blocks_under_the_work_cap(monkeypatch):
    cfg = RunConfig(seed=4, C=7, d=6, n=6, d_in=8, samples_per_class=9)
    X, labels = generate_dataset(cfg)
    st = init_state(cfg)
    one_records, one_summary = histogram_dump(st.embedder, st.proxies, X, labels)
    # blocks of 5 rows, the last one partial (63 = 12 * 5 + 3)
    monkeypatch.setattr(io_formats, "MAX_WORK", 7 * 5 + 3)
    calls = collections.Counter()
    batch_init = EmbeddingBatch.__post_init__

    def counted(self):
        calls[len(self.labels)] += 1
        batch_init(self)

    monkeypatch.setattr(EmbeddingBatch, "__post_init__", counted)
    records, summary = histogram_dump(st.embedder, st.proxies, X, labels)
    assert calls == {5: 12, 3: 1}
    assert records == one_records
    assert summary["pad_count"] == one_summary["pad_count"] == 63
    assert summary["nad_count"] == one_summary["nad_count"] == 63 * 6
    for key in ("pad_mean", "pad_std", "nad_mean", "nad_std"):
        assert summary[key] == pytest.approx(one_summary[key], rel=1e-12, abs=0.0)


# --------------------------------------------------------- gradient check

def test_grad_check_all_ops_pass():
    rows, ok = grad_check(repeats=2, seed=0)
    assert ok
    assert [r["op"] for r in rows] == [
        "vmf_similarity", "uamf_loss", "pps_loss", "pns_loss", "pp_loss",
        "sns_loss", "laplace_nll", "perceptual_nll", "smoothness_loss",
        "view_variance_loss"]
    # the names the CLI accepts for --corrupt
    assert tuple(r["op"] for r in rows) == GRADCHECK_OPS
    # a gradient that turns None drops its pair, so count them: pp has no
    # z gradient and sns no W gradient
    pairs = {name: len(p) for name, p in _gradcheck_cases(np.random.default_rng(0))}
    assert pairs == {"vmf_similarity": 2, "uamf_loss": 2, "pps_loss": 2, "pns_loss": 2,
                     "pp_loss": 1, "sns_loss": 1, "laplace_nll": 1, "perceptual_nll": 1,
                     "smoothness_loss": 1, "view_variance_loss": 1}
    for r in rows:
        assert r["pass"]
        assert r["max_rel_err"] <= 1e-4


def test_grad_check_rejects_an_unknown_op_before_drawing_a_case(monkeypatch):
    def no_cases(rng):
        raise AssertionError("a case was drawn")

    monkeypatch.setattr("lh2.train_harness._gradcheck_cases", no_cases)
    with pytest.raises(ConfigError, match="'nosuchop'") as info:
        grad_check(repeats=1, corrupt_op="nosuchop")
    assert all(op in str(info.value) for op in GRADCHECK_OPS)


def test_grad_check_detects_corruption():
    rows, ok = grad_check(repeats=2, seed=0, corrupt_op="uamf_loss")
    assert not ok
    by_op = {r["op"]: r for r in rows}
    assert not by_op["uamf_loss"]["pass"]
    assert all(r["pass"] for op, r in by_op.items() if op != "uamf_loss")


def test_grad_check_detects_a_corrupted_similarity_gradient():
    # the first pair is the z gradient, whose entries are about 1; a bias on
    # the W gradient (the sample itself, norm 5 to 250) stayed under the gate
    for seed in range(3):
        rows, ok = grad_check(repeats=1, seed=seed, corrupt_op="vmf_similarity")
        assert not ok
        assert [r["op"] for r in rows if not r["pass"]] == ["vmf_similarity"]


# --corrupt biases an op's first pair, its z gradient; these drop a part of
# the W gradient that only the W probes through from_rows can miss

def test_grad_check_catches_cosine_adjoints_without_their_proxy_norm_part(monkeypatch):
    cos_adjoint = uamf.ProxyProduct.cos_adjoint

    def no_dnw(self, d_cos):
        dS, dnz, _ = cos_adjoint(self, d_cos)
        return dS, dnz, None

    monkeypatch.setattr(uamf.ProxyProduct, "cos_adjoint", no_dnw)
    for seed in range(3):
        rows, ok = grad_check(repeats=1, seed=seed)
        assert not ok
        assert [r["op"] for r in rows if not r["pass"]] == ["pps_loss", "pns_loss"], seed


def test_grad_check_catches_a_pp_gradient_without_its_normalization_term(monkeypatch):
    quotient_rule = proxy_losses._quotient_rule

    def pp_without_weight(d_cos, cos, other_unit, own_unit):
        # pp's call alone: sns takes the same quotient rule on the samples
        if sys._getframe(1).f_code.co_qualname == "pp_loss.<locals>.direct":
            return d_cos @ other_unit
        return quotient_rule(d_cos, cos, other_unit, own_unit)

    monkeypatch.setattr(proxy_losses, "_quotient_rule", pp_without_weight)
    for seed in range(3):
        rows, ok = grad_check(repeats=1, seed=seed)
        assert not ok
        assert [r["op"] for r in rows if not r["pass"]] == ["pp_loss"], seed


def test_grad_check_detects_a_corruption_of_every_op():
    # the bias scales with the gradient, so ops whose gradients reach far
    # above 1 (pp, sns) fail too
    for op in GRADCHECK_OPS:
        for seed in range(3):
            rows, ok = grad_check(repeats=1, seed=seed, corrupt_op=op)
            assert not ok
            assert [r["op"] for r in rows if not r["pass"]] == [op], (op, seed)
