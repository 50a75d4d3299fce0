"""Desk-scale acceptance suite.

Each test pins one headline behavior of the package: closed-form minimum-angle
numbers, Monte Carlo agreement, Bessel/vMF oracle accuracy, the
finite-difference gradient gate, renderer equivalence and warp quality, the
canvas contract, end-to-end training, proxy-spread behavior, the epoch-mid
schedule, and the trivial identities.  Tolerances and runtime budgets are
asserted, not advisory.
"""

import csv
import dataclasses
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lh2.depth_renderer import (DepthMap, Pose, depth_centroid, hemisphere_scene,
                                intrinsics_from_fov, make_canvas,
                                project_points, rotation_about_axis,
                                scatter_min_render, shade,
                                transform_pointcloud, warp_image)
from lh2.io_formats import RunConfig, parse_config
from lh2.recon_losses import laplace_nll, smoothness_loss
from lh2.sphere_math import _log_bessel, vmf_similarity_batch
from lh2.sphere_stats import (evt_estimate, monte_carlo_pairwise,
                              proxy_spread_trackers)
from lh2.train_harness import (generate_dataset, grad_check, histogram_dump,
                               init_state, load_checkpoint, train)
from lh2.uamf import EmbeddingBatch, ProxyMatrix, uamf_loss

import oracles

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_minimum_angle_headline_numbers():
    est = evt_estimate(70722, 512)
    assert est["cos_min"] == pytest.approx(0.2089, abs=0.0005)
    assert est["theta_min_deg"] == pytest.approx(77.94, abs=0.05)
    assert est["std_cos"] == pytest.approx(0.0442, abs=0.0001)
    half, quarter = est["cos_half"], est["cos_quarter"]
    assert half == pytest.approx(0.78, abs=0.01)
    assert quarter == pytest.approx(0.94, abs=0.005)
    evt_estimate(70722, 512)    # warm
    t0 = time.perf_counter()
    for _ in range(100):
        evt_estimate(70722, 512)
    assert (time.perf_counter() - t0) / 100 < 1e-3


def test_monte_carlo_agrees_with_closed_forms():
    t0 = time.perf_counter()
    for C, d in ((100, 64), (1000, 128), (5000, 256)):
        res = monte_carlo_pairwise(C, d, trials=10, seed=0)
        nn_target = math.sqrt(2.0 * math.log(C) / d)
        assert abs(res["max_cos_mean"] - nn_target) <= 0.15 * nn_target
        std_target = math.sqrt(1.0 / d)
        assert abs(res["std_cos_emp"] - std_target) <= 0.07 * std_target
    assert time.perf_counter() - t0 < 60.0


def test_bessel_and_vmf_against_oracles():
    t0 = time.perf_counter()
    xs = np.geomspace(1e-3, 500.0, 25)       # below and above x = 1 and alpha
    for alpha in (0.0, 0.5, 1.0, 63.0, 127.0, 255.0):
        for x, got in zip(xs, _log_bessel(alpha, xs)[0]):
            want = oracles.log_bessel_oracle(alpha, float(x))
            assert abs(got - want) <= 1e-10 * abs(want) + 1e-12
    # the similarity of z = kappa x, for unit x, to the unit proxy mu is
    # the vMF log-density at x; S = mu . z and ||z|| = kappa
    def similarity(mu, kappa, x, n):
        return float(vmf_similarity_batch(np.array([[kappa * (mu @ x)]]),
                                          np.array([kappa]), n)[0][0, 0])

    mu = np.array([1.0, 0.0])
    for kappa in (0.5, 3.0, 20.0):

        def log_pdf(t, kappa=kappa):
            return similarity(mu, kappa, np.array([math.cos(t), math.sin(t)]), 2)

        assert oracles.circle_mass(log_pdf) == pytest.approx(1.0, abs=1e-8)
    mu = np.array([0.0, 0.0, 1.0])
    for kappa in (0.5, 4.0, 50.0):
        for t in (-0.8, 0.1, 0.9):
            x = np.array([math.sqrt(1.0 - t * t), 0.0, t])
            got = similarity(mu, kappa, x, 3)
            assert got == pytest.approx(oracles.vmf_n3_log_pdf(t, kappa),
                                        rel=1e-8)
    assert time.perf_counter() - t0 < 10.0


def test_gradient_suite_fifty_seeds():
    t0 = time.perf_counter()
    rows, ok = grad_check(repeats=50, seed=0)
    assert ok
    assert len(rows) == 10
    for r in rows:
        assert r["pass"], r
        assert r["max_rel_err"] <= 1e-4
    assert time.perf_counter() - t0 < 120.0


def test_renderer_equivalence_and_warp_quality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for case in range(200):
        W = int(rng.integers(8, 33))
        H = int(rng.integers(8, 33))
        K = intrinsics_from_fov(W, H, float(rng.uniform(30.0, 90.0)))
        d = DepthMap(rng.uniform(1.5, 4.0, (H, W)))
        pose = Pose(rotation_about_axis(int(rng.integers(3)),
                                        float(rng.uniform(-25.0, 25.0))),
                    rng.normal(0.0, 0.3, 3), depth_centroid(d, K))
        canvas = make_canvas([pose], d, K)
        projected = project_points(
            transform_pointcloud(oracles.planes(oracles.depth_to_pointcloud(d, K)), pose), K)
        np.testing.assert_array_equal(scatter_min_render(projected, canvas, case % 3),
                                      oracles.reference_scatter(*projected, canvas, case % 3))

    d, albedo, K, light = hemisphere_scene(30)
    canonical = shade(d, albedo, light, K)
    pose = Pose(np.eye(3), np.zeros(3), depth_centroid(d, K))
    canvas = make_canvas([pose], d, K)
    img, mask, _ = warp_image(canonical, d, pose, K, canvas, radius=1)
    assert mask.mean() > 0.95
    assert oracles.psnr(img, canonical, mask) >= 40.0

    unit = make_canvas([Pose(np.eye(3), np.zeros(3), np.zeros(3))],
                       DepthMap(np.full((5, 5), 2.0)),
                       intrinsics_from_fov(5, 5, 60.0))
    for lo, hi in ((1.0, 2.0), (2.0, 1.0), (0.5, 3.0)):
        occl = scatter_min_render((np.array([2.0, 2.0]), np.array([2.0, 2.0]),
                                   np.array([lo, hi]), np.array([True, True])),
                                  unit, radius=0)
        placed = occl[np.isfinite(occl)]
        assert placed.size == 1 and placed[0] == min(lo, hi)
    u = np.array([0.6, 0.9, 2.2, 3.4])
    v = np.array([1.1, 1.4, 0.2, 2.9])
    dep = np.array([2.0, 1.0, 3.0, 0.5])
    valid = np.ones(4, bool)
    base = scatter_min_render((u, v, dep, valid), unit, radius=1)
    for perm in itertools.permutations(range(4)):
        p = list(perm)
        res = scatter_min_render((u[p], v[p], dep[p], valid[p]), unit, radius=1)
        np.testing.assert_array_equal(res, base)
    assert time.perf_counter() - t0 < 120.0


def test_canvas_contract_holds_on_random_scenes():
    rng = np.random.default_rng(23)
    for _ in range(50):
        W = int(rng.integers(8, 41))
        H = int(rng.integers(8, 41))
        K = intrinsics_from_fov(W, H, float(rng.uniform(25.0, 80.0)))
        d = DepthMap(rng.uniform(1.5, 5.0, (H, W)))
        piv = depth_centroid(d, K)
        poses = [Pose(rotation_about_axis(int(rng.integers(3)),
                                          float(rng.uniform(-30.0, 30.0))),
                      rng.normal(0.0, 0.5, 3), piv)
                 for _ in range(int(rng.integers(1, 4)))]
        canvas = make_canvas(poses, d, K)
        # the last pixel sits at x_min_g + W_new - 1: symmetric about (W/2, H/2)
        assert 2.0 * canvas.x_min_g + (canvas.W_new - 1) == pytest.approx(W, abs=1e-6)
        assert 2.0 * canvas.y_min_g + (canvas.H_new - 1) == pytest.approx(H, abs=1e-6)
        assert canvas.H_new == canvas.W_new * H // W
        assert canvas.W_new / canvas.H_new == pytest.approx(W / H, abs=1e-6)
        assert canvas.W_new >= 2.5 * W


def test_default_config_trains_to_accuracy_reproducibly(tmp_path):
    cfg = parse_config(str(CONFIG_DIR / "default.cfg"))
    t0 = time.perf_counter()
    first = train(cfg, str(tmp_path / "a"))
    assert time.perf_counter() - t0 < 300.0
    assert first.reason is None
    assert first.final_accuracy >= 0.95
    second = train(cfg, str(tmp_path / "b"))
    assert (open(first.metrics_path, "rb").read()
            == open(second.metrics_path, "rb").read())
    for suffix in ("embedder", "proxies"):
        fa = tmp_path / "a" / "checkpoints" / f"final.{suffix}.lh2t"
        fb = tmp_path / "b" / "checkpoints" / f"final.{suffix}.lh2t"
        assert fa.read_bytes() == fb.read_bytes()


def test_proxy_spread_shrinks_without_collapsing(tmp_path):
    # many classes in a small dimension so the repulsion term has slack to
    # act on; the floor is the uniform-spread value sqrt(1/d)
    base = RunConfig(seed=0, C=1024, d=32, n=32, d_in=64, samples_per_class=20,
                     epochs=2)
    stds = {}
    for tag, lam in (("on", 150.0), ("off", 0.0)):
        cfg = dataclasses.replace(base, lambda_pp=lam)
        train(cfg, str(tmp_path / tag))
        _, proxies = load_checkpoint(str(tmp_path / tag / "checkpoints" / "final"))
        stds[tag] = proxy_spread_trackers(
            proxies, proxies.selection_gram(np.arange(cfg.C))[1])["std"]
    assert stds["on"] < stds["off"]
    assert stds["on"] >= math.sqrt(1.0 / 32) - 0.005

    cfg = RunConfig(seed=2, C=30, d=512, n=64, d_in=64, samples_per_class=40)
    X, labels = generate_dataset(cfg)
    state = init_state(cfg)
    _, summary = histogram_dump(state.embedder, state.proxies, X, labels)
    assert summary["nad_std"] == pytest.approx(math.sqrt(1.0 / 512), abs=0.005)


def test_epoch_mid_schedule_and_below_mid_fraction(tmp_path):
    cfg = RunConfig(seed=0, C=64, d=32, n=32, d_in=64, samples_per_class=200,
                    noise_angle_deg=10.0, epochs=30, batch_size=128, lr=0.02,
                    lr_halve_every=6)
    res = train(cfg, str(tmp_path))
    assert res.reason is None
    with open(res.metrics_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    mids, frac = {}, {}
    for r in rows:
        e = int(r["epoch"])
        mids.setdefault(e, set()).add(float(r["mid"]))
        frac.setdefault(e, []).append(float(r["below_mid_frac"]))
    assert all(len(v) == 1 for v in mids.values())    # constant within an epoch
    seq = [mids[e].pop() for e in sorted(mids)]
    assert seq[-1] == 0.9                             # clamp reached
    first_clamp = seq.index(0.9)
    assert all(a <= b for a, b in zip(seq[:first_clamp], seq[1:first_clamp + 1]))
    assert all(m == 0.9 for m in seq[first_clamp:])
    assert np.mean(frac[1]) > np.mean(frac[max(frac)])


def test_trivial_identities():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 6)) * 5.0
    batch = EmbeddingBatch(z, np.zeros(4, dtype=int))
    proxies = ProxyMatrix(np.eye(6)[:1])
    assert uamf_loss(batch, proxies, margin=7.0, tau=1.0).total == \
        pytest.approx(0.0, abs=1e-12)

    image = rng.uniform(0.0, 1.0, (5, 7, 3))
    mask = np.ones((5, 7), dtype=bool)
    assert laplace_nll(image, image, 1.0 / math.sqrt(2.0), mask) == \
        pytest.approx(0.0, abs=1e-12)

    flat = np.full((6, 6), 3.0)
    assert smoothness_loss(flat, np.ptp(flat)) == 0.0

    d, _, K, _ = hemisphere_scene(16)
    pts = transform_pointcloud(oracles.planes(oracles.depth_to_pointcloud(d, K)),
                               Pose(np.eye(3), np.zeros(3), depth_centroid(d, K)))
    u, v, dep, valid = project_points(pts, K)
    jj, ii = np.meshgrid(np.arange(16.0), np.arange(16.0))
    assert valid.all()
    np.testing.assert_allclose(u.reshape(16, 16), jj, atol=1e-9)
    np.testing.assert_allclose(v.reshape(16, 16), ii, atol=1e-9)
    np.testing.assert_allclose(dep.reshape(16, 16), d.values, atol=1e-9)
