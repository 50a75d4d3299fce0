"""Pinhole geometry, canvas construction, scatter z-buffer, shading, and
the inverse warp."""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from lh2.depth_renderer import (CanvasSpec, DepthMap, LightingParams, Pose,
                                _crop_offsets, depth_centroid,
                                depth_to_pointcloud, hemisphere_scene,
                                intrinsics_from_fov, make_canvas,
                                neighborhood_offsets, project_points,
                                render_hemisphere_demo, rotation_about_axis,
                                scatter_min_render, shade,
                                transform_pointcloud, warp_image)
from lh2.errors import CanvasError, DomainError

import oracles


def _plane(size, z0):
    return DepthMap(np.full((size, size), z0), z0, z0)


# ---------------------------------------------------------------------------
# intrinsics

def test_intrinsics_square_90deg():
    K = intrinsics_from_fov(3, 3, 90.0)
    want = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(K.K, want, rtol=1e-14, atol=0)


def test_intrinsics_narrow_fov_focal():
    K = intrinsics_from_fov(112, 112, 10.0)
    assert K.K[0, 0] == pytest.approx(oracles.FOCAL_112_10DEG, rel=1e-12)
    assert K.K[0, 2] == 55.5 and K.K[1, 2] == 55.5


def test_intrinsics_validation():
    for fov in (0.0, 180.0, -5.0):
        with pytest.raises(DomainError):
            intrinsics_from_fov(10, 10, fov)
    with pytest.raises(DomainError):
        intrinsics_from_fov(1, 10, 60.0)


# ---------------------------------------------------------------------------
# depth map, lighting, pose

def test_depth_map_validation():
    with pytest.raises(DomainError):
        DepthMap(np.ones(4), 1.0, 2.0)
    with pytest.raises(DomainError):
        DepthMap(np.array([[1.0, np.nan]]), 1.0, 2.0)
    with pytest.raises(DomainError):
        DepthMap(np.ones((2, 2)), 0.0, 2.0)
    with pytest.raises(DomainError):
        DepthMap(np.array([[1.0, 5.0]]), 2.0, 5.0)
    d = DepthMap.from_values([[2.0, 3.0], [4.0, 5.0]])
    assert (d.min_depth, d.max_depth) == (2.0, 5.0)
    assert d.shape == (2, 2)


def test_lighting_validation():
    with pytest.raises(DomainError):
        LightingParams(k_a=1.2, k_d=0.5, l_dx=0.0, l_dy=0.0)
    with pytest.raises(DomainError):
        LightingParams(k_a=0.5, k_d=-0.1, l_dx=0.0, l_dy=0.0)
    LightingParams(k_a=1.0, k_d=1.0, l_dx=2.0, l_dy=-3.0)


def test_pose_validation():
    with pytest.raises(DomainError):
        Pose(R=np.eye(3) * 2.0, t=np.zeros(3), pivot=np.zeros(3))
    with pytest.raises(DomainError):
        Pose(R=np.diag([1.0, 1.0, -1.0]), t=np.zeros(3), pivot=np.zeros(3))
    with pytest.raises(DomainError):
        Pose(R=np.full((3, 3), np.nan), t=np.zeros(3), pivot=np.zeros(3))
    with pytest.raises(DomainError):
        Pose(R=np.eye(2), t=np.zeros(3), pivot=np.zeros(3))


def test_pose_compose_group_law():
    rng = np.random.default_rng(0)
    pivot = np.array([0.5, -1.0, 4.0])
    g = Pose(rotation_about_axis(1, 25.0), rng.normal(0, 0.5, 3), pivot)
    h = Pose(rotation_about_axis(0, -40.0), rng.normal(0, 0.5, 3), pivot)
    pts = rng.normal(0.0, 2.0, (50, 3))
    two_step = transform_pointcloud(transform_pointcloud(pts, g), h)
    one_step = transform_pointcloud(pts, g.compose(h))
    np.testing.assert_allclose(two_step, one_step, atol=1e-9)
    with pytest.raises(DomainError):
        g.compose(Pose.identity(pivot=(0.0, 0.0, 0.1)))


def test_rotation_matches_scipy():
    for axis, name in enumerate("xyz"):
        for angle in (-170.0, -37.5, 0.0, 12.0, 90.0):
            want = Rotation.from_euler(name, angle, degrees=True).as_matrix()
            np.testing.assert_allclose(rotation_about_axis(axis, angle), want,
                                       atol=1e-12)
    with pytest.raises(DomainError):
        rotation_about_axis(3, 10.0)


# ---------------------------------------------------------------------------
# point cloud and projection

def test_pointcloud_center_pixel():
    K = intrinsics_from_fov(3, 3, 90.0)
    pts = depth_to_pointcloud(DepthMap(np.full((3, 3), 2.0), 2.0, 2.0), K)
    np.testing.assert_array_equal(pts[1, 1], [0.0, 0.0, 2.0])


def test_pointcloud_z_is_depth_exactly():
    K = intrinsics_from_fov(7, 5, 60.0)
    d = DepthMap.from_values(np.random.default_rng(0).uniform(1.0, 3.0, (5, 7)))
    pts = depth_to_pointcloud(d, K)
    np.testing.assert_array_equal(pts[..., 2], d.values)


def test_project_center_point_and_scaling():
    K = intrinsics_from_fov(3, 3, 90.0)
    u, v, d, valid = project_points(np.array([[0.0, 0.0, 2.0]]), K)
    assert (u[0], v[0], d[0], valid[0]) == (1.0, 1.0, 2.0, True)
    p = np.array([[0.3, -0.2, 1.5]])
    u1, v1, d1, _ = project_points(p, K)
    u2, v2, d2, _ = project_points(3.0 * p, K)
    assert u2[0] == pytest.approx(u1[0], rel=1e-12)
    assert v2[0] == pytest.approx(v1[0], rel=1e-12)
    assert d2[0] == pytest.approx(3.0 * d1[0], rel=1e-12)


def test_project_behind_camera():
    K = intrinsics_from_fov(4, 4, 60.0)
    u, v, d, valid = project_points(np.array([[0.1, 0.1, -1.0]]), K)
    assert not valid[0]
    assert u[0] == 0.0 and v[0] == 0.0
    assert d[0] == -1.0


def test_project_pointcloud_round_trip():
    K = intrinsics_from_fov(7, 5, 55.0)
    d = DepthMap.from_values(np.random.default_rng(1).uniform(1.0, 4.0, (5, 7)))
    u, v, dep, valid = project_points(depth_to_pointcloud(d, K), K)
    assert np.all(valid)
    np.testing.assert_allclose(u, np.broadcast_to(np.arange(7), (5, 7)), atol=1e-9)
    np.testing.assert_allclose(v, np.broadcast_to(np.arange(5)[:, None], (5, 7)),
                               atol=1e-9)
    np.testing.assert_allclose(dep, d.values, atol=1e-9)


def test_depth_centroid_plane():
    K = intrinsics_from_fov(5, 5, 90.0)
    c = depth_centroid(_plane(5, 3.0), K)
    np.testing.assert_allclose(c, [0.0, 0.0, 3.0], atol=1e-12)


# ---------------------------------------------------------------------------
# canvas

def _far_corner(canvas: CanvasSpec):
    """Image coordinate (x, y) of the canvas's last pixel."""
    return canvas.x_min_g + (canvas.W_new - 1), canvas.y_min_g + (canvas.H_new - 1)


def test_canvas_identity_square():
    d, _, K, _ = hemisphere_scene(30)
    canvas = make_canvas([Pose.identity()], d, K)
    assert canvas == CanvasSpec(H_new=75, W_new=75, x_min_g=-22.0, y_min_g=-22.0)
    assert _far_corner(canvas) == (52.0, 52.0)


def test_canvas_equations_non_square():
    W, H = 20, 14
    K = intrinsics_from_fov(W, H, 55.0)
    rng = np.random.default_rng(0)
    d = DepthMap.from_values(rng.uniform(2.0, 4.0, (H, W)))
    piv = depth_centroid(d, K)
    poses = [Pose(rotation_about_axis(a, ang), rng.normal(0, 0.2, 3), piv)
             for a, ang in [(0, 8.0), (1, -12.0), (2, 20.0)]]
    canvas = make_canvas(poses, d, K)
    x_max, y_max = _far_corner(canvas)
    assert canvas.x_min_g + x_max == pytest.approx(W, abs=1e-6)
    assert canvas.y_min_g + y_max == pytest.approx(H, abs=1e-6)
    assert canvas.W_new * H % W == 0
    assert canvas.H_new == canvas.W_new * H // W
    assert canvas.W_new >= 2.5 * W
    assert canvas.W_new / canvas.H_new == pytest.approx(W / H, abs=1e-6)


def test_canvas_order_invariance():
    d, _, K, _ = hemisphere_scene(16)
    piv = depth_centroid(d, K)
    poses = [Pose(rotation_about_axis(1, a), np.zeros(3), piv)
             for a in (-10.0, 0.0, 10.0)]
    assert make_canvas(poses, d, K) == make_canvas(poses[::-1], d, K)


def test_canvas_grows_with_rotation():
    d, _, K, _ = hemisphere_scene(16)
    piv = depth_centroid(d, K)
    small = make_canvas([Pose(rotation_about_axis(1, 5.0), np.zeros(3), piv)], d, K)
    # a big lateral translation pushes the bounds past the 2.5 W floor
    big = make_canvas([Pose(np.eye(3), np.array([6.0, 0.0, 0.0]), piv)], d, K)
    assert big.W_new > small.W_new
    assert big.W_new > 2.5 * K.W


def test_canvas_errors():
    d, _, K, _ = hemisphere_scene(8)
    with pytest.raises(CanvasError):
        make_canvas([], d, K)
    behind = Pose(np.eye(3), np.array([0.0, 0.0, -20.0]), np.zeros(3))
    with pytest.raises(CanvasError):
        make_canvas([behind], d, K)


def _auxiliary_poses(canvas: CanvasSpec, template: DepthMap, K):
    """The two boundary probes behind a canvas: a constant-depth plane at
    the template's min depth under pure translations placing its extreme
    corners exactly on the canvas bounds.  Returns (probe_depth, [pose_lo,
    pose_hi])."""
    z0 = template.min_depth
    f = K.K[0, 0]
    probe = DepthMap(values=np.full(template.shape, z0), min_depth=z0, max_depth=z0)
    x_max, y_max = _far_corner(canvas)
    t_lo = np.array([canvas.x_min_g * z0 / f, canvas.y_min_g * z0 / f, 0.0])
    t_hi = np.array([(x_max - (K.W - 1)) * z0 / f, (y_max - (K.H - 1)) * z0 / f, 0.0])
    zero = np.zeros(3)
    return probe, [Pose(R=np.eye(3), t=t_lo, pivot=zero),
                   Pose(R=np.eye(3), t=t_hi, pivot=zero)]


def test_auxiliary_poses_reproduce_bounds():
    d, _, K, _ = hemisphere_scene(12)
    piv = depth_centroid(d, K)
    poses = [Pose(rotation_about_axis(0, -9.0), np.zeros(3), piv),
             Pose(rotation_about_axis(1, 14.0), np.zeros(3), piv)]
    canvas = make_canvas(poses, d, K)
    probe, aux = _auxiliary_poses(canvas, d, K)
    projected = [project_points(transform_pointcloud(depth_to_pointcloud(depth, K),
                                                     pose), K)
                 for depth, pose in zip([d, d, probe, probe], poses + aux)]
    (u_lo, v_lo, _, ok_lo), (u_hi, v_hi, _, ok_hi) = projected[2:]
    assert np.all(ok_lo) and np.all(ok_hi)
    assert u_lo.min() == pytest.approx(canvas.x_min_g, abs=1e-9)
    assert v_lo.min() == pytest.approx(canvas.y_min_g, abs=1e-9)
    x_max, y_max = _far_corner(canvas)
    assert u_hi.max() == pytest.approx(x_max, abs=1e-9)
    assert v_hi.max() == pytest.approx(y_max, abs=1e-9)
    # folding the probes back into a plain min/max bound pass over every
    # projection reproduces the stored bounds
    u = np.concatenate([p[0][p[3]] for p in projected])
    v = np.concatenate([p[1][p[3]] for p in projected])
    assert (u.min(), u.max(), v.min(), v.max()) == pytest.approx(
        (canvas.x_min_g, x_max, canvas.y_min_g, y_max), abs=1e-9)


# ---------------------------------------------------------------------------
# offsets and scatter

def test_neighborhood_offsets():
    assert neighborhood_offsets(0) == [(0, 0)]
    assert len(neighborhood_offsets(1)) == 5
    assert len(neighborhood_offsets(2)) == 13
    with pytest.raises(DomainError):
        neighborhood_offsets(-1)


def _unit_canvas(n):
    return CanvasSpec(H_new=n, W_new=n, x_min_g=0.0, y_min_g=0.0)


def test_scatter_min_wins_on_collision():
    canvas = _unit_canvas(5)
    res = scatter_min_render((np.array([2.0, 2.0]), np.array([2.0, 2.0]),
                              np.array([3.0, 2.0]), np.array([True, True])),
                             canvas, radius=0)
    assert res.values[2, 2] == 2.0
    assert res.mask.sum() == 1
    assert res.dropped == 0
    assert res.mean_rounding_error == 0.0


def test_scatter_radius_footprints():
    canvas = _unit_canvas(5)
    one = (np.array([2.0]), np.array([2.0]), np.array([1.5]), np.array([True]))
    assert scatter_min_render(one, canvas, radius=0).mask.sum() == 1
    res = scatter_min_render(one, canvas, radius=1)
    assert res.mask.sum() == 5                       # plus-shaped footprint
    assert res.values[2, 2] == 1.5 and res.values[2, 3] == 1.5


def test_scatter_dropped_per_point_and_offset():
    canvas = _unit_canvas(5)
    corner = (np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([True]))
    assert scatter_min_render(corner, canvas, radius=1).dropped == 2
    two = (np.zeros(2), np.zeros(2), np.ones(2), np.ones(2, bool))
    assert scatter_min_render(two, canvas, radius=1).dropped == 4
    outside = (np.array([-50.0]), np.array([2.0]), np.array([1.0]),
               np.array([True]))
    assert scatter_min_render(outside, canvas, radius=1).dropped == 5
    assert not scatter_min_render(outside, canvas, radius=1).mask.any()


def test_scatter_ignores_invalid_points():
    canvas = _unit_canvas(5)
    res = scatter_min_render((np.array([2.0, 1.0]), np.array([2.0, 1.0]),
                              np.array([3.0, -1.0]), np.array([True, False])),
                             canvas, radius=0)
    assert res.mask.sum() == 1
    empty = scatter_min_render((np.zeros(2), np.zeros(2), np.ones(2),
                                np.zeros(2, bool)), canvas, radius=1)
    assert not empty.mask.any()
    assert empty.mean_rounding_error == 0.0
    assert empty.dropped == 0


def test_scatter_permutation_invariance_exhaustive():
    canvas = _unit_canvas(4)
    u = np.array([0.6, 0.9, 2.2, 3.4])
    v = np.array([1.1, 1.4, 0.2, 2.9])
    d = np.array([2.0, 1.0, 3.0, 0.5])
    valid = np.ones(4, bool)
    base = scatter_min_render((u, v, d, valid), canvas, radius=1)
    for perm in itertools.permutations(range(4)):
        p = list(perm)
        res = scatter_min_render((u[p], v[p], d[p], valid[p]), canvas, radius=1)
        np.testing.assert_array_equal(res.values, base.values)
        np.testing.assert_array_equal(res.mask, base.mask)
        assert res.dropped == base.dropped
        assert res.mean_rounding_error == pytest.approx(
            base.mean_rounding_error, rel=1e-12)


def test_scatter_shuffle_invariance_random():
    rng = np.random.default_rng(5)
    canvas = _unit_canvas(9)
    n = 60
    u = rng.uniform(-1.0, 9.5, n)
    v = rng.uniform(-1.0, 9.5, n)
    d = rng.uniform(0.5, 5.0, n)
    valid = rng.uniform(size=n) < 0.9
    base = scatter_min_render((u, v, d, valid), canvas, radius=2)
    for _ in range(20):
        p = rng.permutation(n)
        res = scatter_min_render((u[p], v[p], d[p], valid[p]), canvas, radius=2)
        np.testing.assert_array_equal(res.values, base.values)
        assert res.dropped == base.dropped


def test_scatter_matches_reference_on_random_scenes():
    rng = np.random.default_rng(7)
    for case in range(20):
        W = int(rng.integers(8, 33))
        H = int(rng.integers(8, 33))
        K = intrinsics_from_fov(W, H, float(rng.uniform(30.0, 90.0)))
        d = DepthMap.from_values(rng.uniform(1.5, 4.0, (H, W)))
        pose = Pose(rotation_about_axis(int(rng.integers(3)),
                                        float(rng.uniform(-25.0, 25.0))),
                    rng.normal(0.0, 0.3, 3), depth_centroid(d, K))
        canvas = make_canvas([pose], d, K)
        projected = project_points(
            transform_pointcloud(depth_to_pointcloud(d, K), pose), K)
        radius = case % 3
        res = scatter_min_render(projected, canvas, radius)
        ref_vals, ref_dropped, ref_mre = oracles.reference_scatter(
            *projected, canvas, radius)
        np.testing.assert_array_equal(res.values, ref_vals)
        np.testing.assert_array_equal(res.mask, np.isfinite(ref_vals))
        assert res.dropped == ref_dropped
        assert abs(res.mean_rounding_error - ref_mre) <= 1e-12


# ---------------------------------------------------------------------------
# crop and identity reconstruction

def _center_crop(values, H, W):
    oy, ox = _crop_offsets(values.shape[0], values.shape[1], H, W)
    return values[oy:oy + H, ox:ox + W]


def test_center_crop():
    a = np.arange(25).reshape(5, 5)
    np.testing.assert_array_equal(_center_crop(a, 5, 5), a)
    np.testing.assert_array_equal(_center_crop(a, 3, 3), a[1:4, 1:4])
    b = np.arange(24).reshape(6, 4)
    np.testing.assert_array_equal(_center_crop(b, 3, 4), b[1:4, :])
    with pytest.raises(DomainError):
        _center_crop(a, 6, 5)


def test_identity_render_reconstructs_depth():
    d, _, K, _ = hemisphere_scene(30)
    canvas = make_canvas([Pose.identity()], d, K)
    res = scatter_min_render(
        project_points(depth_to_pointcloud(d, K), K), canvas, radius=0)
    crop = _center_crop(res.values, 30, 30)
    assert np.isfinite(crop).all()
    np.testing.assert_allclose(crop, d.values, atol=1e-9)
    assert res.mean_rounding_error <= 1e-9


# ---------------------------------------------------------------------------
# shading

def test_shade_flat_plane_uniform():
    depth = _plane(6, 5.0)
    albedo = np.full((6, 6, 3), 0.6)
    light = LightingParams(k_a=0.3, k_d=0.5, l_dx=0.0, l_dy=0.0)
    want = np.clip(albedo * (0.3 + 0.5), 0.0, 1.0)
    np.testing.assert_array_equal(shade(depth, albedo, light), want)
    K = intrinsics_from_fov(6, 6, 50.0)
    np.testing.assert_allclose(shade(depth, albedo, light, K), want, rtol=1e-12)


def test_shade_ambient_only():
    d, albedo, K, _ = hemisphere_scene(10)
    light = LightingParams(k_a=0.4, k_d=0.0, l_dx=0.7, l_dy=-0.3)
    np.testing.assert_array_equal(shade(d, albedo, light, K),
                                  np.clip(albedo * 0.4, 0.0, 1.0))


def test_shade_matches_reference_orthographic():
    d, albedo, _, light = hemisphere_scene(14)
    got = shade(d, albedo, light, K=None)
    want = oracles.reference_shade(d.values, albedo, light.k_a, light.k_d,
                                   light.l_dx, light.l_dy)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_shade_output_range_and_validation():
    rng = np.random.default_rng(3)
    d = DepthMap.from_values(rng.uniform(2.0, 6.0, (9, 9)))
    albedo = rng.uniform(0.0, 1.0, (9, 9, 3))
    light = LightingParams(k_a=0.9, k_d=1.0, l_dx=1.5, l_dy=-2.0)
    img = shade(d, albedo, light)
    assert img.min() >= 0.0 and img.max() <= 1.0
    with pytest.raises(DomainError):
        shade(d, albedo[..., :2], light)
    with pytest.raises(DomainError):
        shade(d, albedo * 2.0, light)


# ---------------------------------------------------------------------------
# warp

def test_warp_identity_high_psnr():
    d, albedo, K, light = hemisphere_scene(30)
    canonical = shade(d, albedo, light, K)
    pose = Pose.identity(depth_centroid(d, K))
    canvas = make_canvas([pose], d, K)
    img, mask, _ = warp_image(canonical, d, pose, K, canvas, radius=1)
    assert mask.mean() > 0.95
    assert oracles.psnr(img, canonical, mask) >= 40.0
    assert np.array_equal(img[~mask], np.zeros((np.sum(~mask), 3)))


def test_warp_translation_matches_analytic_bilinear():
    # plane at z 10 pulled 2 toward the camera: 1.25x magnification about
    # the principal point, so output pixel x samples the source at
    # cp + 0.8 (x - cp)
    W = 12
    K = intrinsics_from_fov(W, W, 40.0)
    depth = _plane(W, 10.0)
    rng = np.random.default_rng(11)
    source = rng.uniform(0.0, 1.0, (W, W, 3))
    pose = Pose(np.eye(3), np.array([0.0, 0.0, -2.0]), np.zeros(3))
    canvas = make_canvas([pose], depth, K)
    img, mask, _ = warp_image(source, depth, pose, K, canvas, radius=1)
    assert mask.mean() > 0.9
    cp = (W - 1) / 2.0
    ox = (canvas.W_new - W) // 2
    oy = (canvas.H_new - W) // 2
    for i in range(W):
        for j in range(W):
            if not mask[i, j]:
                continue
            u0 = cp + 0.8 * ((canvas.x_min_g + j + ox) - cp)
            v0 = cp + 0.8 * ((canvas.y_min_g + i + oy) - cp)
            want = oracles.bilinear(source, u0, v0)
            np.testing.assert_allclose(img[i, j], want, rtol=1e-12, atol=1e-12)


def test_warp_compose_round_trip():
    d, albedo, K, light = hemisphere_scene(30)
    canonical = shade(d, albedo, light, K)
    pivot = depth_centroid(d, K)
    there = Pose(rotation_about_axis(1, 10.0), np.zeros(3), pivot)
    back = Pose(rotation_about_axis(1, -10.0), np.zeros(3), pivot)
    round_trip = there.compose(back)
    canvas = make_canvas([there, back, round_trip], d, K)
    img, mask, _ = warp_image(canonical, d, round_trip, K, canvas, radius=1)
    assert mask.mean() > 0.9
    assert oracles.psnr(img, canonical, mask) >= 30.0


def test_hemisphere_demo_frames():
    # size 30 keeps W_new - W odd, so zero-angle projections round cleanly
    # instead of sitting on the half-pixel boundary
    demo = render_hemisphere_demo(size=30, rotations=(10.0, 10.0, 10.0),
                                  frames_per_axis=3, radius=1)
    names = [name for name, _, _ in demo["frames"]]
    assert names == [f"axis{a}_{s}deg" for a in range(3)
                     for s in ("-010.00", "+000.00", "+010.00")]
    assert demo["canvas"].W_new >= 2.5 * 30
    for name, img, mask in demo["frames"]:
        assert np.isfinite(img).all()
        assert img.shape == (30, 30, 3) and mask.shape == (30, 30)
        assert mask.any()
        # window-sized arrays of their own, not views into canvas buffers
        assert img.base is None and mask.base is None
    # the zero-angle frames are identity warps of the canonical image
    for axis in range(3):
        _, img, mask = demo["frames"][axis * 3 + 1]
        assert oracles.psnr(img, demo["canonical"], mask) >= 40.0


def test_hemisphere_scene_validation():
    with pytest.raises(DomainError):
        hemisphere_scene(7)
    d, albedo, K, light = hemisphere_scene(8)
    assert d.shape == (8, 8) and albedo.shape == (8, 8, 3)
    assert 0.0 <= albedo.min() and albedo.max() <= 1.0
