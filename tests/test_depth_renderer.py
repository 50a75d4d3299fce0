"""Pinhole geometry, canvas construction, scatter z-buffer, shading, and
the inverse warp."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from lh2 import depth_renderer, io_formats
from lh2.depth_renderer import (DEFAULT_LIGHT, CanvasSpec, DepthMap, LightingParams,
                                Pose, depth_centroid,
                                hemisphere_demo, hemisphere_scene, intrinsics_from_fov,
                                make_canvas, neighborhood_offsets, project_points,
                                rotation_about_axis, scatter_min_render, shade,
                                transform_pointcloud, warp_image)
from lh2.errors import CanvasError, DomainError

import oracles


_IDENTITY = Pose(np.eye(3), np.zeros(3), np.zeros(3))


def _plane(size, z0):
    return DepthMap(np.full((size, size), z0))


# ---------------------------------------------------------------------------
# intrinsics

def test_intrinsics_square_90deg():
    K = intrinsics_from_fov(3, 3, 90.0)
    assert K.f == pytest.approx(1.0, rel=1e-14)
    assert (K.cx, K.cy, K.W, K.H) == (1.0, 1.0, 3, 3)


def test_intrinsics_narrow_fov_focal():
    K = intrinsics_from_fov(112, 112, 10.0)
    assert K.f == pytest.approx(oracles.FOCAL_112_10DEG, rel=1e-12)
    assert K.cx == 55.5 and K.cy == 55.5


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
        DepthMap(np.ones(4))
    with pytest.raises(DomainError):
        DepthMap(np.array([[1.0, np.nan]]))
    with pytest.raises(DomainError):
        DepthMap(np.array([[1.0, 0.0]]))
    with pytest.raises(DomainError):
        DepthMap(np.array([[-1.0, 2.0]]))
    d = DepthMap([[2.0, 3.0], [4.0, 5.0]])
    assert d.values.dtype == np.float64
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

def _point_cloud(depth, K):
    """The renderer's blocks of back-projected points stacked into one
    3 x H x W cloud."""
    return np.concatenate(list(depth_renderer._point_blocks(depth, K)), axis=1)


def test_pointcloud_center_pixel():
    K = intrinsics_from_fov(3, 3, 90.0)
    pts = _point_cloud(DepthMap(np.full((3, 3), 2.0)), K)
    np.testing.assert_array_equal(pts[:, 1, 1], [0.0, 0.0, 2.0])


def test_pointcloud_z_is_depth_exactly(monkeypatch):
    K = intrinsics_from_fov(7, 5, 60.0)
    d = DepthMap(np.random.default_rng(0).uniform(1.0, 3.0, (5, 7)))
    np.testing.assert_array_equal(_point_cloud(d, K)[2], d.values)
    # blocks of two rows stack up to the whole-image back-projection
    monkeypatch.setattr(io_formats, "_BLOCK", 2 * 3 * 7)
    np.testing.assert_array_equal(_point_cloud(d, K), oracles.planes(oracles.depth_to_pointcloud(d, K)))


def test_project_center_point_and_scaling():
    K = intrinsics_from_fov(3, 3, 90.0)
    u, v, d, valid = project_points(np.array([[0.0], [0.0], [2.0]]), K)
    assert (u[0], v[0], d[0], valid[0]) == (1.0, 1.0, 2.0, True)
    p = np.array([[0.3], [-0.2], [1.5]])
    u1, v1, d1, _ = project_points(p, K)
    u2, v2, d2, _ = project_points(3.0 * p, K)
    assert u2[0] == pytest.approx(u1[0], rel=1e-12)
    assert v2[0] == pytest.approx(v1[0], rel=1e-12)
    assert d2[0] == pytest.approx(3.0 * d1[0], rel=1e-12)


def test_project_behind_camera():
    K = intrinsics_from_fov(4, 4, 60.0)
    u, v, d, valid = project_points(np.array([[0.1], [0.1], [-1.0]]), K)
    assert not valid[0]
    assert d[0] == -1.0


def test_point_passes_reject_points_not_coordinate_first():
    K = intrinsics_from_fov(4, 4, 60.0)
    rows = np.ones((5, 3))              # five points, one a row
    with pytest.raises(DomainError, match="3 x"):
        project_points(rows, K)
    with pytest.raises(DomainError, match="3 x"):
        transform_pointcloud(rows, _IDENTITY)


def test_project_pointcloud_round_trip():
    K = intrinsics_from_fov(7, 5, 55.0)
    d = DepthMap(np.random.default_rng(1).uniform(1.0, 4.0, (5, 7)))
    u, v, dep, valid = project_points(oracles.planes(oracles.depth_to_pointcloud(d, K)), K)
    assert np.all(valid)
    np.testing.assert_allclose(u, np.broadcast_to(np.arange(7), (5, 7)), atol=1e-9)
    np.testing.assert_allclose(v, np.broadcast_to(np.arange(5)[:, None], (5, 7)),
                               atol=1e-9)
    np.testing.assert_allclose(dep, d.values, atol=1e-9)


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_planar_point_passes_match_the_interleaved_forms_bit_for_bit(monkeypatch):
    # turns of any size with nonzero t and pivot pin the order of the
    # additions, + pivot + t forward and - pivot - t inverse; some turns put
    # points behind the camera.  Blocks of 3 rows split every map into 3 to
    # 11 blocks, the last one often partial
    rng = np.random.default_rng(27)
    for _ in range(40):
        W, H = (int(n) for n in rng.integers(8, 33, 2))
        K = intrinsics_from_fov(W, H, float(rng.uniform(30.0, 90.0)))
        d = DepthMap(rng.uniform(1.5, 4.0, (H, W)))
        pose = Pose(Rotation.from_rotvec(rng.normal(0.0, 1.0, 3)).as_matrix(),
                    rng.normal(0.0, 1.0, 3), rng.normal(0.0, 2.0, 3))
        monkeypatch.setattr(io_formats, "_BLOCK", 3 * W * 3)
        blocks = list(depth_renderer._point_blocks(d, K))
        assert len(blocks) == -(-H // 3)

        cloud = oracles.depth_to_pointcloud(d, K)
        moved = oracles.rigid_motion(cloud, pose)
        got = np.concatenate([transform_pointcloud(b, pose) for b in blocks], axis=1)
        _same_bits(got, np.ascontiguousarray(oracles.planes(moved)))
        projected = [project_points(transform_pointcloud(b, pose), K) for b in blocks]
        u, v, d, valid = (np.concatenate(got) for got in zip(*projected))
        want_u, want_v, want_d, want_valid = oracles.project(moved, K)
        _same_bits(d, want_d)
        _same_bits(valid, want_valid)
        # u and v mean nothing behind the camera
        _same_bits(u[valid], want_u[valid])
        _same_bits(v[valid], want_v[valid])

        # the inverse map of window pixels at random depths, a few behind
        # the camera once moved back
        x = rng.uniform(-W, 0.0) + np.arange(W)
        y = rng.uniform(-H, 0.0) + np.arange(H)
        depth = rng.uniform(0.5, 5.0, (H, W))
        inverse = [depth_renderer._inverse_map(x, y[rows], depth[rows], pose, K)
                   for rows in io_formats._row_blocks(H, 3 * W)]
        u, v, in_front = (np.concatenate(got) for got in zip(*inverse))
        want_u, want_v, want_in_front = oracles.inverse_map(x, y, depth, pose, K)
        _same_bits(in_front, want_in_front)
        _same_bits(u[in_front], want_u[in_front])
        _same_bits(v[in_front], want_v[in_front])


def _contract_renders():
    """The canvases and warp arrays of a size-30 demo sweep; of a wide
    shift, which takes the per-point pass, and a move away from the camera,
    whose inverse map sends the background behind it; and of a plane
    turned edge-on with every other column behind the camera."""
    demo = hemisphere_demo(30)
    out = [demo["canvas"]]
    for _, pose in demo["poses"]:
        out += warp_image(demo["canonical"], demo["depth"], pose, demo["K"], demo["canvas"])
    depth, _, K, _ = hemisphere_scene(30)
    pivot = depth_centroid(depth, K)
    plane, K12 = _plane(12, 5.0), intrinsics_from_fov(12, 12, 40.0)
    for d, k, poses in [
            (depth, K, [Pose(np.eye(3), [9.0, -3.0, 0.0], pivot),
                        Pose(np.eye(3), [0.0, 0.0, 10.0], pivot)]),
            (plane, K12, [Pose(rotation_about_axis(1, 90.0), [0.0, 0.0, -5.0],
                               depth_centroid(plane, K12))])]:
        with np.errstate(over="ignore", invalid="ignore"):
            assert depth_renderer._corner_reach(poses, d, k) is None
        canvas = make_canvas(poses, d, k)
        out.append(canvas)
        for pose in poses:
            out += warp_image(np.full(d.shape + (3,), 0.5), d, pose, k, canvas)
    return out


def test_point_passes_never_read_u_and_v_behind_the_camera(monkeypatch):
    # u and v mean nothing where valid is false: written as nan there, they
    # change no canvas and no warp array, and raise no warning
    want = _contract_renders()
    project = depth_renderer.project_points
    behind = []

    def nan_behind(points, K):
        u, v, d, valid = project(points, K)
        u[~valid] = np.nan
        v[~valid] = np.nan
        behind.append(int(np.count_nonzero(~valid)))
        return u, v, d, valid

    monkeypatch.setattr(depth_renderer, "project_points", nan_behind)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _contract_renders()
    assert sum(behind) > 0
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, CanvasSpec):
            assert g == w
        else:
            _same_bits(g, w)


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
    canvas = make_canvas([_IDENTITY], d, K)
    assert canvas == CanvasSpec(H_new=75, W_new=75, x_min_g=-22.0, y_min_g=-22.0)
    assert _far_corner(canvas) == (52.0, 52.0)


def test_canvas_equations_non_square():
    W, H = 20, 14
    K = intrinsics_from_fov(W, H, 55.0)
    rng = np.random.default_rng(0)
    d = DepthMap(rng.uniform(2.0, 4.0, (H, W)))
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


def _per_point_canvas(monkeypatch, poses, d, K):
    """make_canvas with the corner bound undecided, so that the per-point
    pass sizes the canvas; a CanvasError comes back as its message."""
    with monkeypatch.context() as m:
        m.setattr(depth_renderer, "_corner_reach", lambda *args: None)
        try:
            return make_canvas(poses, d, K)
        except CanvasError as exc:
            return str(exc)


def _random_canvas_case(rng):
    """A random scene and 1 to 4 poses about its centroid.  Its wildness w,
    most often small, scales turns of up to 60 w degrees about a random
    axis, sideways shifts of up to 1.3 w W pixels at the scene's depth (the
    2.5 W floor gives way near 0.75 W), and, in 30% of the poses, a move
    toward the camera by up to 95 w % of the nearest depth."""
    W, H = (int(n) for n in rng.integers(8, 41, 2))
    K = intrinsics_from_fov(W, H, float(rng.uniform(20.0, 100.0)))
    near = float(rng.uniform(0.5, 50.0))
    d = DepthMap(rng.uniform(near, near * rng.uniform(1.0, 2.0), (H, W)))
    pivot = depth_centroid(d, K)
    wild = rng.uniform() ** 2
    poses = []
    for _ in range(int(rng.integers(1, 5))):
        axis = rng.normal(size=3)
        turn = np.radians(rng.uniform(0.0, 60.0 * wild)) * axis / np.linalg.norm(axis)
        shift = rng.uniform(-1.3, 1.3, 2) * wild * np.array([W, H]) * pivot[2] / K.f
        toward = -near * rng.uniform(0.0, 0.95 * wild) * (rng.uniform() < 0.3)
        poses.append(Pose(Rotation.from_rotvec(turn).as_matrix(), np.append(shift, toward),
                          pivot))
    return poses, d, K


def test_make_canvas_matches_the_per_point_pass_on_random_scenes(monkeypatch):
    rng = np.random.default_rng(11)
    decided = 0
    for _ in range(300):
        poses, d, K = _random_canvas_case(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            reach = depth_renderer._corner_reach(poses, d, K)
        if reach is not None:
            # a decided bound bounds the exact extents, not only the canvas
            ex, ey = depth_renderer._point_reach(poses, d, K)
            assert ex <= reach[0] and ey <= reach[1]
            decided += 1
        try:
            canvas = make_canvas(poses, d, K)
        except CanvasError as exc:
            canvas = str(exc)
        assert canvas == _per_point_canvas(monkeypatch, poses, d, K)
    # both paths ran, the bound deciding in neither almost all nor almost none
    assert 60 <= decided <= 240


@pytest.mark.parametrize("size", [30, 128, 256])
@pytest.mark.parametrize("rotations", [(10.0, 10.0, 10.0), (40.0, 25.0, 60.0)])
def test_demo_canvas_projects_no_point(monkeypatch, size, rotations):
    calls = []
    project = depth_renderer.project_points
    monkeypatch.setattr(depth_renderer, "project_points",
                        lambda *args: calls.append(1) or project(*args))
    demo = hemisphere_demo(size, rotations, frames_per_axis=4)
    assert calls == []
    assert demo["canvas"].W_new == math.ceil(2.5 * size)
    assert demo["canvas"] == _per_point_canvas(
        monkeypatch, [pose for _, pose in demo["poses"]], demo["depth"], demo["K"])


def _auxiliary_poses(canvas: CanvasSpec, template: DepthMap, K):
    """The two boundary probes behind a canvas: a constant-depth plane at
    the template's min depth under pure translations placing its extreme
    corners exactly on the canvas bounds.  Returns (probe_depth, [pose_lo,
    pose_hi])."""
    z0 = template.values.min()
    f = K.f
    probe = DepthMap(np.full(template.shape, z0))
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
    projected = [project_points(transform_pointcloud(oracles.planes(oracles.depth_to_pointcloud(depth, K)),
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
    assert res[2, 2] == 2.0
    assert np.isfinite(res).sum() == 1


def test_scatter_radius_footprints():
    canvas = _unit_canvas(5)
    one = (np.array([2.0]), np.array([2.0]), np.array([1.5]), np.array([True]))
    assert np.isfinite(scatter_min_render(one, canvas, radius=0)).sum() == 1
    res = scatter_min_render(one, canvas, radius=1)
    assert np.isfinite(res).sum() == 5               # plus-shaped footprint
    assert res[2, 2] == 1.5 and res[2, 3] == 1.5


def test_scatter_dropped_per_point_and_offset():
    # writes past an edge are dropped, not wrapped onto the next row
    canvas = _unit_canvas(5)
    corner = (np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([True]))
    landed = np.isfinite(scatter_min_render(corner, canvas, radius=1))
    assert np.argwhere(landed).tolist() == [[0, 0], [0, 1], [1, 0]]
    row_end = (np.array([4.0]), np.array([2.0]), np.array([1.0]), np.array([True]))
    landed = np.isfinite(scatter_min_render(row_end, canvas, radius=1))
    assert np.argwhere(landed).tolist() == [[1, 4], [2, 3], [2, 4], [3, 4]]
    outside = (np.array([-50.0]), np.array([2.0]), np.array([1.0]),
               np.array([True]))
    assert not np.isfinite(scatter_min_render(outside, canvas, radius=1)).any()


def test_scatter_ignores_invalid_points():
    canvas = _unit_canvas(5)
    res = scatter_min_render((np.array([2.0, 1.0]), np.array([2.0, 1.0]),
                              np.array([3.0, -1.0]), np.array([True, False])),
                             canvas, radius=0)
    assert np.isfinite(res).sum() == 1
    empty = scatter_min_render((np.zeros(2), np.zeros(2), np.ones(2),
                                np.zeros(2, bool)), canvas, radius=1)
    assert not np.isfinite(empty).any()


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
        np.testing.assert_array_equal(res, base)


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
        np.testing.assert_array_equal(res, base)


def test_scatter_matches_reference_on_random_scenes():
    rng = np.random.default_rng(7)
    for case in range(20):
        W = int(rng.integers(8, 33))
        H = int(rng.integers(8, 33))
        K = intrinsics_from_fov(W, H, float(rng.uniform(30.0, 90.0)))
        d = DepthMap(rng.uniform(1.5, 4.0, (H, W)))
        pose = Pose(rotation_about_axis(int(rng.integers(3)),
                                        float(rng.uniform(-25.0, 25.0))),
                    rng.normal(0.0, 0.3, 3), depth_centroid(d, K))
        if case == 5:
            # a 9 x 31 map under a 25 degree turn: its 16678 x 4842 canvas
            # (650 MB of float64) is over the cap
            with pytest.raises(CanvasError, match="exceeds the cap"):
                make_canvas([pose], d, K)
            continue
        canvas = make_canvas([pose], d, K)
        projected = project_points(
            transform_pointcloud(oracles.planes(oracles.depth_to_pointcloud(d, K)), pose), K)
        radius = case % 3
        np.testing.assert_array_equal(scatter_min_render(projected, canvas, radius),
                                      oracles.reference_scatter(*projected, canvas, radius))


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_scatter_straddling_every_edge_matches_reference(radius):
    # an 11 x 17 canvas off the integer grid, and points from 4 pixels
    # before each edge to 4 past it, so every row and column near an edge
    # is some point's nearest pixel
    canvas = CanvasSpec(H_new=11, W_new=17, x_min_g=-3.25, y_min_g=2.5)
    rng = np.random.default_rng(radius)
    n = 600
    u = rng.uniform(canvas.x_min_g - 4.0, canvas.x_min_g + canvas.W_new + 4.0, n)
    v = rng.uniform(canvas.y_min_g - 4.0, canvas.y_min_g + canvas.H_new + 4.0, n)
    d = rng.uniform(0.5, 5.0, n)
    valid = rng.uniform(size=n) < 0.9
    expected = oracles.reference_scatter(u, v, d, valid, canvas, radius)
    np.testing.assert_array_equal(scatter_min_render((u, v, d, valid), canvas, radius),
                                  expected)
    # the same points in three batches, min-accumulated into one array
    out = np.full((canvas.H_new, canvas.W_new), np.inf)
    for part in np.array_split(np.arange(n), 3):
        assert scatter_min_render((u[part], v[part], d[part], valid[part]), canvas, radius,
                                  out=out) is out
    np.testing.assert_array_equal(out, expected)


def _assert_scatter_matches_reference(u, v, d, valid, canvas, radius):
    """The scatter equals the reference at once and in three batches
    min-accumulated into one array with out=."""
    expected = oracles.reference_scatter(u, v, d, valid, canvas, radius)
    np.testing.assert_array_equal(scatter_min_render((u, v, d, valid), canvas, radius),
                                  expected)
    out = np.full((canvas.H_new, canvas.W_new), np.inf)
    for part in np.array_split(np.arange(len(u)), 3):
        scatter_min_render((u[part], v[part], d[part], valid[part]), canvas, radius, out=out)
    np.testing.assert_array_equal(out, expected)


def test_scatter_matches_reference_on_small_random_canvases():
    # canvases of 1 to 12 pixels a side, radius 0 to 3, points from 5 pixels
    # before each edge to 5 past it, and depths drawn from three values, so
    # that many pixels see tied depths
    rng = np.random.default_rng(28)
    for case in range(200):
        H, W = (int(n) for n in rng.integers(1, 13, 2))
        radius = case % 4
        canvas = CanvasSpec(H, W, float(rng.uniform(-4.0, 4.0)), float(rng.uniform(-4.0, 4.0)))
        n = int(rng.integers(1, 60))
        u = rng.uniform(canvas.x_min_g - 5.0, canvas.x_min_g + W + 5.0, n)
        v = rng.uniform(canvas.y_min_g - 5.0, canvas.y_min_g + H + 5.0, n)
        d = rng.choice([0.5, 1.0, 2.5], n) if case % 2 else rng.uniform(0.5, 5.0, n)
        valid = rng.uniform(size=n) < 0.9
        _assert_scatter_matches_reference(u, v, d, valid, canvas, radius)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_scatter_keeps_points_exactly_on_the_reach_of_the_canvas(radius):
    # t = coord - origin + 0.5 is kept on [-radius, size + radius): at
    # exactly -radius a point's footprint still reaches pixel 0, and just
    # below -radius or at size + radius it reaches no pixel
    canvas = CanvasSpec(H_new=5, W_new=7, x_min_g=-3.25, y_min_g=7.25)
    centre = (canvas.x_min_g + 3.0, canvas.y_min_g + 2.0)
    for axis, origin, size in ((0, canvas.x_min_g, canvas.W_new),
                               (1, canvas.y_min_g, canvas.H_new)):
        for edge, low in ((-radius, True), (size + radius, False)):
            at = edge - 0.5 + origin
            assert at - origin + 0.5 == edge
            below = at
            while below - origin + 0.5 >= edge:
                below = np.nextafter(below, -np.inf)
            for coord, lands in ((at, low), (below, not low)):
                u = np.array([coord if axis == 0 else centre[0]])
                v = np.array([coord if axis == 1 else centre[1]])
                d, valid = np.array([1.5]), np.array([True])
                got = scatter_min_render((u, v, d, valid), canvas, radius)
                assert np.isfinite(got).any() == lands
                _assert_scatter_matches_reference(u, v, d, valid, canvas, radius)


def test_scatter_drops_non_finite_coordinates():
    # a non-finite coordinate lands nowhere and raises no RuntimeWarning
    # (pytest turns those into errors); the finite points still land
    canvas = CanvasSpec(H_new=6, W_new=9, x_min_g=0.5, y_min_g=-1.0)
    bad = [np.nan, np.inf, -np.inf, 1e308, -1e308]
    u = np.array(bad + [2.0] * 5 + [3.0, 4.0])
    v = np.array([2.0] * 5 + bad + [1.0, 3.0])
    d = np.arange(1.0, 13.0)
    valid = np.ones(12, bool)
    for radius in range(4):
        np.testing.assert_array_equal(
            scatter_min_render((u, v, d, valid), canvas, radius),
            scatter_min_render((u[-2:], v[-2:], d[-2:], valid[-2:]), canvas, radius))
        _assert_scatter_matches_reference(u, v, d, valid, canvas, radius)


def test_scatter_rejects_an_out_that_is_not_float64():
    # a float32 out would round a depth of 1 + 1e-12 to 1.0, an int64 out
    # to 1
    canvas = _unit_canvas(3)
    one = (np.array([1.0]), np.array([1.0]), np.array([1.0 + 1e-12]), np.array([True]))
    for dtype in (np.float32, np.int64):
        out = np.full((3, 3), 9, dtype=dtype)
        with pytest.raises(DomainError, match="float64"):
            scatter_min_render(one, canvas, radius=0, out=out)
        assert (out == 9).all()
    out = np.full((3, 3), np.inf)
    assert scatter_min_render(one, canvas, radius=0, out=out)[1, 1] == 1.0 + 1e-12


def _copies(*arrays):
    return [np.array(a, copy=True) for a in arrays]


def test_scatter_and_warp_leave_their_inputs_unchanged():
    # valid is read through asarray and ravel, both views of a C-ordered
    # bool array
    canvas = CanvasSpec(H_new=6, W_new=7, x_min_g=-0.5, y_min_g=0.25)
    rng = np.random.default_rng(3)
    u, v = rng.uniform(-3.0, 10.0, (2, 4, 5))
    d = rng.uniform(0.5, 2.0, (4, 5))
    valid = rng.uniform(size=(4, 5)) < 0.8
    before = _copies(u, v, d, valid)
    scatter_min_render((u, v, d, valid), canvas, radius=2)
    for a, b in zip((u, v, d, valid), before):
        np.testing.assert_array_equal(a, b)

    depth, albedo, K, light = hemisphere_scene(30)
    source = shade(depth, albedo, light, K)
    pose = Pose(rotation_about_axis(0, 20.0), np.array([0.2, -0.1, 0.3]), depth_centroid(depth, K))
    canvas = make_canvas([pose], depth, K)
    fields = (source, depth.values, pose.R, pose.t, pose.pivot)
    before = _copies(*fields)
    spec = dataclasses.replace(canvas)
    warp_image(source, depth, pose, K, canvas, radius=1)
    for a, b in zip(fields, before):
        np.testing.assert_array_equal(a, b)
    assert canvas == spec


def test_warp_rejects_a_source_of_another_shape():
    # the corners are gathered at offsets into the flat source, which a
    # source of another shape would read out of place
    d, albedo, K, light = hemisphere_scene(30)
    canvas = make_canvas([_IDENTITY], d, K)
    for shape in ((29, 30, 3), (30, 31, 3), (30, 30, 4), (30, 30)):
        with pytest.raises(DomainError, match="source must be 30 x 30 x 3"):
            warp_image(np.zeros(shape), d, _IDENTITY, K, canvas)


def test_warp_reads_a_fortran_ordered_source_like_a_c_ordered_one():
    d, albedo, K, light = hemisphere_scene(30)
    canonical = shade(d, albedo, light, K)
    fortran = np.asfortranarray(canonical)
    assert not fortran.flags.c_contiguous
    pivot = depth_centroid(d, K)
    for pose in (Pose(rotation_about_axis(1, 10.0), np.zeros(3), pivot),
                 Pose(rotation_about_axis(2, 180.0), np.zeros(3), pivot)):
        canvas = make_canvas([pose], d, K)
        for got, want in zip(warp_image(fortran, d, pose, K, canvas, radius=1),
                             warp_image(canonical, d, pose, K, canvas, radius=1)):
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# the frame window and identity reconstruction

def _window(canvas, H, W):
    """The central H x W window of the canvas as a canvas of its own."""
    return CanvasSpec(H, W, canvas.x_min_g + (canvas.W_new - W) // 2,
                      canvas.y_min_g + (canvas.H_new - H) // 2)


def test_identity_render_reconstructs_depth():
    d, _, K, _ = hemisphere_scene(30)
    window = _window(make_canvas([_IDENTITY], d, K), 30, 30)
    res = scatter_min_render(
        project_points(oracles.planes(oracles.depth_to_pointcloud(d, K)), K), window, radius=0)
    assert np.isfinite(res).all()
    np.testing.assert_allclose(res, d.values, atol=1e-9)


# ---------------------------------------------------------------------------
# shading

def test_shade_flat_plane_uniform():
    depth = _plane(6, 5.0)
    albedo = np.full((6, 6, 3), 0.6)
    light = LightingParams(k_a=0.3, k_d=0.5, l_dx=0.0, l_dy=0.0)
    want = np.clip(albedo * (0.3 + 0.5), 0.0, 1.0)
    K = intrinsics_from_fov(6, 6, 50.0)
    np.testing.assert_array_equal(shade(depth, albedo, light, K), want)


def test_shade_ambient_only():
    d, albedo, K, _ = hemisphere_scene(10)
    light = LightingParams(k_a=0.4, k_d=0.0, l_dx=0.7, l_dy=-0.3)
    np.testing.assert_array_equal(shade(d, albedo, light, K),
                                  np.clip(albedo * 0.4, 0.0, 1.0))


def _random_scene(seed, size=9):
    rng = np.random.default_rng(seed)
    d = DepthMap(rng.uniform(2.0, 6.0, (size, size)))
    albedo = rng.uniform(0.0, 1.0, (size, size, 3))
    return d, albedo, intrinsics_from_fov(size, size, 50.0)


def test_shade_matches_reference():
    for d, albedo, K, light in (hemisphere_scene(14), (*_random_scene(5), DEFAULT_LIGHT)):
        got = shade(d, albedo, light, K)
        want = oracles.reference_shade(d.values, albedo, K.f, K.cx, K.cy,
                                       light.k_a, light.k_d, light.l_dx, light.l_dy)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_shade_and_centroid_in_one_row_blocks_match_the_whole_image(monkeypatch):
    # one row a block: every row's differences across rows reach into the
    # halo rows of its block, and the centroid's sum runs block by block
    monkeypatch.setattr(io_formats, "_BLOCK", 1)
    rng = np.random.default_rng(31)
    scenes = [hemisphere_scene(size) for size in range(8, 46)]
    for _ in range(100):
        H, W = (int(n) for n in rng.integers(2, 25, 2))
        values = rng.uniform(1.0, 6.0, (H, W))
        if rng.uniform() < 0.3:
            values = np.round(values)       # flat patches and steps
        light = LightingParams(*rng.uniform(0.0, 1.0, 2), *rng.normal(0.0, 1.0, 2))
        scenes.append((DepthMap(values), rng.uniform(0.0, 1.0, (H, W, 3)),
                       intrinsics_from_fov(W, H, float(rng.uniform(20.0, 100.0))), light))
    for d, albedo, K, light in scenes:
        assert next(io_formats._row_blocks(d.shape[0], 3 * d.shape[1])) == slice(0, 1)
        assert (shade(d, albedo, light, K).tobytes()
                == oracles.whole_image_shade(d, albedo, light, K).tobytes())
        assert depth_centroid(d, K).tobytes() == oracles.whole_cloud_centroid(d, K).tobytes()


def test_shade_output_range_and_validation():
    d, albedo, K = _random_scene(3)
    light = LightingParams(k_a=0.9, k_d=1.0, l_dx=1.5, l_dy=-2.0)
    img = shade(d, albedo, light, K)
    assert img.min() >= 0.0 and img.max() <= 1.0
    with pytest.raises(DomainError):
        shade(d, albedo[..., :2], light, K)
    with pytest.raises(DomainError):
        shade(d, albedo * 2.0, light, K)


def test_shade_rejects_a_nan_albedo():
    d, albedo, K, light = hemisphere_scene(8)
    albedo[0, 0, 0] = np.nan
    with pytest.raises(DomainError, match="albedo"):
        shade(d, albedo, light, K)


# ---------------------------------------------------------------------------
# warp

def test_warp_identity_high_psnr():
    d, albedo, K, light = hemisphere_scene(30)
    canonical = shade(d, albedo, light, K)
    pose = Pose(np.eye(3), np.zeros(3), depth_centroid(d, K))
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
    # a rotation there and back, multiplied out, warped on the canvas shared
    # with both legs
    d, albedo, K, light = hemisphere_scene(30)
    canonical = shade(d, albedo, light, K)
    pivot = depth_centroid(d, K)
    there = Pose(rotation_about_axis(1, 10.0), np.zeros(3), pivot)
    back = Pose(rotation_about_axis(1, -10.0), np.zeros(3), pivot)
    round_trip = Pose(back.R @ there.R, np.zeros(3), pivot)
    canvas = make_canvas([there, back, round_trip], d, K)
    img, mask, _ = warp_image(canonical, d, round_trip, K, canvas, radius=1)
    assert mask.mean() > 0.9
    assert oracles.psnr(img, canonical, mask) >= 30.0


@pytest.mark.parametrize("size", [30, 64, 128])
@pytest.mark.parametrize("radius", [0, 1, 2])
@pytest.mark.parametrize("angle", [0.0, 25.0])
def test_warp_window_matches_whole_canvas_crop(size, radius, angle):
    _assert_warp_matches_whole_canvas_crop(size, radius, angle)


def _assert_warp_matches_whole_canvas_crop(size, radius, angle):
    # the zero-angle pose puts the hemisphere's points on half-pixel
    # boundaries when W_new - W is even; the 25 degree turn tilts the
    # scene's near edge past the window's
    d, albedo, K, light = hemisphere_scene(size)
    canonical = shade(d, albedo, light, K)
    pivot = depth_centroid(d, K)
    poses = [Pose(rotation_about_axis(1, a), np.zeros(3), pivot) for a in (0.0, angle)]
    canvas = make_canvas(poses, d, K)
    assert (canvas.W_new - size) % 2 == (size == 30)

    got = warp_image(canonical, d, poses[1], K, canvas, radius)
    want = oracles.whole_canvas_warp(canonical, d, poses[1], K, canvas, radius)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    if angle and radius:
        # points outside the window win some of the pixels inside it
        window = _window(canvas, size, size)
        u, v, dep, valid = project_points(
            transform_pointcloud(oracles.planes(oracles.depth_to_pointcloud(d, K)), poses[1]), K)
        j = np.floor(u - window.x_min_g + 0.5)
        i = np.floor(v - window.y_min_g + 0.5)
        inside = (j >= 0) & (j < size) & (i >= 0) & (i < size)
        assert not np.array_equal(
            scatter_min_render((u, v, dep, valid & inside), window, radius), got[2])


def _use_row_blocks(monkeypatch, size, rows):
    """Blocks of `rows` rows of a size x size scene's points."""
    monkeypatch.setattr(io_formats, "_BLOCK", 3 * size * rows)
    assert next(io_formats._row_blocks(size, 3 * size)) == slice(0, rows)


@pytest.mark.parametrize("size, rows", [(30, 7), (64, 5), (128, 1)],
                         ids=["30_in_5_blocks", "64_in_13_blocks", "128_in_128_blocks"])
@pytest.mark.parametrize("radius", [0, 2])
@pytest.mark.parametrize("angle", [0.0, 25.0])
def test_warp_across_row_blocks_matches_whole_canvas_crop(monkeypatch, size, rows, radius,
                                                          angle):
    # 30 = 4 * 7 + 2 and 64 = 12 * 5 + 4 end in a partial block; a block's
    # points stamp window rows that the next block's points stamp too
    _use_row_blocks(monkeypatch, size, rows)
    _assert_warp_matches_whole_canvas_crop(size, radius, angle)


@pytest.mark.parametrize("size, rows", [(30, 7), (64, 5)])
def test_make_canvas_across_row_blocks_matches_one_block(monkeypatch, size, rows):
    d, _, K, _ = hemisphere_scene(size)
    pivot = depth_centroid(d, K)
    poses = [Pose(rotation_about_axis(axis, a), np.zeros(3), pivot)
             for axis in range(3) for a in (-25.0, 0.0, 25.0)]
    # tilted 45 degrees about x and moved 5 units nearer, the bottom rows,
    # in the last, partial block, set a canvas wider than the 2.5 W floor
    poses.append(Pose(rotation_about_axis(0, -45.0), np.array([0.0, 0.0, -5.0]), pivot))
    one_block = make_canvas(poses, d, K)
    assert one_block.W_new > 3 * size
    _use_row_blocks(monkeypatch, size, rows)
    assert make_canvas(poses, d, K) == one_block


def _extra_bytes(call):
    """tracemalloc peak of call(), less the arrays it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in (result if isinstance(result, tuple) else [result]))


def _warp_extra_bytes(size):
    """Extra bytes of one warp_image call at the given scene size."""
    d, albedo, K, light = hemisphere_scene(size)
    canonical = shade(d, albedo, light, K)
    pose = Pose(rotation_about_axis(1, 10.0), np.zeros(3), depth_centroid(d, K))
    canvas = make_canvas([pose], d, K)
    return _extra_bytes(lambda: warp_image(canonical, d, pose, K, canvas, radius=1))


def test_warp_extra_memory_does_not_grow_with_the_image():
    # 128^2 points fit in one block of 170 rows, and 256^2 take four blocks
    # of at most 85 rows, 21760 points: four times the pixels, but a block
    # only 4/3 the size.  Whole-image passes took 4.5 MB and 17.8 MB.
    small, large = _warp_extra_bytes(128), _warp_extra_bytes(256)
    assert large < 1.5 * small


def _shade_and_centroid_extra_bytes(size):
    """Extra bytes of one shade and one depth_centroid call at the given
    scene size."""
    d, albedo, K, light = hemisphere_scene(size)
    return (_extra_bytes(lambda: shade(d, albedo, light, K)),
            _extra_bytes(lambda: depth_centroid(d, K)))


def test_shade_and_centroid_extra_memory_does_not_grow_with_the_image():
    # a block is 85 rows of 256 and 21 rows of 1024, each with up to two
    # halo rows: about the same size.  Whole-image passes took 9.0 and
    # 144.7 MB for shade, 2.6 and 42.0 MB for the centroid.
    for small, large in zip(_shade_and_centroid_extra_bytes(256),
                            _shade_and_centroid_extra_bytes(1024)):
        assert large < 1.5 * small


def test_hemisphere_demo_frames():
    # size 30 keeps W_new - W odd, so zero-angle projections round cleanly
    # instead of sitting on the half-pixel boundary
    demo = hemisphere_demo(size=30, rotations=(10.0, 10.0, 10.0), frames_per_axis=3)
    names = [name for name, _ in demo["poses"]]
    assert names == [f"axis{a}_{s}deg" for a in range(3)
                     for s in ("-010.00", "+000.00", "+010.00")]
    assert demo["canvas"].W_new >= 2.5 * 30
    frames = [warp_image(demo["canonical"], demo["depth"], pose, demo["K"],
                         demo["canvas"], radius=1)[:2] for _, pose in demo["poses"]]
    for img, mask in frames:
        assert np.isfinite(img).all()
        assert img.shape == (30, 30, 3) and mask.shape == (30, 30)
        assert mask.any()
        # window-sized arrays of their own, not views into canvas buffers
        assert img.base is None and mask.base is None
    # the zero-angle frames are identity warps of the canonical image
    for axis in range(3):
        img, mask = frames[axis * 3 + 1]
        assert oracles.psnr(img, demo["canonical"], mask) >= 40.0


def test_hemisphere_scene_validation():
    with pytest.raises(DomainError):
        hemisphere_scene(7)
    d, albedo, K, light = hemisphere_scene(8)
    assert d.shape == (8, 8) and albedo.shape == (8, 8, 3)
    assert 0.0 <= albedo.min() and albedo.max() <= 1.0
