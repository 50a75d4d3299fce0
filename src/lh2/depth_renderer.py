"""Depth-map rotation rendering: back-projection to a point cloud, rigid
transform about a pivot, perspective reprojection with vectorized
scatter-min occlusion, unified-canvas sizing, diffuse shading, and the
image warp built on top.

Geometry conventions: pixel (u, v) = (column, row), camera looks down +z,
all depths positive.  The unified canvas is sized once for a whole set of
poses: W_new >= 2.5 W columns at the source aspect ratio, centred on
(W/2, H/2).  It fixes two things, the origin (x_min_g, y_min_g) shared by
every frame and the MAX_WORK cap on its size; its pixel (i, j) sits at
image coordinate (x_min_g + j, y_min_g + i), one canvas pixel per source
pixel, so placing points on it introduces no resampling of its own.  A
frame rasterizes only its central H x W window of the canvas.

Where the 2.5 W floor dominates, as in the demo's rotation sweeps, the
corners of the template's back-projected bounding box prove it and decide
the canvas without projecting a point.  The exact per-point pass still
runs where that bound reaches the floor or a corner may fall behind the
camera: wide shifts, scenes near the camera, large rotations of deep
scenes.

Memory is bounded by the output, not by the scene: every pass over the
points (make_canvas, warp_image, shade and depth_centroid) works in blocks
of pixel rows (io_formats._row_blocks, the walker the training data path
uses), so no per-point array outgrows one block, shade's differences
across rows reading one halo row on each side of its block; and the demo
hands out the poses of its frames, so that each frame is warped and
written before the next one is rendered.  Beyond its result, shade peaks
at about 4.3 MB of traced allocations and depth_centroid at 1.4 MB at
sizes 256 and 1024 alike.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import CanvasError, DomainError
from .io_formats import MAX_WORK, _row_blocks

_BACKGROUND = np.inf


@dataclasses.dataclass
class DepthMap:
    """H x W positive depths plus the stored quantization/normalization
    range used by smoothness losses and the PGM container."""

    values: np.ndarray
    min_depth: float
    max_depth: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DomainError(f"depth must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("depth contains non-finite values")
        if self.min_depth <= 0.0:
            raise DomainError(f"min_depth must be positive, got {self.min_depth}")
        if v.min() < self.min_depth - 1e-9 or v.max() > self.max_depth + 1e-9:
            raise DomainError("values outside [min_depth, max_depth]")
        self.values = v

    @staticmethod
    def from_values(values) -> "DepthMap":
        v = np.asarray(values, dtype=np.float64)
        return DepthMap(values=v, min_depth=float(v.min()), max_depth=float(v.max()))

    @property
    def shape(self):
        return self.values.shape


@dataclasses.dataclass
class CameraIntrinsics:
    """Square-pixel pinhole camera: focal length f and principal point
    (cx, cy), in pixels, on a W x H image."""

    f: float
    cx: float
    cy: float
    W: int
    H: int


def intrinsics_from_fov(W: int, H: int, fov_deg: float) -> CameraIntrinsics:
    """Pinhole intrinsics with focal length (W-1)/(2 tan(fov/2)) and the
    principal point at the pixel-grid center."""
    if W < 2 or H < 2:
        raise DomainError(f"need W, H >= 2, got ({W}, {H})")
    if not 0.0 < fov_deg < 180.0:
        raise DomainError(f"fov must be in (0, 180) degrees, got {fov_deg}")
    f = (W - 1) / (2.0 * math.tan(math.radians(fov_deg) / 2.0))
    if not math.isfinite(f):
        raise DomainError(f"fov of {fov_deg} degrees gives an infinite focal length")
    return CameraIntrinsics(f=f, cx=(W - 1) / 2.0, cy=(H - 1) / 2.0, W=int(W), H=int(H))


@dataclasses.dataclass
class Pose:
    """Rigid motion P' = R (P - pivot) + pivot + t."""

    R: np.ndarray
    t: np.ndarray
    pivot: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.float64)
        if R.shape != (3, 3):
            raise DomainError(f"R must be 3 x 3, got {R.shape}")
        # negated checks, so that a nan entry fails them
        if not np.abs(R.T @ R - np.eye(3)).max() <= 1e-9:
            raise DomainError("R is not orthonormal")
        if not abs(np.linalg.det(R) - 1.0) <= 1e-9:
            raise DomainError(f"det R = {np.linalg.det(R)}, expected 1")
        self.R = R
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        self.pivot = np.asarray(self.pivot, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.pivot))):
            raise DomainError(f"t and pivot must be finite, got {self.t} and {self.pivot}")


def rotation_about_axis(axis: int, angle_deg: float) -> np.ndarray:
    """Rotation matrix about the x (0), y (1), or z (2) camera axis."""
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    if axis == 0:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == 1:
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == 2:
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise DomainError(f"axis must be 0, 1, or 2, got {axis}")


@dataclasses.dataclass
class LightingParams:
    k_a: float
    k_d: float
    l_dx: float
    l_dy: float

    def __post_init__(self):
        if not (0.0 <= self.k_a <= 1.0 and 0.0 <= self.k_d <= 1.0):
            raise DomainError("k_a and k_d must lie in [0, 1]")


DEFAULT_LIGHT = LightingParams(k_a=0.35, k_d=0.65, l_dx=0.4, l_dy=0.25)


@dataclasses.dataclass
class CanvasSpec:
    """Canvas pixel (i, j) sits at image coordinate (x_min_g + j, y_min_g + i)."""

    H_new: int
    W_new: int
    x_min_g: float
    y_min_g: float


def _back_project(u, v, d, K: CameraIntrinsics) -> np.ndarray:
    """Points d * K^-1 [u, v, 1] for pixel coordinates u, v broadcast
    against the depths d; the z component equals the depth exactly."""
    return np.stack([(u - K.cx) / K.f * d, (v - K.cy) / K.f * d, d], axis=-1)


def _row_points(depth: DepthMap, K: CameraIntrinsics, rows: slice) -> np.ndarray:
    """The back-projected points of the given rows of the depth map,
    rows x W x 3."""
    return _back_project(np.arange(depth.shape[1], dtype=np.float64)[None, :],
                         np.arange(rows.start, rows.stop, dtype=np.float64)[:, None],
                         depth.values[rows], K)


def _point_blocks(depth: DepthMap, K: CameraIntrinsics):
    """The points of the depth map one block of rows at a time: yields the
    points of each of the _row_blocks of the depth, 3 W wide, so that a
    block's coordinates fit in one block of work."""
    h, w = depth.shape
    for rows in _row_blocks(h, 3 * w):
        yield _row_points(depth, K, rows)


def transform_pointcloud(points: np.ndarray, pose: Pose) -> np.ndarray:
    """P' = R (P - pivot) + pivot + t over any (..., 3) array."""
    p = np.asarray(points, dtype=np.float64)
    return (p - pose.pivot) @ pose.R.T + pose.pivot + pose.t


def project_points(points: np.ndarray, K: CameraIntrinsics):
    """Perspective projection; returns (u, v, d, valid) with d = depth w
    and valid false where w <= 0 (those points are excluded downstream)."""
    p = np.asarray(points, dtype=np.float64)
    w = p[..., 2]
    valid = w > 0.0
    safe = np.where(valid, w, 1.0)
    u = K.f * p[..., 0] / safe + K.cx
    v = K.f * p[..., 1] / safe + K.cy
    return np.where(valid, u, 0.0), np.where(valid, v, 0.0), w.copy(), valid


def depth_centroid(depth: DepthMap, K: CameraIntrinsics) -> np.ndarray:
    """Back-projected centroid of the depth pixels; the natural rotation
    pivot for a scene.

    The points are added one block at a time onto a running sum in row
    order: numpy sums the rows of an N x 3 array one after another, so
    summing the running sum stacked on a block's points continues that
    sum, and the centroid is the mean over the whole cloud bit for bit."""
    total = np.zeros(3)
    for points in _point_blocks(depth, K):
        total = np.concatenate([total[None], points.reshape(-1, 3)]).sum(axis=0)
    return total / depth.values.size


def _corner_reach(poses, template: DepthMap, K: CameraIntrinsics):
    """Upper bounds (ex, ey) on every pose's projected extent about
    (W/2, H/2) from the 8 corners of the template's back-projected bounding
    box, or None unless every pose keeps the box in front of the camera and
    the bounds stay under the 2.5 W floor in both axes.

    x = (u - cx)/f * d is bilinear in (u, d), so over the depth map its
    extremes sit at the box's corners, and y and z likewise; a rigid motion
    keeps every point inside the hull of the moved corners.  The moved
    corners thus bound z' below and |x'| and |y'| above, and
    |u - cx| <= f max|x'| / min z'.  The corners may round unlike the
    points, so each moved coordinate is widened by a few ulps of the terms
    that sum to it, and the extents by one pixel.
    """
    W, H = K.W, K.H
    cols, rows, deps = (g.ravel() for g in np.meshgrid(
        [0.0, W - 1.0], [0.0, H - 1.0], [template.values.min(), template.values.max()]))
    corners = _back_project(cols, rows, deps, K)                      # 8 x 3
    R = np.stack([pose.R for pose in poses])
    pivot = np.stack([pose.pivot for pose in poses])[:, None, :]
    t = np.stack([pose.t for pose in poses])[:, None, :]
    moved = (corners - pivot) @ R.transpose(0, 2, 1) + pivot + t      # poses x 8 x 3
    terms = np.abs(corners - pivot) @ np.abs(R).transpose(0, 2, 1) + np.abs(pivot) + np.abs(t)
    slack = 16.0 * np.finfo(np.float64).eps * terms.max(axis=1)      # poses x 3
    z_lo = moved[..., 2].min(axis=1) - slack[:, 2]
    x_hi = np.abs(moved[..., 0]).max(axis=1) + slack[:, 0]
    y_hi = np.abs(moved[..., 1]).max(axis=1) + slack[:, 1]
    if not np.all(z_lo > 0.0):                  # nan fails too
        return None
    ex = float((K.f * x_hi / z_lo).max()) + abs(K.cx - W / 2.0) + 1.0
    ey = float((K.f * y_hi / z_lo).max()) + abs(K.cy - H / 2.0) + 1.0
    floor = 2.5 * W
    if not (2.0 * ex + 1.0 < floor and (2.0 * ey + 1.0) * W / H < floor):
        return None
    return ex, ey


def _point_reach(poses, template: DepthMap, K: CameraIntrinsics):
    """Every pose's exact projected extent (ex, ey) about (W/2, H/2): the
    template is back-projected one block of rows at a time, and each block
    is projected under every pose, keeping a running min and max of each
    pose's u and v over its valid points."""
    cx, cy = K.W / 2.0, K.H / 2.0
    # per pose, the (u, v) minima and maxima over its valid points; np.minimum
    # and np.maximum keep a nan, as a min or max over all the points would
    seen = np.zeros(len(poses), dtype=bool)
    lo = np.full((len(poses), 2), np.inf)
    hi = np.full((len(poses), 2), -np.inf)
    for points in _point_blocks(template, K):
        for k, pose in enumerate(poses):
            pts = transform_pointcloud(points, pose)
            with np.errstate(over="ignore", invalid="ignore"):     # the width test rejects these
                u, v, _, valid = project_points(pts, K)
            if not np.any(valid):
                continue
            seen[k] = True
            for c, coord in enumerate((u[valid], v[valid])):
                lo[k, c] = np.minimum(lo[k, c], coord.min())
                hi[k, c] = np.maximum(hi[k, c], coord.max())
    if not seen.any():
        raise CanvasError("no pose projects any point in front of the camera")
    ex = ey = 0.0
    for k in np.flatnonzero(seen):
        ex = max(ex, cx - lo[k, 0], hi[k, 0] - cx)
        ey = max(ey, cy - lo[k, 1], hi[k, 1] - cy)
    return float(ex), float(ey)


def make_canvas(poses, template: DepthMap, K: CameraIntrinsics) -> CanvasSpec:
    """Shared output geometry for a set of poses: the origin every frame's
    window is placed by, and the cap on the scene's projected extent.

    Each pose's projected u/v extent about the source center is padded out
    to exact symmetry, preserving aspect and enforcing W_new >= 2.5 W.
    When the corners of the template's bounding box already bound every
    extent under that floor (_corner_reach), the floor decides and no point
    is projected: so it is for the demo's rotation sweeps.  Otherwise the
    exact per-point pass runs (_point_reach): for poses that shift the
    scene wide or bring a corner near or behind the camera, and for large
    rotations of a deep scene.  Both give the same canvas.  A canvas of
    more than MAX_WORK pixels is a CanvasError: a point just in front of
    the camera projects arbitrarily far out.  No frame allocates the whole
    canvas; warp_image rasterizes only its central window.
    """
    poses = list(poses)
    if not poses:
        raise CanvasError("need at least one pose")

    W, H = K.W, K.H
    with np.errstate(over="ignore", invalid="ignore"):     # overflow leaves it undecided
        reach = _corner_reach(poses, template, K)
    ex, ey = reach if reach is not None else _point_reach(poses, template, K)

    # Python floats overflow to inf without a warning, and inf fails the test
    width = max(2.5 * W, 2.0 * ex + 1.0, (2.0 * ey + 1.0) * W / H)
    if not width <= MAX_WORK:
        raise CanvasError(f"a canvas {width:.3g} pixels wide exceeds the cap of {MAX_WORK}")
    W_new = math.ceil(width)
    while (W_new * H) % W != 0:        # keep H_new integral at the same aspect
        W_new += 1
    H_new = W_new * H // W
    if H_new * W_new > MAX_WORK:
        raise CanvasError(f"a canvas of {H_new} x {W_new} pixels exceeds the cap of "
                          f"{MAX_WORK}")

    # unit pixel spacing, the W_new - 1 extent centred on W/2
    return CanvasSpec(H_new=int(H_new), W_new=int(W_new),
                      x_min_g=(W - (W_new - 1)) / 2.0, y_min_g=(H - (H_new - 1)) / 2.0)


def neighborhood_offsets(radius: int):
    """All integer (di, dj) with di^2 + dj^2 <= radius^2."""
    if radius < 0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    r2 = radius * radius
    return [(di, dj)
            for di in range(-radius, radius + 1)
            for dj in range(-radius, radius + 1)
            if di * di + dj * dj <= r2]


def scatter_min_render(projected, canvas: CanvasSpec, radius: int = 1,
                       out=None) -> np.ndarray:
    """Vectorized z-buffer: each valid projected point writes its depth to
    the nearest canvas pixel and every neighbor within the radius, keeping
    the minimum depth per pixel, +inf where none lands.  Order-independent,
    so points may arrive in batches: given out, a C-contiguous H_new x W_new
    array, each depth is min-accumulated into it in place."""
    u, v, d, valid = projected
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    d = np.asarray(d, dtype=np.float64).ravel()
    keep = np.asarray(valid, dtype=bool).ravel()

    fx = u[keep] - canvas.x_min_g
    fy = v[keep] - canvas.y_min_g
    j = np.floor(fx + 0.5).astype(np.int64)
    i = np.floor(fy + 0.5).astype(np.int64)
    dep = d[keep]

    if out is None:
        out = np.full((canvas.H_new, canvas.W_new), _BACKGROUND)
    elif out.shape != (canvas.H_new, canvas.W_new) or not out.flags.c_contiguous:
        raise DomainError(f"out must be a C-contiguous {canvas.H_new} x {canvas.W_new} array")
    flat = out.reshape(-1)
    # every offset of a point at least radius from each edge lands on the
    # canvas, so those points stamp without a bounds test
    inner = ((i >= radius) & (i < canvas.H_new - radius)
             & (j >= radius) & (j < canvas.W_new - radius))
    base = i[inner] * canvas.W_new + j[inner]
    dep_in = dep[inner]
    edge = ~inner
    i, j, dep = i[edge], j[edge], dep[edge]
    for di, dj in neighborhood_offsets(radius):
        np.minimum.at(flat, base + (di * canvas.W_new + dj), dep_in)
        ii = i + di
        jj = j + dj
        inb = (ii >= 0) & (ii < canvas.H_new) & (jj >= 0) & (jj < canvas.W_new)
        np.minimum.at(flat, ii[inb] * canvas.W_new + jj[inb], dep[inb])
    return out


def shade(depth: DepthMap, albedo: np.ndarray, light: LightingParams,
          K: CameraIntrinsics) -> np.ndarray:
    """Lambertian shading of the depth surface.

    Normals come from central differences of the back-projected surface
    (one-sided at borders), taken one block of rows at a time.  The 2-D
    light direction is lifted to normalize(l_dx, l_dy, 1) and
    I = albedo * (k_a + k_d * s) with s = max(0, <l, n>), clamped to
    [0, 1].
    """
    albedo = np.asarray(albedo, dtype=np.float64)
    if albedo.ndim != 3 or albedo.shape[2] != 3 or albedo.shape[:2] != depth.shape:
        raise DomainError(f"albedo must be H x W x 3 matching the depth, "
                          f"got {albedo.shape}")
    if albedo.min() < 0.0 or albedo.max() > 1.0:
        raise DomainError("albedo must lie in [0, 1]")

    l = np.array([light.l_dx, light.l_dy, 1.0])
    l /= np.linalg.norm(l)
    h = depth.shape[0]
    out = np.empty(albedo.shape)
    for rows in _row_blocks(h, 3 * depth.shape[1]):
        # the block with one halo row above and below where the image has
        # them, so that the differences across rows see both neighbours
        lo, hi = max(rows.start - 1, 0), min(rows.stop + 1, h)
        pts = _row_points(depth, K, slice(lo, hi))
        block = slice(rows.start - lo, rows.stop - lo)
        # tangents along the pixel axes, central differences inside,
        # one-sided at the image's borders
        t_u = np.gradient(pts[block], axis=1, edge_order=1)
        t_v = np.gradient(pts, axis=0, edge_order=1)[block]
        n = np.cross(t_u, t_v)
        # orient toward the camera-facing half space (+z here)
        flip = n[..., 2] < 0.0
        n[flip] *= -1.0
        norms = np.linalg.norm(n, axis=-1)
        degenerate = norms < 1e-300
        n[degenerate] = (0.0, 0.0, 1.0)
        norms = np.where(degenerate, 1.0, norms)
        n /= norms[..., None]
        s = np.maximum(n @ l, 0.0)
        out[rows] = np.clip(albedo[rows] * (light.k_a + light.k_d * s)[..., None], 0.0, 1.0)
    return out


def warp_image(source: np.ndarray, depth: DepthMap, pose: Pose,
               K: CameraIntrinsics, canvas: CanvasSpec, radius: int = 1):
    """Render the depth under the pose on the central K.H x K.W window of
    the canvas, rasterizing that window alone; points outside it still
    stamp the neighbors that fall inside.  For every window pixel with a
    non-background depth, bilinearly sample the source at the
    inverse-mapped coordinate.  Background pixels are black with mask 0.
    Returns (image H x W x 3, mask H x W, depth H x W) with +inf depth on
    the background.

    Both passes take the rows a block at a time: the forward pass scatters
    each block of source rows into the one window, and the inverse map
    samples each block of window rows, so the arrays returned are the only
    ones the size of the image."""
    source = np.asarray(source, dtype=np.float64)
    # the central window starts at canvas pixel (oy, ox); its image origin
    # lands at 0.5 px, not 0, when W_new - W is even, as make_canvas centres
    # on W/2
    ox = (canvas.W_new - K.W) // 2
    oy = (canvas.H_new - K.H) // 2
    x = canvas.x_min_g + ox + np.arange(K.W)
    y = canvas.y_min_g + oy + np.arange(K.H)
    # points move to canvas coordinates first, so each one rounds to the
    # pixel it takes on the whole canvas
    window = np.full((K.H, K.W), _BACKGROUND)
    on_window = CanvasSpec(K.H, K.W, float(ox), float(oy))
    for points in _point_blocks(depth, K):
        u, v, d, in_view = project_points(transform_pointcloud(points, pose), K)
        scatter_min_render((u - canvas.x_min_g, v - canvas.y_min_g, d, in_view),
                           on_window, radius, out=window)

    valid = np.isfinite(window)
    out = np.zeros((K.H, K.W, 3))
    # the four corners as flat indices into the source's pixel rows;
    # np.take on axis 0 gathers rows faster than fancy indexing
    flat = source.reshape(-1, 3)

    def corner(i):
        return np.take(flat, i, axis=0)

    for rows in _row_blocks(K.H, 3 * K.W):
        ok = valid[rows]                  # a view: narrowed in place below
        pts_c = _back_project(x[None, :], y[rows, None], np.where(ok, window[rows], 1.0), K)
        back = (pts_c - pose.pivot - pose.t) @ pose.R + pose.pivot   # R^T via right-multiply
        u0, v0, _, in_front = project_points(back, K)
        ok &= in_front & (u0 >= 0.0) & (u0 <= K.W - 1) & (v0 >= 0.0) & (v0 <= K.H - 1)
        if not np.any(ok):
            continue
        uu = u0[ok]
        vv = v0[ok]
        u_lo = np.clip(np.floor(uu).astype(np.int64), 0, K.W - 2)
        v_lo = np.clip(np.floor(vv).astype(np.int64), 0, K.H - 2)
        fu = (uu - u_lo)[:, None]
        fv = (vv - v_lo)[:, None]
        i00 = v_lo * source.shape[1] + u_lo
        i10 = i00 + source.shape[1]
        out[rows][ok] = ((1 - fv) * ((1 - fu) * corner(i00) + fu * corner(i00 + 1))
                         + fv * ((1 - fu) * corner(i10) + fu * corner(i10 + 1)))
    return out, valid, window


MIN_SIZE = 8        # the smallest hemisphere scene, in pixels


def hemisphere_scene(size: int = 30):
    """Analytic hemisphere depth bump with an axis-marked albedo under a
    40 degree field of view: the test scene for the renderer demo."""
    if size < MIN_SIZE:
        raise DomainError(f"size must be >= {MIN_SIZE}, got {size}")
    c = (size - 1) / 2.0
    rho = 0.4 * size
    z0, bump = 10.0, 3.0
    u = np.arange(size, dtype=np.float64)[None, :]
    v = np.arange(size, dtype=np.float64)[:, None]
    rr = (u - c) ** 2 + (v - c) ** 2
    inside = rr <= rho ** 2
    z = np.full((size, size), z0)
    z[inside] -= np.sqrt(rho ** 2 - rr[inside]) * (bump / rho)
    depth = DepthMap.from_values(z)

    albedo = np.full((size, size, 3), 0.75)
    stripe = max(1, size // 10)
    albedo[:, np.abs(np.arange(size) - c) < stripe] = (0.85, 0.20, 0.20)
    albedo[np.abs(np.arange(size) - c) < stripe, :] = (0.20, 0.70, 0.25)
    K = intrinsics_from_fov(size, size, 40.0)
    return depth, albedo, K, DEFAULT_LIGHT


def hemisphere_demo(size: int = 30, rotations=(10.0, 10.0, 10.0),
                    frames_per_axis: int = 5):
    """Rotation sweeps of the shaded hemisphere about each camera axis with
    fixed lighting, to be warped one frame at a time.  Returns a dict with
    the scene's depth and intrinsics K, the canonical shaded image, the
    canvas the frames share, and the (name, pose) of every frame."""
    depth, albedo, K, light = hemisphere_scene(size)
    canonical = shade(depth, albedo, light, K)
    pivot = depth_centroid(depth, K)
    poses = [(f"axis{axis}_{angle:+07.2f}deg",
              Pose(R=rotation_about_axis(axis, float(angle)), t=np.zeros(3), pivot=pivot))
             for axis, max_angle in enumerate(rotations)
             for angle in np.linspace(-max_angle, max_angle, frames_per_axis)]
    canvas = make_canvas([pose for _, pose in poses], depth, K)
    return {"depth": depth, "K": K, "canonical": canonical, "canvas": canvas,
            "poses": poses}
