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
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import CanvasError, DomainError
from .io_formats import MAX_WORK

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


def depth_to_pointcloud(depth: DepthMap, K: CameraIntrinsics) -> np.ndarray:
    """Back-project every pixel: point = depth * K^-1 [u, v, 1]; the z
    component equals the depth exactly."""
    h, w = depth.shape
    return _back_project(np.arange(w, dtype=np.float64)[None, :],
                         np.arange(h, dtype=np.float64)[:, None], depth.values, K)


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
    pivot for a scene."""
    return depth_to_pointcloud(depth, K).reshape(-1, 3).mean(axis=0)


def make_canvas(poses, template: DepthMap, K: CameraIntrinsics) -> CanvasSpec:
    """Shared output geometry for a set of poses: the origin every frame's
    window is placed by, and the cap on the scene's projected extent.

    The template, back-projected once, is projected under every pose; the
    bounds are then padded out to exact symmetry about the source center,
    preserving aspect and enforcing W_new >= 2.5 W.  A canvas of more than
    MAX_WORK pixels is a CanvasError: a point just in front of the camera
    projects arbitrarily far out.  No frame allocates the whole canvas;
    warp_image rasterizes only its central window.
    """
    poses = list(poses)
    if not poses:
        raise CanvasError("need at least one pose")

    W, H = K.W, K.H
    cx, cy = W / 2.0, H / 2.0
    ex = ey = 0.0
    any_valid = False
    points = depth_to_pointcloud(template, K)
    for pose in poses:
        pts = transform_pointcloud(points, pose)
        with np.errstate(over="ignore", invalid="ignore"):     # the width test rejects these
            u, v, _, valid = project_points(pts, K)
        if not np.any(valid):
            continue
        any_valid = True
        ex = max(ex, cx - u[valid].min(), u[valid].max() - cx)
        ey = max(ey, cy - v[valid].min(), v[valid].max() - cy)
    if not any_valid:
        raise CanvasError("no pose projects any point in front of the camera")

    # Python floats overflow to inf without a warning, and inf fails the test
    width = max(2.5 * W, 2.0 * float(ex) + 1.0, (2.0 * float(ey) + 1.0) * W / H)
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


def scatter_min_render(projected, canvas: CanvasSpec, radius: int = 1) -> np.ndarray:
    """Vectorized z-buffer: each valid projected point writes its depth to
    the nearest canvas pixel and every neighbor within the radius, keeping
    the minimum depth per pixel, +inf where none lands.  Order-independent."""
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

    flat = np.full(canvas.H_new * canvas.W_new, _BACKGROUND)
    for di, dj in neighborhood_offsets(radius):
        ii = i + di
        jj = j + dj
        inb = (ii >= 0) & (ii < canvas.H_new) & (jj >= 0) & (jj < canvas.W_new)
        np.minimum.at(flat, ii[inb] * canvas.W_new + jj[inb], dep[inb])
    return flat.reshape(canvas.H_new, canvas.W_new)


def shade(depth: DepthMap, albedo: np.ndarray, light: LightingParams,
          K: CameraIntrinsics) -> np.ndarray:
    """Lambertian shading of the depth surface.

    Normals come from central differences of the back-projected surface
    (one-sided at borders).  The 2-D light direction is lifted to
    normalize(l_dx, l_dy, 1) and I = albedo * (k_a + k_d * s) with
    s = max(0, <l, n>), clamped to [0, 1].
    """
    albedo = np.asarray(albedo, dtype=np.float64)
    if albedo.ndim != 3 or albedo.shape[2] != 3 or albedo.shape[:2] != depth.shape:
        raise DomainError(f"albedo must be H x W x 3 matching the depth, "
                          f"got {albedo.shape}")
    if albedo.min() < 0.0 or albedo.max() > 1.0:
        raise DomainError("albedo must lie in [0, 1]")

    pts = depth_to_pointcloud(depth, K)
    # tangents along the pixel axes, central differences inside, one-sided edges
    t_u = np.gradient(pts, axis=1, edge_order=1)
    t_v = np.gradient(pts, axis=0, edge_order=1)
    n = np.cross(t_u, t_v)
    # orient toward the camera-facing half space (+z here)
    flip = n[..., 2] < 0.0
    n[flip] *= -1.0
    norms = np.linalg.norm(n, axis=-1)
    degenerate = norms < 1e-300
    n[degenerate] = (0.0, 0.0, 1.0)
    norms = np.where(degenerate, 1.0, norms)
    n /= norms[..., None]

    l = np.array([light.l_dx, light.l_dy, 1.0])
    l /= np.linalg.norm(l)
    s = np.maximum(n @ l, 0.0)
    return np.clip(albedo * (light.k_a + light.k_d * s)[..., None], 0.0, 1.0)


def warp_image(source: np.ndarray, depth: DepthMap, pose: Pose,
               K: CameraIntrinsics, canvas: CanvasSpec, radius: int = 1):
    """Render the depth under the pose on the central K.H x K.W window of
    the canvas, rasterizing that window alone; points outside it still
    stamp the neighbors that fall inside.  For every window pixel with a
    non-background depth, bilinearly sample the source at the
    inverse-mapped coordinate.  Background pixels are black with mask 0.
    Returns (image H x W x 3, mask H x W, depth H x W) with +inf depth on
    the background."""
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
    pts = transform_pointcloud(depth_to_pointcloud(depth, K), pose)
    u, v, d, in_view = project_points(pts, K)
    window = scatter_min_render((u - canvas.x_min_g, v - canvas.y_min_g, d, in_view),
                                CanvasSpec(K.H, K.W, float(ox), float(oy)), radius)

    valid = np.isfinite(window)
    pts_c = _back_project(x[None, :], y[:, None], np.where(valid, window, 1.0), K)
    back = (pts_c - pose.pivot - pose.t) @ pose.R + pose.pivot   # R^T via right-multiply
    u0, v0, _, in_front = project_points(back, K)
    valid &= in_front & (u0 >= 0.0) & (u0 <= K.W - 1) & (v0 >= 0.0) & (v0 <= K.H - 1)

    out = np.zeros((K.H, K.W, 3))
    if np.any(valid):
        uu = u0[valid]
        vv = v0[valid]
        u_lo = np.clip(np.floor(uu).astype(np.int64), 0, K.W - 2)
        v_lo = np.clip(np.floor(vv).astype(np.int64), 0, K.H - 2)
        fu = (uu - u_lo)[:, None]
        fv = (vv - v_lo)[:, None]
        # the four corners as flat indices into the source's pixel rows;
        # np.take on axis 0 gathers rows faster than fancy indexing
        flat = source.reshape(-1, 3)
        i00 = v_lo * source.shape[1] + u_lo
        i10 = i00 + source.shape[1]

        def corner(i):
            return np.take(flat, i, axis=0)

        out[valid] = ((1 - fv) * ((1 - fu) * corner(i00) + fu * corner(i00 + 1))
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


def render_hemisphere_demo(size: int = 30, rotations=(10.0, 10.0, 10.0),
                           frames_per_axis: int = 5, radius: int = 1):
    """Rotation sweeps of the shaded hemisphere about each camera axis with
    fixed lighting.  Returns a dict with the canonical shaded image, the
    shared canvas, and (name, image, mask) frames."""
    depth, albedo, K, light = hemisphere_scene(size)
    canonical = shade(depth, albedo, light, K)
    pivot = depth_centroid(depth, K)

    poses = []
    names = []
    for axis, max_angle in enumerate(rotations):
        for angle in np.linspace(-max_angle, max_angle, frames_per_axis):
            poses.append(Pose(R=rotation_about_axis(axis, float(angle)),
                              t=np.zeros(3), pivot=pivot))
            names.append(f"axis{axis}_{angle:+07.2f}deg")
    canvas = make_canvas(poses, depth, K)
    frames = [(name, *warp_image(canonical, depth, pose, K, canvas, radius)[:2])
              for name, pose in zip(names, poses)]
    return {"depth": depth, "canonical": canonical, "canvas": canvas, "frames": frames}
