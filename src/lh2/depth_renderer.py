"""Depth-map rotation rendering: back-projection to a point cloud, rigid
transform about a pivot, perspective reprojection with vectorized
scatter-min occlusion, diffuse shading, and the image warp built on top.

Geometry conventions: pixel (u, v) = (column, row), camera looks down +z,
all depths positive.  Points are coordinate-first: a 3 x ... array holds
the x, y and z planes, so that back-projection, the rigid motion (one
(3, 3) @ (3, n) product) and projection each run along contiguous planes;
transform_pointcloud and project_points take that layout.  project_points
returns its input's z plane as the depth, a view; its u and v mean
nothing where z <= 0, and every caller drops those points.  shade and
depth_centroid read their blocks as rows x W x 3 views.

The canvas fixes the origin (x_min_g, y_min_g) that every frame's window
is placed by: W_new >= 2.5 W columns at the source aspect ratio, centred on
(W/2, H/2), computed from the image size alone; its pixel (i, j) sits at
image coordinate (x_min_g + j, y_min_g + i), one canvas pixel per source
pixel, so placing points on it introduces no resampling of its own.  No
frame allocates it: a frame rasterizes only its central H x W window, and
a point whose projection falls far outside, or overflows, lands nowhere.

Memory is bounded by the output, not by the scene: every pass over the
points (warp_image, shade and depth_centroid) works in blocks of pixel
rows (io_formats._row_blocks, the walker the training data path uses), so
no per-point array outgrows one block, shade's differences across rows
reading one halo row on each side of its block; and the demo hands out the
poses of its frames, so that each frame is warped and written before the
next one is rendered.  Beyond its result, shade peaks at about 4.3 MB of
traced allocations and depth_centroid at 1.4 MB at sizes 256 and 1024
alike, and warp_image at 1.5 MB at size 128 and 1.8 MB at 256, where a
block of rows is 4/3 the size.

The z-buffer writes each point once: scatter_min_render keeps the points
whose footprint reaches the canvas, min-writes each depth at its nearest
pixel in a buffer over their bounding box, and min-s that buffer into the
canvas as one shifted slice per footprint offset.  The warp blends a whole
block of window rows one channel at a time, gathering the four corners of
every pixel from the flat source with one array of offsets, and writes
the pixels the mask holds; the pixels it leaves out sample a dummy corner.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .io_formats import _row_blocks

_BACKGROUND = np.inf


@dataclasses.dataclass
class DepthMap:
    """H x W depths, finite and positive."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DomainError(f"depth must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("depth contains non-finite values")
        if v.min() <= 0.0:
            raise DomainError(f"depth must be positive, got a minimum of {v.min()}")
        self.values = v

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
    against the depths d, as a 3 x ... array of x, y and z planes; the z
    plane equals the depth exactly."""
    d = np.asarray(d, dtype=np.float64)
    out = np.empty((3,) + np.broadcast_shapes(np.shape(u), np.shape(v), d.shape))
    np.multiply((u - K.cx) / K.f, d, out=out[0])
    np.multiply((v - K.cy) / K.f, d, out=out[1])
    out[2] = d
    return out


def _row_points(depth: DepthMap, K: CameraIntrinsics, rows: slice) -> np.ndarray:
    """The back-projected points of the given rows of the depth map,
    3 x rows x W."""
    return _back_project(np.arange(depth.shape[1], dtype=np.float64)[None, :],
                         np.arange(rows.start, rows.stop, dtype=np.float64)[:, None],
                         depth.values[rows], K)


def _point_blocks(depth: DepthMap, K: CameraIntrinsics):
    """The points of the depth map one block of rows at a time: yields the
    3 x rows x W points of each of the _row_blocks of the depth, 3 W wide,
    so that a block's coordinates fit in one block of work."""
    h, w = depth.shape
    for rows in _row_blocks(h, 3 * w):
        yield _row_points(depth, K, rows)


def transform_pointcloud(points: np.ndarray, pose: Pose) -> np.ndarray:
    """P' = R (P - pivot) + pivot + t over any 3 x ... array of x, y and z
    planes."""
    p = np.asarray(points, dtype=np.float64)
    if p.shape[:1] != (3,):
        raise DomainError(f"points must be 3 x ..., got shape {p.shape}")
    out = pose.R @ (p.reshape(3, -1) - pose.pivot[:, None])
    out += pose.pivot[:, None]
    out += pose.t[:, None]
    return out.reshape(p.shape)


def project_points(points: np.ndarray, K: CameraIntrinsics):
    """Perspective projection of a 3 x ... array of x, y and z planes;
    returns (u, v, d, valid), each of the shape of one plane: d is the z
    plane itself, a view of the input, valid is false where z <= 0, and
    u and v, divided by z only where valid holds, mean nothing elsewhere."""
    p = np.asarray(points, dtype=np.float64)
    if p.shape[:1] != (3,):
        raise DomainError(f"points must be 3 x ..., got shape {p.shape}")
    w = p[2]
    valid = w > 0.0
    u = K.f * p[0]
    np.divide(u, w, out=u, where=valid)
    u += K.cx
    v = K.f * p[1]
    np.divide(v, w, out=v, where=valid)
    v += K.cy
    return u, v, w, valid


def depth_centroid(depth: DepthMap, K: CameraIntrinsics) -> np.ndarray:
    """Back-projected centroid of the depth pixels; the natural rotation
    pivot for a scene.

    The points are added one block at a time onto a running sum in row
    order: numpy sums the rows of an N x 3 array one after another, so
    summing the running sum stacked on a block's points continues that
    sum, and the centroid is the mean over the whole cloud bit for bit.
    The stack is a C-ordered N x 3 array, built from a block's planes, as
    numpy sums the columns of any other layout pairwise."""
    total = np.zeros(3)
    for points in _point_blocks(depth, K):
        stack = np.empty((points[0].size + 1, 3))
        stack[0] = total
        stack[1:] = np.moveaxis(points, 0, -1).reshape(-1, 3)
        total = stack.sum(axis=0)
    return total / depth.values.size


def _check_depth_size(depth: DepthMap, K: CameraIntrinsics) -> None:
    if depth.shape != (K.H, K.W):
        raise DomainError(f"depth of shape {depth.shape} does not match the "
                          f"{K.H} x {K.W} image of K")


def make_canvas(poses, template: DepthMap, K: CameraIntrinsics) -> CanvasSpec:
    """The canvas whose origin places every frame's window: 2.5 W columns,
    rounded up until H_new is integral at the source aspect ratio, centred
    on (W/2, H/2).  It depends on the image size alone; the poses and the
    template are only checked, for a pose and for K's size.  No frame
    allocates the canvas: warp_image rasterizes only its central window,
    so the window and the caller's work cap bound every frame."""
    if not list(poses):
        raise DomainError("need at least one pose")
    _check_depth_size(template, K)
    W, H = K.W, K.H
    W_new = math.ceil(2.5 * W)
    while (W_new * H) % W != 0:        # keep H_new integral at the same aspect
        W_new += 1
    H_new = W_new * H // W
    # unit pixel spacing, the W_new - 1 extent centred on W/2
    return CanvasSpec(H_new=H_new, W_new=W_new,
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
    so points may arrive in batches: given out, a C-contiguous float64
    H_new x W_new array, each depth is min-accumulated into it in place.

    A point lands on the canvas only if its shifted coordinate
    t = coord - origin + 0.5, whose floor is its nearest pixel, lies in
    [-radius, W_new + radius) (and likewise in rows), so no other point,
    far or non-finite, reaches the integer cast.  Each kept point is
    written once, into a buffer over the bounding box of the nearest
    pixels, and that buffer is then min-ed into the canvas once per
    offset, clipped to its edges: a minimum does not round, so this equals
    one write per point and offset."""
    offsets = neighborhood_offsets(radius)
    H, W = canvas.H_new, canvas.W_new
    if out is None:
        out = np.full((H, W), _BACKGROUND)
    elif (out.dtype != np.float64 or out.shape != (H, W)
          or not out.flags.c_contiguous):
        raise DomainError(f"out must be a C-contiguous float64 {H} x {W} array")

    u, v, d, valid = projected
    tx = np.asarray(u, dtype=np.float64).ravel() - canvas.x_min_g
    tx += 0.5
    ty = np.asarray(v, dtype=np.float64).ravel() - canvas.y_min_g
    ty += 0.5
    # a fresh mask: the caller's valid may be viewed by asarray and ravel
    keep = (tx >= -radius) & (tx < W + radius)
    keep &= ty >= -radius
    keep &= ty < H + radius
    keep &= np.asarray(valid, dtype=bool).ravel()
    dep = np.asarray(d, dtype=np.float64).ravel()[keep]
    if not dep.size:
        return out
    j = np.floor(tx[keep]).astype(np.int64)
    i = np.floor(ty[keep]).astype(np.int64)

    top, left = int(i.min()), int(j.min())
    bh, bw = int(i.max()) - top + 1, int(j.max()) - left + 1
    i -= top
    i *= bw
    i += j
    i -= left                   # each point's flat index in the buffer
    nearest = np.full((bh, bw), _BACKGROUND)
    np.minimum.at(nearest.reshape(-1), i, dep)
    for di, dj in offsets:
        y0, x0 = top + di, left + dj            # where the buffer's first pixel lands
        r0, r1 = max(y0, 0), min(y0 + bh, H)
        c0, c1 = max(x0, 0), min(x0 + bw, W)
        if r0 < r1 and c0 < c1:
            dst = out[r0:r1, c0:c1]
            np.minimum(dst, nearest[r0 - y0:r1 - y0, c0 - x0:c1 - x0], out=dst)
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
    if not (albedo.min() >= 0.0 and albedo.max() <= 1.0):     # negated, so nan fails
        raise DomainError("albedo must lie in [0, 1]")

    l = np.array([light.l_dx, light.l_dy, 1.0])
    l /= np.linalg.norm(l)
    h = depth.shape[0]
    out = np.empty(albedo.shape)
    for rows in _row_blocks(h, 3 * depth.shape[1]):
        # the block with one halo row above and below where the image has
        # them, so that the differences across rows see both neighbours
        lo, hi = max(rows.start - 1, 0), min(rows.stop + 1, h)
        pts = np.moveaxis(_row_points(depth, K, slice(lo, hi)), 0, -1)   # rows x W x 3
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


def _inverse_map(x, y, depth, pose: Pose, K: CameraIntrinsics):
    """Source pixel coordinates (u, v, in_front) of the window pixels at
    image coordinates x (columns) and y (rows) with the given rendered
    depths: each is back-projected and moved by the inverse motion
    P = R^T (P' - pivot - t) + pivot, then projected."""
    p = _back_project(x[None, :], y[:, None], depth, K)
    flat = p.reshape(3, -1)             # a view: p is fresh and contiguous
    flat -= pose.pivot[:, None]
    flat -= pose.t[:, None]
    back = pose.R.T @ flat
    shape = p.shape
    del p, flat
    back += pose.pivot[:, None]
    u, v, _, in_front = project_points(back.reshape(shape), K)
    return u, v, in_front


def warp_image(source: np.ndarray, depth: DepthMap, pose: Pose,
               K: CameraIntrinsics, canvas: CanvasSpec, radius: int = 1):
    """Render the depth under the pose on the central K.H x K.W window of
    the canvas, rasterizing that window alone; points outside it still
    stamp the neighbors that fall inside.  For every window pixel with a
    non-background depth, bilinearly sample the source at the
    inverse-mapped coordinate.  Background pixels are black with mask 0.
    Returns (image H x W x 3, mask H x W, depth H x W) with +inf depth on
    the background.  The source and the depth must both be K's size.  A
    projection that overflows, as under a far shift or a narrow field of
    view, is dropped by the window test going forward and by the bounds
    test coming back, so the frame may be empty.

    Both passes take the rows a block at a time: the forward pass scatters
    each block of source rows into the one window, and the inverse map
    samples each block of window rows, so the arrays returned are the only
    ones the size of the image.  Each block is blended one channel at a
    time over all of its pixels, into three buffers reused from block to
    block, and written where the mask holds; every other array of a block
    is dropped before the next block starts."""
    source = np.asarray(source, dtype=np.float64)
    if source.shape != (K.H, K.W, 3):
        raise DomainError(f"source must be {K.H} x {K.W} x 3, got shape {source.shape}")
    _check_depth_size(depth, K)
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
        with np.errstate(over="ignore", invalid="ignore"):     # the window test drops these
            moved = transform_pointcloud(points, pose)
            del points
            u, v, d, in_view = project_points(moved, K)
        scatter_min_render((u - canvas.x_min_g, v - canvas.y_min_g, d, in_view),
                           on_window, radius, out=window)
        del moved, u, v, d, in_view

    valid = np.isfinite(window)
    out = np.zeros((K.H, K.W, 3))
    # channel c of source pixel (v, u) sits at 3 (v W + u) + c of the flat
    # source, so one array of the offsets 3 (v_lo W + u_lo) gathers each
    # corner of each channel from the flat source shifted by the channel,
    # one pixel (3) and one row (3 W); the offsets are in range, and
    # mode="clip" spares np.take its buffered bounds check
    flat = source.reshape(-1)
    row = 3 * K.W
    blocks = list(_row_blocks(K.H, 3 * K.W))
    buffers = np.empty((3, (blocks[0].stop - blocks[0].start) * K.W))
    for rows in blocks:
        ok = valid[rows]                  # a view: narrowed in place below
        with np.errstate(over="ignore", invalid="ignore"):     # the bounds test drops these
            u0, v0, in_front = _inverse_map(x, y[rows], np.where(ok, window[rows], 1.0),
                                            pose, K)
        ok &= in_front & (u0 >= 0.0) & (u0 <= K.W - 1) & (v0 >= 0.0) & (v0 <= K.H - 1)
        del in_front
        if not np.any(ok):
            del u0, v0
            continue
        # every pixel is blended, and only those in ok are written; the
        # others sample at (0, 0), so that their offsets stay in range and
        # the cast sees no far or non-finite coordinate
        miss = ~ok
        u0[miss] = 0.0
        v0[miss] = 0.0
        del miss
        u_lo = np.floor(u0).astype(np.int64)
        np.clip(u_lo, 0, K.W - 2, out=u_lo)
        v_lo = np.floor(v0).astype(np.int64)
        np.clip(v_lo, 0, K.H - 2, out=v_lo)
        fu = u0                           # in place: u0 and v0 are read no more
        fu -= u_lo
        fv = v0
        fv -= v_lo
        at = v_lo                         # in place: the offsets 3 (v_lo W + u_lo)
        at *= K.W
        at += u_lo
        at *= 3
        del u0, v0, u_lo, v_lo
        gu = 1 - fu
        gv = 1 - fv
        # the blend of the top and the bottom row of corners, and a right corner
        top, bottom, right = (buf[:at.size].reshape(at.shape) for buf in buffers)
        for c in range(3):
            # (1 - fv) ((1 - fu) c00 + fu c01) + fv ((1 - fu) c10 + fu c11)
            np.take(flat[c:], at, out=top, mode="clip")
            top *= gu
            np.take(flat[c + 3:], at, out=right, mode="clip")
            right *= fu
            top += right
            top *= gv
            np.take(flat[c + row:], at, out=bottom, mode="clip")
            bottom *= gu
            np.take(flat[c + row + 3:], at, out=right, mode="clip")
            right *= fu
            bottom += right
            bottom *= fv
            top += bottom
            np.copyto(out[rows][..., c], top, where=ok)
        del ok, fu, fv, gu, gv, at, top, bottom, right
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
    depth = DepthMap(z)

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
