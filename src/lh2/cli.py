"""Command-line front end: train / stats / render / grad-check / hist.

Exit codes: 0 success, 2 training divergence, 3 configuration error
(bad flags, unreadable files, out-of-domain parameters), 1 gradient-check
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from .errors import CanvasError, ConfigError, DomainError, FormatError, _shown
from .io_formats import (MAX_WORK, RunConfig, emit_metrics, parse_config, read_pgm,
                         read_ppm, read_tensor, write_pgm, write_ppm)
from .depth_renderer import (DEFAULT_LIGHT, MIN_SIZE, DepthMap, Pose, depth_centroid,
                             hemisphere_demo, intrinsics_from_fov, make_canvas, shade,
                             warp_image)
from .sphere_stats import evt_estimate, monte_carlo_pairwise
from .train_harness import (generate_dataset, grad_check, histogram_dump,
                            load_checkpoint, train)

_HANDLED = (OSError, ValueError)


class _Parser(argparse.ArgumentParser):
    """argparse folds usage problems into the config-error exit code, and
    reads a negative number with an exponent (-1e-05) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    result = train(cfg, args.out_dir)
    if result.reason is not None:
        print(f"training diverged: {result.reason}; last finite state saved",
              file=sys.stderr)
        return 2
    print(f"epochs {result.epochs_run}  final train accuracy "
          f"{result.final_accuracy:.4f}  metrics {result.metrics_path}")
    return 0


def _cmd_stats(args) -> int:
    if args.trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {_shown(args.trials)}")
    if args.trials > 0 and args.seed < 0:       # the seed draws the trials only
        raise ConfigError(f"--seed must be >= 0 with --trials, got {_shown(args.seed)}")
    row = evt_estimate(args.C, args.d)
    if args.trials > 0:
        row.update(monte_carlo_pairwise(args.C, args.d, args.trials, args.seed))
    for key, value in row.items():
        print(f"{key} = {value}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        emit_metrics([row], os.path.join(args.out_dir, "stats.csv"))
    return 0


def _read_depth(path) -> DepthMap:
    if path.endswith(".pgm"):
        return DepthMap.from_values(read_pgm(path))
    arr = read_tensor(path)
    if arr.ndim != 2:
        raise FormatError(f"depth tensor must be 2-D, got shape {arr.shape}")
    return DepthMap.from_values(arr.astype(np.float64))


def _write_frame(out_dir, name, image, depth_values):
    write_ppm(image, os.path.join(out_dir, f"{name}.ppm"))
    # PGM needs finite values: background pixels take the far depth
    finite = depth_values[np.isfinite(depth_values)]
    far = float(finite.max()) if finite.size else 0.0
    filled = np.where(np.isfinite(depth_values), depth_values, far)
    write_pgm(filled, os.path.join(out_dir, f"{name}.pgm"))


def _check_render_work(pixels: int, radius: int, pixel_flag: str) -> None:
    """ConfigError naming the larger factor when input pixels x (2 radius + 1)^2,
    the canvas cells the dilated scatter stamps per frame, exceed MAX_WORK."""
    cells = (2 * radius + 1) ** 2
    if pixels * cells > MAX_WORK:
        flag = "--radius" if cells > pixels else pixel_flag
        raise ConfigError(f"{flag} too large: {_shown(pixels)} input pixels x {_shown(cells)} "
                          f"dilation cells exceeds the cap of {MAX_WORK}")


def _cmd_render(args) -> int:
    if args.radius < 0:
        raise ConfigError(f"--radius must be >= 0, got {_shown(args.radius)}")
    if args.demo is not None:
        # --frames, --rotations and --size shape the demo alone
        if args.frames < 1:
            raise ConfigError(f"--frames must be at least 1, got {_shown(args.frames)}")
        if not np.all(np.abs(args.rotations) <= 360.0):      # nan fails too
            raise ConfigError(f"--rotations must be within [-360, 360] degrees, "
                              f"got {args.rotations}")
        if args.size < MIN_SIZE:
            raise ConfigError(f"--size must be >= {MIN_SIZE}, got {_shown(args.size)}")
        _check_render_work(args.size ** 2, args.radius, "--size")
        # frames are written as they are rendered, so this caps the run's
        # total output (3 axes x --frames frames), not its memory
        pixels = 3 * args.frames * args.size ** 2
        if pixels > MAX_WORK:
            flag = "--frames" if 3 * args.frames > args.size ** 2 else "--size"
            raise ConfigError(f"{flag} too large: 3 x {_shown(args.frames)} frames of "
                              f"{_shown(args.size)}^2 pixels = {_shown(pixels)} exceeds the "
                              f"cap of {MAX_WORK}")
        os.makedirs(args.out_dir, exist_ok=True)
        demo = hemisphere_demo(size=args.size, rotations=args.rotations,
                               frames_per_axis=args.frames)
        write_ppm(demo["canonical"], os.path.join(args.out_dir, "canonical.ppm"))
        write_pgm(demo["depth"].values, os.path.join(args.out_dir, "depth.pgm"))
        for name, pose in demo["poses"]:
            image = warp_image(demo["canonical"], demo["depth"], pose, demo["K"],
                               demo["canvas"], args.radius)[0]
            write_ppm(image, os.path.join(args.out_dir, f"{name}.ppm"))
        print(f"wrote {len(demo['poses'])} frames to {args.out_dir}")
        return 0

    if args.depth is None or args.albedo is None or args.pose is None:
        raise ConfigError("custom render needs --depth, --albedo, and --pose")
    depth = _read_depth(args.depth)
    albedo = read_ppm(args.albedo)
    if albedo.shape[:2] != depth.shape:
        raise DomainError(f"albedo {albedo.shape[:2]} does not match depth "
                          f"{depth.shape}")
    h, w = depth.shape
    _check_render_work(h * w, args.radius, "--depth")
    K = intrinsics_from_fov(w, h, args.fov)
    vals = args.pose
    pose = Pose(R=np.array(vals[:9]).reshape(3, 3), t=np.array(vals[9:]),
                pivot=depth_centroid(depth, K))
    source = shade(depth, albedo, DEFAULT_LIGHT, K)
    try:
        canvas = make_canvas([pose], depth, K)
    except CanvasError as exc:
        raise ConfigError(f"--pose puts the scene too near the camera or behind it, "
                          f"or --fov is too narrow for it: {exc}") from exc
    image, _, frame_depth = warp_image(source, depth, pose, K, canvas, args.radius)
    os.makedirs(args.out_dir, exist_ok=True)
    write_ppm(source, os.path.join(args.out_dir, "canonical.ppm"))
    _write_frame(args.out_dir, "frame", image, frame_depth)
    print(f"wrote frame.ppm and frame.pgm to {args.out_dir}")
    return 0


# at about 40 ms a repeat, the cap keeps a gradient check under a minute
MAX_REPEATS = 1000


def _cmd_grad_check(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {_shown(args.repeats)}")
    if args.repeats > MAX_REPEATS:
        raise ConfigError(f"--repeats must be at most {MAX_REPEATS}, got {_shown(args.repeats)}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {_shown(args.seed)}")
    rows, ok = grad_check(repeats=args.repeats, seed=args.seed, corrupt_op=args.corrupt)
    width = max(len(r["op"]) for r in rows)
    for r in rows:
        mark = "ok" if r["pass"] else "FAIL"
        print(f"{r['op']:<{width}}  max_rel_err {r['max_rel_err']:.3e}  {mark}")
    return 0 if ok else 1


def _cmd_hist(args) -> int:
    cfg = _load_config(args)
    embedder, proxies = load_checkpoint(args.checkpoint)
    if cfg.C != proxies.W.shape[0]:
        raise ConfigError(f"checkpoint has {proxies.W.shape[0]} proxies "
                          f"but the config has C = {cfg.C} classes")
    X, labels = generate_dataset(cfg)
    if X.shape[1] != embedder.shape[0]:
        raise ConfigError(f"checkpoint expects {embedder.shape[0]} input dims "
                          f"but the config generates {X.shape[1]}")
    records, summary = histogram_dump(embedder, proxies, X, labels)
    os.makedirs(args.out_dir, exist_ok=True)
    emit_metrics(records, os.path.join(args.out_dir, "hist.csv"))
    for key, value in summary.items():
        print(f"{key} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lh2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                               parser_class=_Parser)

    p = sub.add_parser("train", help="train the synthetic embedder")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("stats", help="minimum-angle and spread estimates")
    p.add_argument("--C", type=int, required=True, help="number of classes")
    p.add_argument("--d", type=int, required=True, help="feature dimension")
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo trials (0 = closed form only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", help="also write stats.csv here")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("render", help="depth-map rotation renderer")
    p.add_argument("--demo", choices=["hemisphere"],
                   help="render the built-in demo scene")
    p.add_argument("--size", type=int, default=30, help="demo grid size")
    p.add_argument("--frames", type=int, default=5, help="demo frames per axis")
    p.add_argument("--rotations", type=float, nargs=3, default=(10.0, 10.0, 10.0),
                   metavar=("AX", "AY", "AZ"), help="demo max angles, degrees")
    p.add_argument("--depth", help="depth map (.lh2t tensor or 16-bit .pgm)")
    p.add_argument("--albedo", help="albedo image (.ppm)")
    p.add_argument("--pose", type=float, nargs=12,
                   help="row-major 3x3 rotation then translation x y z")
    p.add_argument("--fov", type=float, default=40.0, help="field of view, degrees")
    p.add_argument("--radius", type=int, default=1, help="scatter dilation radius")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("grad-check", help="finite-difference gradient checks")
    p.add_argument("--seed", type=int, default=0, help="random seed of the instances")
    p.add_argument("--repeats", type=int, default=5,
                   help=f"random instances per op, at most {MAX_REPEATS}")
    p.add_argument("--corrupt", metavar="OP",
                   help="deliberately corrupt one op's gradient (detector test)")
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("hist", help="positive/negative cosine histograms")
    p.add_argument("--checkpoint", required=True,
                   help="either file of a checkpoint pair, or their stem")
    p.add_argument("--config", help="config that generated the dataset")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_hist)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"lh2: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
