"""Span tracer that wraps the public functions of the lh2 modules from
outside the package.

A function is wrapped by rebinding every ``lh2`` module attribute that
refers to it, so calls made through ``from ... import`` names (cli,
train_harness, uamf) and through module globals (``warp_image`` reaching
``scatter_min_render``) are all seen.  Each call records one span (name,
start, end, parent) in flat arrays kept in memory; ``uninstall`` puts every
rebound attribute back.  A span's self time is its duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import json
import sys
import time

# The layers: every public function of these modules is wrapped.
LAYER_MODULES = ("sphere_math", "uamf", "proxy_losses", "sphere_stats",
                 "recon_losses", "depth_renderer", "train_harness",
                 "io_formats")

# Functions reported one by one as M.F.calls and M.F.self_s.  Every layer
# module also reports M.self_s; recon_losses reports only its totals,
# M.calls and M.self_s.
REPORTED = {
    "sphere_math": ("vmf_similarity_batch", "log_bessel_i", "vmf_similarity",
                    "vmf_similarity_grad"),
    "uamf": ("uamf_loss", "update_norm_tracker"),
    "proxy_losses": ("proxy_based_total", "pps_loss", "pns_loss", "pp_loss",
                     "pp_selection", "sns_loss", "observe_positive_cosines",
                     "positive_cosines"),
    "sphere_stats": ("sns_tracker", "proxy_spread_trackers"),
    "recon_losses": (),
    "depth_renderer": ("render_hemisphere_demo", "make_canvas", "warp_image",
                       "scatter_min_render", "transform_pointcloud",
                       "project_points", "depth_to_pointcloud", "shade"),
    "train_harness": ("train", "train_accuracy", "generate_dataset",
                      "grad_check"),
    "io_formats": ("parse_config", "write_tensor", "emit_metrics", "write_ppm"),
}

# Counters measured at layer boundaries, beside the span metrics.
EXTRA_METRICS = (
    ("sphere_math.kappa_max", "1"),
    ("train_harness.steps", "count"),
    ("depth_renderer.frames_retained_mb", "MB"),
    ("io_formats.bytes_written", "bytes"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, funcs in REPORTED.items():
        for fn in funcs:
            out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
        if not funcs:
            out.append((f"{mod}.calls", "count"))
        out.append((f"{mod}.self_s", "s"))
    return out + list(EXTRA_METRICS)


def _owner(a):
    while getattr(a, "base", None) is not None:
        a = a.base
    return a


def retained_bytes(frames):
    """Bytes kept alive by the (name, image, mask) frames of a demo render,
    counting each distinct base buffer behind a crop view once."""
    owners = {}
    for _, image, mask in frames:
        for arr in (image, mask):
            base = _owner(arr)
            owners[id(base)] = base.nbytes
    return sum(owners.values())


class Tracer:
    """Records spans around every public function of the lh2 layer modules
    while installed.  Single-threaded: spans nest through one call stack."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.kappa_max = 0.0
        self.retained_bytes = 0

    # counters read from a layer's return value, after its span has closed
    def _observe_kappa(self, result):
        self.kappa_max = max(self.kappa_max, float(result[1].max()))

    def _observe_frames(self, result):
        self.retained_bytes = max(self.retained_bytes, retained_bytes(result["frames"]))

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        observe = {"sphere_math.vmf_similarity_batch": self._observe_kappa,
                   "depth_renderer.render_hemisphere_demo": self._observe_frames,
                   }.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def install(self, package="lh2"):
        """Wrap every public function defined in a layer module and rebind
        each attribute of every loaded package module that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        """Restore every rebound attribute; returns how many there were."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        restored = len(self._patches)
        self._patches = []
        return restored

    def aggregate(self):
        """Per-function {qualname: [calls, self_ns]} plus the number of
        uamf_loss calls made inside a train span (training steps)."""
        n = len(self.name_of)
        child_ns = [0] * n
        in_train = [False] * n
        train_id = self.names.index("train_harness.train")
        uamf_id = self.names.index("uamf.uamf_loss")
        stats = [[0, 0] for _ in self.names]
        steps = 0
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            dur = end[i] - start[i]
            if p >= 0:
                child_ns[p] += dur
                in_train[i] = in_train[p] or name_of[p] == train_id
        for i in range(n):
            s = stats[name_of[i]]
            s[0] += 1
            s[1] += end[i] - start[i] - child_ns[i]
            if name_of[i] == uamf_id and in_train[i]:
                steps += 1
        return {name: s for name, s in zip(self.names, stats)}, steps

    def metrics(self):
        """The span-derived per-layer metrics and the boundary counters
        this tracer owns, as {name: value}."""
        per_fn, steps = self.aggregate()
        out = {}
        for mod, funcs in REPORTED.items():
            mod_calls = mod_ns = 0
            for name, (calls, self_ns) in per_fn.items():
                if name.startswith(mod + "."):
                    mod_calls += calls
                    mod_ns += self_ns
            for fn in funcs:
                calls, self_ns = per_fn.get(f"{mod}.{fn}", (0, 0))
                out[f"{mod}.{fn}.calls"] = calls
                out[f"{mod}.{fn}.self_s"] = self_ns / 1e9
            if not funcs:
                out[f"{mod}.calls"] = mod_calls
            out[f"{mod}.self_s"] = mod_ns / 1e9
        out["sphere_math.kappa_max"] = self.kappa_max
        out["train_harness.steps"] = steps
        out["depth_renderer.frames_retained_mb"] = self.retained_bytes / 1e6
        return out

    def write_spans(self, path):
        """Write every span as gzip-compressed JSON:
        {"names": [...], "spans": [[name, start_ns, end_ns, parent], ...]}."""
        spans = [[self.name_of[i], self.start[i], self.end[i], self.parent[i]]
                 for i in range(len(self.name_of))]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans}, fh)
