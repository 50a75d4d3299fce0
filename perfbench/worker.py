"""One workload process: import lh2, write the inputs, call lh2.cli.main.

Run by run.py as ``python3 worker.py SPEC_JSON``, with the spec holding:

  launch_ns   time.monotonic_ns() taken by the parent just before launch
  root        checkout root; lh2 is imported from root/src
  run_dir     directory for the inputs, the outputs and result.json
  argv        arguments for lh2.cli.main; "{run_dir}" is substituted
  config      text of the config file to write as run_dir/run.cfg, or null
  mode        "probe" (stop where cli.main would be entered), "run", "trace"
              or "calibrate" (time calibration_kernel without importing lh2)
  spans_path  where a traced run writes its spans

setup_s runs from launch until cli.main is entered: interpreter start,
``import lh2.cli`` and writing the config file.  wall_s is the time inside
cli.main.  The result goes to run_dir/result.json; cli.main's own output
goes to this process's stdout, which the parent captures.
"""

import json
import os
import resource
import sys
import time


def _dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def calibration_kernel():
    """Seconds taken by fixed numpy work that never changes: small-array
    dispatch like a training step, then whole-canvas passes like the
    renderer.  Its time tracks how fast the host runs at the moment."""
    import numpy as np
    rng = np.random.default_rng(0)
    z = rng.standard_normal((128, 32))
    w = rng.standard_normal((64, 32))
    t0 = time.perf_counter()
    for _ in range(200):
        s = z @ w.T
        e = np.exp(s - s.max(axis=1, keepdims=True))
        (e / e.sum(axis=1, keepdims=True)).T @ z
    for _ in range(4):
        jj, ii = np.meshgrid(np.arange(640), np.arange(640))
        back = np.stack([jj * 0.5, ii * 0.5, jj + ii + 1.0], axis=-1) @ np.eye(3)
        out = np.zeros((640, 640, 3))
        keep = back[..., 2] > 3.0
        out[keep] = back[keep]
    return time.perf_counter() - t0


def main(spec):
    if spec["mode"] == "calibrate":
        os.makedirs(spec["run_dir"], exist_ok=True)
        with open(os.path.join(spec["run_dir"], "result.json"), "w", encoding="utf-8") as fh:
            json.dump({"calibration_s": calibration_kernel()}, fh)
        return
    t_import = time.monotonic_ns()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import lh2.cli
    import_s = (time.monotonic_ns() - t_import) / 1e9
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(lh2.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"lh2 imported from {lh2.cli.__file__}, not {src}")

    run_dir = spec["run_dir"]
    os.makedirs(run_dir, exist_ok=True)
    if spec["config"] is not None:
        with open(os.path.join(run_dir, "run.cfg"), "w", encoding="utf-8") as fh:
            fh.write(spec["config"])
    argv = [a.replace("{run_dir}", run_dir) for a in spec["argv"]]

    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    t_enter = time.monotonic_ns()
    result = {"setup_s": (t_enter - spec["launch_ns"]) / 1e9}
    if spec["mode"] != "probe":
        result["rc"] = lh2.cli.main(argv)
        result["wall_s"] = (time.monotonic_ns() - t_enter) / 1e9
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        result["restored"] = tracer.uninstall()
        layers = tracer.metrics()
        layers["io_formats.bytes_written"] = _dir_bytes(os.path.join(run_dir, "out"))
        layers["cli.import_s"] = import_s
        result["layers"] = layers
        tracer.write_spans(spec["spans_path"])
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
