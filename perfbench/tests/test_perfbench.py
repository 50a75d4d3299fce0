"""Tests of the benchmark itself: span attribution, attribute restoration,
and that every correctness check rejects a corrupted output.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import functools
import json
import os
import subprocess
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import lh2.cli  # noqa: E402  (imports every layer module)
from lh2 import depth_renderer, proxy_losses  # noqa: E402
from lh2.uamf import EmbeddingBatch, ProxyMatrix  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, per_layer_metric_names  # noqa: E402

DELAY_S = 0.05


def _slowed(fn):
    @functools.wraps(fn)        # keeps __module__, so the tracer wraps it
    def slow(*args, **kwargs):
        time.sleep(DELAY_S)
        return fn(*args, **kwargs)
    return slow


def _spans(tracer, name):
    nid = tracer.names.index(name)
    return [i for i in range(len(tracer.name_of)) if tracer.name_of[i] == nid]


def _self_and_total(tracer, name):
    per_fn, _ = tracer.aggregate()
    total = sum(tracer.end[i] - tracer.start[i] for i in _spans(tracer, name))
    return per_fn[name][1] / 1e9, total / 1e9


def test_self_time_goes_to_the_callee(monkeypatch):
    monkeypatch.setattr(depth_renderer, "scatter_min_render",
                        _slowed(depth_renderer.scatter_min_render))
    monkeypatch.setattr(proxy_losses, "pps_loss", _slowed(proxy_losses.pps_loss))
    tracer = Tracer()
    tracer.install()
    try:
        depth, albedo, K, light = depth_renderer.hemisphere_scene(16)
        pose = depth_renderer.Pose(R=depth_renderer.rotation_about_axis(0, 5.0),
                                   t=np.zeros(3), pivot=depth_renderer.depth_centroid(depth, K))
        canvas = depth_renderer.make_canvas([pose], depth, K)
        depth_renderer.warp_image(depth_renderer.shade(depth, albedo, light, K),
                                  depth, pose, K, canvas)
        rng = np.random.default_rng(0)
        batch = EmbeddingBatch(rng.standard_normal((6, 4)), np.arange(6) % 3)
        proxies = ProxyMatrix.from_rows(rng.standard_normal((3, 4)))
        cfg = proxy_losses.ProxyLossConfig()
        proxy_losses.proxy_based_total(batch, proxies, proxy_losses.EpochMidState(mid=0.5),
                                       cfg, rng)
    finally:
        tracer.uninstall()

    for caller, callee in (("depth_renderer.warp_image", "depth_renderer.scatter_min_render"),
                           ("proxy_losses.proxy_based_total", "proxy_losses.pps_loss")):
        callee_self, callee_total = _self_and_total(tracer, callee)
        caller_self, caller_total = _self_and_total(tracer, caller)
        [span] = _spans(tracer, callee)
        assert tracer.names[tracer.name_of[tracer.parent[span]]] == caller
        assert callee_self >= DELAY_S
        assert caller_total >= callee_total
        assert caller_self <= caller_total - DELAY_S


def test_uninstall_restores_every_attribute():
    modules = {n: m for n, m in sys.modules.items() if n == "lh2" or n.startswith("lh2.")}
    before = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    try:
        # names bound by from-import are rebound to the same wrapper
        assert lh2.cli.train is lh2.train_harness.train
        assert lh2.cli.train is not before[("lh2.train_harness", "train")]
        assert lh2.train_harness.uamf_loss is lh2.uamf.uamf_loss
        assert lh2.train_harness.uamf_loss.__wrapped__ is before[("lh2.uamf", "uamf_loss")]
    finally:
        restored = tracer.uninstall()
    after = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    assert restored > 0
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == per_layer_metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END_UNITS.items())


def test_corrupted_gradient_exits_1_and_counts_as_failure():
    good = dataclasses.replace(workloads.WORKLOADS["gradcheck"], probes_per_rep=0,
                               argv=("grad-check", "--seed", "{seed}", "--repeats", "1"))
    bad = dataclasses.replace(good, argv=good.argv + ("--corrupt", "uamf_loss"))
    for workload, want_failed in ((good, 0), (bad, 2)):
        runner = run.Runner(ROOT, workload, seed=0)
        try:
            attempted, failed, samples, _ = run.measure(runner, seconds=0, trace=0)
        finally:
            runner.close()
        assert (attempted, failed) == (2, want_failed)
        assert len(samples["wall_s"]) == 2


class _CannedRunner:
    """Stands in for run.Runner: calibrations take 2x the reference time."""

    def __init__(self, workload):
        self.workload = workload

    def launch(self, mode):
        if mode == "calibrate":
            return {"calibration_s": 2 * run.CALIBRATION_REFERENCE_S}, []
        result = {"setup_s": 0.4}
        if mode == "run":
            result.update(rc=0, wall_s=3.0, peak_rss_mb=50.0)
        return result, []


def test_times_are_scaled_by_the_calibrations_around_them():
    workload = dataclasses.replace(workloads.WORKLOADS["gradcheck"], probes_per_rep=1)
    attempted, failed, samples, _ = run.measure(_CannedRunner(workload), seconds=0, trace=0)
    assert (attempted, failed) == (2, 0)
    assert samples["wall_s"] == [1.5, 1.5]
    assert samples["setup_s"] == [0.2] * 4
    assert samples["throughput_per_s"] == [workload.work / 1.5] * 2
    assert samples["peak_rss_mb"] == [50.0, 50.0]
    assert samples["raw"]["calibration_s"] == [2 * run.CALIBRATION_REFERENCE_S] * 3


def _write_metrics(out_dir, losses):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("step,loss_total\n")
        fh.writelines(f"{i + 1},{x!r}\n" for i, x in enumerate(losses))


def test_train_checks_reject_corrupted_outputs(tmp_path):
    ref = workloads._load_reference("train.json")
    out = str(tmp_path / "desk")
    stdout = "epochs 20  final train accuracy 1.0000  metrics x\n"
    losses = [5.0] * 4999 + [ref["train_desk"]["last_loss"]]
    check = workloads.check_train_desk
    _write_metrics(out, losses)
    assert check(0, 0, stdout, out) == []
    assert check(0, 0, stdout.replace("1.0000", "0.9900"), out)
    assert check(0, 1, stdout, out)
    _write_metrics(out, losses[:-1] + [losses[-1] * 1.001])
    assert check(0, 0, stdout, out)
    assert check(3, 0, stdout, out) == []          # other seeds: properties only
    _write_metrics(out, losses[:-1] + [float("nan")])
    assert check(3, 0, stdout, out)

    out = str(tmp_path / "highkappa")
    first = ref["train_highkappa"]["first_losses"]
    stdout = "epochs 1  final train accuracy 0.9496  metrics x\n"
    check = workloads.check_train_highkappa
    _write_metrics(out, first + [50.0] * (250 - len(first)))
    assert check(0, 0, stdout, out) == []
    assert check(0, 0, stdout.replace("0.9496", "0.1000"), out)
    _write_metrics(out, [first[0] * 1.001] + first[1:] + [50.0] * (250 - len(first)))
    assert check(0, 0, stdout, out)
    _write_metrics(out, first + [50.0] * (249 - len(first)))
    assert check(0, 0, stdout, out)


def _write_ppm(path, image):
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii") + image.tobytes())


def test_render_check_rejects_corrupted_outputs(tmp_path):
    reference = workloads.render_reference()
    for name, image in reference.items():
        _write_ppm(tmp_path / f"{name}.ppm", image)
    frames = len(reference) - 1
    stdout = f"wrote {frames} frames to x\n"
    check = workloads.check_render_sweep
    assert frames == 3 * workloads.RENDER_FRAMES_PER_AXIS
    assert check(0, 0, stdout, str(tmp_path)) == []

    name = sorted(reference)[1]
    image = reference[name].copy()
    image[100, 100, 0] ^= 1
    _write_ppm(tmp_path / f"{name}.ppm", image)
    assert check(0, 0, stdout, str(tmp_path)) == []    # one level is allowed
    image[100, 100, 0] = reference[name][100, 100, 0] ^ 0x80
    _write_ppm(tmp_path / f"{name}.ppm", image)
    assert check(0, 0, stdout, str(tmp_path))
    _write_ppm(tmp_path / f"{name}.ppm", reference[name])
    os.remove(tmp_path / f"{sorted(reference)[-1]}.ppm")
    assert check(0, 0, stdout, str(tmp_path))


def test_gradcheck_check_rejects_a_failed_op(capsys):
    assert lh2.cli.main(["grad-check", "--repeats", "1"]) == 0
    stdout = capsys.readouterr().out
    assert workloads.check_gradcheck(0, 0, stdout, None) == []
    assert workloads.check_gradcheck(0, 0, stdout.replace(" ok", " FAIL", 1), None)
    assert workloads.check_gradcheck(0, 0, "\n".join(stdout.splitlines()[1:]), None)


def test_run_exits_nonzero_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", "gradcheck", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
