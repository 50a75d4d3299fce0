"""Benchmark command for lh2.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of an lh2 checkout: lh2 is imported from ./src, so
nothing is built or installed.  Every measured run is a fresh process
(perfbench/worker.py) that enters the package through lh2.cli.main with
BLAS and OpenMP pinned to one thread.  The processes of one invocation go
round robin: a calibration, the set-up probes and a measured run
(--trace 0), or an untraced and a traced run (--trace 1), repeat until
--seconds is used up, with at least MIN_CYCLES cycles.  Every run's outputs
are checked; a run that fails its check counts in "failed".

--trace 0 reports the end-to-end metrics, each the median over the runs:
  setup_s           launch of the process until cli.main is entered; the
                    set-up probes stop there, so there are several per run
  wall_s            time inside cli.main
  throughput_per_s  work units (samples, frames, op-instances) per wall_s
  peak_rss_mb       peak resident set of the workload process
The two times are scaled to the host's reference speed.  On a shared host
the same process runs 30-50% slower for minutes at a time, so a
calibration process, which times fixed numpy work and never imports lh2,
runs before every measured run and after the last; each time is multiplied
by CALIBRATION_REFERENCE_S over the mean of the calibrations around it.
The unscaled times and the calibrations are kept in the full record.
--trace 1 reports the per-layer metrics of perfbench/tracer.py, each the
median over the traced runs, and trace.overhead_s, the median traced wall_s
minus the median untraced wall_s of the same invocation.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A fuller record, with every sample and a host block,
goes to .perfbench_runs/results/.  The seed goes to lh2 as --seed;
render_sweep has no random input, so its seed is recorded but unused.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from tracer import per_layer_metric_names
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# one BLAS/OpenMP thread: a second one only spins on two cores; a fixed
# hash seed keeps every workload process alike
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
MIN_CYCLES = {0: 2, 1: 1}
# no new cycle starts if it would end after HARD_CAP_S, and a process still
# running DEADLINE_S after the start is killed and counted as failed
HARD_CAP_S = 150.0
DEADLINE_S = 170.0
# calibration_kernel time on the reference host (2 cores, Python 3.11,
# numpy 2.4 with OpenBLAS); end-to-end times are reported at this speed
CALIBRATION_REFERENCE_S = 0.25
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def _git_commit(root):
    """The checkout's commit read from .git, or None outside a git clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_block(root):
    pkg = os.path.join(root, "src", "lh2")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "worker_env": WORKER_ENV,
            "lh2_commit": _git_commit(root), "lh2_source_sha256": digest.hexdigest()}


class Runner:
    """Launches workload processes under one working directory."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.base = os.path.join(root, ".perfbench_runs")
        self.work_dir = os.path.join(self.base, f"{workload.name}-{os.getpid()}")
        self.count = 0
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **WORKER_ENV)
        self.env.pop("PYTHONPATH", None)

    def launch(self, mode):
        """Run one process; returns (result dict or None, failures)."""
        self.count += 1
        run_dir = os.path.join(self.work_dir, f"{self.count:04d}-{mode}")
        os.makedirs(run_dir)
        spec = {"root": self.root, "run_dir": run_dir, "mode": mode,
                "argv": self.workload.lh2_argv(self.seed),
                "config": self.workload.config,
                "spans_path": os.path.join(
                    self.base, "spans", f"{self.workload.name}-seed{self.seed}.json.gz")}
        if mode == "trace":
            os.makedirs(os.path.dirname(spec["spans_path"]), exist_ok=True)
        out_path = os.path.join(run_dir, "stdout.txt")
        err_path = os.path.join(run_dir, "stderr.txt")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            spec["launch_ns"] = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
        try:
            with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = None
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        if code != 0 or result is None:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            failures = [f"worker exit {code}: {tail}"]
        elif mode in ("probe", "calibrate"):
            failures = []
        else:
            failures = self.workload.check(self.seed, result["rc"], stdout,
                                           os.path.join(run_dir, "out"))
            if mode == "trace" and result["restored"] == 0:
                failures.append("tracer rebound no attribute")
        shutil.rmtree(run_dir)
        return result, failures

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


def measure(runner, seconds, trace):
    """Round-robin cycles until the time is used; returns
    (attempted, failed, {sample name: [values]}, {layer metric: [values]}).

    Untraced, a cycle is one calibration, the set-up probes and one measured
    run, and one more calibration closes the last cycle.  The times of a
    cycle are scaled by CALIBRATION_REFERENCE_S over the mean of the two
    calibrations around it.  Traced, a cycle is one untraced and one traced
    run, and nothing is scaled."""
    workload = runner.workload
    if trace:
        cycle = ["run", "trace"]
    else:
        cycle = ["calibrate"] + ["probe"] * workload.probes_per_rep + ["run"]
    raw = {"calibration_s": [], "setup_s": [], "wall_s": [], "peak_rss_mb": []}
    setup_cycle, run_cycle = [], []
    traced_wall, layers = [], {}
    attempted = failed = cycles = 0

    def launch(mode):
        nonlocal attempted, failed
        result, failures = runner.launch(mode)
        if mode in ("run", "trace"):
            attempted += 1
            failed += bool(failures)
        if failures:
            print(f"{workload.name} {mode} failed: {'; '.join(failures)}", file=sys.stderr)
        if result is None and mode in ("probe", "calibrate"):
            raise SystemExit(f"{mode} process failed; nothing can be measured")
        return result

    t0 = time.monotonic()
    while True:
        for mode in cycle:
            result = launch(mode)
            if result is None:
                continue
            if mode == "calibrate":
                raw["calibration_s"].append(result["calibration_s"])
                continue
            if mode in ("probe", "run"):
                raw["setup_s"].append(result["setup_s"])
                setup_cycle.append(cycles)
            if mode == "run":
                raw["wall_s"].append(result["wall_s"])
                raw["peak_rss_mb"].append(result["peak_rss_mb"])
                run_cycle.append(cycles)
            elif mode == "trace":
                traced_wall.append(result["wall_s"])
                for name, value in result["layers"].items():
                    layers.setdefault(name, []).append(value)
        cycles += 1
        elapsed = time.monotonic() - t0
        next_end = elapsed * (cycles + 1) / cycles
        if next_end > HARD_CAP_S or (cycles >= MIN_CYCLES[trace] and next_end > seconds):
            break

    if trace:
        if traced_wall and raw["wall_s"]:
            layers["trace.overhead_s"] = [statistics.median(traced_wall)
                                          - statistics.median(raw["wall_s"])]
        return attempted, failed, raw, layers

    raw["calibration_s"].append(launch("calibrate")["calibration_s"])
    cal = raw["calibration_s"]
    scale = [2 * CALIBRATION_REFERENCE_S / (cal[c] + cal[c + 1]) for c in range(cycles)]
    wall = [w * scale[c] for w, c in zip(raw["wall_s"], run_cycle)]
    samples = {"setup_s": [v * scale[c] for v, c in zip(raw["setup_s"], setup_cycle)],
               "wall_s": wall,
               "throughput_per_s": [workload.work / w for w in wall],
               "peak_rss_mb": raw["peak_rss_mb"]}
    return attempted, failed, dict(samples, raw=raw), layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lh2", "cli.py")):
        print(f"perfbench: {root} holds no lh2 sources (src/lh2/cli.py); "
              "run from the root of an lh2 checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runner = Runner(root, workload, args.seed)
    try:
        attempted, failed, samples, layers = measure(runner, args.seconds, args.trace)
    finally:
        runner.close()

    if args.trace:
        names = per_layer_metric_names()
    else:
        names = list(END_TO_END_UNITS.items())
    source = layers if args.trace else samples
    missing = [n for n, _ in names if not source.get(n)]
    if missing:
        print(f"perfbench: no successful run measured {', '.join(missing)}",
              file=sys.stderr)
        return 1
    metrics = {n: {"value": statistics.median(source[n]), "unit": u} for n, u in names}

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_block(root),
              "work_per_run": f"{workload.work} {workload.work_unit}",
              "samples": source, "metrics": metrics,
              "attempted": attempted, "failed": failed}
    results = os.path.join(root, ".perfbench_runs", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    unscaled = {} if args.trace else samples["raw"]
    for name, m in metrics.items():
        note = f"median of {len(source[name])}"
        if name in ("setup_s", "wall_s"):
            note += f"; unscaled {statistics.median(unscaled[name]):.6g} s"
        print(f"{name} = {m['value']:.6g} {m['unit']}  ({note})")
    print("host = " + json.dumps(record["host"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
