"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--seeds 0-9] [--workloads a,b] [--seconds S]
                                [--out FILE] [--compare FILE]

Runs perfbench/run.py once per (seed, workload), seed by seed, so that the
workloads alternate instead of running in blocks, and prints for each
end-to-end metric its median over the seeds and the spread between its
first and third quartiles as a share of that median, beside the bound in
BENCHMARK.json; also for setup_s and wall_s before run.py scales them to
the reference speed.  --compare prints how far each median moved against
an earlier --out file, in the direction that counts as worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# times also shown before run.py scales them to the reference speed
UNSCALED = ("setup_s", "wall_s")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads")
    parser.add_argument("--seconds")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or str(bench["run_seconds"])

    values = {w: {m: [] for m in metrics} for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(lines[-1])
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            record = os.path.join(".perfbench_runs", "results", f"{w}-seed{seed}-trace0.json")
            with open(record, encoding="utf-8") as fh:
                raw = json.load(fh)["samples"]["raw"]
            for name in UNSCALED:
                values[w].setdefault("unscaled_" + name, []).append(statistics.median(raw[name]))

    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)
    metrics.update({"unscaled_" + n: dict(metrics[n], name="unscaled_" + n) for n in UNSCALED})
    for w in workloads:
        for name, spec in metrics.items():
            vals = values[w][name]
            med = statistics.median(vals)
            line = f"{w:16s} {name:24s} median {med:10.4g}"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f"  spread {(q3 - q1) / med:6.3f} of bound {spec['bound']}"
            if earlier is not None:
                old = statistics.median(earlier[w][name])
                worse = med / old - 1 if spec["better"] == "lower" else old / med - 1
                line += f"  worse by {worse:+.3f}"
            print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1)


if __name__ == "__main__":
    main()
