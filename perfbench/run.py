#!/usr/bin/env python3
"""The repository benchmark: builds the library, the coalesced daemon and
the benchmark program from source, then runs one workload.

  python3 perfbench/run.py --workload svc_jit_repeat --seed 1 --seconds 45 --trace 0

prints a summary to stderr and, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).

  python3 perfbench/run.py --steadiness 10 [--first-seed 1] [--seconds 45]
                           [--workload W]

runs every workload of BENCHMARK.json (or only W) once per seed and prints,
for each end-to-end metric, the median, the quartiles and their spread
against the metric's bound.

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build), and so do the run's scratch files.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, base) if not os.path.isabs(base) else base
    return base


def build():
    """Configures (once) and builds the benchmark program and the daemon;
    returns the build directory, or None when the sources are missing or do
    not build."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} not found: run from a full checkout")
            return None
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    cmd = ["cmake", "--build", out, "-j", "4", "--target", "perfbench", "coalesced"]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        return None
    return out


def run_bench(out, workload, seed, seconds, trace, extra=()):
    """Runs the benchmark program once; returns (exit code, parsed result
    or None)."""
    workdir = os.path.join(build_dir(), "run")
    os.makedirs(workdir, exist_ok=True)
    # A relative work directory keeps the daemon's socket path short.
    rel = os.path.relpath(workdir, ROOT)
    if not rel.startswith(".."):
        workdir = rel
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--daemon", os.path.join(out, "coalesce_tools", "coalesced"),
           "--workdir", workdir, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def steadiness(out, runs, first_seed, seconds, only=None):
    """The evidence that BENCHMARK.json's bounds hold: per workload (or just
    `only`), each end-to-end metric's median and quartiles over `runs`
    seeds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in spec["workloads"]:
        if only is not None and w["name"] != only:
            continue
        values = {name: [] for name in bounds}
        for seed in range(first_seed, first_seed + runs):
            code, result = run_bench(out, w["name"], seed, seconds, 0)
            if code != 0 or result is None or not result["correct"]:
                log(f"{w['name']} seed {seed}: run failed")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{w['name']}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        print(f"  {'metric':14} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread <= bounds[name] / 3 else (
                "  > bound/3" if spread <= bounds[name] else "  > BOUND")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:14} {med:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{spread:8.4f} {bounds[name]:6.3f}{flag}")
            print(f"  {'':14} runs: {' '.join(f'{v:.4g}' for v in vals)}")
        sys.stdout.flush()
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("corrupt_reference", "wrong_phase"))
    parser.add_argument("--dump-inputs")
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.workload is None and args.steadiness is None:
        parser.error("--workload or --steadiness is required")

    out = build()
    if out is None:
        return 2
    if args.steadiness:
        return steadiness(out, args.steadiness, args.first_seed, args.seconds,
                          args.workload)

    extra = []
    if args.fault:
        extra += ["--fault", args.fault]
    if args.dump_inputs:
        extra += ["--dump-inputs", os.path.abspath(args.dump_inputs)]
    code, result = run_bench(out, args.workload, args.seed, args.seconds,
                              args.trace, extra)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
