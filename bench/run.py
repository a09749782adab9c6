"""Benchmark of nlca: end-to-end metrics per workload, or a layer trace.

    python3 bench/run.py                         # all workloads, a table
    python3 bench/run.py --workload reduce_deep --seed 3 --seconds 30
    python3 bench/run.py --workload cli_cold --trace 1

Run it from the root of a checkout.  Each workload runs in a fresh worker
process (`bench/worker.py`) that imports nlca from `src/` of the checkout.
With `--workload`, the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
Lines before it, starting with `env ` and `diag `, record the run
environment and diagnostics.  See bench/README.md for what each metric
means and which layer metric should move which end-to-end metric.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_cold", "identities_warm", "reduce_deep")
# set-up is measured in this many fresh interpreters per run, median taken
SETUP_SAMPLES = 7
# every run, with its set-up probes, ends within this many seconds
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}
SUFFIX_UNITS = {"_s": "s", "_share": "ratio", "_ratio": "ratio",
                "_percentile": "ratio"}


class BenchError(Exception):
    pass


def worker(args, deadline, stderr=None):
    """Run bench/worker.py in a fresh interpreter; its JSON record."""
    env = dict(os.environ)
    env.pop("NLCA_CACHE_LIMIT", None)  # measure the default memo policy
    env["PYTHONPATH"] = str(ROOT / "src")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before %s" % " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")] + args, env=env,
            cwd=str(ROOT), stdout=subprocess.PIPE, stderr=stderr,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s ran out of time" % " ".join(args))
    if proc.returncode != 0:
        raise BenchError("worker %s exited with %d"
                         % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(xs, p=0.9, tail=10):
    """Nearest-rank percentile p, lowered until at least `tail` samples
    lie above it; returns (value, percentile used)."""
    xs = sorted(xs)
    k = max(1, min(math.ceil(p * len(xs)), len(xs) - tail))
    return xs[k - 1], k / len(xs)


def commit():
    """HEAD of the checkout, or None when it is not a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              env=dict(os.environ,
                                       GIT_CEILING_DIRECTORIES=str(
                                           ROOT.parent)),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def outcome(ops):
    failed = [(label, err) for _, label, _, err in ops if err is not None]
    return {"correct": not failed, "attempted": len(ops),
            "failed": len(failed)}, failed


def measure(workload, seed, seconds, size):
    """End-to-end metrics of one workload."""
    deadline = time.monotonic() + DEADLINE_S
    load = [os.getloadavg()[0]]
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    rec = worker(base + ["--seconds", str(seconds)], deadline)
    probes = [worker(base + ["--setup-only"], deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    setups = [rec["setup_s"]] + [p["setup_s"] for p in probes]
    load.append(os.getloadavg()[0])
    ops = rec["ops"]
    times = [dt for _, _, dt, _ in ops]
    p90, pct = tail_percentile(times)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    result, failed = outcome(ops)
    env = {"workload": workload, "seed": seed, "seconds": seconds,
           "size": size, "python": platform.python_version(),
           "sympy": rec["sympy"], "ground_types": rec["ground_types"],
           "nproc": os.cpu_count(), "loadavg_start": load[0],
           "loadavg_end": load[1], "commit": commit(),
           "threads": rec["threads"],
           "NLCA_CACHE_LIMIT": rec["cache_limit"]}
    diag = {"rounds": rec["rounds"], "wall_s": rec["wall_s"],
            "cpu_s": rec["cpu_s"], "op_cpu_s": rec["op_cpu_s"],
            "op_cpu_scaled_s": sum(times), "samples": rec["samples"],
            "sample_ms_quartiles": rec["sample_ms"],
            "p90_samples": len(times), "p90_percentile": pct,
            "fail_ratio": result["failed"] / result["attempted"],
            "setup_samples_s": setups,
            "setup_rss_mb": statistics.median(p["peak_rss_mb"]
                                              for p in probes),
            "failures": failed[:5]}
    return result, values, env, diag


def trace(workload, seed, size):
    """Per-layer metrics from one traced round, and the tracing overhead:
    the traced round's operation CPU over the same round's untraced."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--rounds", "1"]
    plain = worker(base, deadline)
    traced = worker(base + ["--trace"], deadline, stderr=sys.stderr)
    values = dict(traced["layers"])
    values["cli.import_s"] = traced["import_s"]
    # unscaled operation CPU on both sides: the traced worker does not
    # sample the host's speed
    values["trace.overhead_ratio"] = traced["op_cpu_s"] / plain["op_cpu_s"]
    result, failed = outcome(plain["ops"] + traced["ops"])
    diag = {"untraced_op_cpu_s": plain["op_cpu_s"],
            "traced_op_cpu_s": traced["op_cpu_s"], "failures": failed[:5]}
    return result, values, diag


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, u in SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return u
    return "count"


def run_one(args):
    if args.trace:
        result, values, diag = trace(args.workload, args.seed, args.size)
    else:
        result, values, env, diag = measure(args.workload, args.seed,
                                            args.seconds, args.size)
        print("env " + json.dumps(env))
    print("diag " + json.dumps(diag))
    result["metrics"] = {k: {"value": v, "unit": unit(k)}
                         for k, v in values.items()}
    print(json.dumps(result))
    return result


def run_all(args):
    """Every workload in turn, printed as one table."""
    rows, ok = [], True
    for workload in WORKLOADS:
        if args.trace:
            result, values, _ = trace(workload, args.seed, args.size)
        else:
            result, values, _, diag = measure(workload, args.seed,
                                              args.seconds, args.size)
            values["p90_percentile"] = diag["p90_percentile"]
            values["fail_ratio"] = diag["fail_ratio"]
        ok = ok and result["correct"]
        for name, v in values.items():
            rows.append((workload, name, v, unit(name)))
        rows.append((workload, "attempted", result["attempted"], "count"))
    for workload, name, v, u in rows:
        print("%-16s %-28s %16.6g  %s" % (workload, name, v, u))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few operations per workload, for the "
                         "self-check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nlca" / "__init__.py").is_file():
        print("error: no src/nlca under %s" % ROOT, file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return 0 if run_all(args) else 1
        run_one(args)
    except BenchError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
