#!/usr/bin/env python3
"""Decoder-pipeline benchmark for scdec.

    python3 perfbench/run.py --workload mwpm-d7 [--seed 1] [--seconds 30] [--trace 0|1]

Run from the root of a checkout; the code measured is the checkout's
``src/scdec``.  With ``--trace 0`` it measures set-up time over several
fresh processes, then throughput and peak memory of one fresh workload
process that times ``scdec.cli.main`` calls for ``--seconds``.  With
``--trace 1`` the workload process also replays one call through the public
layer functions under spans and reports per-layer figures.  Outputs are
checked against ``perfbench/reference.json`` (default seed) or against the
replay (any other seed).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TIME_LIMIT_S = 175.0

UNITS = {
    # end to end (--trace 0)
    "shots_per_s": "shots/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    # per layer (--trace 1)
    "noise.sample_ns_per_shot": "ns/shot",
    "noise.syndrome_ns_per_shot": "ns/shot",
    "lattice.cut_ns_per_shot": "ns/shot",
    "ped.cut_ns_per_shot": "ns/shot",
    "mwpm.decode_ns_per_shot": "ns/shot",
    "mwpm.ns_per_new_key": "ns/key",
    "mwpm.key_lookups": "count",
    "mwpm.new_keys": "count",
    "mwpm.hit_ratio": "ratio",
    "nn.fixed_ns_per_shot": "ns/shot",
    "train.target_ns_per_shot": "ns/shot",
    "train.loss_grad_ns_per_shot": "ns/shot",
    "train.adam_ns_per_step": "ns/step",
    "trace.overhead_frac": "ratio",
}


def child_env() -> dict:
    """Environment of the workload processes: BLAS and OpenMP pools capped at
    the CPUs this process may use, so the load is one process of at most
    ``nproc`` threads."""
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = nproc
    return env


def run_child(args, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(wl, env, deadline) -> float:
    """Seconds from spawning a fresh process to the CLI's first shot."""
    t0 = time.monotonic()
    hit = run_child(["setup", wl.name, wl.seed, wl.size, wl.out_dir], env, deadline)
    return hit["first_shot"] - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def provenance(args, env, gate) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = {}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        **versions,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: env[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernel_backend": gate["backend"], "backend_cross_check": gate["cross_check"],
        "git_commit": git_commit(),
    }


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="run length per call; 'tiny' is for the tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "scdec", "cli.py")):
        print(f"perfbench: no scdec sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    args = parse_args(argv)
    out_dir = os.path.join(HERE, "out",
                           f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
    wl = workloads.Workload(args.workload, args.seed, args.size, out_dir)
    wl.prepare()
    env = child_env()

    try:
        setups = []
        if not args.trace:
            reps = workloads.SIZES[args.size]["setup_reps"]
            setups = [measure_setup(wl, env, deadline) for _ in range(reps)]
        res = run_child(["run", wl.name, wl.seed, wl.size, wl.out_dir,
                         args.seconds, args.trace], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    values = dict(res["metrics"])
    if setups:
        values["setup_s"] = statistics.median(setups)
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    record = {"provenance": provenance(args, env, res["backend_gate"]),
              "backend_gate": res["backend_gate"], "calls": res["calls"],
              "call_seconds": res["call_seconds"], "setup_samples_s": setups,
              "replay_seconds": res.get("replay_seconds"),
              "spans_file": res.get("spans_file")}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({**record, "metrics": metrics, "correct": res["correct"],
                   "attempted": res["attempted"], "failed": res["failed"]}, fh, indent=1)
    print("perfbench: " + json.dumps(record))
    if res["backend_gate"]["cross_check"].startswith("one backend"):
        print("perfbench: one backend, cross-check skipped")
    for name, m in metrics.items():
        print(f"perfbench: {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
