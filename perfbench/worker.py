"""One fresh workload process, started by ``run.py``.

    worker.py setup <workload> <seed> <size> <out_dir>
        Runs the CLI call up to its first shot and prints the
        ``time.monotonic()`` reading taken there, then exits.
    worker.py run <workload> <seed> <size> <out_dir> <seconds> <trace>
        Checks the kernel backends and times ``scdec.cli.main`` calls for
        about ``seconds``; with ``trace`` 1 it makes one call and then replays
        it under spans, each traced replay between two untraced ones.  Gates
        every output and prints one JSON object as its last line.

The checkout's ``src`` is put first on ``sys.path``, so the code measured is
the code in the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from spans import Tracer, layer_targets  # noqa: E402


# A traced run repeats short replays until the traced ones hold about this
# much work, at most MAX_ROUNDS times, so short calls give steady self times.
TRACED_WORK_S = 5.0
MAX_ROUNDS = 5


class _FirstShot(BaseException):
    """Unwinds the CLI at its first shot; never caught by its handlers."""


def cmd_setup(wl: workloads.Workload) -> None:
    from scdec import cli, eval as eval_mod, train

    def first_shot(*args, **kwargs):
        raise _FirstShot(time.monotonic())

    # eval.benchmark and train.train_loop draw their first shot here
    eval_mod.sample_depolarizing_bits = first_shot
    train.sample_depolarizing_bits = first_shot
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(wl.argv())
    except _FirstShot as hit:
        print(json.dumps({"first_shot": hit.args[0]}))
        return
    raise SystemExit(f"workload {wl.name} ended with code {rc} before sampling")


# ------------------------------------------------------------ backend gate --

def backend_gate(wl: workloads.Workload) -> dict:
    """Run the first chunk through both kernel backends when both import."""
    from scdec import _kernels

    record = {"backend": _kernels.BACKEND}
    try:
        from scdec._kernels import _cykernels as compiled
    except ImportError:
        record.update(cross_check="one backend, cross-check skipped", ok=True)
        return record
    mismatches = _cross_check(wl, _kernels.python_backend, compiled)
    record.update(cross_check="python vs compiled on the first chunk",
                  ok=not mismatches, mismatches=mismatches)
    return record


def _cross_check(wl, py, cy):
    import numpy as np

    from scdec import lattice, mwpm, noise, ped, train

    layout = lattice.build_layout(wl.distance)
    if wl.is_train:
        n = workloads.TRAIN_BATCH
        p = train.TrainConfig().resolved_p_train(wl.distance)
        args = (layout.n_data, p, wl.seed, noise.TRAIN_STREAM, 0, n)
    else:
        n = min(wl.shots, workloads.EVAL_CHUNK)
        args = (layout.n_data, wl.eps_list[0], wl.seed, noise.EVAL_STREAM_BASE, 0, n)
    bad = []

    def same(name, a, b):
        if not all(np.array_equal(u, v) for u, v in zip(a, b)):
            bad.append(name)

    x, z = py.sample_pauli_bits(*args)
    same("sample_pauli_bits", (x, z), cy.sample_pauli_bits(*args))
    syn = py.syndrome_bits(x, z, layout.hx, layout.hz)
    same("syndrome_bits", (syn,), (cy.syndrome_bits(x, z, layout.hx, layout.hz),))
    for table in ped.decode_tables(wl.distance):
        same("gf2_matmul", (py.gf2_matmul(syn, table),), (cy.gf2_matmul(syn, table),))
    if wl.name == "nn-fixed-d9":
        dec = wl.decoder(layout)
        q = dec.qweights
        fargs = (syn, q.w1, q.b1, q.w2, q.b2, q.wout, q.bout, q.spec.wfrac,
                 q.spec.bits, 0)
        same("fixed_forward_bits", (py.fixed_forward_bits(*fargs),),
             (cy.fixed_forward_bits(*fargs),))
    if wl.name == "mwpm-d7":
        # matching inputs come from the decoder's own distance tables
        cap = min(py.MATCH_DP_MAX, cy.MATCH_DP_MAX)
        for t, cols in zip(mwpm._tables(wl.distance),
                           (syn[:, :layout.n_anc_x], syn[:, layout.n_anc_x:])):
            for row in np.unique(cols, axis=0)[:500]:
                idx = np.flatnonzero(row)
                if 0 < len(idx) <= cap:
                    dist = t.dist[np.ix_(idx, idx)]
                    same("match_defects", (py.match_defects(dist, t.bnd[idx]),),
                         (cy.match_defects(dist, t.bnd[idx]),))
    return sorted(set(bad))


# --------------------------------------------------------------- timed run --

def cmd_run(wl: workloads.Workload, seconds: float, trace: bool) -> dict:
    from scdec import cli

    gate = backend_gate(wl)
    argv = wl.argv()
    calls = []                      # (seconds, digests, ops, weights)
    start = time.perf_counter()
    while True:
        wl.clear_outputs()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        dt = time.perf_counter() - t0
        calls.append((dt,) + (wl.read_outputs() if rc == 0 else (None, None, None)))
        if len(calls) == 1:
            # A user process makes one call.  Read after more calls, the
            # peak grew with how many of them fit in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # a traced run needs one call for the gate; the replays are its work
        if trace or time.perf_counter() - start + dt > seconds:
            break
    rates = [wl.shots_per_call / c[0] for c in calls]

    result = {"backend_gate": gate, "calls": len(calls),
              "call_seconds": [c[0] for c in calls]}
    tracer = Tracer(wl.name)
    replays = []
    if trace:
        rounds = max(1, min(MAX_ROUNDS, int(TRACED_WORK_S / calls[0][0])))
        replays, replay_seconds = traced_replays(wl, tracer, rounds)
        result["replay_seconds"] = replay_seconds
    elif wl.seed != workloads.DEFAULT_SEED:
        replays = [wl.replay(Tracer(wl.name, enabled=False))]

    # The default seed is checked against the stored reference; any other
    # seed against the replay, and then every call must write the same bytes.
    if wl.seed == workloads.DEFAULT_SEED:
        ref = workloads.load_reference(wl.size, wl.name)
        expected = (ref["digests"], ref["ops"])
    else:
        expected = (calls[0][1], replays[0][0])
    outputs = [c[1:] for c in calls]
    # the replays write no files; compare their results
    outputs += [(expected[0],) + r[:2] for r in replays]
    attempted, failed = count_failures(expected, outputs, calls[0][3])
    result.update(attempted=attempted, failed=failed,
                  correct=failed == 0 and gate["ok"])

    if not trace:
        result["metrics"] = {"shots_per_s": statistics.median(rates),
                             "peak_rss_mb": peak_rss_mb}
        return result
    spans_path = os.path.join(wl.out_dir, "spans.jsonl")
    tracer.write(spans_path)
    result["spans_file"] = os.path.relpath(spans_path, ROOT)
    result["metrics"] = layer_metrics(wl, tracer, replays[1][2], replay_seconds,
                                      rounds)
    return result


def traced_replays(wl: workloads.Workload, tracer: Tracer, rounds: int):
    """Replay one call ``rounds`` times traced, each between two untraced.

    Returns every replay's result and wall time, untraced first and last.
    The untraced pair around each traced replay is its overhead base;
    averaging the pair cancels a steady drift in host speed.
    """
    replays, seconds = [], []
    for traced in [False] + [True, False] * rounds:
        t = tracer if traced else Tracer(wl.name, enabled=False)
        t0 = time.perf_counter()
        with t.patched(layer_targets()):
            replays.append(wl.replay(t))
        seconds.append(time.perf_counter() - t0)
    return replays, seconds


def count_failures(expected, outputs, final_weights):
    """(attempted, failed) operations over ``outputs`` of (digests, ops, weights).

    Output files that differ from ``expected`` fail every operation of their
    call; otherwise each differing result fails.  A training run whose final
    weights differ from ``final_weights`` (the first call's) fails one more.
    """
    digests, ops = expected
    attempted = failed = 0
    for got_digests, got_ops, weights in outputs:
        attempted += len(ops)
        if got_digests != digests or got_ops is None or len(got_ops) != len(ops):
            failed += len(ops)
            continue
        failed += sum(a != b for a, b in zip(got_ops, ops))
        if final_weights is not None and weights != final_weights:
            failed += 1
    return attempted, failed


def layer_metrics(wl, tracer, syndromes, replay_seconds, rounds) -> dict:
    """Per-layer figures of the traced replays; 0 where a layer did not run.

    ``syndromes`` are one replay's; ``replay_seconds`` alternate untraced and
    traced wall times, untraced first and last.
    """
    own = {k: v / rounds for k, v in tracer.self_ns().items()}
    shots = wl.shots_per_call

    def per_shot(name):
        return own.get(name, 0) / shots

    lookups, new = wl.mwpm_key_counts(syndromes) if syndromes else (0, 0)
    steps = wl.batches[0] if wl.is_train else 0
    overhead = statistics.median(
        2 * replay_seconds[i] / (replay_seconds[i - 1] + replay_seconds[i + 1]) - 1
        for i in range(1, len(replay_seconds), 2))
    return {
        "noise.sample_ns_per_shot": per_shot("noise.sample"),
        "noise.syndrome_ns_per_shot": per_shot("noise.syndrome"),
        "lattice.cut_ns_per_shot": per_shot("lattice.cut"),
        "ped.cut_ns_per_shot": per_shot("ped.cut"),
        "mwpm.decode_ns_per_shot": per_shot("mwpm.decode"),
        "mwpm.ns_per_new_key": own.get("mwpm.decode", 0) / new if new else 0.0,
        "mwpm.key_lookups": lookups,
        "mwpm.new_keys": new,
        "mwpm.hit_ratio": 1.0 - new / lookups if lookups else 0.0,
        "nn.fixed_ns_per_shot": per_shot("nn.fixed"),
        "train.target_ns_per_shot": per_shot("train.target"),
        "train.loss_grad_ns_per_shot": per_shot("train.loss_grad"),
        "train.adam_ns_per_step": own.get("train.adam", 0) / steps if steps else 0.0,
        "trace.overhead_frac": overhead,
    }


def main(argv) -> None:
    mode, name, seed, size, out_dir = argv[:5]
    wl = workloads.Workload(name, int(seed), size, out_dir)
    if mode == "setup":
        cmd_setup(wl)
        return
    seconds, trace = argv[5:7]
    print(json.dumps(cmd_run(wl, float(seconds), trace == "1")))


if __name__ == "__main__":
    main(sys.argv[1:])
