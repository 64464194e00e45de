"""The benchmark workloads: CLI invocations, output parsing and replay.

Every workload is one ``scdec`` CLI call, timed in-process through
``scdec.cli.main(argv)``.  Its *operations* are the units the output gate
checks: one epsilon point of an eval curve, or one logged block of a training
run.  ``replay`` recomputes the same operations through the library's public
functions, chunked and streamed exactly as ``scdec.eval.benchmark`` and
``scdec.train.train_loop`` do, so that a :class:`spans.Tracer` can time each
layer from outside.

This module imports ``scdec`` lazily: ``src`` must be on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
EVAL_CHUNK = 1 << 16        # shots per chunk in scdec.eval.benchmark
D7_EPS = (0.04, 0.06, 0.08, 0.10, 0.12)
NN_BITS = 5
TRAIN_BATCH = 4992

# Run length per call.  "full" is what the benchmark times; "tiny" exists for
# the benchmark's own tests and has its own stored reference.
SIZES = {
    "full": {"mwpm-d7": 8192, "nn-fixed-d9": 65536, "train-d5": (50, 10),
             "setup_reps": 5},
    "tiny": {"mwpm-d7": 64, "nn-fixed-d9": 512, "train-d5": (4, 2),
             "setup_reps": 1},
}

NAMES = ("mwpm-d7", "nn-fixed-d9", "train-d5")


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: str
    out_dir: str        # per-run scratch directory inside the checkout

    @property
    def is_train(self) -> bool:
        return self.name == "train-d5"

    @property
    def distance(self) -> int:
        return {"mwpm-d7": 7, "nn-fixed-d9": 9, "train-d5": 5}[self.name]

    @property
    def shots(self) -> int:
        """Shots per ε point (eval workloads)."""
        return SIZES[self.size][self.name]

    @property
    def batches(self):
        """(n_batches, log_every) of the training workload."""
        return SIZES[self.size][self.name]

    @property
    def eps_list(self):
        from scdec import eval as eval_mod

        if self.name == "mwpm-d7":
            return list(D7_EPS)
        return eval_mod.default_eps_grid()

    @property
    def shots_per_call(self) -> int:
        if self.is_train:
            return self.batches[0] * TRAIN_BATCH
        return self.shots * len(self.eps_list)

    @property
    def checkpoint(self) -> str:
        return os.path.join(self.out_dir, "net-d9.json")

    @property
    def outputs(self):
        """Files a call writes, in digest order."""
        if self.is_train:
            return [os.path.join(self.out_dir, "train", "checkpoint.json"),
                    os.path.join(self.out_dir, "train", "curve.csv")]
        return [os.path.join(self.out_dir, "curve.csv")]

    # ------------------------------------------------------------ inputs --

    def prepare(self) -> None:
        """Write the workload's inputs; not part of the timed set-up."""
        os.makedirs(self.out_dir, exist_ok=True)
        if self.name == "nn-fixed-d9":
            from scdec import train
            from scdec.nn import save_checkpoint

            cfg = self.net_config()
            save_checkpoint(self.checkpoint, cfg,
                            weights=train.init_weights(cfg, self.seed))

    def net_config(self):
        from scdec.nn import NetworkConfig

        return NetworkConfig(self.distance, 16, 4, "sqnl", True)

    def argv(self):
        seed = ["--set", f"seed={self.seed}"]
        if self.is_train:
            n_batches, log_every = self.batches
            keys = {"distance": 5, "n1": 16, "n2": 4, "transfer": "sqnl",
                    "rotated": "true", "reg_scale": 1.0, "reg_bits": 8,
                    "batch_size": TRAIN_BATCH, "n_batches": n_batches,
                    "log_every": log_every}
            sets = [a for k, v in keys.items() for a in ("--set", f"{k}={v}")]
            return (["train"] + sets + seed
                    + ["--out", os.path.dirname(self.outputs[0])])
        shots = ["--set", f"shots={self.shots}"]
        out = ["--out", self.outputs[0]]
        if self.name == "nn-fixed-d9":
            return (["eval", "--checkpoint", self.checkpoint,
                     "--set", f"bits={NN_BITS}"] + shots + seed + out)
        return (["eval", "--decoder", "mwpm", "-d", str(self.distance),
                 "--set", "eps_list=" + ",".join(f"{e:.2f}" for e in D7_EPS)]
                + shots + seed + out)

    # ----------------------------------------------------------- outputs --

    def clear_outputs(self) -> None:
        """Remove the files a call writes, so a check never reads stale ones."""
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)

    def read_outputs(self):
        """(digests, ops, final_weights) of the files the last call wrote.

        ``ops`` holds one entry per operation: ``[eps_p, failures]`` per
        curve point, or ``[ler, loss]`` per logged training block.  All three
        are None when a file is missing.
        """
        if not all(os.path.exists(p) for p in self.outputs):
            return None, None, None
        digests = [sha256(p) for p in self.outputs]
        if self.is_train:
            from scdec.nn import load_checkpoint

            with open(self.outputs[1]) as fh:
                rows = [line.strip().split(",") for line in fh
                        if line.strip() and line[0].isdigit()]
            ops = [[float(r[3]), float(r[4])] for r in rows]
            _, weights, _ = load_checkpoint(self.outputs[0])
            return digests, ops, _arrays(weights)
        from scdec import eval as eval_mod

        points, _, _ = eval_mod.read_points_csv(self.outputs[0])
        ops = [[p.eps_p, int(round(p.eps_l * p.shots))] for p in points]
        return digests, ops, None

    # ------------------------------------------------------------ replay --

    def replay(self, tracer):
        """Recompute every operation of one call through public functions.

        Returns ``(ops, final_weights, syndromes)``; ``syndromes`` holds each
        65,536-shot chunk of the MWPM workloads for the key counts, which are
        made after the replay so they cost no traced time.
        """
        if self.is_train:
            return self._replay_train(tracer)
        return self._replay_eval(tracer)

    def decoder(self, layout):
        """The classifier the CLI builds for this workload."""
        from scdec import eval as eval_mod

        if self.name != "nn-fixed-d9":
            return eval_mod.MwpmBenchmarkDecoder(layout)
        from scdec import train
        from scdec.nn import QuantSpec, load_checkpoint, quantize_weights

        net_cfg, weights, _ = load_checkpoint(self.checkpoint)
        qweights = quantize_weights(train.expand_rotated(net_cfg, weights),
                                    QuantSpec(NN_BITS))
        return eval_mod.NNFixedDecoder(net_cfg, qweights)

    def _replay_eval(self, tracer):
        from scdec import lattice, noise, ped

        layout = lattice.build_layout(self.distance)
        keep_syn = self.name == "mwpm-d7"
        syndromes = []
        ops = []
        with tracer.span("replay"):
            decoder = self.decoder(layout)
            for i, eps in enumerate(self.eps_list):
                with tracer.span("point"):
                    failures = 0
                    for shot0 in range(0, self.shots, EVAL_CHUNK):
                        n = min(EVAL_CHUNK, self.shots - shot0)
                        x, z = noise.sample_depolarizing_bits(
                            layout, eps, self.seed, noise.EVAL_STREAM_BASE + i,
                            shot0, n)
                        syn = noise.compute_syndrome_bits(layout, x, z)
                        alx, alz = lattice.cut_parities(layout, x, z)
                        plx, plz = ped.decode_cut_parities(layout, syn)
                        tx = (alx ^ plx).astype(np.uint8)
                        tz = (alz ^ plz).astype(np.uint8)
                        pred = decoder.predict(syn)
                        bad = (pred[:, 0] != tx) | (pred[:, 1] != tz)
                        failures += int(np.count_nonzero(bad))
                        if keep_syn:
                            syndromes.append(syn)
                ops.append([float(eps), failures])
        return ops, None, syndromes

    def _replay_train(self, tracer):
        from scdec import lattice, noise, train

        n_batches, log_every = self.batches
        tc = train.TrainConfig(batch_size=TRAIN_BATCH, n_batches=n_batches,
                               reg_scale=1.0, reg_bits=8, seed=self.seed,
                               log_every=log_every)
        net_cfg = self.net_config()
        layout = lattice.build_layout(net_cfg.d)
        b = tc.batch_size
        ops = []
        with tracer.span("replay"):
            p = tc.resolved_p_train(layout.d)
            weights = train.init_weights(net_cfg, tc.seed)
            state = train.AdamState.init(weights)
            it_fail = it_shots = 0
            it_loss = 0.0
            for batch in range(n_batches):
                with tracer.span("batch"):
                    x_bits, z_bits = noise.sample_depolarizing_bits(
                        layout, p, tc.seed, noise.TRAIN_STREAM, batch * b, b)
                    syn = noise.compute_syndrome_bits(layout, x_bits, z_bits)
                    tx, tz = train.target_bits(layout, x_bits, z_bits, syn)
                    t = np.stack([tx, tz], axis=1).astype(np.float64) * 2.0 - 1.0
                    x = syn.astype(np.float64)
                    value, grads, out = train.loss_and_gradients(
                        net_cfg, weights, x, t, tc.reg_scale, tc.reg_bits)
                    train.adam_step(state, weights, grads, tc.lr,
                                    tc.beta1, tc.beta2, tc.eps)
                    it_fail += int(np.sum(np.any((out > 0.0) != (t > 0.0), axis=1)))
                    it_shots += b
                    it_loss += value
                if (batch + 1) % log_every == 0 or batch + 1 == n_batches:
                    ops.append([it_fail / it_shots, it_loss / (it_shots / b)])
                    it_fail = it_shots = 0
                    it_loss = 0.0
        return ops, _arrays(weights), []

    # -------------------------------------------------------- key counts --

    def mwpm_key_counts(self, syndromes):
        """(lookups, new_keys) of an unbounded per-type matching cache.

        Per ancilla type and per chunk the decoder looks up each distinct
        defect pattern once; a key is new the first time any chunk of the
        call shows it.  The empty pattern is pre-stored, so never new.
        """
        from scdec import lattice

        nx = lattice.build_layout(self.distance).n_anc_x
        lookups = new = 0
        for lo, hi in ((0, nx), (nx, None)):
            seen = np.zeros(1, dtype=np.uint64)
            for syn in syndromes:
                bits = syn[:, lo:hi].astype(np.uint64)
                keys = np.unique((bits << np.arange(bits.shape[1], dtype=np.uint64))
                                 .sum(axis=1, dtype=np.uint64))
                fresh = np.setdiff1d(keys, seen, assume_unique=True)
                lookups += len(keys)
                new += len(fresh)
                seen = np.union1d(seen, fresh)
        return lookups, new


def _arrays(weights):
    return {k: np.asarray(v).tolist() for k, v in weights.arrays().items()}


def load_reference(size, name):
    """Stored outputs of workload ``name`` at the default seed."""
    with open(REFERENCE) as fh:
        doc = json.load(fh)
    if doc["seed"] != DEFAULT_SEED:
        raise ValueError(f"{REFERENCE} is for seed {doc['seed']}")
    return doc["workloads"][size][name]
