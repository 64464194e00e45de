"""In-memory spans around calls into scdec's public functions.

A :class:`Tracer` wraps each listed library function for the duration of a
traced replay, so that every call, including the calls library functions make
to each other (``ped.decode_cut_parities`` inside
``MwpmBenchmarkDecoder.predict``), records a span: name, start, end, parent
and workload id.  Spans stay in memory until :meth:`Tracer.write`.  A layer's
self time is the duration of its spans minus the part their child spans
cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


def layer_targets():
    """(owner, attribute, span name) of every call the traced replay times.

    ``scdec.train`` binds ``cut_parities`` by name, so it is wrapped there as
    well as in ``scdec.lattice``.
    """
    from scdec import eval as eval_mod, lattice, noise, ped, train

    return [
        (noise, "sample_depolarizing_bits", "noise.sample"),
        (noise, "compute_syndrome_bits", "noise.syndrome"),
        (lattice, "cut_parities", "lattice.cut"),
        (train, "cut_parities", "lattice.cut"),
        (ped, "decode_cut_parities", "ped.cut"),
        (eval_mod.MwpmBenchmarkDecoder, "predict", "mwpm.decode"),
        (eval_mod.NNFixedDecoder, "predict", "nn.fixed"),
        (train, "target_bits", "train.target"),
        (train, "loss_and_gradients", "train.loss_grad"),
        (train, "adam_step", "train.adam"),
    ]


class Tracer:
    """Span recorder; a disabled tracer records nothing and patches nothing."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans = []          # [name, start_ns, end_ns, parent index]
        self._stack = [-1]

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1]]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``targets`` (see :func:`layer_targets`) while the block runs."""
        saved = []
        try:
            if self.enabled:
                for owner, attr, name in targets:
                    fn = owner.__dict__[attr]
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_ns(self) -> dict:
        """Self time per span name, in ns."""
        child = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per span: id, name, start/end (ns), parent, workload."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "workload": self.workload}) + "\n")
