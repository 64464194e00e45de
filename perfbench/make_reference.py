#!/usr/bin/env python3
"""Regenerate ``reference.json``: the outputs of every workload at the
default seed, for the output gate of ``run.py``.

    python3 perfbench/make_reference.py

Run it only when an output is meant to change, and say why in the change
that commits the new file; the gate exists to catch unintended changes.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> None:
    from scdec import cli

    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for size in sorted(workloads.SIZES):
        for name in workloads.NAMES:
            wl = workloads.Workload(name, workloads.DEFAULT_SEED, size,
                                    os.path.join(HERE, "out", f"reference-{size}-{name}"))
            wl.prepare()
            wl.clear_outputs()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(wl.argv())
            if rc != 0:
                raise SystemExit(f"{name} ({size}) exited with code {rc}")
            digests, ops, _ = wl.read_outputs()
            argv = [os.path.relpath(a, ROOT) if a.startswith(HERE) else a
                    for a in wl.argv()]
            doc["workloads"].setdefault(size, {})[name] = {
                "argv": argv, "digests": digests, "ops": ops}
            print(f"{size} {name}: {len(ops)} operations")
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
