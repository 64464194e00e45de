"""Tests of the benchmark itself, on tiny runs of every workload.

    python3 -m pytest perfbench/tests -q        # from the root of a checkout
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layers each workload runs; their time metrics must be positive there
RUNS = {"mwpm-d7": ("mwpm.",), "nn-fixed-d9": ("nn.",), "train-d5": ("train.",)}
SHARED = ("noise.", "lattice.", "ped.")


def bench(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert f"{workload} {name} = " in proc.stdout
        if name.startswith(RUNS[workload] + SHARED) and "ratio" not in name:
            assert m["value"] > 0, name
    assert "one backend, cross-check skipped" in proc.stdout or \
        '"cross_check": "python vs compiled' in proc.stdout


def test_spans_are_written_with_parents_and_workload():
    result_of(bench("mwpm-d7", 1))
    path = os.path.join(BENCH, "out", "mwpm-d7-tiny-seed1-trace1", "spans.jsonl")
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    names = {s["name"] for s in spans}
    assert {"replay", "noise.sample", "mwpm.decode", "ped.cut"} <= names
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["workload"] == "mwpm-d7" and s["end_ns"] >= s["start_ns"]
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
    # the PED call inside MwpmBenchmarkDecoder.predict is a child span
    assert any(s["name"] == "ped.cut" and by_id[s["parent"]]["name"] == "mwpm.decode"
               for s in spans if s["parent"] >= 0)


def test_mwpm_counts_repeat_across_runs():
    counts = []
    for _ in range(2):
        metrics = result_of(bench("mwpm-d7", 1))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k in ("mwpm.key_lookups", "mwpm.new_keys", "mwpm.hit_ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["mwpm.new_keys"] > 0


def test_other_seed_is_gated_against_the_replay():
    result = result_of(bench("train-d5", 0, seed=7))
    assert result["correct"] is True and result["failed"] == 0


def copy_benchmark(dest):
    """BENCHMARK.json and the benchmark's directory, without run outputs."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


def copy_checkout(dest):
    copy_benchmark(dest)
    shutil.copytree(os.path.join(ROOT, "src"), dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_altered_reference_digest_trips_the_gate(tmp_path):
    copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())
    entry = ref["workloads"]["tiny"]["mwpm-d7"]
    entry["digests"][0] = "0" * 64
    path.write_text(json.dumps(ref))
    result = result_of(bench("mwpm-d7", 0, cwd=tmp_path))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= len(entry["ops"])


@pytest.mark.parametrize("workload", ["mwpm-d7", "train-d5"])
def test_call_that_writes_nothing_fails_despite_stale_outputs(tmp_path, workload):
    copy_checkout(tmp_path)
    assert result_of(bench(workload, 1, cwd=tmp_path))["correct"] is True
    # the same run directory now holds correct outputs from that run
    with open(tmp_path / "src" / "scdec" / "cli.py", "a") as fh:
        fh.write("\n\ndef main(argv=None):\n    return 0\n")
    result = result_of(bench(workload, 1, cwd=tmp_path))
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_the_program_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("mwpm-d7", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
