import ctypes
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

import scdec.cli
import scdec.eval
import scdec.train
from scdec.cli import (
    CONFIG_KEYS,
    _train_config,
    config_hash,
    main,
    parse_config_text,
    resolve_config,
)
from scdec.eval import BenchmarkPoint, default_eps_grid, model_eps_l, write_points_csv
from scdec.eval import FitResult


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------- config --

def test_config_parsing():
    cfg = parse_config_text("""
    # comment
    distance = 3
    lr = 1e-3
    rotated = true
    n1 = 8, 16
    name = foo
    """)
    assert cfg == {"distance": 3, "lr": 1e-3, "rotated": True,
                   "n1": [8, 16], "name": "foo"}


def test_malformed_config_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    code, _, err = run(["train", "--config", str(bad)], capsys)
    assert code == 3 and "KEY = VALUE" in err


def test_missing_config_is_exit_4(capsys):
    code, _, err = run(["train", "--config", "/nonexistent.cfg"], capsys)
    assert code == 4


ROOT = os.path.join(os.path.dirname(__file__), "..")


def _read_cfg(name):
    with open(os.path.join(ROOT, "configs", f"{name}.cfg")) as fh:
        return parse_config_text(fh.read())


@pytest.mark.parametrize("name,cmd", [("train-d3", "train"), ("train-d3", "eval"),
                                      ("mwpm-baseline", "eval"),
                                      ("sweep-d3", "sweep")])
def test_example_configs_resolve(name, cmd):
    parsed = _read_cfg(name)
    cfg = resolve_config(parsed, axes=cmd == "sweep")
    assert set(cfg) == set(CONFIG_KEYS) and cfg["distance"] == 3
    if cmd == "train":
        assert cfg["n1"] == 16 and _train_config(cfg).p_train == 0.08251
    if cmd == "sweep":
        assert cfg["n1"] == [8, 16] and cfg["bits"] == [3, 5, 9]
        assert cfg["n2"] == [4] and cfg["rotated"] == [True]


@pytest.fixture
def no_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a shot was sampled")

    monkeypatch.setattr(scdec.eval, "sample_depolarizing_bits", refuse)
    monkeypatch.setattr(scdec.train, "sample_depolarizing_bits", refuse)


_CONFIG_ARGV = {
    "train": ["train", "--set", "distance=3"],
    "eval": ["eval", "--decoder", "mwpm", "-d", "3"],
    "sweep": ["sweep", "--set", "distance=3"],
}


@pytest.mark.parametrize("setting", ["n_batch=10", "rotated=flase"])
@pytest.mark.parametrize("cmd", sorted(_CONFIG_ARGV))
def test_bad_config_key_is_exit_3(tmp_path, capsys, no_sampling, cmd, setting):
    """An unknown key or a non-boolean value for a bool key exits 3, names
    the key and samples no shot."""
    out = tmp_path / "out"
    code, _, err = run(_CONFIG_ARGV[cmd] + ["--set", setting, "--out", str(out)],
                       capsys)
    assert code == 3 and repr(setting.split("=")[0]) in err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["n1=8.7", "shots=2.5"])
@pytest.mark.parametrize("cmd", sorted(_CONFIG_ARGV))
def test_non_integral_int_key_is_exit_3(tmp_path, capsys, no_sampling, cmd, setting):
    """An int key given a non-integral number exits 3 before any shot is
    sampled, instead of truncating it."""
    out = tmp_path / "out"
    code, _, err = run(_CONFIG_ARGV[cmd] + ["--set", setting, "--out", str(out)],
                       capsys)
    assert code == 3 and repr(setting.split("=")[0]) in err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["log_every=0", "n_batches=-1"])
@pytest.mark.parametrize("cmd", ["sweep", "train"])
def test_bad_training_length_is_exit_3(tmp_path, capsys, no_sampling, cmd, setting):
    """A training key out of its range exits 3, names the key and writes
    nothing, before any shot is sampled."""
    out = tmp_path / "out"
    code, _, err = run(_CONFIG_ARGV[cmd] + ["--set", setting, "--out", str(out)],
                       capsys)
    assert code == 3 and setting.split("=")[0] in err
    assert not out.exists()


@pytest.mark.parametrize("cmd,setting", [
    ("train", "p_train=1.5"), ("train", "p_train=nan"),
    ("sweep", "p_train=1.5"), ("sweep", "p_train=nan"),
    ("sweep", "eps_max=2"), ("sweep", "eps_list=0.1,nan"), ("sweep", "shots=0"),
    ("eval", "eps_list=0.1,1.5"), ("eval", "eps_max=2"),
    *((cmd, setting) for cmd in ("train", "sweep")
      for setting in ("lr=nan", "lr=inf", "adam_eps=-1", "beta1=1.5", "beta2=-1",
                      "reg_scale=nan")),
])
def test_setting_out_of_range_is_exit_3(tmp_path, capsys, no_sampling, cmd, setting):
    """A training or evaluation error rate outside [0, 1], no shots, or an
    ADAM setting out of range (a non-finite or non-positive step or eps, a
    moment decay outside [0, 1), a NaN regularization scale) exits 3 and
    writes nothing, before any shot is sampled.  Every message but the
    error-rate grid's names its key."""
    out = tmp_path / "out"
    code, _, err = run(_CONFIG_ARGV[cmd] + ["--set", setting, "--out", str(out)],
                       capsys)
    assert code == 3 and "must be" in err
    assert setting.startswith("eps_") or setting.split("=")[0] in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [2 ** 64, -1])
@pytest.mark.parametrize("cmd", sorted(_CONFIG_ARGV))
def test_seed_outside_64_bits_is_exit_3(tmp_path, capsys, no_sampling, cmd, seed):
    """The Philox key holds 64 bits of seed, so 2^64 would replay seed 0 and
    -1 seed 2^64 - 1; both exit 3 and write nothing, before any shot."""
    out = tmp_path / "out"
    code, _, err = run(_CONFIG_ARGV[cmd] + ["--set", f"seed={seed}", "--out", str(out)],
                       capsys)
    assert code == 3 and "seed must be in [0, 2^64)" in err
    assert not out.exists()


def test_int_keys_take_integral_values_only():
    cfg = resolve_config({"shots": parse_config_text("shots = 1e5")["shots"], "n1": 8.0})
    assert cfg["shots"] == 100_000 and type(cfg["shots"]) is int
    assert cfg["n1"] == 8 and type(cfg["n1"]) is int
    assert resolve_config({"n1": [8.0, 16]}, axes=True)["n1"] == [8, 16]
    for bad in (8.7, float("inf"), float("nan"), "eight", [8, 8.5]):
        with pytest.raises(ValueError, match="'n1': bad value"):
            resolve_config({"n1": bad}, axes=isinstance(bad, list))


def test_bool_keys_take_booleans_or_0_1():
    assert resolve_config({"rotated": 0})["rotated"] is False
    assert resolve_config({"rotated": [1, False]}, axes=True)["rotated"] == [True, False]
    for bad in (2, 1.0, "yes please"):
        with pytest.raises(ValueError, match="rotated"):
            resolve_config({"rotated": bad})


def test_list_value_only_where_a_key_takes_lists():
    assert resolve_config({"eps_list": 0.1})["eps_list"] == [0.1]
    assert resolve_config({"n1": [8, 16]}, axes=True)["n1"] == [8, 16]
    for key in ("n1", "rotated", "lr"):
        with pytest.raises(ValueError, match=f"'{key}': bad value"):
            resolve_config({key: [1, 0]})
    with pytest.raises(ValueError, match="'shots': bad value"):
        resolve_config({"shots": [1, 2]}, axes=True)


def test_readme_key_block_lists_the_key_table():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parsed = parse_config_text(block)
    commented = set(re.findall(r"^# ?(\w+)\s*=", block, re.M))
    assert not set(parsed) & commented
    assert set(parsed) | commented == set(CONFIG_KEYS)
    cfg = resolve_config(parsed)
    for key, spec in CONFIG_KEYS.items():
        if spec.default is not None:
            assert cfg[key] == spec.default, key


def run_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this
    checkout's ``scdec``."""
    src = os.path.dirname(os.path.dirname(scdec.eval.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_cli_leaves_scipy_optimize_out():
    """Only ``fit_model`` imports ``scipy.optimize``, which would otherwise be
    most of the start-up time of every ``scdec`` command."""
    out = run_python("import sys, scdec.cli; print('scipy.optimize' in sys.modules)")
    assert out == "False"


# ------------------------------------------------------------ allocator --

def test_keep_freed_heap_sets_mmap_and_trim_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    scdec.cli._keep_freed_heap()
    assert calls == [(-3, 32 << 20), (-1, 32 << 20), (-8, 1)]


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: types.SimpleNamespace()],
                         ids=["CDLL-raises", "no-mallopt"])
def test_keep_freed_heap_without_mallopt_does_nothing(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    scdec.cli._keep_freed_heap()  # returns without raising


def test_importing_the_cli_leaves_the_allocator_alone():
    out = run_python("""
        import ctypes
        looked_up = []

        class Spy(ctypes.CDLL):
            def __getattr__(self, name):
                looked_up.append(name)
                return super().__getattr__(name)

        ctypes.CDLL = Spy
        import scdec.cli
        print("mallopt" in looked_up)
    """)
    assert out == "False"


def test_importing_the_cli_starts_no_thread_and_reads_no_maps():
    """The BLAS lookup behind the worker count waits for the first pool."""
    out = run_python("""
        import builtins, threading
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        builtins.open = spy
        import scdec.cli
        print(threading.active_count(), "/proc/self/maps" in opened)
        scdec._threads.workers()
        print("/proc/self/maps" in opened)
    """)
    assert out.split() == ["1", "False", "True"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_repeated_train_call_does_not_fault_its_batches_in_again(tmp_path):
    """Without the CLI's allocator policy each 4,992-sample batch faults its
    freed temporaries back in: about 16,000 minor faults per 20-batch call."""
    out = run_python(f"""
        import contextlib, io, resource
        from scdec.cli import main

        keys = dict(distance=5, n1=16, n2=4, rotated="true", batch_size=4992,
                    n_batches=20, log_every=10, seed=1)
        argv = ["train", "--out", {str(tmp_path)!r}]
        argv += [a for k, v in keys.items() for a in ("--set", f"{{k}}={{v}}")]
        faults = []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(faults[1])
    """)
    assert int(out) < 2000


def test_unknown_subcommand_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --------------------------------------------------------------- decode --

def test_decode_zero_syndrome_prints_identity(capsys):
    code, out, _ = run(["decode", "-d", "3", "--decoder", "ped",
                        "--syndrome", "00000000"], capsys)
    assert code == 0
    assert out.splitlines() == ["x 000000000", "z 000000000"]


def test_decode_worked_example(capsys):
    syn = "".join("1" if i == 8 else "0" for i in range(24))
    code, out, _ = run(["decode", "-d", "5", "--syndrome", syn], capsys)
    assert code == 0
    x_line, z_line = out.splitlines()
    assert set(x_line[2:]) == {"0"}
    assert [i for i, b in enumerate(z_line[2:]) if b == "1"] == [23, 24]


def test_decode_mwpm_runs(capsys):
    code, out, _ = run(["decode", "-d", "3", "--decoder", "mwpm",
                        "--syndrome", "10000000"], capsys)
    assert code == 0


_DECODE_DIGESTS = {
    "ped": "cffa7c13f2cec2d3010be6263d006f4df6d040b364ee414dcea9451878df0124",
    "mwpm": "073da785de617258596b3bf49dc30846667ffa3531a935ffd7632e348349b233",
}


@pytest.mark.parametrize("decoder", sorted(_DECODE_DIGESTS))
def test_decode_output_pinned(capsys, decoder):
    """sha256 of ``scdec decode`` stdout over seeded syndromes at d = 3, 7
    and 11, pinned: any change to a correction or to how it is printed
    fails here."""
    from scdec.lattice import build_layout
    from scdec.noise import compute_syndrome_bits, sample_depolarizing_bits

    digest = hashlib.sha256()
    for d in (3, 7, 11):
        lay = build_layout(d)
        for p in (0.05, 0.15):
            x, z = sample_depolarizing_bits(lay, p, 21, d, 0, 8)
            for row in compute_syndrome_bits(lay, x, z):
                syn = "".join(map(str, row.tolist()))
                code, out, _ = run(["decode", "-d", str(d), "--decoder", decoder,
                                    "--syndrome", syn], capsys)
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == _DECODE_DIGESTS[decoder]


def test_decode_rejects_bad_syndrome(capsys):
    code, _, err = run(["decode", "-d", "3", "--syndrome", "01"], capsys)
    assert code == 3


def test_layout_dump(capsys):
    code, out, _ = run(["layout", "-d", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 3 and len(doc["anc_adjacency"]) == 8


# ----------------------------------------------------------- train/eval --

def test_train_eval_fit_pipeline(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "distance = 3\nn1 = 8\nn2 = 4\nrotated = true\n"
        "batch_size = 256\nn_batches = 60\nlog_every = 30\nseed = 5\n"
        "shots = 4000\neps_points = 6\n"
    )
    out_dir = tmp_path / "run"
    code, _, _ = run(["train", "--config", str(cfg), "--out", str(out_dir)], capsys)
    assert code == 0
    ckpt = out_dir / "checkpoint.json"
    curve = out_dir / "curve.csv"
    assert ckpt.exists() and curve.exists()
    lines = curve.read_text().splitlines()
    assert lines[0].startswith("# scdec v") and "config=" in lines[0]
    assert lines[1] == "iteration,batches,samples,ler,loss"
    assert len(lines) == 4  # two logged iterations

    curve_out = tmp_path / "mycurve.csv"
    code, _, _ = run(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                      "--out", str(curve_out)], capsys)
    assert code == 0
    assert curve_out.exists()

    code, out, _ = run(["fit", "--input", str(curve_out)], capsys)
    # tiny nets may not produce a fittable curve; accept clean success or
    # the documented compute failure, never a crash
    assert code in (0, 5)


@pytest.mark.parametrize("keys,digests", [
    # batch_size=1 is where OpenBLAS's sums in x @ w1.T follow the memory
    # order of the rotated w1 for the column-major inputs training feeds it
    (dict(distance=7, n1=16, n2=8, transfer="sqnl", rotated="true",
          reg_scale=0.5, reg_bits=6, batch_size=1, n_batches=200,
          log_every=100, seed=3),
     ("18026eba7e5bcd45c29754e4250035ded6141548198425db4898391b39b9bc6b",
      "0ab66359ef644f486868ddce2e261f210ba2cc4666cbdadd2ab95d050be1ab33")),
    (dict(distance=3, n1=8, n2=4, transfer="relu", rotated="false",
          reg_scale=0.7, reg_bits=4, batch_size=256, n_batches=30,
          log_every=10, seed=2),
     ("9aa1080e4f9870c597a4a3bb0d4eb2c2eb435cbb3543209895114713caabb3e0",
      "c04f4ac68262a2c3d1d586882ca4dea3bc2eff81ff8f90514c8b25b9aecde8b8")),
], ids=["d7-rotated-sqnl", "d3-relu-reg"])
def test_train_outputs_pinned(tmp_path, capsys, keys, digests):
    """sha256 of a training run's checkpoint.json and curve.csv, pinned: any
    change to the float operations of a training step fails here."""
    argv = ["train", "--out", str(tmp_path)]
    argv += [a for k, v in keys.items() for a in ("--set", f"{k}={v}")]
    assert run(argv, capsys)[0] == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("checkpoint.json", "curve.csv"))
    assert got == digests


def test_eval_quantized_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "distance = 3\nn1 = 8\nn2 = 4\nrotated = true\n"
        "batch_size = 128\nn_batches = 30\nlog_every = 30\nseed = 6\n"
        "shots = 2000\neps_points = 4\n"
    )
    out_dir = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out_dir)], capsys)[0] == 0
    curve = tmp_path / "q.csv"
    code, out, _ = run(["eval", "--config", str(cfg),
                        "--checkpoint", str(out_dir / "checkpoint.json"),
                        "--set", "bits=5", "--out", str(curve)], capsys)
    assert code == 0
    assert "nn-fixed5" in curve.read_text()


def test_eval_tanh_checkpoint_in_fixed_point_is_exit_3(tmp_path, capsys, no_sampling):
    """A tanh net has no fixed-point datapath: eval exits 3 when it builds
    the decoder, before a shot is sampled."""
    from scdec.nn import NetworkConfig, save_checkpoint
    from scdec.train import init_weights

    cfg = NetworkConfig(d=3, n1=8, n2=4, transfer="tanh", rotated=True)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, cfg, weights=init_weights(cfg, 0))
    out = tmp_path / "c.csv"
    code, _, err = run(["eval", "--checkpoint", str(ckpt), "--set", "bits=5",
                        "--out", str(out)], capsys)
    assert code == 3 and "no fixed-point datapath for transfer 'tanh'" in err
    assert not out.exists()


@pytest.mark.parametrize("cfg_bits,off_grid,message", [
    (5, False, "config wants"),
    (4, True, "falls outside the 4-bit grid"),
], ids=["spec-mismatch", "off-grid-weight"])
def test_eval_bad_quantized_checkpoint_is_exit_3(tmp_path, capsys, no_sampling,
                                                 cfg_bits, off_grid, message):
    """Quantized weights whose spec differs from the config's, or with a
    weight outside their grid, exit 3 before a shot is sampled."""
    from scdec.nn import NetworkConfig, QuantSpec, quantize_weights, save_checkpoint
    from scdec.train import init_weights

    cfg = NetworkConfig(d=3, n1=8, n2=4, transfer="sqnl", rotated=False,
                        quant=QuantSpec(cfg_bits))
    qw = quantize_weights(init_weights(cfg, 0), QuantSpec(4))
    if off_grid:
        qw.w1[0, 0] = 100
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, cfg, qweights=qw)
    out = tmp_path / "c.csv"
    code, _, err = run(["eval", "--checkpoint", str(ckpt), "--set", "shots=100",
                        "--out", str(out)], capsys)
    assert code == 3 and message in err
    assert not out.exists()


def test_eval_missing_checkpoint_is_exit_4(tmp_path, capsys):
    code, _, err = run(["eval", "--checkpoint", str(tmp_path / "none.json"),
                        "--out", str(tmp_path / "c.csv")], capsys)
    assert code == 4


@pytest.mark.parametrize("doc,field", [
    ({"format": "scdec-checkpoint-v1"}, "'config'"),
    ({"format": "scdec-checkpoint-v1",
      "config": {"d": 3, "n1": 8, "n2": 4, "transfer": "sqnl", "rotated": False},
      "weights": {"w1": [[0.0] * 8] * 8}}, "'weights'"),
    (["scdec-checkpoint-v1"], "not a scdec checkpoint"),
])
def test_eval_malformed_checkpoint_is_exit_3(tmp_path, capsys, no_sampling, doc, field):
    """A checkpoint document without its config, with a partial weight set,
    or not a JSON object at all exits 3 and names the field at fault."""
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "c.csv"
    code, _, err = run(["eval", "--checkpoint", str(ckpt), "--out", str(out)], capsys)
    assert code == 3 and field in err
    assert not out.exists()


def test_eval_mwpm_reproducible_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["eval", "--decoder", "mwpm", "-d", "3", "--set", "shots=2000",
            "--set", "seed=9", "--set", "eps_points=4"]
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("d,sets,failures", [
    (7, ["shots=4000"], [6, 11, 31, 77, 173, 384, 818, 1404, 2027, 2635]),
    (9, ["shots=2000", "eps_list=0.05,0.1,0.15,0.2"], [11, 125, 419, 906]),
])
def test_eval_mwpm_failure_counts_pinned(tmp_path, capsys, d, sets, failures):
    """Per-point failure counts of seeded MWPM curves, pinned: any change to
    the matching or its tie rule that moves a logical outcome fails here."""
    from scdec.eval import read_points_csv

    out = tmp_path / "c.csv"
    args = ["eval", "--decoder", "mwpm", "-d", str(d), "--set", "seed=5"]
    for s in sets:
        args += ["--set", s]
    assert run(args + ["--out", str(out)], capsys)[0] == 0
    points, _, _ = read_points_csv(out)
    assert [round(p.eps_l * p.shots) for p in points] == failures


def test_eval_flags_beat_config(tmp_path, capsys):
    """``--decoder`` and ``-d`` win over the config's ``decoder = mwpm`` and
    ``distance = 3``; the provenance hash covers the file and ``--set`` only."""
    path = os.path.join(ROOT, "configs", "mwpm-baseline.cfg")
    out = tmp_path / "c.csv"
    sets = ["--set", "shots=200", "--set", "eps_points=4"]
    code, _, _ = run(["eval", "--config", path, "--decoder", "trivial", "-d", "5"]
                     + sets + ["--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert {tuple(l.split(",")[:2]) for l in lines[2:]} == {("5", "trivial")}
    parsed = {**_read_cfg("mwpm-baseline"), "shots": 200, "eps_points": 4}
    assert f"config={config_hash(parsed)} " in lines[0]


def test_eval_mwpm_beyond_max_distance_is_exit_3(tmp_path, capsys, no_sampling):
    out = tmp_path / "c.csv"
    code, _, err = run(["eval", "--decoder", "mwpm", "-d", "13",
                        "--out", str(out)], capsys)
    assert code == 3
    assert "up to 11" in err
    assert not out.exists()


def test_fit_on_synthetic_curve(tmp_path, capsys):
    eps = np.array(default_eps_grid(10))
    fit = FitResult(0.0825, 1.856, 0.9, 0.0)
    pts = [BenchmarkPoint(float(e), float(l), 10 ** 6, 1e-8)
           for e, l in zip(eps, model_eps_l(fit, eps))]
    path = tmp_path / "curve.csv"
    write_points_csv(path, pts, distance=3, decoder="mwpm", header_note="x")
    code, out, _ = run(["fit", "--input", str(path)], capsys)
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    assert abs(doc["p_th"] - 0.0825) < 1e-4
    assert abs(doc["s"] - 1.856) < 1e-3
    assert doc["crossing"] is not None


def test_output_writes_follow_symlinks_and_keep_pipes(tmp_path):
    """An output written through a symlink replaces the link's target and
    keeps the link and the target's permission bits; a pipe is written in
    place, not replaced."""
    import stat

    pts = [BenchmarkPoint(0.1, 0.01, 100, 1e-4)]
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    real.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write_points_csv(link, pts, distance=3, decoder="mwpm")
    assert link.is_symlink()
    assert real.read_text().startswith("distance,")
    assert stat.S_IMODE(os.stat(real).st_mode) == 0o640

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_points_csv(fifo, pts, distance=3, decoder="mwpm")
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got.decode().startswith("distance,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "pipe", "real.csv"]


def test_fit_missing_input_is_exit_4(capsys):
    assert run(["fit", "--input", "/does/not/exist.csv"], capsys)[0] == 4


def test_fit_without_header_row_is_exit_3(tmp_path, capsys):
    src = tmp_path / "curve.csv"
    src.write_text("# prov\n\n# only comments\n")
    code, _, err = run(["fit", "--input", str(src)], capsys)
    assert code == 3 and "no header row" in err


def test_fit_missing_column_is_exit_3(tmp_path, capsys):
    src = tmp_path / "curve.csv"
    src.write_text("# prov\ndistance,decoder,eps_p,shots,variance\n3,mwpm,0.1,100,0.0\n")
    code, _, err = run(["fit", "--input", str(src)], capsys)
    assert code == 3 and "column not found: 'eps_l'" in err


# ------------------------------------------------------------ cost/sweep --

def test_cost_json(capsys):
    code, out, _ = run(["cost", "-d", "3", "--n1", "8", "--n2", "4",
                        "--bits", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pp_bits"] > 0 and doc["tree_depth"] > 0
    assert len(doc["layers"]) == 3


def test_cost_tanh_is_compute_error(capsys):
    code, _, err = run(["cost", "-d", "3", "--n1", "8", "--n2", "4",
                        "--bits", "5", "--transfer", "tanh"], capsys)
    assert code == 5


@pytest.mark.parametrize("d", ["4", "-3", "1"])
def test_cost_bad_distance_is_exit_3(capsys, d):
    """An even, negative or too small distance is a malformed network: exit
    3 with the rule the lattice applies, not a cost or a compute error."""
    code, out, err = run(["cost", "-d", d, "--n1", "8", "--n2", "4"], capsys)
    assert code == 3 and "odd and >= 3" in err and not out


def test_sweep_produces_every_cell(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "distance = 3\nn1 = 8, 16\nn2 = 4\nbits = 3, 5\n"
        "batch_size = 128\nn_batches = 40\nlog_every = 40\nseed = 3\n"
        "shots = 1500\neps_points = 4\n"
    )
    out = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 4  # 2 n1 x 1 n2 x 2 bits
    cells = {(r[header.index("n1")], r[header.index("bits")]) for r in rows}
    assert cells == {("8", "3"), ("8", "5"), ("16", "3"), ("16", "5")}
    for r in rows:
        assert len(r) == len(header)
        assert r[-1] == "ok" or r[-1].startswith("error:")


def test_sweep_reg_bits_axis(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "distance = 3\nn1 = 8\nn2 = 4\nbits = 3\nreg_bits = 2, 3\n"
        "reg_scale = 1.0\nbatch_size = 128\nn_batches = 20\nlog_every = 20\n"
        "seed = 3\nshots = 1000\neps_points = 4\n"
    )
    out = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    rows = [l.split(",") for l in lines[2:]]
    assert {r[header.index("reg_bits")] for r in rows} == {"2", "3"}


def test_sweep_marks_failed_cells(tmp_path, capsys, no_sampling, monkeypatch):
    """tanh cells have no fixed-point datapath: the row carries the error,
    and the cell neither trains nor samples a shot."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(scdec.train, "train_loop", refuse)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "distance = 3\nn1 = 8\nn2 = 4\ntransfer = tanh\nbits = 3\n"
        "batch_size = 64\nn_batches = 10\nlog_every = 10\nseed = 3\n"
        "shots = 500\neps_points = 4\n"
    )
    out = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 1
    assert rows[0].endswith(",error:no fixed-point datapath for transfer 'tanh'")


def test_sweep_without_default_p_train_is_exit_3(tmp_path, capsys, no_sampling, monkeypatch):
    """d=11 has no default training error rate: sweep exits 3 before any
    cell trains, instead of writing the error into every cell."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(scdec.train, "train_loop", refuse)
    out = tmp_path / "sweep.csv"
    code, _, err = run(["sweep", "--set", "distance=11", "--out", str(out)], capsys)
    assert code == 3 and "no default training error rate for d=11" in err
    assert not out.exists()


@pytest.mark.parametrize("sets,bad", [
    (["bits=3,12"], "bits=12"),
    (["n1=8,6", "rotated=true"], "n1=6"),
])
def test_sweep_bad_cell_is_exit_3(tmp_path, capsys, no_sampling, monkeypatch, sets, bad):
    """A network axis value that no cell can use, such as a 12-bit grid or
    n1=6 with rotational sharing, exits 3 and names the cell before the
    first cell trains, instead of training the cells before it."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(scdec.train, "train_loop", refuse)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--set", "distance=3"]
    for s in sets:
        argv += ["--set", s]
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 3 and bad in err
    assert not out.exists()


def test_cost_budget_report(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text(
        "# prov\n"
        "distance,n1,n2,transfer,rotated,bits,seed,p_th,ci_low,ci_high,"
        "slope,c,residual,pp_bits,fa_count,tree_depth,bitops,status\n"
        "3,8,4,sqnl,1,3,0,0.083,0.08,0.086,1.86,0.0,1e-3,100,50,10,500,ok\n"
        "5,64,64,sqnl,1,4,0,0.104,0.10,0.108,2.72,0.0,1e-3,900,400,14,5000,ok\n"
        "5,8,4,sqnl,1,3,0,,,,,,,100,50,10,480,error:no crossing\n"
    )
    out = tmp_path / "report.csv"
    code, _, _ = run(["cost", "--budget-report", str(sweep),
                      "--budgets", "1000,10000", "--out", str(out)], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert all(len(r) == 4 for r in rows)
    budgets = {float(r[0]) for r in rows}
    assert budgets == {1000.0, 10000.0}
    # under the tight budget only d=3 is affordable
    assert {r[2] for r in rows if float(r[0]) == 1000.0} == {"3"}


def test_cost_budget_report_missing_file(capsys):
    code, _, _ = run(["cost", "--budget-report", "/none.csv",
                      "--budgets", "10"], capsys)
    assert code == 4


# ---------------------------------------------------------------- pareto --

def test_pareto_subcommand(tmp_path, capsys):
    src = tmp_path / "res.csv"
    src.write_text(
        "# prov\nname,bitops,p_th\n"
        "a,100,0.08\nb,200,0.09\nc,150,0.07\nd,90,0.095\n"
    )
    out = tmp_path / "front.csv"
    code, _, _ = run(["pareto", "--input", str(src), "--cost-col", "bitops",
                      "--perf-col", "p_th", "--out", str(out)], capsys)
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    # d dominates a and c; b survives only if nothing is cheaper and better
    assert set(r.split(",")[0] for r in rows) == {"d"}


def test_pareto_without_comparable_rows_is_exit_5(tmp_path, capsys):
    """A table whose every cell in the chosen columns is an error mark or
    missing, as in a sweep whose cells all failed, has no front: exit 5, as
    ``cost --budget-report`` does for no usable rows."""
    src = tmp_path / "res.csv"
    src.write_text("# prov\nname,bitops,p_th\n"
                   "a,100,error:no crossing\nb,200\n")
    out = tmp_path / "front.csv"
    code, _, err = run(["pareto", "--input", str(src), "--cost-col", "bitops",
                        "--perf-col", "p_th", "--out", str(out)], capsys)
    assert code == 5 and "no usable rows" in err
    assert not out.exists()


# --------------------------------------------------------- table inputs --

_TABLE_ARGS = {
    "pareto": ["pareto", "--cost-col", "bitops", "--perf-col", "p_th",
               "--input"],
    "budget": ["cost", "--budgets", "1000", "--budget-report"],
}


@pytest.mark.parametrize("cmd", sorted(_TABLE_ARGS))
def test_table_without_header_row_is_exit_3(tmp_path, capsys, cmd):
    src = tmp_path / "table.csv"
    src.write_text("# prov\n\n# only comments\n")
    code, _, err = run(_TABLE_ARGS[cmd] + [str(src)], capsys)
    assert code == 3 and "no header row" in err


@pytest.mark.parametrize("cmd", sorted(_TABLE_ARGS))
def test_table_unknown_column_is_exit_3(tmp_path, capsys, cmd):
    src = tmp_path / "table.csv"
    src.write_text("# prov\ndistance,p_th,slope,c,status\n3,0.08,1.9,0.0,ok\n")
    code, _, err = run(_TABLE_ARGS[cmd] + [str(src)], capsys)
    assert code == 3 and "column not found: 'bitops'" in err
