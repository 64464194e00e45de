"""Experiment runner.

Subcommands: ``decode``, ``train``, ``eval``, ``sweep``, ``fit``, ``cost``,
``pareto`` and the debugging aid ``layout``.  Runs are configured by a flat
``KEY = VALUE`` text file plus ``--set KEY=VALUE`` overrides; every output
file starts with a provenance line naming the tool version, a hash of the
resolved configuration and the seed, and reruns with identical inputs
produce byte-identical files.

Exit codes: 0 success, 2 usage error, 3 malformed configuration,
4 missing input file or checkpoint, 5 computation failed.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import inspect
import itertools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, eval as eval_mod, hwcost, ped, train as train_mod
from ._fileio import atomic_write
from ._kernels import fixed_nonlinearity
from .lattice import build_layout
from .mwpm import MwpmDecoder
from .nn import NetworkConfig, QuantSpec, load_checkpoint, save_checkpoint
from .nn.config import TRANSFERS
from .train import TrainConfig


class ConfigError(ValueError):
    exit_code = 3


class MissingInput(FileNotFoundError):
    exit_code = 4


class ComputeError(RuntimeError):
    exit_code = 5


# ---------------------------------------------------------------- config --

def parse_config_text(text: str) -> dict:
    """Flat ``KEY = VALUE`` format; ``#`` starts a comment.  Values are
    parsed as bool/int/float when they look like one, comma-separated values
    become lists."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected KEY = VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = _parse_value(value.strip())
    return out


def _parse_value(text: str):
    if "," in text:
        return [_parse_value(t.strip()) for t in text.split(",") if t.strip()]
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _bool(value) -> bool:
    if isinstance(value, int) and value in (0, 1):  # bool is an int
        return bool(value)
    raise ValueError(value)


def _int(value) -> int:
    """An integer; integral floats such as ``1e5`` pass, ``8.7`` does not."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _floats(value) -> list:
    return [float(v) for v in (value if isinstance(value, list) else [value])]


class Key(NamedTuple):
    cast: Callable
    default: object = None
    axis: bool | tuple = False


# TrainConfig's fields in order, under their config key names
_TRAIN = {("adam_eps" if f.name == "eps" else f.name): f.default
          for f in dataclasses.fields(TrainConfig)}
_GRID = inspect.signature(eval_mod.default_eps_grid).parameters

# Every key of ``train``, ``eval`` and ``sweep``: the cast that checks it, its
# default, and whether ``sweep`` reads it as a list (an ``axis``, by default
# the tuple given there or ``[default]``).  One file can serve several
# subcommands (``train-d3.cfg`` serves ``train`` and ``eval``), hence one table.
CONFIG_KEYS = {
    "distance": Key(_int),
    "decoder": Key(str),
    "n1": Key(_int, 16, axis=(8, 16)),
    "n2": Key(_int, 4, axis=True),
    "transfer": Key(str, "sqnl", axis=True),
    "rotated": Key(_bool, True, axis=True),
    "bits": Key(_int, 0, axis=True),
    "extra_sample_bit": Key(_bool, False),
    "batch_size": Key(_int, _TRAIN["batch_size"]),
    "n_batches": Key(_int, _TRAIN["n_batches"]),
    "lr": Key(float, _TRAIN["lr"]),
    "beta1": Key(float, _TRAIN["beta1"]),
    "beta2": Key(float, _TRAIN["beta2"]),
    "adam_eps": Key(float, _TRAIN["adam_eps"]),
    "reg_scale": Key(float, _TRAIN["reg_scale"]),
    "reg_bits": Key(_int, _TRAIN["reg_bits"], axis=True),
    "p_train": Key(float, _TRAIN["p_train"]),
    "seed": Key(_int, _TRAIN["seed"]),
    "log_every": Key(_int, _TRAIN["log_every"]),
    "shots": Key(_int, 100_000),
    "eps_list": Key(_floats),
    "eps_points": Key(_int, _GRID["n_points"].default),
    "eps_min": Key(float, _GRID["lo"].default),
    "eps_max": Key(float, _GRID["hi"].default),
}


def resolve_config(parsed: dict, axes: bool = False) -> dict:
    """Each :data:`CONFIG_KEYS` value from ``parsed`` or its default, cast;
    with ``axes`` the sweep axes are lists."""
    unknown = sorted(set(parsed) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
    cfg = {}
    for key, spec in CONFIG_KEYS.items():
        many = axes and spec.axis is not False
        own = many and spec.axis is not True  # sweep's own default list
        value = parsed.get(key, list(spec.axis) if own else spec.default)
        try:
            if many:
                value = [spec.cast(v) for v in
                         (value if isinstance(value, list) else [value])]
            elif value is not None:
                value = spec.cast(value)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r}: bad value {value!r}") from None
        cfg[key] = value
    return cfg


def load_config(args, axes: bool = False) -> tuple[dict, dict]:
    """``(parsed, cfg)``: the dict read from ``--config`` and ``--set``,
    which the provenance hash covers, and its :func:`resolve_config`."""
    parsed = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise MissingInput(f"config file not found: {args.config}")
        with open(args.config) as fh:
            parsed.update(parse_config_text(fh.read()))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        parsed[key.strip()] = _parse_value(value.strip())
    return parsed, resolve_config(parsed, axes)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def provenance(cfg: dict, seed) -> str:
    return f"scdec v{__version__} config={config_hash(cfg)} seed={seed}"


# ----------------------------------------------------------- subcommands --

def cmd_layout(args) -> int:
    layout = build_layout(args.distance)
    print(json.dumps(layout.to_dict(), indent=2))
    return 0


def cmd_decode(args) -> int:
    layout = build_layout(args.distance)
    bits = args.syndrome.strip()
    if len(bits) != layout.n_anc or set(bits) - {"0", "1"}:
        raise ConfigError(
            f"syndrome must be {layout.n_anc} bits of 0/1, got {args.syndrome!r}")
    syn = np.array([[int(b) for b in bits]], dtype=np.uint8)
    if args.decoder == "ped":
        x_line, z_line = ("".join(map(str, plane[0].tolist()))
                          for plane in ped.decode_bits(layout, syn))
    else:
        zmask, xmask = MwpmDecoder(layout).decode_masks(syn[0])
        # bit i of a mask is data qubit i; d=11 masks are 121 bits wide
        x_line, z_line = (format(mask, f"0{layout.n_data}b")[::-1]
                          for mask in (xmask, zmask))
    print("x " + x_line)
    print("z " + z_line)
    return 0


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(*(cfg[key] for key in _TRAIN))


def cmd_train(args) -> int:
    parsed, cfg = load_config(args)
    if cfg["distance"] is None:
        raise ConfigError("train needs a 'distance' key")
    net_cfg = NetworkConfig(cfg["distance"], cfg["n1"], cfg["n2"],
                            cfg["transfer"], cfg["rotated"])
    train_cfg = _train_config(cfg)
    layout = build_layout(net_cfg.d)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    curve_path = os.path.join(args.out, "curve.csv")
    note = provenance(parsed, train_cfg.seed)

    rows = []

    def on_iteration(weights, row):
        rows.append(row)
        save_checkpoint(ckpt_path, net_cfg, weights=weights,
                        extra={"provenance": note, "iteration": row["iteration"]})
        with atomic_write(curve_path) as fh:
            fh.write(f"# {note}\n")
            fh.write("iteration,batches,samples,ler,loss\n")
            for r in rows:
                fh.write(f"{r['iteration']},{r['batches']},{r['samples']},"
                         f"{r['ler']!r},{r['loss']!r}\n")

    try:
        weights, _ = train_mod.train_loop(
            train_cfg, net_cfg, layout, iteration_cb=on_iteration)
    except train_mod.TrainingDiverged as exc:
        raise ComputeError(str(exc)) from exc
    if not rows:
        on_iteration(weights, {"iteration": 0, "batches": 0, "samples": 0,
                               "ler": float("nan"), "loss": float("nan")})
    print(f"trained {net_cfg.n1}/{net_cfg.n2} {net_cfg.transfer} "
          f"(rotated={net_cfg.rotated}) at d={net_cfg.d}; "
          f"checkpoint: {ckpt_path}")
    return 0


def _eps_grid(cfg: dict):
    if cfg["eps_list"] is not None:
        return cfg["eps_list"]
    return eval_mod.default_eps_grid(cfg["eps_points"], cfg["eps_min"],
                                     cfg["eps_max"])


def _decoder_from_args(args, cfg: dict):
    """(decoder, layout, label) for eval runs; ``--decoder`` and ``-d`` beat
    the config's ``decoder`` and ``distance``."""
    if args.checkpoint:
        if not os.path.exists(args.checkpoint):
            raise MissingInput(f"checkpoint not found: {args.checkpoint}")
        net_cfg, weights, qweights = load_checkpoint(args.checkpoint)
        layout = build_layout(net_cfg.d)
        bits = cfg["bits"]
        if weights is None and qweights is not None and not bits:
            return eval_mod.NNFixedDecoder(net_cfg, qweights), layout, "nn-fixed"
        if weights is None:
            raise ConfigError("checkpoint has no float weights")
        quant = QuantSpec(bits, cfg["extra_sample_bit"]) if bits else None
        label = f"nn-fixed{bits}" if bits else "nn-float"
        return eval_mod.nn_decoder(net_cfg, weights, quant), layout, label
    name = args.decoder or cfg["decoder"]
    d = args.distance if args.distance is not None else cfg["distance"]
    if d is None:
        raise ConfigError("eval needs a distance (flag or config)")
    layout = build_layout(d)
    if name == "mwpm":
        return eval_mod.MwpmBenchmarkDecoder(layout), layout, "mwpm"
    if name == "trivial":
        return eval_mod.TrivialDecoder(), layout, "trivial"
    raise ConfigError(f"unknown decoder {name!r} (want mwpm, trivial or --checkpoint)")


def cmd_eval(args) -> int:
    parsed, cfg = load_config(args)
    decoder, layout, label = _decoder_from_args(args, cfg)
    points = eval_mod.benchmark(decoder, layout, _eps_grid(cfg), cfg["shots"],
                                cfg["seed"])
    eval_mod.write_points_csv(args.out, points, distance=layout.d, decoder=label,
                              header_note=provenance(parsed, cfg["seed"]))
    try:
        p_th, (lo, hi) = eval_mod.pseudo_threshold(points)
        print(f"{label} d={layout.d}: p_th = {p_th:.5f}  "
              f"(99.9% CI {lo:.5f}..{hi:.5f})")
    except eval_mod.NoCrossing:
        print(f"{label} d={layout.d}: no pseudo-threshold crossing on the grid")
    print(f"curve written to {args.out}")
    return 0


def cmd_fit(args) -> int:
    _, header, body = _read_table(args.input, "curve file", eval_mod.CURVE_COLUMNS)
    points, distance, decoder = eval_mod.parse_points(header, body)
    if not points:
        raise ConfigError(f"no benchmark points in {args.input}")
    try:
        fit = eval_mod.fit_model(points)
    except ValueError as exc:
        raise ComputeError(str(exc)) from exc
    doc = {
        "meta": {"version": __version__, "input": os.path.basename(args.input),
                 "distance": distance, "decoder": decoder},
        "p_th": fit.p_th, "s": fit.s, "c": fit.c, "residual": fit.residual,
    }
    try:
        p_th, (lo, hi) = eval_mod.pseudo_threshold(points)
        doc["crossing"] = {"p_th": p_th, "ci_low": lo, "ci_high": hi}
    except eval_mod.NoCrossing:
        doc["crossing"] = None
    text = json.dumps(doc, indent=2)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_cost(args) -> int:
    if args.budget_report:
        return _cmd_cost_budget_report(args)
    if args.n1 is None or args.n2 is None or args.distance is None:
        raise ConfigError("cost needs --distance, --n1 and --n2")
    quant = QuantSpec(args.bits) if args.bits else None
    net_cfg = NetworkConfig(d=args.distance, n1=args.n1, n2=args.n2,
                            transfer=args.transfer, quant=quant)
    try:
        report = hwcost.network_cost(net_cfg)
    except ValueError as exc:
        raise ComputeError(str(exc)) from exc
    doc = {"meta": {"version": __version__, "config": net_cfg.to_dict()}}
    doc.update(report.to_dict())
    print(json.dumps(doc, indent=2))
    return 0


def _read_table(path: str, what: str, columns):
    """(comment lines, header cells, data lines) of a CSV table whose header
    names every one of ``columns``; blank lines are dropped."""
    if not os.path.exists(path):
        raise MissingInput(f"{what} not found: {path}")
    with open(path) as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    notes = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    if not body:
        raise ConfigError(f"{what} has no header row")
    header = body[0].split(",")
    for col in columns:
        if col not in header:
            raise ConfigError(f"column not found: {col!r}")
    return notes, header, body[1:]


def _cmd_cost_budget_report(args) -> int:
    """Optimal distance per cost budget, from joined sweep rows."""
    columns = ("distance", args.cost_col, "p_th", "slope", "c", "status")
    _, header, body = _read_table(args.budget_report, "sweep file", columns)
    if not args.budgets:
        raise ConfigError("--budgets is required with --budget-report")
    budgets = [float(b) for b in args.budgets.split(",") if b]
    idx = {k: header.index(k) for k in columns}
    entries = []
    for line in body:
        cells = line.split(",")
        if cells[idx["status"]] != "ok":
            continue
        try:
            fit = eval_mod.FitResult(float(cells[idx["p_th"]]),
                                     float(cells[idx["slope"]]),
                                     float(cells[idx["c"]]), 0.0)
            entries.append((int(cells[idx["distance"]]),
                            float(cells[idx[args.cost_col]]), fit))
        except ValueError:
            continue
    if not entries:
        raise ComputeError("no usable rows (need ok status with fit columns)")
    rows = hwcost.optimal_distance_report(entries, budgets,
                                         eval_mod.default_eps_grid())
    out_lines = [f"# scdec v{__version__} budget report cost_col={args.cost_col}",
                 "budget,eps_p,distance,eps_l"]
    out_lines += [f"{b!r},{e!r},{d},{el!r}" for b, e, d, el in rows]
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_SWEEP_COLUMNS = ("distance,n1,n2,transfer,rotated,bits,reg_bits,seed,p_th,"
                  "ci_low,ci_high,slope,c,residual,pp_bits,fa_count,"
                  "tree_depth,bitops,status")


def cmd_sweep(args) -> int:
    parsed, cfg = load_config(args, axes=True)
    if cfg["distance"] is None:
        raise ConfigError("sweep needs a 'distance' key")
    layout = build_layout(cfg["distance"])
    seed = cfg["seed"]
    # one net per reg_bits level, so the best can be picked downstream
    cells = list(itertools.product(cfg["n1"], cfg["n2"], cfg["transfer"],
                                   cfg["rotated"], cfg["bits"], cfg["reg_bits"]))
    # every training config, its p_train, every cell's network and the eval
    # settings are checked before a cell trains
    train_cfgs = {rb: _train_config({**cfg, "reg_bits": rb}) for rb in cfg["reg_bits"]}
    for tc in train_cfgs.values():
        tc.resolved_p_train(layout.d)
    net_cfgs = [_sweep_net(cfg, layout.d, cell) for cell in cells]
    eval_mod.check_settings(_eps_grid(cfg), cfg["shots"], seed)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    lines = [f"# {provenance(parsed, seed)}", _SWEEP_COLUMNS]
    trained = {}
    for cell, net_cfg in zip(cells, net_cfgs):
        n1, n2, transfer, rotated, bits, reg_bits = cell
        prefix = (f"{layout.d},{n1},{n2},{transfer},{int(rotated)},{bits},"
                  f"{reg_bits},{seed}")
        try:
            lines.append(prefix + "," + _sweep_cell(cfg, layout, train_cfgs[reg_bits],
                                                    trained, net_cfg))
        except Exception as exc:  # the cell is reported, never dropped
            reason = str(exc).replace(",", ";").replace("\n", " ")[:120]
            lines.append(prefix + "," + "," * 10 + f"error:{reason}")
    with atomic_write(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(cells)} sweep cells written to {args.out}")
    return 0


def _sweep_net(cfg, d: int, cell) -> NetworkConfig:
    """The network of one sweep cell; a bad axis value is a ConfigError."""
    n1, n2, transfer, rotated, bits, _ = cell
    try:
        quant = QuantSpec(bits, cfg["extra_sample_bit"]) if bits else None
        return NetworkConfig(d=d, n1=n1, n2=n2, transfer=transfer,
                             rotated=rotated, quant=quant)
    except ValueError as exc:
        raise ConfigError(f"sweep cell n1={n1} n2={n2} transfer={transfer} "
                          f"rotated={rotated} bits={bits}: {exc}") from None


def _sweep_cell(cfg, layout, train_cfg, trained, net_cfg) -> str:
    if net_cfg.quant is not None:
        # a cell whose decoder cannot be built trains and samples nothing
        fixed_nonlinearity(net_cfg.transfer)
    # the float net a cell trains does not depend on its bits
    net_key = (net_cfg.n1, net_cfg.n2, net_cfg.transfer, net_cfg.rotated,
               train_cfg.reg_bits)
    if net_key not in trained:
        trained[net_key] = train_mod.train_loop(train_cfg, net_cfg, layout)[0]
    decoder = eval_mod.nn_decoder(net_cfg, trained[net_key], net_cfg.quant)
    points = eval_mod.benchmark(decoder, layout, _eps_grid(cfg), cfg["shots"],
                                cfg["seed"])
    try:
        p_th, (lo, hi) = eval_mod.pseudo_threshold(points)
        cross = f"{p_th!r},{lo!r},{hi!r}"
    except eval_mod.NoCrossing:
        cross = ",,"
    try:
        fit = eval_mod.fit_model(points)
        fitcols = f"{fit.s!r},{fit.c!r},{fit.residual!r}"
    except ValueError:
        fitcols = ",,"
    report = hwcost.network_cost(net_cfg)
    return (f"{cross},{fitcols},{report.pp_bits},{report.fa_count},"
            f"{report.tree_depth},{report.bitops},ok")


def cmd_pareto(args) -> int:
    note, header, body = _read_table(args.input, "input file",
                                     (args.cost_col, args.perf_col))
    ci = header.index(args.cost_col)
    pi = header.index(args.perf_col)
    rows = []
    for line in body:
        cells = line.split(",")
        try:
            rows.append((float(cells[ci]), float(cells[pi]), line))
        except (ValueError, IndexError):
            continue  # error-marked or incomplete cells are not comparable
    if not rows:
        raise ComputeError(f"no usable rows (need numeric {args.cost_col!r} "
                           f"and {args.perf_col!r} cells)")
    front = hwcost.pareto_front([(c, p) for c, p, _ in rows])
    front_set = set(front)
    out_lines = note + [",".join(header)]
    out_lines += [line for c, p, line in rows if (c, p) in front_set]
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------- main --

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdec", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layout", help="dump the lattice geometry as JSON")
    p.add_argument("--distance", "-d", type=int, required=True)
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("decode", help="decode one syndrome bit-string")
    p.add_argument("--distance", "-d", type=int, required=True)
    p.add_argument("--decoder", choices=("ped", "mwpm"), default="ped")
    p.add_argument("--syndrome", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("train", help="train a network with on-the-fly sampling")
    p.add_argument("--config", help="flat KEY = VALUE config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", default="runs/train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="Monte Carlo logical error rate curve")
    p.add_argument("--config", help="flat KEY = VALUE config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--checkpoint", help="evaluate a trained network")
    p.add_argument("--decoder", choices=("mwpm", "trivial"))
    p.add_argument("--distance", "-d", type=int)
    p.add_argument("--out", default="curve.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="layer-size / transfer / bits sweep")
    p.add_argument("--config", help="flat KEY = VALUE config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit the error-rate model to a curve CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cost", help="structural hardware cost of a network")
    p.add_argument("--distance", "-d", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--bits", type=int, default=0)
    p.add_argument("--transfer", choices=TRANSFERS, default="sqnl")
    p.add_argument("--budget-report", metavar="SWEEP_CSV",
                   help="emit the optimal-distance-per-budget report instead")
    p.add_argument("--budgets", help="comma-separated cost budgets")
    p.add_argument("--cost-col", default="bitops")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("pareto", help="non-dominated subset of a results CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--cost-col", required=True)
    p.add_argument("--perf-col", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pareto)
    return parser


# glibc mallopt parameters, and the one value both thresholds are set to:
# 32 MiB is the largest mmap threshold glibc accepts.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
HEAP_KEEP_BYTES = 32 << 20


def _keep_freed_heap() -> None:
    """Let this process's allocator keep freed memory for reuse.

    Every training batch frees about a megabyte of numpy temporaries.  By
    default glibc hands the heap top back to the kernel once more than its
    trim threshold is free, so the next batch faults the same pages in again.
    Here blocks below 32 MiB come from the heap, and the heap keeps up to
    32 MiB of free top, so a batch reuses resident pages.  Setting either
    parameter turns off glibc's dynamic thresholds, so both are set.  The
    worker threads of :mod:`scdec._threads` would each get an arena of their
    own, outside this policy; one arena keeps them on the main heap.  Only
    :func:`main` calls this: importing scdec leaves the allocator alone.  A
    libc without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, HEAP_KEEP_BYTES)
    mallopt(M_TRIM_THRESHOLD, HEAP_KEEP_BYTES)
    mallopt(M_ARENA_MAX, 1)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _keep_freed_heap()
    try:
        return args.func(args)
    except (ConfigError, MissingInput, ComputeError) as exc:
        print(f"scdec: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"scdec: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
