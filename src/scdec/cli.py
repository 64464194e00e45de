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
import hashlib
import itertools
import json
import os
import sys

import numpy as np

from . import __version__, eval as eval_mod, hwcost, ped, train as train_mod
from .lattice import build_layout
from .mwpm import decode_mwpm
from .nn import (
    NetworkConfig,
    QuantSpec,
    load_checkpoint,
    quantize_weights,
    save_checkpoint,
)
from .nn.config import BaseWeights
from .noise import Syndrome
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


def load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise MissingInput(f"config file not found: {args.config}")
        with open(args.config) as fh:
            cfg.update(parse_config_text(fh.read()))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = _parse_value(value.strip())
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def provenance(cfg: dict, seed) -> str:
    return f"scdec v{__version__} config={config_hash(cfg)} seed={seed}"


def _get(cfg: dict, key: str, default, cast=None):
    value = cfg.get(key, default)
    if cast is not None and value is not None:
        try:
            value = cast(value)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r}: bad value {value!r}") from None
    return value


def _as_list(value):
    if value is None:
        return None
    return value if isinstance(value, list) else [value]


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
    syn = Syndrome(np.array([int(b) for b in bits], dtype=np.uint8))
    if args.decoder == "ped":
        corr = ped.decode(layout, syn)
    elif args.decoder == "mwpm":
        corr = decode_mwpm(layout, syn)
    else:
        raise ConfigError(f"unknown decoder {args.decoder!r}")
    print("x " + "".join(str(int(b)) for b in corr.x_bits))
    print("z " + "".join(str(int(b)) for b in corr.z_bits))
    return 0


def _net_config(cfg: dict, quant: QuantSpec | None = None) -> NetworkConfig:
    return NetworkConfig(
        d=_get(cfg, "distance", None, int),
        n1=_get(cfg, "n1", 16, int),
        n2=_get(cfg, "n2", 4, int),
        transfer=_get(cfg, "transfer", "sqnl", str),
        rotated=_get(cfg, "rotated", True, bool),
        quant=quant,
    )


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        batch_size=_get(cfg, "batch_size", 4992, int),
        n_batches=_get(cfg, "n_batches", 300_000, int),
        lr=_get(cfg, "lr", 1e-3, float),
        beta1=_get(cfg, "beta1", 0.9, float),
        beta2=_get(cfg, "beta2", 0.999, float),
        eps=_get(cfg, "adam_eps", 1e-8, float),
        reg_scale=_get(cfg, "reg_scale", 0.0, float),
        reg_bits=_get(cfg, "reg_bits", 5, int),
        p_train=_get(cfg, "p_train", None, float),
        seed=_get(cfg, "seed", 0, int),
        log_every=_get(cfg, "log_every", 2000, int),
    )


def cmd_train(args) -> int:
    cfg = load_config(args)
    if "distance" not in cfg:
        raise ConfigError("train needs a 'distance' key")
    net_cfg = _net_config(cfg)
    train_cfg = _train_config(cfg)
    layout = build_layout(net_cfg.d)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    curve_path = os.path.join(args.out, "curve.csv")
    note = provenance(cfg, train_cfg.seed)

    rows = []

    def on_iteration(weights, row):
        rows.append(row)
        save_checkpoint(ckpt_path, net_cfg, weights=weights,
                        extra={"provenance": note, "iteration": row["iteration"]})
        with open(curve_path, "w") as fh:
            fh.write(f"# {note}\n")
            fh.write("iteration,batches,samples,ler,loss\n")
            for r in rows:
                fh.write(f"{r['iteration']},{r['batches']},{r['samples']},"
                         f"{r['ler']!r},{r['loss']!r}\n")

    try:
        weights, history = train_mod.train_loop(
            train_cfg, net_cfg, layout, iteration_cb=on_iteration)
    except train_mod.TrainingDiverged as exc:
        raise ComputeError(str(exc)) from exc
    save_checkpoint(ckpt_path, net_cfg, weights=weights,
                    extra={"provenance": note, "iteration": len(history)})
    if not rows:
        on_iteration(weights, {"iteration": 0, "batches": 0, "samples": 0,
                               "ler": float("nan"), "loss": float("nan")})
    print(f"trained {net_cfg.n1}/{net_cfg.n2} {net_cfg.transfer} "
          f"(rotated={net_cfg.rotated}) at d={net_cfg.d}; "
          f"checkpoint: {ckpt_path}")
    return 0


def _eps_grid(cfg: dict):
    explicit = cfg.get("eps_list")
    if explicit is not None:
        return [float(e) for e in _as_list(explicit)]
    return eval_mod.default_eps_grid(
        _get(cfg, "eps_points", 10, int),
        _get(cfg, "eps_min", 0.03, float),
        _get(cfg, "eps_max", 0.3, float),
    )


def _decoder_from_args(args, cfg: dict):
    """(decoder, layout, label) for eval runs."""
    if getattr(args, "checkpoint", None):
        if not os.path.exists(args.checkpoint):
            raise MissingInput(f"checkpoint not found: {args.checkpoint}")
        net_cfg, weights, qweights = load_checkpoint(args.checkpoint)
        layout = build_layout(net_cfg.d)
        bits = _get(cfg, "bits", 0, int)
        if bits:
            spec = QuantSpec(bits, _get(cfg, "extra_sample_bit", False, bool))
            if weights is None:
                raise ConfigError("checkpoint has no float weights to quantize")
            full = (train_mod.expand_rotated(net_cfg, weights)
                    if isinstance(weights, BaseWeights) else weights)
            qweights = quantize_weights(full, spec)
            return eval_mod.NNFixedDecoder(net_cfg, qweights), layout, f"nn-fixed{bits}"
        if qweights is not None and weights is None:
            return eval_mod.NNFixedDecoder(net_cfg, qweights), layout, "nn-fixed"
        return eval_mod.NNFloatDecoder(net_cfg, weights), layout, "nn-float"
    name = getattr(args, "decoder", None) or _get(cfg, "decoder", None, str)
    d = _get(cfg, "distance", getattr(args, "distance", None), int)
    if d is None:
        raise ConfigError("eval needs a distance (flag or config)")
    layout = build_layout(d)
    if name == "mwpm":
        return eval_mod.MwpmBenchmarkDecoder(layout), layout, "mwpm"
    if name == "trivial":
        return eval_mod.TrivialDecoder(), layout, "trivial"
    raise ConfigError(f"unknown decoder {name!r} (want mwpm, trivial or --checkpoint)")


def cmd_eval(args) -> int:
    cfg = load_config(args)
    decoder, layout, label = _decoder_from_args(args, cfg)
    seed = _get(cfg, "seed", 0, int)
    shots = _get(cfg, "shots", 100_000, int)
    points = eval_mod.benchmark(decoder, layout, _eps_grid(cfg), shots, seed)
    eval_mod.write_points_csv(args.out, points, distance=layout.d, decoder=label,
                              header_note=provenance(cfg, seed))
    try:
        p_th, (lo, hi) = eval_mod.pseudo_threshold(points)
        print(f"{label} d={layout.d}: p_th = {p_th:.5f}  "
              f"(99.9% CI {lo:.5f}..{hi:.5f})")
    except eval_mod.NoCrossing:
        print(f"{label} d={layout.d}: no pseudo-threshold crossing on the grid")
    print(f"curve written to {args.out}")
    return 0


def cmd_fit(args) -> int:
    if not os.path.exists(args.input):
        raise MissingInput(f"curve file not found: {args.input}")
    points, distance, decoder = eval_mod.read_points_csv(args.input)
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
        with open(args.out, "w") as fh:
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
                            transfer=args.transfer, rotated=args.rotated,
                            quant=quant)
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
    from .eval import FitResult, default_eps_grid

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
            fit = FitResult(float(cells[idx["p_th"]]), float(cells[idx["slope"]]),
                            float(cells[idx["c"]]), 0.0)
            entries.append((int(cells[idx["distance"]]),
                            float(cells[idx[args.cost_col]]), fit))
        except ValueError:
            continue
    if not entries:
        raise ComputeError("no usable rows (need ok status with fit columns)")
    rows = hwcost.optimal_distance_report(entries, budgets, default_eps_grid(10))
    out_lines = [f"# scdec v{__version__} budget report cost_col={args.cost_col}",
                 "budget,eps_p,distance,eps_l"]
    out_lines += [f"{b!r},{e!r},{d},{el!r}" for b, e, d, el in rows]
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_SWEEP_COLUMNS = ("distance,n1,n2,transfer,rotated,bits,reg_bits,seed,p_th,"
                  "ci_low,ci_high,slope,c,residual,pp_bits,fa_count,"
                  "tree_depth,bitops,status")


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    if "distance" not in cfg:
        raise ConfigError("sweep needs a 'distance' key")
    d = _get(cfg, "distance", None, int)
    layout = build_layout(d)
    n1_list = [int(v) for v in _as_list(cfg.get("n1", [8, 16]))]
    n2_list = [int(v) for v in _as_list(cfg.get("n2", [4]))]
    transfers = [str(v) for v in _as_list(cfg.get("transfer", ["sqnl"]))]
    rotated_list = [bool(v) for v in _as_list(cfg.get("rotated", [True]))]
    bits_list = [int(v) for v in _as_list(cfg.get("bits", [0]))]
    # training regularization grid; list it to pick the best level downstream
    reg_bits_list = [int(v) for v in _as_list(cfg.get("reg_bits", [5]))]
    seed = _get(cfg, "seed", 0, int)
    shots = _get(cfg, "shots", 100_000, int)
    eps = _eps_grid(cfg)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    lines = [f"# {provenance(cfg, seed)}", _SWEEP_COLUMNS]
    trained = {}
    cells = list(itertools.product(n1_list, n2_list, transfers, rotated_list,
                                   bits_list, reg_bits_list))
    for n1, n2, transfer, rotated, bits, reg_bits in cells:
        prefix = (f"{d},{n1},{n2},{transfer},{int(rotated)},{bits},"
                  f"{reg_bits},{seed}")
        try:
            lines.append(prefix + "," + _sweep_cell(
                cfg, layout, trained, n1, n2, transfer, rotated, bits,
                reg_bits, seed, shots, eps))
        except Exception as exc:  # the cell is reported, never dropped
            reason = str(exc).replace(",", ";").replace("\n", " ")[:120]
            lines.append(prefix + "," + "," * 10 + f"error:{reason}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(cells)} sweep cells written to {args.out}")
    return 0


def _sweep_cell(cfg, layout, trained, n1, n2, transfer, rotated, bits,
                reg_bits, seed, shots, eps) -> str:
    net_key = (n1, n2, transfer, rotated, reg_bits)
    quant = QuantSpec(bits, _get(cfg, "extra_sample_bit", False, bool)) if bits else None
    net_cfg = NetworkConfig(d=layout.d, n1=n1, n2=n2, transfer=transfer,
                            rotated=rotated, quant=quant)
    if net_key not in trained:
        tc = _train_config({**cfg, "reg_bits": reg_bits})
        base_cfg = NetworkConfig(d=layout.d, n1=n1, n2=n2, transfer=transfer,
                                 rotated=rotated)
        trained[net_key] = train_mod.train_loop(tc, base_cfg, layout)[0]
    weights = trained[net_key]
    if bits:
        full = (train_mod.expand_rotated(net_cfg, weights)
                if isinstance(weights, BaseWeights) else weights)
        decoder = eval_mod.NNFixedDecoder(net_cfg, quantize_weights(full, quant))
    else:
        decoder = eval_mod.NNFloatDecoder(net_cfg, weights)
    points = eval_mod.benchmark(decoder, layout, eps, shots, seed)
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
    front = hwcost.pareto_front([(c, p) for c, p, _ in rows])
    front_set = set(front)
    out_lines = note + [",".join(header)]
    out_lines += [line for c, p, line in rows if (c, p) in front_set]
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
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
    p.add_argument("--transfer", choices=("sqnl", "relu", "tanh"), default="sqnl")
    p.add_argument("--rotated", action="store_true")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
