"""Command-line front end.

Subcommands: train, evaluate, predict, bench, inspect-embeddings, check-pe.
Exit codes: 0 success, 1 usage/config error, 2 data error (an unwritable
output path and running out of memory included), 3 numeric failure. Heavy
imports stay inside handlers so `bench` can pin the BLAS thread count
before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import warnings

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_SPLIT_INDEX = {"train": 0, "val": 1, "test": 2}


def _positive(kind):
    """argparse type for counts (int) and tolerances (float): finite, above 0."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" message
    return parse


def _add_config_flags(sp):
    """One flag per RunConfig field, typed by its annotation; None means unset."""
    from .config import RunConfig

    sp.add_argument("--config", metavar="JSON",
                    help="config file; flags below override its values")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        kind = f.type.split(" | ")[0]
        if kind == "tuple":  # pyramidal windows: one or more integers
            sp.add_argument(flag, type=int, nargs="+", dest=f.name, **f.metadata)
        else:
            sp.add_argument(flag, type={"int": int, "float": float, "str": str}[kind],
                            dest=f.name, **f.metadata)


def _add_split_flags(sp):
    """The flags that pick a checkpoint and the split it runs on (`_load_split`)."""
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--dataset")
    sp.add_argument("--split", choices=tuple(_SPLIT_INDEX), default="test")


def resolve_config(args):
    """The config file's values, each overridden by its flag when given."""
    from .config import RunConfig, read_config_file

    merged = read_config_file(args.config) if args.config else {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name)
        if value is not None:
            merged[f.name] = value
    return RunConfig.from_dict(merged)


def _load_table(path):
    from .config import ConfigError
    from .data import load_csv

    if not path:
        raise ConfigError("a dataset path is required (--dataset or config)")
    return load_csv(path)


def _load_split(args, out=None):
    """The model in `--checkpoint`, its dataset and the row range of `--split`;
    `out`, if given, is checked against both files before the dataset is read."""
    from .data import DataError, split_ranges
    from .training import load_checkpoint

    model = load_checkpoint(args.checkpoint)
    dataset = args.dataset or model.config.dataset
    if out is not None:
        _check_output(out, (args.checkpoint, dataset))
    table = _load_table(dataset)
    if model.channels != table.n_channels:
        raise DataError(f"checkpoint expects {model.channels} channels, dataset "
                        f"has {table.n_channels}")
    config = model.config
    ranges = split_ranges(table.length, config.split_scheme, config.lookback,
                          config.pred_len)
    return model, table, ranges[_SPLIT_INDEX[args.split]]


def _check_output(path, taken=()):
    """Raise now if `path` names one of `taken`, the files the command reads
    or writes before it (ConfigError), or could not be written at the end of
    the run (DataError)."""
    from .config import ConfigError
    from .data import DataError

    for other in taken:
        if other and os.path.realpath(other) == os.path.realpath(path):
            raise ConfigError(f"output {path} is the same file as {other}")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise DataError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path) or not os.access(folder, os.W_OK):
        raise DataError(f"cannot write {path}: not a writable file path")


def cmd_train(args):
    from .data import write_rows
    from .training import HISTORY_COLUMNS, save_checkpoint, train

    config = resolve_config(args)
    _check_output(args.checkpoint, (args.config, config.dataset))
    _check_output(args.history, (args.config, config.dataset, args.checkpoint))
    table = _load_table(config.dataset)

    def progress(row):
        print(f"epoch {row['epoch']:3d}  lr {row['lr']:.2e}  "
              f"train_mae {row['train_mae']:.5f}  val_mae {row['val_mae']:.5f}  "
              f"val_mse {row['val_mse']:.5f}  {row['seconds']:.1f}s")

    result = train(config, table, progress=progress)
    save_checkpoint(args.checkpoint, result.model)
    write_rows(args.history, HISTORY_COLUMNS, result.history)
    stop = "early stop" if result.stopped_early else "epoch cap"
    print(f"done ({stop}) after {result.epochs_run} epochs; "
          f"best val_mae {result.best_val_mae:.5f}")
    print(f"checkpoint: {args.checkpoint}")
    print(f"history: {args.history}")
    return EXIT_OK


def cmd_evaluate(args):
    from .training import evaluate

    model, table, row_range = _load_split(args)
    metrics = evaluate(model, table.values, row_range, model.config)
    print(f"{args.split} mse {metrics.mse:.6f} mae {metrics.mae:.6f}")
    if args.per_horizon:
        for step, (mse, mae) in enumerate(metrics.per_horizon, start=1):
            print(f"  h{step:03d} mse {mse:.6f} mae {mae:.6f}")
    return EXIT_OK


def cmd_predict(args):
    from .data import write_predictions
    from .training import predict_over_range

    model, table, row_range = _load_split(args, args.out)
    batches = predict_over_range(model, table.values, row_range, model.config)
    write_predictions(args.out, batches, table.channels)
    print(f"predictions: {args.out}")
    return EXIT_OK


def cmd_bench(args):
    from .analysis import BENCH_COLUMNS, scaling_bench
    from .data import write_rows

    _check_output(args.out)
    rows = scaling_bench(args.lookbacks, args.windows, d_model=args.d_model,
                         channels=args.channels, conv_channels=args.conv_channels,
                         e_layers=args.e_layers, heads=args.heads,
                         repetitions=args.repetitions, batch_size=args.batch_size,
                         include_backward=args.backward, seed=args.seed)
    print(f"{'lookback':>9} {'median_s':>10} {'mean_s':>10} {'ratio':>7}")
    for row in rows:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.2f}"
        print(f"{row['lookback']:9d} {row['median_s']:10.5f} "
              f"{row['mean_s']:10.5f} {ratio:>7}")
    write_rows(args.out, BENCH_COLUMNS, rows)
    print(f"bench csv: {args.out}")
    return EXIT_OK


def cmd_inspect_embeddings(args):
    from .data import window_iter, write_matrix
    from .tensor import Tensor, no_grad

    model, table, row_range = _load_split(args, args.out)
    batch = next(window_iter(table.values, row_range, model.config.lookback,
                             model.config.pred_len, batch_size=args.count))
    with no_grad():
        tokens = model.embed(Tensor(batch.inputs))[0].data  # (windows, C, D)
    d = tokens.shape[2]
    write_matrix(args.out, ["window_start", "variable"] + [f"e{i}" for i in range(d)],
                 [(int(start), name) for start in batch.starts
                  for name in table.channels], tokens.reshape(-1, d))
    print(f"embeddings: {args.out} ({tokens.shape[0]} windows x "
          f"{tokens.shape[1]} variables, D={tokens.shape[2]})")
    return EXIT_OK


def cmd_check_pe(args):
    from .analysis import check_pe

    worst = check_pe(trials=args.trials, d_model=args.d_model, seed=args.seed)
    print(f"max deviation over {args.trials} trials: {worst:.3e} "
          f"(tolerance {args.tolerance:.0e})")
    if worst < args.tolerance:
        print("translation invariance holds")
        return EXIT_OK
    print("translation invariance violated", file=sys.stderr)
    return EXIT_NUMERIC


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prformer",
        description="Multivariate forecasting with pyramidal RNN variate "
                    "embeddings and a Transformer encoder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write checkpoint + history")
    _add_config_flags(p)
    p.add_argument("--checkpoint", default="model.ckpt")
    p.add_argument("--history", default="history.csv")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="metrics for a checkpoint on one split")
    _add_split_flags(p)
    p.add_argument("--per-horizon", action="store_true", dest="per_horizon")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("predict", help="write per-window forecasts as CSV")
    _add_split_flags(p)
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("bench", help="forward (or train-step) time scaling "
                                     "across lookbacks")
    p.add_argument("--lookbacks", type=int, nargs="+",
                   default=[720, 1440, 2880])
    p.add_argument("--windows", type=int, nargs="+", default=[24, 48, 96])
    p.add_argument("--d-model", type=int, default=64, dest="d_model")
    p.add_argument("--channels", type=_positive(int), default=3)
    p.add_argument("--conv-channels", type=int, default=16, dest="conv_channels")
    p.add_argument("--e-layers", type=int, default=1, dest="e_layers")
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--repetitions", type=_positive(int), default=5)
    p.add_argument("--batch-size", type=int, default=1, dest="batch_size")
    p.add_argument("--backward", action="store_true",
                   help="time a full training step (forward, L1 loss, "
                        "backward, Adam) instead of the forward pass only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("inspect-embeddings",
                       help="export variate-token embeddings as CSV")
    _add_split_flags(p)
    p.add_argument("--count", type=_positive(int), default=1,
                   help="number of windows to export")
    p.add_argument("--out", default="embeddings.csv")
    p.set_defaults(handler=cmd_inspect_embeddings)

    p = sub.add_parser("check-pe",
                       help="verify positional-encoding translation invariance")
    p.add_argument("--d-model", type=int, default=None, dest="d_model",
                   help="fixed width; default draws random even widths")
    p.add_argument("--trials", type=_positive(int), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=_positive(float), default=1e-9)
    p.set_defaults(handler=cmd_check_pe)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["bench"]:
        # must happen before numpy is first imported to take effect; a
        # thread count already set in the environment is kept
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    from .config import ConfigError
    from .data import DataError
    from .training import DivergenceError

    with warnings.catch_warnings():  # each warning shown is one stderr line
        warnings.showwarning = lambda message, *_, **__: print(f"warning: {message}",
                                                               file=sys.stderr)
        try:
            return args.handler(args)
        except ConfigError as e:
            print(f"error: {e}", file=sys.stderr)
            print(parser.format_usage(), end="", file=sys.stderr)
            return EXIT_USAGE
        except DataError as e:
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        except UnicodeEncodeError as e:  # a path from a JSON file the locale cannot name
            print(f"data error: cannot name {e.object!r} in the {e.encoding} file "
                  f"system encoding", file=sys.stderr)
            return EXIT_DATA
        except MemoryError as e:
            detail = str(e) or "reduce the model or its inputs"
            print(f"data error: out of memory: {detail}", file=sys.stderr)
            return EXIT_DATA
        except DivergenceError as e:
            print(f"numeric failure: {e}", file=sys.stderr)
            return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
