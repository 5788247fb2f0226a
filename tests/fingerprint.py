"""Print hashes of seeded results, one line per item, to compare two trees.

    PYTHONPATH=src python tests/fingerprint.py > fingerprint.txt

Run it from the repository root on the parent and on the change, on one
host, and diff the two outputs: a change that claims "seeded runs bitwise
unchanged" must leave every line as it was. CI runs this script twice, once
with `PYTHONPATH` at this tree's `src/` and once at the parent commit's, and
fails on a difference unless CHANGES.md gains a `Seeded bits changed:` line
(see README). It also runs it under two `PYTHONHASHSEED` values and diffs
those outputs, because criterion 9 checks determinism only within one
process. pytest does not collect this file.

Every run trains on `mixed_table(n=600, seed=4)` with lookback 48, pred_len
12, windows 4/8/16, d_model 24, heads 2, conv_channels 4, dropout 0.1,
seed 3 and one BLAS thread:

- two-epoch runs of full, V1, V2 and V3
- full with max_epochs 8, patience 1 and lr 3e-2, which stops at epoch 4
- V1 with max_epochs 8, patience 2 and lr 5e-2, which stops at epoch 8

Each run's line hashes its parameters, its history without the `seconds`
column, its best-MAE/epochs/stopped flags, its checkpoint bytes and a
`no_grad` forward of the first test windows. Two more lines hash the table:
the bytes `save_csv` writes and the values, stamps and columns `load_csv`
reads back. One line, after the "full 2 epochs" line, hashes the bytes
`write_predictions` writes for that model's test split, through
`predict_over_range`.
"""

import os

# must precede the first numpy import to take effect
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from prformer import synthetic, tensor as T  # noqa: E402
from prformer.config import RunConfig  # noqa: E402
from prformer.data import (load_csv, save_csv, split_ranges, window_iter,  # noqa: E402
                            write_predictions)
from prformer.training import predict_over_range, save_checkpoint, train  # noqa: E402

BASE = dict(lookback=48, pred_len=12, pyramidal_windows=(4, 8, 16), d_model=24,
            heads=2, conv_channels=4, dropout=0.1, seed=3)
RUNS = {
    "full 2 epochs": dict(variant="full", max_epochs=2),
    "V1 2 epochs": dict(variant="V1", max_epochs=2),
    "V2 2 epochs": dict(variant="V2", max_epochs=2),
    "V3 2 epochs": dict(variant="V3", max_epochs=2),
    "full early stop": dict(variant="full", max_epochs=8, patience=1, lr=3e-2),
    "V1 early stop": dict(variant="V1", max_epochs=8, patience=2, lr=5e-2),
}


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def run_lines(name, overrides, table, work):
    config = RunConfig(**BASE, **overrides)
    result = train(config, table)
    model = result.model
    params = digest(*[(n, p.data.dtype.str, p.data.shape, p.data.tobytes())
                      for n, p in model.named_parameters()])
    history = digest([{k: v for k, v in row.items() if k != "seconds"}
                      for row in result.history])
    flags = (result.best_val_mae, result.epochs_run, result.stopped_early)
    save_checkpoint(work / "model.ckpt", model)
    test_range = split_ranges(table.length, config.split_scheme, config.lookback,
                              config.pred_len)[2]
    batch = next(window_iter(table.values, test_range, config.lookback,
                             config.pred_len, config.batch_size))
    with T.no_grad():
        forward = model.forward(T.Tensor(batch.inputs)).data
    yield (f"{name}: epochs {result.epochs_run} stopped {result.stopped_early} "
           f"params {params} history {history} flags {digest(flags)} "
           f"checkpoint {digest((work / 'model.ckpt').read_bytes())} "
           f"forward {digest(forward.dtype.str, forward.tobytes())}")
    if name == "full 2 epochs":
        write_predictions(work / "predictions.csv",
                          predict_over_range(model, table.values, test_range, config),
                          table.channels)
        yield f"{name} predictions bytes {digest((work / 'predictions.csv').read_bytes())}"


def main():
    table = synthetic.mixed_table(n=600, seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        save_csv(table, work / "table.csv")
        print(f"save_csv bytes {digest((work / 'table.csv').read_bytes())}")
        back = load_csv(work / "table.csv")
        print(f"load_csv values {digest(back.values.dtype.str, back.values.tobytes())} "
              f"timestamps {digest(back.timestamps)} channels {digest(back.channels)}")
        for name, overrides in RUNS.items():
            for line in run_lines(name, overrides, table, work):
                print(line, flush=True)


if __name__ == "__main__":
    main()
