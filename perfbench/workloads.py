"""The three workloads: their inputs, their untraced loops and their checks.

Every workload is a closed loop with one client in one process: the next
step or batch starts only when the previous one has finished. Inputs come
from `prformer.synthetic` seeded by the workload seed; the program sees only
the generated CSV. Table lengths are sized so that one run of about 55 s on
one core holds `TRAIN_JOBS` fixed-epoch `training.train` calls plus at least
`MIN_STEPS` timed steps. A `HostProbe` runs between the timed operations so
that their times can be reported host-normalized as well as wall-clock.
"""

from __future__ import annotations

import csv
import math
import resource
import time
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from prformer import baselines, data, synthetic, tensor as T, training
from prformer.config import RunConfig
from prformer.model import PRformer
from hostprobe import HostProbe, between_batches
from stats import min_samples, percentile
from tracing import is_cut, nospan, profile_models, train_step

HORIZON = 96
TAIL_Q = 75  # reported tail percentile; p90 would need 100 train steps per run
MIN_STEPS = min_samples(TAIL_Q)
SETUP_REPS = 9
TRAIN_JOBS = 3  # fixed-epoch training.train calls per train-* run
WARMUP_STEPS = 2  # first steps fault in fresh heap pages; not timed
TRACE_REPS = 5
# ops of today's train-step graph, reported as 0 where a workload has none
GRAPH_OPS = ("abs", "add", "concat", "conv1d", "div", "dropout", "exp",
             "matmul", "mean", "mul", "permute", "relu", "reshape", "scale",
             "sigmoid", "slice", "sqrt", "sub", "sum", "tanh", "upsample")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "forecast"
    rows: int
    channels: int
    lookback: int
    windows: tuple
    e_layers: int
    batch: int
    split: str
    epochs: int

    def config(self, seed):
        return RunConfig(lookback=self.lookback, pred_len=HORIZON,
                         pyramidal_windows=self.windows, e_layers=self.e_layers,
                         d_model=128, heads=8, batch_size=self.batch,
                         dropout=0.1, split_scheme=self.split,
                         max_epochs=self.epochs, patience=self.epochs,
                         seed=seed)


WORKLOADS = {w.name: w for w in (
    # ETTh1 shape at a long lookback: the pyramid and its backward dominate.
    # 7:1:2 keeps validation at 5 batches against 4 train batches per epoch.
    Workload("train-long", "train", rows=2376, channels=7, lookback=1440,
             windows=(24, 48, 96), e_layers=1, batch=32, split="7:1:2",
             epochs=3),
    # many channels, short lookback: attention, FFN and layer norm dominate.
    # 6:2:2 is the only split that leaves a 96-row validation set with
    # 7 train batches per epoch.
    Workload("train-wide", "train", rows=505, channels=128, lookback=96,
             windows=(24,), e_layers=3, batch=16, split="6:2:2", epochs=2),
    # the paper's ETTh1 forecaster, forward only; 320 test windows per pass
    Workload("forecast-long", "forecast", rows=2075, channels=7, lookback=720,
             windows=(24, 48, 96), e_layers=1, batch=32, split="6:2:2",
             epochs=1),
)}


def make_table(rows, channels, seed):
    """`channels` columns cut from independent 3-channel mixed tables."""
    parts = [synthetic.mixed_table(n=rows, seed=(seed, k))
             for k in range(math.ceil(channels / 3))]
    values = np.concatenate([p.values for p in parts], axis=1)[:, :channels]
    return data.SeriesTable(timestamps=parts[0].timestamps,
                            channels=[f"c{i}" for i in range(channels)],
                            values=np.ascontiguousarray(values))


def load_table(w, seed, work):
    """Generate the workload's table, write it as CSV and load it back."""
    path = work / "series.csv"
    data.save_csv(make_table(w.rows, w.channels, seed), path)
    return data.load_csv(path)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Counts operations and failed checks; collects metric values."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}  # name -> (value, unit, note)
        self.notes = []

    def op(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, ok, what):
        self.op(ok)
        self.notes.append(f"check {'ok  ' if ok else 'FAIL'} {what}")

    def put(self, name, value, unit, note=""):
        self.metrics[name] = (value, unit, note)


def _timings(out, walls, refs, label):
    """Step or batch percentiles: `walls` in seconds, `refs` in ref_ms."""
    for q in (50, TAIL_Q):
        out.put(f"step_ref_ms.p{q}", percentile(refs, q), "ref_ms",
                f"{label}.p{q} of {len(refs)}, host-normalized")
        out.put(f"step_ms.p{q}", 1000.0 * percentile(walls, q), "ms",
                f"{label}.p{q} of {len(walls)}, wall clock")


def _rates(out, windows, wall_s, ref_ms, label):
    out.put("windows_per_ref_s", 1000.0 * windows / ref_ms, "1/ref_s",
            f"{label}, host-normalized")
    out.put("windows_per_s", windows / wall_s, "1/s", f"{label}, wall clock")


def _probe_stats(out, probe):
    out.put("probe_ms.p50", 1000.0 * median(probe.samples), "ms",
            f"host probe, p50 of {len(probe.samples)}")


def _round_trip(out, model, inputs, work):
    path = work / "roundtrip.ckpt"
    training.save_checkpoint(path, model)
    loaded = training.load_checkpoint(path)
    with T.no_grad():
        a = model.forward(T.Tensor(inputs)).data
        b = loaded.forward(T.Tensor(inputs)).data
    out.check(a.dtype == b.dtype and np.array_equal(a, b),
              "checkpoint save/load gives a bitwise-identical forward")


def _warm_up(out, model, optimizer, batches, dropout_rng):
    for i in range(WARMUP_STEPS):
        loss = train_step(model, optimizer, batches[i % len(batches)],
                          dropout_rng, nospan)
        out.op(np.isfinite(loss.data))


def run_train(out, w, seed, seconds, work):
    config = w.config(seed)
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        table = load_table(w, seed, work)
        model = PRformer(config, w.channels)
        optimizer = training.Adam(model.named_parameters(), config.lr)
        setups.append(time.perf_counter() - t0)
    out.put("setup_s", median(setups), "s", f"median of {SETUP_REPS}")
    train_range, val_range, _ = data.split_ranges(
        table.length, config.split_scheme, w.lookback, HORIZON)
    deadline = time.perf_counter() + seconds

    probe = HostProbe()
    job_s, job_refs, maes = [], [], []
    for _ in range(TRAIN_JOBS):
        with between_batches(probe, training):
            result, wall, ref = probe.measure(training.train, config, table)
        job_s.append(wall)
        job_refs.append(ref)
        maes.append(result.best_val_mae)
        out.op(np.isfinite(result.best_val_mae))
    out.check(len(set(maes)) == 1,
              f"train.val_mae identical in all {TRAIN_JOBS} training jobs")
    n_train = data.window_count(train_range[1] - train_range[0], w.lookback, HORIZON)
    _rates(out, w.epochs * n_train, median(job_s), median(job_refs),
           f"train.windows_per_s: {w.epochs} epochs x {n_train} windows, "
           f"validation included, median of {TRAIN_JOBS} jobs")
    out.put("train.val_mae", result.best_val_mae, "1", "after the fixed epochs")

    batches = [b for b in data.window_iter(table.values, train_range, w.lookback,
                                           HORIZON, w.batch,
                                           shuffle_seed=(seed, 99))
               if len(b.starts) == w.batch]
    dropout_rng = np.random.default_rng((seed, 1))
    _warm_up(out, model, optimizer, batches, dropout_rng)
    walls, refs = [], []
    probe.run()  # a fresh probe before the first step, not one from before warm-up
    while time.perf_counter() < deadline or len(walls) < MIN_STEPS:
        batch = batches[len(walls) % len(batches)]
        loss, wall, ref = probe.measure(train_step, model, optimizer, batch,
                                        dropout_rng, nospan)
        walls.append(wall)
        refs.append(ref)
        out.op(np.isfinite(loss.data))
    _timings(out, walls, refs, "train_step_ms")
    _probe_stats(out, probe)

    _, persistence_mae = baselines.baseline_metrics(
        lambda x: baselines.persistence_forecast(x, HORIZON),
        table.values, val_range, w.lookback, HORIZON)
    out.check(result.best_val_mae < persistence_mae,
              f"val_mae {result.best_val_mae:.5f} beats persistence "
              f"{persistence_mae:.5f}")
    first_val = next(data.window_iter(table.values, val_range, w.lookback,
                                      HORIZON, w.batch))
    _round_trip(out, result.model, first_val.inputs, work)
    out.put("peak_rss_mb", peak_rss_mb(), "MB", "")


def _timed_batches(gen, probe, walls, refs, kept):
    """Re-yield (starts, y_true, y_pred), timing each wait on `gen`.

    A probe follows each wait, so every wait is bracketed by two probes.
    """
    while True:
        item, wall, ref = probe.measure(next, gen, None)
        if item is None:
            return
        walls.append(wall)
        refs.append(ref)
        kept.append(item)
        yield item


def _check_predictions(out, path, kept, n_windows, channels):
    y_pred = np.concatenate([p.reshape(-1) for _, _, p in kept]).astype(np.float64)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = n_windows * HORIZON * channels
    out.check(len(rows) == expected,
              f"predictions CSV has windows x H x C = {expected} rows ({len(rows)})")
    col = data.PREDICTION_COLUMNS.index("y_pred")
    written = np.array([float(r[col]) for r in rows])
    out.check(written.shape == y_pred.shape and np.array_equal(written, y_pred),
              "predictions CSV y_pred equals the in-memory forecast")


def run_forecast(out, w, seed, seconds, work):
    config = w.config(seed)
    ckpt = work / "model.ckpt"
    preds_csv = work / "predictions.csv"
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        table = load_table(w, seed, work)
        # stands in for a trained model: forward cost does not depend on weights
        training.save_checkpoint(ckpt, PRformer(config, w.channels))
        model = training.load_checkpoint(ckpt)
        setups.append(time.perf_counter() - t0)
    out.put("setup_s", median(setups), "s", f"median of {SETUP_REPS}")
    test_range = data.split_ranges(table.length, config.split_scheme,
                                   w.lookback, HORIZON)[2]
    n_test = data.window_count(test_range[1] - test_range[0], w.lookback, HORIZON)
    deadline = time.perf_counter() + seconds

    probe = HostProbe()
    walls, refs, eval_s, job_s, job_refs, maes = [], [], [], [], [], []
    first = True
    while time.perf_counter() < deadline or len(walls) < MIN_STEPS:
        model, load_s, load_ref = probe.measure(training.load_checkpoint, ckpt)
        with between_batches(probe, training):
            metrics, wall, _ = probe.measure(training.evaluate, model,
                                             table.values, test_range, config)
        eval_s.append(wall)
        kept = []
        _, write_s, write_ref = probe.measure(
            data.write_predictions, preds_csv, _timed_batches(
                training.predict_over_range(model, table.values, test_range,
                                            config),
                probe, walls, refs, kept), table.channels)
        job_s.append(load_s + write_s)
        job_refs.append(load_ref + write_ref)
        maes.append(metrics.mae)
        out.op(np.isfinite(metrics.mae))
        for _, _, pred in kept:
            out.op(np.isfinite(pred).all())
        if first:
            first = False
            err = np.concatenate([(p - y).astype(np.float64).reshape(-1)
                                  for _, y, p in kept])
            recomputed = float(np.abs(err).mean())
            out.check(math.isclose(metrics.mae, recomputed, rel_tol=1e-9),
                      f"evaluate MAE {metrics.mae:.9f} equals MAE from "
                      f"predict_over_range {recomputed:.9f}")
            _check_predictions(out, preds_csv, kept, n_test, w.channels)
    out.check(len(set(maes)) == 1, "evaluate MAE identical on every pass")
    out.put("forecast.test_mae", maes[0], "1", "from evaluate")
    _timings(out, walls, refs, "forecast_batch_ms")
    out.put("forecast.windows_per_s", n_test / median(eval_s), "1/s",
            f"evaluate, median of {len(eval_s)} passes, wall clock")
    _rates(out, n_test, median(job_s), median(job_refs),
           f"predict.windows_per_s: load_checkpoint + predict_over_range + "
           f"write_predictions, median of {len(job_s)}")
    _probe_stats(out, probe)
    first_test = next(data.window_iter(table.values, test_range, w.lookback,
                                       HORIZON, w.batch))
    _round_trip(out, model, first_test.inputs, work)
    out.put("peak_rss_mb", peak_rss_mb(), "MB", "")


# ---------------------------------------------------------------------------
# traced run

MOVES = {
    "pre.": "step_ms.p50 and windows_per_s on train-long, step_ms.p50 on "
            "forecast-long; not train-wide",
    "encoder.": "step_ms.p50 on train-wide; not train-long",
    "revin.": "step_ms.p50 on every workload (small)",
    "model.": "step_ms.p50 on forecast-long",
    "tensor.backward": "step_ms.* on train-long and train-wide",
    "tensor.graph": "peak_rss_mb on train-*",
    "training.mae_loss": "step_ms.p50 on train-*",
    "training.adam_step": "step_ms.p50 on train-*",
    "training.evaluate": "windows_per_s on train-* (validation)",
    "training.save_checkpoint": "none (once per training job)",
    "training.load_checkpoint": "setup_s and windows_per_s on forecast-long",
    "data.load_csv": "setup_s",
    "data.window_iter": "windows_per_s",
    "data.write_predictions": "windows_per_s on forecast-long",
    "trace.": "none (traced minus untraced train step)",
}


def moves(name):
    for prefix, text in MOVES.items():
        if name.startswith(prefix):
            return text
    return ""


def _put_ms(out, name, samples, scale=1000.0, unit="ms"):
    if samples:
        out.put(name, scale * median(samples), unit,
                f"p50 of {len(samples)} calls; moves {moves(name)}")


def run_traced(out, w, seed, work, tracer):
    """Per-layer spans, cuts, exact counts and the doubling ratio for `w`."""
    config = w.config(seed)
    data.save_csv(make_table(w.rows, w.channels, seed), work / "series.csv")
    with tracer.span("data.load_csv"):
        table = data.load_csv(work / "series.csv")
    model = PRformer(config, w.channels)
    ckpt = work / "model.ckpt"
    for r in range(3):
        tracer.step = f"io:{r}"
        with tracer.span("training.save_checkpoint"):
            training.save_checkpoint(ckpt, model)
        with tracer.span("training.load_checkpoint"):
            training.load_checkpoint(ckpt)
    train_range, val_range, _ = data.split_ranges(
        table.length, config.split_scheme, w.lookback, HORIZON)

    def batches_for(lookback, phase):
        it = data.window_iter(table.values, train_range, lookback, HORIZON,
                              w.batch, shuffle_seed=(seed, 99))
        got = []
        for i in range(TRACE_REPS):
            tracer.step = f"{phase}:{i}"
            with tracer.span("data.window_iter"):
                batch = next(it, None)
            if batch is None or len(batch.starts) < w.batch:
                break
            got.append(batch)
        return [got[i % len(got)] for i in range(TRACE_REPS)]

    batches = batches_for(w.lookback, "data")
    half = replace(config, lookback=w.lookback // 2)
    half_batches = batches_for(half.lookback, "half-data")
    _warm_up(out, model, training.Adam(model.named_parameters(), config.lr),
             batches, np.random.default_rng((seed, 7)))
    with T.no_grad():
        reference = model.forward(T.Tensor(batches[0].inputs)).data

    untraced = []
    tracer.install()
    try:
        tracer.step = "check:0"
        with T.no_grad():
            traced = model.forward(T.Tensor(batches[0].inputs)).data
        out.check(np.array_equal(reference, traced),
                  "traced forward reproduces model.forward bitwise")
        (counts, _), finite = profile_models(tracer, [
            ("", model, batches, is_cut),
            ("half-", PRformer(half, w.channels), half_batches,
             lambda name: name == "pre.multi_scale_rnn")], TRACE_REPS, seed, untraced)
        out.op(finite)
        for r in range(2):
            tracer.step = f"eval:{r}"
            with tracer.span("training.evaluate"):
                training.evaluate(model, table.values, val_range, config)
        kept = list(training.predict_over_range(model, table.values, val_range,
                                                config))
        tracer.step = "write:0"
        with tracer.span("data.write_predictions"):
            data.write_predictions(work / "predictions.csv", iter(kept),
                                   table.channels)
        rows = sum(p.size for _, _, p in kept)
    finally:
        tracer.uninstall()

    fwd_phase = "step" if w.kind == "train" else "forward"
    for name in tracer.names(fwd_phase):
        if name.startswith(("pre.", "encoder.", "revin.normalize",
                            "revin.denormalize")):
            _put_ms(out, f"{name}.fwd_ms", tracer.durations(name, fwd_phase))
    for name in tracer.names("cut"):
        if name.endswith(".bwd"):
            _put_ms(out, name[:-len(".bwd")] + ".bwd_ms", tracer.durations(name, "cut"))
    _put_ms(out, "model.forward.fwd_ms", tracer.durations("model.forward", "forward"))
    _put_ms(out, "model.glue_ms", tracer.self_durations("model.forward", "forward"))
    _put_ms(out, "revin.clamp_gamma_ms", tracer.durations("revin.clamp_gamma", "step"))
    _put_ms(out, "training.mae_loss.fwd_ms", tracer.durations("training.mae_loss", "step"))
    _put_ms(out, "training.adam_step_ms", tracer.durations("training.adam_step", "step"))
    _put_ms(out, "tensor.backward_ms", tracer.durations("tensor.backward", "step"))
    _put_ms(out, "training.evaluate_s", tracer.durations("training.evaluate", "eval"),
            1.0, "s")
    _put_ms(out, "training.save_checkpoint_ms",
            tracer.durations("training.save_checkpoint", "io"))
    _put_ms(out, "training.load_checkpoint_ms",
            tracer.durations("training.load_checkpoint", "io"))
    _put_ms(out, "data.load_csv_s", tracer.durations("data.load_csv", "setup"), 1.0, "s")
    _put_ms(out, "data.window_iter_ms", tracer.durations("data.window_iter", "data"))
    write_s = tracer.durations("data.write_predictions", "write")
    _put_ms(out, "data.write_predictions_s", write_s, 1.0, "s")
    out.put("data.write_predictions.rows_per_s", rows / write_s[0], "1/s",
            f"{rows} rows; moves {moves('data.write_predictions')}")

    out.put("tensor.graph_nodes", counts["nodes"], "count",
            f"one train step; moves {moves('tensor.graph')}")
    for op in sorted(set(GRAPH_OPS) | set(counts["by_op"])):
        out.put(f"tensor.graph_nodes.{op}", counts["by_op"].get(op, 0), "count",
                "one train step")
    out.put("tensor.graph_mb", counts["bytes"] / 2**20, "MB",
            "arrays held by graph nodes, one train step")
    out.put("model.params", model.param_count(), "count", "")

    for name, (a, b) in {
            "model.forward.doubling_ratio": ("model.forward", "forward"),
            "tensor.backward.doubling_ratio": ("tensor.backward", "step"),
            "pre.multi_scale_rnn.bwd.doubling_ratio": ("pre.multi_scale_rnn.bwd",
                                                       "cut")}.items():
        full, halved = tracer.durations(a, b), tracer.durations(a, "half-" + b)
        if full and halved:
            out.put(name, median(full) / median(halved), "ratio",
                    f"p50 at L={w.lookback} over p50 at L={w.lookback // 2}")

    step_traced = tracer.durations("train_step", "step")
    out.put("trace.overhead_ms", 1000.0 * (median(step_traced) - median(untraced)), "ms",
            f"traced {1000 * median(step_traced):.1f} ms minus untraced "
            f"{1000 * median(untraced):.1f} ms train step p50")
    for target in tracer.missing:
        out.notes.append(f"missing span target {target}")
