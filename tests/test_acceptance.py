"""System-level acceptance gates.

One test per numbered criterion; `pytest -v tests/test_acceptance.py` gives
one pass/fail line per criterion, and each test also prints its measured
numbers (visible with -s, or in captured output on failure). Criteria 5 and
5b (the pyramid's forward plus backward) and the full/V3 leg of 8 are soft: they report measurements and warn out of
band rather than failing, since wall-clock ratios and seed-level orderings
wobble on busy hosts. Everything else is a hard gate.
"""

import dataclasses
import functools
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import grad_check_all_params, sine_pair_table, single_batch_overfit
from oracles import WindowRegression
from prformer import baselines, pre, revin, synthetic
from prformer import tensor as T
from prformer.analysis import check_pe, pe_dot_invariance, pe_frequencies, scaling_bench
from prformer.config import (
    PyramidConfigWarning,
    RunConfig,
    level_hidden_sizes,
    pyramid_kernels,
)
from prformer.data import load_csv, split_ranges, window_iter
from prformer.model import PRformer
from prformer.tensor import Tensor
from prformer.training import (
    evaluate,
    save_checkpoint,
    train,
)

SYNTH = dict(n=3000, seed=1, lag=24)
MINI = dict(lookback=96, pred_len=24, pyramidal_windows=(4, 24, 96),
            d_model=64, heads=4, conv_channels=16, dropout=0.1,
            batch_size=64, lr=2e-3, max_epochs=50, patience=10)
GRID_SEEDS = (0, 1, 2)


def report(criterion, passed, detail):
    mark = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:02d}] {mark}: {detail}")


@pytest.fixture(scope="module")
def synth_table():
    return synthetic.mixed_table(**SYNTH)


@pytest.fixture(scope="module")
def synth_ranges(synth_table):
    return split_ranges(synth_table.length, "6:2:2", MINI["lookback"],
                        MINI["pred_len"])


def _grid_run(job, table, test_range):
    """Train one (variant, seed) of the ablation grid and score its test split."""
    variant, seed = job
    cfg = RunConfig(**MINI, variant=variant, seed=seed)
    started = time.perf_counter()
    result = train(cfg, table)
    seconds = time.perf_counter() - started
    metrics = evaluate(result.model, table.values, test_range, cfg)
    return {"mse": metrics.mse, "seconds": seconds, "epochs": result.epochs_run}


@pytest.fixture(scope="module")
def ablation_grid(synth_table, synth_ranges):
    """Test MSE for full/V3/V2 across seeds; shared by criteria 6 and 8.

    The nine runs are independent and seeded, so they go to a pool of one
    worker per CPU, longest first: V3 runs to the 50-epoch cap here, V2 stops
    earliest. Workers are spawned, not forked from this process and its BLAS
    threads, with one BLAS thread each. On one CPU the runs go in turn.
    """
    jobs = [(variant, seed) for variant in ("V3", "full", "V2") for seed in GRID_SEEDS]
    run = functools.partial(_grid_run, table=synth_table, test_range=synth_ranges[2])
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if workers == 1:
        return {job: run(job) for job in jobs}
    with pytest.MonkeyPatch.context() as env:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setenv(var, "1")  # read when a worker imports numpy
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            return dict(zip(jobs, pool.map(run, jobs)))


class TestAcceptance:
    def test_criterion_01_full_model_gradients(self):
        # whole pipeline (normalize, pyramid embed, encoder, head,
        # denormalize) against central finite differences in float64
        cfg = RunConfig(lookback=48, pred_len=8, pyramidal_windows=(4, 8),
                        d_model=16, e_layers=1, heads=2, conv_channels=8,
                        dropout=0.0, seed=0)
        model = PRformer(cfg, channels=3)
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(2, 48, 3)))

        def make_loss(tree):
            model.params = tree
            return T.mean(model.forward(x))

        started = time.perf_counter()
        name, err = grad_check_all_params(make_loss, model.params)
        seconds = time.perf_counter() - started
        passed = err < 1e-4 and seconds < 120
        report(1, passed, f"worst grad error {err:.2e} at {name} "
                          f"({model.param_count()} params, {seconds:.0f}s)")
        assert err < 1e-4
        assert seconds < 120

    def test_criterion_02_pyramid_configuration(self):
        three = pyramid_kernels([24, 48, 96], 720)
        with pytest.warns(PyramidConfigWarning):
            four = pyramid_kernels([24, 48, 72, 144], 720)
        floors_ok = True
        with warnings.catch_warnings(), T.no_grad():
            warnings.simplefilter("ignore", PyramidConfigWarning)
            for windows in ([24], [24, 48, 96], [24, 48, 72, 144], [7, 21, 84]):
                # the kernels do not depend on the lookback, so one pyramid
                # of one-channel convs serves every L
                kernels = pyramid_kernels(windows, max(windows))
                levels = len(kernels)
                params = pre.init_pre(np.random.default_rng(0), kernels,
                                      level_hidden_sizes(levels, levels), levels, 1)
                for lookback in range(max(windows), 1001):
                    feats = pre.bottom_up(
                        Tensor(np.zeros((lookback, 1), dtype=np.float32)), params)
                    built = tuple(f.shape[0] for f in feats)
                    # lengths follow the kernel chain; with a kernel-1 level
                    # the effective window differs from the nominal one
                    length, expect = lookback, []
                    for kernel in kernels:
                        length //= kernel
                        expect.append(length)
                    if (pyramid_kernels(windows, lookback) != kernels
                            or built != tuple(expect) or min(built) < 1):
                        floors_ok = False
                    if all(b % a == 0 for a, b in zip(windows, windows[1:])):
                        if built != tuple(lookback // w for w in windows):
                            floors_ok = False
        passed = three == (24, 2, 2) and four == (24, 2, 1, 2) and floors_ok
        report(2, passed, f"kernels {three} / {four}, built level lengths "
                          f"exhaustive to L=1000: {floors_ok}")
        assert three == (24, 2, 2)
        assert four == (24, 2, 1, 2)
        assert floors_ok

    def test_criterion_03_normalization_round_trip(self):
        rng = np.random.default_rng(23)
        worst_round, worst_mean, worst_std = 0.0, 0.0, 0.0
        windows = 0
        while windows < 1000:
            b = int(rng.integers(1, 17))
            length = int(rng.choice([24, 48, 96]))
            c = int(rng.integers(1, 9))
            params = revin.init_revin(c)
            params.gamma.data[:] = rng.uniform(0.5, 2.0, size=c)
            params.beta.data[:] = rng.uniform(-1.0, 1.0, size=c)
            shift = rng.uniform(-3.0, 3.0, size=(1, 1, c))
            scale = rng.uniform(0.5, 2.0, size=(1, 1, c))
            raw = (rng.normal(size=(b, length, c)) * scale + shift).astype(np.float32)
            x = Tensor(np.ascontiguousarray(raw.transpose(1, 0, 2)))  # (L, b, c)
            with T.no_grad():
                x_norm, state = revin.normalize(x, params)
                back = revin.denormalize(x_norm, state, params)
            worst_round = max(worst_round,
                              float(np.abs(back.data - x.data).max()))
            mean = x_norm.data.mean(axis=0)
            std = x_norm.data.std(axis=0)
            worst_mean = max(worst_mean,
                             float(np.abs(mean - params.beta.data).max()))
            worst_std = max(worst_std,
                            float(np.abs(std - np.abs(params.gamma.data)).max()))
            windows += b
        passed = worst_round < 1e-5 and worst_mean < 1e-5 and worst_std < 1e-3
        report(3, passed, f"{windows} windows: round trip {worst_round:.2e}, "
                          f"mean-beta {worst_mean:.2e}, std-gamma {worst_std:.2e}")
        assert worst_round < 1e-5
        assert worst_mean < 1e-5
        assert worst_std < 1e-3

    def test_criterion_04_pe_translation_invariance(self):
        worst = check_pe(trials=1000, seed=3)
        rng = np.random.default_rng(29)
        zero_exact = True
        for _ in range(50):
            d = 2 * int(rng.integers(1, 129))
            reference = float(np.cos(pe_frequencies(d) * 0).sum())
            deviation = pe_dot_invariance(d, int(rng.integers(0, 10000)),
                                          int(rng.integers(0, 10000)), 0)
            if reference != d / 2 or deviation >= 1e-9:
                zero_exact = False
        passed = worst < 1e-9 and zero_exact
        report(4, passed, f"1000 draws worst {worst:.2e}; zero-offset equals "
                          f"d_model/2: {zero_exact}")
        assert worst < 1e-9
        assert zero_exact

    def test_criterion_05_linear_time_scaling(self):
        def measure():
            rows = scaling_bench([720, 1440, 2880], [24, 48, 96], d_model=64,
                                 channels=3, repetitions=5, seed=0)
            return rows, [r["ratio"] for r in rows[1:]]

        rows, ratios = measure()
        if not all(1.5 <= r <= 2.5 for r in ratios):
            rows, ratios = measure()  # one retry; transient load skews medians
        in_band = all(1.5 <= r <= 2.5 for r in ratios)
        medians = ", ".join(f"L={r['lookback']}: {r['median_s'] * 1e3:.2f}ms"
                            for r in rows)
        mark = "PASS" if in_band else "REPORT"
        print(f"[criterion 05] {mark}: doubling ratios "
              f"{[round(r, 2) for r in ratios]} ({medians})")
        assert len(rows) == 3 and all(r["median_s"] > 0 for r in rows)
        if not in_band:
            # soft criterion: linear scaling is asserted on an idle host only
            warnings.warn(f"scaling ratios {ratios} outside [1.5, 2.5]; "
                          f"rerun on an idle machine to confirm linearity")

    def test_criterion_05b_pyramid_backward_linear_scaling(self):
        # fwd+bwd of the pyramid embedding alone, where the recurrence sits,
        # at the paper's ETTh1 width: 32 windows x 7 channels, d_model 128
        def seconds(lookback, batch=224, repetitions=5):
            kernels = pyramid_kernels([24, 48, 96], lookback)
            rng = np.random.default_rng(0)
            params = pre.init_pre(rng, kernels, level_hidden_sizes(128, len(kernels)), 128,
                                  16)
            x = Tensor(rng.normal(size=(lookback, batch)).astype(np.float32))
            times = []
            for _ in range(repetitions + 1):  # the first run is warm-up
                started = time.perf_counter()
                T.backward(T.sum_(pre.pre_embed_batch(x, params)))
                times.append(time.perf_counter() - started)
            return float(np.median(times[1:]))

        def measure():
            medians = [seconds(lookback) for lookback in (720, 1440, 2880)]
            return medians, [b / a for a, b in zip(medians, medians[1:])]

        medians, ratios = measure()
        if not all(1.5 <= r <= 2.5 for r in ratios):
            medians, ratios = measure()  # one retry; transient load skews medians
        in_band = all(1.5 <= r <= 2.5 for r in ratios)
        mark = "PASS" if in_band else "REPORT"
        print(f"[criterion 05b] {mark}: pre_embed_batch fwd+bwd doubling ratios "
              f"{[round(r, 2) for r in ratios]} (" + ", ".join(
                  f"L={n}: {m * 1e3:.2f}ms" for n, m in zip((720, 1440, 2880), medians))
              + ")")
        assert all(m > 0 for m in medians)
        if not in_band:
            # soft criterion, like 05: linear scaling is asserted on an idle host only
            warnings.warn(f"pyramid fwd+bwd scaling ratios {ratios} outside "
                          f"[1.5, 2.5]; rerun on an idle machine to confirm linearity")

    def test_criterion_06_learning_signal_vs_baselines(self, synth_table,
                                                       synth_ranges,
                                                       ablation_grid):
        run = ablation_grid["full", 0]
        lookback, horizon = MINI["lookback"], MINI["pred_len"]
        pers_mse, _ = baselines.baseline_metrics(
            lambda x: baselines.persistence_forecast(x, horizon),
            synth_table.values, synth_ranges[2], lookback, horizon)
        reg = WindowRegression.fit(synth_table.values, synth_ranges[0],
                                   lookback, horizon)
        reg_mse, _ = baselines.baseline_metrics(
            reg.predict, synth_table.values, synth_ranges[2], lookback, horizon)
        passed = (run["mse"] <= 0.7 * pers_mse and run["mse"] < reg_mse
                  and run["epochs"] <= 50 and run["seconds"] < 900)
        report(6, passed,
               f"model mse {run['mse']:.4f} vs persistence {pers_mse:.4f} "
               f"(bar {0.7 * pers_mse:.4f}) and regression {reg_mse:.4f}; "
               f"{run['epochs']} epochs in {run['seconds']:.0f}s")
        assert run["mse"] <= 0.7 * pers_mse
        assert run["mse"] < reg_mse
        assert run["epochs"] <= 50
        assert run["seconds"] < 900

    def test_criterion_07_single_batch_overfit(self):
        table = sine_pair_table(n=400, seed=0)
        batch = next(window_iter(table.values, (0, 300), 48, 12, batch_size=16))
        cfg = RunConfig(lookback=48, pred_len=12, pyramidal_windows=(4, 8),
                        d_model=32, heads=4, conv_channels=8, dropout=0.0,
                        lr=2e-3, seed=0)
        losses = single_batch_overfit(cfg, batch.inputs, batch.targets,
                                      steps=500)
        best = min(losses)
        hit = next((i for i, v in enumerate(losses) if v < 0.02), None)
        passed = best < 0.02
        report(7, passed, f"best mae {best:.4f}; first below 0.02 at step {hit}")
        assert best < 0.02

    def test_criterion_08_ablation_ordering(self, ablation_grid):
        lines = []
        strict_all = True
        ordered_all = True
        for seed in GRID_SEEDS:
            full = ablation_grid["full", seed]["mse"]
            v3 = ablation_grid["V3", seed]["mse"]
            v2 = ablation_grid["V2", seed]["mse"]
            strict_all &= full < v2
            ordered_all &= full <= v3 <= v2
            lines.append(f"seed {seed}: full {full:.4f} V3 {v3:.4f} V2 {v2:.4f}")
        detail = "; ".join(lines)
        report(8, strict_all, f"{detail}; full<=V3<=V2 on all seeds: "
                              f"{ordered_all}")
        if not ordered_all:
            # soft leg: V3 keeps the recurrent bottom level, so at this scale
            # it can tie or edge out the full pyramid on some seeds
            warnings.warn(f"soft ordering full <= V3 <= V2 not monotone on "
                          f"every seed ({detail})")
        assert strict_all, f"full < V2 must hold on every seed ({detail})"

    def test_criterion_09_determinism(self, tmp_path):
        table = synthetic.mixed_table(n=600, seed=4)
        cfg = RunConfig(lookback=48, pred_len=12, pyramidal_windows=(4, 8),
                        d_model=16, heads=2, conv_channels=8, dropout=0.1,
                        batch_size=32, lr=1e-3, max_epochs=1, seed=11)
        paths = []
        histories = []
        for run in range(2):
            result = train(cfg, table)
            path = str(tmp_path / f"run{run}.ckpt")
            save_checkpoint(path, result.model)
            paths.append(path)
            histories.append(result.history[0])
        same_train = histories[0]["train_mae"] == histories[1]["train_mae"]
        same_val = histories[0]["val_mae"] == histories[1]["val_mae"]
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            same_bytes = a.read() == b.read()
        passed = same_train and same_val and same_bytes
        report(9, passed, f"epoch-1 train/val losses bitwise equal: "
                          f"{same_train}/{same_val}; checkpoints identical: "
                          f"{same_bytes}")
        assert same_train and same_val
        assert same_bytes

    def test_criterion_10_etth1_smoke(self):
        path = os.environ.get("PRFORMER_ETTH1")
        candidates = [path] if path else []
        candidates += [os.path.join("data", "ETTh1.csv"), "ETTh1.csv"]
        found = next((c for c in candidates if c and os.path.exists(c)), None)
        if found is None:
            pytest.skip("no ETTh1 file (PRFORMER_ETTH1, data/ETTh1.csv, or "
                        "ETTh1.csv); smoke run skipped")
        table = load_csv(found)
        table = dataclasses.replace(table, timestamps=table.timestamps[:4000],
                                    values=table.values[:4000])
        cfg = RunConfig(lookback=336, pred_len=96,
                        pyramidal_windows=(24, 48, 96), d_model=128, heads=8,
                        conv_channels=16, dropout=0.1, batch_size=32, lr=1e-3,
                        max_epochs=10, patience=3, seed=0)
        ranges = split_ranges(table.length, cfg.split_scheme, cfg.lookback,
                              cfg.pred_len)
        result = train(cfg, table)
        metrics = evaluate(result.model, table.values, ranges[2], cfg)
        pers_mse, _ = baselines.baseline_metrics(
            lambda x: baselines.persistence_forecast(x, cfg.pred_len),
            table.values, ranges[2], cfg.lookback, cfg.pred_len)
        passed = metrics.mse < pers_mse
        report(10, passed, f"ETTh1[:4000] test mse {metrics.mse:.4f} vs "
                           f"persistence {pers_mse:.4f}")
        assert metrics.mse < pers_mse
