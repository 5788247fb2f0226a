"""Training-loop checks: loss values and gradients, the Adam recurrence
against a hand-stepped oracle and, bit for bit, against the out-of-place
reference, LR schedule, early stopping, divergence guard, determinism,
checkpoint archive round-trip, and the baselines."""

import dataclasses
import json
import re
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import periodic_table, sine_pair_table, single_batch_overfit
from oracles import OutOfPlaceAdam, WindowRegression, seasonal_persistence
from prformer import baselines, data, revin, synthetic, training, tensor as T
from prformer.config import RunConfig
from prformer.data import split_ranges
from prformer.model import PRformer
from prformer.tensor import Tensor, backward, tensor
from prformer.training import (
    Adam,
    CheckpointError,
    DivergenceError,
    evaluate,
    load_checkpoint,
    lr_for_epoch,
    mae_loss,
    save_checkpoint,
    train,
    train_step,
)


def tiny_config(**overrides):
    base = dict(lookback=24, pred_len=4, pyramidal_windows=(4, 8), e_layers=1,
                d_model=8, heads=2, conv_channels=4, dropout=0.0, batch_size=32,
                lr=1e-3, seed=0, max_epochs=2, patience=10)
    base.update(overrides)
    return RunConfig(**base)


class TestMaeLoss:
    def test_identity_is_zero(self):
        y = tensor(np.random.default_rng(100).normal(size=(2, 3, 2)))
        assert float(mae_loss(y, y).data) == 0.0

    def test_hand_value(self):
        loss = mae_loss(tensor([[0.0, 4.0]]), tensor([[1.0, 2.0]]))
        np.testing.assert_allclose(float(loss.data), 1.5)

    def test_gradient_is_scaled_sign(self):
        y_hat = tensor(np.array([[1.0, -2.0], [0.5, 0.5]]), dtype=np.float64,
                       requires_grad=True)
        y = tensor(np.array([[0.0, 1.0], [2.0, 0.5]]), dtype=np.float64)
        backward(mae_loss(y_hat, y))
        np.testing.assert_allclose(y_hat.grad,
                                   np.sign(y_hat.data - y.data) / 4.0)


class TestAdam:
    def test_matches_hand_stepped_oracle(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        grads = np.random.default_rng(101).normal(size=10)

        # reference recurrence, bias-corrected
        theta, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([g])
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert abs(float(p.data[0]) - theta) < 1e-10, f"step {t}"

    def test_in_place_update_is_bitwise_the_out_of_place_one(self):
        rng = np.random.default_rng(102)
        shapes = [(3, 5), (7,), (2, 2, 4)]
        start = [rng.normal(size=s).astype(np.float32) for s in shapes]
        ours = [Tensor(a.copy(), requires_grad=True) for a in start]
        ref = [Tensor(a.copy(), requires_grad=True) for a in start]
        opt = Adam([(str(i), p) for i, p in enumerate(ours)], lr=1e-2)
        oracle = OutOfPlaceAdam([(str(i), p) for i, p in enumerate(ref)], lr=1e-2)
        for step in range(6):
            for i, s in enumerate(shapes):
                g = None if (step, i) == (2, 1) else rng.normal(size=s).astype(np.float32)
                ours[i].grad = ref[i].grad = g
            opt.step()
            oracle.step()
            for a, b in zip(ours, ref):
                assert a.data.tobytes() == b.data.tobytes(), f"step {step + 1}"

    def test_skips_parameters_without_gradients(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([("a", a), ("b", b)], lr=0.5)
        a.grad = np.array([1.0])
        opt.step()
        assert float(b.data[0]) == 2.0 and float(a.data[0]) != 1.0

    def test_zero_grad_clears(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("a", a)], lr=0.1)
        a.grad = np.array([1.0])
        opt.zero_grad()
        assert a.grad is None


class TestSchedule:
    def test_lr_flat_then_decayed(self):
        lrs = [lr_for_epoch(1e-3, 0.9, e) for e in range(1, 6)]
        np.testing.assert_allclose(lrs, [1e-3, 1e-3, 1e-3, 9e-4, 8.1e-4])


class TestTrainLoop:
    def test_history_rows_and_schedule(self):
        table = synthetic.mixed_table(n=200, seed=7)
        result = train(tiny_config(max_epochs=4), table)
        assert len(result.history) == 4
        for e, row in enumerate(result.history, start=1):
            assert row["epoch"] == e
            assert row["lr"] == lr_for_epoch(1e-3, 0.9, e)
            assert row["seconds"] >= 0
            assert np.isfinite(row["train_mae"]) and np.isfinite(row["val_mae"])

    def test_best_val_restored(self, monkeypatch):
        # scripted validation MAEs: epoch 2 is best, epochs 3 and 4 miss it
        table = synthetic.mixed_table(n=200, seed=8)
        scripted = iter([0.5, 0.3, 0.4, 0.45, 0.2])
        models = []

        def fake_evaluate(model, values, row_range, config):
            models.append(model)
            return training.Metrics(mse=1.0, mae=next(scripted), per_horizon=[])

        snapshots = {}

        def progress(row):
            snapshots[row["epoch"]] = [p.data.copy()
                                       for _, p in models[0].named_parameters()]

        monkeypatch.setattr(training, "evaluate", fake_evaluate)
        result = train(tiny_config(max_epochs=6, patience=2), table, progress)
        assert result.stopped_early and result.epochs_run == 4
        assert result.best_val_mae == 0.3
        final = [p.data for _, p in result.model.named_parameters()]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(final, snapshots[2]))
        assert any(a.tobytes() != b.tobytes() for a, b in zip(final, snapshots[4]))

    def test_matches_a_hand_loop_of_train_steps(self):
        table = synthetic.mixed_table(n=200, seed=9)
        config = tiny_config(max_epochs=2, dropout=0.1)
        result = train(config, table)

        model = PRformer(config, table.n_channels)
        optimizer = Adam(model.named_parameters(), config.lr)
        dropout_rng = np.random.default_rng((config.seed, 1))
        train_range, val_range, _ = split_ranges(table.length, config.split_scheme,
                                                 config.lookback, config.pred_len)
        rows, snapshots = [], []
        for epoch in (1, 2):
            optimizer.lr = lr_for_epoch(config.lr, config.lr_decay, epoch)
            losses = [train_step(model, optimizer, b.inputs, b.targets, dropout_rng)
                      for b in data.window_iter(table.values, train_range,
                                                config.lookback, config.pred_len,
                                                config.batch_size,
                                                shuffle_seed=(config.seed, 1 + epoch))]
            val = evaluate(model, table.values, val_range, config)
            rows.append({"epoch": epoch, "lr": optimizer.lr,
                         "train_mae": sum(losses) / len(losses),
                         "val_mae": val.mae, "val_mse": val.mse})
            snapshots.append([p.data.copy() for _, p in model.named_parameters()])

        assert [{k: v for k, v in row.items() if k != "seconds"}
                for row in result.history] == rows
        assert result.epochs_run == 2 and not result.stopped_early
        best = min(range(2), key=lambda e: rows[e]["val_mae"])
        assert result.best_val_mae == rows[best]["val_mae"]
        assert all(p.data.tobytes() == saved.tobytes() for (_, p), saved in
                   zip(result.model.named_parameters(), snapshots[best]))

    def test_epoch_seconds_within_the_call(self):
        table = synthetic.mixed_table(n=200, seed=7)
        started = time.monotonic()
        result = train(tiny_config(max_epochs=2), table)
        wall = time.monotonic() - started
        assert all(0 <= row["seconds"] <= wall for row in result.history)

    def test_early_stop_on_plateau(self):
        table = synthetic.mixed_table(n=200, seed=10)
        result = train(tiny_config(max_epochs=12, patience=2, lr=1e-12), table)
        # with an effectively frozen model validation cannot improve
        assert result.stopped_early
        assert result.epochs_run == 3  # first epoch sets best, two misses stop

    def test_epoch_one_is_bitwise_deterministic(self):
        table = synthetic.mixed_table(n=200, seed=11)
        config = tiny_config(max_epochs=1, dropout=0.1)
        a = train(config, table)
        b = train(config, table)
        assert a.history[0]["train_mae"] == b.history[0]["train_mae"]
        assert a.history[0]["val_mae"] == b.history[0]["val_mae"]

    def test_divergence_guard_reports_location(self):
        table = synthetic.mixed_table(n=200, seed=12)
        table.values[50, 1] = np.nan
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(tiny_config(), table)


class TestTrainStep:
    def test_updates_parameters_and_clears_gradients(self):
        table = synthetic.mixed_table(n=60, seed=18)
        model = PRformer(tiny_config(dropout=0.1), 3)
        optimizer = Adam(model.named_parameters(), 1e-3)
        before = [p.data.copy() for _, p in model.named_parameters()]
        value = train_step(model, optimizer, table.values[None, :24],
                           table.values[None, 24:28], np.random.default_rng(0))
        assert np.isfinite(value)
        assert all(p.grad is None for _, p in model.named_parameters())
        assert any(not np.array_equal(b, p.data)
                   for b, (_, p) in zip(before, model.named_parameters()))

    def test_returns_raw_scale_mae_of_parameters_before_the_step(self):
        table = synthetic.mixed_table(n=60, seed=19)
        model = PRformer(tiny_config(), 3)  # dropout 0: training forward is forward
        inputs, targets = table.values[None, :24], table.values[None, 24:28]
        expected = mae_loss(model.forward(Tensor(inputs)), Tensor(targets))
        optimizer = Adam(model.named_parameters(), 1e-3)
        value = train_step(model, optimizer, inputs, targets, None)
        assert value == float(expected.data)
        assert optimizer.t == 1

    def test_non_finite_loss_names_epoch_and_batch_and_changes_nothing(self):
        model = PRformer(tiny_config(), 3)
        optimizer = Adam(model.named_parameters(), 1e-3)
        before = [p.data.copy() for _, p in model.named_parameters()]
        inputs = np.ones((1, 24, 3), dtype=np.float32)
        targets = np.full((1, 4, 3), np.inf, dtype=np.float32)
        with pytest.raises(DivergenceError, match="epoch 5, batch 7"):
            train_step(model, optimizer, inputs, targets, None, epoch=5, batch=7)
        assert optimizer.t == 0
        assert all(np.array_equal(b, p.data)
                   for b, (_, p) in zip(before, model.named_parameters()))

    def test_non_finite_gradient_names_parameter_and_changes_nothing(
            self, monkeypatch):
        table = synthetic.mixed_table(n=60, seed=18)
        model = PRformer(tiny_config(), 3)
        optimizer = Adam(model.named_parameters(), 1e-3)
        before = [p.data.copy() for _, p in model.named_parameters()]
        params = dict(model.named_parameters())
        backward = T.backward

        def poisoned_backward(loss):
            backward(loss)
            params["pre.grus.0.u_zr"].grad[0, 0] = np.inf
            params[list(params)[-1]].grad.flat[0] = np.nan  # later: not named

        monkeypatch.setattr(T, "backward", poisoned_backward)
        with pytest.raises(DivergenceError,
                           match=r"pre\.grus\.0\.u_zr at epoch 2, batch 3"):
            train_step(model, optimizer, table.values[None, :24],
                       table.values[None, 24:28], None, epoch=2, batch=3)
        assert optimizer.t == 0
        assert all(p.grad is None for p in params.values())
        assert all(b.tobytes() == p.data.tobytes()
                   for b, p in zip(before, params.values()))

    def test_clamps_revin_gamma_keeping_its_sign(self):
        table = synthetic.mixed_table(n=60, seed=18)
        model = PRformer(tiny_config(), 3)
        gamma = model.params.revin.gamma.data
        gamma[:] = [1e-9, -1e-9, 1e-9]
        # Adam's first step moves each parameter by about lr, far below 1e-9
        train_step(model, Adam(model.named_parameters(), 1e-12),
                   table.values[None, :24], table.values[None, 24:28], None)
        assert (np.abs(gamma) >= revin.GAMMA_FLOOR).all()
        np.testing.assert_array_equal(np.sign(gamma), [1, -1, 1])

    def test_forward_runs_in_training_mode(self):
        table = synthetic.mixed_table(n=60, seed=18)
        inputs, targets = table.values[None, :24], table.values[None, 24:28]
        losses = []
        for seed in (0, 1):
            model = PRformer(tiny_config(dropout=0.5), 3)
            losses.append(train_step(model, Adam(model.named_parameters(), 1e-3),
                                     inputs, targets, np.random.default_rng(seed)))
        assert losses[0] != losses[1]

    def test_overfit_divergence_names_the_step(self):
        inputs = np.ones((1, 24, 2), dtype=np.float32)
        targets = np.full((1, 4, 2), np.nan, dtype=np.float32)
        with pytest.raises(DivergenceError, match="epoch 1, batch 0"):
            single_batch_overfit(tiny_config(), inputs, targets, steps=3)


class TestOverfit:
    def test_loss_drops_fast_on_one_batch(self):
        table = sine_pair_table(n=60, seed=3)
        inputs = table.values[None, :24, :]
        targets = table.values[None, 24:28, :]
        config = tiny_config(lr=5e-3)
        losses = single_batch_overfit(config, inputs, targets, steps=150)
        assert losses[-1] < 0.5 * losses[0]
        assert min(losses) == min(losses)  # trace is finite throughout
        assert all(np.isfinite(v) for v in losses)


class TestEvaluate:
    def test_zero_predictor_on_standard_normal(self):
        rng = np.random.default_rng(102)
        values = rng.normal(size=(10500, 1)).astype(np.float32)
        mse, mae = baselines.baseline_metrics(
            lambda x: np.zeros((x.shape[0], 8, 1), dtype=np.float32),
            values, (0, 10500), 16, 8)
        assert abs(mse - 1.0) < 0.05
        assert abs(mae - np.sqrt(2 / np.pi)) < 0.05

    def test_per_horizon_breakdown(self):
        table = synthetic.mixed_table(n=200, seed=15)
        config = tiny_config()
        model = PRformer(config, table.n_channels)
        metrics = evaluate(model, table.values, (0, 120), config)
        assert len(metrics.per_horizon) == config.pred_len
        assert all(m >= 0 and a >= 0 for m, a in metrics.per_horizon)
        mean_of_steps = np.mean([m for m, _ in metrics.per_horizon])
        np.testing.assert_allclose(mean_of_steps, metrics.mse, rtol=1e-9)


    def test_score_matches_a_hand_computation(self):
        y_true = np.zeros((2, 3, 2), dtype=np.float32)
        y_pred = np.array([[[1, -1], [2, 0], [0, 0]],
                           [[3, 1], [0, -4], [2, 2]]], dtype=np.float32)
        # squared errors per (window, step), averaged over the two channels:
        # window 0: 1, 2, 0; window 1: 5, 8, 4. Absolute: 1, 1, 0; 2, 2, 2.
        metrics = training.score([(y_true[:1], y_pred[:1]), (y_true[1:], y_pred[1:])],
                                 horizon=3)
        assert metrics.per_horizon == [(3.0, 1.5), (5.0, 1.5), (2.0, 1.0)]
        assert metrics.mse == 10 / 3 and metrics.mae == 4 / 3


class TestCheckpoint:
    def test_round_trip_preserves_forward(self, tmp_path):
        table = synthetic.mixed_table(n=200, seed=16)
        config = tiny_config()
        model = PRformer(config, 3)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        x = Tensor(table.values[None, :24, :])
        np.testing.assert_array_equal(model.forward(x).data,
                                      loaded.forward(x).data)
        assert loaded.config == config

    def test_one_channel_round_trip(self, tmp_path):
        model = PRformer(tiny_config(), 1)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        assert load_checkpoint(path).channels == 1

    def test_manifest_layout(self, tmp_path):
        config = tiny_config()
        manifest, payload = _saved_checkpoint(tmp_path / "m.ckpt")
        assert manifest["format_version"] == 5 and manifest["channels"] == 2
        assert manifest["config"] == {**dataclasses.asdict(config),
                                      "pyramidal_windows": [4, 8]}
        model = PRformer(config, 2)
        assert manifest["params"] == [
            {"name": name, "shape": list(p.data.shape), "dtype": "float32"}
            for name, p in model.named_parameters()]
        assert len(payload) == sum(p.data.nbytes for _, p in model.named_parameters())

    def test_identical_saves_are_byte_identical(self, tmp_path):
        model = PRformer(tiny_config(), 3)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_truncated_and_corrupt_archives_rejected(self, tmp_path):
        model = PRformer(tiny_config(), 2)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        blob = open(path, "rb").read()
        short = str(tmp_path / "short.ckpt")
        open(short, "wb").write(blob[:len(blob) - 64])
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(short)
        # pytest names tmp_path after the test, so match the message without it
        size = sum(p.data.nbytes for _, p in model.named_parameters())
        assert str(caught.value) == (f"{short}: payload is {size - 64} bytes, "
                                     f"the parameters take {size}")
        garbage = str(tmp_path / "bad.ckpt")
        open(garbage, "wb").write(b"\x10\x00\x00\x00" + b"not json nonsense" + blob)
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(garbage)
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(str(tmp_path / "missing.ckpt"))

    def test_trained_checkpoint_round_trip(self, tmp_path):
        table = synthetic.mixed_table(n=200, seed=17)
        config = tiny_config(max_epochs=1)
        result = train(config, table)
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, result.model)
        loaded = load_checkpoint(path)
        _, val_range, _ = split_ranges(table.length, config.split_scheme,
                                       config.lookback, config.pred_len)
        a = evaluate(result.model, table.values, val_range, config)
        b = evaluate(loaded, table.values, val_range, config)
        assert a.mae == b.mae and a.mse == b.mse

    def test_history_csv_layout(self, tmp_path):
        rows = [{"epoch": 1, "lr": 1e-3, "train_mae": 0.5, "val_mae": 0.4,
                 "val_mse": 0.3, "seconds": 1.25}]
        path = str(tmp_path / "h.csv")
        data.write_rows(path, training.HISTORY_COLUMNS, rows)
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch,lr,train_mae,val_mae,val_mse,seconds"
        assert lines[1].startswith("1,0.001,0.5,0.4,0.3,")


class TestBaselines:
    def test_naive_persistence_repeats_last_value(self):
        inputs = np.arange(12, dtype=np.float32).reshape(1, 6, 2)
        out = baselines.persistence_forecast(inputs, horizon=3)
        np.testing.assert_array_equal(out, np.tile(inputs[:, -1:, :], (1, 3, 1)))

    def test_seasonal_persistence_exact_on_tiled_sine(self):
        table = periodic_table(n=480, period=24)
        mse, mae = baselines.baseline_metrics(
            lambda x: seasonal_persistence(x, 24, period=24),
            table.values, (0, 480), 96, 24)
        assert mse == 0.0 and mae == 0.0

    def test_seasonal_persistence_handles_horizon_past_one_period(self):
        table = periodic_table(n=480, period=24)
        mse, _ = baselines.baseline_metrics(
            lambda x: seasonal_persistence(x, 30, period=24),
            table.values, (0, 480), 96, 30)
        assert mse == 0.0

    def test_period_longer_than_window_rejected(self):
        with pytest.raises(ValueError, match="period"):
            seasonal_persistence(np.zeros((1, 8, 1)), 4, period=16)

    def test_window_regression_recovers_linear_recurrence(self):
        # y_t = 1.5 y_{t-1} - 0.9 y_{t-2}: every future value is linear in
        # the window, so OLS should fit it almost exactly
        n = 600
        y = np.zeros(n)
        y[0], y[1] = 1.0, 0.8
        for t in range(2, n):
            y[t] = 1.5 * y[t - 1] - 0.9 * y[t - 2]
        values = np.stack([y, np.roll(y, 1)], axis=1).astype(np.float32)
        reg = WindowRegression.fit(values, (0, 400), 16, 4)
        mse, _ = baselines.baseline_metrics(reg.predict, values, (400, 600), 16, 4)
        assert mse < 1e-6

    def test_window_regression_beats_naive_persistence_on_trend(self):
        t = np.arange(500, dtype=np.float32)
        values = np.stack([0.01 * t, -0.02 * t], axis=1)
        reg = WindowRegression.fit(values, (0, 400), 8, 4)
        mse_reg, _ = baselines.baseline_metrics(reg.predict, values, (400, 500), 8, 4)
        mse_per, _ = baselines.baseline_metrics(
            lambda x: baselines.persistence_forecast(x, 4), values, (400, 500), 8, 4)
        assert mse_reg < mse_per


def _saved_checkpoint(path):
    save_checkpoint(str(path), PRformer(tiny_config(), 2))
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[:4])
    return json.loads(blob[4:4 + length]), blob[4 + length:]


def _write_archive(path, manifest, payload):
    head = json.dumps(manifest).encode("utf-8")
    path.write_bytes(struct.pack("<I", len(head)) + head + payload)


def _set(key, value):
    return lambda m: m.update({key: value})


def _set_config(key, value):
    return lambda m: m["config"].update({key: value})


def _set_entry(key, value):
    return lambda m: m["params"][0].update({key: value})


# the first parameter of the tiny model, as its manifest entry prints
GAMMA = r'\{"dtype": "float32", "name": "revin\.gamma", "shape": \[2\]\}'


class TestCheckpointManifest:
    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda m: m.pop("config"), "config is missing", id="no-config"),
        pytest.param(_set("config", [1, 2]), "config is missing or not an object",
                     id="config-list"),
        pytest.param(_set("channels", -3), "channels must be a positive integer",
                     id="channels-negative"),
        pytest.param(_set("channels", 0), "channels must be a positive integer",
                     id="channels-zero"),
        pytest.param(_set("channels", "2"), "channels must be a positive integer",
                     id="channels-string"),
        pytest.param(_set("channels", True), "channels must be a positive integer",
                     id="channels-bool"),
        pytest.param(_set("params", "weights"), "params must be a list",
                     id="params-string"),
        pytest.param(_set("params", [["revin.gamma", [2], "float32"]]),
                     r'params entry 0 does not match the model: archive \["revin\.gamma", '
                     r'\[2\], "float32"\], model ' + GAMMA, id="entry-list"),
        pytest.param(lambda m: m["params"][0].pop("dtype"),
                     r'params entry 0 .*: archive \{"name": "revin\.gamma", "shape": \[2\]\}, '
                     r'model ' + GAMMA, id="entry-no-dtype"),
        pytest.param(_set_entry("name", 5),
                     r'params entry 0 .*: archive \{.*"name": 5, .*\}, model ' + GAMMA,
                     id="entry-name-int"),
        pytest.param(_set_entry("name", "revin.delta"),
                     r'params entry 0 .*: archive \{.*"name": "revin\.delta", .*\}, model ' + GAMMA,
                     id="entry-name-unknown"),
        pytest.param(_set_entry("dtype", "float64"),
                     r'params entry 0 .*: archive \{"dtype": "float64", .*\}, model ' + GAMMA,
                     id="dtype-wider"),
        pytest.param(_set_entry("dtype", "float33"),
                     r'params entry 0 .*: archive \{"dtype": "float33", .*\}, model ' + GAMMA,
                     id="dtype-unknown"),
        pytest.param(_set_entry("shape", "2"),
                     r'params entry 0 .*: archive \{.*"shape": "2"\}, model ' + GAMMA,
                     id="shape-string"),
        pytest.param(_set_entry("shape", [3]),
                     r'params entry 0 .*: archive \{.*"shape": \[3\]\}, model ' + GAMMA,
                     id="shape-other"),
        pytest.param(lambda m: m["params"].append(dict(m["params"][0])),
                     r'params entry 33 .*: archive ' + GAMMA + r', model \(missing\)$',
                     id="entry-repeated"),
        pytest.param(lambda m: m["params"].append(None),
                     r'params entry 33 .*: archive null, model \(missing\)$',
                     id="entry-trailing-null"),
        pytest.param(_set_config("heads", 3), "invalid embedded config.*divide",
                     id="config-heads"),
        pytest.param(_set_config("lr", "fast"), "invalid embedded config.*lr",
                     id="config-lr-string"),
        pytest.param(_set_config("pyramidal_windows", 4), "invalid embedded config",
                     id="config-windows-int"),
        pytest.param(_set_config("bogus", 1), "invalid embedded config.*unknown",
                     id="config-unknown-key"),
        pytest.param(lambda m: m.clear(), "format version", id="empty-object"),
        pytest.param(_set("format_version", 1), "unsupported format version 1",
                     id="format-version-1"),
        pytest.param(_set("format_version", 2), "unsupported format version 2",
                     id="format-version-2"),
        pytest.param(_set("format_version", 3), "unsupported format version 3",
                     id="format-version-3"),
        pytest.param(_set("format_version", 4), "unsupported format version 4",
                     id="format-version-4"),
    ])
    def test_bad_manifest_rejected(self, tmp_path, edit, message):
        path = tmp_path / "m.ckpt"
        manifest, payload = _saved_checkpoint(path)
        edit(manifest)
        _write_archive(path, manifest, payload)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    def test_missing_last_parameter_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        manifest, payload = _saved_checkpoint(path)
        last = manifest["params"].pop()
        size = int(np.prod(last["shape"])) * np.dtype(last["dtype"]).itemsize
        _write_archive(path, manifest, payload[:-size])
        with pytest.raises(CheckpointError,
                           match=r'params entry 32 .*: archive \(missing\), model '
                                 r'\{"dtype": "float32", "name": "' + re.escape(last["name"])):
            load_checkpoint(str(path))

    def test_reordered_entries_rejected(self, tmp_path):
        # each entry moves with its own payload, so names, shapes and sizes
        # all still agree; only the order differs from the model's
        path = tmp_path / "m.ckpt"
        manifest, payload = _saved_checkpoint(path)
        entries = manifest["params"]
        ends = np.cumsum([np.prod(e["shape"]) * np.dtype(e["dtype"]).itemsize
                          for e in entries])
        chunks = [payload[start:end] for start, end in zip([0, *ends], ends)]
        entries[2], entries[3] = entries[3], entries[2]
        chunks[2], chunks[3] = chunks[3], chunks[2]
        _write_archive(path, manifest, b"".join(chunks))
        with pytest.raises(CheckpointError,
                           match=r'params entry 2 .*: archive \{.*"name": "pre\.conv_weights\.1", '
                                 r'"shape": \[4, 8\]\}, model \{.*"name": "pre\.conv_weights\.0", '
                                 r'"shape": \[4, 4\]\}$'):
            load_checkpoint(str(path))

    def test_header_longer_than_the_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), PRformer(tiny_config(), 2))
        blob = path.read_bytes()
        path.write_bytes(struct.pack("<I", len(blob)) + blob[4:])
        with pytest.raises(CheckpointError, match="truncated manifest"):
            load_checkpoint(str(path))

    def test_manifest_not_an_object(self, tmp_path):
        path = tmp_path / "m.ckpt"
        _, payload = _saved_checkpoint(path)
        _write_archive(path, [1], payload)
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(str(path))

    def test_non_finite_weight_rejected(self, tmp_path):
        model = PRformer(tiny_config(), 2)
        model.params.encoder.head.w.data[1, 2] = np.nan
        path = str(tmp_path / "nan.ckpt")
        save_checkpoint(path, model)
        with pytest.raises(CheckpointError,
                           match=r"nan\.ckpt: non-finite value in parameter "
                                 r"'encoder\.head\.w'"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        manifest, payload = _saved_checkpoint(path)
        _write_archive(path, manifest, payload + b"\0")
        with pytest.raises(CheckpointError, match=f"payload is {len(payload) + 1} bytes, "
                                                  f"the parameters take {len(payload)}$"):
            load_checkpoint(str(path))

    def test_directory_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path))


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(str(path), PRformer(tiny_config(), 2))
    return path.read_bytes()


def _load_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "probe.ckpt"
    path.write_bytes(blob)
    return load_checkpoint(str(path))


class TestCheckpointProperties:
    """Damaged archives end in CheckpointError or a loaded model, never in
    another exception. Half the drawn positions fall in the length header or
    the manifest, which are a small share of the file."""

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_every_truncation_rejected(self, checkpoint_blob, tmp_path_factory, data):
        (length,) = struct.unpack("<I", checkpoint_blob[:4])
        cut = data.draw(st.one_of(st.integers(0, 4 + length),
                                  st.integers(0, len(checkpoint_blob) - 1)))
        with pytest.raises(CheckpointError):
            _load_bytes(tmp_path_factory, checkpoint_blob[:cut])

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_single_byte_flip_rejected_or_loaded(self, checkpoint_blob,
                                                 tmp_path_factory, data):
        (length,) = struct.unpack("<I", checkpoint_blob[:4])
        at = data.draw(st.one_of(st.integers(0, 4 + length - 1),
                                 st.integers(0, len(checkpoint_blob) - 1)))
        flip = data.draw(st.integers(1, 255))
        blob = bytearray(checkpoint_blob)
        blob[at] ^= flip
        try:
            model = _load_bytes(tmp_path_factory, bytes(blob))
        except CheckpointError:
            return
        assert model.channels >= 1
