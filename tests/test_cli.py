"""End-to-end runs of every subcommand plus the exit-code contract."""

import dataclasses
import errno
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import sine_pair_table
from prformer import cli, data, encoder, synthetic, training
from prformer.analysis import check_pe
from prformer.config import RunConfig
from prformer.model import PRformer
from prformer.tensor import Tensor, no_grad
from prformer.training import load_checkpoint, save_checkpoint

FAST = ["--lookback", "32", "--pred-len", "8",
        "--pyramidal-windows", "4", "8", "--d-model", "16", "--heads", "2",
        "--conv-channels", "4", "--dropout", "0.0", "--batch-size", "64",
        "--max-epochs", "1", "--seed", "3"]


@pytest.fixture()
def dataset(tmp_path):
    table = synthetic.mixed_table(n=400, seed=9)
    path = tmp_path / "series.csv"
    data.save_csv(table, str(path))
    return str(path)


def train_fast(dataset, tmp_path, extra=()):
    ckpt = str(tmp_path / "m.ckpt")
    hist = str(tmp_path / "h.csv")
    rc = cli.main(["train", "--dataset", dataset, *FAST, *extra,
                   "--checkpoint", ckpt, "--history", hist])
    return rc, ckpt, hist


class TestTrain:
    def test_writes_checkpoint_and_history(self, dataset, tmp_path, capsys):
        rc, ckpt, hist = train_fast(dataset, tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch   1" in out and "best val_mae" in out
        model = load_checkpoint(ckpt)
        assert model.config.lookback == 32 and model.channels == 3
        with open(hist) as fh:
            assert fh.readline().strip() == \
                "epoch,lr,train_mae,val_mae,val_mse,seconds"

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        cfg = {"dataset": dataset, "lookback": 48, "pred_len": 8,
               "pyramidal_windows": [4, 8], "d_model": 16, "heads": 2,
               "conv_channels": 4, "dropout": 0.0, "max_epochs": 1, "seed": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        ckpt = str(tmp_path / "m.ckpt")
        rc = cli.main(["train", "--config", str(cfg_path), "--lookback", "32",
                       "--checkpoint", ckpt,
                       "--history", str(tmp_path / "h.csv")])
        assert rc == 0
        model = load_checkpoint(ckpt)
        # flag beats the file; untouched file values survive
        assert model.config.lookback == 32
        assert model.config.seed == 1

    def test_environment_seed_is_ignored(self, dataset, tmp_path, monkeypatch):
        # the seed comes from --seed or the config file, else RunConfig's 0
        monkeypatch.setenv("PRFORMER_SEED", "77")
        args = [a for a in FAST if a not in ("--seed", "3")]
        ckpt = str(tmp_path / "m.ckpt")
        rc = cli.main(["train", "--dataset", dataset, *args,
                       "--checkpoint", ckpt,
                       "--history", str(tmp_path / "h.csv")])
        assert rc == 0
        assert load_checkpoint(ckpt).config.seed == 0

    def test_warning_is_one_stderr_line(self, dataset, tmp_path, capsys):
        # windows 4 and 6 give the upper level kernel 1 (PyramidConfigWarning)
        rc, _, _ = train_fast(dataset, tmp_path, extra=["--pyramidal-windows", "4", "6"])
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: windows [6] give kernel 1 (no downsampling at that level)"]

    def test_ablation_variant_flag(self, dataset, tmp_path):
        rc, ckpt, _ = train_fast(dataset, tmp_path, extra=["--variant", "V2"])
        assert rc == 0
        assert load_checkpoint(ckpt).config.variant == "V2"


class TestRoundTrip:
    def test_ascii_locale_writes_utf8(self, tmp_path):
        # the locale's encoding is fixed when the interpreter starts, so the
        # commands run in a fresh process with ASCII as that encoding
        table = synthetic.mixed_table(n=400, seed=9)
        table.channels[0] = "température"
        dataset = str(tmp_path / "series.csv")
        data.save_csv(table, dataset)
        ckpt = str(_ckpt_with(tmp_path))
        config = tmp_path / "cfg.json"
        named = str(tmp_path / "données.csv")
        config.write_text(json.dumps({"lookback": 32, "pred_len": 8, "dataset": named},
                                     ensure_ascii=False), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHON"))}
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

        # prints the locale's encoding, then runs the CLI on the arguments
        script = ("import codecs, locale, sys; from prformer import cli; "
                  "print(codecs.lookup(locale.getpreferredencoding(False)).name); "
                  "sys.exit(cli.main(sys.argv[1:]))")

        def run(*argv):
            return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                  capture_output=True, encoding="utf-8")

        for command in ("predict", "inspect-embeddings"):
            out = str(tmp_path / f"{command}.csv")
            done = run(command, "--checkpoint", ckpt, "--dataset", dataset, "--out", out)
            assert done.stdout.startswith("ascii\n") and done.returncode == 0, done.stderr
            with open(out, encoding="utf-8") as fh:
                assert "température" in fh.read()
        # a UTF-8 config file is read as such, not called bad JSON; the path it
        # names cannot be opened under ASCII, which is a data error, not a traceback
        done = run("train", "--config", str(config), "--checkpoint", str(tmp_path / "m"))
        assert done.returncode == 2 and done.stderr == (
            f"data error: cannot name {ascii(named)} in the ascii file system encoding\n")

    def test_evaluate_predict_inspect(self, dataset, tmp_path, capsys, monkeypatch):
        rc, ckpt, _ = train_fast(dataset, tmp_path)
        assert rc == 0
        capsys.readouterr()

        assert cli.main(["evaluate", "--checkpoint", ckpt,
                         "--per-horizon"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("test mse ")
        assert "h001" in out and "h008" in out

        pred = str(tmp_path / "p.csv")
        assert cli.main(["predict", "--checkpoint", ckpt, "--out", pred]) == 0
        with open(pred) as fh:
            header = fh.readline().strip()
            first = fh.readline().split(",")
        assert header == "window_start,horizon_step,channel,y_true,y_pred"
        assert first[2] == "driver"

        emb = str(tmp_path / "e.csv")
        assert cli.main(["inspect-embeddings", "--checkpoint", ckpt,
                         "--count", "2", "--out", emb]) == 0
        with open(emb) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.split(",") for line in fh]
        assert header[:2] == ["window_start", "variable"]
        assert header[2:] == [f"e{i}" for i in range(16)]
        assert len(rows) == 2 * 3  # two windows, three variables
        assert {r[1] for r in rows} == {"driver", "seasonal", "lagged"}

        # the written tokens are the ones the forward feeds the encoder
        model = load_checkpoint(ckpt)
        table = data.load_csv(dataset)
        test_range = data.split_ranges(table.length, model.config.split_scheme,
                                       32, 8)[2]
        batch = next(data.window_iter(table.values, test_range, 32, 8, batch_size=2))
        seen = []
        encode = encoder.encode
        monkeypatch.setattr(encoder, "encode",
                            lambda h, *a, **k: seen.append(h.data) or encode(h, *a, **k))
        with no_grad():
            model.forward(Tensor(batch.inputs))
        written = np.array([[float(v) for v in r[2:]] for r in rows])
        np.testing.assert_array_equal(written, seen[0].reshape(2 * 3, 16))
        assert [int(r[0]) for r in rows] == [int(s) for s in batch.starts for _ in range(3)]

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_evaluate_scores_the_named_split(self, dataset, tmp_path, capsys, split):
        rc, ckpt, _ = train_fast(dataset, tmp_path)
        assert rc == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--checkpoint", ckpt, "--split", split]) == 0
        model = load_checkpoint(ckpt)
        table = data.load_csv(dataset)
        ranges = data.split_ranges(table.length, model.config.split_scheme, 32, 8)
        metrics = training.evaluate(model, table.values,
                                    ranges[["train", "val", "test"].index(split)],
                                    model.config)
        assert capsys.readouterr().out == (f"{split} mse {metrics.mse:.6f} "
                                           f"mae {metrics.mae:.6f}\n")

    def test_evaluate_channel_mismatch_is_data_error(self, dataset, tmp_path):
        rc, ckpt, _ = train_fast(dataset, tmp_path)
        assert rc == 0
        other = tmp_path / "two.csv"
        data.save_csv(sine_pair_table(n=200, seed=0), str(other))
        assert cli.main(["evaluate", "--checkpoint", ckpt,
                         "--dataset", str(other)]) == 2


class TestBenchAndPe:
    def test_bench_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "b.csv")
        rc = cli.main(["bench", "--lookbacks", "16", "32", "64",
                       "--windows", "4", "8", "--d-model", "16",
                       "--channels", "2", "--conv-channels", "4",
                       "--heads", "2", "--repetitions", "2",
                       "--out", out])
        assert rc == 0
        assert "lookback" in capsys.readouterr().out
        with open(out) as fh:
            assert fh.readline().strip() == "lookback,median_s,mean_s,ratio"
            assert len(fh.readlines()) == 3

    @pytest.mark.parametrize("launch", [
        "from prformer import cli; sys.exit(cli.main())",  # the console script
        "runpy.run_module('prformer.cli', run_name='__main__', alter_sys=True)",  # -m
    ], ids=["console-script", "module"])
    def test_bench_pins_unset_blas_threads_before_numpy_loads(self, launch):
        # BLAS reads the thread count when numpy loads, so the pin is checked
        # in a fresh interpreter at that moment; a count already set is kept
        threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS")
        script = f"""
import atexit, builtins, json, os, runpy, sys
assert "numpy" not in sys.modules
seen = {{}}
real_import = builtins.__import__

def spy(name, *args, **kwargs):
    if name.partition(".")[0] == "numpy" and not seen:
        seen["at_numpy"] = {{v: os.environ.get(v) for v in {threads!r}}}
    return real_import(name, *args, **kwargs)

builtins.__import__ = spy
atexit.register(lambda: print(json.dumps(
    dict(seen, at_exit={{v: os.environ.get(v) for v in {threads!r}}}))))
sys.argv = ["prformer", "bench", "--repetitions", "0"]
{launch}
"""
        env = {k: v for k, v in os.environ.items() if k not in threads}
        env.update(OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, encoding="utf-8")
        assert done.returncode == 1, done.stderr  # stops at parsing
        pinned = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2",
                  "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
        assert json.loads(done.stdout) == {"at_numpy": pinned, "at_exit": pinned}

    def test_check_pe_passes(self, capsys):
        assert cli.main(["check-pe", "--trials", "50"]) == 0
        assert "invariance holds" in capsys.readouterr().out

    def test_check_pe_needs_the_worst_deviation_below_the_tolerance(self, capsys):
        worst = check_pe(trials=50)
        assert cli.main(["check-pe", "--trials", "50", "--tolerance", repr(worst)]) == 3

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["prformer", "check-pe", "--trials", "5"])
        assert cli.main() == 0
        assert "over 5 trials" in capsys.readouterr().out

    def test_check_pe_impossible_tolerance_is_numeric_failure(self, capsys):
        # the smallest tolerance worth asking for; 0 is a usage error
        assert cli.main(["check-pe", "--trials", "50", "--tolerance", "1e-300"]) == 3


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert cli.main(["train", "--config", "does-not-exist.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_config_file_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli.main(["train", "--config", str(p)]) == 1

    def test_config_file_unknown_key(self, dataset, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"dataset": dataset, "lookback": 32,
                                 "pred_len": 8, "learning_rate": 0.01}))
        assert cli.main(["train", "--config", str(p)]) == 1

    def test_missing_dataset_file(self, tmp_path):
        rc = cli.main(["train", "--dataset", str(tmp_path / "nope.csv"),
                       *FAST, "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "h.csv")])
        assert rc == 2

    def test_corrupt_dataset_contents(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,a\n2016-07-01 00:00:00,1.0\n"
                     "2016-07-01 01:00:00,spam\n")
        rc = cli.main(["train", "--dataset", str(p), *FAST,
                       "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "h.csv")])
        assert rc == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_data_is_numeric_failure(self, tmp_path, capsys):
        # float32 variance of 1e30-scale values overflows; the divergence
        # guard should catch the resulting non-finite loss, not crash
        rng = np.random.default_rng(0)
        values = (1e30 * (1.0 + 0.1 * rng.normal(size=(200, 2)))).astype(
            np.float32)
        table = synthetic.mixed_table(n=200, seed=0)
        big = data.SeriesTable(timestamps=table.timestamps[:200],
                               channels=["a", "b"], values=values)
        p = tmp_path / "big.csv"
        data.save_csv(big, str(p))
        rc = cli.main(["train", "--dataset", str(p), *FAST,
                       "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "h.csv")])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_overflowing_train_step_prints_one_line(self, tmp_path):
        # finite float32 values near 1e20 overflow in the first forward; in a
        # fresh process numpy's overflow warnings would each print a line too
        table = synthetic.mixed_table(n=400, seed=9)
        table.values = table.values * np.float32(1e20)
        dataset = str(tmp_path / "big.csv")
        data.save_csv(table, dataset)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run([sys.executable, "-m", "prformer.cli", "train",
                               "--dataset", dataset, *FAST,
                               "--checkpoint", str(tmp_path / "m.ckpt"),
                               "--history", str(tmp_path / "h.csv")],
                              env=env, capture_output=True, encoding="utf-8")
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("numeric failure: ")
        assert done.stderr.count("\n") == 1, done.stderr

    def test_non_finite_validation_metric_is_numeric_failure(self, tmp_path, capsys):
        # 1e25 only in rows that validation windows alone read: a 6:2:2 split
        # of 400 rows at lookback 32 ends train at row 240 and starts the test
        # inputs at row 288. The validation forecast overflows float32.
        table = synthetic.mixed_table(n=400, seed=9)
        values = table.values.copy()
        values[250:260] = 1e25
        p = tmp_path / "spiked.csv"
        data.save_csv(data.SeriesTable(table.timestamps, table.channels, values), str(p))
        ckpt = tmp_path / "m.ckpt"
        rc = cli.main(["train", "--dataset", str(p), *FAST, "--checkpoint", str(ckpt),
                       "--history", str(tmp_path / "h.csv")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1, err
        assert "non-finite validation metric" in err and "epoch 1" in err
        assert not ckpt.exists()

    def test_checkpoint_and_history_on_one_file_is_usage_error(self, dataset, tmp_path,
                                                               capsys):
        ckpt = tmp_path / "out.bin"
        rc = cli.main(["train", "--dataset", dataset, *FAST, "--checkpoint", str(ckpt),
                       "--history", str(tmp_path / "." / "out.bin")])
        out, err = capsys.readouterr()
        assert rc == 1, err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and str(ckpt) in errors[0], err
        assert "epoch" not in out and not ckpt.exists()

    @pytest.mark.parametrize("command", ["train", "predict", "inspect-embeddings"])
    def test_output_naming_an_input_is_usage_error(self, dataset, tmp_path, capsys,
                                                   command):
        # inspect-embeddings reads its dataset path from the checkpoint's config
        ckpt = str(_ckpt_with(tmp_path, lambda m: m["config"].update(dataset=dataset)))
        victim, argv = {
            "train": (dataset, ["train", "--dataset", dataset, *FAST,
                                "--checkpoint", str(tmp_path / "m.ckpt"),
                                "--history", dataset]),
            "predict": (ckpt, ["predict", "--checkpoint", ckpt, "--dataset", dataset,
                               "--out", ckpt]),
            "inspect-embeddings": (dataset, ["inspect-embeddings", "--checkpoint", ckpt,
                                             "--out", dataset]),
        }[command]
        before = open(victim, "rb").read()
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == 1, err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and victim in errors[0], err
        assert open(victim, "rb").read() == before
        assert "epoch" not in out

    # format 3 stored each conv weight as (C_out, C_in, K); format 4 embedded
    # a config with normalized_loss, grad_clip and strict_split
    @pytest.mark.parametrize("version", [3, 4])
    def test_older_format_checkpoint_is_data_error(self, dataset, tmp_path, capsys,
                                                   version):
        path = _ckpt_with(tmp_path, lambda m: m.update(format_version=version))
        assert cli.main(["evaluate", "--checkpoint", str(path), "--dataset", dataset]) == 2
        assert f"unsupported format version {version}" in capsys.readouterr().err

    def test_bad_config_stops_before_the_dataset_is_read(self, tmp_path, capsys):
        rc = cli.main(["train", "--dataset", str(tmp_path / "nope.csv"), *FAST,
                       "--heads", "5", "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "h.csv")])
        _assert_clean_exit(rc, 1, capsys)

    def test_no_dataset_anywhere_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["train", *FAST, "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "h.csv")])
        err = capsys.readouterr().err
        assert rc == 1 and "a dataset path is required" in err

    def test_output_path_that_is_a_directory_is_data_error(self, dataset, tmp_path,
                                                           capsys):
        rc = cli.main(["train", "--dataset", dataset, *FAST,
                       "--checkpoint", str(tmp_path),
                       "--history", str(tmp_path / "h.csv")])
        out, err = capsys.readouterr()
        assert rc == 2, err
        assert str(tmp_path) in err and "epoch" not in out

    def test_write_failing_late_is_data_error_naming_the_path(
            self, dataset, tmp_path, capsys, monkeypatch):
        def disk_full(path, model):
            with data.open_output(path, "wb"):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(training, "save_checkpoint", disk_full)
        rc, ckpt, _ = train_fast(dataset, tmp_path)
        out, err = capsys.readouterr()
        assert rc == 2, err
        assert "epoch   1" in out
        assert err.splitlines() == [
            f"data error: cannot write {ckpt}: No space left on device"]

    def test_evaluate_needs_a_checkpoint(self):
        assert cli.main(["evaluate"]) == 1

    def test_no_subcommand_is_usage_error(self):
        assert cli.main([]) == 1

    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert cli.main(["check-pe", "--bogus"]) == 1

    def test_help_exits_clean(self):
        assert cli.main(["--help"]) == 0

    def test_invalid_hyperparameter_is_usage_error(self, dataset, tmp_path):
        rc = cli.main(["train", "--dataset", dataset, *FAST, "--heads", "5",
                       "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "h.csv")])
        assert rc == 1  # d_model 16 is not divisible by 5 heads


def _ckpt_with(tmp_path, edit=None, tail=b""):
    """A valid checkpoint of the FAST model, its manifest passed through `edit`."""
    config = RunConfig(lookback=32, pred_len=8, pyramidal_windows=(4, 8),
                       d_model=16, heads=2, conv_channels=4, seed=3)
    path = tmp_path / "c.ckpt"
    save_checkpoint(str(path), PRformer(config, 3))
    blob = path.read_bytes()
    if edit is not None:
        (n,) = struct.unpack("<I", blob[:4])
        manifest = json.loads(blob[4:4 + n])
        edit(manifest)
        head = json.dumps(manifest).encode()
        blob = struct.pack("<I", len(head)) + head + blob[4 + n:]
    path.write_bytes(blob + tail)
    return path


BAD_CONFIGS = {
    "not-json": b"{lookback: 32",
    "json-list": b"[32, 8]",
    "binary": b"\xff\xfe\x00\x81",
    "lr-string": {"lr": "fast"},
    "lr-nan": b'{"lookback": 32, "pred_len": 8, "lr": NaN}',
    "windows-int": {"pyramidal_windows": 4},
    "windows-strings": {"pyramidal_windows": ["a", "b"]},
    "d-model-null": {"d_model": None},
    "dropout-null": {"dropout": None},
    "seed-negative": {"seed": -1},
    "heads-zero": {"heads": 0},
    "variant-list": {"variant": ["full"]},
    "unknown-key": {"windows": [4]},
    "temperature-retired": {"temperature": 1.0},
    "normalized-loss-retired": {"normalized_loss": True},
    "grad-clip-retired": {"grad_clip": 1.5},
    "strict-split-retired": {"strict_split": True},
    # a one-step window leaves RevIN no spread to measure
    "lookback-one": {"lookback": 1, "pred_len": 1, "pyramidal_windows": [1]},
    # V3 keeps the full model's per-level width, which D=2 cannot give 3 levels
    "v3-width-below-levels": {"lookback": 96, "pyramidal_windows": [4, 8, 16],
                              "variant": "V3", "d_model": 2, "heads": 1},
    # each rule below has one home, the checks a RunConfig runs when built
    "heads-not-dividing": {"d_model": 16, "heads": 5},
    "dropout-one": {"dropout": 1.0},
    "split-unknown": {"split_scheme": "5:5"},
    "lookback-below-top-window": {"lookback": 16, "pyramidal_windows": [24]},
    # V2 builds no pyramid, so lookback >= 2 is RevIN's only guard
    "v2-lookback-one": {"lookback": 1, "pred_len": 1, "variant": "V2"},
    "lr-zero": {"lr": 0.0},
    "lr-decay-zero": {"lr_decay": 0.0},
    "lr-decay-above-one": {"lr_decay": 1.5},
    # a float window must stop at the integer check, before pyramid_kernels
    "window-float": {"pyramidal_windows": [24.5]},
}


def _series(cells):
    """A one-channel CSV with hourly dates and the given cells."""
    return "date,a\n" + "".join(f"2016-07-{1 + i // 24:02d} {i % 24:02d}:00:00,{c}\n"
                                 for i, c in enumerate(cells))


BAD_CSVS = {
    # long enough to split, so only the bad cell can stop the run
    "nan": _series(["1.0"] * 150 + ["nan"] + ["1.0"] * 149),
    "inf": _series(["1.0"] * 150 + ["-inf"] + ["1.0"] * 149),
    "empty": "",
    "header-only": "date,a\n",
    # date-only and repeated-date are long enough to split, so only their
    # own checks can stop them
    "date-only": _series(["1.0"] * 300).replace("date,a", "date").replace(",1.0", ""),
    "ragged": "date,a,b\n2016-07-01 00:00:00,1.0\n",
    "repeated-column": _series(["1.0,2.0"] * 300).replace("date,a\n", "date,a,a\n"),
    "text-cell": _series(["1.0", "spam"]),
    "nul-byte": _series(["1.0", "1\x00.0"]),
    "repeated-date": _series(["1.0"] * 300).replace("2016-07-03 06:00", "2016-07-03 05:00"),
    "too-short": _series(["1.0"] * 20),
}

BAD_CHECKPOINTS = {
    "empty": lambda tmp: _write(tmp, b""),
    "garbage": lambda tmp: _write(tmp, b"\x10\x00\x00\x00not json at all!"),
    "truncated": lambda tmp: _write(tmp, _ckpt_with(tmp).read_bytes()[:-9]),
    "trailing-bytes": lambda tmp: _ckpt_with(tmp, tail=b"\x00" * 4),
    "no-config": lambda tmp: _ckpt_with(tmp, lambda m: m.pop("config")),
    "channels-negative": lambda tmp: _ckpt_with(tmp, lambda m: m.update(channels=-3)),
    "params-string": lambda tmp: _ckpt_with(tmp, lambda m: m.update(params="w")),
    "dtype-other": lambda tmp: _ckpt_with(
        tmp, lambda m: m["params"][0].update(dtype="float64")),
    "config-invalid": lambda tmp: _ckpt_with(
        tmp, lambda m: m["config"].update(heads=3)),
    "directory": lambda tmp: tmp,
}


# flags outside RunConfig that used to crash or check nothing, and flags of
# retired RunConfig fields
BAD_FLAGS = {
    "count-zero": ["inspect-embeddings", "--count", "0"],
    "count-negative": ["inspect-embeddings", "--count", "-1"],
    "lookbacks-two": ["bench", "--lookbacks", "720", "1440"],
    "lookbacks-below-window": ["bench", "--lookbacks", "10", "20", "30"],
    "lookbacks-repeated": ["bench", "--lookbacks", "16", "16", "16", "--windows", "4",
                           "--d-model", "16", "--heads", "2", "--repetitions", "1"],
    "repetitions-zero": ["bench", "--repetitions", "0"],
    "channels-zero": ["bench", "--channels", "0"],
    "no-pin-retired": ["bench", "--no-pin"],
    "pe-width-odd": ["check-pe", "--d-model", "3"],
    "pe-width-zero": ["check-pe", "--d-model", "0"],
    "pe-trials-zero": ["check-pe", "--trials", "0"],
    "pe-seed-negative": ["check-pe", "--seed", "-1"],
    "pe-tolerance-negative": ["check-pe", "--tolerance", "-1"],
    "pe-tolerance-zero": ["check-pe", "--tolerance", "0"],
    "pe-tolerance-nan": ["check-pe", "--tolerance", "nan"],
    "normalized-loss-retired": ["train", *FAST, "--normalized-loss"],
    "grad-clip-retired": ["train", *FAST, "--grad-clip", "1.5"],
    "strict-split-retired": ["train", *FAST, "--strict-split"],
}


def _write(tmp_path, blob, name="bad.bin"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


def _assert_clean_exit(rc, expected, capsys):
    err = capsys.readouterr().err
    assert rc == expected, err
    assert "Traceback" not in err and err.strip()
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


class TestMalformedInputContract:
    """Bad configs, CSVs, checkpoints and flags end in an exit code and a
    one-line message, never in an exception."""

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_config(self, dataset, tmp_path, capsys, case):
        content = BAD_CONFIGS[case]
        if isinstance(content, dict):
            content = json.dumps({"lookback": 32, "pred_len": 8, **content}).encode()
        path = _write(tmp_path, content, "cfg.json")
        rc = cli.main(["train", "--config", str(path), "--dataset", dataset,
                       "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "h.csv")])
        _assert_clean_exit(rc, 1, capsys)

    def test_config_directory(self, tmp_path, capsys):
        _assert_clean_exit(cli.main(["train", "--config", str(tmp_path)]), 1, capsys)

    @pytest.mark.parametrize("case", sorted(BAD_CSVS))
    def test_csv(self, tmp_path, capsys, case):
        path = _write(tmp_path, BAD_CSVS[case].encode(), "bad.csv")
        rc = cli.main(["train", "--dataset", str(path), *FAST,
                       "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "h.csv")])
        _assert_clean_exit(rc, 2, capsys)

    def test_csv_directory(self, tmp_path, capsys):
        rc = cli.main(["train", "--dataset", str(tmp_path), *FAST,
                       "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "h.csv")])
        _assert_clean_exit(rc, 2, capsys)

    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_checkpoint(self, dataset, tmp_path, capsys, case):
        path = BAD_CHECKPOINTS[case](tmp_path)
        rc = cli.main(["evaluate", "--checkpoint", str(path), "--dataset", dataset])
        _assert_clean_exit(rc, 2, capsys)

    @pytest.mark.parametrize("flag, code, what", [
        ("--config", 1, "config file"),
        ("--dataset", 2, "dataset file"),
        ("--checkpoint", 2, "checkpoint"),
    ])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_is_named(self, dataset, tmp_path, capsys, flag, code, what,
                                       kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        argv = {"--config": ["train", "--config", str(path)],
                "--dataset": ["train", "--dataset", str(path), *FAST,
                              "--checkpoint", str(tmp_path / "m.ckpt"),
                              "--history", str(tmp_path / "h.csv")],
                "--checkpoint": ["evaluate", "--checkpoint", str(path),
                                 "--dataset", dataset]}[flag]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == code, err
        prefix = "error" if code == 1 else "data error"
        expected = (f"{what} not found: {path}" if kind == "missing" else
                    f"cannot read {what} {path}: {os.strerror(errno.EISDIR)}")
        assert err.splitlines()[0] == f"{prefix}: {expected}"

    @pytest.mark.parametrize("command", ["train-checkpoint", "train-history", "predict",
                                         "inspect-embeddings", "bench"])
    def test_output_in_missing_directory(self, dataset, tmp_path, capsys, command):
        missing = str(tmp_path / "no-such-dir" / "out.csv")
        ckpt = str(_ckpt_with(tmp_path))
        argv = {
            "train-checkpoint": ["train", "--dataset", dataset, *FAST,
                                 "--checkpoint", missing,
                                 "--history", str(tmp_path / "h.csv")],
            "train-history": ["train", "--dataset", dataset, *FAST,
                              "--checkpoint", str(tmp_path / "m.ckpt"),
                              "--history", missing],
            "predict": ["predict", "--checkpoint", ckpt, "--dataset", dataset,
                        "--out", missing],
            "inspect-embeddings": ["inspect-embeddings", "--checkpoint", ckpt,
                                   "--dataset", dataset, "--out", missing],
            "bench": ["bench", "--lookbacks", "16", "--windows", "4", "--d-model", "16",
                      "--heads", "2", "--repetitions", "1",
                      "--out", missing],
        }[command]
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == 2, err
        assert "Traceback" not in err and missing in err
        assert "epoch" not in out  # train stops before its first epoch

    @pytest.mark.parametrize("command, detail", [
        ("train", "Unable to allocate 1.82 TiB for an array"),  # numpy's wording
        ("bench", ""),
    ])
    def test_out_of_memory_is_a_data_error(self, monkeypatch, capsys, command, detail):
        # a stand-in handler raises at once, so nothing large is allocated
        def run_out(args):
            raise MemoryError(detail)

        monkeypatch.setattr(cli, f"cmd_{command}", run_out)
        rc = cli.main([command])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.splitlines() == [
            f"data error: out of memory: {detail or 'reduce the model or its inputs'}"]

    @pytest.mark.parametrize("argv", [
        ["train", "--d-model", str(10**20), "--heads", "1"],
        ["train", "--d-model", str(10**400), "--heads", "1"],  # past float's range
        ["train", "--variant", "V2", "--lookback", str(10**20)],
        ["train", "--pred-len", str(2**62)],
        ["train", "--conv-channels", str(2**62)],
        ["bench", "--lookbacks", str(10**20), str(2 * 10**20), str(4 * 10**20),
         "--windows", "4", "8"],
        ["bench", "--channels", str(10**20)],
        ["check-pe", "--d-model", str(2**62)],
        ["evaluate"],  # on a checkpoint whose manifest claims 10**20 channels
    ], ids=["d-model", "d-model-past-float", "v2-lookback", "pred-len", "conv-channels",
            "bench-lookbacks", "bench-channels", "check-pe-d-model", "manifest-channels"])
    def test_size_numpy_cannot_address_is_out_of_memory(self, dataset, tmp_path, capsys,
                                                         argv):
        # the size check runs before numpy is asked, so nothing large is allocated
        command, *flags = argv
        if command == "train":  # after FAST's flags, so that the ones above win
            argv = ["train", *FAST, *flags, "--dataset", dataset,
                    "--checkpoint", str(tmp_path / "m.ckpt"),
                    "--history", str(tmp_path / "h.csv")]
        elif command == "evaluate":
            ckpt = _ckpt_with(tmp_path, lambda m: m.update(channels=10**20))
            argv = ["evaluate", "--checkpoint", str(ckpt), "--dataset", dataset]
        elif command == "bench":
            argv = [*argv, "--out", str(tmp_path / "b.csv")]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("data error: out of memory: an array of shape (")

    @pytest.mark.parametrize("case", sorted(BAD_FLAGS))
    def test_flag_outside_config(self, dataset, tmp_path, capsys, case):
        argv = BAD_FLAGS[case]
        if argv[0] == "train":  # would run to the end if the flag were taken
            argv = [*argv, "--dataset", dataset, "--checkpoint", str(tmp_path / "m.ckpt"),
                    "--history", str(tmp_path / "h.csv")]
        elif argv[0] != "check-pe":
            argv = [*argv, "--out", str(tmp_path / "out.csv")]
        if argv[0] == "inspect-embeddings":
            argv += ["--checkpoint", str(_ckpt_with(tmp_path)), "--dataset", dataset]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 1, err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


RUN_CONFIG_FLAG_VALUES = {
    "lookback": (["64"], 64),
    "pred_len": (["16"], 16),
    "pyramidal_windows": (["4", "8"], (4, 8)),
    "e_layers": (["2"], 2),
    "d_model": (["32"], 32),
    "d_ff": (["48"], 48),
    "heads": (["4"], 4),
    "conv_channels": (["8"], 8),
    "dropout": (["0.25"], 0.25),
    "batch_size": (["16"], 16),
    "lr": (["0.01"], 0.01),
    "seed": (["7"], 7),
    "variant": (["V3"], "V3"),
    "dataset": (["elsewhere.csv"], "elsewhere.csv"),
    "split_scheme": (["7:1:2"], "7:1:2"),
    "max_epochs": (["5"], 5),
    "patience": (["3"], 3),
    "lr_decay": (["0.5"], 0.5),
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
def test_every_config_field_has_a_flag(name):
    values, expected = RUN_CONFIG_FLAG_VALUES[name]
    flag = "--" + name.replace("_", "-")
    args = cli.build_parser().parse_args(
        ["train", "--lookback", "32", "--pred-len", "8", flag, *values])
    assert getattr(cli.resolve_config(args), name) == expected
