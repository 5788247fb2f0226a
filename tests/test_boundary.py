"""The program's file boundary: every file it reads or writes opens in
`data.py`, and a damaged input ends in the boundary's own error.

The fuzz tests flip, insert and cut bytes of a valid dataset, config file
and checkpoint. Each call must return or raise `DataError`, `CheckpointError`
or `ConfigError`, which `cli.main` turns into an exit code and one line; any
other exception would reach the user as a traceback.
"""

import ast
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prformer.config import ConfigError, RunConfig, read_config_file
from prformer.data import DataError, load_csv
from prformer.model import PRformer
from prformer.training import CheckpointError, load_checkpoint, save_checkpoint

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prformer"
# the only functions that open a file; pathlib's shortcuts open one too
OPENERS = {("data", "read_input"), ("data", "open_output")}
PATH_SHORTCUTS = {"read_text", "read_bytes", "write_text", "write_bytes"}


def _opens(tree):
    """(enclosing top-level function, line) of each call in `tree` that opens
    a file: `open(...)`, `io.open(...)`, `<x>.open(...)` or a pathlib shortcut."""
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open" or \
                    isinstance(func, ast.Attribute) and \
                    (func.attr == "open" or func.attr in PATH_SHORTCUTS):
                yield getattr(top, "name", None), node.lineno


def test_files_open_only_in_the_boundary_functions():
    stray = [f"{path.name}:{line} in {owner}"
             for path in sorted(PACKAGE.glob("*.py"))
             for owner, line in _opens(ast.parse(path.read_text(encoding="utf-8")))
             if (path.stem, owner) not in OPENERS]
    assert not stray, f"open files through data.read_input or data.open_output: {stray}"


FUZZ = settings(derandomize=True, max_examples=400, deadline=None, database=None)


def _mutate(data, blob, spans):
    """`blob` with up to three bytes flipped or inserted at offsets drawn from
    the half-open `spans` of the original, then maybe cut short anywhere."""
    offsets = st.sampled_from(spans).flatmap(lambda span: st.integers(span[0], span[1] - 1))
    edits = data.draw(st.lists(st.tuples(offsets, st.booleans(), st.integers(1, 255)),
                               max_size=3))
    out = bytearray(blob)
    for at, insert, byte in sorted(edits, reverse=True):  # later offsets first
        if insert:
            out.insert(at, byte)
        elif at < len(blob):
            out[at] ^= byte
    if data.draw(st.booleans()):
        del out[data.draw(st.integers(0, len(out))):]
    return bytes(out)


def _probe(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.input"
    path.write_bytes(blob)
    return str(path)


CSV = ("date,a,\"b,c\"\n" + "".join(f"2016-07-01 {h:02d}:00:00,{h / 7!r},{-h}.5\n"
                                     for h in range(12))).encode()

CONFIG = json.dumps({"lookback": 32, "pred_len": 8, "pyramidal_windows": [4, 8],
                     "d_model": 16, "heads": 2, "conv_channels": 4, "dropout": 0.1,
                     "lr": 0.001, "variant": "full", "split_scheme": "6:2:2",
                     "dataset": "series.csv"}).encode()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A saved model's archive and its manifest length."""
    config = RunConfig(lookback=32, pred_len=8, pyramidal_windows=(4, 8), d_model=16,
                       heads=2, conv_channels=4)
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(str(path), PRformer(config, 3))
    blob = path.read_bytes()
    return blob, struct.unpack("<I", blob[:4])[0]


@FUZZ
@given(data=st.data())
def test_damaged_dataset_is_a_data_error(tmp_path_factory, data):
    path = _probe(tmp_path_factory, _mutate(data, CSV, [(0, len(CSV) + 1)]))
    try:
        table = load_csv(path)
    except DataError:
        return
    assert table.values.dtype == np.float32 and np.isfinite(table.values).all()


@FUZZ
@given(data=st.data())
@pytest.mark.filterwarnings("ignore::prformer.config.PyramidConfigWarning")
def test_damaged_config_file_is_a_config_error(tmp_path_factory, data):
    path = _probe(tmp_path_factory, _mutate(data, CONFIG, [(0, len(CONFIG) + 1)]))
    try:
        RunConfig.from_dict(read_config_file(path))
    except ConfigError:
        pass


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_is_a_checkpoint_error(checkpoint, tmp_path_factory, data):
    # the manifest is left whole: one edited digit there can ask for a model
    # too large to build; its own checks are in test_training.py
    blob, length = checkpoint
    spans = [(0, 4), (4 + length, len(blob) + 1)]  # the length header, the payload
    try:
        load_checkpoint(_probe(tmp_path_factory, _mutate(data, blob, spans)))
    except CheckpointError:
        pass
