"""Tests of the benchmark's own helpers.

Run from the repository root: python3 -m pytest perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from hostprobe import REF_MS, HostProbe, between_batches  # noqa: E402
from prformer import data, tensor as T  # noqa: E402
from stats import min_samples, percentile  # noqa: E402
from tracing import Span, Tracer, graph_counts, self_times  # noqa: E402
from workloads import make_table  # noqa: E402


def test_median_needs_one_sample():
    assert percentile([3.0], 50) == 3.0
    assert percentile([1.0, 5.0, 2.0], 50) == 2.0
    assert percentile([], 50) is None


@pytest.mark.parametrize("q, n", [(75, 40), (90, 100), (95, 200), (99, 1000)])
def test_tail_percentile_needs_ten_samples_beyond(q, n):
    assert min_samples(q) == n
    assert percentile(list(range(n - 1)), q) is None
    samples = list(range(n, 0, -1))
    value = percentile(samples, q)
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 41)]
    assert percentile(samples, 75) == 30.0


def _span(name, start, end, parent):
    return Span(name, start, end, parent, "step:0")


def test_self_time_subtracts_union_of_children():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 3.0, 0),
             _span("b", 2.0, 5.0, 0),  # overlaps a: covered time is 1..5
             _span("a.inner", 1.5, 2.5, 1),
             _span("c", 8.0, 12.0, 0)]  # runs past the root: clipped at 10
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 1.0, 4.0])


def test_self_time_of_leaf_is_its_duration():
    assert self_times([_span("x", 2.0, 2.5, -1)]) == pytest.approx([0.5])


def test_tracer_nests_spans_and_numbers_levels():
    tracer = Tracer()
    with tracer.span("outer"):
        for _ in range(2):
            with tracer.span(tracer._name("level{}")):
                pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("level0", 0), ("level1", 0)]
    assert len(tracer.durations("level1", "setup")) == 1


def test_missing_target_is_reported_not_raised():
    import types

    module = types.ModuleType("gone")
    tracer = Tracer()
    tracer.wrap(module, "removed_function", "gone.removed")
    assert tracer.missing == ["gone.removed_function"]
    tracer.uninstall()


def test_graph_counts_walk_op_and_parents():
    x = T.tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    y = T.sum_(T.mul(T.add(x, x), x))
    counts = graph_counts(y)
    assert counts["by_op"] == {"add": 1, "mul": 1, "sum": 1}
    assert counts["nodes"] == 3
    assert counts["bytes"] == 3 * 24 + 4


def test_seed_gives_byte_identical_table(tmp_path):
    paths = []
    for i, seed in enumerate((5, 5, 6)):
        paths.append(tmp_path / f"t{i}.csv")
        data.save_csv(make_table(40, 7, seed), paths[-1])
    first, again, other = (p.read_bytes() for p in paths)
    assert first == again
    assert first != other
    assert data.load_csv(paths[0]).values.shape == (40, 7)


def test_ref_ms_drops_inner_probes_and_scales_by_bracket_mean():
    probe = HostProbe()
    probe.samples = [0.010]  # the probe right before the work
    mark = probe.mark()
    probe.samples += [0.030, 0.020]  # one probe inside the work, one after
    # 0.5 s of wall time, 0.03 s of it the inner probe; probe mean 0.02 s
    assert probe.ref_ms(0.5, mark) == pytest.approx(0.47 / 0.02 * REF_MS)


def test_ref_ms_needs_a_probe_after_the_work():
    probe = HostProbe()
    mark = probe.mark()
    assert len(probe.samples) == 1  # a first mark runs a probe
    with pytest.raises(ValueError):
        probe.ref_ms(1.0, mark)


def test_measure_leaves_out_probes_run_inside():
    probe = HostProbe()
    result, wall, ref = probe.measure(probe.run)
    assert result is None
    assert len(probe.samples) == 3  # before, inside, after
    assert 0.0 <= wall < 0.5 * probe.samples[1]
    assert ref == pytest.approx(wall * REF_MS / np.mean(probe.samples))


def test_between_batches_probes_each_batch_and_restores():
    import types

    module = types.SimpleNamespace(window_iter=lambda n: iter(range(n)))
    original = module.window_iter
    probe = HostProbe()
    with between_batches(probe, module):
        assert list(module.window_iter(3)) == [0, 1, 2]
    assert len(probe.samples) == 3
    assert module.window_iter is original
    with between_batches(probe, types.SimpleNamespace()):
        pass  # a module without window_iter is left alone
