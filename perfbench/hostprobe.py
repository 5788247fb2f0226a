"""A fixed reference kernel that tracks the speed of a shared host.

On a shared host the same step runs up to a third slower for stretches of
tens of seconds, and whole runs land in fast or slow stretches. The
benchmark therefore runs this probe between its timed operations and
reports each operation's time divided by the mean time of the probes on
either side of it, rescaled to `REF_MS`. A value in `ref_ms` is the time the
operation would take on a host where one probe takes `REF_MS` milliseconds;
a rate in `1/ref_s` is per such reference second.

The probe uses numpy and Python only, never `prformer`, and its work is the
same on every run, so a change to the program moves the ratio and a change
in host speed does not. Its mix follows what a step spends time on: a
GRU-like loop of small matmuls and elementwise ops, a BLAS matmul, and
CSV rows of float reprs written by Python.
"""

from __future__ import annotations

import csv
import io
import time
from contextlib import contextmanager

import numpy as np

REF_MS = 25.0  # probe time of the reference host, about one probe on a 2-core Xeon VM


class HostProbe:
    """Runs the reference kernel and turns wall times into `ref_ms`."""

    def __init__(self):
        g = np.random.default_rng(20240820)  # fixed: the same work on every run
        self._x = g.standard_normal((10, 224, 24)).astype(np.float32)
        self._wx = (0.1 * g.standard_normal((24, 384))).astype(np.float32)
        self._wh = (0.1 * g.standard_normal((128, 384))).astype(np.float32)
        self._a = g.standard_normal((384, 384))
        self._rows = g.standard_normal((100, 7)).astype(np.float32)
        self.samples = []  # seconds per probe, in the order they ran

    def _kernel(self):
        h, hs = np.zeros((224, 128), np.float32), []
        for x in self._x:
            z = x @ self._wx + h @ self._wh
            r = 1.0 / (1.0 + np.exp(-z[:, :128]))
            u = 1.0 / (1.0 + np.exp(-z[:, 128:256]))
            h = u * h + (1.0 - u) * np.tanh(z[:, 256:] * r)
            hs.append(h)
        total = float(np.stack(hs).sum())
        for _ in range(3):
            total += float((self._a @ self._a)[0, 0])
        buf = io.StringIO()
        writer = csv.writer(buf)
        for i, row in enumerate(self._rows):
            for c, v in enumerate(row):
                writer.writerow([i, c, "c", repr(float(v)), repr(float(-v))])
        return total + buf.tell()

    def run(self):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def mark(self):
        """Call after a probe and right before the timed work starts."""
        if not self.samples:
            self.run()
        return len(self.samples)

    def ref_ms(self, wall, mark):
        """`wall` seconds of work begun at `mark`, in reference milliseconds.

        Call right after a probe that follows the work. The probes taken
        inside the work are not part of it and are subtracted from `wall`;
        the work is scaled by the mean of those probes and the two that
        bracket it.
        """
        window = self.samples[mark - 1:]
        if len(window) < 2:
            raise ValueError("no probe has run since the mark")
        work = wall - sum(window[1:-1])
        return work * REF_MS / float(np.mean(window))

    def measure(self, fn, *args):
        """Run `fn(*args)` between two probes.

        Returns its result, its wall seconds and its `ref_ms`, both without
        the probes run inside it (see `between_batches`).
        """
        mark = self.mark()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.run()
        return result, wall - sum(self.samples[mark:-1]), self.ref_ms(wall, mark)


@contextmanager
def between_batches(probe, module):
    """Run `probe` before each batch that `module` draws from `window_iter`.

    `training.train` and `training.evaluate` look `window_iter` up in their
    module at call time, so long calls get probes all the way through. If
    the module no longer has `window_iter`, nothing is probed inside and
    only the bracketing probes count.
    """
    original = getattr(module, "window_iter", None)
    if original is None:
        yield
        return

    def probed(*args, **kwargs):
        for batch in original(*args, **kwargs):
            probe.run()
            yield batch

    module.window_iter = probed
    try:
        yield
    finally:
        module.window_iter = original
