"""prformer benchmark: one command, closed-loop workloads.

    python3 perfbench/run.py --workload train-long --seed 1 --seconds 55 --trace 0

Run from the repository root. It imports `prformer` from `src/` of the same
checkout, never an installed copy, and exits 2 without a result if `src/`
is absent. Scratch files go to `.perfbench/` under the root and are removed
at exit; a traced run also leaves its spans in
`.perfbench/trace-<workload>-seed<seed>.json`.

BENCHMARK.json lists `train-long` and `forecast-long`. `train-wide` runs the
same way but is left out of it: its 40-step tail is too noisy for a bound
and train-long's traced run already covers the encoder layers.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics named in BENCHMARK.json. They mean the same thing on
every workload:

    setup_s            median of 9 set-ups: generate, write and load the CSV,
                       build the model (forecast-long: save and load the
                       checkpoint); wall-clock seconds
    peak_rss_mb        peak resident set size of the process
    windows_per_ref_s  train-*: train.windows_per_s, training windows per
                       second of training.train, validation included,
                       median of 3 fixed-epoch jobs; forecast-long:
                       predict.windows_per_s, test windows per second of
                       load_checkpoint + predict_over_range +
                       write_predictions, median over passes
    step_ref_ms.p50    train-*: train_step_ms (forward, loss, backward, Adam,
    step_ref_ms.p75    clamp); forecast-long: forecast_batch_ms, the wait for
                       each batch from predict_over_range

The rate and the step percentiles are host-normalized (see hostprobe.py): a
fixed numpy/Python probe runs between timed operations, and each time is
divided by the mean of the probes around it and multiplied by the probe time
of a reference host. On a shared host that cuts the run-to-run spread of
these metrics about threefold; a change to `prformer` moves them as it moves
wall time. The table above the JSON also prints the wall-clock values
(`windows_per_s`, `step_ms.*`), the probe's own median, train.val_mae,
forecast.windows_per_s (evaluate) and forecast.test_mae; they are not
bounded, the last three because they vary with the seed.

The tail is p75 because a percentile is reported only with ten samples
beyond it, and a run holds fewer than 100 train-long steps.

With `--trace 1` a separate run reports the per-layer metrics instead; it
does a fixed amount of work (5 traced steps, forwards and backward cuts at
L and at L/2) and ignores `--seconds`. Lines
before the JSON list every metric with its unit and notes, the correctness
checks, and the host. The exit code is 1 when any check fails.
"""

import os

# must precede the first numpy import to take effect
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def host_record(seed):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prformer" / "__init__.py").is_file():
        print(f"error: no prformer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prformer

    if Path(prformer.__file__).resolve().parent != SRC / "prformer":
        print(f"error: imported prformer from {prformer.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    w = workloads.WORKLOADS[args.workload]
    host = host_record(args.seed)

    base = ROOT / ".perfbench"
    work = base / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out, tracer = workloads.Outcome(), Tracer()
    try:
        if args.trace:
            workloads.run_traced(out, w, args.seed, work, tracer)
        elif w.kind == "train":
            workloads.run_train(out, w, args.seed, args.seconds, work)
        else:
            workloads.run_forecast(out, w, args.seed, args.seconds, work)
    except Exception:  # a crash is one failed operation; report what was measured
        traceback.print_exc()
        out.op(False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        trace_file = base / f"trace-{w.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": w.name, "host": host, "spans": tracer.to_json(),
             "metrics": {k: list(v) for k, v in out.metrics.items()}}))
        out.notes.append(f"spans: {trace_file.relative_to(ROOT)}")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, note) in out.metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} {note}")
    print(f"  {'ops.attempted':40s} {out.attempted:14d} count")
    print(f"  {'ops.failed_frac':40s} {out.failed / max(1, out.attempted):14.6g} 1")
    for note in out.notes:
        print(f"  {note}")
    metrics = {}
    for m in wanted:
        if m["name"] in out.metrics:
            metrics[m["name"]] = {"value": out.metrics[m["name"]][0], "unit": m["unit"]}
        else:
            print(f"  missing metric {m['name']}")
    print("host " + json.dumps(host))
    correct = out.failed == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
