"""Benchmark of targetset: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload gnp-solve --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
A run does one untimed warm-up iteration whose outputs get the full checks,
then timed iterations (set-up, then run) until ``--seconds`` have passed.
While an iteration runs, a :class:`pace.Pacer` samples the machine's speed,
and its CPU times are reported rescaled to a fixed reference speed (see
``perfbench/README.md``); the raw CPU and wall seconds are kept in the info.
With ``--trace 1`` every second iteration records spans, and the result
carries the per-layer metrics instead of the end-to-end ones.

The last stdout line is the JSON result; the line before it starts with
``info`` and holds the machine, graph and output digests.  The same info,
plus the spans of a traced run, is written to ``perfbench/out/``.  Exits 1
when any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from pace import Pacer
from spans import Recorder, layer_metrics, median_metrics, span_records

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

clock = time.perf_counter
cpu_clock = time.process_time


def load_program():
    """Import ``targetset`` from this checkout's ``src/``, never from elsewhere."""
    package = ROOT / "src" / "targetset"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a targetset checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import targetset

    if Path(targetset.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported targetset from {targetset.__file__}, not {package}")
    return targetset


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": model}


def measure(workload, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """Run one workload; return (metric values, info, span records)."""
    # One entry per timed iteration: raw wall and CPU seconds, and how much
    # slower than the reference the machine ran meanwhile.
    iterations, layers, records = [], [], []

    start = clock()
    inputs = workload.setup()
    warmup_setup_s = clock() - start
    facts, inspected = workload.inspect(inputs)
    with Recorder(keep=True) as recorder:
        outputs = workload.run(inputs)
    first = workload.check(inputs, outputs)
    first.merge(inspected)
    first.merge(workload.deep_check(inputs, outputs, recorder.spans))
    del inputs, outputs, recorder
    attempted, failed = first.attempted, first.failed
    failures = [f"warm-up {op}: {m}" for op, ms in first.failures.items() for m in ms]

    deadline = clock() + seconds
    i = 0
    while i < (2 if trace else 1) or clock() < deadline:
        traced = trace and i % 2 == 1
        gc.collect()  # no garbage left over from the iteration before
        with Pacer() as pacer, Recorder() if traced else contextlib.nullcontext() as recorder:
            t0, c0 = clock(), cpu_clock()
            inputs = workload.setup()
            t1, c1 = clock(), cpu_clock()
            outputs = workload.run(inputs)
            t2, c2 = clock(), cpu_clock()
        iterations.append({"traced": traced, "setup_s": t1 - t0, "run_s": t2 - t1,
                           "setup_cpu_s": c1 - c0, "run_cpu_s": c2 - c1,
                           "slowdown": pacer.slowdown(), "ticks": len(pacer.ticks)})
        if traced:
            layers.append(layer_metrics(recorder.spans))
            records.extend(span_records(recorder.spans, i))
        outcome = workload.check(inputs, outputs)
        del inputs, outputs, recorder
        changed = sorted(k for k, v in outcome.digests.items() if first.digests.get(k) != v)
        attempted += outcome.attempted
        # Output that differs from the warm-up's fails every operation it holds.
        failed += outcome.attempted if changed else outcome.failed
        failures += [f"iteration {i}: {k} differs from the warm-up" for k in changed]
        failures += [f"iteration {i} {op}: {m}" for op, ms in outcome.failures.items() for m in ms]
        i += 1

    def median(key: str, traced: bool) -> float:
        return statistics.median(it[key] for it in iterations if it["traced"] == traced)

    def rescaled(key: str, traced: bool) -> float:
        """Median CPU seconds of ``key`` over the (un)traced iterations, each
        divided by how many times slower than the reference the machine ran."""
        return statistics.median(it[key] / it["slowdown"]
                                 for it in iterations if it["traced"] == traced)

    if trace:
        values = median_metrics(layers)
        # Wall seconds, like the span times, so that shares of them add up.
        values["trace.run_s"] = median("run_s", True)
        values["trace.setup_s"] = median("setup_s", True)
        values["trace.overhead_ratio"] = rescaled("run_cpu_s", True) / rescaled("run_cpu_s", False)
    else:
        values = {
            "setup_s": rescaled("setup_cpu_s", False),
            "run_s": rescaled("run_cpu_s", False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tss_seeds": first.tss_seeds,
            "ok_ratio": 1.0 - failed / attempted,
        }
    info = {
        "machine": machine(),
        "warmup_setup_s": warmup_setup_s,
        "iterations": iterations,
        "graph": facts,
        "tss_seeds": first.tss_seeds,
        "greedy_seeds": first.greedy_seeds,
        "bound_checks": first.bound_checks,
        "digests": first.digests,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    return values, info, records


def result_line(values: dict, metrics: list[dict], info: dict) -> str:
    names = [m["name"] for m in metrics]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json names {sorted(names)}")
    return json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not __debug__:
        raise SystemExit("error: run under plain python3, not -O: the measured program keeps its asserts")
    # run_bench must stay serial: one caller, no worker threads.
    os.environ.pop("TARGETSET_THREADS", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        values, info, records = measure(workload, args.seconds, bool(args.trace))
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **info}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"info": info, "spans": records}) + "\n")
    for line in info["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print("info " + json.dumps(info))
    print(result_line(values, spec["per_layer" if args.trace else "end_to_end"], info))
    return 0 if info["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
