"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Every workload must report every metric BENCHMARK.json names, two traced
runs must repeat their counts exactly, the preferential-attachment generator
must be byte-deterministic per seed, the pacer must tick and put the alarm
back, and the command must fail without a result when the program's
sources are missing.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys

import pytest

import run

run.load_program()

import targetset  # noqa: E402
from pace import Pacer, tick  # noqa: E402
from workloads import WORKLOADS, preferential_attachment  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"gnp-sweep": {"n": 200}, "gnp-solve": {"n": 600}, "powerlaw-solve": {"n": 500}}
# Per-layer metrics that count work rather than time it.
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] in ("count", "ratio") and m["name"] != "trace.overhead_ratio"]


def measure(name: str, seed: int, trace: bool, workdir) -> tuple[dict, dict]:
    workload = WORKLOADS[name](seed, workdir, **TINY[name])
    values, info, _ = run.measure(workload, 0.0, trace)
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    return json.loads(run.result_line(values, metrics, info)), info


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_metric(name, trace, tmp_path):
    result, info = measure(name, 3, trace, tmp_path)
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert info["graph"]["n"] > 0 and info["digests"]
    if name != "gnp-sweep":
        assert info["graph"]["heap_key_bits"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_repeat_their_counts(name, tmp_path):
    first, first_info = measure(name, 5, True, tmp_path)
    second, second_info = measure(name, 5, True, tmp_path)
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first_info["digests"] == second_info["digests"]
    # Leaving the recorder restores every public function.
    assert not hasattr(targetset.tss_solve, "__wrapped__")
    assert not hasattr(targetset.bench.bound_new, "__wrapped__")


def test_layer_split_follows_the_workloads(tmp_path):
    split = {}
    for name in WORKLOADS:
        (tmp_path / name).mkdir()
        split[name] = measure(name, 7, True, tmp_path / name)[0]["metrics"]
    value = {name: {k: v["value"] for k, v in m.items()} for name, m in split.items()}
    assert value["gnp-sweep"]["bounds.calls_per_instance"] == 2.0
    assert value["gnp-sweep"]["bench.rows"] == 20
    assert value["gnp-solve"]["bounds.bound_calls"] == 0
    assert value["gnp-solve"]["reference.greedy_tss_calls"] == 0
    for name in ("gnp-sweep", "gnp-solve"):
        assert value[name]["graph.load_edge_list_s"] == 0.0
    assert value["powerlaw-solve"]["graph.load_edge_list_s"] > 0.0
    assert value["powerlaw-solve"]["diffusion.is_target_set_calls"] == 2


def test_preferential_attachment_is_byte_deterministic():
    text = preferential_attachment(300, 3, seed=11)
    assert text == preferential_attachment(300, 3, seed=11)
    assert text != preferential_attachment(300, 3, seed=12)
    g = targetset.load_edge_list(text.encode())
    assert (g.n, g.m) == (300, (300 - 3) * 3)
    assert targetset.is_connected(g)


def test_pacer_ticks_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with Pacer() as pacer:
        while len(pacer.ticks) < 3:
            tick()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert pacer.slowdown() > 0.0
    with Pacer() as idle:  # over before the first tick is due
        pass
    assert idle.slowdown() > 0.0 and len(idle.ticks) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gnp-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
