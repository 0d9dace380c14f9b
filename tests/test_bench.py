import csv
import io

import pytest

from targetset import (
    CSV_HEADER,
    BenchConfig,
    GraphSource,
    derive_seed,
    run_bench,
    run_verify,
    write_csv,
)


def _csv(cfg):
    buf = io.StringIO()
    write_csv(run_bench(cfg), buf)
    return buf.getvalue()


def test_sweep_times_algorithms_row_count(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    cfg = BenchConfig(
        sources=(GraphSource.parse(f"edges:{path}"),),
        policy="const",
        sweep=tuple(range(1, 11)),
        algorithms=("tss", "greedy"),
        seed=1,
    )
    rows = run_bench(cfg)
    assert len(rows) == 20
    assert all(not row.error for row in rows)
    assert [row.t_param for row in rows[:4]] == [1, 1, 2, 2]


def test_csv_bytes_are_deterministic():
    cfg = BenchConfig(
        sources=(GraphSource.parse("gnp:20:0.3"), GraphSource.parse("tree:15")),
        policy="random",
        algorithms=("tss", "greedy"),
        seed=42,
        repetitions=5,
    )
    assert _csv(cfg) == _csv(cfg)


def test_csv_header_and_shape():
    cfg = BenchConfig(
        sources=(GraphSource.parse("star:6"),),
        policy="const",
        sweep=(1, 2),
        algorithms=("tss",),
        seed=0,
    )
    text = _csv(cfg)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == (
        "graph_name,n,m,t_param,algorithm,solution_size,bound_new,bound_old,elapsed_ms,seed,error"
    )
    assert len(lines) == 3
    assert all(line.count(",") == CSV_HEADER.count(",") for line in lines)


def test_csv_quotes_a_source_name_with_a_comma(tmp_path):
    path = tmp_path / "tri,angle.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    cfg = BenchConfig(sources=(GraphSource.parse(f"edges:{path}"),), sweep=(1, 2))
    lines = list(csv.reader(io.StringIO(_csv(cfg))))
    assert len(lines) == 3
    assert all(len(line) == 11 for line in lines)
    assert {line[0] for line in lines[1:]} == {f"edges:{path}"}


def test_nonconst_policy_ignores_sweep():
    cfg = BenchConfig(
        sources=(GraphSource.parse("cycle:8"),),
        policy="degree",
        algorithms=("tss",),
        seed=0,
    )
    assert cfg.sweep is None
    rows = run_bench(cfg)
    assert len(rows) == 1
    assert rows[0].t_param is None


def test_oversized_exact_becomes_error_row_and_run_continues():
    cfg = BenchConfig(
        sources=(GraphSource.parse("gnp:40:0.2"),),
        policy="random",
        algorithms=("exact", "tss"),
        seed=7,
    )
    rows = run_bench(cfg)
    assert len(rows) == 2
    assert "too large" in rows[0].error
    assert rows[0].solution_size is None
    assert not rows[1].error


def test_solved_rows_carry_bounds_and_sizes():
    cfg = BenchConfig(
        sources=(GraphSource.parse("clique:5"),),
        policy="const",
        sweep=(2,),
        algorithms=("tss", "exact"),
        seed=3,
    )
    rows = run_bench(cfg)
    tss_row, exact_row = rows
    assert tss_row.solution_size is not None
    assert exact_row.solution_size is not None
    assert tss_row.solution_size >= exact_row.solution_size
    assert tss_row.bound_new != ""
    assert float(tss_row.bound_new) <= float(tss_row.bound_old)


def test_config_validation():
    src = (GraphSource.parse("star:5"),)
    with pytest.raises(ValueError):
        BenchConfig(sources=src, algorithms=("magic",))
    with pytest.raises(ValueError):
        BenchConfig(sources=src, policy="nope")
    with pytest.raises(ValueError):
        BenchConfig(sources=src, policy="const", sweep=())
    with pytest.raises(ValueError, match="--sweep"):
        BenchConfig(sources=src, policy="const:7", sweep=(2,))
    with pytest.raises(ValueError, match="repeated algorithm"):
        BenchConfig(sources=src, algorithms=("tss", "tss"))
    with pytest.raises(ValueError, match="--sweep needs the const policy; 'degree' ignores it"):
        BenchConfig(sources=src, policy="degree", sweep=(1, 2, 3))
    with pytest.raises(ValueError, match="at least one algorithm"):
        BenchConfig(sources=src, algorithms=())
    with pytest.raises(ValueError, match="at least one graph source"):
        BenchConfig(sources=())
    with pytest.raises(ValueError, match="repeated graph source 'star:5'"):
        BenchConfig(sources=src * 2)
    # sources that differ only past six significant digits keep their own
    # names, so their graphs get their own seeds
    specs = ("gnp:30:0.1000001", "gnp:30:0.1")
    rows = run_bench(BenchConfig(sources=tuple(map(GraphSource.parse, specs)), sweep=(2,)))
    assert [row.graph_name for row in rows] == list(specs)
    assert rows[0].seed != rows[1].seed
    assert BenchConfig(sources=src).sweep == tuple(range(1, 11))
    for reps in (0, -2):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            BenchConfig(sources=src, repetitions=reps)
    for reps in (1.5, True):
        with pytest.raises(ValueError, match="repetitions must be an int"):
            BenchConfig(sources=src, repetitions=reps)
    for cap in ("x", 24.0, True):
        with pytest.raises(ValueError, match="exact_cap must be an int"):
            BenchConfig(sources=src, exact_cap=cap)
    for sweep in ((1.5,), ("2",), (1, True)):
        with pytest.raises(ValueError, match="is not an int"):
            BenchConfig(sources=src, sweep=sweep)
    with pytest.raises(ValueError, match="repeated sweep value 2"):
        BenchConfig(sources=src, sweep=(2, 3, 2))
    # derive_seed stringifies the seed: True would give another graph than 1
    for seed in (True, 1.5, "x", None):
        with pytest.raises(ValueError, match="seed must be an int"):
            BenchConfig(sources=src, seed=seed)
        with pytest.raises(ValueError, match="seed must be an int"):
            run_verify("tree", n_max=5, instances=2, seed=seed)
    with pytest.raises(ValueError, match="instances must be >= 1"):
        run_verify("tree", n_max=5, instances=0)
    for n_max in (2, -5):
        with pytest.raises(ValueError, match="n_max must be >= 3"):
            run_verify("tree", n_max=n_max, instances=3)
    with pytest.raises(ValueError, match="n_max must be an int"):
        run_verify("tree", n_max=5.5, instances=3)
    for instances in (2.5, True):
        with pytest.raises(ValueError, match="instances must be an int"):
            run_verify("tree", n_max=5, instances=instances)


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_verify_harness_clean_on_small_runs():
    for klass in ("tree", "cycle", "clique"):
        assert run_verify(klass, n_max=8, instances=15, seed=5) == []


def test_verify_rejects_unknown_class():
    with pytest.raises(ValueError):
        run_verify("torus", n_max=5, instances=1)
