import pytest

from targetset import SolverReport
from targetset.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_star_with_capped_center(capsys):
    code, out, _ = run(capsys, "solve", "--gen", "star:9", "--policy", "const:5", "--alg", "tss")
    assert code == 0
    assert "size 1" in out
    assert "target_set 0" in out


def test_solve_exact_on_unit_clique(capsys):
    code, out, _ = run(
        capsys, "solve", "--gen", "clique:4", "--thresholds", "1,1,1,1", "--alg", "exact"
    )
    assert code == 0
    assert "size 1" in out


def test_solve_edge_file_with_degree_policy_prints_cover(capsys, tmp_path):
    path = tmp_path / "path3.txt"
    path.write_text("0 1\n1 2\n")
    code, out, _ = run(capsys, "solve", "--edges", str(path), "--policy", "degree", "--alg", "tss")
    assert code == 0
    cover = {int(x) for x in out.splitlines()[-1].split()[1:]}
    for u, v in ((0, 1), (1, 2)):
        assert u in cover or v in cover


def test_solve_trace_output(capsys):
    code, out, _ = run(
        capsys, "solve", "--gen", "star:5", "--policy", "const:1", "--alg", "tss", "--trace"
    )
    assert code == 0
    assert "activation trace:" in out


def test_gen_then_solve_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "gen.txt"
    code, _, _ = run(capsys, "--seed", "9", "gen", "--gen", "gnp:12:0.4", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--edges", str(out_path), "--policy", "const:2")
    assert code == 0
    assert "size " in out


def test_bound_verb_star(capsys):
    code, out, _ = run(capsys, "bound", "--gen", "star:9", "--policy", "const:5")
    assert code == 0
    assert "bound_new 1 (1)" in out
    assert "bound_old 41/9" in out
    assert "tss_size 1" in out
    assert "applicable true" in out


def test_bench_verb_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys,
        "--seed", "4",
        "bench",
        "--gen", "star:6",
        "--gen", "cycle:6",
        "--sweep", "1..3",
        "--alg", "tss,greedy",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3 * 2
    assert lines[0].startswith("graph_name,")


def test_verify_verb_exits_zero_when_clean(capsys):
    code, out, _ = run(
        capsys, "--seed", "2", "verify", "--class", "clique", "--n-max", "7", "--instances", "10"
    )
    assert code == 0
    assert "ok" in out


def test_bad_input_exits_nonzero(capsys):
    code, _, err = run(capsys, "solve", "--gen", "cycle:2", "--policy", "const:1")
    assert code == 1
    assert "error:" in err


def test_missing_edge_file_exits_nonzero(capsys):
    code, _, err = run(capsys, "solve", "--edges", "/nonexistent/file.txt")
    assert code == 1
    assert "error:" in err


def test_bench_empty_sweep_exits_nonzero(capsys):
    code, out, err = run(capsys, "bench", "--gen", "star:6", "--sweep", "3..1")
    assert code == 1
    assert out == ""
    assert "nonempty sweep" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bench", "--gen", "star:5", "--reps", "0"), "repetitions must be >= 1"),
        (("bench", "--gen", "star:5", "--reps", "-2"), "repetitions must be >= 1"),
        (("verify", "--class", "tree", "--instances", "0"), "instances must be >= 1"),
        (("verify", "--class", "tree", "--n-max", "-5", "--instances", "3"), "n_max must be >= 3"),
        (("bench", "--gen", "star:5", "--policy", "const:7", "--sweep", "2"), "--sweep"),
        (("bench", "--gen", "gnp:200:0.05:7", "--sweep", "2"), "bad graph spec"),
        (("bench", "--gen", "star:5", "--sweep", "1.."), "bad sweep '1..'"),
    ],
    ids=[
        "bench-reps-0",
        "bench-reps-negative",
        "verify-instances-0",
        "verify-n-max-below-3",
        "bench-const-T",
        "bench-spec-seed",
        "bench-sweep-open-range",
    ],
)
def test_empty_or_ignored_run_parameters_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_failed_verification_exits_three(capsys, monkeypatch):
    def no_seeds(g, t):
        return SolverReport(target_set=(), elimination_order=[], case_counts=(0, 0, 0), elapsed=0.0)

    monkeypatch.setattr("targetset.bench.tss_solve", no_seeds)
    code, out, err = run(capsys, "bench", "--gen", "star:6", "--sweep", "1..2")
    assert code == 3
    assert out == ""
    assert err == "BUG: verification failed: output is not a target set\n"

    monkeypatch.setattr("targetset.cli.tss_solve", no_seeds)
    code, _, err = run(capsys, "solve", "--gen", "star:6", "--policy", "const:1")
    assert code == 3
    assert err == "BUG: emitted set failed target-set verification\n"
