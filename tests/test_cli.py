import csv
import hashlib
import io
import re

import pytest

from targetset import CSV_HEADER, SolverReport
from targetset.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def no_seeds(g, t):
    """A broken solver stub: it returns the empty set for every instance."""
    return SolverReport(target_set=(), elimination_order=[], case_counts=(0, 0, 0))


def all_seeds(g, t):
    """A poor but valid solver stub: it seeds every vertex."""
    return SolverReport(target_set=tuple(range(g.n)), elimination_order=[], case_counts=(0, 0, 0))


def test_solve_star_with_capped_center(capsys):
    code, out, _ = run(capsys, "solve", "--gen", "star:9", "--policy", "const:5", "--alg", "tss")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "algorithm", "n", "m", "size", "case_counts", "elapsed_ms", "target_set"
    ]
    assert lines[3] == "size 1"
    assert lines[-1] == "target_set 0"


def test_solve_exact_on_unit_clique(capsys):
    code, out, _ = run(
        capsys, "solve", "--gen", "clique:4", "--thresholds", "1,1,1,1", "--alg", "exact"
    )
    assert code == 0
    assert out == "algorithm exact\nn 4\nm 6\nsize 1\nsubsets_examined 2\ntarget_set 0\n"


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
    assert out == (
        "n 9\nm 8\napplicable true\nv2_size 1\n"
        "bound_new 1 (1)\nbound_old 41/9 (4.55556)\ntss_size 1\n"
    )


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
        (("bench", "--gen", "star:5", "--policy", "random", "--sweep", "1..3"), "--sweep"),
        (("bench", "--gen", "star:5", "--alg", "tss,greedy,tss"), "repeated algorithm"),
        (("bench", "--gen", "star:5", "--sweep", "2,2"), "repeated sweep value 2"),
        (("bench", "--gen", "star:5", "--gen", "star:5", "--sweep", "2"),
         "repeated graph source 'star:5'"),
        (("solve", "--gen", "star:5", "--policy", "file:"), "file policy needs a path"),
        (("bench", "--gen", "star:5", "--policy", "file:"), "file policy needs a path"),
    ],
    ids=[
        "bench-reps-0",
        "bench-reps-negative",
        "verify-instances-0",
        "verify-n-max-below-3",
        "bench-const-T",
        "bench-spec-seed",
        "bench-sweep-open-range",
        "bench-nonconst-sweep",
        "bench-repeated-alg",
        "bench-repeated-sweep",
        "bench-repeated-source",
        "solve-file-no-path",
        "bench-file-no-path",
    ],
)
def test_empty_or_ignored_run_parameters_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_failed_verification_exits_three(capsys, monkeypatch):
    monkeypatch.setattr("targetset.reference.tss_solve", no_seeds)
    for argv in (
        ("bench", "--gen", "star:6", "--sweep", "1..2"),
        ("solve", "--gen", "star:6", "--policy", "const:1"),
        ("verify", "--class", "tree", "--n-max", "8", "--instances", "5"),
        ("--seed", "2", "bound", "--gen", "gnp:40:0.15", "--policy", "random"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == "BUG: tss emitted a set that is not a target set\n"


def test_out_of_range_solver_output_exits_three(capsys, monkeypatch):
    def past_the_end(g, t):
        return SolverReport(target_set=(g.n,), elimination_order=[], case_counts=(0, 0, 0))

    monkeypatch.setattr("targetset.reference.tss_solve", past_the_end)
    code, out, err = run(capsys, "bench", "--gen", "star:6", "--sweep", "1")
    assert (code, out) == (3, "")
    assert err == "BUG: tss emitted a set that is not a target set\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("--seed", "3", "bench", "--gen", "gnp:2000:0.005", "--gen", "star:30",
             "--gen", "tree:300", "--sweep", "1..10", "--alg", "tss,greedy"),
            "0b5d657ccd02e0d132866da52b3313cc86799975ad5de1e7694205d01aaca145",
        ),
        (
            ("--seed", "4", "bench", "--gen", "gnp:20:0.3", "--gen", "gnp:40:0.2",
             "--policy", "random", "--alg", "tss,greedy,exact", "--reps", "3"),
            "1fb6e6bc366c63b57a4a0ebe6ad19ae5672bac81b2775d5ac24fa6c412b1cf86",
        ),
        (
            ("--seed", "5", "solve", "--gen", "gnp:300:0.02", "--policy", "random", "--trace"),
            "bdcdb287faf2cfbe15c26032fc8f80b9bd16fc2439c2eb2b124bc05961ca54c2",
        ),
        (
            ("--seed", "2", "bound", "--gen", "gnp:40:0.15", "--policy", "random"),
            "bfe8dee88957b4b97d354bf25574f898693e6eaf5113cc23b8c3ce42c9562f99",
        ),
        (
            ("--seed", "3", "verify", "--class", "tree", "--n-max", "10", "--instances", "30"),
            "2e674bb3fbe313179c035a020a1da7013deb79eaaf2d90d793b31cdabeac631b",
        ),
    ],
    ids=["bench-const-sweep", "bench-random-reps", "solve-trace", "bound-gnp", "verify-tree"],
)
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    kept = [line for line in out.splitlines(keepends=True) if not line.startswith("elapsed_ms ")]
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == digest


def test_file_policy_reads_thresholds_by_original_id(capsys, tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("10 20\n20 30\n30 40\n40 10\n10 30\n")
    thresholds = tmp_path / "t.txt"
    thresholds.write_text("10 2\n20 1\n30 2\n40 1\n")
    policy = f"file:{thresholds}"
    code, out, _ = run(capsys, "solve", "--edges", str(edges), "--policy", policy, "--alg", "greedy")
    assert code == 0
    assert out.splitlines()[-1] == "target_set 30"

    code, out, err = run(
        capsys, "bench", "--gen", f"edges:{edges}", "--policy", policy, "--alg", "tss,exact"
    )
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["algorithm"], r["t_param"], r["solution_size"]) for r in rows] == [
        ("tss", "", "1"), ("exact", "", "1")
    ]
    # bound_old = sum of t/(d+1) = 2/4 + 1/3 + 2/4 + 1/3 under the file's thresholds.
    assert {r["bound_old"] for r in rows} == {"1.66667"}


def test_bench_writes_csv_to_stdout_and_notes_error_rows(capsys):
    code, out, err = run(
        capsys, "bench", "--gen", "gnp:40:0.2", "--sweep", "1..2", "--alg", "tss,exact",
        "--out", "-",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[4] for line in lines[1:]] == ["tss", "exact", "tss", "exact"]
    assert err == (
        "note: gnp:40:0.2 t=1 exact: instance too large for exact solver\n"
        "note: gnp:40:0.2 t=2 exact: instance too large for exact solver\n"
    )


def test_verify_prints_mismatches_and_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("targetset.reference.tss_solve", all_seeds)
    code, out, err = run(
        capsys, "--seed", "2", "verify", "--class", "clique", "--n-max", "6", "--instances", "3"
    )
    assert (code, err) == (1, "")
    *mismatches, summary = out.splitlines()
    # The stub seeds all n vertices: a valid set, larger than the optimum
    # unless every threshold is at least n.
    assert mismatches and all(
        re.fullmatch(r"MISMATCH clique n=(\d+) seed=\d+: solver size \1 != optimum \d+", line)
        for line in mismatches
    )
    assert summary == f"clique: 3 instances, {len(mismatches)} mismatches"
