import csv

import pytest

from fvskit.cli import cli
from fvskit.fileio import parse_graph, parse_solution

TRIANGLE = "p fvs 3 3\n1 2\n2 3\n3 1\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.gr"
    path.write_text(TRIANGLE)
    return path


def test_solve_decision_yes(triangle_file, capsys):
    code = cli(["solve", str(triangle_file), "-k", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("YES 1\n")
    assert parse_solution(out) is not None


def test_solve_decision_no(triangle_file, capsys):
    code = cli(["solve", str(triangle_file), "-k", "0"])
    assert code == 1
    assert capsys.readouterr().out == "NO\n"


def test_solve_min(triangle_file, capsys):
    code = cli(["solve", str(triangle_file), "--min"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("YES 1\n")


def test_solve_stats_to_stderr(triangle_file, capsys):
    code = cli(["solve", str(triangle_file), "--min", "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert "leaves=" in captured.err
    assert "leaves=" not in captured.out


def test_solve_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p fvs 2 1\n3 1\n")
    assert cli(["solve", str(bad), "-k", "0"]) == 2
    assert "line" in capsys.readouterr().err


def test_solve_missing_file_exit_2(tmp_path, capsys):
    assert cli(["solve", str(tmp_path / "nope.gr"), "-k", "0"]) == 2


def test_usage_error_exit_2(capsys):
    assert cli(["solve"]) == 2
    assert cli(["frobnicate"]) == 2


def test_disjoint_requires_marks(triangle_file, capsys):
    assert cli(["disjoint", str(triangle_file), "-k", "1"]) == 2
    assert "s" in capsys.readouterr().err


def test_disjoint_solves_marked_instance(tmp_path, capsys):
    path = tmp_path / "inst.gr"
    path.write_text("p fvs 4 4\n1 2\n2 3\n3 4\n4 1\ns 2\ns 4\n")
    code = cli(["disjoint", str(path), "-k", "1"])
    out = capsys.readouterr().out
    assert code == 0
    ids = parse_solution(out)
    assert ids and ids <= {1, 3}


def test_disjoint_rejects_nonforest_protected_side(tmp_path, capsys):
    path = tmp_path / "inst.gr"
    path.write_text("p fvs 4 4\n1 2\n2 3\n3 1\n3 4\ns 1\ns 2\ns 3\n")
    assert cli(["disjoint", str(path), "-k", "1"]) == 2


def test_negative_budget_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.gr"
    path.write_text("p fvs 4 4\n1 2\n2 3\n3 4\n4 1\ns 2\ns 4\n")
    messages = []
    for command in ("solve", "disjoint"):
        assert cli([command, str(path), "-k", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        messages.append(captured.err.splitlines()[-1].split("error: ", 1)[1])
    assert messages == ["argument -k: must be nonnegative"] * 2


def test_verify_accepts_solver_output(triangle_file, tmp_path, capsys):
    cli(["solve", str(triangle_file), "--min"])
    sol = tmp_path / "sol.txt"
    sol.write_text(capsys.readouterr().out)
    assert cli(["verify", str(triangle_file), str(sol)]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_rejects_tampered_solution(triangle_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("YES 0\n")
    assert cli(["verify", str(triangle_file), str(sol)]) == 1
    out = capsys.readouterr().out
    assert "REJECTED" in out and "cycle" in out


def test_verify_accepts_no_claim(triangle_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("NO\n")
    assert cli(["verify", str(triangle_file), str(sol)]) == 0


def test_gen_random_roundtrip(tmp_path):
    out = tmp_path / "g.gr"
    assert cli(["gen", "random", "-n", "8", "-m", "10",
                "--seed", "5", "-o", str(out)]) == 0
    g, _ = parse_graph(out.read_text())
    assert g.vertex_count == 8 and g.edge_count == 10


def test_gen_planted_records_witness(tmp_path):
    out = tmp_path / "p.gr"
    assert cli(["gen", "planted", "-n", "20", "-f", "3",
                "--seed", "1", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("c planted ")
    g, _ = parse_graph(text)
    assert g.vertex_count == 20


def test_gen_seed_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FVSKIT_SEED", "7")
    assert cli(["gen", "random", "-n", "6", "-m", "7"]) == 0
    by_env = capsys.readouterr().out
    assert cli(["gen", "random", "-n", "6", "-m", "7", "--seed", "7"]) == 0
    by_flag = capsys.readouterr().out
    assert by_env == by_flag


def test_gen_random_negative_size_exit_2(capsys):
    assert cli(["gen", "random", "-n", "-2", "-m", "0"]) == 2
    assert cli(["gen", "random", "-n", "3", "-m", "-1", "--multi"]) == 2
    assert capsys.readouterr().out == ""


def test_gen_seed_env_not_an_integer_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("FVSKIT_SEED", "seven")
    assert cli(["gen", "random", "-n", "6", "-m", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seven" in captured.err


def test_bench_csv_schema(tmp_path):
    for i in range(3):
        code = cli(["gen", "planted", "-n", "14", "-f", "2",
                    "--seed", str(i), "-o", str(tmp_path / f"i{i}.gr")])
        assert code == 0
    out = tmp_path / "bench.csv"
    assert cli(["bench", str(tmp_path), "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "n", "m", "k", "answer", "size",
                       "branch_nodes", "leaves", "time_ms"]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == sorted(r[0] for r in rows[1:])
    assert all(r[4] == "yes" for r in rows[1:])


def test_bench_empty_dir_exit_2(tmp_path):
    assert cli(["bench", str(tmp_path), "--csv", str(tmp_path / "x.csv")]) == 2


def test_verify_accepts_solver_output_across_corpus(tmp_path, capsys):
    # end-to-end soundness: every solve --min witness passes verify
    for seed in range(20):
        graph_path = tmp_path / f"g{seed}.gr"
        if seed % 2:
            code = cli(["gen", "random", "-n", "10", "-m", str(12 + seed % 8),
                        "--seed", str(seed), "-o", str(graph_path)])
        else:
            code = cli(["gen", "planted", "-n", "16", "-f", "3",
                        "--seed", str(seed), "-o", str(graph_path)])
        assert code == 0
        code = cli(["solve", str(graph_path), "--min"])
        assert code == 0
        sol_path = tmp_path / f"s{seed}.txt"
        sol_path.write_text(capsys.readouterr().out)
        assert cli(["verify", str(graph_path), str(sol_path)]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("solver, argv", [
    ("solve_fvs_min", ["--min"]),
    ("solve_fvs_decision", ["-k", "1"]),
])
def test_solve_refuses_an_invalid_witness(triangle_file, capsys, monkeypatch,
                                          solver, argv):
    monkeypatch.setattr(f"fvskit.cli.{solver}", lambda *a, **kw: set())
    with pytest.raises(AssertionError):
        cli(["solve", str(triangle_file), *argv])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("witness", [set(), {2}, {1, 3}])
def test_disjoint_refuses_an_invalid_witness(tmp_path, capsys, monkeypatch,
                                             witness):
    # C4 with 2 and 4 protected, k = 1: {} leaves the cycle, {2} is
    # protected, {1, 3} is over budget
    path = tmp_path / "inst.gr"
    path.write_text("p fvs 4 4\n1 2\n2 3\n3 4\n4 1\ns 2\ns 4\n")
    monkeypatch.setattr("fvskit.cli.feedback", lambda *a, **kw: set(witness))
    with pytest.raises(AssertionError):
        cli(["disjoint", str(path), "-k", "1"])
    assert capsys.readouterr().out == ""


def test_bench_refuses_an_invalid_witness(tmp_path, capsys, monkeypatch):
    (tmp_path / "triangle.gr").write_text(TRIANGLE)
    out = tmp_path / "bench.csv"
    monkeypatch.setattr("fvskit.cli.solve_fvs_min", lambda *a, **kw: set())
    with pytest.raises(AssertionError):
        cli(["bench", str(tmp_path), "--csv", str(out)])
    assert capsys.readouterr().out == "" and not out.exists()
