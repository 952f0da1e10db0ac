import json
import subprocess
import sys
from pathlib import Path

import pytest

from labelled_clique import Solution, fixture_path, write_dimacs
import labelled_clique.cli as cli_mod
from labelled_clique.cli import (
    EXIT_BAD_WITNESS,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)

from conftest import random_graph

FIG1 = str(fixture_path("fig1.clq"))
FIG1_LAB = str(fixture_path("fig1.lab"))


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(key)


def test_solve_fig1_budget3(capsys):
    code, out, _ = run(
        ["solve", FIG1, "--label-file", FIG1_LAB, "--budget", "3", "--threads", "1"],
        capsys,
    )
    assert code == EXIT_OK
    assert report_value(out, "size") == "4"
    assert report_value(out, "cost") == "2"
    assert report_value(out, "witness") == "4 5 6 7"
    assert report_value(out, "threads") == "1"


def test_solve_fig1_budget4(capsys):
    code, out, _ = run(
        ["solve", FIG1, "--label-file", FIG1_LAB, "--budget", "4", "--threads", "1"],
        capsys,
    )
    assert code == EXIT_OK
    assert report_value(out, "size") == "5"
    assert report_value(out, "cost") == "4"
    assert report_value(out, "witness") == "1 2 3 4 5"


def test_solve_json_mirror(capsys):
    code, out, _ = run(
        ["solve", FIG1, "--label-file", FIG1_LAB, "--budget", "3", "--threads", "2", "--json"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out.splitlines()[-1])
    assert payload["size"] == 4
    assert payload["cost"] == 2
    assert payload["witness"] == [4, 5, 6, 7]
    assert payload["threads"] == 2
    # fig1's minimum degree is too high for the core peel to drop a vertex.
    assert payload["vertices_searched"] == 7
    assert report_value(out, "vertices_searched") == "7"
    # Both solvers search fig1's label subsets in both passes; only the
    # parallel one forks workers, and their nodes add up to the passes'.
    for threads, workers in (("2", 2), ("1", 0)):
        code, out, _ = run(
            ["solve", FIG1, "--label-file", FIG1_LAB, "--budget", "3", "--threads", threads,
             "--json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out.splitlines()[-1])
        for key in ("subsets_pass1", "subsets_pass2"):
            assert payload[key] == 4
            assert report_value(out, key) == "4"
        worker_nodes = payload["worker_nodes"]
        assert len(worker_nodes) == workers
        if workers:
            assert sum(worker_nodes) == payload["nodes_pass1"] + payload["nodes_pass2"]
        assert report_value(out, "worker_nodes") == (" ".join(map(str, worker_nodes)) or "-")


def test_solve_seeded_labels(capsys):
    code, out, _ = run(
        ["solve", FIG1, "--labels", "4", "--seed", "3", "--budget-pct", "75", "--threads", "1"],
        capsys,
    )
    assert code == EXIT_OK
    assert report_value(out, "budget") == "3"
    assert report_value(out, "seed") == "3"
    # rerun is identical apart from timing (seeded labels, sequential search)
    code2, out2, _ = run(
        ["solve", FIG1, "--labels", "4", "--seed", "3", "--budget-pct", "75", "--threads", "1"],
        capsys,
    )

    def stable(text):
        return [line for line in text.splitlines() if not line.startswith("elapsed_s")]

    assert stable(out2) == stable(out)


def test_solve_missing_file(capsys):
    code, _, err = run(["solve", "nope.clq", "--labels", "2", "--budget", "1"], capsys)
    assert code == EXIT_USAGE
    assert "usage" in err


def test_solve_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.clq"
    bad.write_text("p edge 2 1\ne 1 5\n")
    code, _, err = run(["solve", str(bad), "--labels", "2", "--budget", "1"], capsys)
    assert code == EXIT_PARSE
    assert "line 2" in err


def test_bad_arguments(capsys):
    code, _, _ = run(["solve", FIG1, "--budget", "3"], capsys)  # no label source
    assert code == EXIT_USAGE
    code, _, _ = run(["solve", FIG1, "--labels", "4"], capsys)  # no budget
    assert code == EXIT_USAGE
    code, _, _ = run(["frobnicate"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run(
        ["solve", FIG1, "--labels", "4", "--budget", "0"], capsys
    )
    assert code == EXIT_USAGE
    code, _, _ = run([], capsys)
    assert code == EXIT_USAGE


# fig1 at budget 3 (0-based witnesses): the optimum is {3, 4, 5, 6} with
# labels 0b0110 at cost 2; {0, ..., 4} is a clique of cost 4; 0 and 5 are
# not adjacent.
BAD_WITNESSES = [
    (Solution([3, 3, 4, 5], 4, 0b0110, 2), "witness size mismatch"),
    (Solution([3, 4, 5, 6], 5, 0b0110, 2), "witness size mismatch"),
    (Solution([0, 5], 2, 0b0001, 1), "vertices 1 and 6 are not adjacent"),
    (Solution([3, 4, 5, 6], 4, 0b0011, 2), "witness labels do not match reported labels"),
    (Solution([3, 4, 5, 6], 4, 0b0110, 1), "witness labels do not match reported labels"),
    (Solution([0, 1, 2, 3, 4], 5, 0b1111, 4), "witness cost 4 exceeds budget 3"),
]
COMMANDS = {
    "solve": ["solve", FIG1, "--label-file", FIG1_LAB, "--budget", "3"],
    "bench": ["bench", FIG1, "--label-file", FIG1_LAB, "--budget-pct", "75", "--samples", "1"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("bad, message", BAD_WITNESSES,
                         ids=["repeat", "size", "adjacency", "labels", "cost", "budget"])
def test_bad_solver_witness_exits_internal(command, bad, message, capsys, monkeypatch):
    # Both commands re-check every witness a solver returns; bench checks
    # the sequential solve's first.
    monkeypatch.setattr(cli_mod, "solve", lambda lg, budget: bad)
    monkeypatch.setattr(cli_mod, "solve_parallel", lambda lg, budget, workers: bad)
    code, out, err = run(COMMANDS[command], capsys)
    assert code == EXIT_INTERNAL
    assert err == f"internal validation failure: {message}\n"
    assert "size:" not in out


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_threads_below_one_is_a_usage_error(command, capsys):
    code, out, err = run([*COMMANDS[command], "--threads", "0"], capsys)
    assert code == EXIT_USAGE
    assert "threads must be >= 1, got 0" in err and "usage" in err
    assert out == ""


def test_label_above_64_without_a_count_line_is_a_parse_error(tmp_path, capsys):
    graph_file, label_file = tmp_path / "t.clq", tmp_path / "t.lab"
    graph_file.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    label_file.write_text("l 1 2 1\nl 2 3 65\nl 1 3 2\n")
    code, out, err = run(["solve", str(graph_file), "--label-file", str(label_file),
                          "--budget", "1"], capsys)
    assert code == EXIT_PARSE
    assert err == "parse error: num_labels must be in [1, 64], got 65\n" and out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", "--help"]) == EXIT_OK
    capsys.readouterr()


def test_verify_budget_pct(capsys):
    code, out, _ = run(
        ["verify", FIG1, "--label-file", FIG1_LAB, "--budget-pct", "75",
         "--witness", "4", "5", "6", "7"],
        capsys,
    )
    assert code == EXIT_OK  # 75% of 4 labels = budget 3, cost 2 fits
    assert report_value(out, "cost") == "2"


def test_solve_default_threads_is_sequential(capsys):
    code, out, _ = run(
        ["solve", FIG1, "--label-file", FIG1_LAB, "--budget", "3"], capsys
    )
    assert code == EXIT_OK
    assert report_value(out, "threads") == "1"
    assert report_value(out, "size") == "4"


def test_verify_accepts_optimum(capsys):
    code, out, _ = run(
        ["verify", FIG1, "--label-file", FIG1_LAB, "--budget", "3",
         "--witness", "4", "5", "6", "7"],
        capsys,
    )
    assert code == EXIT_OK
    assert report_value(out, "size") == "4"
    assert report_value(out, "cost") == "2"


def test_verify_rejects_over_budget(capsys):
    code, out, _ = run(
        ["verify", FIG1, "--label-file", FIG1_LAB, "--budget", "3",
         "--witness", "1", "2", "3", "4", "5"],
        capsys,
    )
    assert code == EXIT_BAD_WITNESS
    assert "cost 4 exceeds budget 3" in out


def test_verify_names_non_adjacent_pair(capsys):
    code, out, _ = run(
        ["verify", FIG1, "--label-file", FIG1_LAB, "--budget", "3",
         "--witness", "1", "6"],
        capsys,
    )
    assert code == EXIT_BAD_WITNESS
    assert "vertices 1 and 6 are not adjacent" in out


def test_verify_rejects_bad_vertices(capsys):
    code, out, _ = run(
        ["verify", FIG1, "--label-file", FIG1_LAB, "--budget", "3", "--witness", "9"],
        capsys,
    )
    assert code == EXIT_BAD_WITNESS
    assert "out of range" in out
    code, out, _ = run(
        ["verify", FIG1, "--label-file", FIG1_LAB, "--budget", "3",
         "--witness", "4", "4"],
        capsys,
    )
    assert code == EXIT_BAD_WITNESS
    assert "listed twice" in out


def test_verify_accepts_solve_witness(tmp_path, capsys):
    graph_file = tmp_path / "r.clq"
    graph_file.write_text(write_dimacs(random_graph(12, 0.5, seed=21)))
    code, out, _ = run(
        ["solve", str(graph_file), "--labels", "3", "--seed", "5", "--budget", "2",
         "--threads", "1"],
        capsys,
    )
    assert code == EXIT_OK
    witness = report_value(out, "witness").split()
    code, _, _ = run(
        ["verify", str(graph_file), "--labels", "3", "--seed", "5", "--budget", "2",
         "--witness", *witness],
        capsys,
    )
    assert code == EXIT_OK


def test_bench_reproducible_columns(tmp_path, capsys):
    graph_file = tmp_path / "r.clq"
    graph_file.write_text(write_dimacs(random_graph(12, 0.5, seed=33)))

    def bench_rows():
        code, out, _ = run(
            ["bench", str(graph_file), "--labels", "3", "4", "--budget-pct", "50", "75",
             "--samples", "3", "--seed", "11", "--threads", "2"],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line.split() for line in out.splitlines()[1:]]
        return [(r[0], r[1], r[2], r[3], r[4], r[5]) for r in rows]

    first = bench_rows()
    second = bench_rows()
    assert first == second
    assert len(first) == 4  # 2 label sizes x 2 percentages


def test_bench_fig1_label_file(capsys):
    code, out, _ = run(
        ["bench", FIG1, "--label-file", FIG1_LAB, "--budget-pct", "75",
         "--samples", "3", "--threads", "2"],
        capsys,
    )
    assert code == EXIT_OK
    header, row = out.splitlines()[:2]
    assert header.split() == [
        "instance", "labels", "pct", "budget", "size", "cost", "t_seq", "t_par",
    ]
    fields = row.split()
    assert fields[:6] == ["fig1", "4", "75", "3", "4.00", "2.00"]


def test_bench_rejects_samples_below_one(capsys):
    for samples in ("0", "-2"):
        code, out, err = run(
            ["bench", FIG1, "--label-file", FIG1_LAB, "--samples", samples], capsys
        )
        assert code == EXIT_USAGE
        assert "samples must be >= 1" in err and "usage" in err
        assert out == ""  # rejected before the header and any solve


def test_bench_resolves_percentage(tmp_path, capsys):
    graph_file = tmp_path / "r.clq"
    graph_file.write_text(write_dimacs(random_graph(8, 0.5, seed=2)))
    code, out, _ = run(
        ["bench", str(graph_file), "--labels", "4", "--budget-pct", "75",
         "--samples", "2", "--threads", "2"],
        capsys,
    )
    assert code == EXIT_OK
    assert out.splitlines()[1].split()[3] == "3"  # 75% of 4 labels


def test_imports_leave_dataclasses_out():
    # A cold start imports no dataclasses (with inspect, ast and dis behind
    # it): the package's records are named tuples or slotted classes.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import labelled_clique, labelled_clique.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"
