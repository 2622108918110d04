import json
from pathlib import Path

import pytest

from swapbribery.cli import main
from swapbribery.io import parse_election, serialize_election
from swapbribery.reductions import gen_random

SAMPLE = """\
sbe 1
candidates 5
candidate 0 c1
candidate 1 c2
candidate 2 p
candidate 3 c4
candidate 4 c3
rule k-approval 2
budget 3
preferred p
mode co-winner
vote 0 multiplicity 1 order c1 c2 p c4 c3
vote 1 multiplicity 1 order c1 c2 c3 p c4
"""


@pytest.fixture
def sample_path(tmp_path):
    path = tmp_path / "sample.sbe"
    path.write_text(SAMPLE)
    return path


@pytest.mark.parametrize("algorithm", ["auto", "brute", "flow", "color", "ilp"])
def test_solve_yes_instance(sample_path, tmp_path, algorithm, capsys):
    out = tmp_path / "sol.sbs"
    code = main(
        ["solve", str(sample_path), "--algorithm", algorithm, "--solution", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "decision: yes" in stdout
    assert out.exists()
    assert main(["verify", str(sample_path), str(out)]) == 0


def test_solve_no_instance(tmp_path, capsys):
    path = tmp_path / "no.sbe"
    path.write_text(SAMPLE.replace("budget 3", "budget 1"))
    assert main(["solve", str(path)]) == 1
    assert "decision: no" in capsys.readouterr().out


def test_solve_reports_errors(tmp_path, capsys):
    path = tmp_path / "broken.sbe"
    path.write_text("nonsense\n")
    assert main(["solve", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_rejects_corrupted_solution(sample_path, tmp_path, capsys):
    sol = tmp_path / "sol.sbs"
    main(["solve", str(sample_path), "--solution", str(sol)])
    text = sol.read_text().replace("cost 3", "cost 2")
    sol.write_text(text)
    assert main(["verify", str(sample_path), str(sol)]) == 1


def test_kernelize_roundtrip(tmp_path, capsys):
    inst = gen_random(6, 2, 2, cost_model=("uniform-range", 1, 2), seed=4, budget=2)
    src = tmp_path / "in.sbe"
    src.write_text(serialize_election(inst))
    out = tmp_path / "kernel.sbe"
    prov = tmp_path / "kernel.json"
    assert (
        main(
            ["kernelize", str(src), "--out", str(out), "--provenance", str(prov)]
        )
        == 0
    )
    kernel = parse_election(out.read_text())
    mapping = json.loads(prov.read_text())
    assert kernel.election.candidates[kernel.preferred] in mapping
    assert mapping[kernel.election.candidates[kernel.preferred]] == inst.preferred


def test_generate_and_solve_random(tmp_path):
    out = tmp_path / "gen.sbe"
    assert (
        main(
            [
                "generate", "random", "--m", "5", "--n", "2", "--k", "2",
                "--seed", "3", "--budget", "2", "--out", str(out),
            ]
        )
        == 0
    )
    code = main(["solve", str(out)])
    assert code in (0, 1)


def test_generate_clique_gadget(tmp_path):
    out = tmp_path / "gadget.sbe"
    assert (
        main(
            [
                "generate", "clique-gadget", "--graph", "planted",
                "--classes", "2,2", "--seed", "1", "--out", str(out),
            ]
        )
        == 0
    )
    inst = parse_election(out.read_text())
    assert inst.budget == 48


def test_reduce_round_trip(tmp_path):
    inst = gen_random(
        4, 2, 1, cost_model=("two-valued", 0, 1, 0.5), seed=8, budget=0
    )
    src = tmp_path / "zero.sbe"
    src.write_text(serialize_election(inst))
    pw_path = tmp_path / "zero.pwe"
    back_path = tmp_path / "back.sbe"
    assert main(["reduce", "sb-to-pw", str(src), "--out", str(pw_path)]) == 0
    assert main(["reduce", "pw-to-sb", str(pw_path), "--out", str(back_path)]) == 0
    back = parse_election(back_path.read_text())
    assert back.budget == 0


def test_export_network_node_count(sample_path, tmp_path):
    out = tmp_path / "net.dot"
    assert (
        main(["export-network", str(sample_path), "--s-star", "2", "--out", str(out)])
        == 0
    )
    dot = out.read_text()
    assert sum(1 for l in dot.splitlines() if l.endswith('";')) == 22


def test_bench_csv_schema(sample_path, tmp_path):
    out = tmp_path / "bench.csv"
    assert (
        main(["bench", str(sample_path), "--solvers", "brute,flow", "--out", str(out)])
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,solver,decision,cost,wall_ms,seed"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 2
    assert all(r[2] == "yes" and r[3] == "3" for r in rows)


def test_bench_rows_reproducible_modulo_timing(sample_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        main(["bench", str(sample_path), "--solvers", "brute", "--out", str(out)])

    def strip_time(path):
        rows = []
        for line in Path(path).read_text().splitlines()[1:]:
            cells = line.split(",")
            rows.append(cells[:4] + cells[5:])
        return rows

    assert strip_time(a) == strip_time(b)
