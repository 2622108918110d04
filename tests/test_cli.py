import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from swapbribery import _search, cli
from swapbribery.cli import main
from swapbribery.core import CO_WINNER, UNIQUE_WINNER, VotingRule
from swapbribery.hardness import (
    multicolored_clique_instance,
    multicolored_clique_witness,
    planted_multicolored_clique,
)
from swapbribery.io import parse_election, serialize_election, serialize_solution
from swapbribery.kernel import truncation_kernel
from swapbribery.reductions import gen_random
from swapbribery.swaps import Bribery, SolveResult

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


def test_a_vote_count_past_the_bound_is_an_error_naming_its_line(tmp_path, capsys):
    path = tmp_path / "huge.sbe"
    path.write_text(
        "sbe 1\ncandidates 2\ncandidate 0 a\ncandidate 1 p\nrule k-approval 1\nbudget 1\npreferred p\n"
        "vote 0 multiplicity 1000000000000000000 order a p\n"
    )
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 8: more than 1000000 votes\n"


def test_a_gadget_past_its_size_bound_is_an_error(tmp_path, capsys):
    out = tmp_path / "g.sbe"
    assert main(["generate", "clique-gadget", "--classes", "64,64", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the clique gadget would store 134441 votes of 50 head positions each, "
        "more than 2000000 positions\n"
    )
    assert not out.exists()


SRC = Path(__file__).resolve().parent.parent / "src"
FRESH = "import sys; from swapbribery.cli import main; sys.exit(main(sys.argv[1:]))"


def _in_process(argv, capsys):
    """Exit code, stdout and stderr of one ``main`` call in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _in_fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", FRESH, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def test_calls_in_one_process_answer_as_in_fresh_ones(sample_path, tmp_path, capsys):
    # main reuses one parser; no call may see the options of the one before.
    solution = tmp_path / "sol.sbs"
    solve = ["solve", str(sample_path)]
    calls = [
        [*solve, "--algorithm", "brute"],
        solve,
        [*solve, "--algorithm", "color", "--trials", "0"],
        [*solve, "--algorithm", "color"],
        [*solve, "--algorithm", "nope"],
        solve,
        [*solve, "--algorithm", "brute", "--solution", str(solution)],
        [*solve, "--solution", str(solution)],
    ]
    seen = []
    for argv in calls:
        solution.unlink(missing_ok=True)
        here = _in_process(argv, capsys), solution.read_text() if solution.exists() else None
        solution.unlink(missing_ok=True)
        fresh = _in_fresh_process(argv), solution.read_text() if solution.exists() else None
        assert here == fresh, argv
        seen.append(here)
    assert seen[1][0][1].startswith("algorithm: flow\n")
    assert seen[2][0][0] == 2 and seen[3][0][0] == 0
    assert seen[4][0][0] == 2 and seen[5][0] == seen[1][0]
    assert "solver brute" in seen[6][1] and "solver flow" in seen[7][1]


TWO = ("two-valued", 1, 2, 0.3)


def _solve_auto(tmp_path, instance, capsys) -> tuple[int, list[str]]:
    path = tmp_path / "instance.sbe"
    path.write_text(serialize_election(instance))
    code = main(["solve", str(path)])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "m, n, k, seed, mode, answer",
    [
        (6, 4, 2, 5, CO_WINNER, ["decision: yes", "cost: 1"]),
        (8, 5, 2, 5, CO_WINNER, ["decision: yes", "cost: 1"]),
        (5, 4, 3, 138, UNIQUE_WINNER, ["decision: yes", "cost: 3"]),
        # no assignment makes the preferred candidate the unique winner: no optimum
        (3, 4, 3, 12, UNIQUE_WINNER, ["decision: no"]),
    ],
)
def test_auto_searches_priced_k_approval(tmp_path, capsys, m, n, k, seed, mode, answer):
    instance = gen_random(m, n, k, cost_model=TWO, seed=seed, mode=mode)
    code, lines = _solve_auto(tmp_path, instance, capsys)
    assert lines == ["algorithm: brute", *answer]
    assert code == (0 if answer[0] == "decision: yes" else 1)


@pytest.mark.parametrize(
    "m, n, k, seed, mode, decision",
    [
        (3, 4, 3, 12, UNIQUE_WINNER, "no"),
        (5, 4, 3, 138, UNIQUE_WINNER, "yes"),
        (8, 5, 2, 5, CO_WINNER, "yes"),
    ],
)
def test_color_decides_priced_k_approval_like_brute(tmp_path, capsys, m, n, k, seed, mode, decision):
    path = tmp_path / "instance.sbe"
    path.write_text(serialize_election(gen_random(m, n, k, cost_model=TWO, seed=seed, mode=mode)))
    code = main(["solve", str(path), "--algorithm", "color"])
    assert capsys.readouterr().out.splitlines()[:2] == ["algorithm: color", f"decision: {decision}"]
    assert code == (0 if decision == "yes" else 1)


@pytest.mark.parametrize(
    "rule, algorithm",
    [
        pytest.param("k-approval 2", "auto", id="k-approval 2"),
        pytest.param("bucklin", "auto", id="bucklin"),
        pytest.param("k-approval 2", "color", id="color"),
        pytest.param("k-approval 1", "ilp", id="ilp"),
    ],
)
def test_search_past_its_node_budget_is_an_error(sample_path, monkeypatch, capsys, rule, algorithm):
    # the pair override keeps auto off flow, whose scope is one price per vote
    sample_path.write_text(SAMPLE.replace("k-approval 2", rule) + "costs 0 default 2\ncosts 0 pair c1 c2 3\n")
    monkeypatch.setattr(_search, "MAX_NODES", 1)
    assert main(["solve", str(sample_path), "--algorithm", algorithm]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: search exceeded its node budget of 1\n"


def test_bucklin_proves_its_optimum_well_inside_the_node_budget(tmp_path, monkeypatch, capsys):
    # Proving the optimum of 7 against a budget of 3 scores 4,260 options with
    # the score cut; the cost cut alone lets 455k through.
    monkeypatch.setattr(_search, "MAX_NODES", 10**4)
    instance = gen_random(5, 5, 2, ("two-valued", 1, 2, 0.3), seed=2, rule=VotingRule.bucklin())
    assert _solve_auto(tmp_path, instance, capsys) == (
        1,
        ["algorithm: brute", "decision: no", "cost: 7"],
    )


@pytest.mark.parametrize("option", [["--color-mode", "random"], ["--trials", "3"], ["--seed", "1"]])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_color_takes_no_mode_trials_or_seed(sample_path, capsys, command, option):
    # color tries every coloring; nothing is drawn at random
    with pytest.raises(SystemExit) as stop:
        main([command, str(sample_path), *option])
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")


@pytest.mark.parametrize("algorithm", ["brute", "color"])
def test_too_many_options_is_an_error(tmp_path, algorithm, capsys):
    path = tmp_path / "wide.sbe"
    argv = ["generate", "random", "--m", "30", "--n", "2", "--k", "5", "--cost-model", "two:1:2:0.3"]
    assert main(argv + ["--seed", "1", "--budget", "1000", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(path), "--algorithm", algorithm]) == 2
    assert capsys.readouterr() == (
        "", "error: 2 votes x C(30,5) options exceed cap 50000\n"
    )


def test_color_skips_palettes_wider_than_the_roster(tmp_path, capsys):
    # 3-approval of 3 candidates: every vote approves everyone, so all tie.
    # Palettes of up to n*k = 15 colors used to run it to the node budget.
    path = tmp_path / "narrow.sbe"
    argv = ["generate", "random", "--m", "3", "--n", "5", "--k", "3", "--seed", "12"]
    assert main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(path), "--algorithm", "color"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "algorithm: color",
        "decision: yes",
        "cost: 0",
    ]


def test_hopeless_unique_winner_scoring_instance_is_a_no(tmp_path, capsys):
    # Four rivals share at least 3 * 4 - 3 = 9 points: one of them always
    # reaches the preferred candidate's 3. The search used to scan 10^6
    # options and give up.
    path = tmp_path / "hopeless.sbe"
    argv = ["generate", "random", "--m", "5", "--n", "3", "--k", "4", "--seed", "0", "--budget", "100"]
    assert main(argv + ["--out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    path.write_text(
        text.replace("rule k-approval 4", "rule scoring 1,1,1,1,0").replace(
            "mode co-winner", "mode unique-winner"
        ),
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["solve", str(path), "--algorithm", "brute"]) == 1
    assert capsys.readouterr() == ("algorithm: brute\ndecision: no\n", "")


def test_sb_to_pw_prints_the_prices_it_rejects(tmp_path, capsys):
    path = tmp_path / "two.sbe"
    argv = ["generate", "random", "--m", "3", "--n", "2", "--k", "1", "--cost-model", "two:1:2:0.5"]
    assert main(argv + ["--budget", "0", "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["reduce", "sb-to-pw", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: costs must lie in {0, d}; found 1, 2\n")


@pytest.mark.parametrize("rule", ["bucklin", "scoring 2,1,1,0,0"])
def test_color_on_other_rules_is_an_error(tmp_path, rule, capsys):
    path = tmp_path / "other.sbe"
    path.write_text(SAMPLE.replace("k-approval 2", rule))
    assert main(["solve", str(path), "--algorithm", "color"]) == 2
    assert capsys.readouterr().err == "error: color coding needs a k-approval instance\n"


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


@pytest.mark.parametrize("classes", ["2,2", "3,3"])
def test_gadget_pipeline_keeps_every_byte(tmp_path, capsys, classes):
    """Every gadget candidate is relevant, so the kernel is the input itself."""
    src = tmp_path / "gadget.sbe"
    assert main(["generate", "clique-gadget", "--classes", classes, "--seed", "1", "--out", str(src)]) == 0
    text = src.read_text()
    inst = parse_election(text)
    assert serialize_election(inst) == text
    assert truncation_kernel(inst) is inst

    out = tmp_path / "kernel.sbe"
    for simple in ([], ["--simple"]):
        assert main(["kernelize", *simple, str(src), "--out", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    graph, planted = planted_multicolored_clique([int(c) for c in classes.split(",")], seed=1)
    _, layout = multicolored_clique_instance(graph)
    witness = multicolored_clique_witness(inst, layout, planted)
    sol = tmp_path / "planted.sbs"
    sol.write_text(serialize_solution(inst, True, layout.budget, witness, solver="planted"))
    capsys.readouterr()
    assert main(["verify", str(src), str(sol)]) == 0
    assert capsys.readouterr().out == (
        "stated cost: 48\nchecked cost: 48\npreferred wins: yes\nsolution valid: yes\n"
    )


def test_kernelize_copies_an_unreduced_input_as_read(tmp_path):
    src = tmp_path / "gadget.sbe"
    assert main(["generate", "clique-gadget", "--classes", "2,2", "--seed", "1", "--out", str(src)]) == 0
    plain = src.read_text()
    commented = plain.replace("sbe 1\n", "sbe 1\n# a planted 2,2 clique gadget\n")
    src.write_text(commented)
    out = tmp_path / "kernel.sbe"
    assert main(["kernelize", str(src), "--out", str(out)]) == 0
    assert out.read_text() == commented
    assert parse_election(out.read_text()) == parse_election(plain)


def test_verify_of_a_yes_file_without_targets(sample_path, tmp_path, capsys):
    sol = tmp_path / "bare.sbs"
    sol.write_text("sbs 1\ndecision yes\nsolver brute\ncost 3\n")
    assert main(["verify", str(sample_path), str(sol)]) == 1
    assert capsys.readouterr().out == "solution file declares no witness\n"


# Truncation drops c2, c3 and c6 here, and with them every override that
# names one of them; the kept overrides are renumbered.
TRUNCATED_IN = """\
sbe 1
candidates 7
candidate 0 c0
candidate 1 c1
candidate 2 c2
candidate 3 c3
candidate 4 c4
candidate 5 c5
candidate 6 c6
rule k-approval 1
budget 1
preferred c0
mode co-winner
vote 0 multiplicity 1 order c1 c0 c6 c2 c4 c5 c3
vote 1 multiplicity 1 order c5 c4 c0 c1 c2 c6 c3
costs 0 pair c0 c1 2
costs 0 pair c1 c0 1
costs 0 pair c0 c3 2
costs 0 pair c3 c0 1
costs 0 pair c4 c5 2
costs 0 pair c5 c4 1
costs 1 pair c4 c2 2
costs 1 pair c2 c4 1
"""
TRUNCATED_OUT = """\
sbe 1
candidates 4
candidate 0 c0
candidate 1 c1
candidate 2 c4
candidate 3 c5
rule k-approval 1
budget 1
preferred c0
mode co-winner
vote 0 multiplicity 1 order c1 c0 c4 c5
vote 1 multiplicity 1 order c5 c4 c0 c1
costs 0 pair c0 c1 2
costs 0 pair c1 c0 1
costs 0 pair c4 c5 2
costs 0 pair c5 c4 1
"""


@pytest.mark.parametrize("simple", [[], ["--simple"]])
def test_truncation_that_drops_candidates_keeps_its_kernel(tmp_path, simple):
    inst = gen_random(7, 2, 1, cost_model=("two-valued", 1, 2, 0.08), seed=1, budget=1)
    assert serialize_election(inst) == TRUNCATED_IN
    src = tmp_path / "in.sbe"
    src.write_text(TRUNCATED_IN)
    out, prov = tmp_path / "kernel.sbe", tmp_path / "kernel.json"
    assert main(["kernelize", str(src), *simple, "--out", str(out), "--provenance", str(prov)]) == 0
    assert out.read_text() == TRUNCATED_OUT
    assert prov.read_text() == '{\n  "c0": 0,\n  "c1": 1,\n  "c4": 4,\n  "c5": 5\n}\n'


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


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--cost-model", "two:1:2:x"],
        ["random", "--cost-model", "range:a:3"],
        ["random", "--cost-model", "two:1:2:nan"],
        ["random", "--cost-model", "two:1:2:-0.1"],
        ["random", "--cost-model", "two:1:2:1.5"],
        ["random", "--cost-model", "two:1:2:inf"],
        ["random", "--budget", "abc"],
        ["clique-gadget", "--epsilon", "abc"],
        ["clique-gadget", "--classes", "a,b"],
        ["clique-gadget", "--classes", "2,-1"],
        ["clique-gadget", "--classes", "2,0"],
        ["random", "--cost-model", "range:3:1"],
        ["clique-gadget", "--epsilon", "0"],
        ["clique-gadget", "--classes", "3"],
    ],
)
def test_generate_rejects_bad_arguments(tmp_path, argv, capsys):
    assert main(["generate", *argv, "--out", str(tmp_path / "g.sbe")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("density", ["0", "0.5", "1"])
def test_generate_accepts_densities_from_zero_to_one(tmp_path, density):
    out = tmp_path / "g.sbe"
    assert main(["generate", "random", "--cost-model", f"two:1:2:{density}", "--out", str(out)]) == 0


def test_generate_single_vote_clique_without_graph(tmp_path):
    out = tmp_path / "single.sbe"
    assert main(["generate", "clique-single-vote", "--n", "5", "--k", "2", "--out", str(out)]) == 0
    inst = parse_election(out.read_text())
    assert len(inst.election.votes) == 1


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
    # s, t, x, one class per distinct vote, one node per candidate
    assert sum(1 for l in dot.splitlines() if l.endswith('";')) == 3 + 2 + 5


README_SAMPLE = """\
sbe 1
candidates 3
candidate 0 a
candidate 1 b
candidate 2 p
rule k-approval 1
budget 3/2
preferred p
mode co-winner
vote 0 multiplicity 2 order a b p
costs 0 default 1
costs 0 pair a b 3/2
"""

# The README sample without its pair override, at price 3/2 a swap: both
# copies of the vote form one class.
README_NETWORK = """\
digraph transfer {
  rankdir=LR;
  "s";
  "t";
  "x";
  "g[0]";
  "b[0]";
  "b[1]";
  "b[2]";
  "s" -> "g[0]" [label="cap 2"];
  "g[0]" -> "b[0]" [label="cap 2"];
  "g[0]" -> "b[1]" [label="cap 2, cost 3/2"];
  "g[0]" -> "b[2]" [label="cap 2, cost 3"];
  "b[0]" -> "x" [label="cap 1"];
  "b[1]" -> "x" [label="cap 1"];
  "b[2]" -> "t" [label="cap 1"];
  "x" -> "t" [label="cap 1"];
}
"""


def test_export_network_of_readme_sample(tmp_path, capsys):
    # Arc costs print at the instance's own prices; a pair override puts the
    # instance outside flow's scope, for export as for solve.
    path = tmp_path / "readme.sbe"
    out = tmp_path / "net.dot"
    path.write_text(README_SAMPLE.replace("costs 0 pair a b 3/2\n", "").replace("default 1", "default 3/2"))
    assert main(["export-network", str(path), "--s-star", "1", "--out", str(out)]) == 0
    assert out.read_text() == README_NETWORK
    path.write_text(README_SAMPLE)
    capsys.readouterr()
    error = "error: flow solver needs k-approval with one swap price per vote, without pair overrides\n"
    for argv in (["export-network", str(path), "--s-star", "1"], ["solve", "--algorithm", "flow", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", error)


def test_flow_solves_and_exports_one_price_per_vote(tmp_path, capsys):
    # range:2:2 prices every swap 2, and the pair lines equal to the default
    # drop out, so auto runs flow; brute refuses 12 * C(20, 4) top-4 sets.
    path = tmp_path / "r22.sbe"
    argv = ["generate", "random", "--m", "20", "--n", "12", "--k", "4", "--cost-model", "range:2:2"]
    assert main(argv + ["--seed", "1", "--out", str(path)]) == 0
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "algorithm: flow\ndecision: yes\ncost: 6\n"
    out = tmp_path / "net.dot"
    assert main(["export-network", str(path), "--s-star", "3", "--out", str(out)]) == 0
    dot = out.read_text()
    rankings = parse_election(path.read_text()).election.expanded_list()
    assert len(set(rankings)) == 12  # twelve distinct votes, twelve classes
    for g, ranking in enumerate(rankings):
        for pos, c in enumerate(ranking):
            label = f"cap 1, cost {2 * pos}" if pos else "cap 1"
            assert f'  "g[{g}]" -> "b[{c}]" [label="{label}"];\n' in dot


DUMP_SAMPLE = """\
sbe 1
candidates 3
candidate 0 a
candidate 1 b
candidate 2 p
rule k-approval 1
budget 5/2
preferred p
mode unique-winner
vote 0 multiplicity 2 order a b p
vote 1 multiplicity 1 order b p a
costs 1 default 2
costs 1 pair p a 1/2
"""

# --dump-ilp of DUMP_SAMPLE: two vote groups, one of two votes, rational prices.
DUMP_PROGRAM = """\
\\ description set 0
\\ transformation feasibility program
subject to
  group0: + t[0->0] + t[0->1] + t[0->2] + t[0->4] + t[0->5] <= 2
  group1: + t[1->0] + t[1->1] + t[1->2] + t[1->3] + t[1->5] <= 1
  budget: + 2 t[0->0] + 3 t[0->1] + t[0->2] + 2 t[0->4] + t[0->5] + 4 t[1->0] + 2 t[1->1] + 9/2 t[1->2] + 5/2 t[1->3] + 1/2 t[1->5] <= 5/2
  win0: + 2 t[0->0] + 2 t[0->1] + t[0->4] + t[0->5] + t[1->0] + t[1->1] - t[1->2] - t[1->3] >= 3
  win1: + t[0->0] + t[0->1] - t[0->4] - t[0->5] + 2 t[1->0] + 2 t[1->1] + t[1->2] + t[1->3] >= 2
bounds
  0 <= t[0->0] <= 2
  0 <= t[0->1] <= 2
  0 <= t[0->2] <= 2
  0 <= t[0->4] <= 2
  0 <= t[0->5] <= 2
  0 <= t[1->0] <= 1
  0 <= t[1->1] <= 1
  0 <= t[1->2] <= 1
  0 <= t[1->3] <= 1
  0 <= t[1->5] <= 1
integer
  t[0->0] t[0->1] t[0->2] t[0->4] t[0->5] t[1->0] t[1->1] t[1->2] t[1->3] t[1->5]
"""


def test_dump_ilp_of_k_approval_sample(tmp_path):
    path = tmp_path / "dump.sbe"
    path.write_text(DUMP_SAMPLE)
    out = tmp_path / "dump.lp"
    assert main(["solve", str(path), "--algorithm", "ilp", "--dump-ilp", str(out)]) == 1
    assert out.read_text() == DUMP_PROGRAM


# Bucklin's win rows for DUMP_SAMPLE, one set per round: upper bounds print
# negated, so every row is a >= row. Groups, budget and bounds are the
# k-approval program's, since every set is over the same variables.
BUCKLIN_WIN_ROWS = (
    """\
  win0: 0 >= -1
  win1: 0 >= -1
  win2: 0 >= -1
  win3: + t[0->0] + t[0->1] + t[1->0] + t[1->1] >= 2
  win4: + 2 t[0->0] + 2 t[0->1] + t[0->4] + t[0->5] + t[1->0] + t[1->1] - t[1->2] - t[1->3] >= 3
  win5: + t[0->0] + t[0->1] - t[0->4] - t[0->5] + 2 t[1->0] + 2 t[1->1] + t[1->2] + t[1->3] >= 2
""",
    """\
  win0: - t[0->0] - t[0->1] - t[1->0] - t[1->1] >= -1
  win1: + t[0->0] + t[0->1] + t[0->4] + t[0->5] - t[1->2] - t[1->3] >= 1
  win2: - t[0->4] - t[0->5] + t[1->0] + t[1->1] + t[1->2] + t[1->3] >= 0
  win3: + t[0->0] + t[0->1] + t[0->2] + t[0->4] - t[1->3] - t[1->5] >= 1
  win4: + t[0->0] + 2 t[0->1] + t[0->2] + 2 t[0->4] - t[1->0] - t[1->2] - 2 t[1->3] - 2 t[1->5] >= 2
  win5: + 2 t[0->0] + t[0->1] + 2 t[0->2] + t[0->4] + t[1->0] + t[1->2] - t[1->3] - t[1->5] >= 3
""",
    """\
  win0: - t[0->0] - t[0->1] - t[0->2] - t[0->4] + t[1->3] + t[1->5] >= 0
  win1: + t[0->1] + t[0->4] - t[1->0] - t[1->2] - t[1->3] - t[1->5] >= 1
  win2: + t[0->0] + t[0->2] + t[1->0] + t[1->2] >= 2
  win3: 0 >= -1
  win4: 0 >= 1
  win5: 0 >= 1
""",
)


def test_dump_ilp_of_bucklin_sample(tmp_path):
    path = tmp_path / "dump.sbe"
    path.write_text(DUMP_SAMPLE.replace("rule k-approval 1", "rule bucklin"))
    out = tmp_path / "dump.lp"
    assert main(["solve", str(path), "--algorithm", "ilp", "--dump-ilp", str(out)]) == 1
    head, _, rest = DUMP_PROGRAM.partition("  win0:")
    tail = rest[rest.index("bounds\n") :]
    sets = [head.replace("set 0", f"set {i}") + rows + tail for i, rows in enumerate(BUCKLIN_WIN_ROWS)]
    assert out.read_text() == "\n".join(sets)


@pytest.mark.parametrize("dump, calls", [(False, [1, 1, 1]), (True, [2, 2, 2])], ids=["solve", "dump"])
def test_the_ilp_is_built_once_per_program(tmp_path, monkeypatch, dump, calls):
    # Bucklin over four candidates, four description sets: the solve and
    # the listing each describe the rule, price the classes and build once.
    from swapbribery import ilp, swaps

    text = serialize_election(gen_random(4, 4, 1, ("two-valued", 1, 2, 0.3), seed=3))
    path = tmp_path / "bucklin.sbe"
    path.write_text(text.replace("rule k-approval 1\n", "rule bucklin\n"))
    names = ("describe_rule", "build_ilp", "integer_prices")
    counts = dict.fromkeys(names, 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for owner, name in zip((ilp, ilp, swaps.BriberyInstance), names):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    argv = ["solve", str(path), "--algorithm", "ilp"] + (["--dump-ilp", str(tmp_path / "b.lp")] if dump else [])
    assert main(argv) == 1
    assert [counts[name] for name in names] == calls


# A one-candidate election: the program has no variables, and p wins as cast.
ONE_CANDIDATE = """\
sbe 1
candidates 1
candidate 0 p
rule k-approval 1
budget 0
preferred p
vote 0 multiplicity 1 order p
"""
ONE_CANDIDATE_PROGRAM = """\
\\ description set 0
\\ transformation feasibility program
subject to
  group0: 0 <= 1
  budget: 0 <= 0
bounds
integer
""" + "  \n"  # an empty list of integer variables


@pytest.mark.parametrize(
    "rule, win_rows",
    [("k-approval 1", ""), ("bucklin", "  win0: 0 >= 0\n  win1: 0 >= 0\n")],
)
def test_dump_ilp_of_one_candidate(tmp_path, capsys, rule, win_rows):
    path = tmp_path / "one.sbe"
    path.write_text(ONE_CANDIDATE.replace("k-approval 1", rule))
    out = tmp_path / "one.lp"
    assert main(["solve", str(path), "--algorithm", "ilp", "--dump-ilp", str(out)]) == 0
    assert capsys.readouterr().out == "algorithm: ilp\ndecision: yes\ncost: 0\n"
    assert out.read_text() == ONE_CANDIDATE_PROGRAM.replace("bounds\n", win_rows + "bounds\n")


@pytest.mark.parametrize("algorithm", ["auto", "brute", "flow", "color"])
def test_dump_ilp_needs_the_ilp(sample_path, tmp_path, capsys, algorithm):
    out = tmp_path / "dump.lp"
    argv = ["solve", str(sample_path), "--algorithm", algorithm, "--dump-ilp", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --dump-ilp needs --algorithm ilp\n")
    assert not out.exists()


def test_bench_csv_schema(sample_path, tmp_path):
    out = tmp_path / "bench.csv"
    assert (
        main(["bench", str(sample_path), "--solvers", "brute,flow", "--out", str(out)])
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,solver,decision,cost,wall_ms"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 2
    assert all(r[2] == "yes" and r[3] == "3" for r in rows)


def test_bench_names_the_solver_auto_picks(sample_path, tmp_path):
    # one price per vote is flow's; a pair override sends auto to brute
    priced, paired = tmp_path / "priced.sbe", tmp_path / "paired.sbe"
    priced.write_text(SAMPLE + "costs 0 default 2\n")
    paired.write_text(SAMPLE + "costs 0 default 2\ncosts 0 pair c1 c2 3\n")
    out = tmp_path / "bench.csv"
    argv = ["bench", str(sample_path), str(priced), str(paired), "--solvers", "auto,ilp", "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[1:4] for row in rows] == [
        ["flow", "yes", "3"],
        ["ilp", "yes", "3"],
        ["flow", "no", "4"],
        ["ilp", "no", "-"],
        ["brute", "no", "4"],
        ["ilp", "no", "-"],
    ]


def test_bench_rows_reproducible_modulo_timing(sample_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        main(["bench", str(sample_path), "--solvers", "brute", "--out", str(out)])

    def strip_time(path):
        rows = []
        for line in Path(path).read_text().splitlines()[1:]:
            cells = line.split(",")
            rows.append(cells[:4])
        return rows

    assert strip_time(a) == strip_time(b)


def test_invalid_witness_is_an_error_in_solve_and_bench(sample_path, monkeypatch, capsys):
    # The identity bribery leaves p without a point, so it does not win.
    def lying_flow(instance):
        return SolveResult(True, Fraction(0), Bribery(tuple(instance.election.expanded())))

    monkeypatch.setattr(cli, "solve_unit", lying_flow)
    for argv in (["solve", "--algorithm", "flow"], ["bench", "--solvers", "flow"]):
        assert main(argv + [str(sample_path)]) == 2
        assert capsys.readouterr() == ("", "error: solver produced an invalid witness\n")


# Small valid files of every input format. The fuzz below mutates their
# tokens with values so small that no mutant can ask a solver for real work.
FUZZ_SBE = """\
sbe 1
candidates 3
candidate 0 a
candidate 1 b
candidate 2 p
rule k-approval 1
budget 1
preferred p
mode co-winner
vote 0 multiplicity 2 order a b p
vote 1 multiplicity 1 order b p a
costs 0 default 1/2
costs 1 pair b p 2
"""
FUZZ_SBS = """\
sbs 1
decision yes
solver brute
cost 1
config seed 0
target 0 a b p
target 1 a b p
target 2 p b a
"""
# The same bribery as FUZZ_SBS, as serialize_solution writes it: only the
# vote it changes.
FUZZ_SBS_SHORT = """\
sbs 1
decision yes
solver brute
cost 1
config seed 0
changed 1
target 2 p b a
"""
FUZZ_PWE = """\
pwe 1
candidates 3
candidate 0 a
candidate 1 b
candidate 2 p
rule k-approval 1
preferred p
partials 2
partial 0 pair a b
partial 1 pair b p
"""
FUZZ_GRAPH = """\
graph 4 3 2
0 2
1 3
0 3
color 0 1
color 1 1
color 2 2
color 3 2
"""
FUZZ_CASES = {
    "sbe": (FUZZ_SBE, [
        ["verify", "{file}", "{sbs}"],
        ["kernelize", "--simple", "{file}"],
        ["solve", "--algorithm", "brute", "{file}"],
        ["solve", "--algorithm", "color", "{file}"],
        ["solve", "--algorithm", "ilp", "{file}"],
    ]),
    "sbs": (FUZZ_SBS, [["verify", "{sbe}", "{file}"]]),
    "sbs-short": (FUZZ_SBS_SHORT, [["verify", "{sbe}", "{file}"]]),
    "pwe": (FUZZ_PWE, [["reduce", "pw-to-sb", "{file}"]]),
    "graph": (FUZZ_GRAPH, [
        ["generate", "clique-gadget", "--graph", "{file}"],
        ["generate", "clique-single-vote", "--graph", "{file}"],
    ]),
}
FUZZ_TOKENS = [str(i) for i in range(-1, 10)] + ["³", "x", "1/2", "3/0", "1,0,0", "a", "b", "p"] + [
    "sbe", "sbs", "pwe", "graph", "candidates", "candidate", "rule", "k-approval",
    "bucklin", "scoring", "budget", "preferred", "mode", "co-winner", "unique-winner",
    "vote", "multiplicity", "order", "costs", "default", "pair", "decision", "yes",
    "no", "solver", "cost", "config", "target", "partials", "partial", "color", "changed",
]
FUZZ_EDITS = st.tuples(
    st.sampled_from(("replace", "insert", "delete", "drop-line", "copy-line")),
    st.integers(0, 15),
    st.integers(0, 8),
    st.sampled_from(FUZZ_TOKENS),
)


def _mutate(text: str, edits) -> str:
    lines = [line.split() for line in text.splitlines()]
    for op, i, j, token in edits:
        i %= len(lines)
        line = lines[i]
        if op == "drop-line" and len(lines) > 1:
            del lines[i]
        elif op == "copy-line":
            lines.insert(i, list(line))
        elif op == "insert":
            line.insert(j % (len(line) + 1), token)
        elif line and op == "replace":
            line[j % len(line)] = token
        elif line and op == "delete":
            del line[j % len(line)]
    return "".join(" ".join(line) + "\n" for line in lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(FUZZ_CASES)), edits=st.lists(FUZZ_EDITS, min_size=1, max_size=4))
def test_mutated_files_never_crash_the_cli(kind, edits):
    text, commands = FUZZ_CASES[kind]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"file": Path(tmp) / "mutant", "sbe": Path(tmp) / "ok.sbe", "sbs": Path(tmp) / "ok.sbs"}
        paths["file"].write_text(_mutate(text, edits))
        paths["sbe"].write_text(FUZZ_SBE)
        paths["sbs"].write_text(FUZZ_SBS)
        for command in commands:
            argv = [arg.format(**paths) for arg in command]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)


NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100))  # an executable's first bytes


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{bad}"],
        ["verify", "{bad}", "{sbs}"],
        ["verify", "{sbe}", "{bad}"],
        ["kernelize", "{bad}"],
        ["kernelize", "--simple", "{bad}"],
        ["reduce", "sb-to-pw", "{bad}"],
        ["reduce", "pw-to-sb", "{bad}"],
        ["generate", "clique-gadget", "--graph", "{bad}"],
        ["generate", "clique-single-vote", "--graph", "{bad}"],
        ["export-network", "{bad}", "--s-star", "1"],
        ["bench", "{bad}"],
    ],
)
def test_files_that_are_not_utf8_are_an_error(tmp_path, argv, capsys):
    paths = {"bad": tmp_path / "binary", "sbe": tmp_path / "ok.sbe", "sbs": tmp_path / "ok.sbs"}
    paths["bad"].write_bytes(NOT_UTF8)
    paths["sbe"].write_text(FUZZ_SBE)
    paths["sbs"].write_text(FUZZ_SBS)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {paths['bad']} is not UTF-8 text\n")


# Every command that reads an instance, with the files it reads: the mutant
# is {file}, the other files are the valid ones above.
SWEEP_COMMANDS = {
    "sbe": [
        ["solve", "{file}"],
        ["solve", "--algorithm", "brute", "{file}"],
        ["verify", "{file}", "{sbs}"],
        ["kernelize", "{file}", "--provenance", "{out}"],
        ["kernelize", "--simple", "{file}"],
        ["reduce", "sb-to-pw", "{file}"],
        ["export-network", "{file}", "--s-star", "2"],
    ],
    "sbs": [["verify", "{sbe}", "{file}"]],
    "pwe": [["reduce", "pw-to-sb", "{file}"]],
    "graph": [
        ["generate", "clique-gadget", "--graph", "{file}"],
        ["generate", "clique-single-vote", "--graph", "{file}", "--k", "2"],
    ],
}


def _corrupt_bytes(rng: random.Random, data: bytes) -> bytes:
    """One to three byte-level edits: overwrite, insert or delete a byte, or truncate."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        op = rng.choice(("overwrite", "insert", "delete", "truncate"))
        if op == "insert":
            data.insert(i, rng.randrange(256))
        elif i < len(data) and op == "overwrite":
            data[i] = rng.randrange(256)
        elif i < len(data) and op == "delete":
            del data[i]
        elif op == "truncate":
            del data[i:]
    return bytes(data)


def test_malformed_input_sweep_answers_or_names_one_error(tmp_path, capsys):
    # Seeded text- and byte-level mutants of every input format. Each command
    # answers (0 or 1) or prints exactly one error line (2); none raises.
    rng = random.Random(14)
    texts = {"sbe": FUZZ_SBE, "sbs": FUZZ_SBS, "pwe": FUZZ_PWE, "graph": FUZZ_GRAPH}
    paths = {name: tmp_path / name for name in ("file", "sbe", "sbs", "out")}
    paths["sbe"].write_text(FUZZ_SBE)
    paths["sbs"].write_text(FUZZ_SBS)
    codes = []
    for trial in range(400):
        kind = rng.choice(sorted(texts))
        if rng.random() < 0.5:
            edits = [
                (rng.choice(("replace", "insert", "delete", "drop-line", "copy-line")),
                 rng.randrange(16), rng.randrange(9), rng.choice(FUZZ_TOKENS))
                for _ in range(rng.randint(1, 4))
            ]
            data = _mutate(texts[kind], edits).encode()
        else:
            data = _corrupt_bytes(rng, texts[kind].encode())
        paths["file"].write_bytes(data)
        for command in SWEEP_COMMANDS[kind]:
            argv = [arg.format(**paths) for arg in command]
            code = main(argv)
            _, err = capsys.readouterr()
            assert code in (0, 1, 2), (trial, argv, data)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (trial, argv, data, err)
            else:
                assert err == "", (trial, argv, data, err)
            codes.append(code)
    # the mutants reach every outcome, not only the parsers' rejections
    assert {0, 1, 2} <= set(codes)


@pytest.mark.parametrize(
    "command, text, err",
    [
        pytest.param(
            ["solve"], SAMPLE.replace("k-approval 2", "k-approval 6"),
            "line 8: k=6 exceeds number of candidates m=5", id="k-approval",
        ),
        pytest.param(
            ["solve"], SAMPLE.replace("k-approval 2", "scoring 3,2,1"),
            "line 8: scoring vector length must equal m", id="scoring",
        ),
        pytest.param(["solve"], SAMPLE.replace("budget 3", "budget -1"), "line 9: budget must be non-negative", id="budget"),
        pytest.param(
            ["solve"], SAMPLE + "costs 1 pair c4 c4 2\n",
            "line 14: cost override needs two distinct candidates", id="pair",
        ),
        pytest.param(
            ["reduce", "pw-to-sb"], FUZZ_PWE.replace("k-approval 1", "k-approval 4"),
            "line 6: k=4 exceeds number of candidates m=3", id="partial-k-approval",
        ),
        pytest.param(["generate", "clique-single-vote", "--graph"], "graph 4 1\n0 5\n", "line 2: bad edge (0, 5)", id="edge"),
        pytest.param(["generate", "clique-single-vote", "--graph"], "graph 4 1\n2 2\n", "line 2: bad edge (2, 2)", id="loop"),
    ],
)
def test_a_refusal_names_the_line_that_causes_it(tmp_path, capsys, command, text, err):
    path = tmp_path / "input"
    path.write_text(text)
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_identical_votes_anywhere_in_the_election_share_one_symmetry_run(tmp_path, capsys):
    # generate random scatters the copies of its few m = 2 votes; the search
    # used to see only copies side by side and stopped at its node budget.
    path = tmp_path / "many.sbe"
    argv = ["generate", "random", "--m", "2", "--n", "900", "--k", "1", "--cost-model", "two:1:2:0.5"]
    assert main(argv + ["--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr() == ("algorithm: brute\ndecision: yes\ncost: 4\n", "")


def test_solve_answers_1500_votes(tmp_path, capsys):
    # the search goes one level per vote, 1,500 deep
    path = tmp_path / "deep.sbe"
    two = ("two-valued", Fraction(1), Fraction(2), 0.5)
    path.write_text(serialize_election(gen_random(2, 1500, 1, cost_model=two, seed=3)))
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr() == ("algorithm: brute\ndecision: yes\ncost: 0\n", "")
