from fractions import Fraction

import pytest

from swapbribery.errors import ParseError
from swapbribery.hardness import (
    multicolored_clique_instance,
    planted_multicolored_clique,
    random_graph,
    single_vote_clique_instance,
)
from swapbribery.io import (
    format_fraction,
    network_to_dot,
    parse_election,
    parse_graph,
    parse_partial,
    parse_solution,
    serialize_election,
    serialize_graph,
    serialize_partial,
    serialize_solution,
)
from swapbribery.flow import build_transfer_network
from swapbribery.oracle import brute_topk
from swapbribery.reductions import (
    PossibleWinnerInstance,
    gen_random,
    random_partial_votes,
)
from swapbribery.core import VotingRule

from conftest import SAMPLE_U, SAMPLE_V


MINIMAL = """\
sbe 1
candidates 2
candidate 0 a
candidate 1 p
rule k-approval 1
budget 1
preferred p
vote 0 multiplicity 1 order a p
"""


def test_minimal_file_parses():
    inst = parse_election(MINIMAL)
    assert inst.election.m == 2
    assert inst.preferred == 1
    assert inst.budget == 1
    assert inst.mode == "co-winner"
    assert inst.costs.cost(0, 0, 1) == 1


def test_cost_override_line():
    text = MINIMAL + "costs 0 pair a p 3/2\n"
    inst = parse_election(text)
    assert inst.costs.cost(0, 0, 1) == Fraction(3, 2)
    # one-sided overrides complete symmetrically
    assert inst.costs.cost(0, 1, 0) == Fraction(3, 2)


def test_fraction_formatting():
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(3, 2)) == "3/2"
    assert parse_election(MINIMAL.replace("budget 1", "budget 7/3")).budget == Fraction(7, 3)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("sbe 1", "sbx 1"),
        lambda t: t.replace("candidate 1 p", "candidate 1 a"),
        lambda t: t.replace("order a p", "order a a"),
        lambda t: t.replace("budget 1", "budget -1"),
        lambda t: t + "unknown-key 1\n",
        lambda t: t + "costs 0 pair a p -2\n",
        lambda t: t.replace("vote 0", "vote 1"),
        lambda t: t.replace("vote 0", "vote x"),
        lambda t: t.replace("multiplicity 1", "multiplicity y"),
        lambda t: t.replace("multiplicity 1", "multiplicity 0"),
    ],
)
def test_bad_files_rejected(mangle):
    with pytest.raises(ParseError):
        parse_election(mangle(MINIMAL))


def test_round_trip_on_generated_corpus():
    for seed in range(25):
        for model in ("unit", ("two-valued", 1, 2, 0.4), ("uniform-range", 1, 3)):
            inst = gen_random(5, 3, 2, cost_model=model, seed=seed)
            text = serialize_election(inst)
            again = parse_election(text)
            assert again == inst
            assert serialize_election(again) == text


def test_round_trip_asymmetric_costs():
    inst = single_vote_clique_instance(random_graph(5, 0.4, seed=3), 2)
    assert parse_election(serialize_election(inst)) == inst


def test_round_trip_multiplicities():
    graph, _ = planted_multicolored_clique([2, 2], seed=0)
    inst, _ = multicolored_clique_instance(graph)
    again = parse_election(serialize_election(inst))
    assert again == inst


def test_diverging_copy_costs_serialize_by_splitting():
    # A multiplicity-2 vote whose two copies price swaps differently has
    # no single cost line; the serializer splits the vote row instead.
    from swapbribery.core import Election, Vote
    from swapbribery.swaps import BriberyInstance, SwapCostFunction

    election = Election(("a", "p"), (Vote((0, 1), 2),))
    costs = SwapCostFunction(
        [Fraction(1), Fraction(1)],
        [{(0, 1): Fraction(2)}, {}],
    )
    inst = BriberyInstance(
        election, VotingRule.k_approval(1), 1, costs, Fraction(2)
    )
    text = serialize_election(inst)
    assert text.count("vote ") == 2
    again = parse_election(text)
    assert again.election.expanded_list() == inst.election.expanded_list()
    for idx in range(2):
        assert again.costs.default(idx) == inst.costs.default(idx)
        assert again.costs.cost(idx, 0, 1) == inst.costs.cost(idx, 0, 1)
    assert brute_topk(again).optimal_cost == brute_topk(inst).optimal_cost


def test_solution_round_trip(sample_instance):
    res = brute_topk(sample_instance)
    text = serialize_solution(
        sample_instance, res.decision, res.optimal_cost, res.witness, "brute",
        config={"seed": "0"},
    )
    decision, cost, bribery, solver, config = parse_solution(text, sample_instance)
    assert decision and cost == 3 and solver == "brute"
    assert bribery == res.witness
    assert config == {"seed": "0"}


def test_partial_round_trip():
    votes = random_partial_votes(4, 3, seed=5)
    pw = PossibleWinnerInstance(
        ("a", "b", "c", "d"), votes, VotingRule.k_approval(2), 1
    )
    again = parse_partial(serialize_partial(pw))
    assert again == pw


def test_graph_round_trip():
    graph = random_graph(6, 0.5, seed=2)
    assert parse_graph(serialize_graph(graph)) == graph
    colored, _ = planted_multicolored_clique([2, 3], seed=2)
    assert parse_graph(serialize_graph(colored)) == colored


def test_graph_rejects_uncolored_vertex():
    with pytest.raises(ParseError):
        parse_graph("graph 2 1 2\n0 1\ncolor 0 1\n")


def test_dot_counts_for_sample_network():
    net = build_transfer_network([SAMPLE_V, SAMPLE_U], 2, 2, 2)
    dot = network_to_dot(net)
    node_lines = [l for l in dot.splitlines() if l.endswith('";')]
    arc_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 22
    assert len(arc_lines) == len(net.arcs)
