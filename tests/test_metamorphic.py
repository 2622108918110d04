"""Metamorphic checks: transforms of an instance that must keep its answer.

The instances have many votes and few candidates, the regime where the
ILP is fixed-parameter tractable in the number of candidates: m = 2-3 and
n = 1,000-1,200, so the brute-force search goes over a thousand levels deep.
"""

import random

import pytest

from swapbribery.core import CO_WINNER, UNIQUE_WINNER, Election, Vote
from swapbribery.flow import solve_unit
from swapbribery.oracle import brute_topk
from swapbribery.reductions import gen_random
from swapbribery.swaps import BriberyInstance, SwapCostFunction

from search_orders import CASES, EXAMPLE, ORDERED, case_id, make_instance, orders, permute_votes


def _answer(instance):
    result = brute_topk(instance)
    return result.decision, result.optimal_cost


def _relabel(instance):
    """Candidate c renamed to c + 1 mod m everywhere: roster, votes, preferred and overrides."""
    m = instance.election.m
    label = [(c + 1) % m for c in range(m)]
    names = [""] * m
    for c, name in enumerate(instance.election.candidates):
        names[label[c]] = name
    costs = instance.costs
    n = costs.n_votes
    return BriberyInstance(
        Election(
            tuple(names),
            tuple(Vote(tuple(label[c] for c in ranking)) for ranking in instance.election.expanded_list()),
        ),
        instance.rule,
        label[instance.preferred],
        SwapCostFunction(
            [costs.default(v) for v in range(n)],
            [{(label[a], label[b]): price for (a, b), price in costs.overrides(v).items()} for v in range(n)],
        ),
        instance.budget,
        instance.mode,
    )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_permuting_the_votes_keeps_the_answer(case):
    instance = make_instance(*case)
    assert _answer(permute_votes(instance, random.Random(1))) == _answer(instance)


def test_permuting_the_votes_keeps_the_answer_of_the_command_line_example():
    # ``generate random --m 2 --n 1000 --k 1 --cost-model two:1:2:0.5 --seed 3``: cost 11
    instance = make_instance(*EXAMPLE)
    assert _answer(permute_votes(instance, random.Random(1))) == _answer(instance) == (True, 11)


@pytest.mark.parametrize("name", ORDERED)
def test_every_vote_order_takes_few_nodes(name):
    """The swing cut bounds the search in any vote order, not just where a cheap leaf comes first.

    As generated and in five shuffles, each instance keeps its answer, and
    its worst order stays under a tenth of the node budget.
    """
    runs = orders(ORDERED[name], 5)
    assert len({answer for answer, _ in runs}) == 1, runs
    assert max(nodes for _, nodes in runs) < 10**5, runs


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_relabeling_the_candidates_keeps_the_answer(case):
    instance = make_instance(*case)
    assert _answer(_relabel(instance)) == _answer(instance)


@pytest.mark.parametrize("m, seed, mode", [(2, 0, CO_WINNER), (3, 0, UNIQUE_WINNER), (3, 1, UNIQUE_WINNER)])
def test_search_agrees_with_flow_on_unit_prices(m, seed, mode):
    instance = gen_random(m, 1000, 1, seed=seed, mode=mode)
    flow = solve_unit(instance)
    assert _answer(instance) == (flow.decision, flow.optimal_cost)
