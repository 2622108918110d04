"""Metamorphic checks: transforms of an instance that must keep its answer.

The instances have many votes and few candidates, the regime where the
ILP is fixed-parameter tractable in the number of candidates: m = 2-3 and
n = 1,000-1,200, so the brute-force search goes over a thousand levels deep.
"""

import random
from fractions import Fraction

import pytest

from swapbribery.core import CO_WINNER, UNIQUE_WINNER, Election, Vote
from swapbribery.errors import ResourceCapError
from swapbribery.flow import solve_unit
from swapbribery.oracle import brute_topk
from swapbribery.reductions import gen_random
from swapbribery.swaps import BriberyInstance, SwapCostFunction

TWO_HALF = ("two-valued", Fraction(1), Fraction(2), 0.5)
TWO_THIRD = ("two-valued", Fraction(1), Fraction(2), 0.3)

# (m, n, k, prices, seed, mode): instances the search answers, in their
# order and in the shuffled one, within its node budget
CASES = [
    (2, 1000, 1, TWO_HALF, 0, CO_WINNER),
    (2, 1200, 1, TWO_THIRD, 2, UNIQUE_WINNER),
    (3, 1000, 1, "unit", 1, UNIQUE_WINNER),
    (3, 1200, 1, "unit", 1, CO_WINNER),
]


def _case_id(case):
    m, n, k, prices, seed, mode = case
    return f"m{m}n{n}k{k}-{'unit' if prices == 'unit' else 'priced'}-{seed}-{mode}"


def _instance(m, n, k, prices, seed, mode):
    return gen_random(m, n, k, cost_model=prices, seed=seed, mode=mode)


def _answer(instance):
    result = brute_topk(instance)
    return result.decision, result.optimal_cost


def _permute_votes(instance, rng):
    """The same votes, each with its prices, in a shuffled order."""
    votes = instance.election.expanded_list()
    order = list(range(len(votes)))
    rng.shuffle(order)
    costs = instance.costs
    return BriberyInstance(
        Election(instance.election.candidates, tuple(Vote(votes[i]) for i in order)),
        instance.rule,
        instance.preferred,
        SwapCostFunction([costs.default(i) for i in order], [costs.overrides(i) for i in order]),
        instance.budget,
        instance.mode,
    )


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


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_permuting_the_votes_keeps_the_answer(case):
    instance = _instance(*case)
    assert _answer(_permute_votes(instance, random.Random(1))) == _answer(instance)


@pytest.mark.xfail(raises=ResourceCapError, strict=True, reason=(
    "the search's node count depends on the vote order: 30,054 nodes as generated, "
    "1,023,628 shuffled, past the budget of 10**6"
))
def test_permuting_the_votes_keeps_the_answer_of_the_command_line_example():
    # ``generate random --m 2 --n 1000 --k 1 --cost-model two:1:2:0.5 --seed 3``: cost 11
    instance = _instance(2, 1000, 1, TWO_HALF, 3, CO_WINNER)
    assert _answer(_permute_votes(instance, random.Random(1))) == _answer(instance) == (True, 11)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_relabeling_the_candidates_keeps_the_answer(case):
    instance = _instance(*case)
    assert _answer(_relabel(instance)) == _answer(instance)


@pytest.mark.parametrize("m, seed, mode", [(2, 0, CO_WINNER), (3, 0, UNIQUE_WINNER), (3, 1, UNIQUE_WINNER)])
def test_search_agrees_with_flow_on_unit_prices(m, seed, mode):
    instance = gen_random(m, 1000, 1, seed=seed, mode=mode)
    flow = solve_unit(instance)
    assert _answer(instance) == (flow.decision, flow.optimal_cost)
