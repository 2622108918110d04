from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from swapbribery import _search
from swapbribery.colorcoding import solve_color_coding, successful_patterns
from swapbribery.core import Election, Vote, VotingRule
from swapbribery.errors import ResourceCapError
from swapbribery.swaps import (
    BriberyInstance,
    SwapCostFunction,
    verify_bribery,
)

from conftest import sample_election
from test_conformance import check, labels


def test_single_vote_plurality_has_one_pattern():
    assert list(successful_patterns(1, 1, 2)) == [((1,),)]


def test_two_votes_plurality_patterns():
    assert list(successful_patterns(2, 1, 2)) == [
        ((1,), (1,)),
        ((1,), (2,)),
        ((2,), (1,)),
    ]


@pytest.mark.parametrize("n, k, count", [(4, 2, 313), (4, 3, 5549), (5, 2, 4829)])
def test_canonical_pattern_count(n, k, count):
    assert sum(1 for _ in successful_patterns(n, k, n * k)) == count


@pytest.mark.parametrize("n, k, m, count", [(4, 2, 4, 109), (4, 3, 5, 462), (5, 2, 3, 58)])
def test_patterns_use_no_more_colors_than_candidates(n, k, m, count):
    assert sum(1 for _ in successful_patterns(n, k, m)) == count


def _relabeled(pattern):
    """Colors other than 1 renamed 2, 3, ... in order of first use."""
    names = {1: 1}
    for part in pattern:
        for c in part:
            names.setdefault(c, len(names) + 1)
    return tuple(tuple(sorted(names[c] for c in part)) for part in pattern)


def _successful(pattern, strict):
    counts = Counter(c for part in pattern for c in part)
    ones = counts.pop(1, 0)
    return all(c < ones if strict else c <= ones for c in counts.values())


def _check_yielded_against_every_pattern(n, k, m, strict):
    yielded = list(successful_patterns(n, k, m, strict=strict))
    assert len(set(yielded)) == len(yielded)
    assert yielded == sorted(yielded)
    for pattern in yielded:
        assert _relabeled(pattern) == pattern and _successful(pattern, strict)
    raw = product(combinations(range(1, n * k + 1), k), repeat=n)
    hit = {
        _relabeled(pattern)
        for pattern in raw
        if _successful(pattern, strict) and len({c for part in pattern for c in part}) <= m
    }
    assert hit == set(yielded)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2), (2, 3)])
def test_every_successful_pattern_relabels_to_one_yielded(n, k, strict):
    _check_yielded_against_every_pattern(n, k, n * k, strict)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n, k, m", [(4, 1, 2), (2, 2, 3), (3, 2, 4), (2, 3, 3)])
def test_every_pattern_within_m_colors_is_yielded(n, k, m, strict):
    # a coloring of m candidates shows at most m colors
    _check_yielded_against_every_pattern(n, k, m, strict)


def test_pattern_generator_stops_at_the_node_budget(monkeypatch):
    monkeypatch.setattr(_search, "MAX_NODES", 10)
    with pytest.raises(ResourceCapError, match="node budget of 10$"):
        list(successful_patterns(2, 2, 4))


def test_strict_patterns_subset():
    loose = set(successful_patterns(2, 2, 4))
    strict = set(successful_patterns(2, 2, 4, strict=True))
    assert strict < loose
    for pattern in strict:
        flat = [e for part in pattern for e in part]
        ones = flat.count(1)
        assert all(flat.count(e) < ones for e in set(flat) if e != 1)


class TestSolve:
    def test_sample_instance(self, sample_instance):
        res = solve_color_coding(sample_instance)
        assert res.decision
        assert verify_bribery(sample_instance, res.witness).total_cost == 3

    def test_already_winning_costs_zero(self):
        inst = BriberyInstance(
            sample_election(),
            VotingRule.k_approval(2),
            0,
            SwapCostFunction.unit(2),
            Fraction(0),
        )
        res = solve_color_coding(inst)
        assert res.decision and verify_bribery(inst, res.witness).total_cost == 0

    def test_single_swap_yes(self):
        election = Election(("a", "p"), (Vote((0, 1)),))
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 1, SwapCostFunction.unit(1), Fraction(1)
        )
        assert solve_color_coding(inst).decision

    def test_multiplicity_votes_are_expanded_for_patterns(self):
        election = Election(("a", "p"), (Vote((0, 1), 2),))
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 1, SwapCostFunction.unit(1), Fraction(2)
        )
        res = solve_color_coding(inst)
        assert res.decision
        assert len(res.witness.targets) == 2  # one target per expanded copy
        report = verify_bribery(inst, res.witness)
        assert report.is_solution and report.total_cost == 2

    def test_witnesses_always_verify(self):
        # ``check`` verifies every witness a row returns
        assert check("color-exhaustive") >= 100

    def test_exhaustive_matches_oracle(self):
        # the price kinds of the seeded loop this replaced
        kinds = ("unit", "one-two", "rational")
        assert check("color-exhaustive", lambda case: labels(case).prices in kinds) >= 30

    def test_coloring_cap(self, monkeypatch):
        # A no-instance forces the search through every palette; a node
        # budget of 100 admits its patterns but not all its colorings.
        election = Election(
            ("a", "b", "p", "d"), (Vote((0, 1, 2, 3)), Vote((0, 1, 2, 3)))
        )
        inst = BriberyInstance(
            election, VotingRule.k_approval(2), 2, SwapCostFunction.unit(2), Fraction(0)
        )
        monkeypatch.setattr(_search, "MAX_NODES", 100)
        assert len(list(successful_patterns(2, 2, 4))) == 4
        with pytest.raises(ResourceCapError, match="node budget of 100$"):
            solve_color_coding(inst)


def test_long_vote_with_a_default_above_its_cheapest_price():
    election = Election(tuple(f"c{i}" for i in range(200)), (Vote(tuple(range(200))),))
    # lifting c3 to the top costs 1 + 2 + 2
    prices = SwapCostFunction([2], [{(0, 3): 1}])
    for budget, decision in ((5, True), (4, False)):
        inst = BriberyInstance(election, VotingRule.k_approval(1), 3, prices, Fraction(budget))
        assert solve_color_coding(inst).decision is decision


def test_patterns_go_1500_votes_deep():
    # One level per vote: 1,500 votes, the first pattern giving each color 1.
    assert next(successful_patterns(1500, 1, 1500)) == ((1,),) * 1500
