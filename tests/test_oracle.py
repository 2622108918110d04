import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from swapbribery import _search
from swapbribery.core import K_APPROVAL, UNIQUE_WINNER, Election, Vote, VotingRule
from swapbribery.errors import DomainError, ResourceCapError
from swapbribery.oracle import (
    OracleCaps,
    _hopeless,
    brute_rankings,
    brute_topk,
    check_topk_cap,
    factorial_exceeds,
    topk_options,
)
from swapbribery.reductions import gen_random
from swapbribery.swaps import (
    BriberyInstance,
    SolveResult,
    SwapCostFunction,
    move_to_top_cost,
    verify_bribery,
)

from conftest import P, random_costs, random_instance, sample_election
from oracle_utils import enumerate_rankings
from test_conformance import BY_ENUMERATION, answers, check, labels


def test_sample_instance_optimum_is_three(sample_instance):
    res = brute_topk(sample_instance)
    assert res.decision
    assert res.optimal_cost == 3
    report = verify_bribery(sample_instance, res.witness)
    assert report.total_cost == 3 and report.is_solution


def test_zero_cost_when_preferred_already_wins():
    inst = BriberyInstance(
        sample_election(),
        VotingRule.k_approval(2),
        0,
        SwapCostFunction.unit(2),
        Fraction(0),
    )
    res = brute_topk(inst)
    assert res.decision and res.optimal_cost == 0


def test_last_place_plurality_needs_two_swaps():
    election = Election(("a", "b", "p"), (Vote((0, 1, 2)),))
    inst = BriberyInstance(
        election, VotingRule.k_approval(1), 2, SwapCostFunction.unit(1), Fraction(2)
    )
    res = brute_topk(inst)
    assert res.decision and res.optimal_cost == 2


def test_rejects_non_k_approval():
    election = Election(("a", "b"), (Vote((0, 1)),))
    inst = BriberyInstance(
        election, VotingRule.bucklin(), 1, SwapCostFunction.unit(1), Fraction(1)
    )
    with pytest.raises(DomainError):
        brute_topk(inst)


def test_cap_exceeded():
    inst = random_instance(random.Random(0), m_max=6, n_max=3)
    with pytest.raises(ResourceCapError):
        brute_topk(inst, caps=OracleCaps(topk_combinations=1))


def test_option_caps_count_the_options_of_every_vote(sample_instance):
    # two votes, each with C(5, 2) = 10 top-2 sets and 5! = 120 rankings
    assert brute_topk(sample_instance, caps=OracleCaps(topk_combinations=20)).decision
    with pytest.raises(ResourceCapError, match="^2 votes x C\\(5,2\\) options exceed cap 19$"):
        brute_topk(sample_instance, caps=OracleCaps(topk_combinations=19))
    assert brute_rankings(sample_instance, caps=OracleCaps(ranking_combinations=240)).decision
    with pytest.raises(ResourceCapError, match="^2 votes x 5! options exceed cap 239$"):
        brute_rankings(sample_instance, caps=OracleCaps(ranking_combinations=239))


def test_default_option_caps_refuse_before_building():
    one_vote = Election(tuple("abcdefgh"), (Vote(tuple(range(8))),))
    inst = BriberyInstance(one_vote, VotingRule.bucklin(), 7, SwapCostFunction.unit(1), Fraction(1))
    with pytest.raises(ResourceCapError, match="^1 votes x 8! options exceed cap 20000$"):
        brute_rankings(inst)
    one_vote = Election(tuple("abcdefghijklmnopqrst"), (Vote(tuple(range(20))),))
    inst = BriberyInstance(one_vote, VotingRule.k_approval(10), 19, SwapCostFunction.unit(1), Fraction(1))
    with pytest.raises(ResourceCapError, match="^1 votes x C\\(20,10\\) options exceed cap 50000$"):
        brute_topk(inst)


def test_cap_checks_refuse_exactly_past_the_product():
    # the running products stop early, yet refuse where n * C(m, k) and n * m! pass the cap
    for m in range(12):
        for k in range(m + 2):
            for n in (1, 3):
                for product, refused in (
                    (n * comb(m, k), lambda cap: _refuses_topk(n, m, k, cap)),
                    (n * factorial(m), lambda cap: factorial_exceeds(n, m, cap)),
                ):
                    assert not refused(product) and (product == 0 or refused(product - 1)), (n, m, k)


def _refuses_topk(n, m, k, cap):
    try:
        check_topk_cap(n, m, k, OracleCaps(topk_combinations=cap))
    except ResourceCapError:
        return True
    return False


def _approved(options):
    """``topk_options``' options as (approved candidates, cost), read from their increments.

    Each increment must be one point for its candidate, and every option of
    one call must share one increment object per candidate.
    """
    shared = {}
    for steps, _ in options:
        for step in steps:
            assert step[1] == 1 and shared.setdefault(step[0], step) is step
    return [(tuple(c for c, _ in steps), cost) for steps, cost in options]


def test_topk_options_price_every_set_by_move_to_top_cost():
    rng = random.Random(31)
    above_cheapest = 0
    for _ in range(60):
        m = rng.randint(1, 7)
        k = rng.randint(1, m)
        ranking = tuple(rng.sample(range(m), m))
        prices = random_costs(rng, m, 1, maximum=5, denominators=(1,))
        above_cheapest += prices.default(0) > prices.min_value()
        want = {
            frozenset(s): move_to_top_cost(ranking, s, k, prices, 0)
            for s in combinations(range(m), k)
        }
        for cap in (None, rng.randint(0, 12), 0):
            got = _approved(topk_options(ranking, k, prices.default(0), prices.overrides(0), cap))
            assert len(got) == len({frozenset(c) for c, _ in got})
            assert {frozenset(c): cost for c, cost in got} == {
                s: cost for s, cost in want.items() if cap is None or cost <= cap
            }
    assert above_cheapest >= 20


def test_topk_options_on_a_long_vote_with_a_default_above_its_cheapest_price():
    # candidate 3 passes 0 at the override 1 and 1, 2 at the default 2
    got = _approved(topk_options(tuple(range(200)), 1, 2, {(0, 3): 1}, 5))
    assert got == [((0,), 0), ((1,), 2), ((2,), 4), ((3,), 5)]


def _lift_the_cheapest(n: int) -> BriberyInstance:
    # p last in n votes whose prices all differ, so neither symmetry nor an
    # early cheap leaf cuts the search much
    election = Election(("a", "p"), tuple(Vote((0, 1)) for _ in range(n)))
    prices = SwapCostFunction([Fraction(100 + v) for v in range(n)], [{} for _ in range(n)])
    return BriberyInstance(election, VotingRule.k_approval(1), 1, prices, Fraction(10**6))


def test_node_budget_near_the_old_product_cap():
    # 2^19 vote combinations: answered, by lifting p in the ten cheapest votes
    assert brute_topk(_lift_the_cheapest(19)).optimal_cost == sum(range(100, 110))
    # 2^23 <= 10^7 passed the old product cap; the search needs more than
    # 10^6 nodes, so it is refused now
    with pytest.raises(ResourceCapError, match="node budget of 1000000$"):
        brute_topk(_lift_the_cheapest(23))


def test_search_stops_at_its_node_budget(sample_instance, monkeypatch):
    monkeypatch.setattr(_search, "MAX_NODES", 1)
    with pytest.raises(ResourceCapError, match="node budget of 1$"):
        brute_topk(sample_instance)
    bucklin = BriberyInstance(
        sample_election(), VotingRule.bucklin(), P, SwapCostFunction.unit(2), Fraction(3)
    )
    with pytest.raises(ResourceCapError, match="node budget of 1$"):
        brute_rankings(bucklin)


def _preferred_last(m, n, rule, budget):
    """One vote of multiplicity n ranking the preferred candidate last, unit prices, unique winner."""
    election = Election(tuple(f"c{i}" for i in range(m)), (Vote(tuple(range(m)), n),))
    prices = SwapCostFunction.unit(1)
    return BriberyInstance(election, rule, m - 1, prices, Fraction(budget), UNIQUE_WINNER)


def test_node_budget_counts_the_options_scanned(monkeypatch):
    # all six options pass the cost cut; the last, the dearest, lifts p to the top
    instance = _preferred_last(6, 1, VotingRule.k_approval(1), 5)
    monkeypatch.setattr(_search, "MAX_NODES", 5)
    with pytest.raises(ResourceCapError, match="node budget of 5$"):
        brute_topk(instance)
    monkeypatch.setattr(_search, "MAX_NODES", 6)
    result = brute_topk(instance)
    assert (result.decision, result.optimal_cost) == (True, 5)


@pytest.mark.parametrize("m, n, nodes", [(4, 6, 2 * 10**4), (5, 5, 10**5)])
def test_bucklin_identical_votes_take_the_symmetry_cut(monkeypatch, m, n, nodes):
    # Without the cut, every ordering of the same targets over the n copies
    # is scanned: 567,410 options at m=4 and 984,867 at m=5.
    monkeypatch.setattr(_search, "MAX_NODES", nodes)
    instance = _preferred_last(m, n, VotingRule.bucklin(), 0)
    result = brute_rankings(instance)
    assert (result.decision, result.optimal_cost) == (False, 12)
    report = verify_bribery(instance, result.witness)
    assert report.preferred_wins and report.total_cost == 12


def test_a_class_of_copies_reaches_the_search_once(monkeypatch):
    # 1,000 copies of one vote: the search gets the class's three top-1 sets
    # once, with the number of copies, not once per copy.
    calls = []
    search = _search.best_assignment

    def spy(offsets, sizes, *args):
        calls.append((list(offsets), list(sizes)))
        return search(offsets, sizes, *args)

    monkeypatch.setattr(_search, "best_assignment", spy)
    result = brute_topk(_preferred_last(3, 1000, VotingRule.k_approval(1), 2000))
    assert (result.decision, result.optimal_cost) == (True, 1001)
    assert calls == [([0, 3], [1000])]


def _interleaved(rule):
    """Six votes alternating between two rankings, a b p and b a p, in three price classes.

    Votes 0 and 4 rank a b p at 1 a swap, vote 2 ranks it at 2; votes 1, 3
    and 5 rank b a p at 3 a swap, save 1 for lifting p past a.
    """
    election = Election(("a", "b", "p"), (Vote((0, 1, 2)), Vote((1, 0, 2))) * 3)
    prices = SwapCostFunction([1, 3, 2, 3, 1, 3], [{}, {(0, 2): 1}] * 3)
    return BriberyInstance(election, rule, 2, prices, Fraction(6))


@pytest.mark.parametrize("rule", [VotingRule.k_approval(1), VotingRule.bucklin()], ids=["k-approval", "bucklin"])
def test_interleaved_classes_map_the_witness_back_to_each_vote(rule):
    # The search lays the classes out as runs, votes 0 4 | 1 3 5 | 2; a
    # witness left in that order would price targets against the wrong votes.
    instance = _interleaved(rule)
    expected = enumerate_rankings(instance)[:2]
    for solver in (brute_topk, brute_rankings) if rule.kind == K_APPROVAL else (brute_rankings,):
        result = solver(instance)
        assert (result.decision, result.optimal_cost) == expected
        report = verify_bribery(instance, result.witness)
        assert report.preferred_wins and report.total_cost == result.optimal_cost


@pytest.mark.parametrize(
    "solver, rule",
    [
        (brute_topk, VotingRule.k_approval(4)),
        (brute_rankings, VotingRule.k_approval(4)),
        (brute_rankings, VotingRule.scoring((1, 1, 1, 1, 0))),
    ],
)
def test_hopeless_unique_winner_instances_answer_no_before_any_search(monkeypatch, solver, rule):
    # The four rivals share at least 3 * 4 - 3 = 9 points, so one of them
    # gets 3, all the preferred candidate can collect.
    monkeypatch.setattr(_search, "MAX_NODES", 0)
    instance = _preferred_last(5, 3, rule, 100)
    assert _hopeless(instance)
    assert solver(instance) == SolveResult(False, None, None)
    # a tie at 3 each is in reach of co-winners
    monkeypatch.setattr(_search, "MAX_NODES", 10**6)
    co_winner = BriberyInstance(
        instance.election, rule, instance.preferred, instance.costs, instance.budget
    )
    assert not _hopeless(co_winner) and solver(co_winner).decision


def test_hopeless_instances_have_no_winning_bribery():
    """Every score instance the bound calls hopeless has no winning vector, and it finds some."""
    rng = random.Random(23)
    hopeless = 0
    for _ in range(300):
        m = rng.randint(2, 4)
        n = rng.randint(1, 3)
        if rng.random() < 0.5:
            rule = VotingRule.k_approval(rng.randint(1, m))
        else:
            rule = VotingRule.scoring(sorted((rng.randint(0, 3) for _ in range(m)), reverse=True))
        mode = rng.choice(("co-winner", UNIQUE_WINNER))
        instance = gen_random(m, n, 1, "unit", seed=rng.randrange(10**6), rule=rule, mode=mode)
        if _hopeless(instance):
            hopeless += 1
            assert mode == UNIQUE_WINNER
            assert enumerate_rankings(instance) == (False, None, None), instance
    assert hopeless > 20


def test_witness_always_verifies():
    # ``check`` verifies every witness at the reported optimum
    assert check("brute_topk") >= 150


def test_decision_monotone_in_budget():
    """Yes at a budget equal to the optimum, no one price step below it."""
    at = {"opt": 0, "below": 0}
    for case, _, _, got in answers("brute_topk"):
        budget = labels(case).budget
        if budget in at:
            assert got.decision == (budget == "opt"), case
            at[budget] += 1
    assert min(at.values()) >= 40


def test_rankings_oracle_agrees_with_topk():
    topk = {case: (got.decision, got.optimal_cost) for case, _, _, got in answers("brute_topk")}
    both = [(case, got) for case, _, _, got in answers("brute_rankings") if case in topk]
    for case, got in both:
        assert (got.decision, got.optimal_cost) == topk[case], case
    assert len(both) >= 100


def test_rankings_search_matches_enumeration():
    """Decision, optimum and witness equal plain enumeration's wherever the corpus enumerates."""
    assert check("brute_rankings", BY_ENUMERATION.__contains__) >= 200


def test_rankings_unlimited_budget_always_solvable():
    rng = random.Random(43)
    for _ in range(10):
        inst = random_instance(rng, m_max=4, n_max=2)
        if inst.rule.k >= inst.election.m:
            continue
        rich = BriberyInstance(
            inst.election, inst.rule, inst.preferred, inst.costs, Fraction(10**6)
        )
        assert brute_rankings(rich).decision


def test_single_vote_bucklin_needs_first_position():
    election = Election(("a", "b", "p"), (Vote((0, 1, 2)),))
    inst = BriberyInstance(
        election, VotingRule.bucklin(), 2, SwapCostFunction.unit(1), Fraction(5)
    )
    res = brute_rankings(inst)
    assert res.decision
    assert res.optimal_cost == 2  # p must climb to the top
    assert res.witness.targets[0][0] == 2


def test_rankings_supports_scoring_vectors():
    election = Election(("a", "b", "p"), (Vote((0, 1, 2)), Vote((1, 0, 2))))
    inst = BriberyInstance(
        election,
        VotingRule.scoring((2, 1, 0)),
        2,
        SwapCostFunction.unit(2),
        Fraction(4),
    )
    res = brute_rankings(inst)
    assert res.decision
    report = verify_bribery(inst, res.witness)
    assert report.is_solution and report.total_cost == res.optimal_cost


def test_subsets_go_1500_positions_deep():
    # One level per approved position: k = 1,499 of 1,500 candidates. A cap
    # of 0 at unit prices leaves one path, the top 1,499 as cast; with no cap
    # the walk builds all 1,500 subsets, in time quadratic in k.
    m = 1500
    got = _approved(topk_options(tuple(range(m)), m - 1, 1, {}, 0))
    assert got == [(tuple(range(m - 1)), 0)]
