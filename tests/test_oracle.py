import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

import pytest

from swapbribery import _search
from swapbribery.core import UNIQUE_WINNER, Election, Vote, VotingRule, winners_of_rankings
from swapbribery.errors import DomainError, ResourceCapError
from swapbribery.oracle import OracleCaps, brute_rankings, brute_topk, topk_options
from swapbribery.reductions import gen_random
from swapbribery.swaps import (
    Bribery,
    BriberyInstance,
    SwapCostFunction,
    move_to_top_cost,
    transform_cost,
    verify_bribery,
)

from conftest import P, random_costs, random_instance, sample_election


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
    with pytest.raises(ResourceCapError, match="= 20 options"):
        brute_topk(sample_instance, caps=OracleCaps(topk_combinations=19))
    assert brute_rankings(sample_instance, caps=OracleCaps(ranking_combinations=240)).decision
    with pytest.raises(ResourceCapError, match="= 240 options"):
        brute_rankings(sample_instance, caps=OracleCaps(ranking_combinations=239))


def test_default_option_caps_refuse_before_building():
    one_vote = Election(tuple("abcdefgh"), (Vote(tuple(range(8))),))
    inst = BriberyInstance(one_vote, VotingRule.bucklin(), 7, SwapCostFunction.unit(1), Fraction(1))
    with pytest.raises(ResourceCapError, match="40320 options exceed cap 20000$"):
        brute_rankings(inst)
    one_vote = Election(tuple("abcdefghijklmnopqrst"), (Vote(tuple(range(20))),))
    inst = BriberyInstance(one_vote, VotingRule.k_approval(10), 19, SwapCostFunction.unit(1), Fraction(1))
    with pytest.raises(ResourceCapError, match="184756 options exceed cap 50000$"):
        brute_topk(inst)


def test_topk_options_price_every_set_by_move_to_top_cost():
    rng = random.Random(31)
    above_cheapest = 0
    for _ in range(60):
        m = rng.randint(1, 7)
        k = rng.randint(1, m)
        ranking = tuple(rng.sample(range(m), m))
        prices = random_costs(rng, m, 1, maximum=5, denominators=(1,)).scaled(1)
        above_cheapest += prices.default(0) > prices.min_value()
        want = {
            frozenset(s): move_to_top_cost(ranking, s, k, prices, 0)
            for s in combinations(range(m), k)
        }
        for cap in (None, rng.randint(0, 12), 0):
            got = topk_options(ranking, k, prices, 0, cap)
            assert len(got) == len({frozenset(c) for c, _ in got})
            assert {frozenset(c): cost for c, cost in got} == {
                s: cost for s, cost in want.items() if cap is None or cost <= cap
            }
    assert above_cheapest >= 20


def test_topk_options_on_a_long_vote_with_a_default_above_its_cheapest_price():
    # candidate 3 passes 0 at the override 1 and 1, 2 at the default 2
    prices = SwapCostFunction([2], [{(0, 3): 1}]).scaled(1)
    got = topk_options(tuple(range(200)), 1, prices, 0, 5)
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
    prices = SwapCostFunction.unit(n)
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


def test_witness_always_verifies():
    rng = random.Random(17)
    for _ in range(40):
        inst = random_instance(rng, multiplicities=(1, 1, 2))
        res = brute_topk(inst)
        if res.witness is not None:
            report = verify_bribery(inst, res.witness)
            assert report.total_cost == res.optimal_cost
            assert report.preferred_wins


def test_decision_monotone_in_budget():
    rng = random.Random(23)
    for _ in range(25):
        inst = random_instance(rng)
        res = brute_topk(inst)
        if res.optimal_cost is None:
            continue
        tight = BriberyInstance(
            inst.election, inst.rule, inst.preferred, inst.costs, res.optimal_cost
        )
        assert brute_topk(tight).decision
        if res.optimal_cost > 0:
            below = BriberyInstance(
                inst.election,
                inst.rule,
                inst.preferred,
                inst.costs,
                res.optimal_cost - Fraction(1, 2),
            )
            assert not brute_topk(below).decision


def test_budget_pruned_mode_agrees_on_decision():
    rng = random.Random(31)
    for _ in range(60):
        inst = random_instance(rng)
        full = brute_topk(inst)
        pruned = brute_topk(inst, prune_to_budget=True)
        assert full.decision == pruned.decision
        if pruned.decision:
            assert pruned.optimal_cost == full.optimal_cost


def test_rankings_oracle_agrees_with_topk():
    rng = random.Random(41)
    for _ in range(30):
        inst = random_instance(rng, m_max=4, n_max=2)
        a = brute_topk(inst)
        b = brute_rankings(inst)
        assert a.decision == b.decision
        assert a.optimal_cost == b.optimal_cost


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


def enumerate_rankings(instance):
    """(decision, optimum, witness) by plain enumeration of every target ranking.

    Each vote's targets are stably sorted by cost, the product is walked in
    order and the first strictly cheaper winning vector is kept.
    """
    m = instance.election.m
    per_vote = [
        sorted(
            ((transform_cost(r, t, instance.costs, v), t) for t in permutations(range(m))),
            key=lambda option: option[0],
        )
        for v, r in enumerate(instance.election.expanded())
    ]
    # int sums keep the walk fast; the order of the costs is unchanged
    scale = lcm(*(cost.denominator for options in per_vote for cost, _ in options))
    per_vote = [[(int(cost * scale), t) for cost, t in options] for options in per_vote]
    best = None
    for choice in product(*per_vote):
        cost = sum(c for c, _ in choice)
        if best is not None and cost >= best[0]:
            continue
        targets = tuple(t for _, t in choice)
        winning = winners_of_rankings(targets, m, instance.rule)
        if winning == {instance.preferred} or (
            instance.mode != UNIQUE_WINNER and instance.preferred in winning
        ):
            best = cost, targets
    if best is None:
        return False, None, None
    optimum = Fraction(best[0], scale)
    return optimum <= instance.budget, optimum, Bribery(best[1])


PRICE_MODELS = (
    "unit",
    ("two-valued", 1, 2, 0.3),
    ("uniform-range", 1, 3),
    ("two-valued", Fraction(1, 3), Fraction(5, 7), 0.5),
)


def _with_runs(rng, m, weights, rule, mode):
    """A random instance whose i-th vote, prices and all, is repeated ``weights[i]`` times."""
    model = rng.choice(PRICE_MODELS)
    base = gen_random(m, len(weights), 1, model, seed=rng.randrange(10**6), rule=rule, mode=mode)
    votes = tuple(Vote(v.ranking, w) for v, w in zip(base.election.votes, weights))
    copies = [i for i, w in enumerate(weights) for _ in range(w)]
    costs = SwapCostFunction(
        [base.costs.default(i) for i in copies], [base.costs.overrides(i) for i in copies]
    )
    budget = Fraction(rng.randint(0, 4 * len(copies)), rng.choice((1, 2, 3)))
    election = Election(base.election.candidates, votes)
    return BriberyInstance(election, rule, base.preferred, costs, budget, mode)


def _rankings_search_corpus():
    """Bucklin at m <= 4 and n <= 4, and scoring vectors past 64 points, both modes."""
    rng = random.Random(10)
    for trial in range(160):
        m = rng.randint(2, 4)
        n = rng.randint(1, 4 if m < 4 else 3)
        weights = []
        while sum(weights) < n:
            weights.append(rng.randint(1, n - sum(weights)))
        rule = VotingRule.bucklin()
        if trial % 4 == 3:
            top = rng.choice(((65,), (100, 40)))
            rule = VotingRule.scoring(top + (0,) * (m - len(top)))
        yield _with_runs(rng, m, weights, rule, rng.choice(("co-winner", UNIQUE_WINNER)))
    # the largest products: (4!)^4 leaves
    for mode in ("co-winner", UNIQUE_WINNER):
        yield _with_runs(rng, 4, [1, 1, 1, 1], VotingRule.bucklin(), mode)
        yield _with_runs(rng, 4, [2, 2], VotingRule.scoring((100, 40, 0, 0)), mode)


def test_rankings_search_matches_enumeration():
    """Bucklin, and scoring vectors past 64 points, give what plain enumeration gives."""
    for instance in _rankings_search_corpus():
        result = brute_rankings(instance)
        assert (result.decision, result.optimal_cost, result.witness) == enumerate_rankings(
            instance
        ), instance
