import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings, strategies as st

from swapbribery import core
from swapbribery.core import Election, Ranking, Vote, VotingRule
from swapbribery.errors import DomainError
from swapbribery.io import serialize_solution
from swapbribery.reductions import gen_random
from swapbribery.swaps import (
    Bribery,
    BriberyInstance,
    SwapCostFunction,
    VoteClass,
    _count_inversions,
    move_to_top_cost,
    move_to_top_target,
    per_vote,
    target_costs,
    transform_cost,
    verify_bribery,
    vote_classes,
)

from conftest import SAMPLE_V, random_costs, sample_election
from oracle_utils import min_cost_with_top_set, swap_graph_shortest_path


def unit(n=1):
    return SwapCostFunction.unit(n)


# The paper's swap semantics, spelled out: a bribery is a set of adjacent
# swaps applied in some valid order, each flipped pair swapped once. The
# library prices it with transform_cost alone; these are what it is checked by.


class AdmissibilityError(DomainError):
    """A swap set cannot be realized by any sequence of adjacent swaps."""


@dataclass(frozen=True)
class Swap:
    """An adjacent transposition request: swap ``pair[0]`` with ``pair[1]``."""

    vote: int
    pair: tuple[int, int]

    def __post_init__(self):
        if self.pair[0] == self.pair[1]:
            raise DomainError("a swap needs two distinct candidates")
        if self.vote < 0:
            raise DomainError("vote index must be non-negative")


def apply_swaps(ranking: Ranking, swaps: Iterable[tuple[int, int]]) -> Ranking:
    """Apply a set of adjacent swaps in some valid sequential order.

    Raises AdmissibilityError when no order applies every requested swap.
    The result is order-independent for admissible sets.
    """
    order = list(ranking)
    pending = list(dict.fromkeys(tuple(p) for p in swaps))
    for a, b in pending:
        if a == b or a not in order or b not in order:
            raise DomainError(f"swap pair ({a}, {b}) invalid for this ranking")
    while pending:
        pos = {c: i for i, c in enumerate(order)}
        for idx, (a, b) in enumerate(pending):
            if pos[a] + 1 == pos[b]:
                order[pos[a]], order[pos[b]] = order[pos[b]], order[pos[a]]
                pending.pop(idx)
                break
        else:
            raise AdmissibilityError(f"swaps {pending} are not admissible")
    return tuple(order)


def inverted_pairs(ranking: Ranking, target: Ranking) -> Iterator[tuple[int, int]]:
    """Pairs whose order flips, oriented as (earlier-in-ranking, later)."""
    pos = {c: i for i, c in enumerate(target)}
    m = len(ranking)
    for i in range(m):
        for j in range(i + 1, m):
            if pos[ranking[i]] > pos[ranking[j]]:
                yield ranking[i], ranking[j]


class TestApplySwaps:
    def test_single_adjacent_swap(self):
        assert apply_swaps((0, 1, 2), [(0, 1)]) == (1, 0, 2)

    def test_empty_set_is_identity(self):
        assert apply_swaps((0, 1, 2), []) == (0, 1, 2)

    def test_disjoint_swaps_any_order(self):
        a = apply_swaps((0, 1, 2, 3), [(0, 1), (2, 3)])
        b = apply_swaps((0, 1, 2, 3), [(2, 3), (0, 1)])
        assert a == b == (1, 0, 3, 2)

    def test_rejects_non_admissible(self):
        with pytest.raises(AdmissibilityError):
            apply_swaps((0, 1, 2), [(0, 2)])  # not adjacent, no enabler

    def test_order_independence_on_random_sets(self):
        rng = random.Random(3)
        for _ in range(60):
            m = rng.randint(2, 5)
            source = tuple(rng.sample(range(m), m))
            target = tuple(rng.sample(range(m), m))
            pos = {c: i for i, c in enumerate(target)}
            inverted = [
                (source[i], source[j])
                for i in range(m)
                for j in range(i + 1, m)
                if pos[source[i]] > pos[source[j]]
            ]
            results = set()
            for _ in range(6):
                rng.shuffle(inverted)
                results.add(apply_swaps(source, inverted))
            assert results == {target}


class TestTransformCost:
    def test_identity_is_free(self):
        assert transform_cost((0, 1, 2), (0, 1, 2), unit(), 0) == 0

    def test_full_reversal_unit(self):
        assert transform_cost((0, 1, 2), (2, 1, 0), unit(), 0) == 3

    def test_weighted_example(self):
        # v = (a,b,c) -> (b,c,a) inverts (a,b) and (a,c).
        costs = SwapCostFunction(
            [Fraction(1)],
            [{(0, 1): Fraction(2), (0, 2): Fraction(5), (1, 2): Fraction(7)}],
        )
        expected = swap_graph_shortest_path((0, 1, 2), (1, 2, 0), costs, 0)
        assert expected == 7
        assert transform_cost((0, 1, 2), (1, 2, 0), costs, 0) == 7

    def test_equals_kendall_tau_under_unit_costs(self):
        rng = random.Random(9)
        for _ in range(50):
            m = rng.randint(2, 6)
            v = tuple(rng.sample(range(m), m))
            w = tuple(rng.sample(range(m), m))
            pos = {c: i for i, c in enumerate(w)}
            tau = sum(
                1
                for i in range(m)
                for j in range(i + 1, m)
                if pos[v[i]] > pos[v[j]]
            )
            assert transform_cost(v, w, unit(), 0) == tau

    def test_matches_shortest_path_oracle(self):
        rng = random.Random(21)
        for m in (2, 3, 4):
            for _ in range(8):
                costs = random_costs(rng, m, 1)
                v = tuple(rng.sample(range(m), m))
                w = tuple(rng.sample(range(m), m))
                assert transform_cost(v, w, costs, 0) == swap_graph_shortest_path(
                    v, w, costs, 0
                )

    def test_monotone_in_any_single_pair_cost(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rng.randint(2, 5)
            costs = random_costs(rng, m, 1, minimum=0, maximum=3)
            v = tuple(rng.sample(range(m), m))
            w = tuple(rng.sample(range(m), m))
            base = transform_cost(v, w, costs, 0)
            a, b = rng.sample(range(m), 2)
            bumped = SwapCostFunction(
                [costs.default(0)],
                [{**costs.overrides(0), (a, b): costs.cost(0, a, b) + 2}],
            )
            assert transform_cost(v, w, bumped, 0) >= base

    def test_rejects_mismatched_rosters(self):
        with pytest.raises(DomainError):
            transform_cost((0, 1), (0, 2), unit(), 0)

    @pytest.mark.parametrize(
        "ranking, target", [((0, 1, 1), (0, 1)), ((1, 0), (1, 0, 0)), ((0, 0, 1), (0, 1, 1))]
    )
    def test_rejects_repeated_candidates(self, ranking, target):
        with pytest.raises(DomainError):
            transform_cost(ranking, target, unit(), 0)


class TestMoveToTop:
    def test_current_top_set_is_free(self):
        assert move_to_top_cost(SAMPLE_V, {0, 1}, 2, unit(2), 0) == 0

    def test_sample_single_crossing(self):
        # moving p beside c1 in v crosses only c2
        assert move_to_top_cost(SAMPLE_V, {0, 2}, 2, unit(2), 0) == 1

    def test_bottom_pair_to_top(self):
        expected = min_cost_with_top_set(
            (0, 1, 2, 3), frozenset({2, 3}), unit(), 0, transform_cost
        )
        assert expected == 4
        assert move_to_top_cost((0, 1, 2, 3), {2, 3}, 2, unit(), 0) == 4

    def test_wrong_size_rejected(self):
        with pytest.raises(DomainError):
            move_to_top_cost((0, 1, 2), {0, 1}, 1, unit(), 0)

    def test_equals_minimum_over_all_targets(self):
        rng = random.Random(13)
        for _ in range(25):
            m = rng.randint(2, 5)
            k = rng.randint(1, m)
            costs = random_costs(rng, m, 1)
            v = tuple(rng.sample(range(m), m))
            chosen = frozenset(rng.sample(range(m), k))
            got = move_to_top_cost(v, chosen, k, costs, 0)
            want = min_cost_with_top_set(v, chosen, costs, 0, transform_cost)
            assert got == want
            target = move_to_top_target(v, chosen)
            assert frozenset(target[:k]) == chosen
            assert transform_cost(v, target, costs, 0) == got


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transform_cost_small_rankings_match_oracle(data):
    m = data.draw(st.integers(2, 4))
    v = tuple(data.draw(st.permutations(tuple(range(m)))))
    w = tuple(data.draw(st.permutations(tuple(range(m)))))
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    table = {
        p: Fraction(data.draw(st.integers(0, 6)), data.draw(st.sampled_from((1, 2))))
        for p in pairs
        if data.draw(st.booleans())
    }
    costs = SwapCostFunction([Fraction(1)], [table])
    assert transform_cost(v, w, costs, 0) == swap_graph_shortest_path(v, w, costs, 0)


def test_count_inversions_matches_pair_count():
    rng = random.Random(5)
    seqs = [[], [3], [1, 2], [2, 1], [4, 4]]
    for n in range(41):
        seqs.append(rng.sample(range(n), n))
        seqs.append([rng.randrange(8) for _ in range(n)])  # with repeats
    for seq in seqs:
        pairs = sum(seq[i] > seq[j] for i in range(len(seq)) for j in range(i + 1, len(seq)))
        assert _count_inversions(seq) == pairs, seq


def _local_bribe(rng: random.Random, ranking: tuple, where: str) -> tuple:
    """A few moves of 1-6 positions near the head, the middle or the tail."""
    m = len(ranking)
    if where == "reversal":
        return ranking[::-1]
    target = list(ranking)
    for _ in range(rng.randint(1, 3)):
        i = {"head": rng.randrange(6), "middle": m // 2 + rng.randint(-5, 5), "tail": m - 1 - rng.randrange(6)}[where]
        j = min(m - 1, max(0, i + rng.choice((-1, 1)) * rng.randint(1, 6)))
        target.insert(j, target.pop(i))
    return tuple(target)


def test_transform_cost_on_local_bribes_matches_the_definition():
    """Pricing the differing stretch alone equals pricing every flipped pair."""
    rng = random.Random(17)
    for trial in range(48):
        m = rng.randint(50, 300)
        ranking = tuple(rng.sample(range(m), m))
        target = _local_bribe(rng, ranking, ("head", "middle", "tail", "reversal")[trial % 4])
        diff = [i for i in range(m) if ranking[i] != target[i]] or [0]
        lo, hi = diff[0], diff[-1] + 1
        inside = ranking[lo:hi]
        outside = ranking[:lo] + ranking[hi:] or inside
        edges = [ranking[i] for i in (lo - 1, lo, hi - 1, hi) if 0 <= i < m]
        pairs = [tuple(rng.sample(inside, 2)) for _ in range(3) if len(inside) > 1]
        pairs += [tuple(rng.sample(outside, 2)) for _ in range(3) if len(outside) > 1]
        pairs += [(a, b) for a in edges for b in edges if a != b]  # straddling the stretch's edges
        default = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        table = {p: rng.choice((Fraction(0), default, default + 1, Fraction(1, 3))) for p in pairs}
        costs = SwapCostFunction([default], [table])
        want = sum((costs.cost(0, a, b) for a, b in inverted_pairs(ranking, target)), Fraction(0))
        assert transform_cost(ranking, target, costs, 0) == want, (trial, lo, hi)
        assert transform_cost(target, ranking, costs, 0) == sum(
            (costs.cost(0, a, b) for a, b in inverted_pairs(target, ranking)), Fraction(0)
        )


def _walk_prices(rng: random.Random, m: int, model: str) -> SwapCostFunction:
    """One vote's int prices: a default plus overrides drawn under ``model``."""
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    default, table = 1, {}
    if model == "two-valued":
        table = {p: 2 for p in pairs + [(b, a) for a, b in pairs] if rng.random() < 0.4}
    elif model == "range":
        default = rng.randint(0, 3)
        table = {p: rng.randint(0, 3) for p in pairs + [(b, a) for a, b in pairs] if rng.random() < 0.5}
    elif model == "zero":
        default = 0
        table = {p: 1 for p in pairs if rng.random() < 0.2}
    elif model == "one-sided":
        default = rng.randint(0, 2)
        table = {(b, a) if rng.random() < 0.5 else (a, b): rng.randint(0, 4) for a, b in pairs}
    elif model == "symmetric":
        default = rng.randint(0, 2)
        for a, b in pairs:
            if rng.random() < 0.5:
                table[(a, b)] = table[(b, a)] = rng.randint(0, 4)
    return default, table


@pytest.mark.parametrize("m", range(1, 8))
def test_target_costs_match_transform_cost_target_by_target(m):
    rng = random.Random(m)
    for model in ("unit", "two-valued", "range", "zero", "one-sided", "symmetric"):
        default, table = _walk_prices(rng, m, model)
        prices = SwapCostFunction([default], [table])
        ranking = tuple(rng.sample(range(m), m))
        # every target's cost in permutations order, over the roster and over
        # an order that puts one candidate first, as ilp.describe_rule does
        first = rng.randrange(m)
        for order in (range(m), [first] + [c for c in range(m) if c != first]):
            want = [transform_cost(ranking, t, prices, 0) for t in permutations(order)]
            assert target_costs(ranking, default, table, order) == want, (model, ranking, order)


def test_target_costs_rejects_an_order_of_other_candidates():
    with pytest.raises(DomainError):
        target_costs((0, 1, 2), 1, {}, (0, 1, 3))
    with pytest.raises(DomainError):
        target_costs((0, 1, 2), 1, {}, (0, 1))


class TestVerifyBribery:
    def test_identity_on_already_winning(self):
        election = sample_election()
        inst = BriberyInstance(
            election, VotingRule.k_approval(2), 0, unit(2), Fraction(0)
        )
        report = verify_bribery(inst, Bribery(tuple(election.expanded())))
        assert report.total_cost == 0
        assert report.is_solution

    def test_sample_two_vote_bribery(self, sample_instance):
        bribery = Bribery(((0, 2, 1, 3, 4), (0, 2, 1, 4, 3)))
        report = verify_bribery(sample_instance, bribery)
        assert report.total_cost == 3
        assert report.preferred_wins
        assert report.is_solution

    def test_over_budget_is_not_a_solution(self, sample_instance):
        over = BriberyInstance(
            sample_instance.election,
            sample_instance.rule,
            sample_instance.preferred,
            sample_instance.costs,
            Fraction(2),
        )
        bribery = Bribery(((0, 2, 1, 3, 4), (0, 2, 1, 4, 3)))
        report = verify_bribery(over, bribery)
        assert report.preferred_wins
        assert not report.within_budget
        assert not report.is_solution

    def test_unique_mode_requires_strict_win(self):
        election = sample_election()
        inst = BriberyInstance(
            election,
            VotingRule.k_approval(2),
            2,
            unit(2),
            Fraction(3),
            mode="unique-winner",
        )
        bribery = Bribery(((0, 2, 1, 3, 4), (0, 2, 1, 4, 3)))
        report = verify_bribery(inst, bribery)
        assert report.preferred_wins is False  # ties with c1

    def test_rejects_wrong_cover(self, sample_instance):
        with pytest.raises(DomainError):
            verify_bribery(sample_instance, Bribery(((0, 1, 2, 3, 4),)))

    @pytest.mark.parametrize(
        "check",
        [verify_bribery, lambda inst, bribery: serialize_solution(inst, True, None, bribery, "hand")],
        ids=["verify_bribery", "serialize_solution"],
    )
    def test_a_target_that_repeats_a_candidate_is_refused_by_its_vote(self, sample_instance, check):
        with pytest.raises(DomainError, match="^target for vote 1 is not a permutation of the roster$"):
            check(sample_instance, Bribery(((0, 2, 1, 3, 4), (0, 2, 2, 3, 4))))


def bribery_swaps(instance: BriberyInstance, bribery: Bribery) -> list[Swap]:
    """A minimum-cost admissible swap set realizing the bribery.

    Swapping each flipped pair exactly once suffices; the returned set is
    admissible per vote and prices out to the bribery's total cost.
    """
    swaps = []
    for idx, (src, dst) in enumerate(zip(instance.election.expanded(), bribery.targets)):
        for pair in inverted_pairs(src, dst):
            swaps.append(Swap(idx, pair))
    return swaps


def test_bribery_swaps_realize_targets_at_reported_cost(sample_instance):
    bribery = Bribery(((0, 2, 1, 3, 4), (0, 2, 1, 4, 3)))
    swaps = bribery_swaps(sample_instance, bribery)
    report = verify_bribery(sample_instance, bribery)
    assert len(swaps) == report.total_cost  # unit costs: one swap per unit
    for idx, source in enumerate(sample_instance.election.expanded()):
        mine = [s.pair for s in swaps if s.vote == idx]
        assert apply_swaps(source, mine) == bribery.targets[idx]


def test_cost_function_canonicalizes_defaults():
    costs = SwapCostFunction([Fraction(1)], [{(0, 1): Fraction(1), (1, 0): Fraction(2)}])
    assert costs.overrides(0) == {(1, 0): Fraction(2)}
    assert costs.cost(0, 0, 1) == 1
    assert costs.min_value() == 1
    assert costs.max_value() == 2


def test_cost_function_rejects_negatives():
    with pytest.raises(DomainError):
        SwapCostFunction([Fraction(-1)], [{}])
    with pytest.raises(DomainError):
        SwapCostFunction([Fraction(1)], [{(0, 1): Fraction(-2)}])


def test_cost_function_turns_every_default_and_override_into_a_fraction():
    defaults = [Fraction(1, 2), 3, "5/4", Fraction(2), 0, "7"]
    tables = [{}, {(0, 1): 2}, {(1, 0): "1/3"}, {}, {(0, 1): Fraction(3)}, {}]
    costs = SwapCostFunction(defaults, tables)
    assert [costs.default(v) for v in range(6)] == [Fraction(1, 2), 3, Fraction(5, 4), 2, 0, 7]
    assert [costs.overrides(v) for v in range(6)] == [{}, {(0, 1): 2}, {(1, 0): Fraction(1, 3)}, {}, {(0, 1): 3}, {}]
    assert all(type(value) is Fraction for value in costs.distinct_values())


# Votes sharing one default object and one table object, as a vote's copies
# and a file's unpriced votes do, with one bad price on a vote that is not the first.
@pytest.mark.parametrize(
    "bad_default, bad_table",
    [(Fraction(-1), {}), (-1, {}), (None, {(0, 1): Fraction(-1, 2)}), (None, {(2, 2): Fraction(2)})],
)
def test_cost_function_checks_every_vote_that_shares_prices(bad_default, bad_table):
    shared, empty = Fraction(1), {}
    defaults, tables = [shared] * 40, [empty] * 40
    if bad_default is not None:
        defaults[23] = bad_default
    tables[23] = bad_table
    with pytest.raises(DomainError):
        SwapCostFunction(defaults, tables)
    # the same bad table shared by every vote
    with pytest.raises(DomainError):
        SwapCostFunction([shared] * 40, [bad_table or {(0, 1): Fraction(-1)}] * 40)


def test_equal_prices_share_one_number_whatever_objects_hold_them():
    # votes 0 and 2 hold equal prices in distinct Fraction and dict objects;
    # vote 3's one override equals its default, so its price is vote 1's
    defaults = [Fraction(1, 2), Fraction(3), Fraction(1, 2), Fraction(3), Fraction(1, 2)]
    tables = [{(0, 1): Fraction(2)}, {}, {(0, 1): Fraction(2)}, {(1, 0): Fraction(3)}, {}]
    costs = SwapCostFunction(defaults, tables)
    assert costs.price_ids == (0, 1, 0, 1, 2)  # numbered in order of first vote
    assert costs.prices == ((Fraction(1, 2), {(0, 1): 2}), (Fraction(3), {}), (Fraction(1, 2), {}))
    assert costs.distinct_values() == [Fraction(1, 2), 3, Fraction(1, 2), 2]
    again = SwapCostFunction(
        [Fraction(1, 2), 3, "1/2", Fraction(6, 2), Fraction(1, 2)], [{(0, 1): 2}, {}, {(0, 1): "2"}, {}, {}]
    )
    assert again == costs and repr(again) == repr(costs)
    assert again != SwapCostFunction(defaults, [*tables[:4], {(0, 1): Fraction(1)}])


@pytest.mark.parametrize("model", ["unit", ("two-valued", 1, 3, 0.3), ("uniform-range", Fraction(1, 2), 3)])
def test_cost_function_extremes_match_a_scan_of_every_price(model):
    rng = random.Random(f"extremes:{model}")
    for _ in range(500 // 3 + 1):
        m = rng.randint(1, 5)
        costs = gen_random(m, rng.randint(1, 6), rng.randint(1, m), cost_model=model, seed=rng.randrange(10**6)).costs
        values = [p for v in range(costs.n_votes) for p in (costs.default(v), *costs.overrides(v).values())]
        assert costs.min_value() == min(values)
        assert costs.max_value() == max(values)
        for value in {1, min(values), max(values), values[-1]}:
            assert costs.is_uniform(value) == all(v == value for v in values)


def test_integer_prices_scale_zero_integral_and_coprime_prices():
    # Denominators 3, 7 and 14 against a budget in halves: scale 42.
    defaults = [Fraction(0), Fraction(3), Fraction(1, 3), Fraction(5, 7)]
    tables = [{(0, 1): Fraction(2, 3)}, {}, {(1, 0): Fraction(0)}, {(0, 2): Fraction(9, 14)}]
    costs = SwapCostFunction(defaults, tables)
    inst = BriberyInstance(
        Election(("a", "b", "c"), tuple(Vote((0, 1, 2)) for _ in range(4))),
        VotingRule.k_approval(1),
        0,
        costs,
        Fraction(1, 2),
    )
    scale, classes, budget = inst.integer_prices()
    assert (scale, budget) == (42, 21)
    assert [(c.lines, c.size) for c in classes] == [((0,), 1), ((1,), 1), ((2,), 1), ((3,), 1)]
    for v, (_, price, overrides, _, _) in enumerate(classes):
        assert price == costs.default(v) * 42
        assert overrides == {pair: c * 42 for pair, c in costs.overrides(v).items()}
        assert all(type(c) is int for c in (price, *overrides.values()))


def test_vote_classes_split_by_ranking_default_and_override_table():
    # votes 0-2 share a ranking and a default; vote 1's override table sets it apart
    election = Election(("a", "b", "p"), (Vote((0, 1, 2)), Vote((0, 1, 2)), Vote((0, 1, 2)), Vote((1, 0, 2))))
    costs = SwapCostFunction([1, 1, 1, 1], [{}, {(0, 1): 2}, {}, {}])
    instance = BriberyInstance(election, VotingRule.k_approval(1), 2, costs, Fraction(1))
    assert vote_classes(instance) == [
        VoteClass((0, 1, 2), 1, {}, (0, 2), 2),
        VoteClass((0, 1, 2), 1, {(0, 1): 2}, (1,), 1),
        VoteClass((1, 0, 2), 1, {}, (3,), 1),
    ]


def _per_vote_by_copies(election, classes, runs):
    """``per_vote`` by its definition: class g's values, run by run, on its copies in vote order."""
    line_of = [line for line, vote in enumerate(election.votes) for _ in range(vote.multiplicity)]
    out = [None] * len(line_of)
    for vote_class, class_runs in zip(classes, runs):
        values = [value for value, count in class_runs for _ in range(count)]
        copies = [v for v, line in enumerate(line_of) if line in vote_class.lines]
        for v, value in zip(copies, values, strict=True):
            out[v] = value
    return tuple(out)


def test_per_vote_places_each_class_s_runs_on_its_copies_in_vote_order():
    # class 0 holds lines 0 and 2 (copies 0, 1 and 3-5), class 1 line 1 (copy 2)
    election = Election(("a", "b"), (Vote((0, 1), 2), Vote((1, 0)), Vote((0, 1), 3)))
    classes = [VoteClass((0, 1), 1, {}, (0, 2), 5), VoteClass((1, 0), 1, {}, (1,), 1)]
    runs = [[("x", 3), ("y", 0), ("z", 2)], [("w", 1)]]
    assert per_vote(election, classes, runs) == ("x", "x", "w", "x", "z", "z")
    # Random lines of 1 to 4 copies dealt to up to four classes, so that a
    # class's lines stand apart, each class's copies cut into runs, some of count 0.
    rng = random.Random(46)
    apart = spread = zeros = 0
    for _ in range(500):
        n_classes = rng.randint(1, 4)
        owners = [*range(n_classes), *(rng.randrange(n_classes) for _ in range(rng.randint(0, 6)))]
        rng.shuffle(owners)
        election = Election(("a", "b"), tuple(Vote((0, 1), rng.randint(1, 4)) for _ in owners))
        classes, runs = [], []
        for g in range(n_classes):
            lines = tuple(line for line, owner in enumerate(owners) if owner == g)
            size = sum(election.votes[line].multiplicity for line in lines)
            classes.append(VoteClass((0, 1), 1, {}, lines, size))
            cuts = sorted(rng.choices(range(size + 1), k=rng.randint(0, 3)))
            runs.append([((g, r), hi - lo) for r, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, size]))])
            apart += lines[-1] - lines[0] >= len(lines)
            spread += len(lines) > 1 and len(runs[-1]) > 1
            zeros += any(count == 0 for _, count in runs[-1])
        assert per_vote(election, classes, runs) == _per_vote_by_copies(election, classes, runs)
    assert apart > 200 and spread > 200 and zeros > 200


def test_an_instance_holds_one_price_per_vote_line():
    # a cost function prices vote lines, so prices per copy, or any other
    # count of prices, are refused
    election = Election(("a", "p"), (Vote((0, 1), 2), Vote((1, 0))))
    for costs in (unit(1), unit(3), SwapCostFunction([1, 1, 1], [{(0, 1): 2}, {}, {}])):
        with pytest.raises(DomainError, match="one price per vote line"):
            BriberyInstance(election, VotingRule.k_approval(1), 1, costs, Fraction(3))
    # each changed copy pays its line's price: copy 1 of line 0 and copy 2, line 1
    instance = BriberyInstance(
        election, VotingRule.k_approval(1), 1, SwapCostFunction([1, 1], [{(0, 1): 2}, {}]), Fraction(3)
    )
    assert verify_bribery(instance, Bribery(((0, 1), (1, 0), (0, 1)))).total_cost == 3
    assert verify_bribery(instance, Bribery(((1, 0), (1, 0), (1, 0)))).total_cost == 4


def test_verify_tallies_a_run_of_equal_targets_once(monkeypatch):
    # an unbribed vote of 1,000 copies: one ranking_prefix call for the run, not one per copy
    ranking = (0, 1, 2)
    instance = BriberyInstance(
        Election(("a", "b", "c"), (Vote(ranking, 1000),)), VotingRule.k_approval(1), 0, unit(1), Fraction(0)
    )
    calls = []
    prefix = core.ranking_prefix
    monkeypatch.setattr(core, "ranking_prefix", lambda *args: calls.append(args) or prefix(*args))
    report = verify_bribery(instance, Bribery(tuple(instance.election.expanded())))
    assert report.is_solution and calls == [(ranking, 1, 3)]
