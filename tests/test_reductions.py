import hashlib
import random
from fractions import Fraction

import pytest

from swapbribery.core import UNIQUE_WINNER, Election, Vote, VotingRule, head_then_rest
from swapbribery.errors import DomainError, PreconditionError, ResourceCapError
from swapbribery.oracle import brute_topk
from swapbribery.reductions import (
    PartialVote,
    PossibleWinnerInstance,
    gen_random,
    pw_to_sb,
    sb_to_pw,
)
from swapbribery.swaps import BriberyInstance, SwapCostFunction

from oracle_utils import lines_priced_per_copy, linear_extensions, possible_winner_brute, random_partial_votes


def zero_budget_instance(rng, m=4, n=2, density=0.5, delta=Fraction(1)):
    votes = tuple(Vote(tuple(rng.sample(range(m), m))) for _ in range(n))
    overrides = []
    for _ in range(n):
        overrides.append(
            {
                (a, b): delta
                for a in range(m)
                for b in range(m)
                if a != b and rng.random() < density
            }
        )
    return BriberyInstance(
        election=Election(tuple(f"c{i}" for i in range(m)), votes),
        rule=VotingRule.k_approval(rng.randint(1, m - 1)),
        preferred=rng.randrange(m),
        costs=SwapCostFunction([Fraction(0)] * n, overrides),
        budget=Fraction(0),
    )


class TestPartialVote:
    def test_transitive_closure_applied(self):
        vote = PartialVote(3, frozenset({(0, 1), (1, 2)}))
        assert (0, 2) in vote.pairs

    def test_rejects_cycles(self):
        with pytest.raises(DomainError):
            PartialVote(3, frozenset({(0, 1), (1, 2), (2, 0)}))

    @pytest.mark.parametrize("pair", [(5, 1), (1, 5), (-1, 0)])
    def test_rejects_pairs_outside_the_range(self, pair):
        with pytest.raises(DomainError, match="pair outside the candidate range"):
            PartialVote(3, frozenset({pair}))

    def test_extensions_of_empty_order(self):
        vote = PartialVote(3, frozenset())
        assert len(list(linear_extensions(vote))) == 6

    def test_extensions_respect_constraints(self):
        vote = PartialVote(3, frozenset({(2, 0)}))
        exts = list(linear_extensions(vote))
        assert len(exts) == 3
        assert all(e.index(2) < e.index(0) for e in exts)

    def test_minimal_extension_is_lexicographic(self):
        vote = PartialVote(4, frozenset({(3, 0)}))
        assert vote.minimal_extension() == (1, 2, 3, 0)

    def test_random_orders_match_brute_force(self):
        rng = random.Random(26)
        cyclic = 0
        for _ in range(400):
            m = rng.randint(2, 6)
            order = rng.sample(range(m), m)
            pairs = {
                (order[i], order[j])
                for i in range(m)
                for j in range(i + 1, m)
                if rng.random() < 0.3
            }
            if rng.random() < 0.1:
                i, j = rng.sample(range(m), 2)
                pairs |= {(order[i], order[j]), (order[j], order[i])}
            # reachability by a walk from every candidate
            reach = set()
            for a in range(m):
                stack = [b for x, b in pairs if x == a]
                while stack:
                    b = stack.pop()
                    if (a, b) not in reach:
                        reach.add((a, b))
                        stack.extend(c for x, c in pairs if x == b)
            if any(a == b for a, b in reach):
                cyclic += 1
                with pytest.raises(DomainError):
                    PartialVote(m, frozenset(pairs))
                continue
            vote = PartialVote(m, frozenset(pairs))
            assert vote.pairs == reach
            assert vote.minimal_extension() == next(linear_extensions(vote))
        assert 25 <= cyclic <= 60


class TestSbToPw:
    def test_all_priced_pairs_pin_the_whole_order(self):
        rng = random.Random(1)
        inst = zero_budget_instance(rng, density=1.0)
        pw = sb_to_pw(inst)
        for vote, partial in zip(inst.election.expanded(), pw.votes):
            assert list(linear_extensions(partial)) == [vote]

    def test_free_swaps_leave_no_constraints(self):
        rng = random.Random(2)
        inst = zero_budget_instance(rng, density=0.0)
        pw = sb_to_pw(inst)
        assert all(partial.pairs == frozenset() for partial in pw.votes)

    def test_runs_of_equal_votes_give_the_per_vote_partial_orders(self):
        # a vote's copies draw equal tables in distinct objects, or an empty one,
        # and a line splits where its copies' tables differ
        rng = random.Random(6)
        for _ in range(40):
            m = rng.randint(2, 5)
            votes = [Vote(tuple(rng.sample(range(m), m)), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            tables = []
            for vote in votes:
                drawn = {(a, b): Fraction(1) for a in range(m) for b in range(m) if a != b and rng.random() < 0.4}
                tables += [dict(drawn) if rng.random() < 0.7 else {} for _ in range(vote.multiplicity)]
            lines, costs = lines_priced_per_copy(votes, [(Fraction(0), table) for table in tables])
            election = Election(tuple(f"c{i}" for i in range(m)), lines)
            inst = BriberyInstance(election, VotingRule.k_approval(1), 0, costs, Fraction(0))
            want = []
            for ranking, table in zip(election.expanded(), tables):
                ranking = head_then_rest(ranking, m)
                pairs = {(a, b) for i, a in enumerate(ranking) for b in ranking[i + 1 :] if (a, b) in table}
                want.append(PartialVote(m, frozenset(pairs)))
            assert sb_to_pw(inst).votes == tuple(want)

    def test_requires_zero_budget(self):
        rng = random.Random(3)
        inst = zero_budget_instance(rng)
        bad = BriberyInstance(
            inst.election, inst.rule, inst.preferred, inst.costs, Fraction(1)
        )
        with pytest.raises(PreconditionError):
            sb_to_pw(bad)

    def test_requires_two_valued_costs(self):
        election = Election(("a", "b"), (Vote((0, 1)),))
        costs = SwapCostFunction([Fraction(0)], [{(0, 1): Fraction(1), (1, 0): Fraction(2)}])
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 0, costs, Fraction(0)
        )
        with pytest.raises(PreconditionError, match=r"; found 1, 2$"):
            sb_to_pw(inst)


class TestPwToSb:
    def test_complete_orders_freeze_the_election(self):
        vote = PartialVote(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        pw = PossibleWinnerInstance(
            ("a", "b", "p"), (vote,), VotingRule.k_approval(1), 2
        )
        inst = pw_to_sb(pw)
        assert brute_topk(inst).decision is False
        winner_pw = PossibleWinnerInstance(
            ("a", "b", "p"), (vote,), VotingRule.k_approval(1), 0
        )
        assert brute_topk(pw_to_sb(winner_pw)).decision is True

    def test_empty_orders_always_yes_below_veto(self):
        vote = PartialVote(3, frozenset())
        pw = PossibleWinnerInstance(
            ("a", "b", "p"), (vote,), VotingRule.k_approval(1), 2
        )
        assert brute_topk(pw_to_sb(pw)).decision is True

    def test_runs_of_equal_votes_become_one_vote(self):
        # votes 0 and 1 are equal but distinct objects; vote 3 equals them after another vote
        x, y = PartialVote(3, frozenset({(0, 1)})), PartialVote(3, frozenset({(2, 0)}))
        pw = PossibleWinnerInstance(
            ("a", "b", "p"), (x, PartialVote(3, frozenset({(0, 1)})), y, x), VotingRule.k_approval(1), 2
        )
        inst = pw_to_sb(pw)
        first, second = x.minimal_extension(), y.minimal_extension()
        assert inst.election.votes == (Vote(first, 2), Vote(second), Vote(first))
        assert list(map(inst.costs.overrides, range(3))) == [{(0, 1): 1}, {(2, 0): 1}, {(0, 1): 1}]
        assert sb_to_pw(inst).votes == pw.votes

    def test_round_trip_restores_partial_orders(self):
        for seed in range(30):
            votes = random_partial_votes(4, 3, seed=seed)
            pw = PossibleWinnerInstance(
                ("a", "b", "c", "d"), votes, VotingRule.k_approval(2), 0
            )
            back = sb_to_pw(pw_to_sb(pw))
            assert tuple(v.pairs for v in back.votes) == tuple(
                v.pairs for v in pw.votes
            )


class TestPossibleWinnerBrute:
    def test_complete_votes_reduce_to_winner_membership(self):
        vote = PartialVote(2, frozenset({(0, 1)}))
        pw = PossibleWinnerInstance(("a", "p"), (vote,), VotingRule.k_approval(1), 1)
        assert possible_winner_brute(pw) is False

    def test_single_empty_vote_plurality_always_yes(self):
        vote = PartialVote(3, frozenset())
        pw = PossibleWinnerInstance(
            ("a", "b", "p"), (vote,), VotingRule.k_approval(1), 2
        )
        assert possible_winner_brute(pw) is True

    def test_cap(self):
        votes = tuple(PartialVote(5, frozenset()) for _ in range(3))
        pw = PossibleWinnerInstance(
            tuple("abcde"), votes, VotingRule.k_approval(1), 0
        )
        with pytest.raises(ResourceCapError):
            possible_winner_brute(pw, cap=100)

    def test_matches_bribery_decision_on_zero_budget_instances(self):
        rng = random.Random(7)
        for _ in range(40):
            inst = zero_budget_instance(
                rng, m=rng.randint(2, 4), n=rng.randint(1, 3), density=rng.random()
            )
            want = brute_topk(inst).decision
            assert possible_winner_brute(sb_to_pw(inst)) == want


class TestGenRandom:
    def test_same_seed_same_instance(self):
        a = gen_random(5, 3, 2, seed=9)
        b = gen_random(5, 3, 2, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        assert gen_random(5, 3, 2, seed=1) != gen_random(5, 3, 2, seed=2)

    def test_unit_model_feeds_the_flow_solver(self):
        from swapbribery.flow import solve_unit

        inst = gen_random(4, 2, 2, cost_model="unit", seed=5)
        assert inst.costs.is_uniform(1)
        solve_unit(inst)  # precondition holds

    def test_two_valued_model_range(self):
        inst = gen_random(4, 2, 2, cost_model=("two-valued", 1, 2, 0.5), seed=5)
        assert set(inst.costs.distinct_values()) <= {Fraction(1), Fraction(2)}

    def test_uniform_range_bounds(self):
        inst = gen_random(
            4, 2, 2, cost_model=("uniform-range", Fraction(1), Fraction(3)), seed=5
        )
        assert all(1 <= v <= 3 for v in inst.costs.distinct_values())

    def test_draws_are_pinned(self):
        # Each draw depends on how many came before it, so one digest over a
        # small grid pins their order, prices included (the cost function's
        # repr shows every default and override). Density 0 still draws once
        # per ordered pair.
        models = [
            "unit",
            ("two-valued", 1, 2, 0.0),
            ("two-valued", 1, 2, 0.3),
            ("two-valued", 1, 2, 1.0),
            ("uniform-range", Fraction(1, 2), 2),
        ]
        made = [
            gen_random(m, n, min(m, 2), cost_model=model, seed=seed)
            for m in (1, 3, 5)
            for n in (1, 4)
            for model in models
            for seed in (0, 1)
        ]
        made.append(gen_random(4, 3, 2, ("two-valued", 1, 2, 0.3), seed=2, budget=2, rule=VotingRule.bucklin()))
        made.append(gen_random(4, 3, 2, ("uniform-range", 1, 3), seed=3, mode=UNIQUE_WINNER))
        digest = hashlib.sha256(repr(made).encode()).hexdigest()
        assert digest == "0feb5708caf7e0903aa38ef4a283d0944b8b0d9dff899b948ddf69cad06ab0eb"
