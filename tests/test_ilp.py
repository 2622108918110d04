import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from swapbribery.core import Election, Vote, VotingRule, winners
from swapbribery.errors import DomainError, ResourceCapError
from swapbribery import ilp as ilp_module
from swapbribery.ilp import (
    Inequality,
    assignment_to_bribery,
    build_ilp,
    describe_rule,
    ilp_feasible,
    solve_ilp,
)
from swapbribery.lp import lp_feasible
from swapbribery.reductions import gen_random
from swapbribery.swaps import BriberyInstance, SwapCostFunction, VoteClass

from conftest import random_instance
from test_conformance import check, labels


class TestDescribeRule:
    def test_k_approval_shape(self):
        system = describe_rule(VotingRule.k_approval(1), 3, 2, 0)
        assert len(system.sets) == 1
        assert len(system.sets[0]) == 2
        assert len(system.perms) == 6

    def test_two_candidates_single_row(self):
        system = describe_rule(VotingRule.k_approval(1), 2, 1, 0)
        (row,) = system.sets[0]
        # x_(c1 c2) >= x_(c2 c1)
        assert row == Inequality((1, -1), 0)
        assert all(type(c) is int for c in row.coeffs)

    def test_bucklin_shape(self):
        system = describe_rule(VotingRule.bucklin(), 3, 3, 0)
        assert len(system.sets) == 3
        assert all(len(rows) == 6 for rows in system.sets)

    def test_permutation_cap(self, monkeypatch):
        # One vote class has m! - 1 variables: m = 6 has 719, m = 7 has 5,039.
        assert len(describe_rule(VotingRule.k_approval(2), 6, 1, 0).perms) == 720
        with pytest.raises(ResourceCapError, match=r"^7! - 1 variables per vote class exceed cap 2000$"):
            describe_rule(VotingRule.k_approval(2), 7, 1, 0)
        # At a cap of 5, m = 3 (5 variables) is described and m = 4 (23) is not.
        monkeypatch.setattr(ilp_module, "MAX_VARIABLES", 5)
        assert len(describe_rule(VotingRule.bucklin(), 3, 1, 0).perms) == 6
        with pytest.raises(ResourceCapError, match=r"^4! - 1 variables per vote class exceed cap 5$"):
            describe_rule(VotingRule.bucklin(), 4, 1, 0)

    @pytest.mark.parametrize("preferred", [3, -1])
    def test_refuses_a_preferred_candidate_off_the_roster(self, preferred):
        with pytest.raises(DomainError, match="not on the roster"):
            describe_rule(VotingRule.k_approval(2), 3, 1, preferred)

    @staticmethod
    def _profiles(perms, n_total):
        for combo in combinations_with_replacement(range(len(perms)), n_total):
            counts = [0] * len(perms)
            for i in combo:
                counts[i] += 1
            yield counts

    def test_bucklin_description_matches_winners_exhaustively(self):
        # Every vote profile with m = 3 and n <= 4, for every preferred
        # candidate: it satisfies some set exactly when it wins under the
        # direct Bucklin evaluation.
        rule = VotingRule.bucklin()
        for preferred, n_total in product((0, 1, 2), (1, 2, 3, 4)):
            system = describe_rule(rule, 3, n_total, preferred)
            for counts in self._profiles(system.perms, n_total):
                votes = tuple(
                    Vote(perm, c) for perm, c in zip(system.perms, counts) if c
                )
                election = Election(("s0", "s1", "s2"), votes)
                want = preferred in winners(election, rule)
                satisfied = any(
                    all(
                        sum(q * x for q, x in zip(row.coeffs, counts)) >= row.rhs
                        for row in rows
                    )
                    for rows in system.sets
                )
                assert satisfied == want, (preferred, counts, want)

    def test_k_approval_description_matches_winners_exhaustively(self):
        rule = VotingRule.k_approval(2)
        for preferred, n_total in product((0, 1, 2), (1, 2, 3)):
            system = describe_rule(rule, 3, n_total, preferred)
            for counts in self._profiles(system.perms, n_total):
                votes = tuple(Vote(perm, c) for perm, c in zip(system.perms, counts) if c)
                election = Election(("s0", "s1", "s2"), votes)
                want = preferred in winners(election, rule)
                satisfied = all(
                    sum(q * x for q, x in zip(row.coeffs, counts)) >= row.rhs
                    for row in system.sets[0]
                )
                assert satisfied == want


class TestBuildIlp:
    def test_identical_votes_form_one_group(self):
        election = Election(("a", "b", "p"), (Vote((0, 1, 2), 3),))
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 2, SwapCostFunction.unit(1), Fraction(2)
        )
        ilp = build_ilp(inst)
        assert len(ilp.groups) == 1
        assert len(ilp.variables) == 5  # m! - 1
        assert all(type(c) is int for row in ilp.sets[0] for c in (*row.coeffs, row.rhs))

    def test_a_class_hands_out_its_votes_in_order(self):
        # Three copies (expanded votes 1-3) split 2/1 over two targets: the
        # first two copies take the earlier target in variable order.
        election = Election(("a", "b", "p"), (Vote((1, 0, 2)), Vote((0, 1, 2), 3)))
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 2, SwapCostFunction.unit(2), Fraction(10)
        )
        ilp = build_ilp(inst)
        g = next(g for g, group in enumerate(ilp.groups) if group.ranking == (0, 1, 2))
        assert (ilp.groups[g].lines, ilp.groups[g].size) == ((1,), 3)
        first, second = [var for var in ilp.variables if var[0] == g][:2]
        bribery = assignment_to_bribery(inst, ilp, {second: 1, first: 2})
        early, late = ilp.perms[first[1]], ilp.perms[second[1]]
        assert bribery.targets == ((1, 0, 2), early, early, late)

    def test_zero_budget_positive_costs_freezes_votes(self):
        election = Election(("a", "p"), (Vote((0, 1)),))
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 1, SwapCostFunction.unit(1), Fraction(0)
        )
        ilp = build_ilp(inst)
        assignment = ilp_feasible(ilp, ilp.sets[0])
        assert assignment is None  # p loses as cast and cannot move

    def test_transformation_cost_row(self, sample_instance):
        ilp = build_ilp(sample_instance)
        # some group holds vote v; moving to (c1,p,c2,c4,c3) costs 1
        j = ilp.perms.index((0, 2, 1, 3, 4))
        g = next(g for g, group in enumerate(ilp.groups) if group.ranking == (0, 1, 2, 3, 4))
        assert ilp.var_costs[ilp.variables.index((g, j))] == 1

    def test_transformed_counts_conserve_votes(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_instance(rng, m_max=3, n_max=3)
            ilp = build_ilp(inst)
            counts = [0] * len(ilp.perms)
            for group in ilp.groups:
                counts[ilp.perms.index(group.ranking)] += group.size
            assignment = {
                var: rng.randint(0, 1) for var in ilp.variables
            }
            # clamp to group capacity
            for g, group in enumerate(ilp.groups):
                spent = sum(t for (gg, _), t in assignment.items() if gg == g)
                if spent > group.size:
                    for var in list(assignment):
                        if var[0] == g:
                            assignment[var] = 0
            transformed = list(counts)
            for (g, j), t in assignment.items():
                transformed[ilp.perms.index(ilp.groups[g].ranking)] -= t
                transformed[j] += t
            assert sum(transformed) == inst.election.n_expanded
            assert all(x >= 0 for x in transformed)


class TestFeasibility:
    def test_empty_system_is_feasible(self):
        election = Election(("a", "p"), (Vote((0, 1)),))
        inst = BriberyInstance(
            election, VotingRule.k_approval(2), 1, SwapCostFunction.unit(1), Fraction(0)
        )
        ilp = build_ilp(inst)
        assignment = ilp_feasible(ilp, ilp.sets[0])
        assert assignment == {var: 0 for var in ilp.variables}

    def test_contradictory_rows_on_one_variable(self):
        # -t >= 0 (that is, t <= 0) and t >= 1 over a single transformation count
        from swapbribery.ilp import TransformationIlp

        group = VoteClass(ranking=(0, 1), price=0, overrides={}, lines=(0,), size=1)
        ilp = TransformationIlp(
            groups=(group,),
            variables=((0, 1),),
            var_costs=(0,),
            budget=10,
            scale=1,
            sets=((Inequality((-1,), 0), Inequality((1,), 1)),),
            perms=((0, 1), (1, 0)),
        )
        assert ilp_feasible(ilp, ilp.sets[0]) is None

    def test_matches_box_enumeration(self):
        from itertools import product as iproduct

        rng = random.Random(41)
        for _ in range(40):
            inst = random_instance(rng, m_max=3, n_max=2)
            ilp = build_ilp(inst)
            got = ilp_feasible(ilp, ilp.sets[0])
            sizes = [ilp.groups[g].size for g, _ in ilp.variables]
            found = None
            for values in iproduct(*[range(s + 1) for s in sizes]):
                by_group: dict[int, int] = {}
                for (g, _), t in zip(ilp.variables, values):
                    by_group[g] = by_group.get(g, 0) + t
                if any(
                    spent > ilp.groups[g].size for g, spent in by_group.items()
                ):
                    continue
                if sum(c * t for c, t in zip(ilp.var_costs, values)) > ilp.budget:
                    continue
                if all(
                    sum(c * t for c, t in zip(row.coeffs, values)) >= row.rhs
                    for row in ilp.sets[0]
                ):
                    found = values
                    break
            assert (got is not None) == (found is not None), inst

    def test_lp_relaxation_points_satisfy_rows(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = [
                (
                    [Fraction(rng.randint(-3, 3)) for _ in range(n)],
                    Fraction(rng.randint(-5, 5)),
                )
                for _ in range(rng.randint(1, 5))
            ]
            point = lp_feasible(rows, n)
            if point is not None:
                for coeffs, rhs in rows:
                    assert sum(c * point[j] for j, c in enumerate(coeffs)) <= rhs
                assert all(v >= 0 for v in point.values())


class TestSolve:
    def test_already_winning_all_zero(self, sample_instance):
        inst = BriberyInstance(
            sample_instance.election,
            sample_instance.rule,
            0,
            sample_instance.costs,
            Fraction(0),
        )
        res = solve_ilp(inst)
        assert res.decision
        assert res.witness.targets == tuple(inst.election.expanded())

    def test_matches_topk_oracle(self):
        assert check("ilp", lambda case: labels(case).rule == "k-approval") >= 80

    def test_matches_rankings_oracle_on_bucklin(self):
        assert check("ilp", lambda case: labels(case).rule == "bucklin") >= 70

    def test_variable_cap(self, monkeypatch):
        election = Election(("a", "b", "p"), (Vote((0, 1, 2)), Vote((1, 0, 2))))
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 2, SwapCostFunction.unit(2), Fraction(2)
        )
        # one class's 5 variables pass the description; the two classes' 10 do not
        monkeypatch.setattr(ilp_module, "MAX_VARIABLES", 5)
        with pytest.raises(ResourceCapError, match="^10 variables exceed cap 5$"):
            solve_ilp(inst)
        # refused while building, before any set's rows are substituted
        with pytest.raises(ResourceCapError, match="^10 variables exceed cap 5$"):
            build_ilp(inst)

    def test_rejects_scoring_rules(self):
        election = Election(("a", "p"), (Vote((0, 1)),))
        inst = BriberyInstance(
            election,
            VotingRule.scoring((2, 0)),
            1,
            SwapCostFunction.unit(1),
            Fraction(1),
        )
        with pytest.raises(DomainError):
            solve_ilp(inst)

    def test_lp_listing_names_every_variable(self):
        from swapbribery.ilp import format_lp

        election = Election(("a", "p"), (Vote((0, 1)), Vote((1, 0))))
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 1, SwapCostFunction.unit(2), Fraction(1)
        )
        ilp = build_ilp(inst)
        text = format_lp(ilp, ilp.sets[0])
        assert "subject to" in text and "budget:" in text
        assert "t[0->" in text and "t[1->" in text
        assert "integer" in text


def test_program_goes_1438_variables_deep():
    # Two vote groups of 6! - 1 transformations each: 1,438 variables, one
    # level each, and the preferred candidate already wins, so the search
    # walks every level and leaves every vote as cast.
    instance = gen_random(6, 2, 6, cost_model=("two-valued", Fraction(1), Fraction(2), 0.3), seed=118)
    result = solve_ilp(instance)
    assert result.decision
    assert result.witness.targets == tuple(instance.election.expanded())
