import random
from dataclasses import replace
from fractions import Fraction

import pytest

from swapbribery.core import UNIQUE_WINNER, Election, Vote, VotingRule, scores
from swapbribery.errors import DomainError, PreconditionError
from swapbribery.kernel import kernelize, relevant_candidates, truncation_kernel
from swapbribery.oracle import brute_topk
from swapbribery.swaps import BriberyInstance, SwapCostFunction

from conftest import random_instance


def plain_instance(ranking_rows, k, preferred, budget, m=None):
    m = m if m is not None else len(ranking_rows[0])
    election = Election(
        tuple(f"c{i}" for i in range(m)),
        tuple(Vote(tuple(r)) for r in ranking_rows),
    )
    return BriberyInstance(
        election,
        VotingRule.k_approval(k),
        preferred,
        SwapCostFunction.unit(len(ranking_rows)),
        Fraction(budget),
    )


class TestRelevantCandidates:
    def test_zero_budget_window_is_empty(self):
        inst = plain_instance([(0, 1, 2, 3)], k=2, preferred=0, budget=0)
        assert relevant_candidates(inst) == frozenset()

    def test_window_read(self):
        inst = plain_instance([(0, 1, 2, 3, 4)], k=2, preferred=0, budget=1)
        assert relevant_candidates(inst) == {1, 2}

    def test_disjoint_windows_meet_bound(self):
        inst = plain_instance(
            [(0, 1, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 0, 1, 2, 3)],
            k=2,
            preferred=0,
            budget=1,
            m=8,
        )
        relevant = relevant_candidates(inst)
        assert relevant == {1, 2, 5, 6}
        assert len(relevant) == 2 * 1 * 2  # 2 * beta * n

    def test_rejects_cheap_swaps(self):
        inst = plain_instance([(0, 1, 2)], k=1, preferred=2, budget=1)
        cheap = BriberyInstance(
            inst.election,
            inst.rule,
            inst.preferred,
            SwapCostFunction.uniform(1, Fraction(1, 2)),
            inst.budget,
        )
        with pytest.raises(PreconditionError):
            relevant_candidates(cheap)


class TestKernelize:
    def test_zero_budget_reduces_to_current_winner_check(self):
        for preferred, expected in ((0, True), (2, False)):
            inst = plain_instance([(0, 1, 2)], k=1, preferred=preferred, budget=0)
            out = kernelize(inst)
            res = brute_topk(out.instance, prune_to_budget=True)
            assert res.decision is expected

    def test_size_bounds_instantiated(self):
        # n=2, beta=1: at most 14 votes and 32 candidates.
        rng = random.Random(2)
        for _ in range(20):
            inst = random_instance(
                rng, m_max=6, n_max=2, cost_kind="geq-one", budget_max=1
            )
            if inst.election.n_expanded != 2:
                continue
            inst = BriberyInstance(
                inst.election, inst.rule, inst.preferred, inst.costs, Fraction(1)
            )
            out = kernelize(inst)
            assert out.instance.election.n_expanded <= 14
            assert out.instance.election.m <= 32

    def test_rule_switches_to_budget_plus_one(self):
        inst = plain_instance([(0, 1, 2, 3, 4)], k=3, preferred=4, budget=2)
        out = kernelize(inst)
        assert out.instance.rule.k == 3  # floor(2) + 1
        assert out.instance.budget == inst.budget

    def test_dummies_hold_at_most_one_point_each(self):
        rng = random.Random(3)
        for _ in range(25):
            inst = random_instance(rng, m_max=6, n_max=2, cost_kind="geq-one", budget_max=2)
            out = kernelize(inst)
            totals = scores(out.instance.election, out.instance.rule)
            heads = set()
            dummies = [c for c, orig in enumerate(out.provenance) if orig is None]
            for kernel_c in dummies:
                assert totals[kernel_c] <= 1
                appearances = [
                    v
                    for v, ranking in enumerate(out.instance.election.expanded_list())
                    if ranking.index(kernel_c) < 2 * int(inst.budget) + 1
                ]
                assert len(appearances) <= 1
                heads.update(appearances)

    def test_scores_preserved_for_kept_candidates(self):
        rng = random.Random(5)
        for _ in range(30):
            inst = random_instance(rng, m_max=6, n_max=2, cost_kind="geq-one", budget_max=2)
            out = kernelize(inst)
            original = scores(inst.election, inst.rule)
            kernel_scores = scores(out.instance.election, out.instance.rule)
            for kernel_c, orig_c in enumerate(out.provenance):
                if orig_c is not None:
                    assert kernel_scores[kernel_c] == original[orig_c], (
                        inst,
                        out.instance,
                    )

    def test_lone_vote_and_clipped_windows_keep_their_decisions(self):
        # a lone 1-approval vote: p wins alone with one point, which a head
        # dummy would tie
        lone = replace(plain_instance([(0, 1)], k=1, preferred=0, budget=0), mode=UNIQUE_WINNER)
        # k + b > m cuts the windows short: p, firmly approved in the first
        # vote, sits right below that vote's window in the kernel and must
        # not climb into it for 2
        clipped = BriberyInstance(
            Election(("p", "a", "b", "c"), (Vote((0, 1, 2, 3)), Vote((1, 2, 3, 0)))),
            VotingRule.k_approval(3),
            0,
            SwapCostFunction([1, 3], [{}, {}]),
            Fraction(2),
        )
        for inst, decision in ((lone, True), (clipped, False), (replace(clipped, mode=UNIQUE_WINNER), False)):
            assert brute_topk(inst).decision is decision
            for kernel in (kernelize(inst).instance, truncation_kernel(inst)):
                assert brute_topk(kernel, prune_to_budget=True).decision is decision, inst

    @pytest.mark.parametrize(
        "rows, decision",
        [(((1, 4, 0, 5, 3, 2), (3, 5, 4, 0, 2, 1)), True), (((2, 0, 1, 4, 3, 5), (3, 1, 0, 5, 4, 2)), False)],
    )
    def test_dummies_keep_clear_of_roster_names(self, rows, decision):
        # dummy0 and dummy1 are kept, so the first two dummies become xdummy0 and xdummy1
        election = Election(("dummy0", "dummy1", "a", "b", "p", "c"), tuple(Vote(r) for r in rows))
        inst = BriberyInstance(election, VotingRule.k_approval(3), 4, SwapCostFunction.unit(2), Fraction(1))
        kernel = kernelize(inst).instance
        names = kernel.election.candidates
        assert names[:2] == ("dummy0", "dummy1") and {"xdummy0", "xdummy1", "dummy2"} <= set(names)
        assert len(set(names)) == len(names)
        assert brute_topk(inst).decision is brute_topk(kernel, prune_to_budget=True).decision is decision

    def test_candidates_outside_kernel_window_are_frozen(self):
        # With minimum cost 1, no candidate below position k'+beta of a
        # kernel vote can score within budget: kernel prices stay >= 1 and
        # every within-budget witness leaves those candidates scoreless.
        rng = random.Random(8)
        for _ in range(25):
            inst = random_instance(rng, m_max=6, n_max=2, cost_kind="geq-one", budget_max=2)
            out = kernelize(inst)
            kernel = out.instance
            assert kernel.costs.min_value() >= 1
            beta = int(kernel.budget)
            window = kernel.rule.k + beta
            res = brute_topk(kernel, prune_to_budget=True)
            if res.witness is None:
                continue
            for original, target in zip(kernel.election.expanded(), res.witness.targets):
                deep = set(original[window:])
                scoring = set(target[: kernel.rule.k])
                assert not (deep & scoring)

    def test_preferred_tracked_through_provenance(self):
        rng = random.Random(9)
        for _ in range(20):
            inst = random_instance(rng, m_max=5, n_max=2, cost_kind="geq-one")
            out = kernelize(inst)
            assert out.provenance[out.instance.preferred] == inst.preferred

    def test_rejects_sub_unit_costs(self):
        inst = plain_instance([(0, 1, 2)], k=1, preferred=2, budget=1)
        cheap = BriberyInstance(
            inst.election,
            inst.rule,
            inst.preferred,
            SwapCostFunction.uniform(1, Fraction(1, 2)),
            inst.budget,
        )
        with pytest.raises(PreconditionError):
            kernelize(cheap)

    def test_rejects_bucklin(self):
        election = Election(("a", "b"), (Vote((0, 1)),))
        inst = BriberyInstance(
            election, VotingRule.bucklin(), 0, SwapCostFunction.unit(1), Fraction(1)
        )
        with pytest.raises(DomainError):
            kernelize(inst)


class TestTruncationKernel:
    def test_no_deep_candidates_keeps_everything(self):
        inst = plain_instance([(0, 1, 2)], k=2, preferred=0, budget=1)
        out = truncation_kernel(inst)
        assert out.election.m == 3
        assert out.election.votes == inst.election.votes

    def test_single_vote_window(self):
        ranking = tuple(range(10))
        inst = plain_instance([ranking], k=2, preferred=9, budget=1)
        out = truncation_kernel(inst)
        # ranks 1..3 survive, plus the preferred candidate.
        assert set(out.election.candidates) == {"c0", "c1", "c2", "c9"}

    def test_candidate_bound(self):
        rng = random.Random(13)
        for _ in range(30):
            inst = random_instance(rng, m_max=6, n_max=3, cost_kind="geq-one", budget_max=2)
            out = truncation_kernel(inst)
            beta = int(inst.budget)
            assert out.election.m <= (inst.rule.k + beta) * inst.election.n_expanded + 1
