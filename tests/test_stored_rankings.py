"""Votes stored as heads reach every solver as the rankings they stand for.

An election stores a ranking as its head when the increasing tail it leaves
out is long (``core.stored_ranking``). Each test here runs an instance whose
votes are stored as heads next to a relabeling of it whose votes are stored
in full, and the solvers must answer both alike. The last test counts the
full rankings that the clique gadget's generate, verify and kernelize build.
"""

import random
import sys
from fractions import Fraction
from functools import partial

import pytest

from swapbribery import cli
from swapbribery.core import (
    Election,
    Vote,
    VotingRule,
    head_then_rest,
    ranking_prefix,
    scores,
    stored_ranking,
    winners,
)
from swapbribery.flow import solve_unit
from swapbribery.hardness import (
    multicolored_clique_instance,
    multicolored_clique_witness,
    planted_multicolored_clique,
)
from swapbribery.io import serialize_solution
from swapbribery.kernel import kernelize, truncation_kernel
from swapbribery.oracle import brute_topk
from swapbribery.swaps import Bribery, BriberyInstance, SwapCostFunction, verify_bribery

from test_io import _rising_tails

M = 64


def _heads_instance(rule: VotingRule, prices: SwapCostFunction | None = None, preferred: int = 3) -> BriberyInstance:
    """``_rising_tails`` plus a vote whose head is shorter than k and one with no head."""
    base = _rising_tails(M, 4, random.Random(11))
    votes = (*base.election.votes, Vote((7,)), Vote(()))
    if prices is None:  # one price per vote, as flow needs
        prices = SwapCostFunction([Fraction(1 + v % 2) for v in range(6)], [{}] * 6)
    return BriberyInstance(Election(base.election.candidates, votes), rule, preferred, prices, Fraction(3))


def _relabeled(instance: BriberyInstance) -> BriberyInstance:
    """The same instance with candidate c renamed M-1-c, so every tail falls."""
    def flip(c):
        return M - 1 - c

    election = instance.election
    names = tuple(reversed(election.candidates))
    votes = tuple(Vote(tuple(map(flip, head_then_rest(v.ranking, M))), v.multiplicity) for v in election.votes)
    costs = instance.costs
    prices = SwapCostFunction(
        [costs.default(v) for v in range(costs.n_votes)],
        [{(flip(a), flip(b)): p for (a, b), p in costs.overrides(v).items()} for v in range(costs.n_votes)],
    )
    return BriberyInstance(Election(names, votes), instance.rule, flip(instance.preferred), prices, instance.budget)


def _pair(rule: VotingRule, prices: SwapCostFunction | None = None, preferred: int = 3) -> tuple[BriberyInstance, BriberyInstance]:
    heads = _heads_instance(rule, prices, preferred)
    full = _relabeled(heads)
    assert all(len(v.ranking) < M for v in heads.election.votes)
    assert all(len(v.ranking) == M for v in full.election.votes)
    return heads, full


def _named(instance: BriberyInstance, ids) -> list[str]:
    return [instance.election.candidates[c] for c in ids]


RULES = [VotingRule.k_approval(2), VotingRule.scoring((6, 4, 3, 3, 1) + (0,) * (M - 5)), VotingRule.bucklin()]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
def test_winners_and_scores_read_heads_as_their_rankings(rule):
    heads, full = _pair(rule)
    assert set(_named(heads, winners(heads.election, rule))) == set(_named(full, winners(full.election, rule)))
    if rule.is_score_based:
        by_name = [dict(zip(inst.election.candidates, scores(inst.election, rule))) for inst in (heads, full)]
        assert by_name[0] == by_name[1]


@pytest.mark.parametrize("preferred, optimum", [(3, 3), (4, 4)])  # the budget is 3
@pytest.mark.parametrize(
    "solve, proves_a_no",  # on a no, the pruned search proves no optimum
    [(brute_topk, True), (partial(brute_topk, prune_to_budget=True), False), (solve_unit, True)],
    ids=["brute", "pruned", "flow"],
)
def test_exact_search_and_flow_answer_heads_as_their_rankings(solve, proves_a_no, preferred, optimum):
    answers = []
    for inst in _pair(VotingRule.k_approval(2), preferred=preferred):
        result = solve(inst)
        if result.witness is not None:
            assert verify_bribery(inst, result.witness).total_cost == result.optimal_cost
        answers.append((result.decision, result.optimal_cost))
    proven = optimum if optimum <= 3 or proves_a_no else None
    assert answers[0] == answers[1] == (optimum <= 3, proven)


def _full_names(instance: BriberyInstance) -> list[tuple[str, ...]]:
    m = instance.election.m
    return [tuple(_named(instance, head_then_rest(r, m))) for r in instance.election.expanded()]


@pytest.mark.parametrize("k", [2, 4])  # the budget is 3: kernelize truncates at k = 2, and builds windows at 4
def test_kernels_of_heads_are_the_kernels_of_their_rankings(k):
    heads, full = _pair(VotingRule.k_approval(k))
    one, two = truncation_kernel(heads), truncation_kernel(full)
    assert set(one.election.candidates) == set(two.election.candidates)
    assert one.election.m < M and _full_names(one) == _full_names(two)

    one, two = kernelize(heads).instance, kernelize(full).instance
    assert (one.rule, one.budget, one.election.m) == (two.rule, two.budget, two.election.m)
    depth = 2 * int(heads.budget) + 1  # a kernel vote's window, behind its dummy

    def windows(kernel):
        # the votes' windows; the padding votes after them depend on the ids,
        # through the tie among the candidates outside every window
        m = kernel.election.m
        return [_named(kernel, ranking_prefix(r, depth, m)) for r in kernel.election.expanded_list()[:6]]

    assert windows(one) == windows(two)
    if k == 2:  # the windowed kernels are past the exact search's option cap
        assert brute_topk(one, prune_to_budget=True).decision == brute_topk(two, prune_to_budget=True).decision


def _targets(instance: BriberyInstance, move) -> list[tuple[int, ...]]:
    """Each vote's full ranking, as a list, changed in place by ``move``."""
    out = []
    for ranking in instance.election.expanded():
        full = list(head_then_rest(ranking, M))
        move(full, len(ranking))
        out.append(tuple(full))
    return out


def _verified_alike(heads: BriberyInstance, full: BriberyInstance, targets: list):
    """The report on ``targets``, given in full and as heads, and on their relabeling."""
    report = verify_bribery(heads, Bribery(tuple(targets)))
    assert verify_bribery(heads, Bribery(tuple(stored_ranking(t, M) for t in targets))) == report
    assert verify_bribery(full, Bribery(tuple(tuple(M - 1 - c for c in t) for t in targets))) == report
    return report


def test_verify_prices_head_targets_as_their_rankings():
    rng = random.Random(5)
    pairs = [{(rng.randrange(M), rng.randrange(M)): Fraction(rng.randint(2, 5)) for _ in range(300)} for _ in range(6)]
    prices = SwapCostFunction([Fraction(1)] * 6, [{p: c for p, c in t.items() if p[0] != p[1]} for t in pairs])
    heads, full = _pair(VotingRule.k_approval(2), prices)

    def lift(ranking, _):
        # a candidate from early in the tail to the front, then swap the first
        # two: the target's head holds candidates its vote's does not
        ranking.insert(0, ranking.pop(rng.randrange(M - 40, M - 32)))
        ranking[:2] = ranking[1::-1]

    def cross(ranking, h):
        # the last of the head below the first of the tail: the target's head
        # is one longer than its vote's, over the same candidates
        if h:
            ranking[h - 1], ranking[h] = ranking[h], ranking[h - 1]

    report = _verified_alike(heads, full, _targets(heads, lift))
    assert report.total_cost > 6 * (M - 40)
    report = _verified_alike(heads, full, _targets(heads, cross))
    assert 4 <= report.total_cost <= 4 * 5


def _materializer_spy(monkeypatch) -> list:
    """Count every call of ``core.head_then_rest``, under each name a module gives it."""
    calls = []
    original = head_then_rest

    def counted(ranking, m):
        calls.append(len(ranking))
        return original(ranking, m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "swapbribery" and getattr(module, "head_then_rest", None) is original:
            monkeypatch.setattr(module, "head_then_rest", counted)
    return calls


def test_the_gadget_chain_builds_no_tail(tmp_path, monkeypatch, capsys):
    graph, planted = planted_multicolored_clique([3, 3], seed=4)
    instance, layout = multicolored_clique_instance(graph)
    witness = multicolored_clique_witness(instance, layout, planted)
    solution = tmp_path / "planted.sbs"
    solution.write_text(serialize_solution(instance, True, layout.budget, witness, "planted"))
    changed = solution.read_text().count("\ntarget-head ")
    assert changed > 0

    calls = _materializer_spy(monkeypatch)
    sbe, kernel = str(tmp_path / "g.sbe"), str(tmp_path / "k.sbe")
    assert cli.main(["generate", "clique-gadget", "--classes", "3,3", "--seed", "4", "--out", sbe]) == 0
    assert calls == []
    assert cli.main(["verify", sbe, str(solution)]) == 0
    assert "solution valid: yes" in capsys.readouterr().out
    assert len(calls) <= 2 * changed, calls
    calls.clear()
    assert cli.main(["kernelize", sbe, "--out", kernel]) == 0
    assert calls == []
    assert (tmp_path / "k.sbe").read_bytes() == (tmp_path / "g.sbe").read_bytes()
