"""Every solver against the oracles, over the one shared corpus (``corpus.py``).

The table of solvers, their scopes and claims is ``conformance_table.ROWS``.
The reference is plain enumeration of every target vector on the smallest
instances and the uncapped ``brute`` elsewhere. Every witness goes through
``verify_bribery`` on the instance solved: the preferred candidate wins,
within budget exactly on a yes, at the reported cost where there is one.
``check`` does this for one row on a slice of its cases; the other test
files check, under their own names, the slices of the rows of their
solvers. Each row runs once a test run.
"""

from itertools import accumulate
from math import factorial
from typing import Callable, NamedTuple

import pytest

from swapbribery.core import BUCKLIN
from swapbribery.oracle import brute_rankings
from swapbribery.swaps import verify_bribery

from conformance_table import OPTIMUM, ROW, ROWS, answers, digest, ilp_fits, k_approval
from corpus import CORPUS, PER_VOTE, PRICES
from oracle_utils import brute, enumerate_rankings

# plain enumeration walks at most this many target vectors, (m!)^n
ENUMERATED = 3000


def _product(instance) -> int:
    return factorial(instance.election.m) ** instance.election.n_expanded


# (optimum, enumerated witness or None) of each drawn instance, shared by its budget variants
OPTIMA = {
    case.split("@")[0]: enumerate_rankings(inst)[1:] if _product(inst) <= ENUMERATED else (brute(inst).optimal_cost, None)
    for case, inst in CORPUS
    if case.endswith("@drawn")
}

# the cases whose reference is plain enumeration's
BY_ENUMERATION = {case for case, inst in CORPUS if _product(inst) <= ENUMERATED}


def reference(case: str, instance):
    """(decision, optimum, the enumerated witness or None) of one corpus case."""
    optimum, witness = OPTIMA[case.split("@")[0]]
    return optimum is not None and optimum <= instance.budget, optimum, witness


class Labels(NamedTuple):
    rule: str
    mode: str
    prices: str
    votes: str
    budget: str


def labels(case: str) -> Labels:
    """The parts of a corpus id, ``rule/mode/prices/votes/i@budget``, without the index."""
    drawn, budget = case.split("@")
    return Labels(*drawn.split("/")[:4], budget)


def check(name: str, keep: Callable[[str], bool] = lambda case: True) -> int:
    """Check the row's answers on the cases in its scope that ``keep`` keeps; how many there were."""
    row, checked = ROW[name], 0
    for case, instance, solved, got in answers(name):
        if not keep(case):
            continue
        checked += 1
        decision, optimum, enumerated = reference(case, instance)
        assert got.decision == decision, case
        if row.claim == OPTIMUM:
            assert got.optimal_cost == optimum, case
        elif solved is instance:
            assert got.optimal_cost in (None, optimum), case
        # the rankings oracle returns the enumeration's first optimal vector
        if row.solve is brute_rankings and enumerated is not None:
            assert got.witness == enumerated, case
        if got.decision or got.witness is not None:
            report = verify_bribery(solved, got.witness)
            assert report.preferred_wins and report.within_budget == got.decision, case
            assert got.optimal_cost in (None, report.total_cost), case
    return checked


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_solver_agrees_with_the_oracles(row):
    check(row.name)


# The largest m and the most expanded votes each row got from the per-file loops it replaced.
REACHED = {
    "brute_topk": (6, 4), "brute_rankings": (5, 4), "flow": (6, 9), "brute_topk-pruned": (6, 3), "ilp": (5, 9),
    "color-exhaustive": (6, 4), "kernelize-pruned": (6, 2), "truncation-pruned": (6, 2), "solve-auto": (5, 4),
}


def _copies(instance):
    """The expanded indices of each vote line's first two copies."""
    starts = accumulate((vote.multiplicity for vote in instance.election.votes), initial=0)
    return [(s, s + 1) for s, vote in zip(starts, instance.election.votes) if vote.multiplicity > 1]


def test_corpus_covers_every_regime():
    """Each regime of the per-file loops this corpus replaced is here, and more."""
    assert {labels(case) for case, _ in CORPUS} == {
        (rule, mode, prices, votes, budget)
        for rule in ("k-approval", "scoring", "scoring>64", "bucklin")
        for mode in ("co-winner", "unique-winner")
        for prices in PRICES
        for votes in ("single", "runs")
        for budget in ("drawn", "opt", "below")
    }
    instances = [instance for _, instance in CORPUS]
    assert len({inst.mode for inst in instances if k_approval(inst) and inst.rule.k == inst.election.m}) == 2
    assert max(inst.election.m for inst in instances if inst.rule.kind == BUCKLIN) == 4
    assert max(vote.multiplicity for inst in instances for vote in inst.election.votes) == 3
    for row in ROWS:
        scoped = [inst for inst in instances if row.scope(inst)]
        m, n = REACHED[row.name]
        assert max(inst.election.m for inst in scoped) >= m, row.name
        assert max(inst.election.n_expanded for inst in scoped) >= n, row.name
        # references by enumeration and by brute both
        assert min(map(_product, scoped)) <= ENUMERATED < max(map(_product, scoped)), row.name

    # one price per vote: zero, rational, differing between votes or not, both modes
    per_vote = [(inst, set(map(inst.costs.default, range(inst.costs.n_votes)))) for case, inst in CORPUS if "/per-vote/" in case]
    kinds = {(len(p) > 1, 0 in p, any(x.denominator > 1 for x in p), inst.mode) for inst, p in per_vote}
    assert len(kinds) >= 12 and set(PER_VOTE) <= set().union(*(p for _, p in per_vote))
    # copies of one vote priced apart; copies the ILP puts in one group
    assert any(inst.costs.default(a) != inst.costs.default(b) for inst, _ in per_vote for a, b in _copies(inst))
    assert any(
        inst.costs.default(a) == inst.costs.default(b) and inst.costs.overrides(a) == inst.costs.overrides(b)
        for inst in instances
        if ilp_fits(inst)
        for a, b in _copies(inst)
    )


# What ``python tests/corpus.py`` prints. A change that moves an answer
# updates these lines and names each row it moved in CHANGES.md.
PINNED_DIGEST = """\
brute_topk: 181 answers, 96 yes; sha256 bec9dabd487296babf4942fa216ac88776c6f962f6d07dbf46156ed63911c354
brute_rankings: 454 answers, 245 yes; sha256 d5e9c4b215bc401a2b8c2543bfdaba7032f136ba2cd3229fda0ce27398c344a8
flow: 88 answers, 46 yes; sha256 d71189c563cb1975ae1a1b242fa6d119471f4606b7f98fe6653b25fdea3797cb
brute_topk-pruned: 181 answers, 96 yes; sha256 4e21b4a7c841301382ee89f7de4262eedacd18a9358879aff7a47cd4038d2e4d
ilp: 243 answers, 135 yes; sha256 84453ee6b86df5425e59ba643d549d9101b37c760a4c2324d2b52ca11b99b963
color-exhaustive: 141 answers, 73 yes; sha256 3e353ff6b0e879ba37a98f542d28fb921a7a36ac781f85e58b8334b909b667e1
kernelize-pruned: 56 answers, 28 yes; sha256 496d5425feaa04b4b5eb66e28b0ca19066b19b62a2e10724459d44790859358b
truncation-pruned: 56 answers, 28 yes; sha256 2a23ca9db3bf8e4c193523d391228be3a1ac6223e518d8b505cdc8bf0a8491c7
solve-auto: 509 answers, 275 yes; sha256 913d803a158283823d85571d63151a652141fefd137cb712ad1dbbb8141eecdc
corpus 509 instances, 9 solvers, 1909 answers, 1022 yes; sha256 631b9d65c9e85f5ad7994963a20f5417dc1808a6b1cc8e31871aabe9a89aca24
"""


def test_every_row_keeps_its_pinned_answers():
    assert digest().splitlines() == PINNED_DIGEST.splitlines()
