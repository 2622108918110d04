"""Every solver against the oracles, over the one shared corpus (``corpus.py``).

``ROWS`` is the table of solvers: a name, the corpus cases in its scope,
its claim there, and for the kernels the equivalent instance it solves
instead. Claims: ``optimum``, the decision and the optimal cost;
``decision``, the decision, and a cost it reports is the optimum;
``one-sided``, a yes is a true yes. The reference is plain enumeration of
every target vector on the smallest instances and the uncapped ``brute``
elsewhere. Every witness goes through ``verify_bribery`` on the instance
solved: the preferred candidate wins, within budget exactly on a yes, at
the reported cost where there is one. ``check`` does this for one row on
a slice of its cases; the other test files check, under their own names,
the slices of the rows of their solvers. Each row runs once a session.
"""

import contextlib
import functools
import hashlib
import io
import tempfile
from itertools import accumulate
from math import comb, factorial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from swapbribery import cli
from swapbribery.colorcoding import solve_color_coding
from swapbribery.core import BUCKLIN, K_APPROVAL
from swapbribery.flow import covers, solve_unit
from swapbribery.ilp import solve_ilp
from swapbribery.io import parse_solution, serialize_election
from swapbribery.kernel import kernelize, truncation_kernel
from swapbribery.oracle import brute_rankings, brute_topk
from swapbribery.swaps import SolveResult, verify_bribery

from corpus import CORPUS, PER_VOTE, PRICES
from oracle_utils import UNCAPPED, brute, enumerate_rankings

OPTIMUM, DECISION, ONE_SIDED = "optimum", "decision", "one-sided"

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


def k_approval(instance) -> bool:
    return instance.rule.kind == K_APPROVAL


def color_fits(instance) -> bool:
    """k-approval with at most 3,000 election patterns before canonical relabeling."""
    n, m, k = instance.election.n_expanded, instance.election.m, instance.rule.k
    return k_approval(instance) and comb(min(n * k, m), k) ** n <= 3000


def ilp_fits(instance) -> bool:
    """m! - 1 variables per vote group: k-approval at m <= 4, Bucklin at m <= 3, up to 4 votes."""
    most = {K_APPROVAL: 4, BUCKLIN: 3}.get(instance.rule.kind, 0)
    return instance.election.m <= most and instance.election.n_expanded <= 4


def kernel_fits(instance) -> bool:
    """The kernels' precondition, every price at least 1, at budgets small enough to stay small."""
    return k_approval(instance) and instance.costs.min_value() >= 1 and instance.budget < 3


def pruned(instance):
    return brute_topk(instance, caps=UNCAPPED, prune_to_budget=True)


def solve_auto(instance):
    """``swapbribery solve FILE --solution OUT`` read back, its output lines and exit code checked."""
    with tempfile.TemporaryDirectory() as tmp:
        path, solution = Path(tmp, "instance.sbe"), Path(tmp, "solution.sbs")
        path.write_text(serialize_election(instance), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["solve", str(path), "--solution", str(solution)])
        decision, cost, witness, _, _ = parse_solution(solution.read_text(encoding="utf-8"), instance)
    assert out.getvalue().splitlines() == [
        f"algorithm: {'flow' if covers(instance) else 'brute'}",
        f"decision: {'yes' if decision else 'no'}",
    ] + [f"cost: {cost}"] * (cost is not None)
    assert code == (0 if decision else 1)
    return SolveResult(decision, cost, witness)


class Row(NamedTuple):
    name: str
    scope: Callable
    claim: str
    solve: Callable
    reduce: Callable | None = None


ROWS = (
    Row("brute_topk", k_approval, OPTIMUM, lambda inst: brute_topk(inst, caps=UNCAPPED)),
    # at most 500 target rankings over all votes
    Row("brute_rankings", lambda inst: inst.election.n_expanded * factorial(inst.election.m) <= 500, OPTIMUM, brute_rankings),
    Row("flow", covers, OPTIMUM, solve_unit),
    Row("brute_topk-pruned", k_approval, DECISION, pruned),
    Row("ilp", ilp_fits, DECISION, solve_ilp),
    Row("color-exhaustive", color_fits, DECISION, lambda inst: solve_color_coding(inst, "exhaustive")),
    Row("kernelize-pruned", kernel_fits, DECISION, pruned, lambda inst: kernelize(inst).instance),
    Row("truncation-pruned", kernel_fits, DECISION, pruned, truncation_kernel),
    Row("color-random", color_fits, ONE_SIDED, lambda inst: solve_color_coding(inst, "random")),
    # one-sided, and complete where it picks exhaustive: wherever the exhaustive
    # loop fits the node budget, as the color-exhaustive row's nos show it does here
    Row("color-auto", color_fits, DECISION, lambda inst: solve_color_coding(inst, "auto")),
    # every corpus case is within the default option caps of brute
    Row("solve-auto", lambda inst: True, OPTIMUM, solve_auto),
)


ROW = {row.name: row for row in ROWS}


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


@functools.cache
def answers(name: str) -> tuple:
    """(case, instance, the instance solved, result) for every corpus case in the row's scope.

    Each row runs once a session; the tests that check a slice of it share the answers.
    """
    row, found = ROW[name], []
    for case, instance in CORPUS:
        if row.scope(instance):
            solved = row.reduce(instance) if row.reduce else instance
            found.append((case, instance, solved, row.solve(solved)))
    return tuple(found)


def check(name: str, keep: Callable[[str], bool] = lambda case: True) -> int:
    """Check the row's answers on the cases in its scope that ``keep`` keeps; how many there were."""
    row, checked = ROW[name], 0
    for case, instance, solved, got in answers(name):
        if not keep(case):
            continue
        checked += 1
        decision, optimum, enumerated = reference(case, instance)
        assert got.decision == decision or (row.claim == ONE_SIDED and not got.decision), case
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
    "brute_topk": (6, 4), "brute_rankings": (5, 4), "flow": (6, 9), "brute_topk-pruned": (6, 3), "ilp": (4, 4),
    "color-exhaustive": (6, 4), "kernelize-pruned": (6, 2), "truncation-pruned": (6, 2), "color-random": (5, 2),
    "color-auto": (6, 4), "solve-auto": (5, 4),
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


def digest() -> str:
    """One line: sha256 over the sorted (solver, id, decision, optimum) rows, and the counts."""
    rows = sorted(
        (row.name, case, got.decision, str(got.optimal_cost)) for row in ROWS for case, _, _, got in answers(row.name)
    )
    text = "\n".join("\t".join(map(str, r)) for r in rows).encode()
    return (
        f"corpus {len(CORPUS)} instances, {len(ROWS)} solvers, {len(rows)} answers, "
        f"{sum(r[2] for r in rows)} yes; sha256 {hashlib.sha256(text).hexdigest()}"
    )
