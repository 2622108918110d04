"""Brute-force exact solvers; ground truth for every other solver.

Both oracles search depth-first and exist to be obviously correct: their
only cleverness is cutting branches that cannot hold a better winning
leaf. The k-approval and scoring searches run on ``swapbribery._search``,
which cuts by cost (the budget or the best total so far), by score (the
leading rival already beats what the preferred candidate can still
collect) and by symmetry (identical votes choose non-decreasing options).
Bucklin and scoring vectors of more than 64 points run on
``_brute_rankings_generic``, which cuts by cost and by score. Each returns
the first optimal choice vector in its order with or without the cuts, so
the optimum and the witness do not depend on them.

Nothing bounds the number of vote combinations up front. The number of
options built is capped, and each search stops with ``ResourceCapError``
once it has counted ``_search.MAX_NODES`` nodes: ``_search`` counts its
nodes, the generic search the options it scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from . import _search
from .core import BUCKLIN, K_APPROVAL, Ranking
from .errors import DomainError, ResourceCapError
from .swaps import (
    Bribery,
    BriberyInstance,
    SolveResult,
    SwapCostFunction,
    move_to_top_target,
    transform_cost,
)


# perfbench records this in its provenance.
def available_backends() -> tuple[str, ...]:
    return ("pure",)


# perfbench reads the name of the module this returns and traces its search.
def get_backend(name: str = "auto"):
    """The search module, ``swapbribery._search``, for ``auto`` or ``pure``."""
    if name in ("auto", "pure"):
        return _search
    raise DomainError(f"unknown backend {name!r}")


@dataclass(frozen=True)
class OracleCaps:
    """Size limits; exceeding one raises ResourceCapError.

    ``topk_combinations`` and ``ranking_combinations`` bound the options
    built over all votes, before they are built: n * C(m, k) subsets and
    n * m! rankings. Building one takes about 2-3 us (a subset) or
    20-25 us (a ranking), so the defaults bound building to about 0.15 s
    and 0.5 s.
    """

    topk_combinations: int = 5 * 10**4
    ranking_combinations: int = 2 * 10**4


DEFAULT_CAPS = OracleCaps()


def check_topk_cap(n_votes: int, m: int, k: int, caps: OracleCaps = DEFAULT_CAPS) -> None:
    """Refuse, before building, more than ``caps.topk_combinations`` top-k sets over all votes."""
    options = n_votes * comb(m, k)
    if options > caps.topk_combinations:
        raise ResourceCapError(
            f"{n_votes} votes x C({m},{k}) = {options} options exceed cap "
            f"{caps.topk_combinations}"
        )


def topk_options(
    ranking: Ranking,
    k: int,
    prices: SwapCostFunction,
    vote: int,
    budget_cap: int | None,
) -> list[tuple[tuple[int, ...], int]]:
    """Every k-subset of one vote with its move-to-top cost, on int ``prices``.

    ``prices`` is the int table of ``BriberyInstance.integer_prices``. Lifting
    the candidate at position p past the unchosen ones above it costs the
    vote's default price per pass, corrected by each override it meets.
    With ``budget_cap`` set, subsets dearer than the cap are dropped: every
    pass costs at least the vote's cheapest price, so that price times the
    passes bounds a lift from below, grows with position and allows cutting.
    """
    m = len(ranking)
    default = prices.default(vote)
    overrides = prices.overrides(vote)
    low = min((default, *overrides.values()))
    incoming: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    prefix_delta = [0] * m
    pos = {c: i for i, c in enumerate(ranking)}
    for (a, b), price in overrides.items():
        ia, ib = pos.get(a), pos.get(b)
        if ia is not None and ib is not None and ia < ib:
            incoming[ib].append((ia, price - default))
            prefix_delta[ib] += price - default

    out: list[tuple[tuple[int, ...], int]] = []
    chosen: list[int] = []
    is_chosen = [False] * m

    def descend(start: int, cost: int):
        if len(chosen) == k:
            out.append((tuple(ranking[i] for i in chosen), cost))
            return
        count = len(chosen)
        for p in range(start, m - (k - count) + 1):
            passes = p - count
            if budget_cap is not None and cost + low * passes > budget_cap:
                break
            step = default * passes + prefix_delta[p]
            for ia, d in incoming[p]:
                if is_chosen[ia]:
                    step -= d
            total = cost + step
            if budget_cap is not None and total > budget_cap:
                continue
            chosen.append(p)
            is_chosen[p] = True
            descend(p + 1, total)
            is_chosen[p] = False
            chosen.pop()

    descend(0, 0)
    return out


def _run_search(
    per_vote_options: list[list[tuple]],
    width: int,
    m: int,
    preferred: int,
    unique: bool,
    budget: int | None,
) -> tuple[int, list[tuple]] | None:
    """Sort each vote's ``(gains, cost, ...)`` options by cost, flatten them, run the search.

    Returns the optimum and each vote's chosen option, or None.
    """
    costs: list[int] = []
    gains: list[int] = []
    offsets = [0]
    flat: list[tuple] = []
    for options in per_vote_options:
        options.sort(key=lambda option: option[1])
        offsets.append(offsets[-1] + len(options))
        flat.extend(options)
        for option in options:
            costs.append(option[1])
            gains.extend(option[0])

    # looked up on the module per call, so a wrapper installed there sees it
    hit = _search.best_assignment(
        offsets, gains, width, costs, m, preferred, unique, -1 if budget is None else budget
    )
    if hit is None:
        return None
    cost, choices = hit
    return cost, [flat[i] for i in choices]


def brute_topk(
    instance: BriberyInstance,
    caps: OracleCaps = DEFAULT_CAPS,
    prune_to_budget: bool = False,
) -> SolveResult:
    """Exhaustive k-approval solver over per-vote one-position sets.

    Default mode reports the unconstrained optimum (minimum cost making the
    preferred candidate win, budget ignored except for the decision). With
    ``prune_to_budget`` only assignments within budget are searched: the
    decision is still exact, and the reported cost is the optimum whenever
    one exists within budget.
    """
    if instance.rule.kind != K_APPROVAL:
        raise DomainError("brute_topk needs a k-approval instance")
    k = instance.rule.k
    election = instance.election
    m = election.m
    rankings = election.expanded_list()

    check_topk_cap(len(rankings), m, k, caps)

    scale, prices, budget = instance.integer_prices()
    budget_cap = budget if prune_to_budget else None
    per_vote_options = [
        topk_options(r, k, prices, idx, budget_cap) for idx, r in enumerate(rankings)
    ]
    hit = _run_search(
        per_vote_options, k, m, instance.preferred, instance.unique_mode, budget_cap
    )
    if hit is None:
        return SolveResult(False, None, None)
    optimum, chosen = hit
    targets = tuple(
        move_to_top_target(r, frozenset(cands)) for r, (cands, _) in zip(rankings, chosen)
    )
    return SolveResult(optimum <= budget, Fraction(optimum, scale), Bribery(targets))


def brute_rankings(
    instance: BriberyInstance,
    caps: OracleCaps = DEFAULT_CAPS,
) -> SolveResult:
    """Exhaustive solver over all per-vote target rankings, any supported rule."""
    election = instance.election
    m = election.m
    rankings = election.expanded_list()

    options = len(rankings) * factorial(m)
    if options > caps.ranking_combinations:
        raise ResourceCapError(
            f"{len(rankings)} votes x {m}! = {options} options exceed cap "
            f"{caps.ranking_combinations}"
        )

    scale, prices, budget = instance.integer_prices()
    targets = list(permutations(range(m)))
    per_vote_costs = [
        [transform_cost(r, t, prices, idx) for t in targets]
        for idx, r in enumerate(rankings)
    ]

    rule = instance.rule
    if rule.kind == K_APPROVAL:
        width = rule.k
        gains_of = lambda t: t[: rule.k]
    elif rule.kind == "scoring" and sum(rule.vector) <= 64:
        width = sum(rule.vector)
        gains_of = lambda t: tuple(
            c for pos, c in enumerate(t) for _ in range(rule.vector[pos])
        )
    else:
        gains_of = None

    if gains_of is None:
        hit = _brute_rankings_generic(instance, rankings, targets, per_vote_costs)
    else:
        per_vote_options = [
            [(gains_of(t), cost, t) for t, cost in zip(targets, costs)]
            for costs in per_vote_costs
        ]
        hit = _run_search(
            per_vote_options, width, m, instance.preferred, instance.unique_mode, None
        )
        if hit is not None:
            hit = hit[0], [t for _, _, t in hit[1]]
    if hit is None:
        return SolveResult(False, None, None)
    optimum, chosen = hit
    return SolveResult(optimum <= budget, Fraction(optimum, scale), Bribery(tuple(chosen)))


def _brute_rankings_generic(
    instance: BriberyInstance,
    rankings: list[Ranking],
    targets: list[Ranking],
    per_vote_costs: list[list[int]],
) -> tuple[int, list[Ranking]] | None:
    """Depth-first search over target rankings, for Bucklin and scoring vectors past 64 points.

    Votes take their targets in ascending cost order, and the best only moves
    on a strict improvement, so the result is the first optimal vector in
    that order. Two cuts keep it:

    - **Cost cut.** As in ``_search.best_assignment``.
    - **Score cut.** Tallies only grow. Under Bucklin, row ``d`` counts the
      assigned votes that rank each candidate in their first ``d + 1``
      places; the winning round comes no later than the first row in which
      some candidate already has a majority. The preferred candidate can win
      only at a row up to that one where its count plus the votes left
      reaches a majority and no rival is past that sum (or at it, for a
      unique winner). A scoring vector keeps one row of scores, and the
      preferred candidate gains at most the top score per vote left.

    Leaves are decided by ``instance.preferred_wins``. The node budget counts
    the options that pass the cost cut. Returns the least winning cost and
    its targets, or None.
    """
    n = len(rankings)
    m = instance.election.m
    rule = instance.rule
    # column 0 of every row holds the preferred candidate
    column = list(range(m))
    column[0], column[instance.preferred] = instance.preferred, 0
    if rule.kind == BUCKLIN:
        rows, top_score, majority = m, 1, n // 2 + 1
        touched = lambda t: [
            (d * m + column[c], 1) for pos, c in enumerate(t) for d in range(pos, m)
        ]
    else:
        rows, top_score, majority = 1, rule.vector[0], 0
        touched = lambda t: [(column[c], s) for s, c in zip(rule.vector, t) if s]
    # each target's (tally index, amount) pairs; targets share equal pairs,
    # which keeps the m! lists small
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    increments = [[shared.setdefault(pair, pair) for pair in touched(t)] for t in targets]
    tie = 0 if instance.unique_mode else 1
    tallies = [0] * (rows * m)
    bases = range(0, rows * m, m)

    order = [
        sorted(range(len(targets)), key=lambda j: per_vote_costs[v][j])
        for v in range(n)
    ]
    suffix_min = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix_min[v] = suffix_min[v + 1] + per_vote_costs[v][order[v][0]]

    best: int | None = None
    best_targets: list[Ranking] | None = None
    current: list[Ranking] = [rankings[v] for v in range(n)]
    max_nodes = _search.MAX_NODES
    nodes = 0

    def descend(v: int, acc: int):
        nonlocal best, best_targets, nodes
        if v == n:
            # the cost and score cuts admit only leaves cheaper than the best
            # so far that can still win
            if instance.preferred_wins(current):
                best = acc
                best_targets = current.copy()
            return
        # the most the preferred candidate still gains in any row
        gain = (n - v - 1) * top_score
        for j in order[v]:
            cost = per_vote_costs[v][j]
            if best is not None and acc + cost + suffix_min[v + 1] >= best:
                break
            nodes += 1
            if nodes > max_nodes:
                raise ResourceCapError(f"search exceeded its node budget of {max_nodes}")
            step = increments[j]
            for i, s in step:
                tallies[i] += s
            # descend if some row up to the first with a majority can still be won
            for base in bases:
                reach = tallies[base] + gain
                lead = max(tallies[base + 1 : base + m], default=-1)
                if reach >= majority and lead < reach + tie:
                    current[v] = targets[j]
                    descend(v + 1, acc + cost)
                    break
                if lead >= majority or tallies[base] >= majority:
                    break
            for i, s in step:
                tallies[i] -= s
        current[v] = rankings[v]

    descend(0, 0)
    return None if best is None else (best, best_targets)
