"""Brute-force exact solvers; ground truth for every other solver.

Both oracles exist to be obviously correct. They build each vote's options
(top-k sets or target rankings) with their costs and hand them to one
depth-first search, ``swapbribery._search.best_assignment``, whose only
cleverness is cutting branches that cannot hold a better winning leaf: by
cost (the budget or the best total so far), by score (the leading rival
already beats what the preferred candidate can still collect, round by
round under Bucklin) and by symmetry (identical votes choose non-decreasing
options). It returns the first optimal choice vector in its order with or
without the cuts, so the optimum and the witness do not depend on them.

Nothing bounds the number of vote combinations up front. The number of
options built is capped, and the search stops with ``ResourceCapError``
once it has scanned ``_search.MAX_NODES`` options that pass its cost cut.
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
    rows: int,
    m: int,
    unique: bool,
    budget: int | None,
) -> tuple[int, list] | None:
    """Sort each vote's ``(increments, cost, payload)`` options by cost, flatten them, run the search.

    Returns the optimum and each vote's chosen payload, or None.
    """
    costs: list[int] = []
    increments: list[list[tuple[int, int]]] = []
    offsets = [0]
    payloads: list = []
    for options in per_vote_options:
        options.sort(key=lambda option: option[1])
        offsets.append(offsets[-1] + len(options))
        for step, cost, payload in options:
            increments.append(step)
            costs.append(cost)
            payloads.append(payload)

    # looked up on the module per call, so a wrapper installed there sees it
    hit = _search.best_assignment(
        offsets, increments, costs, rows, m, unique, -1 if budget is None else budget
    )
    if hit is None:
        return None
    cost, choices = hit
    return cost, [payloads[i] for i in choices]


def _columns(m: int, preferred: int) -> list[int]:
    """Each candidate's tally column: the search keeps the preferred candidate in column 0."""
    column = list(range(m))
    column[0], column[preferred] = preferred, 0
    return column


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
    pairs = [(c, 1) for c in _columns(m, instance.preferred)]
    per_vote_options = [
        [
            (tuple(map(pairs.__getitem__, cands)), cost, cands)
            for cands, cost in topk_options(r, k, prices, idx, budget_cap)
        ]
        for idx, r in enumerate(rankings)
    ]
    hit = _run_search(per_vote_options, 1, m, instance.unique_mode, budget_cap)
    if hit is None:
        return SolveResult(False, None, None)
    optimum, chosen = hit
    targets = tuple(
        move_to_top_target(r, frozenset(cands)) for r, cands in zip(rankings, chosen)
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
    column = _columns(m, instance.preferred)
    if rule.kind == BUCKLIN:
        rows = m
        touched = lambda t: [
            (d * m + column[c], 1) for pos, c in enumerate(t) for d in range(pos, m)
        ]
    else:
        rows = 1
        points = (1,) * rule.k if rule.kind == K_APPROVAL else rule.vector
        touched = lambda t: [(column[c], s) for s, c in zip(points, t) if s]
    # each target's increments; targets share equal pairs, which keeps the m!
    # lists small
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    increments = [[shared.setdefault(pair, pair) for pair in touched(t)] for t in targets]
    per_vote_options = [
        list(zip(increments, costs, targets)) for costs in per_vote_costs
    ]
    hit = _run_search(per_vote_options, rows, m, instance.unique_mode, None)
    if hit is None:
        return SolveResult(False, None, None)
    optimum, chosen = hit
    return SolveResult(optimum <= budget, Fraction(optimum, scale), Bribery(tuple(chosen)))
