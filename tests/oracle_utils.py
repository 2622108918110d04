"""Independent reference computations used to pin expected test values.

These deliberately avoid the code paths they check: swap costs are
re-derived as shortest paths in the full graph of rankings connected by
single adjacent swaps, bribery by plain enumeration of every target
ranking, Possible Winner by enumeration of every joint linear extension,
and clique existence by direct enumeration. Also here: the
helpers only tests use, and ``brute``, the exact oracle without its option
caps. Nothing here asserts, since ``python -O`` strips asserts outside
the modules pytest rewrites.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import combinations, groupby, islice, permutations, product
from math import lcm

from swapbribery.core import K_APPROVAL, UNIQUE_WINNER, Election, Ranking, Vote, winners_of_rankings
from swapbribery.errors import ResourceCapError
from swapbribery.oracle import OracleCaps, brute_rankings, brute_topk
from swapbribery.reductions import PartialVote, PossibleWinnerInstance
from swapbribery.swaps import Bribery, BriberyInstance, SwapCostFunction, transform_cost

UNCAPPED = OracleCaps(topk_combinations=10**60, ranking_combinations=10**60)


def brute(instance: BriberyInstance):
    """What ``solve --algorithm brute`` runs, without its option caps."""
    if instance.rule.kind == K_APPROVAL:
        return brute_topk(instance, caps=UNCAPPED)
    return brute_rankings(instance, caps=UNCAPPED)


def lines_priced_per_copy(votes, prices) -> tuple[tuple[Vote, ...], SwapCostFunction]:
    """Vote lines and their cost function for ``(default, overrides)`` prices drawn
    per expanded copy of ``votes``. A cost function prices whole lines, so each
    line splits into runs of adjacent copies with equal prices, one line each:
    the expanded votes and their prices stay as drawn."""
    lines, defaults, tables = [], [], []
    copies = iter(prices)
    for vote in votes:
        for (default, table), run in groupby(islice(copies, vote.multiplicity)):
            lines.append(Vote(vote.ranking, sum(1 for _ in run)))
            defaults.append(default)
            tables.append(table)
    return tuple(lines), SwapCostFunction(defaults, tables)


def enumerate_rankings(instance: BriberyInstance):
    """(decision, optimum, witness) by plain enumeration of every target ranking.

    Each vote's targets are stably sorted by cost, the product is walked in
    order and the first strictly cheaper winning vector is kept.
    """
    m = instance.election.m
    per_vote = [
        sorted(
            ((transform_cost(vote.ranking, t, instance.costs, line), t) for t in permutations(range(m))),
            key=lambda option: option[0],
        )
        for line, vote in enumerate(instance.election.votes)
        for _ in range(vote.multiplicity)
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


def bribed_election(instance: BriberyInstance, bribery: Bribery) -> Election:
    """The election obtained by replacing each expanded vote with its target."""
    return Election(instance.election.candidates, tuple(Vote(t) for t in bribery.targets))


def bucklin_winning_round(election: Election) -> int:
    """Smallest depth at which some candidate is ranked by a strict majority."""
    rankings = election.expanded_list()
    return next(d for d in range(1, election.m + 1) if any(
        2 * sum(c in r[:d] for r in rankings) > len(rankings) for c in range(election.m)))


def random_partial_votes(m: int, n: int, seed: int, density: float = 0.4) -> tuple[PartialVote, ...]:
    """Seeded partial orders: random subsets of random linear orders."""
    rng = random.Random(seed)
    votes = []
    for _ in range(n):
        order = rng.sample(range(m), m)
        pairs = set()
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < density:
                    pairs.add((order[i], order[j]))
        votes.append(PartialVote(m, frozenset(pairs)))
    return tuple(votes)


def linear_extensions(vote: PartialVote, cap: int | None = None):
    """All linear extensions of a partial vote, in lexicographic order."""
    succs: list[list[int]] = [[] for _ in range(vote.m)]
    indeg = [0] * vote.m
    for a, b in vote.pairs:
        succs[a].append(b)
        indeg[b] += 1
    prefix: list[int] = []
    used = [False] * vote.m
    count = 0

    def descend():
        nonlocal count
        if len(prefix) == vote.m:
            count += 1
            if cap is not None and count > cap:
                raise ResourceCapError(f"more than {cap} linear extensions")
            yield tuple(prefix)
            return
        for c in range(vote.m):
            if used[c] or indeg[c] > 0:
                continue
            used[c] = True
            for b in succs[c]:
                indeg[b] -= 1
            prefix.append(c)
            yield from descend()
            prefix.pop()
            for b in succs[c]:
                indeg[b] += 1
            used[c] = False

    yield from descend()


def possible_winner_brute(pw: PossibleWinnerInstance, cap: int = 10**6) -> bool:
    """Exhaustive decision: some joint extension makes the candidate win."""
    per_vote: list[list[Ranking]] = []
    total = 1
    for vote in pw.votes:
        exts = list(linear_extensions(vote, cap=cap))
        total *= len(exts)
        if total > cap:
            raise ResourceCapError(f"extension combinations exceed cap {cap}")
        per_vote.append(exts)
    m = len(pw.candidates)
    for profile in product(*per_vote):
        if pw.preferred in winners_of_rankings(list(profile), m, pw.rule):
            return True
    return False


def swap_graph_shortest_path(
    source: Ranking,
    target: Ranking,
    costs: SwapCostFunction,
    vote: int,
) -> Fraction:
    """Cheapest path from source to target where each step swaps one
    adjacent pair, priced by the pair as currently ordered."""
    m = len(source)
    dist = {source: Fraction(0)}
    heap = [(Fraction(0), source)]
    counter = 0
    while heap:
        d, ranking = heapq.heappop(heap)
        if ranking == target:
            return d
        if d > dist[ranking]:
            continue
        for i in range(m - 1):
            a, b = ranking[i], ranking[i + 1]
            step = costs.cost(vote, a, b)
            nxt = ranking[:i] + (b, a) + ranking[i + 2 :]
            nd = d + step
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                counter += 1
                heapq.heappush(heap, (nd, nxt))
    raise AssertionError("target ranking unreachable; not a permutation?")


def min_cost_with_top_set(
    source: Ranking,
    chosen: frozenset[int],
    costs: SwapCostFunction,
    vote: int,
    transform,
) -> Fraction:
    """Minimum transformation cost over every ranking whose top-|chosen|
    positions hold exactly the chosen set."""
    k = len(chosen)
    rest = [c for c in source if c not in chosen]
    best = None
    for top in permutations(sorted(chosen)):
        for bottom in permutations(rest):
            cost = transform(source, top + bottom, costs, vote)
            if best is None or cost < best:
                best = cost
    return best


def clique_exists(n: int, edges, size: int) -> bool:
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    return any(
        all((min(u, v), max(u, v)) in edge_set for u, v in combinations(group, 2))
        for group in combinations(range(n), size)
    )
