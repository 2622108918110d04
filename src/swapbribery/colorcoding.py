"""Color-coding search for k-approval, driven by election patterns.

A vote pattern is a k-subset of the colors [1..min(nk, m)]; an election
pattern assigns one to each vote, abstracting which (colored) candidates
occupy the one-positions after a bribery. Color 1 is the preferred candidate's.
The other colors are interchangeable labels, so only canonical patterns
are generated: those whose other colors first appear, reading the votes
in order and each vote's colors ascending, as 2, 3, .... Relabeling a
pattern by first use gives a canonical one with the same counts. A
solution leaves a pattern where 1 occurs at least as often as any other
color; for each, candidates are colored from its palette and each vote
takes the cheapest candidate set matching its colors. Trying every
coloring makes the search complete. Pattern generation and the coloring
loop each stop with ``ResourceCapError`` after ``_search.MAX_NODES`` nodes.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from . import _search
from .core import K_APPROVAL, head_then_rest
from .errors import DomainError, ResourceCapError
from .oracle import check_topk_cap, topk_options
from .swaps import Bribery, BriberyInstance, SolveResult, move_to_top_target, verify_bribery

VotePattern = tuple[int, ...]
ElectionPattern = tuple[VotePattern, ...]


def successful_patterns(
    n: int, k: int, m: int, strict: bool = False
) -> Iterator[ElectionPattern]:
    """Canonical election patterns where color 1 occurs at least as often as any other.

    With ``strict`` (unique-winner search), 1 must occur strictly more
    often than every other color. Patterns use at most ``m`` colors, since
    a coloring of ``m`` candidates shows no more. Patterns come in
    lexicographic order; each vote pattern tried is one node.
    """
    colors = min(n * k, m)
    slack = 0 if strict else 1
    max_nodes = _search.MAX_NODES
    nodes = 0
    counts = [0] * (colors + 1)
    # top -> the vote patterns that may follow a prefix whose highest color
    # is top: new colors must be top+1, top+2, ... in order.
    extensions: dict[int, list[tuple[VotePattern, int]]] = {}
    # Depth first, one level per vote: tops[v] and leads[v] are the highest
    # color and the most votes of a color other than 1 in chosen[:v], and
    # at[v] indexes the extension of tops[v] that vote v is on.
    chosen: list[VotePattern] = []
    tops = [1] * (n + 1)
    leads = [0] * (n + 1)
    at = [0] * (n + 1)
    while True:
        v = len(chosen)
        if v == n:
            yield tuple(chosen)
        else:
            top = tops[v]
            if top not in extensions:
                extensions[top] = [
                    (part, max(top, part[-1]))
                    for part in combinations(range(1, min(top + k, colors) + 1), k)
                    if part[-1] - top <= sum(c > top for c in part)
                ]
            if at[v] < len(extensions[top]):
                part, new_top = extensions[top][at[v]]
                nodes += 1
                if nodes > max_nodes:
                    raise ResourceCapError(f"search exceeded its node budget of {max_nodes}")
                chosen.append(part)
                rival = leads[v]
                for c in part:
                    counts[c] += 1
                    if c != 1 and counts[c] > rival:
                        rival = counts[c]
                # the votes after this one can still add n - v - 1 to color 1
                if rival < counts[1] + n - v - 1 + slack:
                    tops[v + 1] = new_top
                    leads[v + 1] = rival
                    at[v + 1] = 0
                    continue
        # back up past the last vote pattern chosen, to the next one of its vote
        if not chosen:
            return
        for c in chosen.pop():
            counts[c] -= 1
        at[len(chosen)] += 1


def solve_color_coding(instance: BriberyInstance) -> SolveResult:
    """Pattern-driven search for a within-budget bribery.

    Patterns are grouped by their palette, the j colors other than 1 they
    use, and every coloring of the other candidates from the palette,
    j^(m-1) of them, is tried against each pattern of its group. The search
    is complete: the decision matches ground truth. A coloring costs one
    node per pattern it is checked against and per vote option it scans.
    Like ``brute_topk``, it refuses more than ``OracleCaps.topk_combinations``
    top-k sets over all votes before building them. No optimal cost is
    claimed: the witness is the first one found within budget.
    """
    if instance.rule.kind != K_APPROVAL:
        raise DomainError("color coding needs a k-approval instance")
    k = instance.rule.k
    n = instance.election.n_expanded
    m = instance.election.m
    check_topk_cap(n, m, k)
    max_nodes = _search.MAX_NODES

    preferred = instance.preferred
    others = [c for c in range(m) if c != preferred]
    rankings = [head_then_rest(r, m) for r in instance.election.expanded()]
    _, classes, budget = instance.integer_prices()
    # Cheapest first, ties in ascending candidate order, so the first subset
    # of a color set is the one to take; the votes of a class share one list.
    options: list = [None] * n
    for ranking, price, overrides, votes in classes:
        shared = sorted(topk_options(ranking, k, price, overrides, budget), key=lambda o: (o[1], sorted(o[0])))
        for v in votes:
            options[v] = shared
    # Patterns as color bitmasks, grouped by their highest color; a pattern
    # of color 1 alone joins the group of palette {2}, where it loses nothing.
    masks: dict[VotePattern, int] = {}
    groups: dict[int, list[tuple[int, ...]]] = {}
    for pattern in successful_patterns(n, k, m, strict=instance.unique_mode):
        top = max(2, *(part[-1] for part in pattern))
        for part in pattern:
            if part not in masks:
                masks[part] = sum(1 << c for c in part)
        groups.setdefault(top, []).append(tuple(masks[part] for part in pattern))

    scanned = sum(map(len, options))
    nodes = 0
    bit = [0] * m
    bit[preferred] = 1 << 1
    for top, group in sorted(groups.items()):
        for coloring in product(range(2, top + 1), repeat=len(others)):
            nodes += len(group) + scanned
            if nodes > max_nodes:
                raise ResourceCapError(f"search exceeded its node budget of {max_nodes}")
            for c, color in zip(others, coloring):
                bit[c] = 1 << color
            cheapest = []
            for vote_options in options:
                best = {}
                for option in vote_options:
                    mask = 0
                    for c, _ in option[0]:
                        mask |= bit[c]
                    if mask.bit_count() == k and mask not in best:
                        best[mask] = option
                cheapest.append(best)
            for pattern in group:
                picks = [best.get(part) for best, part in zip(cheapest, pattern)]
                if None in picks or sum(cost for _, cost in picks) > budget:
                    continue
                witness = Bribery(tuple(
                    move_to_top_target(r, frozenset(c for c, _ in steps)) for r, (steps, _) in zip(rankings, picks)
                ))
                if verify_bribery(instance, witness).is_solution:
                    return SolveResult(True, None, witness)
    return SolveResult(False, None, None)
