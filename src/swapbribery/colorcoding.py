"""Color-coding search for k-approval, driven by election patterns.

A vote pattern is a k-subset of the integers [1..nk]; an election pattern
assigns one to each vote, abstracting which (colored) candidates occupy
the one-positions after a bribery. Patterns where 1 (the preferred
candidate's reserved color) occurs at least as often as any other element
are the ones a solution can produce. For each such pattern, candidates
are colored and each vote takes the cheapest candidate set matching its
pattern colors; exhaustive coloring enumeration makes the search complete
at desk scale, random coloring gives the one-sided fast variant.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product
from typing import Iterator

from .core import K_APPROVAL, Ranking
from .errors import DomainError, ResourceCapError
from .oracle import topk_options
from .swaps import (
    Bribery,
    BriberyInstance,
    SolveResult,
    move_to_top_target,
    verify_bribery,
)

VotePattern = tuple[int, ...]
ElectionPattern = tuple[VotePattern, ...]

# Size limits, read at every call; exceeding one raises ResourceCapError.
MAX_PATTERN_SIZE = 12  # bound on n*k
MAX_COLORINGS = 10**6  # bound on |A|^(m-1) per pattern


def vote_patterns(nk: int, k: int) -> Iterator[VotePattern]:
    """All k-subsets of [1..nk], ascending."""
    return combinations(range(1, nk + 1), k)


def successful_patterns(n: int, k: int, strict: bool = False) -> Iterator[ElectionPattern]:
    """Election patterns where element 1 occurs at least as often as any other.

    With ``strict`` (unique-winner search), 1 must occur strictly more
    often than every other element.
    """
    nk = n * k
    if nk > MAX_PATTERN_SIZE:
        raise ResourceCapError(f"n*k = {nk} exceeds pattern cap {MAX_PATTERN_SIZE}")
    for pattern in product(vote_patterns(nk, k), repeat=n):
        counts = Counter()
        for part in pattern:
            counts.update(part)
        ones = counts.get(1, 0)
        rest = [c for e, c in counts.items() if e != 1]
        if strict:
            if all(c < ones for c in rest):
                yield pattern
        else:
            if all(c <= ones for c in rest):
                yield pattern


def _others(instance: BriberyInstance) -> list[int]:
    return [c for c in range(instance.election.m) if c != instance.preferred]


def _try_coloring(
    instance: BriberyInstance,
    rankings: list[Ranking],
    patterns: list[ElectionPattern],
    coloring: dict[int, int | None],
    options: list[list[tuple[tuple[int, ...], int]]],
    budget: int,
) -> Bribery | None:
    """Evaluate one coloring against many patterns sharing a color set."""
    k = instance.rule.k
    per_vote: list[dict[frozenset[int], tuple[tuple[int, ...], int]]] = []
    for vote_options in options:
        sig_best: dict[frozenset[int], tuple[tuple[int, ...], int]] = {}
        for cands, cost in vote_options:
            colors = {coloring.get(c) for c in cands}
            if None in colors or len(colors) != k:
                continue
            sig_best.setdefault(frozenset(colors), (cands, cost))
        per_vote.append(sig_best)

    for pattern in patterns:
        total = 0
        picks = []
        for idx, part in enumerate(pattern):
            hit = per_vote[idx].get(frozenset(part))
            if hit is None:
                picks = None
                break
            picks.append(hit[0])
            total += hit[1]
        if picks is None or total > budget:
            continue
        targets = tuple(
            move_to_top_target(r, frozenset(c)) for r, c in zip(rankings, picks)
        )
        witness = Bribery(targets)
        if verify_bribery(instance, witness).is_solution:
            return witness
    return None


def solve_color_coding(
    instance: BriberyInstance,
    mode: str = "exhaustive",
    trials: int | None = None,
    seed: int = 0,
) -> SolveResult:
    """Pattern-driven search for a within-budget bribery.

    ``exhaustive`` enumerates every coloring with colors drawn from each
    pattern's color set and is complete: the decision matches ground
    truth. ``random`` samples ``trials`` colorings per pattern (at least
    1; default (nk-1)^(nk-1)) and is one-sided: any returned bribery is
    verified, a miss proves nothing. ``auto`` is exhaustive when (nk-1)^(m-1)
    colorings fit the colorings cap, else random. No optimal cost is
    claimed: the witness is the first one found within budget.
    """
    if instance.rule.kind != K_APPROVAL:
        raise DomainError("color coding needs a k-approval instance")
    if mode not in ("auto", "exhaustive", "random"):
        raise DomainError(f"unknown mode {mode!r}")
    if trials is not None and trials < 1:
        raise DomainError(f"trials must be at least 1, not {trials}")
    k = instance.rule.k
    n = instance.election.n_expanded
    m = instance.election.m
    nk = n * k
    if nk > MAX_PATTERN_SIZE:
        raise ResourceCapError(f"n*k = {nk} exceeds pattern cap {MAX_PATTERN_SIZE}")
    if mode == "auto":
        mode = "exhaustive" if max(1, nk - 1) ** (m - 1) <= MAX_COLORINGS else "random"

    others = _others(instance)
    rankings = instance.election.expanded_list()
    _, prices, budget = instance.integer_prices()
    # Cheapest first, ties in ascending candidate order, so the first subset
    # of a color set is the one to take.
    options = [
        sorted(topk_options(r, k, prices, idx, budget), key=lambda o: (o[1], sorted(o[0])))
        for idx, r in enumerate(rankings)
    ]
    patterns = list(successful_patterns(n, k, strict=instance.unique_mode))

    if mode == "random":
        rng = random.Random(seed)
        if trials is None:
            trials = max(1, (nk - 1) ** (nk - 1))
        for pattern in patterns:
            palette = sorted({e for part in pattern for e in part if e != 1})
            rounds = trials if palette else 1
            for _ in range(rounds):
                coloring: dict[int, int | None] = {instance.preferred: 1}
                for c in others:
                    coloring[c] = rng.choice(palette) if palette else None
                witness = _try_coloring(instance, rankings, [pattern], coloring, options, budget)
                if witness is not None:
                    return SolveResult(True, None, witness)
        return SolveResult(False, None, None)

    by_palette: dict[tuple[int, ...], list[ElectionPattern]] = {}
    for pattern in patterns:
        palette = tuple(sorted({e for part in pattern for e in part if e != 1}))
        by_palette.setdefault(palette, []).append(pattern)

    for palette, group in sorted(by_palette.items()):
        size = len(palette) ** len(others) if palette else 1
        if size > MAX_COLORINGS:
            raise ResourceCapError(
                f"{len(palette)}^{len(others)} colorings exceed cap {MAX_COLORINGS}"
            )
        assignments = product(palette, repeat=len(others)) if palette else iter([()])
        for values in assignments:
            coloring = {instance.preferred: 1}
            for c, value in zip(others, values):
                coloring[c] = value
            if not values:
                for c in others:
                    coloring[c] = None
            witness = _try_coloring(instance, rankings, group, coloring, options, budget)
            if witness is not None:
                return SolveResult(True, None, witness)
    return SolveResult(False, None, None)
