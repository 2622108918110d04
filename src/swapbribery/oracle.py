"""Brute-force exact solvers; ground truth for every other solver.

Both oracles enumerate plainly and exist to be obviously correct. The
k-approval and scoring searches run on ``swapbribery._search``, whose only
cleverness is cutting branches that cannot hold a better winning leaf: by
cost (the budget or the best total so far), by score (the leading rival
already beats what the preferred candidate can still collect) and by
symmetry (identical votes choose non-decreasing options). It returns the
lexicographically first optimal choice vector with or without the cuts,
so the optimum and the witness do not depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm

from . import _search
from .core import K_APPROVAL, Ranking, winners_of_rankings
from .errors import DomainError, ResourceCapError
from .swaps import (
    Bribery,
    BriberyInstance,
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
    """Enumeration size limits; exceeding one raises ResourceCapError."""

    topk_combinations: int = 10**7
    ranking_combinations: int = 10**6


DEFAULT_CAPS = OracleCaps()


@dataclass(frozen=True)
class BruteResult:
    decision: bool
    optimal_cost: Fraction | None
    witness: Bribery | None


def _topk_vote_options(
    ranking: Ranking,
    k: int,
    instance: BriberyInstance,
    vote: int,
    budget_cap: Fraction | None,
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Every k-subset of one vote with its move-to-top cost.

    With ``budget_cap`` set, subsets dearer than the cap are dropped; the
    enumeration exploits that re-based pair costs are non-negative, so the
    default-part of the cost grows with position and allows cutting.
    """
    m = len(ranking)
    if budget_cap is not None:
        base, deltas = instance.costs.lowered(vote, m)
    else:
        # no pruning, so deltas may be negative; skip the re-basing
        base = instance.costs.default(vote)
        deltas = {
            pair: value - base
            for pair, value in instance.costs.overrides(vote).items()
        }
    incoming: list[list[tuple[int, Fraction]]] = [[] for _ in range(m)]
    prefix_delta = [Fraction(0)] * m
    if deltas:
        pos = {c: i for i, c in enumerate(ranking)}
        for (a, b), d in deltas.items():
            ia, ib = pos.get(a), pos.get(b)
            if ia is not None and ib is not None and ia < ib:
                incoming[ib].append((ia, d))
                prefix_delta[ib] += d

    out: list[tuple[tuple[int, ...], Fraction]] = []
    chosen: list[int] = []
    is_chosen = [False] * m

    def descend(start: int, cost: Fraction):
        if len(chosen) == k:
            out.append((tuple(ranking[i] for i in chosen), cost))
            return
        count = len(chosen)
        for p in range(start, m - (k - count) + 1):
            step_base = base * (p - count)
            if budget_cap is not None and cost + step_base > budget_cap:
                break
            step = step_base + prefix_delta[p]
            if incoming[p]:
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

    descend(0, Fraction(0))
    return out


def _scaled_ints(values: list[Fraction], extra: list[Fraction]) -> tuple[list[int], list[int], int]:
    """Common-denominator integer images of two Fraction lists."""
    scale = 1
    for v in values:
        scale = lcm(scale, v.denominator)
    for v in extra:
        scale = lcm(scale, v.denominator)
    return (
        [int(v * scale) for v in values],
        [int(v * scale) for v in extra],
        scale,
    )


def _run_search(
    per_vote_options: list[list[tuple[tuple[int, ...], Fraction]]],
    width: int,
    m: int,
    preferred: int,
    unique: bool,
    budget: Fraction | None,
):
    """Scale costs to integers, flatten, run the search."""
    flat_costs: list[Fraction] = []
    for options in per_vote_options:
        options.sort(key=lambda oc: oc[1])
        flat_costs.extend(c for _, c in options)
    scaled, extra, scale = _scaled_ints(flat_costs, [budget] if budget is not None else [])
    budget_int = extra[0] if budget is not None else -1

    offsets = [0]
    gains: list[int] = []
    for options in per_vote_options:
        offsets.append(offsets[-1] + len(options))
        for cands, _ in options:
            gains.extend(cands)

    # looked up on the module per call, so a wrapper installed there sees it
    hit = _search.best_assignment(
        offsets, gains, width, scaled, m, preferred, unique, budget_int
    )
    if hit is None:
        return None
    cost_int, choices = hit
    local = [choices[v] - offsets[v] for v in range(len(per_vote_options))]
    return Fraction(cost_int, scale), local


def brute_topk(
    instance: BriberyInstance,
    caps: OracleCaps = DEFAULT_CAPS,
    prune_to_budget: bool = False,
) -> BruteResult:
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

    per_vote = comb(m, k)
    if per_vote > caps.topk_combinations:
        raise ResourceCapError(
            f"C({m},{k}) = {per_vote} exceeds cap {caps.topk_combinations}"
        )
    if not prune_to_budget:
        total = 1
        for _ in rankings:
            total *= per_vote
            if total > caps.topk_combinations:
                raise ResourceCapError(
                    f"C({m},{k})^{len(rankings)} exceeds cap {caps.topk_combinations}"
                )

    budget_cap = instance.budget if prune_to_budget else None
    per_vote_options = [
        _topk_vote_options(r, k, instance, idx, budget_cap)
        for idx, r in enumerate(rankings)
    ]
    if prune_to_budget:
        total = 1
        for options in per_vote_options:
            total *= max(1, len(options))
            if total > caps.topk_combinations:
                raise ResourceCapError(
                    f"affordable combinations exceed cap {caps.topk_combinations}"
                )
        if any(not options for options in per_vote_options):
            return BruteResult(False, None, None)

    hit = _run_search(
        per_vote_options,
        k,
        m,
        instance.preferred,
        instance.unique_mode,
        budget_cap,
    )
    if hit is None:
        return BruteResult(False, None, None)
    optimum, local = hit
    targets = tuple(
        move_to_top_target(r, frozenset(per_vote_options[v][i][0]))
        for v, (r, i) in enumerate(zip(rankings, local))
    )
    return BruteResult(optimum <= instance.budget, optimum, Bribery(targets))


def brute_rankings(
    instance: BriberyInstance,
    caps: OracleCaps = DEFAULT_CAPS,
) -> BruteResult:
    """Exhaustive solver over all per-vote target rankings, any supported rule."""
    election = instance.election
    m = election.m
    rankings = election.expanded_list()
    n = len(rankings)

    per_vote = factorial(m)
    total = 1
    for _ in range(n):
        total *= per_vote
        if total > caps.ranking_combinations:
            raise ResourceCapError(
                f"(m!)^n = {per_vote}**{n} exceeds cap {caps.ranking_combinations}"
            )

    targets = list(permutations(range(m)))
    per_vote_costs = [
        [transform_cost(r, t, instance.costs, idx) for t in targets]
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
        return _brute_rankings_generic(instance, rankings, targets, per_vote_costs)

    per_vote_options = [
        [(gains_of(t), cost) for t, cost in zip(targets, costs)]
        for costs in per_vote_costs
    ]
    # Mirror of per_vote_options under the same stable sort by cost, so a
    # local option index maps back to its target ranking.
    per_vote_targets = [
        [t for t, _ in sorted(zip(targets, costs), key=lambda tc: tc[1])]
        for costs in per_vote_costs
    ]
    hit = _run_search(
        per_vote_options,
        width,
        m,
        instance.preferred,
        instance.unique_mode,
        None,
    )
    if hit is None:
        return BruteResult(False, None, None)
    optimum, local = hit
    witness = Bribery(tuple(per_vote_targets[v][i] for v, i in enumerate(local)))
    return BruteResult(optimum <= instance.budget, optimum, witness)


def _brute_rankings_generic(
    instance: BriberyInstance,
    rankings: list[Ranking],
    targets: list[Ranking],
    per_vote_costs: list[list[Fraction]],
) -> BruteResult:
    """Plain DFS with full winner evaluation at the leaves (Bucklin etc.)."""
    n = len(rankings)
    m = instance.election.m
    order = [
        sorted(range(len(targets)), key=lambda j: per_vote_costs[v][j])
        for v in range(n)
    ]
    suffix_min = [Fraction(0)] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix_min[v] = suffix_min[v + 1] + per_vote_costs[v][order[v][0]]

    best: Fraction | None = None
    best_targets: list[Ranking] | None = None
    current: list[Ranking] = [rankings[v] for v in range(n)]

    def descend(v: int, acc: Fraction):
        nonlocal best, best_targets
        if v == n:
            winning = winners_of_rankings(current, m, instance.rule)
            if instance.unique_mode:
                ok = winning == frozenset({instance.preferred})
            else:
                ok = instance.preferred in winning
            if ok and (best is None or acc < best):
                best = acc
                best_targets = current.copy()
            return
        for j in order[v]:
            cost = per_vote_costs[v][j]
            if best is not None and acc + cost + suffix_min[v + 1] >= best:
                break
            current[v] = targets[j]
            descend(v + 1, acc + cost)
        current[v] = rankings[v]

    descend(0, Fraction(0))
    if best is None:
        return BruteResult(False, None, None)
    return BruteResult(
        best <= instance.budget, best, Bribery(tuple(best_targets))
    )
