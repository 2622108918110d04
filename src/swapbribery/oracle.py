"""Brute-force exact solvers; ground truth for every other solver.

Both oracles exist to be obviously correct. They build the options (top-k
sets or target rankings) with their costs once per vote class,
``swaps.vote_classes``, and hand them to one depth-first search,
``swapbribery._search.best_assignment``, a class's options once for its
votes. The search's only cleverness is cutting branches that cannot hold a
better winning leaf: by cost (the budget or the best total so far), by
score (the leading rival already beats what the preferred candidate can
still collect, round by round under Bucklin), by swing (taking a rival's
lead costs too much) and by symmetry (a class's votes choose non-decreasing
options). It returns the first optimal choice vector in its order with or
without the cuts, so the optimum and the witness do not depend on them.

A unique-winner instance of a score-based rule in which some rival is sure
to reach the most the preferred candidate can collect is answered no before
anything is built. Nothing else bounds the number of vote combinations up
front. The number of options built is capped, and the search stops with
``ResourceCapError`` once it has scanned ``_search.MAX_NODES`` options that
pass its cost cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import _search
from .core import BUCKLIN, K_APPROVAL, Ranking, head_then_rest
from .errors import DomainError, ResourceCapError
from .swaps import (
    Bribery,
    BriberyInstance,
    PairCosts,
    SolveResult,
    move_to_top_target,
    target_costs,
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
    1-4 us (a ranking, priced with its vote's other targets in one walk),
    so the defaults bound building to about 0.15 s and 0.1 s.
    """

    topk_combinations: int = 5 * 10**4
    ranking_combinations: int = 2 * 10**4


DEFAULT_CAPS = OracleCaps()


def check_topk_cap(n_votes: int, m: int, k: int, caps: OracleCaps = DEFAULT_CAPS) -> None:
    """Refuse, before building, more than ``caps.topk_combinations`` top-k sets over all votes.

    n * C(m, k) is built as n * C(m - j + i, i) for i = 0..j, j = min(k, m - k),
    which never decreases, so it stops once past the cap: no big integer is built.
    """
    cap = caps.topk_combinations
    j = min(k, m - k)
    options = n_votes if j >= 0 else 0
    for i in range(1, j + 1):
        if options > cap:
            break
        options = options * (m - j + i) // i
    if options > cap:
        raise ResourceCapError(f"{n_votes} votes x C({m},{k}) options exceed cap {cap}")


def factorial_exceeds(n: int, m: int, cap: int) -> bool:
    """Whether n * m! passes ``cap``; the running product stops once past it."""
    product = n
    for i in range(2, m + 1):
        if product > cap:
            break
        product *= i
    return product > cap


def topk_options(
    ranking: Ranking,
    k: int,
    price: int,
    overrides: PairCosts,
    budget_cap: int | None,
) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """Every k-subset of one vote class with its move-to-top cost, on its int prices.

    Each option is ``(increments, cost)``, in the form ``_search`` reads: a
    shared ``(c, 1)`` per approved candidate c, in ranking order. ``price``
    and ``overrides`` are a class's of ``BriberyInstance.integer_prices``.
    Lifting the candidate at position p past the unchosen ones above it costs
    the default ``price`` per pass, corrected by each override it meets.
    With ``budget_cap`` set, subsets dearer than the cap are dropped: every
    pass costs at least the vote's cheapest price, so that price times the
    passes bounds a lift from below, grows with position and allows cutting.
    """
    m = len(ranking)
    low = min((price, *overrides.values()))
    incoming: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    prefix_delta = [0] * m
    pos = {c: i for i, c in enumerate(ranking)}
    pairs = [(c, 1) for c in ranking]
    for (a, b), value in overrides.items():
        ia, ib = pos.get(a), pos.get(b)
        if ia is not None and ib is not None and ia < ib:
            incoming[ib].append((ia, value - price))
            prefix_delta[ib] += value - price

    out: list[tuple[tuple[tuple[int, int], ...], int]] = []
    # Depth first, one level per approved position: chosen holds the positions
    # approved so far, at costs[len(chosen)], and p is the next one tried.
    chosen: list[int] = []
    costs = [0] * (k + 1)
    is_chosen = [False] * m
    p = 0
    while True:
        count = len(chosen)
        if count == k:
            out.append((tuple(map(pairs.__getitem__, chosen)), costs[k]))
        elif p <= m - (k - count):
            passes = p - count
            cost = costs[count]
            if budget_cap is None or cost + low * passes <= budget_cap:
                step = price * passes + prefix_delta[p]
                for ia, d in incoming[p]:
                    if is_chosen[ia]:
                        step -= d
                if budget_cap is None or cost + step <= budget_cap:
                    chosen.append(p)
                    is_chosen[p] = True
                    costs[count + 1] = cost + step
                p += 1
                continue
        # back up past the last position approved, to the one after it
        if not chosen:
            return out
        p = chosen.pop()
        is_chosen[p] = False
        p += 1


def _run_search(
    classes: list[tuple[list[tuple], tuple[int, ...]]],
    rows: int,
    m: int,
    unique: bool,
    budget: int | None,
    preferred: int,
) -> tuple[int, list] | None:
    """Search one ``(options, votes)`` pair per vote class, options being ``(increments, cost, ...)``.

    Each class's options are sorted by cost and laid out once, for its votes
    side by side, so the search's symmetry cut sees every copy of a vote.
    Returns the optimum and each vote's chosen option, in vote order, or None.
    """
    laid_out: list = []
    offsets = [0]
    order: list[int] = []
    for options, votes in classes:
        options.sort(key=lambda option: option[1])
        laid_out += options
        offsets.append(len(laid_out))
        order += votes
    sizes = [len(votes) for _, votes in classes]
    increments = [option[0] for option in laid_out]
    costs = [option[1] for option in laid_out]

    # looked up on the module per call, so a wrapper installed there sees it
    hit = _search.best_assignment(
        offsets, sizes, increments, costs, rows, m, unique, -1 if budget is None else budget, preferred
    )
    if hit is None:
        return None
    cost, choices = hit
    return cost, [laid_out[i] for _, i in sorted(zip(order, choices))]


def _points(rule, m: int) -> tuple[int, ...]:
    """The score of each position under k-approval or a scoring vector."""
    return (1,) * rule.k + (0,) * (m - rule.k) if rule.kind == K_APPROVAL else rule.vector


def _hopeless(instance: BriberyInstance) -> bool:
    """Whether no bribery makes the preferred candidate the unique winner of a score-based rule.

    With n votes and vector s of sum S, the preferred candidate collects at
    most n * s[0], so its m - 1 rivals share at least n * S - n * s[0] points
    and one of them gets at least that over m - 1, rounded up. Once that
    reaches n * s[0], no bribery wins. Co-winners are never hopeless this way,
    since s[0] * m >= S.
    """
    rule, m = instance.rule, instance.election.m
    if not instance.unique_mode or not rule.is_score_based or m < 2:
        return False
    points = _points(rule, m)
    n = instance.election.n_expanded
    top = n * points[0]
    return -(-(n * sum(points) - top) // (m - 1)) >= top


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
    if _hopeless(instance):
        return SolveResult(False, None, None)
    k = instance.rule.k
    election = instance.election
    m = election.m

    check_topk_cap(election.n_expanded, m, k, caps)

    scale, classes, budget = instance.integer_prices()
    budget_cap = budget if prune_to_budget else None
    searched = [
        (topk_options(ranking, k, price, overrides, budget_cap), votes)
        for ranking, price, overrides, votes in classes
    ]
    hit = _run_search(searched, 1, m, instance.unique_mode, budget_cap, instance.preferred)
    if hit is None:
        return SolveResult(False, None, None)
    optimum, chosen = hit
    targets = tuple(
        move_to_top_target(head_then_rest(r, m), frozenset(c for c, _ in steps))
        for r, (steps, _) in zip(election.expanded(), chosen)
    )
    return SolveResult(optimum <= budget, Fraction(optimum, scale), Bribery(targets))


def brute_rankings(
    instance: BriberyInstance,
    caps: OracleCaps = DEFAULT_CAPS,
) -> SolveResult:
    """Exhaustive solver over all per-vote target rankings, any supported rule.

    Each vote's m! targets are priced in one walk, ``swaps.target_costs``.
    """
    if _hopeless(instance):
        return SolveResult(False, None, None)
    m = instance.election.m
    n_votes = instance.election.n_expanded

    if factorial_exceeds(n_votes, m, caps.ranking_combinations):
        raise ResourceCapError(f"{n_votes} votes x {m}! options exceed cap {caps.ranking_combinations}")

    scale, classes, budget = instance.integer_prices()
    targets = list(permutations(range(m)))

    rule = instance.rule
    # placed[pos][c]: the increments of candidate c at position pos
    if rule.kind == BUCKLIN:
        rows = m
        placed = [
            [[(d * m + c, 1) for d in range(pos, m)] for c in range(m)]
            for pos in range(m)
        ]
    else:
        rows = 1
        placed = [[[(c, s)] if s else [] for c in range(m)] for s in _points(rule, m)]
    # each target's increments; targets share equal pairs, which keeps the m!
    # lists small
    increments = [[pair for pos, c in enumerate(t) for pair in placed[pos][c]] for t in targets]
    searched = [
        (list(zip(increments, target_costs(ranking, price, overrides, range(m)), targets)), votes)
        for ranking, price, overrides, votes in classes
    ]
    hit = _run_search(searched, rows, m, instance.unique_mode, None, instance.preferred)
    if hit is None:
        return SolveResult(False, None, None)
    optimum, chosen = hit
    return SolveResult(optimum <= budget, Fraction(optimum, scale), Bribery(tuple(t for _, _, t in chosen)))
