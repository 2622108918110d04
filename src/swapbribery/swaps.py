"""Swaps between adjacent candidates, swap pricing, and bribery verification.

Cost conventions: ``cost(v, a, b)`` is the price of swapping ``a`` with ``b``
in vote line ``v`` while ``a`` directly precedes ``b``; the reverse swap is priced
by ``cost(v, b, a)``. Prices are exact non-negative rationals. Transforming a
full ranking into another costs the sum, over pairs whose relative order
flips, of the price oriented by the original vote; this is the cheapest
admissible swap set realizing the transformation (each flipped pair is
swapped exactly once).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from math import lcm
from typing import Iterable, Mapping, NamedTuple

from .core import (
    CO_WINNER,
    UNIQUE_WINNER,
    Election,
    Ranking,
    VotingRule,
    head_then_rest,
    ranking_prefix,
    stored_ranking,
    winners_of_rankings,
)
from .errors import DomainError

PairCosts = Mapping[tuple[int, int], Fraction]  # int values in a scaled vote class


def _read(value) -> tuple[Fraction, tuple[int, int]]:
    """A price value as a Fraction and its ints in lowest terms, which key and
    compare prices faster than Fractions do; DomainError if negative."""
    if type(value) is not Fraction:
        value = Fraction(value)
    if value.numerator < 0:
        raise DomainError("swap costs must be non-negative")
    return value, (value.numerator, value.denominator)


class SwapCostFunction:
    """Swap prices per vote line (one ``Vote`` of ``Election.votes``, whose
    copies share its price), as Fractions: a default plus sparse pair overrides.

    ``prices`` holds each distinct price once, as ``(default, overrides)``
    without the overrides equal to their default, in order of first line;
    ``price_ids`` numbers each line's price. Two lines share a number
    exactly when their prices are equal, so groupings read the numbers.
    """

    __slots__ = ("prices", "price_ids")

    def __init__(self, defaults: Iterable[Fraction], overrides: Iterable[PairCosts]):
        defaults, tables = list(defaults), list(overrides)
        if len(defaults) != len(tables):
            raise DomainError("defaults and overrides must align per vote line")
        # Lines often share one default and one table object (the unpriced
        # lines of a file), so each distinct pair is read once;
        # and tables share value objects (the parser's one per cost token), so
        # each distinct value object is checked once.
        keys = list(zip(map(id, defaults), map(id, tables)))
        numbers: dict[tuple, int] = {}  # a price's ints to its number
        key_ids = {}
        read: dict[int, tuple[Fraction, tuple[int, int]]] = {}  # a value object's id to ``_read`` of it
        prices = []
        for key, (default, table) in dict(zip(keys, zip(defaults, tables))).items():
            default, ints = read.get(id(default)) or read.setdefault(id(default), _read(default))
            kept, kept_ints = {}, []
            for pair, value in table.items():
                if pair[0] == pair[1]:
                    raise DomainError("cost override needs two distinct candidates")
                value, value_ints = read.get(id(value)) or read.setdefault(id(value), _read(value))
                if value_ints != ints:
                    kept[pair] = value
                    kept_ints.append((pair, value_ints))
            key_ids[key] = numbers.setdefault((ints, frozenset(kept_ints)), len(prices))
            if len(numbers) > len(prices):
                prices.append((default, kept))
        self.prices = tuple(prices)
        self.price_ids = tuple(map(key_ids.__getitem__, keys))

    @classmethod
    def unit(cls, n_votes: int) -> "SwapCostFunction":
        return cls.uniform(n_votes, Fraction(1))

    @classmethod
    def uniform(cls, n_votes: int, value) -> "SwapCostFunction":
        value = Fraction(value)
        return cls([value] * n_votes, [{}] * n_votes)

    @property
    def n_votes(self) -> int:
        return len(self.price_ids)

    def default(self, vote: int) -> Fraction:
        return self.prices[self.price_ids[vote]][0]

    def overrides(self, vote: int) -> PairCosts:
        return self.prices[self.price_ids[vote]][1]

    def cost(self, vote: int, a: int, b: int) -> Fraction:
        return self.overrides(vote).get((a, b), self.default(vote))

    def distinct_values(self) -> list:
        """Every value of every distinct price, each price once."""
        return [*(d for d, _ in self.prices), *(v for _, t in self.prices for v in t.values())]

    def min_value(self) -> Fraction:
        return min(self.distinct_values())

    def max_value(self) -> Fraction:
        return max(self.distinct_values())

    def is_uniform(self, value) -> bool:
        value = Fraction(value)
        return all(v == value for v in self.distinct_values())

    def __eq__(self, other):
        if not isinstance(other, SwapCostFunction):
            return NotImplemented
        return self.prices == other.prices and self.price_ids == other.price_ids

    def __repr__(self):
        per_vote = list(map(self.prices.__getitem__, self.price_ids))
        return f"SwapCostFunction({tuple(d for d, _ in per_vote)!r}, {tuple(t for _, t in per_vote)!r})"


@dataclass(frozen=True)
class Bribery:
    """A bribery, canonically represented by per-expanded-vote target rankings.

    A target may be given in full or as a head (``core.stored_ranking``);
    ``changed_votes`` compares it with its vote in stored form, and
    ``parse_solution`` reads every target in that form.
    """

    targets: tuple[Ranking, ...]


@dataclass(frozen=True)
class SolveResult:
    """What every solver returns.

    ``optimal_cost`` is the proven minimum cost of making the preferred
    candidate win, budget aside, or None when the solver proves no
    optimum (or none exists). ``witness`` makes the preferred candidate
    win: within budget on a yes; on a no, solvers that report an optimum
    return the bribery attaining it.
    """

    decision: bool
    optimal_cost: Fraction | None
    witness: Bribery | None


@dataclass(frozen=True)
class BriberyInstance:
    """Election + rule + preferred candidate + prices + budget + winner mode."""

    election: Election
    rule: VotingRule
    preferred: int
    costs: SwapCostFunction
    budget: Fraction
    mode: str = CO_WINNER

    def __post_init__(self):
        object.__setattr__(self, "budget", Fraction(self.budget))
        self.rule.validate_for(self.election.m)
        if not 0 <= self.preferred < self.election.m:
            raise DomainError("preferred candidate not on the roster")
        if self.budget < 0:
            raise DomainError("budget must be non-negative")
        if self.mode not in (CO_WINNER, UNIQUE_WINNER):
            raise DomainError(f"unknown winner mode {self.mode!r}")
        if self.costs.n_votes != len(self.election.votes):
            raise DomainError("cost function must hold one price per vote line")

    def integer_prices(self) -> tuple[int, list["VoteClass"], int]:
        """``(scale, vote classes, budget * scale)``, each class's prices times ``scale`` as ints.

        ``scale`` is the lcm of the denominators of every price and of the
        budget. The exact searches build on these classes, so a cost ``c``
        they find is ``Fraction(c, scale)``. Witnesses are checked against
        the original prices, never these.
        """
        scale = lcm(
            self.budget.denominator, *(v.denominator for v in self.costs.distinct_values())
        )
        return scale, vote_classes(self, scale), int(self.budget * scale)

    @property
    def unique_mode(self) -> bool:
        return self.mode == UNIQUE_WINNER

    def preferred_wins(self, rankings) -> bool:
        """Whether the preferred candidate wins these expanded rankings, full or heads, in this mode."""
        winning = winners_of_rankings(rankings, self.election.m, self.rule)
        if self.unique_mode:
            return winning == frozenset({self.preferred})
        return self.preferred in winning


class VoteClass(NamedTuple):
    """The vote lines that share a stored ranking and a price (``SwapCostFunction.price_ids``)."""

    ranking: Ranking
    price: int | Fraction  # the default price
    overrides: PairCosts
    lines: tuple[int, ...]  # indices into ``Election.votes``, ascending
    size: int  # the copies over those lines


def vote_classes(instance: BriberyInstance, scale: int | None = None) -> list[VoteClass]:
    """The vote lines grouped by stored ranking and price id, in order of first line.

    Votes of one class are interchangeable, so every solver builds a class's
    options once. A class holds its price, as ints times ``scale`` if given,
    each distinct price scaled once; ``scale`` must clear every denominator.
    """
    votes = instance.election.votes
    groups: dict[tuple[Ranking, int], list[int]] = {}
    for line, (vote, price) in enumerate(zip(votes, instance.costs.price_ids)):
        groups.setdefault((vote.ranking, price), []).append(line)
    prices = instance.costs.prices
    if scale is not None:
        prices = [
            (d.numerator * (scale // d.denominator),
             {p: c.numerator * (scale // c.denominator) for p, c in t.items()})
            for d, t in prices
        ]
    m = instance.election.m
    return [
        VoteClass(head_then_rest(ranking, m), *prices[i], tuple(lines), sum(votes[v].multiplicity for v in lines))
        for (ranking, i), lines in groups.items()
    ]


def per_vote(election: Election, classes: list[VoteClass], runs: Iterable[Iterable[tuple[object, int]]]) -> tuple:
    """One value per expanded vote: ``runs[g]`` holds class g's ``(value, count)``
    runs, counts 0 allowed, over its copies in vote order, its lines ascending
    and each line's copies in turn."""
    owner = {line: g for g, vote_class in enumerate(classes) for line in vote_class.lines}
    values = [chain.from_iterable(repeat(value, count) for value, count in class_runs) for class_runs in runs]
    # read line by line, each class's values fall on its copies in vote order
    copies = (islice(values[owner[line]], vote.multiplicity) for line, vote in enumerate(election.votes))
    return tuple(chain.from_iterable(copies))


def _count_inversions(seq: Iterable[int]) -> int:
    """Number of out-of-order pairs: each item counts the larger items before it."""
    seen: list[int] = []
    total = 0
    for x in seq:
        at = bisect_right(seen, x)
        total += len(seen) - at
        seen.insert(at, x)
    return total


def transform_cost(
    ranking: Ranking,
    target: Ranking,
    costs: SwapCostFunction,
    vote: int,
) -> Fraction:
    """Minimum total swap cost converting ``ranking`` into ``target``, at the
    prices of vote line ``vote``.

    Only pairs inside the stretch where the two differ are priced: a
    candidate of their common prefix or suffix keeps its position, so it
    keeps its side of every other candidate.
    """
    if ranking == target:
        return 0
    roster = frozenset(ranking)
    if len(roster) != len(ranking) or len(target) != len(ranking) or frozenset(target) != roster:
        raise DomainError("rankings must permute the same candidates")
    lo, hi = 0, len(ranking)
    while ranking[lo] == target[lo]:
        lo += 1
    while ranking[hi - 1] == target[hi - 1]:
        hi -= 1
    source = ranking[lo:hi]
    pos_target = {c: i for i, c in enumerate(target[lo:hi])}
    default = costs.default(vote)
    total = default * _count_inversions(map(pos_target.__getitem__, source))
    table = costs.overrides(vote)
    if table:
        pos_src = {c: i for i, c in enumerate(source)}
        for (a, b), value in table.items():
            pa, pb = pos_src.get(a), pos_src.get(b)
            if pa is not None and pb is not None and pa < pb and pos_target[a] > pos_target[b]:
                total += value - default
    return total


def target_costs(
    ranking: Ranking,
    price: int | Fraction,
    overrides: PairCosts,
    order: Iterable[int],
) -> list:
    """``transform_cost`` from ``ranking`` to every target, in ``permutations(order)`` order,
    for a vote class's default ``price`` and ``overrides``.

    The targets that start with ``c`` are ``c`` followed by every ordering
    of the rest, in the same order, and only the pairs with ``c`` tell them
    from those orderings: ``c`` passes each candidate of the rest that the
    vote ranks above it. So each subset of candidates gets one table, its
    orderings' costs, built from the tables one candidate smaller.
    """
    order = tuple(order)
    m = len(order)
    rank = {c: i for i, c in enumerate(ranking)}
    if len(rank) != len(ranking) or len(ranking) != m or set(order) != rank.keys():
        raise DomainError("rankings must permute the same candidates")
    bit = {c: 1 << i for i, c in enumerate(order)}
    # above[i]: the candidates the vote ranks above order[i], as a bitmask
    above = [sum(bit[a] for a in ranking[: rank[c]]) for c in order]
    # deltas[i]: (bitmask of a, price of (a, order[i]) above the default)
    deltas: list[list[tuple[int, object]]] = [[] for _ in range(m)]
    for (a, b), value in overrides.items():
        if a in rank and b in rank and rank[a] < rank[b]:
            deltas[order.index(b)].append((bit[a], value - price))
    # tables[mask]: the costs of the orderings of the subset ``mask``; every
    # subset one candidate smaller is a smaller number, so it comes first
    tables: list[list] = [[0]] + [[] for _ in range(1, 1 << m)]
    for mask in range(1, 1 << m):
        table = tables[mask]
        for i in range(m):
            if mask >> i & 1:
                rest = mask ^ (1 << i)
                step = price * (rest & above[i]).bit_count()
                for b, d in deltas[i]:
                    if rest & b:
                        step += d
                table.extend([x + step for x in tables[rest]] if step else tables[rest])
    return tables[-1]


def move_to_top_target(ranking: Ranking, chosen: frozenset[int]) -> Ranking:
    """Cheapest ranking whose first |chosen| positions hold ``chosen``.

    Keeps the relative order of ``chosen`` and of the remaining candidates,
    which flips exactly the forced crossing pairs and nothing else.
    """
    head = tuple(c for c in ranking if c in chosen)
    tail = tuple(c for c in ranking if c not in chosen)
    return head + tail


def move_to_top_cost(
    ranking: Ranking,
    chosen: Iterable[int],
    k: int,
    costs: SwapCostFunction,
    vote: int,
) -> Fraction:
    """Minimum cost of any bribery putting exactly ``chosen`` in the top k,
    at the prices of vote line ``vote``: the price of ``move_to_top_target``."""
    chosen = frozenset(chosen)
    if len(chosen) != k:
        raise DomainError(f"chosen set must have exactly k={k} candidates")
    return transform_cost(ranking, move_to_top_target(ranking, chosen), costs, vote)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a bribery against an instance."""

    total_cost: Fraction
    preferred_wins: bool
    within_budget: bool

    @property
    def is_solution(self) -> bool:
        return self.preferred_wins and self.within_budget


def _stored_cost(src: Ranking, dst: Ranking, m: int, costs: SwapCostFunction, vote: int) -> Fraction:
    """``transform_cost`` between two stored rankings of ``0..m-1``.

    Where their first ``depth`` positions hold the same candidates, the two
    agree on every later one, so only those positions are priced.
    """
    depth = max(len(src), len(dst))
    if depth < m:
        src_head, dst_head = ranking_prefix(src, depth, m), ranking_prefix(dst, depth, m)
        if set(src_head) == set(dst_head):
            return transform_cost(src_head, dst_head, costs, vote)
    return transform_cost(head_then_rest(src, m), head_then_rest(dst, m), costs, vote)


def changed_votes(instance: BriberyInstance, bribery: Bribery) -> list[tuple[int, int, Ranking, Ranking]]:
    """Each vote the bribery changes, as ``(vote, line, ranking, target)`` in stored form.

    A line whose copies all keep its ranking is passed over in one check; any
    other copy is compared with its target before the target is stored, so a
    vote the bribery keeps is not read past its head.
    """
    election, targets = instance.election, bribery.targets
    if len(targets) != election.n_expanded:
        raise DomainError(f"bribery covers {len(targets)} votes, expected {election.n_expanded}")
    changed = []
    starts = accumulate((vote.multiplicity for vote in election.votes), initial=0)
    for line, (vote, lo) in enumerate(zip(election.votes, starts)):
        src, copies = vote.ranking, targets[lo : lo + vote.multiplicity]
        if copies.count(src) == vote.multiplicity:
            continue
        for idx, dst in enumerate(copies, lo):
            if src != dst:
                try:
                    dst = stored_ranking(dst, election.m)
                except DomainError:
                    raise DomainError(f"target for vote {idx} is not a permutation of the roster") from None
                if src != dst:
                    changed.append((idx, line, src, dst))
    return changed


def verify_bribery(instance: BriberyInstance, bribery: Bribery) -> VerifyReport:
    """Price the votes a bribery changes (``changed_votes``), each at its
    line's price, and evaluate the winner condition."""
    total = Fraction(0)
    for _, line, src, dst in changed_votes(instance, bribery):
        total += _stored_cost(src, dst, instance.election.m, instance.costs, line)
    return VerifyReport(
        total_cost=total,
        preferred_wins=instance.preferred_wins(bribery.targets),
        within_budget=total <= instance.budget,
    )
