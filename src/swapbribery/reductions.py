"""Possible Winner translations and the seeded random-instance generator.

With budget zero and swap prices in {0, d}, forbidding exactly the
positive-priced swaps turns each vote into a partial order: the reachable
rankings are precisely its linear extensions. Both translation directions
live here, plus the seeded generator behind the test corpora.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .core import CO_WINNER, Election, Ranking, Vote, VotingRule
from .errors import DomainError, PreconditionError
from .swaps import BriberyInstance, SwapCostFunction, per_vote, vote_classes


@dataclass(frozen=True)
class PartialVote:
    """A strict partial order over candidates 0..m-1, transitively closed."""

    m: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not all(0 <= a < self.m and 0 <= b < self.m for a, b in self.pairs):
            raise DomainError("pair outside the candidate range")
        # Warshall: after round b, every path through b has its shortcut.
        succs: list[set[int]] = [set() for _ in range(self.m)]
        for a, b in self.pairs:
            succs[a].add(b)
        for b in range(self.m):
            for a in range(self.m):
                if b in succs[a]:
                    succs[a] |= succs[b]
        closed = frozenset((a, b) for a in range(self.m) for b in succs[a])
        if closed != self.pairs:
            object.__setattr__(self, "pairs", closed)
        for a, b in self.pairs:
            if a == b:
                raise DomainError("partial order must be irreflexive")
            if (b, a) in self.pairs:
                raise DomainError(f"cycle through candidates {a} and {b}")

    def minimal_extension(self) -> Ranking:
        """Lexicographically smallest topological order, by candidate index."""
        succs: list[list[int]] = [[] for _ in range(self.m)]
        indeg = [0] * self.m
        for a, b in self.pairs:
            succs[a].append(b)
            indeg[b] += 1
        # Kahn's algorithm, smallest ready candidate first; acyclic, so all come out.
        ready = [c for c in range(self.m) if indeg[c] == 0]
        out = []
        while ready:
            c = heapq.heappop(ready)
            out.append(c)
            for b in succs[c]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(ready, b)
        return tuple(out)


@dataclass(frozen=True)
class PossibleWinnerInstance:
    candidates: tuple[str, ...]
    votes: tuple[PartialVote, ...]
    rule: VotingRule
    preferred: int

    def __post_init__(self):
        m = len(self.candidates)
        self.rule.validate_for(m)
        if not 0 <= self.preferred < m:
            raise DomainError("preferred candidate not on the roster")
        for vote in self.votes:
            if vote.m != m:
                raise DomainError("partial vote built for a different roster")


def sb_to_pw(instance: BriberyInstance) -> PossibleWinnerInstance:
    """Zero-budget, two-price bribery instance as a Possible Winner instance.

    Keeps, per vote, exactly the precedences whose swap would cost money;
    their transitive closure is the partial vote, built once per vote class
    (``swaps.vote_classes``) and shared by its votes.
    """
    if instance.budget != 0:
        raise PreconditionError("translation needs budget zero")
    positive = {c for c in instance.costs.distinct_values() if c != 0}
    if len(positive) > 1:
        found = ", ".join(map(str, sorted(positive)))
        raise PreconditionError(f"costs must lie in {{0, d}}; found {found}")

    classes = vote_classes(instance)
    partials = []
    for ranking, price, overrides, _, size in classes:
        pairs = frozenset(
            (a, b) for i, a in enumerate(ranking) for b in ranking[i + 1 :] if overrides.get((a, b), price) != 0
        )
        partials.append([(PartialVote(instance.election.m, pairs), size)])
    return PossibleWinnerInstance(
        candidates=instance.election.candidates,
        votes=per_vote(instance.election, classes, partials),
        rule=instance.rule,
        preferred=instance.preferred,
    )


def pw_to_sb(pw: PossibleWinnerInstance) -> BriberyInstance:
    """Possible Winner instance as a zero-budget bribery with {0,1} costs.

    Casts each run of equal consecutive partial votes as one vote, its
    minimal linear extension with the run's length as multiplicity, and
    prices exactly the ordered pairs the partial order requires.
    """
    cast = []
    overrides = []
    for vote, run in groupby(pw.votes):
        copies = sum(1 for _ in run)
        cast.append(Vote(vote.minimal_extension(), copies))
        overrides.append({(a, b): Fraction(1) for (a, b) in vote.pairs})
    n = len(overrides)
    return BriberyInstance(
        election=Election(pw.candidates, tuple(cast)),
        rule=pw.rule,
        preferred=pw.preferred,
        costs=SwapCostFunction([Fraction(0)] * n, overrides),
        budget=Fraction(0),
        mode=CO_WINNER,
    )


def gen_random(
    m: int,
    n: int,
    k: int,
    cost_model="unit",
    seed: int = 0,
    budget=None,
    rule: VotingRule | None = None,
    mode: str = CO_WINNER,
) -> BriberyInstance:
    """Reproducible random instance for the given seed.

    Cost models: ``"unit"``, ``("two-valued", a, b, density)`` pricing each
    ordered pair b with the given probability and a otherwise, or
    ``("uniform-range", lo, hi)`` drawing quarter-integer prices from
    [lo, hi]. Budget defaults to a seeded draw from 0..n*k.
    """
    if m < 1 or n < 1 or k < 1 or k > m:
        raise DomainError("need m >= 1, n >= 1 and 1 <= k <= m")
    rng = random.Random(f"{seed}:{m}:{n}:{k}")
    candidates = tuple(f"c{i}" for i in range(m))
    votes = tuple(Vote(tuple(rng.sample(range(m), m))) for _ in range(n))

    defaults: list[Fraction] = []
    overrides: list[dict[tuple[int, int], Fraction]] = []
    if cost_model == "unit":
        defaults = [Fraction(1)] * n
        overrides = [{} for _ in range(n)]
    else:
        if cost_model[0] == "two-valued":
            _, low, high, density = cost_model
            low, high = Fraction(low), Fraction(high)
        elif cost_model[0] == "uniform-range":
            _, lo, hi = cost_model
            lo_q, hi_q = int(Fraction(lo) * 4), int(Fraction(hi) * 4)
            if lo_q > hi_q:
                raise DomainError("uniform-range needs lo <= hi")
            density, low, high = 0.5, None, None  # every price is drawn
        else:
            raise DomainError(f"unknown cost model {cost_model!r}")

        def price(fixed: Fraction | None) -> Fraction:
            return fixed if fixed is not None else Fraction(rng.randint(lo_q, hi_q), 4)

        for _ in range(n):
            defaults.append(price(low))
            table = {}
            # One draw per ordered pair even at density 0: later draws depend on it.
            for a in range(m):
                for b in range(m):
                    if a != b and rng.random() < density:
                        table[(a, b)] = price(high)
            overrides.append(table)

    if budget is None:
        budget = Fraction(rng.randint(0, n * k))
    return BriberyInstance(
        election=Election(candidates, votes),
        rule=rule if rule is not None else VotingRule.k_approval(k),
        preferred=rng.randrange(m),
        costs=SwapCostFunction(defaults, overrides),
        budget=Fraction(budget),
        mode=mode,
    )
