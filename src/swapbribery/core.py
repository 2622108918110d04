"""Elections: candidates, ranked votes, voting rules and winner sets.

Candidates are dense integer indices ``0..m-1`` with display names kept on
the election roster. A ranking is a tuple of candidate indices, best first.
All values are immutable; every operation is a pure function.

A ranking may also be given as its head: distinct ids that every other id
follows in increasing order. An election holds each vote in one stored
form, decided by ``stored_ranking``: the head before the ranking's longest
increasing tail when that tail is at least max(32, ceil(m/2)) long, as in
the clique gadget, else the full tuple. With m < 32 every ranking is stored
in full. So equal elections hold equal votes, and the file format writes
each vote as it is stored. ``ranking_prefix`` reads the first positions of
a stored ranking without building its tail; ``head_then_rest`` builds the
full ranking, for the solvers that walk every position.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, filterfalse, groupby, islice
from operator import index
from typing import Iterator, Sequence

from .errors import DomainError, RankingError, UnsupportedRuleError

Ranking = tuple[int, ...]

K_APPROVAL = "k-approval"
SCORING = "scoring"
BUCKLIN = "bucklin"

CO_WINNER = "co-winner"
UNIQUE_WINNER = "unique-winner"


@dataclass(frozen=True)
class VotingRule:
    """One of k-approval, a general scoring vector, or Bucklin."""

    kind: str
    k: int | None = None
    vector: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind == K_APPROVAL:
            if self.k is None or self.k < 1:
                raise DomainError("k-approval needs a positive k")
        elif self.kind == SCORING:
            if not self.vector:
                raise DomainError("scoring rule needs a non-empty vector")
            if any(s < 0 for s in self.vector):
                raise DomainError("scoring vector entries must be non-negative")
            if any(a < b for a, b in zip(self.vector, self.vector[1:])):
                raise DomainError("scoring vector must be non-increasing")
        elif self.kind != BUCKLIN:
            raise DomainError(f"unknown rule kind {self.kind!r}")

    @classmethod
    def k_approval(cls, k: int) -> "VotingRule":
        return cls(K_APPROVAL, k=k)

    @classmethod
    def scoring(cls, vector) -> "VotingRule":
        return cls(SCORING, vector=tuple(vector))

    @classmethod
    def bucklin(cls) -> "VotingRule":
        return cls(BUCKLIN)

    def validate_for(self, m: int) -> None:
        if self.kind == K_APPROVAL and self.k > m:
            raise DomainError(f"k={self.k} exceeds number of candidates m={m}")
        if self.kind == SCORING and len(self.vector) != m:
            raise DomainError("scoring vector length must equal m")

    @property
    def is_score_based(self) -> bool:
        return self.kind in (K_APPROVAL, SCORING)


@dataclass(frozen=True)
class Vote:
    ranking: Ranking
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise DomainError("vote multiplicity must be >= 1")


@dataclass(frozen=True)
class Election:
    """A candidate roster plus a list of votes with multiplicities."""

    candidates: tuple[str, ...]
    votes: tuple[Vote, ...]

    def __post_init__(self):
        m = len(self.candidates)
        if m == 0:
            raise DomainError("election needs at least one candidate")
        if len(set(self.candidates)) != m:
            raise DomainError("candidate names must be unique")
        if not self.votes:
            raise DomainError("election needs at least one vote")
        # The one check of a vote: parse_election names the file line of
        # the vote this error reports.
        votes = list(self.votes)
        for i, vote in enumerate(votes):
            try:
                ranking = stored_ranking(vote.ranking, m)
            except DomainError:
                message = f"vote {vote.ranking} is not a permutation of 0..{m - 1} or a head of one"
                raise RankingError(i, message) from None
            if ranking is not vote.ranking:
                votes[i] = Vote(ranking, vote.multiplicity)
        object.__setattr__(self, "votes", tuple(votes))

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n_expanded(self) -> int:
        return sum(v.multiplicity for v in self.votes)

    def expanded(self) -> Iterator[Ranking]:
        """Stored rankings with multiplicities unrolled, in declaration order."""
        for vote in self.votes:
            for _ in range(vote.multiplicity):
                yield vote.ranking

    def expanded_list(self) -> list[Ranking]:
        return list(self.expanded())


def stored_ranking(ranking: Sequence[int], m: int) -> Ranking:
    """The stored form of a ranking of ``0..m-1``, given in full or as a head.

    That is the head before its longest increasing tail when the tail is at
    least max(32, ceil(m/2)) long, else the full ranking. A head's tail is
    never built, since it starts at the least id the head leaves out: a head
    costs one Python step per entry, plus an m-byte mask that it fills, counts
    and scans in C. Raises DomainError when ``ranking`` is neither a
    permutation nor a head; an id is an int, as a mask index is.
    """
    r = ranking if type(ranking) is tuple else tuple(ranking)
    least = max(32, (m + 1) // 2)  # the shortest tail a stored ranking leaves out
    try:
        if len(r) == m:
            if sorted(map(index, r)) != list(range(m)):
                raise DomainError(f"{r} is not a permutation of 0..{m - 1}")
            if m < least or list(r[m - least :]) != sorted(r[m - least :]):
                return r
            h = m - least
            while h and r[h - 1] < r[h]:
                h -= 1
            return r[:h]
        named = bytearray(m)
        for c in r:
            named[c] = 1
    except (TypeError, IndexError):  # entries that are no candidate ids
        raise DomainError(f"{r} is not a ranking of 0..{m - 1}") from None
    if (r and min(r) < 0) or named.count(1) != len(r):
        raise DomainError(f"{r} is not a head of a ranking of 0..{m - 1}")
    first = named.find(0)  # the least id the head leaves out, which starts its tail
    h = len(r)
    while h and r[h - 1] < first:
        h -= 1
        first = r[h]
    if m - h < least:
        return head_then_rest(r, m)
    return r if h == len(r) else r[:h]


def head_then_rest(ranking: Sequence[int], m: int) -> Ranking:
    """The full ranking of a stored one: its head, then every other id of
    ``0..m-1`` in increasing order. The one place a tail is built."""
    if len(ranking) == m:
        return tuple(ranking)
    mask = bytearray(b"\1") * m
    for c in ranking:
        mask[c] = 0
    return (*ranking, *compress(range(m), mask))


def ranking_prefix(ranking: Sequence[int], depth: int, m: int) -> Ranking:
    """The first ``depth`` positions of a stored ranking, in O(len(ranking) + depth)."""
    if len(ranking) >= depth or len(ranking) == m:
        return ranking[:depth]
    rest = filterfalse(set(ranking).__contains__, range(m))
    return (*ranking, *islice(rest, depth - len(ranking)))


def _approvals(weighted: list[tuple[Ranking, int]], m: int, depth: int) -> list[int]:
    """Weight of the rankings that place each candidate within the first ``depth``."""
    totals = [0] * m
    for ranking, weight in weighted:
        for c in ranking_prefix(ranking, depth, m):
            totals[c] += weight
    return totals


def _bucklin_round(weighted: list[tuple[Ranking, int]], m: int) -> list[int]:
    """The approval counts at Bucklin's winning round."""
    threshold = sum(weight for _, weight in weighted) // 2 + 1
    for depth in range(1, m + 1):
        totals = _approvals(weighted, m, depth)
        if max(totals) >= threshold:
            return totals
    raise DomainError("no Bucklin winning round; election malformed")


def _tally(weighted: list[tuple[Ranking, int]], m: int, rule: VotingRule) -> list[int]:
    """Per-candidate totals over (stored ranking, weight) pairs; Bucklin's at its winning round."""
    if rule.kind == K_APPROVAL:
        return _approvals(weighted, m, rule.k)
    weighted = [(head_then_rest(ranking, m), weight) for ranking, weight in weighted]
    if rule.kind == SCORING:
        totals = [0] * m
        for ranking, weight in weighted:
            for points, c in zip(rule.vector, ranking):
                totals[c] += weight * points
        return totals
    return _bucklin_round(weighted, m)


def _weighted(election: Election) -> list[tuple[Ranking, int]]:
    return [(vote.ranking, vote.multiplicity) for vote in election.votes]


def _argmax(totals: list[int]) -> frozenset[int]:
    best = max(totals)
    return frozenset(c for c, s in enumerate(totals) if s == best)


def scores(election: Election, rule: VotingRule) -> list[int]:
    """Score vector over all candidates (score-based rules only)."""
    rule.validate_for(election.m)
    if not rule.is_score_based:
        raise UnsupportedRuleError("scores() is undefined for Bucklin")
    return _tally(_weighted(election), election.m, rule)


def winners(election: Election, rule: VotingRule) -> frozenset[int]:
    """The set of winning candidates; full argmax set, no tie-breaking."""
    rule.validate_for(election.m)
    return _argmax(_tally(_weighted(election), election.m, rule))


def winners_of_rankings(rankings, m: int, rule: VotingRule) -> frozenset[int]:
    """Winner set for a plain list of expanded stored rankings (multiplicity 1 each); a run
    of equal consecutive rankings, as a class's shared targets form, is tallied once by its length."""
    return _argmax(_tally([(r, len(list(run))) for r, run in groupby(rankings)], m, rule))
