"""Elections: candidates, ranked votes, voting rules and winner sets.

Candidates are dense integer indices ``0..m-1`` with display names kept on
the election roster. A ranking is a tuple of candidate indices, best first.
All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, UnsupportedRuleError

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

    def score_of_rank(self, rank: int) -> int:
        """Points earned by the candidate at the given 1-based rank."""
        if self.kind == K_APPROVAL:
            return 1 if rank <= self.k else 0
        if self.kind == SCORING:
            return self.vector[rank - 1]
        raise UnsupportedRuleError("Bucklin has no per-position score")

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
        full = frozenset(range(m))
        for vote in self.votes:
            if len(vote.ranking) != m or frozenset(vote.ranking) != full:
                raise DomainError(f"vote {vote.ranking} is not a permutation of 0..{m - 1}")

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n_expanded(self) -> int:
        return sum(v.multiplicity for v in self.votes)

    def expanded(self) -> Iterator[Ranking]:
        """Rankings with multiplicities unrolled, in declaration order."""
        for vote in self.votes:
            for _ in range(vote.multiplicity):
                yield vote.ranking

    def expanded_list(self) -> list[Ranking]:
        return list(self.expanded())

    def index_of(self, name: str) -> int:
        try:
            return self.candidates.index(name)
        except ValueError:
            raise DomainError(f"unknown candidate {name!r}") from None


def rank_of(candidate: int, ranking: Ranking) -> int:
    """1-based position of a candidate in a ranking."""
    try:
        return ranking.index(candidate) + 1
    except ValueError:
        raise DomainError(f"candidate {candidate} not in ranking") from None


def score(candidate: int, election: Election, rule: VotingRule) -> int:
    """Multiplicity-weighted total score of one candidate."""
    rule.validate_for(election.m)
    if not rule.is_score_based:
        raise UnsupportedRuleError("score() is undefined for Bucklin")
    if not 0 <= candidate < election.m:
        raise DomainError(f"candidate {candidate} out of range")
    return sum(
        v.multiplicity * rule.score_of_rank(rank_of(candidate, v.ranking))
        for v in election.votes
    )


def scores(election: Election, rule: VotingRule) -> list[int]:
    """Score vector over all candidates (score-based rules only)."""
    rule.validate_for(election.m)
    if not rule.is_score_based:
        raise UnsupportedRuleError("scores() is undefined for Bucklin")
    totals = [0] * election.m
    if rule.kind == K_APPROVAL:
        for vote in election.votes:
            for c in vote.ranking[: rule.k]:
                totals[c] += vote.multiplicity
    else:
        for vote in election.votes:
            for pos, c in enumerate(vote.ranking):
                totals[c] += vote.multiplicity * rule.vector[pos]
    return totals


def approval_counts(election: Election, depth: int) -> list[int]:
    """How many votes rank each candidate within the first ``depth`` positions."""
    totals = [0] * election.m
    for vote in election.votes:
        for c in vote.ranking[:depth]:
            totals[c] += vote.multiplicity
    return totals


def bucklin_winning_round(election: Election) -> int:
    """Smallest depth at which some candidate is ranked by a strict majority."""
    threshold = election.n_expanded // 2 + 1
    for depth in range(1, election.m + 1):
        if max(approval_counts(election, depth)) >= threshold:
            return depth
    raise DomainError("no Bucklin winning round; election malformed")


def winners(election: Election, rule: VotingRule) -> frozenset[int]:
    """The set of winning candidates; full argmax set, no tie-breaking."""
    rule.validate_for(election.m)
    if rule.is_score_based:
        totals = scores(election, rule)
    else:
        totals = approval_counts(election, bucklin_winning_round(election))
    best = max(totals)
    return frozenset(c for c, s in enumerate(totals) if s == best)


def winners_of_rankings(rankings, m: int, rule: VotingRule) -> frozenset[int]:
    """Winner set for a plain list of expanded rankings (multiplicity 1 each)."""
    if rule.kind == K_APPROVAL:
        totals = [0] * m
        for r in rankings:
            for c in r[: rule.k]:
                totals[c] += 1
    elif rule.kind == SCORING:
        totals = [0] * m
        for r in rankings:
            for pos, c in enumerate(r):
                totals[c] += rule.vector[pos]
    else:
        n = len(rankings)
        threshold = n // 2 + 1
        totals = None
        for depth in range(1, m + 1):
            counts = [0] * m
            for r in rankings:
                for c in r[:depth]:
                    counts[c] += 1
            if max(counts) >= threshold:
                totals = counts
                break
        if totals is None:
            raise DomainError("no Bucklin winning round; election malformed")
    best = max(totals)
    return frozenset(c for c, s in enumerate(totals) if s == best)
