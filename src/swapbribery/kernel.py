"""Kernelization for k-approval instances whose cheapest swap costs >= 1.

Within budget b, a candidate's per-vote score can only change if it sits
within b positions of the one/zero boundary, so at most 2*floor(b)
positions per vote matter. The full kernel truncates votes to that
window behind a dummy, re-creates every lost point with single-purpose
padding votes, and switches to (floor(b)+1)-approval; the lighter
truncation kernel just drops candidates that are everywhere irrelevant
and keeps the rule.

When k <= floor(b) the window construction cannot align the one/zero
boundary of the truncated votes with the new rule (padding votes would
need negative multiplicities), so kernelize falls back to the truncation
construction, which stays within both size bounds. It does the same in
unique-winner mode for a single 1-approval vote, the one case where the
preferred candidate wins alone with one point, which a dummy would tie.

Kernel votes keep their vote's default price and its overrides among the
kept candidates; padding votes have price 1. Every price stays >= 1, and
a dummy or tail candidate needs more than floor(b) passes to score, so
its prices never decide anything. The exception is a window its vote's
end cuts short (k + b > m): the first tail candidates then sit within
reach, where the original vote has no one, so their passes over the head
are priced floor(b) + 1, above the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .core import Election, K_APPROVAL, Vote, VotingRule, ranking_prefix, scores
from .errors import DomainError, PreconditionError
from .swaps import BriberyInstance, SwapCostFunction


@dataclass(frozen=True)
class KernelOutput:
    """A kernel instance plus bookkeeping tying it back to the original."""

    instance: BriberyInstance
    provenance: tuple[int | None, ...]  # kernel index -> original index, None for a dummy


def _check_preconditions(instance: BriberyInstance) -> int:
    if instance.rule.kind != K_APPROVAL:
        raise DomainError("kernelization needs a k-approval instance")
    if instance.costs.min_value() < 1:
        raise PreconditionError("kernelization requires every swap cost >= 1")
    return floor(instance.budget)


def relevant_candidates(instance: BriberyInstance) -> frozenset[int]:
    """Candidates within floor(budget) positions of the one/zero boundary.

    Only these can gain or lose points within budget; at most 2*b*n of
    them exist.
    """
    beta = _check_preconditions(instance)
    k = instance.rule.k
    lo = max(0, k - beta)  # 0-based window start (position k-beta+1)
    m = instance.election.m
    found: set[int] = set()
    for vote in instance.election.votes:
        found.update(ranking_prefix(vote.ranking, k + beta, m)[lo:])
    return frozenset(found)


def _restricted_prices(
    costs: SwapCostFunction, mapping: dict[int, int]
) -> tuple[list[Fraction], list[dict[tuple[int, int], Fraction]]]:
    """Each vote line's default price and its overrides among ``mapping``'s keys,
    renumbered, each distinct price once; lines of one price share its table."""
    restricted = [
        {(mapping[a], mapping[b]): value for (a, b), value in table.items() if a in mapping and b in mapping}
        for _, table in costs.prices
    ]
    return list(map(costs.default, range(costs.n_votes))), [restricted[p] for p in costs.price_ids]


def truncation_kernel(instance: BriberyInstance) -> BriberyInstance:
    """Drop every candidate ranked beyond k+floor(budget) in all votes.

    Keeps the rule, the budget and the preferred candidate; the result has
    at most (k+b)n + 1 candidates and the same votes restricted to the
    survivors. Dropped candidates score zero and cannot reach a
    one-position within budget, so the decision is unchanged.
    """
    beta = _check_preconditions(instance)
    k = instance.rule.k
    election = instance.election
    m = election.m
    kept_set: set[int] = {instance.preferred}
    for vote in election.votes:
        kept_set.update(ranking_prefix(vote.ranking, k + beta, m))
    kept = sorted(kept_set)
    if len(kept) > (k + beta) * election.n_expanded + 1:
        raise AssertionError("truncation kernel exceeds its candidate bound")
    if len(kept) == m:
        return instance  # identity renumbering, every override kept: a rebuild would equal it
    mapping = {orig: new for new, orig in enumerate(kept)}

    # ``mapping`` keeps the order of ids, so a stored head restricts to the
    # head of the restricted ranking: its tail stays increasing.
    votes = tuple(
        Vote(tuple(map(mapping.__getitem__, filter(kept_set.__contains__, v.ranking))), v.multiplicity)
        for v in election.votes
    )
    kernel_election = Election(tuple(election.candidates[c] for c in kept), votes)

    return BriberyInstance(
        election=kernel_election,
        rule=instance.rule,
        preferred=mapping[instance.preferred],
        costs=SwapCostFunction(*_restricted_prices(instance.costs, mapping)),
        budget=instance.budget,
        mode=instance.mode,
    )


def truncation_provenance(instance: BriberyInstance, kernel: BriberyInstance) -> tuple[int, ...]:
    """Original index of each candidate of ``truncation_kernel(instance)``, found by name."""
    index = {name: i for i, name in enumerate(instance.election.candidates)}
    return tuple(index[name] for name in kernel.election.candidates)


def kernelize(instance: BriberyInstance) -> KernelOutput:
    """Equivalent instance with at most (2nb+3)n votes, n+(2nb+2)(2nb+1) candidates."""
    beta = _check_preconditions(instance)
    k = instance.rule.k
    election = instance.election
    n = election.n_expanded

    # Head dummies keep one point each, so they tie a preferred candidate
    # that wins uniquely with one point; only a lone 1-approval vote lets it.
    if k <= beta or (instance.unique_mode and n * k == 1):
        kernel = truncation_kernel(instance)
        _check_kernel_bounds(kernel.election.n_expanded, kernel.election.m, n, beta)
        return KernelOutput(kernel, truncation_provenance(instance, kernel))

    relevant = relevant_candidates(instance)
    original_scores = scores(election, instance.rule)
    outside = [
        c
        for c in range(election.m)
        if c not in relevant and c != instance.preferred
    ]
    c_star = max(outside, key=lambda c: (original_scores[c], -c)) if outside else None

    kept = sorted(relevant | {instance.preferred} | ({c_star} if c_star is not None else set()))
    mapping = {orig: new for new, orig in enumerate(kept)}
    names = [election.candidates[c] for c in kept]
    taken = set(names)

    def new_dummy() -> int:
        idx = len(names)
        label = f"dummy{idx - len(kept)}"
        while label in taken:  # keep clear of look-alike roster names
            label = "x" + label
        taken.add(label)
        names.append(label)
        return idx

    new_k = beta + 1
    lo = k - beta  # 0-based window start; positive since k > beta
    # one head per copy, with its line's price in a table of its own, which the tail guard below fills
    heads, defaults, head_costs = [], [], []
    for vote, default, table in zip(election.votes, *_restricted_prices(instance.costs, mapping)):
        window = [mapping[c] for c in ranking_prefix(vote.ranking, k + beta, election.m)[lo:]]
        for _ in range(vote.multiplicity):
            heads.append([new_dummy(), *window])
            defaults.append(default)
            head_costs.append(dict(table))

    # Points held inside the windows survive truncation; everything else a
    # kept candidate scored is restored through single-purpose votes.
    window_scores = {c: 0 for c in kept}
    for head in heads:
        for kernel_c in head[1:new_k]:
            window_scores[kept[kernel_c]] += 1

    for c in kept:
        deficit = original_scores[c] - window_scores[c]
        if deficit < 0:
            raise AssertionError("window truncation may never create points")
        for _ in range(deficit):
            heads.append([mapping[c]] + [new_dummy() for _ in range(2 * beta)])
            defaults.append(Fraction(1))
            head_costs.append({})

    m_kernel = len(names)
    votes = []
    for head, prices in zip(heads, head_costs):
        # below a window cut short by its vote's end, keep the tail out of reach
        for t in ranking_prefix(head, 2 * beta + 1, m_kernel)[len(head) :]:
            prices.update(((x, t), Fraction(beta + 1)) for x in head)
        votes.append(Vote(tuple(head)))

    kernel_election = Election(tuple(names), tuple(votes))
    kernel_costs = SwapCostFunction(defaults, head_costs)

    _check_kernel_bounds(len(votes), m_kernel, n, beta)

    kernel = BriberyInstance(
        election=kernel_election,
        rule=VotingRule.k_approval(new_k),
        preferred=mapping[instance.preferred],
        costs=kernel_costs,
        budget=instance.budget,
        mode=instance.mode,
    )
    return KernelOutput(kernel, tuple(kept) + (None,) * (m_kernel - len(kept)))


def _check_kernel_bounds(n_votes: int, m_kernel: int, n: int, beta: int) -> None:
    """The kernel's size bounds: (2nb+3)n votes, n+(2nb+2)(2nb+1) candidates."""
    if n_votes > (2 * n * beta + 3) * n or m_kernel > n + (2 * n * beta + 2) * (2 * n * beta + 1):
        raise AssertionError(f"kernel of {n_votes} votes and {m_kernel} candidates exceeds its bounds")
