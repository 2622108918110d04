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
construction, which stays within both size bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .core import Election, K_APPROVAL, Vote, VotingRule, scores
from .errors import DomainError, PreconditionError
from .swaps import BriberyInstance, SwapCostFunction


@dataclass(frozen=True)
class KernelOutput:
    """A kernel instance plus bookkeeping tying it back to the original."""

    instance: BriberyInstance
    relevant: frozenset[int]  # original indices of window candidates
    c_star: int | None  # original index of the strongest outside rival
    dummies: frozenset[int]  # kernel indices of dummy candidates
    provenance: tuple[int | None, ...]  # kernel index -> original index


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
    found: set[int] = set()
    for ranking in instance.election.expanded():
        found.update(ranking[lo : k + beta])
    return frozenset(found)


def _restrict_costs(
    costs: SwapCostFunction, kept: list[int], mapping: dict[int, int]
) -> SwapCostFunction:
    kept_set = set(kept)
    defaults = []
    overrides = []
    for v in range(costs.n_votes):
        defaults.append(costs.default(v))
        overrides.append(
            {
                (mapping[a], mapping[b]): value
                for (a, b), value in costs.overrides(v).items()
                if a in kept_set and b in kept_set
            }
        )
    return SwapCostFunction(defaults, overrides)


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
    kept_set: set[int] = {instance.preferred}
    for ranking in election.expanded():
        kept_set.update(ranking[: k + beta])
    kept = sorted(kept_set)
    mapping = {orig: new for new, orig in enumerate(kept)}

    votes = tuple(
        Vote(tuple(mapping[c] for c in v.ranking if c in kept_set), v.multiplicity)
        for v in election.votes
    )
    kernel_election = Election(tuple(election.candidates[c] for c in kept), votes)
    if len(kept) > (k + beta) * election.n_expanded + 1:
        raise AssertionError("truncation kernel exceeds its candidate bound")

    return BriberyInstance(
        election=kernel_election,
        rule=instance.rule,
        preferred=mapping[instance.preferred],
        costs=_restrict_costs(instance.costs, kept, mapping),
        budget=instance.budget,
        mode=instance.mode,
    )


def kernelize(instance: BriberyInstance) -> KernelOutput:
    """Equivalent instance with at most (2nb+3)n votes, n+(2nb+2)(2nb+1) candidates."""
    beta = _check_preconditions(instance)
    k = instance.rule.k
    election = instance.election
    n = election.n_expanded

    if k <= beta:
        return _kernelize_by_truncation(instance, beta)

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
    heads: list[list[int]] = []
    head_costs: list[dict[tuple[int, int], Fraction]] = []
    rankings = election.expanded_list()
    for v_idx, ranking in enumerate(rankings):
        window = [mapping[c] for c in ranking[lo : k + beta]]
        heads.append([new_dummy()] + window)
        head_costs.append(
            {
                (mapping[a], mapping[b]): value
                for (a, b), value in instance.costs.overrides(v_idx).items()
                if a in mapping and b in mapping
            }
            if instance.costs.default(v_idx) == 1
            else {
                (mapping[a], mapping[b]): instance.costs.cost(v_idx, a, b)
                for a in kept
                for b in kept
                if a != b and instance.costs.cost(v_idx, a, b) != 1
            }
        )

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
            head_costs.append({})

    m_kernel = len(names)
    votes = []
    for head in heads:
        in_head = set(head)
        tail = [c for c in range(m_kernel) if c not in in_head]
        votes.append(Vote(tuple(head + tail)))

    kernel_election = Election(tuple(names), tuple(votes))
    kernel_costs = SwapCostFunction([Fraction(1)] * len(votes), head_costs)

    _check_kernel_bounds(len(votes), m_kernel, n, beta)

    kernel = BriberyInstance(
        election=kernel_election,
        rule=VotingRule.k_approval(new_k),
        preferred=mapping[instance.preferred],
        costs=kernel_costs,
        budget=instance.budget,
        mode=instance.mode,
    )
    provenance = tuple(kept) + (None,) * (m_kernel - len(kept))
    return KernelOutput(
        instance=kernel,
        relevant=relevant,
        c_star=c_star,
        dummies=frozenset(range(len(kept), m_kernel)),
        provenance=provenance,
    )


def _check_kernel_bounds(n_votes: int, m_kernel: int, n: int, beta: int) -> None:
    """The kernel's size bounds: (2nb+3)n votes, n+(2nb+2)(2nb+1) candidates."""
    if n_votes > (2 * n * beta + 3) * n or m_kernel > n + (2 * n * beta + 2) * (2 * n * beta + 1):
        raise AssertionError(f"kernel of {n_votes} votes and {m_kernel} candidates exceeds its bounds")


def _kernelize_by_truncation(instance: BriberyInstance, beta: int) -> KernelOutput:
    """Fallback when k <= floor(budget): the truncation kernel, repackaged."""
    kernel = truncation_kernel(instance)
    kept_names = kernel.election.candidates
    orig = {name: idx for idx, name in enumerate(instance.election.candidates)}
    provenance = tuple(orig[name] for name in kept_names)
    _check_kernel_bounds(kernel.election.n_expanded, kernel.election.m, instance.election.n_expanded, beta)
    return KernelOutput(
        instance=kernel,
        relevant=relevant_candidates(instance),
        c_star=None,
        dummies=frozenset(),
        provenance=provenance,
    )
