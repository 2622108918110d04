"""Search kernel: cheapest winning assignment of vote options.

This is the hot inner loop of the brute-force oracles. Each vote offers a
list of options (candidate lists earning one point per entry); the search
picks one option per vote minimizing total cost subject to the preferred
candidate winning. Depth-first order visits choice vectors
lexicographically and the best total only moves on a strict improvement,
so the result is the lexicographically first optimal vector. Three cuts
keep that result:

- **Cost cut.** A branch whose cost plus the cheapest completion reaches
  the best total (or exceeds the budget) holds no strictly better leaf.
- **Score cut.** Scores only grow. The preferred candidate can still
  collect at most, summed over the votes left, the largest count of it in
  one option's gains; a branch whose leading rival already beats that
  holds no winning leaf.
- **Symmetry cut.** A vote whose option slice equals the previous vote's
  starts at the option that vote chose, so choices are non-decreasing
  within a run of identical votes. Sorting such a run keeps the cost and
  the scores and never makes a vector lexicographically later, so the
  first optimal vector is among the sorted ones.

All costs are non-negative scaled integers. Options must be sorted by
ascending cost per vote.
"""

from __future__ import annotations

# perfbench reports this name as the search backend.
BACKEND_NAME = "pure"


def best_assignment(
    offsets,
    gains,
    width: int,
    costs,
    m: int,
    preferred: int,
    unique: bool,
    budget: int,
):
    """Minimum-cost choice of one option per vote under the winner condition.

    ``offsets[v]:offsets[v+1]`` delimits vote ``v``'s options; option ``i``
    gives one point per entry of ``gains[i*width:(i+1)*width]``.
    ``budget`` of -1 means unbounded; otherwise only assignments of total
    cost <= budget qualify. Returns ``(cost, choices)`` with global option
    indices, or ``None``.
    """
    n_votes = len(offsets) - 1
    suffix_min = [0] * (n_votes + 1)
    # reach[v]: a branch through votes 0..v-1 can win only if its leading
    # rival is below scores[preferred] + reach[v], the most points the
    # preferred candidate still collects from votes v.., plus 1 when
    # co-winners may tie.
    reach = [0 if unique else 1] * (n_votes + 1)
    # shift[v]: offset from the previous vote's options to this vote's when
    # both offer the same slice, else None.
    shift = [None] * n_votes
    for v in range(n_votes - 1, -1, -1):
        lo, hi = offsets[v], offsets[v + 1]
        if lo == hi:
            return None
        suffix_min[v] = suffix_min[v + 1] + costs[lo]
        reach[v] = reach[v + 1] + max(
            gains[i * width : (i + 1) * width].count(preferred) for i in range(lo, hi)
        )
        if v:
            plo = offsets[v - 1]
            if (
                costs[plo:lo] == costs[lo:hi]
                and gains[plo * width : lo * width] == gains[lo * width : hi * width]
            ):
                shift[v] = lo - plo

    best = budget + 1 if budget >= 0 else None
    best_choice = None
    scores = [0] * m
    choice = [0] * n_votes

    def descend(v: int, acc: int, rival: int):
        nonlocal best, best_choice
        if v == n_votes:
            # the cost and score cuts at the parent admit only winning leaves
            # strictly cheaper than the best so far
            best = acc
            best_choice = choice.copy()
            return
        rest = suffix_min[v + 1]
        room = reach[v + 1]
        start = offsets[v] if shift[v] is None else choice[v - 1] + shift[v]
        for idx in range(start, offsets[v + 1]):
            total = acc + costs[idx]
            if best is not None and total + rest >= best:
                break
            base = idx * width
            top = rival
            for t in range(base, base + width):
                c = gains[t]
                s = scores[c] + 1
                scores[c] = s
                if s > top and c != preferred:
                    top = s
            if top < scores[preferred] + room:
                choice[v] = idx
                descend(v + 1, total, top)
            for t in range(base, base + width):
                scores[gains[t]] -= 1

    # every rival starts at 0; with no rival (m == 1) every leaf must pass
    rival = 0 if m > 1 else -1
    if rival < reach[0]:
        descend(0, 0, rival)
    if best_choice is None:
        return None
    return int(best), best_choice
