"""Search kernel: cheapest winning assignment of vote options, for every rule.

This is the hot inner loop of the brute-force oracles. Each vote offers a
list of options; an option adds ``(tally index, amount)`` increments to
``rows x m`` tallies, stored row by row, where column 0 of every row is the
preferred candidate. One row holds scores (k-approval and scoring vectors):
the candidates with the top score win. Several rows hold Bucklin's rounds:
row ``d`` counts the votes ranking each candidate in their first ``d + 1``
places, the winning round is the first row in which some candidate has a
strict majority of the votes, and that row's leaders win.

The search picks one option per vote minimizing total cost subject to the
preferred candidate winning. Depth-first order visits choice vectors
lexicographically and the best total only moves on a strict improvement,
so the result is the lexicographically first optimal vector. Three cuts
keep that result:

- **Cost cut.** A branch whose cost plus the cheapest completion reaches
  the best total (or exceeds the budget) holds no strictly better leaf.
- **Score cut.** Tallies only grow. In each row the preferred candidate can
  still collect, summed over the votes left, the most one option of each
  adds to its column there. It can win only at a row up to the first in
  which some candidate already has a majority (zero for one row), where
  that sum reaches the majority and no rival is past it (or at it, for a
  unique winner). After the last vote nothing is left to collect, so the
  cut is exact there and every leaf it admits wins.
- **Symmetry cut.** A vote whose option slice equals the previous vote's
  starts at the option that vote chose, so choices are non-decreasing
  within a run of identical votes. Sorting such a run keeps the cost and
  the tallies and never makes a vector lexicographically later, so the
  first optimal vector is among the sorted ones.

All costs are non-negative scaled integers. Options must be sorted by
ascending cost per vote.

The search gives up with ``ResourceCapError`` once it has scanned more than
``MAX_NODES`` options that pass the cost cut: a count, not a clock, so it
stops at the same point on any machine and its answers are reproducible.
"""

from __future__ import annotations

from .errors import ResourceCapError

# perfbench reports this name as the search backend.
BACKEND_NAME = "pure"

# Node budget of this search, counted in options scanned; read at every call.
MAX_NODES = 10**6


def best_assignment(
    offsets,
    increments,
    costs,
    rows: int,
    m: int,
    unique: bool,
    budget: int,
):
    """Minimum-cost choice of one option per vote under the winner condition.

    ``offsets[v]:offsets[v+1]`` delimits vote ``v``'s options; option ``i``
    adds ``amount`` to tally ``index`` for each pair of ``increments[i]``.
    With more than one row the winner is decided as under Bucklin, by a
    majority of the votes. ``budget`` of -1 means unbounded; otherwise only
    assignments of total cost <= budget qualify. Returns ``(cost, choices)``
    with global option indices, or ``None``.
    """
    n_votes = len(offsets) - 1
    majority = n_votes // 2 + 1 if rows > 1 else 0
    tie = 0 if unique else 1
    if not n_votes:
        # every tally is 0: the preferred candidate wins only a one-row tie
        return (0, []) if rows == 1 and (m == 1 or tie) else None
    # leads[row_of[i]] is the leading rival of tally i's row; the preferred
    # candidate's tallies go to a spare slot past the last row
    row_of = [rows if i % m == 0 else i // m for i in range(rows * m)]
    bases = range(0, rows * m, m)
    # shift[v]: offset from the previous vote's options to this vote's when
    # both offer the same slice, else None.
    shift = [None] * n_votes
    for v in range(1, n_votes):
        plo, lo, hi = offsets[v - 1], offsets[v], offsets[v + 1]
        if costs[plo:lo] == costs[lo:hi] and increments[plo:lo] == increments[lo:hi]:
            shift[v] = lo - plo
    suffix_min = [0] * (n_votes + 1)
    # reach[v][r]: the most the preferred candidate still collects in row r
    # from votes v.., plus 1 when co-winners may tie.
    reach = [None] * n_votes + [[tie] * rows]
    seen = None
    for v in range(n_votes - 1, -1, -1):
        lo, hi = offsets[v], offsets[v + 1]
        if lo == hi:
            return None
        suffix_min[v] = suffix_min[v + 1] + costs[lo]
        # the rankings oracle hands every vote the same m! lists in its own
        # order, so a vote offering the next vote's lists shares its maxima
        ids = set(map(id, increments[lo:hi]))
        if ids != seen:
            seen = ids
            most = [0] * rows
            for step in increments[lo:hi]:
                got = [0] * rows
                for i, a in step:
                    if not i % m:
                        r = i // m
                        got[r] += a
                        if got[r] > most[r]:
                            most[r] = got[r]
        reach[v] = [a + b for a, b in zip(reach[v + 1], most)]

    best = budget + 1 if budget >= 0 else None
    best_choice = None
    need = majority + tie
    tallies = [0] * (rows * m)
    choice = [0] * n_votes
    max_nodes = MAX_NODES
    nodes = 0

    def descend(v: int, acc: int, leads: list[int]):
        nonlocal best, best_choice, nodes
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
            nodes += 1
            if nodes > max_nodes:
                raise ResourceCapError(f"search exceeded its node budget of {max_nodes}")
            step = increments[idx]
            lead = leads.copy()
            for i, a in step:
                s = tallies[i] + a
                tallies[i] = s
                r = row_of[i]
                if s > lead[r]:
                    lead[r] = s
            # descend if some row up to the first with a rival at a majority
            # can still be won
            r = 0
            for base in bases:
                mine = tallies[base] + room[r]
                top = lead[r]
                if mine >= need and top < mine:
                    choice[v] = idx
                    descend(v + 1, total, lead)
                    break
                if top >= majority:
                    break
                r += 1
            for i, a in step:
                tallies[i] -= a

    # every rival starts at 0; with no rival (m == 1) every leaf must pass
    descend(0, 0, [0 if m > 1 else -1] * rows + [0])
    if best_choice is None:
        return None
    return int(best), best_choice
