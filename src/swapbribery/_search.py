"""Search kernel: cheapest winning assignment of vote options, for every rule.

This is the hot inner loop of the brute-force oracles. Each class of alike
votes offers one list of options to each of its votes; an option adds
``(tally index, amount)`` increments to ``rows x m`` tallies, stored row by
row, where column c of every row is candidate c. One row holds scores
(k-approval and scoring vectors): the candidates with the top score win.
Several rows hold Bucklin's rounds: row ``d`` counts the votes ranking each
candidate in their first ``d + 1`` places, the winning round is the first row
in which some candidate has a strict majority of the votes, and its leaders win.

The search picks one option per vote minimizing total cost subject to the
preferred candidate winning. Depth-first order visits choice vectors
lexicographically and the best total only moves on a strict improvement,
so the result is the lexicographically first optimal vector. Four cuts
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
- **Swing cut** (one row). Against rival c an option's swing is what it
  adds to the preferred candidate less what it adds to c. The votes left
  must swing c's lead (plus 1 for a unique winner); their cheapest options
  swing ``base``, and each unit more costs at least their least extra cost
  per unit. A branch whose cost, cheapest completion and that price of the
  shortfall reach the best total holds no strictly better leaf.
- **Symmetry cut** (per class). A vote of the same class as the previous
  vote starts at the option that vote chose, so choices are non-decreasing
  within a class. Sorting a class's choices keeps the cost and the tallies
  and never makes a vector lexicographically later, so the first optimal
  vector is among the sorted ones.

All costs are non-negative scaled integers. Options must be sorted by
ascending cost within each class.

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
    sizes,
    increments,
    costs,
    rows: int,
    m: int,
    unique: bool,
    budget: int,
    preferred: int,
):
    """Minimum-cost choice of one option per vote under the winner condition.

    ``offsets[g]:offsets[g+1]`` delimits class ``g``'s options, one for each
    of its ``sizes[g]`` adjacent votes; option ``i`` adds ``amount`` to
    tally ``index`` for each pair of ``increments[i]``, tally ``r * m + c``
    counting candidate c in row r. ``preferred`` must win; with more than one
    row the winner is decided as under Bucklin, by a majority of the votes.
    ``budget`` of -1 means unbounded; otherwise only assignments of total cost
    <= budget qualify. Returns ``(cost, choices)``, global option indices, or None.
    """
    n_votes = sum(sizes)
    majority = n_votes // 2 + 1 if rows > 1 else 0
    tie = 0 if unique else 1
    if not n_votes:
        # every tally is 0: the preferred candidate wins only a one-row tie
        return (0, []) if rows == 1 and (m == 1 or tie) else None
    # leads[row_of[i]] is the leading rival of tally i's row; the preferred
    # candidate's tallies go to a spare slot past the last row
    row_of = [rows if i % m == preferred else i // m for i in range(rows * m)]
    bases = range(preferred, rows * m, m)
    # vote v takes one of its class's options starts[v]..ends[v] - 1
    starts = [offsets[g] for g, size in enumerate(sizes) for _ in range(size)]
    ends = [offsets[g + 1] for g, size in enumerate(sizes) for _ in range(size)]
    suffix_min = [0] * (n_votes + 1)
    # reach[v][r]: the most the preferred candidate still collects in row r
    # from votes v.., plus 1 when co-winners may tie.
    reach = [None] * n_votes + [[tie] * rows]
    seen = None
    for v in range(n_votes - 1, -1, -1):
        lo, hi = starts[v], ends[v]
        if lo == hi:
            return None
        suffix_min[v] = suffix_min[v + 1] + costs[lo]
        # once a class, at its last vote; the rankings oracle hands every class
        # the same m! lists in its own order, so a class offering the next one's shares them
        if (v + 1 == n_votes or ends[v + 1] != hi) and (ids := set(map(id, increments[lo:hi]))) != seen:
            seen = ids
            most = [0] * rows
            for step in increments[lo:hi]:
                got = [0] * rows
                for i, a in step:
                    if i % m == preferred:
                        r = i // m
                        got[r] += a
                        if got[r] > most[r]:
                            most[r] = got[r]
        reach[v] = [a + b for a, b in zip(reach[v + 1], most)]

    # the swing cut's table, built once as many options are scanned as all
    # votes offer, so that a search ending sooner never pays for it
    offered = sum(ends) - sum(starts) if rows == 1 and m > 1 else 0
    swing = None
    rivals = [c for c in range(m) if c != preferred]
    best = budget + 1 if budget >= 0 else None
    best_choice = None
    need = majority + tie
    tallies = [0] * (rows * m)
    choice = starts.copy()
    max_nodes = MAX_NODES
    nodes = 0
    # One level per vote: accs[v] and leads[v] are the cost and the leading
    # rivals that votes 0..v-1 leave, choice[v] the option vote v is on.
    # Every rival starts at 0; with no rival (m == 1) every leaf must pass.
    accs = [0] * n_votes
    leads = [None] * n_votes
    leads[0] = [0 if m > 1 else -1] * rows + [0]
    v = 0
    while True:
        idx = choice[v]
        if idx == ends[v] or best is not None and (floor := accs[v] + costs[idx] + suffix_min[v + 1]) >= best:
            # vote v is done: back to the vote above
            if not v:
                break
            v -= 1
        else:
            nodes += 1
            if nodes > max_nodes:
                raise ResourceCapError(f"search exceeded its node budget of {max_nodes}")
            if nodes == offered:
                swing = _swing_table(starts, ends, increments, costs, m, preferred, rivals, reach, unique)
            lead = leads[v].copy()
            for i, a in increments[idx]:
                s = tallies[i] + a
                tallies[i] = s
                r = row_of[i]
                if s > lead[r]:
                    lead[r] = s
            # descend if some row up to the first with a rival at a majority
            # can still be won
            room = reach[v + 1]
            down = False
            r = 0
            for base in bases:
                mine = tallies[base] + room[r]
                top = lead[r]
                if mine >= need and top < mine:
                    down = True
                    break
                if top >= majority:
                    break
                r += 1
            if down and swing is not None and best is not None:
                # cut once a rival's shortfall times its rate passes gap
                base, rate, per = swing[v + 1]
                gap = best - 1 - floor
                mine = tallies[preferred]
                for c in rivals:
                    if (tallies[c] - mine - base[c]) * rate[c] > gap * per[c]:
                        down = False
                        break
            if down:
                if v + 1 < n_votes:
                    v += 1
                    accs[v] = accs[v - 1] + costs[idx]
                    leads[v] = lead
                    # a class's first vote starts at its first option, past
                    # idx; a later one at idx, the previous vote's choice
                    choice[v] = idx if idx > starts[v] else starts[v]
                    continue
                # the cost and score cuts admit only winning leaves strictly
                # cheaper than the best so far
                best = accs[v] + costs[idx]
                best_choice = choice.copy()
        # on to the next option of vote v
        for i, a in increments[choice[v]]:
            tallies[i] -= a
        choice[v] += 1
    if best_choice is None:
        return None
    return int(best), best_choice


def _swings(step, m, preferred):
    """Each column's swing under one option: what it adds to ``preferred`` less what it adds there."""
    got = [0] * m
    for i, a in step:
        got[i] += a
    mine = got[preferred]
    return [mine - a for a in got]


def _swing_table(starts, ends, increments, costs, m, preferred, rivals, reach, unique):
    """Entry v, for votes v..: ``(base, rate, per)``.

    ``base[c]`` sums the swing against rival c of each vote's cheapest option,
    less 1 for a unique winner; ``rate[c] / per[c]`` is the least extra cost
    per unit of swing past it (1 / 0 if none adds any).
    """
    n_votes = len(starts)
    table = [None] * n_votes + [([-unique] * m, [1] * m, [0] * m)]
    for v in range(n_votes - 1, -1, -1):
        base, rate, per = table[v + 1]
        # a class's votes share one vote's swings and rates, built at its last vote
        if v + 1 == n_votes or ends[v + 1] != ends[v]:
            lo, hi = starts[v], ends[v]
            first = _swings(increments[lo], m, preferred)
            # no option swings more than ``most``, so an extra cost of rate *
            # (most - first) closes a rival: no dearer option lowers its rate
            most = reach[v][0] - reach[v + 1][0]
            own, own_per = [1] * m, [0] * m
            left = rivals
            for idx in range(lo + 1, hi):
                extra = costs[idx] - costs[lo]
                left = [c for c in left if extra * own_per[c] < own[c] * (most - first[c])]
                if not left:
                    break
                swings = _swings(increments[idx], m, preferred)
                for c in left:
                    gain = swings[c] - first[c]
                    if gain > 0 and extra * own_per[c] < own[c] * gain:
                        own[c], own_per[c] = extra, gain
            rate, per = rate.copy(), per.copy()
            for c in rivals:
                if own[c] * per[c] < rate[c] * own_per[c]:
                    rate[c], per[c] = own[c], own_per[c]
        table[v] = ([a + b for a, b in zip(base, first)], rate, per)
    return table
