"""k-approval with one swap price per vote, solved by minimum-cost maximum flow.

In a vote priced p per swap, moving an approved set S to the top costs
p·(Σ_{c∈S} pos(c) − k(k−1)/2), a sum over candidates, so the bribery is a
transportation problem. Votes sharing a ranking and a price form a class
of w votes, which sends k·w approvals to the candidates, at most w to
each, at p·pos(c) apiece. For a target score ``s*`` of the preferred
candidate, the cheapest flow of full value |V|k costs Σ p·w·k(k−1)/2 more
than the cheapest bribery giving it s* and every rival at most s*, and
exists exactly when one does. ``solve_unit`` builds the network once and
bisects over s* between the unbribed scores, where the optimum lies; only
the m + 1 collector arcs out of the candidates and the junction change
with s*. Each flow starts from the election as it stands, every class
approving its own top k, and moves only the approvals that s* forces to
move. The NP-hardness gadget prices two swaps of one vote differently,
so it lies outside.

``min_cost_max_flow`` is the primal-dual form of successive shortest
paths: one Dijkstra per distinct shortest-path length, after which every
path of that length is pushed at once by blocking flows, instead of one
Dijkstra per unit of flow. It starts from zero or from a given
pseudo-flow, with potentials that keep every reduced cost non-negative.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, compress
from typing import NamedTuple

from .core import K_APPROVAL, Ranking, scores
from .errors import DomainError, PreconditionError, ResourceCapError
from .swaps import Bribery, BriberyInstance, SolveResult, SwapCostFunction, VoteClass, move_to_top_target
from . import swaps as _swaps


class FlowArc(NamedTuple):
    tail: int
    head: int
    capacity: int
    cost: int | Fraction


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with integer capacities and exact arc costs."""

    node_names: tuple[str, ...]
    arcs: tuple[FlowArc, ...]
    source: int
    sink: int

    def __post_init__(self):
        for tail, head, capacity, cost in self.arcs:
            if capacity < 0:
                raise DomainError("arc capacities must be non-negative")
            if cost < 0:
                raise DomainError("arc costs must be non-negative")
            if head == self.source:
                raise DomainError("source must have no incoming arcs")
            if tail == self.sink:
                raise DomainError("sink must have no outgoing arcs")


@dataclass(frozen=True)
class FlowResult:
    value: int
    cost: int | Fraction
    arc_flows: tuple[int, ...]


def min_cost_max_flow(network: FlowNetwork, start=None) -> FlowResult:
    """Maximum flow of minimum cost, by the primal-dual successive shortest paths.

    ``start``, if given, is ``(arc_flows, potentials)``: a pseudo-flow within
    the capacities that leaves no deficit outside the source, and potentials
    giving every residual arc a reduced cost ``cost + π(tail) − π(head)`` of
    at least 0; otherwise DomainError. The default is zero for both. A
    virtual root feeds the source's spare capacity and every excess. Each
    round runs one Dijkstra from it, then saturates every shortest path at
    once: Dinic blocking flows over the residual arcs of reduced cost 0. So
    a flow costs one Dijkstra per distinct shortest-path length, not one per
    unit; BFS levels keep zero-cost cycles from looping the search. The
    result is integral: ``value`` flows into the sink, at a total ``cost``.
    Excess that cannot reach the sink stays put, so ``value`` then falls
    short of what the source sends. Arithmetic stays in the arcs' cost type.
    """
    n = len(network.node_names)
    arcs = network.arcs
    flows, potential = start if start is not None else ((0,) * len(arcs), (0,) * n)
    # The root's potential is 0. An arc out of it may start at a negative
    # reduced cost, which is harmless: Dijkstra settles the root first.
    potential = [*potential, 0]
    if len(flows) != len(arcs) or len(potential) != n + 1:
        raise DomainError("a start gives one flow per arc and one potential per node")
    to: list[int] = []
    cap: list[int] = []
    cost: list[int | Fraction] = []
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    excess = [0] * (n + 1)
    total: int | Fraction = 0

    for (tail, head, capacity, arc_cost), flow in zip(arcs, flows):
        reduced = arc_cost + potential[tail] - potential[head]
        if not 0 <= flow <= capacity or (reduced < 0 and flow < capacity) or (reduced > 0 and flow):
            raise DomainError("a start must keep to the capacities, with no residual arc of negative reduced cost")
        eid = len(to)
        adj[tail].append(eid)
        adj[head].append(eid + 1)
        to += (head, tail)
        cap += (capacity - flow, flow)
        cost += (arc_cost, -arc_cost)
        if flow:
            excess[tail] -= flow
            excess[head] += flow
            total += flow * arc_cost

    source, sink, root = network.source, network.sink, n
    excess[source] = sum(cap[eid] for eid in adj[source])  # no arc enters the source
    if min(excess) < 0:
        raise DomainError("a start must not send more out of a node than into it")
    value, excess[sink] = excess[sink], 0
    for v in range(n):
        if excess[v]:
            adj[root].append(len(to))
            adj[v].append(len(to) + 1)
            to += (v, root)
            cap += (excess[v], 0)
            cost += (0, 0)

    n += 1
    heappush, heappop = heapq.heappush, heapq.heappop
    while True:
        dist: list[int | Fraction | None] = [None] * n
        dist[root] = 0
        heap = [(0, root)]
        while heap:
            d, node = heappop(heap)
            if d > dist[node]:
                continue
            base = d + potential[node]
            for eid in adj[node]:
                if cap[eid] == 0:
                    continue
                other = to[eid]
                nd = base + cost[eid] - potential[other]
                old = dist[other]
                if old is None or nd < old:
                    dist[other] = nd
                    heappush(heap, (nd, other))
        if dist[sink] is None:
            break
        # Nodes left unreached stay so: no residual arc leads into them.
        for node, d in enumerate(dist):
            if d is not None:
                potential[node] += d

        pushed = _blocking_flows(adj, to, cap, cost, potential, root, sink)
        # Reduced costs sum to 0 along each path pushed, so each costs
        # potential[sink] - potential[root], and potential[root] is 0.
        value += pushed
        total += pushed * potential[sink]

    return FlowResult(value=value, cost=total, arc_flows=tuple(cap[1 : 2 * len(arcs) : 2]))


def _blocking_flows(adj, to, cap, cost, potential, source, sink) -> int:
    """Push flow along residual arcs of reduced cost 0 until none reaches the sink.

    Dinic's method on that subgraph: each phase levels it by BFS, keeps the
    arcs that go one level down, and augments along them with a current-arc
    pointer per node. Returns the flow pushed.
    """
    n = len(adj)
    pushed = 0
    while True:
        level = [-1] * n
        level[source] = 0
        forward: list[list[int]] = [[] for _ in range(n)]
        queue = [source]
        for node in queue:
            here = level[node]
            if here == level[sink]:
                break  # queue is in level order: no shorter path is left
            below = here + 1
            reach = potential[node]
            out = forward[node]
            for eid in adj[node]:
                if cap[eid] == 0:
                    continue
                other = to[eid]
                if cost[eid] + reach == potential[other]:
                    seen = level[other]
                    if seen < 0:
                        level[other] = below
                        queue.append(other)
                        out.append(eid)
                    elif seen == below:
                        out.append(eid)
        if level[sink] < 0:
            return pushed

        pointer = [0] * n
        path: list[int] = []
        node = source
        while True:
            out = forward[node]
            i = pointer[node]
            while i < len(out) and cap[out[i]] == 0:
                i += 1
            pointer[node] = i
            if i == len(out):  # dead end: retreat and skip the arc that led here
                if node == source:
                    break
                node = to[path.pop() ^ 1]
                pointer[node] += 1
                continue
            eid = out[i]
            path.append(eid)
            node = to[eid]
            if node == sink:
                bottleneck = min(cap[eid] for eid in path)
                for eid in path:
                    cap[eid] -= bottleneck
                    cap[eid ^ 1] += bottleneck
                pushed += bottleneck
                path.clear()
                node = source


def covers(instance: BriberyInstance) -> bool:
    """Flow's scope: k-approval with one swap price per vote, no pair override."""
    return instance.rule.kind == K_APPROVAL and not any(table for _, table in instance.costs.prices)


def require_covers(instance: BriberyInstance) -> None:
    """Raise PreconditionError outside flow's scope (``covers``), and
    ResourceCapError where the transfer network would pass ``MAX_ARCS``.

    The classes are counted by the key ``swaps.vote_classes`` groups by,
    stored ranking and price id, before any is built.
    """
    if not covers(instance):
        raise PreconditionError("flow solver needs k-approval with one swap price per vote, without pair overrides")
    classes = set(zip((vote.ranking for vote in instance.election.votes), instance.costs.price_ids))
    _require_arcs(len(classes), instance.election.m)


# Node ids of a transfer network: s, t and x, then one ``g`` node per vote
# class, then one ``b`` node per candidate.
_S, _T, _X = 0, 1, 2

# The most arcs a transfer network may have, read at every call. A solve
# peaks at 400-450 bytes of memory per arc, so at the cap it stays under 0.5 GB.
MAX_ARCS = 10**6


def _require_arcs(n_classes: int, m: int) -> None:
    if n_classes * (m + 1) + m + 1 > MAX_ARCS:
        raise ResourceCapError(f"{n_classes} vote classes x {m} candidates exceed the cap of {MAX_ARCS} arcs")


def build_transfer_network(
    classes: list[VoteClass],
    k: int,
    preferred: int,
    target_score: int,
    unique: bool = False,
) -> FlowNetwork:
    """Transportation network for one target score of the preferred candidate.

    Nodes: source ``s``, sink ``t``, junction ``x``, one ``g[i]`` per vote
    class, one ``b[c]`` per candidate. Class i of w votes sends k·w
    approvals along ``s -> g[i]``, then at most w to each candidate c along
    ``g[i] -> b[c]`` at its price times c's 0-based position; these arcs
    follow their ``s -> g[i]`` arc in ranking order. The preferred candidate
    passes exactly ``target_score`` approvals to ``t``, the others at most
    that many (one fewer if ``unique``) through ``x``.
    """
    if not classes:
        raise DomainError("need at least one vote")
    m = len(classes[0].ranking)
    n_votes = sum(len(c.votes) for c in classes)
    if not 1 <= k <= m:
        raise DomainError(f"k = {k} outside 1..{m}")
    if not 1 <= target_score <= n_votes:
        raise DomainError(f"target score {target_score} outside 1..{n_votes}")
    if not 0 <= preferred < m:
        raise DomainError("preferred candidate out of range")
    _require_arcs(len(classes), m)

    b0 = _X + 1 + len(classes)
    names = ["s", "t", "x", *(f"g[{i}]" for i in range(len(classes))), *(f"b[{c}]" for c in range(m))]

    arcs: list[FlowArc] = []
    for g, (ranking, price, _, votes) in enumerate(classes, start=_X + 1):
        arcs.append(FlowArc(_S, g, k * len(votes), 0))
        arcs += [FlowArc(g, b0 + c, len(votes), price * pos) for pos, c in enumerate(ranking)]
    arcs += _collectors(b0, m, preferred, target_score, unique, n_votes * k)

    return FlowNetwork(tuple(names), tuple(arcs), source=_S, sink=_T)


def _collectors(b0, m, preferred, target_score, unique, total) -> tuple[FlowArc, ...]:
    """The m + 1 arcs out of the ``b`` nodes and ``x``, the only ones the target score sets."""
    side_cap = target_score - 1 if unique else target_score
    arcs = [FlowArc(b0 + c, _X, side_cap, 0) for c in range(m)]
    arcs[preferred] = FlowArc(b0 + preferred, _T, target_score, 0)
    return (*arcs, FlowArc(_X, _T, total - target_score, 0))


def _split(classes: list[VoteClass], result: FlowResult) -> tuple[Ranking, ...]:
    """Per-vote target rankings from a full-value flow, round-robin within each class.

    A class's units, listed candidate by candidate in ranking order, go the
    t-th to its (t mod w)-th vote: no candidate carries more than w units,
    so each vote gets k distinct ones, and their cost is what the flow paid.
    A candidate's f units are one block of that list, so they go to a cyclic
    run of f votes from the block's offset mod w; a vote's approved set
    changes only where a block starts or ends, and each stretch of votes
    between two such places gets one target.
    """
    targets: list = [None] * sum(len(c.votes) for c in classes)
    flows, at = result.arc_flows, 0
    for ranking, _, _, votes in classes:
        units = flows[at + 1 : at + 1 + len(ranking)]  # after s -> g, the g -> b arcs in ranking order
        at += 1 + len(ranking)
        w = len(votes)
        if w == 1:  # the common case, as votes drawn at random seldom repeat: the flow's set in one pass
            targets[votes[0]] = move_to_top_target(ranking, frozenset(compress(ranking, units)))
            continue
        starts = list(accumulate(units, initial=0))
        cuts = sorted({start % w for start in starts})
        for lo, hi in zip(cuts, [*cuts[1:], w]):
            chosen = frozenset(c for c, start, f in zip(ranking, starts, units) if (lo - start) % w < f)
            target = move_to_top_target(ranking, chosen)
            for v in votes[lo:hi]:
                targets[v] = target
    return tuple(targets)


def solve_unit(instance: BriberyInstance) -> SolveResult:
    """Exact solver for k-approval with one swap price per vote: best over all target scores.

    Precondition: ``covers(instance)`` (checked). At the instance's integer
    prices, bisects for a cheapest target score s* of the preferred
    candidate p and splits its flow into a bribery. With sp p's unbribed
    score, R the top rival one and u = 1 in unique-winner mode (else 0),
    it searches [max(1, sp), min(n, max(sp, R + u))] for n votes, with at
    most 2*ceil(log2 width) + 1 flows. Each starts from the unbribed flow
    f0: every class sends w approvals to each of its top k, and each
    collector carries what it can. Under the potentials π(g[i]) =
    -p_i (k-1), π(s) = min π(g[i]) and 0 elsewhere, no residual arc of f0
    has a negative reduced cost. The search is exact because:

    - Feasibility is up-closed in s*: swapping p into one more approval set
      helps no rival. The upper end is feasible unless R + u > n, and only
      then probed first: at sp >= R + u the unbribed election wins, and else
      moving p into the top k of R + u - sp votes pushes out rivals only.
    - The cheapest cost C(s*) is convex: only the collectors' capacities
      depend on s*, affinely; an LP's minimum is convex in its right-hand
      side; the network matrix is totally unimodular; and ``_split`` turns
      an integer flow into per-vote approval sets of the same cost.
    - Outside the bracket nothing is cheaper. A flow at s* minus f0 splits
      into cycles and exchange paths, each moving one approval from a
      candidate that lost one to one that gained one, at a cost of at least
      0: they run over residual arcs of f0, and every ``b`` node has
      potential 0. At s* < sp, undoing a path out of ``b[p]`` gives a flow
      at s* + 1 that costs no more. At s* > max(sp, R + u), undoing a path
      into ``b[p]`` and one into each rival at s* - u (each gained, as
      s* - u > R) gives one at s* - 1: the candidates the paths start from
      lost approvals, so they end at most at R.

    With zero prices a tie may put the smallest minimiser below sp; the
    decision and the cost are the same.
    """
    require_covers(instance)
    scale, classes, _ = instance.integer_prices()
    k, preferred, unique = instance.rule.k, instance.preferred, instance.unique_mode
    m, n_votes = instance.election.m, instance.election.n_expanded
    score = scores(instance.election, instance.rule)
    rival = max((s for c, s in enumerate(score) if c != preferred), default=0)
    top = max(score[preferred], rival + unique)
    lo, hi = max(1, score[preferred]), min(n_votes, top)

    network = build_transfer_network(classes, k, preferred, hi, unique)
    shared, b0 = network.arcs[: -m - 1], _X + 1 + len(classes)
    # f0 on the arcs every target score shares, and its potentials
    unbribed = [f for c in classes for f in (k * len(c.votes), *[len(c.votes)] * k, *[0] * (m - k))]
    g_potentials = [-c.price * (k - 1) for c in classes]
    potentials = (min(g_potentials), 0, 0, *g_potentials, *[0] * m)
    flows: dict[int, FlowResult | None] = {}

    def cheapest(target_score: int) -> FlowResult | None:
        """The target score's min-cost flow, or None if it is not full-value."""
        if target_score not in flows:
            collectors = _collectors(b0, m, preferred, target_score, unique, n_votes * k)
            here = network if target_score == hi else replace(network, arcs=shared + collectors)
            # f0 on the collectors: each candidate passes on what it can, then x
            carried = [min(s, arc.capacity) for s, arc in zip(score, collectors)]
            into_x = sum(carried) - carried[preferred]
            start = unbribed + carried + [min(into_x, collectors[-1].capacity)]
            result = min_cost_max_flow(here, (start, potentials))
            flows[target_score] = result if result.value == n_votes * k else None
        return flows[target_score]

    if top > n_votes and cheapest(hi) is None:
        return SolveResult(False, None, None)
    while lo < hi:
        mid = (lo + hi) // 2
        here = cheapest(mid)
        # an infeasible s* lies left of every minimiser; a feasible one has
        # a feasible successor
        if here is not None and here.cost <= cheapest(mid + 1).cost:
            hi = mid
        else:
            lo = mid + 1

    result = cheapest(lo)
    kept = k * (k - 1) // 2 * sum(c.price * len(c.votes) for c in classes)
    cost = Fraction(result.cost - kept, scale)
    return SolveResult(cost <= instance.budget, cost, Bribery(_split(classes, result)))


def approx_within_range(
    instance: BriberyInstance, delta
) -> tuple[Bribery, Fraction] | None:
    """Approximation for costs in [1, delta]: solve as if unit, then reprice.

    The returned bribery always makes the preferred candidate win and its
    true cost is at most delta times the true optimum. Returns None only
    when even the unit-cost relaxation is infeasible at every score.
    """
    delta = Fraction(delta)
    if delta < 1:
        raise PreconditionError("delta must be at least 1")
    if instance.costs.min_value() < 1 or instance.costs.max_value() > delta:
        raise PreconditionError(f"every swap cost must lie within [1, {delta}]")

    unit_twin = replace(instance, costs=SwapCostFunction.unit(len(instance.election.votes)))
    solved = solve_unit(unit_twin)
    if solved.witness is None:
        return None
    report = _swaps.verify_bribery(instance, solved.witness)
    return solved.witness, report.total_cost
