"""k-approval with one swap price per vote, solved by minimum-cost maximum flow.

In a vote priced p per swap, moving an approved set S to the top costs
p·(Σ_{c∈S} pos(c) − k(k−1)/2), a sum over candidates, so the bribery is a
transportation problem. Votes sharing a ranking and a price form a class
of w votes, which sends k·w approvals to the candidates, at most w to
each, at p·pos(c) apiece. For a target score ``s*`` of the preferred
candidate, the cheapest flow of full value |V|k costs Σ p·w·k(k−1)/2 more
than the cheapest bribery giving it s* and every rival at most s*, and
exists exactly when one does. ``solve_unit`` bisects over s*, so it runs
O(log |V|) flows. The NP-hardness gadget prices two swaps of one vote
differently, so it lies outside.

``min_cost_max_flow`` is the primal-dual form of successive shortest
paths: one Dijkstra per distinct shortest-path length, after which every
path of that length is pushed at once by blocking flows, instead of one
Dijkstra per unit of flow.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .core import K_APPROVAL, Ranking
from .errors import DomainError, PreconditionError
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


def min_cost_max_flow(network: FlowNetwork) -> FlowResult:
    """Maximum flow of minimum cost, by the primal-dual successive shortest paths.

    Each round runs one Dijkstra with node potentials (costs are
    non-negative, so reduced costs stay non-negative), then saturates every
    shortest path at once: Dinic blocking flows over the residual arcs of
    reduced cost 0, until none of them leads to the sink. So a flow costs
    one Dijkstra per distinct shortest-path length, not one per unit. BFS
    levels keep zero-cost cycles from looping the search, and the returned
    flow is integral. Arithmetic stays in the arcs' own cost type: native
    ints for int costs, exact rationals for ``Fraction`` ones.
    """
    n = len(network.node_names)
    to: list[int] = []
    cap: list[int] = []
    cost: list[int | Fraction] = []
    adj: list[list[int]] = [[] for _ in range(n)]

    for tail, head, capacity, arc_cost in network.arcs:
        eid = len(to)
        adj[tail].append(eid)
        adj[head].append(eid + 1)
        to += (head, tail)
        cap += (capacity, 0)
        cost += (arc_cost, -arc_cost)

    potential: list[int | Fraction] = [0] * n
    source, sink = network.source, network.sink
    value = 0
    total: int | Fraction = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    while True:
        dist: list[int | Fraction | None] = [None] * n
        dist[source] = 0
        heap = [(0, source)]
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

        pushed = _blocking_flows(adj, to, cap, cost, potential, source, sink)
        # Reduced costs sum to 0 along each path pushed, so each costs
        # potential[sink] - potential[source], and potential[source] is 0.
        value += pushed
        total += pushed * potential[sink]

    flows = tuple(cap[1::2])
    return FlowResult(value=value, cost=total, arc_flows=flows)


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
    costs = instance.costs
    return instance.rule.kind == K_APPROVAL and not any(map(costs.overrides, range(costs.n_votes)))


def require_covers(instance: BriberyInstance) -> None:
    """Raise PreconditionError outside flow's scope (``covers``)."""
    if not covers(instance):
        raise PreconditionError("flow solver needs k-approval with one swap price per vote, without pair overrides")


# Node ids of a transfer network: s, t and x, then one ``g`` node per vote
# class, then one ``b`` node per candidate.
_S, _T, _X = 0, 1, 2


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
    n_votes = sum(len(votes) for _, _, votes in classes)
    if not 1 <= k <= m:
        raise DomainError(f"k = {k} outside 1..{m}")
    if not 1 <= target_score <= n_votes:
        raise DomainError(f"target score {target_score} outside 1..{n_votes}")
    if not 0 <= preferred < m:
        raise DomainError("preferred candidate out of range")

    b0 = _X + 1 + len(classes)
    names = ["s", "t", "x", *(f"g[{i}]" for i in range(len(classes))), *(f"b[{c}]" for c in range(m))]

    arcs: list[FlowArc] = []
    for g, (ranking, price, votes) in enumerate(classes, start=_X + 1):
        arcs.append(FlowArc(_S, g, k * len(votes), 0))
        arcs += [FlowArc(g, b0 + c, len(votes), price * pos) for pos, c in enumerate(ranking)]
    side_cap = target_score - 1 if unique else target_score
    arcs += [
        FlowArc(b0 + c, _T, target_score, 0) if c == preferred else FlowArc(b0 + c, _X, side_cap, 0)
        for c in range(m)
    ]
    arcs.append(FlowArc(_X, _T, n_votes * k - target_score, 0))

    return FlowNetwork(tuple(names), tuple(arcs), source=_S, sink=_T)


def _split(classes: list[VoteClass], result: FlowResult) -> tuple[Ranking, ...]:
    """Per-vote target rankings from a full-value flow, round-robin within each class.

    A class's units, listed candidate by candidate in ranking order, go the
    t-th to its (t mod w)-th vote: no candidate carries more than w units,
    so each vote gets k distinct ones, and their cost is what the flow paid.
    """
    targets: dict[int, Ranking] = {}
    flows = iter(result.arc_flows)
    for ranking, _, votes in classes:
        next(flows)  # s -> g
        units = [c for c in ranking for _ in range(next(flows))]
        for i, v in enumerate(votes):
            targets[v] = move_to_top_target(ranking, frozenset(units[i :: len(votes)]))
    return tuple(targets[v] for v in range(len(targets)))


def solve_unit(instance: BriberyInstance) -> SolveResult:
    """Exact solver for k-approval with one swap price per vote: best over all target scores.

    Precondition: ``covers(instance)`` (checked). At the instance's integer
    prices, finds the smallest target score for the preferred candidate
    whose full-value flow is cheapest, with at most 2*ceil(log2 |V|) + 1
    flows, and splits that flow into a bribery.

    Two facts make the bisection exact. Feasibility is up-closed in s*:
    swapping the preferred candidate into one more approval set helps no
    rival. And the cheapest cost is convex in s*: only the capacities out
    of the ``b`` nodes and ``x`` depend on s*, affinely; the minimum of an
    LP is convex in its right-hand side; the network matrix is totally
    unimodular, so integer flows attain it; and ``_split`` turns an integer
    flow into per-vote approval sets of the same cost.
    """
    require_covers(instance)
    scale, prices, _ = instance.integer_prices()
    classes = _swaps.vote_classes(instance, prices)
    k = instance.rule.k
    n_votes = instance.election.n_expanded
    flows: dict[int, FlowResult | None] = {}

    def cheapest(target_score: int) -> FlowResult | None:
        """The target score's min-cost flow, or None if it is not full-value."""
        if target_score not in flows:
            network = build_transfer_network(
                classes, k, instance.preferred, target_score, instance.unique_mode
            )
            result = min_cost_max_flow(network)
            flows[target_score] = result if result.value == n_votes * k else None
        return flows[target_score]

    if cheapest(n_votes) is None:
        return SolveResult(False, None, None)
    lo, hi = 1, n_votes
    while lo < hi:
        mid = (lo + hi) // 2
        here = cheapest(mid)
        # an infeasible s* lies left of every minimiser; a feasible one has
        # a feasible successor
        if here is not None and here.cost <= cheapest(mid + 1).cost:
            hi = mid
        else:
            lo = mid + 1

    result = flows[lo]
    kept = k * (k - 1) // 2 * sum(price * len(votes) for _, price, votes in classes)
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

    unit_twin = replace(instance, costs=SwapCostFunction.unit(instance.election.n_expanded))
    solved = solve_unit(unit_twin)
    if solved.witness is None:
        return None
    report = _swaps.verify_bribery(instance, solved.witness)
    return solved.witness, report.total_cost
