"""Unit-cost k-approval solving via minimum-cost maximum flow.

For a target score ``s*`` of the preferred candidate, a network routes
one flow unit per (vote, one-position) pair; rerouting a unit from the
candidate holding the position to a candidate below position k costs the
rank difference, which under unit swap prices equals the swap cost of the
corresponding demotion/promotion. A flow of full value |V|k and cost <= b
exists exactly when some bribery of cost <= b gives the preferred
candidate score s* and everyone else at most s*. ``solve_unit`` bisects
over s* instead of trying every score, so it runs O(log |V|) flows.

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
from .swaps import Bribery, BriberyInstance, SolveResult, SwapCostFunction, move_to_top_target
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


# Node ids of a transfer network: s, t and x, then one ``a`` node per
# (vote, top-k position), one ``ap`` node per (vote, candidate) and one ``b``
# node per candidate, each block in row-major order.
_S, _T, _X = 0, 1, 2
_A0 = 3


def _blocks(n_votes: int, m: int, k: int) -> tuple[int, int]:
    """First node ids of the ``ap`` and ``b`` blocks."""
    ap0 = _A0 + n_votes * k
    return ap0, ap0 + n_votes * m


def build_transfer_network(
    rankings: list[Ranking],
    k: int,
    preferred: int,
    target_score: int,
    unique: bool = False,
) -> FlowNetwork:
    """Score-transfer network for one target score of the preferred candidate.

    Nodes: source ``s``, sink ``t``, junction ``x``, one ``a[v,c]`` per
    one-position holder, one ``ap[v,c]`` per (vote, candidate), one
    ``b[c]`` per candidate. Rerouting arcs ``a[v,c] -> ap[v,c']`` cost the
    rank difference, an int; everything else costs 0.
    """
    n_votes = len(rankings)
    if not rankings:
        raise DomainError("need at least one vote")
    m = len(rankings[0])
    if not 1 <= k <= m:
        raise DomainError(f"k = {k} outside 1..{m}")
    if not 1 <= target_score <= n_votes:
        raise DomainError(f"target score {target_score} outside 1..{n_votes}")
    if not 0 <= preferred < m:
        raise DomainError("preferred candidate out of range")

    ap0, b0 = _blocks(n_votes, m, k)
    names = ["s", "t", "x"]
    names += [f"a[{v},{c}]" for v, ranking in enumerate(rankings) for c in ranking[:k]]
    names += [f"ap[{v},{c}]" for v in range(n_votes) for c in range(m)]
    names += [f"b[{c}]" for c in range(m)]

    arcs: list[FlowArc] = []
    a_node = _A0
    for v, ranking in enumerate(rankings):
        ap_v = ap0 + v * m
        for i, c in enumerate(ranking[:k]):
            arcs.append(FlowArc(_S, a_node, 1, 0))
            arcs.append(FlowArc(a_node, ap_v + c, 1, 0))
            # ranking[k + j] sits k + j - i places below ranking[i]
            for gap, c_prime in enumerate(ranking[k:], start=k - i):
                arcs.append(FlowArc(a_node, ap_v + c_prime, 1, gap))
            a_node += 1
        for c in range(m):
            arcs.append(FlowArc(ap_v + c, b0 + c, 1, 0))
    side_cap = target_score - 1 if unique else target_score
    for c in range(m):
        if c == preferred:
            arcs.append(FlowArc(b0 + c, _T, target_score, 0))
        else:
            arcs.append(FlowArc(b0 + c, _X, side_cap, 0))
    arcs.append(FlowArc(_X, _T, n_votes * k - target_score, 0))

    return FlowNetwork(tuple(names), tuple(arcs), source=_S, sink=_T)


def _extract_targets(
    network: FlowNetwork,
    result: FlowResult,
    rankings: list[Ranking],
    k: int,
) -> tuple[Ranking, ...]:
    """Turn a full-value flow into per-vote target rankings.

    Each vote approves the candidates whose ``ap[v,c] -> b[c]`` arc carries
    flow; its target moves that set to the top, which costs exactly the
    rank gaps the flow paid.
    """
    m = len(rankings[0])
    ap0, b0 = _blocks(len(rankings), m, k)
    approved: list[set[int]] = [set() for _ in rankings]
    for (tail, _, _, _), flow in zip(network.arcs, result.arc_flows):
        if flow and ap0 <= tail < b0:  # every arc out of an ap node enters b
            v, c = divmod(tail - ap0, m)
            approved[v].add(c)
    return tuple(map(move_to_top_target, rankings, approved))


def solve_unit(instance: BriberyInstance) -> SolveResult:
    """Exact solver for unit swap costs: best over all target scores.

    Precondition: every swap price equals 1 (checked). Finds the smallest
    target score for the preferred candidate whose full-value flow is
    cheapest, with at most 2*ceil(log2 |V|) + 1 flows, then reads the
    bribery out of that flow.

    Two facts make the bisection exact. Feasibility is up-closed in s*:
    swapping the preferred candidate into one more approval set helps no
    rival. And the cheapest cost is convex in s*: the capacities are affine
    in s*, the minimum of an LP is convex in its right-hand side, and the
    network matrix is totally unimodular, so integer flows attain it.
    """
    if instance.rule.kind != K_APPROVAL:
        raise DomainError("flow solver needs a k-approval instance")
    if not instance.costs.is_uniform(1):
        raise PreconditionError("flow solver requires every swap cost to equal 1")

    rankings = instance.election.expanded_list()
    k = instance.rule.k
    n_votes = len(rankings)
    flows: dict[int, tuple[FlowNetwork, FlowResult] | None] = {}

    def cheapest(target_score: int) -> tuple[FlowNetwork, FlowResult] | None:
        """The target score's min-cost flow, or None if it is not full-value."""
        if target_score not in flows:
            network = build_transfer_network(
                rankings, k, instance.preferred, target_score, instance.unique_mode
            )
            result = min_cost_max_flow(network)
            flows[target_score] = (network, result) if result.value == n_votes * k else None
        return flows[target_score]

    if cheapest(n_votes) is None:
        return SolveResult(False, None, None)
    lo, hi = 1, n_votes
    while lo < hi:
        mid = (lo + hi) // 2
        here = cheapest(mid)
        # an infeasible s* lies left of every minimiser; a feasible one has
        # a feasible successor
        if here is not None and here[1].cost <= cheapest(mid + 1)[1].cost:
            hi = mid
        else:
            lo = mid + 1

    network, result = flows[lo]
    cost = Fraction(result.cost)
    witness = Bribery(_extract_targets(network, result, rankings, k))
    return SolveResult(cost <= instance.budget, cost, witness)


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
