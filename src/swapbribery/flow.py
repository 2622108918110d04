"""Unit-cost k-approval solving via minimum-cost maximum flow.

For each target score ``s*`` of the preferred candidate, a network routes
one flow unit per (vote, one-position) pair; rerouting a unit from the
candidate holding the position to a candidate below position k costs the
rank difference, which under unit swap prices equals the swap cost of the
corresponding demotion/promotion. A flow of full value |V|k and cost <= b
exists exactly when some bribery of cost <= b gives the preferred
candidate score s* and everyone else at most s*.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .core import K_APPROVAL, Ranking, rank_of
from .errors import DomainError, PreconditionError
from .swaps import Bribery, BriberyInstance, SolveResult, SwapCostFunction
from . import swaps as _swaps


@dataclass(frozen=True)
class FlowArc:
    tail: int
    head: int
    capacity: int
    cost: Fraction


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with integer capacities and rational arc costs."""

    node_names: tuple[str, ...]
    arcs: tuple[FlowArc, ...]
    source: int
    sink: int

    def __post_init__(self):
        for arc in self.arcs:
            if arc.capacity < 0:
                raise DomainError("arc capacities must be non-negative")
            if arc.cost < 0:
                raise DomainError("arc costs must be non-negative")
            if arc.head == self.source:
                raise DomainError("source must have no incoming arcs")
            if arc.tail == self.sink:
                raise DomainError("sink must have no outgoing arcs")

    def node(self, name: str) -> int:
        return self.node_names.index(name)


@dataclass(frozen=True)
class FlowResult:
    value: int
    cost: Fraction
    arc_flows: tuple[int, ...]


def min_cost_max_flow(network: FlowNetwork) -> FlowResult:
    """Maximum flow of minimum cost, by successive shortest augmenting paths.

    Costs are non-negative, so Dijkstra with node potentials applies and
    the returned flow is integral.
    """
    n = len(network.node_names)
    to: list[int] = []
    cap: list[int] = []
    cost: list[Fraction] = []
    adj: list[list[int]] = [[] for _ in range(n)]

    for arc in network.arcs:
        adj[arc.tail].append(len(to))
        to.append(arc.head)
        cap.append(arc.capacity)
        cost.append(arc.cost)
        adj[arc.head].append(len(to))
        to.append(arc.tail)
        cap.append(0)
        cost.append(-arc.cost)

    zero = Fraction(0)
    potential = [zero] * n
    source, sink = network.source, network.sink
    value = 0
    total = zero

    while True:
        dist: list[Fraction | None] = [None] * n
        parent_edge = [-1] * n
        dist[source] = zero
        heap = [(zero, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if dist[node] is None or d > dist[node]:
                continue
            for eid in adj[node]:
                if cap[eid] == 0:
                    continue
                other = to[eid]
                nd = d + cost[eid] + potential[node] - potential[other]
                if dist[other] is None or nd < dist[other]:
                    dist[other] = nd
                    parent_edge[other] = eid
                    heapq.heappush(heap, (nd, other))
        if dist[sink] is None:
            break
        for node in range(n):
            if dist[node] is not None:
                potential[node] += dist[node]

        bottleneck = None
        node = sink
        while node != source:
            eid = parent_edge[node]
            if bottleneck is None or cap[eid] < bottleneck:
                bottleneck = cap[eid]
            node = to[eid ^ 1]
        node = sink
        while node != source:
            eid = parent_edge[node]
            cap[eid] -= bottleneck
            cap[eid ^ 1] += bottleneck
            total += bottleneck * cost[eid]
            node = to[eid ^ 1]
        value += bottleneck

    flows = tuple(cap[2 * i + 1] for i in range(len(network.arcs)))
    return FlowResult(value=value, cost=total, arc_flows=flows)


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
    rank difference; everything else costs 0.
    """
    n_votes = len(rankings)
    if not rankings:
        raise DomainError("need at least one vote")
    m = len(rankings[0])
    if not 1 <= target_score <= n_votes:
        raise DomainError(f"target score {target_score} outside 1..{n_votes}")
    if not 0 <= preferred < m:
        raise DomainError("preferred candidate out of range")

    names = ["s", "t", "x"]
    index: dict[str, int] = {name: i for i, name in enumerate(names)}

    def add_node(name: str) -> int:
        index[name] = len(names)
        names.append(name)
        return index[name]

    for v, ranking in enumerate(rankings):
        for c in ranking[:k]:
            add_node(f"a[{v},{c}]")
    for v in range(n_votes):
        for c in range(m):
            add_node(f"ap[{v},{c}]")
    for c in range(m):
        add_node(f"b[{c}]")

    arcs: list[FlowArc] = []
    zero = Fraction(0)
    s, t, x = index["s"], index["t"], index["x"]
    for v, ranking in enumerate(rankings):
        for c in ranking[:k]:
            a_node = index[f"a[{v},{c}]"]
            arcs.append(FlowArc(s, a_node, 1, zero))
            arcs.append(FlowArc(a_node, index[f"ap[{v},{c}]"], 1, zero))
            for c_prime in ranking[k:]:
                gap = rank_of(c_prime, ranking) - rank_of(c, ranking)
                arcs.append(
                    FlowArc(a_node, index[f"ap[{v},{c_prime}]"], 1, Fraction(gap))
                )
        for c in range(m):
            arcs.append(FlowArc(index[f"ap[{v},{c}]"], index[f"b[{c}]"], 1, zero))
    side_cap = target_score - 1 if unique else target_score
    for c in range(m):
        if c == preferred:
            arcs.append(FlowArc(index[f"b[{c}]"], t, target_score, zero))
        else:
            arcs.append(FlowArc(index[f"b[{c}]"], x, side_cap, zero))
    arcs.append(FlowArc(x, t, n_votes * k - target_score, zero))

    return FlowNetwork(tuple(names), tuple(arcs), source=s, sink=t)


def _extract_targets(
    network: FlowNetwork,
    result: FlowResult,
    rankings: list[Ranking],
    k: int,
) -> tuple[Ranking, ...]:
    """Turn a full-value flow into per-vote target rankings.

    Candidates rerouted away move just below position k, candidates routed
    in take positions k down to k-h+1; both blocks keep the original
    relative order (any fixed order realizes the same cost).
    """
    moved_out: dict[int, set[int]] = {v: set() for v in range(len(rankings))}
    moved_in: dict[int, set[int]] = {v: set() for v in range(len(rankings))}
    for arc, flow in zip(network.arcs, result.arc_flows):
        if flow == 0:
            continue
        tail_name = network.node_names[arc.tail]
        head_name = network.node_names[arc.head]
        if not tail_name.startswith("a[") or not head_name.startswith("ap["):
            continue
        v, c = map(int, tail_name[2:-1].split(","))
        v2, c2 = map(int, head_name[3:-1].split(","))
        if v == v2 and c != c2:
            moved_out[v].add(c)
            moved_in[v].add(c2)

    targets = []
    for v, ranking in enumerate(rankings):
        outs, ins = moved_out[v], moved_in[v]
        if not outs:
            targets.append(ranking)
            continue
        top_keep = [c for c in ranking[:k] if c not in outs]
        in_block = [c for c in ranking if c in ins]
        out_block = [c for c in ranking if c in outs]
        rest = [c for c in ranking[k:] if c not in ins]
        targets.append(tuple(top_keep + in_block + out_block + rest))
    return tuple(targets)


def solve_unit(instance: BriberyInstance) -> SolveResult:
    """Exact solver for unit swap costs: best over all target scores.

    Precondition: every swap price equals 1 (checked). Iterates every
    feasible score for the preferred candidate and keeps the cheapest
    full-value flow, then reads the bribery out of the flow.
    """
    if instance.rule.kind != K_APPROVAL:
        raise DomainError("flow solver needs a k-approval instance")
    if not instance.costs.is_uniform(1):
        raise PreconditionError("flow solver requires every swap cost to equal 1")

    election = instance.election
    if election.m == 1:
        witness = Bribery.identity(election)
        return SolveResult(True, Fraction(0), witness)

    rankings = election.expanded_list()
    k = instance.rule.k
    full_value = len(rankings) * k

    best_cost: Fraction | None = None
    best_witness: Bribery | None = None
    for target_score in range(1, len(rankings) + 1):
        network = build_transfer_network(
            rankings, k, instance.preferred, target_score, instance.unique_mode
        )
        result = min_cost_max_flow(network)
        if result.value != full_value:
            continue
        if best_cost is None or result.cost < best_cost:
            best_cost = result.cost
            best_witness = Bribery(_extract_targets(network, result, rankings, k))

    if best_cost is None:
        return SolveResult(False, None, None)
    return SolveResult(best_cost <= instance.budget, best_cost, best_witness)


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

    unit_twin = BriberyInstance(
        election=instance.election,
        rule=instance.rule,
        preferred=instance.preferred,
        costs=SwapCostFunction.unit(instance.election.n_expanded),
        budget=instance.budget,
        mode=instance.mode,
    )
    solved = solve_unit(unit_twin)
    if solved.witness is None:
        return None
    report = _swaps.verify_bribery(instance, solved.witness)
    return solved.witness, report.total_cost
