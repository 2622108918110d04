import dataclasses
import heapq
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from swapbribery.core import CO_WINNER, UNIQUE_WINNER, Election, Vote, VotingRule, head_then_rest, scores
from swapbribery.errors import DomainError, PreconditionError, ResourceCapError
from swapbribery.flow import (
    FlowArc,
    FlowNetwork,
    FlowResult,
    _split,
    approx_within_range,
    build_transfer_network,
    covers,
    min_cost_max_flow,
    require_covers,
    solve_unit,
)
from swapbribery.oracle import brute_topk
from swapbribery.reductions import gen_random
from swapbribery.swaps import (
    Bribery,
    BriberyInstance,
    SolveResult,
    SwapCostFunction,
    VoteClass,
    move_to_top_target,
    per_vote,
    verify_bribery,
    vote_classes,
)

from conftest import SAMPLE_U, SAMPLE_V, random_instance, sample_election
from oracle_utils import bribed_election, lines_priced_per_copy
from test_conformance import check, labels


def _one_path_per_dijkstra(network):
    """Reference for min_cost_max_flow: one Dijkstra per augmenting path.

    Successive shortest paths in their plain form, (value, cost, arc flows).
    """
    n = len(network.node_names)
    to, cap, cost = [], [], []
    adj = [[] for _ in range(n)]
    for arc in network.arcs:
        adj[arc.tail].append(len(to))
        to.append(arc.head)
        cap.append(arc.capacity)
        cost.append(arc.cost)
        adj[arc.head].append(len(to))
        to.append(arc.tail)
        cap.append(0)
        cost.append(-arc.cost)

    potential = [0] * n
    source, sink = network.source, network.sink
    value, total = 0, 0
    while True:
        dist = [None] * n
        parent_edge = [-1] * n
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for eid in adj[node]:
                if cap[eid] == 0:
                    continue
                other = to[eid]
                nd = d + potential[node] + cost[eid] - potential[other]
                if dist[other] is None or nd < dist[other]:
                    dist[other] = nd
                    parent_edge[other] = eid
                    heapq.heappush(heap, (nd, other))
        if dist[sink] is None:
            break
        for node in range(n):
            if dist[node] is not None:
                potential[node] += dist[node]
        path = []
        node = sink
        while node != source:
            path.append(parent_edge[node])
            node = to[parent_edge[node] ^ 1]
        bottleneck = min(cap[eid] for eid in path)
        for eid in path:
            cap[eid] -= bottleneck
            cap[eid ^ 1] += bottleneck
            total += bottleneck * cost[eid]
        value += bottleneck
    return value, total, tuple(cap[1::2])


def _random_network(rng):
    """A small network with parallel and antiparallel arcs and zero-cost cycles.

    Node 0 is the source, node 1 the sink; some draws leave the sink unreachable.
    """
    n_mid = rng.randint(0, 5)
    n = 2 + n_mid
    inner = list(range(2, n))
    fractional = rng.random() < 0.5
    zero = Fraction(0) if fractional else 0

    def price():
        if rng.random() < 0.3:
            return zero
        if fractional:
            return Fraction(rng.randint(0, 6), rng.choice((1, 2, 3, 5)))
        return rng.randint(0, 4)

    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        tail = rng.choice([0, *inner])
        head = rng.choice([1, *inner])
        if tail != head:
            arcs.append(FlowArc(tail, head, rng.randint(0, 3), price()))
    if len(inner) >= 2 and rng.random() < 0.5:  # a zero-cost cycle, both ways round
        cycle = rng.sample(inner, rng.randint(2, len(inner)))
        for tail, head in zip(cycle, cycle[1:] + cycle[:1]):
            arcs.append(FlowArc(tail, head, rng.randint(1, 3), zero))
            arcs.append(FlowArc(head, tail, rng.randint(1, 3), zero))
    if arcs and rng.random() < 0.3:  # a parallel twin of some arc
        twin = rng.choice(arcs)
        arcs.append(FlowArc(twin.tail, twin.head, rng.randint(0, 3), price()))
    if rng.random() < 0.1:  # nothing enters the sink
        arcs = [arc for arc in arcs if arc.head != 1]
    rng.shuffle(arcs)
    names = tuple(["s", "t"] + [f"v{i}" for i in inner])
    return FlowNetwork(names, tuple(arcs), 0, 1)


class TestEngine:
    def test_single_arc(self):
        net = FlowNetwork(("s", "t"), (FlowArc(0, 1, 3, Fraction(0)),), 0, 1)
        res = min_cost_max_flow(net)
        assert res.value == 3 and res.cost == 0

    def test_two_parallel_paths(self):
        net = FlowNetwork(
            ("s", "a", "b", "t"),
            (
                FlowArc(0, 1, 1, Fraction(0)),
                FlowArc(1, 3, 1, Fraction(1)),
                FlowArc(0, 2, 1, Fraction(0)),
                FlowArc(2, 3, 1, Fraction(5)),
            ),
            0,
            3,
        )
        res = min_cost_max_flow(net)
        assert res.value == 2 and res.cost == 6

    def test_prefers_cheap_route(self):
        # One unit can go direct (cost 3) or around (cost 1+1).
        net = FlowNetwork(
            ("s", "a", "b", "t"),
            (
                FlowArc(0, 1, 1, Fraction(0)),
                FlowArc(1, 3, 1, Fraction(3)),
                FlowArc(1, 2, 1, Fraction(1)),
                FlowArc(2, 3, 1, Fraction(1)),
            ),
            0,
            3,
        )
        res = min_cost_max_flow(net)
        assert res.value == 1 and res.cost == 2

    def test_flows_are_integral_and_capacitated(self):
        rng = random.Random(6)
        for _ in range(20):
            n_mid = rng.randint(1, 4)
            names = ["s", "t"] + [f"v{i}" for i in range(n_mid)]
            arcs = []
            for i in range(n_mid):
                arcs.append(FlowArc(0, 2 + i, rng.randint(0, 3), Fraction(rng.randint(0, 4))))
                arcs.append(FlowArc(2 + i, 1, rng.randint(0, 3), Fraction(rng.randint(0, 4))))
            net = FlowNetwork(tuple(names), tuple(arcs), 0, 1)
            res = min_cost_max_flow(net)
            for arc, flow in zip(net.arcs, res.arc_flows):
                assert 0 <= flow <= arc.capacity
                assert isinstance(flow, int)

    def test_fraction_costs_stay_exact(self):
        # Routes s-a-t (5/6), s-b-t (1) and s-a-b-t (7/6); two units fit, and
        # the cheapest pair is 5/6 + 1.
        third, half = Fraction(1, 3), Fraction(1, 2)
        net = FlowNetwork(
            ("s", "a", "b", "t"),
            (
                FlowArc(0, 1, 2, third),
                FlowArc(0, 2, 1, half),
                FlowArc(1, 3, 1, half),
                FlowArc(1, 2, 1, third),
                FlowArc(2, 3, 1, half),
            ),
            0,
            3,
        )
        res = min_cost_max_flow(net)
        assert res.value == 2
        assert res.cost == Fraction(11, 6) and isinstance(res.cost, Fraction)

    def test_matches_one_path_per_dijkstra(self):
        # Same value and cost as the plain loop; the flow itself may be
        # another optimum, so it is checked on its own terms.
        rng = random.Random(2029)
        kinds = {int: 0, Fraction: 0}
        unreachable = 0
        for _ in range(3000):
            net = _random_network(rng)
            value, cost, _ = _one_path_per_dijkstra(net)
            res = min_cost_max_flow(net)
            assert (res.value, res.cost) == (value, cost)
            assert type(res.cost) is type(cost)
            balance = [0] * len(net.node_names)
            for arc, flow in zip(net.arcs, res.arc_flows):
                assert 0 <= flow <= arc.capacity
                balance[arc.tail] -= flow
                balance[arc.head] += flow
            assert balance[2:] == [0] * (len(balance) - 2)
            assert balance[1] == -balance[0] == res.value
            assert sum(flow * arc.cost for arc, flow in zip(net.arcs, res.arc_flows)) == res.cost
            if net.arcs:
                kinds[type(net.arcs[0].cost)] += 1
            unreachable += value == 0
        assert min(kinds.values()) > 1000 and unreachable > 300

    def test_rejects_negative_capacity(self):
        with pytest.raises(DomainError):
            FlowNetwork(("s", "t"), (FlowArc(0, 1, -1, Fraction(0)),), 0, 1)

    @pytest.mark.parametrize(
        "arc, message",
        [
            (FlowArc(0, 2, 1, -1), "arc costs must be non-negative"),
            (FlowArc(2, 0, 1, 0), "source must have no incoming arcs"),
            (FlowArc(1, 2, 1, 0), "sink must have no outgoing arcs"),
        ],
    )
    def test_rejects_an_arc_against_the_network_rules(self, arc, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            FlowNetwork(("s", "t", "a"), (FlowArc(0, 2, 1, 0), arc), 0, 1)


# The sample's two votes, one unit-price class each.
SAMPLE_CLASSES = [VoteClass(SAMPLE_V, 1, {}, (0,), 1), VoteClass(SAMPLE_U, 1, {}, (1,), 1)]


def _copies(election, vote_class):
    """The expanded votes of a class's lines, in vote order."""
    starts = list(accumulate((vote.multiplicity for vote in election.votes), initial=0))
    return tuple(v for line in vote_class.lines for v in range(starts[line], starts[line + 1]))


def _classes(inst):
    """The vote classes ``solve_unit`` builds, and the constant its flows pay on top."""
    scale, classes, _ = inst.integer_prices()
    k = inst.rule.k
    kept = k * (k - 1) // 2 * sum(c.price * c.size for c in classes)
    return scale, classes, kept


class TestNetworkShape:
    def test_sample_node_count(self):
        net = build_transfer_network(SAMPLE_CLASSES, 2, 2, 2)
        # s, t, x, 2 classes, 5 candidates.
        assert len(net.node_names) == 10
        # a source arc and 5 candidate arcs per class, 5 collector arcs, x -> t.
        assert len(net.arcs) == 2 * (1 + 5) + 5 + 1

    def test_reroute_arc_costs_are_rank_gaps(self):
        for price in (1, 2):
            classes = [c._replace(price=price) for c in SAMPLE_CLASSES]
            net = build_transfer_network(classes, 2, 2, 2)
            arc_cost = {
                (net.node_names[arc.tail], net.node_names[arc.head]): arc.cost for arc in net.arcs
            }
            # in vote u, trading c2's approval (rank 2) for c4's (rank 5) costs 3 swaps
            assert arc_cost[("g[1]", "b[3]")] - arc_cost[("g[1]", "b[1]")] == 3 * price
            # in vote v, trading c1's approval (rank 1) for p's (rank 3) costs 2 swaps
            assert arc_cost[("g[0]", "b[2]")] - arc_cost[("g[0]", "b[0]")] == 2 * price

    def test_keep_arcs_cost_zero(self):
        # Keeping a class's top k costs only the constant its flows pay on
        # top, price * w * k(k-1)/2; no arc but a class's costs anything.
        classes = [VoteClass(SAMPLE_V, 3, {}, (0, 2), 2), VoteClass(SAMPLE_U, 2, {}, (1,), 1)]
        for k in range(1, 6):
            net = build_transfer_network(classes, k, 2, 2)
            for g, (ranking, price, _, _, size) in enumerate(classes):
                top = [net.node_names.index(f"b[{c}]") for c in ranking[:k]]
                node = net.node_names.index(f"g[{g}]")
                keep = sum(a.cost * size for a in net.arcs if a.tail == node and a.head in top)
                assert keep == price * size * k * (k - 1) // 2
            assert all(a.cost == 0 for a in net.arcs if not net.node_names[a.tail].startswith("g["))

    def test_rejects_k_outside_one_to_m(self):
        for k in (0, 6):
            with pytest.raises(DomainError):
                build_transfer_network(SAMPLE_CLASSES, k, 2, 1)

    def test_sample_full_flow_cost(self, sample_instance):
        net = build_transfer_network(SAMPLE_CLASSES, 2, 2, 2)
        res = min_cost_max_flow(net)
        assert res.value == 4  # |V| * k
        assert res.cost == 3 + 2  # the bribery, plus 1 * 1 * 2(2-1)/2 per vote

    def test_classes_share_a_ranking_and_a_price(self):
        lines = (Vote((0, 1, 2)), Vote((0, 1, 2)), Vote((0, 1, 2)), Vote((1, 0, 2)), Vote((0, 1, 2), 2))
        election = Election(("a", "b", "p"), lines)
        costs = SwapCostFunction([1, 2, 1, 2, 1], [{}] * 5)
        inst = BriberyInstance(election, VotingRule.k_approval(1), 2, costs, Fraction(1))
        classes = vote_classes(inst)
        assert classes == [
            VoteClass((0, 1, 2), 1, {}, (0, 2, 4), 4),
            VoteClass((0, 1, 2), 2, {}, (1,), 1),
            VoteClass((1, 0, 2), 2, {}, (3,), 1),
        ]
        # one class arc per (class, candidate): d * m, whatever the multiplicities
        net = build_transfer_network(classes, 1, 2, 3)
        assert sum(net.node_names[a.tail].startswith("g[") for a in net.arcs) == 3 * 3


def _unbribed_start(network, classes, k):
    """The unbribed election as a start: a greedy pass in arc order, and the potentials.

    Each arc carries what its tail still holds, up to its capacity, the
    source holding everything: so every s -> g arc is full, each class
    fills its first k arcs (its top k), and each collector carries what it
    can. π(g[i]) = -p_i (k-1), π(s) = min π(g[i]), 0 elsewhere.
    """
    held = [0] * len(network.node_names)
    held[network.source] = sum(arc.capacity for arc in network.arcs)
    flows = []
    for tail, head, capacity, _ in network.arcs:
        flows.append(min(held[tail], capacity))
        held[tail] -= flows[-1]
        held[head] += flows[-1]
    g = [-c.price * (k - 1) for c in classes]
    return flows, [min(g), 0, 0, *g] + [0] * (len(network.node_names) - 3 - len(g))


def _random_classes(rng, prices):
    """m 1-5, one to three classes of multiplicity 1-3 with integer prices: 0, 1 or per class 0-4."""
    m = rng.randint(1, 5)
    classes, first = [], 0
    for _ in range(rng.randint(1, 3)):
        w = rng.randint(1, 3)
        price = {"zero": 0, "unit": 1, "per-vote": rng.randint(0, 4)}[prices]
        classes.append(VoteClass(tuple(rng.sample(range(m), m)), price, {}, (len(classes),), w))
        first += w
    return classes, m, first


class TestWarmStart:
    def test_matches_a_cold_flow_at_every_target_score(self):
        # Every target score of random transfer networks, started from the
        # unbribed election: the same value as a cold flow, and at full value
        # the same cost, with a flow that conserves at every inner node. A
        # constant added to every potential changes no reduced cost but
        # starts the root's arcs below 0.
        rng = random.Random(101)
        full = short = shared = 0
        for trial in range(300):
            classes, m, n = _random_classes(rng, ("zero", "unit", "per-vote")[trial % 3])
            k, preferred, unique = rng.randint(1, m), rng.randrange(m), rng.random() < 0.5
            shared += any(c.size > 1 for c in classes)
            for target in range(1, n + 1):
                network = build_transfer_network(classes, k, preferred, target, unique)
                value, cost, _ = _one_path_per_dijkstra(network)
                flows, potentials = _unbribed_start(network, classes, k)
                res = min_cost_max_flow(network, (flows, [p + trial % 4 for p in potentials]))
                assert res.value == value
                for arc, flow in zip(network.arcs, res.arc_flows):
                    assert 0 <= flow <= arc.capacity
                if value < n * k:
                    short += 1
                    continue
                full += 1
                assert res.cost == cost
                balance = [0] * len(network.node_names)
                for arc, flow in zip(network.arcs, res.arc_flows):
                    balance[arc.tail] -= flow
                    balance[arc.head] += flow
                assert balance[2:] == [0] * (len(balance) - 2) and balance[1] == value
                assert sum(flow * arc.cost for arc, flow in zip(network.arcs, res.arc_flows)) == cost
        assert full > 300 and short > 300 and shared > 200

    def test_rejects_a_start_it_cannot_trust(self):
        classes = [VoteClass(SAMPLE_V, 2, {}, (0, 1), 2), VoteClass(SAMPLE_U, 1, {}, (2,), 1)]
        network = build_transfer_network(classes, 2, 2, 2)
        flows, potentials = _unbribed_start(network, classes, 2)
        assert min_cost_max_flow(network, (flows, potentials)).value == 6
        over = list(flows)
        over[0] += 1  # s -> g[0] above its capacity
        negative = list(flows)
        negative[1] = -1
        deficit = [0] * len(flows)
        deficit[-2] = 1  # a collector sends what nothing brought
        for start in (
            (over, potentials),
            (negative, potentials),
            (flows, [0] * len(potentials)),  # full class arcs of positive reduced cost
            ([0] * len(flows), [0, 0, 0, 5] + [0] * (len(potentials) - 4)),  # s -> g[0] at -5, empty
            (deficit, [0] * len(potentials)),
            (flows[:-1], potentials),
            (flows, potentials[:-1]),
        ):
            with pytest.raises(DomainError):
                min_cost_max_flow(network, start)


class TestSolveUnit:
    def test_sample_decision(self, sample_instance):
        res = solve_unit(sample_instance)
        assert res.decision and res.optimal_cost == 3
        # the flows run on int costs, but the reported optimum is exact rational
        assert isinstance(res.optimal_cost, Fraction)
        report = verify_bribery(sample_instance, res.witness)
        assert report.total_cost == 3 and report.preferred_wins

    def test_already_winning_costs_nothing(self):
        inst = BriberyInstance(
            sample_election(),
            VotingRule.k_approval(2),
            0,
            SwapCostFunction.unit(2),
            Fraction(0),
        )
        res = solve_unit(inst)
        assert res.decision and res.optimal_cost == 0

    def test_two_candidate_single_swap(self):
        election = Election(("a", "p"), (Vote((0, 1)),))
        for budget, expected in ((Fraction(0), False), (Fraction(1), True)):
            inst = BriberyInstance(
                election, VotingRule.k_approval(1), 1, SwapCostFunction.unit(1), budget
            )
            res = solve_unit(inst)
            assert res.decision is expected
            assert res.optimal_cost == 1

    def test_rejects_pair_overrides(self):
        costs = SwapCostFunction([1, 1], [{}, {(0, 1): Fraction(2)}])
        inst = BriberyInstance(sample_election(), VotingRule.k_approval(2), 2, costs, Fraction(3))
        assert not covers(inst)
        with pytest.raises(PreconditionError):
            solve_unit(inst)
        bucklin = dataclasses.replace(inst, rule=VotingRule.bucklin(), costs=SwapCostFunction.unit(2))
        assert not covers(bucklin)
        with pytest.raises(PreconditionError):
            solve_unit(bucklin)

    def test_uniform_price_scales_the_unit_optimum(self, sample_instance):
        # The sample costs 3 at unit prices; at price 2 every swap costs twice.
        doubled = dataclasses.replace(sample_instance, costs=SwapCostFunction.uniform(2, 2))
        assert covers(doubled)
        for budget, decision in ((5, False), (6, True)):
            res = solve_unit(dataclasses.replace(doubled, budget=Fraction(budget)))
            assert (res.decision, res.optimal_cost) == (decision, 2 * solve_unit(sample_instance).optimal_cost)
            assert verify_bribery(doubled, res.witness).total_cost == 6

    def test_single_candidate_degenerate_yes(self):
        # m = 1 runs through the bisection like any other instance.
        election = Election(("p",), (Vote((0,), 3), Vote((0,))))
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 0, SwapCostFunction.unit(2), Fraction(0)
        )
        for mode in (CO_WINNER, UNIQUE_WINNER):
            res = solve_unit(dataclasses.replace(inst, mode=mode))
            assert res == SolveResult(True, Fraction(0), Bribery(tuple(election.expanded())))

    def test_matches_oracle_including_unique_mode(self):
        for mode in (CO_WINNER, UNIQUE_WINNER):
            assert check("flow", lambda case: labels(case).mode == mode) >= 30, mode

    def test_matches_oracle_on_per_vote_prices(self):
        # Prices differ between votes, zero and rational ones included, and
        # a multiplicity-w vote's copies may be priced apart.
        assert check("flow", lambda case: labels(case).prices == "per-vote") >= 60

    def test_score_profile_matches_target(self):
        # For every target score with a full-value flow, the extracted
        # bribery gives the preferred candidate exactly that score and
        # caps every rival at it (one below it in unique-winner mode).
        rng = random.Random(77)
        checked = 0
        for _ in range(25):
            mode = rng.choice(("co-winner", "unique-winner"))
            inst = random_instance(rng, m_max=5, n_max=3, cost_kind="unit", mode=mode)
            rankings = inst.election.expanded_list()
            k = inst.rule.k
            scale, classes, kept = _classes(inst)
            for target in range(1, len(rankings) + 1):
                network = build_transfer_network(
                    classes, k, inst.preferred, target, inst.unique_mode
                )
                res = min_cost_max_flow(network)
                if res.value != len(rankings) * k:
                    continue
                bribery = Bribery(per_vote(inst.election, classes, _split(classes, res)))
                totals = scores(bribed_election(inst, bribery), inst.rule)
                assert totals[inst.preferred] == target
                limit = target - (1 if inst.unique_mode else 0)
                assert all(
                    s <= limit for c, s in enumerate(totals) if c != inst.preferred
                )
                assert verify_bribery(inst, bribery).total_cost == Fraction(res.cost - kept, scale)
                checked += 1
        assert checked > 25

    def test_per_target_score_flow_equals_profile_search(self):
        # A full-value flow of cost c exists for target score s exactly
        # when some bribery of cost c gives the preferred candidate score s
        # with every rival at most s; checked by enumerating per-vote
        # one-position sets under that very score condition.
        from itertools import combinations, product

        from swapbribery.swaps import move_to_top_cost

        rng = random.Random(79)
        for _ in range(20):
            inst = random_instance(rng, m_max=5, n_max=3, cost_kind="unit")
            rankings = inst.election.expanded_list()
            m, k = inst.election.m, inst.rule.k
            per_vote = [
                [
                    (frozenset(sets), move_to_top_cost(r, sets, k, inst.costs, idx))
                    for sets in combinations(range(m), k)
                ]
                for idx, r in enumerate(rankings)
            ]
            for target in range(1, len(rankings) + 1):
                best = None
                for picks in product(*per_vote):
                    totals = [0] * m
                    for chosen, _ in picks:
                        for c in chosen:
                            totals[c] += 1
                    if totals[inst.preferred] != target:
                        continue
                    if any(
                        totals[c] > target for c in range(m) if c != inst.preferred
                    ):
                        continue
                    cost = sum(c for _, c in picks)
                    if best is None or cost < best:
                        best = cost
                scale, classes, kept = _classes(inst)
                network = build_transfer_network(
                    classes, k, inst.preferred, target
                )
                res = min_cost_max_flow(network)
                full = len(rankings) * k
                if best is None:
                    assert res.value < full
                else:
                    assert res.value == full and Fraction(res.cost - kept, scale) == best


def _per_vote_instance(rng):
    """k-approval, one swap price per vote from {0, 1/2, 3/4, 1, 2, 3, 5}; both modes.

    m 2-5, one to three vote lines of multiplicity 1-3, so up to nine votes;
    the copies of a vote share a price more often than not, and a line whose
    copies do not is split (``lines_priced_per_copy``).
    """
    prices = [Fraction(p) for p in ("0", "1/2", "3/4", "1", "2", "3", "5")]
    m = rng.randint(2, 5)
    votes = tuple(Vote(tuple(rng.sample(range(m), m)), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
    defaults = []
    for vote in votes:
        shared = rng.choice(prices)
        together = rng.random() < 0.7
        defaults += [shared if together else rng.choice(prices) for _ in range(vote.multiplicity)]
    votes, costs = lines_priced_per_copy(votes, [(d, {}) for d in defaults])
    return BriberyInstance(
        Election(tuple(f"c{i}" for i in range(m)), votes),
        VotingRule.k_approval(rng.randint(1, m)),
        rng.randrange(m),
        costs,
        Fraction(rng.randint(0, 24), 2),
        rng.choice((CO_WINNER, UNIQUE_WINNER)),
    )


def _split_vote_by_vote(election, classes, result):
    """The round-robin split by its definition: a class's t-th unit goes to its (t mod w)-th vote."""
    targets = {}
    flows = iter(result.arc_flows)
    for vote_class in classes:
        ranking, votes = vote_class.ranking, _copies(election, vote_class)
        next(flows)  # s -> g
        units = [c for c in ranking for _ in range(next(flows))]
        for i, v in enumerate(votes):
            targets[v] = move_to_top_target(ranking, frozenset(units[i :: len(votes)]))
    return tuple(targets[v] for v in range(len(targets)))


class TestSplit:
    def test_split_by_runs_matches_the_split_vote_by_vote(self):
        # up to three classes of 1 to 40 votes, each over one to three lines,
        # the lines of all classes interleaved; each class sends k units per
        # vote and at most one per vote to each candidate
        rng = random.Random(39)
        for _ in range(3000):
            m = rng.randint(1, 7)
            sizes = [rng.choice((1, 2, 3, rng.randint(1, 40))) for _ in range(rng.randint(1, 3))]
            owners = []  # per line: its class and its copies
            for g, w in enumerate(sizes):
                cuts = sorted(rng.sample(range(1, w), min(w - 1, rng.randint(0, 2))))
                owners += [(g, hi - lo) for lo, hi in zip([0, *cuts], [*cuts, w])]
            rng.shuffle(owners)
            election = Election(tuple(map(str, range(m))), tuple(Vote(tuple(range(m)), w) for _, w in owners))
            classes, flows = [], []
            for g, w in enumerate(sizes):
                k = rng.randint(1, m)
                units = [0] * m
                for _ in range(k * w):
                    units[rng.choice([c for c in range(m) if units[c] < w])] += 1
                flows += [k * w, *units]
                lines = tuple(line for line, (owner, _) in enumerate(owners) if owner == g)
                classes.append(VoteClass(tuple(rng.sample(range(m), m)), 1, {}, lines, w))
            result = FlowResult(0, 0, tuple(flows) + (0,) * (m + 1))  # the collectors carry nothing here
            placed = per_vote(election, classes, _split(classes, result))
            assert placed == _split_vote_by_vote(election, classes, result)

    def test_round_robin_split_meets_the_flow(self):
        # Each vote gets k distinct candidates at the top, in vote order; each
        # class's candidates are approved as often as its arcs carry flow; and
        # the bribery costs the flow minus its constant.
        rng = random.Random(83)
        compared = shared = 0
        for _ in range(200):
            inst = _per_vote_instance(rng)
            k, n = inst.rule.k, inst.election.n_expanded
            scale, classes, kept = _classes(inst)
            for target in range(1, n + 1):
                network = build_transfer_network(classes, k, inst.preferred, target, inst.unique_mode)
                res = min_cost_max_flow(network)
                if res.value != n * k:
                    continue
                targets = per_vote(inst.election, classes, _split(classes, res))
                for g, vote_class in enumerate(classes):
                    ranking, votes = vote_class.ranking, _copies(inst.election, vote_class)
                    node = network.node_names.index(f"g[{g}]")
                    shared += len(votes) > 1
                    carried = {
                        arc.head: flow
                        for arc, flow in zip(network.arcs, res.arc_flows)
                        if arc.tail == node
                    }
                    counts = dict.fromkeys(carried, 0)
                    for v in votes:
                        top = set(targets[v][:k])
                        assert targets[v] == tuple(c for c in ranking if c in top) + tuple(
                            c for c in ranking if c not in top
                        )
                        for c in top:
                            counts[network.node_names.index(f"b[{c}]")] += 1
                    assert counts == carried
                assert verify_bribery(inst, Bribery(targets)).total_cost == Fraction(res.cost - kept, scale)
                compared += 1
        assert compared > 300 and shared > 300


def _scan_every_target(inst):
    """Reference for solve_unit: one cold flow per target score; (decision, optimum, first minimiser)."""
    rankings = inst.election.expanded_list()
    k = inst.rule.k
    scale, classes, kept = _classes(inst)
    best = None
    for target in range(1, len(rankings) + 1):
        network = build_transfer_network(
            classes, k, inst.preferred, target, inst.unique_mode
        )
        res = min_cost_max_flow(network)
        cost = Fraction(res.cost - kept, scale)
        if res.value == len(rankings) * k and (best is None or cost < best[0]):
            best = (cost, target)
    if best is None:
        return False, None, None
    return best[0] <= inst.budget, best[0], best[1]


def _bracket(inst):
    """The target scores ``solve_unit`` searches: [max(1, sp), min(n, max(sp, R + u))]."""
    totals = scores(inst.election, inst.rule)
    own = totals.pop(inst.preferred)
    top = max(own, max(totals, default=0) + inst.unique_mode)
    return max(1, own), min(inst.election.n_expanded, top)


def _check_against_scan(inst):
    """solve_unit's decision and cost are the scan's, and its witness costs that much; the scan's minimiser."""
    decision, optimum, target = _scan_every_target(inst)
    got = solve_unit(inst)
    assert (got.decision, got.optimal_cost) == (decision, optimum)
    if optimum is None:
        assert got.witness is None
    else:
        report = verify_bribery(inst, got.witness)
        assert report.preferred_wins and report.total_cost == optimum
    return target


class TestTargetScoreBisection:
    def test_matches_scan_over_every_target_score(self):
        # The bisection relies on up-closed feasibility, a convex cost in s*
        # and the bracket; a scan over every s* needs none of them. Flow
        # promises an optimal bribery, not the scan's: witnesses are checked
        # on their own terms.
        rng = random.Random(89)
        never_winnable = 0
        for seed in range(240):
            mode = (CO_WINNER, UNIQUE_WINNER)[seed % 2]
            m = rng.randint(2, 7)
            k = m if seed % 8 < 2 else rng.randint(1, min(m, 3))
            inst = gen_random(m, rng.randint(1, 10), k, seed=seed, mode=mode)
            _check_against_scan(inst)
            if k == m and mode == UNIQUE_WINNER:
                assert solve_unit(inst).optimal_cost is None
                never_winnable += 1
        assert never_winnable >= 30

    def test_zero_prices_may_tie_below_the_bracket(self):
        # At price 0 every feasible target score costs 0, so the scan's
        # first minimiser is the smallest feasible one, often below the
        # preferred candidate's unbribed score, where the bracket starts.
        rng = random.Random(97)
        below = 0
        for seed in range(200):
            mode = (CO_WINNER, UNIQUE_WINNER)[seed % 2]
            m = rng.randint(2, 6)
            inst = gen_random(m, rng.randint(1, 8), rng.randint(1, m), seed=seed, mode=mode)
            inst = dataclasses.replace(inst, costs=SwapCostFunction.uniform(inst.election.n_expanded, 0))
            target = _check_against_scan(inst)
            below += target is not None and target < _bracket(inst)[0]
        assert below >= 10

    @pytest.mark.parametrize("m, n, k, optimum", [(64, 64, 4, 3), (32, 256, 4, 12)])
    def test_larger_instances(self, m, n, k, optimum):
        inst = gen_random(m, n, k, seed=1)
        got = solve_unit(inst)
        assert got.optimal_cost == optimum
        assert verify_bribery(inst, got.witness).total_cost == optimum

    @pytest.mark.parametrize("n", [8, 16, 30])
    def test_flow_count_is_logarithmic(self, monkeypatch, n):
        # at most 2 * ceil(log2 width) + 1 flows for a bracket of that width
        runs = []

        def counted(network, start=None):
            runs.append(network)
            return min_cost_max_flow(network, start)

        monkeypatch.setattr("swapbribery.flow.min_cost_max_flow", counted)
        two_valued = ("two-valued", Fraction(1), Fraction(2), 0.3)
        widths = []
        for seed in range(3):
            for mode in (CO_WINNER, UNIQUE_WINNER):
                for inst, solve in (
                    (gen_random(5, n, 2, seed=seed, mode=mode), solve_unit),
                    (gen_random(5, n, 2, two_valued, seed, mode=mode), lambda inst: approx_within_range(inst, 2)),
                ):
                    lo, hi = _bracket(inst)
                    widths.append(hi - lo + 1)
                    runs.clear()
                    solve(inst)
                    assert 1 <= len(runs) <= 2 * math.ceil(math.log2(widths[-1])) + 1
        assert max(widths) >= 3


class TestApproxWithinRange:
    def test_unit_costs_give_exact_optimum(self, sample_instance):
        bribery, cost = approx_within_range(sample_instance, 1)
        assert cost == brute_topk(sample_instance).optimal_cost

    def test_uniform_scaled_costs(self):
        costs = SwapCostFunction.uniform(2, Fraction(3, 2))
        inst = BriberyInstance(
            sample_election(),
            VotingRule.k_approval(2),
            2,
            costs,
            Fraction(9, 2),
        )
        bribery, cost = approx_within_range(inst, Fraction(3, 2))
        assert cost == Fraction(9, 2)
        assert brute_topk(inst).optimal_cost == Fraction(9, 2)

    def test_rejects_out_of_range_costs(self):
        inst = BriberyInstance(
            sample_election(),
            VotingRule.k_approval(2),
            2,
            SwapCostFunction.uniform(2, Fraction(3)),
            Fraction(5),
        )
        with pytest.raises(PreconditionError):
            approx_within_range(inst, 2)

    def test_ratio_bound_on_two_valued_costs(self):
        rng = random.Random(83)
        for _ in range(40):
            inst = random_instance(rng, cost_kind="one-two")
            got = approx_within_range(inst, 2)
            assert got is not None
            bribery, cost = got
            report = verify_bribery(inst, bribery)
            assert report.preferred_wins
            assert report.total_cost == cost
            optimum = brute_topk(inst).optimal_cost
            assert cost <= 2 * optimum


def test_require_covers_counts_the_classes_vote_classes_builds(monkeypatch):
    # three rankings and two prices over twelve votes, each default its own
    # Fraction object: six classes of equal prices, not twelve of objects
    m = 4
    rankings = [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)]
    election = Election(tuple("abcd"), tuple(Vote(rankings[v % 3]) for v in range(12)))
    costs = SwapCostFunction([Fraction(1 + v % 2) for v in range(12)], [{} for _ in range(12)])
    inst = BriberyInstance(election, VotingRule.k_approval(2), 0, costs, Fraction(1))
    assert len(vote_classes(inst)) == 6
    arcs = 6 * (m + 1) + m + 1
    monkeypatch.setattr("swapbribery.flow.MAX_ARCS", arcs)
    require_covers(inst)
    monkeypatch.setattr("swapbribery.flow.MAX_ARCS", arcs - 1)
    with pytest.raises(ResourceCapError, match="^6 vote classes x 4 candidates"):
        require_covers(inst)


def test_classes_of_votes_with_copies_group_every_expanded_vote(monkeypatch):
    # Votes of multiplicity 1 to 5 whose copies draw one price or not, a line
    # split where its copies' prices differ: the classes are the expanded
    # votes grouped by (stored ranking, price) in order of first vote, and
    # require_covers counts as many.
    rng = random.Random(3)
    for _ in range(300):
        m = rng.randint(1, 4)
        rankings = [tuple(rng.sample(range(m), m)) for _ in range(2)]
        votes = tuple(Vote(rng.choice(rankings), rng.randint(1, 5)) for _ in range(rng.randint(1, 6)))
        defaults = []
        for vote in votes:
            if rng.random() < 0.5:
                defaults += [Fraction(rng.randint(1, 2))] * vote.multiplicity
            else:
                defaults += [Fraction(rng.randint(1, 2)) for _ in range(vote.multiplicity)]
        lines, costs = lines_priced_per_copy(votes, [(d, {}) for d in defaults])
        inst = BriberyInstance(Election(tuple("abcd"[:m]), lines), VotingRule.k_approval(1), 0, costs, Fraction(1))
        groups = {}
        for v, key in enumerate(zip(inst.election.expanded(), defaults)):
            groups.setdefault(key, []).append(v)
        expected = [(head_then_rest(r, m), d, tuple(vs)) for (r, d), vs in groups.items()]
        classes = vote_classes(inst)
        assert [(c.ranking, c.price, _copies(inst.election, c)) for c in classes] == expected
        assert all(list(c.lines) == sorted(set(c.lines)) and c.size == len(_copies(inst.election, c)) for c in classes)
        arcs = len(classes) * (m + 1) + m + 1
        monkeypatch.setattr("swapbribery.flow.MAX_ARCS", arcs)
        require_covers(inst)
        monkeypatch.setattr("swapbribery.flow.MAX_ARCS", arcs - 1)
        with pytest.raises(ResourceCapError):
            require_covers(inst)
