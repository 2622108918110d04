import dataclasses
import heapq
import math
import random
from fractions import Fraction

import pytest

from swapbribery.core import CO_WINNER, UNIQUE_WINNER, Election, Vote, VotingRule, scores
from swapbribery.errors import DomainError, PreconditionError
from swapbribery.flow import (
    FlowArc,
    FlowNetwork,
    _extract_targets,
    approx_within_range,
    build_transfer_network,
    min_cost_max_flow,
    solve_unit,
)
from swapbribery.oracle import brute_topk
from swapbribery.reductions import gen_random
from swapbribery.swaps import (
    Bribery,
    BriberyInstance,
    SolveResult,
    SwapCostFunction,
    bribed_election,
    verify_bribery,
)

from conftest import SAMPLE_U, SAMPLE_V, random_instance, sample_election


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


class TestNetworkShape:
    def test_sample_node_count(self):
        net = build_transfer_network([SAMPLE_V, SAMPLE_U], 2, 2, 2)
        # 4 one-position nodes, 10 receivers, 5 collectors, s, t, x.
        assert len(net.node_names) == 22

    def test_reroute_arc_costs_are_rank_gaps(self):
        net = build_transfer_network([SAMPLE_V, SAMPLE_U], 2, 2, 2)
        arc_cost = {}
        for arc in net.arcs:
            arc_cost[(net.node_names[arc.tail], net.node_names[arc.head])] = arc.cost
        # in vote u, candidate c2 (rank 2) rerouting to c4 (rank 5) costs 3
        assert arc_cost[("a[1,1]", "ap[1,3]")] == 3
        # in vote v, candidate c1 (rank 1) rerouting to p (rank 3) costs 2
        assert arc_cost[("a[0,0]", "ap[0,2]")] == 2

    def test_keep_arcs_cost_zero(self):
        net = build_transfer_network([SAMPLE_V, SAMPLE_U], 2, 2, 2)
        for arc in net.arcs:
            tail = net.node_names[arc.tail]
            head = net.node_names[arc.head]
            if tail.startswith("a[") and head.startswith("ap["):
                v1, c1 = tail[2:-1].split(",")
                v2, c2 = head[3:-1].split(",")
                if (v1, c1) == (v2, c2):
                    assert arc.cost == 0

    def test_rejects_k_outside_one_to_m(self):
        for k in (0, 6):
            with pytest.raises(DomainError):
                build_transfer_network([SAMPLE_V, SAMPLE_U], k, 2, 1)

    def test_sample_full_flow_cost(self, sample_instance):
        net = build_transfer_network([SAMPLE_V, SAMPLE_U], 2, 2, 2)
        res = min_cost_max_flow(net)
        assert res.value == 4  # |V| * k
        assert res.cost == 3


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

    def test_rejects_non_unit_costs(self):
        inst = BriberyInstance(
            sample_election(),
            VotingRule.k_approval(2),
            2,
            SwapCostFunction.uniform(2, Fraction(2)),
            Fraction(3),
        )
        with pytest.raises(PreconditionError):
            solve_unit(inst)

    def test_single_candidate_degenerate_yes(self):
        # m = 1 runs through the bisection like any other instance.
        election = Election(("p",), (Vote((0,), 3), Vote((0,))))
        inst = BriberyInstance(
            election, VotingRule.k_approval(1), 0, SwapCostFunction.unit(4), Fraction(0)
        )
        for mode in (CO_WINNER, UNIQUE_WINNER):
            res = solve_unit(dataclasses.replace(inst, mode=mode))
            assert res == SolveResult(True, Fraction(0), Bribery.identity(election))

    def test_matches_oracle_including_unique_mode(self):
        rng = random.Random(71)
        for _ in range(60):
            mode = rng.choice(("co-winner", "unique-winner"))
            inst = random_instance(rng, cost_kind="unit", mode=mode)
            flow = solve_unit(inst)
            brute = brute_topk(inst)
            assert flow.decision == brute.decision
            assert flow.optimal_cost == brute.optimal_cost
            if flow.witness is not None:
                report = verify_bribery(inst, flow.witness)
                assert report.total_cost == flow.optimal_cost
                assert report.preferred_wins

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
            for target in range(1, len(rankings) + 1):
                network = build_transfer_network(
                    rankings, k, inst.preferred, target, inst.unique_mode
                )
                res = min_cost_max_flow(network)
                if res.value != len(rankings) * k:
                    continue
                bribery = Bribery(_extract_targets(network, res, rankings, k))
                totals = scores(bribed_election(inst, bribery), inst.rule)
                assert totals[inst.preferred] == target
                limit = target - (1 if inst.unique_mode else 0)
                assert all(
                    s <= limit for c, s in enumerate(totals) if c != inst.preferred
                )
                assert verify_bribery(inst, bribery).total_cost == res.cost
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
                network = build_transfer_network(
                    rankings, k, inst.preferred, target
                )
                res = min_cost_max_flow(network)
                full = len(rankings) * k
                if best is None:
                    assert res.value < full
                else:
                    assert res.value == full and res.cost == best


def _four_block_targets(network, result, rankings, k):
    """Reference for _extract_targets: each vote's target rebuilt in four blocks.

    The kept top-k candidates, then those the flow routes in, then those it
    routes out, then the rest, each block in its original order.
    """
    m = len(rankings[0])
    a0, ap0 = 3, 3 + len(rankings) * k
    b0 = ap0 + len(rankings) * m
    moved_out = [set() for _ in rankings]
    moved_in = [set() for _ in rankings]
    for arc, flow in zip(network.arcs, result.arc_flows):
        if flow == 0 or not (a0 <= arc.tail < ap0 and ap0 <= arc.head < b0):
            continue
        v, i = divmod(arc.tail - a0, k)
        c, c2 = rankings[v][i], (arc.head - ap0) % m
        if c != c2:
            moved_out[v].add(c)
            moved_in[v].add(c2)
    targets = []
    for v, ranking in enumerate(rankings):
        outs, ins = moved_out[v], moved_in[v]
        top_keep = [c for c in ranking[:k] if c not in outs]
        in_block = [c for c in ranking if c in ins]
        out_block = [c for c in ranking if c in outs]
        rest = [c for c in ranking[k:] if c not in ins]
        targets.append(tuple(top_keep + in_block + out_block + rest))
    return tuple(targets)


class TestExtractTargets:
    def test_matches_four_block_reference(self):
        # Moving each vote's approved set to the top is the four-block
        # ranking: kept and moved-in candidates first, both in vote order.
        rng = random.Random(83)
        compared = 0
        for seed in range(300):
            mode = (CO_WINNER, UNIQUE_WINNER)[seed % 2]
            m = rng.randint(1, 7)
            k = rng.randint(1, m)
            inst = gen_random(m, rng.randint(1, 8), k, seed=seed, mode=mode)
            rankings = inst.election.expanded_list()
            for target in range(1, len(rankings) + 1):
                network = build_transfer_network(rankings, k, inst.preferred, target, inst.unique_mode)
                res = min_cost_max_flow(network)
                if res.value == len(rankings) * k:
                    got = _extract_targets(network, res, rankings, k)
                    assert got == _four_block_targets(network, res, rankings, k), (seed, target)
                    compared += 1
        assert compared > 500


def _scan_every_target(inst):
    """Reference for solve_unit: one flow per target score, first minimiser kept."""
    rankings = inst.election.expanded_list()
    k = inst.rule.k
    best = None
    for target in range(1, len(rankings) + 1):
        network = build_transfer_network(
            rankings, k, inst.preferred, target, inst.unique_mode
        )
        res = min_cost_max_flow(network)
        if res.value == len(rankings) * k and (best is None or res.cost < best[0]):
            best = (res.cost, Bribery(_extract_targets(network, res, rankings, k)))
    if best is None:
        return False, None, None
    return best[0] <= inst.budget, best[0], best[1]


class TestTargetScoreBisection:
    def test_matches_scan_over_every_target_score(self):
        # The bisection relies on up-closed feasibility and a convex cost in
        # s*; a scan over every s* needs neither.
        rng = random.Random(89)
        never_winnable = 0
        for seed in range(240):
            mode = (CO_WINNER, UNIQUE_WINNER)[seed % 2]
            m = rng.randint(2, 7)
            k = m if seed % 8 < 2 else rng.randint(1, min(m, 3))
            inst = gen_random(m, rng.randint(1, 10), k, seed=seed, mode=mode)
            got = solve_unit(inst)
            assert (got.decision, got.optimal_cost, got.witness) == _scan_every_target(inst)
            if k == m and mode == UNIQUE_WINNER:
                assert got.optimal_cost is None
                never_winnable += 1
        assert never_winnable >= 30

    @pytest.mark.parametrize("n", [8, 16, 30])
    def test_flow_count_is_logarithmic(self, monkeypatch, n):
        runs = []

        def counted(network):
            runs.append(network)
            return min_cost_max_flow(network)

        monkeypatch.setattr("swapbribery.flow.min_cost_max_flow", counted)
        bound = 2 * math.ceil(math.log2(n)) + 1
        two_valued = ("two-valued", Fraction(1), Fraction(2), 0.3)
        for seed in range(3):
            for mode in (CO_WINNER, UNIQUE_WINNER):
                runs.clear()
                solve_unit(gen_random(5, n, 2, seed=seed, mode=mode))
                assert 1 <= len(runs) <= bound
                runs.clear()
                approx_within_range(gen_random(5, n, 2, two_valued, seed, mode=mode), 2)
                assert 1 <= len(runs) <= bound


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
