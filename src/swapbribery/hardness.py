"""Clique-based hard-instance generators and their witness briberies.

Two constructions are provided. The multicolored-clique gadget builds a
2-approval instance whose point economy forces any within-budget bribery
to select one vertex per color class and check all pairwise edges: points
travel from score-K+1 candidates through per-vertex relay chains into a
sink candidate, and only edge votes let them complete the trip at unit
prices. The single-vote construction prices a (k+1)-approval vote so the
preferred candidate can afford a point exactly when the graph has a
k-clique. Both come with exact cost accounting, so generated yes
instances carry a witness of known total cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, filterfalse

from .core import CO_WINNER, Election, Vote, VotingRule
from .errors import DomainError
from .swaps import Bribery, BriberyInstance, SwapCostFunction


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        fixed = set()
        for u, v in self.edges:
            if u == v or not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise DomainError(f"bad edge ({u}, {v})")
            fixed.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(fixed))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


@dataclass(frozen=True)
class ColoredGraph(Graph):
    """Graph whose vertices are partitioned into independent color classes 1..k."""

    color_of: tuple[int, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        if len(self.color_of) != self.n_vertices:
            raise DomainError("need one color per vertex")
        k = max(self.color_of, default=0)
        if k < 1 or set(self.color_of) != set(range(1, k + 1)):
            raise DomainError("colors must be 1..k with every class non-empty")

    @property
    def k(self) -> int:
        return max(self.color_of)

    def color_class(self, color: int) -> list[int]:
        return [v for v in range(self.n_vertices) if self.color_of[v] == color]

    def check_classes_independent(self) -> None:
        for u, v in self.edges:
            if self.color_of[u] == self.color_of[v]:
                raise DomainError(f"edge ({u}, {v}) inside color class {self.color_of[u]}")

    def neighbors_in_class(self, x: int, color: int) -> list[int]:
        return [y for y in self.color_class(color) if self.has_edge(x, y)]


@dataclass(frozen=True)
class GadgetLayout:
    """Bookkeeping of a multicolored-clique instance.

    ``votes`` maps a gadget key to the expanded vote indices it occupies;
    chain keys list their votes in relay order.
    """

    votes: dict[tuple, tuple[int, ...]]
    base_score: int  # the common score level K
    budget: Fraction


def _name_a(i, j):
    return f"a_{i}_{j}"


def _name_b(i, x):
    return f"b_{i}_v{x}"


def _name_c(i, x):
    return f"c_{i}_v{x}"


def _name_ct(i, x):
    return f"ct_{i}_v{x}"


def _name_f(i, x):
    return f"f_{i}_v{x}"


def _name_h(i, x):
    return f"h_{i}_v{x}"


def _name_ht(i, x):
    return f"ht_{i}_v{x}"


def _name_m(i, j):
    return f"m_{i}_{j}"


def _name_mt(i, j):
    return f"mt_{i}_{j}"


def multicolored_clique_instance(
    graph: ColoredGraph, epsilon=Fraction(1)
) -> tuple[BriberyInstance, GadgetLayout]:
    """2-approval instance solvable within budget iff the graph has a
    clique with one vertex per color class.

    Prices are 1 everywhere except the two blocking pairs of each
    four-candidate selection/incidence vote, priced 1+epsilon. The budget
    is k^3 + 10k^2 and every point transfer is exact, so the generated
    scores are audited before returning.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if not isinstance(graph, ColoredGraph):
        raise DomainError("the clique gadget needs a colored graph")
    graph.check_classes_independent()
    k = graph.k
    if k < 2:
        raise DomainError("need at least two color classes")

    budget = k**3 + 10 * k**2
    n_guards = budget + 2
    classes = {j: graph.color_class(j) for j in range(1, k + 1)}

    degrees = [k * k]
    for j in range(1, k + 1):
        degrees.append(len(classes[j]))
        for x in range(graph.n_vertices):
            if graph.color_of[x] != j:
                degrees.append(len(graph.neighbors_in_class(x, j)))
    base_score = max(2, max(degrees))
    if base_score % 2:
        base_score += 1

    names: list[str] = []
    index: dict[str, int] = {}

    def cand(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    p = cand("p")
    r = cand("r")
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            cand(_name_a(i, j))
    for make in (_name_b, _name_c, _name_ct, _name_f, _name_h):
        for i in range(1, k + 1):
            for x in range(graph.n_vertices):
                cand(make(i, x))
    for i in range(1, k + 1):
        for x in range(graph.n_vertices):
            if graph.color_of[x] < i:
                cand(_name_ht(i, x))
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            cand(_name_m(i, j))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            cand(_name_mt(i, j))
    guards = [cand(f"g{h}") for h in range(1, n_guards + 1)]

    dummy_count = 0

    def dummy() -> int:
        nonlocal dummy_count
        dummy_count += 1
        return cand(f"dummy{dummy_count}")

    transporter_count = 0

    def transporter() -> int:
        nonlocal transporter_count
        transporter_count += 1
        return cand(f"t{transporter_count}")

    # Heads are the first budget+2 positions of each vote; everything else
    # is appended in index order once the roster is complete. A vote head
    # shorter than budget+2 is padded with guards (rotating through the
    # guard list), which can never score outside the guard votes.
    guard_ptr = 0

    HeadList = list[tuple[list[int], dict[tuple[int, int], Fraction]]]

    def truncated(head: list[int], costs: dict | None = None) -> tuple[list[int], dict]:
        nonlocal guard_ptr
        fill = n_guards - len(head)
        filler = [guards[(guard_ptr + t) % n_guards] for t in range(fill)]
        guard_ptr = (guard_ptr + fill) % n_guards
        return head + filler, dict(costs or {})

    def chain(key: tuple, q1: int, q2: int, length: int, into: HeadList, registry):
        """Votes letting q1 pass one point to q2 at total price ``length``."""
        hops = [q1] + [transporter() for _ in range(length - 1)] + [q2]
        ids = []
        for a, b in zip(hops, hops[1:]):
            ids.append(len(into))
            into.append(truncated([dummy(), a, b]))
        registry[key] = tuple(ids)

    selection: HeadList = []
    incidence: HeadList = []
    sel_keys: dict[tuple, tuple[int, ...]] = {}
    inc_keys: dict[tuple, tuple[int, ...]] = {}

    # Selection votes: one point can travel a -> b -> ct -> c -> f -> h per
    # vertex; the shared four-candidate votes make skipping a level cost
    # an extra epsilon.
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for x in classes[j]:
                chain(("a-b", i, j, x), index[_name_a(i, j)], index[_name_b(i, x)], 1, selection, sel_keys)
    for x in range(graph.n_vertices):
        chain(("b-ct", x), index[_name_b(1, x)], index[_name_ct(1, x)], 2, selection, sel_keys)
    for i in range(2, k + 1):
        for x in range(graph.n_vertices):
            b, c = index[_name_b(i, x)], index[_name_c(i - 1, x)]
            ct, f = index[_name_ct(i, x)], index[_name_f(i - 1, x)]
            sel_keys[("sel4", i, x)] = (len(selection),)
            selection.append(
                truncated(
                    [b, c, ct, f],
                    {
                        (b, c): 1 + epsilon,
                        (c, b): 1 + epsilon,
                        (ct, f): 1 + epsilon,
                        (f, ct): 1 + epsilon,
                    },
                )
            )
    for x in range(graph.n_vertices):
        chain(("c-f", x), index[_name_c(k, x)], index[_name_f(k, x)], 2, selection, sel_keys)
    for i in range(1, k + 1):
        for x in range(graph.n_vertices):
            chain(("ct-c", i, x), index[_name_ct(i, x)], index[_name_c(i, x)], 1, selection, sel_keys)
    for i in range(1, k + 1):
        for x in range(graph.n_vertices):
            chain(("f-h", i, x), index[_name_f(i, x)], index[_name_h(i, x)], 2 * (k - i) + 1, selection, sel_keys)

    # Incidence votes: a point at h can reach the sink candidate r only
    # through a meeting candidate, and crossing an edge vote at unit price
    # requires the paired vertex point to cross simultaneously.
    for i in range(1, k + 1):
        for x in range(graph.n_vertices):
            if graph.color_of[x] < i:
                chain(("h-ht", i, x), index[_name_h(i, x)], index[_name_ht(i, x)], 1, incidence, inc_keys)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for x in classes[j]:
                for y in graph.neighbors_in_class(x, i):
                    h, ht = index[_name_h(i, x)], index[_name_ht(j, y)]
                    mt, mm = index[_name_mt(i, j)], index[_name_m(i, j)]
                    inc_keys[("inc4", i, j, y, x)] = (len(incidence),)
                    incidence.append(
                        truncated(
                            [h, ht, mt, mm],
                            {
                                (h, ht): 1 + epsilon,
                                (ht, h): 1 + epsilon,
                                (mt, mm): 1 + epsilon,
                                (mm, mt): 1 + epsilon,
                            },
                        )
                    )
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            chain(("mt-m", i, j), index[_name_mt(i, j)], index[_name_m(i, j)], 1, incidence, inc_keys)
    for i in range(1, k + 1):
        for x in classes[i]:
            chain(("h-m", i, x), index[_name_h(i, x)], index[_name_m(i, i)], 3, incidence, inc_keys)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            first = len(incidence)
            incidence.append(truncated([dummy(), index[_name_m(i, j)], r]))
            incidence.append(truncated([dummy(), index[_name_m(i, j)], r]))
            inc_keys[("m-r", i, j)] = (first, first + 1)
        inc_keys[("m-r", i, i)] = (len(incidence),)
        incidence.append(truncated([dummy(), index[_name_m(i, i)], r]))

    # Current scores before the initializing votes (2-approval; a vote head
    # [d, q1, q2, ...] gives points to d and q1 only).
    pre_scores: dict[int, int] = {c: 0 for c in range(len(names))}
    for head, _ in selection + incidence:
        pre_scores[head[0]] += 1
        pre_scores[head[1]] += 1

    # Initializing votes lift every durable candidate to the common level:
    # K for everyone, K+1 for the senders in A; r stays at zero.
    init: HeadList = []
    covered = {r, *guards}  # and, below, every candidate passed to add_init

    def add_init(c: int, copies: int):
        if copies < 0:
            raise AssertionError("initializing multiplicity must be non-negative")
        covered.add(c)
        for _ in range(copies):
            init.append(truncated([c, dummy()]))

    add_init(p, base_score)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            add_init(index[_name_a(i, j)], base_score + 1 - len(classes[j]))
    for i in range(1, k + 1):
        for x in range(graph.n_vertices):
            if graph.color_of[x] > i:
                deg = len(graph.neighbors_in_class(x, i))
                add_init(index[_name_h(i, x)], base_score - deg)
            if graph.color_of[x] < i:
                deg = len(graph.neighbors_in_class(x, i))
                add_init(index[_name_ht(i, x)], base_score - deg)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            add_init(index[_name_m(i, j)], base_score - 2)
    durable = [
        c
        for c in range(len(names))
        if c not in covered and not names[c].startswith("dummy")
    ]
    for c in durable:
        add_init(c, base_score - 1)

    # Assemble: guard votes, initializing votes, selection, incidence.
    guard_votes = []
    for h in range(n_guards):
        rotation = guards[h:] + guards[:h]
        guard_votes.append((rotation, {}))

    m_total = len(names)
    all_ids = list(range(m_total))
    votes: list[Vote] = []
    defaults: list[Fraction] = []
    overrides: list[dict] = []
    expanded = 0

    def emit(head: list[int], table: dict, multiplicity: int = 1) -> tuple[int, ...]:
        nonlocal expanded
        in_head = set(head)
        ranking = tuple(head + list(filterfalse(in_head.__contains__, all_ids)))
        votes.append(Vote(ranking, multiplicity))
        ids = tuple(range(expanded, expanded + multiplicity))
        expanded += multiplicity
        defaults.extend([Fraction(1)] * multiplicity)
        overrides.extend([table] * multiplicity)
        return ids

    for head, table in guard_votes:
        emit(head, table, multiplicity=base_score // 2)
    init_offsets = [emit(head, table)[0] for head, table in init]
    sel_offsets = [emit(head, table)[0] for head, table in selection]
    inc_offsets = [emit(head, table)[0] for head, table in incidence]

    layout_votes: dict[tuple, tuple[int, ...]] = {}
    for key, ids in sel_keys.items():
        layout_votes[key] = tuple(sel_offsets[i] for i in ids)
    for key, ids in inc_keys.items():
        layout_votes[key] = tuple(inc_offsets[i] for i in ids)

    election = Election(tuple(names), tuple(votes))
    instance = BriberyInstance(
        election=election,
        rule=VotingRule.k_approval(2),
        preferred=p,
        costs=SwapCostFunction(defaults, overrides),
        budget=Fraction(budget),
        mode=CO_WINNER,
    )
    layout = GadgetLayout(
        votes=layout_votes,
        base_score=base_score,
        budget=Fraction(budget),
    )
    audit_gadget_scores(instance, layout)
    return instance, layout


def audit_gadget_scores(instance: BriberyInstance, layout: GadgetLayout) -> None:
    """Assert the generated score table: senders K+1, sink 0, dummies <= 1,
    every durable candidate exactly K."""
    from .core import scores

    totals = scores(instance.election, instance.rule)
    names = instance.election.candidates
    level = layout.base_score
    for c, total in enumerate(totals):
        name = names[c]
        if name == "r":
            ok = total == 0
        elif name.startswith("a_"):
            ok = total == level + 1
        elif name.startswith("dummy"):
            ok = total <= 1
        else:
            ok = total == level
        if not ok:
            raise AssertionError(f"{name} scored {total} at level {level}")


def multicolored_clique_witness(
    instance: BriberyInstance,
    layout: GadgetLayout,
    clique: dict[int, int],
) -> Bribery:
    """The canonical bribery for a planted clique: one vertex per class.

    ``clique[j]`` is the selected vertex of color class j. Total cost is
    exactly the budget and the preferred candidate ends tied at the
    common score level.
    """
    k = max(clique)
    if sorted(clique) != list(range(1, k + 1)):
        raise DomainError("need exactly one vertex per color class")

    rankings = instance.election.expanded_list()
    targets = list(rankings)

    def transfer(key):
        for vote in layout.votes[key]:
            ranking = list(targets[vote])
            ranking[1], ranking[2] = ranking[2], ranking[1]
            targets[vote] = tuple(ranking)

    def rotate4(key):
        (vote,) = layout.votes[key]
        ranking = targets[vote]
        targets[vote] = ranking[2:4] + ranking[0:2] + ranking[4:]

    for i in range(1, k + 1):
        for j in range(1, k + 1):
            transfer(("a-b", i, j, clique[j]))
    for j in range(1, k + 1):
        transfer(("b-ct", clique[j]))
    for i in range(2, k + 1):
        for j in range(1, k + 1):
            rotate4(("sel4", i, clique[j]))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            transfer(("ct-c", i, clique[j]))
    for j in range(1, k + 1):
        transfer(("c-f", clique[j]))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            transfer(("f-h", i, clique[j]))
    for i in range(1, k + 1):
        for j in range(1, i):
            transfer(("h-ht", i, clique[j]))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            key = ("inc4", i, j, clique[i], clique[j])
            if key not in layout.votes:
                raise DomainError(
                    f"vertices {clique[i]} and {clique[j]} are not adjacent"
                )
            rotate4(key)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            transfer(("mt-m", i, j))
    for i in range(1, k + 1):
        transfer(("h-m", i, clique[i]))
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            transfer(("m-r", i, j))
    return Bribery(tuple(targets))


def single_vote_clique_instance(graph: Graph, k: int) -> BriberyInstance:
    """Single-vote (k+1)-approval instance solvable iff a k-clique exists.

    The preferred candidate sits last; buying it a point means promoting
    it past all but k vertex candidates at a quadratic toll, and the k
    survivors are exactly affordable when pairwise adjacent.
    """
    n = graph.n_vertices
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= {n}")
    names = tuple(
        [f"d{j}" for j in range(1, k + 2)]
        + [f"c{i}" for i in range(1, n + 1)]
        + ["p"]
    )
    d = list(range(k + 1))
    c = list(range(k + 1, k + 1 + n))
    p = k + 1 + n
    ranking = tuple(d + c + [p])

    table: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        for j in range(n):
            if i != j and graph.has_edge(i, j):
                table[(c[i], c[j])] = Fraction(1)
        earlier = sum(1 for j in range(i) if graph.has_edge(j, i))
        table[(d[0], c[i])] = Fraction(n - earlier)
        table[(c[i], p)] = Fraction(n * n)

    budget = (n - k) * n * n + k * n - k * (k - 1) // 2
    return BriberyInstance(
        election=Election(names, (Vote(ranking),)),
        rule=VotingRule.k_approval(k + 1),
        preferred=p,
        costs=SwapCostFunction([Fraction(0)], [table]),
        budget=Fraction(budget),
        mode=CO_WINNER,
    )


def planted_multicolored_clique(
    class_sizes: list[int], seed: int, extra_edge_prob: float = 0.3
) -> tuple[ColoredGraph, dict[int, int]]:
    """Seeded colored graph with a planted one-per-class clique."""
    rng = random.Random(seed)
    colors: list[int] = []
    for j, size in enumerate(class_sizes, start=1):
        colors.extend([j] * size)
    n = len(colors)
    planted = {}
    for j in range(1, len(class_sizes) + 1):
        planted[j] = rng.choice([v for v in range(n) if colors[v] == j])
    edges = set()
    for u, v in combinations(sorted(planted.values()), 2):
        edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if colors[u] != colors[v] and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return ColoredGraph(n, frozenset(edges), tuple(colors)), planted


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi style graph."""
    rng = random.Random(seed)
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    }
    return Graph(n, frozenset(edges))
