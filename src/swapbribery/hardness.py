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
from itertools import combinations, count

from .core import CO_WINNER, Election, Vote, VotingRule, scores
from .errors import DomainError, ResourceCapError
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


@dataclass(frozen=True)
class GadgetLayout:
    """Bookkeeping of a multicolored-clique instance.

    ``votes`` maps a gadget key to the expanded vote indices it occupies.
    A chain key's votes are relays ``[dummy, q_t, q_{t+1}, ...]`` in order,
    passing one point from its start to its end at unit price per vote;
    ``sel4``/``inc4`` keys hold one blocked vote whose head is four named
    candidates w, x, y, z, with (w, x), (x, w), (y, z), (z, y) at 1+epsilon.
    Below, x and y are vertices and col(x) is x's color class.

    - ``("a-b", i, j, x)``, col(x) = j: a_i_j to b_i_vx, 1 vote.
    - ``("b-ct", x)``: b_1_vx to ct_1_vx, 2 votes.
    - ``("sel4", i, x)``, i >= 2: blocked b_i_vx, c_{i-1}_vx, ct_i_vx, f_{i-1}_vx.
    - ``("c-f", x)``: c_k_vx to f_k_vx, 2 votes.
    - ``("ct-c", i, x)``: ct_i_vx to c_i_vx, 1 vote.
    - ``("f-h", i, x)``: f_i_vx to h_i_vx, 2(k-i)+1 votes.
    - ``("h-ht", i, x)``, col(x) < i: h_i_vx to ht_i_vx, 1 vote.
    - ``("inc4", i, j, y, x)``, i < j, col(y) = i, col(x) = j, x adjacent
      to y: blocked h_i_vx, ht_j_vy, mt_i_j, m_i_j.
    - ``("mt-m", i, j)``, i < j: mt_i_j to m_i_j, 1 vote.
    - ``("h-m", i, x)``, col(x) = i: h_i_vx to m_i_i, 3 votes.
    - ``("m-r", i, j)``, i <= j: parallel votes ``[dummy, m_i_j, r]``,
      2 for i < j and 1 for i = j.

    A clique's witness bribes the keys whose vertices all lie in it, keys
    without vertices included: each chain vote swaps positions 1 and 2, and
    a ``sel4``/``inc4`` vote trades its pairs to y, z, w, x.
    """

    votes: dict[tuple, tuple[int, ...]]
    base_score: int  # the common score level K
    budget: Fraction


# The most head positions, vote objects times head length (budget + 2), that
# ``multicolored_clique_instance`` stores; past it the gadget is refused
# before a vote is built. Read at call time, so a test can lower it.
MAX_GADGET_POSITIONS = 2 * 10**6

# Each gadget key is (family, level indices..., vertices...): its family's level count.
_LEVEL_INDICES = {"a-b": 2, "b-ct": 0, "sel4": 1, "c-f": 0, "ct-c": 1, "f-h": 1, "h-ht": 1,
                  "inc4": 2, "mt-m": 2, "h-m": 1, "m-r": 2}


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
    color = graph.color_of
    levels = range(1, k + 1)
    vertices = range(graph.n_vertices)
    classes = {j: graph.color_class(j) for j in levels}
    neighbors = {
        (x, i): [y for y in classes[i] if graph.has_edge(x, y)] for x in vertices for i in levels if color[x] != i
    }
    base_score = max(2, k * k, *map(len, classes.values()), *map(len, neighbors.values()))
    base_score += base_score % 2

    # The votes built below, counted from the graph alone: guard votes, then
    # the initializing votes add_init makes and the body's relays and blocked votes.
    n = graph.n_vertices
    n_pairs = k * (k - 1) // 2  # the (i, j) with i < j
    n_ht = sum(k - color[x] for x in vertices)  # one ht candidate, one h-ht vote each
    n_inc = sum(len(neighbors[x, i]) for x in vertices for i in range(1, color[x]))  # the edges
    n_transporters = 4 * n + n * k * (k - 1)
    n_durable = 4 * k * n + n + n_ht + k + n_pairs + n_transporters
    n_init = (
        base_score
        + k * (k * (base_score + 1) - n)
        + n * (k - 1) * base_score - 2 * n_inc
        + n_pairs * (base_score - 2)
        + n_durable * (base_score - 1)
    )
    n_votes = n_guards + n_init + n * (k * k + 3 * k + 6) + n_ht + n_inc + 3 * n_pairs + k
    if n_votes * n_guards > MAX_GADGET_POSITIONS:
        raise ResourceCapError(
            f"the clique gadget would store {n_votes} votes of {n_guards} head positions each, "
            f"more than {MAX_GADGET_POSITIONS} positions"
        )

    names: list[str] = []

    def cand(name: str) -> int:
        names.append(name)
        return len(names) - 1

    # Ids follow registration order: this roster, then dummies and
    # transporters as the votes below create them.
    p = cand("p")
    r = cand("r")
    a = {(i, j): cand(f"a_{i}_{j}") for i in levels for j in levels}
    b, c, ct, f, h = (
        {(i, x): cand(f"{family}_{i}_v{x}") for i in levels for x in vertices}
        for family in ("b", "c", "ct", "f", "h")
    )
    ht = {(i, x): cand(f"ht_{i}_v{x}") for i in levels for x in vertices if color[x] < i}
    m = {(i, j): cand(f"m_{i}_{j}") for i in levels for j in levels if i <= j}
    mt = {(i, j): cand(f"mt_{i}_{j}") for i in levels for j in levels if i < j}
    guards = [cand(f"g{g}") for g in range(1, n_guards + 1)]
    dummies = count(1)
    transporters = count(1)

    # Heads are the first budget+2 positions of each vote; everything else
    # follows in index order, and the election stores only the head. A vote
    # head shorter than budget+2 is padded with guards (rotating through the
    # guard list), which can never score outside the guard votes.
    guard_ptr = 0
    guards_twice = guards + guards  # every rotation of the guards is a slice

    def truncated(head: list[int]) -> list[int]:
        nonlocal guard_ptr
        fill = n_guards - len(head)
        filler = guards_twice[guard_ptr : guard_ptr + fill]
        guard_ptr = (guard_ptr + fill) % n_guards
        return head + filler

    # The selection votes, then the incidence votes, as (head, price
    # overrides); ``keys`` holds each gadget key's positions in ``body``.
    # Every vote at unit price shares one empty table.
    body: list[tuple[list[int], dict]] = []
    keys: dict[tuple, tuple[int, ...]] = {}
    unit_priced: dict = {}

    def relays(key: tuple, steps) -> None:
        """One vote [dummy, q, q'] per step (q, q'): q can pass q' a point."""
        start = len(body)
        body.extend((truncated([cand(f"dummy{next(dummies)}"), q, q2]), unit_priced) for q, q2 in steps)
        keys[key] = tuple(range(start, len(body)))

    def chain(key: tuple, q1: int, q2: int, length: int) -> None:
        """Votes letting q1 pass one point to q2 at total price ``length``."""
        hops = [q1, *[cand(f"t{next(transporters)}") for _ in range(length - 1)], q2]
        relays(key, zip(hops, hops[1:]))

    def blocked(key: tuple, w: int, x: int, y: int, z: int) -> None:
        keys[key] = (len(body),)
        tax = 1 + epsilon
        table = {(w, x): tax, (x, w): tax, (y, z): tax, (z, y): tax}
        body.append((truncated([w, x, y, z]), table))

    # Selection votes: one point can travel a -> b -> ct -> c -> f -> h per
    # vertex; the shared four-candidate votes make skipping a level cost
    # an extra epsilon.
    for i in levels:
        for j in levels:
            for x in classes[j]:
                chain(("a-b", i, j, x), a[i, j], b[i, x], 1)
    for x in vertices:
        chain(("b-ct", x), b[1, x], ct[1, x], 2)
    for i in range(2, k + 1):
        for x in vertices:
            blocked(("sel4", i, x), b[i, x], c[i - 1, x], ct[i, x], f[i - 1, x])
    for x in vertices:
        chain(("c-f", x), c[k, x], f[k, x], 2)
    for i in levels:
        for x in vertices:
            chain(("ct-c", i, x), ct[i, x], c[i, x], 1)
    for i in levels:
        for x in vertices:
            chain(("f-h", i, x), f[i, x], h[i, x], 2 * (k - i) + 1)

    # Incidence votes: a point at h can reach the sink candidate r only
    # through a meeting candidate, and crossing an edge vote at unit price
    # requires the paired vertex point to cross simultaneously.
    for i, x in ht:
        chain(("h-ht", i, x), h[i, x], ht[i, x], 1)
    for i, j in mt:
        for x in classes[j]:
            for y in neighbors[x, i]:
                blocked(("inc4", i, j, y, x), h[i, x], ht[j, y], mt[i, j], m[i, j])
    for i, j in mt:
        chain(("mt-m", i, j), mt[i, j], m[i, j], 1)
    for i in levels:
        for x in classes[i]:
            chain(("h-m", i, x), h[i, x], m[i, i], 3)
    for i in levels:
        for j in range(i + 1, k + 1):
            relays(("m-r", i, j), [(m[i, j], r)] * 2)
        relays(("m-r", i, i), [(m[i, i], r)])

    # Initializing votes lift every durable candidate to the common level:
    # K for everyone, K+1 for the senders in A; r stays at zero.
    init: list[list[int]] = []
    covered = {r, *guards}  # and, below, every candidate passed to add_init

    def add_init(q: int, copies: int):
        if copies < 0:
            raise AssertionError("initializing multiplicity must be non-negative")
        covered.add(q)
        for _ in range(copies):
            init.append(truncated([q, cand(f"dummy{next(dummies)}")]))

    add_init(p, base_score)
    for (i, j), q in a.items():
        add_init(q, base_score + 1 - len(classes[j]))
    for i in levels:
        for x in vertices:
            if color[x] > i:
                add_init(h[i, x], base_score - len(neighbors[x, i]))
            if color[x] < i:
                add_init(ht[i, x], base_score - len(neighbors[x, i]))
    for i, j in mt:
        add_init(m[i, j], base_score - 2)
    durable = [
        q
        for q in range(len(names))
        if q not in covered and not names[q].startswith("dummy")
    ]
    for q in durable:
        add_init(q, base_score - 1)

    # Assemble: guard votes, initializing votes, then the body.
    pairs = base_score // 2
    first = n_guards * pairs + len(init)
    votes = [Vote(tuple(guards_twice[g : g + n_guards]), pairs) for g in range(n_guards)]
    votes += [Vote(tuple(head)) for head in init]
    votes += [Vote(tuple(head)) for head, _ in body]
    if len(votes) != n_votes:
        raise AssertionError(f"built {len(votes)} gadget votes, counted {n_votes}")
    overrides = [unit_priced] * (n_guards + len(init)) + [table for _, table in body]

    instance = BriberyInstance(
        election=Election(tuple(names), tuple(votes)),
        rule=VotingRule.k_approval(2),
        preferred=p,
        costs=SwapCostFunction([Fraction(1)] * len(overrides), overrides),
        budget=Fraction(budget),
        mode=CO_WINNER,
    )
    layout = GadgetLayout(
        votes={key: tuple(first + at for at in ids) for key, ids in keys.items()},
        base_score=base_score,
        budget=Fraction(budget),
    )
    audit_gadget_scores(instance, layout)
    return instance, layout


def audit_gadget_scores(instance: BriberyInstance, layout: GadgetLayout) -> None:
    """Assert the generated score table: senders K+1, sink 0, dummies <= 1,
    every durable candidate exactly K."""
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
    if sorted(clique) != list(range(1, k + 1)) or ("m-r", k + 1, k + 1) in layout.votes:
        raise DomainError("need exactly one vertex per color class")
    # An ("a-b", 1, j, x) key exists exactly when x is in class j.
    if any(("a-b", 1, j, x) not in layout.votes for j, x in clique.items()):
        raise DomainError("need exactly one vertex per color class")
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if ("inc4", i, j, clique[i], clique[j]) not in layout.votes:
                raise DomainError(f"vertices {clique[i]} and {clique[j]} are not adjacent")

    chosen = set(clique.values())
    targets = instance.election.expanded_list()
    for (family, *indices), votes in layout.votes.items():
        if chosen.issuperset(indices[_LEVEL_INDICES[family] :]):
            for vote in votes:
                ranking = targets[vote]
                if family in ("sel4", "inc4"):
                    targets[vote] = ranking[2:4] + ranking[:2] + ranking[4:]
                else:
                    targets[vote] = (ranking[0], ranking[2], ranking[1]) + ranking[3:]
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


def planted_multicolored_clique(class_sizes: list[int], seed: int) -> tuple[ColoredGraph, dict[int, int]]:
    """Seeded colored graph with a planted one-per-class clique, other cross-class edges at rate 0.3."""
    rng = random.Random(seed)
    colors = [j for j, size in enumerate(class_sizes, start=1) for _ in range(size)]
    n = len(colors)
    planted = {j: rng.choice([v for v in range(n) if colors[v] == j]) for j in range(1, len(class_sizes) + 1)}
    edges = set(combinations(sorted(planted.values()), 2))
    for u in range(n):
        for v in range(u + 1, n):
            if colors[u] != colors[v] and rng.random() < 0.3:
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
