"""Line-oriented file formats: elections, solutions, partial votes, graphs.

All rationals are serialized as ``p/q`` with ``/q`` omitted for integers,
and parsing is strict: unknown keys, duplicate candidates, non-permutation
votes and negative costs are rejected with the offending line number.
Election cost lines address vote objects (an object's costs apply to each
of its multiplicity copies); one-sided pair overrides are completed
symmetrically on input.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    BUCKLIN,
    CO_WINNER,
    K_APPROVAL,
    UNIQUE_WINNER,
    Election,
    Vote,
    VotingRule,
)
from .errors import DomainError, ParseError
from .flow import FlowNetwork
from .reductions import PartialVote, PossibleWinnerInstance
from .swaps import Bribery, BriberyInstance, SwapCostFunction
from .hardness import ColoredGraph, Graph

ELECTION_MAGIC = "sbe 1"
SOLUTION_MAGIC = "sbs 1"
PARTIAL_MAGIC = "pwe 1"


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(token: str, line: int) -> Fraction:
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"bad rational {token!r}") from None
    return value


class _Lines:
    def __init__(self, text: str):
        self.items = [
            (no, raw.strip())
            for no, raw in enumerate(text.splitlines(), start=1)
            if raw.strip() and not raw.lstrip().startswith("#")
        ]
        self.pos = 0

    def __iter__(self):
        return iter(self.items[self.pos :])

    def expect_magic(self, magic: str):
        if not self.items or self.items[0][1] != magic:
            raise ParseError(1, f"expected header {magic!r}")
        self.pos = 1


def _parse_rule(parts: list[str], line: int) -> VotingRule:
    if not parts:
        raise ParseError(line, "rule needs a variant")
    if parts[0] == "k-approval":
        if len(parts) != 2 or not parts[1].isdigit():
            raise ParseError(line, "usage: rule k-approval <k>")
        return VotingRule.k_approval(int(parts[1]))
    if parts[0] == "bucklin":
        if len(parts) != 1:
            raise ParseError(line, "usage: rule bucklin")
        return VotingRule.bucklin()
    if parts[0] == "scoring":
        if len(parts) != 2:
            raise ParseError(line, "usage: rule scoring s1,...,sm")
        try:
            vector = tuple(int(s) for s in parts[1].split(","))
        except ValueError:
            raise ParseError(line, "scoring vector must be integers") from None
        return VotingRule.scoring(vector)
    raise ParseError(line, f"unknown rule {parts[0]!r}")


def _rule_text(rule: VotingRule) -> str:
    if rule.kind == K_APPROVAL:
        return f"k-approval {rule.k}"
    if rule.kind == BUCKLIN:
        return "bucklin"
    return "scoring " + ",".join(str(s) for s in rule.vector)


def parse_election(text: str) -> BriberyInstance:
    """Parse the election file format into a bribery instance."""
    lines = _Lines(text)
    lines.expect_magic(ELECTION_MAGIC)

    m = None
    names: dict[int, str] = {}
    rule = None
    budget = None
    preferred = None
    mode = CO_WINNER
    vote_rows: dict[int, tuple[int, tuple[int, ...]]] = {}
    cost_defaults: dict[int, Fraction] = {}
    cost_pairs: dict[int, dict[tuple[int, int], Fraction]] = {}
    name_to_index: dict[str, int] = {}

    def candidate_id(token: str, line: int) -> int:
        if token not in name_to_index:
            raise ParseError(line, f"unknown candidate {token!r}")
        return name_to_index[token]

    for no, raw in lines:
        parts = raw.split()
        key = parts[0]
        if key == "candidates":
            if m is not None or len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(no, "usage: candidates <m> (once)")
            m = int(parts[1])
        elif key == "candidate":
            if m is None or len(parts) != 3 or not parts[1].isdigit():
                raise ParseError(no, "usage: candidate <index> <name>")
            idx, name = int(parts[1]), parts[2]
            if idx in names or not 0 <= idx < m:
                raise ParseError(no, f"bad or duplicate candidate index {idx}")
            if name in name_to_index:
                raise ParseError(no, f"duplicate candidate name {name!r}")
            names[idx] = name
            name_to_index[name] = idx
        elif key == "rule":
            rule = _parse_rule(parts[1:], no)
        elif key == "budget":
            if len(parts) != 2:
                raise ParseError(no, "usage: budget <p[/q]>")
            budget = parse_fraction(parts[1], no)
        elif key == "preferred":
            if len(parts) != 2:
                raise ParseError(no, "usage: preferred <name>")
            preferred = candidate_id(parts[1], no)
        elif key == "mode":
            if len(parts) != 2 or parts[1] not in (CO_WINNER, UNIQUE_WINNER):
                raise ParseError(no, "usage: mode co-winner|unique-winner")
            mode = parts[1]
        elif key == "vote":
            if (
                len(parts) < 6
                or parts[2] != "multiplicity"
                or parts[4] != "order"
                or not parts[1].isdigit()
                or not parts[3].isdigit()
            ):
                raise ParseError(no, "usage: vote <i> multiplicity <w> order <names...>")
            idx = int(parts[1])
            if idx in vote_rows:
                raise ParseError(no, f"duplicate vote index {idx}")
            mult = int(parts[3])
            if mult < 1:
                raise ParseError(no, "vote multiplicity must be >= 1")
            order = tuple(candidate_id(t, no) for t in parts[5:])
            if m is None or len(order) != m or len(set(order)) != m:
                raise ParseError(no, "vote order must list every candidate once")
            vote_rows[idx] = (mult, order)
        elif key == "costs":
            if len(parts) < 3 or not parts[1].isdigit():
                raise ParseError(no, "usage: costs <i> default|pair ...")
            idx = int(parts[1])
            if parts[2] == "default" and len(parts) == 4:
                cost_defaults[idx] = parse_fraction(parts[3], no)
            elif parts[2] == "pair" and len(parts) == 6:
                a, b = candidate_id(parts[3], no), candidate_id(parts[4], no)
                cost_pairs.setdefault(idx, {})[(a, b)] = parse_fraction(parts[5], no)
            else:
                raise ParseError(no, "usage: costs <i> default <v> | costs <i> pair <a> <b> <v>")
        else:
            raise ParseError(no, f"unknown key {key!r}")

    if m is None or len(names) != m:
        raise ParseError(1, "candidate count and candidate lines disagree")
    if rule is None or budget is None or preferred is None:
        raise ParseError(1, "rule, budget and preferred are required")
    if sorted(vote_rows) != list(range(len(vote_rows))) or not vote_rows:
        raise ParseError(1, "vote indices must be dense 0..n-1")
    for idx in list(cost_defaults) + list(cost_pairs):
        if idx not in vote_rows:
            raise ParseError(1, f"costs reference unknown vote {idx}")

    votes = tuple(Vote(vote_rows[i][1], vote_rows[i][0]) for i in range(len(vote_rows)))
    defaults = []
    overrides = []
    for i, vote in enumerate(votes):
        default = cost_defaults.get(i, Fraction(1))
        table = dict(cost_pairs.get(i, {}))
        for (a, b), value in list(table.items()):
            table.setdefault((b, a), value)
        if default < 0 or any(v < 0 for v in table.values()):
            raise ParseError(1, f"negative cost on vote {i}")
        defaults.extend([default] * vote.multiplicity)
        overrides.extend([table] * vote.multiplicity)

    try:
        election = Election(tuple(names[i] for i in range(m)), votes)
        return BriberyInstance(
            election=election,
            rule=rule,
            preferred=preferred,
            costs=SwapCostFunction(defaults, overrides),
            budget=budget,
            mode=mode,
        )
    except DomainError as exc:
        raise ParseError(1, str(exc)) from None


def serialize_election(instance: BriberyInstance) -> str:
    """Inverse of parse_election on its image; splits vote objects whose
    expanded copies ended up with diverging cost tables."""
    election = instance.election
    out = [ELECTION_MAGIC, f"candidates {election.m}"]
    for idx, name in enumerate(election.candidates):
        if any(ch.isspace() for ch in name):
            raise DomainError(f"candidate name {name!r} is not serializable")
        out.append(f"candidate {idx} {name}")
    out.append("rule " + _rule_text(instance.rule))
    out.append(f"budget {format_fraction(instance.budget)}")
    out.append(f"preferred {election.candidates[instance.preferred]}")
    out.append(f"mode {instance.mode}")

    rows: list[tuple[int, tuple[int, ...], int]] = []  # (multiplicity, order, expanded0)
    expanded = 0
    for vote in election.votes:
        same = all(
            instance.costs.default(expanded) == instance.costs.default(expanded + c)
            and instance.costs.overrides(expanded) == instance.costs.overrides(expanded + c)
            for c in range(vote.multiplicity)
        )
        if same:
            rows.append((vote.multiplicity, vote.ranking, expanded))
        else:
            for c in range(vote.multiplicity):
                rows.append((1, vote.ranking, expanded + c))
        expanded += vote.multiplicity

    for i, (mult, order, _) in enumerate(rows):
        ordered = " ".join(election.candidates[c] for c in order)
        out.append(f"vote {i} multiplicity {mult} order {ordered}")
    for i, (_, _, src) in enumerate(rows):
        default = instance.costs.default(src)
        if default != 1:
            out.append(f"costs {i} default {format_fraction(default)}")
        table = instance.costs.overrides(src)
        for (a, b) in sorted(table):
            value = table[(a, b)]
            out.append(
                f"costs {i} pair {election.candidates[a]} "
                f"{election.candidates[b]} {format_fraction(value)}"
            )
            if (b, a) not in table:
                out.append(
                    f"costs {i} pair {election.candidates[b]} "
                    f"{election.candidates[a]} {format_fraction(default)}"
                )
    return "\n".join(out) + "\n"


def serialize_solution(
    instance: BriberyInstance,
    decision: bool,
    cost: Fraction | None,
    bribery: Bribery | None,
    solver: str,
    config: dict[str, str] | None = None,
) -> str:
    out = [SOLUTION_MAGIC, f"decision {'yes' if decision else 'no'}", f"solver {solver}"]
    if cost is not None:
        out.append(f"cost {format_fraction(cost)}")
    for key, value in (config or {}).items():
        out.append(f"config {key} {value}")
    if bribery is not None:
        names = instance.election.candidates
        for i, target in enumerate(bribery.targets):
            out.append(f"target {i} " + " ".join(names[c] for c in target))
    return "\n".join(out) + "\n"


def parse_solution(
    text: str, instance: BriberyInstance
) -> tuple[bool, Fraction | None, Bribery | None, str, dict[str, str]]:
    lines = _Lines(text)
    lines.expect_magic(SOLUTION_MAGIC)
    decision = None
    cost = None
    solver = "unknown"
    config: dict[str, str] = {}
    targets: dict[int, tuple[int, ...]] = {}
    names = {name: i for i, name in enumerate(instance.election.candidates)}
    for no, raw in lines:
        parts = raw.split()
        if parts[0] == "decision" and len(parts) == 2 and parts[1] in ("yes", "no"):
            decision = parts[1] == "yes"
        elif parts[0] == "cost" and len(parts) == 2:
            cost = parse_fraction(parts[1], no)
        elif parts[0] == "solver" and len(parts) == 2:
            solver = parts[1]
        elif parts[0] == "config" and len(parts) >= 3:
            config[parts[1]] = " ".join(parts[2:])
        elif parts[0] == "target" and len(parts) >= 2:
            idx = int(parts[1])
            try:
                targets[idx] = tuple(names[t] for t in parts[2:])
            except KeyError as exc:
                raise ParseError(no, f"unknown candidate {exc.args[0]!r}") from None
        else:
            raise ParseError(no, f"unknown key {parts[0]!r}")
    if decision is None:
        raise ParseError(1, "solution file needs a decision line")
    bribery = None
    if targets:
        if sorted(targets) != list(range(instance.election.n_expanded)):
            raise ParseError(1, "targets must cover expanded votes 0..n-1")
        bribery = Bribery(tuple(targets[i] for i in range(len(targets))))
    return decision, cost, bribery, solver, config


def serialize_partial(pw: PossibleWinnerInstance) -> str:
    out = [PARTIAL_MAGIC, f"candidates {len(pw.candidates)}"]
    for idx, name in enumerate(pw.candidates):
        out.append(f"candidate {idx} {name}")
    out.append("rule " + _rule_text(pw.rule))
    out.append(f"preferred {pw.candidates[pw.preferred]}")
    out.append(f"partials {len(pw.votes)}")
    for i, vote in enumerate(pw.votes):
        for a, b in sorted(vote.pairs):
            out.append(f"partial {i} pair {pw.candidates[a]} {pw.candidates[b]}")
    return "\n".join(out) + "\n"


def parse_partial(text: str) -> PossibleWinnerInstance:
    lines = _Lines(text)
    lines.expect_magic(PARTIAL_MAGIC)
    m = None
    names: dict[int, str] = {}
    name_to_index: dict[str, int] = {}
    rule = None
    preferred = None
    n_votes = None
    pairs: dict[int, set[tuple[int, int]]] = {}
    for no, raw in lines:
        parts = raw.split()
        if parts[0] == "candidates" and len(parts) == 2:
            m = int(parts[1])
        elif parts[0] == "candidate" and len(parts) == 3:
            idx, name = int(parts[1]), parts[2]
            names[idx] = name
            name_to_index[name] = idx
        elif parts[0] == "rule":
            rule = _parse_rule(parts[1:], no)
        elif parts[0] == "preferred" and len(parts) == 2:
            preferred = name_to_index.get(parts[1])
            if preferred is None:
                raise ParseError(no, f"unknown candidate {parts[1]!r}")
        elif parts[0] == "partials" and len(parts) == 2:
            n_votes = int(parts[1])
        elif parts[0] == "partial" and len(parts) == 5 and parts[2] == "pair":
            idx = int(parts[1])
            try:
                a, b = name_to_index[parts[3]], name_to_index[parts[4]]
            except KeyError as exc:
                raise ParseError(no, f"unknown candidate {exc.args[0]!r}") from None
            pairs.setdefault(idx, set()).add((a, b))
        else:
            raise ParseError(no, f"unknown key {parts[0]!r}")
    if m is None or len(names) != m or rule is None or preferred is None or n_votes is None:
        raise ParseError(1, "incomplete partial-vote file")
    votes = tuple(
        PartialVote(m, frozenset(pairs.get(i, set()))) for i in range(n_votes)
    )
    return PossibleWinnerInstance(
        candidates=tuple(names[i] for i in range(m)),
        votes=votes,
        rule=rule,
        preferred=preferred,
    )


def parse_graph(text: str) -> Graph | ColoredGraph:
    """Graph format: ``graph N M [k]``, M ``u v`` edge lines, then for
    colored graphs one ``color u c`` line per vertex."""
    lines = _Lines(text)
    rows = list(lines)
    if not rows or rows[0][1].split()[0] != "graph":
        raise ParseError(1, "expected header 'graph N M [k]'")
    head = rows[0][1].split()
    if len(head) not in (3, 4):
        raise ParseError(rows[0][0], "expected header 'graph N M [k]'")
    n, m_edges = int(head[1]), int(head[2])
    k = int(head[3]) if len(head) == 4 else None
    edges = set()
    colors: dict[int, int] = {}
    for no, raw in rows[1:]:
        parts = raw.split()
        if parts[0] == "color" and len(parts) == 3:
            colors[int(parts[1])] = int(parts[2])
        elif len(parts) == 2:
            u, v = int(parts[0]), int(parts[1])
            edges.add((min(u, v), max(u, v)))
        else:
            raise ParseError(no, f"bad graph line {raw!r}")
    if len(edges) != m_edges:
        raise ParseError(1, f"expected {m_edges} edges, found {len(edges)}")
    if k is None:
        return Graph(n, frozenset(edges))
    try:
        color_of = tuple(colors[v] for v in range(n))
    except KeyError as exc:
        raise ParseError(1, f"vertex {exc.args[0]} has no color") from None
    return ColoredGraph(n, frozenset(edges), color_of)


def serialize_graph(graph: Graph) -> str:
    colored = isinstance(graph, ColoredGraph)
    head = f"graph {graph.n_vertices} {len(graph.edges)}"
    if colored:
        head += f" {graph.k}"
    out = [head]
    for u, v in sorted(graph.edges):
        out.append(f"{u} {v}")
    if colored:
        for v in range(graph.n_vertices):
            out.append(f"color {v} {graph.color_of[v]}")
    return "\n".join(out) + "\n"


def network_to_dot(network: FlowNetwork) -> str:
    """Graphviz rendering of a transfer network with cap/cost labels."""
    out = ["digraph transfer {", "  rankdir=LR;"]
    for name in network.node_names:
        out.append(f'  "{name}";')
    for arc in network.arcs:
        tail = network.node_names[arc.tail]
        head = network.node_names[arc.head]
        label = f"cap {arc.capacity}"
        if arc.cost:
            label += f", cost {format_fraction(arc.cost)}"
        out.append(f'  "{tail}" -> "{head}" [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"
