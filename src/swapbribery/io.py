"""Line-oriented file formats: elections, solutions, partial votes, graphs.

All rationals are serialized as ``p/q`` with ``/q`` omitted for integers,
and parsing is strict: unknown keys, repeated keys, duplicate candidates,
non-permutation votes and negative costs are rejected with the offending
line number. Election cost lines address vote objects (an object's costs
apply to each of its multiplicity copies); one-sided pair overrides are
completed symmetrically on input. Each distinct cost token is parsed once
per file, on its first line, and the lines that repeat it share its value.
Solution files list only the votes a bribery changes: a ``changed c``
line, then c ``target i`` lines; every other vote keeps its ranking. Files
without a ``changed`` line list every vote, and still read. A line of
candidate names maps to ids, and ids to names, in one
``operator.itemgetter`` call.

A ``vote i multiplicity w head <names>`` or ``target-head i <names>`` line
names a ranking's head; every other candidate follows in increasing id
order. The writer writes each ranking as ``core.stored_ranking`` holds it in
memory: as its head where the tail it drops is at least max(32, m/2) names
long, as in the clique gadget, and in no random instance; else in full. A
parsed head is stored as read when it is already in that form, so reading
it builds no tail: its check is one pass over its names plus an m-byte
mask (``core.stored_ranking``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter

from .core import (
    BUCKLIN,
    CO_WINNER,
    K_APPROVAL,
    UNIQUE_WINNER,
    Election,
    Vote,
    VotingRule,
    stored_ranking,
)
from .errors import DomainError, ParseError, RankingError
from .flow import FlowNetwork
from .reductions import PartialVote, PossibleWinnerInstance
from .swaps import Bribery, BriberyInstance, SwapCostFunction, changed_votes
from .hardness import ColoredGraph, Graph

ELECTION_MAGIC = "sbe 1"
SOLUTION_MAGIC = "sbs 1"
PARTIAL_MAGIC = "pwe 1"

# The most votes a file may declare: an election's expanded votes, with
# multiplicities counted, or a partial-vote file's ``partials``. Read at
# call time, so a test can lower it.
MAX_VOTES = 10**6

# The most vertices a graph file may declare. Read at call time, as
# MAX_VOTES is. ``generate clique-single-vote`` prices every vertex pair,
# so it takes about 6 s at this bound and about 26 s at twice it.
MAX_VERTICES = 1000

# Whitespace as ``str.isspace`` and ``str.split`` see it, which no name may hold.
_SPACE = re.compile(r"\s")


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(token: str, line: int, low: int | None = None) -> Fraction:
    """A rational ``p`` or ``p/q``, at least ``low`` when given."""
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"bad rational {token!r}") from None
    if low is not None and value < low:
        raise ParseError(line, f"rational {value} is below {low}")
    return value


def parse_int(token: str, line: int, low: int | None = None) -> int:
    """A decimal integer: an optional ``-``, then ASCII digits. At least ``low`` when given."""
    if not (token.isdigit() and token.isascii()):  # plain ASCII digits, the common case, need no more
        digits = token[1:] if token[:1] == "-" else token
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(line, f"bad integer {token!r}")
    value = int(token)
    if low is not None and value < low:
        raise ParseError(line, f"integer {value} is below {low}")
    return value


def _lines(text: str, magic: str | None = None) -> list[tuple[int, str]]:
    """The numbered lines that are neither blank nor comments; with ``magic``,
    those after the header line ``magic``."""
    numbered = enumerate(map(str.strip, text.splitlines()), start=1)
    rows = [(no, line) for no, line in numbered if line and line[0] != "#"]
    if magic is None:
        return rows
    if not rows or rows[0][1] != magic:
        raise ParseError(1, f"expected header {magic!r}")
    return rows[1:]


def _check_vote_count(count: int, line: int) -> None:
    """Refuse a file whose votes, up to ``line``, number more than ``MAX_VOTES``."""
    if count > MAX_VOTES:
        raise ParseError(line, f"more than {MAX_VOTES} votes")


def _parse_rule(parts: list[str], line: int) -> VotingRule:
    if not parts:
        raise ParseError(line, "rule needs a variant")
    if parts[0] == "k-approval":
        if len(parts) != 2:
            raise ParseError(line, "usage: rule k-approval <k>")
        return VotingRule.k_approval(parse_int(parts[1], line, low=1))
    if parts[0] == "bucklin":
        if len(parts) != 1:
            raise ParseError(line, "usage: rule bucklin")
        return VotingRule.bucklin()
    if parts[0] == "scoring":
        if len(parts) != 2:
            raise ParseError(line, "usage: rule scoring s1,...,sm")
        return VotingRule.scoring(parse_int(s, line, low=0) for s in parts[1].split(","))
    raise ParseError(line, f"unknown rule {parts[0]!r}")


def _rule_text(rule: VotingRule) -> str:
    if rule.kind == K_APPROVAL:
        return f"k-approval {rule.k}"
    if rule.kind == BUCKLIN:
        return "bucklin"
    return "scoring " + ",".join(str(s) for s in rule.vector)


def _candidate_ids(index: dict[str, int], tokens: list[str], line: int) -> tuple[int, ...]:
    """The ids of candidate names, through ``index``."""
    try:
        if len(tokens) > 1:
            return itemgetter(*tokens)(index)
        # itemgetter of one key returns the bare item, and of none cannot be built
        return tuple(index[token] for token in tokens)
    except KeyError as exc:
        raise ParseError(line, f"unknown candidate {exc.args[0]!r}") from None


def _names_text(names: tuple[str, ...], ids: tuple[int, ...]) -> str:
    """The names of candidate ids, separated by spaces."""
    if len(ids) > 1:
        return " ".join(itemgetter(*ids)(names))
    return " ".join(names[c] for c in ids)


def _written_names(names: tuple[str, ...], ranking: tuple[int, ...]) -> tuple[bool, str]:
    """Whether a stored ranking is a head, and the names written: the ranking as stored."""
    return len(ranking) < len(names), _names_text(names, ranking)


def _once(value, key: str, line: int):
    """Reject the second line of a key that a file may hold once."""
    if value is not None:
        raise ParseError(line, f"duplicate {key} line")


class _Header:
    """The ``candidates``, ``candidate``, ``rule`` and ``preferred`` lines
    that election and partial-vote files share."""

    def __init__(self):
        self.m: int | None = None
        self.names: dict[int, str] = {}
        self.index: dict[str, int] = {}
        self.rule: VotingRule | None = None
        self.rule_line = 0
        self.preferred: int | None = None

    def read(self, parts: list[str], no: int) -> bool:
        """Take one header line; False when its key is not a header key."""
        key = parts[0]
        if key == "candidates":
            if self.m is not None or len(parts) != 2:
                raise ParseError(no, "usage: candidates <m> (once)")
            self.m = parse_int(parts[1], no, low=1)
        elif key == "candidate":
            if self.m is None or len(parts) != 3:
                raise ParseError(no, "usage: candidate <index> <name>")
            idx, name = parse_int(parts[1], no), parts[2]
            if idx in self.names or not 0 <= idx < self.m:
                raise ParseError(no, f"bad or duplicate candidate index {idx}")
            if name in self.index:
                raise ParseError(no, f"duplicate candidate name {name!r}")
            self.names[idx] = name
            self.index[name] = idx
        elif key == "rule":
            _once(self.rule, key, no)
            self.rule, self.rule_line = _parse_rule(parts[1:], no), no
        elif key == "preferred":
            if len(parts) != 2:
                raise ParseError(no, "usage: preferred <name>")
            _once(self.preferred, key, no)
            (self.preferred,) = _candidate_ids(self.index, parts[1:], no)
        else:
            return False
        return True

    def roster(self) -> tuple[str, ...]:
        """The names by id, once the candidate lines and any rule agree with m."""
        if self.m is None or len(self.names) != self.m:
            raise ParseError(1, "candidate count and candidate lines disagree")
        if self.rule is not None:
            try:
                self.rule.validate_for(self.m)
            except DomainError as exc:
                raise ParseError(self.rule_line, str(exc)) from None
        return tuple(self.names[i] for i in range(self.m))


def _roster_lines(candidates: tuple[str, ...]) -> list[str]:
    if _SPACE.search("".join(candidates)):
        name = next(name for name in candidates if _SPACE.search(name))
        raise DomainError(f"candidate name {name!r} is not serializable")
    return [f"candidates {len(candidates)}", *(f"candidate {idx} {name}" for idx, name in enumerate(candidates))]


def parse_election(text: str) -> BriberyInstance:
    """Parse the election file format into a bribery instance."""
    header = _Header()
    index = header.index
    budget = None
    mode = None
    vote_rows: dict[int, tuple[int, tuple[int, ...], int]] = {}  # (multiplicity, names, line)
    n_expanded = 0
    cost_defaults: dict[int, Fraction] = {}
    cost_pairs: dict[int, dict[tuple[int, int], Fraction]] = {}
    values: dict[str, Fraction] = {}  # each distinct cost token, read on its first line

    for no, raw in _lines(text, ELECTION_MAGIC):
        parts = raw.split()
        key = parts[0]
        if key == "vote":
            # an order names at least one candidate; a head may name none
            if len(parts) < 5 or parts[2] != "multiplicity" or parts[4] not in ("order", "head") or (
                parts[4] == "order" and len(parts) == 5
            ):
                raise ParseError(no, "usage: vote <i> multiplicity <w> order|head <names...>")
            idx = parse_int(parts[1], no, low=0)
            if idx in vote_rows:
                raise ParseError(no, f"duplicate vote index {idx}")
            mult = parse_int(parts[3], no, low=1)
            n_expanded += mult
            _check_vote_count(n_expanded, no)
            names = _candidate_ids(index, parts[5:], no)
            head = parts[4] == "head"
            if head and header.m is None:
                raise ParseError(no, "a head vote needs the candidates line before it")
            if not head and len(names) != header.m:  # names resolve only once the roster has begun
                raise ParseError(no, "vote order must list every candidate once")
            # Election checks the rest of an order, and a head; its error names this line.
            vote_rows[idx] = (mult, names, no)
        elif key == "costs":
            if len(parts) < 3:
                raise ParseError(no, "usage: costs <i> default|pair ...")
            idx = parse_int(parts[1], no, low=0)
            token = parts[-1]
            if parts[2] == "default" and len(parts) == 4:
                if idx in cost_defaults:
                    raise ParseError(no, f"duplicate costs {idx} default")
                store, slot = cost_defaults, idx
            elif parts[2] == "pair" and len(parts) == 6:
                slot = _candidate_ids(index, parts[3:5], no)
                if slot[0] == slot[1]:
                    raise ParseError(no, "cost override needs two distinct candidates")
                store = cost_pairs.get(idx)
                if store is None:
                    store = cost_pairs[idx] = {}
                elif slot in store:
                    raise ParseError(no, f"duplicate costs {idx} pair {parts[3]} {parts[4]}")
            else:
                raise ParseError(no, "usage: costs <i> default <v> | costs <i> pair <a> <b> <v>")
            value = values.get(token)
            if value is None:
                value = values[token] = parse_fraction(token, no, low=0)
            store[slot] = value
        elif key == "budget":
            if len(parts) != 2:
                raise ParseError(no, "usage: budget <p[/q]>")
            _once(budget, key, no)
            budget = parse_fraction(parts[1], no)
            if budget < 0:
                raise ParseError(no, "budget must be non-negative")
        elif key == "mode":
            if len(parts) != 2 or parts[1] not in (CO_WINNER, UNIQUE_WINNER):
                raise ParseError(no, "usage: mode co-winner|unique-winner")
            _once(mode, key, no)
            mode = parts[1]
        elif not header.read(parts, no):
            raise ParseError(no, f"unknown key {key!r}")

    candidates = header.roster()
    rule, preferred = header.rule, header.preferred
    if rule is None or budget is None or preferred is None:
        raise ParseError(1, "rule, budget and preferred are required")
    if sorted(vote_rows) != list(range(len(vote_rows))) or not vote_rows:
        raise ParseError(1, "vote indices must be dense 0..n-1")
    for idx in list(cost_defaults) + list(cost_pairs):
        if idx not in vote_rows:
            raise ParseError(1, f"costs reference unknown vote {idx}")

    votes = []
    defaults = []
    overrides = []
    one, no_pairs = Fraction(1), {}  # shared by the votes without cost lines
    for i in range(len(vote_rows)):
        mult, names, _ = vote_rows[i]
        votes.append(Vote(names, mult))
        table = cost_pairs.get(i, no_pairs)
        for (a, b), value in list(table.items()):
            table.setdefault((b, a), value)
        defaults.append(cost_defaults.get(i, one))
        overrides.append(table)

    try:
        election = Election(candidates, tuple(votes))
        return BriberyInstance(
            election=election,
            rule=rule,
            preferred=preferred,
            costs=SwapCostFunction(defaults, overrides),
            budget=budget,
            mode=mode or CO_WINNER,
        )
    except RankingError as exc:
        raise ParseError(vote_rows[exc.vote][2], "vote order must list every candidate once") from None
    except DomainError as exc:
        raise ParseError(1, str(exc)) from None


def serialize_election(instance: BriberyInstance) -> str:
    """Inverse of parse_election: one vote line per ``Vote``, priced as the line."""
    election = instance.election
    out = [ELECTION_MAGIC, *_roster_lines(election.candidates)]
    out.append("rule " + _rule_text(instance.rule))
    out.append(f"budget {format_fraction(instance.budget)}")
    out.append(f"preferred {election.candidates[instance.preferred]}")
    out.append(f"mode {instance.mode}")

    names = election.candidates
    for i, vote in enumerate(election.votes):
        as_head, text = _written_names(names, vote.ranking)
        # rstrip: an empty head leaves no space at the end of its line
        out.append(f"vote {i} multiplicity {vote.multiplicity} {'head' if as_head else 'order'} {text}".rstrip())
    for i, price in enumerate(instance.costs.price_ids):
        default, table = instance.costs.prices[price]
        if default.numerator != default.denominator:  # the price is not 1
            out.append(f"costs {i} default {format_fraction(default)}")
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
) -> str:
    """The solution file; a bribery is written as the votes it changes."""
    out = [SOLUTION_MAGIC, f"decision {'yes' if decision else 'no'}", f"solver {solver}"]
    if cost is not None:
        out.append(f"cost {format_fraction(cost)}")
    if bribery is not None:
        changed = changed_votes(instance, bribery)
        out.append(f"changed {len(changed)}")
        names = instance.election.candidates
        for i, _, _, target in changed:
            as_head, text = _written_names(names, target)
            out.append(f"{'target-head' if as_head else 'target'} {i} {text}".rstrip())
    return "\n".join(out) + "\n"


def _stored_target(ids: tuple[int, ...], full: bool, m: int) -> tuple[int, ...] | None:
    """The ranking a ``target`` (``full``) or ``target-head`` line names, as
    stored; None when the line names no ranking."""
    if full and len(ids) != m:
        return None
    try:
        return stored_ranking(ids, m)
    except DomainError:
        return None


def parse_solution(
    text: str, instance: BriberyInstance
) -> tuple[bool, Fraction | None, Bribery | None, str]:
    """Read a solution file against its instance: decision, cost, bribery, solver.

    With a ``changed c`` line the file holds c target lines, and every vote
    without one keeps its ranking; without it, the targets (if any) must
    cover every expanded vote. ``config`` lines are read and ignored.
    """
    decision = cost = solver = changed = None
    changed_line = outside_line = bad_line = None
    config_keys: set[str] = set()
    targets: dict[int, tuple[int, ...]] = {}
    names = {name: i for i, name in enumerate(instance.election.candidates)}
    m = instance.election.m
    n = instance.election.n_expanded
    for no, raw in _lines(text, SOLUTION_MAGIC):
        parts = raw.split()
        key = parts[0]
        if key in ("target", "target-head") and len(parts) >= 2:
            idx = parse_int(parts[1], no, low=0)
            if idx in targets:
                raise ParseError(no, f"duplicate target index {idx}")
            if idx >= n and outside_line is None:
                outside_line = no
            targets[idx] = _stored_target(_candidate_ids(names, parts[2:], no), key == "target", m)
            if targets[idx] is None and bad_line is None:
                bad_line = no
        elif key == "decision" and len(parts) == 2 and parts[1] in ("yes", "no"):
            _once(decision, key, no)
            decision = parts[1] == "yes"
        elif key == "cost" and len(parts) == 2:
            _once(cost, key, no)
            cost = parse_fraction(parts[1], no)
        elif key == "solver" and len(parts) == 2:
            _once(solver, key, no)
            solver = parts[1]
        elif key == "changed" and len(parts) == 2:
            _once(changed, key, no)
            changed, changed_line = parse_int(parts[1], no, low=0), no
        elif key == "config" and len(parts) >= 3:
            if parts[1] in config_keys:
                raise ParseError(no, f"duplicate config {parts[1]}")
            config_keys.add(parts[1])
        else:
            raise ParseError(no, f"unknown key {key!r}")
    if decision is None:
        raise ParseError(1, "solution file needs a decision line")
    if bad_line is not None:
        raise ParseError(bad_line, "target must list every candidate once")
    bribery = None
    if changed is not None:
        if outside_line is not None:
            raise ParseError(outside_line, f"target index outside expanded votes 0..{n - 1}")
        if len(targets) != changed:
            raise ParseError(changed_line, f"changed {changed} votes, but {len(targets)} target lines follow")
        rankings = instance.election.expanded_list()
        for idx, target in targets.items():
            rankings[idx] = target
        bribery = Bribery(tuple(rankings))
    elif targets:
        if sorted(targets) != list(range(n)):
            raise ParseError(1, "targets must cover expanded votes 0..n-1")
        bribery = Bribery(tuple(targets[i] for i in range(len(targets))))
    return decision, cost, bribery, solver or "unknown"


def serialize_partial(pw: PossibleWinnerInstance) -> str:
    out = [PARTIAL_MAGIC, *_roster_lines(pw.candidates)]
    out.append("rule " + _rule_text(pw.rule))
    out.append(f"preferred {pw.candidates[pw.preferred]}")
    out.append(f"partials {len(pw.votes)}")
    for i, vote in enumerate(pw.votes):
        for a, b in sorted(vote.pairs):
            out.append(f"partial {i} pair {pw.candidates[a]} {pw.candidates[b]}")
    return "\n".join(out) + "\n"


def parse_partial(text: str) -> PossibleWinnerInstance:
    header = _Header()
    n_votes = None
    pairs: dict[int, set[tuple[int, int]]] = {}
    for no, raw in _lines(text, PARTIAL_MAGIC):
        parts = raw.split()
        if parts[0] == "partials" and len(parts) == 2:
            _once(n_votes, "partials", no)
            n_votes = parse_int(parts[1], no, low=0)
            _check_vote_count(n_votes, no)
        elif parts[0] == "partial" and len(parts) == 5 and parts[2] == "pair":
            idx = parse_int(parts[1], no, low=0)
            if n_votes is None or idx >= n_votes:
                raise ParseError(no, f"partial vote {idx} outside partials {n_votes}")
            pair = _candidate_ids(header.index, parts[3:], no)
            if pair[0] == pair[1]:
                raise ParseError(no, "partial order must be irreflexive")
            pairs.setdefault(idx, set()).add(pair)
        elif not header.read(parts, no):
            raise ParseError(no, f"unknown key {parts[0]!r}")
    candidates = header.roster()
    if header.rule is None or header.preferred is None or n_votes is None:
        raise ParseError(1, "incomplete partial-vote file")
    closed: dict[frozenset, PartialVote] = {}  # votes with equal pairs share one closed order
    try:
        votes = []
        for i in range(n_votes):
            given = frozenset(pairs.get(i, ()))
            if given not in closed:
                closed[given] = PartialVote(len(candidates), given)
            votes.append(closed[given])
        return PossibleWinnerInstance(candidates, tuple(votes), header.rule, header.preferred)
    except DomainError as exc:
        raise ParseError(1, str(exc)) from None


def parse_graph(text: str) -> Graph | ColoredGraph:
    """Graph format: ``graph N M [k]``, M ``u v`` edge lines, then for
    colored graphs one ``color u c`` line per vertex."""
    rows = _lines(text)
    if not rows or rows[0][1].split()[0] != "graph":
        raise ParseError(1, "expected header 'graph N M [k]'")
    line, head = rows[0][0], rows[0][1].split()
    if len(head) not in (3, 4):
        raise ParseError(line, "expected header 'graph N M [k]'")
    n, m_edges = parse_int(head[1], line, low=0), parse_int(head[2], line, low=0)
    if n > MAX_VERTICES:
        raise ParseError(line, f"more than {MAX_VERTICES} vertices")
    k = parse_int(head[3], line, low=1) if len(head) == 4 else None
    edges = set()
    colors: dict[int, int] = {}
    for no, raw in rows[1:]:
        parts = raw.split()
        if parts[0] == "color" and len(parts) == 3:
            v = parse_int(parts[1], no)
            if not 0 <= v < n:
                raise ParseError(no, f"vertex {v} outside 0..{n - 1}")
            if v in colors:
                raise ParseError(no, f"vertex {v} colored twice")
            colors[v] = parse_int(parts[2], no)
        elif len(parts) == 2:
            u, v = parse_int(parts[0], no), parse_int(parts[1], no)
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ParseError(no, f"bad edge ({u}, {v})")
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
    if set(color_of) != set(range(1, k + 1)):
        raise ParseError(line, f"colors must be exactly 1..{k}, as the header says")
    return ColoredGraph(n, frozenset(edges), color_of)


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
