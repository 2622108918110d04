"""Solving by integer programs over vote-transformation counts.

Works for any rule describable by linear inequality systems over the m!
per-permutation vote counts: the preferred candidate wins exactly when
some system in the description is satisfied. ``build_ilp(instance)``
describes the instance's rule and builds one program, in candidate ids over
the vote classes of ``BriberyInstance.integer_prices``: integer variables
count how many votes of a class (a group) transform into each target
permutation, constrained by group sizes, the budget, and each description
set in turn, with the transformed counts substituted in.
Feasibility is decided exactly by depth-first search with bound
propagation, after a rational-relaxation check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations

from . import _search
from .core import BUCKLIN, K_APPROVAL, Ranking
from .errors import DomainError, ResourceCapError
from .lp import lp_feasible
from .oracle import factorial_exceeds
from .swaps import Bribery, BriberyInstance, SolveResult, VoteClass, target_costs

@dataclass(frozen=True)
class Inequality:
    """The row coeffs . x >= rhs, in integers.

    Over the m! permutation counts in a rule description, and over the
    transformation counts once substituted into a program.
    """

    coeffs: tuple[int, ...]
    rhs: int


@dataclass(frozen=True)
class LinearInequalitySystem:
    """Rule description: the preferred candidate wins iff some set is satisfied.

    ``perms`` is ``permutations(order)``, in that order, where ``order`` is
    the preferred candidate followed by the others in increasing id; so
    ``perms[0][0]`` is the preferred candidate.
    """

    perms: tuple[Ranking, ...]
    sets: tuple[tuple[Inequality, ...], ...]


# Size limit, read at every call; exceeding it raises ResourceCapError. Each
# vote class has m! - 1 variables, so the limit also bounds m (at most 6). The
# search's node budget is ``_search.MAX_NODES``, shared by every exact search.
MAX_VARIABLES = 2000


def describe_rule(rule, m: int, n: int, preferred: int, unique: bool = False) -> LinearInequalitySystem:
    """Linear-inequality description of k-approval or Bucklin, for ``preferred``.

    k-approval is one set of m-1 dominance rows. Bucklin needs one set
    per candidate position b: rows forcing the winning round to be at
    least b, a majority row for the preferred candidate at depth b, and m-1
    dominance rows at depth b. Under unique-winner semantics dominance
    rows require a strictly higher count (+1 on integer data). Upper
    bounds are written negated, so every row reads ``>=``.

    Every refusal comes before any permutation is built, among them an m at
    which one vote class alone would have m! - 1 > ``MAX_VARIABLES`` variables.
    """
    if rule.kind not in (K_APPROVAL, BUCKLIN):
        raise DomainError("integer-program solving supports k-approval and Bucklin")
    if not 0 <= preferred < m:
        raise DomainError("preferred candidate not on the roster")
    if factorial_exceeds(1, m, MAX_VARIABLES + 1):
        raise ResourceCapError(f"{m}! - 1 variables per vote class exceed cap {MAX_VARIABLES}")
    if rule.kind == K_APPROVAL and rule.k > m:
        raise DomainError("k exceeds the number of candidates")
    order = [preferred] + [c for c in range(m) if c != preferred]
    perms = tuple(permutations(order))
    margin = 1 if unique else 0

    def depth_coeffs(cand: int, depth: int) -> tuple[int, ...]:
        return tuple(int(perm.index(cand) < depth) for perm in perms)

    def dominance(depth: int) -> list[Inequality]:
        """The preferred candidate counted at least as often (unique: more often) as each rival."""
        top_p = depth_coeffs(preferred, depth)
        return [
            Inequality(
                tuple(a - b for a, b in zip(top_p, depth_coeffs(rival, depth))), margin
            )
            for rival in order[1:]
        ]

    if rule.kind == K_APPROVAL:
        return LinearInequalitySystem(perms, (tuple(dominance(rule.k)),))

    half = n // 2
    sets = []
    for b in range(1, m + 1):
        # No candidate reaches a majority within depth b-1.
        rows = [
            Inequality(tuple(-c for c in depth_coeffs(cand, b - 1)), -half)
            for cand in order
        ]
        rows.append(Inequality(depth_coeffs(preferred, b), half + 1))
        rows.extend(dominance(b))
        sets.append(tuple(rows))
    return LinearInequalitySystem(perms, tuple(sets))


@dataclass(frozen=True)
class TransformationIlp:
    """Every description set, substituted over one variable layout and ready to decide.

    ``sets`` holds each description set's rows over the variables; a row's
    rhs is the description row's rhs minus its value on the votes as cast.
    A group's variables are adjacent. Costs and budget are ints on the scale
    of ``BriberyInstance.integer_prices``: ``c`` stands for ``Fraction(c, scale)``.
    """

    groups: tuple[VoteClass, ...]  # the scaled classes of ``BriberyInstance.integer_prices``
    variables: tuple[tuple[int, int], ...]  # (group index, target permutation)
    var_costs: tuple[int, ...]  # cost of one transformation, per variable
    budget: int
    scale: int
    sets: tuple[tuple[Inequality, ...], ...]
    perms: tuple[Ranking, ...]


def build_ilp(instance: BriberyInstance) -> TransformationIlp:
    """The program that ``solve_ilp`` decides and ``--dump-ilp`` lists.

    The instance's rule is described for its preferred candidate, and every
    description set substituted over the vote classes' transformation counts.
    """
    election = instance.election
    system = describe_rule(instance.rule, election.m, election.n_expanded, instance.preferred, instance.unique_mode)
    perm_index = {perm: i for i, perm in enumerate(system.perms)}
    scale, classes, budget = instance.integer_prices()
    n_vars = len(classes) * (len(system.perms) - 1)  # checked before any target cost or row is built
    if n_vars > MAX_VARIABLES:
        raise ResourceCapError(f"{n_vars} variables exceed cap {MAX_VARIABLES}")

    bases, costs = [], []  # per class: its ranking's permutation index, its target costs
    counts = [0] * len(system.perms)
    for ranking, price, overrides, votes in classes:
        bases.append(perm_index[ranking])
        # targets in system.perms order, since system.perms is permutations(system.perms[0])
        costs.append(target_costs(ranking, price, overrides, system.perms[0]))
        counts[bases[-1]] += len(votes)

    variables = tuple(
        (g, j)
        for g, base in enumerate(bases)
        for j in range(len(system.perms))
        if j != base
    )
    sets = tuple(
        tuple(
            Inequality(
                tuple(row.coeffs[j] - row.coeffs[bases[g]] for g, j in variables),
                row.rhs - sum(c * x for c, x in zip(row.coeffs, counts)),
            )
            for row in rows
        )
        for rows in system.sets
    )
    return TransformationIlp(
        groups=tuple(classes),
        variables=variables,
        var_costs=tuple(costs[g][j] for g, j in variables),
        budget=budget,
        scale=scale,
        sets=sets,
        perms=system.perms,
    )


def _relaxation_rows(ilp: TransformationIlp, rows: tuple[Inequality, ...]) -> list[tuple[list, int]]:
    """Every constraint of the program with the set ``rows``, in the ``a . x <= b`` form of ``lp_feasible``."""
    relaxed = [([-c for c in row.coeffs], -row.rhs) for row in rows]
    relaxed.append((list(ilp.var_costs), ilp.budget))
    for g, group in enumerate(ilp.groups):
        relaxed.append(([int(var[0] == g) for var in ilp.variables], len(group.votes)))
    return relaxed


def ilp_feasible(ilp: TransformationIlp, rows: tuple[Inequality, ...]) -> dict[tuple[int, int], int] | None:
    """Exact feasibility of the program with the set ``rows``; witness assignment or None.

    Depth-first search over the integer box, one group at a time, pruning
    on the budget, on per-row reachability bounds, and (once, up front) on
    rational-relaxation infeasibility. Exponential in the worst case.
    """
    n_vars = len(ilp.variables)
    coeffs = [row.coeffs for row in rows]
    rhs = [row.rhs for row in rows]
    if lp_feasible(_relaxation_rows(ilp, rows), n_vars) is None:
        return None

    var_costs, budget = ilp.var_costs, ilp.budget
    group_of = [g for g, _ in ilp.variables]  # ascending: a group's variables are adjacent
    sizes = [len(group.votes) for group in ilp.groups]
    n_groups = len(ilp.groups)
    starts = [bisect_left(group_of, g) for g in range(n_groups + 1)]  # group g's run: starts[g]:starts[g + 1]

    # Optimistic remaining contribution per row from groups g.. onward:
    # each group may put its full size on its best non-negative coefficient.
    best_gain = [[0] * (n_groups + 1) for _ in coeffs]
    for r, row in enumerate(coeffs):
        for g in range(n_groups - 1, -1, -1):
            top = max(row[starts[g] : starts[g + 1]], default=0)
            best_gain[r][g] = best_gain[r][g + 1] + max(0, top) * sizes[g]

    values = [0] * n_vars
    row_acc = [0] * len(coeffs)
    max_nodes = _search.MAX_NODES
    nodes = 0
    # One level per variable, each entry a node: spent[v] and remaining[v] are
    # the cost so far and the votes left in v's group, values[v] v's count.
    spent = [0] * (n_vars + 1)
    remaining = [0] * (n_vars + 1)
    v = 0
    while True:
        nodes += 1
        if nodes > max_nodes:
            raise ResourceCapError(f"search exceeded its node budget of {max_nodes}")
        if v == n_vars:
            if all(acc >= b for acc, b in zip(row_acc, rhs)):
                return {var: values[v] for v, var in enumerate(ilp.variables)}
            t = None
        else:
            g = group_of[v]
            if v == 0 or group_of[v - 1] != g:  # first variable of group g
                remaining[v] = sizes[g]
            reachable = all(row_acc[r] + best_gain[r][g] >= b for r, b in enumerate(rhs))
            t = 0 if reachable else None
        # back up while level v has no count t left to try
        while t is None or t > remaining[v] or spent[v] + var_costs[v] * t > budget:
            if not v:
                return None
            v -= 1
            t = values[v]
            if t:
                for r, row in enumerate(coeffs):
                    if row[v]:
                        row_acc[r] -= row[v] * t
            t += 1
        values[v] = t
        if t:
            for r, row in enumerate(coeffs):
                if row[v]:
                    row_acc[r] += row[v] * t
        spent[v + 1] = spent[v] + var_costs[v] * t
        remaining[v + 1] = remaining[v] - t
        v += 1


def assignment_to_bribery(
    instance: BriberyInstance,
    ilp: TransformationIlp,
    assignment: dict[tuple[int, int], int],
) -> Bribery:
    """Transform t copies of each group into its targets: votes in expanded order, targets in variable order."""
    targets = list(instance.election.expanded())
    unassigned = [iter(group.votes) for group in ilp.groups]
    for (g, j) in ilp.variables:
        for vote in islice(unassigned[g], assignment.get((g, j), 0)):
            targets[vote] = ilp.perms[j]
    return Bribery(tuple(targets))


def format_lp(ilp: TransformationIlp, rows: tuple[Inequality, ...]) -> str:
    """Plain-text listing of the program with the set ``rows``, for audit.

    Variables print as t[g->j]: transform one vote of group g into the
    j-th permutation.
    """

    def var_name(var):
        return f"t[{var[0]}->{var[1]}]"

    def terms(coeffs):
        parts = []
        for var, c in zip(ilp.variables, coeffs):
            if c == 0:
                continue
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            factor = "" if mag == 1 else f"{mag} "
            parts.append(f"{sign} {factor}{var_name(var)}")
        return " ".join(parts) if parts else "0"

    out = ["\\ transformation feasibility program"]
    out.append("subject to")
    for g, group in enumerate(ilp.groups):
        coeffs = [int(var[0] == g) for var in ilp.variables]
        out.append(f"  group{g}: {terms(coeffs)} <= {len(group.votes)}")
    out.append(
        f"  budget: {terms(Fraction(c, ilp.scale) for c in ilp.var_costs)}"
        f" <= {Fraction(ilp.budget, ilp.scale)}"
    )
    for i, row in enumerate(rows):
        out.append(f"  win{i}: {terms(row.coeffs)} >= {row.rhs}")
    out.append("bounds")
    for var in ilp.variables:
        out.append(f"  0 <= {var_name(var)} <= {len(ilp.groups[var[0]].votes)}")
    out.append("integer")
    out.append("  " + " ".join(var_name(v) for v in ilp.variables))
    return "\n".join(out) + "\n"


def solve_ilp(instance: BriberyInstance) -> SolveResult:
    """Decide the instance by trying every set of the rule description, in order.

    The witness is the first solution found, so no optimal cost is claimed.
    """
    from .swaps import verify_bribery

    ilp = build_ilp(instance)
    for rows in ilp.sets:
        assignment = ilp_feasible(ilp, rows)
        if assignment is None:
            continue
        witness = assignment_to_bribery(instance, ilp, assignment)
        report = verify_bribery(instance, witness)
        if not report.is_solution:
            raise AssertionError("feasible assignment must convert to a solution")
        return SolveResult(True, None, witness)
    return SolveResult(False, None, None)
