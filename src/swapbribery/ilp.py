"""Solving by integer programs over vote-transformation counts.

Works for any rule describable by linear inequality systems over the m!
per-permutation vote counts: the preferred candidate wins exactly when
some system in the description is satisfied. Votes are grouped by
(ranking, cost table); integer variables count how many votes of a group
transform into each target permutation, constrained by group sizes, the
budget, and one description system with the transformed counts
substituted in. Feasibility is decided exactly by depth-first search
with bound propagation, after a rational-relaxation check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from .core import BUCKLIN, K_APPROVAL, Ranking
from .errors import DomainError, ResourceCapError
from .lp import lp_feasible
from .swaps import Bribery, BriberyInstance, transform_cost

LE = "<="
GE = ">="


@dataclass(frozen=True)
class Inequality:
    """coeffs . x REL rhs, over the m! permutation-count variables."""

    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearInequalitySystem:
    """Rule description: the preferred slot wins iff some set is satisfied.

    Permutations order candidate *slots*, slot 0 being the preferred
    candidate; instances relabel their roster onto slots before use.
    """

    m: int
    perms: tuple[Ranking, ...]
    sets: tuple[tuple[Inequality, ...], ...]


@dataclass(frozen=True)
class IlpCaps:
    permutations: int = 720  # bound on m!
    variables: int = 2000
    search_nodes: int = 10**7


DEFAULT_CAPS = IlpCaps()


def describe_rule(
    rule,
    m: int,
    n: int,
    unique: bool = False,
    caps: IlpCaps = DEFAULT_CAPS,
) -> LinearInequalitySystem:
    """Linear-inequality description of k-approval or Bucklin.

    k-approval is one set of m-1 dominance rows. Bucklin needs one set
    per candidate position b: rows forcing the winning round to be at
    least b, a majority row for the preferred slot at depth b, and m-1
    dominance rows at depth b. Under unique-winner semantics dominance
    rows require a strictly higher count (+1 on integer data).
    """
    if m < 2:
        raise DomainError("rule descriptions need at least two candidates")
    if factorial(m) > caps.permutations:
        raise ResourceCapError(f"m! = {factorial(m)} exceeds cap {caps.permutations}")
    perms = tuple(permutations(range(m)))
    margin = Fraction(1 if unique else 0)

    def depth_coeffs(slot: int, depth: int) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(1) if perm.index(slot) < depth else Fraction(0) for perm in perms
        )

    if rule.kind == K_APPROVAL:
        k = rule.k
        if k > m:
            raise DomainError("k exceeds the number of candidates")
        top_p = depth_coeffs(0, k)
        rows = []
        for slot in range(1, m):
            top_c = depth_coeffs(slot, k)
            rows.append(
                Inequality(
                    tuple(a - b for a, b in zip(top_p, top_c)),
                    GE,
                    margin,
                )
            )
        return LinearInequalitySystem(m, perms, (tuple(rows),))

    if rule.kind == BUCKLIN:
        half = Fraction(n // 2)
        sets = []
        for b in range(1, m + 1):
            rows = [
                Inequality(depth_coeffs(slot, b - 1), LE, half)
                for slot in range(m)
            ]
            top_p = depth_coeffs(0, b)
            rows.append(Inequality(top_p, GE, half + 1))
            for slot in range(1, m):
                top_c = depth_coeffs(slot, b)
                rows.append(
                    Inequality(
                        tuple(a - b_ for a, b_ in zip(top_p, top_c)),
                        GE,
                        margin,
                    )
                )
            sets.append(tuple(rows))
        return LinearInequalitySystem(m, perms, tuple(sets))

    raise DomainError(f"no description for rule kind {rule.kind!r}")


@dataclass(frozen=True)
class VoteGroup:
    """Expanded votes sharing a ranking and a cost table."""

    base: int  # permutation index of the shared ranking, in slot space
    members: tuple[int, ...]  # expanded vote indices
    costs: tuple[Fraction, ...]  # transformation cost to each permutation

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SubstitutedRow:
    """An inequality over the transformation variables after substitution."""

    var_coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction  # original rhs minus the all-zero base value


@dataclass(frozen=True)
class TransformationIlp:
    """One description set, substituted and ready to decide."""

    groups: tuple[VoteGroup, ...]
    variables: tuple[tuple[int, int], ...]  # (group index, target permutation)
    budget: Fraction
    rows: tuple[SubstitutedRow, ...]
    perms: tuple[Ranking, ...]

    @property
    def var_costs(self) -> tuple[Fraction, ...]:
        return tuple(self.groups[g].costs[j] for g, j in self.variables)


def slot_mapping(instance: BriberyInstance) -> tuple[list[int], list[int]]:
    """Candidate <-> slot relabeling putting the preferred candidate on slot 0."""
    cand_of_slot = [instance.preferred] + [
        c for c in range(instance.election.m) if c != instance.preferred
    ]
    slot_of_cand = [0] * instance.election.m
    for slot, cand in enumerate(cand_of_slot):
        slot_of_cand[cand] = slot
    return cand_of_slot, slot_of_cand


def build_ilp(
    instance: BriberyInstance,
    system: LinearInequalitySystem,
    set_index: int,
    group_votes: bool = True,
) -> TransformationIlp:
    """Instantiate one description set over grouped transformation counts.

    ``group_votes=False`` keeps every expanded vote in its own group
    (used to validate that grouping never changes the decision).
    """
    if system.m != instance.election.m:
        raise DomainError("description built for a different candidate count")
    cand_of_slot, slot_of_cand = slot_mapping(instance)
    perm_index = {perm: i for i, perm in enumerate(system.perms)}
    rankings = instance.election.expanded_list()

    grouped: dict[object, list[int]] = {}
    for idx, ranking in enumerate(rankings):
        base = perm_index[tuple(slot_of_cand[c] for c in ranking)]
        if group_votes:
            table = instance.costs.overrides(idx)
            key = (base, instance.costs.default(idx), frozenset(table.items()))
        else:
            key = (base, idx)
        grouped.setdefault(key, []).append(idx)

    groups = []
    for key in sorted(grouped, key=lambda k: grouped[k][0]):
        members = grouped[key]
        base = key[0]
        rep = members[0]
        base_ranking = rankings[rep]
        costs = tuple(
            transform_cost(
                base_ranking,
                tuple(cand_of_slot[s] for s in perm),
                instance.costs,
                rep,
            )
            for perm in system.perms
        )
        groups.append(VoteGroup(base, tuple(members), costs))

    counts = [0] * len(system.perms)
    for group in groups:
        counts[group.base] += group.size

    variables = tuple(
        (g, j)
        for g, group in enumerate(groups)
        for j in range(len(system.perms))
        if j != group.base
    )

    rows = []
    for ineq in system.sets[set_index]:
        base_value = sum(c * x for c, x in zip(ineq.coeffs, counts))
        var_coeffs = tuple(
            ineq.coeffs[j] - ineq.coeffs[groups[g].base] for g, j in variables
        )
        rows.append(SubstitutedRow(var_coeffs, ineq.rel, ineq.rhs - base_value))
    return TransformationIlp(
        groups=tuple(groups),
        variables=variables,
        budget=instance.budget,
        rows=tuple(rows),
        perms=system.perms,
    )


def _relaxation_rows(ilp: TransformationIlp) -> list[tuple[list[Fraction], Fraction]]:
    n_vars = len(ilp.variables)
    rows: list[tuple[list[Fraction], Fraction]] = []
    for row in ilp.rows:
        if row.rel == LE:
            rows.append((list(row.var_coeffs), row.rhs))
        else:
            rows.append(([-c for c in row.var_coeffs], -row.rhs))
    rows.append((list(ilp.var_costs), ilp.budget))
    for g, group in enumerate(ilp.groups):
        coeffs = [
            Fraction(1) if ilp.variables[v][0] == g else Fraction(0)
            for v in range(n_vars)
        ]
        rows.append((coeffs, Fraction(group.size)))
    return rows


def ilp_feasible(
    ilp: TransformationIlp,
    caps: IlpCaps = DEFAULT_CAPS,
    use_relaxation: bool = True,
) -> dict[tuple[int, int], int] | None:
    """Exact feasibility of one substituted set; witness assignment or None.

    Depth-first search over the integer box, one group at a time, pruning
    on the budget, on per-row reachability bounds, and (once, up front) on
    rational-relaxation infeasibility. Exponential in the worst case.
    """
    n_vars = len(ilp.variables)
    if n_vars > caps.variables:
        raise ResourceCapError(f"{n_vars} variables exceed cap {caps.variables}")

    # Normalize rows to ">=": coeffs . t >= rhs.
    ge_rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for row in ilp.rows:
        if row.rel == GE:
            ge_rows.append((row.var_coeffs, row.rhs))
        else:
            ge_rows.append((tuple(-c for c in row.var_coeffs), -row.rhs))
    if not n_vars:
        if all(rhs <= 0 for _, rhs in ge_rows):
            return {}
        return None

    if use_relaxation and lp_feasible(_relaxation_rows(ilp), n_vars) is None:
        return None

    var_costs = ilp.var_costs
    group_of = [g for g, _ in ilp.variables]
    group_start: dict[int, int] = {}
    for v, g in enumerate(group_of):
        group_start.setdefault(g, v)
    sizes = [group.size for group in ilp.groups]

    # Optimistic remaining contribution per row from groups g.. onward:
    # each group may put its full size on its best non-negative coefficient.
    n_groups = len(ilp.groups)
    best_gain = [[Fraction(0)] * (n_groups + 1) for _ in ge_rows]
    for r, (coeffs, _) in enumerate(ge_rows):
        for g in range(n_groups - 1, -1, -1):
            top = max(
                (coeffs[v] for v in range(n_vars) if group_of[v] == g),
                default=Fraction(0),
            )
            best_gain[r][g] = best_gain[r][g + 1] + max(Fraction(0), top) * sizes[g]

    values = [0] * n_vars
    row_acc = [Fraction(0)] * len(ge_rows)
    nodes = 0

    def descend(v: int, spent: Fraction, remaining: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > caps.search_nodes:
            raise ResourceCapError(f"search exceeded {caps.search_nodes} nodes")
        if v == n_vars:
            return all(acc >= rhs for acc, (_, rhs) in zip(row_acc, ge_rows))
        g = group_of[v]
        if v == group_start[g]:
            remaining = sizes[g]
        for r, (_, rhs) in enumerate(ge_rows):
            if row_acc[r] + best_gain[r][g] < rhs:
                return False
        for t in range(remaining + 1):
            cost = spent + var_costs[v] * t
            if cost > ilp.budget:
                break
            values[v] = t
            if t:
                for r, (coeffs, _) in enumerate(ge_rows):
                    if coeffs[v]:
                        row_acc[r] += coeffs[v] * t
            hit = descend(v + 1, cost, remaining - t)
            if t:
                for r, (coeffs, _) in enumerate(ge_rows):
                    if coeffs[v]:
                        row_acc[r] -= coeffs[v] * t
            if hit:
                return True
        values[v] = 0
        return False

    if not descend(0, Fraction(0), 0):
        return None
    return {var: values[v] for v, var in enumerate(ilp.variables)}


def assignment_to_bribery(
    instance: BriberyInstance,
    ilp: TransformationIlp,
    assignment: dict[tuple[int, int], int],
) -> Bribery:
    """Transform t copies of each group into its targets, in expanded order."""
    cand_of_slot, _ = slot_mapping(instance)
    targets = list(instance.election.expanded())
    taken = [0] * len(ilp.groups)
    for (g, j) in ilp.variables:
        t = assignment.get((g, j), 0)
        if t == 0:
            continue
        ranking = tuple(cand_of_slot[s] for s in ilp.perms[j])
        members = ilp.groups[g].members
        for _ in range(t):
            targets[members[taken[g]]] = ranking
            taken[g] += 1
    return Bribery(tuple(targets))


def format_lp(ilp: TransformationIlp) -> str:
    """Plain-text listing of one substituted program, for audit.

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
        coeffs = [Fraction(1) if v[0] == g else Fraction(0) for v in ilp.variables]
        out.append(f"  group{g}: {terms(coeffs)} <= {group.size}")
    out.append(f"  budget: {terms(ilp.var_costs)} <= {ilp.budget}")
    for i, row in enumerate(ilp.rows):
        out.append(f"  win{i}: {terms(row.var_coeffs)} {row.rel} {row.rhs}")
    out.append("bounds")
    for var in ilp.variables:
        out.append(f"  0 <= {var_name(var)} <= {ilp.groups[var[0]].size}")
    out.append("integer")
    out.append("  " + " ".join(var_name(v) for v in ilp.variables))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class IlpResult:
    decision: bool
    witness: Bribery | None
    set_index: int | None


def solve_ilp(
    instance: BriberyInstance,
    caps: IlpCaps = DEFAULT_CAPS,
    group_votes: bool = True,
    use_relaxation: bool = True,
) -> IlpResult:
    """Decide the instance by trying every set of the rule description."""
    from .swaps import verify_bribery

    if instance.rule.kind not in (K_APPROVAL, BUCKLIN):
        raise DomainError("integer-program solving supports k-approval and Bucklin")
    if instance.election.m == 1:
        return IlpResult(True, Bribery.identity(instance.election), None)
    system = describe_rule(
        instance.rule,
        instance.election.m,
        instance.election.n_expanded,
        unique=instance.unique_mode,
    )
    for set_index in range(len(system.sets)):
        ilp = build_ilp(instance, system, set_index, group_votes=group_votes)
        assignment = ilp_feasible(ilp, caps=caps, use_relaxation=use_relaxation)
        if assignment is None:
            continue
        witness = assignment_to_bribery(instance, ilp, assignment)
        report = verify_bribery(instance, witness)
        if not report.is_solution:
            raise AssertionError("feasible assignment must convert to a solution")
        return IlpResult(True, witness, set_index)
    return IlpResult(False, None, None)
