import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from swapbribery import io as sbio
from swapbribery.errors import DomainError, ParseError
from swapbribery.hardness import (
    ColoredGraph,
    multicolored_clique_instance,
    planted_multicolored_clique,
    random_graph,
    single_vote_clique_instance,
)
from swapbribery.io import (
    format_fraction,
    network_to_dot,
    parse_election,
    parse_graph,
    parse_partial,
    parse_solution,
    serialize_election,
    serialize_partial,
    serialize_solution,
)
from swapbribery.flow import build_transfer_network
from swapbribery.oracle import brute_topk
from swapbribery.swaps import Bribery, BriberyInstance, SwapCostFunction, VoteClass, verify_bribery
from swapbribery.reductions import PossibleWinnerInstance, gen_random
from swapbribery.core import Election, Vote, VotingRule, head_then_rest, stored_ranking

from conftest import SAMPLE_U, SAMPLE_V
from corpus import CORPUS
from gadget_grid import check as check_gadget, full_form
from oracle_utils import random_partial_votes


MINIMAL = """\
sbe 1
candidates 2
candidate 0 a
candidate 1 p
rule k-approval 1
budget 1
preferred p
vote 0 multiplicity 1 order a p
"""


def test_minimal_file_parses():
    inst = parse_election(MINIMAL)
    assert inst.election.m == 2
    assert inst.preferred == 1
    assert inst.budget == 1
    assert inst.mode == "co-winner"
    assert inst.costs.cost(0, 0, 1) == 1


def test_cost_override_line():
    text = MINIMAL + "costs 0 pair a p 3/2\n"
    inst = parse_election(text)
    assert inst.costs.cost(0, 0, 1) == Fraction(3, 2)
    # one-sided overrides complete symmetrically
    assert inst.costs.cost(0, 1, 0) == Fraction(3, 2)


def test_fraction_formatting():
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(3, 2)) == "3/2"
    assert parse_election(MINIMAL.replace("budget 1", "budget 7/3")).budget == Fraction(7, 3)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("sbe 1", "sbx 1"),
        lambda t: t.replace("candidate 1 p", "candidate 1 a"),
        lambda t: t.replace("order a p", "order a a"),
        lambda t: t.replace("budget 1", "budget -1"),
        lambda t: t + "unknown-key 1\n",
        lambda t: t + "costs 0 pair a p -2\n",
        lambda t: t.replace("vote 0", "vote 1"),
        lambda t: t.replace("vote 0", "vote x"),
        lambda t: t.replace("multiplicity 1", "multiplicity y"),
        lambda t: t.replace("multiplicity 1", "multiplicity 0"),
        lambda t: t.replace("candidates 2", "candidates ³"),
        lambda t: t.replace("candidates 2", "candidates -2"),
        lambda t: t.replace("candidate 1 p", "candidate x p"),
        lambda t: t.replace("k-approval 1", "k-approval ³"),
        lambda t: t.replace("k-approval 1", "scoring 1,x"),
        lambda t: t + "costs ³ default 1\n",
        # a key a file may hold once, repeated
        lambda t: t + "budget 9\n",
        lambda t: t + "mode co-winner\nmode unique-winner\n",
        lambda t: t + "rule k-approval 2\n",
        lambda t: t + "preferred a\n",
        lambda t: t + "costs 0 default 5\ncosts 0 default 5\n",
        lambda t: t + "costs 0 pair a p 2\ncosts 0 pair a p 3\n",
    ],
)
def test_bad_files_rejected(mangle):
    with pytest.raises(ParseError):
        parse_election(mangle(MINIMAL))


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("order a p", "order a q"), "unknown candidate 'q'"),
        (lambda t: t.replace("order a p", "order q a"), "unknown candidate 'q'"),
        (lambda t: t.replace("order a p", "order a a"), "vote order must list every candidate once"),
        (lambda t: t.replace("order a p", "order a p a"), "vote order must list every candidate once"),
        (lambda t: t.replace("order a p", "head q"), "unknown candidate 'q'"),
        (lambda t: t.replace("order a p", "head a a"), "vote order must list every candidate once"),
        (lambda t: t.replace("order a p", "head p a p"), "vote order must list every candidate once"),
    ],
)
def test_bad_vote_line_names_its_line(mangle, message):
    with pytest.raises(ParseError) as info:
        parse_election(mangle(MINIMAL))
    assert info.value.line == 8
    assert str(info.value) == f"line 8: {message}"


@pytest.mark.parametrize("head, ranking", [("head p", (1, 0)), ("head a", (0, 1)), ("head", (0, 1)), ("head p a", (1, 0))])
def test_head_vote_lists_the_rest_in_id_order(head, ranking):
    inst = parse_election(MINIMAL.replace("order a p", head))
    assert inst.election.votes == (Vote(ranking),)


def test_head_vote_before_the_candidates_line_is_refused():
    text = MINIMAL.replace("vote 0 multiplicity 1 order a p\n", "").replace("sbe 1\n", "sbe 1\nvote 0 multiplicity 1 head\n")
    with pytest.raises(ParseError) as info:
        parse_election(text)
    assert str(info.value) == "line 2: a head vote needs the candidates line before it"


@pytest.mark.parametrize("extra", ["costs 0 pair a p -2", "costs 0 default -1/2"])
def test_negative_cost_is_refused_on_its_own_line(extra):
    with pytest.raises(ParseError) as info:
        parse_election(MINIMAL + extra + "\n")
    assert str(info.value) == f"line 9: rational {extra.split()[-1]} is below 0"


def test_head_vote_waits_for_the_roster_it_draws_its_tail_from():
    # the roster check fails before a tail of range(10**14) is built
    text = MINIMAL.replace("candidates 2", "candidates 100000000000000").replace("order a p", "head p")
    with pytest.raises(ParseError) as info:
        parse_election(text)
    assert str(info.value) == "line 1: candidate count and candidate lines disagree"


def test_votes_are_counted_with_their_multiplicities(monkeypatch):
    monkeypatch.setattr(sbio, "MAX_VOTES", 5)
    text = MINIMAL.replace("multiplicity 1", "multiplicity 2") + "vote 1 multiplicity 3 head p\n"
    assert parse_election(text).election.n_expanded == 5
    with pytest.raises(ParseError) as info:
        parse_election(text.replace("multiplicity 3", "multiplicity 4"))
    assert str(info.value) == "line 9: more than 5 votes"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("budget 9", "duplicate budget line"),
        ("mode co-winner\nmode co-winner", "duplicate mode line"),
        ("rule k-approval 1", "duplicate rule line"),
        ("preferred p", "duplicate preferred line"),
        ("costs 0 default 5\ncosts 0 default 5", "duplicate costs 0 default"),
        ("costs 0 pair a p 2\ncosts 0 pair p a 2\ncosts 0 pair a p 3", "duplicate costs 0 pair a p"),
    ],
)
def test_repeated_key_names_the_repeating_line(extra, message):
    text = MINIMAL + extra + "\n"
    line = text.count("\n")
    with pytest.raises(ParseError) as info:
        parse_election(text)
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "edit, line, message",
    [
        (("rule k-approval 1", "rule"), 5, "rule needs a variant"),
        (("rule k-approval 1", "rule bucklin 2"), 5, "usage: rule bucklin"),
        (("rule k-approval 1", "rule scoring 1 0"), 5, "usage: rule scoring s1,...,sm"),
        (("budget 1", "budget 1 2"), 6, "usage: budget <p[/q]>"),
        (("order a p\n", "order a p\ncosts 0\n"), 9, "usage: costs <i> default|pair ..."),
    ],
)
def test_a_line_of_the_wrong_shape_is_refused_with_its_usage(edit, line, message):
    with pytest.raises(ParseError) as info:
        parse_election(MINIMAL.replace(*edit))
    assert str(info.value) == f"line {line}: {message}"


def test_round_trip_on_generated_corpus():
    for seed in range(25):
        for model in ("unit", ("two-valued", 1, 2, 0.4), ("uniform-range", 1, 3)):
            inst = gen_random(5, 3, 2, cost_model=model, seed=seed)
            text = serialize_election(inst)
            again = parse_election(text)
            assert again == inst
            assert serialize_election(again) == text


def test_round_trip_asymmetric_costs():
    inst = single_vote_clique_instance(random_graph(5, 0.4, seed=3), 2)
    assert parse_election(serialize_election(inst)) == inst


def test_round_trip_multiplicities():
    graph, _ = planted_multicolored_clique([2, 2], seed=0)
    inst, _ = multicolored_clique_instance(graph)
    again = parse_election(serialize_election(inst))
    assert again == inst


def test_lines_with_equal_prices_in_distinct_objects_share_one_price():
    # as a kernel's per-copy heads do: each line holds its own equal default and table
    election = Election(("a", "b", "p"), (Vote((0, 1, 2), 3), Vote((0, 1, 2))))
    costs = SwapCostFunction([Fraction(1, 2) for _ in range(2)], [{(0, 1): Fraction(2)} for _ in range(2)])
    assert costs.price_ids == (0, 0)
    inst = BriberyInstance(election, VotingRule.k_approval(1), 2, costs, Fraction(1))
    text = serialize_election(inst)
    assert text.splitlines()[-8:] == [
        "vote 0 multiplicity 3 order a b p", "vote 1 multiplicity 1 order a b p",
        "costs 0 default 1/2", "costs 0 pair a b 2", "costs 0 pair b a 1/2",
        "costs 1 default 1/2", "costs 1 pair a b 2", "costs 1 pair b a 1/2",
    ]
    assert parse_election(text) == inst


def test_the_writer_and_the_reader_are_inverse_on_the_corpus():
    assert [i for i, instance in CORPUS if parse_election(serialize_election(instance)) != instance] == []


def test_solution_round_trip(sample_instance):
    res = brute_topk(sample_instance)
    text = serialize_solution(sample_instance, res.decision, res.optimal_cost, res.witness, "brute")
    assert "config" not in text
    decision, cost, bribery, solver = parse_solution(text, sample_instance)
    assert decision and cost == 3 and solver == "brute"
    assert bribery == res.witness
    # config lines, which earlier versions wrote, still read
    text = text.replace("cost 3\n", "cost 3\nconfig seed 0\nconfig mode auto\n")
    assert parse_solution(text, sample_instance) == (True, 3, res.witness, "brute")


@pytest.mark.parametrize("target", ["x", "³", "-1"])
def test_solution_rejects_bad_target_index(sample_instance, target):
    res = brute_topk(sample_instance)
    text = serialize_solution(
        sample_instance, res.decision, res.optimal_cost, res.witness, "brute"
    )
    with pytest.raises(ParseError):
        parse_solution(text.replace("target 0", f"target {target}"), sample_instance)


def test_solution_rejects_unknown_target_candidate(sample_instance):
    res = brute_topk(sample_instance)
    text = serialize_solution(
        sample_instance, res.decision, res.optimal_cost, res.witness, "brute"
    )
    assert text.splitlines()[4:7] == ["changed 2", "target 0 c1 p c2 c4 c3", "target 1 c1 p c2 c3 c4"]
    with pytest.raises(ParseError) as info:
        parse_solution(text.replace("target 1 c1 p", "target 1 c1 zz"), sample_instance)
    assert info.value.line == 7
    assert str(info.value) == "line 7: unknown candidate 'zz'"


# The sample's optimal bribery as full-form files list it: every expanded
# vote has a target line, and there is no changed line.
FULL_FORM_SOLUTION = """\
sbs 1
decision yes
solver brute
cost 3
config seed 0
target 0 c1 p c2 c4 c3
target 1 c1 p c2 c3 c4
"""


def test_full_form_solution_reads_to_the_same_bribery(sample_instance):
    res = brute_topk(sample_instance)
    assert parse_solution(FULL_FORM_SOLUTION, sample_instance) == (
        True, 3, res.witness, "brute"
    )
    short = serialize_solution(sample_instance, True, 3, res.witness, "brute")
    assert short == FULL_FORM_SOLUTION.replace("config seed 0\n", "").replace("target 0", "changed 2\ntarget 0")


def test_solution_lists_only_the_votes_it_changes():
    inst = gen_random(4, 5, 2, seed=3)
    rankings = inst.election.expanded_list()
    targets = list(rankings)
    targets[1] = rankings[1][::-1]
    targets[3] = rankings[3][1:] + rankings[3][:1]
    bribery = Bribery(tuple(targets))
    text = serialize_solution(inst, True, None, bribery, "hand")
    names = inst.election.candidates
    assert text.splitlines()[3:] == [
        "changed 2",
        "target 1 " + " ".join(names[c] for c in targets[1]),
        "target 3 " + " ".join(names[c] for c in targets[3]),
    ]
    assert parse_solution(text, inst) == (True, None, bribery, "hand")


def test_identity_bribery_writes_changed_0_and_verifies():
    inst = parse_election(MINIMAL.replace("order a p", "order p a"))
    identity = Bribery(tuple(inst.election.expanded()))
    text = serialize_solution(inst, True, 0, identity, "brute")
    assert text == "sbs 1\ndecision yes\nsolver brute\ncost 0\nchanged 0\n"
    _, _, bribery, _ = parse_solution(text, inst)
    assert bribery == identity
    report = verify_bribery(inst, bribery)
    assert report.is_solution and report.total_cost == 0


def test_solution_of_a_bribery_with_too_few_votes_is_refused(sample_instance):
    # Unlisted votes read as unchanged, so a short bribery must not be written.
    with pytest.raises(DomainError):
        serialize_solution(sample_instance, True, 0, Bribery((SAMPLE_V,)), "hand")


def test_a_roster_name_with_a_space_is_not_serialized():
    inst = parse_election(MINIMAL)
    election = Election(("a b", *inst.election.candidates[1:]), inst.election.votes)
    with pytest.raises(DomainError, match="^candidate name 'a b' is not serializable$"):
        serialize_election(replace(inst, election=election))


def test_solution_without_targets_has_no_bribery(sample_instance):
    text = "sbs 1\ndecision yes\nsolver brute\ncost 3\n"
    assert parse_solution(text, sample_instance) == (True, 3, None, "brute")


@pytest.mark.parametrize(
    "edit, message",
    [
        # the changed line's count disagrees with the target lines
        (("changed 2", "changed 3"), "line 5: changed 3 votes, but 2 target lines follow"),
        (("target 1 c1 p c2 c3 c4\n", ""), "line 5: changed 2 votes, but 1 target lines follow"),
        # a vote index the instance does not have
        (("target 1 ", "target 2 "), "line 7: target index outside expanded votes 0..1"),
        # a key a file may hold once, repeated
        (("cost 3\n", "cost 3\ndecision no\n"), "line 5: duplicate decision line"),
        (("cost 3\n", "cost 3\ncost 3\n"), "line 5: duplicate cost line"),
        (("cost 3\n", "cost 3\nsolver flow\n"), "line 5: duplicate solver line"),
        (("changed 2\n", "changed 2\nchanged 2\n"), "line 6: duplicate changed line"),
        (("target 1 ", "target 0 "), "line 7: duplicate target index 0"),
        (("cost 3\n", "cost 3\nconfig seed 0\nconfig seed 1\n"), "line 6: duplicate config seed"),
    ],
)
def test_bad_short_solution_names_its_line(sample_instance, edit, message):
    res = brute_topk(sample_instance)
    text = serialize_solution(sample_instance, True, 3, res.witness, "brute")
    assert text.count(edit[0]) == 1
    with pytest.raises(ParseError) as info:
        parse_solution(text.replace(*edit), sample_instance)
    assert str(info.value) == message


def test_full_form_solution_rejects_a_repeated_target(sample_instance):
    text = FULL_FORM_SOLUTION.replace("target 1 c1 p c2 c3 c4", "target 0 c1 p c2 c3 c4")
    with pytest.raises(ParseError) as info:
        parse_solution(text, sample_instance)
    assert str(info.value) == "line 7: duplicate target index 0"


@pytest.mark.parametrize("m", [1, 2])
def test_one_and_two_candidate_rosters_round_trip(m):
    # itemgetter of a single key returns the bare item: a one-name vote line
    # and a one-name target must still read and write as one name.
    inst = gen_random(m, 3, 1, seed=m)
    text = serialize_election(inst)
    assert parse_election(text) == inst
    assert serialize_election(parse_election(text)) == text
    names = inst.election.candidates
    targets = tuple(ranking[::-1] for ranking in inst.election.expanded_list())
    solution = serialize_solution(inst, True, None, Bribery(targets), "hand")
    assert solution.count("target ") == (3 if m == 2 else 0)
    assert parse_solution(solution, inst)[2] == Bribery(targets)
    full = "sbs 1\ndecision yes\n" + "".join(
        f"target {i} " + " ".join(names[c] for c in target) + "\n" for i, target in enumerate(targets)
    )
    assert parse_solution(full, inst)[2] == Bribery(targets)


PARTIAL = """\
pwe 1
candidates 3
candidate 0 a
candidate 1 b
candidate 2 p
rule k-approval 1
preferred p
partials 1
partial 0 pair a b
"""


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("candidates 3", "candidates x"),
        lambda t: t.replace("partial 0", "partial y"),
        lambda t: t.replace("partials 1", "partials ³"),
        lambda t: t.replace("candidate 2 p", "candidate 5 p"),
        lambda t: t.replace("candidate 1 b", "candidate 0 b"),
        lambda t: t + "partial 5 pair p a\n",
    ],
)
def test_bad_partial_files_rejected(mangle):
    assert parse_partial(PARTIAL).preferred == 2
    with pytest.raises(ParseError):
        parse_partial(mangle(PARTIAL))


@pytest.mark.parametrize(
    "mangle, line, message",
    [
        # the header checks election files have
        (lambda t: t.replace("candidate 1 b", "candidate 1 a"), 4, "duplicate candidate name 'a'"),
        (lambda t: t.replace("rule", "candidates 3\nrule"), 6, "usage: candidates <m> (once)"),
        (lambda t: t.replace("candidates 3\n", ""), 2, "usage: candidate <index> <name>"),
        (lambda t: t.replace("preferred p", "preferred p a"), 7, "usage: preferred <name>"),
        (lambda t: t + "rule k-approval 1\n", 10, "duplicate rule line"),
        (lambda t: t + "preferred a\n", 10, "duplicate preferred line"),
        (lambda t: t + "partials 2\n", 10, "duplicate partials line"),
        # a partial vote the roster cannot hold: a cycle shows once the order
        # is closed, a pair of one candidate on its own line
        (lambda t: t + "partial 0 pair b a\n", 1, "cycle through candidates 0 and 1"),
        (lambda t: t + "partial 0 pair p p\n", 10, "partial order must be irreflexive"),
    ],
)
def test_partial_files_get_the_election_checks(mangle, line, message):
    with pytest.raises(ParseError) as info:
        parse_partial(mangle(PARTIAL))
    assert str(info.value) == f"line {line}: {message}"


def test_partials_count_is_bounded(monkeypatch):
    monkeypatch.setattr(sbio, "MAX_VOTES", 5)
    assert len(parse_partial(PARTIAL.replace("partials 1", "partials 5")).votes) == 5
    with pytest.raises(ParseError) as info:
        parse_partial(PARTIAL.replace("partials 1", "partials 6"))
    assert str(info.value) == "line 8: more than 5 votes"


def test_partial_round_trip():
    votes = random_partial_votes(4, 3, seed=5)
    pw = PossibleWinnerInstance(
        ("a", "b", "c", "d"), votes, VotingRule.k_approval(2), 1
    )
    again = parse_partial(serialize_partial(pw))
    assert again == pw


def _graph_text(graph) -> str:
    """The graph file format: a header, one line per edge, then the colors if any."""
    colors = list(enumerate(graph.color_of)) if isinstance(graph, ColoredGraph) else []
    head = f"graph {graph.n_vertices} {len(graph.edges)}" + (f" {graph.k}" if colors else "")
    lines = [head, *(f"{u} {v}" for u, v in sorted(graph.edges)), *(f"color {v} {c}" for v, c in colors)]
    return "\n".join(lines) + "\n"


def test_graph_round_trip():
    graph = random_graph(6, 0.5, seed=2)
    assert parse_graph(_graph_text(graph)) == graph
    colored, _ = planted_multicolored_clique([2, 3], seed=2)
    assert parse_graph(_graph_text(colored)) == colored


@pytest.mark.parametrize(
    "colors, message",
    [
        ("color 0 1\ncolor 2 2\ncolor 1 2\n", "line 4: vertex 2 outside 0..1"),
        ("color 0 1\ncolor 1 2\ncolor 0 2\n", "line 5: vertex 0 colored twice"),
    ],
)
def test_graph_checks_its_color_lines(colors, message):
    with pytest.raises(ParseError) as info:
        parse_graph("graph 2 1 2\n0 1\n" + colors)
    assert str(info.value) == message


def test_graph_rejects_uncolored_vertex():
    with pytest.raises(ParseError):
        parse_graph("graph 2 1 2\n0 1\ncolor 0 1\n")


@pytest.mark.parametrize(
    "text",
    [
        "graph 4 1 5\n0 1\ncolor 0 1\ncolor 1 2\ncolor 2 1\ncolor 3 2\n",  # header k above every color
        "graph 3 1 2\n0 1\ncolor 0 1\ncolor 1 2\ncolor 2 3\n",  # a color above the header's k
        "graph 2 1 3\n0 1\ncolor 0 1\ncolor 1 3\n",  # class 2 empty
    ],
)
def test_graph_colors_are_exactly_one_to_k(text):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value).startswith("line 1: colors must be exactly 1..")


@pytest.mark.parametrize(
    "text",
    [
        "graph 4 x\n",
        "graph ³ 0\n",
        "graph 2 1 y\n0 1\n",
        "graph 2 1\n0 z\n",
        "graph 2 1 2\n0 1\ncolor 0 1\ncolor 1 x\n",
    ],
)
def test_graph_rejects_bad_integers(text):
    with pytest.raises(ParseError):
        parse_graph(text)


@pytest.mark.parametrize("header", ["graph {} 0", "graph {} 0 1"])
def test_graph_vertex_count_is_bounded(monkeypatch, header):
    monkeypatch.setattr(sbio, "MAX_VERTICES", 3)
    colors = "".join(f"color {v} 1\n" for v in range(3)) if header.endswith(" 1") else ""
    assert parse_graph("# a comment first\n" + header.format(3) + "\n" + colors).n_vertices == 3
    with pytest.raises(ParseError) as info:
        parse_graph("# a comment first\n" + header.format(4) + "\n")
    assert str(info.value) == "line 2: more than 3 vertices"


INT_TOKENS = [("007", 7), ("-0", 0), ("0", 0), ("-12", -12), ("1000", 1000)]
NOT_INT_TOKENS = ["+1", "１", "²", "-", "", "1_000", "0x1", "--1", "-+1", "1-", "٣", " 1", "1.0"]


@pytest.mark.parametrize("token, value", INT_TOKENS)
def test_parse_int_takes_an_optional_minus_then_ascii_digits(token, value):
    assert sbio.parse_int(token, 1) == value


@pytest.mark.parametrize("token", NOT_INT_TOKENS)
def test_parse_int_rejects_every_other_token(token):
    with pytest.raises(ParseError) as info:
        sbio.parse_int(token, 4)
    assert str(info.value) == f"line 4: bad integer {token!r}"


NO_VOTES = MINIMAL.replace("vote 0 multiplicity 1 order a p\n", "")


def _plain_votes(n: int) -> str:
    return "".join(f"vote {i} multiplicity 1 order a p\n" for i in range(n))


# Each field's file, with the token on its last line, and what the parsed
# instance shows of the token's value v. Lower indices are written plainly
# before it, so that the indices stay dense 0..v.
INT_FIELDS = {
    "vote index": (0, lambda t, v: _plain_votes(v) + f"vote {t} multiplicity 2 order p a\n",
                   lambda inst, v: inst.election.votes[v:] == (Vote((1, 0), 2),)),
    "multiplicity": (1, lambda t, v: f"vote 0 multiplicity {t} order a p\n",
                     lambda inst, v: inst.election.n_expanded == v),
    "costs index": (0, lambda t, v: _plain_votes(v + 1) + f"costs {t} default 3\n",
                    lambda inst, v: [inst.costs.default(i) for i in range(v + 1)] == [1] * v + [3]),
}


@pytest.mark.parametrize("field", INT_FIELDS)
@pytest.mark.parametrize("token", [t for t, _ in INT_TOKENS] + [t for t in NOT_INT_TOKENS if t.split() == [t]])
def test_index_fields_read_integers_as_parse_int_does(field, token):
    # the same value, or the same error on the same line, as parse_int at the field's lower bound
    low, body, shows = INT_FIELDS[field]
    probe = NO_VOTES + body(token, 0)
    try:
        value = sbio.parse_int(token, probe.count("\n"), low)
    except ParseError as expected:
        with pytest.raises(ParseError) as info:
            parse_election(probe)
        assert str(info.value) == str(expected)
    else:
        assert shows(parse_election(NO_VOTES + body(token, value)), value)


@pytest.mark.parametrize(
    "token, message", [("-2", "rational -2 is below 0"), ("2/0", "bad rational '2/0'"), ("x", "bad rational 'x'")]
)
def test_a_repeated_bad_cost_token_fails_on_its_first_line(token, message):
    # the token's first line is a pair line after a default line of a good token
    text = MINIMAL + "vote 1 multiplicity 1 order p a\ncosts 0 default 2\n" + "".join(
        f"costs {i} pair a p {token}\ncosts {i} default {token}\n" for i in (1, 0)
    )
    with pytest.raises(ParseError) as info:
        parse_election(text)
    assert str(info.value) == f"line 11: {message}"
    # and a bad token after a good one is read on its own line
    with pytest.raises(ParseError) as info:
        parse_election(text.replace(f"costs 1 pair a p {token}", "costs 1 pair a p 2"))
    assert str(info.value) == f"line 12: {message}"


def test_equal_prices_spelled_differently_share_one_price_id():
    text = NO_VOTES + _plain_votes(6) + "".join(
        f"costs {i} default {token}\n" for i, token in enumerate(["2", "4/2", "2/1"])
    ) + "".join(f"costs {i} pair p a {token}\n" for i, token in enumerate(["1/3", "2/6", "01/3"], start=3))
    costs = parse_election(text).costs
    assert costs.price_ids == (0, 0, 0, 1, 1, 1)
    assert costs.prices == ((Fraction(2), {}), (Fraction(1), {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3)}))


def test_dot_counts_for_sample_network():
    classes = [VoteClass(SAMPLE_V, 1, {}, (0,), 1), VoteClass(SAMPLE_U, Fraction(3, 2), {}, (1,), 1)]
    net = build_transfer_network(classes, 2, 2, 2)
    dot = network_to_dot(net)
    node_lines = [l for l in dot.splitlines() if l.endswith('";')]
    arc_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 10  # s, t, x, 2 classes, 5 candidates
    assert len(arc_lines) == len(net.arcs) == 2 * 6 + 5 + 1
    # zero costs go unlabelled; rational ones print as p/q
    assert '  "g[1]" -> "b[0]" [label="cap 1"];' in arc_lines
    assert '  "g[1]" -> "b[4]" [label="cap 1, cost 3"];' in arc_lines
    assert '  "g[1]" -> "b[3]" [label="cap 1, cost 6"];' in arc_lines
    assert '  "g[1]" -> "b[2]" [label="cap 1, cost 9/2"];' in arc_lines


def _rising_tails(m: int, n: int, rng: random.Random) -> BriberyInstance:
    """n votes of m candidates, each a random head of at most m/4 and then the rest in id order."""
    ids = range(m)
    votes = []
    for _ in range(n):
        head = rng.sample(ids, rng.randint(0, m // 4))
        votes.append(Vote(tuple(head) + tuple(c for c in ids if c not in head)))
    names = tuple(f"c{i}" for i in range(m))
    return BriberyInstance(Election(names, tuple(votes)), VotingRule.k_approval(2), 0, SwapCostFunction.unit(n), Fraction(3))


def test_votes_with_long_rising_tails_are_written_as_heads():
    inst = _rising_tails(64, 5, random.Random(4))
    text = serialize_election(inst)
    assert text.count(" head") == 5 and " order " not in text
    assert parse_election(text) == inst == parse_election(full_form(text, inst))
    assert serialize_election(parse_election(text)) == text


def test_roster_names_that_are_keywords_round_trip_in_both_forms():
    inst = _rising_tails(64, 4, random.Random(7))
    names = ("head", "order", "target-head", *inst.election.candidates[3:])
    votes = (*inst.election.votes, Vote((1, 0, *range(2, 64))), Vote((0, 2, 1, *range(3, 64))))
    inst = BriberyInstance(Election(names, votes), inst.rule, 2, SwapCostFunction.unit(6), inst.budget)
    text = serialize_election(inst)
    assert text.endswith("vote 4 multiplicity 1 head order\nvote 5 multiplicity 1 head head target-head\n")
    assert parse_election(text) == inst == parse_election(full_form(text, inst))

    rankings = inst.election.expanded_list()
    targets = (rankings[4], rankings[5], *rankings[2:4], *rankings[:2])
    solution = serialize_solution(inst, True, None, Bribery(targets), "hand")
    assert "\ntarget-head 0 order\ntarget-head 1 head target-head\n" in solution
    assert parse_solution(solution, inst)[2] == Bribery(targets)
    full = solution.replace("target-head 0 order", "target 0 " + " ".join(names[c] for c in head_then_rest(targets[0], 64)))
    assert parse_solution(full, inst)[2] == Bribery(targets)


@pytest.mark.parametrize(
    "edit, message",
    [
        (("target-head 1 ", "target 3 c0\ntarget-head 3 "), "line 6: duplicate target index 3"),
        (("target-head 1 ", "target-head 6 "), "line 5: target index outside expanded votes 0..5"),
        (("target-head 1 ", "target-head 1 zz "), "line 5: unknown candidate 'zz'"),
        (("target-head 1 ", "target-head 2 c5\ntarget-head 1 c63 "), "line 6: target must list every candidate once"),
        (("target-head 1 c63", "target 1 c0 " + " ".join(f"c{i}" for i in range(63))), "line 5: target must list every candidate once"),
    ],
)
def test_bad_target_head_line_names_its_line(edit, message):
    ids = tuple(range(64))
    inst = BriberyInstance(
        Election(tuple(f"c{i}" for i in ids), (Vote(ids),) * 6), VotingRule.k_approval(2), 0, SwapCostFunction.unit(6), Fraction(3)
    )
    targets = (ids, (63, *ids[:-1]), *(ids,) * 4)
    solution = serialize_solution(inst, True, None, Bribery(targets), "hand")
    assert solution.splitlines()[3:] == ["changed 1", "target-head 1 c63"]
    # read back as stored: every target as its head
    assert parse_solution(solution, inst)[2] == Bribery(((), (63,), *((),) * 4))
    with pytest.raises(ParseError) as info:
        parse_solution(solution.replace(*edit), inst)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "classes, seed, epsilon",
    [("2,2", 0, "1"), ("3,3", 1, "1/3"), ("2,2,2", 1, "1"), ("1,1", 2, "1"), ("3,2", 3, "1/3"), ("4,4", 2, "1/3")],
)
def test_gadget_head_form_round_trips(classes, seed, epsilon):
    # A slice of tests/gadget_grid.py, which runs all 80 members of the grid.
    size = check_gadget(classes, seed, Fraction(epsilon))
    if (classes, seed) == ("2,2,2", 1):
        assert size <= 1_500_000  # 33 MB in full


def _last_descent_plus_one(ranking) -> int:
    return max((i + 1 for i in range(len(ranking) - 1) if ranking[i] > ranking[i + 1]), default=0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_head_length_is_the_last_descent_plus_one(data):
    # The stored form, which the writer writes: the head before the longest
    # rising tail when that tail is at least max(32, m/2) long, found from
    # the full ranking and from any head of it alike.
    m = data.draw(st.integers(1, 300))
    head = data.draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
    ranking = tuple(head) + tuple(sorted(set(range(m)) - set(head)))
    expected = _last_descent_plus_one(ranking)
    stored = ranking[:expected] if m - expected >= max(32, (m + 1) // 2) else ranking
    assert stored_ranking(ranking, m) == stored
    assert stored_ranking(tuple(head), m) == stored
    assert Election(tuple(map(str, range(m))), (Vote(tuple(head)),)).votes == (Vote(stored),)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(2, 80), n=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_random_instances_are_written_in_full(m, n, seed):
    text = serialize_election(gen_random(m, n, 1, seed=seed))
    assert " head" not in text and text.count(" order ") == n
