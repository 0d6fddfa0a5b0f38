"""Instances, the text format, and the consistency oracle."""

import itertools
import random

import pytest

from cspasp import CapExceeded
from cspasp.benchmarks import random_instance, random_state
from cspasp.csp import (
    ALLDIFFERENT,
    LEVELS,
    PERMUTATION,
    TABLE,
    Constraint,
    CspInstance,
    DomainState,
    VariableDecl,
    binary_decomposition,
    check_solution,
    consistency_oracle,
    format_instance,
    parse_instance,
    validate_state,
)

from .oracles import enumerate_solutions

HALL_TEXT = """\
var v1 2 3
var v2 { 1 2 4 }
var v3 2 3
var v4 1 4
alldifferent v1 v2 v3 v4
"""


def hall_instance():
    return parse_instance(HALL_TEXT)


# -- declarations ---------------------------------------------------------------


def test_variable_domains_are_sorted_and_deduplicated():
    assert VariableDecl("x", (3, 1, 3, 2)).domain == (1, 2, 3)
    with pytest.raises(ValueError):
        VariableDecl("x", ())


def test_instance_rejects_duplicate_variables():
    with pytest.raises(ValueError):
        CspInstance((VariableDecl("x", (1,)), VariableDecl("x", (2,))))


def test_instance_rejects_zero_variables():
    with pytest.raises(ValueError, match="no variables"):
        CspInstance(())


def test_instance_rejects_bad_scopes_and_assignments():
    x = VariableDecl("x", (1, 2))
    with pytest.raises(ValueError):
        CspInstance((x,), (Constraint(ALLDIFFERENT, ("x", "y")),))
    with pytest.raises(ValueError):
        CspInstance((x,), (Constraint(ALLDIFFERENT, ("x", "x")),))
    with pytest.raises(ValueError):
        CspInstance((x,), assignments=(("x", 9),))
    with pytest.raises(ValueError):
        CspInstance((x,), assignments=(("x", 1), ("x", 2)))


def test_table_constraints_validate_polarity_and_arity():
    x, y = VariableDecl("x", (1, 2)), VariableDecl("y", (1, 2))
    with pytest.raises(ValueError):
        Constraint(TABLE, ("x", "y"), polarity="mixed", tuples=((1, 1),))
    with pytest.raises(ValueError):
        CspInstance(
            (x, y),
            (Constraint(TABLE, ("x", "y"), polarity="allowed", tuples=((1,),)),),
        )


def test_permutation_requires_square_union():
    x, y = VariableDecl("x", (1, 2)), VariableDecl("y", (2, 3))
    with pytest.raises(ValueError):
        CspInstance((x, y), (Constraint(PERMUTATION, ("x", "y")),))


def test_effective_domain_folds_assignments():
    inst = CspInstance(
        (VariableDecl("x", (1, 2, 3)), VariableDecl("y", (1, 2))),
        assignments=(("x", 2),),
    )
    assert inst.effective_domain("x") == (2,)
    assert inst.initial_state().domains == {"x": (2,), "y": (1, 2)}


# -- states ----------------------------------------------------------------------


def test_state_helpers():
    assert DomainState({"x": (1, 3, 7), "y": ()}).is_inconsistent()
    assert not DomainState({"x": (4,)}).is_inconsistent()


def test_validate_state():
    inst = CspInstance((VariableDecl("x", (1, 2, 3)),))
    validate_state(inst, DomainState({"x": (1, 3)}))
    with pytest.raises(ValueError):
        validate_state(inst, DomainState({"x": (1, 4)}))
    with pytest.raises(ValueError):
        validate_state(inst, DomainState({"y": (1,)}))
    with pytest.raises(ValueError):
        validate_state(inst, DomainState({"x": (1,), "y": (1,)}))


# -- solutions --------------------------------------------------------------------


def test_check_solution_covers_every_constraint_kind():
    inst = CspInstance(
        (VariableDecl("x", (1, 2)), VariableDecl("y", (1, 2)), VariableDecl("z", (1, 2, 3))),
        (
            Constraint(PERMUTATION, ("x", "y")),
            Constraint(TABLE, ("x", "z"), polarity="forbidden", tuples=((1, 3),)),
            Constraint(TABLE, ("y", "z"), polarity="allowed", tuples=((1, 1), (2, 3), (1, 2))),
        ),
    )
    assert check_solution(inst, {"x": 2, "y": 1, "z": 1})
    assert not check_solution(inst, {"x": 1, "y": 1, "z": 1})  # not a permutation
    assert not check_solution(inst, {"x": 1, "y": 2, "z": 3})  # forbidden pair
    assert not check_solution(inst, {"x": 2, "y": 2, "z": 2})  # no allowed support


def test_enumerate_matches_filtered_product():
    rng = random.Random(11)
    for _ in range(50):
        inst = random_instance(rng, max_vars=4, max_dom=4)
        names = [v.name for v in inst.variables]
        doms = [inst.effective_domain(n) for n in names]
        want = [
            dict(zip(names, combo))
            for combo in itertools.product(*doms)
            if check_solution(inst, dict(zip(names, combo)))
        ]
        assert enumerate_solutions(inst) == want


def test_enumerate_limit_and_cap():
    inst = CspInstance(tuple(VariableDecl(f"v{i}", (1, 2, 3)) for i in range(4)))
    assert len(enumerate_solutions(inst, limit=5)) == 5
    with pytest.raises(CapExceeded):
        enumerate_solutions(inst, cap=80)


# -- binary decomposition ----------------------------------------------------------


def test_binary_decomposition_is_pairwise_not_equal():
    inst = hall_instance()
    parts = binary_decomposition(inst.constraints[0], inst)
    assert len(parts) == 6
    assert all(p.kind == TABLE and p.polarity == "forbidden" for p in parts)
    pair = next(p for p in parts if p.scope == ("v1", "v2"))
    assert set(pair.tuples) == {(2, 2)}  # shared values only


def test_binary_decomposition_preserves_solutions():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_instance(rng, max_vars=4, max_dom=4)
        flat = []
        for c in inst.constraints:
            flat.extend(binary_decomposition(c, inst) if c.kind != TABLE else [c])
        relaxed = CspInstance(inst.variables, tuple(flat), inst.assignments)
        # pairwise not-equal keeps every original solution (may add more
        # only for permutation scopes, where the union is square anyway)
        original = enumerate_solutions(inst)
        kept = [s for s in enumerate_solutions(relaxed) if check_solution(inst, s)]
        assert kept == original


# -- the consistency oracle --------------------------------------------------------


def test_hall_interval_pruning_by_level():
    inst = hall_instance()
    start = inst.initial_state()
    assert consistency_oracle(inst, start, "ac").domains == start.domains
    assert consistency_oracle(inst, start, "bound").domains == start.domains
    for level in ("range", "domain"):
        got = consistency_oracle(inst, start, level)
        assert got.domains == {
            "v1": (2, 3),
            "v2": (1, 4),
            "v3": (2, 3),
            "v4": (1, 4),
        }


def test_bound_level_prunes_endpoints():
    # two variables pinned to {2}, so 2 must leave x's hull endpoints
    inst = parse_instance(
        "var a 2 2\nvar x 2 4\nalldifferent a x\n"
    )
    got = consistency_oracle(inst, inst.initial_state(), "bound")
    assert got.domains["x"] == (3, 4)


def test_domain_level_sees_holes_that_range_misses():
    # Hall set {1,3} is not an interval: range consistency keeps y's 3
    inst = CspInstance(
        (
            VariableDecl("p", (1, 3)),
            VariableDecl("q", (1, 3)),
            VariableDecl("y", (1, 2, 3)),
        ),
        (Constraint(ALLDIFFERENT, ("p", "q", "y")),),
    )
    start = inst.initial_state()
    assert consistency_oracle(inst, start, "range").domains["y"] == (1, 2, 3)
    assert consistency_oracle(inst, start, "domain").domains["y"] == (2,)


def test_ac_level_handles_tables():
    inst = CspInstance(
        (VariableDecl("x", (1, 2, 3)), VariableDecl("y", (1, 2, 3))),
        (Constraint(TABLE, ("x", "y"), polarity="allowed", tuples=((1, 2), (2, 3))),),
    )
    got = consistency_oracle(inst, inst.initial_state(), "ac")
    assert got.domains == {"x": (1, 2), "y": (2, 3)}


def test_oracle_flags_wipeout_as_inconsistent():
    inst = parse_instance("var x 1 1\nvar y 1 1\nalldifferent x y\n")
    got = consistency_oracle(inst, inst.initial_state(), "ac")
    assert got.is_inconsistent()


def test_oracle_rejects_unknown_level():
    inst = parse_instance("var x 1 2\n")
    with pytest.raises(ValueError):
        consistency_oracle(inst, inst.initial_state(), "gac")


def test_oracle_properties_on_random_states():
    rng = random.Random(23)
    for _ in range(150):
        inst = random_instance(rng, max_vars=4, max_dom=4)
        state = random_state(rng, inst)
        pruned = {lv: consistency_oracle(inst, state, lv) for lv in LEVELS}
        for lv, got in pruned.items():
            # contraction
            assert all(
                set(got.domains[n]) <= set(state.domains[n]) for n in got.domains
            ), lv
            # idempotence
            again = consistency_oracle(inst, got, lv)
            assert again.domains == got.domains, lv
        # strength ordering: bound <= range <= domain.  Per-variable subset
        # comparisons need the stronger level to have reached its fixpoint
        # (a wipeout stops pruning early), so guard each pair on its left side.
        if not pruned["range"].is_inconsistent():
            for name in state.domains:
                assert set(pruned["range"].domains[name]) <= set(
                    pruned["bound"].domains[name]
                )
        if not pruned["domain"].is_inconsistent():
            for name in state.domains:
                assert set(pruned["domain"].domains[name]) <= set(
                    pruned["range"].domains[name]
                )
        # and a weaker level spotting a wipeout means every stronger one does
        if pruned["bound"].is_inconsistent():
            assert pruned["range"].is_inconsistent()
        if pruned["range"].is_inconsistent():
            assert pruned["domain"].is_inconsistent()


def test_oracle_never_prunes_solutions():
    rng = random.Random(41)
    for _ in range(100):
        inst = random_instance(rng, max_vars=4, max_dom=4)
        state = random_state(rng, inst)
        inside = [
            s
            for s in enumerate_solutions(inst)
            if all(s[n] in state.domains[n] for n in s)
        ]
        for level in LEVELS:
            got = consistency_oracle(inst, state, level)
            for s in inside:
                assert all(s[n] in got.domains[n] for n in s), level


# -- the text format ---------------------------------------------------------------


def test_parse_round_trips_through_format():
    rng = random.Random(3)
    for _ in range(40):
        inst = random_instance(rng)
        text = format_instance(inst)
        assert parse_instance(text) == inst
        assert format_instance(parse_instance(text)) == text


def test_format_uses_interval_shorthand_only_when_contiguous():
    text = format_instance(
        CspInstance((VariableDecl("a", (1, 2, 3)), VariableDecl("b", (1, 3))))
    )
    assert text.splitlines() == ["var a 1 3", "var b { 1 3 }"]


def test_parse_accepts_comments_and_blank_lines():
    text = "# header\n\nvar x 1 2\n  # indented\nvar y { 4 }\n"
    inst = parse_instance(text)
    assert [v.name for v in inst.variables] == ["x", "y"]
    for eol in ("\r\n", "\x0c"):
        assert parse_instance(text.replace("\n", eol)) == inst


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("var x 1 z", "line 1, col 9"),
        ("  var x 1 $", r"^line 1, col 11: unexpected character '\$'$"),
        ("var x 1 2  % program comment", "unexpected character '%'"),
        ("var x 1 2 3", "^line 1, col 11: trailing '3'$"),
        ("vr x 1 2", "unknown directive"),
        ("var x 1 2\nalldifferent x y", "undeclared variable 'y'"),
        ("var x 1 2\nassign x 7", "assign"),
        ("var x 1 2\nvar x 3 4", "declared twice"),
        ("var x 1 2\nforbidden (x) : (1 2)", "arity"),
        ("var x 2 1", "empty"),
    ],
)
def test_parse_errors_point_at_the_problem(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_instance(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("var x 1 2\nassign x 1\nassign x 2\nvar y 1 2 3", "line 3: conflicting assignments to x"),
        (
            "var x 1 2\nvar y 1 3\npermutation x y\nvar",
            "line 3: permutation needs as many values as variables (2 variables, 3 values)",
        ),
    ],
)
def test_instance_checks_fail_at_their_statement(text, message):
    # the statement's own error comes before the later line's syntax error
    with pytest.raises(ValueError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


def test_tables_keep_their_tokens_in_instances():
    inst = parse_instance("var x 1 2\nvar y 1 2\nallowed(x) : (1) (2)\nforbidden(x y):(1 1)\n")
    assert inst.constraints == (
        Constraint(TABLE, ("x",), "allowed", ((1,), (2,))),
        Constraint(TABLE, ("x", "y"), "forbidden", ((1, 1),)),
    )
