"""Ground programs: rules, normalization, completion, answer sets."""

import gc
import itertools
import random
import re
import tracemalloc

import pytest

from cspasp import CapExceeded, EncodingKind, encode
from cspasp.benchmarks import gen_ggp_double_wheel, gen_qcp, random_instance
from cspasp.program import (
    Atom,
    CardinalityRule,
    ChoiceRule,
    GroundProgram,
    IntegrityRule,
    Lit,
    NormalRule,
    completion_nogoods,
    emit_ground,
    is_tight,
    make_cardinality,
    normalize_cardinality,
    parse_ground,
)
from cspasp.propagation import BodyId, SignedLiteral
from cspasp.solver import UNSAT, enumerate_models, solve
from .helpers import random_tight_program, store_answer_sets, true_atoms
from .oracles import (
    brute_force_answer_sets,
    expand_cardinality,
    is_answer_set,
    least_model,
    reduct,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")


def lits(*pairs):
    return tuple(Lit(atom, pos) for atom, pos in pairs)


# -- atoms and rules ------------------------------------------------------------


def test_atoms_are_their_text():
    assert Atom("p", (1, 2)) == Atom("p", (1, 2)) == "p(1,2)"
    assert hash(Atom("p", (1, 2))) == hash("p(1,2)")
    assert Atom("p", (1,)) != Atom("p", (2,))
    assert Atom("p", (1, "x")) == "p(1,x)"
    assert repr(Atom("p", (1, "x"))) == str(Atom("p", (1, "x"))) == "p(1,x)"
    assert repr(Atom("p")) == "p"
    assert Atom("p", (1, "x")).name == Atom("p").name == "p"


def test_choice_rule_validation():
    with pytest.raises(ValueError):
        ChoiceRule(())
    with pytest.raises(ValueError):
        ChoiceRule((a, a))


def test_cardinality_rule_validation():
    with pytest.raises(ValueError):
        CardinalityRule(0, lits((a, True)))
    # a bound above the literal count is never reached: the rule is
    # valid, completion installs nothing for it, and make_cardinality drops it
    vacuous = CardinalityRule(3, lits((a, True), (b, True)))
    store = completion_nogoods(GroundProgram((vacuous,)))
    assert store.cardinalities == []
    assert store.n_static == 2  # {T a} and {T b}: no rule derives a or b
    assert make_cardinality(3, lits((a, True), (b, True))) is None
    rule = make_cardinality(2, lits((a, True), (b, True)))
    assert rule.bound == 2
    # no bound below 1 is above the literal count, so the rule rejects it
    for bound in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            make_cardinality(bound, lits((a, True)))
        with pytest.raises(ValueError, match="at least 1"):
            make_cardinality(bound, ())


# -- cardinality normalization ----------------------------------------------------


def enumerate_violations(bound, literals):
    """Subsets of atoms violating `bound {literals}` by brute force."""
    atoms = sorted({l.atom for l in literals}, key=repr)
    good = set()
    for subset in itertools.product((False, True), repeat=len(atoms)):
        world = dict(zip(atoms, subset))
        holds = sum(1 for l in literals if world[l.atom] == l.positive)
        if holds < bound:
            good.add(frozenset(at for at in atoms if world[at]))
    return good


@pytest.mark.parametrize("method", ["counter", "binomial"])
def test_normalization_preserves_cardinality_semantics(method):
    for n in (1, 2, 3, 4):
        base = [Atom("x", (i,)) for i in range(n)]
        for k in range(1, n + 1):
            for pols in itertools.product((True, False), repeat=n):
                body = tuple(Lit(at, p) for at, p in zip(base, pols))
                program = GroundProgram(
                    (ChoiceRule(tuple(base)), CardinalityRule(k, body))
                )
                norm = expand_cardinality(program, method)
                got = store_answer_sets(norm)
                projected = {frozenset(x & set(base)) for x in got}
                assert len(got) == len(projected)  # aux atoms are determined
                assert projected == enumerate_violations(k, body)


def test_counter_handles_lower_bound_one():
    program = GroundProgram(
        (ChoiceRule((a, b)), CardinalityRule(1, lits((a, True), (b, True))))
    )
    norm = expand_cardinality(program, "counter")
    assert {frozenset(x & {a, b}) for x in brute_force_answer_sets(norm)} == {
        frozenset()
    }


def test_normalization_leaves_plain_programs_alone():
    program = GroundProgram((NormalRule(a, ()), IntegrityRule(lits((b, True)))))
    assert expand_cardinality(program, "counter") == program
    assert normalize_cardinality(program) is program


def test_binomial_cap():
    atoms = [Atom("y", (i,)) for i in range(40)]
    body = tuple(Lit(at, True) for at in atoms)
    program = GroundProgram((ChoiceRule(tuple(atoms)), CardinalityRule(20, body)))
    with pytest.raises(CapExceeded):
        expand_cardinality(program, "binomial")


def test_normalization_rejects_unknown_method():
    program = GroundProgram((ChoiceRule((a,)),))
    with pytest.raises(ValueError):
        expand_cardinality(program, "magic")


# -- tightness, reduct, answer sets -------------------------------------------------


def test_is_tight():
    assert is_tight(GroundProgram((NormalRule(a, lits((b, True))),)))
    loop = GroundProgram(
        (NormalRule(a, lits((b, True))), NormalRule(b, lits((a, True))))
    )
    assert not is_tight(loop)
    # negative loops do not affect tightness
    neg = GroundProgram(
        (NormalRule(a, lits((b, False))), NormalRule(b, lits((a, False))))
    )
    assert is_tight(neg)


def test_reduct_and_least_model():
    program = GroundProgram(
        (
            NormalRule(a, ()),
            NormalRule(b, lits((a, True), (c, False))),
            NormalRule(c, lits((a, False),)),
        )
    )
    red = reduct(program, {a, b})
    assert least_model(red) == {a, b}
    assert is_answer_set(program, {a, b})
    assert not is_answer_set(program, {a, c})
    assert not is_answer_set(program, {a})


def test_answer_sets_of_choice_program():
    program = GroundProgram((ChoiceRule((a, b)), IntegrityRule(lits((a, True), (b, True)))))
    got = set(brute_force_answer_sets(program))
    assert got == {frozenset(), frozenset({a}), frozenset({b})}


def test_unsupported_atom_is_not_an_answer_set():
    program = GroundProgram((NormalRule(a, ()),))
    assert is_answer_set(program, {a})
    assert not is_answer_set(program, {a, b})


# -- completion nogoods ---------------------------------------------------------


def test_completion_of_fact_and_constraint():
    program = GroundProgram((NormalRule(a, ()), IntegrityRule(lits((a, True),))))
    assert store_answer_sets(program) == set()


def test_completion_support_nogood():
    # b has no rule: completion forces it false everywhere
    program = GroundProgram((ChoiceRule((a,)), NormalRule(c, lits((b, True)))))
    sets = store_answer_sets(program)
    assert sets == {frozenset(), frozenset({a})}


def test_integrity_rule_completes_to_one_nogood_over_its_body():
    program = GroundProgram(
        (ChoiceRule((a, b)), IntegrityRule(lits((a, True), (b, False))))
    )
    store = completion_nogoods(program)
    assert store.entities == [a, b]  # the choice's empty body has no entity
    shapes = [{store.literal(code) for code in ng.lits} for ng in store.nogoods]
    constraint = {SignedLiteral(a, True), SignedLiteral(b, False)}
    assert shapes.count(constraint) == 1
    assert not any(constraint < shape for shape in shapes)


@pytest.mark.parametrize(
    "rules", [(IntegrityRule(()),), (ChoiceRule((a,)), IntegrityRule(()))],
    ids=["alone", "with-choice"],
)
def test_empty_integrity_body_is_unsatisfiable(rules):
    program = GroundProgram(rules)
    assert brute_force_answer_sets(program) == []
    assert solve(completion_nogoods(program)).status == UNSAT


def test_self_contradictory_integrity_body_never_fires():
    choice = ChoiceRule((a, b))
    program = GroundProgram((choice, IntegrityRule(lits((a, True), (a, False)))))
    want = set(brute_force_answer_sets(program))
    assert want == set(brute_force_answer_sets(GroundProgram((choice,))))
    assert len(want) == 4
    assert store_answer_sets(program) == want


def test_completion_rejects_nontight_by_default():
    loop = GroundProgram(
        (NormalRule(a, lits((b, True))), NormalRule(b, lits((a, True))))
    )
    with pytest.raises(ValueError):
        completion_nogoods(loop)


def test_completion_installs_cardinality_rules_natively():
    program = GroundProgram((
        ChoiceRule((a, b, c)),
        CardinalityRule(2, lits((a, True), (b, False), (c, True))),
        CardinalityRule(1, lits((c, True),)),
    ))
    store = completion_nogoods(program)
    # k >= 2 is one counting constraint over the literals' codes, no nogood
    ((bound, codes),) = store.cardinalities
    assert bound == 2
    constraint = {SignedLiteral(a, True), SignedLiteral(b, False), SignedLiteral(c, True)}
    assert {store.literal(code) for code in codes} == constraint
    # k = 1 has nothing to count: it completes to the unit nogood {T c}
    shapes = [{store.literal(code) for code in ng.lits} for ng in store.nogoods]
    assert {SignedLiteral(c, True)} in shapes
    assert constraint not in shapes
    want = {frozenset(), frozenset({b}), frozenset({a, b})}
    assert set(brute_force_answer_sets(program)) == want
    assert store_answer_sets(program) == want
    with pytest.raises(TypeError):
        completion_nogoods(GroundProgram(("not a rule",)))


def shapes_of(store):
    return [frozenset(store.literal(code) for code in ng.lits) for ng in store.nogoods]


def shape(*pairs):
    return frozenset(SignedLiteral(entity, truth) for entity, truth in pairs)


@pytest.mark.parametrize("rules, want", [
    # one integrity body, its literals written in two orders
    ((ChoiceRule((a, b)), IntegrityRule(lits((a, True), (b, True))),
      IntegrityRule(lits((b, True), (a, True)))),
     [shape((a, True), (b, True))]),
    # a becomes "not b" and b's rule reads "b :- b": nothing to install
    ((NormalRule(a, lits((b, False))), NormalRule(b, lits((a, False)))),
     []),
    # ":- 1 {a; c}." is a unit per literal, and ":- a." repeats the first
    ((ChoiceRule((a, c)), CardinalityRule(1, lits((a, True), (c, True))),
      IntegrityRule(lits((a, True),))),
     [shape((a, True)), shape((c, True))]),
], ids=["integrity", "even-loop", "cardinality-one"])
def test_completion_installs_each_nogood_once(rules, want):
    program = GroundProgram(rules)
    store = completion_nogoods(program)
    assert shapes_of(store) == want
    assert not store.cardinalities
    assert store_answer_sets(program) == set(brute_force_answer_sets(program))


def test_single_rule_atom_is_its_own_body_entity():
    program = GroundProgram((ChoiceRule((b, c)), NormalRule(a, lits((b, True), (c, False)))))
    store = completion_nogoods(program)
    assert store.entities == [b, c, a]
    about_a = [ng for ng in shapes_of(store) if any(lit.entity is a for lit in ng)]
    assert len(about_a) == 3 and set(about_a) == {
        shape((b, True), (c, False), (a, False)),  # {B, F a}
        shape((b, False), (a, True)),  # {not l1, T a}
        shape((c, True), (a, True)),  # {not l2, T a}
    }
    assert store_answer_sets(program) == set(brute_force_answer_sets(program))


def test_fact_completes_to_one_unit():
    store = completion_nogoods(GroundProgram((NormalRule(a, ()),)))
    assert store.entities == [a]
    assert shapes_of(store) == [shape((a, False))]


def test_every_fact_completes_to_a_unit():
    program = GroundProgram((NormalRule(a, ()), NormalRule(b, ()), ChoiceRule((c,))))
    store = completion_nogoods(program)
    # the choice's empty body always holds, so c needs no support nogood
    assert store.entities == [a, b, c]
    assert shapes_of(store) == [shape((a, False)), shape((b, False))]
    assert store_answer_sets(program) == set(brute_force_answer_sets(program))


def test_head_in_its_own_negative_body_gives_two_units():
    # "a :- not a." has no answer set; completion merges the repeated literal
    program = GroundProgram((NormalRule(a, lits((a, False))),))
    store = completion_nogoods(program)
    assert store.entities == [a]
    assert sorted(ng.lits for ng in store.nogoods) == [[0], [1]]  # {T a}, {F a}
    assert solve(store).status == UNSAT
    assert brute_force_answer_sets(program) == []


def test_second_single_rule_atom_over_a_body_is_linked_to_the_first():
    d = Atom("d")
    body = lits((c, True), (d, False))
    program = GroundProgram((ChoiceRule((c, d)), NormalRule(a, body), NormalRule(b, body)))
    store = completion_nogoods(program)
    assert store.entities == [c, d, a, b]
    got = shapes_of(store)
    assert shape((a, True), (b, False)) in got
    assert shape((b, True), (a, False)) in got
    assert shape((c, True), (d, False), (b, False)) not in got  # b has no body nogoods
    assert store_answer_sets(program) == {
        frozenset(), frozenset({d}), frozenset({c, d}), frozenset({a, b, c}),
    }


def test_atoms_defined_by_one_literal_become_that_literal():
    # a and b are c, d is "not c", and e is d, so "not c" too
    d, e = Atom("d"), Atom("e")
    program = GroundProgram((
        ChoiceRule((c,)), NormalRule(a, lits((c, True))), NormalRule(b, lits((c, True))),
        NormalRule(e, lits((d, True))), NormalRule(d, lits((c, False))),
    ))
    store = completion_nogoods(program)
    assert store.entities == [c]
    assert store.nogoods == [] and store.n_static == 0
    assert store.aliases == {a: 0, b: 0, e: 1, d: 1}
    assert store.code(SignedLiteral(e, False)) == store.code(SignedLiteral(c, True)) == 0
    want = {frozenset({d, e}), frozenset({a, b, c})}
    assert set(brute_force_answer_sets(program)) == want
    assert store_answer_sets(program) == want


@pytest.mark.parametrize("choice_first", [False, True])
def test_body_shared_with_a_choice_rule(choice_first):
    rules = [NormalRule(a, lits((c, True))), ChoiceRule((b,), lits((c, True)))]
    if choice_first:
        rules.reverse()
    program = GroundProgram([ChoiceRule((c,))] + rules)
    store = completion_nogoods(program)
    got = shapes_of(store)
    # a is c and has no rule left, so the choice interns {c} either way
    assert store.entities == [c, b, BodyId(0)]
    assert store.aliases == {a: 0}
    assert shape((b, True), (BodyId(0), False)) in got
    assert shape((BodyId(0), True), (b, False)) not in got  # a choice forces nothing
    assert store_answer_sets(program) == set(brute_force_answer_sets(program))


def test_atom_with_two_normal_rules_keeps_its_bodies():
    program = GroundProgram(
        (ChoiceRule((b, c)), NormalRule(a, lits((b, True))), NormalRule(a, lits((c, True))))
    )
    store = completion_nogoods(program)
    assert store.entities == [b, c, a, BodyId(0), BodyId(1)]
    got = shapes_of(store)
    assert shape((a, True), (BodyId(0), False), (BodyId(1), False)) in got
    assert shape((BodyId(0), True), (a, False)) in got
    assert shape((BodyId(1), True), (a, False)) in got
    assert store_answer_sets(program) == set(brute_force_answer_sets(program))


def test_choice_head_with_one_normal_rule_keeps_its_body():
    program = GroundProgram((ChoiceRule((a, b)), NormalRule(a, lits((b, True)))))
    store = completion_nogoods(program)
    assert store.entities == [a, b, BodyId(0)]
    got = shapes_of(store)
    # the choice's empty body always holds: a has no support nogood
    assert not any(SignedLiteral(a, True) in ng for ng in got)
    assert shape((BodyId(0), True), (a, False)) in got
    assert store_answer_sets(program) == set(brute_force_answer_sets(program))


@pytest.mark.parametrize("fact_first", [True, False])
def test_empty_integrity_body_beside_a_fact(fact_first):
    rules = [NormalRule(a, ()), IntegrityRule(())]
    if not fact_first:
        rules.reverse()
    program = GroundProgram(rules)
    store = completion_nogoods(program)
    # the fact gives no entity for ":- ." to share
    assert store.entities == [a, BodyId(0)]
    # {F a}, {T body#0} and {F body#0}
    assert sorted(ng.lits for ng in store.nogoods) == [[1], [2], [3]]
    assert brute_force_answer_sets(program) == []
    assert solve(store).status == UNSAT


def test_empty_integrity_body_is_numbered_after_the_atoms_that_stay():
    # a is c, so c is the only atom entity and ":- ." interns body#0
    program = GroundProgram((ChoiceRule((c,)), NormalRule(a, lits((c, True))), IntegrityRule(())))
    store = completion_nogoods(program)
    assert store.entities == [c, BodyId(0)]
    assert solve(store).status == UNSAT


def test_completion_matches_answer_sets_on_random_shared_bodies():
    # bodies drawn from a small pool, so single-rule atoms, atoms with
    # several rules, choice rules and facts often share one body entity
    rng = random.Random("shared-bodies")
    atoms = [Atom("s", (i,)) for i in range(6)]
    collapsed = 0
    for trial in range(200):
        pool = []
        for _ in range(3):
            # only atoms below the head may occur positively: tight
            chosen = rng.sample(atoms[:4], rng.randint(0, 2))
            pool.append(tuple(Lit(at, rng.random() < 0.5) for at in chosen))
        pool.append(())  # facts and choices whose body always holds
        rules = [ChoiceRule(tuple(atoms[:2]))]
        for _ in range(rng.randint(1, 6)):
            head = atoms[rng.randrange(4, 6)]
            body = rng.choice(pool)
            if rng.random() < 0.2:
                rules.append(ChoiceRule((head,), body))
            else:
                rules.append(NormalRule(head, body))
        program = GroundProgram(rules)
        store = completion_nogoods(program)
        assert all(len(set(ng.lits)) == len(ng.lits) for ng in store.nogoods)
        units = {ng.lits[0] for ng in store.nogoods if len(ng.lits) == 1}
        for rule in rules:
            if isinstance(rule, NormalRule) and not rule.body:
                assert store.code(SignedLiteral(rule.head, False)) in units  # the fact's {F a}
        bodies = sum(isinstance(e, BodyId) for e in store.entities)
        collapsed += bodies < len({frozenset(r.body) for r in rules})
        want = set(brute_force_answer_sets(program))
        assert store_answer_sets(program) == want, (trial, emit_ground(program))
    assert collapsed > 20


def test_completion_matches_answer_sets_on_random_tight_programs():
    rng = random.Random("tight")
    for trial in range(200):
        program = random_tight_program(rng)
        want = set(brute_force_answer_sets(program))
        got = store_answer_sets(program)
        assert got == want, (trial, emit_ground(program))


@pytest.mark.parametrize("rules, cards, want", [
    # a and b are both c: the rule counts c twice and fires when c holds
    ((NormalRule(a, lits((c, True))), NormalRule(b, lits((c, True)))),
     [(2, (0, 0))], [frozenset()]),
    # a is "not c": one of a and c always holds, so the rule never fires
    ((NormalRule(a, lits((c, False))), NormalRule(b, lits((c, True)))),
     [(2, (0, 1))], [frozenset({a}), frozenset({b, c})]),
], ids=["equal", "complementary"])
def test_cardinality_rule_counts_literals_that_became_one(rules, cards, want):
    program = GroundProgram((ChoiceRule((c,)),) + rules
                            + (CardinalityRule(2, lits((a, True), (b, True))),))
    store = completion_nogoods(program)
    assert store.entities == [c]
    assert [tuple(card) for card in store.cardinalities] == cards
    assert sorted(brute_force_answer_sets(program)) == sorted(want, key=sorted)
    assert store_answer_sets(program) == set(want)


def test_substitution_matches_answer_sets_on_random_programs():
    # one-literal rules in chains and in loops through negation, with
    # integrity and cardinality rules over the atoms they define: each
    # model names every atom of the program, and the answer sets stay
    rng = random.Random("substitution")
    atoms = [Atom("s", (i,)) for i in range(7)]
    hits = dict.fromkeys(("chain", "even", "odd", "tautology", "cardinality"), 0)
    for trial in range(300):
        guess, loop, (head, tail), rest = atoms[:2], atoms[2:4], atoms[4:6], atoms[6:]
        if rng.random() < 0.5:
            loop, rest = atoms[2:5], []  # a three-atom loop, and no free atom
            head, tail = atoms[5:7]
        rules = [ChoiceRule(tuple(guess + rest))]
        # a loop through negation: at least one negative step keeps it tight
        signs = [rng.random() < 0.5 for _ in loop]
        signs[rng.randrange(len(loop))] = False
        for atom, nxt, sign in zip(loop, loop[1:] + loop[:1], signs):
            rules.append(NormalRule(atom, (Lit(nxt, sign),)))
        # a chain: tail is head, which is a literal over the loop or a guess
        rules.append(NormalRule(head, (Lit(rng.choice(loop + guess), rng.random() < 0.5),)))
        rules.append(NormalRule(tail, (Lit(head, rng.random() < 0.5),)))
        if rng.random() < 0.3:  # a second rule keeps the chain's head
            rules.append(NormalRule(head, (Lit(rng.choice(guess), False), Lit(tail, False))))
        body = rules[-1].body if rng.random() < 0.5 else rules[1].body
        defined = rules[-1].head if body is rules[-1].body else rules[1].head
        # the defined atom with its literal's complement can never hold
        rules.append(IntegrityRule((Lit(defined, True), Lit(body[0].atom, not body[0].positive))))
        pool = [Lit(x, rng.random() < 0.5) for x in rng.sample(atoms, 4)]
        rules.append(CardinalityRule(rng.randint(1, 3), tuple(pool)))
        program = GroundProgram(rules)
        store = completion_nogoods(program)

        even = sum(not sign for sign in signs) % 2 == 0
        hits["even" if even else "odd"] += sum(x in store.aliases for x in loop) == (
            len(loop) - 1 if even else 0)
        hits["chain"] += tail in store.aliases and head in store.aliases
        hits["tautology"] += defined in store.aliases and len(store.nogoods) == len(
            completion_nogoods(GroundProgram(rules[:-2] + rules[-1:])).nogoods)
        codes = [store.code(SignedLiteral(lit.atom, lit.positive)) for lit in pool]
        hits["cardinality"] += len({code >> 1 for code in codes}) < len(codes)

        want = set(brute_force_answer_sets(program))
        models, _, status = enumerate_models(store)
        assert status == UNSAT
        named = set(program.atoms())
        for model in models:
            assert {lit.entity for lit in model if isinstance(lit.entity, Atom)} == named
        assert {true_atoms(m) for m in models} == want, (trial, emit_ground(program))
    assert min(hits.values()) >= 10, hits


# -- ground text round-trips -------------------------------------------------------


def test_emit_and_parse_round_trip():
    program = GroundProgram(
        (
            ChoiceRule((Atom("e", ("x", 1)), Atom("e", ("x", 2)))),
            NormalRule(a, lits((b, True), (c, False))),
            NormalRule(b, ()),
            IntegrityRule(lits((a, True), (b, False))),
            CardinalityRule(2, lits((a, True), (b, True), (c, False))),
        )
    )
    text = emit_ground(program)
    assert parse_ground(text) == program
    assert parse_ground(emit_ground(parse_ground(text))) == program


def test_emit_ground_syntax():
    program = GroundProgram(
        (
            NormalRule(a, lits((b, True), (c, False))),
            IntegrityRule(()),
            CardinalityRule(1, lits((b, True),)),
        )
    )
    assert emit_ground(program).splitlines() == [
        "a :- b, not c.",
        ":- .",
        ":- 1 {b}.",
    ]


def test_parse_ground_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_ground("a :- b.\nc :- not .\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_ground(":- 0 {a}.")
    with pytest.raises(ValueError):
        parse_ground("a")  # missing period
    # columns count from the start of the line
    for text, message in [
        ("a.\n  b :- c & d.\n", "line 2, col 10: unexpected character '&'"),
        ("a. b.", "line 1, col 4: trailing 'b'"),
        ("  a :- b, c d.  % c", "line 1, col 13: expected '.', found 'd'"),
        ("a :- e(x,1.\n", "line 1, col 11: expected ')', found '.'"),
        ("a :- b.\n  x(1,2 :- c.", "line 2, col 9: expected ')', found ':-'"),
        ("a :- e(f(1)).", "line 1, col 8: bad atom argument 'f(1)'"),
        ("a.\nb :- c\nq & r", "line 2, col 7: expected '.', found None"),
        (":- 2 {a; b", "line 1, col 11: expected '}', found None"),
        ("e (1, x) :- not(y).", "line 1, col 13: expected atom name, found 'not(y)'"),
        ("a.  # instance comment", "line 1, col 5: unexpected character '#'"),
        ("a :- e(x, 1 ,).", "line 1, col 14: bad atom argument ')'"),
        ("a :- e(x, {).", "line 1, col 11: bad atom argument '{'"),
        ("e().", "line 1, col 3: bad atom argument ')'"),
        ("a :- b(1)(2).", "line 1, col 10: expected '.', found '('"),
        ("a :- not .", "line 1, col 10: expected atom name, found '.'"),
        ("{a; 3}.", "line 1, col 5: expected atom name, found '3'"),
    ]:
        with pytest.raises(ValueError) as exc:
            parse_ground(text)
        assert str(exc.value) == message, text


def test_parse_ground_ignores_comments_and_blanks():
    text = "% header\n\na.\n  % indented comment\nb :- a.\n"
    program = parse_ground(text)
    assert len(program) == 2
    for eol in ("\r\n", "\x0c"):
        assert parse_ground(text.replace("\n", eol)) == program


def _ground_texts():
    """Seeded emitted programs with the programs they come from."""
    instances = [gen_ggp_double_wheel(3), gen_qcp(5, 30, 4)]
    programs = [
        encode(inst, EncodingKind(kind)).program
        for inst in instances
        for kind in ("direct", "support", "bound", "range")
    ]
    rng = random.Random("ground-texts")
    for kind in ("bound", "range"):
        programs += [encode(random_instance(rng), EncodingKind(kind)).program for _ in range(15)]
    return programs


def _respell(text: str, rng: random.Random) -> str:
    """``text`` with blanks inside atoms, comments and other line breaks."""
    def blank():
        return rng.choice(["", "", " ", "  ", "\t"])

    lines = []
    for line in text.splitlines():
        if rng.random() < 0.2:
            line = re.sub(r"[(,)]", lambda m: blank() + m.group() + blank(), line)
        lines.append(blank() + line + rng.choice(["", "", " % note", "%"]))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "% comment", "  "]))
    return "".join(line + rng.choice(["\n", "\r\n", "\f"]) for line in lines)


def test_parse_ground_reads_respelled_programs_back():
    rng = random.Random(11)
    for program in _ground_texts():
        text = emit_ground(program)
        respelled = _respell(text, rng)
        assert respelled != text
        assert parse_ground(respelled) == program, respelled[:200]


def test_atom_tokens_allow_blanks_between_their_parts():
    atom = Atom("b", ("x_1_1", -1))
    for spelling in ("b(x_1_1,-1)", "b( x_1_1 , -1 )", "b\t(x_1_1 ,-1)", "b (x_1_1, -01)"):
        assert parse_ground(spelling + ".") == GroundProgram((NormalRule(atom),))
    assert parse_ground("a :- not  b(1).").rules[0].body == (Lit(Atom("b", (1,)), False),)


def test_dropped_programs_leave_no_atoms_behind():
    # every atom name is new, so a table of atoms kept past its program
    # would grow by all of them
    def round_trip(tag):
        atoms = [Atom(f"fresh_{tag}", (i, "x")) for i in range(5000)]
        program = GroundProgram([ChoiceRule(tuple(atoms))]
                                + [NormalRule(atom, (Lit(a, False),)) for atom in atoms])
        assert parse_ground(emit_ground(program)) == program

    round_trip("warm_up")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for tag in range(4):
            round_trip(tag)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 100_000, kept  # bytes; 20,000 pooled atoms hold megabytes


def test_parse_ground_spells_each_atom_one_way():
    # blanks go and integer arguments are read as integers, so leading
    # zeros and a minus zero name the same atom as the plain integer
    program = parse_ground("p( 007 , x ) :- p(7,x).\np(-0).\n")
    head, body = program.rules[0].head, program.rules[0].body[0].atom
    assert head == body == Atom("p", (7, "x"))
    assert program.atoms() == (Atom("p", (7, "x")), Atom("p", (0,)))
    assert emit_ground(program) == "p(7,x) :- p(7,x).\np(0).\n"


def test_parse_ground_leaves_no_state_between_calls():
    first = parse_ground("p(1) :- q.\nq.\n")
    with pytest.raises(ValueError, match="line 2, col 11: bad atom argument '.'"):
        parse_ground("p(1).\np(2) :- q(.\n")
    assert parse_ground("q.\np( 1 ) :- q.\n").rules == (first.rules[1], first.rules[0])
    assert parse_ground("p(1) :- q.\nq.\n") == first
    # no table of atom spellings outlives its call
    spelling = "left_over( 7 )"
    parse_ground(f"{spelling}.")
    gc.collect()
    assert not any(isinstance(o, dict) and spelling in o for o in gc.get_objects())
