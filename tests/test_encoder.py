"""Translations to ground programs: structure, seeding, decoding, boxes."""

import dataclasses
import hashlib
import itertools
import random
from pathlib import Path

import pytest

from cspasp import CapExceeded, encoder
from cspasp.benchmarks import gen_ggp_double_wheel, gen_php, random_instance, random_state
from cspasp.csp import (
    Constraint,
    CspInstance,
    DomainState,
    TABLE,
    VariableDecl,
    consistency_oracle,
    parse_instance,
)
from cspasp.encoder import (
    ENCODING_NAMES,
    Encoding,
    EncodingKind,
    EncodingMap,
    EncodingPropagator,
    _maximal_empty_boxes,
    decode,
    encode,
    pruned_domains,
    run,
    seed_assignment,
)
from cspasp.program import (
    Atom,
    CardinalityRule,
    IntegrityRule,
    Lit,
    completion_nogoods,
    emit_ground,
    is_tight,
    parse_ground,
)
from cspasp.propagation import BodyId, SignedLiteral, dump_nogoods
from cspasp.solver import enumerate_models

from .helpers import check_trail
from .oracles import enumerate_solutions, expand_cardinality, propagate_naive

DATA = Path(__file__).parent / "data"

HALL_WINDOW = """\
var v1 1 4
var v2 1 4
var v3 1 4
var v4 1 4
alldifferent v1 v2 v3 v4
"""

HALL_STATE = DomainState(
    {"v1": (2, 3), "v2": (1, 2, 4), "v3": (2, 3), "v4": (1, 2, 3, 4)}
)


def seeds_of(kind_name, instance, state, hall_limit=None):
    enc = encode(instance, EncodingKind(kind_name, hall_limit))
    return sorted(str(s) for s in seed_assignment(enc, state))


# -- the value window --------------------------------------------------------------


def test_window_shifts_to_one_based_internal_values():
    inst = parse_instance("var a { -3 -1 }\nvar b -2 -1\n")
    emap = EncodingMap(inst)
    assert (emap.lo, emap.d) == (-3, 3)
    assert emap.internal(-3) == 1 and emap.internal(-1) == 3
    assert emap.original(1) == -3 and emap.original(3) == -1
    assert emap.values == {"a": (1, 3), "b": (2, 3)}
    assert emap.window("a") == (1, 3) and emap.window("b") == (2, 3)


def test_window_folds_assignments_before_shifting():
    inst = CspInstance(
        (VariableDecl("a", (5, 6, 7)), VariableDecl("b", (6, 9))),
        assignments=(("a", 6),),
    )
    emap = EncodingMap(inst)
    assert emap.lo == 6  # the pruned 5 never enters the window
    assert emap.values == {"a": (1,), "b": (1, 4)}


# -- structure of the translations ----------------------------------------------


def test_single_variable_direct_translation_is_three_statements():
    enc = encode(parse_instance("var x { 3 5 }\n"), EncodingKind("direct"))
    assert emit_ground(enc.program).splitlines() == [
        "{e(x,1); e(x,3)}.",
        ":- not e(x,1), not e(x,3).",
        ":- 2 {e(x,1); e(x,3)}.",
    ]


def test_single_variable_upper_bound_translation():
    enc = encode(parse_instance("var x { 3 5 }\n"), EncodingKind("bound"))
    assert emit_ground(enc.program).splitlines() == [
        "{b(x,1); b(x,2); b(x,3)}.",
        ":- b(x,1), not b(x,2).",
        ":- b(x,2), not b(x,3).",
        ":- not b(x,3).",
        ":- b(x,2), not b(x,1).",  # the hole at internal value 2
    ]


def test_upper_bound_interval_atoms_are_defined_by_one_rule_each():
    # each r(v,l,u) a counting rule reads gets its defining rule and no
    # integrity rules linking it back to b: completion already does that
    text = "var x 1 2\nvar y 1 2\nalldifferent x y\n"
    enc = encode(parse_instance(text), EncodingKind("bound"))
    assert emit_ground(enc.program).splitlines() == [
        "{b(x,1); b(x,2)}.",
        ":- b(x,1), not b(x,2).",
        ":- not b(x,2).",
        "{b(y,1); b(y,2)}.",
        ":- b(y,1), not b(y,2).",
        ":- not b(y,2).",
        ":- 2 {r(x,1,1); r(y,1,1)}.",
        ":- 2 {r(x,2,2); r(y,2,2)}.",
        "r(x,1,1) :- b(x,1).",
        "r(x,2,2) :- not b(x,1), b(x,2).",
        "r(y,1,1) :- b(y,1).",
        "r(y,2,2) :- not b(y,1), b(y,2).",
    ]


def test_single_variable_interval_translation_carves_holes():
    enc = encode(parse_instance("var x { 3 5 }\n"), EncodingKind("range"))
    lines = emit_ground(enc.program).splitlines()
    assert "r(x,1,3)." in lines  # the full window is a fact
    assert ":- r(x,2,2)." in lines  # 4 is not in the domain
    # every atom r(x,l,u) with 1 <= l <= u <= 3 appears
    atoms = {str(a) for a in enc.program.atoms()}
    assert atoms == {
        f"r(x,{l},{u})" for l in range(1, 4) for u in range(l, 4)
    }


def test_all_translations_are_tight_and_completion_ready():
    rng = random.Random(7)
    for _ in range(25):
        inst = random_instance(rng, max_vars=4, max_dom=4)
        for name in ENCODING_NAMES:
            program = encode(inst, EncodingKind(name)).program
            assert is_tight(program), name
            completion_nogoods(program)  # must not raise


def test_interval_atoms_have_no_body_entity_of_their_own():
    # each r(v,l,u) heads one normal rule and no choice rule, so
    # completion makes the atom its body's entity: no {T beta, F r} link
    rng = random.Random("interval-bodies")
    n_r = dict.fromkeys(("bound", "range"), 0)
    for _ in range(10):
        inst = random_instance(rng, max_vars=4, max_dom=4)
        for name in ("bound", "range"):
            store = completion_nogoods(encode(inst, EncodingKind(name)).program)
            r_idx = {
                i for i, e in enumerate(store.entities)
                if isinstance(e, Atom) and e.name == "r"
            }
            n_r[name] += len(r_idx)
            bodies = {i for i, e in enumerate(store.entities) if isinstance(e, BodyId)}
            for ng in store.nogoods:
                if len(ng.lits) == 2:
                    t, f = sorted(ng.lits, key=lambda c: c & 1)
                    assert not (t >> 1 in bodies and f & 1 and f >> 1 in r_idx), name
    assert all(n_r.values()), n_r


# -- seeding domain states into partial assignments ---------------------------------


def test_interval_seeds_for_the_hall_example():
    assert seeds_of("range", parse_instance(HALL_WINDOW), HALL_STATE) == [
        "F r(v1,1,1)",
        "F r(v1,4,4)",
        "F r(v2,3,3)",
        "F r(v3,1,1)",
        "F r(v3,4,4)",
    ]


def test_interval_seeds_cover_every_box_inside_a_gap():
    state = DomainState(
        {"v1": (3,), "v2": (1, 2, 3, 4), "v3": (1, 2, 3, 4), "v4": (1, 2, 3, 4)}
    )
    assert seeds_of("range", parse_instance(HALL_WINDOW), state) == [
        "F r(v1,1,1)",
        "F r(v1,1,2)",
        "F r(v1,2,2)",
        "F r(v1,4,4)",
    ]


def test_value_seeds_list_missing_values():
    inst = parse_instance("var x 1 3\nvar y 1 3\n")
    state = DomainState({"x": (2,), "y": (1, 2, 3)})
    assert seeds_of("direct", inst, state) == ["F e(x,1)", "F e(x,3)"]
    assert seeds_of("support", inst, state) == ["F e(x,1)", "F e(x,3)"]


def test_upper_bound_seeds_pin_hull_endpoints():
    inst = parse_instance("var v 1 4\nvar w 1 4\n")
    full = (1, 2, 3, 4)
    assert seeds_of("bound", inst, DomainState({"v": (1, 2), "w": full})) == [
        "T b(v,2)"
    ]
    assert seeds_of("bound", inst, DomainState({"v": (2, 3), "w": full})) == [
        "F b(v,1)",
        "T b(v,3)",
    ]
    assert seeds_of("bound", inst, DomainState({"v": full, "w": full})) == []


def test_seeding_an_unchanged_state_is_a_no_op_for_value_forms():
    inst = parse_instance(HALL_WINDOW)
    for name in ("direct", "support", "bound"):
        assert seeds_of(name, inst, inst.initial_state()) == []


def test_seed_assignment_rejects_foreign_states():
    enc = encode(parse_instance("var x 1 2\n"), EncodingKind("direct"))
    with pytest.raises(ValueError):
        seed_assignment(enc, DomainState({"y": (1,)}))


# -- propagation and readback -------------------------------------------------------


def test_interval_propagation_reproduces_hall_pruning():
    enc = encode(parse_instance(HALL_WINDOW), EncodingKind("range"))
    out = EncodingPropagator(enc).propagate(HALL_STATE)
    assert out.domains == {
        "v1": (2, 3),
        "v2": (1, 4),
        "v3": (2, 3),
        "v4": (1, 4),
    }


def test_hall_size_cap_trades_pruning_for_size():
    inst = parse_instance(HALL_WINDOW)
    capped = encode(inst, EncodingKind("range", hall_limit=1))
    full = encode(inst, EncodingKind("range"))
    assert len(capped.program) < len(full.program)
    out = EncodingPropagator(capped).propagate(HALL_STATE)
    assert out.domains == HALL_STATE.domains  # width-2 interval goes unseen


def test_hall_size_cap_keeps_solutions():
    inst = gen_php(4)  # unsatisfiable, so enumeration must stay empty
    for hl in (1, 2):
        enc = encode(inst, EncodingKind("range", hall_limit=hl))
        store = completion_nogoods(enc.program)
        models, _, status = enumerate_models(store)
        assert (models, status) == ([], "UNSAT"), hl


def with_empty_domain(instance):
    """An invalid state: the instance's first variable has no value left."""
    domains = dict(instance.initial_state().domains)
    domains[instance.variables[0].name] = ()
    return DomainState(domains)


def test_root_wipeout_returns_none():
    php3 = gen_php(3)
    rng = random.Random("wipeout")
    for name in ("range", "bound"):
        prop = EncodingPropagator(encode(php3, EncodingKind(name)))
        assert prop.root_conflict
        assert prop.propagate(php3.initial_state()) is None
        for _ in range(5):
            assert prop.propagate(random_state(rng, php3)) is None
        # an invalid state is still rejected, not answered with the root's conflict
        with pytest.raises(ValueError):
            prop.propagate(with_empty_domain(php3))


def test_value_translation_is_weaker_than_arc_consistency():
    inst = parse_instance((DATA / "direct_strict.csp").read_text())
    start = inst.initial_state()
    direct = EncodingPropagator(encode(inst, EncodingKind("direct"))).propagate(start)
    oracle = consistency_oracle(inst, start, "ac")
    assert oracle.domains["x"] == (2,)
    assert direct.domains["x"] == (1, 2)  # strictly less pruning
    # inclusion still holds: the oracle never keeps a value the translation drops
    for name in start.domains:
        assert set(oracle.domains[name]) <= set(direct.domains[name])


def test_supported_value_translation_matches_arc_consistency_here():
    inst = parse_instance((DATA / "direct_strict.csp").read_text())
    start = inst.initial_state()
    out = EncodingPropagator(encode(inst, EncodingKind("support"))).propagate(start)
    assert out.domains == consistency_oracle(inst, start, "ac").domains


@pytest.mark.parametrize("kind_name", ENCODING_NAMES)
def test_reused_propagator_matches_a_fresh_one_per_state(kind_name):
    # seeds sit at level 1 above the propagator's one root trail, so a call
    # must leave that trail and the shared store's watches fit for the next
    rng = random.Random(f"reuse:{kind_name}")
    for _ in range(10):
        inst = random_instance(rng)
        enc = encode(inst, EncodingKind(kind_name))
        reused = EncodingPropagator(enc)
        for _ in range(10):
            state = random_state(rng, inst)
            assert reused.propagate(state) == EncodingPropagator(enc).propagate(state)


def naive_pruning(enc, state):
    """pruned_domains of propagate_naive over a freshly completed store,
    its cardinality rules expanded by the counter ladder."""
    store = completion_nogoods(expand_cardinality(enc.program, "counter"))
    nogoods = [[store.literal(c) for c in ng.lits] for ng in store.nogoods]
    derived, status = propagate_naive(nogoods, seed_assignment(enc, state))
    return None if status == "conflict" else pruned_domains(enc, derived)


encoder_unit_propagate = encoder.unit_propagate


def propagate_then_check_trail(store, trail):
    conflict = encoder_unit_propagate(store, trail)
    check_trail(store, trail)
    return conflict


@pytest.mark.parametrize("kind_name", ENCODING_NAMES)
def test_propagator_matches_naive_propagation(kind_name, monkeypatch):
    # the default (native) propagator against the counter-ladder propagator
    # and the naive scanner over the counter store, every trail checked
    monkeypatch.setattr(encoder, "unit_propagate", propagate_then_check_trail)
    rng = random.Random(f"naive:{kind_name}")
    conflicts = counted = 0
    for _ in range(10):
        inst = random_instance(rng, max_vars=3, max_dom=3)
        enc = encode(inst, EncodingKind(kind_name))
        native = EncodingPropagator(enc)
        counter = EncodingPropagator(
            dataclasses.replace(enc, program=expand_cardinality(enc.program, "counter"))
        )
        counted += bool(native.store.cardinalities)
        for _ in range(5):
            state = random_state(rng, inst)
            want = naive_pruning(enc, state)
            assert native.propagate(state) == want, (inst, state)
            assert counter.propagate(state) == want, (inst, state)
            conflicts += want is None
    assert conflicts >= 1  # the conflict path was compared too
    assert counted >= 5  # and native counting was in play


def fails_midway(prop, state):
    """propagate() with unit propagation failing once it reached its fixpoint.

    Returns whether the failure struck with literals above the root.
    """
    real = encoder.unit_propagate
    above_root = []

    def propagate_then_fail(store, trail):
        real(store, trail)
        above_root.append(trail.level == 1 and len(trail.codes) > trail.level_starts[1])
        raise ValueError("injected failure")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "unit_propagate", propagate_then_fail)
        try:
            prop.propagate(state)
        except ValueError:
            pass
    return above_root == [True]


@pytest.mark.parametrize("kind_name", ENCODING_NAMES)
def test_propagator_returns_to_its_root_after_a_conflict_or_an_error(kind_name):
    rng = random.Random(f"recover:{kind_name}")
    conflicts = failures = 0
    for _ in range(15):
        inst = random_instance(rng, max_vars=4, max_dom=4)
        enc = encode(inst, EncodingKind(kind_name))
        prop = EncodingPropagator(enc)
        root = list(prop.trail.codes)

        def back_at_root_and_agrees():
            assert (prop.trail.level, prop.trail.codes) == (0, root)
            state = random_state(rng, inst)
            assert prop.propagate(state) == EncodingPropagator(enc).propagate(state)

        for _ in range(5):
            if prop.propagate(random_state(rng, inst)) is None:
                conflicts += 1
                back_at_root_and_agrees()
            with pytest.raises(ValueError):
                prop.propagate(with_empty_domain(inst))
            back_at_root_and_agrees()
            failures += fails_midway(prop, random_state(rng, inst))
            back_at_root_and_agrees()
    assert conflicts >= 1 and failures >= 1


@pytest.mark.parametrize(
    "kind, literals, pruned",
    [
        # a positive value atom prunes nothing under direct
        ("direct", [("e", ("v1", 2), False), ("e", ("v2", 1), True)], {"v1": (1, 3, 4)}),
        # b(v,i) says v <= i: true caps v at i, false lifts v above i
        ("bound", [("b", ("v1", 3), True), ("b", ("v1", 1), False)], {"v1": (2, 3)}),
        # only the singletons r(v,i,i) name a value; a false r(v,1,3) prunes nothing
        ("range", [("r", ("v1", 2, 2), False), ("r", ("v2", 1, 3), False)], {"v1": (1, 3, 4)}),
    ],
    ids=["direct", "bound", "range"],
)
def test_pruned_domains_reads_back_partial_assignments(kind, literals, pruned):
    enc = encode(parse_instance(HALL_WINDOW), EncodingKind(kind))
    got = pruned_domains(
        enc, [SignedLiteral(Atom(name, args), truth) for name, args, truth in literals]
    )
    assert got.domains == {v: pruned.get(v, (1, 2, 3, 4)) for v in ("v1", "v2", "v3", "v4")}


# -- decoding full models -----------------------------------------------------------


def model_solutions(inst, kind):
    enc = encode(inst, EncodingKind(kind))
    store = completion_nogoods(enc.program)
    models, _, status = enumerate_models(store)
    assert status == "UNSAT"  # enumeration ran to exhaustion
    return enc, models


@pytest.mark.parametrize("kind", ENCODING_NAMES)
def test_decoded_models_are_exactly_the_solutions(kind):
    rng = random.Random(f"decode:{kind}")
    for _ in range(20):
        inst = random_instance(rng, max_vars=4, max_dom=4)
        enc, models = model_solutions(inst, kind)
        decoded = [decode(enc, m) for m in models]
        assert len({tuple(sorted(d.items())) for d in decoded}) == len(decoded)
        want = enumerate_solutions(inst)
        key = lambda d: sorted(d.items())
        assert sorted(decoded, key=key) == sorted(want, key=key)


def test_decode_rejects_incomplete_assignments():
    enc = encode(parse_instance("var x 1 2\n"), EncodingKind("direct"))
    with pytest.raises(ValueError):
        decode(enc, [])
    with pytest.raises(ValueError):
        decode(
            enc,
            [
                SignedLiteral(Atom("e", ("x", 1)), True),
                SignedLiteral(Atom("e", ("x", 2)), True),
            ],
        )


@pytest.mark.parametrize("kind", ENCODING_NAMES)
def test_run_raises_on_a_model_that_decodes_to_a_non_solution(kind):
    # the program lacks the all-different's rules, so some of its models
    # give x and y one value; run must not report those as answers
    inst = parse_instance("var x 1 2\nvar y 1 2\nalldifferent x y\n")
    free = encode(parse_instance("var x 1 2\nvar y 1 2\n"), EncodingKind(kind))
    with pytest.raises(ValueError, match="which is not a solution"):
        run(free.program, Encoding(inst, free.kind, free.emap, free.program), limit=None)
    enc = encode(inst, EncodingKind(kind))
    status, answers, _, _ = run(enc.program, enc, limit=None)
    assert status == "SAT"
    assert sorted(answers, key=lambda a: a["x"]) == [{"x": 1, "y": 2}, {"x": 2, "y": 1}]


# -- maximal empty boxes ------------------------------------------------------------


def box_cells(box):
    return itertools.product(*(range(l, u + 1) for l, u in box))


def oracle_boxes(points, windows):
    """Reference implementation by explicit enumeration of every box."""
    points = set(points)
    axes = [[(l, u) for l in range(lo, hi + 1) for u in range(l, hi + 1)] for lo, hi in windows]
    empty = {
        box
        for box in itertools.product(*axes)
        if not any(cell in points for cell in box_cells(box))
    }

    def grown(box):
        for axis, ((l, u), (lo, hi)) in enumerate(zip(box, windows)):
            if l > lo:
                yield box[:axis] + ((l - 1, u),) + box[axis + 1 :]
            if u < hi:
                yield box[:axis] + ((l, u + 1),) + box[axis + 1 :]

    return sorted(box for box in empty if not any(g in empty for g in grown(box)))


def test_maximal_empty_boxes_match_enumeration():
    rng = random.Random(99)
    for trial in range(150):
        ndim = rng.randint(1, 4)
        shape = tuple(rng.randint(1, 5 if ndim < 4 else 4) for _ in range(ndim))
        density = rng.choice((0.05, 0.4, 0.95))  # near-empty, mixed, near-full
        windows = [(0, n - 1) for n in shape]
        points = [p for p in box_cells(windows) if rng.random() < density]
        assert _maximal_empty_boxes(points, windows) == oracle_boxes(points, windows), (
            trial, points
        )


def test_maximal_empty_boxes_edge_cases():
    square = [(0, 1), (0, 1)]
    assert _maximal_empty_boxes(list(box_cells(square)), square) == []
    assert _maximal_empty_boxes([], square) == [((0, 1), (0, 1))]
    assert _maximal_empty_boxes([(1,)], [(0, 3)]) == [((0, 0),), ((2, 3),)]
    # boxes live in the given windows, not from 0
    assert _maximal_empty_boxes([(5, 7)], [(4, 5), (7, 8)]) == [
        ((4, 4), (7, 8)),
        ((4, 5), (8, 8)),
    ]


def table_instance(n, polarity, tuples):
    doms = tuple(range(1, n + 1))
    return CspInstance(
        tuple(VariableDecl(v, doms) for v in ("x", "y", "z")),
        (Constraint(TABLE, ("x", "y", "z"), polarity=polarity, tuples=tuples),),
    )


@pytest.mark.parametrize("kind", ["bound", "range"])
def test_wide_forbidden_table_gives_one_box_rule(kind):
    # 42^3 points: its dense grid of (42^2)^3 cells once stopped box analysis
    inst = table_instance(42, "forbidden", ((1, 1, 1),))
    with_table = encode(inst, EncodingKind(kind)).program.rules
    bare = CspInstance(inst.variables)
    without = set(encode(bare, EncodingKind(kind)).program.rules)
    extra = [rule for rule in with_table if rule not in without]
    assert len(with_table) == len(without) + 1
    if kind == "range":
        want = tuple(Lit(Atom("r", (v, 1, 1))) for v in ("x", "y", "z"))
    else:
        want = tuple(Lit(Atom("b", (v, 1))) for v in ("x", "y", "z"))
    assert extra == [IntegrityRule(want)]


def test_box_analysis_over_the_slab_cap_raises():
    rng = random.Random(0)
    allowed = tuple(
        t for t in itertools.product(range(1, 41), repeat=3) if rng.random() < 0.02
    )
    inst = table_instance(40, "allowed", allowed)
    with pytest.raises(CapExceeded, match="slabs"):
        encode(inst, EncodingKind("range"))


def test_ggp5_tables_get_maximal_empty_boxes():
    inst = gen_ggp_double_wheel(5)
    enc = encode(inst, EncodingKind("bound"))  # no CapExceeded
    c = next(c for c in inst.constraints if c.kind == TABLE)
    emap = enc.emap
    windows = tuple(emap.window(v) for v in c.scope)
    sat = {tuple(emap.internal(x) for x in t) for t in c.tuples}
    boxes = encoder._table(emap, c, {}).boxes
    covered = set()
    for box in boxes:
        inside = set(box_cells(box))
        assert not inside & sat, box
        covered |= inside
        for axis, ((l, u), (wlo, whi)) in enumerate(zip(box, windows)):
            for wl, wu in ((l - 1, u), (l, u + 1)):
                if wlo <= wl and wu <= whi:
                    grown = box[:axis] + ((wl, wu),) + box[axis + 1 :]
                    assert any(p in sat for p in box_cells(grown)), (box, axis, wl, wu)
    assert covered == set(box_cells(windows)) - sat  # every violating point lies in a box


def test_tables_of_one_signature_share_their_boxes(monkeypatch):
    # the 16 edge tables of DW_4 share their windows and allowed tuples
    calls = []
    search = encoder._maximal_empty_boxes

    def counted(points, windows):
        calls.append(windows)
        return search(points, windows)

    monkeypatch.setattr(encoder, "_maximal_empty_boxes", counted)
    encode(gen_ggp_double_wheel(4), EncodingKind("bound"))
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["direct", "support"])
def test_tables_of_one_signature_share_their_tuples(kind, monkeypatch):
    # support reads both the allowed and the forbidden tuples of each of
    # the 16 edge tables; one analysis serves all of them
    calls = []
    analyse = encoder._table_tuples

    def counted(emap, c):
        calls.append(c.scope)
        return analyse(emap, c)

    monkeypatch.setattr(encoder, "_table_tuples", counted)
    inst = gen_ggp_double_wheel(4)
    encode(inst, EncodingKind(kind))
    assert sum(c.kind == TABLE for c in inst.constraints) == 16
    assert len(calls) == 1


# -- golden programs ----------------------------------------------------------------

# Between them these reach every rule family of every translation: an
# all-different and a permutation, domains off the window's ends and with
# holes, a pinned variable, and allowed and forbidden tables of arity 1-3
# (one tuple falls outside an effective domain and is filtered).
GOLDEN_INSTANCES = {
    "tables": """\
var x 1 3
var y { 2 4 5 }
var z 0 5
var w { 1 3 }
var u 1 2
alldifferent x y z
forbidden (z) : (2)
allowed (w) : (3)
allowed (x y) : (1 2) (2 4) (3 5) (3 2)
forbidden (y z) : (2 2) (4 4) (5 0)
allowed (x y w) : (1 2 3) (2 4 1) (3 5 3)
forbidden (x z u) : (1 1 1) (2 3 2) (3 0 2)
assign u 2
""",
    "permutation": """\
var a { 1 3 }
var b 1 3
var c 2 3
var d 0 4
permutation a b c
alldifferent c d
""",
}

GOLDEN_SHA256 = {
    ("permutation", "direct", None): "320fbc4d45c2d203dca2660973ff45368c198d53b2275e397d7f779604675cf7",
    ("permutation", "support", None): "c93023224d3d34bb530c1ae0afcbf0853090c4cf164595b277e52628366a4e19",
    ("permutation", "bound", None): "810346d4bdb4b120f1d46421b7a341a8a7bf44358a550e9636688a3f5d096fd8",
    ("permutation", "range", None): "14d978c28c9c7edc08df6cc4b0369db1d7f9f3187c15bf3603d196215977049f",
    ("permutation", "bound", 1): "25cb15576c0474febb7affa631368e36e3af1aa085fccda68c5c79bbba532142",
    ("permutation", "range", 1): "691f4ff64c7636cf40584979376d2391f6d60d97e362fb03fee1fa28452b1511",
    ("tables", "direct", None): "3ce9d8a86a2e6e2f1e62164210319046812889e47a54344f4d0c7da402c62ab5",
    ("tables", "support", None): "2bba9a41b5b0ea471659b736bac00d7d8648773cc6956372bce2c4bc6ebd0a71",
    ("tables", "bound", None): "7d05fce281d8099f5be56c3222f2efb6e9cb9ad11068c01dd1ff8777527d184a",
    ("tables", "range", None): "2c603769240a4b54247ec59630e71aeedadcb5c95c2fbacbbaa7a9146ba1b031",
    ("tables", "bound", 1): "c58873531fa9c27e7ff86b7c54bea267f264ba0dcd8a7c938cd48e344e35436b",
    ("tables", "range", 1): "40c4ade27c46b3e7d8fec72e208714682d125b8c0ba3933f5109666cd25db407",
}


@pytest.mark.parametrize("key", GOLDEN_SHA256, ids=lambda key: "-".join(map(str, key)))
def test_programs_match_their_golden_digests(key):
    instance, name, hall = key
    enc = encode(parse_instance(GOLDEN_INSTANCES[instance]), EncodingKind(name, hall))
    text = emit_ground(enc.program)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[key]


# sha256 of each golden program's completed store, as `--emit-nogoods` writes it
GOLDEN_STORE_SHA256 = {
    ("permutation", "direct", None): "00be0e454e58d670042649bf5274c49466fa3bfba2272dc6de5765588dd37ce8",
    ("permutation", "support", None): "971ae0d0b7de61e07e2f92864db2158504e48c6f442ece4e7b9fb7f535956d27",
    ("permutation", "bound", None): "e39d85008d4f341ad68f402bd88fac1e0f51e992caf43b6ff65bb51f8b3719a2",
    ("permutation", "range", None): "cc4236f8a0efe019a2d5fc5e0b49227167d5f88360a8b0f2bc6339ad2550568e",
    ("permutation", "bound", 1): "f03d882c6f70b6c845f8156cfd665867409a7ea8fa46cbeec7e38576796c0f7e",
    ("permutation", "range", 1): "de956944d1682353e0ebc50112d8651bb909d25d0c10b696364f03e22d53be58",
    ("tables", "direct", None): "86854964ad9b0139c6d8f91d12e86f659e7e051ed7344a39f01c20ed3cac54c4",
    ("tables", "support", None): "b4aa237605b0a1eb2eb5cbdb9eb5529df74dfb7c84e5f9bb622e5f4978efd6b7",
    ("tables", "bound", None): "19091ac08363adf227da9436a0daf0ca4080ae583204e6287b85889265cfeea8",
    ("tables", "range", None): "3177f821c303d5b1f68e1b8ec919579817668d91838a852a22e57b2d89015951",
    ("tables", "bound", 1): "f45a3acbaf39fd11a2a750d73e869b2bbad4761a1c6d776303dfe4795240f5bb",
    ("tables", "range", 1): "e94779b92a80a57917a163e3617307e69d313a44c128d8220e668fa8ef2ad754",
}


def literal_objects(program):
    """Each literal occurrence of the program's bodies and cardinality rules."""
    for rule in program:
        yield from rule.literals if isinstance(rule, CardinalityRule) else getattr(rule, "body", ())


@pytest.mark.parametrize(
    "instance, name",
    [("tables", name) for name in ENCODING_NAMES] + [("ggp4", "support")],
)
def test_each_literal_is_one_object(instance, name):
    if instance == "ggp4":
        inst = gen_ggp_double_wheel(4)
    else:
        inst = parse_instance(GOLDEN_INSTANCES[instance])
    program = encode(inst, EncodingKind(name)).program
    for prog in (program, parse_ground(emit_ground(program))):
        occurrences = list(literal_objects(prog))
        assert len({id(lit) for lit in occurrences}) == len(set(occurrences))
    if instance == "ggp4":
        assert len(set(occurrences)) == 818
        assert len(occurrences) > 200_000


@pytest.mark.parametrize("key", GOLDEN_STORE_SHA256, ids=lambda key: "-".join(map(str, key)))
def test_completed_stores_match_their_golden_digests(key):
    # the reparsed program holds literal objects of its own, so this also
    # checks that completion reads literals by value, not by identity
    instance, name, hall = key
    enc = encode(parse_instance(GOLDEN_INSTANCES[instance]), EncodingKind(name, hall))
    dump = dump_nogoods(completion_nogoods(enc.program))
    assert hashlib.sha256(dump.encode()).hexdigest() == GOLDEN_STORE_SHA256[key]
    reparsed = parse_ground(emit_ground(enc.program))
    assert dump_nogoods(completion_nogoods(reparsed)) == dump
