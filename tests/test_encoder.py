"""Translations to ground programs: structure, seeding, decoding, boxes."""

import dataclasses
import hashlib
import itertools
import random
from pathlib import Path

import pytest

from cspasp import CapExceeded, encoder
from cspasp.benchmarks import gen_ggp_double_wheel, gen_php, gen_qep, random_instance, random_state
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
            # completion rejects a program that is not tight
            completion_nogoods(encode(inst, EncodingKind(name)).program)


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


def test_interval_seeds_reach_every_box_inside_a_gap_by_propagation():
    # v1 = 3 seeds only the false singletons of the removed 1, 2 and 4;
    # the domain rules carry them to every box inside the gaps [1,2] and
    # [4,4], so r(v1,1,2) needs no seed of its own
    state = DomainState(
        {"v1": (3,), "v2": (1, 2, 3, 4), "v3": (1, 2, 3, 4), "v4": (1, 2, 3, 4)}
    )
    enc = encode(parse_instance(HALL_WINDOW), EncodingKind("range"))
    seeds = seed_assignment(enc, state)
    assert sorted(map(str, seeds)) == ["F r(v1,1,1)", "F r(v1,2,2)", "F r(v1,4,4)"]
    derived, status = naive_closure(expand_cardinality(enc.program, "counter"), seeds)
    assert status == "success"
    false = {str(s.entity) for s in derived if not s.truth}
    assert {"r(v1,1,1)", "r(v1,1,2)", "r(v1,2,2)", "r(v1,4,4)"} <= false


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


def test_propagation_keeps_only_values_its_state_holds():
    # bound seeds only a state's ends, so its readback once gave x back
    # the 2 that this state removed
    inst = parse_instance("var x 1 4\nvar y 1 4\nalldifferent x y\n")
    state = DomainState({"x": (1, 3, 4), "y": (1, 2, 3, 4)})
    for kind_name in ENCODING_NAMES:
        out = EncodingPropagator(encode(inst, EncodingKind(kind_name))).propagate(state)
        assert out == state, kind_name


@pytest.mark.parametrize("kind_name", ENCODING_NAMES)
def test_propagation_only_prunes(kind_name):
    rng = random.Random(f"prunes:{kind_name}")
    for _ in range(15):
        inst = random_instance(rng, max_vars=4, max_dom=5)
        enc = encode(inst, EncodingKind(kind_name))
        reused = EncodingPropagator(enc)
        for k in range(10):
            state = random_state(rng, inst, intervals=k % 2 == 1)
            out = reused.propagate(state)
            assert out == EncodingPropagator(enc).propagate(state), (inst, state)
            if out is not None:
                assert out.domains.keys() == state.domains.keys()
                for name, vals in out.domains.items():
                    assert set(vals) <= set(state[name]), (inst, state, out)


def naive_closure(program, seeds):
    """propagate_naive over the completion of ``program`` from ``seeds``:
    the literals over the program's atoms that hold at its fixpoint, and
    its status.  Atoms are named through the store's code lookup, so an
    atom that completion substituted reads as the literal it equals."""
    store = completion_nogoods(program)
    nogoods = [[store.literal(c) for c in ng.lits] for ng in store.nogoods]
    derived, status = propagate_naive(nogoods, [store.literal(store.code(s)) for s in seeds])
    derived = set(derived)
    held = [
        s for atom in program.atoms() for s in (SignedLiteral(atom, True), SignedLiteral(atom, False))
        if store.literal(store.code(s)) in derived
    ]
    return held, status


def naive_pruning(enc, state):
    """pruned_domains of propagate_naive over a freshly completed store,
    its cardinality rules expanded by the counter ladder, within the state
    (bound seeds only a state's ends, so its readback can hold values the
    state removed); None on a conflict or on a readback that leaves a
    variable with no value."""
    program = expand_cardinality(enc.program, "counter")
    derived, status = naive_closure(program, seed_assignment(enc, state))
    if status == "conflict":
        return None
    pruned = pruned_domains(enc, derived).domains
    out = DomainState({name: set(vals) & set(state[name]) for name, vals in pruned.items()})
    return None if out.is_inconsistent() else out


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
    # twelve draws: the root fold drops the constraints that are spent at
    # the root, and ten draws under bound leave only four with one
    for _ in range(12):
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


def test_a_bound_readback_that_leaves_a_variable_no_value_is_a_conflict():
    # y = 1 leaves x only 2, which the state removed; bound sees the state
    # x:{1,3} as its hull [1,3], so its readback empties x rather than
    # propagation conflicting
    inst = parse_instance("var x 1 3\nvar y 1 2\nallowed (x y) : (2 1) (1 2) (3 2)\n")
    enc = encode(inst, EncodingKind("bound"))
    state = DomainState({"x": (1, 3), "y": (1,)})
    assert EncodingPropagator(enc).propagate(state) is None
    assert naive_pruning(enc, state) is None


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
    holed = parse_instance("var x { 1 5 }\nvar y { 1 5 }\n")  # window 1..5
    for inst in [holed] + [random_instance(rng, max_vars=4, max_dom=4) for _ in range(20)]:
        enc, models = model_solutions(inst, kind)
        built = len(enc.emap.atoms)
        decoded = [decode(enc, m) for m in models]
        assert len(enc.emap.atoms) == built  # decoding builds no atom
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
        run(Encoding(inst, free.kind, free.emap, free.program), limit=None)
    enc = encode(inst, EncodingKind(kind))
    status, answers, _, _ = run(enc, limit=None)
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
    # direct reads the forbidden tuples of each of the 16 edge tables, and
    # support three parts built on their allowed ones: the tuples, the
    # pairwise supports and the per-combination rows.  One analysis
    # serves all 16 tables, however many of its parts a translation reads
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


# -- wide tables under support ------------------------------------------------------


def random_ternary_instance(rng):
    """Three or four variables with holed domains, some pinned, and one or
    two ternary tables, allowed or forbidden, sparse or dense.  Drawn here
    rather than by ``random_instance``, whose stream other users replay."""
    names = [f"v{k}" for k in range(rng.randint(3, 4))]
    variables = []
    for name in names:
        size = 1 if rng.random() < 0.2 else rng.randint(2, 4)
        variables.append(VariableDecl(name, tuple(rng.sample(range(1, 5), size))))
    doms = {decl.name: decl.domain for decl in variables}
    constraints = []
    for _ in range(rng.randint(1, 2)):
        scope = tuple(rng.sample(names, 3))
        density = rng.choice((0.1, 0.5, 0.9))
        tuples = tuple(t for t in itertools.product(*(doms[v] for v in scope))
                       if rng.random() < density) or (tuple(doms[v][0] for v in scope),)
        constraints.append(Constraint(TABLE, scope, rng.choice(("allowed", "forbidden")), tuples))
    return CspInstance(tuple(variables), tuple(constraints))


def binary_projections(inst):
    """The instance with each table replaced by one allowed binary table
    per pair of its positions: the pairs its satisfying tuples take."""
    doms = {decl.name: inst.effective_domain(decl.name) for decl in inst.variables}
    constraints = []
    for c in inst.constraints:
        listed = set(c.tuples)
        sat = [t for t in itertools.product(*(doms[v] for v in c.scope))
               if (t in listed) == (c.polarity == "allowed")]
        for a, b in itertools.combinations(range(len(c.scope)), 2):
            pairs = tuple(sorted({(t[a], t[b]) for t in sat}))
            constraints.append(Constraint(TABLE, (c.scope[a], c.scope[b]), "allowed", pairs))
    return CspInstance(inst.variables, tuple(constraints))


def support_forms(enc):
    """Whether each wide table of the encoding took the per-combination form."""
    found = {}
    return [encoder._table(enc.emap, c, found).combinations is not None
            for c in enc.instance.constraints if len(c.scope) > 2]


def test_wide_support_tables_keep_exactly_the_solutions():
    rng = random.Random("wide-support-models")
    forms = []
    for _ in range(40):
        inst = random_ternary_instance(rng)
        enc, models = model_solutions(inst, "support")
        forms += support_forms(enc)
        key = lambda d: sorted(d.items())
        want = sorted(enumerate_solutions(inst), key=key)
        assert sorted((decode(enc, m) for m in models), key=key) == want, inst
    assert True in forms and False in forms  # both forms were drawn


def test_wide_support_propagation_lies_between_projection_ac_and_full_ac():
    # support keeps every value that arc consistency on the declared
    # tables keeps, and prunes at least what arc consistency on their
    # binary projections prunes
    rng = random.Random("wide-support-ac")
    forms = []
    for _ in range(60):
        inst = random_ternary_instance(rng)
        enc = encode(inst, EncodingKind("support"))
        forms += support_forms(enc)
        prop = EncodingPropagator(enc)
        projected = binary_projections(inst)
        for _ in range(20):
            state = random_state(rng, inst)
            out = prop.propagate(state)
            full = consistency_oracle(inst, state, "ac")
            pairwise = consistency_oracle(projected, state, "ac")
            if out is None:
                assert full.is_inconsistent(), (inst, state)
                continue
            assert not pairwise.is_inconsistent(), (inst, state)
            for name, vals in out.domains.items():
                assert set(full.domains[name]) <= set(vals) <= set(pairwise.domains[name]), (
                    inst, state, name
                )
    assert True in forms and False in forms


def test_ggp_edge_tables_take_the_per_combination_form_and_qep_tables_the_direct_one():
    inst = gen_ggp_double_wheel(4)
    enc = encode(inst, EncodingKind("support"))
    edge = next(c for c in inst.constraints if c.kind == TABLE)
    p, rows = encoder._table(enc.emap, edge, {}).combinations
    assert p == 2  # the edge label, which the two node labels determine
    assert len(rows) == 17 * 17  # one rule per pair of node labels 0..16
    assert all(len(values) == (combo[0] != combo[1]) for combo, values in rows)
    qep = gen_qep("QG5", 7)
    enc = encode(qep, EncodingKind("support"))
    wide = [c for c in qep.constraints if len(c.scope) == 3
            and all(len(enc.emap.values[v]) == 7 for v in c.scope)]
    assert wide
    found = {}
    assert all(encoder._table(enc.emap, c, found).combinations is None for c in wide)


def test_wide_support_misses_a_pruning_of_full_arc_consistency():
    # An expected miss, pinned: every pair of positions supports v0 = 1
    # and no position is fixed, so unit propagation keeps it, although no
    # allowed tuple fits the state.  Full arc consistency on a wide table
    # would need tuple atoms.
    inst = parse_instance("""\
var v0 1 3
var v1 1 3
var v2 1 3
allowed (v0 v1 v2) : (1 1 1) (1 1 3) (1 2 2) (2 2 1) (2 3 3)
""")
    state = DomainState({"v0": (1, 2), "v1": (2, 3), "v2": (1, 3)})
    enc = encode(inst, EncodingKind("support"))
    assert support_forms(enc) == [True]
    assert consistency_oracle(inst, state, "ac").domains == {
        "v0": (2,), "v1": (2, 3), "v2": (1, 3)
    }
    assert EncodingPropagator(enc).propagate(state).domains == state.domains


def test_wide_table_form_does_not_depend_on_polarity():
    # one table listed by its allowed or by its forbidden tuples: the same
    # position, combinations and choice between the two forms
    rng = random.Random("wide-support-polarity")
    for _ in range(300):
        domains = [tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 4))))
                   for _ in range(rng.randint(3, 4))]
        grid = set(itertools.product(*domains))
        density = rng.random()
        allowed = {t for t in grid if rng.random() < density}
        by_allowed = encoder._TableTuples(domains, "allowed", allowed)
        by_forbidden = encoder._TableTuples(domains, "forbidden", grid - allowed)
        assert by_allowed.combinations == by_forbidden.combinations, (domains, allowed)


def test_wide_table_combinations_are_capped(monkeypatch):
    # nine combinations of (x, y), each allowing one z: under a cap of 9
    # the table needs no complement of its 27 tuples, under 8 it stops
    inst = table_instance(3, "allowed", tuple(
        (x, y, (x + y) % 3 + 1) for x in range(1, 4) for y in range(1, 4)
    ))
    monkeypatch.setattr(encoder, "TABLE_COMPLEMENT_CAP", 9)
    enc = encode(inst, EncodingKind("support"))
    assert support_forms(enc) == [True]
    monkeypatch.setattr(encoder, "TABLE_COMPLEMENT_CAP", 8)
    with pytest.raises(CapExceeded, match="combinations"):
        encode(inst, EncodingKind("support"))


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
    ("tables", "direct", None): "17623fd9801a3323a907d1860d09214d3f6146ce3c6da33f1b9525e390b08b15",
    ("tables", "support", None): "efa353fc492df6f5f7d7a8f26e58c9ca15c9aa38e9a4af90fe54a06563c4f042",
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


@pytest.mark.parametrize("name", ENCODING_NAMES)
@pytest.mark.parametrize("instance", [*GOLDEN_INSTANCES, "QG5-5"])
def test_no_program_holds_a_repeated_rule(instance, name):
    # QEP's tables share pairs of cells, so support posts many of its
    # pairwise rules for several tables
    if instance == "QG5-5":
        inst = gen_qep("QG5", 5)
    else:
        inst = parse_instance(GOLDEN_INSTANCES[instance])
    rules = encode(inst, EncodingKind(name)).program.rules
    assert len(set(rules)) == len(rules)


# sha256 of each golden program's completed store, as `--emit-nogoods` writes it
GOLDEN_STORE_SHA256 = {
    ("permutation", "direct", None): "538f7cc2e45f48947ba376f087a0a473822d84880a2d7d3a2a65075f5cb30115",
    ("permutation", "support", None): "d89699b9126d25e6de03042d2b4dc3a6fe930a261ff9b14d928409ae0c31fd07",
    ("permutation", "bound", None): "89043a5c0acd090111131b91e6d05fbf1630b3a4c63ef093194a8890549d0011",
    ("permutation", "range", None): "ac7a434c1654ca1dc5ff6f6707f55b884c7b295de93444acbdd319de325b2f56",
    ("permutation", "bound", 1): "2cbcecb80fb218bb8fdbc7478a62ccdd74c450f2618f876f064bfbc238ece0ea",
    ("permutation", "range", 1): "af8bc216df9e8b231718120426c50ed873ba7929f4064dc7c484a0f411909dd3",
    ("tables", "direct", None): "d9b9b459e76409930acaa17ce55810b53ffdfb53266cc1441e447cf596475254",
    ("tables", "support", None): "ba75dc9a5f1ddcb7118c47b4e5076cc7e2ad924b148bce7798c909c64ea04038",
    ("tables", "bound", None): "e65186a25753bf5917408e1fe1eba842ae83b9b14259f40c9418b63a6f5b6aab",
    ("tables", "range", None): "a8fedeccc147c77758046373b516b731cbd7feab93dc7f496e72a8da8ad2a83a",
    ("tables", "bound", 1): "794140330fdf395337249221d675379d9d7e451565f883233433310a2cbd559a",
    ("tables", "range", 1): "21253a1a26a464d0858bf7229889ce53f125dc030d94dd7673d462468787126e",
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
        assert len(occurrences) >= 38_699


@pytest.mark.parametrize("key", GOLDEN_STORE_SHA256, ids=lambda key: "-".join(map(str, key)))
def test_completed_stores_match_their_golden_digests(key):
    # the reparsed program holds literal objects of its own, so this also
    # checks that completion reads literals by value, not by identity
    instance, name, hall = key
    enc = encode(parse_instance(GOLDEN_INSTANCES[instance]), EncodingKind(name, hall))
    store = completion_nogoods(enc.program)
    # the empty choice body always holds, so no translation needs a body entity
    assert not any(isinstance(e, BodyId) for e in store.entities)
    dump = dump_nogoods(store)
    assert hashlib.sha256(dump.encode()).hexdigest() == GOLDEN_STORE_SHA256[key]
    reparsed = parse_ground(emit_ground(enc.program))
    assert dump_nogoods(completion_nogoods(reparsed)) == dump


# stores whose root propagation fixes nothing, so the root fold leaves
# them as completion built them: the digests they had before the fold
UNFOLDED_STORE_SHA256 = {
    ("php7", "direct"): "de563b87410486bc54f92bb436e7b7e792164b3a8072bdff47d7001cf794808c",
    ("php7", "support"): "a0c08ee1307188161d0605e339241de180a0dbb925450be944cbd103be319169",
    ("ggp4", "support"): "4c1a3a1383d37da14d87d270a1ef8f495eec8fd5c7a0380d835d5cfff358380b",
}


@pytest.mark.parametrize("key", UNFOLDED_STORE_SHA256, ids="-".join)
def test_stores_that_fix_nothing_at_the_root_are_left_as_built(key):
    name, kind = key
    inst = gen_php(7) if name == "php7" else gen_ggp_double_wheel(4)
    store = completion_nogoods(encode(inst, EncodingKind(kind)).program)
    assert store.units == []
    dump = dump_nogoods(store)
    assert hashlib.sha256(dump.encode()).hexdigest() == UNFOLDED_STORE_SHA256[key]


@pytest.mark.parametrize("name", ENCODING_NAMES)
def test_no_completed_store_holds_a_repeated_cardinality_constraint(name):
    # two all-different constraints over one scope in two orders post the
    # same Hall rules with their literals permuted: completion keeps one
    rng = random.Random(f"repeats:{name}")
    permuted = 0
    for _ in range(150):
        program = encode(random_instance(rng, 4, 4), EncodingKind(name)).program
        keys = [(rule.bound, frozenset(rule.literals)) for rule in program
                if isinstance(rule, CardinalityRule)]
        permuted += len(set(keys)) < len(keys)
        store = completion_nogoods(program)
        assert len(set(store.cardinalities)) == len(store.cardinalities)
    if name != "direct":  # direct posts all-different as pairwise integrity rules
        assert permuted >= 5
