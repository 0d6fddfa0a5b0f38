"""Conflict-driven search: restarts, learning, enumeration, budgets."""

import random

import pytest

from cspasp.benchmarks import gen_php, gen_qcp
from cspasp.encoder import EncodingKind, encode
from cspasp.program import (
    Atom,
    ChoiceRule,
    GroundProgram,
    IntegrityRule,
    Lit,
    NormalRule,
    completion_nogoods,
)
from cspasp import solver as solver_module
from cspasp.propagation import NogoodStore, Trail, unit_propagate
from cspasp.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    SolverConfig,
    Stats,
    _Search,
    _verify_static,
    enumerate_models,
    luby,
    solve,
)

from .helpers import (
    check_trail,
    random_cardinality_rule,
    random_tight_program,
    sl,
    true_atoms,
)
from .oracles import brute_force_answer_sets, expand_cardinality

a, b = Atom("a"), Atom("b")


def php_store(n, kind="support", hall_limit=None):
    enc = encode(gen_php(n), EncodingKind(kind, hall_limit))
    return completion_nogoods(enc.program)


def qcp_store(order, fill, seed):
    enc = encode(gen_qcp(order, fill, seed), EncodingKind("support"))
    return completion_nogoods(enc.program)


def on_learn(monkeypatch, hook):
    """Call hook(store, trail, conflict_id, learned, jump) after each
    conflict analysis of the search, before it backjumps.

    The search calls ``analyze`` as a module global, so wrapping it there
    reaches every conflict; the conflict's literals are
    store.lits_of(conflict_id, trail).
    """
    analyze = solver_module.analyze

    def wrapped(store, trail, conflict_id):
        learned, jump, seen = analyze(store, trail, conflict_id)
        hook(store, trail, conflict_id, learned, jump)
        return learned, jump, seen

    monkeypatch.setattr(solver_module, "analyze", wrapped)


# -- restart schedule ---------------------------------------------------------------


def test_luby_prefix():
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]


def test_luby_against_recursive_definition():
    def reference(i):
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        return reference(i - (1 << (k - 1)) + 1)

    assert [luby(i) for i in range(1, 300)] == [reference(i) for i in range(1, 300)]


# -- statistics ---------------------------------------------------------------------


def test_stats_text_layout():
    text = Stats(decisions=3, conflicts=1, propagations=9, time_ms=5).as_text()
    assert text == (
        "decisions=3 conflicts=1 propagations=9 restarts=0 learned=0 time_ms=5"
    )


# -- plain solving ------------------------------------------------------------------


def test_empty_store_is_satisfiable():
    res = solve(NogoodStore())
    assert res.status == SAT and res.assignment == []


def test_unit_nogoods_force_values():
    store = NogoodStore()
    store.add([sl("a", True)])  # forbidding T a forces a false
    res = solve(store)
    assert res.status == SAT
    assert res.assignment == [sl("a", False)]
    assert res.stats.decisions == 0


def test_contradictory_units_are_unsatisfiable():
    store = NogoodStore()
    store.add([sl("a", True)])
    store.add([sl("a", False)])
    assert solve(store).status == UNSAT


def test_program_with_self_blocking_fact_is_unsat():
    program = GroundProgram((NormalRule(a, ()), IntegrityRule((Lit(a, True),))))
    assert solve(completion_nogoods(program)).status == UNSAT


def test_forced_atom_round_trip():
    program = GroundProgram((ChoiceRule((a,)), IntegrityRule((Lit(a, False),))))
    res = solve(completion_nogoods(program))
    assert res.status == SAT
    assert true_atoms(res.assignment) == {a}


def test_runs_are_deterministic():
    first = solve(php_store(5))
    second = solve(php_store(5))
    assert first.status == second.status == UNSAT
    for name in ("decisions", "conflicts", "propagations", "restarts", "learned"):
        assert getattr(first.stats, name) == getattr(second.stats, name)


# -- a solved store stays sound ---------------------------------------------------------


def fresh_closure(store, seeds):
    """Root fixpoint, then each seed as a decision; None on a conflict."""
    trail = Trail(store)
    if unit_propagate(store, trail) is not None:
        return None
    for seed in seeds:
        code = store.code(seed)
        if trail.falsified(code):
            return None  # the store entails the seed's complement
        if not trail.holds(code):
            trail.decide(code)
            if unit_propagate(store, trail) is not None:
                return None
    return set(trail.assignment())


def check_solved_store(make_store, rng, trials):
    """Solve one copy twice and replay random seeds against a fresh copy.

    The search learns into its store and moves watches in place; the
    solved store must still give the same status and derive, from a
    fresh trail, everything the untouched copy derives (or a conflict).
    """
    solved, untouched = make_store(), make_store()
    status = solve(solved).status
    assert solve(solved).status == status
    atoms = [e for e in untouched.entities if isinstance(e, Atom)]
    for _ in range(trials):
        picked = rng.sample(atoms, min(4, len(atoms)))
        seeds = [sl(e, rng.random() < 0.5) for e in picked]
        want = fresh_closure(untouched, seeds)
        got = fresh_closure(solved, seeds)
        if want is None:
            assert got is None, seeds
        elif got is not None:
            assert want <= got, seeds
    return solved, untouched, status


@pytest.mark.parametrize(
    "make_store, status",
    [(lambda: php_store(5), UNSAT), (lambda: qcp_store(6, 30, 0), SAT)],
    ids=["php5", "qcp6"],
)
def test_solved_store_stays_sound(make_store, status):
    solved, untouched, got = check_solved_store(make_store, random.Random(5), 200)
    assert got == status

    def static(store):
        return [sorted(ng.lits) for ng in store.nogoods if not ng.learned]

    assert static(solved) == static(untouched)


def test_solved_random_programs_stay_sound():
    rng = random.Random("unwatch")
    for _ in range(150):
        program = random_tight_program(rng)
        check_solved_store(lambda: completion_nogoods(program), rng, 10)


# -- pigeonhole behaviour ------------------------------------------------------------


def test_interval_forms_refute_pigeonhole_without_deciding():
    for kind in ("bound", "range"):
        res = solve(php_store(6, kind))
        assert res.status == UNSAT
        assert res.stats.decisions == 0, kind


def test_support_form_needs_search_on_pigeonhole():
    res = solve(php_store(4))
    assert res.status == UNSAT
    assert res.stats.decisions >= 1
    assert res.stats.conflicts >= 1


def test_hall_cap_restores_search_on_pigeonhole():
    res = solve(php_store(6, "range", hall_limit=3))  # caps below n-1 = 5
    assert res.status == UNSAT
    assert res.stats.decisions >= 1


# -- conflict analysis ---------------------------------------------------------------


def test_learned_nogoods_are_asserting(monkeypatch):
    """Each learned nogood is violated at conflict time, with a single
    literal from the conflict level first, and becomes unit after the
    reported backjump."""
    records = []

    def hook(store, trail, conflict_id, learned, jump):
        level = trail.level
        # the conflicting nogood (or cardinality constraint) really is violated
        conflict = store.lits_of(conflict_id, trail)
        assert conflict and all(trail.holds(c) for c in conflict)
        if conflict_id < 0:
            assert len(conflict) >= store.cardinalities[~conflict_id].bound
        # every learned literal holds right now
        assert all(trail.holds(c) for c in learned)
        # exactly one literal from the conflict level, placed first
        levels = [trail.level_of[c >> 1] for c in learned]
        assert levels[0] == level
        assert all(lvl < level for lvl in levels[1:])
        assert jump == (max(levels[1:]) if levels[1:] else 0)
        records.append(len(learned))

    on_learn(monkeypatch, hook)
    res = solve(php_store(5))
    assert res.status == UNSAT
    assert records, "expected at least one learned nogood"


def test_learned_nogoods_only_shrink_the_search():
    plain = solve(php_store(5))
    assert plain.stats.learned >= 1
    assert plain.stats.conflicts >= plain.stats.learned


def test_reduction_spares_only_reasons_on_the_live_trail(monkeypatch):
    monkeypatch.setattr(solver_module, "LEARNED_CAP_FACTOR", 0.01)
    store = NogoodStore()
    stale, idle, live = (
        store.add([sl(f"{name}{k}", True) for k in range(3)], learned=True)
        for name in ("s", "i", "l")
    )
    store.nogoods[idle].activity = 1.0  # so the halving deletes the stale one
    # learned cap: int(0.01 * max(100, 0 static nogoods)) = 1 < 3 learned
    search = _Search(store, SolverConfig())
    trail = search.trail
    trail.new_level()
    trail.assign(store.code(sl("s0", False)), stale)
    trail.backjump(0)  # "s0" keeps its reason entry, but is unassigned
    trail.new_level()
    trail.assign(store.code(sl("l0", False)), live)
    search.reduce_learned()
    deleted = [store.nogoods[i].deleted for i in (stale, idle, live)]
    assert deleted == [True, False, False]
    # a deleted nogood leaves the watch lists at once; the rest stay watched
    watched = [ng_id for wl in store.watches for ng_id in wl]
    assert sorted(watched) == sorted(2 * [idle, live])


def test_activities_stay_finite_past_the_overflow_point():
    # entity and learned-nogood activities share one bump, divided by the
    # decay on every conflict; started near the float limit, the search
    # must rescale both rather than let learned activities reach inf
    store = php_store(7)  # about 700 conflicts; 1e300 overflows after 370
    search = _Search(store, SolverConfig(max_conflicts=500))
    search.bump = 1e300
    assert search.run() == UNKNOWN
    assert search.stats.conflicts == 500
    learned = [ng.activity for ng in store.nogoods if ng.learned]
    assert learned and all(0 < act < 1e101 for act in learned)
    assert all(act < 1e101 for act in search.activity)
    assert search.bump < 1e101


# -- native cardinality constraints -------------------------------------------------


def test_native_cardinality_matches_brute_force_on_random_programs(monkeypatch):
    """Native counting against the oracle and the counter ladder, with
    every reason on the trail checked at each conflict and after each
    propagation from random decisions."""
    rng = random.Random("native-cardinality")
    atoms = [Atom("a", (i,)) for i in range(5)]
    shapes = dict.fromkeys(("negative", "pair", "k=1", "k=n"), 0)
    conflicts = 0

    def check_conflict(store, trail, conflict_id, learned, jump):
        nonlocal conflicts
        conflicts += conflict_id < 0
        check_trail(store, trail)
        assert all(trail.holds(c) for c in store.lits_of(conflict_id, trail))

    for trial in range(300):
        cards = tuple(random_cardinality_rule(rng, atoms) for _ in range(rng.randint(1, 3)))
        program = GroundProgram(random_tight_program(rng).rules + cards)
        for card in cards:
            lits = card.literals
            shapes["negative"] += any(not lit.positive for lit in lits)
            shapes["pair"] += len({lit.atom for lit in lits}) < len(lits)
            shapes["k=1"] += card.bound == 1
            shapes["k=n"] += card.bound == len(lits)
        want = set(brute_force_answer_sets(program))
        native = completion_nogoods(program)
        with monkeypatch.context() as patch:
            on_learn(patch, check_conflict)
            models, _, status = enumerate_models(native)
        assert status == UNSAT
        assert {true_atoms(m) for m in models} == want, trial
        counter = completion_nogoods(expand_cardinality(program, "counter"))
        models, _, _ = enumerate_models(counter)
        base = set(program.atoms())
        assert {true_atoms(m) & base for m in models} == want, trial

        store = completion_nogoods(program)
        trail = Trail(store)
        if unit_propagate(store, trail) is None:
            for atom in rng.sample(program.atoms(), 3):
                code = store.code(sl(atom, rng.random() < 0.5))
                if trail.values[code >> 1]:
                    continue
                trail.decide(code)
                conflict = unit_propagate(store, trail)
                check_trail(store, trail)
                if conflict is not None:
                    assert all(trail.holds(c) for c in store.lits_of(conflict, trail))
                    break
    assert min(shapes.values()) >= 10, shapes
    # pigeonhole search resolves through at-most-one reasons at every conflict
    on_learn(monkeypatch, check_conflict)
    for kind in ("direct", "support"):
        res = solve(php_store(5, kind))
        assert res.status == UNSAT
    assert conflicts >= 10


def test_verify_static_rejects_a_model_that_breaks_a_cardinality_constraint():
    def model(truths):
        store = NogoodStore()
        store.add_cardinality(2, [store.code(sl(a, True)), store.code(sl(b, False)),
                                  store.code(sl("c", True))])
        trail = Trail(store)
        for name, truth in zip((a, b, "c"), truths):
            trail.assign(store.code(sl(name, truth)), None)
        return store, trail

    _verify_static(*model((True, True, False)))  # only "a" holds
    with pytest.raises(RuntimeError, match="cardinality"):
        _verify_static(*model((True, False, False)))  # "a" and "not b" hold


# -- budgets -------------------------------------------------------------------------


def test_conflict_budget_reports_unknown():
    res = solve(php_store(7), SolverConfig(max_conflicts=1))
    assert res.status == UNKNOWN
    assert res.assignment is None


def test_time_budget_reports_unknown():
    res = solve(php_store(7), SolverConfig(timeout_s=0.0))
    assert res.status == UNKNOWN


# -- enumeration ---------------------------------------------------------------------


def as_set(models):
    return {frozenset(m) for m in models}


def test_enumerates_all_models_of_a_free_choice():
    program = GroundProgram((ChoiceRule((a, b)),))
    models, stats, status = enumerate_models(completion_nogoods(program))
    assert status == UNSAT  # the space was exhausted
    assert len(models) == 4
    assert {frozenset(true_atoms(m)) for m in models} == {
        frozenset(), frozenset({a}), frozenset({b}), frozenset({a, b}),
    }


def test_enumeration_limit_stops_early():
    program = GroundProgram((ChoiceRule((a, b)),))
    models, _, status = enumerate_models(completion_nogoods(program), limit=2)
    assert status == SAT and len(models) == 2
    assert len(as_set(models)) == 2
    # the last model asked for gets no blocking nogood
    store = completion_nogoods(program)
    n_static = store.n_static
    models, _, status = enumerate_models(store, limit=1)
    assert status == SAT and len(models) == 1
    assert store.n_static == n_static


def test_enumeration_handles_decision_free_models():
    program = GroundProgram((NormalRule(a, ()),))
    models, stats, status = enumerate_models(completion_nogoods(program))
    assert status == UNSAT and len(models) == 1
    assert stats.decisions == 0


def test_enumeration_of_unsatisfiable_store():
    models, _, status = enumerate_models(php_store(4))
    assert (models, status) == ([], UNSAT)


def test_enumeration_rejects_a_limit_below_one():
    # a zero limit would report SAT with no models, even on this UNSAT store
    program = GroundProgram((ChoiceRule((a,)), IntegrityRule((Lit(a),)),
                             IntegrityRule((Lit(a, False),))))
    for limit in (0, -1):
        with pytest.raises(ValueError):
            enumerate_models(completion_nogoods(program), limit=limit)
    models, _, status = enumerate_models(completion_nogoods(program), limit=1)
    assert (models, status) == ([], UNSAT)


def test_enumeration_is_deterministic_and_duplicate_free():
    rng = random.Random(77)
    for _ in range(30):
        program = random_tight_program(rng)
        store1 = completion_nogoods(program)
        store2 = completion_nogoods(program)
        m1, _, s1 = enumerate_models(store1)
        m2, _, s2 = enumerate_models(store2)
        assert s1 == s2 == UNSAT
        assert m1 == m2
        assert len(as_set(m1)) == len(m1)


def test_enumeration_respects_budgets():
    models, _, status = enumerate_models(
        php_store(7), SolverConfig(max_conflicts=1)
    )
    assert status == UNKNOWN and models == []
