"""Unit propagation: watched-literal engine vs the naive scanner."""

import random

import pytest

from cspasp.propagation import (
    NogoodStore,
    SignedLiteral,
    Trail,
    dump_nogoods,
    unit_propagate,
)

from .helpers import sl
from .oracles import propagate_naive


def build_store(nogoods):
    store = NogoodStore()
    for ng in nogoods:
        store.add(ng)
    return store


def test_three_nogood_chain_propagates_in_order():
    # seed T a4; two binary nogoods fire first, then the long one
    nogoods = [
        [sl("a1", True), sl("a2", False), sl("a3", True), sl("a4", True)],
        [sl("a1", False), sl("a4", True)],
        [sl("a3", False), sl("a4", True)],
    ]
    store = build_store(nogoods)
    trail = Trail(store)
    trail.assign(store.code(sl("a4", True)), None)
    assert unit_propagate(store, trail) is None
    assert trail.assignment() == [
        sl("a4", True),
        sl("a1", True),
        sl("a3", True),
        sl("a2", True),
    ]


def test_empty_store_leaves_trail_unchanged():
    store = NogoodStore()
    trail = Trail(store)
    assert unit_propagate(store, trail) is None
    assert trail.assignment() == []


def test_contained_nogood_is_a_conflict():
    store = build_store([[sl("a", True)]])
    trail = Trail(store)
    trail.assign(store.code(sl("a", True)), None)
    assert unit_propagate(store, trail) is not None


def test_unit_nogood_applies_at_root():
    store = build_store([[sl("x", False)]])
    trail = Trail(store)
    assert unit_propagate(store, trail) is None
    assert trail.assignment() == [sl("x", True)]


def test_binary_chain():
    store = build_store([
        [sl("a", False)],
        [sl("a", True), sl("b", False)],
        [sl("b", True), sl("c", False)],
    ])
    trail = Trail(store)
    assert unit_propagate(store, trail) is None
    assert trail.assignment() == [sl("a", True), sl("b", True), sl("c", True)]


def test_conflict_reports_offending_nogood():
    store = build_store([
        [sl("a", False)],
        [sl("b", False)],
        [sl("a", True), sl("b", True)],
    ])
    trail = Trail(store)
    conflict = unit_propagate(store, trail)
    assert conflict is not None
    lits = {store.literal(c) for c in store.nogoods[conflict].lits}
    assert lits == {sl("a", True), sl("b", True)}


def test_duplicate_static_nogoods_are_collapsed():
    store = NogoodStore()
    a = store.add([sl("a", True), sl("b", False)])
    b = store.add([sl("b", False), sl("a", True)])
    assert a == b
    assert len(store) == 1


def test_backjump_pops_levels_and_resets_queue():
    store = build_store([[sl("a", True), sl("b", True)]])
    store.intern("c")
    trail = Trail(store)
    trail.decide(store.code(sl("a", True)))
    assert unit_propagate(store, trail) is None
    assert trail.holds(store.code(sl("b", False)))
    trail.decide(store.code(sl("c", True)))
    assert trail.level == 2
    popped = trail.backjump(0)
    assert trail.level == 0
    assert trail.assignment() == []
    assert len(popped) == 3


def test_decision_levels_recorded():
    store = build_store([
        [sl("a", True), sl("b", True)],
        [sl("c", True), sl("d", True)],
    ])
    trail = Trail(store)
    trail.decide(store.code(sl("a", True)))
    assert unit_propagate(store, trail) is None
    trail.decide(store.code(sl("c", True)))
    assert unit_propagate(store, trail) is None
    lvl = lambda name, t: trail.level_of[store.index_of(name)]
    assert lvl("a", True) == 1 and lvl("b", False) == 1
    assert lvl("c", True) == 2 and lvl("d", False) == 2


def test_naive_scanner_statuses():
    nogoods = [[sl("a", False)], [sl("a", True), sl("b", False)]]
    order, status = propagate_naive(nogoods, [])
    assert status == "success"
    assert order == [sl("a", True), sl("b", True)]

    order, status = propagate_naive([[sl("a", True)]], [sl("a", True)])
    assert status == "conflict"


def test_watched_matches_naive_on_random_stores():
    rng = random.Random("prop")
    for trial in range(2000):
        n_ent = rng.randint(1, 12)
        ents = [f"x{i}" for i in range(n_ent)]
        raw = []
        for _ in range(rng.randint(1, 20)):
            size = rng.randint(1, min(5, n_ent))
            raw.append(
                [sl(e, rng.random() < 0.5) for e in rng.sample(ents, size)]
            )
        store = build_store(raw)
        trail = Trail(store)
        conflict = unit_propagate(store, trail)
        order, status = propagate_naive(raw, [])
        assert (conflict is None) == (status == "success"), trial
        if conflict is None:
            assert set(trail.assignment()) == set(order), trial


def test_propagation_is_monotone():
    # extending the seed can only grow the fixpoint or turn it into conflict
    rng = random.Random("monotone")
    for trial in range(300):
        n_ent = rng.randint(2, 8)
        ents = [f"x{i}" for i in range(n_ent)]
        raw = [
            [
                sl(e, rng.random() < 0.5)
                for e in rng.sample(ents, rng.randint(1, min(3, n_ent)))
            ]
            for _ in range(rng.randint(1, 10))
        ]
        seed = sl(rng.choice(ents), rng.random() < 0.5)
        base_order, base_status = propagate_naive(raw, [])
        ext_order, ext_status = propagate_naive(raw, [seed])
        if base_status == "success" and ext_status == "success":
            base = set(base_order)
            ext = set(ext_order) | {seed}
            conflicting = {l.complement for l in ext}
            assert base <= ext or base & conflicting, trial


def test_dump_nogoods_format():
    store = build_store([
        [sl("b", False), sl("a", True)],
        [sl("c", True)],
    ])
    text = dump_nogoods(store)
    # literals come out in entity-intern order: b was seen first
    assert text.splitlines() == ["F b, T a", "T c"]


def test_dump_nogoods_writes_cardinality_constraints():
    store = build_store([[sl("a", True), sl("b", True)]])
    codes = [store.code(sl(name, truth)) for name, truth in (("c", True), ("a", False), ("b", True))]
    assert store.add_cardinality(2, codes) == ~0
    store.add_cardinality(1, [store.code(sl("d", True))])  # a unit nogood
    assert store.add_cardinality(4, codes) is None  # vacuous
    assert dump_nogoods(store).splitlines() == [
        "T a, T b",
        "T d",
        ":- 2 {F a; T b; T c}",
    ]
