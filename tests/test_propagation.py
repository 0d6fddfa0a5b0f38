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

from .helpers import check_trail, check_watches, sl
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


def test_a_repeated_static_nogood_is_installed_verbatim():
    # dropping repeats is completion's job; the store installs what it is given
    store = NogoodStore()
    a = store.add([sl("a", True), sl("b", False)])
    b = store.add([sl("b", False), sl("a", True)])
    assert (a, b) == (0, 1)
    assert store.nogoods[a].lits == store.nogoods[b].lits
    assert len(store) == store.n_static == 2
    check_watches(store)


def test_the_store_keeps_the_code_list_it_is_given():
    store = NogoodStore()
    store.intern("a")
    store.intern("b")
    for learned in (False, True):
        codes = [2, 1]
        i = store.add_codes(codes, learned)
        assert store.nogoods[i].lits is codes
        assert store.nogoods[i].learned is learned


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


def check_views(store, trail):
    """``lit``, the derived ``values``, ``holds`` and ``falsified`` agree
    with each other and with the codes on the trail."""
    lit = trail.lit
    assert len(lit) == 2 * store.n_entities and len(trail.values) == store.n_entities
    assert {c for c in range(len(lit)) if lit[c]} == set(trail.codes)
    for idx in range(store.n_entities):
        t, f = 2 * idx, 2 * idx + 1
        assert lit[t] + lit[f] <= 1
        assert trail.values[idx] == (1 if lit[t] else 2 if lit[f] else 0)
        assert trail.holds(t) == trail.falsified(f) == (lit[t] == 1)
        assert trail.holds(f) == trail.falsified(t) == (lit[f] == 1)


def test_trail_views_agree_over_random_assign_and_backjump():
    rng = random.Random("views")
    for trial in range(300):
        ents = [f"x{i}" for i in range(rng.randint(1, 10))]
        store = build_store(
            [sl(e, rng.random() < 0.5) for e in rng.sample(ents, rng.randint(1, min(4, len(ents))))]
            for _ in range(rng.randint(0, 15))
        )
        for e in ents:
            store.intern(e)
        trail = Trail(store)
        for _ in range(20):
            op = rng.random()
            free = [i for i in range(store.n_entities) if trail.values[i] == 0]
            if op < 0.4 and free:
                code = 2 * rng.choice(free) + rng.randint(0, 1)
                if rng.random() < 0.5:
                    trail.decide(code)
                else:
                    trail.assign(code, None)
                with pytest.raises(ValueError, match="already assigned"):
                    trail.assign(code ^ 1, None)
            elif op < 0.7:
                if unit_propagate(store, trail) is not None and trail.level > 0:
                    trail.backjump(rng.randrange(trail.level))
            else:
                trail.backjump(rng.randint(0, trail.level))
            check_views(store, trail)
            check_watches(store)
        # no bit of lit survives above the root
        trail.backjump(0)
        check_views(store, trail)
        assert all(trail.level_of[c >> 1] == 0 for c in trail.codes)


def test_deleting_a_static_nogood_is_refused_and_changes_nothing():
    store = NogoodStore()
    static = store.add([sl("a", True), sl("b", True)])
    learned = store.add([sl("a", False), sl("b", False), sl("c", True)], learned=True)
    before = list(store.nogoods)
    with pytest.raises(ValueError, match="permanent"):
        store.delete([learned, static], Trail(store))
    assert store.nogoods == before
    check_watches(store)


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
    lvl = lambda name, t: trail.level_of[store.code(sl(name, t)) >> 1]
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
    with pytest.raises(ValueError, match="at least 2"):
        # k = 1 is a unit nogood per literal, which completion installs
        store.add_cardinality(1, [store.code(sl("d", True))])
    assert store.add_cardinality(4, codes) is None  # vacuous
    assert dump_nogoods(store).splitlines() == [
        "T a, T b",
        ":- 2 {F a; T b; T c}",
    ]


def closure(store, seeds):
    """Propagate ``store`` at the root, then from ``seeds`` at level 1:
    the assigned literals as a set and level 1's in trail order, or
    "conflict"."""
    trail = Trail(store)
    if unit_propagate(store, trail) is not None:
        return "conflict"
    trail.new_level()
    for lit in seeds:
        code = store.code(lit)
        if trail.falsified(code):
            return "conflict"
        if not trail.holds(code):
            trail.assign(code, None)
    if unit_propagate(store, trail) is not None:
        return "conflict"
    check_trail(store, trail)
    above = trail.codes[trail.level_starts[1]:]
    return set(trail.assignment()), [store.literal(c) for c in above]


def check_card_watches(store):
    """Each cardinality constraint is watched once on each distinct code."""
    want = [[] for _ in store.card_watches]
    for j, (_, lits) in enumerate(store.cardinalities):
        for c in sorted(set(lits)):
            want[c].append(j)
    assert store.card_watches == want


def test_folding_the_root_fixpoint_keeps_every_closure():
    # each random store is built twice and one copy folded at its root
    # fixpoint; from random seeds both reach the same closure in the same
    # order, each literal with a sound reason, and with no cardinality
    # constraint the naive scanner reaches it too
    rng = random.Random("fold")
    folds = dropped = stripped = cards_changed = 0
    for trial in range(600):
        ents = [f"x{i}" for i in range(rng.randint(2, 9))]

        def draw(most):
            size = rng.randint(1, min(most, len(ents)))
            return [sl(e, rng.random() < 0.5) for e in rng.sample(ents, size)]

        raw = [draw(4) for _ in range(rng.randint(1, 12))]
        raw += [[sl(e, rng.random() < 0.5)] for e in rng.sample(ents, rng.randint(1, 2))]
        cards = []
        if trial % 2:
            for _ in range(rng.randint(1, 4)):
                lits = draw(5)
                if len(lits) >= 2:
                    cards.append((rng.randint(2, len(lits)), lits))

        def build():
            store = build_store(raw)
            for e in ents:
                store.intern(e)
            for k, lits in cards:
                store.add_cardinality(k, [store.code(lit) for lit in lits])
            return store

        plain, folded = build(), build()
        trail = Trail(folded)
        if unit_propagate(folded, trail) is not None:
            continue
        before = dump_nogoods(folded)
        folded.fold_root(trail)
        folds += 1
        multi = [ng for ng in plain.nogoods if len(ng.lits) > 1]
        dropped += sum(len(ng.lits) > 1 for ng in folded.nogoods) < len(multi)
        new_lines = set(dump_nogoods(folded).splitlines()) - set(before.splitlines())
        stripped += any(", " in line and " {" not in line for line in new_lines)
        cards_changed += folded.cardinalities != plain.cardinalities
        assert len(folded.units) == folded.n_static - sum(
            len(ng.lits) > 1 for ng in folded.nogoods) == len(trail.codes)
        assert [folded.literal(folded.nogoods[i].lits[0] ^ 1) for i in folded.units] \
            == trail.assignment()
        assert folded.n_entities == plain.n_entities
        assert len(set(folded.cardinalities)) == len(folded.cardinalities)
        check_watches(folded)
        check_card_watches(folded)
        for _ in range(6):
            picked = rng.sample(ents, rng.randint(0, min(3, len(ents))))
            seeds = [sl(e, rng.random() < 0.5) for e in picked]
            got = closure(folded, seeds)
            assert got == closure(plain, seeds), (trial, seeds)
            if not cards:
                order, status = propagate_naive(raw, seeds)
                assert (got if got == "conflict" else got[0]) == (
                    "conflict" if status == "conflict" else set(order)), trial
    # every part of the fold was in play
    assert min(folds, dropped, stripped, cards_changed) >= 100, (folds, dropped, stripped,
                                                                cards_changed)


def test_compaction_keeps_every_list_in_order():
    # the root fold and a deletion each leave every watch list holding the
    # nogoods it held before that survive, in the same order; after the
    # deletion ``units`` and the trail's reasons name the nogoods they did
    def watched(store):
        return [[store.nogoods[i] for i in wl] for wl in store.watches]

    def expect(lists, store):
        """``lists`` cut to the nogoods still in ``store``, and whether one
        of them is out of id order."""
        alive = set(map(id, store.nogoods))
        want = [[ng for ng in wl if id(ng) in alive] for wl in lists]
        ids = {id(ng): i for i, ng in enumerate(store.nogoods)}
        return want, any(sorted(wl, key=lambda ng: ids[id(ng)]) != wl for wl in want)

    rng = random.Random("compact")
    folds = deletes = 0
    unordered_after = [0, 0]  # folds, deletions that left a list out of id order
    for trial in range(300):
        ents = [f"x{i}" for i in range(rng.randint(4, 9))]

        def draw(least, most):
            size = rng.randint(least, min(most, len(ents)))
            return [sl(e, rng.random() < 0.5) for e in rng.sample(ents, size)]

        def decide_some(store, trail):
            # decisions above the root move watches off id order
            trail.new_level()
            for lit in draw(0, 3):
                code = store.code(lit)
                if not (trail.holds(code) or trail.falsified(code)):
                    trail.assign(code, None)
            return unit_propagate(store, trail)

        store = build_store([draw(2, 4) for _ in range(rng.randint(6, 20))] + [draw(1, 1)])
        for e in ents:
            store.intern(e)
        trail = Trail(store)
        if unit_propagate(store, trail) is not None:
            continue
        for _ in range(3):
            decide_some(store, trail)
            trail.backjump(0)
        if trail.codes:
            before = watched(store)
            store.fold_root(trail)
            want, unordered = expect(before, store)
            assert watched(store) == want, trial
            assert store.units == list(range(len(trail.codes)))
            check_watches(store)
            folds += 1
            unordered_after[0] += unordered

        for _ in range(rng.randint(4, 12)):
            store.add(draw(1, 4), learned=True)
        trail = Trail(store)
        if unit_propagate(store, trail) is not None:
            continue
        decide_some(store, trail)
        reasons = {c: store.nogoods[r] for c in trail.codes
                   if (r := trail.reason_of[c >> 1]) is not None and r >= 0}
        locked = set(map(id, reasons.values()))
        victims = [i for i, ng in enumerate(store.nogoods)
                   if ng.learned and len(ng.lits) > 1 and id(ng) not in locked
                   and rng.random() < 0.6]
        if not victims:
            continue
        before = watched(store)
        units = [store.nogoods[i] for i in store.units]
        store.delete(victims, trail)
        want, unordered = expect(before, store)
        assert watched(store) == want, trial
        assert [store.nogoods[i] for i in store.units] == units
        assert {c: store.nogoods[trail.reason_of[c >> 1]] for c in reasons} == reasons
        check_watches(store)
        check_trail(store, trail)
        deletes += 1
        unordered_after[1] += unordered
    assert min(folds, deletes, *unordered_after) >= 50, (folds, deletes, unordered_after)
