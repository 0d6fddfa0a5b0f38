"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import random

from cspasp import (
    Atom,
    CardinalityRule,
    ChoiceRule,
    GroundProgram,
    IntegrityRule,
    Lit,
    NormalRule,
    SignedLiteral,
    completion_nogoods,
    enumerate_models,
)


def true_atoms(model) -> frozenset:
    """Project a solver model (signed-literal list) onto its true atoms."""
    return frozenset(lit.entity for lit in model if lit.truth and isinstance(lit.entity, Atom))


def store_answer_sets(program) -> set[frozenset]:
    """All answer sets of a (cardinality-free) program via the solver."""
    store = completion_nogoods(program)
    models, _, status = enumerate_models(store)
    assert status == "UNSAT", "enumeration must exhaust the space"
    return {true_atoms(m) for m in models}


def random_tight_program(rng: random.Random, n_atoms: int = 5) -> GroundProgram:
    """A random tight program over a0..a{n-1}.

    Tightness is forced by only allowing positive body atoms with a
    strictly smaller index than the head.
    """
    atoms = [Atom("a", (i,)) for i in range(n_atoms)]
    rules = []
    if rng.random() < 0.8:
        heads = rng.sample(atoms, rng.randint(1, n_atoms))
        rules.append(ChoiceRule(tuple(heads)))
    for _ in range(rng.randint(1, 6)):
        shape = rng.random()
        if shape < 0.6:
            head_idx = rng.randrange(n_atoms)
            body = []
            for b_idx in rng.sample(range(n_atoms), rng.randint(0, min(3, n_atoms))):
                if b_idx < head_idx:
                    body.append(Lit(atoms[b_idx], rng.random() < 0.6))
                elif b_idx != head_idx:
                    body.append(Lit(atoms[b_idx], False))
            rules.append(NormalRule(atoms[head_idx], tuple(body)))
        else:
            chosen = rng.sample(atoms, rng.randint(1, min(3, n_atoms)))
            body = tuple(Lit(a, rng.random() < 0.5) for a in chosen)
            rules.append(IntegrityRule(body))
    return GroundProgram(tuple(rules))


def random_cardinality_rule(rng: random.Random, atoms) -> CardinalityRule:
    """``:- k {...}`` over a random subset of ``atoms``, mixed polarities.

    About one rule in four holds an atom together with its negation; k
    ranges over 1..n, so k = 1 and k = n both occur.
    """
    chosen = rng.sample(atoms, rng.randint(1, min(4, len(atoms))))
    lits = [Lit(a, rng.random() < 0.5) for a in chosen]
    if rng.random() < 0.25:
        lits.append(Lit(lits[0].atom, not lits[0].positive))
    rng.shuffle(lits)
    return CardinalityRule(rng.randint(1, len(lits)), tuple(lits))


def check_trail(store, trail) -> None:
    """Every literal on the trail is assigned once and explained soundly.

    A literal with a reason must be the complement of one of the reason's
    literals, and every other literal of the reason must hold and sit
    earlier on the trail; a cardinality reason must also show bound-1
    literals that hold.
    """
    seen = set()
    for pos, code in enumerate(trail.codes):
        idx = code >> 1
        assert idx not in seen, f"entity {store.entities[idx]!r} assigned twice"
        seen.add(idx)
        assert trail.holds(code) and trail.pos_of[idx] == pos
        reason = trail.reason_of[idx]
        if reason is None:
            continue
        lits = store.lits_of(reason, trail, code)
        assert code ^ 1 in lits
        for c in lits:
            if c != code ^ 1:
                assert trail.holds(c) and trail.pos_of[c >> 1] < pos, (code, reason, lits)
        if reason < 0:
            assert len(lits) >= store.cardinalities[~reason].bound



def check_watches(store) -> None:
    """Each nogood of two or more codes is watched on its first two,
    exactly once each, and its skip key is those two codes xor-ed and
    xor 1."""
    want = [[] for _ in store.watches]
    for ng_id, ng in enumerate(store.nogoods):
        if len(ng.lits) > 1:
            want[ng.lits[0]].append(ng_id)
            want[ng.lits[1]].append(ng_id)
            assert store.skip[ng_id] == ng.lits[0] ^ ng.lits[1] ^ 1
    assert [sorted(wl) for wl in store.watches] == want

def all_subsets(atoms):
    for r in range(len(atoms) + 1):
        yield from (frozenset(c) for c in itertools.combinations(atoms, r))


def sl(entity, truth: bool) -> SignedLiteral:
    return SignedLiteral(entity, truth)
