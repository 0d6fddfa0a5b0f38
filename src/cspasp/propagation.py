"""Nogood stores, trails, and two-watched unit propagation.

This layer is deliberately agnostic about what it assigns: entities are
arbitrary hashable objects (atoms, rule bodies, plain test strings).
The hot loops run on integer literal codes -- ``2*index`` for "entity is
true", ``2*index + 1`` for "entity is false" -- and never touch the
entity objects themselves.

The assignment is one byte per literal code, ``Trail.lit``: ``lit[c]``
is 1 iff code c holds, so c is falsified iff ``lit[c ^ 1]`` and a count
of the codes that hold is ``sum(map(lit.__getitem__, codes))``.  The
per-entity ``Trail.values`` is a read-only view derived from it.

Each nogood also has a skip key, ``NogoodStore.skip[id]``: its two
watched codes xor-ed together and with 1.  When watched code ``sigma``
comes to hold, ``skip[id] ^ sigma`` is the complement of the other
watch, so a visit that finds the other watch falsified -- most visits --
is one byte test and never reads the ``Nogood`` object.  A watch list is
compacted only when one of its watches moved.

Besides nogoods the store holds cardinality constraints ``:- k {l1..ln}``
(fewer than k of the literals may hold), propagated by counting rather
than through a clausal expansion.  Their ids are ``~j`` for the j-th
constraint, so every id below zero names a cardinality constraint, and
their reasons are built on demand by ``NogoodStore.lits_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple


class SignedLiteral(NamedTuple):
    """``T entity`` or ``F entity``."""

    entity: Any
    truth: bool

    @property
    def complement(self) -> "SignedLiteral":
        return SignedLiteral(self.entity, not self.truth)

    def __str__(self) -> str:
        return ("T " if self.truth else "F ") + str(self.entity)


@dataclass(frozen=True, slots=True)
class BodyId:
    """Stand-in entity for a rule body; bodies are first-class here."""

    index: int

    def __repr__(self) -> str:
        return f"body#{self.index}"


class Nogood:
    """A list of literal codes; positions 0 and 1 are the watches."""

    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: list[int], learned: bool):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0

    def __repr__(self):  # debugging aid only
        return "Nogood(%r%s)" % (self.lits, ", learned" if self.learned else "")


class Cardinality(NamedTuple):
    """``:- bound {lits}``: fewer than ``bound`` of the literal codes may
    hold, a repeated code counted once per occurrence."""

    bound: int
    lits: tuple[int, ...]


class NogoodStore:
    """Nogoods over interned entities, two watched literals per nogood.

    One method, ``add_codes``, installs every nogood: completion's,
    the search's learned ones and the blocking nogoods of model
    enumeration.  Every nogood not learned is static, blocking nogoods
    included.  Each is installed verbatim, repeats too, so the caller
    controls watch order (position 0 should be the literal that is unit
    under the current assignment); completion drops its own repeats.
    Cardinality constraints sit beside the nogoods, watched on every
    literal; ``nogoods`` and ``n_static`` count nogoods only.

    ``fold_root`` folds a root fixpoint into a store that completion
    has built, leaving one unit nogood per fixed entity; it and
    ``delete`` remove nogoods through one routine, ``_compact``.

    ``aliases`` maps an entity that has no index of its own to the code
    of the literal it equals (completion substitutes such atoms).
    ``code`` resolves them and ``Trail.assignment`` lists them, so a
    caller that names entities through those two never sees the
    difference.
    """

    def __init__(self):
        self.entities: list[Any] = []
        self._index: dict[Any, int] = {}
        self.aliases: dict[Any, int] = {}  # entity -> the code of "T entity"
        self.nogoods: list[Nogood] = []
        self.skip: list[int] = []  # per nogood: lits[0] ^ lits[1] ^ 1
        self.units: list[int] = []  # ids of size-1 nogoods, never watched
        # indexed by literal code, grown in intern
        self.watches: list[list[int]] = []
        self.n_static = 0
        self.cardinalities: list[Cardinality] = []
        self.card_watches: list[list[int]] = []

    # -- entities and codes ------------------------------------------------

    def intern(self, entity) -> int:
        idx = self._index.get(entity)
        if idx is None:
            idx = len(self.entities)
            self._index[entity] = idx
            self.entities.append(entity)
            self.watches += [], []
            self.card_watches += [], []
        return idx

    def code(self, lit: SignedLiteral) -> int:
        """The literal's code; an alias's is that of the literal it
        equals, and an entity not yet seen is interned."""
        base = self.aliases.get(lit.entity)
        if base is None:
            base = 2 * self.intern(lit.entity)
        return base if lit.truth else base ^ 1

    def literal(self, code: int) -> SignedLiteral:
        return SignedLiteral(self.entities[code >> 1], not (code & 1))

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    def __len__(self) -> int:
        return len(self.nogoods)

    # -- nogood installation -----------------------------------------------

    def add(self, literals: Iterable[SignedLiteral], *, learned: bool = False) -> int:
        """Intern a nogood given as signed literals; returns its id.

        Literals are deduplicated and sorted by code, which keeps the
        store deterministic no matter how callers ordered them.
        """
        return self.add_codes(sorted({self.code(lit) for lit in literals}), learned)

    def add_codes(self, codes: list[int], learned: bool) -> int:
        """Install a nogood from raw codes, in watch order; returns its id.

        The store keeps ``codes`` itself, so the caller hands over a list
        of its own, and a repeat gets a new id.
        """
        if not codes:
            raise ValueError("empty nogood: the problem is trivially inconsistent")
        ng_id = len(self.nogoods)
        if not learned:
            self.n_static += 1
        self.nogoods.append(Nogood(codes, learned))
        if len(codes) == 1:
            self.units.append(ng_id)
            self.skip.append(0)  # never watched, never read
        else:
            self.skip.append(codes[0] ^ codes[1] ^ 1)
            self.watches[codes[0]].append(ng_id)
            self.watches[codes[1]].append(ng_id)
        return ng_id

    def add_cardinality(self, k: int, codes) -> int | None:
        """Install ``:- k {codes}``, k at least 2; returns its id ``~j``.

        A repeated code counts once per occurrence, as the same literal
        written twice would: ``:- 2 {a; b}`` with b an alias of a fires
        when a holds.  A constraint with k = 1 is one unit nogood per
        literal, which the caller installs as such.  One with k above the
        number of codes can never be violated, and returns None.
        """
        lits = tuple(sorted(codes))
        if k > len(lits):
            return None
        if k < 2:
            raise ValueError("cardinality bound must be at least 2")
        j = len(self.cardinalities)
        self.cardinalities.append(Cardinality(k, lits))
        for c in set(lits):
            self.card_watches[c].append(j)
        return ~j

    def fold_root(self, trail: Trail) -> None:
        """Fold ``trail``, this store's conflict-free root fixpoint, into
        the store in place; the store must hold no learned nogood.

        Each code on the trail becomes one unit nogood, in trail order.  A
        nogood with a falsified literal can never fire and is dropped; the
        others lose the literals that hold, and keep their watches, both
        unassigned at a fixpoint.  A cardinality constraint loses its
        assigned literals and its bound drops by those that hold;
        ``add_cardinality`` then reinstalls each distinct one, and drops
        those whose bound exceeds what is left.  ``_compact`` renumbers
        the rest, so propagation above the root runs as it did before the
        fold.  Entities and aliases are untouched.
        """
        held = set(trail.codes)
        false = {c ^ 1 for c in trail.codes}
        nogoods = self.nogoods
        kept = [i for i, ng in enumerate(nogoods) if false.isdisjoint(ng.lits)]
        for i in kept:
            lits = nogoods[i].lits
            if not held.isdisjoint(lits):
                lits[:] = [c for c in lits if c not in held]
        watches = self.watches
        for c in trail.codes:
            watches[c].clear()  # a nogood that watches an assigned literal is dropped
            watches[c ^ 1].clear()
        self._compact(kept, [c ^ 1 for c in trail.codes])
        self.n_static = len(nogoods)

        assigned = held | false
        cards = []
        for bound, lits in self.cardinalities:
            if not assigned.isdisjoint(lits):
                bound -= sum(map(held.__contains__, lits))
                lits = tuple(c for c in lits if c not in assigned)
            cards.append((bound, lits))
        self.cardinalities.clear()
        for wl in self.card_watches:
            if wl:
                wl.clear()
        for bound, lits in dict.fromkeys(cards):
            self.add_cardinality(bound, lits)

    def lits_of(self, ng_id: int, trail: Trail, implied: int | None = None) -> list[int]:
        """The literal codes of nogood or cardinality id ``ng_id``.

        A nogood gives its stored literals.  A cardinality constraint
        gives the nogood it stands for on ``trail``: as the reason for the
        trail code ``implied``, the literals that hold earlier on the
        trail plus ``implied ^ 1``; as a conflict (``implied`` None), the
        literals that hold.
        """
        if ng_id >= 0:
            return self.nogoods[ng_id].lits
        held = list(filter(trail.lit.__getitem__, self.cardinalities[~ng_id].lits))
        if implied is None:
            return held
        pos_of = trail.pos_of
        before = pos_of[implied >> 1]
        return [implied ^ 1] + [c for c in held if pos_of[c >> 1] < before]

    def delete(self, ng_ids: Iterable[int], trail: Trail) -> None:
        """Delete learned nogoods, none a unit or a reason on ``trail``;
        ``_compact`` renumbers the rest, and the reasons of the codes on
        ``trail`` follow."""
        gone = set(ng_ids)
        nogoods = self.nogoods
        if not all(nogoods[i].learned for i in gone):
            raise ValueError("static nogoods are permanent")
        new_id = self._compact([i for i in range(len(nogoods)) if i not in gone], [])
        reason_of = trail.reason_of
        for c in trail.codes:
            r = reason_of[c >> 1]
            if r is not None and r >= 0:
                reason_of[c >> 1] = new_id[r]

    def _compact(self, kept: list[int], unit_codes: list[int]) -> list[int]:
        """Make the nogoods a static unit per code of ``unit_codes``, then
        those of the ascending ids ``kept``; renumber ``skip``, ``units`` and
        each watch list in order.  Returns old id -> new id, -1 if dropped."""
        nogoods = self.nogoods
        n = len(unit_codes)
        new_id = [-1] * len(nogoods)
        for j, i in enumerate(kept, n):
            new_id[i] = j
        nogoods[:] = [Nogood([c], False) for c in unit_codes] + [nogoods[i] for i in kept]
        self.skip[:] = [0] * n + [self.skip[i] for i in kept]
        self.units[:] = [*range(n), *(j for j in map(new_id.__getitem__, self.units) if j >= 0)]
        for wl in self.watches:
            if wl:
                wl[:] = [j for j in map(new_id.__getitem__, wl) if j >= 0]
        return new_id


class EntityValues:
    """Read-only per-entity view of a trail's literal array: ``values[i]``
    is 0 (unassigned), 1 (true) or 2 (false) for entity index ``i``."""

    __slots__ = ("_lit",)

    def __init__(self, lit: bytearray):
        self._lit = lit

    def __len__(self) -> int:
        return len(self._lit) >> 1

    def __getitem__(self, idx: int) -> int:
        lit = self._lit
        return lit[2 * idx] | lit[2 * idx + 1] << 1


class Trail:
    """Assignment sequence with decision levels and reasons.

    ``lit`` holds the assignment, one byte per literal code, and is the
    only assignment state; ``values`` reads it per entity.  The other
    per-entity arrays are flat lists so the propagation loop stays cheap.
    ``reason_of`` holds the id (a nogood's, or ``~j`` for a cardinality
    constraint) that implied an entity, or None for decisions and
    externally seeded literals.
    """

    def __init__(self, store: NogoodStore):
        n = store.n_entities
        self.store = store
        self.lit = bytearray(2 * n)
        self.values = EntityValues(self.lit)
        self.level_of = [0] * n
        self.reason_of: list[int | None] = [None] * n
        self.pos_of = [0] * n
        self.codes: list[int] = []
        self.level_starts = [0]  # codes offset where each level begins
        self.head = 0  # propagation queue position
        self.units_seen = 0  # prefix of store.units already applied

    @property
    def level(self) -> int:
        return len(self.level_starts) - 1

    def holds(self, code: int) -> bool:
        return self.lit[code] == 1

    def falsified(self, code: int) -> bool:
        return self.lit[code ^ 1] == 1

    def assign(self, code: int, reason: int | None) -> None:
        """Append a literal; the entity must be unassigned."""
        lit = self.lit
        if lit[code] or lit[code ^ 1]:
            raise ValueError(f"entity {self.store.entities[code >> 1]!r} already assigned")
        lit[code] = 1
        idx = code >> 1
        self.level_of[idx] = len(self.level_starts) - 1
        self.reason_of[idx] = reason
        self.pos_of[idx] = len(self.codes)
        self.codes.append(code)

    def new_level(self) -> None:
        """Open a decision level; the next assignment starts it."""
        self.level_starts.append(len(self.codes))

    def decide(self, code: int) -> None:
        self.new_level()
        self.assign(code, None)

    def backjump(self, level: int) -> list[int]:
        """Pop every assignment above ``level``; returns the popped codes."""
        cut = self.level_starts[level + 1] if level < self.level else len(self.codes)
        popped = self.codes[cut:]
        lit = self.lit
        for code in popped:
            lit[code] = 0
        del self.codes[cut:]
        del self.level_starts[level + 1:]
        if self.head > cut:
            self.head = cut
        return popped

    def assignment(self) -> list[SignedLiteral]:
        """The current assignment as signed literals, in trail order, then
        each assigned alias with the value of its literal."""
        literal = self.store.literal
        out = [literal(c) for c in self.codes]
        lit = self.lit
        for entity, code in self.store.aliases.items():
            if lit[code] or lit[code ^ 1]:
                out.append(SignedLiteral(entity, lit[code] == 1))
        return out


def unit_propagate(store: NogoodStore, trail: Trail) -> int | None:
    """Run two-watched unit propagation to fixpoint.

    Returns the id of a violated nogood or cardinality constraint, or
    None on success.  Implied literals are appended to the trail with
    their reason recorded.  Pending unit nogoods are applied first
    whenever the trail is at the root level.

    A cardinality constraint is visited each time one of its literals
    comes to hold: it counts the literals that hold, reports a conflict
    at k of them and, at k-1, forces every unassigned literal false.
    """
    nogoods = store.nogoods
    skip = store.skip
    watches = store.watches
    cards = store.cardinalities
    card_watches = store.card_watches
    lit = trail.lit
    held = lit.__getitem__
    level_of = trail.level_of
    reason_of = trail.reason_of
    pos_of = trail.pos_of
    codes = trail.codes
    level = len(trail.level_starts) - 1

    if trail.units_seen < len(store.units) and level == 0:
        for ng_id in store.units[trail.units_seen:]:
            c = nogoods[ng_id].lits[0]
            if lit[c]:
                return ng_id
            if not lit[c ^ 1]:
                trail.assign(c ^ 1, ng_id)
        trail.units_seen = len(store.units)

    # implied literals are appended inline (as Trail.assign would, without
    # its check): each entity was just read as unassigned
    head = trail.head
    while head < len(codes):
        sigma = codes[head]
        head += 1
        for j in card_watches[sigma]:
            bound, lits = cards[j]
            n_held = sum(map(held, lits))
            if n_held < bound - 1:
                continue
            if n_held >= bound:
                trail.head = head
                return ~j
            for c in lits:
                # re-read: forcing "a" false makes a "not a" of the
                # same constraint hold, and the next visit counts it
                if not (lit[c] or lit[c ^ 1]):
                    idx = c >> 1
                    lit[c ^ 1] = 1
                    level_of[idx] = level
                    reason_of[idx] = ~j
                    pos_of[idx] = len(codes)
                    codes.append(c ^ 1)
        wl = watches[sigma]
        moved = []  # ids whose watch moved off sigma, dropped from wl below
        for ng_id in wl:
            if lit[skip[ng_id] ^ sigma]:
                continue  # the other watch is falsified: nogood cannot fire
            lits = nogoods[ng_id].lits
            w = lits[0] != sigma  # position of sigma among the watches
            other = lits[1 - w]
            for k in range(2, len(lits)):
                c = lits[k]
                if not lit[c]:
                    # c does not hold: watch it instead of sigma
                    lits[w] = c
                    lits[k] = sigma
                    skip[ng_id] = c ^ other ^ 1
                    watches[c].append(ng_id)
                    moved.append(ng_id)
                    break
            else:
                # no replacement watch: the nogood is unit or violated
                if lit[other]:
                    # every literal holds: violation
                    if moved:
                        _drop(wl, set(moved))
                    trail.head = head
                    return ng_id
                idx = other >> 1
                lit[other ^ 1] = 1
                level_of[idx] = level
                reason_of[idx] = ng_id
                pos_of[idx] = len(codes)
                codes.append(other ^ 1)
        if moved:
            _drop(wl, set(moved))
    trail.head = head
    return None


def _drop(wl: list[int], gone: set[int]) -> None:
    """Remove the ids in ``gone`` from watch list ``wl``, keeping the
    others' order."""
    wl[:] = [ng_id for ng_id in wl if ng_id not in gone]


def dump_nogoods(store: NogoodStore) -> str:
    """Text dump: one nogood per line, literals in code order, then one
    ``:- k {l1; ...; ln}`` line per cardinality constraint, then one
    ``a = T b`` or ``a = F b`` line per alias."""
    lines = [", ".join(str(store.literal(c)) for c in sorted(ng.lits)) for ng in store.nogoods]
    for bound, lits in store.cardinalities:
        names = "; ".join(str(store.literal(c)) for c in lits)
        lines.append(f":- {bound} {{{names}}}")
    lines += [f"{entity} = {store.literal(code)}" for entity, code in store.aliases.items()]
    return "\n".join(lines) + ("\n" if lines else "")
