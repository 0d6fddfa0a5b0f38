"""Nogood stores, trails, and two-watched unit propagation.

This layer is deliberately agnostic about what it assigns: entities are
arbitrary hashable objects (atoms, rule bodies, plain test strings).
The hot loops run on integer literal codes -- ``2*index`` for "entity is
true", ``2*index + 1`` for "entity is false" -- and never touch the
entity objects themselves.

Besides nogoods the store holds cardinality constraints ``:- k {l1..ln}``
(fewer than k of the literals may hold), propagated by counting rather
than through a clausal expansion.  Their ids are ``~j`` for the j-th
constraint, so every id below zero names a cardinality constraint, and
their reasons are built on demand by ``NogoodStore.lits_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

UNASSIGNED, TRUE, FALSE = 0, 1, 2


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

    __slots__ = ("lits", "learned", "activity", "deleted")

    def __init__(self, lits: list[int], learned: bool):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0
        self.deleted = False

    def __repr__(self):  # debugging aid only
        return "Nogood(%r%s)" % (self.lits, ", learned" if self.learned else "")


class Cardinality(NamedTuple):
    """``:- bound {lits}``: fewer than ``bound`` of the literal codes may hold."""

    bound: int
    lits: tuple[int, ...]


class NogoodStore:
    """Nogoods over interned entities, two watched literals per nogood.

    Static nogoods are deduplicated structurally.  Learned nogoods are
    installed verbatim so the caller controls watch order (position 0
    should be the literal that is unit under the current assignment).
    Cardinality constraints sit beside the nogoods, watched on every
    literal; ``nogoods`` and ``n_static`` count nogoods only.
    """

    def __init__(self):
        self.entities: list[Any] = []
        self._index: dict[Any, int] = {}
        self.nogoods: list[Nogood] = []
        self.units: list[int] = []  # ids of size-1 nogoods, never watched
        # indexed by literal code, grown in intern
        self.watches: list[list[int]] = []
        self._static_keys: dict[tuple[int, ...], int] = {}
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

    def index_of(self, entity) -> int | None:
        """Index of an already-interned entity, or None."""
        return self._index.get(entity)

    def code(self, lit: SignedLiteral) -> int:
        return 2 * self.intern(lit.entity) + (0 if lit.truth else 1)

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
        codes = sorted({self.code(lit) for lit in literals})
        if learned:
            return self.add_codes(codes)
        return self.add_static_codes(codes)

    def add_static_codes(self, codes) -> int:
        """Fast path for pre-sorted, deduplicated code lists."""
        key = tuple(codes)
        hit = self._static_keys.get(key)
        if hit is not None:
            return hit
        ng_id = self.add_codes(codes, learned=False)
        self._static_keys[key] = ng_id
        return ng_id

    def add_codes(self, codes, *, learned: bool = True) -> int:
        """Install a nogood from raw codes, preserving watch order."""
        codes = list(codes)
        if not codes:
            raise ValueError("empty nogood: the problem is trivially inconsistent")
        ng = Nogood(codes, learned)
        ng_id = len(self.nogoods)
        self.nogoods.append(ng)
        if len(codes) == 1:
            self.units.append(ng_id)
        else:
            self.watches[codes[0]].append(ng_id)
            self.watches[codes[1]].append(ng_id)
        if not learned:
            self.n_static += 1
        return ng_id

    def add_cardinality(self, k: int, codes) -> int | None:
        """Install ``:- k {codes}``; returns its id ``~j``.

        Nothing propagates a constraint with k = 1 (no literal needs to
        hold before the rest are forced), so it goes in as one unit
        nogood per literal; one with k above the number of distinct
        literals can never be violated.  Both return None.
        """
        lits = tuple(sorted(set(codes)))
        if k < 1:
            raise ValueError("cardinality bound must be at least 1")
        if k > len(lits):
            return None
        if k == 1:
            for c in lits:
                self.add_static_codes((c,))
            return None
        j = len(self.cardinalities)
        self.cardinalities.append(Cardinality(k, lits))
        for c in lits:
            self.card_watches[c].append(j)
        return ~j

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
        lits = self.cardinalities[~ng_id].lits
        values = trail.values
        held = [c for c in lits if values[c >> 1] == 1 + (c & 1)]
        if implied is None:
            return held
        pos_of = trail.pos_of
        before = pos_of[implied >> 1]
        return [implied ^ 1] + [c for c in held if pos_of[c >> 1] < before]

    def delete(self, ng_ids: Iterable[int]) -> None:
        """Delete learned nogoods: mark them and drop them from the watch
        lists of their two watched literals, keeping the others' order."""
        gone = set(ng_ids)
        touched = set()
        for ng_id in gone:
            ng = self.nogoods[ng_id]
            if not ng.learned:
                raise ValueError("static nogoods are permanent")
            ng.deleted = True
            touched.update(ng.lits[:2])
        watches = self.watches
        for c in touched:
            watches[c] = [i for i in watches[c] if i not in gone]


class Trail:
    """Assignment sequence with decision levels and reasons.

    Backed by flat per-entity arrays so the propagation loop stays cheap.
    ``reason_of`` holds the id (a nogood's, or ``~j`` for a cardinality
    constraint) that implied an entity, or None for decisions and
    externally seeded literals.
    """

    def __init__(self, store: NogoodStore):
        n = store.n_entities
        self.store = store
        self.values = bytearray(n)
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
        return self.values[code >> 1] == 1 + (code & 1)

    def falsified(self, code: int) -> bool:
        return self.values[code >> 1] == 2 - (code & 1)

    def assign(self, code: int, reason: int | None) -> None:
        """Append a literal; the entity must be unassigned."""
        idx = code >> 1
        if self.values[idx]:
            raise ValueError(f"entity {self.store.entities[idx]!r} already assigned")
        self.values[idx] = 1 + (code & 1)
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
        values = self.values
        for code in popped:
            values[code >> 1] = 0
        del self.codes[cut:]
        del self.level_starts[level + 1:]
        if self.head > cut:
            self.head = cut
        return popped

    def assignment(self) -> list[SignedLiteral]:
        """The current assignment as signed literals, in trail order."""
        literal = self.store.literal
        return [literal(c) for c in self.codes]


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
    watches = store.watches
    cards = store.cardinalities
    card_watches = store.card_watches
    values = trail.values
    level_of = trail.level_of
    reason_of = trail.reason_of
    pos_of = trail.pos_of
    codes = trail.codes
    level = len(trail.level_starts) - 1

    # implied literals are appended inline (as Trail.assign would, without
    # its check): each entity was just read as unassigned
    if trail.units_seen < len(store.units) and level == 0:
        for ng_id in store.units[trail.units_seen:]:
            c = nogoods[ng_id].lits[0]
            idx = c >> 1
            v = values[idx]
            if v == 0:
                values[idx] = 2 - (c & 1)
                level_of[idx] = 0
                reason_of[idx] = ng_id
                pos_of[idx] = len(codes)
                codes.append(c ^ 1)
            elif v == 1 + (c & 1):
                return ng_id
        trail.units_seen = len(store.units)

    head = trail.head
    while head < len(codes):
        sigma = codes[head]
        head += 1
        for j in card_watches[sigma]:
            bound, lits = cards[j]
            held = 0
            for c in lits:
                if values[c >> 1] == 1 + (c & 1):
                    held += 1
            if held < bound - 1:
                continue
            if held >= bound:
                trail.head = head
                return ~j
            for c in lits:
                idx = c >> 1
                # re-read: forcing "a" false makes a "not a" of the
                # same constraint hold, and the next visit counts it
                if values[idx] == 0:
                    values[idx] = 2 - (c & 1)
                    level_of[idx] = level
                    reason_of[idx] = ~j
                    pos_of[idx] = len(codes)
                    codes.append(c ^ 1)
        wl = watches[sigma]
        write = 0
        for i, ng_id in enumerate(wl):
            lits = nogoods[ng_id].lits
            other = lits[1] if lits[0] == sigma else lits[0]
            ov = values[other >> 1]
            if ov == 2 - (other & 1):
                # the other watch is falsified: nogood cannot fire
                wl[write] = ng_id
                write += 1
                continue
            for k in range(2, len(lits)):
                c = lits[k]
                if values[c >> 1] != 1 + (c & 1):
                    # c does not hold: watch it instead of sigma
                    if lits[0] == sigma:
                        lits[0] = c
                    else:
                        lits[1] = c
                    lits[k] = sigma
                    watches[c].append(ng_id)
                    break
            else:
                # no replacement watch: the nogood is unit or violated
                wl[write] = ng_id
                write += 1
                if ov == 0:
                    idx = other >> 1
                    values[idx] = 2 - (other & 1)
                    level_of[idx] = level
                    reason_of[idx] = ng_id
                    pos_of[idx] = len(codes)
                    codes.append(other ^ 1)
                else:
                    # every literal holds: violation
                    wl[write:] = wl[i + 1:]
                    trail.head = head
                    return ng_id
        del wl[write:]
    trail.head = head
    return None


def propagate_naive(nogoods, assignment) -> tuple[list[SignedLiteral], str]:
    """Reference fixpoint computation: repeated full scans, no watches.

    ``nogoods`` is a sequence of signed-literal collections, ``assignment``
    the initial literals.  Each round first checks for a violated nogood,
    then extends the assignment from the first unit nogood in sequence
    order, exactly as the textbook loop does.  Returns the extended
    assignment in derivation order plus ``"conflict"`` or ``"success"``.
    Kept deliberately naive as an independent oracle for the watched
    engine.
    """
    state: dict[Any, bool] = {}
    order: list[SignedLiteral] = []
    for lit in assignment:
        prev = state.get(lit.entity)
        if prev is None:
            state[lit.entity] = lit.truth
            order.append(lit)
        elif prev != lit.truth:
            raise ValueError("initial assignment contains a complementary pair")
    nogood_list = [tuple(ng) for ng in nogoods]

    while True:
        for ng in nogood_list:
            if all(state.get(l.entity) == l.truth for l in ng):
                return order, "conflict"
        derived = None
        for ng in nogood_list:
            free = None
            for lit in ng:
                t = state.get(lit.entity)
                if t is None:
                    if free is not None:
                        free = None
                        break
                    free = lit
                elif t != lit.truth:
                    free = None
                    break
            if free is not None:
                derived = free.complement
                break
        if derived is None:
            return order, "success"
        state[derived.entity] = derived.truth
        order.append(derived)


def dump_nogoods(store: NogoodStore) -> str:
    """Text dump: one nogood per line, literals in code order, then one
    ``:- k {l1; ...; ln}`` line per cardinality constraint."""
    lines = []
    for ng in store.nogoods:
        if ng.deleted:
            continue
        lines.append(", ".join(str(store.literal(c)) for c in sorted(ng.lits)))
    for bound, lits in store.cardinalities:
        names = "; ".join(str(store.literal(c)) for c in lits)
        lines.append(f":- {bound} {{{names}}}")
    return "\n".join(lines) + ("\n" if lines else "")
