"""Four translations from CSP instances to ground programs.

direct   -- one atom e(v,i) per value; constraints as forbidden combinations.
support  -- direct's atoms plus support-driven rules, so unit propagation
            prunes exactly like arc consistency on the binary view.
bound    -- atoms b(v,i) meaning v <= i; propagation works on interval
            endpoints only and stays small on wide domains.
range    -- atoms r(v,l,u) meaning v in [l,u] for every subrange, the
            most propagation-complete (and largest) of the four.

Each is one row of ``TRANSLATIONS``, and ``encode`` is one loop over a row.

All atom arguments live in an internal window 1..d shared by every
variable (d spans the union of the initial domains); EncodingMap is the
only place that knows about the shift back to original values.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .csp import (
    ALLDIFFERENT,
    PERMUTATION,
    CspInstance,
    DomainState,
    check_solution,
    validate_state,
)
from .errors import CapExceeded
from .program import (
    Atom,
    CardinalityRule,
    ChoiceRule,
    GroundProgram,
    IntegrityRule,
    NormalRule,
    completion_nogoods,
    make_cardinality,
    neg,
    normalize_cardinality,  # not called here; perfbench's trace_nested rebinds it
    pos,
)
from .propagation import BodyId, SignedLiteral, Trail, unit_propagate
from .solver import SAT, UNKNOWN, UNSAT, SolverConfig, enumerate_models

TABLE_COMPLEMENT_CAP = 10 ** 6
BOX_SLAB_CAP = 10 ** 6


@dataclass(frozen=True)
class EncodingKind:
    """Which translation to use, plus the optional Hall-width limit.

    ``hall_limit`` caps the width of the intervals that get a pigeonhole
    cardinality rule in the bound/range translations; it trades pruning
    strength for encoding size and has no meaning elsewhere.  A limit at
    least as wide as an instance's widest proper interval keeps every
    rule, so it is the same as no limit there.
    """

    name: str
    hall_limit: int | None = None

    def __post_init__(self):
        if self.name not in TRANSLATIONS:
            raise ValueError(f"unknown encoding: {self.name!r}")
        if self.hall_limit is not None:
            if not TRANSLATIONS[self.name].hall:
                hall = "/".join(name for name, row in TRANSLATIONS.items() if row.hall)
                raise ValueError(f"hall_limit only applies to the {hall} encodings")
            if self.hall_limit < 1:
                raise ValueError("hall_limit must be at least 1")


class EncodingMap:
    """Map from variables and their values to the encoding's atoms."""

    def __init__(self, instance: CspInstance):
        union: set[int] = set()
        for decl in instance.variables:
            union.update(instance.effective_domain(decl.name))
        self.lo = min(union)
        self.d = max(union) - self.lo + 1
        # internal (shifted) values per variable, ascending
        self.values: dict[str, tuple[int, ...]] = {
            decl.name: tuple(v - self.lo + 1 for v in instance.effective_domain(decl.name))
            for decl in instance.variables
        }
        # every atom built for this encoding, keyed by (predicate, *args):
        # the rules name each atom many times, and the table goes with them
        self.atoms: dict[tuple, Atom] = {}

    def internal(self, value: int) -> int:
        return value - self.lo + 1

    def original(self, internal: int) -> int:
        return internal + self.lo - 1

    def window(self, name: str) -> tuple[int, int]:
        vals = self.values[name]
        return vals[0], vals[-1]

    def _atom(self, *key) -> Atom:
        atom = self.atoms.get(key)
        if atom is None:
            atom = self.atoms[key] = Atom(key[0], key[1:])
        return atom

    def e_atom(self, name: str, i: int) -> Atom:
        return self._atom("e", name, i)

    def b_atom(self, name: str, i: int) -> Atom:
        return self._atom("b", name, i)

    def r_atom(self, name: str, l: int, u: int) -> Atom:
        return self._atom("r", name, l, u)


@dataclass
class Encoding:
    """A ground program together with its instance and value map."""

    instance: CspInstance
    kind: EncodingKind
    emap: EncodingMap
    program: GroundProgram

    def value_atom(self, name: str, i: int) -> Atom:
        """The atom for internal value i of a variable: e(v,i) and r(v,i,i)
        say v = i, b(v,i) says v <= i."""
        return TRANSLATIONS[self.kind.name].value(self.emap, name, i)

    @cached_property
    def value_atoms(self) -> dict[Atom, tuple[str, int]]:
        """Each value atom over the window, mapped to its (variable,
        internal value); readback ignores every atom outside it."""
        return {
            self.value_atom(name, i): (name, i)
            for name in self.emap.values
            for i in range(1, self.emap.d + 1)
        }


@dataclass(frozen=True)
class Translation:
    """One encoding as data: its value atom, the rules it posts for each
    part of an instance, and what unit propagation reaches on them."""

    value: Callable  # (emap, name, i) -> the atom for value i of a variable
    domain: Callable  # (emap, name) -> the rules for one variable's domain
    count: Callable  # (emap, c, hall_limit) -> rules for all-different/permutation
    table: Callable  # (emap, c, found) -> rules for a table; found shares boxes
    level: str  # the consistency level `cspasp check` holds propagation to
    hall: bool = False  # whether a Hall limit applies
    close: Callable | None = None  # (emap, rules) -> rules posted after the rest


def encode(instance: CspInstance, kind: EncodingKind) -> Encoding:
    """Translate an instance; raises CapExceeded on oversized tables."""
    emap = EncodingMap(instance)
    row = TRANSLATIONS[kind.name]
    rules: list = []
    for decl in instance.variables:
        rules.extend(row.domain(emap, decl.name))
    found: dict = {}
    for c in instance.constraints:
        if c.kind in (ALLDIFFERENT, PERMUTATION):
            rules.extend(row.count(emap, c, kind.hall_limit))
        else:
            rules.extend(row.table(emap, c, found))
    if row.close is not None:
        rules.extend(row.close(emap, rules))
    return Encoding(instance, kind, emap, GroundProgram(rules))


# -- direct / support ----------------------------------------------------------


def _value_domain(emap, name):
    atoms = [emap.e_atom(name, i) for i in emap.values[name]]
    yield ChoiceRule(tuple(atoms))
    yield IntegrityRule(tuple(neg(a) for a in atoms))
    card = make_cardinality(2, tuple(pos(a) for a in atoms))
    if card is not None:
        yield card


def _direct_distinct(emap, c, hall_limit):
    """Pairwise conflict rules over shared values."""
    for a, b in itertools.combinations(c.scope, 2):
        for i in sorted(set(emap.values[a]) & set(emap.values[b])):
            yield IntegrityRule((pos(emap.e_atom(a, i)), pos(emap.e_atom(b, i))))


def _support_distinct(emap, c, hall_limit):
    """Per-value at-most-one cardinality rules; permutations also demand
    every value be taken by someone."""
    memb = {v: set(emap.values[v]) for v in c.scope}
    union = sorted(set().union(*memb.values()))
    for i in union:
        lits = tuple(pos(emap.e_atom(v, i)) for v in c.scope if i in memb[v])
        card = make_cardinality(2, lits)
        if card is not None:
            yield card
    if c.kind == PERMUTATION:
        for i in union:
            yield IntegrityRule(tuple(neg(emap.e_atom(v, i)) for v in c.scope if i in memb[v]))


def _table_tuples(emap, c, polarity):
    """The assignable tuples that are ``polarity`` under the constraint,
    sorted, in internal coordinates.

    The tuples of the other polarity are complemented against the
    product of the initial domains (capped); tuples of the same polarity
    are filtered to those that are actually assignable.
    """
    domains = [emap.values[v] for v in c.scope]
    membs = [set(dom) for dom in domains]
    listed = set()
    for t in c.tuples:
        it = tuple(emap.internal(x) for x in t)
        if all(x in memb for x, memb in zip(it, membs)):
            listed.add(it)
    if c.polarity == polarity:
        return sorted(listed)
    size = math.prod(len(d) for d in domains)
    if size > TABLE_COMPLEMENT_CAP:
        raise CapExceeded(f"complementing a {c.polarity} table needs {size} candidate tuples")
    return [t for t in itertools.product(*domains) if t not in listed]


def _direct_table(emap, c, found):
    for t in _table_tuples(emap, c, "forbidden"):
        yield IntegrityRule(tuple(pos(emap.e_atom(v, x)) for v, x in zip(c.scope, t)))


def _support_table(emap, c, found):
    arity = len(c.scope)
    if arity >= 2:
        allowed = _table_tuples(emap, c, "allowed")
        for vi, v in enumerate(c.scope):
            for wi, w in enumerate(c.scope):
                if v == w:
                    continue
                for i in emap.values[v]:
                    supports = sorted({t[wi] for t in allowed if t[vi] == i})
                    body = [pos(emap.e_atom(v, i))]
                    body.extend(neg(emap.e_atom(w, j)) for j in supports)
                    yield IntegrityRule(tuple(body))
    if arity != 2:
        # the direct form; on wide tables it backs up the pairwise
        # support rules, which alone cannot reject every tuple
        yield from _direct_table(emap, c, found)


# -- range ---------------------------------------------------------------------


def _range_domain(emap, name):
    """Each r(v,l,u) holds unless v is below l or above u, r grows with
    its interval, and the initial domain is pinned: r(v,1,lo-1),
    r(v,hi+1,d) and r(v,i,i) for each interior hole i are false."""
    d = emap.d
    r = emap.r_atom
    for l in range(1, d + 1):
        for u in range(l, d + 1):
            body = []
            if l >= 2:
                body.append(neg(r(name, 1, l - 1)))
            if u <= d - 1:
                body.append(neg(r(name, u + 1, d)))
            yield NormalRule(r(name, l, u), tuple(body))
    for l in range(2, d + 1):
        for u in range(l, d + 1):
            yield IntegrityRule((pos(r(name, l, u)), neg(r(name, l - 1, u))))
    for l in range(1, d + 1):
        for u in range(l, d):
            yield IntegrityRule((pos(r(name, l, u)), neg(r(name, l, u + 1))))
    lo, hi = emap.window(name)
    if lo >= 2:
        yield IntegrityRule((pos(r(name, 1, lo - 1)),))
    if hi <= d - 1:
        yield IntegrityRule((pos(r(name, hi + 1, d)),))
    for i in sorted(set(range(lo + 1, hi)).difference(emap.values[name])):
        yield IntegrityRule((pos(r(name, i, i)),))


def _range_table(emap, c, found):
    for box in _table_boxes(emap, c, found):
        yield IntegrityRule(tuple(pos(emap.r_atom(v, l, u)) for v, (l, u) in zip(c.scope, box)))


def _interval_count_rules(emap, c, hall_limit):
    """Pigeonhole cardinality rules over intervals (the Hall-style rules).

    For every interval [l,u] (width-capped by hall_limit) at most u-l+1
    of the scope variables fit inside, so u-l+2 atoms r(v,l,u) true is a
    conflict.  Permutations add the dual: every interval must absorb its
    share, so too many variables *outside* [l,u] is a conflict as well.
    """
    r = emap.r_atom
    d = emap.d
    intervals = [
        (l, u)
        for l in range(1, d + 1)
        for u in range(l, d + 1)
        if hall_limit is None or u - l + 1 <= hall_limit
    ]
    for l, u in intervals:
        card = make_cardinality(u - l + 2, tuple(pos(r(v, l, u)) for v in c.scope))
        if card is not None:
            yield card
    if c.kind == PERMUTATION:
        n = len(c.scope)
        union = set().union(*(emap.values[v] for v in c.scope))
        for l, u in intervals:
            outside = n - len(union & set(range(l, u + 1)))
            card = make_cardinality(outside + 1, tuple(neg(r(v, l, u)) for v in c.scope))
            if card is not None:
                yield card


# -- bound ---------------------------------------------------------------------


def _bound_domain(emap, name):
    """The b(v,i) form a ladder, and the initial domain is pinned: b(v,hi)
    holds, b(v,lo-1) does not, and no interior hole i has b(v,i) without
    b(v,i-1)."""
    b = emap.b_atom
    yield ChoiceRule(tuple(b(name, i) for i in range(1, emap.d + 1)))
    for i in range(1, emap.d):
        yield IntegrityRule((pos(b(name, i)), neg(b(name, i + 1))))
    lo, hi = emap.window(name)
    yield IntegrityRule((neg(b(name, hi)),))
    if lo >= 2:
        yield IntegrityRule((pos(b(name, lo - 1)),))
    for i in sorted(set(range(lo + 1, hi)).difference(emap.values[name])):
        yield IntegrityRule((pos(b(name, i)), neg(b(name, i - 1))))


def _bound_table(emap, c, found):
    for box in _table_boxes(emap, c, found):
        body = []
        for v, (l, u) in zip(c.scope, box):
            body.append(pos(emap.b_atom(v, u)))
            if l >= 2:
                body.append(neg(emap.b_atom(v, l - 1)))
        yield IntegrityRule(tuple(body))


def _define_interval_atoms(emap, rules):
    """One rule r(v,l,u) :- not b(v,l-1), b(v,u) for each interval atom
    that the counting rules read; the completion of that one rule ties
    the atom to both endpoints."""
    b = emap.b_atom
    read = {lit.atom for rule in rules if isinstance(rule, CardinalityRule)
            for lit in rule.literals}
    linked = [key[1:] for key, atom in emap.atoms.items() if key[0] == "r" and atom in read]
    rank = {name: k for k, name in enumerate(emap.values)}  # declaration order
    return [
        NormalRule(emap.r_atom(name, l, u),
                   ((neg(b(name, l - 1)),) if l >= 2 else ()) + (pos(b(name, u)),))
        for name, l, u in sorted(linked, key=lambda args: (rank[args[0]], args))
    ]


TRANSLATIONS = {
    "direct": Translation(EncodingMap.e_atom, _value_domain, _direct_distinct,
                          _direct_table, "ac"),
    "support": Translation(EncodingMap.e_atom, _value_domain, _support_distinct,
                           _support_table, "ac"),
    "bound": Translation(EncodingMap.b_atom, _bound_domain, _interval_count_rules,
                         _bound_table, "bound", hall=True,
                         close=_define_interval_atoms),
    "range": Translation(lambda emap, name, i: emap.r_atom(name, i, i), _range_domain,
                         _interval_count_rules, _range_table, "range", hall=True),
}

ENCODING_NAMES = tuple(TRANSLATIONS)


# -- table boxes -----------------------------------------------------------------


def _table_boxes(emap, c, found: dict):
    """Maximal all-violating boxes of a table, in internal coordinates.

    A box assigns each scope variable an interval inside its initial
    hull; it is all-violating when no contained point satisfies the
    constraint (window points outside a variable's actual domain cannot
    be taken, so they count as violating).  Posting one conflict rule
    per *maximal* such box rejects every forbidden tuple while keeping
    the rule count small.  ``found`` holds the boxes already computed in
    this encode call, keyed on (windows, allowed tuples): tables that
    share that signature, such as the edge tables of a ggp wheel, share
    their boxes.
    """
    windows = tuple(emap.window(v) for v in c.scope)
    points = tuple(_table_tuples(emap, c, "allowed"))
    boxes = found.get((windows, points))
    if boxes is None:
        boxes = found[windows, points] = _maximal_empty_boxes(points, windows)
    return boxes


def _maximal_empty_boxes(points, windows):
    """All maximal boxes inside ``windows`` that hold none of ``points``.

    A box is a tuple of inclusive (l, u) intervals, one per axis; the
    boxes come back sorted.  The search recurses slab by slab (Naamad,
    Lee and Hsu 1984; Edmonds et al. 2003): the empty boxes of the
    axis-0 slab [l,u] are those of its points projected onto the other
    axes, and such a box is maximal unless it is also a box of slab
    [l-1,u] or [l,u+1].  Results are memoised on the projected point
    set, and widening u stops once a slab has no empty box.  Raises
    CapExceeded once the recursion has visited BOX_SLAB_CAP slabs.
    """
    k = len(windows)
    memo: dict[tuple[int, frozenset], frozenset] = {}
    visits = 0

    def boxes(axis, pts):
        nonlocal visits
        if axis == k:
            return frozenset() if pts else frozenset({()})
        found = memo.get((axis, pts))
        if found is not None:
            return found
        rows: dict[int, list] = {}
        for p in pts:
            rows.setdefault(p[0], []).append(p[1:])
        lo, hi = windows[axis]
        slabs = {}
        for l in range(lo, hi + 1):
            proj = frozenset()
            for u in range(l, hi + 1):
                visits += 1
                if visits > BOX_SLAB_CAP:
                    raise CapExceeded(f"box analysis visits more than {BOX_SLAB_CAP} slabs")
                if u in rows:
                    proj = proj.union(rows[u])
                sub = boxes(axis + 1, proj)
                if not sub:
                    break
                slabs[l, u] = sub
        found = frozenset(
            ((l, u),) + box
            for (l, u), sub in slabs.items()
            for box in sub
            if box not in slabs.get((l - 1, u), ()) and box not in slabs.get((l, u + 1), ())
        )
        memo[axis, pts] = found
        return found

    return sorted(boxes(0, frozenset(points)))


# -- seeds, readback, decoding ---------------------------------------------------


def seed_assignment(enc: Encoding, state: DomainState) -> list[SignedLiteral]:
    """Literals expressing a pruned domain state, ready to seed a trail.

    Removal is relative to the instance's initial domains.  Variables
    with an empty current domain are rejected: express those as a
    conflict, not a seed.
    """
    validate_state(enc.instance, state)
    emap = enc.emap
    kind = enc.kind.name
    atom = enc.value_atom
    seeds: list[SignedLiteral] = []
    for decl in enc.instance.variables:
        name = decl.name
        current = [emap.internal(v) for v in state.domains[name]]
        if not current:
            raise ValueError(f"variable {name} has an empty current domain")
        declared = emap.values[name]
        lo, hi = current[0], current[-1]
        if kind == "bound":
            if hi < declared[-1]:
                seeds.append(SignedLiteral(atom(name, hi), True))
            if lo > declared[0]:
                seeds.append(SignedLiteral(atom(name, lo - 1), False))
            continue
        kept = set(current)
        for i in declared:
            if i not in kept:
                seeds.append(SignedLiteral(atom(name, i), False))
        if kind == "range":
            if lo >= 2:
                seeds.append(SignedLiteral(emap.r_atom(name, 1, lo - 1), False))
            if hi <= emap.d - 1:
                seeds.append(SignedLiteral(emap.r_atom(name, hi + 1, emap.d), False))
    return list(dict.fromkeys(seeds))  # r(v,1,lo-1) can repeat a value atom r(v,1,1)


def pruned_domains(enc: Encoding, assignment) -> DomainState:
    """Read a (partial) assignment back as pruned initial domains.

    A false e(v,i) or r(v,i,i) removes i.  Under bound a true b(v,i)
    caps v at i and a false one lifts v above i.
    """
    emap = enc.emap
    table = enc.value_atoms
    bound = enc.kind.name == "bound"
    names = enc.instance.names()
    lower = dict.fromkeys(names, 1)
    upper = dict.fromkeys(names, emap.d)
    removed: dict[str, set[int]] = {name: set() for name in names}
    for lit in assignment:
        hit = table.get(lit.entity)
        if hit is None:
            continue
        name, i = hit
        if not bound:
            if not lit.truth:
                removed[name].add(i)
        elif lit.truth:
            upper[name] = min(upper[name], i)
        else:
            lower[name] = max(lower[name], i + 1)
    return DomainState({
        name: tuple(
            emap.original(i)
            for i in emap.values[name]
            if lower[name] <= i <= upper[name] and i not in removed[name]
        )
        for name in names
    })


def decode(enc: Encoding, assignment) -> dict[str, int]:
    """Extract the CSP solution from a total assignment.

    Raises ValueError, naming the variable, when the assignment does not
    determine a single value for it.  On a model of the encoding's own
    program that would mean the encoding is broken, so it fails loudly.
    """
    table = enc.value_atoms
    chosen: dict[str, set[int]] = {name: set() for name in enc.instance.names()}
    for lit in assignment:
        if lit.truth and lit.entity in table:
            name, i = table[lit.entity]
            chosen[name].add(i)
    solution = {}
    for name, picks in chosen.items():
        if enc.kind.name == "bound" and picks:
            picks = {min(picks)}  # the least true b(v,i) is v's value
        if len(picks) != 1:
            raise ValueError(
                f"assignment determines {len(picks)} values for variable {name}"
            )
        solution[name] = enc.emap.original(picks.pop())
    return solution


def run(program: GroundProgram, enc: Encoding | None = None, timeout_s=None, limit=1):
    """Complete a program, search it and read back up to ``limit`` models.

    Returns ``(status, answers, stats, sizes)``.  The status is UNKNOWN
    when the time budget ran out, else SAT or UNSAT by whether a model
    was found; ``limit`` None means all models.  With an encoding of the
    program, each answer is its model decoded and checked against the
    instance, and a model that decodes to a non-solution raises
    ValueError instead of being reported.  Without one, an answer lists
    the program's true atoms in program order.  ``sizes`` counts the
    completed store before the search adds nogoods to it.
    """
    store = completion_nogoods(program)
    sizes = {
        "entities": store.n_entities,
        "bodies": sum(isinstance(e, BodyId) for e in store.entities),
        "nogoods": store.n_static,
        "cardinalities": len(store.cardinalities),
    }
    models, stats, status = enumerate_models(store, SolverConfig(timeout_s=timeout_s), limit)
    answers = []
    for model in models:
        if enc is None:
            true = {lit.entity for lit in model if lit.truth}
            answers.append([atom for atom in program.atoms() if atom in true])
            continue
        solution = decode(enc, model)
        if not check_solution(enc.instance, solution):
            raise ValueError(f"the model decodes to {solution}, which is not a solution")
        answers.append(solution)
    if status != UNKNOWN:
        status = SAT if answers else UNSAT
    return status, answers, stats, sizes


class EncodingPropagator:
    """Unit propagation harness over an encoding's completion nogoods.

    The program is completed once, and one trail keeps the root fixpoint
    (the unit nogoods propagated at level 0).  Each propagate() call
    seeds its state at level 1 above that root, propagates, reads back
    only the encoding's value atoms and backjumps to the root, so the
    root is derived once per propagator.
    """

    def __init__(self, enc: Encoding):
        self.enc = enc
        self.store = completion_nogoods(enc.program)
        self.trail = Trail(self.store)
        self.root_conflict = unit_propagate(self.store, self.trail) is not None
        self._readback = [
            (2 * idx, entity)  # the code of "entity is true"
            for idx, entity in enumerate(self.store.entities)
            if entity in enc.value_atoms
        ]

    def propagate(self, state: DomainState) -> DomainState | None:
        """UP fixpoint from the state's seed; None signals a conflict."""
        seeds = seed_assignment(self.enc, state)
        if self.root_conflict:
            return None
        store = self.store
        trail = self.trail
        trail.new_level()
        try:
            for lit in seeds:
                idx = store.index_of(lit.entity)
                if idx is None:
                    raise RuntimeError(f"seed literal over unknown atom {lit.entity!r}")
                code = 2 * idx + (0 if lit.truth else 1)
                if trail.falsified(code):
                    return None
                if not trail.holds(code):
                    trail.assign(code, None)
            if unit_propagate(store, trail) is not None:
                return None
            lit = trail.lit
            readback = [
                SignedLiteral(atom, lit[code] == 1)
                for code, atom in self._readback
                if lit[code] or lit[code + 1]
            ]
            return pruned_domains(self.enc, readback)
        finally:
            trail.backjump(0)
