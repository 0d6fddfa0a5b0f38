"""Four translations from CSP instances to ground programs.

direct   -- one atom e(v,i) per value; constraints as forbidden combinations.
support  -- direct's atoms plus support-driven rules, so unit propagation
            prunes like arc consistency on the binary view: binary tables,
            all-different as pairwise not-equals, and each pair of
            positions of a wider table.  On a wide table it also forces
            the chosen position once the others are fixed; it does not
            reach full (generalised) arc consistency there.
bound    -- atoms b(v,i) meaning v <= i; propagation works on interval
            endpoints only and stays small on wide domains.
range    -- atoms r(v,l,u) meaning v in [l,u] for every subrange, the
            most propagation-complete (and largest) of the four.

Each is one row of ``TRANSLATIONS``, and ``encode`` is one loop over a row;
seeding, readback and ``decode`` read one value table built from the row.

All atom arguments live in an internal window 1..d shared by every
variable (d spans the union of the initial domains); EncodingMap is the
only place that knows about the shift back to original values.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .csp import (
    ALLDIFFERENT,
    PERMUTATION,
    CspInstance,
    DomainState,
    check_solution,
)
from .errors import CapExceeded
from .program import (
    Atom,
    CardinalityRule,
    ChoiceRule,
    GroundProgram,
    IntegrityRule,
    LitTable,
    NormalRule,
    completion_nogoods,
    make_cardinality,
    normalize_cardinality,  # not called here; perfbench's trace_nested rebinds it
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
    """Map from variables and their values to the encoding's atoms and
    literals."""

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
        # one literal object per atom and sign, shared by every rule
        self.lits = LitTable()

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

    @cached_property
    def value_table(self) -> dict[str, _Values]:
        """The value table on signed literals, which ``seed_assignment``,
        ``pruned_domains`` and ``decode`` read."""
        return _value_table(self, SignedLiteral)


@dataclass(frozen=True)
class Translation:
    """One encoding as data: its value atom, the rules it posts for each
    part of an instance, and what unit propagation reaches on them."""

    # (emap, name, i) -> the atom for internal value i of a variable:
    # e(v,i) and r(v,i,i) say v = i, b(v,i) says v <= i (see ``order``)
    value: Callable
    domain: Callable  # (emap, name) -> the rules for one variable's domain
    count: Callable  # (emap, c, hall_limit) -> rules for all-different/permutation
    table: Callable  # (emap, c, found) -> rules for a table; see _table for found
    level: str  # the consistency level `cspasp check` holds propagation to
    within: bool = False  # whether propagation is held to ``level`` from within
    hall: bool = False  # whether a Hall limit applies
    close: Callable | None = None  # (emap) -> rules posted after the rest
    # whether value atom i says v <= i rather than v = i: then the least
    # true one is v's value, and a state is seeded by its ends alone
    order: bool = False


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
        rules.extend(row.close(emap))
    # a rule that several tables post (QEP's share pairs of cells) is kept once
    return Encoding(instance, kind, emap, GroundProgram(dict.fromkeys(rules)))


# -- direct / support ----------------------------------------------------------


def _value_domain(emap, name):
    atoms = [emap.e_atom(name, i) for i in emap.values[name]]
    yield ChoiceRule(tuple(atoms))
    yield IntegrityRule(tuple(map(emap.lits.neg, atoms)))
    card = make_cardinality(2, tuple(map(emap.lits.pos, atoms)))
    if card is not None:
        yield card


def _direct_distinct(emap, c, hall_limit):
    """Pairwise conflict rules over shared values."""
    pos = emap.lits.pos
    for a, b in itertools.combinations(c.scope, 2):
        for i in sorted(set(emap.values[a]) & set(emap.values[b])):
            yield IntegrityRule((pos(emap.e_atom(a, i)), pos(emap.e_atom(b, i))))


def _support_distinct(emap, c, hall_limit):
    """Per-value at-most-one cardinality rules; permutations also demand
    every value be taken by someone."""
    pos, neg = emap.lits.pos, emap.lits.neg
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


def _value_lits(emap, c, lit):
    """Per scope position, ``lit`` of each e(v,i) keyed by the value i,
    so that a tuple's literals are one lookup per position."""
    return [{i: lit(emap.e_atom(v, i)) for i in emap.values[v]} for v in c.scope]


def _direct_table(emap, c, found):
    lits = _value_lits(emap, c, emap.lits.pos)
    for t in _table(emap, c, found).forbidden:
        yield IntegrityRule(tuple(map(operator.getitem, lits, t)))


def _support_table(emap, c, found):
    """The pairwise support rules.  On a wide table they cannot reject
    every tuple alone, so one rule per combination of values at the other
    positions limits the chosen position to what the table allows with
    them, or the direct form rejects the tuples where it is smaller."""
    table = _table(emap, c, found)
    pos = _value_lits(emap, c, emap.lits.pos)
    neg = _value_lits(emap, c, emap.lits.neg)
    for (vi, wi), supports in table.supports.items():
        for i, js in supports.items():
            yield IntegrityRule((pos[vi][i],) + tuple(map(neg[wi].__getitem__, js)))
    if len(c.scope) == 2:
        return
    if len(c.scope) == 1 or table.combinations is None:
        yield from _direct_table(emap, c, found)
        return
    p, rows = table.combinations
    others = pos[:p] + pos[p + 1:]
    for combo, values in rows:
        yield IntegrityRule(tuple(map(operator.getitem, others, combo))
                            + tuple(map(neg[p].__getitem__, values)))


# -- range ---------------------------------------------------------------------


def _range_domain(emap, name):
    """Each r(v,l,u) holds unless v is below l or above u, r grows with
    its interval, and the initial domain is pinned: r(v,1,lo-1),
    r(v,hi+1,d) and r(v,i,i) for each interior hole i are false."""
    d = emap.d
    r = emap.r_atom
    pos, neg = emap.lits.pos, emap.lits.neg
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
    pos = emap.lits.pos
    for box in _table(emap, c, found).boxes:
        yield IntegrityRule(tuple(pos(emap.r_atom(v, l, u)) for v, (l, u) in zip(c.scope, box)))


def _interval_count_rules(emap, c, hall_limit):
    """Pigeonhole cardinality rules over intervals (the Hall-style rules).

    For every interval [l,u] (width-capped by hall_limit) at most u-l+1
    of the scope variables fit inside, so u-l+2 atoms r(v,l,u) true is a
    conflict.  Permutations add the dual: every interval must absorb its
    share, so too many variables *outside* [l,u] is a conflict as well.
    A rule that could never fire is skipped before its atoms are built,
    so every r(v,l,u) built here is read.
    """
    r = emap.r_atom
    pos, neg = emap.lits.pos, emap.lits.neg
    d = emap.d
    n = len(c.scope)
    intervals = [
        (l, u)
        for l in range(1, d + 1)
        for u in range(l, d + 1)
        if hall_limit is None or u - l + 1 <= hall_limit
    ]
    for l, u in intervals:
        if u - l + 1 < n:  # a wider interval has room for every variable
            yield CardinalityRule(u - l + 2, tuple(pos(r(v, l, u)) for v in c.scope))
    if c.kind == PERMUTATION:
        union = set().union(*(emap.values[v] for v in c.scope))
        for l, u in intervals:
            inside = len(union & set(range(l, u + 1)))
            if inside:  # else all n may lie outside
                yield CardinalityRule(n - inside + 1, tuple(neg(r(v, l, u)) for v in c.scope))


# -- bound ---------------------------------------------------------------------


def _bound_domain(emap, name):
    """The b(v,i) form a ladder, and the initial domain is pinned: b(v,hi)
    holds, b(v,lo-1) does not, and no interior hole i has b(v,i) without
    b(v,i-1)."""
    b = emap.b_atom
    pos, neg = emap.lits.pos, emap.lits.neg
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
    pos, neg = emap.lits.pos, emap.lits.neg
    for box in _table(emap, c, found).boxes:
        body = []
        for v, (l, u) in zip(c.scope, box):
            body.append(pos(emap.b_atom(v, u)))
            if l >= 2:
                body.append(neg(emap.b_atom(v, l - 1)))
        yield IntegrityRule(tuple(body))


def _define_interval_atoms(emap):
    """One rule r(v,l,u) :- not b(v,l-1), b(v,u) for each interval atom,
    all of which the counting rules read; the completion of that one rule
    ties the atom to both endpoints, and makes r(v,1,u), whose body is
    b(v,u) alone, an alias of b(v,u)."""
    b = emap.b_atom
    pos, neg = emap.lits.pos, emap.lits.neg
    linked = [key[1:] for key in emap.atoms if key[0] == "r"]
    rank = {name: k for k, name in enumerate(emap.values)}  # declaration order
    return [
        NormalRule(emap.r_atom(name, l, u),
                   ((neg(b(name, l - 1)),) if l >= 2 else ()) + (pos(b(name, u)),))
        for name, l, u in sorted(linked, key=lambda args: (rank[args[0]], args))
    ]


TRANSLATIONS = {
    "direct": Translation(EncodingMap.e_atom, _value_domain, _direct_distinct,
                          _direct_table, "ac", within=True),
    "support": Translation(EncodingMap.e_atom, _value_domain, _support_distinct,
                           _support_table, "ac"),
    "bound": Translation(EncodingMap.b_atom, _bound_domain, _interval_count_rules,
                         _bound_table, "bound", hall=True,
                         close=_define_interval_atoms, order=True),
    "range": Translation(lambda emap, name, i: emap.r_atom(name, i, i), _range_domain,
                         _interval_count_rules, _range_table, "range", hall=True),
}

ENCODING_NAMES = tuple(TRANSLATIONS)


# -- table analysis ----------------------------------------------------------------


def _table(emap, c, found: dict) -> _TableTuples:
    """``c``'s tuples and what the translations derive from them.

    ``found`` holds the analyses already made in this encode call, keyed
    on the signature (scope domains, polarity, tuples): tables that share
    it, such as the edge tables of a ggp wheel, share one analysis.
    """
    key = (tuple(emap.values[v] for v in c.scope), c.polarity, c.tuples)
    table = found.get(key)
    if table is None:
        table = found[key] = _table_tuples(emap, c)
    return table


def _table_tuples(emap, c) -> _TableTuples:
    """The analysis of ``c``: its listed tuples in internal coordinates,
    kept only where every value is in its variable's initial domain."""
    domains = [emap.values[v] for v in c.scope]
    membs = [set(dom) for dom in domains]
    listed = set()
    for t in c.tuples:
        it = tuple(emap.internal(x) for x in t)
        if all(x in memb for x, memb in zip(it, membs)):
            listed.add(it)
    return _TableTuples(domains, c.polarity, listed)


@dataclass
class _TableTuples:
    """A table's assignable tuples in internal coordinates and what the
    translations derive from them, each part computed on first use."""

    domains: list[tuple[int, ...]]  # each scope position's internal values
    polarity: str
    listed: set[tuple[int, ...]]  # the table's own tuples that are assignable

    def _of(self, polarity):
        """The assignable tuples that are ``polarity``, sorted.  The
        tuples of the other polarity are complemented against the product
        of the initial domains (capped); tuples of the same polarity are
        the listed ones."""
        if polarity == self.polarity:
            return sorted(self.listed)
        size = math.prod(map(len, self.domains))
        if size > TABLE_COMPLEMENT_CAP:
            raise CapExceeded(f"complementing a {self.polarity} table needs {size} candidate tuples")
        return [t for t in itertools.product(*self.domains) if t not in self.listed]

    @cached_property
    def allowed(self) -> list[tuple[int, ...]]:
        return self._of("allowed")

    @cached_property
    def forbidden(self) -> list[tuple[int, ...]]:
        return self._of("forbidden")

    @cached_property
    def supports(self) -> dict[tuple[int, int], dict[int, list[int]]]:
        """For each ordered pair (vi, wi) of scope positions, each value i
        at vi mapped to the sorted values at wi that allowed tuples pair
        with it (its supports)."""
        out = {}
        for vi, wi in itertools.combinations(range(len(self.domains)), 2):
            there = out[vi, wi] = {i: [] for i in self.domains[vi]}
            back = out[wi, vi] = {j: [] for j in self.domains[wi]}
            for i, j in sorted(set(map(operator.itemgetter(vi, wi), self.allowed))):
                there[i].append(j)
                back[j].append(i)
        return {pair: out[pair] for pair in itertools.permutations(range(len(self.domains)), 2)}

    @cached_property
    def combinations(self) -> tuple[int, list] | None:
        """The per-combination form of a wide table, or None where the
        direct form has no more literals.

        It is a position p and, for each combination of values at the
        other positions (in scope order) that the table does not allow
        with every value at p, that combination and the sorted values the
        table allows with it at p.  p is the last position the others
        determine (at most one allowed value per combination), else the
        first one with the smallest product of the other domains, which is
        capped like a complement.
        """
        allowed = self.allowed
        n = len(self.domains)
        rest = [math.prod(len(dom) for k, dom in enumerate(self.domains) if k != p)
                for p in range(n)]
        # the other positions' values of a tuple, per position p
        others = [operator.itemgetter(*(k for k in range(n) if k != p)) for p in range(n)]
        determined = [p for p in range(n) if len(allowed) <= rest[p]
                      and len(set(map(others[p], allowed))) == len(allowed)]
        p = determined[-1] if determined else rest.index(min(rest))
        if rest[p] > TABLE_COMPLEMENT_CAP:
            raise CapExceeded(f"a wide table's combinations need {rest[p]} candidate tuples")
        # a combination allowed with every value at p gets no rule: the
        # domain rule subsumes it.  Counted on the table's own list, which
        # is the short one on sparse forbidden tables
        width = len(self.domains[p])
        if self.polarity == "allowed":
            full = operator.countOf(Counter(map(others[p], allowed)).values(), width)
        else:
            full = rest[p] - len(set(map(others[p], self.listed)))
        # literals: n-1 per rule and one per allowed tuple outside the full
        # combinations, against the direct form's n per forbidden tuple
        size = (n - 1) * (rest[p] - full) + len(allowed) - full * width
        if size >= n * (math.prod(map(len, self.domains)) - len(allowed)):
            return None
        at_p: dict[tuple[int, ...], list[int]] = {}
        for t in allowed:
            at_p.setdefault(others[p](t), []).append(t[p])
        return p, [
            (combo, values)
            for combo in itertools.product(*self.domains[:p], *self.domains[p + 1:])
            if len(values := at_p.get(combo, ())) < width
        ]

    @cached_property
    def boxes(self) -> list[tuple[tuple[int, int], ...]]:
        """Maximal all-violating boxes, in internal coordinates.

        A box assigns each scope variable an interval inside its initial
        hull; it is all-violating when no contained point satisfies the
        constraint (window points outside a variable's actual domain
        cannot be taken, so they count as violating).  Posting one
        conflict rule per *maximal* such box rejects every forbidden
        tuple while keeping the rule count small.
        """
        windows = tuple((dom[0], dom[-1]) for dom in self.domains)
        return _maximal_empty_boxes(tuple(self.allowed), windows)


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


@dataclass(frozen=True, slots=True)
class _Values:
    """One variable's row of an encoding's value table.

    The literals in it are whatever the table's builder makes of an
    (atom, truth) pair: ``SignedLiteral`` for the literal-level reference
    functions, a literal code for ``EncodingPropagator``.  A row is under
    order exactly when its ``caps`` are filled.
    """

    values: tuple[int, ...]  # the original values a state may hold, ascending
    allowed: frozenset[int]  # the same, for checking a state
    first: int  # the original value of internal value 1
    false: dict  # unless under order, value -> "its value atom is false"
    caps: tuple  # under order, "v <= i" for i = 1..d
    lifts: tuple  # under order, "not v <= i" for i = 1..d


def _value_table(enc: Encoding, literal: Callable) -> dict[str, _Values]:
    """Each variable's value atoms, as ``literal(atom, truth)``, from the
    encoding's ``Translation`` row; in declaration order.  Under order
    only the ladder is built, else only the false value atoms."""
    emap, row = enc.emap, TRANSLATIONS[enc.kind.name]
    table = {}
    for name, internal in emap.values.items():
        values = tuple(map(emap.original, internal))
        false, caps, lifts = {}, (), ()
        if row.order:
            ladder = [row.value(emap, name, i) for i in range(1, emap.d + 1)]
            caps = tuple(literal(atom, True) for atom in ladder)
            lifts = tuple(literal(atom, False) for atom in ladder)
        else:
            false = {x: literal(row.value(emap, name, i), False) for x, i in zip(values, internal)}
        table[name] = _Values(values, frozenset(values), emap.lo, false, caps, lifts)
    return table


def _seeds(table: dict[str, _Values], state: DomainState) -> list:
    """The literals of ``table`` that express a state: removal is relative
    to the initial domains.  Raises ValueError on a state that is not over
    the instance's variables and values, or that leaves a variable with no
    value: express that as a conflict, not a seed."""
    domains = state.domains
    if domains.keys() != table.keys():
        raise ValueError("state does not cover exactly the instance variables")
    seeds = []
    empty = None
    for name, var in table.items():
        vals = domains[name]
        if not var.allowed.issuperset(vals):
            extra = sorted(set(vals) - var.allowed)
            raise ValueError(f"state of {name} contains undeclared values {extra}")
        if not vals:
            empty = empty or name
            continue
        if var.caps:
            # a raised least value x lifts v above x-1 and a lowered
            # greatest one caps v at x; the domain rules pin the initial ends
            if vals[0] != var.values[0]:
                seeds.append(var.lifts[vals[0] - var.first - 1])
            if vals[-1] != var.values[-1]:
                seeds.append(var.caps[vals[-1] - var.first])
        elif len(vals) < len(var.values):
            seeds += map(var.false.__getitem__, var.allowed.difference(vals))
    if empty is not None:
        raise ValueError(f"variable {empty} has an empty current domain")
    return seeds


def _read(table: dict[str, _Values], holds: Callable, domains=None) -> DomainState:
    """The values of ``domains`` (by default the initial ones) that the
    literals for which ``holds`` is true leave.  A false value atom
    removes its value; under order the least true "v <= i" caps v at i
    and the greatest false one lifts v above i."""
    out = {}
    for name, var in table.items():
        vals = var.values if domains is None else domains[name]
        if var.caps:
            cap = bytes(map(holds, var.caps)).find(1)
            lift = bytes(map(holds, var.lifts)).rfind(1)
            lo = bisect_left(vals, var.first + lift + 1)
            hi = bisect_right(vals, var.first + cap) if cap >= 0 else len(vals)
            out[name] = vals[lo:hi]
        else:
            false = var.false
            out[name] = tuple([x for x in vals if not holds(false[x])])
    return DomainState(out)


def seed_assignment(enc: Encoding, state: DomainState) -> list[SignedLiteral]:
    """Literals expressing a pruned domain state, ready to seed a trail:
    the literal-level form of what ``EncodingPropagator`` seeds."""
    return _seeds(enc.value_table, state)


def pruned_domains(enc: Encoding, assignment) -> DomainState:
    """Read a (partial) assignment back as pruned initial domains: the
    literal-level form of what ``EncodingPropagator`` reads back."""
    return _read(enc.value_table, set(assignment).__contains__)


def decode(enc: Encoding, assignment) -> dict[str, int]:
    """Extract the CSP solution from a total assignment.

    The assignment is read like ``pruned_domains`` reads one, closed-world:
    every atom it does not make true is false.  Raises ValueError, naming
    the variable, unless exactly one value is left for it.  On a model of
    the encoding's own program that would mean the encoding is broken, so
    it fails loudly.
    """
    true = {lit.entity for lit in assignment if lit.truth}
    read = _read(enc.value_table, lambda s: (s.entity in true) == s.truth)
    solution = {}
    for name, vals in read.domains.items():
        if len(vals) != 1:
            raise ValueError(f"assignment determines {len(vals)} values for variable {name}")
        solution[name] = vals[0]
    return solution


def run(target: Encoding | GroundProgram, timeout_s=None, limit=1):
    """Complete a program, search it and read back up to ``limit`` models.

    Returns ``(status, answers, stats, sizes)``.  The status is UNKNOWN
    when the time budget ran out, else SAT or UNSAT by whether a model
    was found; ``limit`` None means all models.  On an ``Encoding`` its
    program is solved, each answer is a model decoded and checked against
    the instance, and a model that decodes to a non-solution raises
    ValueError instead of being reported.  On a bare ``GroundProgram`` an
    answer lists the program's true atoms in program order.  ``sizes``
    counts the completed store before the search adds nogoods to it, the
    atoms it substituted (``aliases``) and its unit nogoods (``fixed``):
    one per entity that root propagation fixes, unless the root conflicts.
    """
    enc = target if isinstance(target, Encoding) else None
    program = target if enc is None else enc.program
    store = completion_nogoods(program)
    sizes = {
        "entities": store.n_entities,
        "bodies": sum(isinstance(e, BodyId) for e in store.entities),
        "nogoods": store.n_static,
        "cardinalities": len(store.cardinalities),
        "aliases": len(store.aliases),
        "fixed": len(store.units),
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

    The program is completed once, and completion folds its root
    fixpoint into the store, so the one trail kept here only applies the
    store's unit nogoods at level 0.  The encoding's value table is built
    once too, on literal codes.  Each propagate() call seeds its state's
    codes at level 1 above that root, propagates, reads the pruned
    domains straight off the trail and backjumps to the root.
    """

    def __init__(self, enc: Encoding):
        self.store = completion_nogoods(enc.program)
        self.trail = Trail(self.store)
        self.root_conflict = unit_propagate(self.store, self.trail) is not None
        self._values = _value_table(enc, self._code)

    def _code(self, atom: Atom, truth: bool) -> int:
        code = self.store.code(SignedLiteral(atom, truth))
        if code >= len(self.trail.lit):
            raise RuntimeError(f"value atom {atom!r} is not in the completed program")
        return code

    def propagate(self, state: DomainState) -> DomainState | None:
        """UP fixpoint from the state's seed, within the state; None
        signals a conflict, and so does a readback that leaves a variable
        with no value."""
        seeds = _seeds(self._values, state)
        if self.root_conflict:
            return None
        trail = self.trail
        lit = trail.lit
        trail.new_level()
        try:
            for code in seeds:
                if lit[code ^ 1]:
                    return None
                if not lit[code]:
                    trail.assign(code, None)
            if unit_propagate(self.store, trail) is not None:
                return None
            out = _read(self._values, lit.__getitem__, state.domains)
            return None if out.is_inconsistent() else out
        finally:
            trail.backjump(0)
