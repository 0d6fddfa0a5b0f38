"""Ground logic programs: rules, tightness, completion, the text format.

The fragment kept here is exactly what the encodings need: facts and
normal rules, choice rules, integrity rules, and upper-bound cardinality
integrity rules.  Everything is fully ground.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

from .propagation import BodyId, NogoodStore
from .text import GROUND, INT, NAME, Tokens


class Atom(str):
    """Ground atom ``name`` or ``name(arg,...,arg)``, as that text.

    An atom is its canonical spelling, so atoms compare and hash as
    strings and nothing keeps them alive once no program holds them.
    Args are ints or bare names.
    """

    __slots__ = ()

    def __new__(cls, name: str, args: tuple = ()):
        if args:
            name = "%s(%s)" % (name, ",".join(map(str, args)))
        return super().__new__(cls, name)

    __repr__ = str.__str__

    @property
    def name(self) -> str:
        return self.partition("(")[0]


class Lit(NamedTuple):
    """Body literal: ``atom`` or ``not atom``."""

    atom: Atom
    positive: bool = True

    def __repr__(self):
        return self.atom if self.positive else "not " + self.atom


class LitTable:
    """One ``Lit`` per atom and sign, built on first use.

    The rules that hold a literal then share one object, so a program
    keeps as many literal objects as it has distinct literals, not one
    per occurrence.  The table lives as long as its keeper.
    """

    __slots__ = ("_pos", "_neg")

    def __init__(self):
        self._pos: dict[Atom, Lit] = {}
        self._neg: dict[Atom, Lit] = {}

    def pos(self, atom: Atom) -> Lit:
        lit = self._pos.get(atom)
        if lit is None:
            lit = self._pos[atom] = Lit(atom, True)
        return lit

    def neg(self, atom: Atom) -> Lit:
        lit = self._neg.get(atom)
        if lit is None:
            lit = self._neg[atom] = Lit(atom, False)
        return lit


@dataclass(frozen=True)
class NormalRule:
    """``head :- body`` (a fact when the body is empty)."""

    head: Atom
    body: tuple[Lit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True)
class ChoiceRule:
    """``{h1; ...; hn} :- body``: any subset of the heads may hold."""

    heads: tuple[Atom, ...]
    body: tuple[Lit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(self.heads))
        object.__setattr__(self, "body", tuple(self.body))
        if not self.heads:
            raise ValueError("choice rule needs at least one head atom")
        if len(set(self.heads)) != len(self.heads):
            raise ValueError("duplicate atom in choice head")


@dataclass(frozen=True)
class IntegrityRule:
    """``:- body``: the body must not hold in any solution."""

    body: tuple[Lit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True)
class CardinalityRule:
    """``:- bound {l1; ...; ln}``: fewer than ``bound`` may hold.

    A bound above the literal count can never be reached, so such a rule
    holds vacuously; ``make_cardinality`` drops it instead.
    """

    bound: int
    literals: tuple[Lit, ...]

    def __post_init__(self):
        object.__setattr__(self, "literals", tuple(self.literals))
        if self.bound < 1:
            raise ValueError("cardinality bound must be at least 1")
        if len(set(self.literals)) != len(self.literals):
            raise ValueError("duplicate literal in cardinality rule")


Rule = Union[NormalRule, ChoiceRule, IntegrityRule, CardinalityRule]


def make_cardinality(bound: int, literals) -> CardinalityRule | None:
    """``:- bound {literals}``, or None when vacuously satisfied."""
    literals = tuple(literals)
    if bound < 1:
        raise ValueError("cardinality bound must be at least 1")
    if bound > len(literals):
        return None
    return CardinalityRule(bound, literals)


def _rule_atoms(rule: Rule):
    if isinstance(rule, NormalRule):
        yield rule.head
        for lit in rule.body:
            yield lit.atom
    elif isinstance(rule, ChoiceRule):
        yield from rule.heads
        for lit in rule.body:
            yield lit.atom
    elif isinstance(rule, IntegrityRule):
        for lit in rule.body:
            yield lit.atom
    elif isinstance(rule, CardinalityRule):
        for lit in rule.literals:
            yield lit.atom
    else:
        raise TypeError(f"not a ground rule: {rule!r}")


class GroundProgram:
    """An immutable, ordered collection of ground rules."""

    def __init__(self, rules: Iterable[Rule] = ()):
        self.rules = tuple(rules)
        self._atoms: tuple[Atom, ...] | None = None

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def __eq__(self, other):
        return isinstance(other, GroundProgram) and self.rules == other.rules

    def __repr__(self):
        return f"GroundProgram({len(self.rules)} rules)"

    def atoms(self) -> tuple[Atom, ...]:
        """Every atom, in first-occurrence order (heads before bodies)."""
        if self._atoms is None:
            seen: dict[Atom, None] = {}
            for rule in self.rules:
                for atom in _rule_atoms(rule):
                    if atom not in seen:
                        seen[atom] = None
            self._atoms = tuple(seen)
        return self._atoms


# -- cardinality normalization ----------------------------------------------


def normalize_cardinality(program: GroundProgram) -> GroundProgram:
    """Prepare cardinality rules for completion: return ``program`` as it is.

    Completion hands each cardinality rule to the store's counting
    propagator, so no rule needs rewriting.  The stage keeps its name in
    the parse -> encode -> normalize -> complete chain: perfbench calls
    it, and ``cspasp.encoder`` imports it only so that perfbench's traced
    runs can rebind it there.  The clausal expansions that the tests
    check native counting against live in ``tests/oracles.py``.
    """
    return program


# -- tightness ----------------------------------------------------------------


def is_tight(program: GroundProgram) -> bool:
    """True iff the positive head-to-body dependency graph is acyclic."""
    graph: dict[Atom, set[Atom]] = {}
    for rule in program.rules:
        if isinstance(rule, NormalRule):
            heads: tuple[Atom, ...] = (rule.head,)
            body = rule.body
        elif isinstance(rule, ChoiceRule):
            heads = rule.heads
            body = rule.body
        else:
            continue
        positive = [lit.atom for lit in body if lit.positive]
        for head in heads:
            graph.setdefault(head, set()).update(positive)
    try:
        for _ in graphlib.TopologicalSorter(graph).static_order():
            pass
    except graphlib.CycleError:
        return False
    return True


# -- completion nogoods --------------------------------------------------------


def completion_nogoods(program: GroundProgram) -> NogoodStore:
    """Clark-style completion of a (tight) program as a nogood store.

    Entities are the program's atoms (in first-occurrence order, so they
    come first) followed by one BodyId per structurally distinct normal
    or choice body that no atom stands for.  An atom that heads exactly
    one normal rule and no choice rule is equivalent to that rule's body,
    so it becomes the body's entity when that body is new (equivalence
    preprocessing, Gebser et al., ECAI 2008); later rules over the same
    body use the atom.  Such a fact always becomes its own entity, as the
    empty body is true anyway, so every fact gets the unit {F a}.  Per
    body beta = {a1..am, not am+1..an}, with beta a BodyId or such an
    atom, the store receives

        {T a1, ..., T am, F am+1, ..., F an, F beta}
        {F ai, T beta}  for i <= m      {T aj, T beta}  for j > m

    with repeated literals merged, so ``a :- not a`` gives the units
    {F a} and {T a}.  Every other atom a, with body entities
    beta1..betak (normal and choice), gets

        {T a, F beta1, ..., F betak}

    plus {T beta, F a} for each *normal* body, since only normal rules
    force their head.  Atoms that head no rule at all end up with the
    unit {T a}.  An integrity rule ``:- B`` gives the one nogood B; only
    ``:- .``, with no literal to put in it, interns the empty body beta
    and gets {T beta}.  A cardinality rule ``:- k {l1..ln}`` becomes the
    store's cardinality constraint over the literals' codes (see
    ``add_cardinality``).

    Completion characterizes answer sets only for tight programs, so a
    program that is not tight is rejected.
    """
    if not is_tight(program):
        raise ValueError("program is not tight; completion would be unsound")

    store = NogoodStore()
    atoms = program.atoms()
    atom_idx = {a: store.intern(a) for a in atoms}
    n_normal: dict[Atom, int] = {}
    choice_heads: set[Atom] = set()
    for rule in program.rules:
        if isinstance(rule, NormalRule):
            n_normal[rule.head] = n_normal.get(rule.head, 0) + 1
        elif isinstance(rule, ChoiceRule):
            choice_heads.update(rule.heads)

    body_ids: dict[frozenset, int] = {}  # frozenset of lit codes -> entity index
    normal_bodies: dict[Atom, list[int]] = {}
    choice_bodies: dict[Atom, list[int]] = {}
    add = store.add_static_codes

    def body_codes(body: tuple[Lit, ...]) -> list[int]:
        return sorted({2 * atom_idx[l.atom] + (0 if l.positive else 1) for l in body})

    def intern_body(body: tuple[Lit, ...], head: Atom | None = None) -> int:
        """The body's entity: ``head``'s own if given and the body is new
        or empty."""
        lit_codes = body_codes(body)
        key = frozenset(lit_codes)
        bidx = body_ids.get(key)
        if bidx is not None and (head is None or key):
            return bidx
        if head is None:
            bidx = store.intern(BodyId(store.n_entities - len(atoms)))
        else:
            bidx = atom_idx[head]
        body_ids.setdefault(key, bidx)
        fb = 2 * bidx + 1
        tb = 2 * bidx
        add(sorted(key | {fb}))
        for lc in lit_codes:
            # complement of the body literal together with T beta
            add(sorted({lc ^ 1, tb}))
        return bidx

    for rule in program.rules:
        if isinstance(rule, NormalRule):
            head = rule.head
            own = n_normal[head] == 1 and head not in choice_heads
            bidx = intern_body(rule.body, head if own else None)
            normal_bodies.setdefault(head, []).append(bidx)
        elif isinstance(rule, ChoiceRule):
            bidx = intern_body(rule.body)
            for head in rule.heads:
                choice_bodies.setdefault(head, []).append(bidx)
        elif isinstance(rule, IntegrityRule):
            if rule.body:
                add(body_codes(rule.body))
            else:
                add([2 * intern_body(())])
        elif isinstance(rule, CardinalityRule):
            store.add_cardinality(rule.bound, body_codes(rule.literals))
        else:
            raise TypeError(f"not a ground rule: {rule!r}")

    for atom in atoms:
        aidx = atom_idx[atom]
        normal = normal_bodies.get(atom, [])
        if normal == [aidx]:
            continue  # the atom is its body: the body's nogoods define it
        support = {2 * bidx + 1 for bidx in normal}
        support.update(2 * bidx + 1 for bidx in choice_bodies.get(atom, ()))
        add(sorted(support | {2 * aidx}))
        for bidx in sorted(set(normal)):
            add(sorted((2 * bidx, 2 * aidx + 1)))
    return store


# -- text format ---------------------------------------------------------------


def emit_ground(program: GroundProgram) -> str:
    """Serialize to the line-oriented ground format (one statement each)."""
    lines = [_emit_rule(rule) for rule in program.rules]
    return "\n".join(lines) + ("\n" if lines else "")


def _emit_rule(rule: Rule) -> str:
    if isinstance(rule, NormalRule):
        if rule.body:
            return "%s :- %s." % (rule.head, _emit_body(rule.body))
        return rule.head + "."
    if isinstance(rule, ChoiceRule):
        heads = "; ".join(rule.heads)
        if rule.body:
            return "{%s} :- %s." % (heads, _emit_body(rule.body))
        return "{%s}." % heads
    if isinstance(rule, IntegrityRule):
        if rule.body:
            return ":- %s." % _emit_body(rule.body)
        return ":- ."
    if isinstance(rule, CardinalityRule):
        return ":- %d {%s}." % (rule.bound, "; ".join(map(repr, rule.literals)))
    raise TypeError(f"not a ground rule: {rule!r}")


def _emit_body(body) -> str:
    return ", ".join(map(repr, body))


def parse_ground(text: str) -> GroundProgram:
    """Parse the ground text format; ``%`` comments and blank lines skipped.

    Each atom token becomes an ``Atom`` through a table keyed by the
    token's text, so each spelling of an atom is built once per call, and
    each literal a ``Lit`` from one ``LitTable`` per call.
    """
    toks = Tokens(text, GROUND)
    atoms: dict[str, Atom] = {}
    lits = LitTable()
    rules: list[Rule] = []
    for _ in toks.statements():
        rules.append(_parse_statement(toks, atoms, lits))
        toks.expect(".")
    return GroundProgram(rules)


def _parse_statement(toks: Tokens, atoms: dict, lits: LitTable) -> Rule:
    """One rule, read up to its closing ``.``."""
    tok = toks.peek()
    if tok == "{":
        toks.next()
        heads = [_parse_atom(toks, atoms)]
        while toks.peek() == ";":
            toks.next()
            heads.append(_parse_atom(toks, atoms))
        toks.expect("}")
        body: tuple[Lit, ...] = ()
        if toks.peek() == ":-":
            toks.next()
            body = _parse_body(toks, atoms, lits)
        return toks.build(ChoiceRule, tuple(heads), body)
    if tok == ":-":
        toks.next()
        nxt = toks.peek()
        if nxt == ".":
            return IntegrityRule(())
        if nxt is not None and INT.match(nxt):
            bound = int(toks.next())
            toks.expect("{")
            card = [_parse_literal(toks, atoms, lits)]
            while toks.peek() == ";":
                toks.next()
                card.append(_parse_literal(toks, atoms, lits))
            toks.expect("}")
            return toks.build(CardinalityRule, bound, tuple(card))
        return IntegrityRule(_parse_body(toks, atoms, lits))
    head = _parse_atom(toks, atoms)
    if toks.peek() == ":-":
        toks.next()
        return NormalRule(head, _parse_body(toks, atoms, lits))
    return NormalRule(head, ())


def _parse_body(toks: Tokens, atoms: dict, lits: LitTable) -> tuple[Lit, ...]:
    body = [_parse_literal(toks, atoms, lits)]
    while toks.peek() == ",":
        toks.next()
        body.append(_parse_literal(toks, atoms, lits))
    return tuple(body)


def _parse_literal(toks: Tokens, atoms: dict, lits: LitTable) -> Lit:
    if toks.peek() == "not":
        toks.next()
        return lits.neg(_parse_atom(toks, atoms))
    return lits.pos(_parse_atom(toks, atoms))


def _parse_atom(toks: Tokens, atoms: dict) -> Atom:
    tok = toks.next()
    atom = atoms.get(tok)
    if atom is None:
        atom = atoms[tok] = _new_atom(toks, tok)
    return atom


def _new_atom(toks: Tokens, tok: str) -> Atom:
    """The atom that ``tok``, the token read last, spells: its text without
    blanks and with each integer argument written as ``str(int(arg))``."""
    name, _, args = "".join(tok.split()).partition("(")
    if not NAME.match(name) or name == "not":  # punctuation and integers
        raise toks.error_at_last(f"expected atom name, found {tok!r}")
    if tok[-1] == "(":
        raise _bad_arguments(toks)
    args = args[:-1].split(",") if args else ()
    return Atom(name, tuple(arg if NAME.match(arg) else int(arg) for arg in args))


def _bad_arguments(toks: Tokens) -> ValueError:
    """The error for a ``name(`` token, read last, whose argument list the
    lexer could not close: placed at the first token that breaks it."""
    while True:
        tok = toks.next()
        if not (INT.match(tok) or NAME.match(tok)):
            return toks.error_at_last(f"bad atom argument {tok!r}")
        if toks.peek() != ",":
            # never ")", as a closed list lexes as part of the atom token
            return toks.error_here(f"expected ')', found {toks.peek()!r}")
        toks.next()
