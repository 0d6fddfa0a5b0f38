"""Ground logic programs: rules, tightness, completion, the text format.

The fragment kept here is exactly what the encodings need: facts and
normal rules, choice rules, integrity rules, and upper-bound cardinality
integrity rules.  Everything is fully ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

from .propagation import BodyId, NogoodStore, Trail, unit_propagate
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


@dataclass(frozen=True, slots=True)
class NormalRule:
    """``head :- body`` (a fact when the body is empty)."""

    head: Atom
    body: tuple[Lit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class IntegrityRule:
    """``:- body``: the body must not hold in any solution."""

    body: tuple[Lit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True, slots=True)
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
    if bound > len(literals):
        return None
    return CardinalityRule(bound, literals)


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
            seen: dict[Atom, None] = {}  # a key set again keeps its first place
            for rule in self.rules:
                if isinstance(rule, IntegrityRule):
                    body = rule.body
                elif isinstance(rule, NormalRule):
                    seen[rule.head] = None
                    body = rule.body
                elif isinstance(rule, ChoiceRule):
                    seen.update(dict.fromkeys(rule.heads))
                    body = rule.body
                elif isinstance(rule, CardinalityRule):
                    body = rule.literals
                else:
                    raise TypeError(f"not a ground rule: {rule!r}")
                for lit in body:
                    seen[lit.atom] = None
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


def _depend(succ: dict[Atom, list[Atom]], heads, body) -> None:
    """Add the edges from each head to the body's positive atoms."""
    positive = [lit.atom for lit in body if lit.positive]
    if positive:
        for head in heads:
            succ.setdefault(head, []).extend(positive)


def _acyclic(succ: dict[Atom, list[Atom]]) -> bool:
    """Kahn's algorithm on the graph with an edge a -> b per b in succ[a].

    Only an atom with an edge out can lie on a cycle, so the graph is
    cut down to the keys of ``succ``; it is acyclic iff peeling off the
    atoms that no edge enters, one at a time, peels them all.
    """
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for b in targets:
            if b in indegree:
                indegree[b] += 1
    free = [a for a, n in indegree.items() if not n]
    left = len(indegree)
    while free:
        left -= 1
        for b in succ[free.pop()]:
            if b in indegree:
                indegree[b] -= 1
                if not indegree[b]:
                    free.append(b)
    return not left


# -- completion nogoods --------------------------------------------------------


def _substitutes(defined: dict[Atom, Lit]) -> dict[Atom, Lit]:
    """The literal that each atom of ``defined`` equals, over an atom that
    stays: ``defined`` maps an atom to the one literal of its one rule.

    A chain resolves to its end.  A loop through the definitions keeps
    one atom: an even loop keeps the first of its atoms that a walk along
    the definitions, begun in rule order, comes to, and the others
    become literals over that atom.  Every atom of an odd loop
    (a == not a) stays, and so does its definition.
    """
    out: dict[Atom, Lit] = {}
    stays: set[Atom] = set()
    for atom in defined:
        path: list[Atom] = []
        place: dict[Atom, int] = {}
        while atom in defined and atom not in out and atom not in stays:
            if atom in place:
                loop = path[place[atom]:]
                if sum(not defined[a].positive for a in loop) % 2:
                    stays.update(loop)
                    del path[place[atom]:]
                else:
                    stays.add(path.pop(place[atom]))
                break
            place[atom] = len(path)
            path.append(atom)
            atom = defined[atom].atom
        for a in reversed(path):
            lit = defined[a]
            end = out.get(lit.atom)
            if end is not None:
                lit = end if lit.positive else Lit(end.atom, not end.positive)
            out[a] = lit
    return out


def _clashes(codes) -> bool:
    """Whether distinct codes hold a literal and its complement: two codes
    of one entity."""
    return len({c >> 1 for c in codes}) < len(codes)


def completion_nogoods(program: GroundProgram) -> NogoodStore:
    """Clark-style completion of a (tight) program as a nogood store.

    First, an atom that heads exactly one normal rule, heads no choice
    rule, and whose rule's body is one literal l is equivalent to l, so
    it becomes l (equivalence preprocessing, Gebser et al., ECAI 2008):
    it gets no entity and no nogoods of its own, and every rule that
    mentions it uses l's code.  A chain of such atoms resolves to its
    end.  An even loop through negation, such as ``a :- not b.`` with
    ``b :- not a.``, keeps one of its atoms, whose rule then reads
    ``a :- a`` and constrains nothing; an odd loop (a == not a) is
    completed as it is written.  Each substituted atom is an alias of
    the store (see ``NogoodStore``), so ``store.code`` and
    ``Trail.assignment`` still name every atom of the program.

    Entities are the atoms that stay (in first-occurrence order, so they
    come first) followed by one BodyId per distinct normal or choice
    body, as a set of literal codes, that no atom stands for.  An atom
    that stays and heads exactly one normal rule and no choice rule is
    equivalent to that rule's body, so it becomes the body's entity when
    that body is new; later rules over the same body use the atom.  The
    empty body of a fact or a choice rule always holds, so it gets no
    entity: a fact ``a.`` gives the unit {F a}, and the heads of
    ``{h1; ...; hn}.`` need no support.  Per non-empty body
    beta = {a1..am, not am+1..an}, with beta a BodyId or such an atom,
    the store receives

        {T a1, ..., T am, F am+1, ..., F an, F beta}
        {F ai, T beta}  for i <= m      {T aj, T beta}  for j > m

    with repeated literals merged, so ``a :- not a`` gives the units
    {F a} and {T a}.  Every other atom a, with body entities
    beta1..betak (normal and choice), gets {T beta, F a} for each
    *normal* body, since only normal rules force their head, and, unless
    it heads a rule with the empty body, the support nogood

        {T a, F beta1, ..., F betak}

    Atoms that head no rule at all end up with the unit {T a}.  An
    integrity rule ``:- B`` gives the one nogood B; only ``:- .``, with
    no literal to put in it, interns the empty body as a BodyId beta,
    which gets {F beta} and {T beta}.  A cardinality rule
    ``:- 1 {l1..ln}`` gives a unit {li} per literal; with k >= 2 it becomes
    the store's cardinality constraint over the literals' codes, two
    literals that became one counted twice (see ``add_cardinality``).
    Once atoms are substituted, a nogood that holds a literal and its
    complement can never fire and is dropped; each other nogood is
    installed once, where it first occurs, and so is each cardinality
    constraint, by its bound and sorted codes (two all-different
    constraints over one scope in two orders post the same ones).

    Last, the store is propagated once at level 0, and unless that
    conflicts or fixes nothing, ``NogoodStore.fold_root`` folds the
    fixpoint into it, as MiniSat drops the clauses that hold at level 0
    (Eén & Sörensson, SAT 2003): one unit nogood per fixed entity, in
    propagation order, stands for every root consequence; a nogood with
    a literal the root falsifies is dropped and the others lose the
    literals it makes true; a cardinality constraint loses its fixed
    literals, its bound lowered by those that hold, and is dropped once
    it can no longer fire.  Entities, aliases and their codes stay, and
    propagation from any assignment above the root reaches the same
    closure as before the fold.  A store whose root conflicts is
    returned as built; the search refutes it without a decision.

    Completion characterizes answer sets only for tight programs, so a
    program that is not tight is rejected.
    """
    store = _complete(program)
    trail = Trail(store)
    if unit_propagate(store, trail) is None and trail.codes:
        store.fold_root(trail)
    return store


def _complete(program: GroundProgram) -> NogoodStore:
    """The store of ``completion_nogoods`` before the root fold; its
    working tables go when it returns, before the fold allocates."""
    n_normal: dict[Atom, int] = {}
    choice_heads: set[Atom] = set()
    single: dict[Atom, Lit] = {}  # head -> the body of a one-literal rule
    succ: dict[Atom, list[Atom]] = {}  # positive dependencies
    for rule in program.rules:
        if isinstance(rule, NormalRule):
            head = rule.head
            n_normal[head] = n_normal.get(head, 0) + 1
            if len(rule.body) == 1:
                single[head] = rule.body[0]
            _depend(succ, (head,), rule.body)
        elif isinstance(rule, ChoiceRule):
            choice_heads.update(rule.heads)
            _depend(succ, rule.heads, rule.body)
    if not _acyclic(succ):
        raise ValueError("program is not tight; completion would be unsound")
    alias = _substitutes({
        head: lit for head, lit in single.items()
        if n_normal[head] == 1 and head not in choice_heads
    })

    store = NogoodStore()
    atoms = program.atoms()
    code: dict[Atom, int] = {}  # atom -> the code of "T atom"
    for atom in atoms:
        if atom not in alias:
            code[atom] = 2 * store.intern(atom)
    n_atoms = store.n_entities
    if alias:
        for atom in atoms:
            lit = alias.get(atom)
            if lit is not None:
                code[atom] = store.aliases[atom] = code[lit.atom] ^ (not lit.positive)

    body_ids: dict[tuple[int, ...], int] = {}  # sorted lit codes -> entity index
    normal_bodies: dict[Atom, list[int]] = {}
    choice_bodies: dict[Atom, list[int]] = {}
    supported: set[Atom] = set()  # heads of a rule with the empty body
    installed: dict[tuple[int, ...], None] = {}  # a dict peaks lower than a set
    cards: dict[tuple[int, tuple[int, ...]], None] = {}  # (bound, sorted codes)

    def add(codes: list[int]) -> None:
        key = tuple(codes)
        if key not in installed:
            installed[key] = None
            store.add_codes(codes, False)

    def body_codes(body: tuple[Lit, ...]) -> list[int]:
        return sorted({code[l.atom] ^ (not l.positive) for l in body})

    def intern_body(body: tuple[Lit, ...], head: Atom | None = None) -> int:
        """The body's entity: ``head``'s own if given and the body is new."""
        lit_codes = body_codes(body)
        key = tuple(lit_codes)
        bidx = body_ids.get(key)
        if bidx is not None:
            return bidx
        if head is None:
            bidx = store.intern(BodyId(store.n_entities - n_atoms))
        else:
            bidx = code[head] >> 1
        body_ids[key] = bidx
        fb = 2 * bidx + 1
        tb = 2 * bidx
        if tb not in key and not (alias and _clashes(key)):
            add(sorted({*key, fb}))
        for lc in lit_codes:
            if lc != tb:
                # complement of the body literal together with T beta
                add(sorted({lc ^ 1, tb}))
        return bidx

    for rule in program.rules:
        if isinstance(rule, NormalRule) and not rule.body:
            supported.add(rule.head)
            add([code[rule.head] ^ 1])
        elif isinstance(rule, ChoiceRule) and not rule.body:
            supported.update(rule.heads)
        elif isinstance(rule, NormalRule):
            head = rule.head
            if head in alias:
                continue  # the substitution is its completion
            own = n_normal[head] == 1 and head not in choice_heads
            bidx = intern_body(rule.body, head if own else None)
            normal_bodies.setdefault(head, []).append(bidx)
        elif isinstance(rule, ChoiceRule):
            bidx = intern_body(rule.body)
            for head in rule.heads:
                choice_bodies.setdefault(head, []).append(bidx)
        elif isinstance(rule, IntegrityRule):
            if rule.body:
                lit_codes = body_codes(rule.body)
                if not (alias and _clashes(lit_codes)):
                    add(lit_codes)
            else:
                add([2 * intern_body(())])
        elif isinstance(rule, CardinalityRule) and rule.bound == 1:
            for lc in body_codes(rule.literals):
                add([lc])
        elif isinstance(rule, CardinalityRule):
            lit_codes = sorted(code[l.atom] ^ (not l.positive) for l in rule.literals)
            key = (rule.bound, tuple(lit_codes))
            if key not in cards:
                cards[key] = None
                store.add_cardinality(*key)
        else:
            raise TypeError(f"not a ground rule: {rule!r}")

    for aidx, atom in enumerate(store.entities[:n_atoms]):
        normal = normal_bodies.get(atom, [])
        if normal == [aidx]:
            continue  # the atom is its body: the body's nogoods define it
        if atom not in supported:
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
