"""Ground logic programs: rules, normalization, semantics, completion.

The fragment kept here is exactly what the encodings need: facts and
normal rules, choice rules, integrity rules, and upper-bound cardinality
integrity rules.  Everything is fully ground.
"""

from __future__ import annotations

import graphlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

from .errors import CapExceeded
from .propagation import BodyId, NogoodStore
from .text import ATOM_PARTS, GROUND, INT, NAME, Tokens

BINOMIAL_CAP = 10 ** 6


class Atom:
    """Interned ground atom: ``name`` or ``name(arg, ...)``.

    Atoms are pooled on (name, args), so equality is identity and the
    default hash applies.  Args are ints or bare names.
    """

    __slots__ = ("name", "args")
    _pool: dict = {}

    def __new__(cls, name: str, args: tuple = ()):
        args = tuple(args)
        atom = cls._pool.get((name, args))
        if atom is None:
            atom = super().__new__(cls)
            atom.name = name
            atom.args = args
            cls._pool[(name, args)] = atom
        return atom

    def __repr__(self):
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ",".join(str(a) for a in self.args))


class Lit(NamedTuple):
    """Body literal: ``atom`` or ``not atom``."""

    atom: Atom
    positive: bool = True

    def __repr__(self):
        return repr(self.atom) if self.positive else "not " + repr(self.atom)


def pos(atom: Atom) -> Lit:
    return Lit(atom, True)


def neg(atom: Atom) -> Lit:
    return Lit(atom, False)


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
    """``:- bound {l1; ...; ln}``: fewer than ``bound`` may hold."""

    bound: int
    literals: tuple[Lit, ...]

    def __post_init__(self):
        object.__setattr__(self, "literals", tuple(self.literals))
        if self.bound < 1:
            raise ValueError("cardinality bound must be at least 1")
        if len(set(self.literals)) != len(self.literals):
            raise ValueError("duplicate literal in cardinality rule")
        if self.bound > len(self.literals):
            raise ValueError(
                "vacuous cardinality rule (bound exceeds literal count); "
                "build these through make_cardinality, which drops them"
            )


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


def normalize_cardinality(program: GroundProgram, method: str = "native") -> GroundProgram:
    """Prepare cardinality rules for completion under ``method``.

    ``native`` returns the program as it is: completion hands each
    cardinality rule to the store's counting propagator, the one path the
    library ships.  ``counter`` expands every rule into the usual O(n*k)
    counting ladder over fresh ``_cnt`` atoms; ``binomial`` posts one
    integrity rule per k-subset (capped, since that count explodes).  The
    two expansions are references that tests check native counting
    against; solutions projected to the original atoms agree among the
    three.
    """
    if method == "native":
        return program
    if method not in ("counter", "binomial"):
        raise ValueError(f"unknown normalization method: {method!r}")
    out: list[Rule] = []
    for ridx, rule in enumerate(program.rules):
        if not isinstance(rule, CardinalityRule):
            out.append(rule)
            continue
        if method == "binomial":
            out.extend(_binomial_rules(rule))
        else:
            out.extend(_counter_rules(ridx, rule))
    return GroundProgram(out)


def _binomial_rules(rule: CardinalityRule):
    n, k = len(rule.literals), rule.bound
    count = math.comb(n, k)
    if count > BINOMIAL_CAP:
        raise CapExceeded(
            f"binomial normalization needs {count} rules (cap {BINOMIAL_CAP})"
        )
    return [IntegrityRule(subset) for subset in itertools.combinations(rule.literals, k)]


def _counter_rules(ridx: int, rule: CardinalityRule):
    """Counting ladder: _cnt(r,i,j) reads "at least j of literals i.. hold"."""
    lits = rule.literals
    n, k = len(lits), rule.bound

    def cnt(i, j):
        return Atom("_cnt", (ridx, i, j))

    rules: list[Rule] = []
    for i in range(1, n + 1):
        rules.append(NormalRule(cnt(i, 1), (lits[i - 1],)))
    for i in range(1, n):
        for j in range(1, k + 1):
            rules.append(NormalRule(cnt(i, j), (pos(cnt(i + 1, j)),)))
        for j in range(1, k):
            rules.append(NormalRule(cnt(i, j + 1), (lits[i - 1], pos(cnt(i + 1, j)))))
    rules.append(IntegrityRule((pos(cnt(1, k)),)))
    return rules


# -- semantics ----------------------------------------------------------------


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


def reduct(program: GroundProgram, true_atoms: set) -> GroundProgram:
    """The reduct w.r.t. a candidate set of true atoms.

    Rules whose negative body intersects the candidate are dropped; the
    survivors keep only their positive body.  Choice and cardinality
    rules must be expanded/normalized away first.
    """
    out: list[Rule] = []
    for rule in program.rules:
        if isinstance(rule, NormalRule):
            if any(lit.atom in true_atoms for lit in rule.body if not lit.positive):
                continue
            out.append(NormalRule(rule.head, tuple(l for l in rule.body if l.positive)))
        elif isinstance(rule, IntegrityRule):
            if any(lit.atom in true_atoms for lit in rule.body if not lit.positive):
                continue
            out.append(IntegrityRule(tuple(l for l in rule.body if l.positive)))
        else:
            raise TypeError("reduct is defined on normal/integrity rules only")
    return GroundProgram(out)


def least_model(program: GroundProgram) -> set:
    """Least model of a positive program (integrity rules are ignored)."""
    rules = []
    for r in program.rules:
        if isinstance(r, NormalRule):
            if any(not lit.positive for lit in r.body):
                raise ValueError("least_model expects a positive program")
            rules.append(r)
    model: set = set()
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.head not in model and all(lit.atom in model for lit in r.body):
                model.add(r.head)
                changed = True
    return model


def expand_choices(program: GroundProgram) -> GroundProgram:
    """Rewrite choice rules using fresh complement atoms.

    ``{h} :- B`` becomes ``h :- B, not _ch(r,i)`` plus ``_ch(r,i) :- not h``,
    which is what gives a choice head its either-way stability.
    """
    out: list[Rule] = []
    for ridx, rule in enumerate(program.rules):
        if not isinstance(rule, ChoiceRule):
            out.append(rule)
            continue
        for hidx, head in enumerate(rule.heads):
            comp = Atom("_ch", (ridx, hidx))
            out.append(NormalRule(head, rule.body + (neg(comp),)))
            out.append(NormalRule(comp, (neg(head),)))
    return GroundProgram(out)


def is_answer_set(program: GroundProgram, candidate) -> bool:
    """Reduct-and-least-model test.

    ``candidate`` lists the source atoms only; the complement atoms
    introduced for choice rules are filled in automatically.  A
    cardinality rule, being a constraint, is checked by counting its
    literals that hold in the candidate and is then left out of the
    reduct.
    """
    X = set(candidate)
    rules = []
    for rule in program.rules:
        if isinstance(rule, CardinalityRule):
            held = sum((lit.atom in X) == lit.positive for lit in rule.literals)
            if held >= rule.bound:
                return False
        else:
            rules.append(rule)
    program = GroundProgram(rules)
    expanded = expand_choices(program)
    for ridx, rule in enumerate(program.rules):
        if isinstance(rule, ChoiceRule):
            for hidx, head in enumerate(rule.heads):
                if head not in X:
                    X.add(Atom("_ch", (ridx, hidx)))
    red = reduct(expanded, X)
    for rule in red.rules:
        if isinstance(rule, IntegrityRule) and all(l.atom in X for l in rule.body):
            return False
    return least_model(red) == X


def brute_force_answer_sets(program: GroundProgram, guess_atoms=None, cap: int = 1 << 22):
    """All answer sets by exhaustive enumeration; oracle use only.

    Enumerates subsets of ``guess_atoms`` (default: every atom of the
    program) and keeps the ones passing is_answer_set.  Atoms outside
    the guess set are treated as false, so only restrict the guesses
    when the rest genuinely cannot occur in an answer set.
    """
    if guess_atoms is None:
        guess_atoms = program.atoms()
    guess_atoms = tuple(guess_atoms)
    if 2 ** len(guess_atoms) > cap:
        raise CapExceeded(f"2^{len(guess_atoms)} candidates exceed the cap")
    found = []
    for bits in range(2 ** len(guess_atoms)):
        X = frozenset(a for i, a in enumerate(guess_atoms) if bits >> i & 1)
        if is_answer_set(program, X):
            found.append(X)
    return found


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
            return "%r :- %s." % (rule.head, _emit_body(rule.body))
        return "%r." % (rule.head,)
    if isinstance(rule, ChoiceRule):
        heads = "; ".join(repr(h) for h in rule.heads)
        if rule.body:
            return "{%s} :- %s." % (heads, _emit_body(rule.body))
        return "{%s}." % heads
    if isinstance(rule, IntegrityRule):
        if rule.body:
            return ":- %s." % _emit_body(rule.body)
        return ":- ."
    if isinstance(rule, CardinalityRule):
        lits = "; ".join(repr(l) for l in rule.literals)
        return ":- %d {%s}." % (rule.bound, lits)
    raise TypeError(f"not a ground rule: {rule!r}")


def _emit_body(body) -> str:
    return ", ".join(repr(l) for l in body)


def parse_ground(text: str) -> GroundProgram:
    """Parse the ground text format; ``%`` comments and blank lines skipped.

    Each atom token becomes an ``Atom`` through a table keyed by the
    token's text, so each spelling of an atom is built once per call.
    """
    toks = Tokens(text, GROUND)
    atoms: dict[str, Atom] = {}
    rules: list[Rule] = []
    for _ in toks.statements():
        rules.append(_parse_statement(toks, atoms))
        toks.expect(".")
    return GroundProgram(rules)


def _parse_statement(toks: Tokens, atoms: dict) -> Rule:
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
            body = _parse_body(toks, atoms)
        return toks.build(ChoiceRule, tuple(heads), body)
    if tok == ":-":
        toks.next()
        nxt = toks.peek()
        if nxt == ".":
            return IntegrityRule(())
        if nxt is not None and INT.match(nxt):
            bound = int(toks.next())
            toks.expect("{")
            lits = [_parse_literal(toks, atoms)]
            while toks.peek() == ";":
                toks.next()
                lits.append(_parse_literal(toks, atoms))
            toks.expect("}")
            return toks.build(CardinalityRule, bound, tuple(lits))
        return IntegrityRule(_parse_body(toks, atoms))
    head = _parse_atom(toks, atoms)
    if toks.peek() == ":-":
        toks.next()
        return NormalRule(head, _parse_body(toks, atoms))
    return NormalRule(head, ())


def _parse_body(toks: Tokens, atoms: dict) -> tuple[Lit, ...]:
    lits = [_parse_literal(toks, atoms)]
    while toks.peek() == ",":
        toks.next()
        lits.append(_parse_literal(toks, atoms))
    return tuple(lits)


def _parse_literal(toks: Tokens, atoms: dict) -> Lit:
    if toks.peek() == "not":
        toks.next()
        return Lit(_parse_atom(toks, atoms), False)
    return Lit(_parse_atom(toks, atoms), True)


def _parse_atom(toks: Tokens, atoms: dict) -> Atom:
    tok = toks.next()
    atom = atoms.get(tok)
    if atom is None:
        atom = atoms[tok] = _new_atom(toks, tok)
    return atom


def _new_atom(toks: Tokens, tok: str) -> Atom:
    """The atom that ``tok``, the token read last, spells."""
    parts = ATOM_PARTS.findall(tok)
    name = parts[0][1] if parts else ""  # empty for punctuation and integers
    if name in ("", "not"):
        raise toks.error_at_last(f"expected atom name, found {tok!r}")
    if tok[-1] == "(":
        raise _bad_arguments(toks)
    return Atom(name, tuple(int(i) if i else n for i, n in parts[1:]))


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
