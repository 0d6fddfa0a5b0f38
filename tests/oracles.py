"""Reference implementations the tests check the solver against.

Each one is written from its textbook definition and kept deliberately
naive: the solutions of a CSP by enumeration, the reduct-and-least-model
test for answer sets with a brute-force enumerator on top, a full-scan
unit propagation fixpoint, and the two clausal expansions of cardinality
rules.  The only names imported from ``cspasp`` are the data classes the
oracles read and build (``tests/test_oracles.py`` checks this); beyond
their fields the oracles use just ``GroundProgram.atoms`` and
``CspInstance.effective_domain``, so an oracle cannot share a bug with the
solver, the encodings or ``check_solution``.
"""

from __future__ import annotations

import itertools
import math

from cspasp import (
    Atom,
    CapExceeded,
    CardinalityRule,
    ChoiceRule,
    GroundProgram,
    IntegrityRule,
    Lit,
    NormalRule,
    SignedLiteral,
)

BINOMIAL_CAP = 10 ** 6
ENUMERATION_CAP = 10 ** 7


# -- CSP solutions -----------------------------------------------------------------


def enumerate_solutions(instance, limit=None, cap: int = ENUMERATION_CAP) -> list[dict]:
    """All solutions of a CSP instance by brute force.

    Candidates are the product of the effective domains (declared domains
    narrowed by pre-assignments), variables in declaration order, and the
    solutions come back in that order.  The constraint semantics are
    restated here rather than taken from ``check_solution``: the scope of
    an all-different or a permutation takes distinct values (the values
    of a permutation's domains are as many as its variables, so distinct
    values cover them), and a table holds when its tuple is listed exactly
    if the table lists the allowed tuples.
    """
    names = [decl.name for decl in instance.variables]
    domains = [instance.effective_domain(name) for name in names]
    total = math.prod(len(d) for d in domains)
    if total > cap:
        raise CapExceeded(f"{total} candidate assignments exceed the cap {cap}")
    checks = [
        (
            [names.index(v) for v in c.scope],
            frozenset(c.tuples) if c.kind == "table" else None,
            c.polarity == "allowed",
        )
        for c in instance.constraints
    ]
    out = []
    for combo in itertools.product(*domains):
        for positions, listed, allowed in checks:
            values = tuple(combo[i] for i in positions)
            if listed is None:
                if len(set(values)) < len(values):
                    break
            elif (values in listed) != allowed:
                break
        else:
            out.append(dict(zip(names, combo)))
            if limit is not None and len(out) >= limit:
                break
    return out


# -- answer sets ----------------------------------------------------------------


def reduct(program: GroundProgram, true_atoms: set) -> GroundProgram:
    """The reduct w.r.t. a candidate set of true atoms.

    Rules whose negative body intersects the candidate are dropped; the
    survivors keep only their positive body.  Choice and cardinality
    rules must be expanded/normalized away first.
    """
    out = []
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
    out = []
    for ridx, rule in enumerate(program.rules):
        if not isinstance(rule, ChoiceRule):
            out.append(rule)
            continue
        for hidx, head in enumerate(rule.heads):
            comp = Atom("_ch", (ridx, hidx))
            out.append(NormalRule(head, rule.body + (Lit(comp, False),)))
            out.append(NormalRule(comp, (Lit(head, False),)))
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
    """All answer sets by exhaustive enumeration.

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


# -- clausal cardinality expansions ------------------------------------------------


def expand_cardinality(program: GroundProgram, method: str) -> GroundProgram:
    """Replace every cardinality rule by normal and integrity rules.

    ``counter`` expands each rule into the usual O(n*k) counting ladder
    over fresh ``_cnt`` atoms; ``binomial`` posts one integrity rule per
    k-subset (capped, since that count explodes).  Answer sets projected
    to the original atoms are those of the program under native counting.
    """
    if method not in ("counter", "binomial"):
        raise ValueError(f"unknown expansion method: {method!r}")
    out = []
    for ridx, rule in enumerate(program.rules):
        if not isinstance(rule, CardinalityRule):
            out.append(rule)
        elif method == "binomial":
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

    rules = []
    for i in range(1, n + 1):
        rules.append(NormalRule(cnt(i, 1), (lits[i - 1],)))
    for i in range(1, n):
        for j in range(1, k + 1):
            rules.append(NormalRule(cnt(i, j), (Lit(cnt(i + 1, j)),)))
        for j in range(1, k):
            rules.append(NormalRule(cnt(i, j + 1), (lits[i - 1], Lit(cnt(i + 1, j)))))
    rules.append(IntegrityRule((Lit(cnt(1, k)),)))
    return rules


# -- unit propagation -----------------------------------------------------------------


def propagate_naive(nogoods, assignment) -> tuple[list[SignedLiteral], str]:
    """Reference fixpoint computation: repeated full scans, no watches.

    ``nogoods`` is a sequence of signed-literal collections, ``assignment``
    the initial literals.  Each round first checks for a violated nogood,
    then extends the assignment from the first unit nogood in sequence
    order, exactly as the textbook loop does.  Returns the extended
    assignment in derivation order plus ``"conflict"`` or ``"success"``.
    """
    state: dict = {}
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
