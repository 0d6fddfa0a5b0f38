"""Finite-domain CSP instances and the oracles the encodings are tested against.

An instance is variables with finite integer domains plus constraints of
three kinds: all-different, permutation (all-different onto exactly the
union of the scope domains), and table constraints listing allowed or
forbidden tuples.  Pre-assignments are kept separately from the declared
domains so that table validation stays meaningful.

The consistency oracle here is written for clarity, not speed -- it is
the independent reference that unit propagation on the encodings gets
compared to, so it must not share machinery with them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import CapExceeded
from .text import INSTANCE, INT, NAME, Tokens

ALLDIFFERENT = "alldifferent"
PERMUTATION = "permutation"
TABLE = "table"

#: consistency levels, weakest to strongest on the value side
AC_BINARY = "ac"
BOUND_CONSISTENCY = "bound"
RANGE_CONSISTENCY = "range"
DOMAIN_CONSISTENCY = "domain"

LEVELS = (AC_BINARY, BOUND_CONSISTENCY, RANGE_CONSISTENCY, DOMAIN_CONSISTENCY)

SUPPORT_SEARCH_CAP = 10 ** 7


@dataclass(frozen=True)
class VariableDecl:
    """A variable and its declared domain (sorted, duplicates dropped)."""

    name: str
    domain: tuple[int, ...]

    def __post_init__(self):
        if not NAME.match(self.name):
            raise ValueError(f"bad variable name: {self.name!r}")
        dom = tuple(sorted(set(self.domain)))
        if not dom:
            raise ValueError(f"variable {self.name} declared with an empty domain")
        object.__setattr__(self, "domain", dom)


@dataclass(frozen=True)
class Constraint:
    """One constraint; ``polarity``/``tuples`` are table-only."""

    kind: str
    scope: tuple[str, ...]
    polarity: str | None = None
    tuples: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        object.__setattr__(self, "tuples", tuple(tuple(t) for t in self.tuples))
        if self.kind not in (ALLDIFFERENT, PERMUTATION, TABLE):
            raise ValueError(f"unknown constraint kind: {self.kind!r}")
        if not self.scope:
            raise ValueError("constraint scope is empty")
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"repeated variable in scope {self.scope}")
        if self.kind == TABLE:
            if self.polarity not in ("allowed", "forbidden"):
                raise ValueError(f"table polarity must be allowed/forbidden, got {self.polarity!r}")
            for t in self.tuples:
                if len(t) != len(self.scope):
                    raise ValueError(f"tuple {t} does not match scope arity {len(self.scope)}")
        elif self.polarity is not None or self.tuples:
            raise ValueError(f"{self.kind} takes no polarity or tuples")


def _check_permutation(scope, by_name) -> None:
    """A permutation's domains must hold as many values as its scope
    has variables."""
    union = set()
    for v in scope:
        union.update(by_name[v].domain)
    if len(union) != len(scope):
        raise ValueError(
            "permutation needs as many values as variables "
            f"({len(scope)} variables, {len(union)} values)"
        )


def _declare(decl, by_name) -> None:
    """Add a declaration to ``by_name``; a name may be declared once."""
    if decl.name in by_name:
        raise ValueError(f"variable {decl.name} declared twice")
    by_name[decl.name] = decl


def _assign(name, value, by_name, fixed) -> None:
    """Record a pre-assignment in ``fixed``; the value must lie in the
    domain and agree with the variable's earlier assignments."""
    if value not in by_name[name].domain:
        raise ValueError(f"assigned value {value} outside the domain of {name}")
    if fixed.setdefault(name, value) != value:
        raise ValueError(f"conflicting assignments to {name}")


def _check_tuple_values(scope, tuples, by_name) -> None:
    """Every tuple value must lie in its variable's domain."""
    for t in tuples:
        for v, value in zip(scope, t):
            if value not in by_name[v].domain:
                raise ValueError(f"tuple value {value} outside the domain of {v}")


class CspInstance:
    """Validated variables + constraints + singleton pre-assignments."""

    def __init__(self, variables, constraints=(), assignments=()):
        self.variables = tuple(variables)
        if not self.variables:
            raise ValueError("instance declares no variables")
        self.constraints = tuple(constraints)
        self.assignments = tuple(tuple(a) for a in assignments)
        by_name = {}
        for decl in self.variables:
            _declare(decl, by_name)
        self._by_name = by_name
        for c in self.constraints:
            for v in c.scope:
                if v not in by_name:
                    raise ValueError(f"constraint mentions undeclared variable {v}")
            if c.kind == TABLE:
                _check_tuple_values(c.scope, c.tuples, by_name)
            elif c.kind == PERMUTATION:
                _check_permutation(c.scope, by_name)
        fixed: dict[str, int] = {}
        for name, value in self.assignments:
            if name not in by_name:
                raise ValueError(f"assignment to undeclared variable {name}")
            _assign(name, value, by_name, fixed)
        self._fixed = fixed

    def var(self, name: str) -> VariableDecl:
        return self._by_name[name]

    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.variables)

    def effective_domain(self, name: str) -> tuple[int, ...]:
        """Declared domain intersected with any pre-assignment."""
        fixed = self._fixed.get(name)
        if fixed is None:
            return self._by_name[name].domain
        return (fixed,)

    def initial_state(self) -> "DomainState":
        return DomainState({d.name: self.effective_domain(d.name) for d in self.variables})

    def __eq__(self, other):
        return (
            isinstance(other, CspInstance)
            and self.variables == other.variables
            and self.constraints == other.constraints
            and self.assignments == other.assignments
        )

    def __repr__(self):
        return "CspInstance(%d vars, %d constraints)" % (
            len(self.variables),
            len(self.constraints),
        )


class DomainState:
    """Current domains: variable name -> tuple of remaining values."""

    def __init__(self, domains):
        self.domains = {name: tuple(sorted(set(vals))) for name, vals in domains.items()}

    def __getitem__(self, name: str) -> tuple[int, ...]:
        return self.domains[name]

    def __eq__(self, other):
        return isinstance(other, DomainState) and self.domains == other.domains

    def __repr__(self):
        inner = ", ".join(f"{n}:{list(vs)}" for n, vs in self.domains.items())
        return "DomainState(%s)" % inner

    def is_inconsistent(self) -> bool:
        return any(not vals for vals in self.domains.values())


def validate_state(instance: CspInstance, state: DomainState) -> None:
    """Check that a state covers exactly the instance variables, within domains."""
    names = set(instance.names())
    if set(state.domains) != names:
        raise ValueError("state does not cover exactly the instance variables")
    for name in names:
        allowed = set(instance.effective_domain(name))
        extra = set(state.domains[name]) - allowed
        if extra:
            raise ValueError(f"state of {name} contains undeclared values {sorted(extra)}")


# -- solution checking ---------------------------------------------------------


def check_solution(instance: CspInstance, assignment) -> bool:
    """True iff a total assignment satisfies every constraint.

    Pre-assignments count: an assignment deviating from one fails.
    Values outside a declared domain are an error, not a False.
    """
    for decl in instance.variables:
        if decl.name not in assignment:
            raise ValueError(f"assignment misses variable {decl.name}")
        if assignment[decl.name] not in decl.domain:
            raise ValueError(
                f"value {assignment[decl.name]} outside the domain of {decl.name}"
            )
    for name, value in instance.assignments:
        if assignment[name] != value:
            return False
    return all(
        _satisfies(instance, c, tuple(assignment[v] for v in c.scope))
        for c in instance.constraints
    )


def binary_decomposition(c: Constraint, instance: CspInstance) -> list[Constraint]:
    """All-different/permutation as pairwise not-equal table constraints.

    One forbidden-tuple constraint per unordered scope pair, listing the
    equal pairs over the shared declared values.  Exactly n(n-1)/2
    constraints, kept even when a pair shares no values.
    """
    if c.kind not in (ALLDIFFERENT, PERMUTATION):
        raise ValueError("binary decomposition applies to alldifferent/permutation")
    out = []
    for i in range(len(c.scope)):
        for j in range(i + 1, len(c.scope)):
            u, v = c.scope[i], c.scope[j]
            shared = sorted(set(instance.var(u).domain) & set(instance.var(v).domain))
            out.append(
                Constraint(TABLE, (u, v), "forbidden", tuple((s, s) for s in shared))
            )
    return out


# -- consistency oracle ---------------------------------------------------------


def _tuple_set(c: Constraint) -> frozenset:
    cached = getattr(c, "_tuples_as_set", None)
    if cached is None:
        cached = frozenset(c.tuples)
        object.__setattr__(c, "_tuples_as_set", cached)
    return cached


def _satisfies(instance: CspInstance, c: Constraint, values: tuple[int, ...]) -> bool:
    """Membership of a full scope tuple in the constraint's relation."""
    if c.kind == ALLDIFFERENT:
        return len(set(values)) == len(values)
    if c.kind == PERMUTATION:
        union = _scope_union(instance, c)
        return len(set(values)) == len(values) and all(v in union for v in values)
    if any(v not in instance.var(name).domain for name, v in zip(c.scope, values)):
        return False
    if c.polarity == "allowed":
        return values in _tuple_set(c)
    return values not in _tuple_set(c)


def _scope_union(instance: CspInstance, c: Constraint) -> frozenset:
    cached = getattr(c, "_scope_union_cache", None)
    if cached is None:
        union = set()
        for v in c.scope:
            union.update(instance.var(v).domain)
        cached = frozenset(union)
        object.__setattr__(c, "_scope_union_cache", cached)
    return cached


def _candidate_values(domains, name: str, level: str):
    """Values a support tuple may use for a partner variable."""
    vals = domains[name]
    if level == DOMAIN_CONSISTENCY or level == AC_BINARY:
        return vals
    # bound/range support: anything inside the current hull
    return range(vals[0], vals[-1] + 1)


def _has_support(instance, c, domains, name, value, level, budget) -> bool:
    """Search for a support tuple; mutates budget[0] downward."""
    others = [v for v in c.scope if v != name]
    pools = [_candidate_values(domains, o, level) for o in others]
    idx = c.scope.index(name)
    for combo in itertools.product(*pools):
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceeded("support search exceeded its cap")
        full = list(combo)
        full.insert(idx, value)
        if _satisfies(instance, c, tuple(full)):
            return True
    return False


def _ac_constraints(instance: CspInstance) -> list[Constraint]:
    """The binary view: decompose the global constraints, keep tables.

    Tables keep their declared arity here: the decomposition step only
    concerns all-different/permutation.  On binary tables the result is
    plain arc consistency; wider tables get full domain supports.
    """
    out: list[Constraint] = []
    for c in instance.constraints:
        if c.kind in (ALLDIFFERENT, PERMUTATION):
            out.extend(binary_decomposition(c, instance))
        else:
            out.append(c)
    return out


def consistency_oracle(instance: CspInstance, state: DomainState, level: str) -> DomainState:
    """Prune a state to its fixpoint for the requested consistency level.

    ``ac`` decomposes all-different/permutation into binary not-equals
    first and then enforces arc consistency; ``bound`` checks only each
    variable's endpoints against hull supports; ``range`` checks every
    value against hull supports; ``domain`` checks every value against
    supports drawn from the current domains.  Deliberately a naive
    fixpoint loop in declaration order.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown consistency level: {level!r}")
    validate_state(instance, state)
    domains = {name: state.domains[name] for name in state.domains}
    constraints = _ac_constraints(instance) if level == AC_BINARY else list(instance.constraints)
    budget = [SUPPORT_SEARCH_CAP]

    check_level = DOMAIN_CONSISTENCY if level == AC_BINARY else level
    changed = True
    while changed:
        changed = False
        if any(not vals for vals in domains.values()):
            break
        for c in constraints:
            for name in c.scope:
                vals = domains[name]
                if not vals:
                    continue
                if check_level == BOUND_CONSISTENCY:
                    targets = {vals[0], vals[-1]}
                else:
                    targets = vals
                keep = []
                for value in vals:
                    if value in targets:
                        ok = _has_support(instance, c, domains, name, value, check_level, budget)
                        if not ok:
                            changed = True
                            continue
                    keep.append(value)
                domains[name] = tuple(keep)
                if not keep:
                    break
            if any(not vals for vals in domains.values()):
                break
    return DomainState(domains)


# -- text format -----------------------------------------------------------------


def parse_instance(text: str) -> CspInstance:
    """Parse the line-oriented instance format.

        var NAME LO HI          var NAME { v1 v2 ... }
        alldifferent NAME...    permutation NAME...
        allowed (NAME...) : (INT...) (INT...) ...
        forbidden (NAME...) : (INT...) ...
        assign NAME INT

    ``#`` starts a comment.  Errors carry line and column positions.
    """
    constraints: list[Constraint] = []
    assignments: list[tuple[str, int]] = []
    declared: dict[str, VariableDecl] = {}
    fixed: dict[str, int] = {}

    toks = Tokens(text, INSTANCE)
    for _ in toks.statements():
        head = toks.next()
        if head == "var":
            toks.build(_declare, _parse_var(toks), declared)
        elif head in (ALLDIFFERENT, PERMUTATION):
            names = []
            while toks.peek() is not None:
                names.append(_expect_name(toks, declared))
            if not names:
                raise toks.error(f"{head} needs at least one variable")
            constraints.append(toks.build(Constraint, head, tuple(names)))
            if head == PERMUTATION:
                toks.build(_check_permutation, names, declared)
        elif head in ("allowed", "forbidden"):
            scope, tuples = _parse_table(toks, declared)
            constraints.append(toks.build(Constraint, TABLE, scope, head, tuples))
        elif head == "assign":
            name = _expect_name(toks, declared)
            value = _expect_int(toks)
            toks.build(_assign, name, value, declared, fixed)
            assignments.append((name, value))
        else:
            raise toks.error_at_last(f"unknown directive {head!r}")
    return CspInstance(declared.values(), constraints, assignments)


def _expect_int(toks: Tokens) -> int:
    tok = toks.next()
    if not INT.match(tok):
        raise toks.error_at_last(f"expected integer, found {tok!r}")
    return int(tok)


def _expect_name(toks: Tokens, declared) -> str:
    tok = toks.next()
    if not NAME.match(tok):
        raise toks.error_at_last(f"expected name, found {tok!r}")
    if tok not in declared:
        raise toks.error_at_last(f"undeclared variable {tok!r}")
    return tok


def _parse_var(toks: Tokens) -> VariableDecl:
    name = toks.next()
    if not NAME.match(name):
        raise toks.error_at_last(f"bad variable name {name!r}")
    if toks.peek() == "{":
        toks.next()
        values = []
        while toks.peek() != "}":
            values.append(_expect_int(toks))
        toks.next()
        if not values:
            raise toks.error(f"variable {name} declared with an empty domain")
        return VariableDecl(name, tuple(values))
    lo = _expect_int(toks)
    hi = _expect_int(toks)
    if lo > hi:
        raise toks.error(f"empty range {lo}..{hi} for variable {name}")
    return VariableDecl(name, tuple(range(lo, hi + 1)))


def _parse_table(toks: Tokens, declared):
    toks.expect("(")
    scope = []
    while toks.peek() != ")":
        scope.append(_expect_name(toks, declared))
    toks.next()
    toks.expect(":")
    tuples = []
    while toks.peek() is not None:
        toks.expect("(")
        t = []
        while toks.peek() != ")":
            t.append(_expect_int(toks))
        toks.next()
        if len(t) != len(scope):
            raise toks.error(f"tuple {tuple(t)} does not match scope arity {len(scope)}")
        tuples.append(tuple(t))
    # checked here as well as in CspInstance so the error carries the line
    toks.build(_check_tuple_values, scope, tuples, declared)
    return tuple(scope), tuple(tuples)


def format_instance(instance: CspInstance) -> str:
    """Serialize back to the instance text format (round-trips with parse)."""
    lines = []
    for decl in instance.variables:
        dom = decl.domain
        contiguous = dom[-1] - dom[0] + 1 == len(dom)
        if contiguous and len(dom) > 1:
            lines.append(f"var {decl.name} {dom[0]} {dom[-1]}")
        else:
            lines.append("var %s { %s }" % (decl.name, " ".join(map(str, dom))))
    for c in instance.constraints:
        if c.kind in (ALLDIFFERENT, PERMUTATION):
            lines.append("%s %s" % (c.kind, " ".join(c.scope)))
        else:
            tuples = " ".join("(%s)" % " ".join(map(str, t)) for t in c.tuples)
            scope = " ".join(c.scope)
            lines.append(f"{c.polarity} ({scope}) :" + (f" {tuples}" if tuples else ""))
    for name, value in instance.assignments:
        lines.append(f"assign {name} {value}")
    return "\n".join(lines) + "\n"
