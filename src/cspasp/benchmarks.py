"""Benchmark families and the batch runner.

Generators are pure functions of their parameters (and an explicit seed
where randomness is involved), so the same call always produces the same
instance, byte for byte, through format_instance.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass, fields

from .csp import (
    ALLDIFFERENT,
    PERMUTATION,
    TABLE,
    Constraint,
    CspInstance,
    DomainState,
    VariableDecl,
)
from .encoder import encode, run
from .errors import CapExceeded

# -- pigeonhole ------------------------------------------------------------------


def gen_php(n: int) -> CspInstance:
    """n pigeons into n-1 holes: all-different over [1, n-1] domains."""
    if n < 2:
        raise ValueError("pigeonhole needs n >= 2")
    variables = [VariableDecl(f"p{i}", tuple(range(1, n))) for i in range(1, n + 1)]
    constraint = Constraint(ALLDIFFERENT, tuple(d.name for d in variables))
    return CspInstance(variables, (constraint,))


# -- quasigroup completion --------------------------------------------------------


def gen_qcp(order: int, fill: int, seed: int, permutation: bool = False) -> CspInstance:
    """Latin-square completion with ``fill`` percent of cells pre-assigned.

    A hidden Latin square is built from the cyclic square by seeded row,
    column, and symbol shuffles; pre-assignments are sampled from it, so
    the instance is satisfiable by construction.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if not 0 <= fill <= 100:
        raise ValueError(f"fill must be within 0..100, not {fill}")
    n = order
    rng = random.Random(f"qcp:{order}:{fill}:{seed}")
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    syms = rng.sample(range(n), n)
    square = [
        [syms[(rows[i] + cols[j]) % n] + 1 for j in range(n)] for i in range(n)
    ]
    variables = [
        VariableDecl(f"x_{i}_{j}", tuple(range(1, n + 1)))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    kind = PERMUTATION if permutation else ALLDIFFERENT
    constraints = []
    for i in range(1, n + 1):
        constraints.append(Constraint(kind, tuple(f"x_{i}_{j}" for j in range(1, n + 1))))
    for j in range(1, n + 1):
        constraints.append(Constraint(kind, tuple(f"x_{i}_{j}" for i in range(1, n + 1))))
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    k = round(n * n * fill / 100)
    assignments = [
        (f"x_{i}_{j}", square[i - 1][j - 1]) for i, j in sorted(rng.sample(cells, k))
    ]
    return CspInstance(variables, constraints, assignments)


# -- quasigroup existence ----------------------------------------------------------


# Each axiom's defining identity as the three cells its value chain reads,
# given x, y and the values a (and b) of the cells before.  The cells hold
# a, b and c; under QG3-QG5 c must be x, under QG6 and QG7 b must equal c.
_QEP_RESULT_CELLS = {
    "QG3": lambda x, y, a, b: [(x, y), (y, x), (a, b)],  # (x*y)*(y*x) = x
    "QG4": lambda x, y, a, b: [(y, x), (x, y), (a, b)],  # (y*x)*(x*y) = x
    "QG5": lambda x, y, a, b: [(y, x), (a, y), (b, y)],  # ((y*x)*y)*y = x
}
_QEP_EQUAL_CELLS = {
    "QG6": lambda x, y, a: [(x, y), (a, y), (x, a)],  # (x*y)*y = x*(x*y)
    "QG7": lambda x, y, a: [(y, x), (a, y), (x, a)],  # (y*x)*y = x*(y*x)
}
QEP_AXIOMS = (*_QEP_RESULT_CELLS, *_QEP_EQUAL_CELLS)


def _qep_raw_constraints(axiom: str, n: int):
    """Yield (cells, forbidden) pairs before scope merging.

    Cells are (row, col) pairs; forbidden tuples run over the cell values
    in that order.  Each pair encodes one instantiation of the axiom's
    defining identity via its value chain.
    """
    rng_n = range(1, n + 1)
    if axiom in _QEP_RESULT_CELLS:
        cells = _QEP_RESULT_CELLS[axiom]
        for x, y, a, b in itertools.product(rng_n, repeat=4):
            yield cells(x, y, a, b), [(a, b, c) for c in rng_n if c != x]
    else:
        cells = _QEP_EQUAL_CELLS[axiom]
        for x, y, a in itertools.product(rng_n, repeat=3):
            yield cells(x, y, a), [(a, b, c) for b in rng_n for c in rng_n if b != c]


def _merge_cells(cells, tuples):
    """Collapse repeated cells in a scope; contradictory tuples vanish.

    A tuple requiring two different values of the same cell describes a
    situation that cannot occur, so it constrains nothing.
    """
    order: list = []
    for cell in cells:
        if cell not in order:
            order.append(cell)
    merged = set()
    for t in tuples:
        values: dict = {}
        consistent = True
        for cell, v in zip(cells, t):
            if values.setdefault(cell, v) != v:
                consistent = False
                break
        if consistent:
            merged.add(tuple(values[c] for c in order))
    return order, merged


def gen_qep(axiom: str, order: int) -> CspInstance:
    """Idempotent quasigroup existence for one defining identity.

    Cells m_i_j over [1, order] with Latin row/column constraints, the
    diagonal fixed to m(i,i) = i, the usual last-column symmetry cut
    (m(a, n) >= a-1), and the identity expanded cell-wise into forbidden
    tuples.
    """
    axiom = axiom.upper()
    if axiom not in QEP_AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; expected one of {QEP_AXIOMS}")
    if order < 1:
        raise ValueError("order must be positive")
    n = order
    name = lambda i, j: f"m_{i}_{j}"
    variables = [
        VariableDecl(name(i, j), tuple(range(1, n + 1)))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    constraints = []
    for i in range(1, n + 1):
        constraints.append(Constraint(ALLDIFFERENT, tuple(name(i, j) for j in range(1, n + 1))))
    for j in range(1, n + 1):
        constraints.append(Constraint(ALLDIFFERENT, tuple(name(i, j) for i in range(1, n + 1))))

    by_scope: dict[tuple, set] = {}
    for cells, tuples in _qep_raw_constraints(axiom, n):
        order_cells, merged = _merge_cells(cells, tuples)
        if not merged:
            continue
        canon = sorted(order_cells)
        perm = [order_cells.index(c) for c in canon]
        scope = tuple(name(i, j) for i, j in canon)
        bucket = by_scope.setdefault(scope, set())
        bucket.update(tuple(t[p] for p in perm) for t in merged)
    for a in range(3, n + 1):
        # symmetry cut: the last column grows at least like a-1
        scope = (name(a, n),)
        by_scope.setdefault(scope, set()).update((v,) for v in range(1, a - 1))

    for scope in sorted(by_scope):
        constraints.append(
            Constraint(TABLE, scope, "forbidden", tuple(sorted(by_scope[scope])))
        )
    assignments = [(name(i, i), i) for i in range(1, n + 1)]
    return CspInstance(variables, constraints, assignments)


# -- graceful double wheels ----------------------------------------------------------


def double_wheel_edges(n: int):
    """Edge list of DW_n: two n-cycles plus spokes from a shared hub.

    Returns (u, v, edge_var) name triples in a fixed order; 4n edges.
    """
    if n < 3:
        raise ValueError("double wheel needs cycles of length at least 3")
    edges = []
    for prefix in ("a", "b"):
        for i in range(1, n + 1):
            u, v = f"{prefix}{i}", f"{prefix}{i % n + 1}"
            edges.append((u, v, f"e_{u}_{v}"))
    for prefix in ("a", "b"):
        for i in range(1, n + 1):
            v = f"{prefix}{i}"
            edges.append(("hub", v, f"e_hub_{v}"))
    return edges


def double_wheel_nodes(n: int) -> list[str]:
    """Node names of DW_n: the hub, then the a-cycle and the b-cycle."""
    return ["hub"] + [f"{prefix}{i}" for prefix in ("a", "b") for i in range(1, n + 1)]


def gen_ggp_double_wheel(n: int) -> CspInstance:
    """Graceful labelling of the double wheel DW_n as a CSP.

    Node labels are distinct values in [0, 4n]; edge labels are forced to
    the absolute difference of their endpoints through per-edge allowed
    tables and must form a permutation of [1, 4n].
    """
    edges = double_wheel_edges(n)
    m = 4 * n
    nodes = double_wheel_nodes(n)
    variables = [VariableDecl(v, tuple(range(0, m + 1))) for v in nodes]
    variables += [VariableDecl(e, tuple(range(1, m + 1))) for _, _, e in edges]
    constraints = [Constraint(ALLDIFFERENT, tuple(nodes))]
    constraints.append(Constraint(PERMUTATION, tuple(e for _, _, e in edges)))
    for u, v, e in edges:
        tuples = tuple(
            (p, q, abs(p - q))
            for p in range(0, m + 1)
            for q in range(0, m + 1)
            if p != q
        )
        constraints.append(Constraint(TABLE, (u, v, e), "allowed", tuples))
    return CspInstance(variables, constraints)


def verify_graceful(n: int, assignment) -> bool:
    """Check a solved DW_n labelling independently of the encoding."""
    edges = double_wheel_edges(n)
    m = 4 * n
    nodes = double_wheel_nodes(n)
    missing = [v for v in nodes + [e for _, _, e in edges] if v not in assignment]
    if missing:
        raise ValueError(f"assignment is missing {missing[0]!r} (and maybe more)")
    node_labels = [assignment[v] for v in nodes]
    if len(set(node_labels)) != len(node_labels):
        return False
    if not all(0 <= x <= m for x in node_labels):
        return False
    edge_labels = []
    for u, v, e in edges:
        label = abs(assignment[u] - assignment[v])
        if assignment[e] != label:
            return False
        edge_labels.append(label)
    return sorted(edge_labels) == list(range(1, m + 1))


# -- random instances for the agreement suites -----------------------------------------


def random_instance(rng: random.Random, max_vars: int = 5, max_dom: int = 5,
                    holes: bool = True) -> CspInstance:
    """A small random mix of all-different and binary table constraints.

    Domains may sit anywhere in a small window around zero and, unless
    ``holes`` is off, may be non-contiguous.  Designed for the oracle
    agreement suites, not for hard search.
    """
    n_vars = rng.randint(2, max_vars)
    variables = []
    for i in range(n_vars):
        width = rng.randint(1, max_dom)
        base = rng.randint(-3, 3)
        if holes:
            window = list(range(base, base + width + rng.randint(0, 2)))
            dom = tuple(sorted(rng.sample(window, min(width, len(window)))))
        else:
            dom = tuple(range(base, base + width))
        variables.append(VariableDecl(f"v{i}", dom))
    names = [d.name for d in variables]
    by_name = {d.name: d for d in variables}
    constraints = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5 and n_vars >= 2:
            size = rng.randint(2, n_vars)
            constraints.append(Constraint(ALLDIFFERENT, tuple(rng.sample(names, size))))
        else:
            u, v = rng.sample(names, 2)
            product = [(a, b) for a in by_name[u].domain for b in by_name[v].domain]
            count = rng.randint(0, len(product))
            chosen = tuple(sorted(rng.sample(product, count)))
            polarity = "forbidden" if rng.random() < 0.5 else "allowed"
            constraints.append(Constraint(TABLE, (u, v), polarity, chosen))
    return CspInstance(variables, constraints)


def random_state(rng: random.Random, instance: CspInstance, intervals: bool = False) -> DomainState:
    """A random nonempty restriction of each effective domain."""
    domains = {}
    for decl in instance.variables:
        dom = instance.effective_domain(decl.name)
        if intervals:
            lo = rng.randrange(len(dom))
            hi = rng.randrange(lo, len(dom))
            domains[decl.name] = dom[lo:hi + 1]
        else:
            size = rng.randint(1, len(dom))
            domains[decl.name] = tuple(sorted(rng.sample(dom, size)))
    return DomainState(domains)


# -- suite runner -------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A parameter of a benchmark family; ``default`` None means required."""

    type: type  # int, bool or str
    default: object = None
    help: str | None = None


@dataclass(frozen=True)
class Family:
    """A benchmark family: its generator, called with its parameters by name."""

    generate: Callable[..., CspInstance]
    help: str
    params: dict[str, Param]


# ``cspasp gen`` flags and ``bench --spec`` fields are both read off this
FAMILIES = {
    "php": Family(gen_php, "pigeonhole", {"n": Param(int)}),
    "qcp": Family(gen_qcp, "quasigroup completion", {
        "order": Param(int),
        "fill": Param(int, help="percent of cells fixed"),
        "seed": Param(int, 0),
        "permutation": Param(bool, False, "post rows/columns as permutation constraints"),
    }),
    "qep": Family(gen_qep, "quasigroup existence", {
        "axiom": Param(str, help="QG3..QG7"),
        "order": Param(int),
    }),
    "ggp": Family(gen_ggp_double_wheel, "graceful double wheel", {"n": Param(int)}),
}

_TYPE_WORDS = {int: "an integer", bool: "true or false", str: "a string"}


def _read(kind: type, text: str):
    """``text`` as a value of type ``kind``, or the text itself if it is none."""
    try:
        return {"true": True, "false": False}[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        return text


@dataclass
class BenchSpec:
    """One benchmark instance request: family name plus its parameters.

    The family and each parameter's name and type are checked against
    ``FAMILIES`` on construction, so a suite stops before its first run.
    Parameters left out take their defaults.
    """

    family: str
    params: dict

    def __post_init__(self):
        family = FAMILIES.get(self.family)
        if family is None:
            raise ValueError(f"unknown benchmark family {self.family!r}")
        unknown = [key for key in self.params if key not in family.params]
        if unknown:
            raise ValueError(
                f"benchmark family {self.family!r} takes no parameter "
                f"{', '.join(map(repr, unknown))} (it takes {', '.join(family.params)})"
            )
        for name, param in family.params.items():
            if name not in self.params:
                if param.default is None:
                    raise ValueError(f"benchmark family {self.family!r} needs parameter {name!r}")
            elif type(self.params[name]) is not param.type:
                raise ValueError(
                    f"benchmark parameter {name!r} takes {_TYPE_WORDS[param.type]}, "
                    f"not {self.params[name]!r}"
                )

    @classmethod
    def parse(cls, text: str) -> BenchSpec:
        """Read ``FAMILY:K=V,...``, each value as its parameter's type."""
        family, _, rest = text.partition(":")
        takes = FAMILIES[family].params if family in FAMILIES else {}
        params = {}
        for field in rest.split(",") if rest else ():
            key, eq, value = field.partition("=")
            if not eq or not key:
                raise ValueError(f"bad spec parameter {field!r} in {text!r}")
            if key in params:
                raise ValueError(f"spec parameter {key!r} repeated in {text!r}")
            params[key] = _read(takes[key].type, value) if key in takes else value
        return cls(family, params)

    def label(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.params.items())

    def build(self) -> CspInstance:
        family = FAMILIES[self.family]
        return family.generate(
            **{name: self.params.get(name, param.default) for name, param in family.params.items()}
        )


@dataclass
class BenchRow:
    family: str
    params: str
    encoding: str
    hall_limit: str
    status: str
    decisions: int
    conflicts: int
    propagations: int
    time_ms: int
    atoms: int
    rules: int


_COLUMNS = [f.name for f in fields(BenchRow)]


class BenchReport:
    def __init__(self, rows: list[BenchRow]):
        self.rows = rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for r in self.rows:
            writer.writerow([getattr(r, c) for c in _COLUMNS])
        return buf.getvalue()

    def to_text(self) -> str:
        table = [_COLUMNS] + [
            [str(getattr(r, c)) for c in _COLUMNS] for r in self.rows
        ]
        widths = [max(len(row[i]) for row in table) for i in range(len(_COLUMNS))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in table
        ]
        return "\n".join(lines) + "\n"


def run_suite(specs, kinds, timeout_s: float | None = None) -> BenchReport:
    """Encode and solve every (spec, kind) pair sequentially.

    A run that exhausts its time budget or trips a size cap is recorded
    as UNKNOWN.  The suite stops only on the ValueError ``run`` raises
    for a model that decodes to a non-solution.
    """
    rows = []
    for spec in specs:
        instance = spec.build()
        for kind in kinds:
            hall = "" if kind.hall_limit is None else str(kind.hall_limit)
            try:
                enc = encode(instance, kind)
                status, _, stats, _ = run(enc.program, enc, timeout_s)
                rows.append(
                    BenchRow(spec.family, spec.label(), kind.name, hall, status,
                             stats.decisions, stats.conflicts, stats.propagations,
                             stats.time_ms, len(enc.program.atoms()), len(enc.program.rules))
                )
            except CapExceeded:
                rows.append(
                    BenchRow(spec.family, spec.label(), kind.name, hall,
                             "UNKNOWN", 0, 0, 0, 0, 0, 0)
                )
    return BenchReport(rows)
