"""End-to-end acceptance suite.

One test per agreed behaviour, each with its tolerance and budget pinned
in the test body.  Run ``pytest tests/test_acceptance.py -v`` for one
pass/fail line per check.  The full-protocol agreement suites compare
encoding-level unit propagation against the independent consistency
oracle on 500 random instances x 50 random domain states each.
"""

import itertools
import math
import random
import statistics
import time
from pathlib import Path

import pytest

from cspasp.benchmarks import (
    gen_ggp_double_wheel,
    gen_php,
    gen_qcp,
    gen_qep,
    random_instance,
    random_state,
)
from cspasp.csp import (
    check_solution,
    consistency_oracle,
    enumerate_solutions,
    parse_instance,
)
from cspasp.encoder import (
    ENCODING_NAMES,
    EncodingKind,
    EncodingPropagator,
    decode,
    encode,
)
from cspasp.program import (
    Atom,
    CardinalityRule,
    ChoiceRule,
    GroundProgram,
    Lit,
    completion_nogoods,
    is_answer_set,
    normalize_cardinality,
)
from cspasp.propagation import NogoodStore, Trail, propagate_naive, unit_propagate
from cspasp.solver import (
    SAT,
    UNSAT,
    SolverConfig,
    enumerate_models,
    solve,
)

from .helpers import sl, true_atoms

pytestmark = pytest.mark.acceptance

DATA = Path(__file__).parent / "data"

HALL_TEXT = """\
var v1 2 3
var v2 { 1 2 4 }
var v3 2 3
var v4 1 4
alldifferent v1 v2 v3 v4
"""

N_INSTANCES = 500
N_STATES = 50


def solve_encoded(inst, kind_name, method="counter", **cfg_kwargs):
    enc = encode(inst, EncodingKind(kind_name))
    store = completion_nogoods(normalize_cardinality(enc.program, method))
    return enc, solve(store, SolverConfig(**cfg_kwargs) if cfg_kwargs else None)


def agreement_protocol(kind_name, level, holes=True, intervals=False):
    """Propagate N_INSTANCES x N_STATES random pairs and compare to the oracle.

    Returns (agreements, trials, strict_inclusions, elapsed_seconds) where
    strict_inclusions counts trials on which the oracle pruned strictly
    more than the encoding (only meaningful for inclusion comparisons).
    """
    rng = random.Random(f"acceptance:{kind_name}:{level}")
    agree = strict = 0
    started = time.monotonic()
    for _ in range(N_INSTANCES):
        inst = random_instance(rng, max_vars=5, max_dom=5, holes=holes)
        prop = EncodingPropagator(encode(inst, EncodingKind(kind_name)))
        for _ in range(N_STATES):
            state = random_state(rng, inst, intervals=intervals)
            got = prop.propagate(state)
            want = consistency_oracle(inst, state, level)
            if got is None:
                # a conflict is only right when the oracle also wipes out
                agree += want.is_inconsistent()
                continue
            if kind_name == "direct":
                if want.is_inconsistent():
                    # the weaker form may miss a wipeout the oracle proves;
                    # inclusion holds vacuously (nothing survives anyway)
                    agree += 1
                    strict += 1
                    continue
                # inclusion: the translation may keep extra values
                if all(
                    set(want.domains[v]) <= set(got.domains[v])
                    for v in got.domains
                ):
                    agree += 1
                    strict += want.domains != got.domains
            else:
                agree += want.domains == got.domains
    return agree, N_INSTANCES * N_STATES, strict, time.monotonic() - started


def test_01_supported_value_propagation_equals_arc_consistency():
    agree, trials, _, elapsed = agreement_protocol("support", "ac")
    assert (agree, trials) == (25000, 25000)
    assert elapsed <= 120


def test_02_interval_propagation_equals_range_consistency():
    # the canonical Hall-interval instance prunes the wide domains to {1,4}
    inst = parse_instance(HALL_TEXT)
    out = EncodingPropagator(encode(inst, EncodingKind("range"))).propagate(
        inst.initial_state()
    )
    assert out.domains["v2"] == (1, 4)
    assert out.domains["v4"] == (1, 4)

    agree, trials, _, elapsed = agreement_protocol("range", "range")
    assert (agree, trials) == (25000, 25000)
    assert elapsed <= 120


def test_03_upper_bound_propagation_equals_bound_consistency():
    # bound atoms cannot express interior holes, so this protocol feeds
    # hole-free instances and contiguous domain states
    agree, trials, _, elapsed = agreement_protocol(
        "bound", "bound", holes=False, intervals=True
    )
    assert (agree, trials) == (25000, 25000)
    assert elapsed <= 120


def test_04_value_propagation_is_within_arc_consistency_and_strictly_weaker():
    # regression fixture: both forbidden pairs still have two candidates,
    # so the value translation derives nothing while AC removes x=1
    fixture = parse_instance((DATA / "direct_strict.csp").read_text())
    start = fixture.initial_state()
    got = EncodingPropagator(encode(fixture, EncodingKind("direct"))).propagate(start)
    want = consistency_oracle(fixture, start, "ac")
    assert want.domains["x"] == (2,)
    assert got.domains["x"] == (1, 2)

    agree, trials, strict, elapsed = agreement_protocol("direct", "ac")
    assert (agree, trials) == (25000, 25000)
    assert strict >= 1
    assert elapsed <= 120


def test_05_every_translation_preserves_the_solution_set():
    rng = random.Random("acceptance:solutions")
    corpus = [
        parse_instance(HALL_TEXT),
        parse_instance((DATA / "direct_strict.csp").read_text()),
        gen_php(3),
        gen_php(4),
        gen_qep("QG5", 2),
    ]
    corpus += [random_instance(rng, max_vars=4, max_dom=4) for _ in range(40)]
    small = [
        inst
        for inst in corpus
        if math.prod(len(inst.effective_domain(v.name)) for v in inst.variables)
        <= 10**4
    ]
    assert len(small) >= 40  # the corpus is mostly usable

    cross_checked = 0
    for inst in small:
        key = lambda s: sorted(s.items())
        want = sorted(enumerate_solutions(inst), key=key)
        for kind_name in ENCODING_NAMES:
            enc = encode(inst, EncodingKind(kind_name))
            norm = normalize_cardinality(enc.program)
            models, _, status = enumerate_models(completion_nogoods(norm))
            assert status == UNSAT  # enumeration exhausted the space
            got = sorted((decode(enc, m) for m in models), key=key)
            assert got == want, kind_name
            if len(norm.atoms()) <= 20:
                for model in models:
                    assert is_answer_set(norm, true_atoms(model))
                cross_checked += 1
    assert cross_checked >= 1


def test_06_pigeonhole_refutations_need_no_search_under_interval_forms():
    started = time.monotonic()

    def root_needs_decision(inst, kind):
        """True when root propagation neither conflicts nor assigns all."""
        enc = encode(inst, kind)
        store = completion_nogoods(normalize_cardinality(enc.program))
        trail = Trail(store)
        if unit_propagate(store, trail) is not None:
            return False
        return len(trail.assignment()) < store.n_entities

    for n in range(4, 17):
        inst = gen_php(n)
        for kind_name in ("bound", "range"):
            _, res = solve_encoded(inst, kind_name)
            assert res.status == UNSAT, (n, kind_name)
            assert res.stats.decisions == 0, (n, kind_name)
        # the supported-value form sees no root conflict at any size
        assert root_needs_decision(inst, EncodingKind("support")), n
        # capping Hall intervals below width n-1 hides the refutation
        if n - 3 >= 1:
            for kind_name in ("bound", "range"):
                kind = EncodingKind(kind_name, hall_limit=n - 3)
                assert root_needs_decision(inst, kind), (n, kind_name)

    assert root_needs_decision(gen_php(3), EncodingKind("support"))
    for n in (3, 4, 5):  # small enough to refute outright
        _, res = solve_encoded(gen_php(n), "support")
        assert res.status == UNSAT and res.stats.decisions >= 1, n

    assert time.monotonic() - started <= 60


def test_06_native_pigeonhole_refutations_need_no_search_either():
    # test_06's refutations on the shipped path: the native counting
    # constraints prune Hall intervals at the root, as the ladder does
    started = time.monotonic()
    for n in range(4, 17):
        inst = gen_php(n)
        for kind_name in ("bound", "range"):
            _, res = solve_encoded(inst, kind_name, method="native")
            assert res.status == UNSAT, (n, kind_name)
            assert res.stats.decisions == 0, (n, kind_name)
    assert time.monotonic() - started <= 60


def test_07_translation_sizes_grow_at_their_expected_rates():
    ns = [8, 10, 12, 14, 16]
    slopes = {}
    for kind_name in ("support", "bound", "range"):
        atoms = [
            len(encode(gen_php(n), EncodingKind(kind_name)).program.atoms())
            for n in ns
        ]
        fit = statistics.linear_regression([math.log(n) for n in ns], [math.log(a) for a in atoms])
        slopes[kind_name] = fit.slope
    assert abs(slopes["support"] - 2.0) <= 0.2
    assert abs(slopes["bound"] - 3.0) <= 0.2
    assert abs(slopes["range"] - 3.0) <= 0.2


def test_08_counting_and_subset_cardinality_expansions_agree():
    def projected_sets(program, base, method):
        norm = normalize_cardinality(program, method)
        models, _, status = enumerate_models(completion_nogoods(norm))
        assert status == UNSAT
        return {frozenset(true_atoms(m) & base) for m in models}

    for n in (1, 2, 3, 4):
        atoms = [Atom("x", (i,)) for i in range(n)]
        base = set(atoms)
        for k in range(1, n + 1):
            for pols in itertools.product((True, False), repeat=n):
                body = tuple(Lit(at, p) for at, p in zip(atoms, pols))
                program = GroundProgram(
                    (ChoiceRule(tuple(atoms)), CardinalityRule(k, body))
                )
                counter = projected_sets(program, base, "counter")
                binomial = projected_sets(program, base, "binomial")
                assert counter == binomial, (n, k, pols)

    outcomes = {}
    for method in ("counter", "binomial"):
        _, res = solve_encoded(gen_php(5), "support", method=method)
        outcomes[method] = res.status
    assert outcomes["counter"] == outcomes["binomial"] == UNSAT


def test_09_watched_propagation_matches_the_reference_scanner():
    rng = random.Random("acceptance:propagation")
    for trial in range(10_000):
        n_ent = rng.randint(1, 12)
        ents = [f"x{i}" for i in range(n_ent)]
        raw = [
            [
                sl(e, rng.random() < 0.5)
                for e in rng.sample(ents, rng.randint(1, min(5, n_ent)))
            ]
            for _ in range(rng.randint(0, 20))
        ]
        seeds = [
            sl(e, rng.random() < 0.5)
            for e in rng.sample(ents, rng.randint(0, min(3, n_ent)))
        ]
        store = NogoodStore()
        for e in ents:
            store.intern(e)
        for ng in raw:
            store.add(ng)
        trail = Trail(store)
        applied = []
        conflict = unit_propagate(store, trail)
        if conflict is None:
            for seed in seeds:
                code = store.code(seed)
                if trail.values[code >> 1]:
                    continue  # already forced; keep the remaining seeds
                trail.decide(code)
                applied.append(seed)
                conflict = unit_propagate(store, trail)
                if conflict is not None:
                    break
        order, status = propagate_naive(raw, applied)
        assert (conflict is None) == (status == "success"), trial
        if conflict is None:
            assert set(trail.assignment()) == set(order), trial

    # the three-nogood chain extends a single decision in fixed order
    chain = [
        [sl("a1", True), sl("a2", False), sl("a3", True), sl("a4", True)],
        [sl("a1", False), sl("a4", True)],
        [sl("a3", False), sl("a4", True)],
    ]
    store = NogoodStore()
    for ng in chain:
        store.add(ng)
    trail = Trail(store)
    trail.assign(store.code(sl("a4", True)), None)
    assert unit_propagate(store, trail) is None
    assert trail.assignment() == [
        sl("a4", True),
        sl("a1", True),
        sl("a3", True),
        sl("a2", True),
    ]


def test_10_native_quasigroup_completions_decode_to_solutions():
    # test_10's quasigroup half on the shipped path: native counting
    for seed in range(20):
        inst = gen_qcp(10, 30, seed)
        started = time.monotonic()
        enc, res = solve_encoded(inst, "support", method="native", timeout_s=10.0)
        elapsed = time.monotonic() - started
        assert res.status == SAT, seed
        assert elapsed <= 10.0, seed
        assert check_solution(inst, decode(enc, res.assignment)), seed


def test_10_benchmark_sanity_quasigroups_and_the_graceful_double_wheel():
    # quasigroup completion: order 10, 30% filled, twenty seeds, each
    # answered SAT within ten seconds and decoding to a real completion
    for seed in range(20):
        inst = gen_qcp(10, 30, seed)
        started = time.monotonic()
        enc, res = solve_encoded(inst, "support", timeout_s=10.0)
        elapsed = time.monotonic() - started
        assert res.status == SAT, seed
        assert elapsed <= 10.0, seed
        assert check_solution(inst, decode(enc, res.assignment)), seed

    # idempotent quasigroup existence, order 3: enumeration count matches
    # the exhaustive oracle
    inst = gen_qep("QG5", 3)
    enc = encode(inst, EncodingKind("support"))
    store = completion_nogoods(normalize_cardinality(enc.program))
    models, _, status = enumerate_models(store)
    assert status == UNSAT
    assert len(models) == len(enumerate_solutions(inst))

    # the double wheel with three-node rims has no graceful labelling, and
    # conflict-driven search must refute it within a minute
    inst = gen_ggp_double_wheel(3)
    enc, res = solve_encoded(inst, "support", timeout_s=60.0)
    assert res.status == UNSAT, (
        f"double wheel n=3 came back {res.status}: exhaustive search over all "
        "injective node labellings finds 0 graceful ones, so SAT is a soundness "
        "bug and UNKNOWN means the refutation ran over its minute"
    )
