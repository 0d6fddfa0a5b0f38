"""Benchmark families and the suite runner."""

import random

import pytest

from cspasp.benchmarks import (
    QEP_AXIOMS,
    BenchReport,
    BenchSpec,
    double_wheel_edges,
    gen_ggp_double_wheel,
    gen_php,
    gen_qcp,
    gen_qep,
    random_instance,
    random_state,
    run_suite,
    verify_graceful,
)
from cspasp.csp import (
    ALLDIFFERENT,
    PERMUTATION,
    TABLE,
    check_solution,
    format_instance,
)
from cspasp.encoder import EncodingKind, EncodingPropagator, encode
from cspasp.program import completion_nogoods
from cspasp.solver import SAT, UNSAT, solve

from .oracles import enumerate_solutions


def solve_instance(inst, kind="support"):
    enc = encode(inst, EncodingKind(kind))
    store = completion_nogoods(enc.program)
    return enc, solve(store)


# -- pigeons --------------------------------------------------------------------


def test_php_shape():
    inst = gen_php(5)
    assert len(inst.variables) == 5
    assert all(v.domain == (1, 2, 3, 4) for v in inst.variables)
    assert [c.kind for c in inst.constraints] == [ALLDIFFERENT]
    assert enumerate_solutions(gen_php(3)) == []


def test_php_rejects_trivial_sizes():
    with pytest.raises(ValueError):
        gen_php(1)


# -- quasigroup completion ---------------------------------------------------------


def test_qcp_shape_and_determinism():
    inst = gen_qcp(5, 40, seed=3)
    assert len(inst.variables) == 25
    assert all(v.domain == (1, 2, 3, 4, 5) for v in inst.variables)
    kinds = {c.kind for c in inst.constraints}
    assert kinds == {ALLDIFFERENT}
    assert len(inst.constraints) == 10  # five rows + five columns
    assert len(inst.assignments) == round(25 * 40 / 100)
    assert format_instance(inst) == format_instance(gen_qcp(5, 40, seed=3))
    assert format_instance(inst) != format_instance(gen_qcp(5, 40, seed=4))


def test_qcp_permutation_flag_switches_constraint_kind():
    inst = gen_qcp(4, 25, seed=1, permutation=True)
    assert {c.kind for c in inst.constraints} == {PERMUTATION}


def test_qcp_hints_come_from_a_latin_square():
    # the sampled pre-assignments are mutually consistent by construction
    for seed in (0, 1, 2):
        inst = gen_qcp(4, 50, seed=seed)
        enc, res = solve_instance(inst)
        assert res.status == SAT
        from cspasp.encoder import decode

        assert check_solution(inst, decode(enc, res.assignment))


def test_qcp_validates_fill():
    with pytest.raises(ValueError):
        gen_qcp(4, 101, seed=0)
    with pytest.raises(ValueError):
        gen_qcp(4, -1, seed=0)


# -- quasigroup existence -----------------------------------------------------------


def test_qep_axiom_list_and_validation():
    assert QEP_AXIOMS == ("QG3", "QG4", "QG5", "QG6", "QG7")
    with pytest.raises(ValueError):
        gen_qep("QG1", 4)
    with pytest.raises(ValueError):
        gen_qep("QG5", 0)


def test_qep_fixes_the_diagonal():
    inst = gen_qep("QG5", 4)
    assert len(inst.variables) == 16
    diag = {name: value for name, value in inst.assignments}
    for i in range(1, 5):
        assert diag[f"m_{i}_{i}"] == i


def test_qep_symmetry_cut_restricts_the_last_column():
    inst = gen_qep("QG5", 5)
    cuts = [
        c
        for c in inst.constraints
        if c.kind == TABLE and len(c.scope) == 1 and c.polarity == "forbidden"
    ]
    by_var = {c.scope[0]: sorted(t[0] for t in c.tuples) for c in cuts}
    # m[a][n] > a - 2 for every a >= 3: values 1 .. a-2 are forbidden
    assert by_var == {
        "m_3_5": [1],
        "m_4_5": [1, 2],
        "m_5_5": [1, 2, 3],
    }


def test_qep_row_and_column_structure():
    inst = gen_qep("QG4", 3)
    alldiff = [c for c in inst.constraints if c.kind == ALLDIFFERENT]
    assert len(alldiff) == 6  # three rows + three columns
    tables = [c for c in inst.constraints if c.kind == TABLE and len(c.scope) > 1]
    assert tables, "axiom expansion should leave table constraints"
    assert all(c.polarity == "forbidden" for c in tables)


@pytest.mark.parametrize("axiom", QEP_AXIOMS)
def test_qep_counts_match_exhaustive_search_at_order_three(axiom):
    inst = gen_qep(axiom, 3)
    want = enumerate_solutions(inst)
    enc = encode(inst, EncodingKind("support"))
    store = completion_nogoods(enc.program)
    from cspasp.solver import enumerate_models

    models, _, status = enumerate_models(store)
    assert status == UNSAT
    assert len(models) == len(want)


# -- graceful graphs ----------------------------------------------------------------


def test_double_wheel_edge_list():
    edges = double_wheel_edges(3)
    assert len(edges) == 12  # two triangles plus six spokes
    names = [e for _, _, e in edges]
    assert len(set(names)) == 12
    nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    assert nodes == {"hub", "a1", "a2", "a3", "b1", "b2", "b3"}
    assert double_wheel_edges(3) == edges  # deterministic
    with pytest.raises(ValueError):
        double_wheel_edges(2)


def test_double_wheel_instance_shape():
    n = 3
    inst = gen_ggp_double_wheel(n)
    node_vars = [v for v in inst.variables if not v.name.startswith("e_")]
    edge_vars = [v for v in inst.variables if v.name.startswith("e_")]
    assert len(node_vars) == 2 * n + 1
    assert len(edge_vars) == 4 * n
    assert all(v.domain == tuple(range(0, 4 * n + 1)) for v in node_vars)
    assert all(v.domain == tuple(range(1, 4 * n + 1)) for v in edge_vars)
    perms = [c for c in inst.constraints if c.kind == PERMUTATION]
    assert len(perms) == 1 and len(perms[0].scope) == 4 * n
    links = [c for c in inst.constraints if c.kind == TABLE]
    assert len(links) == 4 * n
    for c in links:
        assert c.polarity == "allowed"
        assert all(p != q and abs(p - q) == e for p, q, e in c.tuples)


def test_double_wheel_labelling_found_and_verified():
    n = 4
    inst = gen_ggp_double_wheel(n)
    enc, res = solve_instance(inst)
    assert res.status == SAT
    from cspasp.encoder import decode

    labelling = decode(enc, res.assignment)
    assert check_solution(inst, labelling)
    assert verify_graceful(n, labelling)


def test_verify_graceful_rejects_bad_labellings():
    n = 3
    names = [v.name for v in gen_ggp_double_wheel(n).variables]
    flat = {name: 0 for name in names}
    assert not verify_graceful(n, flat)  # duplicate labels everywhere
    with pytest.raises(ValueError):
        verify_graceful(n, {"hub": 0})  # incomplete assignment


def count_graceful(edges, limit=None):
    """Graceful labellings of a graph given as (u, v, ...) edge tuples.

    Plain backtracking over node labels in first-appearance order: every
    node takes a distinct label in [0, m] and each edge whose endpoints
    are both labelled must add a difference not seen yet.  No encoder and
    no solver are involved.  Stops once ``limit`` labellings are counted.
    """
    m = len(edges)
    nodes = list(dict.fromkeys(x for u, v, *_ in edges for x in (u, v)))
    pos = {x: i for i, x in enumerate(nodes)}
    back = [[] for _ in nodes]  # endpoints labelled earlier, per node
    for u, v, *_ in edges:
        first, last = sorted((pos[u], pos[v]))
        back[last].append(first)
    labels = [0] * len(nodes)
    used_label = [False] * (m + 1)
    used_diff = [False] * (m + 1)
    count = 0

    def place(i):
        nonlocal count
        if i == len(nodes):
            count += 1
            return
        for x in range(m + 1):
            if used_label[x]:
                continue
            diffs = [abs(x - labels[j]) for j in back[i]]
            if len(set(diffs)) < len(diffs) or any(used_diff[d] for d in diffs):
                continue
            labels[i] = x
            used_label[x] = True
            for d in diffs:
                used_diff[d] = True
            place(i + 1)
            used_label[x] = False
            for d in diffs:
                used_diff[d] = False
            if limit is not None and count >= limit:
                return

    place(0)
    return count


def test_double_wheel_gracefulness_by_exhaustive_search():
    # controls from Golomb rulers: K4 is graceful only through the ruler
    # {0,1,4,6} and its mirror (2 x 4! labellings), K5 is not graceful
    def complete(k):
        return [(i, j) for i in range(k) for j in range(i + 1, k)]

    assert count_graceful(complete(4)) == 48
    assert count_graceful(complete(5)) == 0

    def hub_first(n):
        # double_wheel_edges lists the spokes last; labelling the hub
        # first prunes far earlier
        return sorted(double_wheel_edges(n), key=lambda e: e[0] != "hub")

    assert count_graceful(hub_first(3)) == 0
    assert count_graceful(hub_first(4), limit=1) == 1


# -- random instances for oracle comparisons -----------------------------------------


def test_random_instance_respects_requested_shape():
    rng = random.Random(1)
    for _ in range(200):
        inst = random_instance(rng, max_vars=4, max_dom=5)
        assert 2 <= len(inst.variables) <= 4
        assert all(1 <= len(v.domain) <= 5 for v in inst.variables)
        assert 1 <= len(inst.constraints) <= 3


def test_random_instance_without_holes_is_interval_valued():
    rng = random.Random(2)
    for _ in range(200):
        inst = random_instance(rng, holes=False)
        for v in inst.variables:
            lo, hi = v.domain[0], v.domain[-1]
            assert v.domain == tuple(range(lo, hi + 1))


def test_random_state_stays_inside_the_instance():
    rng = random.Random(3)
    for _ in range(200):
        inst = random_instance(rng)
        state = random_state(rng, inst)
        for v in inst.variables:
            dom = state.domains[v.name]
            assert dom and set(dom) <= set(inst.effective_domain(v.name))


def test_random_state_interval_mode_takes_slices():
    rng = random.Random(4)
    for _ in range(200):
        inst = random_instance(rng, holes=False)
        state = random_state(rng, inst, intervals=True)
        for v in inst.variables:
            eff = inst.effective_domain(v.name)
            dom = state.domains[v.name]
            start = eff.index(dom[0])
            assert eff[start : start + len(dom)] == dom


# -- the suite runner ---------------------------------------------------------------


def test_spec_labels_and_dispatch():
    assert BenchSpec("php", {"n": 4}).label() == "n=4"
    assert (
        BenchSpec("qcp", {"order": 5, "fill": 40, "seed": 1}).label()
        == "order=5,fill=40,seed=1"
    )
    assert len(BenchSpec("qep", {"axiom": "QG5", "order": 3}).build().variables) == 9
    assert len(BenchSpec("ggp", {"n": 3}).build().variables) == 19
    with pytest.raises(ValueError):
        BenchSpec("sudoku", {}).build()


def test_run_suite_produces_one_row_per_pairing():
    report = run_suite(
        [BenchSpec("php", {"n": 4})],
        [EncodingKind("bound"), EncodingKind("range", 2)],
    )
    lines = report.to_csv().splitlines()
    assert lines[0] == (
        "family,params,encoding,hall_limit,status,decisions,conflicts,"
        "propagations,time_ms,atoms,rules"
    )
    assert len(lines) == 3
    assert lines[1].startswith("php,n=4,bound,,UNSAT,0,")
    assert lines[2].startswith("php,n=4,range,2,UNSAT,")


def test_run_suite_text_table_is_aligned():
    report = run_suite([BenchSpec("php", {"n": 4})], [EncodingKind("bound")])
    text = report.to_text().splitlines()
    assert text[0].split() == [
        "family", "params", "encoding", "hall_limit", "status", "decisions",
        "conflicts", "propagations", "time_ms", "atoms", "rules",
    ]
    assert text[1].startswith("php")
    assert all(line == line.rstrip() for line in text)


def test_run_suite_is_deterministic_apart_from_timings():
    def scrub(report):
        rows = []
        for line in report.to_csv().splitlines()[1:]:
            cells = line.split(",")
            cells[8] = "t"
            rows.append(",".join(cells))
        return rows

    specs = [BenchSpec("php", {"n": 4}), BenchSpec("php", {"n": 5})]
    kinds = [EncodingKind("support"), EncodingKind("bound")]
    assert scrub(run_suite(specs, kinds)) == scrub(run_suite(specs, kinds))


def test_run_suite_flags_budget_exhaustion():
    report = run_suite(
        [BenchSpec("php", {"n": 8})],
        [EncodingKind("support")],
        timeout_s=0.0,
    )
    row = report.rows[0]
    assert row.status == "UNKNOWN"


def test_empty_suite():
    report = run_suite([], [EncodingKind("direct")])
    assert report.rows == []
    assert report.to_csv().splitlines() == [
        "family,params,encoding,hall_limit,status,decisions,conflicts,"
        "propagations,time_ms,atoms,rules"
    ]
