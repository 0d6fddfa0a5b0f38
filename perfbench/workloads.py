"""Inputs, stage chains and verdict checks for the benchmark workloads.

``make_jobs`` builds a workload's inputs from its seed (this is set-up);
``run_job`` pushes one job through the library's stage functions inside
the timed region; ``check_job`` compares the outcome with the known
answer and ``job_sizes`` reads sizes off the public objects, both
outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from cspasp import (
    SAT,
    UNKNOWN,
    UNSAT,
    BodyId,
    CardinalityRule,
    ChoiceRule,
    Constraint,
    CspInstance,
    EncodingKind,
    EncodingPropagator,
    IntegrityRule,
    NormalRule,
    SolverConfig,
    check_solution,
    completion_nogoods,
    consistency_oracle,
    decode,
    emit_ground,
    encode,
    format_instance,
    normalize_cardinality,
    parse_ground,
    parse_instance,
    solve,
)
from cspasp.benchmarks import (
    gen_ggp_double_wheel,
    gen_php,
    gen_qcp,
    random_instance,
    random_state,
    verify_graceful,
)
from cspasp.cli import _agrees as agrees  # the agreement rule of `cspasp check`

# php n=7 in several orderings rather than one php n=8: php8's search time
# moves between 2.6 and 10 s with declaration order.  "tiny" is the
# self-test size; it keeps every stage and check but drops ggp.
SIZES = {
    "full": dict(qcp_order=8, qcp_fill=30, php_n=7, php_orders=4,
                 ggp_n=4, replay_instances=30, replay_states=50),
    "tiny": dict(qcp_order=5, qcp_fill=30, php_n=4, php_orders=2,
                 ggp_n=None, replay_instances=2, replay_states=3),
}

SOLVE_TIMEOUT_S = 60.0

# stages summed into compile_s and solve_s, per job type (see stages_of)
COMPILE_STAGES = ("csp.parse", "encoder.encode", "program.emit", "program.parse_ground",
                  "program.normalize", "program.complete")
SOLVE_STAGES = ("solver.solve", "encoder.decode")
REPLAY_COMPILE_STAGES = ("encoder.encode", "encoder.propagator_init")
REPLAY_SOLVE_STAGES = ("encoder.propagate",)


@dataclass
class SolveJob:
    """One instance text under one encoding, with its known answer."""

    label: str
    text: str
    kind: str
    expect: str  # SAT or UNSAT
    via_text: bool  # round-trip the program through emit_ground/parse_ground
    graceful_n: int | None = None  # SAT models checked with verify_graceful


@dataclass
class ReplayJob:
    """One random instance with a batch of states for EncodingPropagator."""

    label: str
    instance: CspInstance
    kind: str
    level: str
    states: list


@dataclass
class Outcome:
    decided: int = 0
    stats: object = None
    values: dict | None = None
    status: str | None = None
    pruned: list = field(default_factory=list)
    instance: CspInstance | None = None
    objects: tuple = ()  # (program, normalized program, store) for sizing


def make_jobs(workload: str, seed: int, size: str) -> list:
    p = SIZES[size]
    if workload == "compile-qcp-replay":
        return _qcp_jobs(seed, p) + _replay_jobs(seed, p)
    if workload == "search-php-ggp":
        return _search_jobs(seed, p)
    raise ValueError(f"unknown workload {workload!r}")


def _qcp_jobs(seed: int, p: dict) -> list:
    qseed = random.Random(f"compile-qcp:{seed}").randrange(10 ** 6)
    text = format_instance(gen_qcp(p["qcp_order"], p["qcp_fill"], qseed))
    label = f"qcp{p['qcp_order']}/{p['qcp_fill']} s{qseed}"
    return [SolveJob(f"{label} {kind}", text, kind, SAT, via_text=True)
            for kind in ("bound", "range")]


def _search_jobs(seed: int, p: dict) -> list:
    rng = random.Random(f"search-php-ggp:{seed}")
    php = gen_php(p["php_n"])
    jobs = []
    for k in range(p["php_orders"]):
        variables = list(php.variables)
        rng.shuffle(variables)
        scope = list(php.constraints[0].scope)
        rng.shuffle(scope)
        shuffled = CspInstance(variables, [Constraint(php.constraints[0].kind, tuple(scope))])
        text = format_instance(shuffled)
        for kind in ("direct", "support"):
            jobs.append(SolveJob(f"php{p['php_n']} order{k} {kind}", text, kind, UNSAT,
                                 via_text=False))
    if p["ggp_n"] is not None:
        # declaration order stays canonical: reordering moves ggp4 between
        # about 100 and 2,500 conflicts, which no run-to-run bound absorbs
        n = p["ggp_n"]
        text = format_instance(gen_ggp_double_wheel(n))
        jobs.append(SolveJob(f"ggp{n} support", text, "support", SAT, via_text=False,
                             graceful_n=n))
    return jobs


def _replay_jobs(seed: int, p: dict) -> list:
    # the instance panel is one fixed draw and the seed draws the states:
    # 60 random instances differ in total size by about 12% between draws,
    # more than a run-to-run bound can absorb
    jobs = []
    for kind, level, holes in (("range", "range", True), ("bound", "bound", False)):
        panel = random.Random(f"replay-small:panel:{kind}")
        rng = random.Random(f"replay-small:{seed}:{kind}")
        for i in range(p["replay_instances"]):
            instance = random_instance(panel, 5, 5, holes=holes)
            states = [random_state(rng, instance, intervals=not holes)
                      for _ in range(p["replay_states"])]
            jobs.append(ReplayJob(f"random{i} {kind}", instance, kind, level, states))
    return jobs


def stages_of(job) -> tuple[tuple, tuple]:
    """The stages of ``job`` that count as compiling and as solving."""
    if isinstance(job, ReplayJob):
        return REPLAY_COMPILE_STAGES, REPLAY_SOLVE_STAGES
    return COMPILE_STAGES, SOLVE_STAGES


def run_job(rec, job) -> Outcome:
    """The timed stage chain for one job."""
    call = rec.call
    if isinstance(job, ReplayJob):
        enc = call("encoder.encode", "encoder", encode, job.instance, EncodingKind(job.kind))
        prop = call("encoder.propagator_init", "encoder", EncodingPropagator, enc)
        pruned = [call("encoder.propagate", "encoder", prop.propagate, s) for s in job.states]
        return Outcome(decided=len(pruned), pruned=pruned,
                       objects=(enc.program, None, prop.store))
    instance = call("csp.parse", "csp", parse_instance, job.text)
    enc = call("encoder.encode", "encoder", encode, instance, EncodingKind(job.kind))
    program = enc.program
    if job.via_text:
        text = call("program.emit", "program", emit_ground, program)
        program = call("program.parse_ground", "program", parse_ground, text)
    normalized = call("program.normalize", "program", normalize_cardinality, program)
    store = call("program.complete", "program", completion_nogoods, normalized)
    result = call("solver.solve", "solver", solve, store, SolverConfig(timeout_s=SOLVE_TIMEOUT_S))
    values = None
    if result.status == SAT:
        values = call("encoder.decode", "encoder", decode, enc, result.assignment)
    return Outcome(decided=int(result.status != UNKNOWN), stats=result.stats, values=values,
                   status=result.status, instance=instance,
                   objects=(enc.program, normalized, store))


def plant_wrong_verdict(job, out: Outcome) -> None:
    """Corrupt one verdict so the self-test can see the gate catch it."""
    if isinstance(job, ReplayJob):
        out.pruned[0] = job.states[0] if out.pruned[0] is None else None
    elif out.status == SAT:
        out.status, out.values = UNSAT, None
    else:
        out.status = SAT


def check_job(rec, job, out: Outcome) -> list[str]:
    """Errors found in ``out``; an UNKNOWN verdict counts as one."""
    call = rec.call
    if isinstance(job, ReplayJob):
        errors = []
        for i, (state, pruned) in enumerate(zip(job.states, out.pruned)):
            oracle = call("csp.oracle", "csp", consistency_oracle, job.instance, state, job.level)
            if not agrees(job.kind, job.instance, pruned, oracle):
                errors.append(f"{job.label} state {i}: propagator {pruned!r} != oracle {oracle!r}")
        return errors
    if out.status != job.expect:
        return [f"{job.label}: {out.status}, expected {job.expect}"]
    if out.status == SAT:
        if job.graceful_n is not None:
            ok = call("csp.check", "csp", verify_graceful, job.graceful_n, out.values)
        else:
            ok = call("csp.check", "csp", check_solution, out.instance, out.values)
        if not ok:
            return [f"{job.label}: decoded model fails its check"]
    return []


def job_sizes(job, out: Outcome) -> dict[str, int]:
    """Program and store sizes, from the objects the stages returned."""
    program, normalized, store = out.objects
    if normalized is None:  # EncodingPropagator keeps only the store
        normalized = normalize_cardinality(program)
    sizes = {
        "encoder.atoms": len(program.atoms()),
        "encoder.rules": len(program.rules),
        "encoder.rules_cardinality": _count(program, CardinalityRule),
        "program.rules_normal_pre": _count(program, NormalRule),
        "program.rules_choice_pre": _count(program, ChoiceRule),
        "program.rules_integrity_pre": _count(program, IntegrityRule),
        "program.rules_normal_post": _count(normalized, NormalRule),
        "program.rules_choice_post": _count(normalized, ChoiceRule),
        "program.rules_integrity_post": _count(normalized, IntegrityRule),
        "program.cnt_atoms": 0,
        "propagation.entities_atom": 0,
        "propagation.entities_body": 0,
        "propagation.nogoods_unit": 0,
        "propagation.nogoods_binary": 0,
        "propagation.nogoods_long": 0,
    }
    for entity in store.entities:
        if isinstance(entity, BodyId):
            sizes["propagation.entities_body"] += 1
        else:
            sizes["propagation.entities_atom"] += 1
            sizes["program.cnt_atoms"] += entity.name == "_cnt"
    for ng in store.nogoods:
        if not ng.learned:
            n = len(ng.lits)
            key = "unit" if n == 1 else "binary" if n == 2 else "long"
            sizes["propagation.nogoods_" + key] += 1
    sizes["entities"] = store.n_entities
    sizes["nogoods"] = store.n_static
    return sizes


def _count(program, rule_type) -> int:
    return sum(1 for rule in program.rules if isinstance(rule, rule_type))
