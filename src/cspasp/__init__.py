"""Propositional encodings of finite-domain CSPs with a nogood solver.

The package translates constraint networks (all-different, permutation,
table constraints) into ground logic programs under four encodings whose
unit propagation realizes different consistency levels, converts programs
to completion nogoods, and solves them with conflict-driven search.

The names below are the pipeline's stages and the types they pass along;
everything else is reached through its submodule (``cspasp.csp``,
``cspasp.encoder``, ``cspasp.program``, ``cspasp.propagation``,
``cspasp.solver``, ``cspasp.benchmarks``).
"""

from . import encoder, solver
from .csp import (
    Constraint,
    CspInstance,
    check_solution,
    consistency_oracle,
    format_instance,
    parse_instance,
)
from .encoder import EncodingKind, EncodingPropagator, decode, encode
from .errors import CapExceeded
from .program import (
    Atom,
    CardinalityRule,
    ChoiceRule,
    GroundProgram,
    IntegrityRule,
    Lit,
    NormalRule,
    completion_nogoods,
    emit_ground,
    normalize_cardinality,
    parse_ground,
)
from .propagation import BodyId, SignedLiteral
from .solver import SAT, UNKNOWN, UNSAT, SolverConfig, enumerate_models, solve

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BodyId",
    "CapExceeded",
    "CardinalityRule",
    "ChoiceRule",
    "Constraint",
    "CspInstance",
    "EncodingKind",
    "EncodingPropagator",
    "GroundProgram",
    "IntegrityRule",
    "Lit",
    "NormalRule",
    "SAT",
    "SignedLiteral",
    "SolverConfig",
    "UNKNOWN",
    "UNSAT",
    "check_solution",
    "completion_nogoods",
    "consistency_oracle",
    "decode",
    "emit_ground",
    "encode",
    "encoder",
    "enumerate_models",
    "format_instance",
    "normalize_cardinality",
    "parse_ground",
    "parse_instance",
    "solve",
    "solver",
]
