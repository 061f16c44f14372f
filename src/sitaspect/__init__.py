"""Aspect-annotated situation calculus toolkit.

Hierarchical world states, a non-interference predicate over aspect paths,
frame axiom derivation and regression, a successor-state-axiom compiler for
comparison, and bounded finite-model validation of the underlying
formalisms.
"""

__version__ = "0.1.0"

from .disjoint import (
    CommutativeCanonical,
    ExplicitTable,
    SeqExistsDiff,
    SimpleInequality,
    canonicalize,
    check_monotonicity,
    d_eval,
    elem_disjoint,
)
from .domain import Domain, initial_state
from .errors import SitAspectError
from .finite import FiniteModel, modal_eval
from .frames import (
    aspect_of_action,
    aspect_of_fluent,
    check_aspect_soundness,
    derive_frame_axioms,
    intersects,
    persistence_proof,
    progress,
    progression,
    regress_query,
)
from .reiter import compare_modes, compile_ssa, ssa_query
from .search import reproduce_commutative_pitfall, search_counterexample
from .state import WorldState, eval_fluent, with_fluent
from .terms import AspectAtom, AspectPath, AspectSet, GroundAction, GroundFluent, action, fluent, path
from .validator import (
    FORMALISMS,
    check_commutativity,
    check_noninterference,
    check_premises,
    verify_theorem,
)

__all__ = [
    "AspectAtom", "AspectPath", "AspectSet", "GroundAction", "GroundFluent",
    "WorldState", "Domain", "FiniteModel", "SitAspectError",
    "SimpleInequality", "SeqExistsDiff", "CommutativeCanonical", "ExplicitTable",
    "FORMALISMS",
    "action", "fluent", "path",
    "elem_disjoint", "d_eval", "canonicalize", "check_monotonicity",
    "eval_fluent", "with_fluent", "initial_state",
    "aspect_of_fluent", "aspect_of_action", "intersects",
    "derive_frame_axioms", "check_aspect_soundness", "progress",
    "progression", "regress_query", "persistence_proof",
    "compile_ssa", "ssa_query", "compare_modes",
    "modal_eval", "check_premises", "check_noninterference", "verify_theorem",
    "check_commutativity", "search_counterexample", "reproduce_commutative_pitfall",
]
