"""Weighted pushdown reachability over pluggable weight domains.

Backward and forward saturation produce an automaton together with an
explicit constraint set; a worklist solver computes the least solution;
readout queries join solved weights along accepting runs.  A bounded
brute-force oracle validates the whole pipeline against enumerated rule
sequences.
"""

from types import ModuleType as _ModuleType

from .algebra import (
    FlowAlgebra,
    FiniteLattice,
    KillGenElement,
    LawReport,
    LawVerdict,
    boolean_algebra,
    check_laws,
    killgen_algebra,
    minplus_algebra,
    powerset_lattice,
    tabulated_framework_algebra,
)
from .automaton import (
    POST,
    PRE,
    PAutomaton,
    Run,
    Transition,
    accepted_configs,
    accepting_runs,
    accepts,
    load_automaton,
    make_automaton,
    query,
    read_weight_post,
    read_weight_pre,
    validate_input_automaton,
)
from .encode import (
    CallEdge,
    ICFG,
    IntraEdge,
    Procedure,
    analysis_report,
    encode_icfg,
    load_icfg,
    render_report,
)
from .oracle import (
    OracleReport,
    PathQuery,
    PathSetValue,
    check_completeness,
    check_soundness,
    enumerate_paths,
    enumerate_paths_depth_first,
    join_over_paths,
    predecessor_configs,
    reachable_configs,
)
from .pds import (
    Configuration,
    PushdownSystem,
    Rule,
    build_delta_pre,
    build_delta_post,
    build_delta_post2,
    load_pds,
    mid_location,
    parse_config_text,
    path_weight,
    step,
)
from .saturation import (
    Const,
    Constraint,
    SaturationResult,
    TraceEntry,
    Var,
    post_star,
    pre_star,
    render_constraints,
    transition_witness,
)
from .solver import (
    Solution,
    SolverConfig,
    eval_lhs,
    solve_least,
)

# the names imported above, without the submodules the imports also bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
