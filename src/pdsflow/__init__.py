"""Weighted pushdown reachability over pluggable weight domains.

Backward and forward saturation produce an automaton together with an
explicit constraint set; a worklist solver computes the least solution;
readout queries join solved weights along accepting runs.  A bounded
brute-force oracle validates the whole pipeline against enumerated rule
sequences.

Importing the package loads none of its modules: each exported name
imports its module on first use.
"""

import importlib as _importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("algebra", "DistributiveFlowAlgebra FlowAlgebra KillGenElement "
                    "boolean_algebra killgen_algebra minplus_algebra"),
        ("automaton", "POST PRE PAutomaton Transition load_automaton "
                      "make_automaton query validate_input_automaton"),
        ("encode", "CallEdge ICFG IntraEdge Procedure analysis_report encode_icfg "
                   "load_icfg render_report"),
        ("laws", "LawReport LawVerdict check_laws"),
        ("oracle", "OracleReport PathQuery PathSetValue Run accepted_configs "
                   "accepting_runs accepts build_delta_post2 build_delta_pre "
                   "check_completeness check_soundness enumerate_paths "
                   "join_over_paths path_weight predecessor_configs "
                   "reachable_configs step transition_witness"),
        ("pds", "Configuration PushdownSystem Rule load_pds mid_location "
                "parse_config_text"),
        ("saturation", "Constraint SaturationResult TraceEntry post_star pre_star "
                       "render_constraints"),
        ("solver", "Solution SolverConfig eval_lhs solve_least"),
        ("tabulated", "FiniteLattice powerset_lattice tabulated_framework_algebra"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
