"""The package's exported names."""

import types

import pdsflow


def test_all_is_the_imported_names_without_submodules():
    for name in pdsflow.__all__:  # names load on first use
        getattr(pdsflow, name)
    public = {name for name, value in vars(pdsflow).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(public) == pdsflow.__all__
    for name in pdsflow.__all__:
        assert not isinstance(getattr(pdsflow, name), types.ModuleType), name
    namespace = {}
    exec("from pdsflow import *", namespace)
    assert "solve_least" in namespace and "saturation" not in namespace


def test_all_is_the_pinned_public_surface():
    """Adding or removing a public name means editing this list."""
    assert pdsflow.__all__ == (
        "CallEdge Configuration Constraint DistributiveFlowAlgebra "
        "FiniteLattice FlowAlgebra ICFG IntraEdge KillGenElement LawReport "
        "LawVerdict OracleReport PAutomaton POST PRE Procedure "
        "PushdownSystem Rule Run SaturationResult Solution SolverConfig "
        "Transition accepted_configs accepting_runs accepts "
        "analysis_report boolean_algebra build_delta_post2 build_delta_pre "
        "check_completeness check_laws check_soundness encode_icfg eval_lhs "
        "killgen_algebra load_automaton load_icfg load_pds make_automaton "
        "mid_location minplus_algebra parse_config_text path_weight "
        "post_star powerset_lattice pre_star query render_constraints "
        "render_report solve_least step tabulated_framework_algebra "
        "transition_witness validate_input_automaton"
    ).split()
