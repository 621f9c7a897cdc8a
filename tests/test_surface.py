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
