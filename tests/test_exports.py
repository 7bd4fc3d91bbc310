"""Each submodule keeps one export list: its __all__."""

import importlib
import inspect
import pkgutil

import pytest

import invspan

MODULES = sorted(info.name for info in pkgutil.iter_modules(invspan.__path__))

# module-level constants that belong to a module's public surface
CONSTANTS = {
    "lie_core": {"DEFAULT_RANK_TOL"},
    "sphere_harmonics": {"RADIAL_LAWS"},
}


def _defined_here(module):
    """Public functions and classes whose home is module."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or callable(obj))
        and getattr(obj, "__module__", None) == module.__name__
    }


def test_every_submodule_is_covered():
    assert MODULES == [
        "cli",
        "errors",
        "invariance_engine",
        "lie_core",
        "monte_carlo_stats",
        "so3_irreps",
        "sphere_harmonics",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"invspan.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert set(exported) == _defined_here(module) | CONSTANTS.get(name, set())
    for attr in exported:
        assert hasattr(module, attr), attr


def test_package_keeps_no_second_export_list():
    assert not hasattr(invspan, "__all__")
    assert not hasattr(invspan, "__getattr__")
    assert invspan.__version__
