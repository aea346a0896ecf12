"""The package surface: its exported names, resolved on access."""

import os
import subprocess
import sys

import pytest

import skewdyck

# the library modules and the names each one exports through the package
EXPORTS = {
    "series": {"ExactnessError", "NonUnitError", "RingMismatchError", "Series", "SeriesError", "WPoly"},
    "paths": {
        "BOUNDED", "DUAL", "FAMILIES", "UNBOUNDED", "CountTable", "PathWord", "count_table",
        "enumerate_paths", "is_valid", "render_ascii", "reverse_dual",
    },
    "dp": {"check_recursions", "dp_table"},
    "genfunc": {
        "average_red_series", "dual_blue_g0", "dual_level_series", "dual_levels",
        "dual_open_ended", "kernel_bundle", "negative_axis_series",
        "negative_boundary_series", "negative_level_series", "negative_levels",
        "primal_level_series", "primal_levels", "primal_open_ended", "red_level_series",
        "red_w_power_slice", "substitution_identity_check",
    },
    "formulas": {
        "dual_coeff_explicit", "kappa_coeff", "mu_coeff", "primal_coeff_explicit",
        "red_coeff_explicit", "trinomial",
    },
    "refs": {"A002212", "A033321_PREFIX", "get_sequence"},
}
PUBLIC = set(EXPORTS).union(*EXPORTS.values())


@pytest.mark.parametrize(
    "module, name", sorted((m, name) for m, names in EXPORTS.items() for name in names)
)
def test_export_is_the_module_attribute(module, name):
    assert getattr(skewdyck, name) is getattr(getattr(skewdyck, module), name)


def test_star_import_and_dir_list_every_export():
    assert sum(map(len, EXPORTS.values())) == 44
    namespace = {}
    exec("from skewdyck import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC == set(skewdyck.__all__)
    assert PUBLIC <= set(dir(skewdyck))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        skewdyck.no_such_name  # noqa: B018


def test_one_module_object_per_name():
    # a submodule imported first, then the package run again: every route
    # to a module reaches one object, so a patch on it is seen by all users
    src = os.path.dirname(os.path.dirname(skewdyck.__file__))
    code = (
        "import importlib, sys\n"
        f"first = {{m: importlib.import_module('skewdyck.' + m) for m in {sorted(EXPORTS)!r}}}\n"
        "import skewdyck\n"
        "importlib.reload(skewdyck)\n"
        "from skewdyck import cli\n"
        "for m, module in first.items():\n"
        "    assert module is sys.modules['skewdyck.' + m] is getattr(skewdyck, m) is getattr(cli, m), m\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], timeout=60, check=True, env=env)
