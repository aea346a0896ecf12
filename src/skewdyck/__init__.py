"""Exact counting of skew Dyck paths and their variants.

Four independent computation routes — brute-force enumeration, state-diagram
dynamic programming, kernel-method closed-form series, and explicit
trinomial-coefficient formulas — cross-validated against each other and
against embedded reference sequence prefixes (A002212, A033321).

What loads when: ``import skewdyck`` executes no library module.  It
places ``series``, ``paths``, ``dp``, ``genfunc``, ``formulas`` and ``refs``
in ``sys.modules`` and on the package as lazy modules, and each one
executes on the first access to one of its attributes.  The names exported
here (``skewdyck.dp_table``, ``from skewdyck import WPoly``) are read from
their module on access, so using one loads that module and the modules it
imports.  Every CLI job is a fresh interpreter, so a command compiles only
the modules it runs: ``table`` runs ``genfunc``, ``series`` and ``refs``
(the parser reads the ``oeis`` ids), ``paths`` runs ``paths``, ``series``
and ``refs``, and ``verify`` runs all six.
"""

import importlib.util
import sys

# exported name -> the library module that defines it
_HOME = {
    name: module
    for module, names in (
        ("series", "ExactnessError NonUnitError RingMismatchError Series SeriesError WPoly"),
        (
            "paths",
            "BOUNDED DUAL FAMILIES UNBOUNDED CountTable PathWord count_table"
            " enumerate_paths is_valid render_ascii reverse_dual",
        ),
        ("dp", "check_recursions dp_table"),
        (
            "genfunc",
            "average_red_series dual_blue_g0 dual_level_series dual_levels"
            " dual_open_ended kernel_bundle negative_axis_series"
            " negative_boundary_series negative_level_series negative_levels"
            " primal_level_series primal_levels primal_open_ended red_level_series"
            " red_w_power_slice substitution_identity_check",
        ),
        (
            "formulas",
            "dual_coeff_explicit kappa_coeff mu_coeff primal_coeff_explicit red_coeff_explicit"
            " trinomial",
        ),
        ("refs", "A002212 A033321_PREFIX get_sequence"),
    )
    for name in names.split()
}
_MODULES = tuple(dict.fromkeys(_HOME.values()))

__all__ = [*_MODULES, *_HOME]
__version__ = "1.0.0"


def _lazy(name):
    """The module ``skewdyck.<name>``: the one already imported, if any (a
    second object would split monkeypatching and tracing between two
    copies), or a new one that executes on its first attribute access."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in _MODULES)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *_HOME})
