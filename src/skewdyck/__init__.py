"""Exact counting of skew Dyck paths and their variants.

Four independent computation routes — brute-force enumeration, state-diagram
dynamic programming, kernel-method closed-form series, and explicit
trinomial-coefficient formulas — cross-validated against each other and
against embedded reference sequence prefixes (A002212, A033321).
"""

from .series import (
    ExactnessError,
    NonUnitError,
    RingMismatchError,
    Series,
    SeriesError,
    WPoly,
)
from .paths import (
    BOUNDED,
    DUAL,
    FAMILIES,
    UNBOUNDED,
    CountTable,
    PathWord,
    count_table,
    enumerate_paths,
    is_valid,
    render_ascii,
    reverse_dual,
)
from .dp import check_recursions, dp_table
from .genfunc import (
    average_red_series,
    dual_blue_g0,
    dual_level_series,
    dual_levels,
    dual_open_ended,
    kernel_bundle,
    negative_axis_series,
    negative_boundary_series,
    negative_level_series,
    negative_levels,
    primal_level_series,
    primal_levels,
    primal_open_ended,
    red_level_series,
    red_w_power_slice,
    substitution_identity_check,
)
from .formulas import (
    dual_coeff_explicit,
    mu_coeff,
    primal_coeff_explicit,
    red_coeff_explicit,
    trinomial,
)
from .refs import A002212, A033321_PREFIX, get_sequence

__version__ = "1.0.0"
