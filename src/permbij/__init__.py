"""
permbij: bijections between 321-avoiding and 132-avoiding permutations.

The library builds the grid templates, two-row tableaux, and lattice paths
behind two classical bijections, exposes every construction route
separately, and ships an exhaustive verifier that holds the routes against
each other over entire avoidance classes.
"""
import types

from .grid import (
    Square,
    Template,
    bar_reflect,
    diagonal_ls,
    diagonal_template,
    l_corners,
    nested_template,
    rc_realize,
    rc_template,
    rcl_corners,
    realize,
    render_ascii,
)
from .maps import (
    gamma,
    gamma_iterative,
    gamma_template,
    slide_flip_template,
    theta,
    theta_corners,
    theta_rsk,
    theta_slide_flip,
    theta_template,
    theta_via_gamma,
)
from .perm import (
    ENUMERATION_CAP,
    PATTERNS,
    Perm,
    avoids,
    bar,
    catalan,
    complement,
    enumerate_avoiders,
    excedances,
    fixed_points,
    format_permutation,
    inverse,
    inverse_reverse_complement,
    is_permutation,
    parse_permutation,
    require_321_avoider,
    require_permutation,
    reverse,
    reverse_complement,
)
from .rsk import (
    TwoRowTableau,
    dyck_from_tableaux,
    rsk_tableaux,
    template_from_dyck,
    validate_dyck,
)
from .verify import CHECKS, CheckReport, StatTable, run_suite, stats_table

__version__ = "0.1.0"

#: every public name imported above, in sorted order
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
