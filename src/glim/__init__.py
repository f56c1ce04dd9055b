"""glim: exact classification of direct limits of graded matrix algebras.

The grading group is a finite abelian group; everything is computed with
exact rational and cyclotomic arithmetic.  See the README for the descriptor
format and the command-line interface.
"""

from .abelian import (
    CharOrbit,
    FinAbGroup,
    GroupElem,
    Subgroup,
    dual_and_orbits,
    group_new,
    perp,
    quotient,
)
from .cyclotomic import CycNum, CyclotomicField, get_field
from .divalg import (
    Bicharacter,
    BrauerClass,
    DivisionClass,
    brauer_lift,
    brauer_mul,
    enumerate_division_classes,
    op_class,
)
from .groupring import (
    GroupRingElem,
    ProjCoords,
    char_eval,
    cone_preimage,
    lattice_preimage,
    orbit_idempotent,
    project,
    subgroup_sum,
    supp_orbits,
)
from .limits import (
    K0Descriptor,
    LimitDescriptor,
    TriBool,
    absorbs,
    brauer_equivalent,
    in_k_group,
    in_positive_cone,
    iso_elementary,
    iso_general,
    k0_realization,
    quotient_pushforward,
    scaling_invertible,
    standard_form,
    support_invariants,
    tensor_elementary,
)
from .oracle import (
    FiniteGradedAlgebra,
    WedderburnInvariant,
    build_matrix,
    build_twisted,
    graded_iso_finite,
    graded_simple_decompose,
    opposite,
    tensor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
