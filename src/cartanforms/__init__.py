"""Exact verification engine for symmetric-space Cartan connections.

Exact-rational gauge algebras, spectral exterior calculus on flat tori,
Cartan curvature machinery, and the 3d/4d gravity action functionals with
their machine-checkable identities.
"""

from .algebra import (
    ALGEBRA_NAMES,
    AlgebraDescriptor,
    AlgebraElement,
    AlgebraError,
    BilinearForm,
    UnsupportedStar,
    bracket,
    build_algebra,
    descriptor_to_json,
    hodge_star,
    invariant_form,
    invariant_form_space,
    involution,
    killing_form,
    killing_gram,
    selfdual_split,
    sl2_isomorphism,
    star_form,
    star_gram,
)
from .calculus import (
    LieForm,
    ScalarForm,
    TrigPoly,
    beta_pair,
    covariant_d,
    exterior_d,
    integrate,
    lie_bracket_forms,
    load_fields,
    pair_integral,
    random_form,
    random_scalar_form,
    save_fields,
    wedge,
)
from .cartan import (
    CartanConnection,
    CurvatureReport,
    Path,
    bianchi_residuals,
    coframe_check,
    curvature,
    get_model,
    holonomy,
    involute_connection,
    maurer_cartan_flatness,
)
from .actions import (
    ActionValue,
    CouplingConstants,
    IdentityReport,
    analytic_coframe,
    cs_action,
    cs_omega_torsion_action,
    cs_variation,
    identity_residual,
    levi_civita_connection,
    mm_action,
    palatini_action,
    tmg_action,
    topological_variation_check,
)

__version__ = "0.1.0"
