"""Exact computations with the twisted Heisenberg-Virasoro algebra."""

from .algebra import (
    AutomorphismSpec,
    LieElement,
    Q,
    Z1,
    Z2,
    Z3,
    bracket,
    d,
    I,
    jacobi_check,
    lie,
    sigma_hom_check,
)
from .criteria import (
    ALL_INTEGERS,
    NPoly,
    SimplicityVerdict,
    annihilator_cover,
    integer_roots,
    rho,
    rho_word,
    tensor_simplicity,
    w_mu_kappa_simple,
    whittaker_simplicity,
)
from .expr import parse, parse_lie, parse_uea, print_expr
from .linsearch import (
    MatrixQ,
    MembershipTester,
    SearchResult,
    maximal_submodule_gens,
    nullspace,
    shifted_membership,
    singular_vectors,
    weight_basis,
    whittaker_vector_search,
)
from .modules import (
    EmbeddedModule,
    FockModule,
    HWParams,
    ISParams,
    IntermediateSeriesModule,
    ModuleVector,
    OmegaModule,
    ShiftedTensorModule,
    VermaModule,
    WMuKappaModule,
    WhittakerCharacter,
    WhittakerModule,
    act,
    act_uea,
    embedded_action,
    module_axiom_check,
    phi_prime,
)
from .pbw import UEAElement, multiply, negative_part_basis, normal_form, uea

__all__ = [name for name in dir() if not name.startswith("_")]
