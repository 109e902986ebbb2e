"""Exact computations with the twisted Heisenberg-Virasoro algebra.

`import heisvir` loads no submodule: each public name is read from its submodule
on every lookup (PEP 562), so the package keeps no copy that could go stale."""

from importlib import import_module as _import_module

# submodule -> the public names it provides here
_EXPORTS = {
    "algebra": "AutomorphismSpec LieElement Q Z1 Z2 Z3 bracket d I jacobi_check lie sigma_hom_check",
    "criteria": "ALL_INTEGERS NPoly SimplicityVerdict annihilator_cover integer_roots rho rho_word "
    "tensor_simplicity w_mu_kappa_simple whittaker_simplicity",
    "expr": "parse parse_lie parse_uea print_expr",
    "linsearch": "MatrixQ MembershipTester SearchResult maximal_submodule_gens nullspace shifted_membership "
    "singular_vectors weight_basis whittaker_vector_search",
    "modules": "EmbeddedModule FockModule IntermediateSeriesModule ModuleVector OmegaModule ShiftedTensorModule "
    "VermaModule WMuKappaModule WhittakerModule act act_uea embedded_action module_axiom_check phi_prime",
    "params": "HWParams ISParams WhittakerCharacter",
    "pbw": "UEAElement multiply negative_part_basis normal_form uea",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("algebra", "criteria", "errors", "expr", "linsearch", "modules", "pbw")

__all__ = sorted([*_SOURCE, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module("." + name, __name__)
    if name in _SOURCE:
        return getattr(_import_module("." + _SOURCE[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
