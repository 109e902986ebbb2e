"""The public surface of the package and its value classes.

`heisvir` resolves its names on lookup, so the list of names, where each one
comes from and that a lookup is never cached are pinned here.  The value
classes (records, not dataclasses) keep the construction, equality, hash,
repr and frozenness they had as dataclasses; the literal values below were
recorded from the dataclass versions.
"""

import copy
import importlib
import pickle
from fractions import Fraction

import pytest

import heisvir
from heisvir import AutomorphismSpec, HWParams, ISParams, SearchResult, SimplicityVerdict
from heisvir.expr import Gen, Num, Pow, Prod, Sum, parse

EXPORTS = {
    "algebra": ["AutomorphismSpec", "I", "LieElement", "Q", "Z1", "Z2", "Z3", "bracket", "d", "jacobi_check", "lie", "sigma_hom_check"],
    "criteria": [
        "ALL_INTEGERS",
        "NPoly",
        "SimplicityVerdict",
        "annihilator_cover",
        "integer_roots",
        "rho",
        "rho_word",
        "tensor_simplicity",
        "w_mu_kappa_simple",
        "whittaker_simplicity",
    ],
    "expr": ["parse", "parse_lie", "parse_uea", "print_expr"],
    "linsearch": [
        "MatrixQ",
        "MembershipTester",
        "SearchResult",
        "maximal_submodule_gens",
        "nullspace",
        "shifted_membership",
        "singular_vectors",
        "weight_basis",
        "whittaker_vector_search",
    ],
    "modules": [
        "EmbeddedModule",
        "FockModule",
        "HWParams",
        "ISParams",
        "IntermediateSeriesModule",
        "ModuleVector",
        "OmegaModule",
        "ShiftedTensorModule",
        "VermaModule",
        "WMuKappaModule",
        "WhittakerCharacter",
        "WhittakerModule",
        "act",
        "act_uea",
        "embedded_action",
        "module_axiom_check",
        "phi_prime",
    ],
    "pbw": ["UEAElement", "multiply", "negative_part_basis", "normal_form", "uea"],
}
SUBMODULES = ["algebra", "criteria", "errors", "expr", "linsearch", "modules", "pbw"]
PUBLIC = sorted([name for names in EXPORTS.values() for name in names] + SUBMODULES)


def test_all_is_the_committed_list():
    assert len(PUBLIC) == 64
    assert heisvir.__all__ == PUBLIC


def test_dir_lists_every_public_name():
    # cli and params are submodules too; they are attributes once something imports them
    public = {name for name in dir(heisvir) if not name.startswith("_")}
    assert public - {"cli", "params"} == set(PUBLIC)


def test_each_name_is_its_submodule_object():
    for module, names in EXPORTS.items():
        source = importlib.import_module("heisvir." + module)
        for name in names:
            assert getattr(heisvir, name) is getattr(source, name), name
    for module in SUBMODULES:
        assert getattr(heisvir, module) is importlib.import_module("heisvir." + module)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from heisvir import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        heisvir.no_such_name


def test_lookup_is_not_cached(monkeypatch):
    # a tracer that patches a submodule function must be seen through the package, and not after it restores it
    original = heisvir.algebra.bracket
    assert heisvir.bracket is original

    def patched(x, y):
        return original(x, y)

    monkeypatch.setattr(heisvir.algebra, "bracket", patched)
    assert heisvir.bracket is patched
    monkeypatch.undo()
    assert heisvir.bracket is original


Q = Fraction
TREE = parse("d(1)*d(-1) - 2*d(0) + 3/4*I(-2)^2")

# (value, repr) with the repr recorded from the dataclass versions
REPRS = [
    (AutomorphismSpec(), "AutomorphismSpec(a_coeffs={}, b=Fraction(0, 1))"),
    (
        AutomorphismSpec({-2: 2, -1: 1, 3: 0}, 3),
        "AutomorphismSpec(a_coeffs={-2: Fraction(2, 1), -1: Fraction(1, 1)}, b=Fraction(3, 1))",
    ),
    (AutomorphismSpec(a_coeffs={1: Q(1, 2)}, b="1/3"), "AutomorphismSpec(a_coeffs={1: Fraction(1, 2)}, b=Fraction(1, 3))"),
    (SimplicityVerdict("simple"), "SimplicityVerdict(kind='simple', witness_n=None, witness=None, reason=None)"),
    (SimplicityVerdict("not_simple", 3, "w"), "SimplicityVerdict(kind='not_simple', witness_n=3, witness='w', reason=None)"),
    (
        SimplicityVerdict(kind="inconclusive", reason="r"),
        "SimplicityVerdict(kind='inconclusive', witness_n=None, witness=None, reason='r')",
    ),
    (Num(Q(3, 4)), "Num(value=Fraction(3, 4))"),
    (Gen(("d", 1)), "Gen(g=('d', 1))"),
    (Pow(Gen(("I", -2)), 3), "Pow(base=Gen(g=('I', -2)), exp=3)"),
    (Prod((Num(Q(2)), Gen(("d", 0)))), "Prod(factors=(Num(value=Fraction(2, 1)), Gen(g=('d', 0))))"),
    (Sum(((1, Gen(("d", 1))), (-1, Num(Q(1))))), "Sum(terms=((1, Gen(g=('d', 1))), (-1, Num(value=Fraction(1, 1)))))"),
    (SearchResult([1, 2]), "SearchResult(vectors=[1, 2], num_variables=None, rank=None)"),
    (SearchResult(vectors=[], num_variables=3, rank=2), "SearchResult(vectors=[], num_variables=3, rank=2)"),
    (HWParams(), "HWParams(i0=Fraction(0, 1), d0=Fraction(0, 1), z1=Fraction(0, 1), z2=Fraction(0, 1), z3=Fraction(0, 1))"),
    (
        HWParams(1, "5/2", z2=Q(1, 2)),
        "HWParams(i0=Fraction(1, 1), d0=Fraction(5, 2), z1=Fraction(0, 1), z2=Fraction(1, 2), z3=Fraction(0, 1))",
    ),
    (ISParams(), "ISParams(a=Fraction(0, 1), b=Fraction(0, 1), F=Fraction(0, 1))"),
    (ISParams(Q(1, 2), 2, F=3), "ISParams(a=Fraction(1, 2), b=Fraction(2, 1), F=Fraction(3, 1))"),
]
VALUES = [value for value, _ in REPRS]


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


@pytest.mark.parametrize("value, text", REPRS, ids=[type(value).__name__ for value in VALUES])
def test_repr_as_the_dataclass(value, text):
    assert repr(value) == text


def test_field_order_and_coercion():
    assert HWParams.__match_args__ == ("i0", "d0", "z1", "z2", "z3")
    assert _fields(HWParams(d0=2)) == (Q(0), Q(2), Q(0), Q(0), Q(0))
    assert all(type(x) is Fraction for x in _fields(HWParams(1, "1/2", 3, 4, 5)))
    assert ISParams(b="3/2").b == Q(3, 2)
    assert AutomorphismSpec({"2": "1/2", 5: 0}).a_coeffs == {2: Q(1, 2)}
    assert Pow(base=Num(Q(1)), exp=2).exp == 2


def test_equality_by_class_and_fields():
    for value in VALUES:
        twin = type(value)(*_fields(value))
        assert twin == value and not twin != value
    assert HWParams(1) != HWParams(2)
    assert HWParams() != ISParams()
    assert Num(Q(1)) != Gen(Q(1))
    assert Prod((Num(Q(1)),)) != Sum((Num(Q(1)),))
    assert HWParams().__eq__((Q(0),) * 5) is NotImplemented
    assert parse("d(1)*d(-1) - 2*d(0) + 3/4*I(-2)^2") == TREE


def test_hash():
    # the tuple of fields, as the dataclasses hashed; these literals were recorded from them
    assert hash(HWParams()) == -1981010948988890347
    assert hash(HWParams(1, "5/2", z2=Q(1, 2))) == 2654374615245004947
    assert hash(ISParams()) == 3010437511937009226
    assert hash(ISParams(Q(1, 2), 2, 3)) == 5475845605276264058
    assert hash(Num(Q(3, 4))) == -7658026753311515304
    for value in VALUES:
        if isinstance(value, (SearchResult, AutomorphismSpec)):
            continue
        assert hash(value) == hash(_fields(value))
    assert hash(TREE) == hash(parse("d(1)*d(-1) - 2*d(0) + 3/4*I(-2)^2"))


def test_unhashable():
    with pytest.raises(TypeError, match="SearchResult"):
        hash(SearchResult([]))
    with pytest.raises(TypeError, match="dict"):
        hash(AutomorphismSpec({1: 1}))


@pytest.mark.parametrize("value", [v for v in VALUES if not isinstance(v, SearchResult)], ids=lambda v: type(v).__name__)
def test_frozen(value):
    name = type(value).__match_args__[0]
    with pytest.raises(AttributeError, match="cannot assign to field '%s'" % name):
        setattr(value, name, 5)
    with pytest.raises(AttributeError, match="cannot delete field '%s'" % name):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_search_result_is_mutable():
    result = SearchResult([])
    result.rank = 4
    assert result == SearchResult([], rank=4)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
