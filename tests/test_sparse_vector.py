"""Property tests of the sparse-vector core shared by LieElement, UEAElement and ModuleVector."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heisvir.algebra import LieElement, basis_window, bracket, lie
from heisvir.errors import MixedModules
from heisvir.modules import HWParams, VermaModule, act
from heisvir.pbw import UEAElement, multiply, negative_part_basis, normal_form, uea

GENS = basis_window(2)
MONOS = [()] + negative_part_basis(1) + negative_part_basis(2)
V1 = VermaModule(HWParams(i0=Fraction(2, 3), d0=Fraction(5, 7), z1=1, z2=Fraction(1, 3), z3=2))
V2 = VermaModule(HWParams(i0=1))

# zero coefficients are drawn on purpose: the constructor must drop them
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6) | st.integers(-3, 3)
scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4) | st.integers(-2, 2)


def maps(keys):
    return st.dictionaries(st.sampled_from(keys), coefficients, max_size=6)


lie_elements = maps(GENS).map(LieElement)
uea_elements = maps(MONOS).map(UEAElement)
vectors = maps(MONOS).map(lambda coeffs: V1.vector(coeffs))
any_vectors = st.one_of(lie_elements, uea_elements, vectors)


def well_formed(x):
    """No stored zero, and every stored coefficient an exact Fraction."""
    return all(type(c) is Fraction and c != 0 for c in x.coeffs.values())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_laws_and_stored_coefficients(data):
    u = data.draw(any_vectors)
    kind = lie_elements if isinstance(u, LieElement) else uea_elements if isinstance(u, UEAElement) else vectors
    v = data.draw(kind)
    s = data.draw(scalars)
    results = [u, v, u + v, u - v, -u, s * u, u * s, (u + v) - v, -u + u, 0 * u]
    for x in results:
        assert type(x) is type(u)
        assert well_formed(x)
    assert (u + v) - v == u
    assert not (-u + u) and (-u + u).is_zero()
    assert not (0 * u)
    # no coercion on the internal path may leave an int, which would make 1 / c a float
    for x in results:
        for c in x.coeffs.values():
            assert type(1 / c) is Fraction


@settings(max_examples=60, deadline=None)
@given(lie_elements, lie_elements, st.lists(st.sampled_from(GENS), min_size=1, max_size=4))
def test_bracket_kernel_and_action_results_are_well_formed(x, y, word):
    g = word[0]
    assert well_formed(lie(g)) and well_formed(uea(g)) and well_formed(lie(g) - x)
    assert well_formed(bracket(x, y)) and well_formed(bracket(lie(g), y))
    u = normal_form(word)
    assert well_formed(u)
    assert well_formed(multiply(u, u))
    assert well_formed(act(x, V1.cyclic()))


@settings(max_examples=60, deadline=None)
@given(maps(GENS))
def test_lie_element_never_equals_uea_element(coeffs):
    x = LieElement(coeffs)
    u = UEAElement(coeffs)
    assert x.coeffs == u.coeffs
    assert x != u and u != x


@settings(max_examples=30, deadline=None)
@given(vectors)
def test_module_vector_unhashable_and_bound_to_its_module(v):
    with pytest.raises(TypeError):
        hash(v)
    w = V2.vector(dict(v.coeffs))
    assert w.coeffs == v.coeffs
    assert (w == v) is False
    with pytest.raises(MixedModules):
        v + w
    with pytest.raises(MixedModules):
        v - w
