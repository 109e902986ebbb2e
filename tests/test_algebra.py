import math
import random

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from heisvir import algebra
from heisvir.algebra import (
    AutomorphismSpec,
    LieElement,
    Z1,
    Z2,
    Z3,
    basis_window,
    bracket,
    bracket_gens,
    d,
    I,
    jacobi_check,
    lie,
    lie_sum,
    sigma_hom_check,
)
from oracles import (
    ad_weight,
    apply_sigma,
    bracket_by_fractions,
    bracket_gens_by_fractions,
    jacobi_check_by_fractions,
    jacobi_check_by_triples,
    sigma_hom_check_by_fractions,
)


def test_bracket_dd_central():
    assert bracket(lie(d(2)), lie(d(-2))) == lie_sum((-4, d(0)), (Q(1, 2), Z1))


def test_bracket_gradation_d0():
    for n in range(-3, 4):
        assert bracket(lie(d(0)), lie(d(n))) == lie_sum((n, d(n)))


def test_bracket_dI():
    assert bracket(lie(d(1)), lie(I(-1))) == lie_sum((-1, I(0)), (2, Z2))


def test_bracket_II():
    assert bracket(lie(I(3)), lie(I(-3))) == lie_sum((3, Z3))


def test_centrality():
    xs = [lie(d(4)), lie(I(-2)), lie_sum((1, d(1)), (Q(2, 3), I(5)), (1, Z2))]
    for z in (Z1, Z2, Z3):
        for x in xs:
            assert bracket(lie(z), x).is_zero()
            assert bracket(x, lie(z)).is_zero()


def test_antisymmetry_random():
    rng = random.Random(7)
    gens = basis_window(4)
    for _ in range(50):
        x = LieElement({rng.choice(gens): Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)})
        y = LieElement({rng.choice(gens): Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)})
        assert (bracket(x, y) + bracket(y, x)).is_zero()


def test_gradation_additivity():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(-3, 3)
        n = rng.randint(-3, 3)
        x = lie_sum((rng.randint(1, 3), d(m)), (rng.randint(-3, -1), I(m)))
        y = lie_sum((rng.randint(1, 3), d(n)), (rng.randint(1, 2), I(n)))
        z = bracket(x, y)
        if z:
            assert ad_weight(z) == m + n


def test_ad_weight():
    assert ad_weight(d(5)) == 5
    assert ad_weight(Z2) == 0
    assert ad_weight(lie_sum((1, d(1)), (1, d(2)))) is None
    assert ad_weight(lie_sum((2, d(3)), (5, I(3)))) == 3


def test_jacobi_window():
    assert jacobi_check(4) == []


def test_jacobi_specific_triples():
    for x, y, z in [(d(1), d(-1), d(0)), (d(2), I(-1), I(-1))]:
        lx, ly, lz = lie(x), lie(y), lie(z)
        residual = (
            bracket(lx, bracket(ly, lz))
            + bracket(ly, bracket(lz, lx))
            + bracket(lz, bracket(lx, ly))
        )
        assert residual.is_zero()


def test_jacobi_rejects_bad_bound():
    with pytest.raises(ValueError):
        jacobi_check(0)


def test_jacobi_matches_triple_oracle(monkeypatch):
    assert jacobi_check(2) == jacobi_check_by_triples(2) == []
    # a stray I(0) in every [d(1), y], and in no [y, d(1)], breaks Jacobi on many
    # triples; every rotation of each must be reported
    original = algebra.bracket_gens

    def skewed(x, y):
        out = original(x, y)
        return out + lie(I(0)) if x == d(1) else out

    monkeypatch.setattr(algebra, "bracket_gens", skewed)
    found = jacobi_check(2)
    assert found and found == jacobi_check_by_triples(2)


def test_sigma_identity():
    spec = AutomorphismSpec({}, 0)
    for g in basis_window(3):
        assert apply_sigma(spec, lie(g)) == lie(g)


def test_sigma_b_shift_on_I0():
    spec = AutomorphismSpec({}, 1)
    assert apply_sigma(spec, lie(I(0))) == lie_sum((1, I(0)), (1, Z3))


def test_sigma_laurent_on_d1():
    # a = t^-1 contributes t*a = I(0) and the z2 correction -(1+1) a_{-1}
    spec = AutomorphismSpec({-1: 1}, 0)
    assert apply_sigma(spec, lie(d(1))) == lie_sum((1, d(1)), (1, I(0)), (-2, Z2))


def test_sigma_homomorphism_windows():
    for spec in (
        AutomorphismSpec({}, 0),
        AutomorphismSpec({-1: 1}, 0),
        AutomorphismSpec({-2: 2, -1: 1}, 3),
        AutomorphismSpec({2: Q(1, 3), 0: 1, -1: Q(-2, 5)}, Q(-1, 2)),
    ):
        assert sigma_hom_check(spec, 3) == []


def test_sigma_linear():
    spec = AutomorphismSpec({-2: 2, -1: 1}, 3)
    x = lie_sum((2, d(1)), (Q(1, 3), I(-2)))
    y = lie_sum((1, d(-1)), (-1, Z1))
    assert apply_sigma(spec, x + y) == apply_sigma(spec, x) + apply_sigma(spec, y)


def test_lie_element_equality_structural():
    assert lie_sum((1, d(1)), (-1, d(1))) == LieElement()
    assert lie_sum((Q(2, 4), d(1))) == lie_sum((Q(1, 2), d(1)))


# generators past the windows too, and rationals with the denominators of the structure constants
generators = st.one_of(
    st.tuples(st.sampled_from("dI"), st.integers(-9, 9)),
    st.sampled_from([Z1, Z2, Z3]),
)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
elements = st.dictionaries(generators, rationals, max_size=5).map(LieElement)
specs = st.builds(
    AutomorphismSpec,
    st.dictionaries(st.integers(-3, 3), rationals, max_size=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


def _skew(strays):
    """bracket_gens plus a stray generator in [x, y] for each (x, y) -> g of strays."""
    original = algebra.bracket_gens

    def skewed(x, y):
        out = original(x, y)
        return out + lie(strays[x, y]) if (x, y) in strays else out

    return skewed


def _patch_bracket(monkeypatch, strays):
    """Skew the bracket table alike for the package and the Fraction oracles."""
    skewed = _skew(strays)
    monkeypatch.setattr(algebra, "bracket_gens", skewed)
    monkeypatch.setattr(oracles, "bracket_gens", skewed)


@settings(max_examples=200, deadline=None)
@given(generators, generators)
def test_bracket_table_matches_fraction_oracle(x, y):
    image = bracket_gens(x, y).image
    assert bracket_gens(x, y).coeffs == bracket_gens_by_fractions(x, y)
    # lowest terms over a denominator dividing 12
    den, nums = image
    assert 12 % den == 0 and math.gcd(den, *nums.values()) == 1 and all(nums.values())


@settings(max_examples=150, deadline=None)
@given(elements, elements)
def test_bracket_matches_fraction_oracle(x, y):
    assert bracket(x, y) == bracket_by_fractions(x, y)


@pytest.mark.parametrize("bound", [1, 2])
def test_jacobi_matches_fraction_oracle(bound):
    assert jacobi_check(bound) == jacobi_check_by_fractions(bound) == []


strays = st.dictionaries(
    st.tuples(st.sampled_from(basis_window(1)), st.sampled_from(basis_window(1))),
    st.sampled_from(basis_window(2)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=15, deadline=None)
@given(strays)
def test_jacobi_violations_match_fraction_oracle(strays):
    with pytest.MonkeyPatch.context() as patch:
        _patch_bracket(patch, strays)
        assert jacobi_check(1) == jacobi_check_by_fractions(1)


@settings(max_examples=25, deadline=None)
@given(specs, st.integers(1, 2))
def test_sigma_check_matches_fraction_oracle(spec, bound):
    assert sigma_hom_check(spec, bound) == sigma_hom_check_by_fractions(spec, bound) == []


@settings(max_examples=15, deadline=None)
@given(specs, strays)
def test_sigma_violations_match_fraction_oracle(spec, strays):
    with pytest.MonkeyPatch.context() as patch:
        _patch_bracket(patch, strays)
        assert sigma_hom_check(spec, 1) == sigma_hom_check_by_fractions(spec, 1)


def test_sigma_violation_on_skewed_bracket(monkeypatch):
    # sigma moves I(0) by a z3 term, which a stray I(0) in [d(1), d(-1)] does not get on the right
    _patch_bracket(monkeypatch, {(d(1), d(-1)): I(0)})
    spec = AutomorphismSpec({}, 1)
    found = sigma_hom_check(spec, 1)
    assert found and found == sigma_hom_check_by_fractions(spec, 1)
    assert (d(1), d(-1)) in [(x, y) for x, y, _ in found]
