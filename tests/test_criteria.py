import math
import random
import time

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from heisvir.algebra import Z1, Z2, Z3, d, I, lie_sum
from heisvir.criteria import (
    ALL_INTEGERS,
    NPoly,
    annihilator_cover,
    inconclusive,
    integer_roots,
    not_simple,
    rho,
    rho_word,
    simple,
    tensor_simplicity,
    w_mu_kappa_simple,
    whittaker_simplicity,
)
from heisvir.errors import NotNegativePart
from heisvir.modules import ISParams, WMuKappaModule, WhittakerCharacter, act
from heisvir.pbw import UEAElement, UNIT, negative_part_basis, normal_form, uea, word_of
from oracles import (
    NPolyByFractions,
    acts_by_character,
    integer_roots_by_sympy,
    integer_roots_by_trial_division,
    rho_word_by_fractions,
    whittaker_locus,
    whittaker_vectors_by_search,
    whittaker_witness,
)

GENERIC = ISParams(a=1, b=2, F=3)


def rand_q(rng, span=4):
    return Q(rng.randint(-span, span), rng.randint(1, 3))


def test_rho_unit():
    assert rho(UEAElement({UNIT: Q(1)}), GENERIC) == NPoly.const(1)


def test_rho_single_d():
    for p in (1, 2, 3):
        isp = ISParams(Q(1, 2), Q(2, 3), 0)
        # -(a + p + n - p b)
        assert rho(uea(d(-p)), isp) == NPoly.linear(-(isp.a + p - p * isp.b), -1)


def test_rho_single_I():
    assert rho(uea(I(-1)), GENERIC) == NPoly.const(-GENERIC.F)
    assert rho(uea(I(-4)), GENERIC) == NPoly.const(-GENERIC.F)


def test_rho_word_both_orders():
    # the recursion through either PBW representative gives the same value
    lhs = rho_word((d(-1), I(-1)), GENERIC)
    rhs = rho(normal_form((d(-1), I(-1))), GENERIC)
    assert lhs == rhs
    expected = NPoly.linear(GENERIC.F * (GENERIC.a + 2 - GENERIC.b), GENERIC.F)
    assert lhs == expected


def test_rho_well_defined_random_words():
    rng = random.Random(17)
    gens = [d(-j) for j in range(1, 5)] + [I(-j) for j in range(1, 5)]
    for isp in (GENERIC, ISParams(Q(1, 2), Q(-1, 3), 0)):
        for _ in range(60):
            word = []
            degree = 0
            while degree < 4:
                g = rng.choice(gens)
                if degree - g[1] > 4:
                    break
                word.append(g)
                degree -= g[1]
            word = tuple(word)
            assert rho(normal_form(word), isp) == rho_word(word, isp)


def test_rho_degree_law():
    for mono in negative_part_basis(4):
        p = rho(UEAElement({mono: Q(1)}), GENERIC)
        s = sum(e for g, e in mono if g[0] == "d")
        assert p.degree() == s
    # with F = 0 any I factor kills the value
    isp0 = ISParams(1, 2, 0)
    assert rho(uea(I(-1)), isp0).is_zero()
    assert not rho(uea(d(-2)), isp0).is_zero()


def test_rho_rejects_nonnegative():
    # the generator is named as the parser writes it, not as a tuple
    with pytest.raises(NotNegativePart, match=r"^d\(0\) is not in the strictly negative part$"):
        rho(uea(d(0)), GENERIC)
    with pytest.raises(NotNegativePart):
        rho(uea(I(2)), GENERIC)


def test_integer_roots_examples():
    assert integer_roots(NPoly.linear(-2, -1)) == [-2]
    assert integer_roots(NPoly.linear(Q(-3, 2), -1)) == []
    assert integer_roots(NPoly()) is ALL_INTEGERS


def test_integer_roots_products():
    # (n - 2)(n + 5)(2n - 1) has integer roots 2, -5
    p = NPoly.linear(-2, 1) * NPoly.linear(5, 1) * NPoly.linear(-1, 2)
    assert integer_roots(p) == [-5, 2]
    # n^2 (n - 7)
    p2 = NPoly((0, 0, -7, 1))
    assert integer_roots(p2) == [0, 7]


def _product(roots):
    """The primitive integer polynomial with exactly these rational roots."""
    p = NPoly.const(1)
    for r in roots:
        p = p * NPoly.linear(-r.numerator, r.denominator)
    return p


def root_polys(numerators, perturbations):
    """Products of 1-6 linear factors with integer and non-integer rational
    roots, times n^k and a rational scalar, plus a constant perturbation."""
    fractional = st.builds(Q, numerators, st.integers(2, 4)).filter(lambda r: r.denominator != 1)
    roots = st.lists(st.one_of(numerators.map(Q), fractional), min_size=1, max_size=6)
    return st.builds(
        lambda rs, k, c, scale: (NPoly([0] * k + [1]) * _product(rs) + NPoly.const(c)) * scale,
        roots,
        st.integers(0, 2),
        perturbations,
        st.sampled_from([Q(1), Q(-1), Q(3), Q(-2, 7)]),
    )


# trailing coefficients stay below 10^7, so trial division up to the square root is cheap
@settings(max_examples=400, deadline=None)
@given(root_polys(st.integers(-9, 9), st.one_of(st.just(0), st.integers(-30, 30))))
def test_integer_roots_match_trial_division(p):
    assert integer_roots(p) == integer_roots_by_trial_division(p)


NEAR_1E15 = st.one_of(st.integers(10**15 - 40, 10**15 + 40), st.integers(-(10**15) - 40, -(10**15) + 40))


@settings(max_examples=60, deadline=None)
@given(root_polys(NEAR_1E15, st.sampled_from([0, 1, -(10**15), 10**30])))
def test_integer_roots_match_sympy_near_1e15(p):
    assert integer_roots(p) == integer_roots_by_sympy(p)


def test_whittaker_simplicity_z3_nonzero():
    char = WhittakerCharacter(1, {1: 0, 2: 0}, {0: 0, 1: 1}, z2=0, z3=1)
    assert str(whittaker_simplicity(char)) == "SIMPLE (obstructions (1, 0))"


def test_whittaker_simplicity_z3_zero():
    assert whittaker_simplicity(WhittakerCharacter(2, {}, {2: 5}, z3=0)).is_simple
    assert whittaker_simplicity(WhittakerCharacter(1, {}, {1: 0}, z3=0)).is_not_simple


SMALL_Q = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.lists(SMALL_Q, min_size=6, max_size=6),
    SMALL_Q.filter(bool),
    SMALL_Q.filter(bool),
    st.booleans(),
)
def test_whittaker_verdict_matches_search(m, values, z2, z3, on_locus):
    # z3 != 0 and z2 != 0: the module is not simple iff it has a Whittaker vector besides w
    d_vals = dict(zip(range(m, 2 * m + 1), values))
    i_vals = dict(zip(range(m + 1), values[m + 1 :]))
    if on_locus:
        d_vals.update(whittaker_locus(m, i_vals, z2, z3))
    char = WhittakerCharacter(m, d_vals, i_vals, z2=z2, z3=z3)
    verdict = whittaker_simplicity(char)
    assert verdict.is_not_simple == (len(whittaker_vectors_by_search(char)) > 1)
    if on_locus:
        assert verdict.is_not_simple
        assert acts_by_character(whittaker_witness(char))


def test_whittaker_simplicity_cost_does_not_grow_with_m():
    m = 1000
    char = WhittakerCharacter(
        m, {k: Q(k, 7) for k in range(m, 2 * m + 1)}, {k: Q(k + 1, 3) for k in range(m + 1)}, z1=1, z2=2, z3=3
    )
    t0 = time.perf_counter()
    whittaker_simplicity(char)
    assert time.perf_counter() - t0 < 0.5


def test_w_mu_kappa_verdict_matches_direct_action():
    # not simple iff d(r-1) v is a second Whittaker vector
    rng = random.Random(31)
    for trial in range(12):
        r = 1 + trial % 2
        mu = [rand_q(rng) for _ in range(r + 1)]
        kappa = [rand_q(rng) for _ in range(r + 1)]
        if trial % 4 < 2:
            mu[r] = mu[r - 1] = kappa[r] = Q(0)
        M = WMuKappaModule(r, mu, kappa)
        witness = act(d(r - 1), M.cyclic())
        assert w_mu_kappa_simple(r, mu, kappa).is_not_simple == acts_by_character(witness), (r, mu, kappa)


def test_tensor_simplicity_examples():
    assert tensor_simplicity([uea(d(-1))], ISParams(Q(1, 2), 0, 0)).is_simple
    v = tensor_simplicity([uea(d(-1))], ISParams(1, 0, 0))
    assert v.is_not_simple and v.witness_n == -2
    gen = UEAElement({((d(-1), 1),): Q(1), ((I(-1), 1),): Q(1)})
    v2 = tensor_simplicity([gen], ISParams(0, 0, 1))
    assert v2.is_not_simple and v2.witness_n == -2
    v3 = tensor_simplicity([uea(I(-1))], ISParams(1, 1, 0))
    assert v3.is_not_simple and "every integer" in v3.witness


def test_tensor_simplicity_exclude_n0():
    # root only at n = 0: excluded case becomes simple
    isp = ISParams(-1, 0, 0)  # rho(d(-1)) = -(n + -1 + 1) = -n
    assert rho(uea(d(-1)), isp) == NPoly.linear(0, -1)
    assert tensor_simplicity([uea(d(-1))], isp).is_not_simple
    assert tensor_simplicity([uea(d(-1))], isp, exclude_n0=True).is_simple


def test_tensor_simplicity_pair_generators():
    # common root requires hitting both polynomials
    g1 = uea(d(-1))
    g2 = uea(d(-2))
    isp = ISParams(1, 0, 0)  # roots: n = -2 for g1, n = -3 for g2
    assert tensor_simplicity([g1, g2], isp).is_simple
    assert tensor_simplicity([g1, g1], isp).is_not_simple


@pytest.mark.parametrize(
    "verdict, text, label",
    [
        (simple(), "SIMPLE", "SIMPLE"),
        (simple("no common integer rho root"), "SIMPLE (no common integer rho root)", "SIMPLE"),
        (not_simple("common rho root", n=-2), "NOT_SIMPLE n=-2", "NOT_SIMPLE n=-2"),
        (not_simple("both obstruction expressions vanish"), "NOT_SIMPLE (both obstruction expressions vanish)", "NOT_SIMPLE"),
        (inconclusive("generator search truncated at degree 3"), "INCONCLUSIVE generator search truncated at degree 3",
         "INCONCLUSIVE generator search truncated at degree 3"),
    ],
)
def test_verdict_text_and_label(verdict, text, label):
    # str() is the human CLI line, label the porcelain verdict record
    assert str(verdict) == text
    assert verdict.label == label


def test_tensor_simplicity_needs_generators():
    with pytest.raises(ValueError):
        tensor_simplicity([], GENERIC)
    # a zero element generates no submodule; it read as "every integer n is a common root"
    for gens in ([UEAElement()], [uea(d(-1)), normal_form((d(-1),)) - uea(d(-1))]):
        with pytest.raises(ValueError, match="a zero one generates no submodule"):
            tensor_simplicity(gens, GENERIC)


def poly_multiples(root, window):
    """Annihilator family for C[t, t^-1](t - root): both function and derivation parts."""
    out = []
    for i in range(-window, window):
        out.append(lie_sum((1, I(i + 1)), (-root, I(i))))
        out.append(lie_sum((1, d(i)), (-root, d(i - 1))))
    return out


def test_annihilator_cover_coprime():
    ann1 = poly_multiples(1, 6) + [lie_sum((1, Z1)), lie_sum((1, Z2)), lie_sum((1, Z3))]
    ann2 = poly_multiples(2, 6)
    assert annihilator_cover(ann1, ann2, 6)


def test_annihilator_cover_one_sided():
    ann1 = [lie_sum((1, d(i))) for i in range(1, 7)] + [lie_sum((1, I(i))) for i in range(1, 7)]
    assert not annihilator_cover(ann1, [], 6)


def test_annihilator_cover_full_window():
    full = [lie_sum((1, g)) for g in [d(n) for n in range(-4, 5)] + [I(n) for n in range(-4, 5)] + [Z1, Z2, Z3]]
    assert annihilator_cover(full, full, 4)


def test_annihilator_cover_same_root_fails():
    # (t-1) against (t-1): the quotient is not covered
    ann = poly_multiples(1, 6) + [lie_sum((1, Z1)), lie_sum((1, Z2)), lie_sum((1, Z3))]
    assert not annihilator_cover(ann, poly_multiples(1, 6), 6)


def test_w_mu_kappa_examples():
    assert w_mu_kappa_simple(1, [0, 1], [0, 0]).is_simple
    assert w_mu_kappa_simple(1, [5, 0], [0, 0]).is_simple
    assert not w_mu_kappa_simple(1, [0, 0], [3, 0]).is_simple
    assert w_mu_kappa_simple(1, [0, 0], [0, 7]).is_simple
    assert not w_mu_kappa_simple(2, [4, 0, 0], [1, 2, 0]).is_simple
    assert w_mu_kappa_simple(2, [0, 1, 0], [0, 0, 0]).is_simple


@pytest.mark.parametrize(
    "r,mu,kappa,message",
    [
        (0, [], [], "r must be >= 1"),
        (1, [1], [0, 0], "mu has entries r..2r"),
        (2, [1, 2, 3], [0, 0], "mu has entries r..2r"),
    ],
)
def test_w_mu_kappa_rejects_bad_data(r, mu, kappa, message):
    with pytest.raises(ValueError, match=message):
        w_mu_kappa_simple(r, mu, kappa)


poly_coeffs = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=8), max_size=5)
scalars = st.fractions(min_value=-4, max_value=4, max_denominator=5) | st.integers(-3, 3)


def _stored_like_oracle(p, q):
    """p (an NPoly) and q (the Fraction oracle) hold the same polynomial, and p
    holds it in lowest terms with no trailing zero."""
    assert p.coeffs == q.coeffs and all(type(c) is Q for c in p.coeffs)
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


@settings(max_examples=200, deadline=None)
@given(poly_coeffs, poly_coeffs, scalars, st.integers(-5, 5))
def test_npoly_matches_fraction_oracle(a, b, c, n):
    p, q = NPoly(a), NPoly(b)
    fp, fq = NPolyByFractions(a), NPolyByFractions(b)
    for got, want in ((p, fp), (p + q, fp + fq), (p - q, fp - fq), (-p, -fp), (p * q, fp * fq), (c * p, fp * c), (p * c, fp * c)):
        _stored_like_oracle(got, want)
        assert got(n) == want(n)
    # structural equality agrees with equality of the coefficient tuples
    assert (p == q) == (fp.coeffs == fq.coeffs)
    assert p - p == NPoly() and hash(p + q) == hash(q + p)


negative_words = st.lists(st.sampled_from([d(-j) for j in range(1, 5)] + [I(-j) for j in range(1, 5)]), max_size=6)
is_params = st.builds(ISParams, *[st.fractions(min_value=-5, max_value=5, max_denominator=7)] * 3)


@settings(max_examples=200, deadline=None)
@given(negative_words, is_params)
def test_rho_word_matches_fraction_oracle(word, isp):
    _stored_like_oracle(rho_word(tuple(word), isp), rho_word_by_fractions(tuple(word), isp))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(negative_part_basis(3) + negative_part_basis(4)), st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4), is_params)
def test_rho_matches_fraction_oracle(coeffs, isp):
    P = UEAElement(coeffs)
    expected = NPolyByFractions()
    for mono, c in P.items():
        expected = expected + rho_word_by_fractions(word_of(mono), isp) * c
    _stored_like_oracle(rho(P, isp), expected)
