import math
import random

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from heisvir import modules
from heisvir.algebra import (
    LieElement,
    Z1,
    Z2,
    Z3,
    basis_window,
    bracket,
    d,
    I,
    lie,
    lie_sum,
    to_ints,
)
from heisvir.errors import MixedModules, NeedNonzeroZ3, LambdaZero, UnsupportedGenerator
from heisvir.modules import (
    EmbeddedModule,
    FockModule,
    HWParams,
    ISParams,
    IntermediateSeriesModule,
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
from heisvir.expr import parse_uea
from heisvir.pbw import UEAElement, UNIT, multiply, negative_part_basis, straighten, uea, word_of
from oracles import (
    act_by_fractions,
    axpy,
    to_fractions,
    act_uea_by_fractions,
    act_uea_by_letters,
    example33_action,
    module_axiom_check_by_pairs,
)
from test_cli import ACT_CASES, _case_module
from test_golden import CASES

HW = HWParams(i0=3, d0=Q(5, 2), z1=1, z2=Q(1, 2), z3=2)
ISP = ISParams(a=Q(1, 2), b=Q(1, 3), F=2)


def fock_window(max_degree):
    keys = [UNIT]
    for deg in range(1, max_degree + 1):
        keys += negative_part_basis(deg, restrict=lambda g: g[0] == "I")
    return keys


def test_verma_examples():
    V = VermaModule(HW)
    w = V.cyclic()
    assert act(d(1), act(d(-1), w)) == (-2 * HW.d0) * w
    assert act(d(1), act(I(-1), w)) == (-HW.i0 + 2 * HW.z2) * w


def test_verma_freeness():
    # actions stay inside the negative-part monomial basis
    rng = random.Random(2)
    V = VermaModule(HW)
    gens = basis_window(3)
    vec = act_uea(uea(d(-2)), act_uea(uea(I(-1)), V.cyclic()))
    for _ in range(40):
        vec2 = act(rng.choice(gens), vec)
        for key in vec2.coeffs:
            for g in word_of(key):
                assert g[0] in ("I", "d") and g[1] <= -1
        if vec2:
            vec = vec2


def test_intermediate_series_example():
    A = IntermediateSeriesModule(ISP)
    assert act(d(1), A.vector(0)) == (ISP.a + ISP.b) * A.vector(1)
    assert act(I(-2), A.vector(1)) == ISP.F * A.vector(-1)
    assert act(Z1, A.vector(0)).is_zero()


def test_fock_requires_nonzero_z3():
    with pytest.raises(NeedNonzeroZ3):
        FockModule(1, 1, 0)


def test_fock_vacuum_d0_eigenvalue():
    F = FockModule(HW.i0, HW.z2, HW.z3)
    vac = F.vacuum()
    expected = -HW.i0**2 / (2 * HW.z3) + HW.i0 * HW.z2 / HW.z3
    assert act(d(0), vac) == expected * vac


def test_fock_matches_verma_value():
    # the d(1) action on I(-1)vac must reproduce the Verma number
    F = FockModule(HW.i0, HW.z2, HW.z3)
    vac = F.vacuum()
    assert act(d(1), act(I(-1), vac)) == (-HW.i0 + 2 * HW.z2) * vac


def test_fock_act_uea_heis_pair():
    F = FockModule(HW.i0, HW.z2, HW.z3)
    assert act_uea(multiply(uea(I(1)), uea(I(-1))), F.vacuum()) == HW.z3 * F.vacuum()
    assert act_uea(UEAElement({UNIT: Q(1)}), F.vacuum()) == F.vacuum()


def test_fock_z1_scalar():
    F = FockModule(HW.i0, HW.z2, HW.z3)
    scalar = 1 - 12 * HW.z2**2 / HW.z3
    for key in fock_window(4):
        v = F.vector(key)
        assert act(Z1, v) == scalar * v


def test_fock_weight_ladder():
    # the d(0)-eigenvalue drops by the total degree of the monomial
    F = FockModule(HW.i0, HW.z2, HW.z3)
    vac_eig = -HW.i0**2 / (2 * HW.z3) + HW.i0 * HW.z2 / HW.z3
    from heisvir.pbw import mono_weight

    for deg in range(1, 5):
        for key in negative_part_basis(deg, restrict=lambda g: g[0] == "I"):
            v = F.vector(key)
            assert act(d(0), v) == (vac_eig + mono_weight(key)) * v


def test_fock_window_doubling():
    F = FockModule(Q(2, 3), Q(-1, 2), Q(5))
    for key in fock_window(3):
        for k in range(-4, 5):
            base = F.d_action(k, key)
            wide = F.d_action(k, key, extra=6 + 2 * abs(k))
            assert base == wide


def test_fock_axioms_small():
    F = FockModule(Q(1), Q(1, 2), Q(-2))
    assert module_axiom_check(F, 2, fock_window(3)) == []


def test_whittaker_base_case():
    char = WhittakerCharacter(2, {2: 1, 3: Q(1, 2), 4: 3}, {0: 2, 1: Q(4, 5), 2: 7}, z1=1, z2=2, z3=3)
    W = WhittakerModule(char)
    cyc = W.cyclic()
    for g in [d(2), d(3), d(4), d(5), d(7), I(0), I(1), I(2), I(3), Z1, Z2, Z3]:
        assert act(g, cyc) == char.value(g) * cyc


def test_whittaker_axioms_small():
    char = WhittakerCharacter(1, {1: 2, 2: 1}, {0: 3, 1: 4}, z1=0, z2=1, z3=5)
    W = WhittakerModule(char)
    window = [UNIT, ((I(-1), 1),), ((d(0), 1),), ((I(-2), 1),), ((I(-1), 1), (d(0), 1)), ((d(0), 2),)]
    assert module_axiom_check(W, 2, window) == []


def test_whittaker_freeness():
    char = WhittakerCharacter(2, {}, {}, z3=1)
    W = WhittakerModule(char)
    vec = act(d(-3), act(d(1), W.cyclic()))
    for key in vec.coeffs:
        for g in word_of(key):
            kind, n = g
            assert (kind == "I" and n <= -1) or (kind == "d" and n <= 1)


def test_phi_prime_example():
    char = WhittakerCharacter(1, {1: 2, 2: 1}, {0: 3, 1: 4}, z1=0, z2=0, z3=1)
    pp = phi_prime(char)
    assert pp.z1 == -1
    assert pp.d_val(1) == 14
    assert pp.d_val(2) == 9
    assert pp.d_val(3) == 0
    with pytest.raises(ValueError, match="outside the character domain"):
        pp.d_val(0)


def test_phi_prime_trivial_corrections():
    char = WhittakerCharacter(2, {2: 5, 3: -1, 4: Q(7, 3)}, {}, z1=4, z2=0, z3=Q(1, 2))
    pp = phi_prime(char)
    for k in range(2, 5):
        assert pp.d_val(k) == char.d_val(k)
    assert pp.z1 == char.z1 - 1


def test_phi_prime_requires_z3():
    with pytest.raises(NeedNonzeroZ3):
        phi_prime(WhittakerCharacter(1, {}, {}, z3=0))


def test_omega_examples():
    lam = Q(3)
    Om = OmegaModule(lam, 2, 5)
    v0, v1 = Om.vector(0), Om.vector(1)
    assert act(d(1), v0) == lam * 2 * v0 + lam * v1
    lhs = act(d(1), act(I(-1), v0)) - act(I(-1), act(d(1), v0))
    assert lhs == act(bracket(lie(d(1)), lie(I(-1))), v0)
    assert lhs == (-lam * 5) * v0


def test_omega_axioms():
    Om = OmegaModule(1, 2, 3)
    assert module_axiom_check(Om, 3, list(range(5))) == []


def test_omega_lambda_zero():
    with pytest.raises(LambdaZero):
        OmegaModule(0, 1, 1)


def test_shifted_tensor_example():
    ST = ShiftedTensorModule(HW, ISP)
    base = ST.vector((UNIT, 0))
    assert act(I(1), base) == ISP.F * ST.vector((UNIT, 1))


def test_shifted_tensor_y_homogeneity():
    ST = ShiftedTensorModule(HW, ISP)
    keys = [(UNIT, 0), (((I(-1), 1),), 2), (((d(-2), 1),), -1)]
    for n in range(-3, 4):
        for g in (d(n), I(n)):
            for key in keys:
                out = act(g, ST.vector(key))
                assert all(y == key[1] + n for (_, y) in out.coeffs)


def test_shifted_tensor_axioms():
    ST = ShiftedTensorModule(HW, ISP)
    window = [(UNIT, y) for y in range(-2, 3)]
    window += [(m, y) for m in negative_part_basis(1) for y in range(-2, 3)]
    assert module_axiom_check(ST, 2, window) == []


def test_wmukappa_character_action():
    M = WMuKappaModule(1, [Q(1, 2), 3], [5, Q(-2, 3)])
    v = M.cyclic()
    assert act(I(0), v) == 5 * v
    assert act(I(1), v) == Q(-2, 3) * v
    assert act(I(2), v).is_zero()
    assert act(d(1), v) == Q(1, 2) * v
    assert act(d(2), v) == 3 * v
    assert act(d(3), v).is_zero()
    with pytest.raises(UnsupportedGenerator):
        act(I(-1), v)
    with pytest.raises(UnsupportedGenerator):
        act(Z3, v)


def test_embedded_action_r1_scalar_example():
    # t^-1 on the cyclic vector: kappa_0/lam - kappa_1/lam^2
    k0, k1 = Q(5), Q(-2, 3)
    lam = Q(2)
    M = WMuKappaModule(1, [Q(1, 2), 3], [k0, k1])
    v = M.cyclic()
    assert embedded_action(lam, I(-1), v) == (k0 / lam - k1 / lam**2) * v


def test_embedded_action_centrals_vanish():
    M = WMuKappaModule(1, [1, 1], [1, 1])
    v = M.cyclic()
    for z in (Z1, Z2, Z3):
        assert embedded_action(1, z, v).is_zero()


def test_embedded_action_lambda_zero():
    M = WMuKappaModule(1, [1, 1], [1, 1])
    with pytest.raises(LambdaZero):
        embedded_action(0, I(0), M.cyclic())


def test_embedded_module_matches_example33():
    E = EmbeddedModule([0, 1], [2, 3], Q(1, 2))
    keys = [(i, j) for i in range(3) for j in range(3 - i)]
    gens = [d(n) for n in range(-2, 3)] + [I(n) for n in range(-2, 3)] + [Z1, Z2, Z3]
    for g in gens:
        for key in keys:
            closed = example33_action(E.mu, E.kappa, E.lam, g, key)
            assert {k: Q(c) for k, c in closed.items()} == to_fractions(E.act_gen(g, key))


def test_embedded_module_axioms():
    E = EmbeddedModule([1, 0], [0, 2], 1)
    keys = [(i, j) for i in range(4) for j in range(4 - i)]
    assert module_axiom_check(E, 2, keys) == []


@pytest.mark.parametrize(
    "module,key",
    [
        (OmegaModule(2, 1, 1), -2),
        (EmbeddedModule([1, 2], [3, 0], 2), (-1, 0)),
        (EmbeddedModule([1, 2], [3, 0], 2), (0, -1)),
    ],
)
def test_negative_key_exponents_rejected(module, key):
    # an omega key acted as an empty map; an embedded key recursed without end
    for g in (d(1), I(0), Z1):
        with pytest.raises(ValueError, match="key exponents must be >= 0"):
            module.act_gen(g, key)
    with pytest.raises(ValueError, match="key exponents must be >= 0"):
        module_axiom_check(module, 1, [key])


def test_mixed_modules_rejected():
    A = IntermediateSeriesModule(ISP)
    B = IntermediateSeriesModule(ISP)
    with pytest.raises(MixedModules):
        A.vector(0) + B.vector(0)


def _monomial_window(gens, max_len):
    from itertools import combinations_with_replacement

    gens = sorted(gens, key=lambda g: (g[0] != "I", g[1]))
    keys = [UNIT]
    for length in range(1, max_len + 1):
        for combo in combinations_with_replacement(range(len(gens)), length):
            word = tuple(gens[i] for i in combo)
            mono = []
            for g in word:
                if mono and mono[-1][0] == g:
                    mono[-1] = (g, mono[-1][1] + 1)
                else:
                    mono.append((g, 1))
            keys.append(tuple(mono))
    return keys


def test_verma_axioms_deep():
    V = VermaModule(HW)
    window = [UNIT] + negative_part_basis(1) + negative_part_basis(2) + negative_part_basis(3)
    assert module_axiom_check(V, 3, window) == []


def test_whittaker_axioms_deep():
    char = WhittakerCharacter(2, {2: 1, 3: Q(1, 2), 4: 3}, {0: 2, 1: Q(4, 5), 2: 7}, z1=1, z2=2, z3=3)
    W = WhittakerModule(char)
    window = _monomial_window([I(-2), I(-1), d(-1), d(0), d(1)], 2)
    assert module_axiom_check(W, 3, window) == []


def test_wmukappa_axioms_deep():
    M = WMuKappaModule(2, [1, Q(1, 2), 3], [2, 0, Q(-1, 3)])
    window = _monomial_window([d(-1), d(0), d(1)], 3)
    assert module_axiom_check(M, 3, window) == []


def test_act_uea_compatible_with_multiply():
    rng = random.Random(21)
    V = VermaModule(HW)
    w = V.cyclic()
    gens = basis_window(2)
    for _ in range(25):
        u1 = uea(rng.choice(gens))
        u2 = uea(rng.choice(gens))
        assert act_uea(multiply(u1, u2), w) == act_uea(u1, act_uea(u2, w))


@pytest.mark.parametrize("case", ACT_CASES)
def test_act_uea_fold_matches_letter_oracle(case):
    module = _case_module(case)
    # the case's own expression, and one with a power, a product and a constant
    # in generators that act on every variant
    exprs = [parse_uea(CASES[case][-2]), parse_uea("d(1)*I(0)^2 - 3*d(0)*d(-1) + 1/2")]
    keys = module.window(2)
    vectors = [module.vector(k) for k in keys]
    vectors.append(module.vector({k: Q(i + 1, 2) for i, k in enumerate(keys)}))
    for u in exprs:
        for v in vectors:
            assert act_uea(u, v) == act_uea_by_letters(u, v)


@pytest.mark.parametrize("expr", ["I(-1)", "z3", "d(1)*I(-1)", "d(-1) + z3*d(0)"])
def test_act_uea_rejects_unsupported_letters(expr):
    W = WMuKappaModule(1, [1, 2], [3, Q(1, 2)])
    u = parse_uea(expr)
    for v in (W.cyclic(), W.vector(((d(0), 1),)), W.vector({})):
        with pytest.raises(UnsupportedGenerator) as fold:
            act_uea(u, v)
        with pytest.raises(UnsupportedGenerator) as oracle:
            act_uea_by_letters(u, v)
        assert str(fold.value) == str(oracle.value)


@pytest.mark.parametrize("bound", [0, -3])
def test_axiom_check_rejects_bound_below_one(bound):
    # such a bound checked the centrals alone and reported no violation
    with pytest.raises(ValueError, match="index_bound must be >= 1"):
        module_axiom_check(IntermediateSeriesModule(ISP), bound, [0, 1])


@pytest.mark.parametrize("case", ACT_CASES)
def test_axiom_check_matches_pairwise_oracle(case):
    module = _case_module(case)
    # violations come in window order, so a window out of its natural order is a case of its own
    for window in (module.window(2), module.window(2)[::-1]):
        assert module_axiom_check(module, 2, window) == module_axiom_check_by_pairs(module, 2, window)


@pytest.mark.parametrize("case", ACT_CASES)
def test_act_gen_images_are_in_lowest_terms(case):
    # one positive denominator, no zero entry and no common factor: equal vectors have equal images
    module = _case_module(case)
    for g in basis_window(2):
        if module.supports(g):
            for key in module.window(2):
                den, nums = module.act_gen(g, key)
                assert den > 0 and all(nums.values()) and math.gcd(den, *nums.values()) == 1, (g, key)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@pytest.mark.parametrize("case", ACT_CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_integer_fold_matches_fraction_oracle(case, data):
    module = _case_module(case)
    keys = module.window(2)
    gens = [g for g in basis_window(2) if module.supports(g)]
    v = module.vector(data.draw(st.dictionaries(st.sampled_from(keys), _RATIONALS, max_size=3)))
    x = LieElement(data.draw(st.dictionaries(st.sampled_from(gens), _RATIONALS, max_size=3)))
    assert act(x, v) == act_by_fractions(x, v)
    words = st.lists(st.sampled_from(gens), max_size=3).map(tuple)
    u = straighten(data.draw(st.dictionaries(words, _RATIONALS, max_size=3)))
    assert act_uea(u, v) == act_uea_by_fractions(u, v)
    window = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    assert module_axiom_check(module, 1, window) == module_axiom_check_by_pairs(module, 1, window)


class _StrayIseries(IntermediateSeriesModule):
    """The intermediate series with a stray term x^(m+3) in the action of d(1)."""

    def act_gen(self, g, key):
        out = to_fractions(super().act_gen(g, key))
        return to_ints(axpy(out, Q(1), {key + 3: Q(1)}) if g == d(1) else out)


class _StrayFock(FockModule):
    """The oscillator module with I(1) acting by an extra identity term."""

    def act_gen(self, g, key):
        out = to_fractions(super().act_gen(g, key))
        return to_ints(axpy(out, Q(1), {key: Q(1)}) if g == I(1) else out)


@pytest.mark.parametrize(
    "module", [_StrayIseries(ISP), _StrayFock(1, Q(1, 2), 1)], ids=["iseries", "fock"]
)
def test_axiom_check_matches_oracle_on_broken_action(module):
    for window in (module.window(2), module.window(2)[::-1]):
        found = module_axiom_check(module, 2, window)
        assert found and found == module_axiom_check_by_pairs(module, 2, window)


def _skew(original, strays):
    """bracket_gens plus a stray generator in [x, y] for each (x, y) -> g of strays."""

    def skewed(x, y):
        out = original(x, y)
        return out + lie(strays[x, y]) if (x, y) in strays else out

    return skewed


def _patch_bracket(monkeypatch, strays):
    skewed = _skew(modules.bracket_gens, strays)
    monkeypatch.setattr(modules, "bracket_gens", skewed)
    monkeypatch.setattr(oracles, "bracket_gens", skewed)


def test_axiom_check_matches_oracle_on_skewed_bracket(monkeypatch):
    # [x, y] != -[y, x] here, so a residual derived from its mirror would differ
    _patch_bracket(monkeypatch, {(d(1), y): I(0) for y in basis_window(2)})
    module = IntermediateSeriesModule(ISP)
    window = module.window(2)
    found = module_axiom_check(module, 2, window)
    assert found and found == module_axiom_check_by_pairs(module, 2, window)


class _Restricted(IntermediateSeriesModule):
    """The intermediate series with some generators declared unsupported."""

    def __init__(self, params, excluded):
        super().__init__(params)
        self.excluded = excluded

    def supports(self, g):
        return g not in self.excluded


def _unsupported_message(check, module):
    with pytest.raises(UnsupportedGenerator) as info:
        check(module, 1, module.window(1))
    return str(info.value)


def test_axiom_check_unsupported_bracket_matches_oracle(monkeypatch):
    # [d(-1), d(1)] = 2 d(0) leaves supports
    module = _Restricted(ISP, {d(0)})
    message = _unsupported_message(module_axiom_check, module)
    assert message == _unsupported_message(module_axiom_check_by_pairs, module)
    # only [I(1), d(-1)] and [d(1), I(-1)] leave supports; an unordered walk meets the
    # first while bracketing d(-1), but the ordered walk reports the second
    _patch_bracket(monkeypatch, {(I(1), d(-1)): d(7), (d(1), I(-1)): d(8)})
    module = _Restricted(ISP, {d(7), d(8)})
    message = _unsupported_message(module_axiom_check, module)
    assert message == _unsupported_message(module_axiom_check_by_pairs, module)
    assert message.startswith("d(8) ")
