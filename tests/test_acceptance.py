"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Run under pytest (`pytest tests/test_acceptance.py -v`) or directly
(`python tests/test_acceptance.py`) for the plain per-criterion report.
All comparisons are exact; the wall-clock limits, kept in _ALL only, are
asserted.  They are gates: tighten them, never loosen them.
"""

import random
import time

from fractions import Fraction as Q

import pytest

from heisvir.algebra import (
    AutomorphismSpec,
    Z1,
    Z2,
    Z3,
    basis_window,
    d,
    I,
    jacobi_check,
    lie_sum,
    sigma_hom_check,
)
from heisvir.criteria import (
    NPoly,
    annihilator_cover,
    integer_roots,
    rho,
    rho_word,
    tensor_simplicity,
    w_mu_kappa_simple,
    whittaker_simplicity,
)
from heisvir.expr import parse_uea
from heisvir.linsearch import (
    GENERIC_HW,
    MembershipTester,
    maximal_submodule_gens,
    singular_vectors,
    whittaker_vector_search,
)
from heisvir.modules import (
    EmbeddedModule,
    FockModule,
    HWParams,
    ISParams,
    IntermediateSeriesModule,
    OmegaModule,
    ShiftedTensorModule,
    VermaModule,
    WhittakerCharacter,
    act,
    module_axiom_check,
    phi_prime,
)
from heisvir.pbw import UEAElement, UNIT, negative_part_basis, normal_form, uea
from oracles import example33_action, integer_roots_by_sympy, to_fractions
from test_golden import CASES, porcelain


def _report(num, name, fn, limit=None):
    t0 = time.perf_counter()
    try:
        detail = fn()
    except AssertionError as exc:
        print("criterion %02d FAIL %s: %s" % (num, name, exc))
        raise
    dt = time.perf_counter() - t0
    print("criterion %02d PASS %s [%s] (%.2fs)" % (num, name, detail, dt))
    if limit is not None:
        assert dt < limit, "time limit %ss exceeded: %.2fs" % (limit, dt)


def _run(num):
    """Criterion num, under the time limit that _ALL gives it."""
    _report(*next(entry for entry in _ALL if entry[0] == num))


def _fock_window(max_degree):
    keys = [UNIT]
    for deg in range(1, max_degree + 1):
        keys += negative_part_basis(deg, restrict=lambda g: g[0] == "I")
    return keys


def _rand_q(rng, span=5):
    return Q(rng.randint(-span, span), rng.randint(1, 4))


def _rand_q_nonzero(rng, span=5):
    while True:
        v = _rand_q(rng, span)
        if v:
            return v


# 1. Jacobi identity on |indices| <= 6, exact


def _jacobi():
    violations = jacobi_check(6)
    assert violations == [], violations[:3]
    n_gens = len(basis_window(6))
    return "%d triples" % n_gens**3


def test_criterion_01_jacobi():
    _run(1)


# 2. Automorphism family is bracket-compatible on |indices| <= 4


def _sigma():
    specs = [
        AutomorphismSpec({}, 0),
        AutomorphismSpec({-1: 1}, 0),
        AutomorphismSpec({-2: 2, -1: 1}, 3),
    ]
    for spec in specs:
        violations = sigma_hom_check(spec, 4)
        assert violations == [], (spec, violations[:3])
    return "%d specs, bound 4" % len(specs)


def test_criterion_02_sigma_homomorphism():
    _run(2)


# 3. Oscillator action is a representation; z1 acts by 1 - 12 z2^2/z3


def _oscillator():
    window = _fock_window(5)
    checks = 0
    for i0, z2, z3 in [(1, Q(1, 2), 1), (Q(2, 3), -1, -2), (-3, Q(1, 5), Q(1, 3))]:
        module = FockModule(i0, z2, z3)
        violations = module_axiom_check(module, 4, window)
        assert violations == [], violations[:2]
        scalar = 1 - 12 * Q(z2) ** 2 / Q(z3)
        for key in window:
            assert to_fractions(module.act_gen(Z1, key)) == {key: scalar}
        checks += 1
    return "3 parameter sets, %d basis vectors" % len(window)


def test_criterion_03_oscillator_representation():
    _run(3)


# 4. Vacuum d(0)-eigenvalue equals -I0^2/(2 z3) + z2 I0/z3, 10 random sets


def _vacuum_eigenvalue():
    rng = random.Random(2024)
    for _ in range(10):
        i0 = _rand_q(rng)
        z2 = _rand_q(rng)
        z3 = _rand_q_nonzero(rng)
        module = FockModule(i0, z2, z3)
        vac = module.vacuum()
        expected = -(i0**2) / (2 * z3) + z2 * i0 / z3
        assert act(d(0), vac) == expected * vac, (i0, z2, z3)
    return "10 random parameter sets"


def test_criterion_04_vacuum_eigenvalue():
    _run(4)


# 5. rho is well defined: recursion on raw words matches the normal form path


def _rho_well_defined():
    rng = random.Random(99)
    gens = [d(-j) for j in range(1, 5)] + [I(-j) for j in range(1, 5)]
    params = [ISParams(Q(1, 2), Q(-1, 3), 0), ISParams(1, 2, 3)]
    for trial in range(100):
        word = []
        degree = 0
        while True:
            g = rng.choice(gens)
            if degree - g[1] > 4:
                break
            word.append(g)
            degree -= g[1]
        word = tuple(word)
        isp = params[trial % 2]
        assert rho(normal_form(word), isp) == rho_word(word, isp), word
    return "100 random words, degree <= 4"


def test_criterion_05_rho_well_defined():
    _run(5)


# 6. Membership oracle matches the rho root test (both readings of the
#    filtration lemma), d <= 3, n in [-3, 3], buffer 2


def _membership_oracle():
    triples = [ISParams(1, 0, 0), ISParams(Q(1, 2), Q(1, 3), 2), ISParams(2, 1, Q(5, 2))]
    checks = 0
    for isp in triples:
        for n in range(-3, 4):
            tester = MembershipTester(isp, n)
            for degree in (1, 2, 3):
                for mono in negative_part_basis(degree):
                    P = UEAElement({mono: Q(1)})
                    member = tester.contains(P, 2)
                    assert member == (rho(P, isp)(n) == 0), (isp, n, mono)
                    checks += 1
    return "%d membership checks" % checks


def test_criterion_06_membership_oracle():
    _run(6)


# 7. Singular vectors in the three closed cases


def _singular_vectors():
    hw = HWParams(i0=0, d0=Q(7, 3), z2=1, z3=0)
    (v,) = singular_vectors(hw, 1).vectors
    assert set(v.coeffs) <= {((d(-1), 1),), ((I(-1), 1),)}
    assert v.coeffs[((I(-1), 1),)] == hw.d0 * v.coeffs[((d(-1), 1),)]

    (v2,) = singular_vectors(HWParams(i0=2, d0=Q(1, 5), z2=1, z3=0), 1).vectors
    assert set(v2.coeffs) == {((I(-1), 1),)}

    simple_hw = HWParams(i0=1, d0=Q(2, 7), z1=3)
    for degree in (1, 2, 3):
        assert singular_vectors(simple_hw, degree).vectors == []
    return "three parameter regimes"


def test_criterion_07_singular_vectors():
    _run(7)


# Gate: the generic depth-8 singular search, a 285 x 185 exact system with an
# empty kernel, in under 5 s (dense rational Gauss took 20.8 s on a 2-core host)


def test_gate_generic_singular_search_depth_8():
    t0 = time.perf_counter()
    assert singular_vectors(GENERIC_HW, 8).vectors == []
    dt = time.perf_counter() - t0
    assert dt < 5, "time limit 5s exceeded: %.2fs" % dt


# Gates: deeper generic searches, kept small by nullspace inserting its rows
# shortest first (with the rows as built, singular_vectors took about 4 s at
# depth 10 and maximal_submodule_gens about 5 s at depth 10, on a 2-core host)


def test_gate_generic_singular_search_depth_11():
    t0 = time.perf_counter()
    assert singular_vectors(GENERIC_HW, 11).vectors == []
    dt = time.perf_counter() - t0
    assert dt < 5, "time limit 5s exceeded: %.2fs" % dt


def test_gate_generic_submodule_search_depth_10():
    t0 = time.perf_counter()
    assert maximal_submodule_gens(GENERIC_HW, 10) == ([], "truncated")
    dt = time.perf_counter() - t0
    assert dt < 5, "time limit 5s exceeded: %.2fs" % dt


# 8. Tensor criterion recovers the closed a - p b condition and the
#    identically-degenerate Heisenberg generator


def _tensor_recovery():
    a_grid = [Q(-2), Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(4, 3), Q(3)]
    b_grid = [Q(-1), Q(-2, 3), Q(0), Q(1, 3), Q(1, 2), Q(1), Q(2)]
    checks = 0
    for p in (1, 2, 3):
        gen = uea(d(-p))
        for a in a_grid:
            for b in b_grid:
                verdict = tensor_simplicity([gen], ISParams(a, b, 0))
                expected = (a - p * b).denominator != 1
                assert verdict.is_simple == expected, (p, a, b, verdict)
                checks += 1
    v = tensor_simplicity([uea(I(-1))], ISParams(1, 1, 0))
    assert v.is_not_simple and "every integer" in v.witness
    return "%d grid points + degenerate generator" % checks


def test_criterion_08_tensor_recovery():
    _run(8)


# Gates: integer roots in time polynomial in bit size.  Trial division up to
# sqrt|a0| finished neither case below in 60 s.


def test_gate_integer_roots_quadratic_1e28():
    # (n - (10^14 + 7)) (2n - (10^14 + 1)): a0 ~ 10^28, one integer root
    p = NPoly.linear(-(10**14 + 7), 1) * NPoly.linear(-(10**14 + 1), 2)
    t0 = time.perf_counter()
    assert integer_roots(p) == [10**14 + 7]
    dt = time.perf_counter() - t0
    assert dt < 1, "time limit 1s exceeded: %.2fs" % dt


@pytest.mark.parametrize(
    "case,a", [("tensor_large_a_half", Q(10**15 + 1, 2)), ("tensor_large_a_integral", Q(10**15 + 1))]
)
def test_gate_tensor_simple_large_a(case, a):
    t0 = time.perf_counter()
    code, out = porcelain(CASES[case])
    dt = time.perf_counter() - t0
    assert code == 0
    assert dt < 5, "time limit 5s exceeded: %.2fs" % dt
    # the verdict sympy reads off rho: the smallest |n| among its integer roots
    roots = integer_roots_by_sympy(rho(parse_uea("d(-1)*d(-2)"), ISParams(a, 0, 0)))
    expected = "NOT_SIMPLE n=%d" % min(roots, key=lambda v: (abs(v), v)) if roots else "SIMPLE"
    assert out == "verdict\t%s\n" % expected


# Gates: a power of one generator costs one fold step where it prepends to
# every key, and stops once the vector is zero; one step per unit of the
# exponent took 1.75 s at d(1)^400000 and did not finish in 10 s at 20000000.
# At the largest exponent literal, even empty steps would take minutes.


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["normalize", "d(1)^20000000"], "result\td(1)^20000000\n"),
        (["act", "--module", "verma", "--params", "(I0dot=3,d0dot=5/2,z2dot=1/2)", "d(1)^20000000", "1"],
         "result\t0\n"),
        (["act", "--module", "verma", "--params", "(I0dot=3,d0dot=5/2,z2dot=1/2)", "d(1)^2147483647", "1"],
         "result\t0\n"),
    ],
)
def test_gate_huge_power_of_one_generator(argv, expected):
    t0 = time.perf_counter()
    code, out = porcelain(argv)
    dt = time.perf_counter() - t0
    assert (code, out) == (0, expected)
    assert dt < 5, "time limit 5s exceeded: %.2fs" % dt


# 9. Degenerate-point discovery: the depth-1 generator is found at depth 2
#    and the verdict matches b - a - I0 F / z3 not integral


def _embedding_example_recovery():
    grid = [Q(-1), Q(-1, 2), Q(0), Q(2, 3), Q(1)]
    checks = 0
    for i0, z2, z3 in [(Q(1), Q(0), Q(1)), (Q(2, 3), Q(1, 2), Q(-2))]:
        hw = HWParams(
            i0=i0,
            d0=-(i0**2) / (2 * z3) + i0 * z2 / z3,
            z1=2 - 12 * z2**2 / z3,
            z2=z2,
            z3=z3,
        )
        gens, _status = maximal_submodule_gens(hw, 2)
        expected_gen = UEAElement({((d(-1), 1),): Q(1), ((I(-1), 1),): i0 / z3})
        assert gens == [expected_gen], gens
        for F in (Q(1), Q(3, 2)):
            for a in grid:
                for b in grid:
                    verdict = tensor_simplicity(gens, ISParams(a, b, F))
                    expected = (b - a - i0 * F / z3).denominator != 1
                    assert verdict.is_simple == expected, (i0, z3, F, a, b)
                    checks += 1
    return "%d grid points, 2 parameter sets" % checks


def test_criterion_09_embedding_example_recovery():
    _run(9)


# 10. Whittaker criteria: z3 != 0 agrees with the derived-character pair
#     test; z3 = 0 splits on the top I-value with a searchable witness


def _whittaker_criteria():
    rng = random.Random(7777)
    agree = 0
    for m in (1, 2):
        for _ in range(10):
            char = WhittakerCharacter(
                m,
                {k: _rand_q(rng) for k in range(m, 2 * m + 1)},
                {k: _rand_q(rng) for k in range(0, m + 1)},
                z1=_rand_q(rng),
                z2=_rand_q(rng),
                z3=_rand_q_nonzero(rng),
            )
            pp = phi_prime(char)
            pair_nonzero = (pp.d_val(2 * m - 1), pp.d_val(2 * m)) != (0, 0)
            assert whittaker_simplicity(char).is_simple == pair_nonzero
            agree += 1
        # constructed degenerate point: both obstruction expressions vanish
        z3 = _rand_q_nonzero(rng)
        z2 = _rand_q(rng)
        im = _rand_q(rng)
        ivals = {k: _rand_q(rng) for k in range(0, m)}
        ivals[m] = im
        im1 = ivals[m - 1]
        dvals = {k: _rand_q(rng) for k in range(m, 2 * m + 1)}
        dvals[2 * m] = (2 * (m + 1) * im * z2 - im**2) / (2 * z3)
        dvals[2 * m - 1] = ((m + 1) * im * z2 - im * im1) / z3
        char = WhittakerCharacter(m, dvals, ivals, z1=0, z2=z2, z3=z3)
        assert whittaker_simplicity(char).is_not_simple
        pp = phi_prime(char)
        assert (pp.d_val(2 * m - 1), pp.d_val(2 * m)) == (0, 0)

        # z3 = 0, top I-value zero: a verified proper vector exists
        ivals0 = {k: _rand_q(rng) for k in range(0, m)}
        ivals0[m] = Q(0)
        char0 = WhittakerCharacter(
            m,
            {k: _rand_q(rng) for k in range(m, 2 * m + 1)},
            ivals0,
            z2=_rand_q(rng),
            z3=0,
        )
        assert whittaker_simplicity(char0).is_not_simple
        found = whittaker_vector_search(char0)
        assert len(found.vectors) >= 1 and all(v for v in found.vectors)

        # z3 = 0, top I-value nonzero: simple
        ivals1 = dict(ivals0)
        ivals1[m] = _rand_q_nonzero(rng)
        char1 = WhittakerCharacter(
            m,
            {k: _rand_q(rng) for k in range(m, 2 * m + 1)},
            ivals1,
            z2=_rand_q(rng),
            z3=0,
        )
        assert whittaker_simplicity(char1).is_simple
    return "%d random agreements + constructed cases, m in {1, 2}" % agree


def test_criterion_10_whittaker_criteria():
    _run(10)


# 11. Representation axioms for the closed-form modules on 20+ key windows,
#     and the closed r = 1 formulas agree with the shift-embedded action


def _module_axioms():
    A = IntermediateSeriesModule(ISParams(Q(1, 2), Q(1, 3), 2))
    assert module_axiom_check(A, 3, list(range(-10, 11))) == []

    Om = OmegaModule(Q(1), Q(2), Q(3))
    assert module_axiom_check(Om, 3, list(range(0, 21))) == []

    E = EmbeddedModule([Q(0), Q(1)], [Q(2), Q(3)], Q(1))
    ekeys = [(i, j) for i in range(6) for j in range(6 - i)]
    assert len(ekeys) == 21
    assert module_axiom_check(E, 3, ekeys) == []
    gens = [d(n) for n in range(-3, 4)] + [I(n) for n in range(-3, 4)] + [Z1, Z2, Z3]
    for g in gens:
        for key in ekeys:
            closed = {k: Q(c) for k, c in example33_action(E.mu, E.kappa, E.lam, g, key).items()}
            assert closed == to_fractions(E.act_gen(g, key)), (g, key)

    ST = ShiftedTensorModule(
        HWParams(i0=3, d0=Q(5, 2), z1=1, z2=Q(1, 2), z3=2), ISParams(Q(1, 2), Q(1, 3), 2)
    )
    window = [(UNIT, y) for y in range(-3, 4)]
    window += [(m, y) for m in negative_part_basis(1) for y in range(-3, 4)]
    assert len(window) >= 20
    assert module_axiom_check(ST, 3, window) == []
    return "4 variants, windows of 21 keys, bound 3"


def test_criterion_11_module_axioms():
    _run(11)


# 12. The (mu, kappa) triple predicate and the annihilator-cover check


def _triple_and_cover():
    rng = random.Random(555)
    for trial in range(20):
        r = rng.choice((1, 2, 3))
        mu = [_rand_q(rng) if rng.random() < 0.5 else Q(0) for _ in range(r + 1)]
        kappa = [_rand_q(rng) if rng.random() < 0.5 else Q(0) for _ in range(r + 1)]
        verdict = w_mu_kappa_simple(r, mu, kappa)
        expected = (mu[r], mu[r - 1], kappa[r]) != (0, 0, 0)
        assert verdict.is_simple == expected, (r, mu, kappa)

    def multiples(root, window):
        out = []
        for i in range(-window, window):
            out.append(lie_sum((1, I(i + 1)), (-root, I(i))))
            out.append(lie_sum((1, d(i)), (-root, d(i - 1))))
        return out

    ann1 = multiples(1, 6) + [lie_sum((1, Z1)), lie_sum((1, Z2)), lie_sum((1, Z3))]
    ann2 = multiples(2, 6)
    assert annihilator_cover(ann1, ann2, 6)
    one_sided = [lie_sum((1, d(i))) for i in range(1, 7)] + [
        lie_sum((1, I(i))) for i in range(1, 7)
    ]
    assert not annihilator_cover(one_sided, [], 6)
    return "20 triple inputs + coprime/one-sided covers"


def test_criterion_12_triple_and_cover():
    _run(12)


_ALL = [
    (1, "jacobi-identity", _jacobi, 10),
    (2, "sigma-homomorphism", _sigma, 10),
    (3, "oscillator-representation", _oscillator, 20),
    (4, "vacuum-eigenvalue", _vacuum_eigenvalue, None),
    (5, "rho-well-defined", _rho_well_defined, None),
    (6, "membership-vs-rho", _membership_oracle, 300),
    (7, "singular-vectors", _singular_vectors, None),
    (8, "tensor-simplicity-recovery", _tensor_recovery, None),
    (9, "degenerate-point-recovery", _embedding_example_recovery, None),
    (10, "whittaker-criteria", _whittaker_criteria, None),
    (11, "module-axioms", _module_axioms, 3),
    (12, "triple-predicate-and-cover", _triple_and_cover, None),
]


def main():
    failures = 0
    for num, name, fn, limit in _ALL:
        try:
            _report(num, name, fn, limit)
        except AssertionError:
            failures += 1
    if failures:
        raise SystemExit("%d criteria failed" % failures)
    print("all %d criteria passed" % len(_ALL))


if __name__ == "__main__":
    main()
