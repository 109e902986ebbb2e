"""checks: module axioms, Jacobi and sigma windows, simplicity verdicts.

Fraction arithmetic in closed-form actions and brackets dominates, with no
straightening and almost no elimination.  Verdict items sweep the size of
the coefficient a from 10^0 to about 10^6; ``integer_roots`` divides by
trial up to the square root of the constant term, so the quadratic
verdicts at large coefficients form the latency tail.

Oracles: axiom, Jacobi and sigma checks return no violation.  A verdict on
the single generator d(-p) follows the closed rule: NOT_SIMPLE with witness
-(a + p - p b) exactly when a - p b is an integer.  Every other verdict is
recomputed from rho written out as a product of linear factors in sympy,
whose integer roots come from a factorisation over the integers.  Triples
follow (mu_2r, mu_2r-1, kappa_r) != 0 and covers hold iff the two roots
differ.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy

from common import Item, rand_q, require

NAME = "checks"
TRACE_ITEMS_PER_SECOND = 6
DIGEST_ITEMS = 800

SCHEDULE = (
    ("axiom", "iseries"),
    ("verdict", 0),
    ("axiom", "omega"),
    ("jacobi", 2),
    ("verdict", 1),
    ("axiom", "embedded"),
    ("sigma", 3),
    ("verdict", 2),
    ("axiom", "fock"),
    ("triples", 400),
    ("verdict", 3),
    ("axiom", "shifted"),
    ("cover", 6),
    ("verdict", 4),
    ("axiom", "verma"),
    ("verdict", 5),
    ("verdict", 6),
)
AXIOM_BOUND = 2
# verdicts per item by coefficient scale 10^k; trial division costs about 10^k steps
# per quadratic verdict, so small scales are batched to keep items near 5 ms or more
VERDICT_BATCH = {0: 16, 1: 16, 2: 16, 3: 8, 4: 4, 5: 1, 6: 1}


class State:
    def __init__(self, hv):
        self.hv = hv
        self.basis = {deg: hv.pbw.negative_part_basis(deg) for deg in (1, 2)}
        unit = hv.pbw.UNIT
        self.windows = {
            "iseries": list(range(-2, 3)),
            "omega": list(range(0, 4)),
            "embedded": [(0, 0), (1, 0), (0, 1)],
            "fock": [unit] + hv.pbw.negative_part_basis(1, restrict=lambda g: g[0] == "I"),
            "shifted": [(unit, y) for y in range(-1, 2)] + [(m, 0) for m in self.basis[1]],
            "verma": [unit] + self.basis[1],
        }


def setup(hv, seed):
    state = State(hv)
    rng = random.Random("checks-setup-%d" % seed)
    for variant in state.windows:
        module = _module(hv, variant, _module_params(rng, variant))
        hv.modules.module_axiom_check(module, 1, state.windows[variant][:1])
    hv.algebra.jacobi_check(1)
    hv.algebra.sigma_hom_check(hv.algebra.AutomorphismSpec({-1: 1}, 1), 1)
    hv.criteria.tensor_simplicity([hv.pbw.uea(("d", -1))], hv.modules.ISParams(1, 0, 0))
    hv.criteria.w_mu_kappa_simple(1, [0, 1], [0, 0])
    hv.criteria.annihilator_cover(*_cover_families(hv, 1, 2, 2), 2)
    return state


def _module_params(rng, variant):
    """iseries: (a, b, F); omega, embedded: (lambda, two scalars, two scalars); else (hw, iseries)."""
    if variant == "iseries":
        return (rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng, zero=True))
    if variant in ("omega", "embedded"):
        return (rand_q(rng), [rand_q(rng, zero=True) for _ in range(2)], [rand_q(rng, zero=True) for _ in range(2)])
    hw = (rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng))
    return (hw, (rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng, zero=True)))


def _module(hv, variant, params):
    M = hv.modules
    if variant == "iseries":
        return M.IntermediateSeriesModule(M.ISParams(*params))
    if variant == "omega":
        lam, b, _ = params
        return M.OmegaModule(lam, b[0], b[1])
    if variant == "embedded":
        lam, mu, kappa = params
        return M.EmbeddedModule(mu, kappa, lam)
    hw, isp = params
    if variant == "fock":
        return M.FockModule(hw[0], hw[3], hw[4])
    if variant == "shifted":
        return M.ShiftedTensorModule(M.HWParams(*hw), M.ISParams(*isp))
    return M.VermaModule(M.HWParams(*hw))


def _cover_families(hv, r1, r2, window):
    lie_sum = hv.algebra.lie_sum

    def multiples(root):
        out = []
        for i in range(-window, window):
            out.append(lie_sum((1, ("I", i + 1)), (-root, ("I", i))))
            out.append(lie_sum((1, ("d", i)), (-root, ("d", i - 1))))
        return out

    central = [lie_sum((1, ("z", k))) for k in (1, 2, 3)]
    return multiples(r1) + central, multiples(r2)


def _coefficient(rng, scale):
    """A rational of about 10^scale; integral half of the time."""
    num = rng.randint(10**scale, 2 * 10**scale) * rng.choice((1, -1))
    return Fraction(num, 1 if rng.random() < 0.5 else rng.randint(2, 3))


def _generator(hv, state, rng, shape):
    """d(-p), a product of two d's (quadratic rho), or such a product plus another monomial."""
    uea = hv.pbw.UEAElement
    if shape == "dp":
        return uea({((("d", -rng.randint(1, 3)), 1),): 1})
    word = sorted((("d", -rng.randint(1, 3)), ("d", -rng.randint(1, 3))), key=hv.algebra.gen_order_key)
    mono = hv.pbw.mono_of_sorted_word(word)
    if shape == "dd":
        return uea({mono: 1})
    degree = -hv.pbw.mono_weight(mono)
    if degree not in state.basis:
        state.basis[degree] = hv.pbw.negative_part_basis(degree)
    # at most two letters keep rho quadratic: trial division grows like a^(degree/2)
    other = rng.choice([m for m in state.basis[degree] if m != mono and hv.pbw.mono_degree(m) <= 2])
    return uea({mono: 1, other: rand_q(rng)})


def items(state, seed):
    hv = state.hv
    rng = random.Random("checks-%d" % seed)
    i = 0
    while True:
        cls, arg = SCHEDULE[i % len(SCHEDULE)]
        if cls == "axiom":
            window = state.windows[arg]
            size = {"module": arg, "bound": AXIOM_BOUND, "keys": len(window)}
            data = (arg, _module_params(rng, arg), window)
        elif cls == "verdict":
            batch = VERDICT_BATCH[arg]
            cases = []
            for _ in range(batch):
                shape = rng.choice(("dp", "dd", "sum") if arg < 5 else ("dd", "sum"))
                gens = [_generator(hv, state, rng, shape)]
                if shape != "dp" and rng.random() < 0.3:
                    gens.append(_generator(hv, state, rng, "dd"))
                b = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                isp = hv.modules.ISParams(_coefficient(rng, arg), b, rand_q(rng, zero=True))
                cases.append((shape, gens, isp))
            bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for _, _, p in cases for c in (p.a, p.b, p.F))
            size = {"bits": bits, "scale": arg, "batch": batch}
            data = tuple(cases)
        elif cls == "jacobi":
            size = {"bound": arg}
            data = (arg,)
        elif cls == "sigma":
            support = rng.sample(range(-3, 4), rng.randint(1, 3))
            spec = hv.algebra.AutomorphismSpec({k: rand_q(rng) for k in support}, rand_q(rng, zero=True))
            size = {"bound": arg, "terms": len(support)}
            data = (spec, arg)
        elif cls == "triples":
            triples = []
            for _ in range(arg):
                r = rng.randint(1, 3)
                mu = [rand_q(rng) if rng.random() < 0.5 else 0 for _ in range(r + 1)]
                kappa = [rand_q(rng) if rng.random() < 0.5 else 0 for _ in range(r + 1)]
                triples.append((r, mu, kappa))
            size = {"batch": arg}
            data = tuple(triples)
        else:
            roots = [rng.choice((-3, -2, -1, 1, 2, 3, 4)) for _ in range(2)]
            if rng.random() < 0.3:
                roots[1] = roots[0]
            size = {"window": arg}
            data = (roots[0], roots[1], arg)
        yield Item(cls + ("" if cls != "axiom" else ":" + arg), size, data)
        i += 1


def run(hv, state, item):
    cls = item.cls.split(":")[0]
    if cls == "axiom":
        variant, params, window = item.data
        return hv.modules.module_axiom_check(_module(hv, variant, params), AXIOM_BOUND, window)
    if cls == "verdict":
        return [hv.criteria.tensor_simplicity(gens, isp) for _, gens, isp in item.data]
    if cls == "jacobi":
        return hv.algebra.jacobi_check(item.data[0])
    if cls == "sigma":
        return hv.algebra.sigma_hom_check(*item.data)
    if cls == "triples":
        return [hv.criteria.w_mu_kappa_simple(r, mu, kappa).is_simple for r, mu, kappa in item.data]
    r1, r2, window = item.data
    return hv.criteria.annihilator_cover(*_cover_families(hv, r1, r2, window), window)


def _rho_roots(hv, gens, isp):
    """Common integer roots of rho over the generators, from sympy; None means every integer."""
    n = sympy.Symbol("n")
    a, b, F = (sympy.Rational(q.numerator, q.denominator) for q in (isp.a, isp.b, isp.F))
    common = None
    for gen in gens:
        poly = 0
        for mono, c in gen.coeffs.items():
            word = hv.pbw.word_of(mono)
            term = sympy.Rational(c.numerator, c.denominator)
            for idx, (kind, index) in enumerate(word):
                i = -index
                suffix = -sum(g[1] for g in word[idx + 1 :])
                term *= -F if kind == "I" else -(a + suffix + i - i * b) - n
            poly += term
        poly = sympy.Poly(sympy.expand(poly), n)
        if poly.is_zero:
            continue
        roots = set()
        for factor, _ in poly.factor_list()[1]:
            if factor.degree() == 1:
                c1, c0 = factor.all_coeffs()
                root = -c0 / c1
                if root.is_integer:
                    roots.add(int(root))
        common = roots if common is None else common & roots
    return common


def _expected_verdict(hv, shape, gens, isp):
    """(simple, witness n) by the closed d(-p) rule or the sympy root oracle."""
    if shape == "dp":
        p = -hv.pbw.word_of(next(iter(gens[0].coeffs)))[0][1]
        root = -(isp.a + p - p * isp.b)
        if root.denominator == 1:
            return False, int(root)
        return True, None
    common = _rho_roots(hv, gens, isp)
    if common is None:
        return False, None
    if not common:
        return True, None
    return False, min(common, key=lambda v: (abs(v), v))


def check(hv, state, item, result):
    cls = item.cls.split(":")[0]
    if cls in ("axiom", "jacobi", "sigma"):
        require(result == [], "%d violations" % len(result))
    elif cls == "verdict":
        for (shape, gens, isp), verdict in zip(item.data, result):
            simple, witness = _expected_verdict(hv, shape, gens, isp)
            require(verdict.is_simple == simple, "verdict %s, expected simple=%s" % (verdict, simple))
            require(verdict.witness_n == witness, "witness %s, expected %s" % (verdict.witness_n, witness))
    elif cls == "triples":
        expected = [any((mu[r], mu[r - 1], kappa[r])) for r, mu, kappa in item.data]
        require(result == expected, "triple predicate disagrees with the closed rule")
    else:
        r1, r2, _ = item.data
        require(result == (r1 != r2), "cover verdict disagrees with the root rule")


def show(result):
    if isinstance(result, list):
        return ";".join(str(v) for v in result)
    return str(result)
