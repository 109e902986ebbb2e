"""Independent slow oracles that the package's fast paths are checked against.

- rewrite_normal_form: the original PBW word rewriter.  It swaps one adjacent
  out-of-order pair at a time (x y -> y x + [x, y]) with no memo, so it shares
  nothing with the package's LeftAction kernel but the bracket.
- example33_action: the closed-form action on the (i, j) basis of the r = 1
  shift-embedded module, independent of embedded_action.
- rref_dense: plain rational Gauss-Jordan on dense rows, sharing nothing with
  the package's sparse fraction-free Echelon.
- act_uea_by_letters: the original action of an enveloping-algebra element,
  one letter at a time through the Lie action `act`, with a ModuleVector
  built per letter; the package folds plain maps instead.
- integer_roots_by_trial_division: the original integer-root finder, which
  tries every divisor of the trailing coefficient up to its square root; the
  package brackets real roots by bisection instead.
- integer_roots_by_sympy: the integer roots among the rational roots that
  sympy finds by factoring over the integers; sympy serves the tests only.
- mono_sort_key_by_letters: the original PBW order key of a monomial, the
  tuple of the order keys of its expanded word; the package reads the same
  order off the runs.
- to_words and to_lie_by_words: the original word expansion of an expression
  tree, which multiplies out every product and power into unstraightened
  words (exponential in the size of the tree), and the Lie lowering that
  reads those words; the package lowers through normal forms instead, and
  rejects a product of two non-constant factors without expanding it.
- act_power_by_fractions, act_by_fractions and act_uea_by_fractions: the
  original Fraction fold of the module actions, with axpy over maps key ->
  Fraction, reading each act_gen image back through to_fractions; the
  package folds images in integers over one denominator instead.
- module_axiom_check_by_pairs and jacobi_check_by_triples: the original
  window checks, which walk every ordered pair (every triple) and rebuild
  each inner action (each inner bracket) wherever it occurs; the package
  computes each composite once per unordered pair (per rotation class).
  The module check acts through the Fraction fold above.
- axpy and to_fractions: the accumulate loop of maps key -> Fraction and
  the reader of an image as such a map, which the Fraction oracles share.
- bracket_gens_by_fractions, bracket_by_fractions, jacobi_check_by_fractions
  and sigma_hom_check_by_fractions: the original Lie layer, in Fractions.
  The last three read the bracket table through bracket_gens, so a test
  that patches it here and in heisvir.algebra skews both sides alike; the
  package combines images in integers instead.
- NPolyByFractions and rho_word_by_fractions: the original polynomial in n
  with a tuple of Fraction coefficients, and the recursion that builds it
  factor by factor; the package multiplies out in integers over one
  denominator.
- whittaker_vectors_by_search: the Whittaker vectors of a character found
  by a kernel search over low-degree keys of the universal Whittaker
  module, with whittaker_locus (the closed form of the z3 != 0 degenerate
  locus), whittaker_witness (the second Whittaker vector there) and
  acts_by_character (direct action); the package decides simplicity from
  the Sugawara element instead.
- sugawara_fold and WhittakerOscillator: S(k) on a key as the sum of the
  words sugawara lists, folded one by one in Fractions, and the Fock
  construction over the Heisenberg action of a Whittaker module, whose d(k)
  acts by that fold; the package folds in integers over one denominator and
  builds its oscillator over a Verma module only.
- ad_weight, apply_sigma and grade: small helpers that only the tests use.
"""

import math
from itertools import combinations_with_replacement

from heisvir.algebra import (
    Z1,
    Z2,
    Z3,
    LieElement,
    Q,
    basis_window,
    bracket,
    bracket_gens,
    d,
    gen_order_key,
    gen_weight,
    I,
    is_generator,
    lie,
    sigma_gen,
    to_ints,
)
from heisvir.criteria import ALL_INTEGERS
from heisvir.errors import ExprError, LambdaZero, NotNegativePart
from heisvir.expr import Gen, Num, Pow, Sum
from heisvir.linsearch import _verified_kernel
from heisvir.modules import (
    FockModule,
    Module,
    WhittakerCharacter,
    WhittakerModule,
    _require_support,
    act,
    gen_binom,
    oscillator_charge,
    sugawara,
)
from heisvir.pbw import UEAElement, in_negative_part, mono_of_sorted_word, mono_weight, word_of


def axpy(out: dict, c, table) -> dict:
    """out += c * table on sparse key -> coefficient maps; cancelled keys are dropped."""
    for k, v in table.items():
        old = out.get(k)
        s = c * v if old is None else old + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def to_fractions(image) -> dict:
    """The map key -> Fraction that an image stands for."""
    den, nums = image
    return {k: Q(c, den) for k, c in nums.items()}


def _like(v, coeffs: dict):
    """A vector of v's space holding the map key -> Fraction coeffs."""
    return v._new(to_ints(coeffs))


def _find_inversion(word, strategy):
    idx = range(len(word) - 1) if strategy == "leftmost" else range(len(word) - 2, -1, -1)
    for i in idx:
        if gen_order_key(word[i]) > gen_order_key(word[i + 1]):
            return i
    return None


def rewrite_normal_form(word, strategy: str = "leftmost") -> UEAElement:
    """Straighten an arbitrary word to the normal PBW form.

    The result is the image of the product in U under the fixed order.  The
    rewrite strategy (leftmost or rightmost inversion) does not affect the
    result; both are exposed so that independence can be tested.
    """
    pending = {tuple(word): Q(1)}
    done = {}
    while pending:
        w, c = pending.popitem()
        i = _find_inversion(w, strategy)
        if i is None:
            m = mono_of_sorted_word(w)
            s = done.get(m, 0) + c
            if s:
                done[m] = s
            else:
                done.pop(m, None)
            continue
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
        s = pending.get(swapped, 0) + c
        if s:
            pending[swapped] = s
        else:
            pending.pop(swapped, None)
        for g, cb in bracket_gens(w[i], w[i + 1]).items():
            shorter = w[:i] + (g,) + w[i + 2 :]
            s = pending.get(shorter, 0) + c * cb
            if s:
                pending[shorter] = s
            else:
                pending.pop(shorter, None)
    return UEAElement(done)


def example33_action(mu, kappa, lam, g, key):
    """Closed-form action on the (i, j) basis of the r = 1 embedded module.

    Independent of embedded_action; kept as a cross-check path.  mu is
    (mu_1, mu_2), kappa is (kappa_0, kappa_1).
    """
    lam = Q(lam)
    if lam == 0:
        raise LambdaZero("the embedding parameter must be nonzero")
    mu1, mu2 = Q(mu[0]), Q(mu[1])
    k0, k1 = Q(kappa[0]), Q(kappa[1])
    i, j = key
    kind, m = g
    out = {}

    def add(k2, c):
        if not c:
            return
        s = out.get(k2, 0) + c
        if s:
            out[k2] = s
        else:
            out.pop(k2, None)

    outer = {k: gen_binom(i, k) * Q(-m) ** (i - k) for k in range(i + 1)}
    if kind == "z":
        return {}
    if kind == "I":
        inner1 = {l: gen_binom(j, l) * Q(-1) ** (j - l) for l in range(j + 1)}
        for k, ck in outer.items():
            add((k, j), lam**m * k0 * ck)
            for l, cl in inner1.items():
                add((k, l), m * lam ** (m - 1) * k1 * ck * cl)
        return out
    inner1 = {l: gen_binom(j, l) * Q(-1) ** (j - l) for l in range(j + 1)}
    inner2 = {l: gen_binom(j, l) * Q(-2) ** (j - l) for l in range(j + 1)}
    for k, ck in outer.items():
        add((k + 1, j), lam**m * ck)
        add((k, j + 1), m * lam**m * ck)
        c1 = Q(m * m + m, 2) * lam ** (m - 1) * mu1 * ck
        if c1:
            for l, cl in inner1.items():
                add((k, l), c1 * cl)
        c2 = Q(m**3 - m, 6) * lam ** (m - 2) * mu2 * ck
        if c2:
            for l, cl in inner2.items():
                add((k, l), c2 * cl)
    return out


def rref_dense(rows, ncols):
    """Reduced row echelon form of dense rational rows: (rows, pivot columns)."""
    rows = [[Q(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def act_uea_by_letters(u, v):
    """Action of an enveloping-algebra element: fold each monomial right to left."""
    out = {}
    for mono, c in u.items():
        cur = v
        for g in reversed(word_of(mono)):
            cur = act(g, cur)
        axpy(out, c, cur.coeffs)
    return _like(v, out)


def act_power_by_fractions(module, g, e, vec: dict) -> dict:
    """g^e * vec for a map key -> Fraction vec, one factor g at a time."""
    for _ in range(e):
        if not vec:
            break
        out = {}
        for key, c in vec.items():
            axpy(out, c, to_fractions(module.act_gen(g, key)))
        vec = out
    return vec


def act_by_fractions(x, v):
    """Action of a LieElement (or a single generator) on a module vector."""
    if is_generator(x):
        x = lie(x)
    module = v.module
    out = {}
    for g, cg in x.items():
        _require_support(module, g)
        for key, cv in v.items():
            axpy(out, cg * cv, to_fractions(module.act_gen(g, key)))
    return _like(v, out)


def act_uea_by_fractions(u, v):
    """Action of an enveloping-algebra element: each monomial folded in from the right."""
    out = {}
    for mono, c in u.items():
        vec = v.coeffs
        for g, e in reversed(mono):
            _require_support(v.module, g)
            vec = act_power_by_fractions(v.module, g, e, vec)
        axpy(out, c, vec)
    return _like(v, out)


def integer_roots_by_trial_division(p):
    """Exact integer root set: a sorted list, or ALL_INTEGERS for the zero polynomial.

    Works on the primitive integer form of p; candidates divide the trailing
    coefficient, each is confirmed by exact evaluation.
    """
    if p.is_zero():
        return ALL_INTEGERS
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    roots = set()
    # factor out n^k so the trailing coefficient is nonzero
    shift = 0
    while ints[shift] == 0:
        shift += 1
    if shift:
        roots.add(0)
        ints = ints[shift:]
    if len(ints) > 1:
        a0 = abs(ints[0])
        cand = set()
        t = 1
        while t * t <= a0:
            if a0 % t == 0:
                cand.update((t, -t, a0 // t, -(a0 // t)))
            t += 1
        for r in cand:
            if p(r) == 0:
                roots.add(r)
    return sorted(roots)


def integer_roots_by_sympy(p):
    """Sorted integer roots of a nonzero NPoly, read off sympy's factorisation."""
    import sympy

    n = sympy.Symbol("n")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], n)
    return sorted(int(r) for r in poly.ground_roots() if r.is_integer)


def to_words(e):
    """Expand an expression tree into a map word -> coefficient, words unstraightened."""
    if isinstance(e, Num):
        return {(): e.value} if e.value else {}
    if isinstance(e, Gen):
        return {(e.g,): Q(1)}
    if isinstance(e, Sum):
        out = {}
        for sign, term in e.terms:
            axpy(out, Q(sign), to_words(term))
        return out
    out = {(): Q(1)}
    for f in [e.base] * e.exp if isinstance(e, Pow) else e.factors:
        right = to_words(f)
        product = {}
        for wa, ca in out.items():
            axpy(product, ca, {wa + wb: cb for wb, cb in right.items()})
        out = product
    return out


def to_lie_by_words(e) -> LieElement:
    """A Lie element from the word expansion: every word must be one letter."""
    words = to_words(e)
    for w in words:
        if len(w) == 0:
            raise ExprError("constant terms have no Lie meaning")
        if len(w) > 1:
            raise ExprError("products of generators are not Lie elements")
    return LieElement({w[0]: c for w, c in words.items()})


def mono_sort_key_by_letters(mono):
    return tuple(gen_order_key(g) for g in word_of(mono))


def module_axiom_check_by_pairs(module: Module, index_bound: int, window):
    """Check act([x,y], v) = act(x, act(y, v)) - act(y, act(x, v)).

    Runs over all supported generator pairs with |indices| <= index_bound and
    every basis key in the window; returns the list of violations.
    """
    if not window:
        raise ValueError("window must be nonempty")
    gens = [g for g in basis_window(index_bound) if module.supports(g)]
    vecs = [module.vector(k) for k in window]
    violations = []
    for x in gens:
        for y in gens:
            bxy = bracket_gens(x, y)
            for v in vecs:
                residual = act_by_fractions(bxy, v) - (
                    act_by_fractions(x, act_by_fractions(y, v)) - act_by_fractions(y, act_by_fractions(x, v))
                )
                if residual:
                    violations.append((x, y, next(iter(v.coeffs)), residual))
    return violations


def jacobi_check_by_triples(index_bound: int):
    """Check the Jacobi identity on all basis triples with |indices| <= bound.

    Returns the list of violating triples (x, y, z, residual); empty means
    the structure constants define a Lie algebra on this window.
    """
    if index_bound < 1:
        raise ValueError("index_bound must be >= 1")
    gens = basis_window(index_bound)
    violations = []
    for x in gens:
        lx = lie(x)
        for y in gens:
            ly = lie(y)
            bxy = bracket(lx, ly)
            for z in gens:
                lz = lie(z)
                residual = (
                    bracket(lx, bracket(ly, lz))
                    + bracket(ly, bracket(lz, lx))
                    + bracket(lz, bxy)
                )
                if residual:
                    violations.append((x, y, z, residual))
    return violations


def bracket_gens_by_fractions(x, y) -> dict:
    """Lie bracket of two basis generators, as a map generator -> Fraction."""
    kx, n = x
    ky, m = y
    if kx == "z" or ky == "z":
        return {}
    if kx == "I" and ky == "d":
        return {g: -c for g, c in bracket_gens_by_fractions(y, x).items()}
    out = {}
    if kx == "d" and ky == "d":
        if m != n:
            out[d(n + m)] = Q(m - n)
        if n == -m and n**3 != n:
            out[Z1] = Q(n**3 - n, 12)
    elif kx == "d":
        if m != 0:
            out[I(n + m)] = Q(m)
        if n == -m and n * n + n:
            out[Z2] = Q(n * n + n)
    elif n == -m and n != 0:
        out[Z3] = Q(n)
    return out


def bracket_by_fractions(x: LieElement, y: LieElement) -> LieElement:
    """Bilinear extension of the bracket, accumulated in Fractions."""
    out = {}
    for gx, cx in x.items():
        for gy, cy in y.items():
            axpy(out, cx * cy, bracket_gens(gx, gy).coeffs)
    return LieElement(out)


def jacobi_check_by_fractions(index_bound: int):
    """The Jacobi window of the package, one residual per rotation class, in Fractions."""
    if index_bound < 1:
        raise ValueError("index_bound must be >= 1")
    gens = basis_window(index_bound)
    found = []
    for i, x in enumerate(gens):
        into_x = [bracket_gens(z, x) for z in gens]
        for j in range(i, len(gens)):
            y = gens[j]
            bxy = bracket_gens(x, y)
            for k in range(i if j == i else i + 1, len(gens)):
                z = gens[k]
                out = {}
                for u, inner in ((x, bracket_gens(y, z)), (y, into_x[k]), (z, bxy)):
                    for g, c in inner.items():
                        axpy(out, c, bracket_gens(u, g).coeffs)
                if out:
                    residual = LieElement(out)
                    for position in {(i, j, k), (j, k, i), (k, i, j)}:
                        found.append((position, residual))
    found.sort(key=lambda entry: entry[0])
    return [(gens[a], gens[b], gens[c], residual) for (a, b, c), residual in found]


def apply_sigma(spec, x: LieElement) -> LieElement:
    """Linear extension of sigma_{a,b} to arbitrary elements."""
    out = {}
    for g, c in x.items():
        axpy(out, c, sigma_gen(spec, g).coeffs)
    return LieElement(out)


def sigma_hom_check_by_fractions(spec, index_bound: int):
    """sigma([x,y]) = [sigma(x), sigma(y)] on the window, accumulated in Fractions."""
    if index_bound < 1:
        raise ValueError("index_bound must be >= 1")
    gens = basis_window(index_bound)
    images = {g: sigma_gen(spec, g) for g in gens}
    violations = []
    for x in gens:
        for y in gens:
            lhs = {}
            for g, c in bracket_gens(x, y).items():
                if g not in images:
                    images[g] = sigma_gen(spec, g)
                axpy(lhs, c, images[g].coeffs)
            lhs = LieElement(lhs)
            rhs = bracket_by_fractions(images[x], images[y])
            if lhs != rhs:
                violations.append((x, y, lhs - rhs))
    return violations


def ad_weight(x):
    """ad(d0)-weight of a generator or a LieElement; None for inhomogeneous (or zero) elements."""
    if is_generator(x):
        return gen_weight(x)
    weights = {gen_weight(g) for g in x.coeffs}
    if len(weights) == 1:
        return weights.pop()
    return None


def grade(u: UEAElement):
    """Decompose into ad(d0)-weight-homogeneous components (weight -> element)."""
    buckets = {}
    for m, c in u.items():
        buckets.setdefault(mono_weight(m), {})[m] = c
    return {w: UEAElement(part) for w, part in buckets.items()}


class NPolyByFractions:
    """Univariate polynomial in n with a tuple of Fraction coefficients, constant first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def linear(c0, c1):
        return NPolyByFractions((Q(c0), Q(c1)))

    def __call__(self, n):
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return NPolyByFractions(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self):
        return NPolyByFractions([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NPolyByFractions):
            if not self.coeffs or not other.coeffs:
                return NPolyByFractions()
            out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return NPolyByFractions(out)
        return NPolyByFractions([Q(other) * c for c in self.coeffs])


def rho_word_by_fractions(word, params) -> NPolyByFractions:
    """The defining recursion on a raw word of negative generators, factor by factor."""
    for g in word:
        if not in_negative_part(g):
            raise NotNegativePart("not in the strictly negative part")
    poly = NPolyByFractions((1,))
    suffix_weight = [0] * (len(word) + 1)
    for idx in range(len(word) - 1, -1, -1):
        suffix_weight[idx] = suffix_weight[idx + 1] - gen_weight(word[idx])
    for idx, (kind, neg) in enumerate(word):
        i = -neg
        if kind == "I":
            poly = poly * (-params.F)
        else:
            k = suffix_weight[idx + 1]
            poly = poly * NPolyByFractions.linear(-(params.a + k + i - i * params.b), -1)
    return poly


def whittaker_vectors_by_search(char) -> list:
    """The kernel basis of the vectors of WhittakerModule(char) on which
    d(m)..d(2m) and I(0)..I(m) act by the character, over the unit and every
    monomial of degree <= 2 in d(j) (-2 <= j < m) and I(-1), I(-2), I(-3).

    w is one of them, so a second one shows that the module is not simple.
    """
    m = char.m
    gens = sorted([I(-3), I(-2), I(-1)] + [d(j) for j in range(-2, m)], key=gen_order_key)
    keys = [mono_of_sorted_word(word) for deg in range(3) for word in combinations_with_replacement(gens, deg)]
    conditions = [(g, char.value(g)) for g in [d(k) for k in range(m, 2 * m + 1)] + [I(k) for k in range(m + 1)]]
    return _verified_kernel(WhittakerModule(char), keys, conditions)


def whittaker_locus(m, i_vals, z2, z3) -> dict:
    """The values of d(2m) and d(2m-1) that put a z3 != 0 character on the
    degenerate locus, from its closed form: 2 z3 phi(d(2m)) + phi(I(m))^2 = 0
    and z3 phi(d(2m-1)) + phi(I(m)) phi(I(m-1)) - [m = 1] 2 z2 phi(I(1)) = 0."""
    im, im1 = Q(i_vals.get(m, 0)), Q(i_vals.get(m - 1, 0))
    linear = 2 * z2 * im if m == 1 else 0
    return {2 * m: -(im**2) / (2 * z3), 2 * m - 1: (linear - im * im1) / z3}


def whittaker_witness(char):
    """u = (d(m-1) + (phi(I(m))/z3) I(-1)) w in WhittakerModule(char)."""
    w = WhittakerModule(char).cyclic()
    return act(d(char.m - 1), w) + (char.i_val(char.m) / char.z3) * act(I(-1), w)


def acts_by_character(v) -> bool:
    """Whether d(m)..d(2m+2) and I(0)..I(m+2) act on v by the character of its
    (Whittaker or (mu, kappa)) module, by direct action."""
    char = v.module.character
    gens = [d(k) for k in range(char.m, 2 * char.m + 3)] + [I(k) for k in range(char.m + 3)]
    return all(act(g, v) == char.value(g) * v for g in gens)


def sugawara_fold(module, k: int, z2, z3, reach: int, key):
    """S(k) on a key of the module: the words sugawara lists at the reach,
    each folded through module.apply and summed in Fractions."""
    out = {}
    for c, word in sugawara(k, z2, z3, reach):
        out = axpy(out, c, to_fractions(module.apply([(g, 1) for g in word], (1, {key: 1}))))
    return to_ints(out)


class WhittakerOscillator(FockModule):
    """The oscillator module over the Heisenberg action of WhittakerModule(char), z3 != 0.

    Keys are the I-only monomials on the cyclic vector w.  I(n) and the
    z-family act as in the Whittaker module of char with its d-values dropped
    and z1 = oscillator_charge(z2, z3); d(k) acts by sugawara_fold with the
    value z2 (which a test may change) at the reach max(N, m) of a key of
    degree N, since I(n) passes the key's factors for n > N and kills w for
    n > m.
    """

    name = "whittaker_oscillator"

    def __init__(self, char):
        z1 = oscillator_charge(char.z2, char.z3)
        self.heisenberg = WhittakerModule(WhittakerCharacter(char.m, {}, char.i_vals, z1, char.z2, char.z3))
        self.z2 = char.z2
        self._memo = {}

    def d_action(self, k, key):
        char = self.heisenberg.character
        return sugawara_fold(self, k, self.z2, char.z3, max(-mono_weight(key), char.m), key)
