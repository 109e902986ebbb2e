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
"""

import math

from heisvir.algebra import (
    LieElement,
    Q,
    axpy,
    basis_window,
    bracket,
    bracket_gens,
    gen_order_key,
    is_generator,
    lie,
    to_fractions,
)
from heisvir.criteria import ALL_INTEGERS
from heisvir.errors import ExprError, LambdaZero
from heisvir.expr import Gen, Num, Pow, Sum
from heisvir.modules import Module, _require_support, act, gen_binom
from heisvir.pbw import UEAElement, mono_of_sorted_word, word_of


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
    return v._new(out)


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
    return v._new(out)


def act_uea_by_fractions(u, v):
    """Action of an enveloping-algebra element: each monomial folded in from the right."""
    out = {}
    for mono, c in u.items():
        vec = v.coeffs
        for g, e in reversed(mono):
            _require_support(v.module, g)
            vec = act_power_by_fractions(v.module, g, e, vec)
        axpy(out, c, vec)
    return v._new(out)


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
