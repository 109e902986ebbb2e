"""The module zoo: induced modules and closed-form actions.

The Verma and Whittaker modules are induced modules: each is the
straightening kernel pbw.LeftAction with its own subalgebra and character,
so they share one algorithm with the PBW normal form.  The (mu, kappa)
module is the Whittaker module on the polynomial subalgebra, and the shifted
tensor acts through a Verma module and the intermediate series.  The Fock
oscillator is the Heisenberg action of a Verma module on its I-only keys,
with d(k) acting by the Sugawara element S(k).  The rest (intermediate
series, the two shift-embedded families) act through explicit formulas.
Vectors of every variant are ModuleVectors, the sparse-vector core of
algebra.SparseVector tied to their module.  Each variant owns its basis
keys: act_gen acts on them, key_str names them, parse_key reads the vector a
command-line key names and window lists the first keys for spot checks.

Every variant's act_gen returns an algebra image (an int map over one
positive denominator, in lowest terms) and is memoized per instance, the
induced modules through the pbw.LeftAction memo and the rest through
_memoized, so callers keep no image tables of their own.  The closed forms
may compute in Fractions and convert once on return; act, act_uea,
embedded_action and module_axiom_check fold images in integers, and their
vectors hold the images as they are.

All values are immutable after construction and actions are pure; the only
mutable state is per-instance memo dicts of frozen results, so concurrent
reads are safe.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations_with_replacement

from .algebra import (
    Q,
    Generator,
    SparseVector,
    basis_window,
    bracket_gens,
    d,
    gen_str,
    gen_weight,
    is_generator,
    lie,
    lincomb,
    to_ints,
)
from .errors import (
    LambdaZero,
    MixedModules,
    NeedNonzeroZ3,
    UnsupportedGenerator,
)
from .params import HWParams, ISParams, WhittakerCharacter, check_mu_kappa
from .pbw import (
    Action,
    LeftAction,
    Monomial,
    UEAElement,
    UNIT,
    mono_degree,
    mono_of_sorted_word,
    mono_sort_key,
    mono_str,
    mono_weight,
    negative_part_basis,
)


def oscillator_charge(z2, z3) -> Q:
    """The central charge 1 - 12 z2^2/z3 of the Sugawara construction; z1 acts by it on the Fock module."""
    return 1 - 12 * Q(z2) ** 2 / Q(z3)


def sugawara(k: int, z2, z3, reach: int) -> list:
    """The Sugawara element S(k) = -(1/(2 z3)) sum_i :I(-i) I(i+k): + (k+1) (z2/z3) I(k)
    on a vector of the given reach (>= 0), one that I(n) kills for every n > reach,
    as (coefficient, word) terms; a word lists generators in normal order, the
    larger index on the right (applied first).  Only the terms whose first factor
    can act are listed: the quadratic ones for -reach <= i <= reach - k and then
    the linear one if k <= reach, so there is none for k > 2 reach."""
    q = Q(-1, 2) / z3
    terms = [(q, (("I", min(-i, i + k)), ("I", max(-i, i + k)))) for i in range(-reach, reach - k + 1)]
    if k <= reach:
        terms.append(((k + 1) * Q(z2) / z3, (("I", k),)))
    return terms


def phi_prime_value(char: WhittakerCharacter, k: int) -> Q:
    """phi'(d(k)) = phi(d(k)) - S(k)(phi) for m <= k <= 2m.  The cyclic vector has
    reach m, and for k >= m every index of the terms left at that reach lies in
    0..m, so each word acts on it by its I-values."""
    if char.z3 == 0:
        raise NeedNonzeroZ3("phi_prime needs a nonzero z3 value")
    value = char.d_val(k)
    for c, word in sugawara(k, char.z2, char.z3, char.m):
        value -= c * math.prod(char.i_val(n) for _, n in word)
    return value


def phi_prime(char: WhittakerCharacter) -> WhittakerCharacter:
    """Derived character: the Witt-side data split off from a Whittaker character
    (z3 != 0), an order-m character with values on d(m)..d(2m) and z1 only:
    phi'(d(k)) = phi(d(k)) + (sum_{i=k-m..m} phi(I(i)) phi(I(k-i)) - 2 (k+1) z2 phi(I(k))) / (2 z3),
    phi(I(k)) = 0 past m, and z1' = z1 - (1 - 12 z2^2/z3)."""
    d_vals = {k: phi_prime_value(char, k) for k in range(char.m, 2 * char.m + 1)}
    return WhittakerCharacter(char.m, d_vals, z1=char.z1 - oscillator_charge(char.z2, char.z3))


def gen_binom(n: int, k: int) -> Q:
    """Binomial coefficient via falling factorials; n may be any integer."""
    num = 1
    for t in range(k):
        num *= n - t
    return Q(num, math.factorial(k))


class Module(Action):
    """Base class: a module is a table of generator actions on basis keys."""

    name = "module"

    def supports(self, g: Generator) -> bool:
        return True

    def key_sort(self, key):
        return key

    def key_str(self, key) -> str:
        return str(key)

    def window(self, size: int) -> list:
        """The basis keys of the spot-check window of the given size (>= 0), from _window."""
        if size < 0:
            raise ValueError("window size must be >= 0")
        return self._window(size)

    def vector(self, coeffs) -> "ModuleVector":
        """Build a vector from a key or a key -> coefficient map."""
        return ModuleVector(self, coeffs if isinstance(coeffs, dict) else {coeffs: 1})


class ModuleVector(SparseVector):
    """Sparse vector in a fixed module; keys are per-variant basis labels.

    Vectors of different modules never combine (MixedModules) and never
    compare equal; a vector is unhashable.
    """

    __slots__ = ("module",)

    def __init__(self, module: Module, coeffs=None):
        super().__init__(coeffs)
        self.module = module

    @classmethod
    def _trusted(cls, image, module):
        out = super()._trusted(image)
        out.module = module
        return out

    def _new(self, image):
        return self._trusted(image, self.module)

    def _check(self, other):
        if self.module is not other.module:
            raise MixedModules("vectors belong to different modules")

    def __eq__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.module is other.module and self.image == other.image

    def key_order(self, key):
        return self.module.key_sort(key)

    def key_str(self, key):
        return self.module.key_str(key)


def _require_support(module: Module, g: Generator):
    if not module.supports(g):
        raise UnsupportedGenerator("%s does not act on %s" % (gen_str(g), module.name))


def act(x, v: ModuleVector) -> ModuleVector:
    """Action of a LieElement (or a single generator) on a module vector."""
    module = v.module
    xden, xnums = (lie(x) if is_generator(x) else x).image
    terms = []
    for g, c in xnums.items():
        _require_support(module, g)
        terms.append((c, module.act_power(g, 1, v.image)))
    return v._new(lincomb(terms, xden))


def act_uea(u: UEAElement, v: ModuleVector) -> ModuleVector:
    """Action of an enveloping-algebra element: each monomial folded in from the right.

    Every letter must act on the module, even where the vector is zero.
    """
    module = v.module
    for mono in u.image[1]:
        # in the order the letters act, so the first that cannot is reported
        for g, _ in reversed(mono):
            _require_support(module, g)
    return v._new(module.multiply(u.image, v.image))


def _nonnegative(n: int) -> int:
    if n < 0:
        raise ValueError("key exponents must be >= 0, got %d" % n)
    return n


def _memoized(method):
    """method(self, *args) computed once per instance and kept in its _memo
    dict under the argument tuple; methods of different arity can share it."""

    @functools.wraps(method)
    def cached(self, *args):
        out = self._memo.get(args)
        if out is None:
            out = self._memo[args] = method(self, *args)
        return out

    return cached


def module_axiom_check(module: Module, index_bound: int, window):
    """Check act([x,y], v) = act(x, act(y, v)) - act(y, act(x, v)).

    Runs over all supported generator pairs with |indices| <= index_bound
    (at least 1) and every basis key in the window; returns the violations
    (x, y, key, residual) ordered by x, then y, then the window.  A bracket
    that leaves the supported generators raises UnsupportedGenerator for
    the first such pair (x, y) in that order, before anything acts.

    Images come from module.act_gen, which every variant memoizes, so the
    check keeps no table of its own: each unordered pair {x, y} forms the
    composites x(y v) and y(x v) once per key for the residuals of both
    (x, y) and (y, x), and each residual takes its own bracket, so nothing
    assumes antisymmetry.  The check itself holds the violations and one
    pair's composites; the module's memo keeps every image act_gen(g, k)
    the check reached, for the generators and their brackets on the window
    keys and the keys their images reach, until the module is dropped.
    """
    if index_bound < 1:
        raise ValueError("index_bound must be >= 1")
    if not window:
        raise ValueError("window must be nonempty")
    gens = [g for g in basis_window(index_bound) if module.supports(g)]
    for x in gens:
        for y in gens:
            for g in bracket_gens(x, y).image[1]:
                _require_support(module, g)

    found = []
    for i, x in enumerate(gens):
        for j in range(i, len(gens)):
            y = gens[j]
            # (position, a, b, [a, b] as an image) for the residual of (a, b); the diagonal has one
            sides = [((i, j), x, y, bracket_gens(x, y).image)]
            if j > i:
                sides.append(((j, i), y, x, bracket_gens(y, x).image))
            for w, key in enumerate(window):
                # a -> a(b v); x(x v) - x(x v) vanishes exactly, so the diagonal forms none
                outer = {x: (1, {})}
                if j > i:
                    outer = {a: module.act_power(a, 1, module.act_gen(b, key)) for _, a, b, _ in sides}
                for position, a, b, (bden, bnums) in sides:
                    # [a, b] v - a(b v) + b(a v), over the bracket's denominator
                    terms = [(c, module.act_gen(g, key)) for g, c in bnums.items()]
                    terms += [(-bden, outer[a]), (bden, outer[b])]
                    residual = lincomb(terms, bden)
                    if residual[1]:
                        found.append((position + (w,), (a, b, key, ModuleVector._trusted(residual, module))))
    found.sort(key=lambda entry: entry[0])
    return [violation for _, violation in found]


class MonomialModule(Module):
    """A module whose basis keys are PBW monomials acting on a cyclic vector.

    A command-line key is a monomial expression applied to the cyclic
    vector; the window of size s lists the unit and then, for each degree
    1..s, the keys that degree_keys names.
    """

    def key_sort(self, key):
        return mono_sort_key(key)

    def key_str(self, key):
        return "w" if key == UNIT else mono_str(key) + "*w"

    def cyclic(self) -> ModuleVector:
        return self.vector(UNIT)

    def parse_key(self, text):
        """A monomial expression acting on the cyclic vector; 1, w or v name it."""
        from .expr import parse_uea  # deferred: only parse_key reads expressions
        text = text.strip()
        return self.cyclic() if text in ("1", "w", "v") else act_uea(parse_uea(text), self.cyclic())

    def _window(self, size):
        return [UNIT] + [k for deg in range(1, size + 1) for k in self.degree_keys(deg)]


def _sorted_words(gens, deg: int) -> list:
    """Every monomial of length deg in gens, which are listed in PBW order."""
    return [mono_of_sorted_word(word) for word in combinations_with_replacement(gens, deg)]


class InducedModule(LeftAction, MonomialModule):
    """Module induced from a character of a subalgebra.

    Basis keys are PBW monomials over the complement generators, read as
    acting on the cyclic vector.  The action is the straightening kernel
    pbw.LeftAction: subclasses name the subalgebra (in_subalgebra) and its
    character (char), which absorbs subalgebra generators on the cyclic
    vector.
    """

    # bound in this class as well as inherited, so that code wrapping
    # InducedModule.act_gen (the benchmark's call counter) sees every call
    act_gen = LeftAction.act_gen


class VermaModule(InducedModule):
    """Highest weight module, free over the negative part on the vector w."""

    name = "verma"

    def __init__(self, hw: HWParams):
        super().__init__()
        self.hw = hw

    def in_subalgebra(self, g: Generator) -> bool:
        kind, n = g
        return kind == "z" or n >= 0

    def char(self, g: Generator) -> Q:
        kind, n = g
        if kind == "z":
            return (self.hw.z1, self.hw.z2, self.hw.z3)[n - 1]
        if n > 0:
            return Q(0)
        return self.hw.i0 if kind == "I" else self.hw.d0

    def degree_keys(self, deg):
        return negative_part_basis(deg)


class WhittakerModule(InducedModule):
    """Universal Whittaker module for a given order-m character."""

    name = "whittaker"

    def __init__(self, char: WhittakerCharacter):
        super().__init__()
        self.character = char

    def in_subalgebra(self, g: Generator) -> bool:
        kind, n = g
        if kind == "z":
            return True
        if kind == "I":
            return n >= 0
        return n >= self.character.m

    def char(self, g: Generator) -> Q:
        return self.character.value(g)

    def degree_keys(self, deg):
        # low-lying complement monomials in I(-1), d(j) (j < m), enough for a spot check
        return _sorted_words([("I", -1)] + [("d", j) for j in range(self.character.m)], deg)


class WMuKappaModule(WhittakerModule):
    """The order-r Whittaker module on the polynomial subalgebra.

    Its character is mu (indexed r..2r) on d(r)..d(2r) and kappa (indexed
    0..r) on I(0)..I(r); only generators of the polynomial subalgebra (d(n)
    with n >= -1 and I(n) with n >= 0) act.
    """

    name = "wmukappa"

    def __init__(self, r, mu, kappa):
        self.r, self.mu, self.kappa = check_mu_kappa(r, mu, kappa)
        char = WhittakerCharacter(self.r, dict(enumerate(self.mu, self.r)), dict(enumerate(self.kappa)))
        super().__init__(char)

    def supports(self, g: Generator) -> bool:
        kind, n = g
        if kind == "z":
            return False
        return n >= -1 if kind == "d" else n >= 0

    def in_subalgebra(self, g: Generator) -> bool:
        if not self.supports(g):
            raise UnsupportedGenerator("%s is outside the polynomial subalgebra" % gen_str(g))
        return super().in_subalgebra(g)

    def key_str(self, key):
        return "v" if key == UNIT else mono_str(key) + "*v"

    def degree_keys(self, deg):
        return _sorted_words([("d", j) for j in range(-1, self.r)], deg)


class FockModule(MonomialModule):
    """The oscillator module: the Heisenberg Verma module extended by S(k).

    Basis keys are monomials in I(-j), j >= 1, on the vacuum.  I(n) and the
    z-family act as on the I-only keys of the Verma module of highest weight
    (i0, 0, oscillator_charge(z2, z3), z2, z3), where I(n) straightens only
    through [I(n), I(-n)] = n z3; d(k) acts by the Sugawara element, whose
    reach on a key is its degree N, as I(n) kills the key for n > N.
    """

    name = "fock"

    def __init__(self, i0, z2, z3):
        if Q(z3) == 0:
            raise NeedNonzeroZ3("the oscillator construction needs z3 != 0")
        self.heisenberg = VermaModule(HWParams(i0, 0, oscillator_charge(z2, z3), z2, z3))
        self._memo = {}

    def d_action(self, k: int, key: Monomial):
        """Action of d(k) by the Sugawara terms that can act on the key."""
        hw = self.heisenberg.hw
        start = (1, {key: 1})
        terms = sugawara(k, hw.z2, hw.z3, -mono_weight(key))
        den = math.lcm(*[c.denominator for c, _ in terms])
        folds = [(c.numerator * (den // c.denominator), self.apply([(g, 1) for g in word], start)) for c, word in terms]
        return lincomb(folds, den)

    @_memoized
    def act_gen(self, g: Generator, key: Monomial):
        if g[0] == "d":
            return self.d_action(g[1], key)
        return self.heisenberg.act_gen(g, key)

    def degree_keys(self, deg):
        return negative_part_basis(deg, restrict=lambda g: g[0] == "I")

    def vacuum(self) -> ModuleVector:
        return self.vector(UNIT)


class IntermediateSeriesModule(Module):
    """The module on Laurent basis x^m with the three-parameter action."""

    name = "iseries"

    def __init__(self, params: ISParams):
        self.params = params
        self._memo = {}

    @_memoized
    def act_gen(self, g: Generator, key: int):
        kind, n = g
        p = self.params
        if kind == "z":
            return 1, {}
        return to_ints({key + n: p.a + key + n * p.b if kind == "d" else p.F})

    def key_str(self, key):
        return "x^%d" % key

    def parse_key(self, text):
        text = text.strip()
        return self.vector(int(text[2:] if text.startswith("x^") else text))

    def _window(self, size):
        return list(range(-size, size + 1))


class ShiftedTensorModule(Module):
    """Tensor of a Verma module with the intermediate series, shifted basis.

    Keys are (monomial, i) for u w (x) y^i, y^i = x^(i - k) with k the weight
    of u, so weight-n generators shift i by exactly n; they act by the tensor rule.
    """

    name = "shifted"

    def __init__(self, hw: HWParams, isp: ISParams):
        self.inner = VermaModule(hw)
        self.series = IntermediateSeriesModule(isp)
        self._memo = {}

    @_memoized
    def act_gen(self, g: Generator, key):
        mono, i = key
        n = gen_weight(g)
        k = mono_weight(mono)
        inner_den, inner = self.inner.act_gen(g, mono)
        series_den, series = self.series.act_gen(g, i - k)
        inner = (inner_den, {(m2, i + n): c for m2, c in inner.items()})
        return lincomb([(1, inner), (1, (series_den, {(mono, j + k): c for j, c in series.items()}))])

    def key_sort(self, key):
        mono, i = key
        return (i, mono_sort_key(mono))

    def key_str(self, key):
        mono, i = key
        return "%s@y^%d" % (self.inner.key_str(mono), i)

    def parse_key(self, text):
        """WORD@Y: the word acting on w (x) y^Y."""
        from .expr import parse_uea  # deferred: only parse_key reads expressions
        head, _, tail = text.partition("@")
        tail = tail.strip()
        base = self.vector((UNIT, int(tail[2:] if tail.startswith("y^") else tail)))
        return base if head.strip() in ("1", "w") else act_uea(parse_uea(head), base)

    def _window(self, size):
        ys = range(-size, size + 1)
        return [(UNIT, y) for y in ys] + [(m, y) for m in negative_part_basis(1) for y in ys]


class OmegaModule(Module):
    """Shift-embedded Witt-side Verma; basis is the outer-power family.

    Key i stands for the i-th outer power applied to the cyclic vector; the
    closed-form action is polynomial in the outer shift.
    """

    name = "omega"

    def __init__(self, lam, b1, b2):
        self.lam = Q(lam)
        if self.lam == 0:
            raise LambdaZero("the embedding parameter must be nonzero")
        self.b1 = Q(b1)
        self.b2 = Q(b2)
        self._memo = {}

    def _shift_pow(self, i: int, m: int):
        """Coefficients of (X - m)^i expanded over outer powers X^k."""
        return {k: gen_binom(i, k) * Q(-m) ** (i - k) for k in range(i + 1)}

    @_memoized
    def act_gen(self, g: Generator, key: int):
        _nonnegative(key)
        kind, n = g
        if kind == "z":
            return 1, {}
        shifted = to_ints(self._shift_pow(key, n))
        if kind == "I":
            c = self.lam ** (n + 1) * self.b2
            return lincomb([(c.numerator, shifted)], c.denominator)
        # q X (X - n)^key + r (X - n)^key with q = lam^n and r = lam^n n b1
        q, r = self.lam**n, self.lam**n * n * self.b1
        up = (shifted[0], {k + 1: c for k, c in shifted[1].items()})
        terms = [(q.numerator * r.denominator, up), (r.numerator * q.denominator, shifted)]
        return lincomb(terms, q.denominator * r.denominator)

    def key_str(self, key):
        return "v" if key == 0 else "d0^%d(v)" % key

    def parse_key(self, text):
        return self.vector(_nonnegative(int(text)))

    def _window(self, size):
        return list(range(size + 1))


def _embedded_gen(wm: WMuKappaModule, lam: Q, g: Generator, vec: tuple) -> tuple:
    """The shift-embedded action of one generator on an image over wm's keys.

    t^n acts by the binomially expanded shift t -> t + lam, derivations
    likewise, and the central elements act as zero.  The expansions truncate
    because high generators kill every vector of the induced module.
    """
    kind, n = g
    vden, vnums = vec
    if kind == "z":
        return 1, {}
    maxdeg = max((mono_degree(k) for k in vnums), default=0)
    # I(n) expands over I(q), 0 <= q <= r + maxdeg; d(n) over d(q - 1), 0 <= q <= 2r + 1 + maxdeg
    shift, top = (0, wm.r + maxdeg) if kind == "I" else (1, 2 * wm.r + 1 + maxdeg)
    cden, cnums = to_ints({q: gen_binom(n + shift, q) * lam ** (n + shift - q) for q in range(top + 1)})
    terms = [(c * cv, wm.act_gen((kind, q - shift), key)) for q, c in cnums.items() for key, cv in vnums.items()]
    return lincomb(terms, cden * vden)


def embedded_action(lam, x, v: ModuleVector) -> ModuleVector:
    """Shift-embedded action of the full algebra on a polynomial-subalgebra module.

    v must live in a WMuKappaModule; see _embedded_gen for the expansion.
    """
    lam = Q(lam)
    if lam == 0:
        raise LambdaZero("the embedding parameter must be nonzero")
    wm = v.module
    if not isinstance(wm, WMuKappaModule):
        raise MixedModules("embedded_action expects a vector of the induced polynomial-subalgebra module")
    xden, xnums = (lie(x) if is_generator(x) else x).image
    return v._new(lincomb([(c, _embedded_gen(wm, lam, g, v.image)) for g, c in xnums.items()], xden))


class EmbeddedModule(Module):
    """Shift-embedded (mu, kappa) module for r = 1 on the (i, j) basis.

    The key (i, j) is the plain vector (d0 + lam d(-1))^i d0^j v; actions are
    computed by converting to the plain basis, applying the embedded action
    and converting back (the change of basis is triangular in the
    d(-1)-degree, invertible because lam != 0).  Keys print as E^i(d0^j(v)),
    where E names the operator d0 + lam d(-1); a zero exponent drops its
    factor.
    """

    name = "embedded"

    def __init__(self, mu, kappa, lam):
        self.lam = Q(lam)
        if self.lam == 0:
            raise LambdaZero("the embedding parameter must be nonzero")
        self.inner = WMuKappaModule(1, mu, kappa)
        self.mu = self.inner.mu
        self.kappa = self.inner.kappa
        self._memo = {}

    @_memoized
    def _plain(self, key) -> tuple:
        """The plain-basis vector behind an (i, j) key, as an image over the inner module's keys."""
        i, j = key
        if i == 0:
            return 1, {((d(0), j),) if j else UNIT: 1}
        outer = to_ints({((d(0), 1),): 1, ((d(-1), 1),): self.lam})
        return self.inner.multiply(outer, self._plain((i - 1, j)))

    @staticmethod
    def _split(mono: Monomial):
        """(d(-1)-exponent, d(0)-exponent) of a plain monomial."""
        exponents = dict(mono)
        return exponents.get(("d", -1), 0), exponents.get(("d", 0), 0)

    def _from_plain(self, vec: tuple) -> tuple:
        """Rewrite a plain image over the (i, j) keys (triangular solve: the leading split falls)."""
        out = {}
        rest = vec
        while rest[1]:
            mono, c = max(rest[1].items(), key=lambda item: self._split(item[0]))
            s, t = self._split(mono)
            coeff = out[(s, t)] = Q(c, rest[0]) / self.lam**s
            # rest - coeff * plain(s, t), over the denominator of coeff
            rest = lincomb([(coeff.denominator, rest), (-coeff.numerator, self._plain((s, t)))], coeff.denominator)
        return to_ints(out)

    @_memoized
    def act_gen(self, g: Generator, key):
        _nonnegative(min(key))
        return self._from_plain(_embedded_gen(self.inner, self.lam, g, self._plain(key)))

    def key_str(self, key):
        i, j = key
        inner = "v" if j == 0 else "d0^%d(v)" % j
        return inner if i == 0 else "E^%d(%s)" % (i, inner)

    def parse_key(self, text):
        """i,j: the vector (d0 + lam d(-1))^i d0^j v, with i, j >= 0."""
        i, _, j = text.partition(",")
        return self.vector((_nonnegative(int(i)), _nonnegative(int(j))))

    def _window(self, size):
        return [(i, j) for i in range(size + 1) for j in range(size + 1 - i)]
