"""Simplicity criteria as executable verdicts.

The centrepiece is the linear functional rho_n on the negative enveloping
algebra, computed symbolically as a polynomial in n so that "nonzero for all
integers n" becomes an exact integer-root problem.  rho multiplies out its
factors and sums over monomials in integers over one denominator, the
format that NPoly stores and integer_roots reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import Q, basis_window, gen_str, lincomb, to_ints
from .errors import NotNegativePart
from .linsearch import Echelon
from .modules import ISParams, WhittakerCharacter, check_mu_kappa
from .pbw import UEAElement, in_negative_part, word_of


class NPoly:
    """Univariate polynomial in the indeterminate n with exact coefficients.

    Stored in integers over one denominator: nums lists the numerators from
    the constant term up, with no trailing zero, over a positive den, in
    lowest terms, so equality is structural.  coeffs reads them as
    Fractions, and image as an algebra image {exponent: numerator}, which
    algebra.lincomb combines.
    """

    __slots__ = ("den", "nums")

    def __new__(cls, coeffs=()):
        return cls._of(to_ints({e: Q(c) for e, c in enumerate(coeffs)}))

    @classmethod
    def _of(cls, image) -> "NPoly":
        """The polynomial of an image in lowest terms."""
        den, nums = image
        out = object.__new__(cls)
        out.den = den
        out.nums = tuple(nums.get(e, 0) for e in range(max(nums, default=-1) + 1))
        return out

    @staticmethod
    def const(c) -> "NPoly":
        return NPoly((c,))

    @staticmethod
    def linear(c0, c1) -> "NPoly":
        """c0 + c1*n."""
        return NPoly((c0, c1))

    @property
    def image(self):
        return self.den, {e: c for e, c in enumerate(self.nums) if c}

    @property
    def coeffs(self):
        return tuple(Q(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    def __call__(self, n) -> Q:
        acc = 0
        for c in reversed(self.nums):
            acc = acc * n + c
        return Q(acc, self.den)

    def __eq__(self, other):
        return isinstance(other, NPoly) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    def __add__(self, other):
        return NPoly._of(lincomb([(1, self.image), (1, other.image)]))

    def __neg__(self):
        return NPoly._of(lincomb([(-1, self.image)]))

    def __sub__(self, other):
        return NPoly._of(lincomb([(1, self.image), (-1, other.image)]))

    def __mul__(self, other):
        if isinstance(other, NPoly):
            out = {}
            for i, a in enumerate(self.nums):
                for j, b in enumerate(other.nums):
                    out[i + j] = out.get(i + j, 0) + a * b
            out = {e: c for e, c in out.items() if c}
            return NPoly._of(lincomb([(1, (1, out))], self.den * other.den))
        other = Q(other)
        return NPoly._of(lincomb([(other.numerator, self.image)], other.denominator))

    def __rmul__(self, other):
        return self * other

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for e in range(len(self.nums) - 1, -1, -1):
            c = Q(self.nums[e], self.den)
            if not c:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                var = "n" if e == 1 else "n^%d" % e
                body = var if abs(c) == 1 else "%s*%s" % (abs(c), var)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "NPoly(%s)" % str(self)


class AllIntegers:
    """Root set marker: the polynomial vanishes at every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AllIntegers"


ALL_INTEGERS = AllIntegers()


def _horner(ints, x: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _root_floors(ints, bound: int) -> set:
    """The floors of the real roots of the integer polynomial ints and of all
    its derivatives, every such root lying strictly inside (-bound, bound).

    Between the floors c < c' of consecutive derivative roots, ints is
    monotone on [c + 1, c'], so that segment holds at most one root, whose
    floor integer bisection finds.
    """
    if len(ints) < 2:
        return set()
    cuts = sorted(_root_floors([k * c for k, c in enumerate(ints)][1:], bound))
    out = set(cuts)
    for lo, hi in zip([-bound] + [c + 1 for c in cuts], cuts + [bound]):
        f_lo, f_hi = _horner(ints, lo), _horner(ints, hi)
        if f_lo * f_hi > 0:
            continue
        if not f_hi:
            lo = hi
        # keep f(lo) != 0 with the sign opposite to f(hi), or stop at a root
        while f_lo and hi - lo > 1:
            mid = (lo + hi) // 2
            f_mid = _horner(ints, mid)
            if f_mid * f_lo >= 0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        out.add(lo)
    return out


def integer_roots(p: NPoly):
    """Exact integer root set: a sorted list, or ALL_INTEGERS for the zero polynomial.

    Works on the primitive integer form of p with n^k factored out.  Every
    real root r is bracketed to a unit interval [c, c + 1] with c = floor(r):
    recursively, the brackets of p' cut [-B, B] (B the Cauchy bound) into
    segments on which p is monotone, and integer bisection finds the sign
    change in each.  An integer root is its own floor, so the roots are the
    floors at which exact integer evaluation gives 0.  For degree d this
    takes O(d^2 log B + d^3) Horner evaluations, polynomial in the bit size
    of the coefficients.
    """
    if p.is_zero():
        return ALL_INTEGERS
    ints = p.nums
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
        lead = abs(ints[-1])
        bound = 1 + (max(abs(c) for c in ints[:-1]) + lead - 1) // lead
        roots.update(c for c in _root_floors(ints, bound) if not _horner(ints, c))
    return sorted(roots)


def _rho_image(word, a: Q, b: Q, F: Q) -> tuple:
    """rho of a raw word of negative generators as an image {exponent: int},
    not reduced: the integer product of its factors over the product of
    their denominators."""
    for g in word:
        if not in_negative_part(g):
            raise NotNegativePart("%s is not in the strictly negative part" % gen_str(g))
    poly = [1]
    den = 1
    # d(-i) with a suffix of weight k gives -(a + k + i - i b) - n, over lcm(a, b) denominators
    dd = math.lcm(a.denominator, b.denominator)
    an, bn = a.numerator * (dd // a.denominator), b.numerator * (dd // b.denominator)
    k = 0
    for kind, neg in reversed(word):
        i = -neg
        if kind == "I":
            poly = [-F.numerator * c for c in poly]
            den *= F.denominator
        else:
            c0 = -(an + (k + i) * dd - i * bn)
            poly = [c0 * hi - dd * lo for hi, lo in zip(poly + [0], [0] + poly)]
            den *= dd
        k += i
    return den, {e: c for e, c in enumerate(poly) if c}


def rho_word(word, params: ISParams) -> NPoly:
    """The defining recursion on a raw word of negative generators.

    Peeling d(-i) off the left with a suffix of degree k contributes the
    factor -(a + k + i + n - i b); peeling I(-i) contributes -F.
    """
    return NPoly._of(lincomb([(1, _rho_image(word, params.a, params.b, params.F))]))


def rho(P: UEAElement, params: ISParams) -> NPoly:
    """Linear extension of the recursion to normal-form elements."""
    den, nums = P.image
    terms = [(c, _rho_image(word_of(mono), params.a, params.b, params.F)) for mono, c in nums.items()]
    return NPoly._of(lincomb(terms, den))


@dataclass(frozen=True)
class SimplicityVerdict:
    """Uniform result type: simple, not simple (with witness), or inconclusive."""

    kind: str  # "simple" | "not_simple" | "inconclusive"
    witness_n: int | None = None
    witness: str | None = None
    reason: str | None = None

    @property
    def is_simple(self):
        return self.kind == "simple"

    @property
    def is_not_simple(self):
        return self.kind == "not_simple"

    @property
    def is_inconclusive(self):
        return self.kind == "inconclusive"

    @property
    def label(self) -> str:
        """The porcelain verdict record: SIMPLE | NOT_SIMPLE [n=<int>] | INCONCLUSIVE <reason>."""
        if self.kind == "simple":
            return "SIMPLE"
        if self.kind == "not_simple":
            return "NOT_SIMPLE" + ("" if self.witness_n is None else " n=%d" % self.witness_n)
        return "INCONCLUSIVE %s" % (self.reason or "")

    def __str__(self):
        """The label, followed by the witness text when the verdict has no witness n."""
        if self.witness and self.witness_n is None and not self.is_inconclusive:
            return "%s (%s)" % (self.label, self.witness)
        return self.label


def simple(witness=None) -> SimplicityVerdict:
    return SimplicityVerdict("simple", witness=witness)


def not_simple(witness=None, n=None) -> SimplicityVerdict:
    return SimplicityVerdict("not_simple", witness_n=n, witness=witness)


def inconclusive(reason) -> SimplicityVerdict:
    return SimplicityVerdict("inconclusive", reason=reason)


def whittaker_expressions(char: WhittakerCharacter):
    """The two obstruction expressions of the nonzero-z3 Whittaker criterion."""
    m = char.m
    e1 = (
        2 * char.d_val(2 * m) * char.z3
        + char.i_val(m) ** 2
        - 2 * (m + 1) * char.i_val(m) * char.z2
    )
    e2 = (
        char.d_val(2 * m - 1) * char.z3
        + char.i_val(m) * char.i_val(m - 1)
        - (m + 1) * char.i_val(m) * char.z2
    )
    return e1, e2


def whittaker_simplicity(char: WhittakerCharacter) -> SimplicityVerdict:
    """Simplicity of the universal Whittaker module for the given character.

    For nonzero z3 the module is simple iff either obstruction expression is
    nonzero; for z3 = 0 it is simple iff the top I-value is nonzero.
    """
    if char.z3 != 0:
        e1, e2 = whittaker_expressions(char)
        if e1 != 0 or e2 != 0:
            return simple("obstructions (%s, %s)" % (e1, e2))
        return not_simple("both obstruction expressions vanish")
    if char.i_val(char.m) != 0:
        return simple("z3 = 0 and I(m)-value %s != 0" % char.i_val(char.m))
    return not_simple(
        "z3 = 0 and the I(m)-value vanishes; a proper Whittaker vector exists"
        " (see the linear-search module)"
    )


def tensor_simplicity(gens, params: ISParams, exclude_n0: bool = False) -> SimplicityVerdict:
    """Common-integer-root test on rho of the maximal-submodule generators.

    Simple iff no integer n (excluding 0 when flagged) is a common root of
    every rho(gen); the quotient-by-trivial case is handled by exclude_n0.
    """
    if not gens or any(g.is_zero() for g in gens):
        raise ValueError("need at least one generator, and a zero one generates no submodule")
    polys = [rho(g, params) for g in gens]
    common = ALL_INTEGERS
    for p in polys:
        roots = integer_roots(p)
        if roots is ALL_INTEGERS:
            continue
        common = roots if common is ALL_INTEGERS else sorted(set(common) & set(roots))
    if common is ALL_INTEGERS:
        if exclude_n0:
            return not_simple("every integer n != 0 is a common rho root", n=1)
        return not_simple("every integer n is a common rho root")
    hits = [n for n in common if not (exclude_n0 and n == 0)]
    if hits:
        n = min(hits, key=lambda v: (abs(v), v))
        return not_simple("common rho root", n=n)
    return simple("no common integer rho root")


def annihilator_cover(ann1, ann2, window: int) -> bool:
    """Bounded-window span test for the annihilator-sum condition.

    True iff the listed elements supported inside |index| <= window span
    every d(n), I(n) with |n| <= window - margin together with z1, z2, z3,
    where margin is the largest index spread of any listed element.  This is
    a sufficient desk-scale check, not the infinite statement.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    cols = basis_window(window)
    span = Echelon.over(cols)
    margin = 0
    for x in list(ann1) + list(ann2):
        if x.is_zero():
            continue
        idx = [g[1] for g in x.image[1] if g[0] != "z"]
        if any(abs(i) > window for i in idx):
            continue
        if idx:
            margin = max(margin, max(idx) - min(idx))
        span.insert(x.image[1])
    targets = [g for g in cols if g[0] == "z" or abs(g[1]) <= window - margin]
    return not any(span.reduce({g: 1}) for g in targets)


def w_mu_kappa_simple(r, mu, kappa) -> SimplicityVerdict:
    """Triple test for the induced polynomial-subalgebra module.

    mu is indexed r..2r, kappa indexed 0..r; simple iff
    (mu_{2r}, mu_{2r-1}, kappa_r) is not identically zero.
    """
    r, mu, kappa = check_mu_kappa(r, mu, kappa)
    triple = (mu[r], mu[r - 1], kappa[r])
    if any(triple):
        return simple("(mu_2r, mu_2r-1, kappa_r) = (%s, %s, %s)" % triple)
    return not_simple("(mu_2r, mu_2r-1, kappa_r) = (0, 0, 0)")
