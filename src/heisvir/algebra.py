"""Exact model of the twisted Heisenberg-Virasoro Lie algebra.

The algebra has basis d(n) = t^{n+1} d/dt, I(n) = t^n (n ranging over the
integers) together with three central elements z1, z2, z3.  All coefficients
are exact rationals (fractions.Fraction); there is no floating point anywhere.

Structure constants:

    [d(n), d(m)] = (m-n) d(n+m)  + delta(n,-m) (n^3-n)/12 z1
    [d(n), I(m)] = m I(n+m)      + delta(n,-m) (n^2+n)   z2
    [I(n), I(m)] = n delta(n,-m) z3
    [z_i, anything] = 0

Generators are plain tuples ('d', n), ('I', n), ('z', i) so they can be used
directly as dict keys.

Every layer computes fraction-free, on images: an image (den, nums) is a
positive int den and a map key -> nonzero int, standing for key ->
nums[key] / den, in lowest terms (gcd(den, *nums) == 1), so equal vectors
have equal images.  lincomb is the one accumulate loop, with one lcm per
combination (the idea of Bareiss, Math. Comp. 22, 1968); to_ints reads a
map key -> rational at the edge.  SparseVector stores an image, and its
coeffs view builds Fractions only for printing and public readers;
LieElement, pbw.UEAElement and modules.ModuleVector are thin subclasses of
it.  bracket_gens is memoized: one table of structure constants, whose
denominators divide 12, serves the whole package.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

Q = Fraction

Generator = tuple  # ('d', n) | ('I', n) | ('z', i)


def d(n: int) -> Generator:
    return ("d", int(n))


def I(n: int) -> Generator:
    return ("I", int(n))


Z1: Generator = ("z", 1)
Z2: Generator = ("z", 2)
Z3: Generator = ("z", 3)


def is_generator(g) -> bool:
    return (
        isinstance(g, tuple)
        and len(g) == 2
        and g[0] in ("d", "I", "z")
        and isinstance(g[1], int)
        and (g[0] != "z" or g[1] in (1, 2, 3))
    )


def gen_order_key(g: Generator):
    """Total order z1 < z2 < z3 < I(m) (m ascending) < d(m) (m ascending).

    This is the PBW order used everywhere: central elements first, then the
    I family, then the d family.
    """
    kind, n = g
    if kind == "z":
        return (0, n)
    if kind == "I":
        return (1, n)
    return (2, n)


def gen_weight(g: Generator) -> int:
    """ad(d0)-weight: n for d(n) and I(n), 0 for the central elements."""
    kind, n = g
    return 0 if kind == "z" else n


def gen_str(g: Generator) -> str:
    kind, n = g
    if kind == "z":
        return "z%d" % n
    return "%s(%d)" % (kind, n)


def to_ints(coeffs: dict) -> tuple:
    """The image of a map key -> rational: one lcm of the denominators, zeros dropped."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}


def lincomb(terms, den: int = 1) -> tuple:
    """The image of (1/den) * (sum of c * image over the (c, image) terms).

    Each c is an int and den a positive int; the images need not be in
    lowest terms, but hold no zero.  The terms are brought over the lcm of
    their denominators, summed in integers with cancelled keys dropped, and
    the sum is reduced by one gcd, so no Fraction is built.
    """
    common = 1
    for _, (tden, _) in terms:
        if tden != common and tden != 1:
            common = lcm(common, tden)
    out = {}
    for c, (tden, nums) in terms:
        if tden != common:
            c *= common // tden
        if not out:
            if c:
                out = dict(nums) if c == 1 else {k: c * m for k, m in nums.items()}
            continue
        get = out.get
        for k, m in nums.items():
            s = get(k, 0) + c * m
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    # an empty sum reduces to the zero image (1, {}); over den 1 every image is reduced
    den *= common
    if den != 1:
        g = gcd(den, *out.values())
        if g != 1:
            den //= g
            for k in out:
                out[k] //= g
    return den, out


class Coeffs(Mapping):
    """Read-only view key -> Fraction of an image; each value is built when read."""

    __slots__ = ("image",)

    def __init__(self, image):
        self.image = image

    def __getitem__(self, key):
        return Q(self.image[1][key], self.image[0])

    def __iter__(self):
        return iter(self.image[1])

    def __len__(self):
        return len(self.image[1])


class SparseVector:
    """Finite rational linear combination of basis keys.

    Immutable by convention.  The vector is stored as its image, so no zero
    coefficient is stored and equality and hashing are structural; coeffs is
    the read-only view key -> Fraction for printing and public readers.
    Subclasses supply the key order (key_order) and the key names (key_str);
    a key printed as "1" is the unit and prints as its bare coefficient.
    """

    __slots__ = ("image",)

    def __init__(self, coeffs=None):
        self.image = to_ints({k: Q(c) for k, c in (coeffs or {}).items()})

    @classmethod
    def _trusted(cls, image):
        """Wrap an image, which must be in lowest terms, without checking it."""
        out = cls.__new__(cls)
        out.image = image
        return out

    def _new(self, image):
        """A vector of the same space as self, holding a trusted image."""
        return self._trusted(image)

    def _check(self, other):
        """Raise if other cannot be combined with self."""

    @property
    def coeffs(self) -> Coeffs:
        return Coeffs(self.image)

    def __bool__(self):
        return bool(self.image[1])

    def is_zero(self):
        return not self.image[1]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.image == other.image

    def __hash__(self):
        den, nums = self.image
        return hash((den, frozenset(nums.items())))

    def __add__(self, other):
        self._check(other)
        return self._new(lincomb([(1, self.image), (1, other.image)]))

    def __sub__(self, other):
        self._check(other)
        return self._new(lincomb([(1, self.image), (-1, other.image)]))

    def __neg__(self):
        den, nums = self.image
        return self._new((den, {k: -c for k, c in nums.items()}))

    def __rmul__(self, scalar):
        scalar = Q(scalar)
        return self._new(lincomb([(scalar.numerator, self.image)], scalar.denominator))

    __mul__ = __rmul__

    def items(self):
        return self.coeffs.items()

    def support(self):
        return sorted(self.image[1], key=self.key_order)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)

    def __str__(self):
        den, nums = self.image
        if not nums:
            return "0"
        parts = []
        for k in self.support():
            c = Q(nums[k], den)
            ks = self.key_str(k)
            if ks == "1":
                term = str(c)
            elif c == 1:
                term = ks
            elif c == -1:
                term = "-" + ks
            else:
                term = "%s*%s" % (c, ks)
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append("- " + term[1:])
            else:
                parts.append("+ " + term)
        return " ".join(parts)


class LieElement(SparseVector):
    """Finite rational linear combination of basis generators."""

    __slots__ = ()
    key_order = staticmethod(gen_order_key)
    key_str = staticmethod(gen_str)


ZERO = LieElement()


def lie(g: Generator) -> LieElement:
    """The basis generator g as a LieElement."""
    return LieElement._trusted((1, {g: 1}))


def lie_sum(*terms) -> LieElement:
    """Sum of (coefficient, generator) pairs."""
    out = {}
    for c, g in terms:
        out[g] = out.get(g, 0) + Q(c)
    return LieElement(out)


@functools.cache
def bracket_gens(x: Generator, y: Generator) -> LieElement:
    """Lie bracket of two basis generators, computed once per pair.

    The cache is the one bracket table of the package, shared by every
    kernel, module and check; it keeps one entry per pair met for the life
    of the process, and callers must not mutate the image.
    """
    kx, n = x
    ky, m = y
    if kx == "z" or ky == "z":
        return ZERO
    sign = 1
    if kx == "I" and ky == "d":
        (kx, n), (ky, m), sign = y, x, -1
    # the two terms of each bracket have distinct generators, so no accumulation
    out = {}
    if kx == "d" and ky == "d":
        if m != n:
            out[d(n + m)] = 12 * (m - n)
        if n == -m and n**3 != n:
            out[Z1] = n**3 - n
    elif kx == "d":
        if m != 0:
            out[I(n + m)] = m
        if n == -m and n * n + n:
            out[Z2] = n * n + n
    elif n == -m and n != 0:
        # I-I pair
        out[Z3] = n
    return LieElement._trusted(lincomb([(sign, (1, out))], 12 if kx == ky == "d" else 1))


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Bilinear extension of the bracket to arbitrary elements."""
    xden, xnums = x.image
    yden, ynums = y.image
    terms = [(cx * cy, bracket_gens(gx, gy).image) for gx, cx in xnums.items() for gy, cy in ynums.items()]
    return LieElement._trusted(lincomb(terms, xden * yden))


def basis_window(bound: int):
    """All basis generators with |index| <= bound, then the centrals."""
    gens = [d(n) for n in range(-bound, bound + 1)]
    gens += [I(n) for n in range(-bound, bound + 1)]
    return gens + [Z1, Z2, Z3]


def jacobi_check(index_bound: int):
    """Check the Jacobi identity on all basis triples with |indices| <= bound.

    Returns the list of violating triples (x, y, z, residual) ordered by x,
    then y, then z; empty means the structure constants define a Lie algebra
    on this window.

    The residual [x,[y,z]] + [y,[z,x]] + [z,[x,y]] of (x, y, z) is the sum
    of the same three nested brackets as the residuals of its rotations
    (y, z, x) and (z, x, y), so it is computed once per rotation class and
    reported for every member.  Memory stays O(|generators|): no table
    spans all pairs or triples.
    """
    if index_bound < 1:
        raise ValueError("index_bound must be >= 1")
    gens = basis_window(index_bound)
    found = []
    for i, x in enumerate(gens):
        into_x = [bracket_gens(z, x).image for z in gens]
        for j in range(i, len(gens)):
            y = gens[j]
            bxy = bracket_gens(x, y).image
            # (i, j, k) is the least rotation of its class: i <= j, i <= k, and
            # k > i unless j == i, since of (i, i, m) and (i, m, i) the first is least
            for k in range(i if j == i else i + 1, len(gens)):
                z = gens[k]
                inner = ((x, bracket_gens(y, z).image), (y, into_x[k]), (z, bxy))
                # the outer brackets over the lcm of the inner denominators
                common = lcm(*[den for _, (den, _) in inner])
                terms = [
                    (c * (common // den), bracket_gens(u, g).image) for u, (den, nums) in inner for g, c in nums.items()
                ]
                residual = lincomb(terms, common)
                if residual[1]:
                    residual = LieElement._trusted(residual)
                    for position in {(i, j, k), (j, k, i), (k, i, j)}:
                        found.append((position, residual))
    found.sort(key=lambda entry: entry[0])
    return [(gens[a], gens[b], gens[c], residual) for (a, b, c), residual in found]


@dataclass(frozen=True)
class AutomorphismSpec:
    """The automorphism family sigma_{a,b}.

    a_coeffs holds the finitely many Laurent coefficients a_i of the
    polynomial datum (map i -> a_i); b is a single rational.
    """

    a_coeffs: dict = field(default_factory=dict)
    b: Q = Q(0)

    def __post_init__(self):
        object.__setattr__(
            self, "a_coeffs", {int(i): Q(c) for i, c in self.a_coeffs.items() if Q(c)}
        )
        object.__setattr__(self, "b", Q(self.b))

    def a(self, i: int) -> Q:
        return self.a_coeffs.get(i, Q(0))


def sigma_gen(spec: AutomorphismSpec, g: Generator) -> LieElement:
    """Image of a basis generator under sigma_{a,b}."""
    a, b = spec.a, spec.b
    kind, n = g
    if kind == "z":
        if n == 1:
            return lie_sum((1, Z1), (-24 * b, Z2), (-12 * b * b, Z3))
        if n == 2:
            return lie_sum((1, Z2), (b, Z3))
        return lie(Z3)
    if kind == "I":
        terms = [(Q(1), I(n)), (-a(-n), Z3)]
        if n == 0:
            terms.append((b, Z3))
        return lie_sum(*terms)
    # d(n): d_n + t^n(a + n b) - (n+1) a_{-n} z2
    #       - (sum_i a_i a_{-n-i}/2 + a_{-n} n b) z3 + delta(n,0) b (z2 + b/2 z3)
    terms = [(Q(1), d(n))]
    for i, ai in spec.a_coeffs.items():
        terms.append((ai, I(n + i)))
    if n:
        terms.append((n * b, I(n)))
    terms.append((-(n + 1) * a(-n), Z2))
    quad = sum((ai * a(-n - i) for i, ai in spec.a_coeffs.items()), Q(0))
    terms.append((-(quad / 2 + a(-n) * n * b), Z3))
    if n == 0:
        terms.append((b, Z2))
        terms.append((b * b / 2, Z3))
    return lie_sum(*terms)


def sigma_hom_check(spec: AutomorphismSpec, index_bound: int):
    """Verify sigma([x,y]) = [sigma(x), sigma(y)] on a bounded window.

    Returns the list of violating pairs; this is a bounded-window check,
    not a proof that sigma is an automorphism.  Each generator's image is
    computed once: those of the window first, those of bracket results
    beyond it when first met.
    """
    if index_bound < 1:
        raise ValueError("index_bound must be >= 1")
    gens = basis_window(index_bound)
    images = {g: sigma_gen(spec, g) for g in gens}
    violations = []
    for x in gens:
        for y in gens:
            bden, bnums = bracket_gens(x, y).image
            for g in bnums:
                if g not in images:
                    images[g] = sigma_gen(spec, g)
            lhs = lincomb([(c, images[g].image) for g, c in bnums.items()], bden)
            rhs = bracket(images[x], images[y])
            if lhs != rhs.image:
                violations.append((x, y, LieElement._trusted(lhs) - rhs))
    return violations
