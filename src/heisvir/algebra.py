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
directly as dict keys.  SparseVector is the one sparse key -> Fraction map of
the package, and axpy its one accumulate loop; LieElement, pbw.UEAElement and
modules.ModuleVector are thin subclasses of it.

The action layer (pbw.Action, every module's act_gen) works fraction-free, on
images: an image (den, nums) is a positive int den and a map key -> nonzero
int, standing for key -> nums[key] / den, in lowest terms (gcd(den, *nums) ==
1), so equal vectors have equal images.  to_ints and to_fractions convert
between the forms; lincomb is the accumulate loop of images, with one lcm
per combination (the idea of Bareiss, Math. Comp. 22, 1968).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

Q = Fraction
ONE = Q(1)

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


def axpy(out: dict, c, table) -> dict:
    """out += c * table on sparse key -> coefficient maps; cancelled keys are dropped.

    The one accumulate loop of Fraction maps (lincomb is that of images).
    out is updated in place and returned; table is only read.
    """
    for k, v in table.items():
        old = out.get(k)
        s = c * v if old is None else old + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def to_ints(coeffs: dict) -> tuple:
    """The image of a map key -> rational: one lcm of the denominators, zeros dropped."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}


def to_fractions(image) -> dict:
    """The map key -> Fraction that an image stands for."""
    den, nums = image
    if den == 1:
        return {k: Q(c) for k, c in nums.items()}
    return {k: Q(c, den) for k, c in nums.items()}


def lincomb(terms, den: int = 1) -> tuple:
    """The image of (1/den) * (sum of c * image over the (c, image) terms).

    Each c is an int and den a positive int; the images need not be in
    lowest terms.  The terms are brought over the lcm of their denominators,
    summed in integers with cancelled keys dropped, and the sum is reduced
    by one gcd, so no Fraction is built.
    """
    common = 1
    for _, (tden, _) in terms:
        if tden != common and tden != 1:
            common = lcm(common, tden)
    out = {}
    get = out.get
    for c, (tden, nums) in terms:
        if tden != common:
            c *= common // tden
        for k, m in nums.items():
            s = get(k, 0) + c * m
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    # an empty sum reduces to the zero image (1, {})
    den *= common
    g = gcd(den, *out.values())
    if g != 1:
        den //= g
        for k in out:
            out[k] //= g
    return den, out


class SparseVector:
    """Finite rational linear combination of basis keys.

    Immutable by convention; no zero coefficient is stored, every stored
    coefficient is a Fraction, and equality is structural on the sparse map.
    Subclasses supply the key order (key_order) and the key names (key_str);
    a key printed as "1" is the unit and prints as its bare coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        pruned = {}
        if coeffs:
            for k, c in coeffs.items():
                c = Q(c)
                if c:
                    pruned[k] = c
        self.coeffs = pruned

    @classmethod
    def _trusted(cls, coeffs):
        """Wrap an already pruned map of Fractions without coercing it."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    def _new(self, coeffs):
        """A vector of the same space as self, holding a trusted map."""
        return self._trusted(coeffs)

    def _check(self, other):
        """Raise if other cannot be combined with self."""

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        self._check(other)
        return self._new(axpy(dict(self.coeffs), ONE, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return self._new(axpy(dict(self.coeffs), -ONE, other.coeffs))

    def __neg__(self):
        return self._new({k: -c for k, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        scalar = Q(scalar)
        if not scalar:
            return self._new({})
        return self._new({k: scalar * c for k, c in self.coeffs.items()})

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def items(self):
        return self.coeffs.items()

    def support(self):
        return sorted(self.coeffs, key=self.key_order)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in self.support():
            c = self.coeffs[k]
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
    return LieElement._trusted({g: ONE})


def lie_sum(*terms) -> LieElement:
    """Sum of (coefficient, generator) pairs."""
    out = {}
    for c, g in terms:
        axpy(out, Q(c), {g: ONE})
    return LieElement._trusted(out)


def bracket_gens(x: Generator, y: Generator) -> LieElement:
    """Lie bracket of two basis generators."""
    kx, n = x
    ky, m = y
    if kx == "z" or ky == "z":
        return ZERO
    if kx == "I" and ky == "d":
        return -bracket_gens(y, x)
    # the two terms of each bracket have distinct generators, so no accumulation
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
        # I-I pair
        out[Z3] = Q(n)
    return LieElement._trusted(out)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Bilinear extension of the bracket to arbitrary elements."""
    out = {}
    for gx, cx in x.items():
        for gy, cy in y.items():
            axpy(out, cx * cy, bracket_gens(gx, gy).coeffs)
    return LieElement._trusted(out)


def ad_weight(x):
    """ad(d0)-weight of a generator or a LieElement.

    Returns None for inhomogeneous (or zero) elements.
    """
    if is_generator(x):
        return gen_weight(x)
    weights = {gen_weight(g) for g in x.coeffs}
    if len(weights) == 1:
        return weights.pop()
    return None


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
        into_x = [bracket_gens(z, x) for z in gens]
        for j in range(i, len(gens)):
            y = gens[j]
            bxy = bracket_gens(x, y)
            # (i, j, k) is the least rotation of its class: i <= j, i <= k, and
            # k > i unless j == i, since of (i, i, m) and (i, m, i) the first is least
            for k in range(i if j == i else i + 1, len(gens)):
                z = gens[k]
                out = {}
                for u, inner in ((x, bracket_gens(y, z)), (y, into_x[k]), (z, bxy)):
                    for g, c in inner.items():
                        axpy(out, c, bracket_gens(u, g).coeffs)
                if out:
                    residual = LieElement._trusted(out)
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


def apply_sigma(spec: AutomorphismSpec, x: LieElement) -> LieElement:
    """Linear extension of sigma_{a,b} to arbitrary elements."""
    out = {}
    for g, c in x.items():
        axpy(out, c, sigma_gen(spec, g).coeffs)
    return LieElement._trusted(out)


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
            lhs = {}
            for g, c in bracket_gens(x, y).items():
                image = images.get(g)
                if image is None:
                    image = images[g] = sigma_gen(spec, g)
                axpy(lhs, c, image.coeffs)
            lhs = LieElement._trusted(lhs)
            rhs = bracket(images[x], images[y])
            if lhs != rhs:
                violations.append((x, y, lhs - rhs))
    return violations
