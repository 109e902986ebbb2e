"""PBW monomials and normal forms in the universal enveloping algebra.

A monomial is a tuple of (generator, exponent) pairs whose generators are
strictly increasing in the fixed order z1 < z2 < z3 < I(m) < d(m) (indices
ascending within each family); the empty tuple is the unit.

All straightening goes through one memoized kernel, LeftAction: left
multiplication of a normal monomial by one generator.  A generator that must
move past the head power h^e of a monomial is commuted through it one factor
at a time, g * h^k * rest = h * (g * h^(k-1) * rest) + [g, h] * h^(k-1) * rest,
which terminates because every step either shortens the product or moves g
towards its place.  Words are straightened by folding their letters in from
the right (Action, the fold every module shares), products of normal forms
likewise, with a power g^e taken in one step where it prepends to every
monomial; an induced module is the same kernel with the generators of a
subalgebra absorbed on the cyclic vector by a character; U acting on itself
is the module induced from the zero subalgebra.  The kernel and the fold
work in integers on algebra images (an int map over one denominator),
combined by algebra.lincomb; normal_form and multiply convert once, to
UEAElements with Fraction coefficients.
"""

from __future__ import annotations

from .algebra import (
    ONE,
    Generator,
    SparseVector,
    bracket_gens,
    gen_order_key,
    gen_str,
    gen_weight,
    lincomb,
    to_fractions,
    to_ints,
    d,
    I,
)

Monomial = tuple  # ((gen, exp), ...)
UNIT: Monomial = ()


def word_of(mono: Monomial):
    """Expand exponents into an explicit word."""
    out = []
    for g, e in mono:
        out.extend([g] * e)
    return tuple(out)


def mono_of_sorted_word(word) -> Monomial:
    """Collapse a word that is already in normal order into a monomial."""
    out = []
    for g in word:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return tuple(out)


def mono_weight(mono: Monomial) -> int:
    return sum(gen_weight(g) * e for g, e in mono)


def mono_degree(mono: Monomial) -> int:
    """Number of generator factors counted with exponents."""
    return sum(e for _, e in mono)


def mono_str(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for g, e in mono:
        parts.append(gen_str(g) if e == 1 else "%s^%d" % (gen_str(g), e))
    return "*".join(parts)


def mono_sort_key(mono: Monomial):
    """Key of the PBW order: expanded words compared letter by letter, a word
    before its extensions.  Past a common prefix, the run g^e that ends a word
    sorts before any other run of g, and of two runs of g followed by larger
    generators the longer one sorts first, so no run is expanded."""
    last = len(mono) - 1
    return tuple((gen_order_key(g), i < last, -e if i < last else e) for i, (g, e) in enumerate(mono))


class UEAElement(SparseVector):
    """Sparse rational combination of normal-form PBW monomials."""

    __slots__ = ()
    key_order = staticmethod(mono_sort_key)
    key_str = staticmethod(mono_str)

    def __mul__(self, other):
        if isinstance(other, UEAElement):
            return multiply(self, other)
        return self.__rmul__(other)


def uea(g: Generator) -> UEAElement:
    return UEAElement({((g, 1),): ONE})


class Action:
    """Generators acting on basis keys; monomials act by a fold.

    Subclasses define act_gen(g, key), the image of one key as an
    algebra image (den, nums), which callers must not mutate.  act_power,
    apply and multiply take and return images, and fold the (generator,
    exponent) pairs of a monomial in from the right with one lincomb per
    factor: the one fold of the package, shared by the straightening kernel
    and every module.
    """

    def act_power(self, g: Generator, e: int, vec: tuple) -> tuple:
        """g^e * vec, one factor g at a time, stopping once the vector is zero."""
        for _ in range(e):
            den, nums = vec
            if not nums:
                break
            vec = lincomb([(c, self.act_gen(g, key)) for key, c in nums.items()], den)
        return vec

    def apply(self, mono, vec: tuple) -> tuple:
        """mono * vec for a tuple mono of (generator, exponent) pairs, in any
        order, and an image vec."""
        for g, e in reversed(mono):
            vec = self.act_power(g, e, vec)
        return vec

    def multiply(self, u: tuple, v: tuple) -> tuple:
        """u * v for an image u over monomials and an image v over keys."""
        den, nums = u
        return lincomb([(c, self.apply(mono, v)) for mono, c in nums.items()], den)


class LeftAction(Action):
    """Memoized left multiplication of normal monomials by one generator.

    act_gen(g, mono) is g * mono in normal form, as an image over monomials.
    Subclasses for induced modules override in_subalgebra and define char: a
    subalgebra generator that reaches the unit (the cyclic vector) acts there
    by its character value.  The base class, with an empty subalgebra, is U
    acting on itself.  Straightened results are memoized per instance.
    """

    def __init__(self):
        self._memo = {}
        self._brackets = {}  # (g, h) -> [g, h] as an image

    def in_subalgebra(self, g: Generator) -> bool:
        return False

    def _in_place(self, g: Generator, e: int, mono: Monomial):
        """g^e * mono as one monomial when g is not absorbed and sorts at or
        before the head of mono, else None."""
        if self.in_subalgebra(g) or (mono and gen_order_key(g) > gen_order_key(mono[0][0])):
            return None
        if mono and mono[0][0] == g:
            return ((g, mono[0][1] + e),) + mono[1:]
        return ((g, e),) + mono

    def act_power(self, g: Generator, e: int, vec: tuple) -> tuple:
        # one step, whatever e, when g^e prepends to every key
        out = {}
        den, nums = vec
        for mono, c in nums.items():
            placed = self._in_place(g, e, mono)
            if placed is None:
                return super().act_power(g, e, vec)
            out[placed] = c
        return den, out

    def act_gen(self, g: Generator, mono: Monomial):
        memo = self._memo
        out = memo.get((g, mono))
        if out is not None:
            return out
        placed = self._in_place(g, 1, mono)
        if placed is not None:
            # g is already in place: too cheap to be worth a memo entry
            return 1, {placed: 1}
        if not mono:
            out = memo[(g, mono)] = to_ints({UNIT: self.char(g)})
            return out
        # g h^k rest = h (g h^(k-1) rest) + [g, h] h^(k-1) rest for the head
        # h^e, taken for k = 1..e in a loop, so that the recursion depth is
        # the number of distinct generators in mono, not its length
        head, e = mono[0]
        rest = mono[1:]
        bracket = self._brackets.get((g, head))
        if bracket is None:
            bracket = self._brackets[(g, head)] = to_ints(bracket_gens(g, head).coeffs)
        bden, bnums = bracket
        out = self.act_gen(g, rest)
        lower = rest
        for k in range(1, e + 1):
            upper = ((head, k),) + rest
            prev, out = out, memo.get((g, upper))
            if out is None:
                pden, pnums = prev
                terms = [(c * bden, self.act_gen(head, m)) for m, c in pnums.items()]
                terms += [(c * pden, self.act_gen(g2, lower)) for g2, c in bnums.items()]
                out = memo[(g, upper)] = lincomb(terms, pden * bden)
            lower = upper
        return out


def straighten(words: dict) -> UEAElement:
    """Normal form of a combination of words (a map word -> coefficient)."""
    pairs = {tuple((g, 1) for g in word): c for word, c in words.items()}
    return UEAElement._trusted(to_fractions(LeftAction().multiply(to_ints(pairs), (1, {UNIT: 1}))))


def normal_form(word) -> UEAElement:
    """Straighten an arbitrary word to the normal PBW form."""
    return straighten({tuple(word): ONE})


def multiply(u: UEAElement, v: UEAElement) -> UEAElement:
    """Associative product of U, with the result in normal form."""
    return UEAElement._trusted(to_fractions(LeftAction().multiply(to_ints(u.coeffs), to_ints(v.coeffs))))


def grade(u: UEAElement):
    """Decompose into ad(d0)-weight-homogeneous components (weight -> element)."""
    buckets = {}
    for m, c in u.items():
        w = mono_weight(m)
        buckets.setdefault(w, {})[m] = c
    return {w: UEAElement._trusted(part) for w, part in buckets.items()}


def in_negative_part(g: Generator) -> bool:
    """Whether g lies in the strictly negative part: I(-j) or d(-j) with j >= 1."""
    kind, n = g
    return kind in ("I", "d") and n <= -1


def negative_part_basis(degree: int, restrict=None):
    """All normal monomials of ad-weight -degree in the allowed generators.

    restrict is a predicate on generators (default: the negative part);
    the output is sorted by the PBW order of the expanded words.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if restrict is None:
        restrict = in_negative_part
    gens = [
        g
        for n in range(degree, 0, -1)
        for g in (I(-n), d(-n))
        if restrict(g)
    ]
    gens.sort(key=gen_order_key)
    out = []

    def extend(word, start, remaining):
        if remaining == 0:
            out.append(mono_of_sorted_word(tuple(word)))
            return
        for idx in range(start, len(gens)):
            g = gens[idx]
            w = -gen_weight(g)
            if w <= remaining:
                word.append(g)
                extend(word, idx, remaining - w)
                word.pop()

    extend([], 0, degree)
    out.sort(key=mono_sort_key)
    return out
